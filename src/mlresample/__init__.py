"""Imbalance metrics, resampling and label-decoupling tools for multilabel datasets."""

from .arff import MulanFormatError, parse_label_header, parse_mulan, write_mulan
from .dataset import AttributeSpec, MultiLabelDataset, label_counts
from .decoupling import (
    PERCENTILE_PRESETS,
    DecoupleConfig,
    HybridConfig,
    hybrid_resample,
    nearest_rank_quantile,
    remedial,
)
from .evaluation import (
    EvaluationReport,
    PredictionSet,
    evaluate,
    f_measure,
    hamming_loss,
    micro_auc,
    precision,
    ranking_loss,
    recall,
)
from .metrics import (
    ConcurrenceRow,
    ImbalanceProfile,
    UndefinedIRLblError,
    card,
    concurrence_csv,
    concurrence_export,
    dens,
    distinct_labelsets,
    imbalance_summary,
    irlbl,
    mean_ir,
    profile,
    scumble,
    scumble_ins,
    scumble_values,
    tcs,
    tcs_from_counts,
)
from .mlknn import MLkNNModel, mlknn_predict, mlknn_train
from .partitioning import FoldAssignment, fold_datasets, stratified_kfold
from .resampling import (
    AddedInstance,
    MLENNConfig,
    MLROSConfig,
    MLSMOTEConfig,
    ResampleConfig,
    ResampleReport,
    ml_ros,
    mlenn,
    mlsmote,
    resample,
)

__version__ = "0.1.0"
