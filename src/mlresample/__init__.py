"""Imbalance metrics, resampling and label-decoupling tools for multilabel datasets."""

from .arff import MulanFormatError, parse_label_header, parse_mulan, write_mulan
from .dataset import AttributeSpec, MultiLabelDataset, label_counts
from .decoupling import (
    PERCENTILE_PRESETS,
    DecoupleConfig,
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
    concurrence_csv,
    concurrence_export,
    profile,
    tcs_from_counts,
)
from .mlknn import MLkNNModel, mlknn_predict, mlknn_train
from .partitioning import FoldAssignment, fold_datasets, stratified_kfold
from .resampling import (
    AddedInstance,
    MLENNConfig,
    MLROSConfig,
    MLSMOTEConfig,
    ResampleReport,
    resample,
)

__version__ = "0.1.0"
