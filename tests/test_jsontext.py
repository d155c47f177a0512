import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mlresample.jsontext import dumps_indented

# text that looks like the layout the helper builds: brackets, separators and
# line breaks, and non-ASCII characters that the encoder escapes
TRICKY_TEXT = ["},", "],", "},\n    {", "\n", "\t", '"', "\\", "é", " ", "\ud800", "\U0001f600"]
texts = st.text(max_size=6) | st.sampled_from(TRICKY_TEXT)
scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0])
    | texts
)


def containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(texts, children, max_size=4)
    )


values = st.recursive(scalars, containers, max_leaves=24)
# lists of dicts of scalars, which are encoded in one call, or of lists of
# scalars, which are walked member by member
tables = st.lists(
    st.dictionaries(texts, scalars, min_size=1, max_size=3)
    | st.lists(scalars, min_size=1, max_size=3)
    | st.lists(scalars, min_size=1, max_size=3).map(tuple),
    max_size=5,
)


@settings(max_examples=600, deadline=None)
@given(values | tables | st.dictionaries(texts, tables, max_size=3))
@example({"added": [{"kind": "clone", "source": 3}] * 2, "stages": [{"x": [0.5, -0.0]}]})
@example([{"a": 1}, {}])  # an empty member among dicts of scalars
@example([[1], {"a": 1}])  # a list and a dict of scalars side by side
@example({1: [1], True: {}, None: [2], 2.5: ()})  # keys that json.dumps converts to strings
def test_same_text_as_json_dumps_with_indent(obj):
    assert dumps_indented(obj) == json.dumps(obj, indent=2)
