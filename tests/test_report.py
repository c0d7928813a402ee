import collections
import enum
import json

import pytest
from hypothesis import given, settings, strategies as st

from fanocert import report
from fanocert.catalog import Report, run_all
from fanocert.lattice import DivisorClass
from fanocert.report import ReportValueError, report_to_json

# strings lean on the characters JSON must escape, plus any other code point
_chars = st.one_of(st.sampled_from('"\\/\x00\x08\x1f\n\r\t\x7f\xe9 \U0001f600'),
                   st.characters(exclude_categories=()))
_scalars = st.one_of(
    st.text(_chars, max_size=12),
    st.integers(),
    st.integers(min_value=2**64),
    st.integers(max_value=-2**64),
    st.booleans(),
    st.none(),
)
_values = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(_chars, max_size=6), children, max_size=4),
    ),
    max_leaves=24,
)


@settings(deadline=None)
@given(_values)
def test_writer_matches_json_dumps_indent_2(data):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "report_to_dict", lambda _: data)
        assert report_to_json(None) == json.dumps(data, indent=2) + "\n"


class _Level(enum.IntEnum):
    LOW = -1
    HIGH = 7
    HUGE = 2**64


class _Tag(str):
    pass


class _Items(list):
    pass


class _Fields(dict):
    pass


_Pair = collections.namedtuple("_Pair", "first second")

# One of each subclass kind a report must not hold; json.dumps would write
# each like its base type.
_SUBCLASS_VALUES = [_Level.HIGH, _Tag("x"), _Items([1, "a"]), _Pair(1, 2),
                    _Fields({"a": 1})]


@pytest.mark.parametrize("value", _SUBCLASS_VALUES, ids=lambda v: type(v).__name__)
def test_subclass_value_is_refused_at_its_path(value):
    # the writer dispatches on the exact type only, so a subclass of a type
    # it writes is refused like any other type: at the root, as a dict value
    # and nested in a leaf list
    prefix = f"unserializable value of type {type(value)} at $"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "report_to_dict", lambda _: value)
        with pytest.raises(ReportValueError) as err:
            report_to_json(None)
    assert str(err.value) == prefix
    assert _refusal({"w": value}) == prefix + ".summary.w"
    assert _refusal({"w": [[0], [1, value]]}) == prefix + ".summary.w[1][1]"


def test_subclass_key_is_refused_at_its_path():
    message = _refusal({"inner": {"ok": 0, _Tag("k"): 1}})
    assert message == "_Tag key 'k' at $.summary.inner.k; report keys are strings"


def test_writer_makes_no_call_per_leaf():
    encode = report._encode
    kinds = []

    def spy(node, indent, out):
        kinds.append(type(node))
        encode(node, indent, out)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "_encode", spy)
        report_to_json(run_all())
    assert kinds
    assert kinds.count(str) == kinds.count(int) == 0


def test_writer_layout_of_empty_and_nested_containers():
    data = {"a": [], "b": {}, "c": [[], {}, ()], "d": [{"e": (1, -2)}]}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "report_to_dict", lambda _: data)
        assert report_to_json(None) == json.dumps(data, indent=2) + "\n"


def _deep(bottom):
    """Data nested 100 containers deep, and the JSON path of ``bottom``.

    Dicts, lists and tuples alternate down to a dict holding empty
    containers, a leaf tuple and ``bottom``, far past the writer's
    precomputed layouts.
    """
    node = {"empty": [{}, [], ()], "leaves": (1, "a", -2), "bottom": bottom}
    steps = [".bottom"]
    for depth in reversed(range(99)):
        if depth % 3 == 0:
            node = {"k": node, "e": {}}
            steps.append(".k")
        elif depth % 3 == 1:
            node = [[], node, 7]
            steps.append("[1]")
        else:
            node = ("s", node)
            steps.append("[1]")
    return node, "".join(reversed(steps))


def test_writer_matches_json_dumps_100_deep():
    data, _ = _deep(None)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "report_to_dict", lambda _: data)
        assert report_to_json(None) == json.dumps(data, indent=2) + "\n"


def test_float_100_deep_is_refused_at_its_path():
    data, path = _deep(0.5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "report_to_dict", lambda _: data)
        with pytest.raises(ReportValueError) as err:
            report_to_json(None)
    assert str(err.value) == f"float at ${path}; reports are integer-only"
    assert path.count("[1]") == 66


def _refusal(summary) -> str:
    with pytest.raises(ReportValueError) as err:
        report_to_json(Report(certificates=(), summary=summary))
    return str(err.value)


def test_float_is_refused_at_its_path():
    message = _refusal({"cases": 0, "x": [0, {"y": 0.5}]})
    assert message == "float at $.summary.x[1].y; reports are integer-only"


@pytest.mark.parametrize("summary, message", [
    ({"x": [0, 1, 0.5]}, "float at $.summary.x[2]; reports are integer-only"),
    ({"t": ("a", {1}, "b")}, "unserializable value of type <class 'set'> at $.summary.t[1]"),
    ({"x": 0, "y": 0.5, "z": 1}, "float at $.summary.y; reports are integer-only"),
])
def test_refusal_inside_a_leaf_container(summary, message):
    assert _refusal(summary) == message


@pytest.mark.parametrize("value, name", [
    ({1, 2}, "set"),
    (DivisorClass(1, 2), "DivisorClass"),
])
def test_unknown_type_is_refused_at_its_path(value, name):
    message = _refusal({"w": [[0], [1, value]]})
    assert message.startswith("unserializable value of type ")
    assert name in message
    assert message.endswith(" at $.summary.w[1][1]")


@pytest.mark.parametrize("key", [1, 2.5, None, True])
def test_non_str_key_is_refused(key):
    # json.dumps would turn these keys into strings, hiding a float key
    message = _refusal({"inner": {"ok": 0, key: 1}})
    assert message == (f"{type(key).__name__} key {key!r} at $.summary.inner.{key}"
                       "; report keys are strings")
