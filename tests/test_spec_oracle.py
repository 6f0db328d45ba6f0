"""The in-package schema walker against the JSON Schema reference validator.

`jsonschema` is a test-only oracle here, as `numpy.linalg` is for the dense
kernels.  The corpus is every valid spec below plus every single mutation
of it: each value replaced by one of `REPLACEMENTS`, each object member
deleted, and an unknown key added to each object.  On every member the
walker and `Draft202012Validator(SPEC_SCHEMA)` give the same error lines,
so the same verdict and the same error paths.  The one intended difference
is the integer rule: Draft 2020-12 counts a float with an integral value,
such as `2.0`, as an integer, and the walker admits JSON integers only.
"""

import copy

import jsonschema
import pytest

from isodilation.errors import SpecValidationError
from isodilation.pipeline import DEMOS
from isodilation.specfile import SPEC_SCHEMA, spec_from_dict

BASES = dict(
    DEMOS,
    table={
        "schema_version": 1,
        "operator": {"kind": "shift", "rule": {"name": "table", "values": [1.5, 1.25], "tail_value": 1}},
        "m": 3,
        "truncation": {"N": 48, "n_blocks": 6},
        "tolerances": {"isometry_tol": 1e-10, "psd_tol": 1e-9},
        "seed": 7,
    },
    constant={
        "operator": {"kind": "shift", "rule": {"name": "constant", "c": 1}},
        "m": 2,
        "truncation": {"N": 48, "n_blocks": 6},
        "seed": 0,
    },
    dense={
        "operator": {"kind": "dense", "entries": [[[0.5, 0], [0.0, 0.25]], [[0, 0], [-0.5, 1]]]},
        "m": 3,
        "truncation": {"N": 2, "n_blocks": 5},
    },
)

# A wrong type at every level (null, bool, number, string, array, object),
# the bounds of m (2), N and n_blocks (1), seed (0) and every tolerance
# (exclusive 0) with their neighbours, floats with and without an integral
# value, and the complex pairs of one and of three numbers.
REPLACEMENTS = [None, True, False, -1, 0, 1, 2, 0.0, 1.0, 2.0, 0.5, "x", [], {}, [1.0], [1, 2, 3]]

INTEGER_FIELDS = (("m",), ("seed",), ("truncation", "N"), ("truncation", "n_blocks"))


def _nodes(value, path=()):
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _nodes(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _nodes(item, path + (index,))


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def _mutations(data):
    """(label, mutated spec) for every single mutation of `data`."""
    for path in _nodes(data):
        for new in REPLACEMENTS:
            if not path:
                yield f"$ = {new!r}", new
                continue
            out = copy.deepcopy(data)
            _at(out, path[:-1])[path[-1]] = new
            yield f"{path} = {new!r}", out
        node = _at(data, path)
        if path and isinstance(_at(data, path[:-1]), dict):
            out = copy.deepcopy(data)
            del _at(out, path[:-1])[path[-1]]
            yield f"del {path}", out
        if isinstance(node, dict):
            out = copy.deepcopy(data)
            _at(out, path)["path"] = "general_m"
            yield f"{path} + path", out


def _walker_lines(data):
    try:
        spec_from_dict(data)
    except SpecValidationError as exc:
        if str(exc).startswith("spec failed schema validation"):
            return sorted(exc.errors)
    return []


def _json_path(path):
    return "$" + "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)


def _integer_rule_lines(data):
    """The walker's lines that the oracle lacks: a float in an integer field."""
    lines = []
    for path in INTEGER_FIELDS:
        try:
            value = _at(data, path)
        except (KeyError, TypeError, IndexError):
            continue
        if type(value) is float and value.is_integer():
            lines.append(f"{_json_path(path)}: {value!r} is not of type 'integer'")
    return lines


def _oracle_lines(data):
    validator = jsonschema.Draft202012Validator(SPEC_SCHEMA)
    return [f"{err.json_path}: {err.message}" for err in validator.iter_errors(data)]


@pytest.mark.parametrize("name", sorted(BASES))
def test_walker_agrees_with_the_reference_validator(name):
    assert _oracle_lines(BASES[name]) == []
    assert _walker_lines(BASES[name]) == []
    disagreements = []
    count = 0
    for label, data in _mutations(BASES[name]):
        count += 1
        expected = sorted(_oracle_lines(data) + _integer_rule_lines(data))
        got = _walker_lines(data)
        if got != expected:
            disagreements.append((label, got, expected))
    assert count > 100
    assert disagreements == []


@pytest.mark.parametrize("path", INTEGER_FIELDS, ids=lambda p: ".".join(p))
def test_integral_float_is_no_integer(path):
    """The named difference: the reference validator admits `m: 2.0`."""
    data = copy.deepcopy(BASES["table"])
    _at(data, path[:-1])[path[-1]] = float(_at(data, path))
    assert _oracle_lines(data) == []
    line = f"{_json_path(path)}: {_at(data, path)!r} is not of type 'integer'"
    assert _walker_lines(data) == [line]


@pytest.mark.parametrize(
    "mutate, path",
    [
        (lambda d: d.update(schema_version=True), "$.schema_version"),
        (lambda d: d.update(m=True), "$.m"),
        (lambda d: d["tolerances"].update(psd_tol=True), "$.tolerances.psd_tol"),
        (lambda d: d["operator"]["rule"].update(tail_value=False), "$.operator.rule.tail_value"),
        (lambda d: d["operator"]["rule"].update(values=[]), "$.operator.rule.values"),
        (lambda d: d["tolerances"].update(psd_tol=0), "$.tolerances.psd_tol"),
        (lambda d: d.update(m=1), "$.m"),
        (lambda d: d.update(seed=-1), "$.seed"),
        (lambda d: d["truncation"].update(N=0), "$.truncation.N"),
        (lambda d: d["truncation"].update(n_blocks=0), "$.truncation.n_blocks"),
        (lambda d: d.update(path="general_m"), "$"),
        (lambda d: d["operator"].update(path="general_m"), "$.operator"),
        (lambda d: d["operator"]["rule"].update(path="general_m"), "$.operator.rule"),
        (lambda d: d["truncation"].update(path="general_m"), "$.truncation"),
        (lambda d: d.update(operator="shift"), "$.operator"),
        (lambda d: d["operator"].update(rule=[]), "$.operator.rule"),
        (lambda d: d.update(truncation=48), "$.truncation"),
        (lambda d: d.update(tolerances=None), "$.tolerances"),
    ],
)
def test_named_edges_on_a_shift(mutate, path):
    data = copy.deepcopy(BASES["table"])
    mutate(data)
    lines = _walker_lines(data)
    assert lines == _oracle_lines(data)
    assert [line.split(": ", 1)[0] for line in lines] == [path]


@pytest.mark.parametrize(
    "entries, path",
    [
        ([], "$.operator.entries"),
        ([[]], "$.operator.entries[0]"),
        ([[[1.0]]], "$.operator.entries[0][0]"),
        ([[[1, 2, 3]]], "$.operator.entries[0][0]"),
        ([[[True, 0.0]]], "$.operator.entries[0][0][0]"),
        ([[[0.5, "0"]]], "$.operator.entries[0][0][1]"),
        ([[(0.5, 0.0)]], "$.operator.entries[0][0]"),
        ([[{"re": 0.5, "im": 0.0}]], "$.operator.entries[0][0]"),
        (["ab"], "$.operator.entries[0]"),
        ({"0": [[0.5, 0.0]]}, "$.operator.entries"),
    ],
)
def test_named_edges_in_dense_entries(entries, path):
    data = {"operator": {"kind": "dense", "entries": entries}, "m": 3, "truncation": {"n_blocks": 6}}
    lines = _walker_lines(data)
    assert lines == _oracle_lines(data)
    assert [line.split(": ", 1)[0] for line in lines] == [path]
