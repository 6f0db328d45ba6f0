"""Spec file parsing, validation, and canonical round-trips."""

import ast
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from isodilation.errors import SpecParseError, SpecValidationError
from isodilation.pipeline import DEMOS
from isodilation.specfile import RULE_PARAMS, SPEC_SCHEMA, emit_spec, parse_spec, spec_from_dict
from isodilation.tolerances import Tolerances

SRC = Path(__file__).resolve().parent.parent / "src" / "isodilation"

VALID_SHIFT = {
    "operator": {"kind": "shift", "rule": {"name": "dirichlet"}},
    "m": 2,
    "truncation": {"N": 64, "n_blocks": 8},
}


class TestParse:
    def test_minimal_shift_spec(self):
        spec = parse_spec(json.dumps(VALID_SHIFT))
        assert spec.kind == "shift"
        assert spec.rule.kind == "dirichlet"
        assert spec.m == 2 and spec.n == 64 and spec.n_blocks == 8
        assert spec.schema_version == 1

    def test_dense_spec(self):
        spec = parse_spec(
            json.dumps(
                {
                    "operator": {"kind": "dense", "entries": [[[0.5, 0.5]]]},
                    "m": 2,
                    "truncation": {"n_blocks": 4},
                }
            )
        )
        assert spec.kind == "dense"
        assert spec.entries_matrix()[0][0] == 0.5 + 0.5j

    def test_malformed_json_reports_line(self):
        with pytest.raises(SpecParseError) as err:
            parse_spec('{"operator": }')
        assert "line 1" in str(err.value)

    def test_unknown_rule_named_in_error(self):
        bad = {
            "operator": {"kind": "shift", "rule": {"name": "drichlet"}},
            "m": 2,
            "truncation": {"N": 64, "n_blocks": 8},
        }
        with pytest.raises(SpecValidationError) as err:
            spec_from_dict(bad)
        assert "drichlet" in " ".join(err.value.errors)

    def test_n_too_small(self):
        bad = dict(VALID_SHIFT, truncation={"N": 3, "n_blocks": 8})
        with pytest.raises(SpecValidationError) as err:
            spec_from_dict(bad)
        assert any("N = 3" in e for e in err.value.errors)

    def test_n_blocks_too_small(self):
        bad = dict(VALID_SHIFT, truncation={"N": 64, "n_blocks": 3})
        with pytest.raises(SpecValidationError):
            spec_from_dict(bad)

    def test_unknown_top_level_field_rejected(self):
        bad = dict(VALID_SHIFT, extra_field=1)
        with pytest.raises(SpecValidationError):
            spec_from_dict(bad)

    def test_unknown_tolerance_rejected(self):
        bad = dict(VALID_SHIFT, tolerances={"no_such_tol": 1e-9})
        with pytest.raises(SpecValidationError):
            spec_from_dict(bad)

    def test_removed_comm_tol_rejected(self):
        bad = dict(VALID_SHIFT, tolerances={"comm_tol": 1e-8})
        with pytest.raises(SpecValidationError) as err:
            spec_from_dict(bad)
        assert "comm_tol" in " ".join(err.value.errors)

    def test_wrong_schema_version_rejected(self):
        bad = dict(VALID_SHIFT, schema_version=2)
        with pytest.raises(SpecValidationError):
            spec_from_dict(bad)

    def test_shift_requires_n(self):
        bad = dict(VALID_SHIFT, truncation={"n_blocks": 8})
        with pytest.raises(SpecValidationError) as err:
            spec_from_dict(bad)
        assert any("require N" in e for e in err.value.errors)

    def test_dense_rejects_mismatched_n(self):
        bad = {
            "operator": {"kind": "dense", "entries": [[[1.0, 0.0]]]},
            "m": 2,
            "truncation": {"N": 4, "n_blocks": 4},
        }
        with pytest.raises(SpecValidationError):
            spec_from_dict(bad)

    def test_dense_rejects_nonsquare(self):
        bad = {
            "operator": {"kind": "dense", "entries": [[[1.0, 0.0], [2.0, 0.0]]]},
            "m": 2,
            "truncation": {"n_blocks": 4},
        }
        with pytest.raises(SpecValidationError):
            spec_from_dict(bad)

    def test_geometric_range_enforced(self):
        bad = {
            "operator": {
                "kind": "shift",
                "rule": {"name": "geometric_concave", "r": 1.5},
            },
            "m": 2,
            "truncation": {"N": 64, "n_blocks": 8},
        }
        with pytest.raises(SpecValidationError):
            spec_from_dict(bad)

    def test_stray_rule_parameter_rejected(self):
        bad = {
            "operator": {"kind": "shift", "rule": {"name": "dirichlet", "r": 0.5}},
            "m": 2,
            "truncation": {"N": 64, "n_blocks": 8},
        }
        with pytest.raises(SpecValidationError):
            spec_from_dict(bad)

    @pytest.mark.parametrize(
        "rule, line",
        [
            ({"name": "constant"}, "constant rule requires parameter c"),
            ({"name": "geometric_concave"}, "geometric_concave rule requires parameter r"),
            ({"name": "table", "values": [1.0]}, "table rule requires values and tail_value"),
            ({"name": "dirichlet", "r": 0.5, "c": 1.0}, "rule 'dirichlet' does not take parameter(s) ['c', 'r']"),
            ({"name": "table", "r": 0.5, "values": [1.0]}, "rule 'table' does not take parameter(s) ['r']"),
        ],
        ids=["constant-missing", "geometric-missing", "table-missing", "dirichlet-stray", "table-stray"],
    )
    def test_rule_parameter_error_line(self, rule, line):
        with pytest.raises(SpecValidationError) as err:
            spec_from_dict(dict(VALID_SHIFT, operator={"kind": "shift", "rule": rule}))
        assert err.value.errors == [f"operator.rule: {line}"]

    @pytest.mark.parametrize("path", ["general_m", "three_concave", "badea_2iso"])
    def test_path_key_rejected(self, path):
        # the classification picks the construction; no spec key forces one
        with pytest.raises(SpecValidationError) as err:
            spec_from_dict(dict(VALID_SHIFT, path=path))
        assert any("path" in line for line in err.value.errors)


class TestNonFinite:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_literal_is_a_parse_error(self, literal):
        text = json.dumps(dict(VALID_SHIFT, tolerances={"isometry_tol": 1e-10}))
        with pytest.raises(SpecParseError, match=literal):
            parse_spec(text.replace("1e-10", literal))

    def test_non_finite_dense_entry_is_a_parse_error(self):
        text = '{"operator":{"kind":"dense","entries":[[[NaN,0.0]]]},"m":2,"truncation":{"n_blocks":4}}'
        with pytest.raises(SpecParseError):
            parse_spec(text)

    @pytest.mark.parametrize(
        "data",
        [
            dict(VALID_SHIFT, tolerances={"isometry_tol": 1e999}),
            dict(VALID_SHIFT, operator={"kind": "shift", "rule": {"name": "constant", "c": 1e999}}),
            dict(
                VALID_SHIFT,
                operator={"kind": "shift", "rule": {"name": "table", "values": [1.0], "tail_value": 1e999}},
            ),
            {"operator": {"kind": "dense", "entries": [[[1e999, 0.0]]]}, "m": 2, "truncation": {"n_blocks": 4}},
        ],
        ids=["tolerance", "constant", "table-tail", "dense-entry"],
    )
    def test_overflowing_number_is_rejected(self, data):
        # 1e999 is valid JSON that reads as an infinite float
        with pytest.raises(SpecValidationError):
            parse_spec(json.dumps(data).replace("Infinity", "1e999"))

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_tolerances_replace_rejects_non_finite(self, value):
        with pytest.raises(ValueError):
            Tolerances().replace(isometry_tol=value)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(DEMOS))
    def test_catalog_round_trips(self, name):
        spec = spec_from_dict(DEMOS[name])
        again = parse_spec(emit_spec(spec))
        assert again == spec
        assert again.to_jsonable() == spec.to_jsonable()

    @pytest.mark.parametrize(
        "rule",
        [
            {"name": "constant", "c": 1.3},
            {"name": "table", "values": [1.2, 0.8, 1.5], "tail_value": 1.1},
        ],
        ids=["constant", "table"],
    )
    def test_rule_parameters_round_trip(self, rule):
        spec = spec_from_dict(dict(VALID_SHIFT, operator={"kind": "shift", "rule": rule}))
        again = parse_spec(emit_spec(spec))
        assert again == spec
        assert again.to_jsonable()["operator"]["rule"] == rule

    def test_tolerances_and_seed_round_trip(self):
        data = dict(VALID_SHIFT, tolerances={"psd_tol": 1e-8}, seed=7)
        spec = spec_from_dict(data)
        again = parse_spec(emit_spec(spec))
        assert again == spec
        assert again.tolerances().psd_tol == 1e-8
        assert again.seed == 7


def test_rule_properties_are_built_from_rule_params():
    """`RULE_PARAMS` is the one list of rule parameters: the schema's rule
    properties are `name` and the parameters of every rule, in order."""
    rule = SPEC_SCHEMA["properties"]["operator"]["properties"]["rule"]
    expected = {"name": {"type": "string"}}
    for params in RULE_PARAMS.values():
        for key, (_, schema) in params.items():
            assert expected.setdefault(key, schema) == schema, key
    assert list(rule["properties"].items()) == list(expected.items())
    assert list(rule["properties"]) == ["name", "c", "r", "values", "tail_value"]


def test_specfile_imports_no_construction_module():
    """Parsing a spec needs the rule catalogue, the tolerances and the
    errors; an import of a construction module would let a spec key name
    a construction, which the classification alone picks."""
    imported = set()
    for node in ast.walk(ast.parse((SRC / "specfile.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            if node.level or (node.module or "").split(".")[0] == "isodilation":
                module = (node.module or "").removeprefix("isodilation").strip(".")
                imported |= {module} if module else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names if a.name.split(".")[0] == "isodilation"}
    assert sorted(imported - {"errors", "operators", "tolerances"}) == []


def test_no_module_imports_jsonschema():
    """Specs are validated in the package; `jsonschema` is a test-only oracle
    and no runtime dependency."""
    imports = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            imports += [f"{path.name}:{node.lineno}" for name in names if name.split(".")[0] == "jsonschema"]
    assert imports == []


def test_parsing_a_dense_spec_loads_no_jsonschema():
    entries = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.25, 0.0]]]
    text = json.dumps({"operator": {"kind": "dense", "entries": entries}, "m": 3, "truncation": {"n_blocks": 6}})
    code = (
        "import sys, isodilation\n"
        f"isodilation.parse_spec({text!r})\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_every_tolerance_is_read():
    """A spec can set every Tolerances field, so each must be read outside
    tolerances.py; a field whose last reader is gone is a dead knob."""
    read = set()
    for path in SRC.rglob("*.py"):
        if path.name != "tolerances.py":
            tree = ast.parse(path.read_text())
            read |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    fields = {f.name for f in dataclasses.fields(Tolerances)}
    assert sorted(fields - read) == []


def test_no_public_function_overrides_a_tolerance():
    """A function that takes the run's `tols` reads every threshold from it;
    a per-call `tol` or `*_tol` parameter beside it is a second source."""
    knobs = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                args = node.args
                names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
                if "tols" in names:
                    knobs += [
                        f"{path.name}:{node.name}({name})"
                        for name in names
                        if name == "tol" or name.endswith("_tol")
                    ]
    assert knobs == []


def test_no_dense_product_with_the_corner():
    """Products with T go through its block (`OperatorCorner`'s `dot`,
    `adjoint_dot`, `congruence`, or the `Block` `AssembledDilation.t`); a
    `@` on a corner's `.matrix` or on `AssembledDilation.t`, directly or
    through a local name bound to one, is a second, dense T product."""

    def reads_t(node, aliases):
        return any(
            (isinstance(n, ast.Attribute) and n.attr in ("matrix", "t"))
            or (isinstance(n, ast.Name) and n.id in aliases)
            for n in ast.walk(node)
        )

    dense = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "operators.py":
            continue
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            aliases = {
                target.id
                for node in ast.walk(fn)
                if isinstance(node, ast.Assign) and reads_t(node.value, set())
                for target in node.targets
                if isinstance(target, ast.Name)
            }
            dense += [
                f"{path.name}:{node.lineno}"
                for node in ast.walk(fn)
                if isinstance(node, ast.BinOp)
                and isinstance(node.op, ast.MatMult)
                and (reads_t(node.left, aliases) or reads_t(node.right, aliases))
            ]
    assert dense == []


def test_no_bare_matmul_outside_the_block_type():
    """Products of the construction's blocks go through `hermitian.Block`,
    which multiplies a real monomial by slices or gathers and any other
    block by `dense_product`; a bare `@` in these modules is a dense product
    that skips the structure.  `_gram_schmidt_rank` is the one kernel that
    is dense by design."""
    bare = []
    for name in ("builder.py", "verifier.py", "diagonal.py", "pipeline.py"):
        for fn in ast.walk(ast.parse((SRC / name).read_text())):
            if isinstance(fn, ast.FunctionDef) and fn.name != "_gram_schmidt_rank":
                bare += [
                    f"{name}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                ]
    assert sorted(set(bare)) == []


def _callee(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


def test_real_monomial_is_called_only_by_block_mono():
    """`real_monomial` is the one structure reader, called only in
    `Block.mono`: a second call site would be a second structure reader
    with products of its own beside `Block`'s."""
    inside, outside = [], []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        in_mono = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "Block"
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and fn.name == "mono"
            for node in ast.walk(fn)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _callee(node) == "real_monomial":
                (inside if id(node) in in_mono else outside).append(f"{path.name}:{node.lineno}")
    assert len(inside) == 1 and outside == []


def test_every_private_definition_is_referenced():
    """A `_`-prefixed function or class under `src/` that no code under
    `src/` names is a leftover of a deleted caller."""
    defined, named = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined[node.name] = f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert sorted(where for name, where in defined.items() if name not in named) == []


def test_every_error_class_is_raised_or_subclassed():
    """An exception class that no code under `src/` raises or derives from
    is dead API: callers would catch an error that never comes."""
    raised, bases = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
            elif isinstance(node, ast.ClassDef):
                bases |= {b.id for b in node.bases if isinstance(b, ast.Name)}
    defined = [
        node.name
        for node in ast.parse((SRC / "errors.py").read_text()).body
        if isinstance(node, ast.ClassDef)
    ]
    assert defined
    assert [name for name in defined if name not in raised | bases] == []


def test_every_hermitian_and_eigh_call_passes_its_tolerance():
    """`hermitian`, `eigh` and `eigh_stack` fall back to the default
    tolerances when called without one, so a call that omits it ignores the
    run's override."""
    tolerance_of = {"hermitian": "herm_tol", "eigh": "eig_tol", "eigh_stack": "eig_tol"}
    omitted = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in tolerance_of
                and len(node.args) < 2
                and tolerance_of[node.func.id] not in {k.arg for k in node.keywords}
            ):
                omitted.append(f"{path.name}:{node.lineno}:{node.func.id}")
    assert omitted == []
