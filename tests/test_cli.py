"""CLI behavior: exit codes, report emission, reproducibility."""

import ast
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from isodilation import cli
from isodilation.cli import main
from isodilation.pipeline import DEMOS, demo_spec, run_pipeline

DIRICHLET_SPEC = """\
{"operator":{"kind":"shift","rule":{"name":"dirichlet"}},
 "m":2,"truncation":{"N":24,"n_blocks":5}}
"""

NOT_CONCAVE_SPEC = """\
{"operator":{"kind":"dense","entries":[[[1.5,0.0]]]},
 "m":2,"truncation":{"n_blocks":6}}
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(DIRICHLET_SPEC)
    return path


class TestExitCodes:
    def test_pass_is_zero(self, spec_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["--spec", str(spec_file), "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["overall"] is True

    def test_precondition_failure_is_two(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(NOT_CONCAVE_SPEC)
        assert main(["--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert "no construction path" in err

    @pytest.mark.parametrize("entry", ["1.000001", "1.00000001"])
    def test_nonunitary_dense_general_path_is_two(self, tmp_path, capsys, entry):
        # expansive and 2-concave within class_tol, yet not unitary: the
        # zero metric cannot dominate the 1-defect
        path = tmp_path / "near.json"
        path.write_text(
            f'{{"operator":{{"kind":"dense","entries":[[[{entry},0.0]]]}},'
            '"m":2,"truncation":{"n_blocks":6}}'
        )
        assert main(["--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "not unitary" in err

    def test_construction_gate_on_selected_path_is_two(self, tmp_path, capsys):
        # diag(t, 0.5) with t^2 = 1 + 10^(-11/3), m = 3: beta_3 = (t^2 - 1)^3
        # is about +1e-11 on e_0, inside class_tol, so the classification
        # admits the 3-concave path; its representer t^2 (t^2 - 1) is
        # positive there, and the gate's refusal is a precondition failure,
        # not a traceback
        t = math.sqrt(1 + 10 ** (-11 / 3))
        spec = {
            "operator": {
                "kind": "dense", "entries": [[[t, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]],
            },
            "m": 3, "truncation": {"n_blocks": 6},
        }
        path = tmp_path / "near.json"
        path.write_text(json.dumps(spec))
        assert main(["--spec", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: automatically selected path 'three_concave'")
        assert "representer has positive eigenvalue" in err
        assert "expansive: ok=False" in err
        # no spec key forces a path past the classification's error policy
        path.write_text(json.dumps(dict(spec, path="three_concave")))
        assert main(["--spec", str(path)]) == 3
        assert "path" in capsys.readouterr().err

    def test_validation_error_is_three(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"operator":{"kind":"shift","rule":{"name":"drichlet"}},'
                        '"m":2,"truncation":{"N":64,"n_blocks":8}}')
        assert main(["--spec", str(path)]) == 3
        assert "drichlet" in capsys.readouterr().err

    def test_parse_error_is_three(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["--spec", str(path)]) == 3

    @pytest.mark.parametrize(
        "rule, extra, key",
        [
            ('{"name":"constant","c":HUGE}', "", "parameter c"),
            ('{"name":"table","values":[1.5,HUGE],"tail_value":1.0}', "", "parameter values"),
            ('{"name":"dirichlet"}', ',"tolerances":{"psd_tol":HUGE}', "psd_tol"),
            # no run reads a seed: the key is refused as unknown
            ('{"name":"dirichlet"}', ',"seed":LONG', "'seed' was unexpected"),
        ],
        ids=["rule-parameter", "table-value", "tolerance", "seed-past-digit-limit"],
    )
    def test_integer_beyond_float_range_is_three(self, tmp_path, capsys, rule, extra, key):
        # 401 digits overflow a float; 5001 exceed what `int` reads from text
        text = (f'{{"operator":{{"kind":"shift","rule":{rule}}},'
                f'"m":2,"truncation":{{"N":12,"n_blocks":6}}{extra}}}')
        path = tmp_path / "huge.json"
        path.write_text(text.replace("HUGE", "9" * 401).replace("LONG", "9" * 5001))
        assert main(["--spec", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err

    def test_missing_file_is_three(self, capsys):
        assert main(["--spec", "/nonexistent/spec.json"]) == 3

    def test_unknown_demo_is_three(self, capsys):
        assert main(["demo", "no-such-demo"]) == 3

    def test_bad_tol_is_three(self, spec_file, capsys):
        assert main(["--spec", str(spec_file), "--tol", "psd_tol"]) == 3
        assert main(["--spec", str(spec_file), "--tol", "psd_tol=abc"]) == 3

    def test_infinite_tol_is_three(self, spec_file, capsys):
        # an infinite tolerance would switch its check off
        assert main(["--spec", str(spec_file), "--tol", "isometry_tol=inf"]) == 3
        assert "isometry_tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text",
        [
            DIRICHLET_SPEC.replace('"m":2', '"tolerances":{"isometry_tol":Infinity},"m":2'),
            DIRICHLET_SPEC.replace('"m":2', '"tolerances":{"isometry_tol":NaN},"m":2'),
            DIRICHLET_SPEC.replace('"dirichlet"}', '"constant","c":Infinity}'),
            NOT_CONCAVE_SPEC.replace("1.5,0.0", "NaN,0.0"),
        ],
        ids=["tolerance-inf", "tolerance-nan", "rule-inf", "dense-nan"],
    )
    def test_non_finite_spec_number_is_three(self, tmp_path, capsys, text):
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert main(["--spec", str(path)]) == 3
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, text",
        [
            ("m", DIRICHLET_SPEC.replace('"m":2', '"m":2.0')),
            ("N", DIRICHLET_SPEC.replace('"N":24', '"N":24.0')),
            ("n_blocks", DIRICHLET_SPEC.replace('"n_blocks":5', '"n_blocks":5.0')),
        ],
    )
    def test_float_in_an_integer_field_is_three(self, tmp_path, capsys, key, text):
        # JSON Schema counts 2.0 as an integer; the spec format does not
        path = tmp_path / "spec.json"
        path.write_text(text)
        assert main(["--spec", str(path)]) == 3
        assert f".{key}: " in capsys.readouterr().err

    def test_unwritable_out_is_three(self, tmp_path, capsys):
        out = tmp_path / "missing-dir" / "r.json"
        assert main(["demo", "strict-2concave", "--out", str(out)]) == 3
        assert "cannot write report" in capsys.readouterr().err

    def test_removed_comm_tol_is_three(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(json.loads(DIRICHLET_SPEC), tolerances={"comm_tol": 1e-8})))
        assert main(["--spec", str(path)]) == 3
        assert "comm_tol" in capsys.readouterr().err
        path.write_text(DIRICHLET_SPEC)
        assert main(["--spec", str(path), "--tol", "comm_tol=1e-8"]) == 3
        assert "comm_tol" in capsys.readouterr().err

    def test_removed_horizon_is_three(self, tmp_path, capsys):
        # the scalar metric is solved in closed form on the window; a
        # horizon has no effect and is refused like any unknown field
        spec = json.loads(DIRICHLET_SPEC)
        spec["truncation"]["horizon"] = 96
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["--spec", str(path)]) == 3
        assert "horizon" in capsys.readouterr().err

    def test_removed_inv_tol_is_three(self, tmp_path, capsys):
        # a clamped representer makes every p(n) >= I, so no invertibility
        # threshold is read; the field is refused like any unknown tolerance
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(dict(DEMOS["strict-2concave"], tolerances={"inv_tol": 2.0})))
        assert main(["--spec", str(path)]) == 3
        assert "inv_tol" in capsys.readouterr().err
        path.write_text(json.dumps(DEMOS["strict-2concave"]))
        assert main(["--spec", str(path), "--tol", "inv_tol=2.0"]) == 3
        assert "inv_tol" in capsys.readouterr().err

    def test_no_spec_is_three(self, capsys):
        assert main([]) == 3
        assert "--spec" in capsys.readouterr().err

    def test_verify_without_spec_is_three(self, capsys):
        assert main(["verify"]) == 3
        assert "--spec" in capsys.readouterr().err


class TestSubcommands:
    def test_list_demos(self, capsys):
        assert main(["--list-demos"]) == 0
        out = capsys.readouterr().out
        for name in ("dirichlet-2iso", "scalar-3concave", "nonisomorphic-pair"):
            assert name in out

    def test_verify_only_classifies(self, spec_file, capsys):
        assert main(["verify", "--spec", str(spec_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["admissible_paths"] == ["general_m"]
        assert "checks" not in report

    def test_verify_precondition_exit(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(NOT_CONCAVE_SPEC)
        assert main(["verify", "--spec", str(path)]) == 2

    def test_demo_runs(self, tmp_path):
        out = tmp_path / "demo.json"
        assert main(["demo", "scalar-3concave", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["overall"] is True
        assert report["model"]["weights_head"][1] == pytest.approx(1.118034, abs=1e-6)

    def test_tol_override_flows_through(self, spec_file, tmp_path):
        out = tmp_path / "report.json"
        assert main(["--spec", str(spec_file), "--out", str(out),
                     "--tol", "isometry_tol=1e-4"]) == 0
        report = json.loads(out.read_text())
        check = next(c for c in report["checks"] if c["name"] == "w_m_isometry")
        assert check["tolerance"] == 1e-4


STRICT_SHIFT = Path(__file__).resolve().parent.parent / "spec-examples" / "strict-shift.json"


class TestOptionPlacement:
    """An option is read wherever it stands on the command line; one the
    command does not read is refused, not dropped."""

    def test_out_before_demo_writes_the_file(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert main(["--out", str(out), "demo", "strict-2concave"]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["overall"] is True

    def test_tol_before_verify_is_validated(self, capsys):
        assert main(["--tol", "herm_tol=abc", "verify", "--spec", str(STRICT_SHIFT)]) == 3
        assert "herm_tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, option",
        [
            (["demo", "strict-2concave"], ["--tol", "psd_tol=1e-9"]),
            (["demo", "strict-2concave"], ["--spec", str(STRICT_SHIFT)]),
        ],
        ids=["demo-tol", "demo-spec"],
    )
    @pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
    def test_option_the_command_does_not_read_is_three(self, capsys, command, option, before):
        argv = option + command if before else command + option
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert option[0] in captured.err


SPEC_EXAMPLES = Path(__file__).resolve().parent.parent / "spec-examples"


class TestExitPolicy:
    """`main` maps every outcome through one table: a usage error is an
    input error (3), and a gate of the selected path that fails at the
    run's tolerances is a precondition failure (2), never a traceback."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["demo"], "NAME"),
            (["--bogus"], "--bogus"),
            (["frob"], "'frob'"),
            (["demo", "strict-2concave", "--seed", "x"], "--seed"),
            (["demo", "strict-2concave", "extra"], "extra"),
            (["demo", "strict-2concave", "--trials", "4"], "--trials"),
        ],
        ids=[
            "demo-without-name", "unknown-option", "unknown-command", "bad-seed", "extra-argument",
            "trials-is-no-option",
        ],
    )
    def test_usage_error_is_three(self, capsys, argv, named):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and named in captured.err

    def test_negative_seed_is_three(self, capsys):
        # `--seed` is no option: every check is exact
        assert main(["demo", "strict-2concave", "--seed", "-1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unrecognized arguments: --seed -1\n"

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["verify", "--spec", str(STRICT_SHIFT), "--seed", "5"], "unrecognized arguments: --seed 5"),
            (["--spec", str(STRICT_SHIFT), "--seed=7"], "unrecognized arguments: --seed=7"),
            # where a command may still stand, the value is read as the command
            (["--seed", "5", "demo", "strict-2concave"], "argument command: invalid choice: '5'"),
            (["--seed", "5", "verify", "--spec", str(STRICT_SHIFT)],
             "argument command: invalid choice: '5'"),
        ],
        ids=["after-verify", "spec", "before-demo", "before-verify"],
    )
    def test_seed_is_no_option(self, capsys, argv, line):
        # every check is exact: no run reads a seed
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {line}")

    def test_seed_is_no_spec_key(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(DIRICHLET_SPEC.replace('"m":2', '"seed":3,"m":2'))
        assert main(["--spec", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: $: Additional properties are not allowed ('seed' was unexpected)\n"
        )

    def test_usage_error_from_the_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "isodilation.cli", "--bogus"], capture_output=True, text=True
        )
        assert proc.returncode == 3
        assert proc.stderr == "error: unrecognized arguments: --bogus\n"

    def test_help_is_zero(self):
        proc = subprocess.run(
            [sys.executable, "-m", "isodilation.cli", "--help"], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("usage: dilate")

    @pytest.mark.parametrize(
        "spec, tol, path, gate",
        [
            ("dirichlet-2iso", "psd_tol=1e-300", "general_m", "fails to dominate the defect"),
            ("strict-shift.json", "welldef_tol=1e-300", "general_m", "does not vanish"),
            ("dense-3concave.json", "welldef_tol=1e-300", "three_concave", "does not vanish"),
        ],
        ids=["dirichlet-2iso-psd_tol", "strict-shift-welldef_tol", "dense-3concave-welldef_tol"],
    )
    def test_gate_failing_at_the_run_tolerances_is_two(self, tmp_path, capsys, spec, tol, path, gate):
        if spec in DEMOS:
            spec_path = tmp_path / "spec.json"
            spec_path.write_text(json.dumps(DEMOS[spec]))
        else:
            spec_path = SPEC_EXAMPLES / spec
        assert main(["--spec", str(spec_path), "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        first, *classification = captured.err.splitlines()
        assert first.startswith(f"error: automatically selected path {path!r} failed its construction gate")
        assert gate in first
        assert classification and all(line.startswith("  ") and " ok=" in line for line in classification)
        assert any(line.startswith("  expansive: ok=") for line in classification)

    @pytest.mark.parametrize(
        "argv, error",
        [
            (["--spec", "dense-3concave.json", "--tol", "herm_tol=1e-300"], "deviates from its adjoint"),
            (["--spec", "dense-3concave.json", "--tol", "eig_tol=1e-300"], "residuals out of tolerance"),
            (["--spec", "strict-shift.json", "--tol", "stein_tol=1e-300"], "invariance residual"),
            (["verify", "--spec", "dense-3concave.json", "--tol", "eig_tol=1e-300"],
             "residuals out of tolerance"),
        ],
        ids=["dense-herm_tol", "dense-eig_tol", "shift-stein_tol", "verify-dense-eig_tol"],
    )
    def test_tolerance_a_kernel_cannot_meet_is_two(self, capsys, argv, error):
        # HermitianityError and ConvergenceError: the run's tolerances
        # cannot be met, a precondition failure like a failed gate
        at = argv.index("--spec") + 1
        argv = argv[:at] + [str(SPEC_EXAMPLES / argv[at])] + argv[at + 1:]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and error in captured.err
        assert "Traceback" not in captured.err

    def test_main_has_one_exit_table(self):
        """One `try` in `main`, whose two handlers are the exit table; no
        other place in the module ends the process or prints usage."""
        tree = ast.parse(Path(cli.__file__).read_text())
        main_def = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
        tries = [n for n in ast.walk(main_def) if isinstance(n, ast.Try)]
        assert len(tries) == 1
        handled = [h.type.id for h in tries[0].handlers]
        assert handled == ["SpecError", "PreconditionError"]
        called = {
            n.func.attr for n in ast.walk(main_def)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        }
        assert not called & {"error", "print_usage", "exit"}


class TestProcessInvocation:
    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "report.json"
        proc = subprocess.run(
            [sys.executable, "-m", "isodilation.cli", "demo", "scalar-3concave",
             "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(out.read_text())["overall"] is True

    def test_reports_byte_stable_across_processes(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(DIRICHLET_SPEC)
        texts = []
        for out_name in ("a.json", "b.json"):
            out = tmp_path / out_name
            proc = subprocess.run(
                [sys.executable, "-m", "isodilation.cli", "--spec", str(spec),
                 "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            lines = [
                line for line in out.read_text().splitlines()
                if '"generated_at"' not in line
            ]
            texts.append("\n".join(lines))
        assert texts[0] == texts[1]


class TestReportStability:
    def _strip_timestamp(self, report: dict) -> dict:
        out = dict(report)
        out.pop("generated_at", None)
        return out

    def test_reports_are_reproducible_given_seed(self):
        spec = demo_spec("strict-2concave")
        a = run_pipeline(spec, seed=123).report
        b = run_pipeline(spec, seed=123).report
        assert self._strip_timestamp(a) == self._strip_timestamp(b)
        assert json.dumps(self._strip_timestamp(a), sort_keys=True) == json.dumps(
            self._strip_timestamp(b), sort_keys=True
        )

    def test_check_fields_complete(self):
        report = run_pipeline(demo_spec("strict-2concave")).report
        for check in report["checks"]:
            assert set(check) == {"name", "residual", "tolerance", "passed", "window"}
