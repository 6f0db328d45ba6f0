"""Command line interface.

    dilate --spec FILE [--out FILE] [--seed N] [--tol NAME=VALUE ...]
    dilate verify --spec FILE [--out FILE] [--tol NAME=VALUE ...]
    dilate demo NAME [--out FILE] [--seed N]
    dilate --list-demos

An option may stand anywhere; one the command does not read is an error.

Exit codes: 0 all checks passed, 1 some check failed, 2 the operator fails
the preconditions of every construction path, or a gate of the selected
path or a kernel cannot meet the run's tolerances (the classification is
printed once made), 3 usage, parse or validation errors (a seed below 0
among them), an unreadable spec or an unwritable report file.
"""

import argparse
import sys
from pathlib import Path

from .errors import PreconditionError, SpecError
from .pipeline import DEMOS, classify_spec, demo_spec, emit_report, run_pipeline
from .specfile import parse_spec

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PRECONDITION = 2
EXIT_SPEC_ERROR = 3


# options each command does not read: refused, not dropped
_NOT_READ = {None: (), "verify": ("seed",), "demo": ("spec", "tol")}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A usage error is an input error: it raises SpecError, which
        `main` maps to exit code 3 with every other one."""
        raise SpecError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="dilate",
        description="Construct and verify m-isometric dilations of operator corners.",
    )
    parser.add_argument(
        "command",
        nargs="?",
        choices=("verify", "demo"),
        help="verify: classification only, no construction; "
        "demo: run a pinned spec from the built-in catalog",
    )
    parser.add_argument("name", nargs="?", metavar="NAME", help="the demo to run")
    parser.add_argument("--spec", metavar="FILE", help="operator spec file (JSON)")
    parser.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
    parser.add_argument("--seed", type=int, help="seed for randomized verification vectors (>= 0)")
    parser.add_argument(
        "--tol",
        metavar="NAME=VALUE",
        action="append",
        default=[],
        help="override a tolerance (repeatable)",
    )
    parser.add_argument("--list-demos", action="store_true", help="list demo names and exit")
    return parser


def _parse_tol_overrides(pairs) -> dict:
    overrides = {}
    for pair in pairs or []:
        name, sep, value = pair.partition("=")
        if not sep:
            raise SpecError(f"--tol expects NAME=VALUE, got {pair!r}")
        try:
            overrides[name.strip()] = float(value)
        except ValueError as exc:
            raise SpecError(f"--tol {name}: {value!r} is not a number") from exc
    return overrides


def _write(report: dict, out: str | None):
    text = emit_report(report)
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise SpecError(f"cannot write report {out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def _resolve(args):
    """The run's spec and tolerance overrides: the demo's, or the --spec
    file's with --tol."""
    for name in _NOT_READ[args.command]:
        if getattr(args, name) not in (None, []):
            raise SpecError(f"--{name} has no effect on the {args.command} command")
    if args.command == "demo":
        if args.name is None:
            raise SpecError("the following arguments are required: NAME")
        return demo_spec(args.name), {}
    if args.name is not None:
        raise SpecError(f"unrecognized arguments: {args.name}")
    if not args.spec:
        raise SpecError("--spec is required (or use demo/--list-demos)")
    path = Path(args.spec)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc.strerror}") from exc
    return parse_spec(text), _parse_tol_overrides(args.tol)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_intermixed_args(argv)
        if args.list_demos:
            for name in sorted(DEMOS):
                print(name)
            return EXIT_OK
        spec, overrides = _resolve(args)
        if args.command == "verify":
            _, admissible, report = classify_spec(spec, overrides)
            code = EXIT_OK if admissible else EXIT_PRECONDITION
        else:
            result = run_pipeline(spec, overrides, seed=args.seed)
            report = result.report
            code = EXIT_OK if result.overall else EXIT_CHECK_FAILED
        _write(report, args.out)
        return code
    except SpecError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for key, value in exc.details.items():
            if isinstance(value, dict):
                print(f"  {key}: ok={value.get('ok')} residual={value.get('residual')}",
                      file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
