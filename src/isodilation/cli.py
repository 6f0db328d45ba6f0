"""Command line interface.

    dilate --spec FILE [--out FILE] [--seed N] [--trials N] [--tol NAME=VALUE ...]
    dilate verify --spec FILE [--out FILE] [--tol NAME=VALUE ...]
    dilate demo NAME [--out FILE] [--seed N] [--trials N]
    dilate --list-demos

An option may stand anywhere; one the command does not read is an error.

Exit codes: 0 all checks passed, 1 some check failed, 2 the operator fails
the preconditions of every construction path, 3 parse or validation errors,
an unreadable spec or an unwritable report file.
"""

import argparse
import sys
from pathlib import Path

from .errors import PreconditionError, SpecError, UnknownDemoError
from .pipeline import DEMOS, classify_spec, demo_spec, emit_report, run_pipeline
from .specfile import parse_spec
from .tolerances import DEFAULT_TOLERANCES

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PRECONDITION = 2
EXIT_SPEC_ERROR = 3


# options each command does not read: refused, not dropped
_NOT_READ = {None: (), "verify": ("seed", "trials"), "demo": ("spec", "tol")}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    parser.add_argument("--seed", type=int, help="seed for randomized verification vectors")
    parser.add_argument(
        "--trials", type=int, default=None, help="randomized trials per check (default 32)"
    )
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
    try:
        DEFAULT_TOLERANCES.replace(**overrides)
    except ValueError as exc:
        raise SpecError(f"--tol: {exc}") from exc
    return overrides


def _load_spec(path_str: str):
    path = Path(path_str)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc.strerror}") from exc
    return parse_spec(text)


def _trials_kw(args) -> dict:
    if args.trials is None:
        return {}
    if args.trials < 1:
        raise SpecError(f"--trials must be at least 1, got {args.trials}")
    return {"trials": args.trials}


def _write(report: dict, out: str | None):
    text = emit_report(report)
    if out:
        try:
            Path(out).write_text(text)
        except OSError as exc:
            raise SpecError(f"cannot write report {out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_intermixed_args(argv)

    if args.list_demos:
        for name in sorted(DEMOS):
            print(name)
        return EXIT_OK
    if args.command == "demo" and args.name is None:
        parser.error("the following arguments are required: NAME")
    if args.command != "demo" and args.name is not None:
        parser.error(f"unrecognized arguments: {args.name}")

    try:
        for name in _NOT_READ[args.command]:
            if getattr(args, name) not in (None, []):
                raise SpecError(f"--{name} has no effect on the {args.command} command")
        if args.command != "demo" and not args.spec:
            parser.print_usage(sys.stderr)
            print("error: --spec is required (or use demo/--list-demos)", file=sys.stderr)
            return EXIT_SPEC_ERROR

        if args.command == "verify":
            spec = _load_spec(args.spec)
            overrides = _parse_tol_overrides(args.tol)
            _, admissible, report = classify_spec(spec, overrides)
            _write(report, args.out)
            return EXIT_OK if admissible else EXIT_PRECONDITION

        if args.command == "demo":
            try:
                spec = demo_spec(args.name)
            except UnknownDemoError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_SPEC_ERROR
            result = run_pipeline(spec, seed=args.seed, **_trials_kw(args))
            _write(result.report, args.out)
            return EXIT_OK if result.overall else EXIT_CHECK_FAILED

        spec = _load_spec(args.spec)
        overrides = _parse_tol_overrides(args.tol)
        result = run_pipeline(spec, tol_overrides=overrides, seed=args.seed, **_trials_kw(args))
        _write(result.report, args.out)
        return EXIT_OK if result.overall else EXIT_CHECK_FAILED

    except SpecError as exc:
        for line in exc.errors:
            print(f"error: {line}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.details:
            for key, value in exc.details.items():
                if isinstance(value, dict):
                    print(f"  {key}: ok={value.get('ok')} residual={value.get('residual')}",
                          file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
