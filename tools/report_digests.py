"""Print one `name sha256` line per report of a fixed set of 43 runs.

The set is every `bench/workloads.py` spec at seeds 1, 7 and 1234, the
seed picking the workload's specs; the demos; and the specs of
`spec-examples/`.  Each run also passes its seed (None for a demo or an
example) to `run_pipeline`, which ignores it, so that the tool still
digests a checkout whose verifier read one.  The `generated_at` and
`generated_by` lines are stripped before hashing, so two checkouts whose
reports agree byte for byte print the same lines:

    python3 tools/report_digests.py > after.txt
    python3 tools/report_digests.py /path/to/other/checkout > before.txt
    diff before.txt after.txt

The optional argument is the root of the checkout to digest (default: the
one this script lives in); its `src/` and `bench/workloads.py` are used.

`tools/report_digests.txt` holds the digests of this checkout, and
`tests/test_report_digests.py` recomputes them.  A change that moves
report bytes on purpose regenerates that file with

    python3 tools/report_digests.py > tools/report_digests.txt

and says why in CHANGES.md.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

SEEDS = (1, 7, 1234)
_STAMPS = ('"generated_at":', '"generated_by":')


def _digest(text: str) -> str:
    kept = [line for line in text.splitlines(keepends=True) if not line.lstrip().startswith(_STAMPS)]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def _workloads(root: Path):
    spec = importlib.util.spec_from_file_location("workloads", root / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(root: Path):
    """(name, spec, seed) of every run, seed None for a demo or an example."""
    import numpy as np

    import isodilation as iso

    workloads = _workloads(root)
    for workload, generate in workloads.GENERATORS.items():
        for seed in SEEDS:
            for index, (size, text) in enumerate(generate(np.random.default_rng(seed))):
                yield f"{workload}[{index}:{size}]@{seed}", iso.parse_spec(text), seed
    for name in sorted(iso.DEMOS):
        yield f"demo:{name}", iso.demo_spec(name), None
    for path in sorted((root / "spec-examples").glob("*.json")):
        if not path.name.endswith(".report.json"):
            yield f"spec-examples/{path.name}", iso.parse_spec(path.read_text()), None


def digests(root: Path):
    """(name, digest) of every run."""
    import isodilation as iso

    for name, spec, seed in runs(root):
        yield name, _digest(iso.emit_report(iso.run_pipeline(spec, seed=seed).report))


def main(argv: list[str]) -> int:
    root = Path(argv[0]).resolve() if argv else Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    for name, digest in digests(root):
        print(name, digest)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
