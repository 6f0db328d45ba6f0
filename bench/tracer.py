"""Span tracing of the package's layers, from outside the package.

Every public function defined in a layer module is wrapped in each
``isodilation`` namespace that binds it.  Names imported by value (for
example ``eigh`` in ``builder`` or the stage functions in ``pipeline``) are
separate bindings of one function, so each binding gets its own wrapper;
patching only the defining module would miss every call made through
the other namespaces.  Modules are fetched with ``importlib`` because the
package rebinds ``isodilation.hermitian`` to the function of that name.
"""

import hashlib
import importlib
import time
from dataclasses import dataclass, field

LAYERS = (
    "specfile",
    "operators",
    "hermitian",
    "qsolver",
    "builder",
    "diagonal",
    "verifier",
    "pipeline",
)

# Namespaces searched for bindings: the package and every module in it.
NAMESPACES = ("isodilation",) + tuple(
    f"isodilation.{mod}" for mod in LAYERS + ("cli", "errors", "tolerances")
)


def _eigh_input(x, *args, **kwargs):
    return x.mat.tobytes(), x.n**3


def _defect_form_input(t, m, *args, **kwargs):
    return t.matrix.tobytes() + m.to_bytes(4, "little"), None


# Functions whose inputs are fingerprinted, to count repeated work:
# name -> (fingerprint bytes, work units) of one call's arguments.
INPUT_PROBES = {
    "hermitian.eigh": _eigh_input,
    "operators.defect_form": _defect_form_input,
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: int


@dataclass
class Trace:
    """Spans of traced calls, kept in memory until the run ends."""

    spans: list = field(default_factory=list)
    # (namespace, attribute) -> calls made through that binding
    binding_hits: dict = field(default_factory=dict)
    # span index -> (input fingerprint, work units) for probed functions
    inputs: dict = field(default_factory=dict)
    run: int = 0
    _stack: list = field(default_factory=list)

    def new_run(self):
        self.run += 1

    def as_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "run": s.run}
            for s in self.spans
        ]


def _public_functions() -> dict:
    """id -> (layer-qualified name, function) for each public layer function."""
    found = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"isodilation.{layer}")
        for attr, value in vars(mod).items():
            if (
                not attr.startswith("_")
                and callable(value)
                and getattr(value, "__module__", None) == mod.__name__
                and not isinstance(value, type)
            ):
                found[id(value)] = (f"{layer}.{attr}", value)
    return found


def _wrap(trace: Trace, name: str, fn, binding: tuple):
    probe = INPUT_PROBES.get(name)

    def traced(*args, **kwargs):
        trace.binding_hits[binding] = trace.binding_hits.get(binding, 0) + 1
        fingerprint = probe(*args, **kwargs) if probe is not None else None
        index = len(trace.spans)
        parent = trace._stack[-1] if trace._stack else None
        span = Span(name, time.perf_counter(), 0.0, parent, trace.run)
        trace.spans.append(span)
        trace._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            trace._stack.pop()
            if fingerprint is not None:
                trace.inputs[index] = (hashlib.sha1(fingerprint[0]).digest(), fingerprint[1])

    return traced


class patched:
    """Context manager that routes every binding of a layer function
    through a recording wrapper and restores the originals on exit."""

    def __init__(self, trace: Trace):
        self.trace = trace
        self.restore: list = []

    def __enter__(self) -> Trace:
        functions = _public_functions()
        for ns_name in NAMESPACES:
            ns = importlib.import_module(ns_name)
            for attr, value in list(vars(ns).items()):
                if id(value) not in functions:
                    continue
                name, fn = functions[id(value)]
                self.restore.append((ns, attr, fn))
                setattr(ns, attr, _wrap(self.trace, name, fn, (ns_name, attr)))
        return self.trace

    def __exit__(self, *exc):
        for ns, attr, fn in reversed(self.restore):
            setattr(ns, attr, fn)
        self.restore.clear()
        return False


def self_times(spans: list) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Calls run on one thread, so children of one span never overlap."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]
