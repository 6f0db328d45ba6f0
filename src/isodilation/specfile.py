"""Operator spec files: parsing, validation, canonical emission.

Specs are JSON with an explicit schema_version; complex numbers are
[re, im] pairs.  `SPEC_SCHEMA`, a JSON Schema, states the structure; its
rule parameters come from `RULE_PARAMS`, the one list of them.  An
in-package walker over the few keywords it uses checks a spec against it,
and dense entries are checked and read in one pass.  Semantic checks (rule
catalog, parameter ranges, truncation bounds) follow.  Unknown fields and
unknown rule names are rejected.
"""

import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from operator import itemgetter

from .errors import SpecParseError, SpecValidationError, WeightRuleError
from .operators import WeightRule
from .tolerances import Tolerances

SCHEMA_VERSION = 1

_COMPLEX_PAIR = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

_ENTRIES = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": _COMPLEX_PAIR},
}

_TOLERANCE_FIELDS = sorted(Tolerances.__dataclass_fields__.keys())

_NUMBER = {"type": "number"}

# each rule's spec-file parameters, in the order of its `WeightRule`
# constructor: key -> (the `WeightRule` field that holds it, its schema)
RULE_PARAMS = {
    "constant": {"c": ("c", _NUMBER)},
    "dirichlet": {},
    "geometric_concave": {"r": ("r", _NUMBER)},
    "table": {
        "values": ("values", {"type": "array", "items": _NUMBER, "minItems": 1}),
        "tail_value": ("tail", _NUMBER),
    },
}

SPEC_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "type": "object",
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "operator": {
            "type": "object",
            "properties": {
                "kind": {"enum": ["shift", "dense"]},
                "rule": {
                    "type": "object",
                    "properties": {"name": {"type": "string"}} | {
                        key: schema
                        for params in RULE_PARAMS.values()
                        for key, (_, schema) in params.items()
                    },
                    "required": ["name"],
                    "additionalProperties": False,
                },
                "entries": _ENTRIES,
            },
            "required": ["kind"],
            "additionalProperties": False,
        },
        "m": {"type": "integer", "minimum": 2},
        "truncation": {
            "type": "object",
            "properties": {
                "N": {"type": "integer", "minimum": 1},
                "n_blocks": {"type": "integer", "minimum": 1},
            },
            "required": ["n_blocks"],
            "additionalProperties": False,
        },
        "tolerances": {
            "type": "object",
            "properties": {name: {"type": "number", "exclusiveMinimum": 0} for name in _TOLERANCE_FIELDS},
            "additionalProperties": False,
        },
    },
    "required": ["operator", "m", "truncation"],
    "additionalProperties": False,
}


@dataclass(frozen=True)
class OperatorSpecFile:
    """Validated operator spec.

    Dense entries are kept as nested tuples of (re, im) pairs so the value
    is hashable and round-trips exactly through emission and parsing.
    """

    kind: str
    m: int
    n_blocks: int
    schema_version: int = SCHEMA_VERSION
    rule: WeightRule | None = None
    entries: tuple | None = None
    n: int | None = None
    tolerance_overrides: tuple = field(default_factory=tuple)  # sorted (name, value)

    def entries_matrix(self):
        """Dense entries as a nested list of complex numbers."""
        if self.entries is None:
            raise ValueError("spec has no dense entries")
        return [[complex(re, im) for re, im in row] for row in self.entries]

    def tolerances(self) -> Tolerances:
        return Tolerances().replace(**dict(self.tolerance_overrides))

    def to_jsonable(self) -> dict:
        op: dict = {"kind": self.kind}
        if self.kind == "shift":
            op["rule"] = _rule_to_json(self.rule)
        else:
            op["entries"] = [[[re, im] for re, im in row] for row in self.entries]
        out: dict = {
            "schema_version": self.schema_version,
            "operator": op,
            "m": self.m,
        }
        trunc: dict = {"n_blocks": self.n_blocks}
        if self.n is not None:
            trunc["N"] = self.n
        out["truncation"] = trunc
        if self.tolerance_overrides:
            out["tolerances"] = dict(self.tolerance_overrides)
        return out


def _rule_to_json(rule: WeightRule) -> dict:
    out = {"name": rule.kind}
    for key, (attr, _) in RULE_PARAMS[rule.kind].items():
        value = getattr(rule, attr)
        out[key] = list(value) if isinstance(value, tuple) else value
    return out


def _rule_from_json(data: dict, errors: list) -> WeightRule | None:
    name = data.get("name")
    if name not in RULE_PARAMS:
        errors.append(f"operator.rule: unknown weight rule {name!r}")
        return None
    keys = list(RULE_PARAMS[name])
    params = {k for k in data if k != "name"}
    stray = params - set(keys)
    if stray:
        errors.append(
            f"operator.rule: rule {name!r} does not take parameter(s) {sorted(stray)}"
        )
        return None
    if len(params) < len(keys):
        needs = " and ".join(keys) if len(keys) > 1 else f"parameter {keys[0]}"
        errors.append(f"operator.rule: {name} rule requires {needs}")
        return None
    try:
        return getattr(WeightRule, name)(*(data[key] for key in keys))
    except WeightRuleError as exc:
        errors.append(f"operator.rule: {exc}")
    except OverflowError:
        errors += [f"operator.rule: parameter {key} is too large for a float"
                   for key in sorted(params) if _beyond_float(data[key])]
    return None


def _beyond_float(value) -> bool:
    """Whether a JSON number, or a number of a JSON list, is an integer too
    large for a float, on which `float` raises OverflowError."""
    items = value if isinstance(value, list) else [value]
    return any(_is_type(v, "integer") and abs(v) > sys.float_info.max for v in items)


# Python types of the JSON types, an integer from numpy among them (in a
# dict given to `spec_from_dict`); bool, an int subclass, is neither a
# number nor an integer.
_TYPES = {"object": dict, "array": list, "string": str, "number": (int, float), "integer": numbers.Integral}


def _is_type(value, kind: str) -> bool:
    return isinstance(value, _TYPES[kind]) and not isinstance(value, bool)


def _equal(value, expected) -> bool:
    return isinstance(value, bool) == isinstance(expected, bool) and value == expected


def _walk(schema: dict, value, path: str, errors: list) -> list:
    """Append a `(json_path, message)` error for each keyword of `schema`
    that `value` breaks, walking into properties and items; return `errors`.

    Covers the keywords `SPEC_SCHEMA` uses, with the messages of the JSON
    Schema reference validator; as there, each keyword judges only values
    of its own type.  `integer` admits a JSON integer only, not `2.0`.
    Dense entries are left to `_read_entries`.
    """
    kind = schema.get("type")
    if kind is not None and not _is_type(value, kind):
        errors.append((path, f"{value!r} is not of type {kind!r}"))
    if "const" in schema and not _equal(value, schema["const"]):
        errors.append((path, f"{schema['const']!r} was expected"))
    if "enum" in schema and not any(_equal(value, each) for each in schema["enum"]):
        errors.append((path, f"{value!r} is not one of {schema['enum']!r}"))
    if _is_type(value, "number"):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append((path, f"{value!r} is less than the minimum of {schema['minimum']!r}"))
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            bound = schema["exclusiveMinimum"]
            errors.append((path, f"{value!r} is less than or equal to the minimum of {bound!r}"))
    elif isinstance(value, list):
        if "items" in schema:
            for index, item in enumerate(value):
                _walk(schema["items"], item, f"{path}[{index}]", errors)
        if len(value) < schema.get("minItems", 0):
            short = "should be non-empty" if schema["minItems"] == 1 else "is too short"
            errors.append((path, f"{value!r} {short}"))
        if len(value) > schema.get("maxItems", len(value)):
            errors.append((path, f"{value!r} is too long"))
    elif isinstance(value, dict):
        properties = schema.get("properties", {})
        for key, subschema in properties.items():
            if key in value and subschema is not _ENTRIES:
                _walk(subschema, value[key], f"{path}.{key}", errors)
        for key in schema.get("required", ()):
            if key not in value:
                errors.append((path, f"{key!r} is a required property"))
        extra = sorted(set(value) - set(properties), key=str)
        if extra and schema.get("additionalProperties") is False:
            verb = "was" if len(extra) == 1 else "were"
            names = ", ".join(map(repr, extra))
            errors.append((path, f"Additional properties are not allowed ({names} {verb} unexpected)"))
    return errors


def _read_entries(rows, errors: list) -> tuple[tuple | None, bool]:
    """Check dense entries against `_ENTRIES` and read them, in one pass.

    Returns the rows as tuples of `(re, im)` float pairs, or None once an
    error was appended, and whether every number is finite (an integer
    beyond float range reads as inf).  The tests here are those of
    `_ENTRIES` written out; a part that fails one goes to `_walk` for its
    errors.
    """
    path = "$.operator.entries"
    if not (isinstance(rows, list) and rows):
        _walk(_ENTRIES, rows, path, errors)
        return None, True
    start = len(errors)
    read, finite = [], True
    for i, row in enumerate(rows):
        if not (isinstance(row, list) and row):
            _walk(_ENTRIES["items"], row, f"{path}[{i}]", errors)
            continue
        pairs = []
        for j, pair in enumerate(row):
            if not (
                isinstance(pair, list) and len(pair) == 2
                and _is_type(pair[0], "number") and _is_type(pair[1], "number")
            ):
                _walk(_COMPLEX_PAIR, pair, f"{path}[{i}][{j}]", errors)
                continue
            try:
                re, im = float(pair[0]), float(pair[1])
            except OverflowError:
                re = im = math.inf
            finite = finite and math.isfinite(re) and math.isfinite(im)
            pairs.append((re, im))
        read.append(tuple(pairs))
    return (tuple(read) if len(errors) == start else None), finite


def _raise_schema_errors(schema_errors: list) -> None:
    """Raise the errors of `_walk`, if any, one line each in path order."""
    if schema_errors:
        errors = [f"{path}: {message}" for path, message in sorted(schema_errors, key=itemgetter(0))]
        raise SpecValidationError("spec failed schema validation", errors)


def spec_from_dict(data: dict) -> OperatorSpecFile:
    """Validate a decoded spec dict and build the typed spec."""
    schema_errors = _walk(SPEC_SCHEMA, data, "$", [])
    op = data.get("operator") if isinstance(data, dict) else None
    entries, finite = None, True
    if isinstance(op, dict) and "entries" in op:
        entries, finite = _read_entries(op["entries"], schema_errors)
    _raise_schema_errors(schema_errors)

    errors = []
    kind = op["kind"]
    m = data["m"]
    trunc = data["truncation"]
    n_blocks = trunc["n_blocks"]
    n = trunc.get("N")
    overrides = tuple(sorted((data.get("tolerances") or {}).items()))
    try:
        Tolerances().replace(**dict(overrides))
    except ValueError as exc:
        errors.append(f"tolerances: {exc}")
    except OverflowError:
        errors += [f"tolerances: {key} is too large for a float"
                   for key, value in overrides if _beyond_float(value)]

    rule = None
    if kind == "shift":
        if "rule" not in op:
            errors.append("operator: shift operators require a rule")
        elif "entries" in op:
            errors.append("operator: shift operators do not take entries")
        else:
            rule = _rule_from_json(op["rule"], errors)
        if n is None:
            errors.append("truncation: shift operators require N")
        elif n < 2 * m + 2:
            errors.append(f"truncation: N = {n} too small, need N >= 2m + 2 = {2 * m + 2}")
    else:
        if "entries" not in op:
            errors.append("operator: dense operators require entries")
        elif "rule" in op:
            errors.append("operator: dense operators do not take a rule")
        else:
            dim = len(entries)
            if any(len(row) != dim for row in entries):
                errors.append("operator.entries: matrix must be square")
            elif not finite:
                errors.append("operator.entries: entries must be finite")
            if n is not None and n != dim:
                errors.append(
                    f"truncation: N = {n} does not match the dense dimension {dim}"
                )

    if n_blocks < m + 2:
        errors.append(f"truncation: n_blocks = {n_blocks} too small, need >= m + 2 = {m + 2}")

    if errors:
        raise SpecValidationError("spec failed validation", errors)
    return OperatorSpecFile(
        kind=kind,
        m=m,
        n_blocks=n_blocks,
        rule=rule,
        entries=entries,
        n=n,
        tolerance_overrides=overrides,
    )


def _reject_constant(name: str):
    raise SpecParseError(f"spec is not valid JSON: non-finite number {name} is not allowed")


def _int_or_inf(digits: str):
    """An integer literal, or a signed inf (out of range of every key) when
    it has more digits than `int` reads."""
    try:
        return int(digits)
    except ValueError:
        return -math.inf if digits.startswith("-") else math.inf


def parse_spec(text: str) -> OperatorSpecFile:
    """Parse and validate spec text; parse errors carry line context.

    JSON has no NaN or Infinity, so those literals are rejected; a number
    too large for a float is rejected at validation, which names its key.
    """
    try:
        data = json.loads(text, parse_constant=_reject_constant, parse_int=_int_or_inf)
    except json.JSONDecodeError as exc:
        raise SpecParseError(
            f"spec is not valid JSON: {exc.msg} at line {exc.lineno}, column {exc.colno}"
        ) from exc
    if not isinstance(data, dict):
        raise SpecValidationError("spec must be a JSON object")
    return spec_from_dict(data)


def emit_spec(spec: OperatorSpecFile) -> str:
    """Canonical, diff-friendly emission of a spec."""
    return json.dumps(spec.to_jsonable(), indent=2, sort_keys=True) + "\n"
