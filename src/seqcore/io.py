"""JSON interchange and canonical serialization.

Sequences travel as {"values": [[re, im], ...]}, band systems as
{"r": [...], "s": [...], "alpha": [...]} or {"generator": name,
"params": {...}}, matrices as {"dense": [[...]]} or a generator spec.
Reports are rendered by :func:`canonical_dumps`, which sorts keys and prints
every float with 17 significant digits, so identical inputs produce
byte-identical output files.  -0.0 and 0.0 render as 0: no verdict depends
on the sign of a zero, so no computation has to carry it.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .generators import MATRIX_NAMES, GeneratorSpec, band_system_from_spec, make_matrix, make_sequence
from .types import BandSystem, FiniteSeq, SchemaError

__all__ = [
    "SchemaError",
    "canonical_dumps",
    "load_json",
    "seq_to_json",
    "seq_from_spec",
    "system_to_json",
    "system_from_spec",
    "matrix_from_spec",
    "region_to_csv",
    "parse_shorthand",
]


def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("reports cannot contain non-finite floats")
    return format(float(x) + 0.0, ".17g")


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting, no whitespace drift.

    Floats print with 17 significant digits after adding 0.0, which maps
    -0.0 to 0 and leaves every other finite double unchanged.
    """

    def render(o) -> str:
        if o is None:
            return "null"
        if isinstance(o, bool) or isinstance(o, np.bool_):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            return _fmt_float(float(o))
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, (list, tuple, np.ndarray)):
            return "[" + ",".join(render(v) for v in o) + "]"
        if isinstance(o, dict):
            items = sorted(o.items(), key=lambda kv: str(kv[0]))
            return "{" + ",".join(json.dumps(str(k)) + ":" + render(v) for k, v in items) + "}"
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return render(obj) + "\n"


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise SchemaError(f"{path}: unreadable ({exc})") from exc


def parse_shorthand(text: str) -> tuple[str, dict]:
    """Parse "name" or "name:key=val,key=val" generator shorthand."""
    name, _, rest = text.partition(":")
    params: dict = {}
    if rest:
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            if not sep:
                raise SchemaError(f"malformed generator parameter {item!r}")
            try:
                params[key] = json.loads(val)
            except json.JSONDecodeError:
                params[key] = val
    return name.strip(), params


def _generator(spec) -> tuple[str, dict]:
    """(name, params) of generator shorthand or of a {"generator", "params"} document."""
    if isinstance(spec, str):
        return parse_shorthand(spec)
    name, params = spec["generator"], spec.get("params", {})
    if not isinstance(name, str) or not isinstance(params, dict):
        raise SchemaError('a generator document needs a "generator" name and a "params" object')
    return name, params


def seq_to_json(seq: FiniteSeq) -> dict:
    return {"values": [[float(v.real), float(v.imag)] for v in seq.values]}


def seq_from_spec(spec, n: int | None = None) -> FiniteSeq:
    """Sequence from a values document, generator document, or shorthand string."""
    if isinstance(spec, FiniteSeq):
        return spec
    if isinstance(spec, dict) and "values" in spec:
        pairs = spec["values"]
        try:
            vals = np.array([complex(p[0], p[1]) for p in pairs])
        except (TypeError, IndexError, KeyError) as exc:
            raise SchemaError("sequence values must be [re, im] pairs") from exc
        if n is not None and not 1 <= n <= vals.size:
            raise SchemaError(f"sequence has {vals.size} values, cannot serve length {n}")
        if not np.isfinite(vals).all():
            raise SchemaError("sequence values must be finite")
        return FiniteSeq(vals[:n] if n is not None else vals)
    if isinstance(spec, str) or (isinstance(spec, dict) and "generator" in spec):
        name, params = _generator(spec)
        if n is None:
            raise SchemaError("generator sequences need an explicit length")
        try:
            return make_sequence(GeneratorSpec(name, params), n)
        except ValueError as exc:
            raise SchemaError(f"invalid sequence generator: {exc}") from exc
    raise SchemaError("sequence spec must be values, a generator document, or shorthand")


def system_to_json(sys: BandSystem) -> dict:
    return {
        "r": [float(v) for v in sys.r],
        "s": [float(v) for v in sys.s],
        "alpha": [float(v) for v in sys.alpha],
    }


def system_from_spec(spec, length: int) -> BandSystem:
    """Band system from arrays, a generator document, or shorthand string."""
    if isinstance(spec, BandSystem):
        spec.require_length(length)
        return spec
    if isinstance(spec, str) or (isinstance(spec, dict) and "generator" in spec):
        name, params = _generator(spec)
        try:
            return band_system_from_spec(name, params, length)
        except ValueError as exc:
            raise SchemaError(f"invalid band system: {exc}") from exc
    if isinstance(spec, dict) and {"r", "s", "alpha"} <= set(spec):
        try:
            sys = BandSystem(np.asarray(spec["r"]), np.asarray(spec["s"]), np.asarray(spec["alpha"]))
            sys.require_length(length)
        except ValueError as exc:
            raise SchemaError(f"invalid band system: {exc}") from exc
        return sys
    raise SchemaError("system spec must give r/s/alpha arrays, a generator document, or shorthand")


def matrix_from_spec(spec, n: int):
    """Matrix argument for class checks, as an array: a dense block, or a generator document or shorthand built at n.

    A dense block is parsed here; its shape and entries are checked by
    :func:`seqcore.generators.materialize_matrix` where a report reads it.
    """
    if isinstance(spec, dict) and "dense" in spec:
        try:
            return np.asarray(spec["dense"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"dense matrix must be rows of numbers of one length: {exc}") from exc
    if isinstance(spec, str) or (isinstance(spec, dict) and "generator" in spec):
        name, params = _generator(spec)
        if name not in MATRIX_NAMES:
            raise SchemaError(f"unknown matrix generator {name!r}; known: {MATRIX_NAMES}")
        try:
            return make_matrix(GeneratorSpec(name, params), n)
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"invalid {name} matrix parameters: {exc}") from exc
    raise SchemaError("matrix spec must give a dense block, a generator document, or shorthand")


def region_to_csv(region) -> str:
    """Vertex rows in counterclockwise order under an x,y header."""
    lines = ["x,y"]
    for x, y in region.vertices:
        lines.append(f"{_fmt_float(x)},{_fmt_float(y)}")
    return "\n".join(lines) + "\n"
