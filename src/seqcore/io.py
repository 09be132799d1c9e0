"""JSON interchange and canonical serialization.

Sequences travel as {"values": [[re, im], ...]}, band systems as
{"r": [...], "s": [...], "alpha": [...]} or {"generator": name,
"params": {...}}, matrices as {"dense": [[...]]} or a generator spec.
Every number in such a document, a generator's params included, must be a
JSON number: a numeric string, or an integer beyond double range, is a
``SchemaError`` like any other value that is not a number (:func:`number`,
:func:`number_list`).

A dense block, and a sequence's [re, im] pairs, are parsed row by row
(:func:`number_rows`): one ``struct`` pack per row writes the row's doubles
straight into a preallocated float64 array, with no per-element Python
dispatch and no transient bytes copy.  On every valid block the result
equals ``np.asarray(rows, dtype=np.float64)`` bit for bit; a ragged row, an
entry that is not a number or an integer beyond double range raises
``SchemaError``.

Reports are rendered by :func:`canonical_dumps`, which sorts keys and prints
every float with 17 significant digits, so identical inputs produce
byte-identical output files.  -0.0 and 0.0 render as 0: no verdict depends
on the sign of a zero, so no computation has to carry it.  The renderer
takes exact floats, strings and ints by their type first; dicts, then
lists, tuples and arrays, then None, bools (checked before ints, as a bool is
an int), numpy scalars and subclasses follow by isinstance.  A non-finite
float raises ``ValueError`` and a value of any other type ``TypeError``.
"""

from __future__ import annotations

import json
import math
import struct
from json.encoder import encode_basestring_ascii as _encode_str  # what json.dumps does to a str

import numpy as np

from .generators import MATRIX_NAMES, GeneratorSpec, band_system_from_spec, make_matrix, make_sequence
from .types import BandSystem, FiniteSeq, SchemaError

__all__ = [
    "SchemaError",
    "canonical_dumps",
    "load_json",
    "number",
    "number_list",
    "number_rows",
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


def _key_text(item) -> str:
    return str(item[0])


def _render(o) -> str:
    t = type(o)
    if t is float:
        if math.isfinite(o):
            return format(o + 0.0, ".17g")
        raise ValueError("reports cannot contain non-finite floats")
    if t is str:
        return _encode_str(o)
    if t is int:
        return str(o)
    if isinstance(o, dict):
        return "{" + ",".join([_encode_str(str(k)) + ":" + _render(v) for k, v in sorted(o.items(), key=_key_text)]) + "}"
    if isinstance(o, (list, tuple, np.ndarray)):
        return "[" + ",".join([_render(v) for v in o]) + "]"
    if o is None:
        return "null"
    if isinstance(o, (bool, np.bool_)):  # before int: bool is an int
        return "true" if o else "false"
    if isinstance(o, (int, np.integer)):
        return str(int(o))
    if isinstance(o, (float, np.floating)):
        return _fmt_float(float(o))
    if isinstance(o, str):
        return _encode_str(o)
    raise TypeError(f"cannot serialize {type(o).__name__}")


def canonical_dumps(obj) -> str:
    """Deterministic JSON: sorted keys, fixed float formatting, no whitespace drift.

    Floats print with 17 significant digits after adding 0.0, which maps
    -0.0 to 0 and leaves every other finite double unchanged.  Strings are
    escaped as ``json.dumps`` escapes them, and keys sort by their ``str``.
    Each list and dict joins its own rendered items, so no one list gathers
    the fragments of the whole report.
    """
    return _render(obj) + "\n"


def load_json(path: str):
    """A JSON document; SchemaError when it is unreadable, not JSON, or beyond what the parser takes.

    The parser raises ``ValueError`` for an integer literal of more than
    4300 digits, and ``RecursionError`` for arrays nested too deep.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise SchemaError(f"{path}: unreadable ({exc})") from exc


def number(value, what: str) -> float:
    """A JSON number as a float; SchemaError for a string, any other non-number, or an integer beyond double range."""
    if isinstance(value, str):
        raise SchemaError(f"{what} must be a number, not a string: {value!r:.40}")
    try:
        return float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{what} must be a number: {value!r:.40}") from exc


def number_rows(rows, what: str) -> np.ndarray:
    """Equally long lists of JSON numbers as one (len(rows), m) float64 array, packed row by row.

    Bitwise equal to ``np.asarray(rows, dtype=np.float64)``.  ``struct``
    takes what ``float`` takes except strings, and reports an integer beyond
    double range as ``struct.error``, so a ragged row, a numeric string, any
    other non-number and a huge integer all raise SchemaError.
    """
    if not isinstance(rows, list) or not rows or not isinstance(rows[0], list):
        raise SchemaError(f"{what} must be a non-empty list of lists of numbers")
    m = len(rows[0])
    out = np.empty((len(rows), m))
    pack_into = struct.Struct(f"={m}d").pack_into
    try:
        for i, row in enumerate(rows):
            pack_into(out, 8 * m * i, *row)
    except (struct.error, TypeError) as exc:
        raise SchemaError(f"{what}: row {i} is not {m} numbers ({exc})") from exc
    return out


def number_list(values, what: str) -> np.ndarray:
    """A list of JSON numbers as a float64 array: :func:`number_rows` on one row."""
    if not isinstance(values, list):
        raise SchemaError(f"{what} must be a list of numbers")
    try:
        return number_rows([values], what)[0]
    except SchemaError as exc:
        raise SchemaError(f"{what} must be a list of numbers ({exc.__cause__})") from exc


def _shorthand_value(val: str):
    """A shorthand param: JSON, else a float literal that JSON lacks ("inf", "nan"), else the text itself."""
    for parse in (json.loads, float):
        try:
            return parse(val)
        except ValueError:  # not JSON, or an integer literal beyond the parser's 4300 digits
            pass
    return val


def parse_shorthand(text: str) -> tuple[str, dict]:
    """Parse "name" or "name:key=val,key=val" generator shorthand."""
    name, _, rest = text.partition(":")
    params: dict = {}
    if rest:
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            if not sep:
                raise SchemaError(f"malformed generator parameter {item!r}")
            params[key] = _shorthand_value(val)
    return name.strip(), params


def _generator(spec) -> tuple[str, dict]:
    """(name, params) of generator shorthand or of a {"generator", "params"} document.

    Each param must be a JSON number, a list of them, or null (``random``'s
    ``amplification_cap``), else SchemaError; the generators read them.
    """
    name, params = parse_shorthand(spec) if isinstance(spec, str) else (spec["generator"], spec.get("params", {}))
    if not isinstance(name, str) or not isinstance(params, dict):
        raise SchemaError('a generator document needs a "generator" name and a "params" object')
    for key, value in params.items():
        if value is not None:
            (number_list if isinstance(value, list) else number)(value, f"{name} parameter {key}")
    return name, params


def seq_to_json(seq: FiniteSeq) -> dict:
    return {"values": [[float(v.real), float(v.imag)] for v in seq.values]}


def seq_from_spec(spec, n: int | None = None) -> FiniteSeq:
    """Sequence from a values document, generator document, or shorthand string."""
    if isinstance(spec, FiniteSeq):
        return spec
    if isinstance(spec, dict) and "values" in spec:
        pairs = number_rows(spec["values"], "sequence values")
        if pairs.shape[1] != 2:
            raise SchemaError("sequence values must be [re, im] pairs")
        vals = pairs.view(np.complex128)[:, 0]
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
        except (TypeError, ValueError, OverflowError) as exc:
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
        except (TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"invalid band system: {exc}") from exc
    if isinstance(spec, dict) and {"r", "s", "alpha"} <= set(spec):
        try:
            sys = BandSystem(*(number_list(spec[key], key) for key in ("r", "s", "alpha")))
            sys.require_length(length)
        except ValueError as exc:
            raise SchemaError(f"invalid band system: {exc}") from exc
        return sys
    raise SchemaError("system spec must give r/s/alpha arrays, a generator document, or shorthand")


def matrix_from_spec(spec, n: int):
    """Matrix argument for class checks, as an array: a dense block, or a generator document or shorthand built at n.

    A dense block is parsed here, row by row (:func:`number_rows`); its size
    and the finiteness of its entries are checked by
    :func:`seqcore.generators.materialize_matrix` where a report reads it.
    """
    if isinstance(spec, dict) and "dense" in spec:
        return number_rows(spec["dense"], "dense matrix")
    if isinstance(spec, str) or (isinstance(spec, dict) and "generator" in spec):
        name, params = _generator(spec)
        if name not in MATRIX_NAMES:
            raise SchemaError(f"unknown matrix generator {name!r}; known: {MATRIX_NAMES}")
        try:
            return make_matrix(GeneratorSpec(name, params), n)
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise SchemaError(f"invalid {name} matrix parameters: {exc}") from exc
    raise SchemaError("matrix spec must give a dense block, a generator document, or shorthand")


def region_to_csv(region) -> str:
    """Vertex rows in counterclockwise order under an x,y header."""
    lines = ["x,y"]
    for x, y in region.vertices:
        lines.append(f"{_fmt_float(x)},{_fmt_float(y)}")
    return "\n".join(lines) + "\n"
