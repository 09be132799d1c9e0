"""The ladder x quantifier engine that runs every catalog condition, class and dual.

A catalog condition is a functional of a transformed-side matrix, read off a
truncation ladder and quantified over integer witnesses (B, L, M).  The
quantifier is a list of witness layers, outermost first; each layer is
universal or existential over the witness ladder.  An existential layer stops
at the first witness whose verdict holds.  A layer's representative witness
(whose growth exponent and last deviation the verdict reports) is the first
one whose verdict equals the layer's combined verdict.
"""

from __future__ import annotations

from typing import Callable

from .types import SchemaError, coerce_ints
from .verdicts import HOLDS, ConditionVerdict, classify_series, combine_exists, combine_forall

__all__ = ["FORALL", "EXISTS", "WITNESS_LAYERS", "truncation_ladder", "witness_ladder", "window", "ladder_verdict"]

FORALL, EXISTS = "forall", "exists"

# catalog quantifier name -> witness layers, outermost first
WITNESS_LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "plain": (),
    "exists_b": (("B", EXISTS),),
    "forall_b": (("B", FORALL),),
    "forall_l": (("L", FORALL),),
    "exists_m": (("M", EXISTS),),
    "forall_l_exists_m": (("L", FORALL), ("M", EXISTS)),
}


def truncation_ladder(ladder) -> list[int]:
    """The ladder as ints (read by coerce_ints); it must be nonempty, strictly increasing and start at 1 or above, else SchemaError."""
    ladder = coerce_ints(ladder, "ladder")
    if not ladder or any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise SchemaError("ladder must be nonempty and strictly increasing")
    if ladder[0] < 1:
        raise SchemaError(f"ladder: truncations must be >= 1 (got {ladder[0]})")
    return ladder


def witness_ladder(ladder) -> list[int]:
    """The witness ladder (a dual report's b_ladder) as ints (read by coerce_ints); it must be nonempty with every witness above 1, else SchemaError."""
    ladder = coerce_ints(ladder, "b_ladder")
    if not ladder:
        raise SchemaError("b_ladder: witness ladder must be nonempty")
    if min(ladder) <= 1:
        raise SchemaError(f"b_ladder: witnesses must be > 1 (got {min(ladder)})")
    return ladder


def window(n: int) -> slice:
    """Last-quarter row window used for limit estimates."""
    return slice(max(1, (3 * n) // 4), n)


def ladder_verdict(
    cond_id: str,
    ladder,
    layers,
    kind: str,
    evaluate: Callable[[int, dict], tuple],
    witness_values,
    fitted: dict,
    target: float,
    anchor: str,
) -> ConditionVerdict:
    """Evaluate one condition over the truncation ladder and its witness layers.

    ``evaluate(n, witnesses)`` returns (value, deviation | None) at
    truncation n for a {name: witness} binding; it is called only for the
    witnesses the quantifier actually visits.  Bounded conditions classify
    the values, limit conditions the deviations against zero.  The reported
    target of a limit condition is the fitted beta when ``fitted`` has one
    and ``target`` otherwise.
    """
    estimates = []

    def series(bound: dict):
        label = ",".join(f"{name}={w}" for name, w in bound.items()) or None
        values, devs = [], []
        for n in ladder:
            value, dev = evaluate(n, bound)
            values.append(value)
            devs.append(dev)
            estimates.append((n, label, value))
        if kind == "limit":
            return classify_series("limit", ladder, devs, 0.0)
        return classify_series("bounded", ladder, values)

    verdict, growth, last = _quantify(layers, witness_values, series, {})
    universal = any(mode == FORALL for _, mode in layers)
    note = "tested ladder only" if universal and verdict == HOLDS else None
    target = fitted.get("beta", target) if kind == "limit" else None
    return ConditionVerdict(cond_id, tuple(estimates), verdict, growth, kind, target, last, note, fitted, anchor)


def _quantify(layers, witness_values, series, bound: dict):
    """(verdict, growth, last deviation) of the first witness whose verdict equals the combined one.

    A module-level function rather than a recursive closure, so a verdict
    leaves no reference cycle that would keep the caller's source matrices
    alive until the next garbage collection.
    """
    if not layers:
        return series(bound)
    (name, mode), inner = layers[0], layers[1:]
    per = []
    for w in witness_values:
        per.append(_quantify(inner, witness_values, series, {**bound, name: w}))
        if mode == EXISTS and per[-1][0] == HOLDS:
            break
    verdict = (combine_exists if mode == EXISTS else combine_forall)(v for v, _, _ in per)
    return next(t for t in per if t[0] == verdict)
