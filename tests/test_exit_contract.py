"""The CLI's exit-code contract under generated inputs.

Every subcommand has a valid base invocation, written as fields: argv flags,
or the keys of its config document ("inner.window" is the window of the
inner spec).  Each field lists other valid values and values invalid by
construction.  An example swaps up to two fields for other valid values and
at most one more for an invalid value, then runs ``cli.main`` in process:

- an invalid value must exit 3 with exactly one ``seqcore:`` line on stderr,
  no traceback and no ``--out`` file;
- a valid invocation must exit 0, 1 or 2, and a report it writes must repeat
  its bytes on a second run, or exit 4 with one ``seqcore:`` line naming an
  overflow, as an expanding system can.

Sizes stay small (n <= 64), so no example allocates much; a huge direction
count or probe grid appears only where a schema bound rejects it first.
"""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from seqcore import cli

OMIT = "<omitted>"  # the field is left out of the argv or the config


class File:
    """An argv value written to a JSON file, whose path is passed."""

    def __init__(self, doc):
        self.doc = doc

    def __repr__(self):
        return f"File({json.dumps(self.doc)[:60]})"


def _values(*rows):
    return {"values": [list(r) for r in rows]}


_BAD_SEQS = [
    "nope",
    "alternating:bad",
    "convergent:rate=2",
    "roots_of_unity:m=0",
    "e_n:k=-1",
    "e_n:k=999",
    "e_n:k=2.7",
    "roots_of_unity:m=4.5",
    "random_bounded:seed=1.9",
]
_HUGE = 10**400  # an integer beyond double range
_BAD_SEQ_DOCS = [
    _values(),
    _values((1.0, "x")),
    _values(*[(float("nan"), 0.0)] * 64),
    _values((1.0, 0.0)),
    _values(*[(1.0, 0.0)] * 63, ("1.5", 0.0)),
    _values(*[(1.0, 0.0)] * 63, (_HUGE, 0.0)),
    {"generator": "convergent", "params": {"rate": "0.5"}},
]
_BAD_SYSTEMS = [
    "nope",
    "constant:r=0",
    "constant:s=0",
    "constant:alpha=-1",
    "constant:alpha=nan",
    "random:seed=1,amplification_cap=0.5",
    "random:seed=2.5",
]
_BAD_SYSTEM_DOCS = [
    {"r": [1.0], "s": [1.0], "alpha": [1.0]},
    {"r": [1.0] * 64, "s": [0.0] * 64, "alpha": [1.0] * 64},
    {"r": ["2"] * 64, "s": [1.0] * 64, "alpha": [1.0] * 64},
    {"r": [1.0] * 64, "s": [1.0] * 64, "alpha": [1.0] * 63 + [_HUGE]},
    {"generator": "constant", "params": {"r": "2"}},
]
_SYSTEMS = ["delta", ["constant:r=2,s=1", "difference", "random:seed=3,amplification_cap=100"], _BAD_SYSTEMS]
_P_LIST = ",".join(["1.5", "2.5"] * 32)
_P = ["2", ["0.5", "1", _P_LIST], ["-1", "0", "x", "nan", "inf", "1,2"]]


def _argv_seq(base, valid):
    return [base, valid, _BAD_SEQS + [File(d) for d in _BAD_SEQ_DOCS]]


def _argv_system():
    return [_SYSTEMS[0], _SYSTEMS[1], _SYSTEMS[2] + [File(d) for d in _BAD_SYSTEM_DOCS]]


_N = ["16", ["2", "7", "64"], ["0", "-3", "x", "2.5"]]
_DIRECTIONS = ["16", ["4", "64", "100"], ["3", "0", "-4", "1025", "1000000000000000", "x"]]
_GRID_N = ["5", ["0", "21", "41"], ["-1", "65", "100000", "x"]]
_WINDOW = [OMIT, ["10,30", "1,33"], ["5,5", "30,20", "0,999", "a,b", "1,2,3", "-5,10"]]
_CORE_N = ["40", ["33", "64"], ["0", "-3", "x"]]

# command -> field -> [base value, other valid values, invalid values]
ARGV_BASES = {
    "transform": {"--x": _argv_seq("alternating:", ["e", "convergent:rate=0.25", "random_bounded:seed=4"]), "--system": _argv_system(), "--n": _N},
    "invert": {"--y": _argv_seq("e", ["roots_of_unity:m=3", "convergent:"]), "--system": _argv_system(), "--n": _N},
    "paranorm": {
        "--x": _argv_seq("convergent:", ["alternating:", "random_bounded:seed=2"]),
        "--p": _P,
        "--kind": ["sup", ["sum"], ["max"]],
        "--system": _argv_system(),
        "--n": _N,
    },
    "paranorm --raw": {"--x": _argv_seq("alternating:", ["e"]), "--p": _P, "--kind": ["sup", ["sum"], ["max"]], "--n": _N},
    "basis-residual": {
        "--x": _argv_seq("alternating:", ["e", "convergent:"]),
        "--system": _argv_system(),
        "--p": ["1", ["2", _P_LIST], ["-1", "0", "x", "1,2"]],
        "--cutoffs": ["0,3", ["0", "5,1"], ["-1", "x", "0,999", "1.5"]],
        "--n": ["16", ["8", "64"], ["0", "-3", "x"]],
    },
    "core --kind k": {
        "--x": _argv_seq("roots_of_unity:m=3", ["alternating:", "random_bounded:seed=2", "convergent:"]),
        "--n": _CORE_N,
        "--window": _WINDOW,
        "--directions": _DIRECTIONS,
        "--grid-n": _GRID_N,
        "--method": ["hull", ["disc"], ["x"]],
        "--system": [OMIT, ["delta"], _BAD_SYSTEMS],
    },
    "core --kind st": {
        "--x": _argv_seq("random_bounded:seed=5", ["alternating:", "roots_of_unity:m=5"]),
        "--n": _CORE_N,
        "--window": _WINDOW,
        "--directions": _DIRECTIONS,
        "--grid-n": _GRID_N,
        # tolerances near 1 can leave the discs no common point (test_io_cli's empty st core row)
        "--density-tol": ["0.1", ["0.02", "0.05", "0.2"], ["0", "1", "1.5", "-0.1", "nan", "x"]],
    },
    "core --kind alpha": {
        "--x": _argv_seq("alternating:", ["convergent:", "roots_of_unity:m=3"]),
        "--system": [_SYSTEMS[0], _SYSTEMS[1], _SYSTEMS[2] + [OMIT]],
        "--n": _CORE_N,
        "--window": [OMIT, ["10,30", "1,33"], ["0,10", "5,5", "0,999", "a,b"]],
        "--directions": _DIRECTIONS,
    },
    "verify": {"--select": ["C10", ["C11", "C9,C12", ""], ["C99", "C0", "x"]]},
}

_LADDER = [[8, 16], [[4, 16], [4, 8, 16], [4.0, 16.0]], [[], [16, 8], [0, 16], [-4, 16], ["a", 16], [8.5, 16], [True, 16], "x", None]]
_ARGV_LADDER = [OMIT, ["4,16", "2,8,16"], ["16,x", "-4,16", "16,8", "0,16"]]
_CONFIG_SEQS = ["nope", "convergent:rate=2", *_BAD_SEQ_DOCS, {"generator": "e", "params": "k=1"}]
_CONFIG_SYSTEMS = ["delta", _SYSTEMS[1], _BAD_SYSTEMS + _BAD_SYSTEM_DOCS + [{"generator": "constant", "params": [1]}]]
_CORE_SPEC = {
    "x": ["alternating:", ["roots_of_unity:m=4", "convergent:"], _CONFIG_SEQS],
    "n": [40, [64], [0, -1, "a", 2.5, None, True]],
    "window": [OMIT, [[10, 30], "1,33", [10.0, 30.0]], [[5, 5], [30, 999], ["a", 40], [1, 2, 3], "x", [10.5, 30], [True, 30]]],
    # the other spec keeps the default 64 directions, and two regions compare only on one direction set
    "directions": [OMIT, [64, 64.0], [2, 1025, 10**15, None, "x", 2.5, 64.5, 16]],
    "grid_n": [OMIT, [0, 41, 3.0], [-1, 65, 100000, [21], None, True, 3.5]],
}
_TRIANGLE = np.tril(np.add.outer(np.arange(16.0), np.arange(16.0)) % 5 + 1.0)

CONFIG_BASES = {
    "dual-check": {
        "a": ["e", ["alternating:", "convergent:", _values(*[(0.5, 0.0)] * 16)], _CONFIG_SEQS],
        "system": _CONFIG_SYSTEMS,
        "p": [2.0, [1.5, [2.0] * 16], [-1, 0, "x", None, [1.0] * 3, [1.0] * 15 + [0.0], float("nan"), float("inf"), "1.5", _HUGE, True]],
        "space": ["s0", ["sc", "sinf", "lp"], ["foo", 1]],
        "dual": ["beta", ["alpha", "gamma"], ["delta", None]],
        "ladder": _LADDER,
        "--ladder": _ARGV_LADDER,
        "b_ladder": [OMIT, [[2, 4], [3], [2.0, 4.0]], [[], [1, 4], [0], ["x"], None, [True, 4], [2.5, 4]]],
        "extra": [OMIT, [], [1]],
    },
    "class-check": {
        "matrix": [
            "cesaro",
            [
                "identity",
                "summation",
                {"dense": _TRIANGLE.tolist()},
                {"generator": "riesz", "params": {"t": 2.0}},
                {"generator": "band", "params": {"r": -2, "s": 1}},
                # every valid ladder tops out at 16, and double_band ignores values past the truncation
                {"generator": "double_band", "params": {"r": [2.0, -1.0] * 10, "s": [0.5] * 20}},
            ],
            [
                "nope",
                {"generator": "band", "params": {"r": 0, "s": 1}},
                # a JSON 1e400 reads as inf, which json.dumps writes as Infinity
                {"generator": "band", "params": {"r": float("inf"), "s": 1}},
                {"generator": "band", "params": {"r": float("nan"), "s": 1}},
                {"generator": "double_band", "params": {"r": 2.0, "s": [1.0] * 16}},
                {"generator": "double_band", "params": {"r": [2.0] * 15, "s": [1.0] * 15}},
                {"generator": "cesaro", "params": [1]},
                {"dense": [[1.0, 2.0], [3.0]]},
                {"dense": np.eye(8).tolist()},
                {"dense": np.where(_TRIANGLE > 4, np.nan, _TRIANGLE).tolist()},
                {"dense": np.pad(_TRIANGLE, (0, 1), constant_values=np.inf).tolist()},
                {"dense": [["a"] * 16] * 16},
                {"dense": [*_TRIANGLE[:-1].tolist(), [*_TRIANGLE[-1, :-1].tolist(), "1.5"]]},
                {"dense": [*_TRIANGLE[:-1].tolist(), [*_TRIANGLE[-1, :-1].tolist(), _HUGE]]},
                {"generator": "riesz", "params": {"t": ["1"] * 16}},
            ],
        ],
        "system": _CONFIG_SYSTEMS,
        "class": ["s0:c_q", ["c:sc_reg", "sinf:c", "sc:linf_q", "st:sc_reg"], ["nope", "s0:c"]],
        "p": [2.0, [3.0, [2.0] * 16], [-1, "x", None, [2.0] * 3, "2", [2.0] * 15 + [_HUGE], True]],
        "q": [1.5, [2.0], [-1, 0, "x", [1.5] * 3, "1.5", _HUGE, True]],
        "ladder": _LADDER,
        "--ladder": _ARGV_LADDER,
        "extra": [OMIT, [], [1]],
    },
    "core-include": {
        **{f"inner.{key}": field for key, field in _CORE_SPEC.items()},
        "inner.density_tol": [OMIT, [0.02, 0.2], [0, 1, 1.5, None, "x", [0.1], True]],
        "outer.x": _CORE_SPEC["x"],
        "outer.method": [OMIT, ["disc"], ["x"]],
        "outer.kind": ["k", ["st"], ["z", None]],
        "outer.grid_n": _CORE_SPEC["grid_n"],
        "tol": [0.05, [0.2, 0.0], [None, "x", [0.05], False, float("nan"), float("inf")]],
        "extra": [OMIT, [], [1]],
    },
}
_FIXED = {"core-include": {"inner.kind": "st", "outer.n": 40}}
# a field that other valid values of a second field leave unread: an invalid value of it keeps the second at its base
_MASKED_BY = {"ladder": "--ladder", "outer.method": "outer.kind"}


def _argv(name: str, values: dict, work: Path, out: Path) -> list:
    """The argv of one invocation: flags from argv fields, the rest as the config document."""
    command, *fixed = name.split()
    argv, config = [command, *fixed], {}
    for key, value in ({**_FIXED.get(name, {}), **values}).items():
        if value is OMIT or value is False:
            continue
        if not key.startswith("--"):
            head, _, tail = key.partition(".")
            (config.setdefault(head, {}) if tail else config)[tail or head] = value
        elif value is True:
            argv.append(key)
        elif isinstance(value, File):
            path = work / f"{key[2:]}.json"
            path.write_text(json.dumps(value.doc))
            argv.append(f"{key}={path}")
        else:
            argv.append(f"{key}={value}")
    if name in CONFIG_BASES:
        path = work / "config.json"
        path.write_text(json.dumps(config))
        argv.append(f"--config={path}")
    return [*argv, f"--out={out}"]


def _run(argv: list) -> tuple:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


_BASES = {**ARGV_BASES, **CONFIG_BASES}


@st.composite
def invocations(draw):
    name = draw(st.sampled_from(sorted(_BASES)))
    fields = _BASES[name]
    values = {key: field[0] for key, field in fields.items()}
    for key in draw(st.lists(st.sampled_from(sorted(k for k in fields if fields[k][1])), max_size=2, unique=True)):
        values[key] = draw(st.sampled_from(fields[key][1]))
    invalid = draw(st.none() | st.sampled_from(sorted(k for k in fields if fields[k][2])))
    if invalid is not None:
        values[invalid] = draw(st.sampled_from(fields[invalid][2]))
        if invalid in _MASKED_BY:
            values[_MASKED_BY[invalid]] = fields[_MASKED_BY[invalid]][0]
    return name, values, invalid


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=invocations())
def test_generated_invocations_keep_the_exit_code_contract(case):
    name, values, invalid = case
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        out = work / "report.out"
        argv = _argv(name, values, work, out)
        code, err = _run(argv)
        lines = err.splitlines()
        if invalid is not None:
            assert (code, len(lines)) == (3, 1), (argv, code, err)
            assert lines[0].startswith("seqcore: ") and "Traceback" not in err and not out.exists(), (argv, err)
        elif code == 4:
            assert len(lines) == 1 and "overflow" in lines[0], (argv, err)
        else:
            assert code in (0, 1, 2) and "Traceback" not in err, (argv, code, err)
            if out.exists():
                first = out.read_bytes()
                out.unlink()
                assert _run(argv)[0] == code and out.read_bytes() == first, argv
