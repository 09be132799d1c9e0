import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import seqcore.acceptance as acceptance
from seqcore import band_ops, cli, cores, duals, io, matclass
from seqcore.generators import GeneratorSpec, make_matrix, make_sequence, random_band_system, rng_from_seed
from seqcore.types import BandSystem, ExponentSeq, FiniteSeq


def _signed_zero_cases() -> dict:
    """Per case: a report builder and an input whose zeros carry a minus sign (some or all)."""
    n, ladder = 32, (8, 16, 32)
    block = rng_from_seed(31).uniform(-1.0, 1.0, (n, n))
    sys = random_band_system(rng_from_seed(7), n)
    p, q = ExponentSeq.constant(2.0, n), np.full(n, 1.5)
    rng = np.random.default_rng(5)
    ab = rng.integers(-3, 4, (1600, 2)).astype(np.float64)
    ab = ab[np.abs(ab).sum(axis=1) <= 3.0][:400]  # a diamond: its vertices have a zero coordinate
    ab[ab == 0.0] *= rng.choice([-1.0, 1.0], int(np.count_nonzero(ab == 0.0)))
    lattice = np.empty(ab.shape[0], dtype=np.complex128)
    lattice.real, lattice.imag = ab.T
    window = (100, 400)
    e_classes = [cid for cid, ids in matclass.CLASS_RULES.items() if matclass.CONDITIONS[ids[0]].source in ("E", "partial")]
    return {
        "dual": (
            lambda a: [
                duals.dual_report(a, BandSystem.difference(n), p, space, "beta", ladder) for space in ("s0", "sinf")
            ],
            np.full(n, -0.0),
        ),
        "class": (
            lambda A: [matclass.class_report(A, cid, sys, p=p, q=q, ladder=ladder) for cid in e_classes],
            -np.tril(np.abs(block)),
        ),
        "hull": (lambda x: [cores.cluster_hull(x, window)], lattice),
        "disc": (lambda x: [cores.disc_core(x, window)], lattice),
        "alpha": (lambda x: [cores.alpha_core(x, BandSystem.difference(400), window)], lattice),
    }


class TestCanonicalJson:
    def test_fixed_float_formatting(self):
        assert io.canonical_dumps({"v": 0.1}) == '{"v":0.10000000000000001}\n'
        assert io.canonical_dumps([1, True, None, "x"]) == '[1,true,null,"x"]\n'
        assert io.canonical_dumps([-0.0, np.float64(-0.0), 0.0]) == "[0,0,0]\n"

    @pytest.mark.parametrize("case", list(_signed_zero_cases()))
    def test_signed_zero_inputs_render_the_same_bytes(self, case):
        report, signed = _signed_zero_cases()[case]
        assert np.signbit([signed.real, signed.imag]).any()

        def render(x):
            return io.canonical_dumps([r.to_json() for r in report(x)])

        assert render(signed) == render(signed + 0.0)

    def test_sorted_keys(self):
        assert io.canonical_dumps({"b": 1, "a": 2}) == '{"a":2,"b":1}\n'

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            io.canonical_dumps({"v": float("inf")})

    def test_round_trip_stability(self):
        doc = {"xs": [0.5, 1 / 3, 2.0**-40], "n": 7, "flag": False}
        once = io.canonical_dumps(doc)
        again = io.canonical_dumps(json.loads(once))
        assert once == again


def _render_oracle(obj) -> str:
    """The recursive isinstance renderer that io.canonical_dumps replaced, kept as its oracle."""

    def render(o) -> str:
        if o is None:
            return "null"
        if isinstance(o, bool) or isinstance(o, np.bool_):
            return "true" if o else "false"
        if isinstance(o, (int, np.integer)):
            return str(int(o))
        if isinstance(o, (float, np.floating)):
            if not math.isfinite(float(o)):
                raise ValueError("reports cannot contain non-finite floats")
            return format(float(o) + 0.0, ".17g")
        if isinstance(o, str):
            return json.dumps(o)
        if isinstance(o, (list, tuple, np.ndarray)):
            return "[" + ",".join(render(v) for v in o) + "]"
        if isinstance(o, dict):
            items = sorted(o.items(), key=lambda kv: str(kv[0]))
            return "{" + ",".join(json.dumps(str(k)) + ":" + render(v) for k, v in items) + "}"
        raise TypeError(f"cannot serialize {type(o).__name__}")

    return render(obj) + "\n"


def _rendered_or_raised(render, obj):
    try:
        return render(obj)
    except (ValueError, TypeError) as exc:
        return type(exc)


_SUBNORMAL = 5e-324
_FLOATS = st.sampled_from([0.0, -0.0, _SUBNORMAL, -_SUBNORMAL, 2.2250738585072014e-308, 1e308, -1e308, 0.1, 1 / 3])
_FLOATS |= st.floats(allow_nan=True, allow_infinity=True) | st.floats(allow_subnormal=True, max_value=1e-300, min_value=-1e-300)
_SCALARS = st.one_of(
    _FLOATS,
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.text(max_size=6),
    st.text(max_size=3).map(np.str_),
    st.sampled_from([1 + 2j, object(), {1, 2}, b"x", np.complex128(1j)]),  # no JSON form: TypeError
)
_ARRAYS = st.one_of(
    st.lists(_FLOATS, max_size=5).map(lambda v: np.array(v, dtype=np.float64)),
    st.lists(st.integers(-9, 9), max_size=5).map(np.array),
    st.lists(st.booleans(), max_size=5).map(lambda v: np.array(v, dtype=bool)),
    _FLOATS.map(np.array),  # 0-d: not iterable, TypeError
    st.integers(1, 3).map(lambda n: np.arange(n * 2.0).reshape(n, 2) - 1.0),
)
_KEYS = st.text(max_size=5) | st.integers(-3, 3) | st.sampled_from([None, 1.5, (1, 2)])
_REPORTS = st.recursive(
    _SCALARS | _ARRAYS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=24,
)


class TestFastPathsAgainstOracles:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(obj=_REPORTS)
    def test_renderer_matches_its_recursive_oracle(self, obj):
        # the bytes when both render, else the same exception type: ValueError for non-finite, TypeError otherwise
        assert _rendered_or_raised(io.canonical_dumps, obj) == _rendered_or_raised(_render_oracle, obj)

    def test_renderer_matches_its_oracle_on_reports(self):
        n, ladder = 32, (8, 16, 32)
        sys = random_band_system(rng_from_seed(7), n)
        p, q = ExponentSeq.constant(2.0, n), np.full(n, 1.5)
        docs = [matclass.class_report("cesaro", cid, sys, p=p, q=q, ladder=ladder).to_json() for cid in sorted(matclass.CLASS_RULES)]
        docs.append(duals.dual_report(np.full(n, 0.5), sys, p, "s0", "beta", ladder).to_json())
        docs.append(cores.cluster_hull(make_sequence("roots_of_unity", 64, m=3), (16, 64)).to_json())
        for doc in docs:
            assert io.canonical_dumps(doc) == _render_oracle(doc)

    @pytest.mark.parametrize("shape", [(1, 1), (1, 9), (9, 1), (7, 13), (64, 64)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_dense_parse_matches_asarray_bit_for_bit(self, shape, seed):
        rng = np.random.default_rng([seed, *shape])
        specials = [
            -0.0, 0.0, _SUBNORMAL, -_SUBNORMAL, 2.2250738585072014e-308, 1e308, -1e308, math.ulp(1.0),
            0, -7, 2**53 + 1, -(2**63), 2**64 + 1, 10**300, True, False,
        ]
        picks = rng.integers(0, len(specials) + 1, shape)
        noise = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
        rows = [[specials[k] if k < len(specials) else float(x) for k, x in zip(pr, nr)] for pr, nr in zip(picks, noise)]
        parsed, oracle = io.matrix_from_spec({"dense": rows}, 1), np.asarray(rows, dtype=np.float64)
        assert parsed.dtype == oracle.dtype and parsed.shape == oracle.shape and parsed.flags.c_contiguous
        assert parsed.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize(
        "rows",
        [
            [[1.0, 2.0], [3.0]],
            [[1.0], [2.0, 3.0]],
            [[1.0, "1.5"], [1.0, 1.0]],
            [[1.0, 1.0], [10**400, 1.0]],
            [[1.0, None]],
            [[1.0, [2.0]]],
            [[1.0, 1.0], 2.0],
            [[1.0, 1.0], "ab"],
            [[1.0, 1.0], {"a": 1, "b": 2}],
            [1.0, 2.0],
            [],
            "dense",
        ],
        ids=[
            "short-row", "long-row", "numeric-string", "huge-int", "null", "nested", "scalar-row", "text-row",
            "object-row", "flat", "empty", "text",
        ],
    )
    def test_dense_parse_rejects_what_is_not_a_block_of_numbers(self, rows):
        with pytest.raises(io.SchemaError):
            io.matrix_from_spec({"dense": rows}, 1)

    def test_sequence_pairs_parse_as_their_complex_values(self):
        pairs = [[-0.0, -0.0], [_SUBNORMAL, 1e308], [3, True], [0.1, -2.5]]
        parsed = io.seq_from_spec({"values": pairs}).values
        assert parsed.tobytes() == np.array([complex(re, im) for re, im in pairs]).tobytes()

    @pytest.mark.parametrize(
        "text",
        ["[" + "1" * 5000 + "]", "[" * 100_000 + "]" * 100_000],
        ids=["literal-beyond-parser-digits", "nested-beyond-recursion"],
    )
    def test_documents_the_json_parser_refuses_are_schema_errors(self, tmp_path, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        with pytest.raises(io.SchemaError):
            io.load_json(str(path))


class TestSpecs:
    def test_sequence_round_trip(self):
        seq = FiniteSeq(np.array([1 + 2j, -0.5]))
        doc = io.seq_to_json(seq)
        back = io.seq_from_spec(doc)
        assert np.array_equal(back.values, seq.values)

    def test_sequence_shorthand(self):
        seq = io.seq_from_spec("roots_of_unity:m=4", 4)
        assert np.allclose(seq.values, [1, 1j, -1, -1j])

    def test_system_round_trip(self):
        sys = BandSystem.constant(2.0, -1.0, 1.5, 6)
        back = io.system_from_spec(io.system_to_json(sys), 6)
        assert np.array_equal(back.r, sys.r)

    def test_system_shorthand(self):
        sys = io.system_from_spec("constant:r=2,s=1", 8)
        assert np.all(sys.r == 2.0) and np.all(sys.s == 1.0)
        delta = io.system_from_spec("delta", 4)
        assert np.all(delta.s == -1.0)

    def test_bad_specs_raise_schema_errors(self):
        with pytest.raises(io.SchemaError):
            io.seq_from_spec({"nope": 1})
        with pytest.raises(io.SchemaError):
            io.system_from_spec({"r": [1.0]}, 1)
        with pytest.raises(io.SchemaError):
            io.matrix_from_spec(12, 4)

    def test_matrix_spec_dense_and_generator(self):
        dense = io.matrix_from_spec({"dense": np.eye(4).tolist()}, 4)
        assert np.array_equal(dense, np.eye(4))
        built = io.matrix_from_spec("cesaro", 4)
        assert type(built) is np.ndarray and built.tobytes() == make_matrix("cesaro", 4).tobytes()
        doc = io.matrix_from_spec({"generator": "riesz", "params": {"t": 2.0}}, 5)
        assert doc.tobytes() == make_matrix(GeneratorSpec("riesz", {"t": 2.0}), 5).tobytes()


class TestCli:
    def test_transform_invert_round_trip(self, tmp_path):
        x_path = tmp_path / "x.json"
        x_path.write_text(io.canonical_dumps(io.seq_to_json(FiniteSeq(np.array([1.0, 2.0, 3.0])))))
        out_y = tmp_path / "y.json"
        rc = cli.main(["transform", "--x", str(x_path), "--system", "delta", "--n", "3", "--out", str(out_y)])
        assert rc == 0
        y_doc = json.loads(out_y.read_text())
        assert [v[0] for v in y_doc["values"]] == [1.0, 1.0, 1.0]
        out_x = tmp_path / "back.json"
        rc = cli.main(["invert", "--y", str(out_y), "--system", "delta", "--n", "3", "--out", str(out_x)])
        assert rc == 0
        back = json.loads(out_x.read_text())
        assert [v[0] for v in back["values"]] == [1.0, 2.0, 3.0]

    def test_paranorm_command(self, capsys):
        rc = cli.main(["paranorm", "--x", "e", "--p", "1.0", "--kind", "sup", "--system", "delta", "--n", "16"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["value"] == 1.0  # difference rows of the ones sequence peak at 1

    def test_basis_residual_command(self, capsys):
        rc = cli.main(
            ["basis-residual", "--x", "alternating", "--p", "1.0", "--system", "delta", "--n", "32", "--cutoffs", "0,8,31"]
        )
        assert rc == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["cutoff"] for r in rows] == [0, 8, 31]
        assert rows[-1]["residual"] == 0.0

    def test_core_region_csv_for_transformed_alternating(self, tmp_path):
        csv_path = tmp_path / "region.csv"
        rc = cli.main(
            ["core", "--kind", "alpha", "--x", "alternating", "--system", "delta", "--n", "512", "--out-csv", str(csv_path), "--out", str(tmp_path / "r.json")]
        )
        assert rc == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "x,y"
        verts = [tuple(float(v) for v in line.split(",")) for line in lines[1:]]
        assert verts == [(-2.0, 0.0), (2.0, 0.0)]

    def test_core_region_csv_square_has_four_ccw_rows(self, tmp_path):
        csv_path = tmp_path / "square.csv"
        rc = cli.main(
            ["core", "--kind", "k", "--x", "roots_of_unity:m=4", "--n", "400", "--out-csv", str(csv_path), "--out", str(tmp_path / "sq.json")]
        )
        assert rc == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "x,y"
        verts = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert verts.shape == (4, 2)
        x_c, y_c = verts[:, 0], verts[:, 1]
        assert 0.5 * np.sum(x_c * np.roll(y_c, -1) - np.roll(x_c, -1) * y_c) > 0  # CCW

    def test_core_disc_method_flag(self, tmp_path):
        rc = cli.main(
            ["core", "--kind", "k", "--method", "disc", "--x", "alternating", "--n", "400", "--out", str(tmp_path / "d.json")]
        )
        assert rc == 0
        doc = json.loads((tmp_path / "d.json").read_text())
        assert doc["method"] == "disc_intersection"

    def test_class_check_regular_config(self, tmp_path):
        config = {
            "matrix": {"dense": (make_matrix("summation", 64) @ make_matrix("cesaro", 64)).tolist()},
            "system": "delta",
            "class": "c:sc_reg",
            "ladder": [16, 32, 64],
        }
        cfg = tmp_path / "cesaro_reg.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["class-check", "--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 0
        doc = json.loads((tmp_path / "out.json").read_text())
        assert doc["aggregate"] == "holds"

    def test_class_check_zero_matrix_fails(self, tmp_path):
        cfg = tmp_path / "zero.json"
        cfg.write_text(json.dumps({"matrix": "zero", "system": "delta", "class": "c:sc_reg", "ladder": [16, 32, 64]}))
        assert cli.main(["class-check", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize(
        "matrix, top",
        [
            pytest.param("cesaro", 520, id="kernel"),  # V itself overflows from n = 513
            pytest.param({"dense": (1e300 * make_matrix("cesaro", 64)).tolist()}, 64, id="composition"),
        ],
    )
    def test_class_check_overflow_is_an_error(self, tmp_path, capsys, matrix, top):
        # on an expanding system E leaves double precision: exit 4 and no report, never a report of inf
        cfg = tmp_path / "overflow.json"
        doc = {"matrix": matrix, "system": "constant:r=1,s=4", "class": "sinf:c0", "p": 1.0, "ladder": [16, top]}
        cfg.write_text(json.dumps(doc))
        assert cli.main(["class-check", "--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 4
        assert "overflow" in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize(
        "system, ladder, cause",
        [
            pytest.param("constant:r=1,s=4", [16, 520], "overflow", id="overflow"),  # V overflows from n = 513
            # V[2, 0] = 1e-348 is below every double and V[4, 0] = 1: the recurrence would return 0.0
            pytest.param(
                {"r": [1.0] * 5, "s": [1e-174, 1e-174, 1e174, 1e174, 1.0], "alpha": [1.0, 1.0, 1e-100, 1.0, 1.0]},
                [4, 5],
                "regrow",
                id="regrowth",
            ),
        ],
    )
    def test_dual_check_kernel_out_of_range_is_an_error(self, tmp_path, capsys, system, ladder, cause):
        cfg = tmp_path / "range.json"
        doc = {"a": "alternating", "system": system, "p": 1.0, "space": "s0", "dual": "beta", "ladder": ladder}
        cfg.write_text(json.dumps(doc))
        assert cli.main(["dual-check", "--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 4
        assert cause in capsys.readouterr().err
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize(
        "weight, n, system, dual, ladder",
        [
            pytest.param(1e300, 512, "constant:r=1,s=4", "alpha", [16, 512], id="C"),  # V is finite up to 4^511
            pytest.param(1e308, 32, "difference", "beta", [8, 16, 32], id="D"),  # C = 1e308 is finite, its cumsum not
        ],
    )
    def test_dual_check_companion_overflow_is_one_error_line(self, tmp_path, capsys, weight, n, system, dual, ladder):
        cfg = tmp_path / "companion.json"
        doc = {"a": {"values": [[weight, 0.0]] * n}, "system": system, "p": 1.0, "space": "s0", "dual": dual, "ladder": ladder}
        cfg.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["dual-check", "--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 4
        assert [str(w.message) for w in caught] == []  # a numpy RuntimeWarning would print a line of its own
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("seqcore:") and "overflow" in err[0]
        assert not (tmp_path / "out.json").exists()

    def test_class_check_partial_sum_overflow_is_one_error_line(self, tmp_path, capsys):
        # E is finite at both rungs, but row 0's partial-sum family sums 1e308 + 1e308
        cfg = tmp_path / "family.json"
        dense = [[-1e308, 1e308, 1e308, -1e308], [0.5, 0, 0, 0], [0.25, 0.25, 0, 0], [0.1, 0.1, 0.1, 0]]
        doc = {"matrix": {"dense": dense}, "system": "difference", "class": "sinf:linf", "p": 2.0, "ladder": [2, 4]}
        cfg.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["class-check", "--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 4
        assert [str(w.message) for w in caught] == []  # a numpy RuntimeWarning would print a line of its own
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("seqcore:") and "companion entries overflow" in err[0]
        assert not (tmp_path / "out.json").exists()

    def test_dual_check_complex_weights_on_signed_column_sups_is_a_schema_error(self, tmp_path, capsys):
        # lp.alpha at p <= 1 is S12, whose subset column sups are characterized for real weights only
        cfg = tmp_path / "complex.json"
        a = [[2.0**-k, 2.0**-k] for k in range(16)]  # a_k = 2^-k (1 + i)
        doc = {"a": {"values": a}, "system": "difference", "p": 1.0, "space": "lp", "dual": "alpha", "ladder": [4, 8, 16]}
        cfg.write_text(json.dumps(doc))
        assert cli.main(["dual-check", "--config", str(cfg), "--out", str(tmp_path / "out.json")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("seqcore:") and "real weights" in err[0]
        assert not (tmp_path / "out.json").exists()

    _CLASS_DOC = {"system": "delta", "class": "c:sc_reg", "ladder": [1, 2]}
    _SYSTEM_DOC = {"r": [1.0, 1.0], "s": [-1.0, -1.0], "alpha": [1.0, 1.0]}
    _HUGE = 10**400  # a 401-digit integer, beyond double range

    @pytest.mark.parametrize(
        "argv, doc",
        [
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": {"dense": [["a", 1.0], [1.0, 1.0]]}}, id="dense-text"),
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": {"dense": [[1.0, 1.0], [1.0]]}}, id="dense-ragged"),
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": {"dense": [[1.0, math.nan], [1.0, 1.0]]}}, id="dense-nan"),
            # numbers must be JSON numbers: a numeric string or an integer beyond double range is a schema error
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": {"dense": [[1.0, "1.5"], [1.0, 1.0]]}}, id="dense-numeric-string"),
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": {"dense": [[1.0, 1.0], [_HUGE, 1.0]]}}, id="dense-huge-int"),
            pytest.param(["transform", "--system", "delta", "--n", "2", "--x"], {"values": [[1.0, 0.0], [_HUGE, 0.0]]}, id="values-huge-int"),
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": "cesaro", "system": _SYSTEM_DOC | {"r": [1.0, _HUGE]}}, id="r-huge-int"),
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": "cesaro", "system": _SYSTEM_DOC | {"s": [_HUGE, 1.0]}}, id="s-huge-int"),
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": "cesaro", "system": _SYSTEM_DOC | {"alpha": [1.0, _HUGE]}}, id="alpha-huge-int"),
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": "cesaro", "system": _SYSTEM_DOC | {"r": [1.0, "2"]}}, id="r-numeric-string"),
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": "cesaro", "p": [1.5, _HUGE]}, id="p-list-huge-int"),
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": "cesaro", "p": _HUGE}, id="p-huge-int"),
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": "cesaro", "p": "1.5"}, id="p-numeric-string"),
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": "cesaro", "p": [1.5, "1.5"]}, id="p-list-numeric-string"),
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": "cesaro", "q": "1.5"}, id="q-numeric-string"),
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": "cesaro", "ladder": [1, "2"]}, id="ladder-numeric-string"),
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": "cesaro", "system": {"generator": "constant", "params": {"r": _HUGE}}}, id="system-param-huge-int"),
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": "cesaro", "system": {"generator": "constant", "params": {"r": [2.0]}}}, id="system-param-list"),
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": {"generator": "riesz", "params": {"t": _HUGE}}}, id="riesz-param-huge-int"),
            # generator params too: each is a JSON number, a list of them, or null
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": "cesaro", "system": {"generator": "constant", "params": {"r": "2"}}}, id="system-param-numeric-string"),
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": {"generator": "riesz", "params": {"t": ["1", "1"]}}}, id="riesz-param-numeric-strings"),
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": "cesaro", "system": 'constant:r="2",s=1'}, id="system-shorthand-numeric-string"),
            pytest.param(
                ["dual-check", "--config"],
                {"a": {"generator": "convergent", "params": {"rate": "0.5"}}, "system": "delta", "p": 1.0, "space": "s0", "dual": "beta", "ladder": [1, 2]},
                id="sequence-param-numeric-string",
            ),
            pytest.param(["core", "--kind", "k", "--n", "40", "--x"], 'roots_of_unity:m="4"', id="core-shorthand-numeric-string"),
            # a JSON boolean is not a number, nor an integer
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": "cesaro", "ladder": [True, 2]}, id="ladder-boolean"),
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": "cesaro", "p": True}, id="p-boolean"),
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": "cesaro", "system": {"generator": "constant", "params": {"r": True}}}, id="system-param-boolean"),
            # a generator's integer param must be integral
            pytest.param(["core", "--kind", "k", "--n", "40", "--x"], "roots_of_unity:m=4.5", id="roots-of-unity-fractional-m"),
            pytest.param(["core", "--kind", "k", "--n", "40", "--x"], "random_bounded:seed=1.9", id="random-bounded-fractional-seed"),
            pytest.param(["core", "--kind", "k", "--n", "40", "--x"], "e_n:k=2.7", id="e-n-fractional-k"),
            pytest.param(["class-check", "--config"], _CLASS_DOC | {"matrix": "cesaro", "system": "random:seed=2.5"}, id="random-system-fractional-seed"),
            pytest.param(["transform", "--system", "delta", "--n", "2", "--x"], {"values": [[1.0, 0.0], [math.nan, 0.0]]}, id="values-nan"),
            pytest.param(["transform", "--system", "delta", "--n", "-1", "--x"], {"values": [[1.0, 0.0]] * 4}, id="n-negative"),
            pytest.param(["transform", "--system", "delta", "--n", "0", "--x"], {"values": [[1.0, 0.0]] * 4}, id="n-zero"),
        ],
    )
    def test_malformed_input_document_is_a_schema_error(self, tmp_path, capsys, argv, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))  # NaN is written as NaN, which json reads back
        assert cli.main(argv + [str(path), "--out", str(tmp_path / "out.json")]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("seqcore:")
        assert not (tmp_path / "out.json").exists()

    def test_dual_check_config(self, tmp_path, capsys):
        cfg = tmp_path / "dual.json"
        cfg.write_text(
            json.dumps(
                {
                    "a": {"generator": "convergent", "params": {"l": 0.0, "rate": 0.5}},
                    "system": "constant:r=1,s=1",
                    "p": 1.0,
                    "space": "s0",
                    "dual": "beta",
                    "ladder": [16, 32, 64],
                }
            )
        )
        rc = cli.main(["dual-check", "--config", str(cfg)])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["aggregate"] == "holds"

    @pytest.mark.parametrize(
        "command, config",
        [
            *(("dual-check", {"a": "e", "system": "delta", "p": 2.0, "space": space, "dual": "beta"}) for space in ("sc", "sinf")),
            ("class-check", {"matrix": "cesaro", "system": "delta", "class": "sc:c_q", "p": 2.0, "q": 1.5}),
        ],
        ids=["sc.beta", "sinf.beta", "sc:c_q"],
    )
    def test_ladder_from_one_is_a_verdict(self, tmp_path, command, config):
        # window(1) is empty: S6, S10 and mt28 reduce over it at the first rung
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config | {"ladder": [1, 2, 4]}))
        assert cli.main([command, "--config", str(cfg)]) in (0, 1)

    def test_core_include_negative_control_exits_one(self, tmp_path):
        n = 2000
        x = make_sequence("e", n)
        doubled_means = 2.0 * np.cumsum(x.values) / np.arange(1, n + 1)
        lifted = band_ops.inverse_transform(FiniteSeq(doubled_means), BandSystem.difference(n))
        cfg = tmp_path / "include.json"
        cfg.write_text(
            json.dumps(
                {
                    "inner": {
                        "kind": "alpha",
                        "x": io.seq_to_json(lifted),
                        "system": "delta",
                        "n": n,
                        "window": [500, 2000],
                    },
                    "outer": {"kind": "k", "x": "e", "n": n, "window": [500, 2000]},
                    "tol": 0.05,
                }
            )
        )
        rc = cli.main(["core-include", "--config", str(cfg), "--out", str(tmp_path / "inc.json")])
        assert rc == 1
        doc = json.loads((tmp_path / "inc.json").read_text())
        assert not doc["included"]
        assert doc["max_violation"] > 0.5

    def test_invalid_json_config_is_schema_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert cli.main(["class-check", "--config", str(bad)]) == 3

    def test_unknown_config_key_is_schema_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"matrix": "zero", "system": "delta", "class": "c:sc_reg", "ladder": [16, 32], "bogus": 1}))
        assert cli.main(["class-check", "--config", str(cfg)]) == 3

    def test_unknown_class_is_schema_error(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"matrix": "zero", "system": "delta", "class": "nope", "ladder": [16, 32]}))
        assert cli.main(["class-check", "--config", str(cfg)]) == 3

    def test_verify_empty_selection_exits_two(self):
        assert cli.main(["verify", "--select", ""]) == 2

    def test_verify_unknown_check_is_schema_error(self):
        assert cli.main(["verify", "--select", "C99"]) == 3

    def test_verify_reports_failures_with_exit_one(self, monkeypatch, capsys):
        forced = lambda: acceptance.CheckResult("C1", "forced failure", False, "forced")
        monkeypatch.setattr(acceptance, "CHECKS", (forced,))
        monkeypatch.setattr(acceptance, "CHECK_IDS", ("C1",))
        assert cli.main(["verify", "--select", "C1"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out and out.rstrip().endswith("s of 5 s budget)")

    def test_verify_single_fast_check(self, tmp_path, capsys):
        rc = cli.main(["verify", "--select", "C10", "--out", str(tmp_path / "v.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out and out.rstrip().endswith(" s)")
        doc = json.loads((tmp_path / "v.json").read_text())
        assert doc["all_passed"] is True


class TestExitCodeContract:
    """Table-driven coverage of the documented exit codes."""

    _counter = 0

    def _cfg(self, tmp_path, doc):
        TestExitCodeContract._counter += 1
        cfg = tmp_path / f"cfg{TestExitCodeContract._counter}.json"
        cfg.write_text(json.dumps(doc))
        return str(cfg)

    def _class_cfg(self, tmp_path, matrix, **overrides):
        return self._cfg(tmp_path, {"matrix": matrix, "system": "delta", "class": "c:sc_reg", "ladder": [16, 32, 64]} | overrides)

    def _dual_cfg(self, tmp_path, **overrides):
        doc = {"a": "e", "system": "delta", "p": 1.0, "space": "s0", "dual": "gamma", "ladder": [8, 16]}
        return self._cfg(tmp_path, doc | overrides)

    def _include_cfg(self, tmp_path, top=None, **overrides):
        inner = {"kind": "k", "x": "alternating", "n": 40} | overrides
        return self._cfg(tmp_path, {"inner": inner, "outer": {"kind": "k", "x": "alternating", "n": 40}} | (top or {}))

    def test_matrix_of_configs(self, tmp_path, monkeypatch):
        regular = {"dense": (make_matrix("summation", 64) @ make_matrix("cesaro", 64)).tolist()}
        bad_json = tmp_path / "broken.json"
        bad_json.write_text("{oops")
        zero_band = {"r": [1.0] * 64, "s": [0.0] * 64}
        monkeypatch.chdir(tmp_path)
        (tmp_path / "alternating").write_text(json.dumps({"values": [[1.0, 0.0]] * 40}))
        cases = [
            (["transform", "--x", "e", "--system", "delta", "--n", "8"], 0),
            (["class-check", "--config", self._class_cfg(tmp_path, regular)], 0),
            (["class-check", "--config", self._class_cfg(tmp_path, "zero")], 1),
            (["verify", "--select", ""], 2),
            (["class-check", "--config", str(bad_json)], 3),
            (["verify", "--select", "C99"], 3),
            (["invert", "--y", "e", "--system", "constant:r=0", "--n", "8"], 3),
            # amplification caps no walk can meet; +inf is no cap
            (["invert", "--y", "e", "--system", "random:seed=1,amplification_cap=0.5", "--n", "8"], 3),
            (["invert", "--y", "e", "--system", "random:seed=1,amplification_cap=nan", "--n", "8"], 3),
            (["invert", "--y", "e", "--system", "random:seed=1,amplification_cap=inf", "--n", "8", "--out", "inf.json"], 0),
            (["core", "--kind", "k", "--x", "e", "--n", "10", "--window", "a,b"], 3),
            (["class-check", "--config", self._class_cfg(tmp_path, "zero"), "--ladder", "16,x"], 3),
            # core windows, direction counts and probe grids outside their ranges
            (["core", "--kind", "k", "--x", "e", "--n", "10", "--window", "20,30"], 3),
            (["core", "--kind", "k", "--x", "alternating:", "--n", "64", "--window", "5,5"], 3),
            (["core", "--kind", "alpha", "--x", "alternating:", "--system", "delta", "--n", "64", "--window", "0,10"], 3),
            (["core", "--kind", "k", "--x", "alternating:", "--n", "64", "--directions", "2"], 3),
            (["core", "--kind", "k", "--x", "alternating:", "--n", "64", "--directions", str(cores.MAX_DIRECTIONS + 1)], 3),
            (["core", "--kind", "st", "--x", "alternating:", "--n", "64", "--directions", str(cores.MAX_DIRECTIONS), "--out", "most.json"], 0),
            (["core", "--kind", "k", "--x", "alternating:", "--n", "64", "--grid-n", "-1"], 3),
            (["core", "--kind", "k", "--x", "alternating:", "--n", "64", "--grid-n", "100000"], 3),
            (["core", "--kind", "st", "--x", "alternating:", "--n", "64", "--grid-n", str(cores.MAX_GRID_N + 1)], 3),
            (["core", "--kind", "st", "--x", "alternating:", "--n", "64", "--grid-n", str(cores.MAX_GRID_N), "--out", "widest.json"], 0),
            (["core", "--kind", "k", "--method", "disc", "--x", "e", "--n", "40", "--grid-n", "0", "--out", "nogrid.json"], 0),
            (["core-include", "--config", self._include_cfg(tmp_path, kind="st", grid_n=cores.MAX_GRID_N + 1)], 3),
            # two regions compare only on one direction set
            (["core-include", "--config", self._include_cfg(tmp_path, directions=16)], 3),
            # usage errors: a value argparse cannot convert or a choice it does not know
            (["transform", "--x", "e", "--system", "delta", "--n", "x"], 3),
            (["core", "--kind", "st", "--x", "e", "--n", "40", "--density-tol", "x"], 3),
            (["core", "--kind", "k", "--method", "x", "--x", "e", "--n", "40"], 3),
            (["paranorm", "--x", "e", "--p", "2", "--kind", "max", "--n", "8", "--raw"], 3),
            # a system is read as in a core-include spec, by every kind
            (["core", "--kind", "k", "--x", "e", "--n", "8", "--system", "constant:r=0"], 3),
            (["core", "--kind", "st", "--x", "e", "--n", "8", "--system", "delta", "--out", "sys.json"], 0),
            # a band system document shorter than the truncation
            (["transform", "--x", "e", "--system", self._cfg(tmp_path, {"r": [1.0], "s": [1.0], "alpha": [1.0]}), "--n", "16"], 3),
            (["core-include", "--config", self._include_cfg(tmp_path, window=[5, 5])], 3),
            (["core-include", "--config", self._include_cfg(tmp_path, window=[30, 50])], 3),
            (["core-include", "--config", self._include_cfg(tmp_path, directions=2)], 3),
            (["core-include", "--config", self._include_cfg(tmp_path, kind="st", grid_n=-1)], 3),
            # generator documents: non-object params, unknown matrix generator
            (["class-check", "--config", self._class_cfg(tmp_path, "zero", system={"generator": "constant", "params": [1]})], 3),
            (["class-check", "--config", self._class_cfg(tmp_path, {"generator": "cesaro", "params": [1]})], 3),
            (["class-check", "--config", self._class_cfg(tmp_path, {"generator": "nope"})], 3),
            # invalid matrix generator values
            (["class-check", "--config", self._class_cfg(tmp_path, {"generator": "band", "params": {"r": 0, "s": 1}})], 3),
            (["class-check", "--config", self._class_cfg(tmp_path, {"generator": "band", "params": {"r": [1], "s": 1}})], 3),
            (["class-check", "--config", self._class_cfg(tmp_path, {"generator": "riesz", "params": {"t": -1}})], 3),
            (["class-check", "--config", self._class_cfg(tmp_path, {"generator": "double_band", "params": zero_band})], 3),
            (["dual-check", "--config", self._dual_cfg(tmp_path, a={"generator": "e", "params": "k=1"})], 3),
            # integer and exponent fields of config documents
            (["class-check", "--config", self._class_cfg(tmp_path, "zero", ladder=["a", 16])], 3),
            (["class-check", "--config", self._class_cfg(tmp_path, "zero", ladder=[16.5, 32])], 3),
            (["class-check", "--config", self._cfg(tmp_path, [16, 32]), "--ladder", "16,32"], 3),
            (["dual-check", "--config", self._dual_cfg(tmp_path, b_ladder=[2, "x"])], 3),
            (["dual-check", "--config", self._dual_cfg(tmp_path, p="x")], 3),
            (["class-check", "--config", self._class_cfg(tmp_path, "zero", q=[1.0, "x"])], 3),
            # ladders: rungs below 1, witnesses B <= 1, an empty B ladder
            (["dual-check", "--config", self._dual_cfg(tmp_path, ladder=[0, 16])], 3),
            (["dual-check", "--config", self._dual_cfg(tmp_path), "--ladder=-4,16"], 3),
            (["class-check", "--config", self._class_cfg(tmp_path, "zero", ladder=[-4, 16])], 3),
            (["class-check", "--config", self._class_cfg(tmp_path, "zero"), "--ladder=-4,16"], 3),
            (["dual-check", "--config", self._dual_cfg(tmp_path, space="sinf", dual="beta", b_ladder=[-2, 4])], 3),
            (["dual-check", "--config", self._dual_cfg(tmp_path, space="sinf", dual="beta", b_ladder=[0, 2])], 3),
            (["dual-check", "--config", self._dual_cfg(tmp_path, space="sinf", dual="beta", b_ladder=[])], 3),
            (["dual-check", "--config", self._dual_cfg(tmp_path, space="sinf", dual="beta", b_ladder=[2, 4])], 1),
            # an unknown (space, dual) pair, and exponents on both sides of 1 where the rules split there
            (["dual-check", "--config", self._dual_cfg(tmp_path, space="foo")], 3),
            (["dual-check", "--config", self._dual_cfg(tmp_path, space="lp", dual="alpha", p=[0.5] * 8 + [2.0] * 8)], 3),
            # lp.beta runs S14, whose conjugate exponents need p_k > 1
            (["dual-check", "--config", self._dual_cfg(tmp_path, space="lp", dual="beta", p=0.5)], 3),
            # config exponent lists shorter than the largest rung
            (["dual-check", "--config", self._dual_cfg(tmp_path, p=[1, 1, 1])], 3),
            (["class-check", "--config", self._class_cfg(tmp_path, "zero", q=[1, 1])], 3),
            (["core-include", "--config", self._include_cfg(tmp_path, n="a")], 3),
            (["core-include", "--config", self._include_cfg(tmp_path, window=["a", 40])], 3),
            (["core-include", "--config", self._include_cfg(tmp_path, directions=None)], 3),
            (["core-include", "--config", self._include_cfg(tmp_path, grid_n=[21])], 3),
            (["core-include", "--config", self._include_cfg(tmp_path)], 0),
            # tolerances of core-include configs
            (["core-include", "--config", self._include_cfg(tmp_path, kind="st", density_tol=None)], 3),
            (["core-include", "--config", self._include_cfg(tmp_path, kind="st", density_tol=[0.1])], 3),
            (["core-include", "--config", self._include_cfg(tmp_path, kind="st", density_tol="x")], 3),
            (["core-include", "--config", self._include_cfg(tmp_path, top={"tol": None})], 3),
            (["core-include", "--config", self._include_cfg(tmp_path, top={"tol": [0.05]})], 3),
            (["core-include", "--config", self._include_cfg(tmp_path, top={"tol": "x"})], 3),
            (["core-include", "--config", self._include_cfg(tmp_path, kind="st", density_tol=0.1, top={"tol": 0.1})], 0),
            # density tolerances outside (0, 1)
            (["core", "--kind", "st", "--x", "e", "--n", "40", "--density-tol", "0"], 3),
            (["core", "--kind", "st", "--x", "e", "--n", "40", "--density-tol", "1.5"], 3),
            (["core", "--kind", "st", "--x", "e", "--n", "40", "--density-tol", "1.0"], 3),
            (["core", "--kind", "st", "--x", "e", "--n", "40", "--density-tol", "0.99", "--out", str(tmp_path / "st.json")], 0),
            (["core-include", "--config", self._include_cfg(tmp_path, kind="st", density_tol=0)], 3),
            # non-positive exponents
            (["dual-check", "--config", self._dual_cfg(tmp_path, p=-1)], 3),
            (["dual-check", "--config", self._dual_cfg(tmp_path, p=[1.0] * 15 + [0.0])], 3),
            (["class-check", "--config", self._class_cfg(tmp_path, "zero", p=-1)], 3),
            (["class-check", "--config", self._class_cfg(tmp_path, "zero", q=-1)], 3),
            (["paranorm", "--x", "e", "--p", "-1", "--n", "8", "--raw"], 3),
            (["basis-residual", "--x", "e", "--system", "delta", "--p", "1,1,0,1", "--cutoffs", "2", "--n", "4"], 3),
            # a class whose conditions need a p or q that the config leaves out
            (["class-check", "--config", self._class_cfg(tmp_path, "zero", **{"class": "s0:c_q", "p": 1.0})], 3),
            (["class-check", "--config", self._class_cfg(tmp_path, "zero", **{"class": "sinf:c"})], 3),
            # expansion cutoffs outside [0, n), and sup paranorms of exponents not bounded away from zero
            (["basis-residual", "--x", "e", "--system", "delta", "--p", "1", "--cutoffs", "-3", "--n", "64"], 3),
            (["basis-residual", "--x", "e", "--system", "delta", "--p", "1", "--cutoffs", "0,64", "--n", "64"], 3),
            (["basis-residual", "--x", "e", "--system", "delta", "--p", "1", "--cutoffs", "0,63", "--n", "64", "--out", str(tmp_path / "br.json")], 0),
            (["paranorm", "--x", "e", "--p", "1e-10", "--n", "8", "--raw"], 3),
            (["paranorm", "--x", "e", "--p", "1e-10", "--n", "8", "--raw", "--kind", "sum", "--out", str(tmp_path / "pn.json")], 0),
            # a value naming both an existing file and a generator; either spelling settles it
            (["core", "--kind", "k", "--x", "alternating", "--n", "40"], 3),
            (["core", "--kind", "k", "--x", "./alternating", "--n", "40", "--out", "file.json"], 0),
            (["core", "--kind", "k", "--x", "alternating:", "--n", "40", "--out", "generator.json"], 0),
        ]
        for argv, expected in cases:
            assert cli.main(argv) == expected, argv

    @pytest.mark.parametrize("where", ["core", "core-include"])
    def test_a_direction_count_past_the_maximum_is_one_schema_line(self, tmp_path, capsys, where):
        # checked before the directions are allocated: 10^15 of them once died in np.arange with exit 1
        out = tmp_path / "region.json"
        if where == "core":
            argv = ["core", "--kind", "k", "--x", "e", "--n", "8", "--directions", "1000000000000000", "--out", str(out)]
        else:
            argv = ["core-include", "--config", self._include_cfg(tmp_path, directions=10**15), "--out", str(out)]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == [f"seqcore: directions must lie in [4, {cores.MAX_DIRECTIONS}]: 1000000000000000"]
        assert "Traceback" not in err and not out.exists()

    @pytest.mark.parametrize("where", ["core", "core-include"])
    def test_a_probe_grid_past_the_maximum_is_one_schema_line(self, tmp_path, capsys, where):
        # checked before the probe grid is allocated: a 10^5 grid side once died allocating 149 GiB with exit 1
        out = tmp_path / "region.json"
        if where == "core":
            argv = ["core", "--kind", "st", "--x", "e", "--n", "40", "--grid-n", "100000", "--out", str(out)]
        else:
            argv = ["core-include", "--config", self._include_cfg(tmp_path, kind="st", grid_n=100000), "--out", str(out)]
        assert cli.main(argv) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == [f"seqcore: grid_n must lie in [0, {cores.MAX_GRID_N}]: 100000"]
        assert "Traceback" not in err and not out.exists()

    def test_running_out_of_memory_is_one_internal_error_line(self, tmp_path, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 149. GiB for an array with shape (100000, 100000)")

        monkeypatch.setattr(cli.cores, "st_core", exhausted)
        out = tmp_path / "region.json"
        assert cli.main(["core", "--kind", "st", "--x", "e", "--n", "40", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.splitlines() == ["seqcore: out of memory (Unable to allocate 149. GiB for an array with shape (100000, 100000))"]
        assert not out.exists()

    @pytest.mark.xfail(strict=True, reason="an st core whose discs share no point raises 'empty region', an internal error")
    @pytest.mark.parametrize("tol", ["0.5", "0.99"])
    def test_an_st_core_at_a_high_density_tolerance_is_a_verdict(self, tmp_path, tol):
        argv = ["core", "--kind", "st", "--x", "random_bounded:seed=5", "--n", "40", "--grid-n", "5", "--directions", "16"]
        assert cli.main([*argv, "--density-tol", tol, "--out", str(tmp_path / "st.json")]) == 0

    def test_inconclusive_aggregate_maps_to_exit_two(self, tmp_path, monkeypatch):
        from seqcore import matclass

        report = matclass.ClassReport("c:sc_reg", (), "inconclusive")
        monkeypatch.setattr(matclass, "class_report", lambda *a, **k: report)
        monkeypatch.setattr(cli.matclass, "class_report", lambda *a, **k: report)
        assert cli.main(["class-check", "--config", self._class_cfg(tmp_path, "zero")]) == 2


def test_region_csv_for_point_region():
    region = __import__("seqcore.cores", fromlist=["cluster_hull"]).cluster_hull(FiniteSeq(np.full(10, 1 + 1j)), (0, 10))
    text = io.region_to_csv(region)
    assert text.splitlines() == ["x,y", "1,1"]
