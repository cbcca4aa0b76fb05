import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import formkit as fk
from formkit.cli import _dump, decode_matrix, emit_instance, main, parse_instance


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc) if isinstance(doc, dict) else doc, encoding="utf-8")
    return str(path)


class TestParseInstance:
    def test_one_by_one(self, tmp_path):
        path = write(tmp_path, "a.json", {"n": 1, "omega": [[[2, 0]]]})
        inst = parse_instance(path)
        assert inst.dim == 1
        assert inst.omega.matrix[0, 0] == 2.0
        # default majorant comes from the polar construction: 1 + 2*2
        assert inst.psi.matrix[0, 0] == pytest.approx(5.0)
        assert np.array_equal(inst.theta.matrix, np.eye(1, dtype=complex))

    def test_family_dispatch(self, tmp_path):
        path = write(
            tmp_path, "fam.json", {"family": {"name": "diag", "lambda": "n*exp(i*n)", "N": 8}}
        )
        inst = parse_instance(path)
        assert inst.dim == 8
        expected = np.diag([n * np.exp(1j * n) for n in range(1, 9)])
        assert np.allclose(inst.omega.matrix, expected, atol=1e-14)

    def test_theta_not_psd_names_eigenvalue(self, tmp_path):
        path = write(
            tmp_path,
            "bad.json",
            {
                "n": 2,
                "omega": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                "theta": [[[-1, 0], [0, 0]], [[0, 0], [1, 0]]],
            },
        )
        with pytest.raises(fk.ValidationError, match="eigenvalue"):
            parse_instance(path)

    def test_wrong_shape(self, tmp_path):
        path = write(tmp_path, "bad2.json", {"n": 2, "omega": [[[1, 0]]]})
        with pytest.raises(fk.ParseError, match="rows"):
            parse_instance(path)

    def test_malformed_json_has_location(self, tmp_path):
        path = write(tmp_path, "bad3.json", "{\n  broken\n}")
        with pytest.raises(fk.ParseError, match="line 2"):
            parse_instance(path)

    def test_measure_family(self, tmp_path):
        path = write(
            tmp_path,
            "meas.json",
            {"family": {"name": "measure", "theta": [1.0, 1.0], "omega": [[0, 1], [-2, 0]]}},
        )
        inst = parse_instance(path)
        assert inst.extras["absolutely_continuous"]

    def test_operator_pair_family(self, tmp_path):
        path = write(
            tmp_path,
            "op.json",
            {
                "family": {
                    "name": "operator_pair",
                    "S": [[[1, 0], [0, 0]], [[0, 0], [2, 0]]],
                    "T": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                }
            },
        )
        inst = parse_instance(path)
        assert np.allclose(inst.omega.matrix, np.diag([1.0, 2.0]))


def entrywise(rows) -> np.ndarray:
    """Reference decoder: one complex() per entry, numbers or [re, im] pairs."""
    return np.array(
        [[complex(e) if isinstance(e, (int, float)) else complex(*e) for e in row] for row in rows],
        dtype=complex,
    )


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestDecodeMatrix:
    @pytest.mark.parametrize(
        "rows, message",
        [
            ([["1.5", 0], [0, 0]], "omega[0][0]: entries must be numbers or [re, im] pairs"),
            ([[0, None], [0, 0]], "omega[0][1]: entries must be numbers or [re, im] pairs"),
            ([[[1, 2, 3], 0], [0, 0]], "omega[0][0]: entries must be numbers or [re, im] pairs"),
            ([[1, 2], [3, [4, "x"]]], "omega[1][1]: entries must be numbers or [re, im] pairs"),
            ([[[1, [2]], 0], [0, 0]], "omega[0][0]: entries must be numbers or [re, im] pairs"),
            ([[1, 2], [3]], "omega: row 1 must have exactly 2 entries"),
            ([[[1, 2], [3, 4]], [[5, 6]]], "omega: row 1 must have exactly 2 entries"),
            ([[1, 2], {"a": 1}], "omega: row 1 must have exactly 2 entries"),
            ([[1, 2], [3, 4], [5, 6]], "omega: expected 2 rows"),
            ({"rows": 2}, "omega: expected 2 rows"),
        ],
    )
    def test_error_messages(self, rows, message):
        with pytest.raises(fk.ParseError) as info:
            decode_matrix(rows, 2, "omega")
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "rows",
        [
            [[True, 0], [0, False]],
            [[[True, False], 0.5], [2, [1, True]]],
            [[1, [2, 3]], [[4.5, -0.0], 6]],
            [[[-0.0, -0.0], [0.0, -0.0]], [[1e-300, -1e300], [5e-324, 2.0]]],
            [[2**63 + 1, 1], [2, 3]],
            [[2**64 + 3, 0], [0, -(2**70)]],
        ],
    )
    def test_accepted_like_entrywise(self, rows):
        assert same_bits(decode_matrix(rows, 2, "omega"), entrywise(rows))

    @pytest.mark.parametrize(
        "rows, where",
        [
            pytest.param([[math.nan, 0], [0, math.inf]], "omega[0][0]", id="nan-inf"),
            pytest.param([[1, 2], [3, [0, -math.inf]]], "omega[1][1]", id="pair-inf"),
            pytest.param([[1, 2], [json.loads("1e400"), 0]], "omega[1][0]", id="float-overflow"),
            pytest.param([[1.5, 10**400], [0, 0]], "omega[0][1]", id="int-overflow"),
            pytest.param([[0, [1, -(10**400)]], [0, 0]], "omega[0][1]", id="pair-int-overflow"),
        ],
    )
    def test_non_finite_refused(self, rows, where):
        with pytest.raises(fk.ParseError) as info:
            decode_matrix(rows, 2, "omega")
        assert str(info.value) == f"{where}: entries must be finite"

    def test_nan_refused_when_parsed(self, tmp_path):
        path = write(tmp_path, "nan.json", '{"n": 1, "omega": [[[NaN, 0]]]}')
        with pytest.raises(fk.ParseError) as info:
            parse_instance(path)
        assert str(info.value) == "omega[0][0]: entries must be finite"

    @pytest.mark.parametrize(
        "text, where",
        [
            ('{"n": 1, "omega": [[1]], "theta": [[[Infinity, 0]]]}', "theta[0][0]"),
            ('{"n": 1, "omega": [[1]], "psi": [[NaN]]}', "psi[0][0]"),
            ('{"n": 1, "omega": [[1]], "norm_gram": [[1e400]]}', "norm_gram[0][0]"),
            ('{"family": {"name": "operator_pair", "S": [[1]], "T": [[NaN]]}}', "family.T[0][0]"),
            ('{"family": {"name": "measure", "theta": [1], "omega": [-Infinity]}}', "family.omega"),
            ('{"family": {"name": "measure", "theta": [NaN], "omega": [1]}}', "family.theta"),
            ('{"family": {"name": "measure", "theta": [1%s], "omega": [1]}}' % ("0" * 400),
             "family.theta"),
        ],
        ids=["theta", "psi", "norm_gram", "family.T", "family.omega", "family.theta", "int-weight"],
    )
    def test_non_finite_refused_on_every_path(self, tmp_path, text, where):
        path = write(tmp_path, "bad.json", text)
        with pytest.raises(fk.ParseError) as info:
            parse_instance(path)
        assert str(info.value) == f"{where}: entries must be finite"

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_entrywise(self, data):
        n = data.draw(st.integers(1, 4))
        number = (
            st.floats(allow_nan=False, allow_infinity=False)
            | st.integers(-(2**70), 2**70)
            | st.booleans()
        )
        entry = number | st.lists(number, min_size=2, max_size=2)
        rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        assert same_bits(decode_matrix(rows, n, "omega"), entrywise(rows))


def jsonable(value):
    """The report conversion ahead of ``json.dumps`` that ``_dump`` replaced,
    kept as its reference."""
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return jsonable(value.tolist())
    return value


EDGE_FLOATS = st.sampled_from([-0.0, 0.0, 1e-300, 1e300, math.nan, math.inf, -math.inf, 5e-324])
FLOATS = st.floats() | EDGE_FLOATS
SCALARS = (
    FLOATS
    | st.integers()
    | st.booleans()
    | st.none()
    | st.text()
    | st.complex_numbers()
    | FLOATS.map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
)
SHAPES = st.sampled_from([(0,), (1,), (5,), (0, 3), (1, 1, 2), (3, 3, 2), (2, 0, 2)]) | st.integers(
    1, 5
).map(lambda n: (n, n, 2))
FLOAT_ARRAYS = arrays(np.float64, SHAPES, elements=st.floats(allow_nan=False, allow_infinity=False))
ANY_ARRAYS = arrays(np.float64, SHAPES, elements=FLOATS)
VALUES = st.recursive(
    SCALARS | FLOAT_ARRAYS | ANY_ARRAYS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=20,
)


class TestDump:
    @settings(max_examples=300, deadline=None)
    @given(VALUES)
    def test_matches_json_dumps(self, value):
        assert _dump(value, 0) == json.dumps(jsonable(value), sort_keys=True, indent=1)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_matrix_report(self, n):
        m = np.random.default_rng(n).normal(size=(n, n, 2))
        m[0, 0] = -0.0, 1e300
        report = {"n": n, "H": m, "nested": {"S": m[:, :, :1], "row": m[0, :, 0]}}
        assert _dump(report, 0) == json.dumps(jsonable(report), sort_keys=True, indent=1)


class TestRoundTrip:
    def test_emit_parse_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(70)
        t = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        omega = fk.Form(t)
        psi = fk.canonical_majorant(t)
        inst = fk.Instance(
            omega=omega, theta=fk.identity_form(3), psi=psi, provenance="roundtrip"
        )
        path = tmp_path / "emitted.json"
        path.write_text(emit_instance(inst), encoding="utf-8")
        parsed = parse_instance(str(path))
        assert np.array_equal(parsed.omega.matrix, inst.omega.matrix)
        assert np.array_equal(parsed.theta.matrix, inst.theta.matrix)
        assert np.array_equal(parsed.psi.matrix, inst.psi.matrix)


class TestCommands:
    def test_decompose_hand_case(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "dec.json",
            {
                "n": 2,
                "omega": [[[1, 0], [1, 0]], [[1, 0], [1, 0]]],
                "theta": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                "psi": [[[1, 0], [1, 0]], [[1, 0], [1, 0]]],
            },
        )
        code = main(["decompose", path, "--json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert np.allclose(np.asarray(doc["omega_r"]), 0.0, atol=1e-12)
        singular = np.asarray(doc["omega_s"])[..., 0] + 1j * np.asarray(doc["omega_s"])[..., 1]
        assert np.allclose(singular, np.ones((2, 2)), atol=1e-12)
        assert doc["witness_theta_residual_max"] <= 1e-8
        assert doc["witness_singular_residual_max"] <= 1e-8

    def test_numrange_segment(self, tmp_path, capsys):
        path = write(
            tmp_path, "nr.json", {"n": 2, "omega": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}
        )
        code = main(["numrange", path, "--json", "--grid", "64"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        support = np.asarray(doc["support"])
        assert abs(support[0] - 1.0) <= 1e-12  # direction of the positive real axis
        assert doc["eigenvalue_inclusion_excess"] <= 1e-9

    def test_grid_below_minimum_exit_code(self, tmp_path, capsys):
        path = write(
            tmp_path, "nr.json", {"n": 2, "omega": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}
        )
        code = main(["numrange", path, "--grid", "8"])
        captured = capsys.readouterr()
        assert code == 1
        assert "--grid must be at least 16" in captured.err

    def test_membership_uses_grid(self, tmp_path, capsys):
        # the numerical range is the disk of radius 0.99: every support value
        # is 0.99, so the bracket [0.99, 0.99 / cos(pi/m)] reaches past 1 on
        # 16 angles and stays below it on the default 720
        path = write(
            tmp_path,
            "disk.json",
            {
                "n": 2,
                "omega": [[[0, 0], [1.98, 0]], [[0, 0], [0, 0]]],
                "psi": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            },
        )
        bounds = {}
        for grid in ("16", "720"):
            main(["membership", path, "--json", "--grid", grid])
            bounds[grid] = json.loads(capsys.readouterr().out)["quadratic_bound"]
        assert bounds["16"]["holds"] is False
        assert "inconclusive" in bounds["16"]["reason"]
        assert bounds["720"]["holds"] is True
        assert abs(bounds["720"]["quadratic_norm"] - 0.99) <= 1e-12

    def test_solvable_scalar(self, tmp_path, capsys):
        path = write(
            tmp_path, "sv.json", {"n": 2, "omega": [[[0, 0], [0, 0]], [[0, 0], [1, 0]]]}
        )
        code = main(["solvable", path, "--json", "--lambda", "2,0"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["solvable"] is True
        assert doc["status"] == "outside"
        assert abs(doc["distance"] - 1.0) <= 1e-9
        assert abs(doc["resolvent_norm"] - 1.0) <= 1e-9

    def test_membership_refusal_exit_code(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "ref.json",
            {
                "n": 2,
                "omega": [[[2, 0], [0, 0]], [[0, 0], [2, 0]]],
                "psi": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            },
        )
        code = main(["membership", path, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["refused"] is True
        assert doc["member"] is False

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "broken.json", "{nope")
        code = main(["inspect", path])
        captured = capsys.readouterr()
        assert code == 1
        assert "error:" in captured.err

    def test_missing_file_exit_code(self, capsys):
        code = main(["inspect", "/definitely/not/here.json"])
        assert code == 1

    def test_represent_reports_witnesses(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "rep.json",
            {
                "n": 2,
                "omega": [[[4, 0], [0, 0]], [[0, 0], [0, 0]]],
                "psi": [[[4, 0], [0, 0]], [[0, 0], [0, 0]]],
            },
        )
        code = main(["represent", path, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        scale = np.asarray(doc["H"])
        assert scale[0][0][0] == pytest.approx(np.sqrt(5.0))
        assert max(doc["residuals"].values()) <= 1e-10
        assert doc["kato_residual"] <= 1e-10

    def test_regularity_refusal(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "reg.json",
            {
                "n": 2,
                "omega": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
                "theta": [[[1, 0], [0, 0]], [[0, 0], [0, 0]]],
                "psi": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
            },
        )
        code = main(["regularity", path, "--json"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["psi_absolutely_continuous"] is False

    def test_lab_rows(self, tmp_path, capsys):
        path = write(
            tmp_path, "lab.json", {"family": {"name": "diag", "lambda": "1", "N": 4}}
        )
        code = main(["lab", path, "--json", "--sizes", "2,4"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert [row["size"] for row in doc["rows"]] == [2, 4]

    def test_lab_honours_tol_rank(self, tmp_path, capsys, monkeypatch):
        seen = {}

        def recording(family, params, sizes, **kwargs):
            seen.update(kwargs)
            return []

        monkeypatch.setattr("formkit.cli.convergence_report", recording)
        path = write(
            tmp_path, "lab.json", {"family": {"name": "diag", "lambda": "1", "N": 4}}
        )
        code = main(["lab", path, "--json", "--sizes", "2,4", "--tol-rank", "1e-6"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert seen["rtol"] == 1e-6
        assert doc["tolerances"]["rank"] == 1e-6

    def test_decompose_norms_do_not_grow_with_n(self, tmp_path, capsys, monkeypatch):
        calls = []
        original = np.linalg.norm

        def recording(x, ord=None, *args, **kwargs):
            if ord == 2:
                calls.append(np.shape(x))
            return original(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", recording)
        counts = {}
        for n in (4, 12):
            rng = np.random.default_rng(n)
            theta = np.diag([1.0] * (n // 2) + [0.0] * (n - n // 2))
            path = write(
                tmp_path,
                f"dec{n}.json",
                {
                    "n": n,
                    "omega": (rng.normal(size=(n, n, 2)) / n).tolist(),
                    "theta": np.stack((theta, 0 * theta), -1).tolist(),
                },
            )
            calls.clear()
            assert main(["decompose", path, "--json"]) == 0
            assert json.loads(capsys.readouterr().out)["witness_within_tolerance"] is True
            counts[n] = len(calls)
        assert counts[4] == counts[12]

    def test_batch_keeps_going_past_a_bad_file(self, tmp_path, capsys):
        write(tmp_path, "a.json", {"n": 1, "omega": [[[1, 0]]]})
        write(tmp_path, "b.json", "{bad")
        code = main(["inspect", str(tmp_path), "--batch"])
        out = capsys.readouterr().out
        assert code == 1
        first, second = out.split("== b.json\n")
        assert first.startswith("== a.json\ncommand: inspect\n")
        assert second.startswith(f"error: {tmp_path / 'b.json'}: line 1 column 2")

    def test_batch_reports_a_non_finite_file_and_goes_on(self, tmp_path, capsys):
        write(tmp_path, "a.json", '{"n": 1, "omega": [[[NaN, 0]]]}')
        write(tmp_path, "b.json", {"n": 1, "omega": [[[2, 0]]]})
        code = main(["inspect", str(tmp_path), "--batch"])
        out = capsys.readouterr().out
        assert code == 1
        first, second = out.split("== b.json\n")
        assert first == "== a.json\nerror: omega[0][0]: entries must be finite\n"
        assert second.startswith("command: inspect\n")

    def test_batch_mode(self, tmp_path, capsys):
        write(tmp_path, "a.json", {"n": 1, "omega": [[[1, 0]]]})
        write(tmp_path, "b.json", {"n": 1, "omega": [[[2, 0]]]})
        code = main(["inspect", str(tmp_path), "--batch"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.index("== a.json") < out.index("== b.json")


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path, capsys):
        path = write(
            tmp_path,
            "det.json",
            {"family": {"name": "diag", "lambda": "n*exp(i*n)", "N": 6}},
        )
        outputs = []
        for _ in range(2):
            code = main(["represent", path, "--json"])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

        for _ in range(2):
            code = main(["decompose", path])
            assert code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[2] == outputs[3]
