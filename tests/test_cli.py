import argparse
import json
import math
import re
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import complex_randn

import formkit as fk
from formkit import cli, numerics
from formkit.cli import (
    _dump,
    decode_matrix,
    emit_instance,
    encode_matrix,
    main,
    parse_instance,
    render_report,
)


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

    @pytest.mark.parametrize("n", [True, 2.0, "2", 0], ids=["bool", "float", "string", "zero"])
    def test_n_must_be_a_positive_integer(self, tmp_path, n):
        path = write(tmp_path, "bad.json", {"n": n, "omega": [[[1, 0]]]})
        with pytest.raises(fk.ParseError, match="'n' must be a positive integer"):
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
            ([[True, 0], [0, False]], "omega[0][0]: entries must be numbers or [re, im] pairs"),
            (
                [[True, False], [False, True]],
                "omega[0][0]: entries must be numbers or [re, im] pairs",
            ),
            # numpy reads these rows as float64, so the whole-array path sees 1.0
            ([[0.5, 1.5], [2.5, True]], "omega[1][1]: entries must be numbers or [re, im] pairs"),
            (
                [[[1.5, 0], [0, False]], [[2, 0], [3, 0]]],
                "omega[0][1]: entries must be numbers or [re, im] pairs",
            ),
            (
                [[[True, False], 0.5], [2, [1, True]]],
                "omega[0][0]: entries must be numbers or [re, im] pairs",
            ),
        ],
    )
    def test_error_messages(self, rows, message):
        with pytest.raises(fk.ParseError) as info:
            decode_matrix(rows, 2, "omega")
        assert str(info.value) == message

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_one_boolean_refused_by_position(self, data):
        n = data.draw(st.integers(1, 4))
        pairs = data.draw(st.booleans())
        number = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(2**62), 2**62)
        entry = st.lists(number, min_size=2, max_size=2) if pairs else number
        rows = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        flag = data.draw(st.booleans())
        if pairs:
            rows[i][j][data.draw(st.integers(0, 1))] = flag
        else:
            rows[i][j] = flag
        with pytest.raises(fk.ParseError) as info:
            decode_matrix(rows, n, "omega")
        assert str(info.value) == f"omega[{i}][{j}]: entries must be numbers or [re, im] pairs"

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 2.5], [-3, 0]],
            [[[0, 1], [2, 3]], [[4, 5], [6, 7]]],
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

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_text_renders_arrays_as_their_lists(self, n):
        m = np.random.default_rng(n).normal(size=(n, n, 2))
        m[0, 0] = -0.0, np.nan
        report = {"H": m, "nested": {"S": m[:, :, :1], "row": m[0, :, 0], "int": np.arange(n)}}
        listed = {"H": m.tolist(), "nested": {k: v.tolist() for k, v in report["nested"].items()}}
        assert render_report(report, False) == render_report(listed, False)


class TestLayoutCache:
    def test_same_shape_at_two_depths(self):
        m = np.random.default_rng(3).normal(size=(3, 3, 2))
        report = {"a": m, "b": {"c": m, "d": [m]}}
        assert _dump(report, 0) == json.dumps(jsonable(report), sort_keys=True, indent=1)

    def test_more_shapes_than_the_bound(self):
        rng = np.random.default_rng(4)
        shapes = [(k, k, 2) for k in range(1, cli.LAYOUT_CACHE_SIZE + 4)]
        report = {f"m{k:02d}": {"nested": rng.normal(size=s)} for k, s in enumerate(shapes)}
        report.update(flat=[rng.normal(size=s) for s in shapes])
        expected = json.dumps(jsonable(report), sort_keys=True, indent=1)
        for _ in range(2):  # the second pass meets layouts the first one evicted
            assert _dump(report, 0) == expected
            info = cli._array_layout.cache_info()
            assert info.maxsize == cli.LAYOUT_CACHE_SIZE
            assert info.currsize <= cli.LAYOUT_CACHE_SIZE


GOLDEN_INSTANCES = sorted((Path(__file__).parent / "golden" / "instances").glob("*.json"))


def readme_digest_recipe():
    """The ``instance_sha256`` function of the README's CLI section."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    [recipe] = [b for b in re.findall(r"```python\n(.*?)```", readme, re.S) if "sha256" in b]
    namespace = {}
    exec(recipe, namespace)
    return namespace["instance_sha256"]


class TestInstanceDigest:
    @pytest.mark.parametrize("path", GOLDEN_INSTANCES, ids=lambda p: p.stem)
    def test_round_trip_keeps_the_digest(self, tmp_path, capsys, path):
        assert main(["inspect", str(path), "--json"]) in (0, 2)
        reported = json.loads(capsys.readouterr().out)["instance_sha256"]
        inst = parse_instance(str(path))
        document = emit_instance(inst)
        emitted = tmp_path / "emitted.json"
        emitted.write_text(document, encoding="utf-8")
        assert cli.instance_sha256(inst) == reported
        assert cli.instance_sha256(parse_instance(str(emitted))) == reported
        assert readme_digest_recipe()(document) == reported

    @staticmethod
    def _matrices():
        rng = np.random.default_rng(5)
        omega = complex_randn(rng, 3, 3)
        omega[0, 1] = 0.0
        theta = np.diag([2.0, 1.0, 0.0]).astype(complex)
        psi = np.diag([4.0, 3.0, 2.0]).astype(complex)
        return [omega, theta, psi, 2.0 * np.eye(3, dtype=complex)]

    @staticmethod
    def _instance(omega, theta, psi, gram=None):
        # the digest reads the matrices as held; a plain Form holds every bit,
        # where a PositiveForm would store the Hermitian part, whose division
        # by 2 turns a -0.0 into 0.0
        extras = {} if gram is None else {"norm_gram": gram}
        return fk.Instance(
            omega=fk.Form(omega),
            theta=fk.Form(theta),
            psi=fk.Form(psi),
            provenance="digest",
            extras=extras,
            check_membership=False,
        )

    @pytest.mark.parametrize("change", ["ulp", "negative-zero"])
    @pytest.mark.parametrize("which", [0, 1, 2, 3], ids=["omega", "theta", "psi", "norm_gram"])
    def test_one_entry_changes_the_digest(self, which, change):
        matrices = self._matrices()
        before = self._instance(*matrices)
        m = matrices[which].copy()
        if change == "ulp":
            m[2, 2] = complex(np.nextafter(m[2, 2].real, np.inf), m[2, 2].imag)
        else:
            m[0, 1] = complex(-0.0, 0.0)
        matrices[which] = m
        after = self._instance(*matrices)
        assert cli.instance_sha256(after) != cli.instance_sha256(before)

    def test_norm_gram_is_part_of_the_digest(self):
        matrices = self._matrices()
        with_gram = self._instance(*matrices)
        without = self._instance(*matrices[:3])
        assert cli.instance_sha256(with_gram) != cli.instance_sha256(without)


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

    @pytest.mark.parametrize("name", ["plain", "rankdef"])
    def test_decompose_witness_keys_are_the_block_residuals(self, capsys, name):
        path = str(Path(__file__).parent / "golden" / "instances" / f"{name}.json")
        assert main(["decompose", path, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        inst = parse_instance(path)
        split = fk.lebesgue_decompose(inst.omega, inst.theta, inst.psi)
        _, theta_res, singular_res = fk.singularity_witness(split, inst.theta, np.eye(inst.dim))
        assert doc["witness_theta_residual_max"] == theta_res
        assert doc["witness_singular_residual_max"] == singular_res

    def test_decompose_writes_an_obstructed_margin_as_null(self, capsys):
        # at this rank tolerance the majorant's kernel obstructs the regular
        # part, whose margin -inf has no strict-JSON spelling
        path = str(Path(__file__).parent / "golden" / "instances" / "plain.json")
        assert main(["decompose", path, "--tol-rank", "1e-300", "--json"]) == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        doc = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert doc["regular_certificate"]["majorant_member"] is False
        assert doc["regular_certificate"]["margin"] is None

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

    def test_membership_ignores_grid(self, tmp_path, capsys):
        # the numerical range is the disk of radius 0.99: the adaptive bracket
        # decides that the bound holds, and --grid only samples numrange
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
        assert bounds["16"] == bounds["720"]
        assert bounds["16"]["holds"] is True
        assert abs(bounds["16"]["quadratic_norm"] - 0.99) <= 1e-12

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

    def test_batch_reports_an_allocation_failure_and_goes_on(self, tmp_path, capsys, monkeypatch):
        # diag(lambda) at N = 100000 would need 149 GiB; the allocation is
        # stubbed to fail as numpy's does, without trying it
        message = "Unable to allocate 149. GiB for an array with shape (100000, 100000)"
        original = fk.diag_family

        def allocating(values, provenance):
            if len(values) > 64:
                raise MemoryError(message)
            return original(values, provenance)

        monkeypatch.setattr("formkit.cli.diag_family", allocating)
        write(tmp_path, "a.json", {"family": {"name": "diag", "lambda": "n", "N": 100}})
        write(tmp_path, "b.json", {"family": {"name": "diag", "lambda": "n", "N": 2}})
        assert main(["inspect", str(tmp_path / "a.json")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert main(["inspect", str(tmp_path), "--batch"]) == 1
        first, second = capsys.readouterr().out.split("== b.json\n")
        assert first == f"== a.json\nerror: {message}\n"
        assert second.startswith("command: inspect\n")

    def test_solvable_shift_decided_once(self, tmp_path, capsys):
        # the inf-sup test accepts lambda = 0 (c1 / c2 = 0.55 > 0.3); the
        # unnormalized system's condition (sigma ratio 0.1) no longer refuses it
        path = write(tmp_path, "d.json", {"family": {"name": "diag", "lambda": [1, 10], "N": 2}})
        code = main(["solvable", path, "--json", "--lambda=0,0", "--tol-rank", "0.3"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["solvable"] is True
        assert doc["resolvent_norm"] == 1.0

    def test_solvable_lambda_runs_one_inf_sup_svd(self, capsys, monkeypatch):
        calls = []
        original = np.linalg.svd

        def recording(*args, **kwargs):
            calls.append(np.shape(args[0]))
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        path = str(Path(__file__).parent / "golden" / "instances" / "dense.json")
        assert main(["solvable", path, "--lambda=5,0"]) == 0
        capsys.readouterr()
        # the canonical majorant's pinv, the inf-sup test, the resolvent norm
        assert len(calls) == 3

    def test_lab_refusal_exit_code(self, tmp_path, capsys):
        family = {"name": "diag", "lambda": "n*exp(i*n)", "N": 8}
        path = write(tmp_path, "lab.json", {"family": family})
        code = main(["lab", path, "--json", "--sizes", "4,8", "--tol-rank", "0.9"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["refused"] is True
        assert doc["reason"].startswith("inf-sup constant")

    def test_failed_internal_check_exit_code(self, tmp_path, capsys):
        # a rank tolerance this large turns the inf-sup cut into a conditioning
        # test, which refuses a point far outside the hull
        path = write(tmp_path, "d.json", {"family": {"name": "diag", "lambda": [1, 10], "N": 2}})
        code = main(["solvable", path, "--lambda=100,0", "--tol-rank", "0.5"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err.startswith("error: point at distance")

    @pytest.mark.parametrize(
        "argv, first, exit_code",
        [
            (["lab", "--sizes", "4,8", "--tol-rank", "0.9"], "refused: True", 2),
            (["solvable", "--lambda=100,0", "--tol-rank", "0.5"], "error: point at distance", 1),
        ],
        ids=["refusal", "internal-check"],
    )
    def test_batch_goes_on_past_a_failed_command(self, tmp_path, capsys, argv, first, exit_code):
        write(tmp_path, "a.json", {"family": {"name": "diag", "lambda": "n*exp(i*n)", "N": 8}})
        write(tmp_path, "b.json", {"family": {"name": "diag", "lambda": [1, 10], "N": 2}})
        write(tmp_path, "c.json", {"family": {"name": "diag", "lambda": "1", "N": 2}})
        code = main([argv[0], str(tmp_path), "--batch", *argv[1:]])
        out = capsys.readouterr().out
        assert code == exit_code
        assert first in out
        assert out.split("== c.json\n")[1].startswith("command: " + argv[0])

    @pytest.mark.parametrize(
        "family, message",
        [
            ({"name": "operator_pair", "S": [[1e200]], "T": [[1e200]]}, "S and T are too large"),
            ({"name": "diag", "lambda": [1, float("nan"), 2], "N": 3}, "'lambda' entries must"),
            ({"name": "diag", "lambda": "exp(1000*n)", "N": 3}, "'lambda' 'exp(1000*n)' does not"),
            ({"name": "diag", "lambda": "n*", "N": 3}, "'lambda' 'n*' does not evaluate"),
            ({"name": "diag", "lambda": ["x", 1], "N": 2}, "'lambda' ['x', 1] does not"),
            ({"name": "diag", "lambda": "n", "N": "abc"}, "family.N must be a positive integer"),
            ({"name": "diag", "lambda": "n", "N": None}, "family.N must be a positive integer"),
            ({"name": "diag", "lambda": "n", "N": 2.7}, "family.N must be a positive integer"),
            ({"name": "diag", "lambda": "n", "N": 0}, "family.N must be a positive integer"),
            ({"name": "diag", "lambda": "n", "N": True}, "family.N must be a positive integer"),
            ({"name": "measure", "theta": 5, "omega": [1]}, "family.theta must be a list"),
            ({"name": "measure", "theta": [1], "omega": 3}, "family.omega must be a list"),
            ({"name": "measure", "theta": ["a"], "omega": [1]}, "family.theta: entries must be real"),
        ],
        ids=[
            "operator-pair", "nan-literal", "exp-overflow", "syntax", "string-literal",
            "N-string", "N-null", "N-fraction", "N-zero", "N-bool",
            "theta-scalar", "omega-scalar", "theta-string",
        ],
    )
    def test_overflowing_family_is_an_error(self, tmp_path, capsys, family, message):
        bad = write(tmp_path, "a.json", {"family": family})
        write(tmp_path, "b.json", {"n": 1, "omega": [[[2, 0]]]})
        assert main(["inspect", bad]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert main(["inspect", str(tmp_path), "--batch"]) == 1
        first, second = capsys.readouterr().out.split("== b.json\n")
        assert first.startswith(f"== a.json\nerror: {message}")
        assert second.startswith("command: inspect\n")

    def test_overflowing_canonical_majorant_is_an_error(self, tmp_path, capsys):
        path = write(tmp_path, "big.json", {"n": 1, "omega": [[1e200]]})
        assert main(["inspect", path]) == 1
        assert capsys.readouterr().err == (
            "error: omega is too large for its canonical majorant: t^H t overflows\n"
        )

    @pytest.mark.parametrize(
        "family, argv, message",
        [
            ({"name": "diag", "lambda": "1", "N": 2}, ["--sizes", "x"], "--sizes expects"),
            ({"name": "diag", "lambda": "1", "N": 2}, ["--sizes", "4,0"], "--sizes expects"),
            ({"name": "diag", "lambda": "1", "N": 2}, ["--sizes", ""], "--sizes expects"),
            ({"lambda": "1", "N": 2}, [], "family block must be an object with a 'name'"),
        ],
        ids=["sizes-not-integers", "sizes-not-positive", "sizes-empty", "family-without-name"],
    )
    def test_lab_input_is_an_error(self, tmp_path, capsys, family, argv, message):
        bad = write(tmp_path, "a.json", {"family": family})
        assert main(["lab", bad, *argv]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")
        assert main(["lab", str(tmp_path), "--batch", *argv]) == 1
        assert capsys.readouterr().out.startswith(f"== a.json\nerror: {message}")

    @pytest.mark.parametrize(
        "command, doc, message",
        [
            (
                "inspect",
                {"n": 1, "omega": [[True]]},
                "omega[0][0]: entries must be numbers or [re, im] pairs",
            ),
            (
                "inspect",
                {"n": 2, "omega": [[1.5, 0], [0, True]]},
                "omega[1][1]: entries must be numbers or [re, im] pairs",
            ),
            (
                "solvable",
                {"n": 1, "omega": [[1]], "norm_gram": [[[2, False]]]},
                "norm_gram[0][0]: entries must be numbers or [re, im] pairs",
            ),
            (
                "inspect",
                {"family": {"name": "measure", "theta": [True, 1], "omega": [1, 1]}},
                "family.theta: entries must be real numbers",
            ),
            (
                "inspect",
                {"family": {"name": "measure", "theta": [1, 1], "omega": [1, False]}},
                "family.omega: entries must be numbers or [re, im] pairs",
            ),
            (
                "membership",
                {"family": {"name": "diag", "lambda": [True, "2", 3], "N": 3}},
                "'lambda' [True, '2', 3] does not evaluate",
            ),
            (
                "lab",
                {"family": {"name": "diag", "lambda": [1, 2, True], "N": 3}},
                "'lambda' [1, 2, True] does not evaluate",
            ),
        ],
        ids=[
            "omega-bool", "omega-bool-float", "norm-gram-bool", "measure-theta-bool",
            "measure-omega-bool", "diag-lambda-bool-string", "lab-lambda-bool",
        ],
    )
    def test_json_booleans_and_strings_are_not_numbers(
        self, tmp_path, capsys, command, doc, message
    ):
        path = write(tmp_path, "a.json", doc)
        assert main([command, path]) == 1
        assert capsys.readouterr().err.startswith(f"error: {message}")

    def test_upsilon_boolean_is_not_a_number(self, tmp_path, capsys):
        path = write(tmp_path, "a.json", {"n": 1, "omega": [[1]]})
        assert main(["solvable", path, "--upsilon", "[[true]]"]) == 1
        assert capsys.readouterr().err == (
            "error: --upsilon[0][0]: entries must be numbers or [re, im] pairs\n"
        )

    @pytest.mark.parametrize("command", ["inspect", "decompose"])
    def test_lapack_breakdown_is_an_error(self, tmp_path, capsys, command):
        # t^H t = 1e308 is finite, but m + m^H overflows on the way to the
        # canonical majorant, where LAPACK's SVD used to break down; the
        # overflow guard now refuses the input first, without a warning
        bad = write(tmp_path, "a.json", {"n": 1, "omega": [[1e154]]})
        write(tmp_path, "b.json", {"n": 1, "omega": [[[2, 0]]]})
        message = "error: omega is too large for its canonical majorant: t^H t overflows"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, bad]) == 1
            assert capsys.readouterr().err == message + "\n"
            assert main([command, str(tmp_path), "--batch"]) == 1
        first, second = capsys.readouterr().out.split("== b.json\n")
        assert first == f"== a.json\n{message}\n"
        assert second.startswith(f"command: {command}\n")

    @pytest.mark.parametrize(
        "command, doc, name",
        [
            (
                "decompose",
                {"n": 2, "omega": [[1, 0], [0, 1]], "theta": [[1e200, 0], [0, 1]]},
                "theta",
            ),
            ("inspect", {"n": 1, "omega": [[1e154]], "psi": [[1e300]]}, "psi"),
            ("inspect", {"n": 1, "omega": [[1e200]], "psi": [[1]]}, "omega"),
            ("solvable", {"n": 1, "omega": [[1]], "norm_gram": [[1e200]]}, "norm_gram"),
            ("inspect", {"family": {"name": "diag", "lambda": [1e200, 1], "N": 2}}, "'lambda'"),
            (
                "inspect",
                {"family": {"name": "measure", "theta": [1e200, 1], "omega": [1, 1]}},
                "theta",
            ),
            (
                "decompose",
                {"family": {"name": "measure", "theta": [1, 1], "omega": [1e200, 1]}},
                "omega",
            ),
        ],
        ids=[
            "theta", "psi", "omega-with-psi", "norm-gram",
            "diag-family", "measure-theta", "measure-omega",
        ],
    )
    def test_overflowing_norm_is_an_error(self, tmp_path, capsys, command, doc, name):
        # the Frobenius norm of an entry above about 1.3e154 overflows; every
        # check downstream measures the matrix by it
        bad = write(tmp_path, "a.json", doc)
        write(tmp_path, "b.json", {"n": 1, "omega": [[[2, 0]]]})
        message = f"error: {name} is too large: its Frobenius norm overflows"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, bad]) == 1
            assert capsys.readouterr().err == message + "\n"
            assert main([command, str(tmp_path), "--batch"]) == 1
        first, second = capsys.readouterr().out.split("== b.json\n")
        assert first == f"== a.json\n{message}\n"
        assert second.startswith(f"command: {command}\n")

    def test_lab_refuses_an_overflowing_lambda(self, tmp_path, capsys):
        bad = write(tmp_path, "a.json", {"family": {"name": "diag", "lambda": [1e200, 1], "N": 2}})
        write(tmp_path, "b.json", {"family": {"name": "diag", "lambda": "n", "N": 2}})
        message = "error: 'lambda' is too large: its Frobenius norm overflows"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["lab", bad, "--sizes", "1,2"]) == 1
            assert capsys.readouterr().err == message + "\n"
            assert main(["lab", str(tmp_path), "--batch", "--sizes", "1,2"]) == 1
        first, second = capsys.readouterr().out.split("== b.json\n")
        assert first == f"== a.json\n{message}\n"
        assert second.startswith("command: lab\n")

    def test_power_tower_is_an_error_at_once(self, tmp_path, capsys):
        family = {"name": "diag", "lambda": "9**9**9**9", "N": 2}
        path = write(tmp_path, "a.json", {"family": family})
        start = time.perf_counter()
        assert main(["inspect", path]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err.startswith("error: 'lambda': an integer power")

    @pytest.mark.parametrize("lam", ["nan,0", "inf,0", "0,-inf"])
    def test_non_finite_lambda_is_an_error(self, tmp_path, capsys, lam):
        path = write(tmp_path, "a.json", {"n": 1, "omega": [[[2, 0]]]})
        write(tmp_path, "b.json", {"n": 1, "omega": [[[3, 0]]]})
        message = f"error: --lambda must be finite, got {lam!r}"
        assert main(["solvable", path, f"--lambda={lam}"]) == 1
        assert capsys.readouterr().err == message + "\n"
        assert main(["solvable", str(tmp_path), "--batch", f"--lambda={lam}"]) == 1
        assert capsys.readouterr().out == f"== a.json\n{message}\n== b.json\n{message}\n"

    @pytest.mark.parametrize(
        "flag, value",
        [("--tol-rank", value) for value in ("nan", "inf", "1e300", "1", "-1")]
        + [("--tol-residual", value) for value in ("nan", "inf", "-1")],
    )
    def test_hostile_tolerance_is_an_error(self, tmp_path, capsys, flag, value):
        # omega = 2 is outside the class of psi = 1, so a cut of every rank
        # would have read it as a member
        path = write(tmp_path, "a.json", {"n": 1, "omega": [[[2, 0]]], "psi": [[[1, 0]]]})
        for argv in (["membership", path], ["membership", str(tmp_path), "--batch"]):
            assert main([*argv, f"{flag}={value}"]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: {flag} must be")
            assert captured.out == ""

    def test_batch_mode(self, tmp_path, capsys):
        write(tmp_path, "a.json", {"n": 1, "omega": [[[1, 0]]]})
        write(tmp_path, "b.json", {"n": 1, "omega": [[[2, 0]]]})
        code = main(["inspect", str(tmp_path), "--batch"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.index("== a.json") < out.index("== b.json")


INSTANCES = Path(__file__).parent / "golden" / "instances"


class TestOneReport:
    """``_run_single`` starts every report; a refusal appends its reason."""

    @pytest.mark.parametrize(
        "argv, doc, kept",
        [
            (
                ["membership"],
                None,
                {
                    "quadratic_bound": {
                        "holds": False,
                        "reason": "quadratic maximum 2.500000e+00 over the psi-unit sphere exceeds 1",
                    }
                },
            ),
            (["regularity"], None, {"psi_absolutely_continuous": True, "regular": False}),
            (["represent"], None, {}),
            (["decompose"], None, {}),
            (
                ["solvable"],
                {"n": 2, "omega": [[1, 0], [0, 2]], "norm_gram": [[0.5, 0], [0, 1]]},
                {"norm_gram": "from instance file"},
            ),
            (
                ["solvable", "--lambda=1,0"],
                {"n": 2, "omega": [[1, 0], [0, 2]]},
                {"norm_gram": "identity + psi (default)", "solvable": False},
            ),
            (["lab", "--sizes", "4,8", "--tol-rank", "0.9"], None, {}),
        ],
        ids=["membership", "regularity", "represent", "decompose", "gram", "lambda", "lab"],
    )
    def test_refusal_keeps_what_was_written(self, tmp_path, capsys, argv, doc, kept):
        command, *flags = argv
        name = "diag.json" if command == "lab" else "refused.json"
        path = str(INSTANCES / name) if doc is None else write(tmp_path, "r.json", doc)
        assert main([command, path, *flags]) == 2
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"command: {command}"
        assert lines[-2].startswith("reason: ")
        assert lines[-1] == "refused: True"
        assert main([command, path, *flags, "--json"]) == 2
        report = json.loads(capsys.readouterr().out)
        assert report["refused"] is True
        assert report["reason"] == lines[-2].removeprefix("reason: ")
        assert {key: report[key] for key in kept} == kept

    def test_solvable_checks_its_flags_before_its_gram(self, tmp_path, capsys, monkeypatch):
        grams = []
        monkeypatch.setattr(cli, "NormGram", lambda *args: grams.append(args))
        path = write(tmp_path, "a.json", {"n": 1, "omega": [[1]]})
        write(tmp_path, "b.json", {"n": 1, "omega": [[2]]})
        flags = ["--lambda=1,0", "--upsilon=[[0]]"]
        message = "error: give either --lambda or --upsilon, not both"
        assert main(["solvable", path, *flags]) == 1
        assert capsys.readouterr().err == message + "\n"
        assert main(["solvable", str(tmp_path), "--batch", *flags]) == 1
        out = capsys.readouterr().out
        assert out == f"== a.json\n{message}\n== b.json\n{message}\n"
        assert grams == []

    def test_parser_is_built_once(self, monkeypatch, capsys):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli.build_parser.cache_clear()
        try:
            for _ in range(2):
                assert main(["inspect", str(INSTANCES / "plain.json")]) == 0
        finally:
            cli.build_parser.cache_clear()
        capsys.readouterr()
        assert len(built) == 1

    @pytest.mark.parametrize("command, parses", [("inspect", 1), ("lab", 0)])
    def test_traced_entry_points_run_once(self, tmp_path, capsys, monkeypatch, command, parses):
        # a tracer wraps these three by module attribute and counts each call
        names = ("parse_instance", "render_report", "main")
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(cli, name)

            def counting(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(cli, name, counting)
        argv = [command, str(INSTANCES / "diag.json")]
        if command == "lab":
            argv += ["--sizes", "4,8"]
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert calls == {"parse_instance": parses, "render_report": 1, "main": 1}


class TestBuiltFormsKeepRankTolerance:
    """theta = psi has the eigenvalue -1e-8, which --tol-rank 1e-6 accepts;
    the forms built from them, eps * psi and theta + psi, accept it too."""

    @staticmethod
    def _instance(tmp_path):
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((3, 3)))
        near_psd = encode_matrix(q @ np.diag([-1e-8, 1.0, 2.0]) @ q.T).tolist()
        omega = encode_matrix(0.2 * q @ np.diag([0.0, 1.0, 2.0]) @ q.T).tolist()
        doc = {"n": 3, "omega": omega, "theta": near_psd, "psi": near_psd}
        return write(tmp_path, "near.json", doc)

    def test_membership_scaled_majorant(self, tmp_path, capsys):
        path = self._instance(tmp_path)
        assert main(["membership", path, "--json", "--tol-rank", "1e-6"]) == 0
        bound = json.loads(capsys.readouterr().out)["quadratic_bound"]
        assert bound["holds"] and bound["scaled_member"]

    @pytest.mark.parametrize("command", ["regularity", "represent", "decompose"])
    def test_sum_form(self, tmp_path, capsys, command):
        path = self._instance(tmp_path)
        assert main([command, path, "--json", "--tol-rank", "1e-6"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert json.loads(captured.out)["command"] == command

    def test_default_tolerance_still_refuses(self, tmp_path, capsys):
        path = self._instance(tmp_path)
        assert main(["membership", path]) == 1
        assert capsys.readouterr().err.startswith(
            "error: theta is not positive semidefinite: matrix is not PSD: "
            "min eigenvalue -1.000000e-08"
        )


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


class TestBlasThreadCount:
    """A run leaves OpenBLAS's thread count as it found it, whatever its
    exit, and runs a small instance's parse and command on one thread."""

    refused = {
        "n": 2,
        "omega": [[[2, 0], [0, 0]], [[0, 0], [2, 0]]],
        "psi": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]],
    }

    @staticmethod
    def _dense(tmp_path, name="n48.json", n=48):
        omega = complex_randn(np.random.default_rng(72), n, n)
        return write(tmp_path, name, {"n": n, "omega": encode_matrix(omega).tolist()})

    @pytest.mark.parametrize(
        "case, code",
        [("numrange", 0), ("refusal", 2), ("flags", 1), ("parse", 1)],
    )
    def test_count_restored_on_every_exit(self, tmp_path, capsys, blas_count, case, code):
        argv = {
            "numrange": ["numrange", self._dense(tmp_path)],
            "refusal": ["membership", write(tmp_path, "ref.json", self.refused)],
            "flags": ["solvable", self._dense(tmp_path), "--lambda=1,0", "--upsilon=[]"],
            "parse": ["inspect", write(tmp_path, "broken.json", "{nope")],
        }[case]
        assert main(argv) == code
        capsys.readouterr()
        assert blas_count() == 2

    def test_count_restored_after_a_worker_breaks_down(
        self, tmp_path, capsys, monkeypatch, blas_count
    ):
        monkeypatch.setattr(numerics, "blas_workers", lambda: 2)
        original = np.linalg.solve

        def breaks_in_worker(a, *args, **kwargs):
            if np.ndim(a) == 3 and threading.current_thread() is not threading.main_thread():
                raise MemoryError("Unable to allocate the solve's workspace")
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", breaks_in_worker)
        path = self._dense(tmp_path)
        assert main(["numrange", path]) == 1
        assert capsys.readouterr().err == "error: Unable to allocate the solve's workspace\n"
        assert blas_count() == 2
        monkeypatch.setattr(np.linalg, "solve", original)
        assert main(["numrange", path]) == 0
        capsys.readouterr()
        assert blas_count() == 2

    def test_count_restored_after_each_batch_file(self, tmp_path, capsys, monkeypatch, blas_count):
        self._dense(tmp_path, "a.json")
        write(tmp_path, "b.json", "{nope")
        write(tmp_path, "c.json", self.refused)
        counts = []
        original = cli._run_single

        def run_single(path, args):
            try:
                return original(path, args)
            finally:
                counts.append(blas_count())

        monkeypatch.setattr(cli, "_run_single", run_single)
        assert main(["numrange", str(tmp_path), "--batch"]) == 1
        capsys.readouterr()
        assert counts == [2, 2, 2]
        assert blas_count() == 2

    @pytest.mark.parametrize("n, inside", [(2, 1), (3, 2)])
    def test_small_instances_run_on_one_thread(
        self, tmp_path, capsys, monkeypatch, blas_count, n, inside
    ):
        monkeypatch.setattr(cli, "ONE_BLAS_THREAD_MAX_N", 2)
        seen = []
        original = cli.COMMANDS["inspect"]
        original_majorant = cli.canonical_majorant

        def majorant(*args):
            seen.append(blas_count())
            return original_majorant(*args)

        def inspect(*args):
            seen.append(blas_count())
            original(*args)

        monkeypatch.setattr(cli, "canonical_majorant", majorant)
        monkeypatch.setitem(cli.COMMANDS, "inspect", inspect)
        assert main(["inspect", self._dense(tmp_path, n=n)]) == 0
        capsys.readouterr()
        assert seen == [inside, inside]
        assert blas_count() == 2
