import ast
import cmath
import tracemalloc
import warnings

import numpy as np
import pytest

import formkit as fk
from formkit import solvable, trunclab
from formkit.numerics import frob
from formkit.trunclab import LAB_HULL_GRID, MAX_POWER_BITS, _lambda_values

from conftest import complex_randn


def rotating_diagonal(size):
    n = np.arange(1, size + 1)
    return n * np.exp(1j * n)


class TestDiagFamily:
    def test_rotating_sequence_witnesses(self):
        inst = fk.diag_family(rotating_diagonal(8))
        h, y = inst.extras["H"], inst.extras["Y"]
        assert frob(h @ h @ y - inst.omega.matrix) <= 1e-12 * frob(inst.omega.matrix)
        assert np.array_equal(inst.extras["T"], inst.omega.matrix)

    def test_constant_one(self):
        inst = fk.diag_family(np.ones(4))
        assert np.array_equal(inst.omega.matrix, np.eye(4, dtype=complex))
        assert np.array_equal(inst.psi.matrix, np.eye(4, dtype=complex))

    def test_alternating_signs(self):
        inst = fk.diag_family([(-1.0) ** n for n in range(1, 6)])
        assert np.allclose(inst.extras["H"], np.eye(5))
        assert np.allclose(np.abs(inst.extras["Y"].diagonal()), np.ones(5))
        assert np.allclose(inst.extras["Y"].diagonal().real, [-1, 1, -1, 1, -1])

    def test_zero_entry_phase_fixed(self):
        inst = fk.diag_family([0.0, 2.0])
        assert inst.extras["Y"][0, 0] == 1.0
        assert inst.extras["H"][0, 0] == 0.0

    def test_refuses_no_entries(self):
        with pytest.raises(fk.ValidationError, match="at least one entry"):
            fk.diag_family([])

    def test_regular_for_every_size(self):
        for size in (2, 5, 9):
            inst = fk.diag_family(rotating_diagonal(size))
            split = fk.lebesgue_decompose(inst.omega, inst.theta, inst.psi)
            assert frob(split.singular.matrix) <= 1e-10 * frob(inst.omega.matrix)
            assert frob(split.regular.matrix - inst.omega.matrix) <= 1e-10 * frob(
                inst.omega.matrix
            )


class TestMeasureFamily:
    def test_density_and_phase(self):
        inst = fk.measure_family([1.0, 1.0], [1j, -2.0])
        assert inst.extras["absolutely_continuous"]
        assert np.allclose(inst.extras["density"], [1.0, 2.0])
        phase = inst.extras["phase"]
        assert abs(phase[0] - np.exp(1j * np.pi / 2)) <= 1e-15
        assert abs(phase[1] - np.exp(1j * np.pi)) <= 1e-15
        # multiplication witnesses reproduce the form against the weights
        recon = np.diag(np.array([1.0, 1.0]) * inst.extras["density"] * phase)
        assert np.allclose(recon, inst.omega.matrix, atol=1e-14)

    def test_disjoint_support_splits_all_singular(self):
        inst = fk.measure_family([0.0, 1.0], [3.0, 0.0])
        assert not inst.extras["absolutely_continuous"]
        ac, sing = fk.positive_lebesgue(inst.psi, inst.theta)
        assert np.array_equal(ac.matrix, np.zeros((2, 2)))
        assert np.array_equal(sing.matrix, inst.psi.matrix)

    def test_zero_weights(self):
        inst = fk.measure_family([1.0, 2.0], [0.0, 0.0])
        ac, sing = fk.positive_lebesgue(inst.psi, inst.theta)
        assert frob(ac.matrix) == 0.0 and frob(sing.matrix) == 0.0

    def test_overflowing_weights_refused(self):
        with pytest.raises(fk.ValidationError, match="theta is too large"):
            fk.measure_family([1e200, 1.0], [1.0, 1.0])
        with pytest.raises(fk.ValidationError, match="omega is too large"):
            fk.measure_family([1.0, 1.0], [1e200, 1.0])
        with pytest.raises(fk.ValidationError, match="'lambda' is too large"):
            fk.diag_family([1e200, 1.0])

    def test_validation(self):
        with pytest.raises(fk.ValidationError):
            fk.measure_family([1.0], [1.0, 2.0])
        with pytest.raises(fk.ValidationError):
            fk.measure_family([-1.0], [1.0])


class TestOperatorPairFamily:
    def test_identity_pair(self):
        inst = fk.operator_pair_family(np.eye(2), np.eye(2))
        assert np.array_equal(inst.omega.matrix, np.eye(2, dtype=complex))
        assert np.allclose(inst.psi.matrix, 3 * np.eye(2))
        assert np.allclose(inst.extras["H"], np.sqrt(3) * np.eye(2))

    def test_diagonal_pair(self):
        inst = fk.operator_pair_family(np.diag([1.0, 2.0]), np.eye(2))
        assert np.array_equal(inst.omega.matrix, np.diag([1.0 + 0j, 2.0]))
        member, margin = fk.in_class_M(inst.omega, inst.psi)
        assert member and margin > 0

    def test_refuses_mismatched_shapes(self):
        with pytest.raises(fk.ValidationError, match="same shape"):
            fk.operator_pair_family(np.eye(2), np.eye(3))

    def test_random_pairs_member(self):
        rng = np.random.default_rng(60)
        for _ in range(10):
            s = complex_randn(rng, 4, 4)
            t = complex_randn(rng, 4, 4)
            inst = fk.operator_pair_family(s, t)
            member, _ = fk.in_class_M(inst.omega, inst.psi)
            assert member

    def test_root_keeps_the_identity_term(self):
        # S = T of rank one and norm up to 1e7 puts psi's top eigenvalue past
        # 1e14, yet H^2 = psi must hold on psi's three eigenvalues 1
        rng = np.random.default_rng(61)
        for scale in (1e3, 1e5, 1e6, 1e7):
            u = complex_randn(rng, 4, 1)
            s = scale * (u @ complex_randn(rng, 1, 4)) / np.linalg.norm(u) ** 2
            inst = fk.operator_pair_family(s, s)
            values, vectors = np.linalg.eigh(inst.psi.matrix)
            h = inst.extras["H"]
            low = vectors[:, :3]
            assert np.allclose(low.conj().T @ h @ h @ low, np.diag(values[:3]), rtol=0, atol=1e-6)

    def test_root_of_an_eigenvalue_rounded_below_zero(self):
        # psi = I + 2 r^H r has top 2.4e16, so its eigenvalues 1 carry a
        # rounding error near 10 and may come out negative (about -0.23 under
        # OpenBLAS); their root is 0, without a warning
        r = 1e7 * np.outer(np.arange(1, 5), np.ones(4))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inst = fk.operator_pair_family(r, r)
        assert np.isfinite(inst.extras["H"]).all()


class TestHullNesting:
    def test_support_monotone_in_size(self):
        small = fk.numerical_range_hull(fk.diag_family(rotating_diagonal(8)).omega, 180)
        large = fk.numerical_range_hull(fk.diag_family(rotating_diagonal(16)).omega, 180)
        assert np.all(small.support <= large.support + 1e-9)


class TestLambdaValues:
    def test_expression(self):
        values = _lambda_values("n*exp(i*n)", 4)
        expected = np.array([n * np.exp(1j * n) for n in range(1, 5)])
        assert np.allclose(values, expected, atol=1e-14)

    def test_literal_list(self):
        values = _lambda_values([1.0, 2.0, 3.0], 2)
        assert np.array_equal(values, [1.0, 2.0])

    def test_rejects_unknown_names(self):
        with pytest.raises(fk.ValidationError):
            _lambda_values("__import__('os')", 2)
        with pytest.raises(fk.ValidationError):
            _lambda_values("open('x')", 2)


    @pytest.mark.parametrize(
        "expression",
        [
            "n*exp(i*n)",
            "n+i*sqrt(n)",
            "i*n*n*n*n",
            "-n**2/3+2j",
            "(0.7+0.4*cos(1.3*n))*exp(i*(0.5*n+0.2))",
            "abs(log(n))*e**(pi*j/n)",
            "+n/(n+1)-sin(n)**3",
        ],
    )
    def test_matches_python_eval(self, expression):
        # the evaluator applies Python's own operators to the same objects
        functions = {f: getattr(cmath, f) for f in ("exp", "cos", "sin", "sqrt", "log")}
        namespace = dict(functions, abs=abs, pi=cmath.pi, e=cmath.e, i=1j, j=1j)
        expected = [
            complex(eval(expression, {"__builtins__": {}}, dict(namespace, n=n)))
            for n in range(1, 9)
        ]
        assert _lambda_values(expression, 8).tolist() == expected

    @pytest.mark.parametrize(
        "expression",
        ["n.real", "(1).__class__", "__import__('os')", "[n][0]", "n if n else 1", "n//2",
         "exp(x=n)", "True", "'n'", "x"],
    )
    def test_refuses_what_is_not_arithmetic(self, expression):
        with pytest.raises(fk.ValidationError, match="is not allowed"):
            _lambda_values(expression, 2)

    def test_refuses_an_integer_power_beyond_the_cap(self):
        with pytest.raises(fk.ValidationError, match="integer power"):
            _lambda_values("9**9**9**9", 2)
        bits = MAX_POWER_BITS
        assert _lambda_values(f"2**{bits - 1}", 1)[0] == 2.0 ** (bits - 1)
        with pytest.raises(fk.ValidationError, match="integer power"):
            _lambda_values(f"2**{bits}", 1)


def _dense_row(lam, rtol):
    """A ``convergence_report`` row from the dense N x N forms: the oracle."""
    inst = fk.diag_family(lam, provenance=f"diag[N={lam.size}]")
    try:
        cert = fk.sectorial_parameters(inst.omega, inst.theta, rtol=rtol)
        verdict = {"sectorial": True, "delta": cert.delta, "gamma": cert.gamma}
    except fk.NotSectorial:
        verdict = {"sectorial": False}
    hull = fk.numerical_range_hull(inst.omega, LAB_HULL_GRID)
    direction = int(np.argmin(hull.support))
    gap = 1.0 + 0.1 * hull.scale
    probe = complex((hull.support[direction] + gap) * np.exp(1j * hull.angles[direction]))
    gram = fk.NormGram(np.eye(lam.size, dtype=complex) + inst.psi.matrix)
    report = fk.represent_operator(inst.omega, gram, probe, rtol)
    points = hull.points
    return {
        "size": lam.size,
        "re_spectrum_min": float(np.min(inst.omega.matrix.diagonal().real)),
        "sectorial": verdict,
        "hull_radius": float(np.max(np.abs(points))),
        "hull_re_extent": [float(np.min(points.real)), float(np.max(points.real))],
        "hull_im_extent": [float(np.min(points.imag)), float(np.max(points.imag))],
        "hull_area": hull.area(),
        "probe": probe,
        "probe_distance": hull.distance(probe),
        "resolvent_norm": report.resolvent_norm,
        "normalized_condition": report.c2 / report.c1,
    }


def _numbers(row):
    """A row's numbers by key, each as a list (the probe as its two parts)."""
    parts = {}
    for key, value in row.items():
        value = [value.real, value.imag] if isinstance(value, complex) else value
        parts[key] = value if isinstance(value, list) else [value]
    return parts


def _outcome(row, lam, rtol):
    try:
        return row(lam, rtol)
    except fk.FormkitError as exc:
        return type(exc).__name__, str(exc)


def _oracle_families():
    rng = np.random.default_rng(71)
    half_real = complex_randn(rng, 128)
    half_real[::2] = half_real[::2].real
    return {
        "rotating": "n*exp(i*n)",
        "parabolic": "n+i*sqrt(n)",
        "quartic": "i*n*n*n*n",
        "damped": "n*exp(i*n)/(1+n)",
        "real": "n*cos(n)",
        "random": complex_randn(rng, 128),
        "half-real": half_real,
    }


class TestConvergenceReport:
    def test_diag_needs_lambda(self):
        with pytest.raises(fk.ValidationError, match="needs a 'lambda' entry"):
            fk.convergence_report("diag", {}, [4])

    @pytest.mark.parametrize("rtol", [1e-10, 1e-6, 1e-2, 0.5, 0.9])
    @pytest.mark.parametrize("family", sorted(_oracle_families()))
    def test_closed_form_matches_dense_oracle(self, family, rtol):
        # same verdicts and refusals, delta bit for bit, the rest within 4 ulps
        spec = _oracle_families()[family]

        def closed(lam, rtol):
            return fk.convergence_report("diag", {"lambda": spec}, [lam.size], rtol)[0]

        def near(a, b):
            return a == b or abs(a - b) <= 4 * np.spacing(max(abs(a), abs(b)))

        for size in (1, 2, 3, 8, 17, 48, 128):
            lam = _lambda_values(spec, size)
            expected, row = _outcome(_dense_row, lam, rtol), _outcome(closed, lam, rtol)
            if isinstance(expected, tuple) or isinstance(row, tuple):
                assert row == expected
                continue
            assert row.keys() == expected.keys()
            verdict, oracle = row.pop("sectorial"), expected.pop("sectorial")
            assert verdict.keys() == oracle.keys()
            if oracle["sectorial"]:
                assert verdict["delta"] == oracle["delta"]
                assert near(verdict["gamma"], oracle["gamma"])
            got = _numbers(row)
            for key, value in _numbers(expected).items():
                assert all(map(near, got[key], value)), (key, size)

    def test_large_size_builds_no_matrix(self, monkeypatch):
        # one 4096 x 4096 complex matrix alone would take 268 MB
        def refused(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name, value in vars(np.linalg).items():
            if callable(value) and not isinstance(value, type):
                monkeypatch.setattr(np.linalg, name, refused)
        tracemalloc.start()
        try:
            rows = fk.convergence_report("diag", {"lambda": "n*exp(i*n)"}, [4096])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rows[0]["sectorial"]["sectorial"] is True
        assert peak < 16 * 2**20

    def test_errors_name_the_first_size_that_fails(self):
        with pytest.raises(fk.ValidationError, match="sequence literal has 3 entries, need 4$"):
            fk.convergence_report("diag", {"lambda": [1, 2, 3]}, [2, 4, 8])
        with pytest.raises(fk.ValidationError, match="needs at least one entry"):
            fk.convergence_report("diag", {"lambda": "n"}, [0, 4])
        with pytest.raises(fk.ValidationError, match="'lambda' is too large"):
            fk.convergence_report("diag", {"lambda": [1e200, 1, 2]}, [1, 3, 4])

    def test_constant_family_constant_diagnostics(self):
        rows = fk.convergence_report("diag", {"lambda": "1"}, [2, 4, 8])
        for key in ("re_spectrum_min", "hull_radius", "resolvent_norm"):
            vals = [row[key] for row in rows]
            assert max(vals) - min(vals) <= 1e-9

    def test_rotating_family_semibound_decays(self):
        rows = fk.convergence_report("diag", {"lambda": "n*exp(i*n)"}, [8, 16, 32])
        mins = [row["re_spectrum_min"] for row in rows]
        assert all(b <= a + 1e-12 for a, b in zip(mins, mins[1:]))
        for row in rows:
            assert row["probe_distance"] > 0
            assert row["resolvent_norm"] is not None

    def test_lab_sweep_families_solve_no_stacked_eigenproblem(self, monkeypatch):
        # every lab instance is diagonal, so its hulls are exact polygons
        stacked = []
        for name in ("eigh", "eigvalsh"):
            solve = getattr(np.linalg, name)

            def recording(a, *args, solve=solve, **kwargs):
                if np.ndim(a) == 3:
                    stacked.append(np.shape(a))
                return solve(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recording)
        for spec in ("n*exp(i*n)", "n+i*sqrt(n)", "i*n*n*n*n"):
            rows = fk.convergence_report("diag", {"lambda": spec}, [8, 16, 32, 48])
            assert [row["size"] for row in rows] == [8, 16, 32, 48]
        assert stacked == []

    def test_overflowing_lambda_refused(self):
        with pytest.raises(fk.ValidationError, match="'lambda' is too large"):
            fk.convergence_report("diag", {"lambda": [1e200, 1]}, [1, 2])

    def test_validation(self):
        with pytest.raises(fk.ValidationError):
            fk.convergence_report("diag", {"lambda": "1"}, [8, 4])
        with pytest.raises(fk.ValidationError):
            fk.convergence_report("measure", {}, [2, 3])


def _sweep_outcome(spec, sizes, rtol):
    try:
        return repr(fk.convergence_report("diag", {"lambda": spec}, sizes, rtol))
    except fk.FormkitError as exc:
        return type(exc).__name__, str(exc)


def _each_alone(spec, sizes, rtol):
    """The outcome of a sweep over ``sizes`` as each size swept alone gives
    it: their rows, or the error of the first size that fails, since the
    sweep stops there."""
    rows = []
    for size in sizes:
        alone = _sweep_outcome(spec, [size], rtol)
        if isinstance(alone, tuple):
            return alone
        rows.append(alone[1:-1])
    return "[" + ", ".join(rows) + "]"


class TestOneSweep:
    """A sweep evaluates lambda once, up to its largest size, and rotates
    those entries once for the hulls of every size."""

    SIZES = [1, 2, 3, 8, 17, 48, 128]

    @pytest.mark.parametrize("rtol", [1e-10, 1e-6, 1e-2, 0.5, 0.9])
    @pytest.mark.parametrize("family", sorted(_oracle_families()))
    def test_equals_each_size_alone(self, family, rtol):
        spec = _oracle_families()[family]
        # a repeated size gives the row of that size swept alone, each time
        for sizes in (self.SIZES, [1, 8, 8, 48]):
            assert _sweep_outcome(spec, sizes, rtol) == _each_alone(spec, sizes, rtol)

    def test_rotates_the_largest_size_once(self, monkeypatch):
        rotated = []
        original = solvable._rotated

        def recording(parts, cos, sin):
            stack = original(parts, cos, sin)
            rotated.append(stack.size)
            return stack

        monkeypatch.setattr(solvable, "_rotated", recording)
        fk.convergence_report("diag", {"lambda": "n*exp(i*n)"}, [8, 16, 32, 48])
        assert sum(rotated) == LAB_HULL_GRID // 2 * 48

    def test_walks_the_expression_once(self, monkeypatch):
        spec = "n*exp(i*n)/(1+n)"
        kinds = (ast.BinOp, ast.Call, ast.Name, ast.Constant)
        nodes = [node for node in ast.walk(ast.parse(spec, mode="eval")) if isinstance(node, kinds)]
        compiled = []
        original = trunclab._compile

        def recording(node):
            compiled.append(node)
            return original(node)

        monkeypatch.setattr(trunclab, "_compile", recording)
        fk.convergence_report("diag", {"lambda": spec}, [8, 16, 32, 48])
        # every node but the called name exp, each once
        assert len(compiled) == len(nodes) - 1 == len({id(node) for node in compiled})

    def test_error_path_evaluates_once(self, monkeypatch):
        logs = []
        monkeypatch.setitem(trunclab._FUNCTIONS, "log", lambda z: logs.append(z) or cmath.log(z))
        with pytest.raises(fk.ValidationError, match="does not evaluate: division by zero$"):
            fk.convergence_report("diag", {"lambda": "1/(n-20)*log(n)"}, [8, 16, 32, 64])
        assert logs == list(range(1, 20))

    def test_many_sizes_build_no_matrix(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name, value in vars(np.linalg).items():
            if callable(value) and not isinstance(value, type):
                monkeypatch.setattr(np.linalg, name, refused)
        sizes = list(range(64, 4097, 64))
        tracemalloc.start()
        try:
            rows = fk.convergence_report("diag", {"lambda": "n*exp(i*n)"}, sizes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [row["size"] for row in rows] == sizes
        assert peak < 16 * 2**20

