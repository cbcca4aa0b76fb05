import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest

import formkit as fk
from formkit import numerics, solvable
from formkit.cli import encode_matrix, main
from formkit.numerics import BOUNDARY_RTOL, RADIUS_RTOL, frob, hermitize

from conftest import complex_randn, eigh_hull, member_form, random_psd, random_unitary


class TestCompatibleNorm:
    def test_identity(self):
        assert fk.validate_compatible_norm(fk.NormGram(np.eye(2)), fk.identity_form(2))

    def test_augmented_gram(self):
        rng = np.random.default_rng(50)
        psi = random_psd(rng, 3)
        gram = fk.NormGram(np.eye(3) + psi)
        assert fk.validate_compatible_norm(gram, fk.identity_form(3))

    def test_too_small(self):
        assert not fk.validate_compatible_norm(fk.NormGram(np.eye(2) / 2), fk.identity_form(2))

    def test_stored_check_matches_validation(self):
        rng = np.random.default_rng(62)
        grams = [np.eye(3), np.eye(3) * (1 - 1e-11), np.eye(3) * (1 - 1e-9)]
        grams += [np.eye(3) * rng.uniform(0.5, 1.5) + random_psd(rng, 3, rank=1) for _ in range(6)]
        for mat in grams:
            gram = fk.NormGram(mat)
            expected = fk.validate_compatible_norm(gram, fk.identity_form(3))
            assert gram.dominates_inner_product == expected
        assert fk.NormGram(np.eye(3) * (1 - 1e-11)).dominates_inner_product
        assert not fk.NormGram(np.eye(3) * (1 - 1e-9)).dominates_inner_product

    def test_incompatible_gram_refused_by_every_solver(self):
        gram = fk.NormGram(0.5 * np.eye(2))
        omega = fk.Form(np.eye(2))
        with pytest.raises(fk.IncompatibleNorm):
            fk.scalar_solvability(omega, gram, 3.0)
        with pytest.raises(fk.IncompatibleNorm):
            fk.solvability_with(omega, gram, fk.Form(np.zeros((2, 2))))
        with pytest.raises(fk.IncompatibleNorm):
            fk.represent_operator(omega, gram, 3.0)

    def test_gram_validation(self):
        with pytest.raises(fk.ValidationError):
            fk.NormGram(np.diag([1.0, 0.0]))
        with pytest.raises(fk.ValidationError):
            fk.NormGram([[1.0, 1.0], [0.0, 1.0]])


class TestNumericalRangeHull:
    def test_segment(self):
        hull = fk.numerical_range_hull(fk.Form(np.diag([0.0, 1.0])))
        assert abs(hull.distance(2.0) - 1.0) <= 1e-9
        assert hull.distance(0.5) == 0.0

    def test_shift_block_is_disk(self):
        hull = fk.numerical_range_hull(fk.Form([[0.0, 1.0], [0.0, 0.0]]))
        assert np.max(np.abs(hull.support - 0.5)) <= 1e-12
        assert np.max(np.abs(np.abs(hull.points) - 0.5)) <= 1e-10

    def test_normal_matrix_segment(self):
        hull = fk.numerical_range_hull(fk.Form(np.diag([1 + 1j, 2.0])))
        ends = np.array([1 + 1j, 2.0])
        for point in hull.points:
            assert np.min(np.abs(point - ends)) <= 1e-8 or _on_segment(point, ends)
        for z in ends:
            assert hull.distance(z) <= 1e-9

    def test_grid_minimum(self):
        with pytest.raises(ValueError):
            fk.numerical_range_hull(fk.Form(np.eye(2)), 8)

    def test_spectral_inclusion_random(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            n = int(rng.integers(1, 11))
            m = complex_randn(rng, n, n)
            hull = fk.numerical_range_hull(fk.Form(m))
            scale = hull.scale
            for z in np.linalg.eigvals(m):
                assert hull.distance(z) <= 1e-6 * scale

    def test_distance_of_an_array_is_the_per_point_loop(self):
        rng = np.random.default_rng(73)
        for n in (1, 3, 8):
            m = complex_randn(rng, n, n)
            hull = fk.numerical_range_hull(fk.Form(m))
            z = np.concatenate([np.linalg.eigvals(m), 3 * complex_randn(rng, 30), hull.points[:3]])
            loop = [
                max(0.0, float(np.max(np.real(np.exp(-1j * hull.angles) * w) - hull.support)))
                for w in z
            ]
            assert _float_bits(hull.distance(z)) == _float_bits(loop)
            assert _float_bits([hull.distance(w) for w in z]) == _float_bits(loop)
            assert isinstance(hull.distance(z[0]), float)

    def test_resolvent_bound_random(self):
        rng = np.random.default_rng(52)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            m = complex_randn(rng, n, n)
            hull = fk.numerical_range_hull(fk.Form(m))
            radius = float(np.max(np.abs(hull.points)))
            lam = (radius + 0.5 + rng.uniform(0, 2)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            d = hull.distance(lam)
            assert d > 0
            resolvent = np.linalg.inv(m - lam * np.eye(n))
            assert np.linalg.norm(resolvent, 2) <= (1 + 1e-6) / d


def _merged_hull(points, tol):
    """Counter-clockwise hull (monotone chain) of the points, after merging
    points within ``tol`` of a kept one, so that no edge is shorter than tol."""
    kept = []
    for p in points:
        if all(abs(p - q) > tol for q in kept):
            kept.append(complex(p))
    kept.sort(key=lambda z: (z.real, z.imag))
    if len(kept) <= 2:
        return kept

    def turn(a, b, z):
        return ((b - a).conjugate() * (z - a)).imag

    chains = []
    for seq in (kept, kept[::-1]):
        chain = []
        for z in seq:
            while len(chain) >= 2 and turn(chain[-2], chain[-1], z) <= 0:
                chain.pop()
            chain.append(z)
        chains.append(chain[:-1])
    return chains[0] + chains[1]


def _outside_hull(z, hull):
    """Distance from z to a counter-clockwise polygon, 0 inside."""
    edges = list(zip(hull, hull[1:] + hull[:1]))
    inside = len(hull) >= 3 and all(
        ((b - a).conjugate() * (z - a)).imag / abs(b - a) >= 0 for a, b in edges
    )
    if inside:
        return 0.0
    distances = []
    for a, b in edges:
        t = np.clip(((b - a).conjugate() * (z - a)).real / abs(b - a) ** 2, 0.0, 1.0)
        distances.append(abs(z - (a + t * (b - a))))
    return min(distances, default=abs(z - hull[0]))


class TestHullCorner:
    """omega = C + lambda0 with lambda0 outside W(C): W(omega) has a corner at
    lambda0, where every angle of an arc reports (nearly) the same boundary
    point. The points' hull, once points closer than 1e-12 of the scale are
    merged, must still hold every eigenvalue to 1e-12 of the scale."""

    # at seeds 23 and 30 (rotated), ulp-length edges at the corner make an
    # exact-sign inside test, such as perfbench/checks.py's, report an
    # interior eigenvalue 0.26 and 0.48 outside the points' hull
    @pytest.mark.parametrize("seed", [0, 1, 23, 30])
    @pytest.mark.parametrize("rotate", [False, True])
    def test_eigenvalues_inside_the_points_hull(self, seed, rotate):
        rng = np.random.default_rng(90 + seed)
        c = complex_randn(rng, 4, 4)
        radius = float(np.max(np.abs(fk.numerical_range_hull(fk.Form(c)).support)))
        corner = 2.0 * radius * np.exp(2j * np.pi * rng.uniform())
        omega = np.zeros((5, 5), dtype=complex)
        omega[:4, :4], omega[4, 4] = c, corner
        if rotate:
            u = random_unitary(rng, 5)
            omega = u @ omega @ u.conj().T
        hull = fk.numerical_range_hull(fk.Form(omega))
        tol = 1e-12 * hull.scale
        at_corner = np.abs(hull.points - corner) <= tol
        assert at_corner.sum() >= 2
        polygon = _merged_hull(hull.points, tol)
        for z in np.linalg.eigvals(omega):
            assert _outside_hull(complex(z), polygon) <= tol


class TestSupportFunction:
    @staticmethod
    def _reference(m, angles):
        """Top eigenvalue of Re(e^(-i t) M), one solve per angle."""
        out = []
        for t in angles:
            rotated = np.exp(-1j * t) * m
            out.append(np.linalg.eigvalsh((rotated + rotated.conj().T) / 2)[-1])
        return np.asarray(out)

    # 1441 exceeds twice the decisions' angle budget: the grid is not cut
    @pytest.mark.parametrize("grid", [16, 17, 90, 721, 1441])
    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_matches_per_angle_reference(self, grid, n):
        rng = np.random.default_rng(1000 * grid + n)
        m = complex_randn(rng, n, n)
        hull = fk.numerical_range_hull(fk.Form(m), grid)
        angles = 2 * np.pi * np.arange(grid) / grid
        assert np.array_equal(hull.angles, angles)
        reference = self._reference(m, angles)
        scale = max(1.0, float(np.max(np.abs(reference))))
        assert np.max(np.abs(hull.support - reference)) <= 1e-12 * scale
        # eigenvectors are not unique, so each point is checked to attain
        # its support value rather than compared with a reference point
        reach = np.real(np.exp(-1j * angles) * hull.points)
        assert np.max(np.abs(reach - reference)) <= 1e-10 * scale

    @staticmethod
    def _record(monkeypatch, name):
        shapes = []
        original = getattr(np.linalg, name)

        def recording(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recording)
        return shapes

    def test_hull_solves_half_stack_in_blocks(self, monkeypatch):
        m = complex_randn(np.random.default_rng(57), 5, 5)
        n, grid = 48, solvable.DEFAULT_HULL_GRID
        big = fk.Form(complex_randn(np.random.default_rng(63), n, n))
        values = self._record(monkeypatch, "eigvalsh")
        solves = self._record(monkeypatch, "solve")
        vectors = self._record(monkeypatch, "eigh")
        for workers in (1, 2):
            monkeypatch.setattr(numerics, "blas_workers", lambda: workers)
            monkeypatch.setattr(solvable, "HULL_BLOCK_BYTES", 2**22)
            # below the split floor a stack is one call on the calling thread:
            # eigvalsh at the reduced angles, one solve per grid angle
            values.clear()
            solves.clear()
            fk.numerical_range_hull(fk.Form(m), 90)
            assert values == [(45, 5, 5)] and solves == [(90, 5, 5)]
            fk.numerical_range_hull(fk.Form(m), 17)
            assert values[-1] == solves[-1] == (17, 5, 5)
            # the default grid at n = 48 is split over the workers, each
            # solving its share in blocks whose two arrays per angle fit
            # HULL_BLOCK_BYTES / k, bit for bit as one call per worker
            values.clear()
            solves.clear()
            hull = fk.numerical_range_hull(big)
            for shapes, count in ((values, grid // 2), (solves, grid)):
                assert len(shapes) > workers
                assert all(2 * 16 * shape[0] * n * n <= 2**22 / workers for shape in shapes)
                assert sum(shape[0] for shape in shapes) == count
            monkeypatch.setattr(solvable, "HULL_BLOCK_BYTES", 2**40)
            values.clear()
            solves.clear()
            whole = fk.numerical_range_hull(big)
            assert values == [(grid // 2 // workers, n, n)] * workers
            assert solves == [(grid // workers, n, n)] * workers
            assert np.array_equal(hull.support, whole.support)
            assert np.array_equal(hull.points, whole.points)
        assert vectors == []

    def test_pooled_thread_solves_a_longer_share_after_a_shorter(self, monkeypatch):
        # grid 100 at n = 32: k = 3 cuts the 100 solves into shares of 33, 33
        # and 34, each one block of at most 42; a one-thread pool solves the
        # two pooled shares in turn, the longer second
        from concurrent.futures import ThreadPoolExecutor

        big = fk.Form(complex_randn(np.random.default_rng(66), 32, 32))
        serial = fk.numerical_range_hull(big, 100)
        solves = self._record(monkeypatch, "solve")
        pool = ThreadPoolExecutor(1)
        monkeypatch.setattr(numerics, "_pool", (os.getpid(), pool))
        monkeypatch.setattr(numerics, "blas_workers", lambda: 3)
        try:
            hull = fk.numerical_range_hull(big, 100)
        finally:
            pool.shutdown()
        assert solves == [(33, 32, 32), (33, 32, 32), (34, 32, 32)]
        assert np.array_equal(hull.support, serial.support)
        assert np.array_equal(hull.points, serial.points)

    def test_two_hulls_at_once_match_their_serial_hulls(self, monkeypatch, blas_count):
        # two user threads each split their own n = 48 stack over 2 workers,
        # so their BLAS pins overlap and their blocks share the pool
        forms = [fk.Form(complex_randn(np.random.default_rng(s), 48, 48)) for s in (81, 82)]
        monkeypatch.setattr(numerics, "blas_workers", lambda: 1)
        serial = [fk.numerical_range_hull(form) for form in forms]
        monkeypatch.setattr(numerics, "blas_workers", lambda: 2)
        callers = set()
        original = np.linalg.solve

        def recording(a, *args, **kwargs):
            callers.add(threading.current_thread().name)
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", recording)
        start = threading.Barrier(2, timeout=60)
        hulls = [None, None]

        def build(i):
            start.wait()
            hulls[i] = fk.numerical_range_hull(forms[i])

        threads = [threading.Thread(target=build, args=(i,), name=f"user-{i}") for i in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
            assert not thread.is_alive()
        assert {"user-0", "user-1"} <= callers
        assert any(name.startswith("formkit-stack") for name in callers)
        for hull, alone in zip(hulls, serial):
            assert np.array_equal(hull.support, alone.support)
            assert np.array_equal(hull.points, alone.points)
        assert blas_count() == 2

    def test_decisions_solve_few_angles_without_eigenvectors(self, monkeypatch):
        m = complex_randn(np.random.default_rng(58), 4, 4)
        gram = fk.NormGram(np.eye(4) + random_psd(np.random.default_rng(59), 4))
        values = self._record(monkeypatch, "eigvalsh")
        vectors = self._record(monkeypatch, "eigh")
        fk.numerical_radius_bounds(m)
        assert vectors == []
        result = fk.scalar_solvability(fk.Form(m), gram, 10.0)
        assert result.status == "outside"
        # the norm-compatibility check is read from the Gram's construction,
        # and an outside point needs support values only
        assert all(len(shape) == 2 for shape in vectors)
        assert _solves(values) < solvable.DEFAULT_HULL_GRID // 4

    def test_membership_solves_few_angles(self, monkeypatch, tmp_path, capsys):
        # a seeded n = 48 member of the identity's class; the default grid
        # would solve 360 rotated matrices for its radius bracket
        n = 48
        mat = complex_randn(np.random.default_rng(64), n, n)
        path = tmp_path / "member.json"
        omega = encode_matrix(0.8 * mat / np.linalg.norm(mat, 2)).tolist()
        psi = encode_matrix(np.eye(n)).tolist()
        path.write_text(json.dumps({"n": n, "omega": omega, "psi": psi}))
        values = self._record(monkeypatch, "eigvalsh")
        vectors = self._record(monkeypatch, "eigh")
        assert main(["membership", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["quadratic_bound"]["holds"] is True
        assert _solves(values) < 100
        assert _solves(vectors) == 0


def _diagonal_cases():
    rng = np.random.default_rng(69)
    z = complex_randn(rng, 8)
    return {
        "repeated": np.concatenate([z[:4], z[:3], z[1:2]]),
        "zeros": np.array([0j, z[0], 0j, z[1], 0j]),
        "signed-zeros": np.array(
            [complex(-0.0, -0.0), complex(-0.0, 1.0), complex(2.0, -0.0), z[2], 0j]
        ),
        "real": rng.normal(size=6) + 0j,
        "imaginary": 1j * rng.normal(size=6),
        "single": z[:1],
        "general": complex_randn(rng, 12),
    }


_LINALG = ("eig", "eigh", "eigvals", "eigvalsh", "svd", "solve", "inv", "pinv", "norm")


def _bits(a):
    """The bit patterns of a complex array's parts, so -0.0 differs from 0.0."""
    return np.asarray(a, dtype=complex).view(np.int64).reshape(-1, 2)


def _float_bits(a) -> list:
    """The bit patterns of a float array, so -0.0 differs from 0.0."""
    return np.asarray(a, dtype=float).view(np.int64).tolist()


class TestDiagonalHull:
    """The exact path for structurally diagonal input against the per-angle
    eigh reference on the same parts, as matrices (``conftest.eigh_hull``)."""

    @staticmethod
    def _pair(monkeypatch, lam, build):
        """``build`` on diag(lam) by the exact path, with no numpy.linalg call,
        and the eigh reference's support values and points for its samples."""
        calls = [TestSupportFunction._record(monkeypatch, name) for name in _LINALG]
        exact = build(np.diag(lam))
        assert calls == [[]] * len(_LINALG)
        monkeypatch.undo()
        return exact, eigh_hull(exact)

    @staticmethod
    def _match(exact, reference, lam):
        support, points = reference
        assert np.array_equal(_bits(exact.support), _bits(support))
        differ = np.any(_bits(exact.points) != _bits(points), axis=1)
        for k in np.flatnonzero(differ):
            # a tie on the supporting line may be attained at another entry
            cos, sin = np.cos(exact.reduced[k]), np.sin(exact.reduced[k])
            a, b = exact.points[k], points[k]
            assert a != b and a in lam
            assert cos * a.real + sin * a.imag == cos * b.real + sin * b.imag

    @pytest.mark.parametrize("grid", [16, 17, 360, 720, 1441])
    @pytest.mark.parametrize("case", sorted(_diagonal_cases()))
    def test_grid_matches_eigensolved_path(self, monkeypatch, grid, case):
        lam = _diagonal_cases()[case]
        exact, reference = self._pair(monkeypatch, lam, lambda m: fk.NumericalRangeHull(m, grid))
        self._match(exact, reference, lam)

    ANGLES = np.random.default_rng(70).uniform(0, 2 * np.pi, 40)

    @classmethod
    def _refined(cls, mat):
        hull = fk.NumericalRangeHull(mat, 16)
        assert hull.add(cls.ANGLES) == cls.ANGLES.size
        return hull

    @classmethod
    def _completed(cls, mat):
        hull = fk.NumericalRangeHull(mat, 17)
        hull.add(cls.ANGLES)
        hull.boundary_points()
        return hull

    @pytest.mark.parametrize("case", sorted(_diagonal_cases()))
    def test_refinements_match_eigensolved_path(self, monkeypatch, case):
        lam = _diagonal_cases()[case]
        for build in (self._refined, self._completed):
            self._match(*self._pair(monkeypatch, lam, build), lam)

    @pytest.mark.parametrize("grid", [16, 17, 360, 720, 1441, "refined", "completed"])
    @pytest.mark.parametrize("case", sorted(_diagonal_cases()))
    def test_vector_is_its_diagonal_matrix(self, monkeypatch, grid, case):
        # a 1-D lambda stands for diag(lambda), bit for bit and with no eigensolve
        lam = _diagonal_cases()[case]
        make = {"refined": self._refined, "completed": self._completed}.get(
            grid, lambda mat: fk.NumericalRangeHull(mat, grid)
        )
        calls = [TestSupportFunction._record(monkeypatch, name) for name in _LINALG]
        vector, matrix = make(lam), make(np.diag(lam))
        assert calls == [[]] * len(_LINALG)
        assert np.array_equal(vector.angles, matrix.angles)
        assert np.array_equal(_bits(vector.support), _bits(matrix.support))
        assert np.array_equal(_bits(vector.points), _bits(matrix.points))

    def test_tiny_off_diagonal_entry_is_eigensolved(self, monkeypatch):
        mat = np.diag(_diagonal_cases()["general"])
        mat[0, 1] = 1e-300
        values = TestSupportFunction._record(monkeypatch, "eigvalsh")
        fk.NumericalRangeHull(mat, 16)
        assert [len(shape) for shape in values] == [3]

    def test_empty_form_refused(self):
        empty = fk.Form(np.zeros((0, 0)))
        message = "numerical range of a 0-dimensional form is empty"
        with pytest.raises(fk.ValidationError, match=message):
            fk.numerical_range_hull(empty)
        with pytest.raises(fk.ValidationError, match=message):
            fk.scalar_solvability(empty, fk.NormGram(np.zeros((0, 0))), 1.0)


def _solves(shapes):
    """Rotated matrices passed to the recorded solver in stacked calls."""
    return sum(shape[0] for shape in shapes if len(shape) == 3)


def _reference_radius(m):
    """[max h, max h / cos(pi / 2^16)] from a 2^16-angle support scan, which
    holds the numerical radius: its maximizing angle lies within pi / 2^16 of
    a scanned one."""
    count = 2**16
    h, k = hermitize(m), (m - m.conj().T) * -0.5j
    top = -np.inf
    phi = np.pi * np.arange(count // 2) / (count // 2)
    for start in range(0, phi.size, 4096):
        part = phi[start : start + 4096]
        stack = np.cos(part)[:, None, None] * h + np.sin(part)[:, None, None] * k
        w = np.linalg.eigvalsh(stack)
        top = max(top, float(np.max(w[:, -1])), float(np.max(-w[:, 0])))
    return top, top / np.cos(np.pi / count)


def _bracket_cases():
    rng = np.random.default_rng(65)
    cases = [complex_randn(rng, n, n) for n in rng.integers(1, 13, size=50)]
    cases += [
        np.array([[0.0, 1.98], [0.0, 0.0]]),  # the disk of radius 0.99
        np.array([[0.0, 2 * (1 - 1e-6)], [0.0, 0.0]]),  # the non-normal knife edge
        np.diag([1.0 + 1j, 2.0]),  # a segment
        np.diag([(1 + 1e-6) * np.exp(1j * np.pi / 720), 0.0]),  # the ROADMAP 2c probe
        np.diag(np.exp(1j * np.arange(1, 9))),  # unitary diagonal
        hermitize(complex_randn(rng, 6, 6)),
    ]
    return cases


class TestAdaptiveDecisions:
    """Soundness oracles for the adaptive sampler behind the radius bracket
    and the scalar status, against independent scans."""

    @pytest.mark.parametrize("index", range(56))
    def test_radius_bracket_overlaps_fine_scan(self, index, monkeypatch):
        m = _bracket_cases()[index]
        values = TestSupportFunction._record(monkeypatch, "eigvalsh")
        lower, upper = fk.numerical_radius_bounds(m)
        monkeypatch.undo()
        ref_lower, ref_upper = _reference_radius(m)
        slack = 1e-13 * max(ref_upper, 1.0)
        assert lower <= upper
        assert lower <= ref_upper + slack and ref_lower <= upper + slack
        assert 2 * _solves(values) <= solvable.DEFAULT_HULL_GRID

    def test_bracket_closes_on_normal_and_corner_input(self):
        unitary = np.diag(np.exp(1j * np.arange(1, 9)))
        lower, upper = fk.numerical_radius_bounds(unitary)
        assert upper - lower <= RADIUS_RTOL * upper
        assert abs(upper - 1.0) <= 1e-12
        corner = np.diag([(1 + 1e-6) * np.exp(1j * np.pi / 720), 0.0])
        lower, upper = fk.numerical_radius_bounds(corner)
        assert lower > 1.0 + 1e-9

    def test_spectral_norm_closes_normal_bracket_at_any_budget(self, monkeypatch):
        # with the seed angles alone the outer polygon still reaches past 1,
        # but the spectral norm is the radius of a normal matrix
        monkeypatch.setattr(solvable, "DEFAULT_HULL_GRID", solvable.MIN_HULL_GRID)
        lower, upper = fk.numerical_radius_bounds(np.diag(np.exp(1j * np.arange(1, 9))))
        assert 0.9 < lower <= upper <= 1.0 + 1e-12

    def test_convex_combinations_never_outside(self):
        rng = np.random.default_rng(66)
        for _ in range(40):
            n = int(rng.integers(1, 9))
            m = complex_randn(rng, n, n)
            omega = fk.Form(m)
            gram = fk.NormGram(np.eye(n))
            # quadratic values at random unit vectors and at boundary points
            xs = [complex_randn(rng, n) for _ in range(3)]
            t = rng.uniform(0, 2 * np.pi)
            rotated = hermitize(np.exp(-1j * t) * m)
            xs += list(np.linalg.eigh(rotated)[1][:, -1:].T)
            values = np.array([x.conj() @ m @ x / (x.conj() @ x) for x in xs])
            for weights in (np.eye(len(xs))[-1], rng.dirichlet(np.ones(len(xs)))):
                result = fk.scalar_solvability(omega, gram, complex(weights @ values))
                assert result.status != "outside"

    def test_beyond_spectral_norm_always_outside(self):
        rng = np.random.default_rng(67)
        for k in range(40):
            n = int(rng.integers(1, 13))
            if k % 2:
                m = complex_randn(rng, n, n)
            else:
                # normal with its spectrum on a circle: W reaches the norm
                m = 2.0 * np.diag(np.exp(1j * rng.uniform(0, 2 * np.pi, n)))
            norm = np.linalg.norm(m, 2)
            scale = max(norm, 1.0)
            step = 2 * BOUNDARY_RTOL * scale * (1 + rng.uniform(0, 10.0) ** 2)
            eigen = np.linalg.eigvals(m)
            target = eigen[int(np.argmax(np.abs(eigen)))]
            lam = (norm + step) * target / abs(target)
            result = fk.scalar_solvability(fk.Form(m), fk.NormGram(np.eye(n)), lam)
            assert result.status == "outside"
            assert result.solvable

    def test_distance_not_below_grid(self):
        rng = np.random.default_rng(68)
        for _ in range(50):
            n = int(rng.integers(1, 13))
            m = complex_randn(rng, n, n)
            grid = fk.numerical_range_hull(fk.Form(m))
            radius = float(np.max(grid.support))
            lam = (radius + rng.uniform(0.01, 2.0) * grid.scale) * np.exp(
                1j * rng.uniform(0, 2 * np.pi)
            )
            result = fk.scalar_solvability(fk.Form(m), fk.NormGram(np.eye(n)), lam)
            assert result.status == "outside"
            assert result.distance >= grid.distance(lam) - 1e-12 * grid.scale


def _on_segment(point, ends):
    direction = ends[1] - ends[0]
    t = np.real((point - ends[0]) / direction)
    projected = ends[0] + np.clip(t, 0, 1) * direction
    return abs(point - projected) <= 1e-8


def _hostile_cases():
    rng = np.random.default_rng(74)
    z = complex_randn(rng, 8)
    upper = np.triu_indices(8, 1)
    phases = np.exp(2j * np.pi * rng.uniform(size=upper[0].size))
    tiny, huge = np.diag(z), np.diag(z)
    tiny[upper], huge[upper] = 1e-300 * phases, 1e150 * phases
    # each vertex of a triangle twice, beside a non-normal block inside it: at
    # every angle the top eigenvalue of Re(e^(-i t) M) is at least double
    repeated = np.zeros((9, 9), dtype=complex)
    repeated[:6, :6] = np.diag(np.repeat(2 * np.exp(2j * np.pi * np.arange(3) / 3), 2))
    repeated[6:, 6:] = 0.3 * np.triu(complex_randn(rng, 3, 3))
    u = random_unitary(rng, 9)
    return {
        "tiny-off-diagonal": tiny,
        "huge-off-diagonal": huge,
        "repeated-top": u @ repeated @ u.conj().T,
        "jordan": np.diag(np.ones(11), 1),
    }


def _on_supporting_lines(hull):
    """Every boundary point within ``RAYLEIGH_RTOL`` (of the hull scale) of its
    supporting line Re(e^(-i t) z) = h(t)."""
    reach = np.cos(hull.angles) * hull.points.real + np.sin(hull.angles) * hull.points.imag
    return np.max(np.abs(reach - hull.support)) <= numerics.RAYLEIGH_RTOL * hull.scale


def _numrange_exit(tmp_path, mat) -> int:
    # psi is given: the canonical majorant refuses entries of modulus 1e150
    n = len(mat)
    doc = {"n": n, "omega": encode_matrix(mat).tolist(), "psi": encode_matrix(np.eye(n)).tolist()}
    path = tmp_path / "hostile.json"
    path.write_text(json.dumps(doc))
    return main(["numrange", str(path), "--json"])


class TestInverseIteration:
    """Boundary points from one inverse-iteration step: each lies on its
    supporting line to ``RAYLEIGH_RTOL``, on hostile input too, and a step
    that misses is re-solved by eigh and counted."""

    @pytest.mark.parametrize("case", sorted(_hostile_cases()))
    def test_hostile_points_on_their_supporting_lines(self, tmp_path, capsys, case):
        # off-diagonal entries of 1e-300 leave a diagonal entry decoupled:
        # where eigvalsh's rounding puts the shift exactly on it, the step
        # breaks down and the angle falls back to eigh
        mat = _hostile_cases()[case]
        hull = fk.numerical_range_hull(fk.Form(mat))
        assert _on_supporting_lines(hull)
        assert _numrange_exit(tmp_path, mat) == 0
        capsys.readouterr()

    def test_a_step_off_the_top_eigenvector_falls_back(self, monkeypatch, tmp_path, capsys):
        def bottom(a, b):
            # the top eigenvector of (h + delta) I - B(t) is B(t)'s bottom
            # one, orthogonal to the top eigenvector the step should find
            return np.linalg.eigh(a)[1][..., -1:]

        monkeypatch.setattr(np.linalg, "solve", bottom)
        mat = complex_randn(np.random.default_rng(75), 6, 6)
        hull = fk.numerical_range_hull(fk.Form(mat), 64)
        assert hull.fallbacks == 64
        assert _on_supporting_lines(hull)
        assert _numrange_exit(tmp_path, mat) == 0
        capsys.readouterr()

    def test_numrange_solves_no_eigenvectors(self, monkeypatch, tmp_path, capsys):
        golden = Path(__file__).resolve().parent / "golden" / "instances"
        paths = sorted(golden.glob("*.json"))
        rng = np.random.default_rng(76)
        for n in (4, 24, 48, 96):
            mat = complex_randn(rng, n, n)
            hull = fk.numerical_range_hull(fk.Form(mat))
            assert hull.fallbacks == 0 and _on_supporting_lines(hull)
            paths.append(tmp_path / f"dense-n{n}.json")
            paths[-1].write_text(json.dumps({"n": n, "omega": encode_matrix(mat).tolist()}))
        # parsing may eigensolve a single matrix; a fallback would solve a stack
        vectors = TestSupportFunction._record(monkeypatch, "eigh")
        for path in paths:
            assert main(["numrange", str(path)]) == 0
        capsys.readouterr()
        assert [shape for shape in vectors if len(shape) == 3] == []


class TestSerialStacks:
    """Stacks below the split floor, and the exact diagonal path, are
    solved on the calling thread: nothing reaches the pool."""

    @staticmethod
    def _no_pool(monkeypatch):
        def refuse():
            raise AssertionError("a stack below the split floor reached the pool")

        monkeypatch.setattr(numerics, "blas_workers", lambda: 2)
        monkeypatch.setattr(numerics, "_executor", refuse)

    def test_decisions_at_n48_stay_serial(self, monkeypatch):
        self._no_pool(monkeypatch)
        rng = np.random.default_rng(70)
        psi = random_psd(rng, 48)
        omega = member_form(rng, fk.PositiveForm(psi), 0.8)
        lower, upper = fk.numerical_radius_bounds(omega.matrix)
        assert lower <= upper
        gram = fk.NormGram(np.eye(48) + psi)
        hull = fk.numerical_range_hull(omega, solvable.MIN_HULL_GRID)
        inside = complex(np.mean(hull.points))
        outside = 2 * upper + 1
        statuses = {fk.scalar_solvability(omega, gram, lam).status for lam in (inside, outside)}
        assert statuses == {"inside", "outside"}

    def test_lab_hulls_stay_serial(self, monkeypatch, tmp_path, capsys):
        self._no_pool(monkeypatch)
        path = tmp_path / "fam.json"
        path.write_text(json.dumps({"family": {"name": "diag", "lambda": "n*exp(i*n)", "N": 8}}))
        assert main(["lab", str(path), "--sizes", "8,16,32,48", "--json"]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 4

    def test_numrange_bytes_without_blas_controls(self, monkeypatch, tmp_path, capsys):
        rng = np.random.default_rng(71)
        doc = {"n": 48, "omega": encode_matrix(complex_randn(rng, 48, 48)).tolist()}
        path = tmp_path / "n48.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(numerics, "blas_workers", lambda: 2)
        assert main(["numrange", str(path), "--json"]) == 0
        split = capsys.readouterr().out
        monkeypatch.undo()
        monkeypatch.setattr(numerics, "BLAS_CONTROLS", None)
        assert main(["numrange", str(path), "--json"]) == 0
        assert capsys.readouterr().out == split


class TestSolvability:
    def test_inner_product_unperturbed(self):
        report = fk.solvability_with(
            fk.Form(np.eye(2)), fk.NormGram(np.eye(2)), fk.Form(np.zeros((2, 2)))
        )
        assert report.solvable
        assert abs(report.c1 - 1.0) <= 1e-12 and abs(report.c2 - 1.0) <= 1e-12

    def test_rank_deficient(self):
        report = fk.solvability_with(
            fk.Form([[0.0, 1.0], [0.0, 0.0]]), fk.NormGram(np.eye(2)), fk.Form(np.zeros((2, 2)))
        )
        assert not report.solvable
        assert report.c1 <= 1e-12

    def test_shifted_block(self):
        report = fk.solvability_with(
            fk.Form([[0.0, 1.0], [0.0, 0.0]]),
            fk.NormGram(np.eye(2)),
            fk.Form(np.eye(2)),  # upsilon = -lambda*inner with lambda = -1
        )
        assert report.solvable
        golden = (np.sqrt(5.0) - 1.0) / 2.0
        assert abs(report.c1 - golden) <= 1e-12

    def test_incompatible_gram(self):
        with pytest.raises(fk.IncompatibleNorm):
            fk.solvability_with(
                fk.Form(np.eye(2)), fk.NormGram(np.eye(2) / 4), fk.Form(np.zeros((2, 2)))
            )

    def test_coherence_three_ways(self):
        rng = np.random.default_rng(53)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            omega = fk.Form(complex_randn(rng, n, n))
            if rng.random() < 0.3:
                # plant a kernel
                mat = np.array(omega.matrix, copy=True)
                mat[:, 0] = 0.0
                omega = fk.Form(mat)
            gram = fk.NormGram(np.eye(n) + random_psd(rng, n))
            report = fk.solvability_with(omega, gram, fk.Form(np.zeros((n, n))))
            a = report.system
            by_rank = np.linalg.matrix_rank(a, tol=1e-8 * max(report.c2, 1e-300)) == n
            try:
                x = np.linalg.solve(a, np.eye(n))
                by_solve = frob(a @ x - np.eye(n)) <= 1e-6 * max(1.0, frob(x))
            except np.linalg.LinAlgError:
                by_solve = False
            assert report.solvable == by_rank == by_solve

    def test_inf_sup_brute_force(self):
        rng = np.random.default_rng(54)
        for _ in range(5):
            n = int(rng.integers(2, 7))
            omega = fk.Form(complex_randn(rng, n, n))
            gram = fk.NormGram(np.eye(n) + random_psd(rng, n))
            report = fk.solvability_with(omega, gram, fk.Form(np.zeros((n, n))))
            if not report.solvable:
                continue
            normalized = gram.normalized(report.system)
            samples = complex_randn(rng, 10_000, n)
            samples /= np.linalg.norm(samples, axis=1)[:, None]
            values = np.linalg.norm(samples @ normalized.conj().T, axis=1)
            brute = float(np.min(values))
            assert brute >= report.c1 * (1 - 1e-3)
            assert brute <= report.c2 * (1 + 1e-3)


class TestRepresentOperator:
    def test_identity_shift(self):
        report = fk.represent_operator(fk.Form(np.eye(2)), fk.NormGram(np.eye(2)), 2.0)
        assert np.array_equal(report.system, -np.eye(2, dtype=complex))
        assert report.lam == 2.0
        assert abs(report.resolvent_norm - 1.0) <= 1e-12

    def test_segment_distance(self):
        report = fk.represent_operator(fk.Form(np.diag([0.0, 1.0])), fk.NormGram(np.eye(2)), 2.0)
        assert abs(report.resolvent_norm - 1.0) <= 1e-12

    def test_not_solvable(self):
        with pytest.raises(fk.NotSolvable):
            fk.represent_operator(fk.Form([[0.0, 1.0], [0.0, 0.0]]), fk.NormGram(np.eye(2)), 0.0)

    def test_resolvent_norm_follows_the_inf_sup_verdict(self):
        # normalized, c1 / c2 = 0.55 passes rtol 0.3; the unnormalized
        # singular values 1 and 10 would fail it, and no longer decide
        report = fk.represent_operator(
            fk.Form(np.diag([1.0, 10.0])),
            fk.NormGram(np.diag([2.0, 11.0])),
            0.0,
            rtol=0.3,
        )
        assert report.solvable
        assert report.resolvent_norm == 1.0


class TestScalarSolvability:
    def test_one_path_with_represent_operator(self):
        rng = np.random.default_rng(69)
        nilpotent = fk.Form([[0.0, 1.0], [0.0, 0.0]])
        unit = fk.NormGram(np.eye(2))
        cases = [
            (nilpotent, unit, 2.0, "outside"),
            (nilpotent, unit, 0.4, "inside"),
            (fk.Form(complex_randn(rng, 3, 3)), fk.NormGram(np.eye(3) + random_psd(rng, 3)),
             10.0 + 3.0j, "outside"),
            # W(I) = {1}: the shift -1 is not solvable
            (fk.Form(np.eye(2)), unit, 1.0, "boundary-inconclusive"),
        ]
        verdicts = []
        for omega, gram, lam, status in cases:
            result = fk.scalar_solvability(omega, gram, lam)
            assert result.status == status
            try:
                report = fk.represent_operator(omega, gram, lam)
            except fk.NotSolvable:
                assert not result.solvable
                verdicts.append(False)
                continue
            assert result.solvable
            for name in ("c1", "c2", "lam", "resolvent_norm"):
                assert getattr(report, name) == getattr(result, name)
            verdicts.append(True)
        assert verdicts == [True, True, True, False]

    def test_outside_segment(self):
        result = fk.scalar_solvability(fk.Form(np.diag([0.0, 1.0])), fk.NormGram(np.eye(2)), 2.0)
        assert result.solvable and result.status == "outside"
        assert abs(result.distance - 1.0) <= 1e-9

    def test_report_carries_the_resolvent_norm_when_solvable(self):
        omega = fk.Form([[0.0, 1.0], [0.0, 0.0]])
        solvable = fk.scalar_solvability(omega, fk.NormGram(np.eye(2)), 2.0)
        sigma_min = np.linalg.svd(omega.matrix - 2.0 * np.eye(2), compute_uv=False)[-1]
        assert solvable.lam == 2.0
        assert abs(solvable.resolvent_norm - 1 / sigma_min) <= 1e-12
        refused = fk.scalar_solvability(fk.Form(np.eye(2)), fk.NormGram(np.eye(2)), 1.0)
        assert not refused.solvable
        assert refused.lam is None and refused.resolvent_norm is None

    def test_inside_disk_still_checked(self):
        result = fk.scalar_solvability(
            fk.Form([[0.0, 1.0], [0.0, 0.0]]), fk.NormGram(np.eye(2)), 0.4
        )
        assert result.status == "inside"
        # direct inf-sup decides: det(M - 0.4 I) = 0.16 != 0
        assert result.solvable

    def test_boundary_inconclusive(self):
        result = fk.scalar_solvability(
            fk.Form([[0.0, 1.0], [0.0, 0.0]]), fk.NormGram(np.eye(2)), 0.5
        )
        assert result.status == "boundary-inconclusive"

    def test_outside_implies_solvable_randomly(self):
        rng = np.random.default_rng(56)
        for _ in range(25):
            n = int(rng.integers(1, 9))
            omega = fk.Form(complex_randn(rng, n, n))
            hull = fk.numerical_range_hull(omega)
            radius = float(np.max(np.abs(hull.points)))
            lam = (radius + 0.2 + rng.uniform(0, 1)) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            result = fk.scalar_solvability(omega, fk.NormGram(np.eye(n)), lam)
            assert result.status == "outside"
            assert result.solvable
