import numpy as np
import pytest

import formkit as fk
from formkit.numerics import frob, hermitize

from conftest import complex_randn, random_psd


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
            fk.represent_operator(omega, gram, fk.Form(-3.0 * np.eye(2)))

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


class TestSupportFunction:
    @staticmethod
    def _reference(m, angles):
        """Top eigenvalue of Re(e^(-i t) M), one solve per angle."""
        out = []
        for t in angles:
            rotated = np.exp(-1j * t) * m
            out.append(np.linalg.eigvalsh((rotated + rotated.conj().T) / 2)[-1])
        return np.asarray(out)

    @pytest.mark.parametrize("grid", [16, 17, 90, 721])
    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_matches_per_angle_reference(self, grid, n):
        rng = np.random.default_rng(1000 * grid + n)
        m = complex_randn(rng, n, n)
        support = fk.support_function(fk.Form(m), grid)
        hull = fk.numerical_range_hull(fk.Form(m), grid)
        angles = 2 * np.pi * np.arange(grid) / grid
        assert np.array_equal(support.angles, angles)
        assert np.array_equal(hull.angles, angles)
        reference = self._reference(m, angles)
        scale = max(1.0, float(np.max(np.abs(reference))))
        assert np.max(np.abs(support.support - reference)) <= 1e-12 * scale
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

    def test_even_grid_solves_half_stack(self, monkeypatch):
        m = complex_randn(np.random.default_rng(57), 5, 5)
        values = self._record(monkeypatch, "eigvalsh")
        vectors = self._record(monkeypatch, "eigh")
        fk.support_function(fk.Form(m), 90)
        fk.numerical_range_hull(fk.Form(m), 90)
        assert values == [(45, 5, 5)]
        assert vectors == [(45, 5, 5)]
        fk.support_function(fk.Form(m), 17)
        assert values[-1] == (17, 5, 5)

    def test_support_only_callers_skip_eigenvectors(self, monkeypatch):
        m = complex_randn(np.random.default_rng(58), 4, 4)
        gram = fk.NormGram(np.eye(4) + random_psd(np.random.default_rng(59), 4))
        values = self._record(monkeypatch, "eigvalsh")
        vectors = self._record(monkeypatch, "eigh")
        fk.numerical_radius_bounds(m)
        assert vectors == []
        result = fk.scalar_solvability(fk.Form(m), gram, 10.0)
        assert result.status == "outside"
        # the hull stacks went to eigvalsh; the norm-compatibility check is
        # read from the Gram's construction, so no eigh call is left
        assert values.count((360, 4, 4)) == 2
        assert all(len(shape) == 2 for shape in vectors)

    def test_given_hull_needs_no_eigh(self, monkeypatch):
        m = complex_randn(np.random.default_rng(60), 4, 4)
        gram = fk.NormGram(np.eye(4) + random_psd(np.random.default_rng(61), 4))
        hull = fk.support_function(fk.Form(m), 90)
        vectors = self._record(monkeypatch, "eigh")
        result = fk.scalar_solvability(fk.Form(m), gram, 10.0, hull=hull)
        assert result.status == "outside" and result.solvable
        assert vectors == []


def _on_segment(point, ends):
    direction = ends[1] - ends[0]
    t = np.real((point - ends[0]) / direction)
    projected = ends[0] + np.clip(t, 0, 1) * direction
    return abs(point - projected) <= 1e-8


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
        report = fk.represent_operator(
            fk.Form(np.eye(2)), fk.NormGram(np.eye(2)), fk.Form(-2.0 * np.eye(2))
        )
        assert np.array_equal(report.operator, np.eye(2, dtype=complex))
        assert report.lam == 2.0
        assert abs(report.resolvent_norm - 1.0) <= 1e-12

    def test_segment_distance(self):
        report = fk.represent_operator(
            fk.Form(np.diag([0.0, 1.0])), fk.NormGram(np.eye(2)), fk.Form(-2.0 * np.eye(2))
        )
        assert abs(report.resolvent_norm - 1.0) <= 1e-12

    def test_not_solvable(self):
        with pytest.raises(fk.NotSolvable):
            fk.represent_operator(
                fk.Form([[0.0, 1.0], [0.0, 0.0]]),
                fk.NormGram(np.eye(2)),
                fk.Form(np.zeros((2, 2))),
            )

    def test_representation_identity(self):
        rng = np.random.default_rng(55)
        n = 5
        omega = fk.Form(complex_randn(rng, n, n))
        lam = 100.0 + 0j  # far outside
        report = fk.represent_operator(
            omega, fk.NormGram(np.eye(n)), fk.Form(-lam * np.eye(n))
        )
        xi, eta = complex_randn(rng, n), complex_randn(rng, n)
        assert abs(omega(xi, eta) - eta.conj() @ (report.operator @ xi)) <= 1e-10 * max(
            1.0, abs(omega(xi, eta))
        )


class TestScalarSolvability:
    def test_outside_segment(self):
        result = fk.scalar_solvability(fk.Form(np.diag([0.0, 1.0])), fk.NormGram(np.eye(2)), 2.0)
        assert result.solvable and result.status == "outside"
        assert abs(result.distance - 1.0) <= 1e-9

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
            result = fk.scalar_solvability(omega, fk.NormGram(np.eye(n)), lam, hull=hull)
            assert result.status == "outside"
            assert result.solvable
