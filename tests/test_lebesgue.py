import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formkit as fk
from formkit import numerics
from formkit.numerics import DEFAULT_RANK_TOL, frob, hermitize, min_eig_herm

from conftest import (
    count_pinv,
    coupled_hidden_pair,
    member_form,
    mixed_rank_triple,
    positive_pair,
    random_positive_form,
    random_psd,
    random_unitary,
    schur_short,
)


def count_parallel_sums(monkeypatch):
    calls = []
    original = fk.lebesgue._parallel_sum_matrix

    def counting(a, b, rtol, spectra):
        calls.append(1)
        return original(a, b, rtol, spectra)

    monkeypatch.setattr(fk.lebesgue, "_parallel_sum_matrix", counting)
    return calls


class TestLebesgueDecompose:
    def test_full_rank_reference_is_regular(self):
        rng = np.random.default_rng(30)
        theta = fk.identity_form(3)
        psi = random_positive_form(rng, 3)
        omega = fk.Form(psi.matrix.copy())
        split = fk.lebesgue_decompose(omega, theta, psi)
        assert frob(split.singular.matrix) <= 1e-10 * frob(omega.matrix)
        assert frob(split.regular.matrix - omega.matrix) <= 1e-10 * frob(omega.matrix)

    def test_rank_one_reference_all_singular(self):
        theta = fk.PositiveForm(np.diag([1.0, 0.0]))
        psi = fk.PositiveForm(np.ones((2, 2)))
        omega = fk.Form(np.ones((2, 2)))
        split = fk.lebesgue_decompose(omega, theta, psi)
        assert np.array_equal(split.regular.matrix, np.zeros((2, 2)))
        assert frob(split.singular.matrix - omega.matrix) <= 1e-12

    def test_block_diagonal_split(self):
        theta = fk.PositiveForm(np.diag([1.0, 0.0]))
        psi = fk.PositiveForm(np.diag([3.0, 5.0]))
        omega = fk.Form(np.diag([3.0, 5.0]))
        split = fk.lebesgue_decompose(omega, theta, psi)
        assert np.allclose(split.regular.matrix, np.diag([3.0, 0.0]), atol=1e-10)
        assert np.allclose(split.singular.matrix, np.diag([0.0, 5.0]), atol=1e-10)

    def test_zero_reference(self):
        theta = fk.PositiveForm(np.zeros((2, 2)))
        psi = fk.identity_form(2)
        omega = fk.Form([[0.0, 0.5], [0.0, 0.0]])
        split = fk.lebesgue_decompose(omega, theta, psi)
        assert frob(split.regular.matrix) <= 1e-12
        assert frob(split.singular.matrix - omega.matrix) <= 1e-12

    def test_refuses_nonmember(self):
        with pytest.raises(fk.NotInClassM):
            fk.lebesgue_decompose(fk.Form(2 * np.eye(2)), fk.identity_form(2), fk.identity_form(2))

    def test_zero_majorant_forces_zero_split(self):
        theta = fk.identity_form(2)
        psi = fk.PositiveForm(np.zeros((2, 2)))
        split = fk.lebesgue_decompose(fk.Form(np.zeros((2, 2))), theta, psi)
        assert frob(split.regular.matrix) == 0.0
        assert frob(split.singular.matrix) == 0.0
        with pytest.raises(fk.NotInClassM):
            fk.lebesgue_decompose(fk.Form(np.eye(2)), theta, psi)

    def test_additivity_and_witnesses_random(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            omega, theta, psi = mixed_rank_triple(rng, n)
            split = fk.lebesgue_decompose(omega, theta, psi)
            total = max(frob(omega.matrix), 1e-300)
            assert (
                frob(split.regular.matrix + split.singular.matrix - omega.matrix)
                <= 1e-10 * total
            )
            for idx in range(n):
                e = np.zeros(n, dtype=complex)
                e[idx] = 1.0
                fk.singularity_witness(split, theta, e)

    def test_regular_part_certificate(self):
        rng = np.random.default_rng(32)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            omega, theta, psi = mixed_rank_triple(rng, n)
            split = fk.lebesgue_decompose(omega, theta, psi)
            majorant = split.rep.majorant
            member, _ = fk.in_class_M(split.regular, majorant)
            assert member
            assert fk.is_absolutely_continuous(majorant, theta)

    def test_eqn_identities(self):
        # the stored factor matrix reproduces the regular part through the scale
        rng = np.random.default_rng(33)
        omega, theta, psi = mixed_rank_triple(rng, 5)
        split = fk.lebesgue_decompose(omega, theta, psi)
        core = split.rep.core
        h2 = core.scale @ core.scale
        regular = core.theta_embedding.from_quotient(h2 @ split.rep.factor)
        assert frob(regular - split.regular.matrix) <= 1e-8 * max(frob(omega.matrix), 1e-300)


class TestPositiveLebesgue:
    def test_rank_one_reference(self):
        theta = fk.PositiveForm(np.diag([1.0, 0.0]))
        psi = fk.PositiveForm(np.ones((2, 2)))
        ac, sing = fk.positive_lebesgue(psi, theta)
        assert np.array_equal(ac.matrix, np.zeros((2, 2)))
        assert np.allclose(sing.matrix, psi.matrix, atol=1e-12)

    def test_disjoint_diagonal(self):
        theta = fk.PositiveForm(np.diag([1.0, 0.0]))
        psi = fk.PositiveForm(np.diag([0.0, 1.0]))
        ac, sing = fk.positive_lebesgue(psi, theta)
        assert np.array_equal(ac.matrix, np.zeros((2, 2)))
        assert np.array_equal(sing.matrix, psi.matrix)

    def test_full_rank_reference(self):
        rng = np.random.default_rng(34)
        psi = random_positive_form(rng, 4)
        ac, sing = fk.positive_lebesgue(psi, fk.identity_form(4))
        assert np.array_equal(sing.matrix, np.zeros((4, 4)))
        assert np.array_equal(ac.matrix, psi.matrix)

    def test_additivity(self):
        rng = np.random.default_rng(35)
        for kind in (0, 1, 2):
            psi, theta, _ = positive_pair(rng, 5, kind)
            ac, sing = fk.positive_lebesgue(psi, theta)
            residual = frob(ac.matrix + sing.matrix - psi.matrix)
            assert residual <= 1e-10 * max(frob(psi.matrix), 1e-300)

    def test_parts_have_required_properties(self):
        rng = np.random.default_rng(36)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            kind = int(rng.integers(0, 3))
            psi, theta, _ = positive_pair(rng, n, kind)
            ac, sing = fk.positive_lebesgue(psi, theta)
            assert fk.is_absolutely_continuous(ac, theta)
            assert fk.is_mutually_singular(sing, theta)

    def test_density_root_formula_agrees(self):
        # dual route: the subtraction result matches the density-root matrix
        rng = np.random.default_rng(37)
        for kind in (0, 2):
            psi, theta, _ = positive_pair(rng, 5, kind)
            ac, _ = fk.positive_lebesgue(psi, theta)
            core = fk.lebesgue_decompose(
                fk.Form(psi.matrix.copy()), theta, psi
            ).rep.core
            k2 = core.density_root @ core.density_root
            direct = core.theta_embedding.from_quotient(k2)
            assert frob(direct - ac.matrix) <= 1e-8 * max(frob(psi.matrix), 1e-300)


class TestParallelSum:
    def test_half_identity(self):
        result = fk.parallel_sum(fk.identity_form(2), fk.identity_form(2))
        assert np.allclose(result.matrix, np.eye(2) / 2, atol=1e-14)

    def test_disjoint_diagonals(self):
        a = fk.PositiveForm(np.diag([1.0, 0.0]))
        b = fk.PositiveForm(np.diag([0.0, 1.0]))
        assert frob(fk.parallel_sum(a, b).matrix) == 0.0

    def test_identity_with_ones(self):
        a = fk.identity_form(2)
        b = fk.PositiveForm(np.ones((2, 2)))
        # direct arithmetic oracle: inv([[2,1],[1,2]]) = [[2,-1],[-1,2]]/3
        oracle = np.eye(2) @ (np.array([[2.0, -1.0], [-1.0, 2.0]]) / 3) @ np.ones((2, 2))
        result = fk.parallel_sum(a, b)
        assert np.allclose(result.matrix, oracle, atol=1e-12)
        assert min_eig_herm(a.matrix - result.matrix) >= -1e-10
        assert min_eig_herm(b.matrix - result.matrix) >= -1e-10

    def test_symmetry_and_order(self):
        rng = np.random.default_rng(38)
        for _ in range(30):
            n = int(rng.integers(1, 7))
            a = random_positive_form(rng, n, rank=int(rng.integers(1, n + 1)))
            b = random_positive_form(rng, n, rank=int(rng.integers(1, n + 1)))
            ab = fk.parallel_sum(a, b).matrix
            ba = fk.parallel_sum(b, a).matrix
            scale = max(frob(ab), 1e-300)
            assert frob(ab - ba) <= 1e-9 * max(scale, 1.0)
            assert min_eig_herm(a.matrix - ab) >= -1e-9
            assert min_eig_herm(b.matrix - ab) >= -1e-9


class TestMutualSingularity:
    def test_examples(self):
        d10 = fk.PositiveForm(np.diag([1.0, 0.0]))
        d01 = fk.PositiveForm(np.diag([0.0, 1.0]))
        assert fk.is_mutually_singular(d10, d01)
        assert not fk.is_mutually_singular(fk.identity_form(2), fk.identity_form(2))
        assert fk.is_mutually_singular(fk.PositiveForm(np.ones((2, 2))), d10)

    def test_zero_cases(self):
        zero = fk.PositiveForm(np.zeros((2, 2)))
        assert fk.is_mutually_singular(zero, fk.identity_form(2))
        assert fk.is_mutually_singular(fk.identity_form(2), zero)

    def test_equivalence_with_vanishing_ac_part(self):
        rng = np.random.default_rng(39)
        for k in range(200):
            psi, theta, _ = positive_pair(rng, int(rng.integers(3, 40)), k % 3)
            ac, _ = fk.positive_lebesgue(psi, theta)
            singular = fk.is_mutually_singular(psi, theta)
            vanished = frob(ac.matrix) <= 1e-9 * max(frob(psi.matrix), 1e-300)
            assert singular == vanished

    def test_verdict_does_not_depend_on_the_scales(self):
        rng = np.random.default_rng(44)
        for k in range(30):
            psi, theta, _ = positive_pair(rng, int(rng.integers(2, 9)), k % 3)
            verdict = fk.is_mutually_singular(psi, theta)
            for scale in (1e-12, 1e12):
                scaled = fk.PositiveForm(scale * theta.matrix)
                assert fk.is_mutually_singular(psi, scaled) == verdict
                assert fk.is_mutually_singular(scaled, psi) == verdict

    def test_eigenvalue_near_the_cut_on_disjoint_ranges(self):
        # psi's least positive eigenvalue is above the cut relative to psi's
        # top, so the sum must be cut relative to the same top
        psi = fk.PositiveForm(np.diag([1.0, 1.0, 1.0, 1.0, 1.5e-10, 0.0]))
        theta = fk.PositiveForm(np.diag([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]))
        assert fk.is_mutually_singular(psi, theta)
        assert fk.is_mutually_singular(theta, psi)

    @pytest.mark.parametrize("exponent", range(1, 9))
    def test_two_lines(self, exponent):
        # distinct lines are singular; at an angle a the sum's least
        # eigenvalue is about a^2 / 4 of its largest, so the rank cut merges
        # them from a = 1e-5 on
        angle = 10.0**-exponent
        line = np.array([np.cos(angle), np.sin(angle)])
        psi = fk.PositiveForm(np.diag([1.0, 0.0]))
        theta = fk.PositiveForm(np.outer(line, line))
        assert fk.is_mutually_singular(psi, theta) == (angle >= 1e-4)

    @pytest.mark.parametrize("mu", [1e-4, 1e-5, 1e-8, 1e-9])
    def test_plain_overlap_takes_no_parallel_sum(self, monkeypatch, mu):
        # both forms are positive on e_1; the limit alone does not settle on
        # this pencil by t = 2^20, and the rank identity never takes it
        theta = fk.PositiveForm(np.diag([1.0, mu]))
        with pytest.raises(fk.NoConvergence):
            fk.parallel_sum_limit(fk.identity_form(2), theta)
        calls = count_parallel_sums(monkeypatch)
        assert not fk.is_mutually_singular(fk.identity_form(2), theta)
        assert calls == []

    def test_singular_pairs_take_no_parallel_sum(self, monkeypatch):
        rng = np.random.default_rng(43)
        calls = count_parallel_sums(monkeypatch)
        for _ in range(10):
            psi, theta, _ = positive_pair(rng, int(rng.integers(2, 7)), 1)
            assert fk.is_mutually_singular(psi, theta)
        assert calls == []


class TestSingularityWitness:
    def test_zero_singular_part(self):
        theta = fk.identity_form(2)
        psi = fk.PositiveForm(np.diag([1.0, 2.0]))
        omega = fk.Form(np.diag([0.5, 0.5]))
        split = fk.lebesgue_decompose(omega, theta, psi)
        witness, _, _ = fk.singularity_witness(split, theta, [1.0, 0.0])
        assert np.linalg.norm(witness) <= 1e-12

    def test_hand_case(self):
        theta = fk.PositiveForm(np.diag([1.0, 0.0]))
        psi = fk.PositiveForm(np.ones((2, 2)))
        omega = fk.Form(np.ones((2, 2)))
        split = fk.lebesgue_decompose(omega, theta, psi)
        witness, _, _ = fk.singularity_witness(split, theta, [1.0, 0.0])
        assert abs(theta(witness, witness)) <= 1e-14
        diff = witness - np.array([1.0, 0.0])
        assert abs(split.singular(diff, diff)) <= 1e-12

    def test_block_matches_columns(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            omega, theta, psi = mixed_rank_triple(rng, n)
            split = fk.lebesgue_decompose(omega, theta, psi)
            block, theta_res, singular_res = fk.singularity_witness(split, theta, np.eye(n))
            columns = [fk.singularity_witness(split, theta, e) for e in np.eye(n)]
            for k, (witness, _, _) in enumerate(columns):
                assert np.linalg.norm(block[:, k] - witness) <= 1e-14 * np.linalg.norm(witness)
            # the residuals are already relative (to each form's norm and |xi|^2)
            assert abs(theta_res - max(c[1] for c in columns)) <= 1e-14
            assert abs(singular_res - max(c[2] for c in columns)) <= 1e-14

    def test_vector_gives_vector(self):
        theta = fk.PositiveForm(np.diag([1.0, 0.0]))
        psi = fk.PositiveForm(np.ones((2, 2)))
        split = fk.lebesgue_decompose(fk.Form(np.ones((2, 2))), theta, psi)
        assert fk.singularity_witness(split, theta, [1.0, 0.0])[0].shape == (2,)
        assert fk.singularity_witness(split, theta, [[1.0], [0.0]])[0].shape == (2, 1)

    def test_corrupted_split_is_refused(self):
        theta = fk.PositiveForm(np.diag([1.0, 0.0]))
        psi = fk.PositiveForm(np.ones((2, 2)))
        split = fk.lebesgue_decompose(fk.Form(np.ones((2, 2))), theta, psi)
        fk.singularity_witness(split, theta, np.eye(2))
        corrupted = dataclasses.replace(split, singular=fk.Form(np.eye(2)))
        with pytest.raises(fk.WitnessResidualTooLarge):
            fk.singularity_witness(corrupted, theta, np.eye(2))
        with pytest.raises(fk.WitnessResidualTooLarge):
            fk.singularity_witness(split, fk.identity_form(2), [1.0, 0.0])


class TestMaximality:
    def test_canonical_minorants(self):
        rng = np.random.default_rng(40)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            kind = int(rng.integers(0, 3))
            psi, theta, _ = positive_pair(rng, n, kind)
            ac, _ = fk.positive_lebesgue(psi, theta)
            assert fk.maximality_check(ac, psi, theta)
            for t in (0.3, 0.7):
                scaled = fk.PositiveForm(t * ac.matrix)
                assert fk.maximality_check(scaled, psi, theta)
            oracle = fk.parallel_sum(psi, fk.PositiveForm(2.0**10 * theta.matrix))
            assert fk.maximality_check(oracle, psi, theta)

    def test_precondition_failures(self):
        theta = fk.PositiveForm(np.diag([1.0, 0.0]))
        psi = fk.identity_form(2)
        with pytest.raises(fk.PreconditionFails):
            fk.maximality_check(fk.identity_form(2), psi, theta)  # not a.c.
        with pytest.raises(fk.PreconditionFails):
            fk.maximality_check(
                fk.PositiveForm(np.diag([2.0, 0.0])), psi, theta
            )  # not below psi


class TestOracleEquivalence:
    def test_limit_matches_construction(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            kind = int(rng.integers(0, 3))
            psi, theta, _ = positive_pair(rng, n, kind)
            limit = fk.parallel_sum_limit(psi, theta)
            ac, _ = fk.positive_lebesgue(psi, theta)
            assert frob(limit - ac.matrix) <= 1e-6 * max(1.0, frob(psi.matrix))

    def test_known_block_answer(self):
        rng = np.random.default_rng(42)
        psi, theta, oracle = positive_pair(rng, 5, 2)
        limit = fk.parallel_sum_limit(psi, theta)
        assert frob(limit - oracle) <= 1e-6 * max(1.0, frob(psi.matrix))


class TestExtrapolatedLimit:
    """Ando's limit psi : (t theta) by Romberg extrapolation in 1/t: exact on
    coupled hidden blocks, at most 21 parallel sums, and a refusal, never a
    guess, when the extrapolated steps do not settle."""

    @staticmethod
    def _sequence(monkeypatch, term):
        """Replace the k-th parallel sum by ``term(k)``."""
        calls = []

        def fake(a, b, rtol, spectra):
            calls.append(1)
            return term(len(calls) - 1)

        monkeypatch.setattr(fk.lebesgue, "_parallel_sum_matrix", fake)
        return calls

    @pytest.mark.parametrize("n", [4, 32, 48, 64])
    def test_coupled_hidden_block_matches_schur_short(self, n):
        rng = np.random.default_rng(70 + n)
        for _ in range(3):
            psi, theta, truth = coupled_hidden_pair(rng, n, max(1, n // 4))
            scale = frob(psi.matrix)
            reference = schur_short(psi.matrix, theta.matrix)
            assert frob(reference - truth) <= 1e-13 * scale
            limit = fk.parallel_sum_limit(psi, theta)
            assert frob(limit - reference) <= 1e-9 * scale

    def test_at_most_21_parallel_sums(self, monkeypatch):
        rng = np.random.default_rng(71)
        zero = fk.PositiveForm(np.zeros((8, 8)))
        full = fk.PositiveForm(random_psd(rng, 8))
        hidden_psi, hidden_theta, _ = coupled_hidden_pair(rng, 32, 8)
        pairs = [(full, fk.PositiveForm(random_psd(rng, 8))), (hidden_psi, hidden_theta)]
        pairs += [(zero, full), (full, zero), (zero, zero)]
        calls = count_parallel_sums(monkeypatch)
        for psi, theta in pairs:
            calls.clear()
            fk.parallel_sum_limit(psi, theta)
            assert 5 <= len(calls) <= 21

    def test_refuses_unsettled_steps(self, monkeypatch):
        psi = fk.identity_form(3)
        growing = self._sequence(monkeypatch, lambda k: 2.0**k * np.eye(3))
        with pytest.raises(fk.NoConvergence):
            fk.parallel_sum_limit(psi, psi)
        assert len(growing) == 21
        flat = np.diag([1.0, 0.0, 0.0])
        self._sequence(monkeypatch, lambda k: (-1.0) ** k * flat)
        with pytest.raises(fk.NoConvergence):
            fk.parallel_sum_limit(psi, psi)

    def test_stops_at_the_rounding_floor(self, monkeypatch):
        # a 2^-k tail that column 1 cancels, plus noise growing like 2^k
        limit = np.diag([2.0, 1.0, 0.0])
        tail = np.ones((3, 3))
        noise = 1e-12 * np.diag([1.0, -1.0, 1.0])
        calls = self._sequence(
            monkeypatch, lambda k: limit + 2.0**-k * tail + (-2.0) ** k * noise
        )
        result = fk.parallel_sum_limit(fk.identity_form(3), fk.identity_form(3))
        # the step at k = 5 is the first that does not shrink: k = 4's entry
        assert len(calls) == 6
        assert frob(result - limit) <= 1e-9

    def test_ill_conditioned_pencil_is_refused(self):
        # theta's small eigenvalue is above the rank cut, so the limit is the
        # identity, but t = 2^20 is far too small to see that direction
        with pytest.raises(fk.NoConvergence):
            fk.parallel_sum_limit(fk.identity_form(2), fk.PositiveForm(np.diag([1.0, 1e-9])))

    def test_theta_scale_does_not_matter(self):
        rng = np.random.default_rng(72)
        psi, theta, truth = coupled_hidden_pair(rng, 8, 2)
        for c in (1e-8, 1e6):
            limit = fk.parallel_sum_limit(psi, fk.PositiveForm(c * theta.matrix))
            assert frob(limit - truth) <= 1e-9 * frob(psi.matrix)


def block_diagonal(x, y):
    out = np.zeros((len(x) + len(y),) * 2, dtype=complex)
    out[: len(x), : len(x)], out[len(x) :, len(x) :] = x, y
    return out


def forbid_pinv(monkeypatch):
    def refuse(m, rtol):
        raise AssertionError("the parallel sum took pinv")

    monkeypatch.setattr(fk.lebesgue, "pinv", refuse)


class TestSolveRoute:
    """A parallel sum is applied by an LU solve exactly where Weyl's bounds on
    the two cached spectra show that pinv's cut would keep every singular
    value, and by pinv wherever the cut could act."""

    @pytest.mark.parametrize("n", [4, 32, 64])
    def test_hidden_block_limit_takes_no_pinv(self, monkeypatch, n):
        rng = np.random.default_rng(80 + n)
        psi, theta, truth = coupled_hidden_pair(rng, n, n // 4)
        forbid_pinv(monkeypatch)
        limit = fk.parallel_sum_limit(psi, theta)
        assert frob(limit - truth) <= 1e-9 * frob(psi.matrix)

    def test_singular_psi_definite_theta_takes_no_pinv(self, monkeypatch):
        rng = np.random.default_rng(81)
        psi = random_positive_form(rng, 6, rank=3)
        theta = random_positive_form(rng, 6)
        forbid_pinv(monkeypatch)
        limit = fk.parallel_sum_limit(psi, theta)
        assert frob(limit - psi.matrix) <= 1e-9 * frob(psi.matrix)

    def test_definite_parallel_sum_takes_no_pinv(self, monkeypatch):
        rng = np.random.default_rng(82)
        a, b = random_positive_form(rng, 5), random_positive_form(rng, 5)
        forbid_pinv(monkeypatch)
        result = fk.parallel_sum(a, b).matrix
        direct = a.matrix @ np.linalg.inv(a.matrix + b.matrix) @ b.matrix
        assert frob(result - direct) <= 1e-14 * frob(a.matrix)

    @pytest.mark.parametrize("c", [*np.logspace(-2, 3, 21), 1.9, 2.1, 3.9, 4.1])
    def test_boundary_sweep(self, monkeypatch, c):
        # the sum diag(2, c rtol) is cut for c <= 2; the guard, which needs
        # c rtol > 2 rtol * 2, takes pinv up to c = 4
        rtol = 1e-10
        psi = fk.PositiveForm(np.diag([1.0, c * rtol]))
        theta = fk.PositiveForm(np.diag([1.0, 0.0]))
        calls = count_pinv(monkeypatch)
        result = fk.parallel_sum(psi, theta, rtol).matrix
        assert bool(calls) == (c <= 4)
        if not calls:
            cut = psi.matrix @ numerics.pinv(psi.matrix + theta.matrix, rtol) @ theta.matrix
            assert frob(result - cut) <= 1e-12 * psi.spectral_norm

    def test_rounding_level_kernel_at_zero_rtol_takes_pinv(self, monkeypatch):
        # the shared kernel leaves the sum a least eigenvalue that is only
        # rounding, which a cut at rtol = 0 would trust
        rng = np.random.default_rng(83)
        plane = random_unitary(rng, 4)[:, :3]
        shared = [
            fk.PositiveForm((plane * rng.uniform(0.5, 2.0, 3)) @ plane.conj().T) for _ in range(2)
        ]
        definite = [random_positive_form(rng, 4) for _ in range(2)]
        calls = count_pinv(monkeypatch)
        for a, b in (shared, definite):
            fk.lebesgue._parallel_sum_matrix(a.matrix, b.matrix, 0.0, (a.eig.values, b.eig.values))
        assert calls == [1]  # the definite pair takes the solve

    def test_singular_sums_take_pinv_and_return_its_result(self, monkeypatch):
        rng = np.random.default_rng(84)
        zero, full = fk.PositiveForm(np.zeros((4, 4))), random_positive_form(rng, 4)
        pairs = [(zero, zero), (fk.PositiveForm(np.zeros((0, 0))),) * 2]
        pairs += [positive_pair(rng, int(rng.integers(2, 7)), 1)[:2] for _ in range(5)]
        calls = count_pinv(monkeypatch)
        for a, b in pairs + [(zero, full), (full, zero)]:
            spectra = (a.eig.values, b.eig.values)
            raw = fk.lebesgue._parallel_sum_matrix(a.matrix, b.matrix, DEFAULT_RANK_TOL, spectra)
            cut = a.matrix @ numerics.pinv(a.matrix + b.matrix) @ b.matrix
            assert np.array_equal(raw, cut)
        # a zero form beside a definite one gives a definite sum: the solve
        assert len(calls) == len(pairs)

    @pytest.mark.parametrize("seed", range(5))
    def test_block_diagonal_limit_splits_blockwise(self, monkeypatch, seed):
        # block 1 is definite and takes the solve; block 2's two forms share
        # a kernel vector, so every sum of the whole pair takes pinv
        rng = np.random.default_rng(85 + seed)
        psi1, theta1, _ = coupled_hidden_pair(rng, 6, 2)
        psi2, theta2, _ = coupled_hidden_pair(rng, 3, 1)
        q = random_unitary(rng, 4)
        psi2, theta2 = (
            fk.PositiveForm(hermitize(q @ block_diagonal(m.matrix, np.zeros((1, 1))) @ q.conj().T))
            for m in (psi2, theta2)
        )
        psi = fk.PositiveForm(block_diagonal(psi1.matrix, psi2.matrix))
        theta = fk.PositiveForm(block_diagonal(theta1.matrix, theta2.matrix))
        calls = count_pinv(monkeypatch)
        limit1 = fk.parallel_sum_limit(psi1, theta1)
        assert calls == []
        limit2 = fk.parallel_sum_limit(psi2, theta2)
        calls.clear()
        counted = count_parallel_sums(monkeypatch)
        limit = fk.parallel_sum_limit(psi, theta)
        assert len(calls) == len(counted)
        err = frob(limit - block_diagonal(limit1, limit2))
        assert err <= 1e-9 * frob(psi.matrix)


def absolutely_continuous_triple(rng, n):
    """(omega, theta, psi) with theta of random positive rank and psi
    pulled back from its quotient, so that psi is theta-absolutely continuous."""
    theta = random_positive_form(rng, n, int(rng.integers(1, n + 1)))
    emb = fk.quotient_embedding(theta)
    psi = fk.PositiveForm(hermitize(emb.from_quotient(random_psd(rng, emb.rank))))
    return member_form(rng, psi), theta, psi


class TestUnitaryInvariance:
    """Conjugating the triple by a unitary Q conjugates the split; witnesses
    are not unique, so only identities are compared."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 7),
        absolutely_continuous=st.booleans(),
        seed=st.integers(0, 2**31),
    )
    def test_split_commutes_with_conjugation(self, n, absolutely_continuous, seed):
        rng = np.random.default_rng(seed)
        draw = absolutely_continuous_triple if absolutely_continuous else mixed_rank_triple
        omega, theta, psi = draw(rng, n)
        q = random_unitary(rng, n)

        def conj(m):
            return q.conj().T @ m @ q

        moved_omega = fk.Form(conj(omega.matrix))
        moved_psi = fk.PositiveForm(hermitize(conj(psi.matrix)))
        moved_theta = fk.PositiveForm(hermitize(conj(theta.matrix)))
        split = fk.lebesgue_decompose(omega, theta, psi)
        moved = fk.lebesgue_decompose(moved_omega, moved_theta, moved_psi)
        total = max(frob(omega.matrix), 1e-300)
        assert frob(moved.regular.matrix - conj(split.regular.matrix)) <= 1e-10 * total
        assert frob(moved.singular.matrix - conj(split.singular.matrix)) <= 1e-10 * total
        if absolutely_continuous:
            residuals = fk.representation_residuals(moved.rep, moved_omega, moved_psi)
            assert max(residuals.values()) <= 1e-8, residuals
