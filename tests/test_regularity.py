import cmath
import re

import numpy as np
import pytest

import formkit as fk
from formkit import solvable
from formkit.numerics import (
    BUILT_PSD_TOL,
    MEMBERSHIP_SLACK,
    frob,
    hermitize,
    min_eig_herm,
    specnorm,
)

from conftest import (
    complex_randn,
    coupled_hidden_pair,
    member_form,
    mixed_rank_triple,
    positive_pair,
    random_operator_instance,
    random_psd,
    random_unitary,
)


class TestInClassM:
    def test_nilpotent_against_identity(self):
        # spectral norm of the compressed operator is exactly 1
        member, margin = fk.in_class_M(fk.Form([[0.0, 1.0], [0.0, 0.0]]), fk.identity_form(2))
        assert member
        assert abs(margin) <= 1e-12

    def test_double_identity_fails(self):
        member, margin = fk.in_class_M(fk.Form(2 * np.eye(2)), fk.identity_form(2))
        assert not member
        assert abs(margin + 1.0) <= 1e-12

    def test_zero_form(self):
        psi = fk.PositiveForm(np.diag([3.0, 0.0]))
        member, margin = fk.in_class_M(fk.Form(np.zeros((2, 2))), psi)
        assert member and margin == 1.0

    def test_kernel_obstruction(self):
        member, margin = fk.in_class_M(fk.Form(np.eye(2)), fk.PositiveForm(np.diag([1.0, 0.0])))
        assert not member
        assert margin == float("-inf")

    def test_kernel_check_takes_the_norm_of_omega_once(self, monkeypatch):
        calls = []
        original = np.linalg.norm

        def recording(x, ord=None, *args, **kwargs):
            if ord == 2:
                calls.append(np.shape(x))
            return original(x, ord, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", recording)
        omega = fk.Form(complex_randn(np.random.default_rng(21), 3, 3))
        fk.in_class_M(omega, fk.identity_form(3))
        assert calls == [(3, 3)]  # no kernel: only the compressed operator's norm
        calls.clear()
        psi = fk.PositiveForm(np.diag([3.0, 2.0, 0.0]))
        for _ in range(2):
            fk.in_class_M(omega, psi)
        assert calls.count((3, 3)) == 1

    def test_constructed_members(self):
        rng = np.random.default_rng(20)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            psi = fk.PositiveForm(
                np.eye(n, dtype=complex) * rng.uniform(0.5, 2.0)
            )
            omega = member_form(rng, psi, rho=0.8)
            member, margin = fk.in_class_M(omega, psi)
            assert member
            assert margin >= 0.2 - 1e-9


class TestEpsilonBound:
    """The quadratic bound |omega(xi, xi)| <= psi(xi, xi) as ``membership``
    decides it, with the class-M verdict, from one compression."""

    def test_symmetric_case(self):
        check = fk.membership(fk.Form(np.diag([1.0, -1.0])), fk.identity_form(2))
        assert check.epsilon == 1
        assert check.member and check.failure is None

    def test_nilpotent_case(self):
        check = fk.membership(fk.Form([[0.0, 1.0], [0.0, 0.0]]), fk.identity_form(2))
        assert check.epsilon == 2
        # quadratic maximum is the numerical radius 1/2 of the shift block
        assert 0.5 - 1e-3 <= check.quadratic_norm <= 0.5 + 1e-9
        assert check.member and check.failure is None

    def test_zero_form(self):
        check = fk.membership(fk.Form(np.zeros((2, 2))), fk.identity_form(2))
        assert check.member and check.failure is None

    def test_violation_fails(self):
        check = fk.membership(fk.Form(2 * np.eye(2)), fk.identity_form(2))
        assert not check.member and check.quadratic_norm is None
        assert check.failure == "quadratic maximum 2.000000e+00 over the psi-unit sphere exceeds 1"
        check = fk.membership(fk.Form(np.eye(2)), fk.PositiveForm(np.diag([1.0, 0.0])))
        assert (check.member, check.margin, check.quadratic_norm) == (False, float("-inf"), None)
        assert check.failure == "the kernel of psi carries a nonzero quadratic of omega"

    def test_corner_probe_exceeds(self, monkeypatch):
        # |omega(e1, e1)| = 1 + 1e-6 at the corner e^(i pi/720), which no
        # seed angle hits; the worst outer vertex is that corner, so the first
        # refinement samples its direction and the bound is refused outright
        lam = (1 + 1e-6) * np.exp(1j * np.pi / 720)
        rounds = []
        add = solvable.NumericalRangeHull.add

        def recording(hull, angles):
            rounds.append((np.mod(angles[0], np.pi), add(hull, angles)))
            return rounds[-1][1]

        monkeypatch.setattr(solvable.NumericalRangeHull, "add", recording)
        check = fk.membership(fk.Form(np.diag([lam, 0.0])), fk.identity_form(2))
        assert re.search("exceeds 1", check.failure)
        assert "1.000001e+00" in check.failure
        assert len(rounds) == 1
        direction, solves = rounds[0]
        assert solves == 1 and abs(direction - np.pi / 720) <= 1e-12

    def test_normal_member_holds(self):
        # the compressed matrix is unitary-diagonal: radius 1 exactly, which
        # the spectral-norm end of the bracket decides
        inst = fk.diag_family([n * np.exp(1j * n) for n in range(1, 9)])
        check = fk.membership(inst.omega, inst.psi)
        assert check.member and check.failure is None
        assert abs(check.quadratic_norm - 1.0) <= 1e-5

    def test_non_normal_knife_edge_inconclusive(self):
        # numerical radius 1 - 1e-6, spectral norm 2 (1 - 1e-6)
        omega = fk.Form([[0.0, 2 * (1 - 1e-6)], [0.0, 0.0]])
        check = fk.membership(omega, fk.identity_form(2))
        assert re.search("inconclusive", check.failure)
        assert check.quadratic_norm is None

    def test_rank_zero_compression(self):
        # omega = psi = 0: the compression is 0 x 0 and its radius bracket is [0, 0]
        zero = np.zeros((2, 2))
        check = fk.membership(fk.Form(zero), fk.PositiveForm(zero))
        assert check == fk.Membership(
            member=True, margin=1.0, epsilon=1, quadratic_norm=0.0, failure=None
        )


class TestOneKernelCut:
    """Membership takes psi's rank cut once: the quotient embedding carries
    the kernel for the obstruction test and the basis for the compression."""

    @staticmethod
    def _count_cuts(monkeypatch, psi):
        calls = []
        original = fk.forms.rank_cut

        def counting(values, *args, **kwargs):
            calls.append(values is psi.eig.values)
            return original(values, *args, **kwargs)

        monkeypatch.setattr(fk.forms, "rank_cut", counting)
        return calls

    def test_in_class_M(self, monkeypatch):
        psi = fk.PositiveForm(np.diag([1.0, 0.5, 0.0]))
        calls = self._count_cuts(monkeypatch, psi)
        assert fk.in_class_M(fk.Form(np.diag([0.5, 0.25, 0.0])), psi)[0]
        assert calls == [True]
        calls.clear()
        # an obstruction is decided from the same single cut
        assert fk.in_class_M(fk.Form(np.eye(3)), psi) == (False, float("-inf"))
        assert calls == [True]

    def test_membership(self, monkeypatch):
        psi = fk.PositiveForm(np.diag([1.0, 0.5, 0.0]))
        calls = self._count_cuts(monkeypatch, psi)
        omega = fk.Form([[0.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        check = fk.membership(omega, psi)
        assert check.epsilon == 2 and check.member and check.failure is None
        # the quadratic bound is read off the same compression
        assert calls == [True]


class TestScaledMembership:
    """Membership in the class of epsilon*psi is |C| <= epsilon on the
    compression C, so its margin is 1 - (1 - margin) / epsilon; the oracle
    builds epsilon*psi as a positive form and decides its class from scratch."""

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_scaled_form(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 7))
        psi = fk.PositiveForm(random_psd(rng, n, int(rng.integers(1, n + 1))))
        omega = member_form(rng, psi)
        for form, eps in ((omega, 2), (fk.Form(hermitize(omega.matrix)), 1)):
            check = fk.membership(form, psi)
            member, margin = fk.in_class_M(form, fk.PositiveForm(eps * psi.matrix))
            assert check.epsilon == eps and check.failure is None
            scaled = 1.0 - (1.0 - check.margin) / eps
            assert member == (scaled >= -MEMBERSHIP_SLACK)
            assert abs(scaled - margin) <= 1e-15
            if eps == 1:
                assert check.margin == margin

    def test_built_forms_take_no_psd_check(self, monkeypatch):
        # eps * psi is not built, and theta + psi is PSD by construction
        rng = np.random.default_rng(7)
        omega, theta, psi = mixed_rank_triple(rng, 5)
        theta = fk.PositiveForm(theta.matrix + psi.matrix)  # psi is theta-a.c.
        calls = []
        original = fk.numerics.psd_eig

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(fk.numerics, "psd_eig", counting)
        fk.membership(omega, psi)
        assert calls == []
        fk.radon_nikodym(omega, theta, psi)
        assert calls == []


class TestThetaCutOnce:
    """The Radon-Nikodym construction takes theta's rank cut once: the
    kernel inclusion is tested on the core's own theta embedding."""

    @staticmethod
    def _count_theta_cuts(monkeypatch, theta):
        calls = []
        original = fk.forms.rank_cut

        def counting(values, *args, **kwargs):
            calls.append(values is theta.eig.values)
            return original(values, *args, **kwargs)

        monkeypatch.setattr(fk.forms, "rank_cut", counting)
        return calls

    @pytest.mark.parametrize("theta_diag", [[1.0, 2.0, 0.5], [1.0, 2.0, 0.0]])
    def test_radon_nikodym(self, monkeypatch, theta_diag):
        theta = fk.PositiveForm(np.diag(theta_diag))
        psi = fk.PositiveForm(np.diag([1.0, 0.5, 0.0]))
        calls = self._count_theta_cuts(monkeypatch, theta)
        fk.radon_nikodym(fk.Form(np.diag([0.5, 0.25, 0.0])), theta, psi)
        assert calls.count(True) == 1

    def test_refusal_takes_one_cut(self, monkeypatch):
        theta = fk.PositiveForm(np.diag([1.0, 0.0]))
        calls = self._count_theta_cuts(monkeypatch, theta)
        with pytest.raises(fk.NotAbsolutelyContinuous):
            fk.radon_nikodym(fk.Form(np.eye(2)), theta, fk.identity_form(2))
        assert calls.count(True) == 1
        calls.clear()
        with pytest.raises(fk.NotAbsolutelyContinuous):
            fk.dominated_sequence(fk.identity_form(2), theta, 2)
        assert calls.count(True) == 1

    def test_membership_is_refused_first(self):
        # both refusals apply; the class-M one is reported
        with pytest.raises(fk.NotInClassM):
            fk.radon_nikodym(
                fk.Form(2 * np.eye(2)), fk.PositiveForm(np.diag([1.0, 0.0])), fk.identity_form(2)
            )


class TestAbsoluteContinuity:
    def test_full_rank_reference(self):
        rng = np.random.default_rng(21)
        psi = fk.PositiveForm(np.abs(complex_randn(rng, 1, 1)) * np.eye(3))
        assert fk.is_absolutely_continuous(psi, fk.identity_form(3))

    def test_kernel_obstruction(self):
        theta = fk.PositiveForm(np.diag([1.0, 0.0]))
        assert not fk.is_absolutely_continuous(fk.identity_form(2), theta)

    def test_shared_kernel(self):
        theta = fk.PositiveForm(np.diag([1.0, 0.0]))
        psi = fk.PositiveForm(np.diag([3.0, 0.0]))
        assert fk.is_absolutely_continuous(psi, theta)


class TestCanonicalMajorant:
    def test_zero_operator(self):
        assert np.array_equal(fk.canonical_majorant(np.zeros((2, 2))).matrix, np.eye(2))

    def test_nonnegative_diagonal(self):
        lam = np.array([2.0, 0.0, 0.5])
        maj = fk.canonical_majorant(np.diag(lam))
        assert np.allclose(maj.matrix, np.diag(1 + 2 * lam), atol=1e-12)

    def test_shift_block(self):
        maj = fk.canonical_majorant([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(maj.matrix, 2 * np.eye(2), atol=1e-12)

    def test_membership_always(self):
        rng = np.random.default_rng(22)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            t = complex_randn(rng, n, n)
            member, margin = fk.in_class_M(fk.Form(t), fk.canonical_majorant(t))
            assert member

    def test_ill_conditioned_diagonal(self):
        # t^H t = diag(1e12, 25): the small root 5 must stay in h, or the
        # majorant is 1 on e2 where |omega(e2, e2)| = 5
        t = np.diag([1e6, 5.0])
        member, margin = fk.in_class_M(fk.Form(t), fk.canonical_majorant(t))
        assert member and margin > 0

    def test_membership_ill_conditioned(self):
        # singular values from s_min in [1, 10] up to 1e6-1e9 times that
        rng = np.random.default_rng(23)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            kappa = 10.0 ** rng.uniform(6.0, 9.0)
            s = np.geomspace(kappa, 1.0, n) * rng.uniform(1.0, 10.0)
            t = (random_unitary(rng, n) * s) @ random_unitary(rng, n).conj().T
            member, _ = fk.in_class_M(fk.Form(t), fk.canonical_majorant(t))
            assert member, (n, kappa)


class TestRadonNikodym:
    def test_hand_traced_diagonal(self):
        theta = fk.identity_form(2)
        psi = fk.PositiveForm(np.diag([4.0, 0.0]))
        omega = fk.Form(np.diag([4.0, 0.0]))
        rep = fk.radon_nikodym(omega, theta, psi)
        assert np.allclose(rep.core.scale, np.diag([np.sqrt(5.0), 1.0]), atol=1e-12)
        assert np.allclose(rep.core.density_root, np.diag([2.0, 0.0]), atol=1e-12)
        assert np.allclose(rep.core.spectrum, [1 / np.sqrt(5.0), 1.0], atol=1e-12)
        res = fk.representation_residuals(rep, omega, psi)
        assert max(res.values()) <= 1e-12

    def test_zero_form(self):
        theta = fk.identity_form(2)
        psi = fk.PositiveForm(np.diag([1.0, 2.0]))
        rep = fk.radon_nikodym(fk.Form(np.zeros((2, 2))), theta, psi)
        assert frob(rep.factor) <= 1e-12
        res = fk.representation_residuals(rep, fk.Form(np.zeros((2, 2))), psi)
        assert max(res.values()) <= 1e-10

    def test_refusals(self):
        with pytest.raises(fk.NotInClassM):
            fk.radon_nikodym(fk.Form(2 * np.eye(2)), fk.identity_form(2), fk.identity_form(2))
        with pytest.raises(fk.NotAbsolutelyContinuous):
            fk.radon_nikodym(
                fk.Form(np.eye(2)),
                fk.PositiveForm(np.diag([1.0, 0.0])),
                fk.identity_form(2),
            )

    def test_identities_on_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            omega, theta, psi = random_operator_instance(rng, n)
            rep = fk.radon_nikodym(omega, theta, psi)
            res = fk.representation_residuals(rep, omega, psi)
            assert max(res.values()) <= 1e-8, res
            member, _ = fk.in_class_M(omega, rep.majorant)
            assert member
            assert fk.is_absolutely_continuous(rep.majorant, theta)

    def test_majorant_is_built_on_first_read(self):
        rng = np.random.default_rng(26)
        omega, theta, psi = random_operator_instance(rng, 4)
        rep = fk.radon_nikodym(omega, theta, psi)
        assert "majorant" not in vars(rep)
        assert rep.majorant is rep.majorant
        assert "majorant" in vars(rep)

    def test_contraction_and_isometry_bounds(self):
        rng = np.random.default_rng(24)
        omega, theta, psi = random_operator_instance(rng, 5)
        rep = fk.radon_nikodym(omega, theta, psi)
        u = rep.core.sum_to_theta
        eigs = np.linalg.eigvalsh(hermitize(u.conj().T @ u))
        assert eigs[0] >= -1e-9 and eigs[-1] <= 1 + 1e-9
        # the frame is unitary on the theta-quotient: B^H B = I = B B^H
        frame = rep.core.frame
        for gram in (frame.conj().T @ frame, frame @ frame.conj().T):
            assert frob(gram - np.eye(gram.shape[0])) <= 1e-9


class TestOneFrame:
    """The scale, the density root and the scale's inverse are diagonal in the
    frame of the one eigensolve of u^H u."""

    @staticmethod
    def _pairs(rng):
        for _ in range(30):
            _, theta, psi = mixed_rank_triple(rng, int(rng.integers(1, 9)))
            yield theta, psi
        psi, theta, _ = coupled_hidden_pair(rng, 12, 3)  # theta hides a block
        yield theta, psi
        psi, theta, _ = positive_pair(rng, 6, 2)  # psi is not theta-a.c.
        yield theta, psi

    def test_scale_identities(self):
        rng = np.random.default_rng(27)
        for theta, psi in self._pairs(rng):
            core = fk.regularity._rn_core(theta, psi)
            h, k = core.scale, core.density_root
            eye = np.eye(h.shape[0])
            assert frob(h @ h - eye - k @ k) <= 1e-12 * max(1.0, frob(h @ h))
            inverse = core.in_frame(core.spectrum, 1.0)
            assert frob(h @ inverse - eye) <= 1e-12 * max(1.0, frob(h))

    def test_eigensolves(self, monkeypatch):
        rng = np.random.default_rng(28)
        _, theta, psi = mixed_rank_triple(rng, 6)
        omega, theta_i, psi_i = random_operator_instance(rng, 5)
        rep = fk.radon_nikodym(omega, theta_i, psi_i)
        calls = []
        for name in ("eigh", "svd"):
            original = getattr(np.linalg, name)

            def counting(*args, name=name, original=original, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        fk.regularity._rn_core(theta, psi)
        assert calls == ["eigh", "eigh"]  # the sum form's, then u^H u's
        calls.clear()
        fk.kato_S(rep)
        assert calls == []


class TestKatoMiddleOperator:
    def test_hand_traced(self):
        theta = fk.identity_form(2)
        psi = fk.PositiveForm(np.diag([4.0, 0.0]))
        omega = fk.Form(np.diag([4.0, 0.0]))
        rep = fk.radon_nikodym(omega, theta, psi)
        middle = fk.kato_S(rep)
        assert np.allclose(middle, np.diag([0.8, 0.0]), atol=1e-12)

    def test_zero(self):
        theta = fk.identity_form(2)
        psi = fk.PositiveForm(np.diag([1.0, 2.0]))
        rep = fk.radon_nikodym(fk.Form(np.zeros((2, 2))), theta, psi)
        assert frob(fk.kato_S(rep)) <= 1e-12

    def test_identity_on_random_instance(self):
        rng = np.random.default_rng(25)
        omega, theta, psi = random_operator_instance(rng, 6)
        rep = fk.radon_nikodym(omega, theta, psi)
        middle = fk.kato_S(rep)
        h = rep.core.scale
        recovered = rep.core.theta_embedding.from_quotient(h @ middle @ h)
        assert frob(recovered - omega.matrix) <= 1e-8 * frob(omega.matrix)


class TestDominatedSequence:
    def test_hand_traced_stages(self):
        theta = fk.identity_form(2)
        psi = fk.PositiveForm(np.diag([4.0, 0.0]))
        assert frob(fk.dominated_sequence(psi, theta, 1).matrix) <= 1e-14
        assert frob(fk.dominated_sequence(psi, theta, 2).matrix) <= 1e-14
        for n in (3, 4, 9):
            assert np.allclose(
                fk.dominated_sequence(psi, theta, n).matrix, psi.matrix, atol=1e-12
            )
        assert fk.dominated_sequence_stabilization(psi, theta) == 3

    def test_zero_form(self):
        theta = fk.identity_form(2)
        psi = fk.PositiveForm(np.zeros((2, 2)))
        for n in (1, 4):
            assert frob(fk.dominated_sequence(psi, theta, n).matrix) == 0.0

    def test_monotone_and_dominated(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            _, theta, psi = random_operator_instance(rng, n)
            previous = None
            for stage in range(1, 9):
                current = fk.dominated_sequence(psi, theta, stage)
                # stage n keeps the weights w^2 = 1/t^2 - 1 with t >= 1/n
                bound = (stage**2 - 1) * theta.matrix - current.matrix
                assert min_eig_herm(bound) >= -1e-10 * max(1.0, theta.spectral_norm)
                if previous is not None:
                    assert min_eig_herm(current.matrix - previous.matrix) >= -1e-10
                previous = current

    def test_exact_stabilization(self):
        rng = np.random.default_rng(27)
        _, theta, psi = random_operator_instance(rng, 5)
        index = fk.dominated_sequence_stabilization(psi, theta)
        settled = fk.dominated_sequence(psi, theta, index)
        for n in (index + 1, index + 3, index + 10):
            assert np.array_equal(fk.dominated_sequence(psi, theta, n).matrix, settled.matrix)

    def test_refuses_without_continuity(self):
        with pytest.raises(fk.NotAbsolutelyContinuous):
            fk.dominated_sequence(fk.identity_form(2), fk.PositiveForm(np.diag([1.0, 0.0])), 2)

    def test_refuses_a_stage_below_one(self):
        with pytest.raises(ValueError, match="positive integer"):
            fk.dominated_sequence(fk.identity_form(2), fk.identity_form(2), 0)

    def test_zero_form_is_constant_from_the_start(self):
        psi = fk.PositiveForm(np.zeros((2, 2)))
        assert fk.dominated_sequence_stabilization(psi, fk.identity_form(2)) == 1


class TestFloor:
    """The closed-form sup{t : a - t p PSD} against bisection on the sign of
    the least eigenvalue of a - t p, which does not increase with t."""

    @staticmethod
    def _feasible(a, p, t):
        return np.linalg.eigvalsh(hermitize(a - t * p))[0] >= 0.0

    def _bisect(self, a, p):
        lo, hi = -1.0, 1.0
        while not self._feasible(a, p, lo):
            lo *= 2.0
        while self._feasible(a, p, hi):
            hi *= 2.0
        for _ in range(200):
            mid = (lo + hi) / 2.0
            lo, hi = (mid, hi) if self._feasible(a, p, mid) else (lo, mid)
        return lo

    @staticmethod
    def _floor(a, p):
        scale = max(1.0, np.linalg.norm(a, 2), np.linalg.norm(p, 2))
        return fk.regularity._floor(a, fk.PositiveForm(p).eig, scale, fk.DEFAULT_RANK_TOL)

    def test_matches_bisection(self):
        rng = np.random.default_rng(83)
        for trial in range(24):
            n = int(rng.integers(2, 7))
            p = random_psd(rng, n, rank=n - min(trial % 3, n - 1))
            a = hermitize(complex_randn(rng, n, n))
            # make a positive definite on ker p, so that the supremum is finite
            values, vectors = np.linalg.eigh(p)
            null = vectors[:, values <= 1e-8 * values[-1]]
            low = np.linalg.eigvalsh(null.conj().T @ a @ null)[0] if null.shape[1] else 0.0
            a = a + (1.0 + abs(low)) * null @ null.conj().T
            expected = self._bisect(a, p)
            assert abs(self._floor(a, p) - expected) <= 1e-9 * max(1.0, abs(expected))

    @pytest.mark.parametrize(
        "a, p, expected",
        [
            (np.diag([1.0, -1.0]), np.diag([1.0, 0.0]), -np.inf),  # indefinite on ker p
            ([[1.0, 1.0], [1.0, 0.0]], np.diag([1.0, 0.0]), -np.inf),  # couples into ker p
            (np.diag([1.0, 0.0]), np.zeros((2, 2)), np.inf),
            (np.diag([1.0, -1.0]), np.zeros((2, 2)), -np.inf),
        ],
        ids=["indefinite-on-kernel", "coupled-kernel", "zero-p", "zero-p-indefinite"],
    )
    def test_infinite_cases(self, a, p, expected):
        a = np.asarray(a, dtype=complex)
        assert self._floor(a, p) == expected
        # the oracle: every t is feasible, or none is
        for t in (-1e12, 0.0, 1e12):
            assert self._feasible(a, p, t) == (expected > 0)


def kato_majorant_holds(omega, theta, cert):
    """Kato's bound as an oracle: a sector (delta, gamma) makes
    (1 + gamma)(Re omega - delta theta) a Cauchy-Schwarz majorant of
    omega - delta theta. The majorant is widened by the vertex slack, which
    the sector check grants Re omega - delta theta."""
    real = hermitize(omega.matrix)
    scale = max(1.0, specnorm(omega.matrix), specnorm(theta.matrix))
    base = hermitize(real - cert.delta * theta.matrix)
    widened = base + MEMBERSHIP_SLACK * scale * np.eye(base.shape[0])
    majorant = fk.PositiveForm((1.0 + cert.gamma) * widened, tol=BUILT_PSD_TOL)
    member, _ = fk.in_class_M(fk.Form(omega.matrix - cert.delta * theta.matrix), majorant)
    return member


def near_singular_rotation(seed):
    """U diag(1e6, 1e6 + 1e-3, 1e6 + 2e-3) U^H for a seeded random unitary U."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    return fk.Form(u @ np.diag([1e6, 1e6 + 1e-3, 1e6 + 2e-3]) @ u.conj().T)


class TestSectoriality:
    def test_explicit_certificate(self):
        omega = fk.Form(np.diag([1 + 1j, 2.0]))
        cert = fk.sectorial_parameters(omega, fk.identity_form(2), 0.0, 1.0)
        assert cert.margin >= -1e-9
        assert kato_majorant_holds(omega, fk.identity_form(2), cert)

    def test_tight_certificate(self):
        cert = fk.sectorial_parameters(fk.Form(np.eye(2)), fk.identity_form(2), 1.0, 0.0)
        assert abs(cert.margin) <= 1e-12

    def test_vertex_violation(self):
        with pytest.raises(fk.NotSectorial):
            fk.sectorial_parameters(fk.Form(-np.eye(2)), fk.identity_form(2), 0.0, 1.0)

    def test_refuses_half_a_pair(self):
        with pytest.raises(ValueError, match="supply both delta and gamma"):
            fk.sectorial_parameters(fk.Form(np.eye(2)), fk.identity_form(2), delta=0.5)

    def test_vertex_violation_reports_unscaled_eigenvalue(self):
        sizes = np.arange(1, 65)
        omega = fk.Form(np.diag(sizes * np.exp(1j * sizes)))
        with pytest.raises(fk.NotSectorial) as info:
            fk.sectorial_parameters(omega, fk.identity_form(64), -46.7, 2.0**20)
        message = str(info.value)
        assert message.startswith("real part minus -46.7 * theta")
        least = float(re.search(r"least eigenvalue (\S+)", message).group(1))
        # min n cos n + 46.7 over n = 1..64
        assert abs(least - (-10.44)) <= 1e-2
        assert "scale 64" in message

    def test_slope_violation(self):
        omega = fk.Form(np.diag([1j, 1.0]))
        # at delta=0 the first entry has zero real part but nonzero imaginary
        with pytest.raises(fk.NotSectorial):
            fk.sectorial_parameters(omega, fk.identity_form(2), 0.0, 4.0)

    def test_grid_search_finds_diagonal_sector(self):
        omega = fk.Form(np.diag([1 + 1j, 2.0, 3.0 - 0.5j]))
        cert = fk.sectorial_parameters(omega, fk.identity_form(3))
        assert cert.margin >= -1e-9

    @staticmethod
    def _hermitian_pair(rng, n, kernel_dim):
        """omega with positive definite real part, theta with a kernel of
        the given dimension."""
        a = complex_randn(rng, n, n - 1)
        re = a @ a.conj().T / n + 0.5 * np.eye(n)
        im = hermitize(complex_randn(rng, n, n))
        theta = fk.PositiveForm(random_psd(rng, n, rank=n - kernel_dim))
        return fk.Form(re + 1j * im), theta

    def test_search_slope_is_optimal(self):
        rng = np.random.default_rng(71)
        for trial in range(12):
            n = int(rng.integers(2, 7))
            omega, theta = self._hermitian_pair(rng, n, trial % 2)
            cert = fk.sectorial_parameters(omega, theta)
            again = fk.sectorial_parameters(omega, theta, cert.delta, cert.gamma)
            assert again.gamma == cert.gamma
            with pytest.raises(fk.NotSectorial, match="imaginary part exceeds"):
                fk.sectorial_parameters(omega, theta, cert.delta, cert.gamma * (1 - 1e-6))

    def test_search_stops_short_of_a_kernel_vertex(self):
        # the vertex 0 leaves the shifted real part diag(0, 1) with kernel e1,
        # which the imaginary part diag(1, 0) does not annihilate; the frontier
        # at the cap is -2^-20 and the scale is 1
        cert = fk.sectorial_parameters(fk.Form(np.diag([1j, 1.0])), fk.identity_form(2))
        delta = -(2.0**-20) - fk.regularity.MEMBERSHIP_SLACK
        assert abs(cert.delta - delta) <= 1e-15
        assert abs(cert.gamma - 1.0 / -delta) <= 1e-9 * cert.gamma
        assert cert.gamma <= fk.regularity.SECTOR_SLOPE_CAP

    def test_search_vertex_is_the_schur_complement(self):
        # theta = diag(1, 0) is singular: the largest vertex is the Schur
        # complement 1 - 1 * 1 / 2 of the kernel entry 2 of the real part
        omega = fk.Form([[1.0, 1.0], [1.0, 2.0]])
        theta = fk.PositiveForm(np.diag([1.0, 0.0]))
        cert = fk.sectorial_parameters(omega, theta)
        scale = (3.0 + np.sqrt(5.0)) / 2.0
        assert abs(cert.delta - (0.5 - fk.regularity.MEMBERSHIP_SLACK * scale)) <= 1e-15
        assert cert.gamma == 0.0
        with pytest.raises(fk.NotSectorial, match="real part minus"):
            fk.sectorial_parameters(omega, theta, 0.5 + 1e-6, 0.0)

    def test_search_certifies_a_hermitian_form(self):
        # the frontier vertex of a Hermitian form leaves the shifted real part
        # singular up to the slack, where the membership bound 1 is attained
        rng = np.random.default_rng(5)
        for _ in range(10):
            re_part = hermitize(complex_randn(rng, 5, 5))
            cert = fk.sectorial_parameters(fk.Form(re_part), fk.identity_form(5))
            scale = max(1.0, np.linalg.norm(re_part, 2))
            delta = np.linalg.eigvalsh(re_part)[0] - fk.regularity.MEMBERSHIP_SLACK * scale
            assert abs(cert.delta - delta) <= 1e-12 * scale
            assert cert.gamma == 0.0

    def test_search_refusal_names_the_kernel_of_theta(self):
        # on ker theta the real part is 0 and the imaginary part 1: no vertex
        # admits any finite slope
        theta = fk.PositiveForm(np.diag([1.0, 0.0]))
        with pytest.raises(fk.NotSectorial, match="on the kernel of theta"):
            fk.sectorial_parameters(fk.Form(np.diag([1.0, 1j])), theta)

    def test_search_with_zero_theta(self):
        # every vertex is admissible: the frontier is +inf and the search
        # takes the vertex 0 (warnings are errors in this suite)
        theta = fk.PositiveForm(np.zeros((2, 2)))
        cert = fk.sectorial_parameters(fk.Form(np.diag([1 + 1j, 2.0])), theta)
        assert cert.delta == 0.0 and cert.gamma == 1.0
        with pytest.raises(fk.NotSectorial, match="on the kernel of theta"):
            fk.sectorial_parameters(fk.Form(np.diag([-1.0, 1.0])), theta)

    def test_search_near_singular_vertex_answers(self):
        # Re omega = U diag(1e6, 1e6 + 1e-3, 1e6 + 2e-3) U^H against I: the top
        # vertex leaves a rounding-level eigenvalue near -5e-11 beside a top
        # eigenvalue of 2e-3. The vertex test accepts it within slack * scale,
        # so the induced majorant's PSD check must accept it as well: the
        # search answers with a certificate or NotSectorial, never NotPSD.
        rng = np.random.default_rng(0)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        omega = fk.Form(u @ np.diag([1e6, 1e6 + 1e-3, 1e6 + 2e-3]) @ u.conj().T)
        theta = fk.identity_form(3)
        try:
            cert = fk.sectorial_parameters(omega, theta)
        except fk.NotSectorial:
            return
        assert fk.sectorial_parameters(omega, theta, cert.delta, cert.gamma).gamma == cert.gamma

    @pytest.mark.parametrize("seed", range(10))
    def test_search_moves_past_a_refused_vertex(self, seed):
        # the same near-singular Hermitian form: sectorial with any slope at
        # every vertex below 1e6, but for most rotations U the verify call
        # refuses the vertex 1e6 itself; the frontier vertex, backed off by
        # the slack, must pass it
        omega = near_singular_rotation(seed)
        theta = fk.identity_form(3)
        cert = fk.sectorial_parameters(omega, theta)
        again = fk.sectorial_parameters(omega, theta, cert.delta, cert.gamma)
        assert kato_majorant_holds(omega, theta, again)

    @staticmethod
    def _kato_corpus():
        """(omega, theta) pairs: the near-singular rotations, random pairs
        whose theta has a kernel, and the lab families."""
        for seed in range(10):
            yield near_singular_rotation(seed), fk.identity_form(3)
        rng = np.random.default_rng(14)
        for k in range(40):
            n = int(rng.integers(2, 6))
            theta = random_psd(rng, n, int(rng.integers(0, n)))
            g = complex_randn(rng, n, n)
            # a real part that dominates on ker theta leaves a vertex to find
            values, vectors = np.linalg.eigh(theta)
            null = vectors[:, values <= 1e-8 * max(values[-1], 1.0)]
            g = g + (1 + k % 3) * np.linalg.norm(g, 2) * null @ null.conj().T
            yield fk.Form(hermitize(g) if k % 5 == 0 else g), fk.PositiveForm(theta)
        for expression, value in TestSectoriality.LAB_FAMILIES.items():
            for size in (8, 48):
                lam = [value(j) for j in range(1, size + 1)]
                yield fk.Form(np.diag(lam)), fk.identity_form(size)

    def test_kato_bound_holds_on_every_certificate(self):
        # the sector check is the two matrix inequalities alone; Kato's bound
        # says they make the induced form a majorant, and the oracle re-proves
        # it on search certificates and on explicit pairs near the frontier
        searched = 0
        for omega, theta in self._kato_corpus():
            try:
                cert = fk.sectorial_parameters(omega, theta)
            except fk.NotSectorial:
                continue
            searched += 1
            assert kato_majorant_holds(omega, theta, cert)
            scale = max(1.0, specnorm(omega.matrix), specnorm(theta.matrix))
            for step in (1e-6, 1e-9, 1e-11):
                for delta, gamma in (
                    (cert.delta, cert.gamma * (1 + step)),
                    (cert.delta - step * scale, cert.gamma),
                    (cert.delta + step * scale, cert.gamma * (1 + step)),
                ):
                    try:
                        explicit = fk.sectorial_parameters(omega, theta, delta, gamma)
                    except fk.NotSectorial:
                        continue
                    assert kato_majorant_holds(omega, theta, explicit)
        assert searched >= 40

    LAB_FAMILIES = {
        "n*exp(i*n)": lambda k: k * cmath.exp(1j * k),
        "n+i*sqrt(n)": lambda k: k + 1j * cmath.sqrt(k),
        "i*n*n*n*n": lambda k: 1j * k * k * k * k,
    }

    @pytest.mark.parametrize("expression", sorted(LAB_FAMILIES))
    def test_search_vertex_is_the_frontier(self, expression):
        # on a diagonal form against the identity the frontier at the cap is
        # min_k (Re l_k - |Im l_k| / 2^20), and the least slope at a vertex d
        # is max_k |Im l_k| / (Re l_k - d)
        rows = fk.convergence_report("diag", {"lambda": expression}, [8, 16, 32, 48])
        for row in rows:
            lam = np.array([self.LAB_FAMILIES[expression](k) for k in range(1, row["size"] + 1)])
            scale = max(1.0, float(np.max(np.abs(lam))))
            frontier = float(np.min(lam.real - np.abs(lam.imag) / 2.0**20))
            delta = frontier - fk.regularity.MEMBERSHIP_SLACK * scale
            gamma = float(np.max(np.abs(lam.imag) / (lam.real - delta)))
            verdict = row["sectorial"]
            assert verdict["sectorial"] is True
            assert abs(verdict["delta"] - delta) <= 1e-12 * max(1.0, abs(delta))
            assert abs(verdict["gamma"] - gamma) <= 1e-12 * max(1.0, gamma)
            assert verdict["gamma"] <= fk.regularity.SECTOR_SLOPE_CAP
        if expression == "i*n*n*n*n":
            # refused by the former 32-vertex scan at N=48
            assert abs(rows[-1]["sectorial"]["delta"] - (-5.0678)) <= 1e-4

    @staticmethod
    def _count_eigensolves(monkeypatch):
        count = [0]
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(a, *args, original=original, **kwargs):
                count[0] += 1
                return original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        return count

    def test_search_eigensolve_count_is_constant(self, monkeypatch):
        counts = []
        for size in (32, 256):
            sizes = np.arange(1, size + 1)
            omega = fk.Form(np.diag(1j * sizes.astype(float) ** 4))
            theta = fk.identity_form(size)
            with monkeypatch.context() as patch:
                count = self._count_eigensolves(patch)
                cert = fk.sectorial_parameters(omega, theta)
                searched = count[0]
                count[0] = 0
                fk.sectorial_parameters(omega, theta, cert.delta, cert.gamma)
            counts.append((searched, count[0]))
        # one solve per sign for the frontier, one eigh of the shifted real
        # part and one solve per sign for the slope, then the verify's own
        assert counts[0] == counts[1]
        assert counts[0][0] == counts[0][1] + 5
