import re

import numpy as np
import pytest

import formkit as fk
from formkit.numerics import frob, hermitize, min_eig_herm

from conftest import complex_randn, member_form, random_operator_instance, random_psd


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
    def test_symmetric_case(self):
        check = fk.epsilon_bound_check(fk.Form(np.diag([1.0, -1.0])), fk.identity_form(2))
        assert check.epsilon == 1
        assert check.member

    def test_nilpotent_case(self):
        check = fk.epsilon_bound_check(fk.Form([[0.0, 1.0], [0.0, 0.0]]), fk.identity_form(2))
        assert check.epsilon == 2
        # quadratic maximum is the numerical radius 1/2 of the shift block
        assert 0.5 - 1e-3 <= check.quadratic_norm <= 0.5 + 1e-9
        assert check.member

    def test_zero_form(self):
        check = fk.epsilon_bound_check(fk.Form(np.zeros((2, 2))), fk.identity_form(2))
        assert check.member

    def test_violation_raises(self):
        with pytest.raises(fk.QuadraticBoundFails):
            fk.epsilon_bound_check(fk.Form(2 * np.eye(2)), fk.identity_form(2))
        with pytest.raises(fk.QuadraticBoundFails):
            fk.epsilon_bound_check(
                fk.Form(np.eye(2)), fk.PositiveForm(np.diag([1.0, 0.0]))
            )

    def test_sampled_maximum_is_not_certified(self):
        # |omega(e1, e1)| = 1 + 1e-6, but the nearest grid angles sit pi/720
        # away, so the sampled maximum alone reads 0.99999148
        lam = (1 + 1e-6) * np.exp(1j * np.pi / 720)
        with pytest.raises(fk.QuadraticBoundFails, match="inconclusive") as info:
            fk.epsilon_bound_check(fk.Form(np.diag([lam, 0.0])), fk.identity_form(2))
        assert "[9.999915e-01, 1.000001e+00]" in str(info.value)

    def test_normal_member_holds(self):
        # the compressed matrix is unitary-diagonal: radius 1 exactly, which
        # the spectral-norm end of the bracket decides
        inst = fk.diag_family([n * np.exp(1j * n) for n in range(1, 9)])
        check = fk.epsilon_bound_check(inst.omega, inst.psi)
        assert check.member
        assert abs(check.quadratic_norm - 1.0) <= 1e-5

    def test_non_normal_knife_edge_inconclusive(self):
        # numerical radius 1 - 1e-6, spectral norm 2 (1 - 1e-6)
        omega = fk.Form([[0.0, 2 * (1 - 1e-6)], [0.0, 0.0]])
        with pytest.raises(fk.QuadraticBoundFails, match="inconclusive"):
            fk.epsilon_bound_check(omega, fk.identity_form(2))


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


class TestRadonNikodym:
    def test_hand_traced_diagonal(self):
        theta = fk.identity_form(2)
        psi = fk.PositiveForm(np.diag([4.0, 0.0]))
        omega = fk.Form(np.diag([4.0, 0.0]))
        rep = fk.radon_nikodym(omega, theta, psi)
        assert np.allclose(rep.scale, np.diag([np.sqrt(5.0), 1.0]), atol=1e-12)
        assert np.allclose(rep.density_root, np.diag([2.0, 0.0]), atol=1e-12)
        assert np.allclose(
            np.sort(np.linalg.eigvalsh(hermitize(rep.contraction))),
            [1 / np.sqrt(5.0), 1.0],
            atol=1e-12,
        )
        res = fk.representation_residuals(rep, omega, theta, psi)
        assert max(res.values()) <= 1e-12

    def test_zero_form(self):
        theta = fk.identity_form(2)
        psi = fk.PositiveForm(np.diag([1.0, 2.0]))
        rep = fk.radon_nikodym(fk.Form(np.zeros((2, 2))), theta, psi)
        assert frob(rep.core_factor) <= 1e-12
        res = fk.representation_residuals(rep, fk.Form(np.zeros((2, 2))), theta, psi)
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
            res = fk.representation_residuals(rep, omega, theta, psi)
            assert max(res.values()) <= 1e-8, res
            member, _ = fk.in_class_M(omega, rep.majorant)
            assert member
            assert fk.is_absolutely_continuous(rep.majorant, theta)

    def test_contraction_and_isometry_bounds(self):
        rng = np.random.default_rng(24)
        omega, theta, psi = random_operator_instance(rng, 5)
        rep = fk.radon_nikodym(omega, theta, psi)
        eigs = np.linalg.eigvalsh(hermitize(rep.contraction))
        assert eigs[0] >= -1e-9 and eigs[-1] <= 1 + 1e-9
        iso = rep.isometry.conj().T @ rep.isometry
        assert frob(iso - np.eye(iso.shape[0])) <= 1e-9


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
        recovered = rep.theta_embedding.from_quotient(rep.scale @ middle @ rep.scale)
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
                assert fk.dominates(current, theta) is not None
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


class TestSectoriality:
    def test_explicit_certificate(self):
        omega = fk.Form(np.diag([1 + 1j, 2.0]))
        cert = fk.sectorial_parameters(omega, fk.identity_form(2), 0.0, 1.0)
        assert cert.margin >= -1e-9
        assert cert.majorant_margin >= -1e-9

    def test_tight_certificate(self):
        cert = fk.sectorial_parameters(fk.Form(np.eye(2)), fk.identity_form(2), 1.0, 0.0)
        assert abs(cert.margin) <= 1e-12

    def test_vertex_violation(self):
        with pytest.raises(fk.NotSectorial):
            fk.sectorial_parameters(fk.Form(-np.eye(2)), fk.identity_form(2), 0.0, 1.0)

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

    def test_search_skips_kernel_vertex(self):
        # at delta = 0 the shifted real part diag(0, 1) has kernel e1, which
        # the imaginary part diag(1, 0) does not annihilate
        cert = fk.sectorial_parameters(fk.Form(np.diag([1j, 1.0])), fk.identity_form(2))
        assert abs(cert.delta + 1 / 31) <= 1e-12
        assert abs(cert.gamma - 31.0) <= 1e-9

    def test_search_skips_indefinite_vertex(self):
        # theta = diag(1, 0): the top vertex 1 leaves real part minus 1 * theta
        # = [[0, 1], [1, 2]] indefinite; the first vertex with a PSD shift is
        # the first one at most 1/2
        omega = fk.Form([[1.0, 1.0], [1.0, 2.0]])
        cert = fk.sectorial_parameters(omega, fk.PositiveForm(np.diag([1.0, 0.0])))
        step = (2.0 - (3.0 - np.sqrt(5.0)) / 2.0) / 31.0
        assert 0.5 - step < cert.delta <= 0.5
        assert cert.gamma == 0.0

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
        # refuses the top vertex, so the search must go on to the next one
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        omega = fk.Form(u @ np.diag([1e6, 1e6 + 1e-3, 1e6 + 2e-3]) @ u.conj().T)
        theta = fk.identity_form(3)
        cert = fk.sectorial_parameters(omega, theta)
        again = fk.sectorial_parameters(omega, theta, cert.delta, cert.gamma)
        assert again.majorant_margin >= -fk.regularity.MEMBERSHIP_SLACK

    # vertex and power-of-two slope of the former 32 x 21 vertex/slope grid
    # search on the lab families, sizes 8, 16, 32, 48 (None: refused)
    GRID_CERTIFICATES = {
        "n*exp(i*n)": [
            (-3.0022355543174655, 16.0),
            (-15.354809749690283, 256.0),
            (-26.985222321295993, 256.0),
            (-46.67202511460978, 256.0),
        ],
        "n+i*sqrt(n)": [(0.967741935483871, 32.0)] * 4,
        "i*n*n*n*n": [
            (-0.032258064516129004, 131072.0),
            (-0.06451612903225812, 1048576.0),
            (-1.0, 1048576.0),
            None,
        ],
    }

    @pytest.mark.parametrize("expression", sorted(GRID_CERTIFICATES))
    def test_search_keeps_grid_vertex(self, expression):
        rows = fk.convergence_report("diag", {"lambda": expression}, [8, 16, 32, 48])
        assert len(rows) == 4
        for row, pinned in zip(rows, self.GRID_CERTIFICATES[expression]):
            verdict = row["sectorial"]
            if pinned is None:
                assert verdict == {"sectorial": False}
                continue
            delta, gamma = pinned
            assert verdict["sectorial"] is True
            assert abs(verdict["delta"] - delta) <= 1e-12 * max(1.0, abs(delta))
            assert gamma / 2 < verdict["gamma"] <= gamma * (1 + 1e-12)

    def test_search_eigensolves_per_vertex(self, monkeypatch):
        sizes = np.arange(1, 33)
        omega = fk.Form(np.diag(1j * sizes.astype(float) ** 4))
        theta = fk.identity_form(32)
        count = [0]
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counting(a, *args, original=original, **kwargs):
                count[0] += 1
                return original(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        cert = fk.sectorial_parameters(omega, theta)
        searched = count[0]
        # the knife edge: least slope 32^4 = 2^20 at the last vertex
        assert cert.delta == -1.0 and abs(cert.gamma - 2.0**20) <= 1e-9 * 2.0**20
        count[0] = 0
        fk.sectorial_parameters(omega, theta, cert.delta, cert.gamma)
        verified = count[0]
        # two solves bound the vertex range, then at most one eigh and one
        # eigvalsh per vertex, then the verify call
        assert searched <= 2 + 2 * 32 + verified

    def test_regularity_reduction(self):
        omega = fk.Form(np.diag([1 + 1j, 2.0]))
        cert = fk.sectorial_parameters(omega, fk.identity_form(2), 0.0, 1.0)
        assert fk.sectorial_regularity(omega, fk.identity_form(2), cert)

        theta = fk.PositiveForm(np.diag([1.0, 0.0]))
        cert2 = fk.sectorial_parameters(fk.Form(np.eye(2)), theta, 0.0, 0.0)
        assert not fk.sectorial_regularity(fk.Form(np.eye(2)), theta, cert2)

        cert3 = fk.sectorial_parameters(fk.Form(theta.matrix), theta, 1.0, 0.0)
        assert fk.sectorial_regularity(fk.Form(theta.matrix), theta, cert3)
