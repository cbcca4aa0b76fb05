import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formkit as fk
from formkit.cli import encode_matrix, main
from formkit.numerics import as_matrix, frob, hermitize

from conftest import complex_randn, random_psd, random_unitary


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_matrix([[1, 2, 3], [4, 5, 6]])


class TestHermitianEig:
    def test_already_diagonal(self):
        eig = fk.hermitian_eig(np.diag([1.0, 2.0]))
        assert np.allclose(eig.values, [1.0, 2.0])
        assert np.array_equal(np.abs(eig.vectors), np.eye(2))

    def test_off_diagonal_pair(self):
        # characteristic polynomial t^2 - 1 by hand
        eig = fk.hermitian_eig([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(eig.values, [-1.0, 1.0], atol=1e-14)

    def test_zero_matrix(self):
        eig = fk.hermitian_eig(np.zeros((3, 3)))
        assert np.all(eig.values == 0)

    def test_rejects_nonhermitian(self):
        with pytest.raises(fk.NotHermitian):
            fk.hermitian_eig([[0.0, 1.0], [0.0, 0.0]])

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(1)
        for n in range(1, 13):
            m = hermitize(complex_randn(rng, n, n))
            eig = fk.hermitian_eig(m)
            assert frob(eig.reconstruct() - m) <= 1e-11 * frob(m)
            assert frob(eig.vectors.conj().T @ eig.vectors - np.eye(n)) <= 1e-12 * n


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(fk.psd_sqrt(np.eye(3)), np.eye(3), atol=1e-15)

    def test_diagonal(self):
        assert np.allclose(fk.psd_sqrt(np.diag([4.0, 0.0])), np.diag([2.0, 0.0]))

    def test_two_by_two(self):
        # eigenpairs by hand: 1 on (1,-1)/sqrt2, 3 on (1,1)/sqrt2
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        expected = np.array(
            [
                [(1 + np.sqrt(3)) / 2, (np.sqrt(3) - 1) / 2],
                [(np.sqrt(3) - 1) / 2, (1 + np.sqrt(3)) / 2],
            ]
        )
        root = fk.psd_sqrt(m)
        assert np.allclose(root, expected, atol=1e-14)
        assert frob(root @ root - m) <= 1e-10 * frob(m)

    def test_rejects_indefinite(self):
        with pytest.raises(fk.NotPSD):
            fk.psd_sqrt(np.diag([1.0, -1.0]))

    def test_monotone_on_commuting_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            n = int(rng.integers(1, 7))
            u = random_unitary(rng, n)
            a_vals = rng.uniform(0.0, 2.0, n)
            b_vals = a_vals + rng.uniform(0.0, 2.0, n)
            a = (u * a_vals) @ u.conj().T
            b = (u * b_vals) @ u.conj().T
            diff = fk.psd_sqrt(hermitize(b)) - fk.psd_sqrt(hermitize(a))
            assert np.linalg.eigvalsh(hermitize(diff))[0] >= -1e-10


class TestPinv:
    def test_diagonal(self):
        assert np.allclose(fk.pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_identity(self):
        assert np.allclose(fk.pinv(np.eye(4)), np.eye(4))

    def test_rank_one(self):
        # svd by hand: single singular value 2 on (1,1)/sqrt2
        m = np.ones((2, 2))
        assert np.allclose(fk.pinv(m), np.ones((2, 2)) / 4, atol=1e-14)

    def test_zero(self):
        assert np.array_equal(fk.pinv(np.zeros((2, 3))), np.zeros((3, 2)))

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 5),
        m=st.integers(1, 5),
        rank=st.integers(0, 5),
        seed=st.integers(0, 2**31),
    )
    def test_moore_penrose_identities(self, n, m, rank, seed):
        rng = np.random.default_rng(seed)
        rank = min(rank, n, m)
        a = complex_randn(rng, n, rank) @ complex_randn(rng, rank, m) if rank else np.zeros((n, m), complex)
        plus = fk.pinv(a)
        scale = max(np.linalg.norm(a), 1e-300)
        assert np.linalg.norm(a @ plus @ a - a) <= 1e-9 * scale
        assert np.linalg.norm(plus @ a @ plus - plus) <= 1e-9 * max(np.linalg.norm(plus), 1e-300)
        assert np.linalg.norm(a @ plus - (a @ plus).conj().T) <= 1e-9 * max(1.0, scale)
        assert np.linalg.norm(plus @ a - (plus @ a).conj().T) <= 1e-9 * max(1.0, scale)


class TestKernelProjector:
    def test_diagonal(self):
        assert np.allclose(fk.kernel_projector(np.diag([1.0, 0.0])), np.diag([0.0, 1.0]))

    def test_full_rank(self):
        assert np.allclose(fk.kernel_projector(np.eye(3)), np.zeros((3, 3)))

    def test_rank_one(self):
        expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(fk.kernel_projector(np.ones((2, 2))), expected, atol=1e-14)

    def test_annihilates_matrix(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            m = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
            proj = fk.kernel_projector(m)
            assert frob(proj @ m) <= 1e-9 * max(frob(m), 1e-300)
            assert frob(proj @ proj - proj) <= 1e-10
            assert frob(proj - proj.conj().T) <= 1e-10


class TestRankCutAgreement:
    """A PSD matrix whose small eigenvalue sits just above or just below the
    relative cut gets the same rank from every construction that decides it."""

    @staticmethod
    def _matrix(factor):
        u = random_unitary(np.random.default_rng(23), 4)
        small = fk.DEFAULT_RANK_TOL * factor
        return hermitize((u * np.array([small, 0.3, 0.7, 1.0])) @ u.conj().T)

    @pytest.mark.parametrize("factor, rank", [(1 + 1e-3, 4), (1 - 1e-3, 3)])
    def test_every_site_agrees(self, tmp_path, capsys, factor, rank):
        m = self._matrix(factor)
        psi = fk.PositiveForm(m)
        assert fk.quotient_embedding(psi).rank == rank
        assert fk.kernel(psi).shape[1] == 4 - rank
        assert round(np.trace(fk.kernel_projector(m)).real) == 4 - rank
        assert round(np.trace(fk.pinv(m) @ m).real) == rank
        path = tmp_path / "cut.json"
        doc = {"n": 4, "omega": encode_matrix(np.eye(4)).tolist(), "psi": encode_matrix(m).tolist()}
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["inspect", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["psi_rank"] == rank
