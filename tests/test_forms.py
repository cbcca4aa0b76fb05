import numpy as np
import pytest

import formkit as fk
from formkit.numerics import frob, hermitize

from conftest import complex_randn, random_positive_form, random_psd


class TestReImSplit:
    def test_scalar_i(self):
        re, im = fk.re_im_split(fk.Form(1j * np.eye(2)))
        assert np.array_equal(re.matrix, np.zeros((2, 2)))
        assert np.array_equal(im.matrix, np.eye(2))

    def test_hermitian(self):
        m = np.array([[1.0, 1j], [-1j, 2.0]])
        re, im = fk.re_im_split(fk.Form(m))
        assert np.array_equal(re.matrix, m)
        assert np.array_equal(im.matrix, np.zeros((2, 2)))

    def test_upper_triangular(self):
        # (M + M^H)/2 and (M - M^H)/(2i) by direct arithmetic
        form = fk.Form([[1.0, 2.0], [0.0, 1.0]])
        re, im = fk.re_im_split(form)
        assert np.allclose(re.matrix, [[1.0, 1.0], [1.0, 1.0]])
        assert np.allclose(im.matrix, [[0.0, -1j], [1j, 0.0]])
        assert np.allclose(re.matrix + 1j * im.matrix, form.matrix)

    def test_symmetry_equivalences(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 7))
            m = complex_randn(rng, n, n)
            form = fk.Form(m)
            re, im = fk.re_im_split(form)
            assert np.allclose(re.matrix + 1j * im.matrix, m)
            assert frob(re.matrix - re.matrix.conj().T) <= 1e-14 * max(frob(m), 1)
            assert frob(im.matrix - im.matrix.conj().T) <= 1e-14 * max(frob(m), 1)
            herm = fk.Form(hermitize(m))
            assert herm.is_symmetric()
            assert frob(fk.re_im_split(herm)[1].matrix) <= 1e-14 * max(frob(m), 1)


class TestKernel:
    def test_examples(self):
        null = fk.quotient_embedding(fk.PositiveForm(np.diag([1.0, 0.0]))).null
        assert null.shape == (2, 1)
        assert np.allclose(np.abs(null[:, 0]), [0.0, 1.0])
        assert fk.quotient_embedding(fk.identity_form(2)).null.shape == (2, 0)
        null = fk.quotient_embedding(fk.PositiveForm(np.ones((2, 2)))).null
        assert null.shape == (2, 1)
        assert np.allclose(np.abs(null[:, 0]), [1 / np.sqrt(2)] * 2)

    def test_null_completes_basis_to_unitary(self):
        rng = np.random.default_rng(18)
        for n in range(1, 7):
            for rank in range(n + 1):
                emb = fk.quotient_embedding(random_positive_form(rng, n, rank=rank))
                assert emb.rank == rank and emb.null.shape == (n, n - rank)
                full = np.hstack([emb.null, emb.basis])
                assert frob(full.conj().T @ full - np.eye(n)) <= 1e-12


class TestQuotientEmbedding:
    def test_identity(self):
        emb = fk.quotient_embedding(fk.identity_form(2))
        assert emb.rank == 2
        assert np.allclose(emb.matrix.conj().T @ emb.matrix, np.eye(2))

    def test_rank_one_diagonal(self):
        emb = fk.quotient_embedding(fk.PositiveForm(np.diag([4.0, 0.0])))
        assert emb.rank == 1
        assert np.allclose(np.abs(emb.matrix), [[2.0, 0.0]])

    def test_rank_one_dense(self):
        emb = fk.quotient_embedding(fk.PositiveForm(np.ones((2, 2))))
        assert emb.rank == 1
        assert np.allclose(np.abs(emb.matrix), [[1.0, 1.0]])

    def test_gram_identity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            psi = random_positive_form(rng, n, rank=int(rng.integers(0, n + 1)))
            emb = fk.quotient_embedding(psi)
            gram = emb.matrix.conj().T @ emb.matrix
            assert frob(gram - psi.matrix) <= 1e-9 * max(frob(psi.matrix), 1e-300)
            xi = complex_randn(rng, n)
            eta = complex_randn(rng, n)
            lhs = complex(np.vdot(emb.embed(eta), emb.embed(xi)))
            assert abs(lhs - psi(xi, eta)) <= 1e-9 * max(1.0, abs(psi(xi, eta)))

    def test_pseudo_inverse_formula(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            psi = random_positive_form(rng, n, rank=int(rng.integers(1, n + 1)))
            emb = fk.quotient_embedding(psi)
            assert np.allclose(
                emb.pseudo_inverse, fk.pinv(emb.matrix), atol=1e-10, rtol=1e-8
            )

    def test_quotient_roundtrip(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            n = int(rng.integers(1, 8))
            psi = random_positive_form(rng, n)
            emb = fk.quotient_embedding(psi)
            x = complex_randn(rng, emb.rank, emb.rank)
            pulled = emb.from_quotient(x)
            assert np.allclose(
                pulled, emb.matrix.conj().T @ x @ emb.matrix, atol=1e-10, rtol=1e-8
            )
            pushed = emb.to_quotient(pulled)
            assert frob(pushed - x) <= 1e-8 * max(frob(x), 1e-300)


def test_positive_form_rejects_indefinite():
    with pytest.raises(fk.NotPSD):
        fk.PositiveForm(np.diag([1.0, -1.0]))
    with pytest.raises(fk.NotPSD):
        fk.PositiveForm([[0.0, 1.0], [0.0, 0.0]])


def test_positive_form_tests_symmetry_at_the_symmetry_tolerance():
    # the PSD tolerance does not loosen the symmetry test
    m = np.array([[2.0, 1.0], [1.0 + 3e-9, 2.0]])
    with pytest.raises(fk.NotPSD, match="^matrix is not Hermitian: symmetry residual"):
        fk.PositiveForm(m, tol=1e-6)
    assert fk.PositiveForm(hermitize(m), tol=1e-6).eig.values[0] > 0


def test_positive_form_validates_at_tol_without_storing_it():
    # -1e-8 against a top of 2: refused at the default, accepted at 1e-6
    m = np.diag([-1e-8, 1.0, 2.0])
    with pytest.raises(fk.NotPSD, match="^matrix is not PSD: min eigenvalue -1.000000e-08"):
        fk.PositiveForm(m)
    psi = fk.PositiveForm(m, tol=1e-6)
    assert psi.eig.values[0] == -1e-8
    assert not hasattr(psi, "tol") and not hasattr(fk.PositiveForm, "tol")


def test_positive_form_reports_a_failed_reconstruction_as_such(monkeypatch):
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: (2.0 * eigh(m)[0], eigh(m)[1]))
    with pytest.raises(np.linalg.LinAlgError, match="reconstruction check"):
        fk.PositiveForm(np.diag([1.0, 2.0]))


def test_form_value_convention():
    rng = np.random.default_rng(11)
    m = complex_randn(rng, 3, 3)
    form = fk.Form(m)
    xi, eta = complex_randn(rng, 3), complex_randn(rng, 3)
    assert abs(form(xi, eta) - eta.conj() @ m @ xi) <= 1e-12
