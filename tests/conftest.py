"""Shared random-instance generators.

Positive forms are drawn with unit-scale spectra on random subspaces so
that rank decisions sit far from the thresholds and conditioning stays
moderate; forms inside a majorization class are built by compressing a
contraction into the majorant's quotient coordinates.
"""

import time

import numpy as np
import pytest

import formkit as fk
from formkit import numerics
from formkit.numerics import hermitize


def complex_randn(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_unitary(rng, n):
    q, r = np.linalg.qr(complex_randn(rng, n, n))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def random_psd(rng, n, rank=None, lo=0.5, hi=2.0):
    """PSD matrix with eigenvalues in [lo, hi] on a random rank-subspace."""
    if rank is None:
        rank = n
    if rank == 0:
        return np.zeros((n, n), dtype=complex)
    u = random_unitary(rng, n)[:, :rank]
    values = rng.uniform(lo, hi, size=rank)
    return (u * values) @ u.conj().T


def random_positive_form(rng, n, rank=None):
    return fk.PositiveForm(random_psd(rng, n, rank))


def member_form(rng, psi, rho=None):
    """A form majorized by psi, with membership margin 1 - rho."""
    if rho is None:
        rho = rng.uniform(0.2, 0.95)
    emb = fk.quotient_embedding(psi)
    r = emb.rank
    if r == 0:
        return fk.Form(np.zeros((psi.dim, psi.dim), dtype=complex))
    w = complex_randn(rng, r, r)
    w *= rho / max(np.linalg.norm(w, 2), 1e-300)
    return fk.Form(emb.from_quotient(w))


def random_operator_instance(rng, n):
    """(omega, theta, psi) with theta the inner product and psi the polar
    majorant of the operator representing omega."""
    t = complex_randn(rng, n, n)
    omega = fk.Form(t)
    theta = fk.identity_form(n)
    psi = fk.canonical_majorant(t)
    return omega, theta, psi


def mixed_rank_triple(rng, n):
    """(omega, theta, psi) with theta of random rank and psi in general
    position; omega lies in the class of psi by construction."""
    theta_rank = int(rng.integers(0, n + 1))
    psi_rank = int(rng.integers(1, n + 1))
    theta = fk.PositiveForm(random_psd(rng, n, theta_rank))
    psi = fk.PositiveForm(random_psd(rng, n, psi_rank))
    omega = member_form(rng, psi)
    return omega, theta, psi


def positive_pair(rng, n, kind):
    """PSD pairs with known splitting behavior.

    kind 0: both full rank (everything absolutely continuous).
    kind 1: disjoint ranges (mutually singular).
    kind 2: hidden block pair with nontrivial parts on both sides; the
            exact absolutely continuous part is returned as the oracle.
    """
    if kind == 0:
        psi = random_psd(rng, n)
        theta = random_psd(rng, n)
        return fk.PositiveForm(psi), fk.PositiveForm(theta), psi
    if kind == 1:
        rp = int(rng.integers(1, n))
        rt = int(rng.integers(1, n - rp + 1))
        u = random_unitary(rng, n)
        psi = (u[:, :rp] * rng.uniform(0.5, 2.0, rp)) @ u[:, :rp].conj().T
        v = u[:, rp : rp + rt]
        theta = (v * rng.uniform(0.5, 2.0, rt)) @ v.conj().T
        return fk.PositiveForm(psi), fk.PositiveForm(theta), np.zeros((n, n), complex)
    n1 = int(rng.integers(1, n))
    n2 = n - n1
    u = random_unitary(rng, n)
    psi1 = random_psd(rng, n1)
    psi2 = random_psd(rng, n2)
    theta1 = random_psd(rng, n1)
    zero12 = np.zeros((n1, n2))
    zero21 = np.zeros((n2, n1))
    psi = u @ np.block([[psi1, zero12], [zero21, psi2]]) @ u.conj().T
    theta = u @ np.block([[theta1, zero12], [zero21, np.zeros((n2, n2))]]) @ u.conj().T
    ac_part = u @ np.block([[psi1, zero12], [zero21, np.zeros((n2, n2))]]) @ u.conj().T
    return fk.PositiveForm(psi), fk.PositiveForm(theta), ac_part


def coupled_hidden_pair(rng, n, hidden):
    """(psi, theta, short) with psi = Q [[A, B], [B^H, D]] Q^H coupled across
    the hidden block, theta = Q (T + 0) Q^H vanishing on its last ``hidden``
    coordinates, and the construction truth Q (A - B D^-1 B^H + 0) Q^H for
    the theta-absolutely continuous part of psi."""
    k = n - hidden
    q = random_unitary(rng, n)
    low = complex_randn(rng, n, n)
    block = low @ low.conj().T / n + np.eye(n)
    a, b, d = block[:k, :k], block[:k, k:], block[k:, k:]
    theta = np.zeros((n, n), dtype=complex)
    theta[:k, :k] = random_psd(rng, k)
    short = np.zeros((n, n), dtype=complex)
    short[:k, :k] = a - b @ np.linalg.solve(d, b.conj().T)
    psi, theta, short = (hermitize(q @ m @ q.conj().T) for m in (block, theta, short))
    return fk.PositiveForm(psi), fk.PositiveForm(theta), short


def schur_short(psi, theta, rtol=1e-10):
    """The short of psi to ran(theta), from the pair alone: psi minus its
    Schur complement correction on ker(theta) (W. N. Anderson and G. E.
    Trapp, SIAM J. Appl. Math. 28, 1975)."""
    values, vectors = np.linalg.eigh(theta)
    null = vectors[:, values <= rtol * max(values[-1], 0.0)]
    cross = psi @ null
    return hermitize(psi - cross @ np.linalg.solve(null.conj().T @ cross, cross.conj().T))


def count_pinv(monkeypatch):
    """Record each pseudo-inverse the parallel sums take, and take it."""
    calls = []

    def counting(m, rtol):
        calls.append(1)
        return numerics.pinv(m, rtol)

    monkeypatch.setattr(fk.lebesgue, "pinv", counting)
    return calls


def eigh_hull(hull):
    """Per-angle ``eigh`` reference for a hull's samples: at each sample one
    eigh of cos(phi) H + sin(phi) K at its reduced angle phi, with H and K the
    hull's parts as matrices (a diagonal part as its diagonal matrix). The
    top eigenpair serves the sample at phi, the negated bottom one the sample
    at phi + pi. Returns the support values and the boundary points v^H M v
    of the attaining unit eigenvectors v."""
    h, k = (np.diag(p).astype(complex) if p.ndim == 1 else p for p in hull.parts)
    mat = np.diag(hull.mat) if hull.mat.ndim == 1 else hull.mat
    support, points = [], []
    for t, phi in zip(hull.angles, hull.reduced):
        rotated = np.cos(phi) * h
        rotated += np.sin(phi) * k
        values, vectors = np.linalg.eigh(rotated)
        top = abs(t - phi) < np.pi / 2
        v = vectors[:, -1 if top else 0]
        support.append(values[-1] if top else -values[0])
        points.append(v.conj() @ mat @ v)
    return np.array(support), np.array(points)


@pytest.fixture(scope="session")
def session_start():
    return time.monotonic()


@pytest.fixture(scope="session", autouse=True)
def _touch_session_start(session_start):
    return session_start


@pytest.fixture
def blas_count():
    """OpenBLAS's thread-count getter, with the count set to 2 for the test
    and restored after it; skips where the OpenBLAS controls are missing."""
    if numerics.BLAS_CONTROLS is None:
        pytest.skip("this BLAS exports no thread controls")
    get, set_ = numerics.BLAS_CONTROLS
    found = get()
    set_(2)
    yield get
    set_(found)
