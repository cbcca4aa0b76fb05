"""Seeded instance construction with the truth each construction implies.

Every generator returns an ``Instance``: the JSON document formkit reads and a
``truth`` dict the output checks compare against. formkit only ever sees the
document; the truth stays in the benchmark process.

Constructions (ψ is the majorant, θ the reference form, all matrices n×n):

* ``member`` — ψ = J^H J with J of full row rank r, and ω = J^H C J where C is
  an r×r contraction with ‖C‖ = ρ. On ψ's quotient ω compresses to C, so the
  Cauchy–Schwarz membership margin is exactly 1 − ρ and the quadratic bound
  holds (the numerical radius of C is at most ρ < 1). The λ set holds points
  outside the disc of radius ‖ω‖ (hence outside the numerical range) and
  tr(ω)/n (an average of diagonal quadratic values, hence inside it).
* ``split`` — in a random unitary basis Q, θ = Q(T ⊕ 0)Q^H, ψ = Q(A ⊕ D)Q^H,
  ω = Q(ω₁ ⊕ ω₂)Q^H with ω₁ = A^½C₁A^½, ω₂ = D^½C₂D^½. The hidden block is
  invisible to θ, so ψ is not θ-absolutely continuous, ω's regular part is
  Q(ω₁ ⊕ 0)Q^H and its singular part Q(0 ⊕ ω₂)Q^H. With θ of full rank the
  singular part is zero and every representation command succeeds.
* ``hidden_pair`` — a positive pair for the library cross-check: ψ = Q P Q^H
  with P = [[A, B], [B^H, D]] positive definite and θ = Q(T ⊕ 0)Q^H. The
  θ-absolutely continuous part of ψ is the short of ψ to ran θ,
  Q([[A − B D⁻¹ B^H, 0], [0, 0]])Q^H; with θ of full rank it is ψ itself.
* family documents (``diag``, ``measure``, ``operator_pair``) whose truth is
  closed form: the diagonal entries, the atom supports, the operator pair.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Instance:
    name: str
    doc: dict
    truth: dict = field(default_factory=dict)


def encode(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in np.asarray(m)]


def unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def positive_definite(rng: np.random.Generator, n: int, lo: float = 0.5, hi: float = 2.0):
    u = unitary(rng, n)
    return (u * rng.uniform(lo, hi, n)) @ u.conj().T


def contraction(rng: np.random.Generator, r: int, rho: float, hermitian: bool = False):
    """r×r matrix with spectral norm exactly ρ and smallest singular value at
    least ρ/5; non-normal unless ``hermitian``."""
    s = rho * rng.uniform(0.2, 1.0, r)
    s[0] = rho
    u = unitary(rng, r)
    if hermitian:
        signs = np.where(rng.random(r) < 0.5, -1.0, 1.0)
        signs[0] = 1.0
        return (u * (s * signs)) @ u.conj().T
    return (u * s) @ unitary(rng, r).conj().T


def psd_root(m: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh((m + m.conj().T) / 2)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T


def _doc(n, omega, theta, psi, label) -> dict:
    return {
        "n": int(n),
        "omega": encode(omega),
        "theta": encode(theta),
        "psi": encode(psi),
        "label": label,
    }


def _compressed_norm(omega: np.ndarray, psi: np.ndarray) -> float:
    """‖ψ^(-1/2) ω ψ^(-1/2)‖ for positive definite ψ."""
    w, v = np.linalg.eigh(psi)
    r = (v / np.sqrt(w)) @ v.conj().T
    return float(np.linalg.norm(r @ omega @ r, 2))


def _inf_sup(system: np.ndarray, psi: np.ndarray) -> dict:
    """Extreme singular values of G^(-1/2) A G^(-1/2) with G = I + ψ, the
    CLI's default triplet, and the resolvent norm 1/σ_min(A)."""
    w, v = np.linalg.eigh(np.eye(psi.shape[0]) + psi)
    r = (v / np.sqrt(w)) @ v.conj().T
    s = np.linalg.svd(r @ system @ r, compute_uv=False)
    plain = np.linalg.svd(system, compute_uv=False)
    if s[-1] <= 1e-6 * s[0]:
        raise ValueError("construction produced a nearly singular system")
    return {"c1": float(s[-1]), "c2": float(s[0]), "resolvent_norm": float(1.0 / plain[-1])}


def complete(truth: dict, rng=None) -> dict:
    """Add the references every check needs: ‖ω‖, the numerical-radius
    bracket of ω compressed to ψ's quotient and, given ``rng``, the λ sets
    and the inf-sup constants of the plain and shifted systems."""
    omega = truth["omega"]
    n = omega.shape[0]
    if rng is not None:
        truth["lam_outside"], truth["lam_inside"] = _lambda_sets(omega, rng)
    compressed = 1.0 - truth["margin"]
    truth["norm"] = float(np.linalg.norm(omega, 2))
    # w(C) <= ‖C‖ always, w(C) >= ‖C‖/2, with equality on top for normal C
    truth["numerical_radius"] = compressed
    truth["radius_lower"] = compressed if truth["normal_compressed"] else compressed / 2
    if rng is not None:
        truth["plain_ref"] = _inf_sup(omega, truth["psi"])
        truth["shift_refs"] = {
            lam: _inf_sup(omega - lam * np.eye(n), truth["psi"])
            for lam in truth["lam_outside"] + truth["lam_inside"]
        }
    return truth


def _lambda_sets(omega: np.ndarray, rng: np.random.Generator) -> tuple[list, list]:
    norm = float(np.linalg.norm(omega, 2))
    phase = rng.uniform(0, 2 * np.pi)
    outside = [complex((1.5 * norm + 1.0) * np.exp(1j * phase))]
    inside = [complex(np.trace(omega) / omega.shape[0])]
    return outside, inside


def member(rng: np.random.Generator, n: int, label: str, hermitian: bool = False) -> Instance:
    """Dense ω in the Cauchy–Schwarz class of a full-rank ψ with θ = I."""
    rho = float(rng.uniform(0.5, 0.9))
    q = unitary(rng, n)
    d = rng.uniform(0.5, 2.0, n)
    psi = (q * d) @ q.conj().T
    j = np.sqrt(d)[:, None] * q.conj().T
    omega = j.conj().T @ contraction(rng, n, rho, hermitian) @ j
    if hermitian:
        omega = (omega + omega.conj().T) / 2
    truth = {
        "omega": omega,
        "psi": psi,
        "margin": 1.0 - rho,
        "normal_compressed": hermitian,
        "hermitian": hermitian,
        "theta_rank": n,
        "psi_rank": n,
        "psi_ac": True,
        "omega_r": omega,
        "omega_s": np.zeros((n, n), dtype=complex),
    }
    return Instance(label, _doc(n, omega, np.eye(n), psi, label), complete(truth, rng))


def split(rng: np.random.Generator, n: int, label: str, hidden: int) -> Instance:
    """Block construction with a ``hidden``-dimensional block invisible to θ
    (``hidden = 0`` gives θ of full rank)."""
    k = n - hidden
    q = unitary(rng, n)
    rho = float(rng.uniform(0.5, 0.9))
    theta_b = np.zeros((n, n), dtype=complex)
    theta_b[:k, :k] = positive_definite(rng, k)
    psi_b = np.zeros((n, n), dtype=complex)
    omega_r = np.zeros((n, n), dtype=complex)
    omega_s = np.zeros((n, n), dtype=complex)
    a = positive_definite(rng, k)
    ra = psd_root(a)
    psi_b[:k, :k] = a
    omega_r[:k, :k] = ra @ contraction(rng, k, rho) @ ra
    if hidden:
        dm = positive_definite(rng, hidden)
        rd = psd_root(dm)
        psi_b[k:, k:] = dm
        omega_s[k:, k:] = rd @ contraction(rng, hidden, rho * float(rng.uniform(0.6, 1.0))) @ rd

    def rot(m):
        return q @ m @ q.conj().T

    omega = rot(omega_r + omega_s)
    truth = {
        "omega": omega,
        "psi": rot(psi_b),
        "margin": 1.0 - rho,
        "normal_compressed": False,
        "hermitian": False,
        "theta_rank": k,
        "psi_rank": n,
        "psi_ac": hidden == 0,
        "omega_r": rot(omega_r),
        "omega_s": rot(omega_s),
    }
    return Instance(label, _doc(n, omega, rot(theta_b), rot(psi_b), label), complete(truth, rng))


def hidden_pair(rng: np.random.Generator, n: int, hidden: int) -> dict:
    """Positive pair (ψ, θ) with the exact θ-absolutely continuous part of ψ."""
    k = n - hidden
    q = unitary(rng, n)
    l = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    p = l @ l.conj().T / n + np.eye(n)
    theta_b = np.zeros((n, n), dtype=complex)
    theta_b[:k, :k] = positive_definite(rng, k)
    ac_b = p.copy()
    if hidden:
        a, b, dm = p[:k, :k], p[:k, k:], p[k:, k:]
        ac_b = np.zeros((n, n), dtype=complex)
        ac_b[:k, :k] = a - b @ np.linalg.solve(dm, b.conj().T)

    def rot(m):
        return q @ m @ q.conj().T

    psi = rot(p)
    psi = (psi + psi.conj().T) / 2
    ac = rot(ac_b)
    return {"psi": psi, "theta": rot(theta_b), "ac": (ac + ac.conj().T) / 2}


def probe_2c() -> Instance:
    """ROADMAP 2c: diag((1+1e-6)·e^{iπ/720}, 0) against the identity.

    The matrix is normal, so its numerical radius is max|λ| = 1 + 1e-6 > 1:
    the quadratic bound is violated and membership fails by 1e-6.
    """
    lam = (1 + 1e-6) * np.exp(1j * np.pi / 720)
    omega = np.diag([lam, 0.0])
    label = "roadmap-2c-probe"
    truth = {
        "omega": omega,
        "psi": np.eye(2, dtype=complex),
        "margin": 1.0 - float(abs(lam)),
        "normal_compressed": True,
        "hermitian": False,
    }
    return Instance(label, _doc(2, omega, np.eye(2), np.eye(2), label), complete(truth))


def diag_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """Nonzero complex entries with moduli in [0.5, 2]."""
    return rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(0, 2 * np.pi, n))


def diag_family(rng: np.random.Generator, n: int, label: str) -> Instance:
    """λ_k = (a + 0.4 cos(b k)) e^{i(c k + d)}: a seeded expression, since the
    family's literal form only carries real entries. Moduli stay >= 0.1."""
    a, b, c, d = (float(x) for x in rng.uniform((0.5, 0.1, 0.1, 0.0), (1.5, 3.0, 3.0, 6.28)))
    expression = f"({a!r}+0.4*cos({b!r}*n))*exp(i*({c!r}*n+{d!r}))"
    lam = np.asarray(
        [(a + 0.4 * cmath.cos(b * k)) * cmath.exp(1j * (c * k + d)) for k in range(1, n + 1)]
    )
    doc = {"family": {"name": "diag", "lambda": expression, "N": n}}
    truth = {
        "margin": 0.0,
        "normal_compressed": True,
        "hermitian": False,
        "omega": np.diag(lam),
        "psi": np.diag(np.abs(lam)).astype(complex),
        "theta_rank": n,
        "psi_rank": n,
        "psi_ac": True,
        "knife_edge": True,
        "omega_r": np.diag(lam),
        "omega_s": np.zeros((n, n), dtype=complex),
    }
    return Instance(label, doc, complete(truth, rng))


def measure_family(rng: np.random.Generator, n: int, label: str) -> Instance:
    """Atoms of ω outside the support of θ make ψ singular there."""
    om = diag_values(rng, n)
    th = rng.uniform(0.5, 2.0, n)
    off = rng.permutation(n)[: max(1, n // 4)]
    th[off] = 0.0
    om_s = np.zeros(n, dtype=complex)
    om_s[off] = om[off]
    doc = {
        "family": {
            "name": "measure",
            "theta": [float(x) for x in th],
            "omega": [[float(z.real), float(z.imag)] for z in om],
        }
    }
    truth = {
        "margin": 0.0,
        "normal_compressed": True,
        "hermitian": False,
        "omega": np.diag(om),
        "psi": np.diag(np.abs(om)).astype(complex),
        "theta_rank": int(np.sum(th > 0)),
        "psi_rank": n,
        "psi_ac": False,
        "knife_edge": True,
        "omega_r": np.diag(om - om_s),
        "omega_s": np.diag(om_s),
    }
    return Instance(label, doc, complete(truth, rng))


def operator_pair_family(rng: np.random.Generator, n: int, label: str) -> Instance:
    """ω = T^H S with ψ = I + S^H S + T^H T, which majorizes ω strictly."""
    s = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    t = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    omega = t.conj().T @ s
    psi = np.eye(n) + s.conj().T @ s + t.conj().T @ t
    doc = {"family": {"name": "operator_pair", "S": encode(s), "T": encode(t)}}
    truth = {
        "omega": omega,
        "margin": 1.0 - _compressed_norm(omega, psi),
        "normal_compressed": False,
        "hermitian": False,
        "psi": psi,
        "theta_rank": n,
        "psi_rank": n,
        "psi_ac": True,
        "omega_r": omega,
        "omega_s": np.zeros((n, n), dtype=complex),
    }
    return Instance(label, doc, complete(truth, rng))


def lab_family(expression: str, values, label: str) -> Instance:
    """A diagonal family given by an expression in n; ``values(N)`` evaluates
    the same sequence independently of formkit's expression parser."""
    doc = {"family": {"name": "diag", "lambda": expression, "N": 4}}
    return Instance(label, doc, {"values": values})
