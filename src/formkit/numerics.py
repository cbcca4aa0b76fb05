"""Dense complex-matrix primitives with explicit tolerance contracts.

Everything downstream is built from four operations: a Hermitian
eigendecomposition, the PSD square root, a thresholded Moore-Penrose
pseudoinverse, and the orthogonal projector onto a near-null eigenspace.
Every rank decision goes through ``rank_cut`` with one relative threshold
(``DEFAULT_RANK_TOL``, overridable per call) and every PSD check through
``psd_eig``, so that compositions of these primitives make mutually
consistent kernel/range decisions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotPSD

DEFAULT_RANK_TOL = 1e-10

# PSD tolerance of positive forms built from other forms, which carry the
# rounding of their construction.
BUILT_PSD_TOL = 1e-8

# HermEig construction self-check; LAPACK is far better than this in practice.
_RECONSTRUCT_TOL = 1e-12


def as_matrix(entries) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting NaN/Inf entries."""
    m = np.asarray(entries, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size and not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix entries must be finite")
    return m


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m)) if m.size else 0.0


def specnorm(m: np.ndarray) -> float:
    if min(m.shape) == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def hermitize(m: np.ndarray) -> np.ndarray:
    return (m + m.conj().T) / 2


def min_eig_herm(m: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part (0.0 for empty matrices)."""
    if m.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(hermitize(m))[0])


@dataclass(frozen=True, eq=False)
class HermEig:
    """Spectral resolution of a Hermitian matrix.

    ``values`` are sorted ascending; ``vectors`` holds the matching
    orthonormal eigenvectors as columns.
    """

    values: np.ndarray
    vectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return (self.vectors * self.values) @ self.vectors.conj().T


def eigh_or_empty(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``numpy.linalg.eigh`` (no checks), also for a 0 x 0 matrix."""
    if m.shape[0] == 0:
        return np.zeros(0), np.zeros((0, 0), dtype=complex)
    return np.linalg.eigh(m)


def hermitian_eig(m, sym_rtol: float = 1e-10) -> HermEig:
    """Eigendecomposition of a Hermitian matrix.

    Raises:
        NotHermitian: if the symmetry residual exceeds ``sym_rtol``
            relative to the Frobenius norm.
    """
    m = as_matrix(m)
    scale = frob(m)
    if frob(m - m.conj().T) > sym_rtol * max(scale, 1e-300):
        raise NotHermitian(
            f"symmetry residual {frob(m - m.conj().T):.3e} exceeds "
            f"{sym_rtol:.1e} * {scale:.3e}"
        )
    eig = HermEig(*eigh_or_empty(hermitize(m)))
    if frob(eig.reconstruct() - hermitize(m)) > _RECONSTRUCT_TOL * max(scale, 1.0):
        raise NotHermitian("eigendecomposition failed its reconstruction check")
    return eig


def rank_cut(values: np.ndarray, rtol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Mask of the values the rank decision keeps: those above ``rtol`` times
    the largest value (clamped at zero). The complement is the kernel."""
    top = max(float(np.max(values)), 0.0) if values.size else 0.0
    return values > rtol * top


def psd_eig(m, tol: float = DEFAULT_RANK_TOL) -> HermEig:
    """``hermitian_eig`` of a PSD matrix; raises NotPSD if the least
    eigenvalue is below ``-tol`` times the largest."""
    eig = hermitian_eig(m)
    if eig.values.size:
        top = max(float(eig.values[-1]), 0.0)
        if eig.values[0] < -tol * max(top, 1e-300):
            raise NotPSD(f"matrix is not PSD: min eigenvalue {eig.values[0]:.6e} (max {top:.6e})")
    return eig


def psd_sqrt(m, rtol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Principal square root of a PSD Hermitian matrix.

    Eigenvalues at least ``-rtol * max_eigenvalue`` are clamped to zero;
    anything more negative raises NotPSD.
    """
    eig = psd_eig(m, rtol)
    if eig.values.size == 0:
        return np.zeros_like(as_matrix(m))
    roots = np.sqrt(np.clip(eig.values, 0.0, None))
    return hermitize((eig.vectors * roots) @ eig.vectors.conj().T)


def pinv(m, rtol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse, zeroing singular values below
    ``rtol * sigma_max``. The zero matrix maps to the zero matrix."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return m.conj().T.copy()
    u, s, vh = np.linalg.svd(m, full_matrices=False)
    keep = rank_cut(s, rtol)
    inv = np.zeros_like(s)
    inv[keep] = 1.0 / s[keep]
    return (vh.conj().T * inv) @ u.conj().T


def kernel_projector(m, rtol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthogonal projector onto the span of eigenvectors with eigenvalue
    at most ``rtol * sigma_max`` of a PSD Hermitian matrix."""
    eig = psd_eig(m, rtol)
    null = eig.vectors[:, ~rank_cut(eig.values, rtol)]
    return null @ null.conj().T
