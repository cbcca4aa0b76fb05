"""Dense complex-matrix primitives with explicit tolerance contracts.

Everything downstream is built from two operations: a Hermitian
eigendecomposition and, for the parallel sums, a thresholded Moore-Penrose
pseudoinverse. Every rank decision goes through ``rank_cut`` with one
relative threshold (``DEFAULT_RANK_TOL``, overridable per call) and every
PSD check through ``psd_eig``, so that compositions of these primitives
make mutually consistent kernel/range decisions. Every threshold the
package compares against is named once, in the table below.

A stack of independent solves can be spread over the BLAS thread budget
(``stack_map``): each worker solves on one OpenBLAS thread
(``one_blas_thread``), so the budget is spent on whole matrices instead of
on the threads of one call.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotPSD, ValidationError

# Tolerances; each comment names the decision and the scale the value is relative to.
DEFAULT_RANK_TOL = 1e-10  # rank cuts and PSD checks: largest eigenvalue or singular value
BUILT_PSD_TOL = 1e-8  # PSD check of a form built from other forms: its largest eigenvalue
SYMMETRY_RTOL = 1e-10  # symmetry residual |M - M^H|_F: |M|_F
EXACT_RADIUS_RTOL = 1e-12  # symmetry below which the numerical radius is exact: |M|_F
RECONSTRUCT_TOL = 1e-12  # eigendecomposition self-check: max(|M|_F, 1)
MEMBERSHIP_SLACK = 1e-9  # upper bounds (membership, sector, maximality): the bound
ORDER_TOL = 1e-10  # phi' <= psi in maximality_check: max(|psi|_2, 1)
DEFAULT_RESIDUAL_TOL = 1e-8  # witness and identity residuals: the norm of their form
ZERO_SNAP = 1e-12  # split components set to exact zero: total Frobenius mass
PARALLEL_SUM_SNAP = 1e-11  # parallel sum set to exact zero: the smaller spectral norm
LIMIT_STOP = 1e-12  # parallel-sum limit converged (extrapolated Frobenius step): max(|psi|_F, 1)
LIMIT_STALL = 1e-9  # parallel-sum limit not settled (extrapolated step): max(|psi|_F, 1)
BOUNDARY_RTOL = 1e-4  # hull margins reported inconclusive: the hull scale
RADIUS_RTOL = 1e-9  # numerical-radius bracket closed (relative width): its upper end
DISTANCE_RTOL = 1e-13  # hull distance maximized (concave bound on what is left): the hull scale
HULL_ARC_FLOOR = 1e-8  # adaptive hull stops refining an arc this narrow: radians
INVERSE_SHIFT_ULPS = 8.0  # inverse-iteration shift past h(t): ulps of max |h| scaled into [1/2, 1)
RAYLEIGH_RTOL = 1e-12  # boundary point this near its supporting line, else eigh: the hull scale


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


def finite_norm(mat: np.ndarray, name: str) -> np.ndarray:
    """The matrix ``name``, refused if its Frobenius norm, by which the checks
    downstream measure it, overflows the float range."""
    with np.errstate(over="ignore"):
        if not np.isfinite(frob(mat)):
            raise ValidationError(f"{name} is too large: its Frobenius norm overflows")
    return mat


def relative(err: float, scale: float) -> float:
    """A residual relative to the norm of its form, or absolute when that is 0."""
    return err / max(scale, 1e-300) if scale > 0 else err


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


def asymmetry(m: np.ndarray, rtol: float) -> float:
    """The symmetry residual |M - M^H|_F when it exceeds ``rtol`` times
    |M|_F, else 0.0: nonzero exactly when M fails the Hermitian test."""
    residual = frob(m - m.conj().T)
    return residual if residual and residual > rtol * max(frob(m), 1e-300) else 0.0


def hermitian_eig(m) -> HermEig:
    """Eigendecomposition of a Hermitian matrix, the package's one symmetry
    test: every constructor that needs a Hermitian matrix routes it here.

    Raises:
        NotHermitian: if, and only if, the symmetry residual exceeds
            ``SYMMETRY_RTOL`` relative to the Frobenius norm.
        numpy.linalg.LinAlgError: if the eigendecomposition fails its
            reconstruction check, a breakdown of the eigensolver.
    """
    m = as_matrix(m)
    scale = frob(m)
    residual = asymmetry(m, SYMMETRY_RTOL)
    if residual:
        raise NotHermitian(
            f"symmetry residual {residual:.3e} exceeds {SYMMETRY_RTOL:.1e} * {scale:.3e}"
        )
    h = hermitize(m)
    eig = HermEig(*eigh_or_empty(h))
    if frob(eig.reconstruct() - h) > RECONSTRUCT_TOL * max(scale, 1.0):
        raise np.linalg.LinAlgError("eigendecomposition failed its reconstruction check")
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


def _openblas_controls():
    """(get, set) of OpenBLAS's thread count, resolved through numpy's own
    linalg module, or None where that BLAS does not export them."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.restype, set_.argtypes = ctypes.c_int, [ctypes.c_int]
    return get, set_


BLAS_CONTROLS = _openblas_controls()
_BLAS_LOCK = threading.Lock()
_pins = {"depth": 0, "found": 0}  # open pins, and the thread count the first one found
_pool = None  # (pid, executor)


@contextlib.contextmanager
def one_blas_thread(active: bool = True):
    """OpenBLAS on one thread inside the block, then the count it found.

    Pins nest and may overlap across threads: the first in sets the count
    to 1 and the last out restores it. Does nothing when ``active`` is false
    or without ``BLAS_CONTROLS``.
    """
    controls = BLAS_CONTROLS if active else None
    if controls is None:
        yield
        return
    get, set_ = controls
    with _BLAS_LOCK:
        if not _pins["depth"]:
            _pins["found"] = get()
            set_(1)
        _pins["depth"] += 1
    try:
        yield
    finally:
        with _BLAS_LOCK:
            _pins["depth"] -= 1
            if not _pins["depth"]:
                set_(_pins["found"])


def blas_workers() -> int:
    """Workers a stack of solves is spread over: the BLAS thread count in
    effect (the one the open pin found), capped by the CPUs this process
    may run on; 1 without ``BLAS_CONTROLS``."""
    if BLAS_CONTROLS is None:
        return 1
    with _BLAS_LOCK:
        threads = _pins["found"] if _pins["depth"] else BLAS_CONTROLS[0]()
    return max(1, min(threads, _cpus()))


def _cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _executor():
    """The pool for the shares beyond the caller's, made on first use and
    again in a forked child, which inherits the pool but not its threads.
    Its module is imported here, which keeps some 4 ms off the start-up of
    the many runs that never split a stack."""
    global _pool
    if _pool is None or _pool[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor

        _pool = (os.getpid(), ThreadPoolExecutor(max(1, _cpus() - 1), "formkit-stack"))
    return _pool[1]


def stack_map(solve, count: int, block: int, split: bool = True) -> list:
    """The results of ``solve(start, stop)`` over [0, count) in blocks, in order.

    Serially, the blocks hold ``block`` items each. With ``split`` and
    k = ``blas_workers()`` > 1, the range is cut into k contiguous shares,
    each solved in blocks of ``block // k`` on one BLAS thread: the caller
    solves the first share and k - 1 pooled threads the rest, so the items
    in flight stay within ``block``. For a ``solve`` that gives each item
    the same result in any block, the two ways differ only in the BLAS
    thread count the items are solved under. Every share finishes before an
    exception from any of them propagates.
    """
    workers = min(blas_workers(), count) if split else 1
    if workers <= 1:
        return [solve(start, min(start + block, count)) for start in range(0, count, block)]
    block = max(1, block // workers)
    cuts = [count * i // workers for i in range(workers + 1)]

    def share(lo: int, hi: int) -> list:
        return [solve(start, min(start + block, hi)) for start in range(lo, hi, block)]

    with one_blas_thread():
        pool = _executor()
        futures = [pool.submit(share, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
        try:
            results = share(cuts[0], cuts[1])
        finally:
            for future in futures:
                future.exception()  # waits, so no share outlives the pin
        for future in futures:
            results += future.result()
    return results
