"""Lebesgue-type splitting of a form into regular and singular parts.

The split happens on the quotient of the sum form: the kernel block of the
contraction collects everything the reference form cannot see. Compressing
omega there and pulling back gives the singular part; the complementary
compression gives the regular part. For a pair of positive forms the same
projector splits psi itself, and an independent parallel-sum oracle (the
increasing limit of psi : (n * theta)) cross-checks the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, PreconditionFails, WitnessResidualTooLarge
from .forms import Form, PositiveForm, eigen_embedding, quotient_embedding
from .numerics import BUILT_PSD_TOL, DEFAULT_RANK_TOL, DEFAULT_RESIDUAL_TOL, LIMIT_STALL, LIMIT_STOP
from .numerics import MEMBERSHIP_SLACK, ORDER_TOL, PARALLEL_SUM_SNAP, ZERO_SNAP
from .numerics import frob, hermitian_eig, hermitize, min_eig_herm, pinv, specnorm
from .regularity import RNRepresentation, _majorized_core, _rn_core, is_absolutely_continuous

_LIMIT_MAX_DOUBLINGS = 20
_LIMIT_COLUMNS = 3  # Romberg columns: column j cancels the 2^-jk term
_EPS = np.finfo(float).eps


def _snap_zero(mat: np.ndarray, scale: float) -> np.ndarray:
    """Replace a matrix indistinguishable from rounding noise by exact zero."""
    if frob(mat) <= ZERO_SNAP * max(scale, 1e-300):
        return np.zeros_like(mat)
    return mat


@dataclass(frozen=True, eq=False)
class LebesgueSplit:
    """Additive decomposition omega = regular + singular with witnesses.

    ``rep`` represents the regular part, regular = <h z j ., h j .> with the
    factor z; ``rep.majorant`` certifies its regularity, and
    ``rep.core.kernel_projector`` is the kernel block on the sum quotient.
    """

    regular: Form
    singular: Form
    rep: RNRepresentation


def lebesgue_decompose(
    omega: Form,
    theta: PositiveForm,
    psi: PositiveForm,
    rtol: float = DEFAULT_RANK_TOL,
) -> LebesgueSplit:
    """Split omega into a theta-regular and a theta-singular part.

    Raises:
        NotInClassM: if psi does not majorize omega.
    """
    core, compressed = _majorized_core(omega, theta, psi, rtol)
    proj = core.kernel_projector
    comp = np.eye(proj.shape[0], dtype=complex) - proj
    regular_q = comp @ compressed @ comp
    singular_q = comp @ compressed @ proj + proj @ compressed
    emb = core.sum_embedding
    total = max(frob(omega.matrix), frob(theta.matrix + psi.matrix))
    regular = Form(_snap_zero(emb.from_quotient(regular_q), total))
    singular = Form(_snap_zero(emb.from_quotient(singular_q), total))
    z = core.factor(compressed @ comp)
    return LebesgueSplit(regular=regular, singular=singular, rep=RNRepresentation(core, z))


def positive_lebesgue(
    psi: PositiveForm,
    theta: PositiveForm,
    rtol: float = DEFAULT_RANK_TOL,
) -> tuple[PositiveForm, PositiveForm]:
    """Split a positive form into absolutely continuous and singular parts.

    The singular part is the pullback of the kernel projector; the
    absolutely continuous part is the exact remainder, which agrees with
    the density-root formula up to rounding and makes the additivity
    identity hold to the last bit.
    """
    core = _rn_core(theta, psi, rtol)
    total = frob(theta.matrix + psi.matrix)
    singular_mat = _snap_zero(
        core.sum_embedding.from_quotient(core.kernel_projector), total
    )
    ac_mat = _snap_zero(psi.matrix - singular_mat, total)
    return (
        PositiveForm(hermitize(ac_mat), tol=BUILT_PSD_TOL),
        PositiveForm(hermitize(singular_mat), tol=BUILT_PSD_TOL),
    )


def _parallel_sum_matrix(
    a: np.ndarray, b: np.ndarray, rtol: float, spectra: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """a (a + b)^+ b for PSD a and b whose ascending eigenvalues are ``spectra``.

    By Weyl's inequalities the singular values of a + b lie between
    lambda_min(a) + lambda_min(b) and lambda_max(a) + lambda_max(b). When the
    lower bound exceeds 2 max(rtol, n eps) times the upper one, pinv's cut
    would keep every singular value, so an LU solve gives the same matrix;
    the margin covers the eigenvalues' rounding and keeps rtol = 0 from
    trusting a least eigenvalue that is only rounding. Otherwise the sum may
    be singular, and pinv cuts it at ``rtol``.
    """
    n = a.shape[0]
    if n and sum(v[0] for v in spectra) > 2.0 * max(rtol, n * _EPS) * sum(v[-1] for v in spectra):
        return a @ np.linalg.solve(a + b, b)
    return a @ pinv(a + b, rtol) @ b


def parallel_sum(
    a: PositiveForm, b: PositiveForm, rtol: float = DEFAULT_RANK_TOL
) -> PositiveForm:
    """Parallel sum a (a + b)^+ b: the harmonic-mean-type minorant of both.

    The inverse is applied by ``_parallel_sum_matrix`` from the two forms'
    cached spectra. A result below ``PARALLEL_SUM_SNAP`` times the smaller
    spectral norm, each read off its form's largest eigenvalue, is returned
    as exact zero.
    """
    raw = _parallel_sum_matrix(a.matrix, b.matrix, rtol, (a.eig.values, b.eig.values))
    scale = min(float(form.eig.values.max(initial=0.0)) for form in (a, b))
    if frob(raw) <= PARALLEL_SUM_SNAP * max(scale, 1e-300):
        raw = np.zeros_like(raw)
    return PositiveForm(hermitize(raw), tol=BUILT_PSD_TOL)


def parallel_sum_limit(
    psi: PositiveForm,
    theta: PositiveForm,
    rtol: float = DEFAULT_RANK_TOL,
) -> np.ndarray:
    """Increasing limit of psi : (t * theta) as t -> inf, Romberg-extrapolated.

    This is the largest theta-absolutely-continuous minorant of psi (Ando's
    limit), used as an oracle against the quotient construction. The limit
    does not change when theta is scaled, so theta is first scaled to the
    Frobenius mass of psi and t doubles from 1. For t > 0, psi : (t theta) is
    rational in 1/t with a finite limit at 0, so each doubling adds a tableau
    row T[k][j] = T[k][j-1] + (T[k][j-1] - T[k-1][j-1]) / (2^j - 1) and
    column 3 converges geometrically in 2^-k. The loop returns the column-3
    entry whose step drops below the stop threshold, or, once a step is no
    smaller than the one before (the rounding floor grows like 2^k), the
    previous entry, provided its own step is below the stall threshold.
    Each parallel sum takes its route in ``_parallel_sum_matrix`` from the
    cached spectra of psi and of theta, the latter scaled as theta is.

    Raises:
        NoConvergence: if the extrapolated steps have not settled below the
            stall threshold by t = 2^20; reported, never silently resolved.
    """
    scale = max(1.0, frob(psi.matrix))
    ratio = frob(psi.matrix) / max(frob(theta.matrix), 1e-300)
    base, base_values = theta.matrix * ratio, theta.eig.values * ratio
    row, step = [], np.inf
    for k in range(_LIMIT_MAX_DOUBLINGS + 1):
        spectra = (psi.eig.values, (2.0**k) * base_values)
        previous, row = row, [_parallel_sum_matrix(psi.matrix, (2.0**k) * base, rtol, spectra)]
        for j in range(1, min(k, _LIMIT_COLUMNS) + 1):
            row.append(row[j - 1] + (row[j - 1] - previous[j - 1]) / (2.0**j - 1.0))
        if k <= _LIMIT_COLUMNS:
            continue
        last_step, step = step, frob(row[-1] - previous[-1])
        if step < LIMIT_STOP * scale:
            return hermitize(row[-1])
        if step >= last_step and last_step <= LIMIT_STALL * scale:
            return hermitize(previous[-1])
    if step > LIMIT_STALL * scale:
        raise NoConvergence(
            f"extrapolated doubling reached 2^{_LIMIT_MAX_DOUBLINGS} with the "
            f"iterates still moving by {step:.3e}"
        )
    return hermitize(row[-1])


def is_mutually_singular(
    psi: PositiveForm,
    theta: PositiveForm,
    rtol: float = DEFAULT_RANK_TOL,
) -> bool:
    """True iff no nonzero positive form sits below both psi and theta.

    At finite dimension that holds exactly when ran psi and ran theta meet
    only in 0 (T. Ando, 1976), that is when rank(psi + theta) = rank psi +
    rank theta, each rank that of the ``rtol`` cut. Both forms are first
    scaled to a largest eigenvalue of 1: the verdict does not depend on
    their scales, and when the ranges are disjoint the sum's spectrum is
    then the union of theirs, so its cut and theirs are the same.
    """
    tops = [max(form.eig.values.max(initial=0.0), 1e-300) for form in (psi, theta)]
    unit_sum = psi.matrix / tops[0] + theta.matrix / tops[1]
    ranks = [quotient_embedding(form, rtol).rank for form in (psi, theta)]
    return eigen_embedding(hermitian_eig(unit_sum), rtol).rank == sum(ranks)


def singularity_witness(
    split: LebesgueSplit, theta: PositiveForm, xi
) -> tuple[np.ndarray, float, float]:
    """Vectors annihilating theta while matching xi inside the singular part:
    the finite-dimensional realization of the approximating sequence.

    ``xi`` is a vector or an n x k block of columns; the witnesses have its
    shape. The two residuals are the largest |theta(w, w)| and
    |omega_s(w - xi, w - xi)| over the columns, each relative to its form's
    spectral norm and to |xi|^2.

    Raises:
        WitnessResidualTooLarge: an internal inconsistency; must not occur
            on splits produced by this module.
    """
    xi = np.asarray(xi, dtype=complex)
    core = split.rep.core
    emb = core.sum_embedding
    witness = emb.pseudo_inverse @ (core.kernel_projector @ emb.embed(xi))
    cols, wits = (xi[:, None], witness[:, None]) if xi.ndim == 1 else (xi, witness)
    norm_sq = np.maximum(np.sum((cols.conj() * cols).real, axis=0), 1e-300)

    def worst(form: Form, v: np.ndarray) -> float:
        values = np.abs(np.sum(v.conj() * (form.matrix @ v), axis=0))
        return float(np.max(values / max(form.spectral_norm, 1e-300) / norm_sq, initial=0.0))

    theta_res, singular_res = worst(theta, wits), worst(split.singular, wits - cols)
    if max(theta_res, singular_res) > DEFAULT_RESIDUAL_TOL:
        raise WitnessResidualTooLarge(
            f"witness residuals {theta_res:.3e} (theta) / {singular_res:.3e} (singular part) "
            "exceed tolerance"
        )
    return witness, theta_res, singular_res


def maximality_check(
    phi_prime: PositiveForm,
    psi: PositiveForm,
    theta: PositiveForm,
    rtol: float = DEFAULT_RANK_TOL,
) -> bool:
    """Assert that an absolutely continuous minorant of psi sits below the
    absolutely continuous part of psi.

    Raises:
        PreconditionFails: if phi_prime is not theta-absolutely continuous
            or not below psi.
    """
    scale = max(1.0, specnorm(psi.matrix))
    if not is_absolutely_continuous(phi_prime, theta, rtol):
        raise PreconditionFails("phi_prime is not theta-absolutely continuous")
    if min_eig_herm(psi.matrix - phi_prime.matrix) < -ORDER_TOL * scale:
        raise PreconditionFails("phi_prime is not below psi")
    ac_part, _ = positive_lebesgue(psi, theta, rtol)
    return min_eig_herm(ac_part.matrix - phi_prime.matrix) >= -MEMBERSHIP_SLACK * scale
