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

from .errors import (
    NoConvergence,
    NotInClassM,
    PreconditionFails,
    WitnessResidualTooLarge,
)
from .forms import Form, PositiveForm, is_absolutely_continuous
from .numerics import BUILT_PSD_TOL, DEFAULT_RANK_TOL, frob, hermitize, min_eig_herm, pinv, specnorm
from .regularity import RNCore, _rn_core, in_class_M, scale_factor_majorant

# Components smaller than this (relative to the total mass) are returned as
# exact zero matrices; they are indistinguishable from rounding noise.
_ZERO_SNAP = 1e-12

_LIMIT_STOP = 1e-12
_LIMIT_MAX_DOUBLINGS = 40
_SINGULAR_THRESHOLD = 1e-9


def _snap_zero(mat: np.ndarray, scale: float) -> np.ndarray:
    """Replace a matrix indistinguishable from rounding noise by exact zero."""
    if frob(mat) <= _ZERO_SNAP * max(scale, 1e-300):
        return np.zeros_like(mat)
    return mat


@dataclass(frozen=True, eq=False)
class LebesgueSplit:
    """Additive decomposition omega = regular + singular with witnesses."""

    regular: Form
    singular: Form
    kernel_projector: np.ndarray   # projector onto the kernel block, sum quotient
    regular_core: np.ndarray       # the factor z with regular = <h z j ., h j .>
    rep: RNCore


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
    member, _ = in_class_M(omega, psi, rtol)
    if not member:
        raise NotInClassM("psi does not majorize omega")
    core = _rn_core(theta, psi, omega, rtol)
    proj = core.kernel_projector
    comp = np.eye(proj.shape[0], dtype=complex) - proj
    compressed = core.omega_on_sum
    regular_q = comp @ compressed @ comp
    singular_q = comp @ compressed @ proj + proj @ compressed
    emb = core.sum_embedding
    total = max(frob(omega.matrix), frob(theta.matrix + psi.matrix))
    regular = Form(_snap_zero(emb.from_quotient(regular_q), total))
    singular = Form(_snap_zero(emb.from_quotient(singular_q), total))
    z = (
        core.sum_to_theta
        @ compressed
        @ comp
        @ emb.matrix
        @ core.theta_embedding.pseudo_inverse
    )
    return LebesgueSplit(
        regular=regular,
        singular=singular,
        kernel_projector=proj,
        regular_core=z,
        rep=core,
    )


def regular_part_majorant(
    split: LebesgueSplit, rtol: float = DEFAULT_RANK_TOL
) -> PositiveForm:
    """The canonical majorant certifying regularity of the regular part.

    Built from the scale and the regular factor; it vanishes on the kernel
    of theta by construction, so it is automatically absolutely continuous,
    and it majorizes the regular part by the Cauchy-Schwarz inequality.
    """
    return scale_factor_majorant(split.rep, split.regular_core)


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
    core = _rn_core(theta, psi, None, rtol)
    total = frob(theta.matrix + psi.matrix)
    singular_mat = _snap_zero(
        core.sum_embedding.from_quotient(core.kernel_projector), total
    )
    ac_mat = _snap_zero(psi.matrix - singular_mat, total)
    return (
        PositiveForm(hermitize(ac_mat), tol=BUILT_PSD_TOL),
        PositiveForm(hermitize(singular_mat), tol=BUILT_PSD_TOL),
    )


def _parallel_sum_matrix(a: np.ndarray, b: np.ndarray, rtol: float) -> np.ndarray:
    return a @ pinv(a + b, rtol) @ b


def parallel_sum(
    a: PositiveForm, b: PositiveForm, rtol: float = DEFAULT_RANK_TOL
) -> PositiveForm:
    """Parallel sum a (a + b)^+ b: the harmonic-mean-type minorant of both."""
    raw = _parallel_sum_matrix(a.matrix, b.matrix, rtol)
    scale = min(specnorm(a.matrix), specnorm(b.matrix))
    if frob(raw) <= 1e-11 * max(scale, 1e-300):
        raw = np.zeros_like(raw)
    return PositiveForm(hermitize(raw), tol=BUILT_PSD_TOL)


def parallel_sum_limit(
    psi: PositiveForm,
    theta: PositiveForm,
    rtol: float = DEFAULT_RANK_TOL,
) -> np.ndarray:
    """Increasing limit of psi : (n * theta) under a doubling schedule.

    This is the largest theta-absolutely-continuous minorant of psi, used
    as an oracle against the quotient construction. Doubling stops once the
    Frobenius change drops below the stop threshold or after 2^40.

    Raises:
        NoConvergence: if the loop reaches the cap with the sequence still
            moving; reported, never silently resolved.
    """
    scale = max(1.0, frob(psi.matrix))
    previous = _parallel_sum_matrix(psi.matrix, theta.matrix, rtol)
    delta = None
    for k in range(1, _LIMIT_MAX_DOUBLINGS + 1):
        current = _parallel_sum_matrix(psi.matrix, (2.0**k) * theta.matrix, rtol)
        delta = frob(current - previous)
        previous = current
        if delta < _LIMIT_STOP * scale:
            return hermitize(previous)
    if delta is not None and delta > 1e-6 * scale:
        raise NoConvergence(
            f"doubling reached 2^{_LIMIT_MAX_DOUBLINGS} with the iterates still "
            f"moving by {delta:.3e}"
        )
    return hermitize(previous)


def is_mutually_singular(
    psi: PositiveForm,
    theta: PositiveForm,
    rtol: float = DEFAULT_RANK_TOL,
) -> bool:
    """True iff no nonzero positive form sits below both psi and theta,
    decided by thresholding the parallel-sum limit."""
    limit = parallel_sum_limit(psi, theta, rtol)
    return frob(limit) <= _SINGULAR_THRESHOLD * max(frob(psi.matrix), 1e-300)


def singularity_witness(
    omega_s: Form,
    theta: PositiveForm,
    split: LebesgueSplit,
    xi,
    rtol: float = DEFAULT_RANK_TOL,
    residual_tol: float = 1e-8,
) -> np.ndarray:
    """Vector xi' annihilating theta while matching xi inside the singular
    part: the finite-dimensional realization of the approximating sequence.

    Raises:
        WitnessResidualTooLarge: an internal inconsistency; must not occur
            on splits produced by this module.
    """
    xi = np.asarray(xi, dtype=complex)
    core = split.rep
    emb = core.sum_embedding
    target = core.kernel_projector @ emb.embed(xi)
    witness = emb.pseudo_inverse @ target
    norm_sq = float(np.vdot(xi, xi).real)
    theta_val = abs(theta(witness, witness))
    theta_bound = residual_tol * max(theta.spectral_norm, 1e-300) * max(norm_sq, 1e-300)
    diff = witness - xi
    omega_val = abs(omega_s(diff, diff))
    omega_bound = residual_tol * max(omega_s.spectral_norm, 1e-300) * max(norm_sq, 1e-300)
    if theta_val > theta_bound or omega_val > omega_bound:
        raise WitnessResidualTooLarge(
            f"witness residuals {theta_val:.3e} (theta) / {omega_val:.3e} (singular part) "
            "exceed tolerance"
        )
    return witness


def maximality_check(
    phi_prime: PositiveForm,
    psi: PositiveForm,
    theta: PositiveForm,
    rtol: float = DEFAULT_RANK_TOL,
    slack: float = 1e-9,
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
    if min_eig_herm(psi.matrix - phi_prime.matrix) < -1e-10 * scale:
        raise PreconditionFails("phi_prime is not below psi")
    ac_part, _ = positive_lebesgue(psi, theta, rtol)
    return min_eig_herm(ac_part.matrix - phi_prime.matrix) >= -slack * scale
