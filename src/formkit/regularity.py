"""Majorization class membership, absolute continuity, and the
representation of a form through a positive scale operator.

The central construction: given a form omega, a reference positive form
theta and a majorant psi in the Cauchy-Schwarz class of omega, work on the
quotient space of the sum form phi = theta + psi. The connecting map u
from the phi-quotient to the theta-quotient has PSD square c = u^H u whose
square root is a contraction; its spectrum t encodes, per eigendirection,
how the theta-mass compares with the total mass. Weighting each direction
by sqrt(1 - t^2) / t converts theta-geometry into psi-mass, which yields
the density root k with psi(xi, eta) = <k j xi, k j eta>, the scale
h = (1 + k^2)^(1/2), and the represented factor y with

    omega(xi, eta) = <h y j_theta(xi), h j_theta(eta)>.

Eigenvalues of c are snapped into [0, 1]: values within the rank tolerance
of 1 are treated as exactly 1 (pure theta directions contribute no
psi-mass), and values within the rank tolerance of 0 form the kernel
block, which is exactly the obstruction to absolute continuity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    NotAbsolutelyContinuous,
    NotInClassM,
    NotSectorial,
    QuadraticBoundFails,
)
from .forms import (
    Form,
    PositiveForm,
    QuotientEmbedding,
    eigen_embedding,
    is_absolutely_continuous,
    kernel,
    quotient_embedding,
    re_im_split,
)
from .numerics import (
    BUILT_PSD_TOL,
    DEFAULT_RANK_TOL,
    HermEig,
    as_matrix,
    eigh_or_empty,
    frob,
    hermitize,
    min_eig_herm,
    pinv,
    psd_sqrt,
    rank_cut,
    specnorm,
)
from .solvable import DEFAULT_HULL_GRID, numerical_radius_bounds

MEMBERSHIP_SLACK = 1e-9

# Largest half-slope the sector search accepts at a vertex.
SECTOR_SLOPE_CAP = 2.0**20


def _kernel_obstructed(mat: np.ndarray, psi: PositiveForm, rtol: float) -> bool:
    """True when the kernel of psi fails to annihilate ``mat`` on either side
    (relative to the spectral norm of ``mat``)."""
    null = kernel(psi, rtol)
    scale = specnorm(mat)
    if null.shape[1] == 0 or scale == 0:
        return False
    right = np.linalg.norm(mat @ null, 2)
    left = np.linalg.norm(null.conj().T @ mat, 2)
    return max(right, left) > rtol * scale


def in_class_M(
    omega: Form, psi: PositiveForm, rtol: float = DEFAULT_RANK_TOL
) -> tuple[bool, float]:
    """Decide the Cauchy-Schwarz bound |omega(xi, eta)| <= psi-half-norms.

    The bound holds iff the kernel of psi annihilates the representing
    matrix on both sides and the compressed operator on the psi-quotient
    has norm at most 1 (with ``MEMBERSHIP_SLACK`` of slack). The margin is
    1 minus that norm; a kernel obstruction reports margin -inf.
    """
    mat = omega.matrix
    if _kernel_obstructed(mat, psi, rtol):
        return False, float("-inf")
    emb = quotient_embedding(psi, rtol)
    compressed = emb.to_quotient(mat)
    norm = specnorm(compressed)
    return norm <= 1.0 + MEMBERSHIP_SLACK, 1.0 - norm


@dataclass(frozen=True)
class EpsilonBound:
    """Verification bundle for the quadratic-majorization shortcut."""

    epsilon: int                # 1 for symmetric forms, 2 otherwise
    quadratic_norm: float       # max of |omega(xi, xi)| over the psi-unit sphere
    member: bool                # membership of omega in the class of epsilon*psi
    margin: float


def epsilon_bound_check(
    omega: Form,
    psi: PositiveForm,
    rtol: float = DEFAULT_RANK_TOL,
    grid: int = DEFAULT_HULL_GRID,
) -> EpsilonBound:
    """Check |omega(xi, xi)| <= psi(xi, xi) and confirm class membership
    after scaling psi by 1 (symmetric) or 2 (general).

    The quadratic maximum is bracketed by ``numerical_radius_bounds``; the
    bound is accepted only when the whole bracket is within the slack, and
    ``quadratic_norm`` reports its lower end.

    Raises:
        QuadraticBoundFails: if the quadratic bound is violated, or if the
            bracket straddles 1 (reported as inconclusive).
    """
    mat = omega.matrix
    if _kernel_obstructed(mat, psi, rtol):
        raise QuadraticBoundFails("the kernel of psi carries a nonzero quadratic of omega")
    emb = quotient_embedding(psi, rtol)
    lower, upper = numerical_radius_bounds(emb.to_quotient(mat), grid)
    if lower > 1.0 + MEMBERSHIP_SLACK:
        raise QuadraticBoundFails(
            f"quadratic maximum {lower:.6e} over the psi-unit sphere exceeds 1"
        )
    if upper > 1.0 + MEMBERSHIP_SLACK:
        raise QuadraticBoundFails(
            f"quadratic bound inconclusive: the maximum over the psi-unit sphere "
            f"lies in [{lower:.6e}, {upper:.6e}], which reaches past 1"
        )
    eps = 1 if omega.is_symmetric() else 2
    member, margin = in_class_M(omega, PositiveForm(eps * psi.matrix), rtol)
    return EpsilonBound(epsilon=eps, quadratic_norm=lower, member=member, margin=margin)


def canonical_majorant(t, rtol: float = DEFAULT_RANK_TOL) -> PositiveForm:
    """Majorant built from the polar decomposition of an operator.

    With t = u h polar (h PSD, u a partial isometry vanishing on ker h),
    the form with matrix I + h + u h u^H majorizes the form of t.
    """
    t = as_matrix(t)
    h = psd_sqrt(t.conj().T @ t, rtol)
    u = t @ pinv(h, rtol)
    n = t.shape[0]
    mat = np.eye(n, dtype=complex) + h + u @ h @ u.conj().T
    return PositiveForm(hermitize(mat))


@dataclass(frozen=True, eq=False)
class RNCore:
    """Shared skeleton of the quotient construction.

    ``omega_on_sum`` (the compressed omega on the sum quotient) is None when
    the construction is run for a pair of positive forms only. The kernel
    projector of the contraction is the exact obstruction to absolute
    continuity; it is the zero matrix iff psi is theta-absolutely continuous.
    """

    theta_embedding: QuotientEmbedding
    sum_embedding: QuotientEmbedding
    contraction: np.ndarray        # PSD square root of u_map^H u_map, spectrum in [0, 1]
    spectrum: np.ndarray           # its eigenvalues t, ascending
    spectrum_basis: np.ndarray     # matching eigenvectors
    kernel_mask: np.ndarray        # which eigendirections belong to the kernel block
    kernel_projector: np.ndarray
    isometry: np.ndarray           # theta-quotient -> sum-quotient
    tangent: np.ndarray            # sqrt(1 - t^2)/t on the positive spectrum
    density_root: np.ndarray       # k, with psi = <k j ., k j .> up to the kernel block
    scale: np.ndarray              # h = (1 + k^2)^(1/2)
    sum_to_theta: np.ndarray       # u, the connecting map
    omega_on_sum: Optional[np.ndarray]

    @property
    def dim(self) -> int:
        return self.theta_embedding.dim

    def tangent_truncated(self, level: float) -> np.ndarray:
        """Tangent weights restricted to spectrum >= level (the finite stage
        of the increasing approximation)."""
        active = (~self.kernel_mask) & (self.spectrum >= level)
        return _tangent(self.spectrum, self.spectrum_basis, active)


def _tangent(t: np.ndarray, vectors: np.ndarray, active: np.ndarray) -> np.ndarray:
    """The operator with weight sqrt(1 - t^2)/t on the active eigenvectors
    and 0 on the others."""
    weights = np.zeros_like(t)
    tw = t[active]
    weights[active] = np.sqrt(np.clip(1.0 - tw * tw, 0.0, None)) / tw
    return (vectors * weights) @ vectors.conj().T


def _rn_core(
    theta: PositiveForm,
    psi: PositiveForm,
    omega: Optional[Form],
    rtol: float = DEFAULT_RANK_TOL,
) -> RNCore:
    phi = PositiveForm(theta.matrix + psi.matrix)
    emb_theta = quotient_embedding(theta, rtol)
    emb_sum = quotient_embedding(phi, rtol)

    u_map = emb_theta.matrix @ emb_sum.pseudo_inverse
    csq = hermitize(u_map.conj().T @ u_map)
    values, vectors = eigh_or_empty(csq)
    values = np.clip(values, 0.0, None)
    # snap: the square is a contraction by construction, so eigenvalues within
    # the rank tolerance of 1 are the exact pure-theta directions
    values[values >= 1.0 - rtol] = 1.0
    # kernel decisions happen on the square, where the rounding floor lives;
    # taking the root first would lift eps-size noise above the threshold
    kernel_mask = ~rank_cut(values, rtol)
    spectrum = np.sqrt(values)

    contraction = hermitize((vectors * spectrum) @ vectors.conj().T)
    null = vectors[:, kernel_mask]
    proj = null @ null.conj().T

    isometry = contraction @ emb_sum.matrix @ emb_theta.pseudo_inverse

    tangent = _tangent(spectrum, vectors, ~kernel_mask)

    density_root = hermitize(isometry.conj().T @ tangent @ isometry)
    dvals, dvecs = eigh_or_empty(density_root)
    dvals = np.clip(dvals, 0.0, None)
    scale = hermitize((dvecs * np.sqrt(1.0 + dvals * dvals)) @ dvecs.conj().T)

    omega_on_sum = emb_sum.to_quotient(omega.matrix) if omega is not None else None

    return RNCore(
        theta_embedding=emb_theta,
        sum_embedding=emb_sum,
        contraction=contraction,
        spectrum=spectrum,
        spectrum_basis=vectors,
        kernel_mask=kernel_mask,
        kernel_projector=proj,
        isometry=isometry,
        tangent=tangent,
        density_root=density_root,
        scale=scale,
        sum_to_theta=u_map,
        omega_on_sum=omega_on_sum,
    )


@dataclass(frozen=True, eq=False)
class RNRepresentation(RNCore):
    """Witness bundle of the scale/factor representation: the quotient
    construction plus the factor and the majorant built from them.

    The identities it satisfies (isometry, density, pairing, fundamental)
    are what tests check; the matrices themselves are not unique.
    """

    core_factor: np.ndarray        # y in omega = <h y j ., h j .>
    majorant: PositiveForm         # the positive form built from scale and factor


def scale_factor_majorant(core: RNCore, factor: np.ndarray) -> PositiveForm:
    """The positive form with quotient matrix h^2 + y^H h^2 y, which
    majorizes <h y j ., h j .> by the Cauchy-Schwarz inequality and vanishes
    on the kernel of theta."""
    h2 = core.scale @ core.scale
    gamma_q = hermitize(h2 + factor.conj().T @ h2 @ factor)
    return PositiveForm(core.theta_embedding.from_quotient(gamma_q), tol=BUILT_PSD_TOL)


def radon_nikodym(
    omega: Form,
    theta: PositiveForm,
    psi: PositiveForm,
    rtol: float = DEFAULT_RANK_TOL,
) -> RNRepresentation:
    """Construct the scale/factor representation of omega over theta.

    Raises:
        NotInClassM: psi does not majorize omega in the Cauchy-Schwarz sense.
        NotAbsolutelyContinuous: psi is not theta-absolutely continuous.
    """
    member, _ = in_class_M(omega, psi, rtol)
    if not member:
        raise NotInClassM("psi does not majorize omega")
    if not is_absolutely_continuous(psi, theta, rtol):
        raise NotAbsolutelyContinuous("psi does not vanish on the kernel of theta")
    core = _rn_core(theta, psi, omega, rtol)
    factor = (
        core.sum_to_theta
        @ core.omega_on_sum
        @ core.sum_embedding.matrix
        @ core.theta_embedding.pseudo_inverse
    )
    return RNRepresentation(
        **vars(core), core_factor=factor, majorant=scale_factor_majorant(core, factor)
    )


def representation_residuals(
    rep: RNRepresentation, omega: Form, theta: PositiveForm, psi: PositiveForm
) -> dict[str, float]:
    """Relative residuals of the identities the representation must satisfy."""
    emb_t, emb_s = rep.theta_embedding, rep.sum_embedding
    h2 = rep.scale @ rep.scale

    def rel(err: float, scale: float) -> float:
        return err / max(scale, 1e-300) if scale > 0 else err

    iso = rep.isometry.conj().T @ rep.isometry
    iso_res = frob(iso - np.eye(emb_t.rank))

    density = emb_t.from_quotient(rep.density_root @ rep.density_root)
    density_res = rel(frob(density - psi.matrix), frob(psi.matrix))

    pairing = rep.sum_to_theta.conj().T @ h2 @ rep.sum_to_theta
    pairing_res = frob(pairing - np.eye(emb_s.rank))

    fundamental = emb_t.from_quotient(h2 @ rep.core_factor)
    fundamental_res = rel(frob(fundamental - omega.matrix), frob(omega.matrix))

    return {
        "isometry": float(iso_res),
        "density": float(density_res),
        "pairing": float(pairing_res),
        "fundamental": float(fundamental_res),
    }


def kato_S(rep: RNRepresentation, rtol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """The bounded middle operator s with omega = <s h j ., h j .>.

    Fixed to zero on the orthogonal complement of the range of the scale
    (the minimal-norm choice among the valid ones); the scale is invertible
    here, so that complement is trivial.
    """
    return rep.scale @ rep.core_factor @ pinv(rep.scale, rtol)


def dominated_sequence(
    psi: PositiveForm,
    theta: PositiveForm,
    n: int,
    rtol: float = DEFAULT_RANK_TOL,
) -> PositiveForm:
    """Stage n of the nondecreasing sequence of theta-dominated forms
    increasing to psi (spectral truncation at level 1/n).

    Raises:
        NotAbsolutelyContinuous: if psi is not theta-absolutely continuous.
    """
    if n < 1:
        raise ValueError("truncation index must be a positive integer")
    if not is_absolutely_continuous(psi, theta, rtol):
        raise NotAbsolutelyContinuous("psi does not vanish on the kernel of theta")
    core = _rn_core(theta, psi, None, rtol)
    truncated = core.tangent_truncated(1.0 / n)
    k_n = hermitize(core.isometry.conj().T @ truncated @ core.isometry)
    mat = core.theta_embedding.from_quotient(k_n @ k_n)
    return PositiveForm(hermitize(mat), tol=BUILT_PSD_TOL)


def dominated_sequence_stabilization(
    psi: PositiveForm, theta: PositiveForm, rtol: float = DEFAULT_RANK_TOL
) -> int:
    """Smallest index from which the dominated sequence is constant:
    the first n with 1/n strictly below the least positive spectral point."""
    core = _rn_core(theta, psi, None, rtol)
    positive = core.spectrum[(~core.kernel_mask) & (core.spectrum < 1.0)]
    relevant = positive[positive > 0]
    if relevant.size == 0:
        return 1
    t_min = float(np.min(relevant))
    return int(np.floor(1.0 / t_min)) + 1


@dataclass(frozen=True)
class SectorialityCertificate:
    """Vertex/half-slope certificate for a sector containing the numerical
    range relative to a reference positive form."""

    delta: float
    gamma: float
    margin: float                 # least normalized eigenvalue margin of the checks
    majorant_margin: float        # membership margin of the induced majorant


def _least_slope(
    im: np.ndarray, base: np.ndarray, scale: float, rtol: float, slack: float
) -> Optional[float]:
    """Least gamma with gamma * base - im and gamma * base + im both PSD.

    None when base fails the vertex test or im does not vanish on the kernel
    of base (same rank cut as ``quotient_embedding``). Otherwise the condition
    reads |C| <= gamma for the compression C of im to the base-quotient, so
    the least slope is the spectral radius of C.
    """
    eig = HermEig(*np.linalg.eigh(base))
    if eig.values.size and eig.values[0] < -slack * scale:
        return None
    emb = eigen_embedding(eig, rtol)
    # eigenvalues ascend, so the rank cut keeps the last emb.rank columns
    null = eig.vectors[:, : emb.dim - emb.rank]
    if null.shape[1] and specnorm(im @ null) > rtol * scale:
        return None
    if emb.rank == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvalsh(emb.to_quotient(im)))))


def sectorial_parameters(
    omega: Form,
    theta: PositiveForm,
    delta: Optional[float] = None,
    gamma: Optional[float] = None,
    rtol: float = DEFAULT_RANK_TOL,
    slack: float = MEMBERSHIP_SLACK,
) -> SectorialityCertificate:
    """Verify (or search for) sector parameters.

    Explicit (delta, gamma) are checked as two matrix inequalities: the
    shifted real part must be PSD and must gamma-dominate both signs of the
    imaginary part. When neither is supplied, 32 vertices are scanned in
    descending order from the largest admissible one; the first whose least
    half-slope (the spectral radius of the imaginary part compressed to the
    quotient of the shifted real part) is at most ``SECTOR_SLOPE_CAP`` and
    passes the explicit check with that slope is returned; a vertex the
    check refuses is skipped. Search refusal means no scanned vertex admits
    such a slope, not a proof of non-sectoriality.

    Raises:
        NotSectorial: naming the violated inequality, or reporting search
            refusal.
    """
    if (delta is None) != (gamma is None):
        raise ValueError("supply both delta and gamma, or neither")
    re, im = re_im_split(omega)
    scale = max(1.0, specnorm(omega.matrix), specnorm(theta.matrix))
    if delta is not None:
        base = hermitize(re.matrix - delta * theta.matrix)
        values = np.linalg.eigvalsh(base) if base.size else np.zeros(1)
        m_vertex = float(values[0]) / scale
        m_plus = min_eig_herm(gamma * base - im.matrix) / scale
        m_minus = min_eig_herm(gamma * base + im.matrix) / scale
        if m_vertex < -slack:
            raise NotSectorial(
                f"real part minus {delta} * theta has least eigenvalue "
                f"{m_vertex * scale:.4g} (margin {m_vertex:.3e} relative to scale {scale:.4g})"
            )
        if min(m_plus, m_minus) < -slack:
            least = min(m_plus, m_minus)
            raise NotSectorial(
                f"imaginary part exceeds {gamma} * (real part - {delta} * theta): "
                f"least eigenvalue {least * scale:.4g} "
                f"(margin {least:.3e} relative to scale {scale:.4g})"
            )
        shifted = Form(omega.matrix - delta * theta.matrix)
        # PositiveForm judges PSD relative to the top eigenvalue; scale its
        # tolerance so it accepts what the vertex test above accepted
        majorant = PositiveForm(
            (1.0 + gamma) * base,
            tol=max(BUILT_PSD_TOL, slack * scale / max(float(values[-1]), 1e-300)),
        )
        member, member_margin = in_class_M(shifted, majorant, rtol)
        if not member:
            raise NotSectorial(
                "sector inequalities hold but the induced majorant fails membership"
            )
        return SectorialityCertificate(
            delta=float(delta),
            gamma=float(gamma),
            margin=float(min(m_vertex, m_plus, m_minus)),
            majorant_margin=float(member_margin),
        )

    re_min = min_eig_herm(re.matrix)
    emb = quotient_embedding(theta, rtol)
    if emb.rank:
        compressed = hermitize(emb.to_quotient(re.matrix))
        delta_sup = float(np.linalg.eigvalsh(compressed)[0])
    else:
        delta_sup = re_min
    for d in np.linspace(re_min - 1.0, delta_sup, 32)[::-1]:
        base = re.matrix - d * theta.matrix
        g = _least_slope(im.matrix, base, scale, rtol, slack)
        if g is not None and g <= SECTOR_SLOPE_CAP * (1.0 + slack):
            try:
                return sectorial_parameters(omega, theta, float(d), g, rtol, slack)
            except NotSectorial:
                continue  # the verify refused this vertex: try the next one
    raise NotSectorial(
        f"no scanned vertex admits a half-slope at most {SECTOR_SLOPE_CAP:.0f}; "
        "this is a search refusal, not a proof of non-sectoriality"
    )


def sectorial_regularity(
    omega: Form,
    theta: PositiveForm,
    certificate: SectorialityCertificate,
    rtol: float = DEFAULT_RANK_TOL,
) -> bool:
    """For a sectorial form, regularity relative to theta reduces to
    absolute continuity of the shifted real part."""
    re, _ = re_im_split(omega)
    base = PositiveForm(
        hermitize(re.matrix - certificate.delta * theta.matrix), tol=BUILT_PSD_TOL
    )
    return is_absolutely_continuous(base, theta, rtol)
