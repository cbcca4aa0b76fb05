"""Majorization class membership, absolute continuity, and the
representation of a form through a positive scale operator.

The central construction: given a form omega, a reference positive form
theta and a majorant psi in the Cauchy-Schwarz class of omega, work on the
quotient space of the sum form phi = theta + psi. The connecting map u
from the phi-quotient to the theta-quotient has PSD square c = u^H u whose
square root is a contraction; its spectrum t encodes, per eigendirection,
how the theta-mass compares with the total mass. Off the kernel block its
eigenvectors W, carried by u, give the orthonormal frame B = u W / t of the
theta-quotient. Weighting B by w = sqrt(1 - t^2) / t converts theta-geometry
into psi-mass: the density root k = B diag(w) B^H has psi(xi, eta) =
<k j xi, k j eta>, the scale is h = (1 + k^2)^(1/2) = B diag(1/t) B^H +
(I - B B^H), its inverse takes the weights t, and the factor y has

    omega(xi, eta) = <h y j_theta(xi), h j_theta(eta)>.

Eigenvalues of c are snapped into [0, 1]: values within the rank tolerance
of 1 are treated as exactly 1 (pure theta directions contribute no
psi-mass), and values within the rank tolerance of 0 form the kernel
block, which is exactly the obstruction to absolute continuity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (
    NotAbsolutelyContinuous,
    NotInClassM,
    NotSectorial,
    ValidationError,
)
from .forms import (
    Form,
    PositiveForm,
    QuotientEmbedding,
    eigen_embedding,
    quotient_embedding,
    re_im_split,
)
from .numerics import (
    BUILT_PSD_TOL,
    DEFAULT_RANK_TOL,
    MEMBERSHIP_SLACK,
    HermEig,
    as_matrix,
    eigh_or_empty,
    frob,
    hermitian_eig,
    hermitize,
    min_eig_herm,
    pinv,
    psd_sqrt,
    rank_cut,
    relative,
    specnorm,
)
from .solvable import numerical_radius_bounds

# The half-slope at which the sector search takes its frontier vertex.
SECTOR_SLOPE_CAP = 2.0**20


def is_absolutely_continuous(
    psi: PositiveForm, theta: PositiveForm, rtol: float = DEFAULT_RANK_TOL
) -> bool:
    """Kernel inclusion N(theta) <= N(psi).

    At finite dimension the closability half of the definition is automatic,
    so the kernel inclusion is the whole decision.
    """
    return _vanishes_on(psi, quotient_embedding(theta, rtol).null, rtol)


def _vanishes_on(psi: PositiveForm, null: np.ndarray, rtol: float) -> bool:
    """Whether psi vanishes on the span of the orthonormal columns ``null``
    (a kernel from ``eigen_embedding``), relative to psi's top eigenvalue."""
    top = max(float(psi.eig.values[-1]), 0.0) if psi.eig.values.size else 0.0
    if null.shape[1] == 0 or top == 0.0:
        return True
    quad = np.linalg.norm(hermitize(null.conj().T @ psi.matrix @ null), 2)
    return float(quad) <= rtol * top


def _on_quotient(omega: Form, psi: PositiveForm, rtol: float) -> Optional[np.ndarray]:
    """Omega's matrix compressed to the psi-quotient, (J^+)^H omega J^+, or None
    when the kernel of psi, the ``null`` of the same rank cut, fails to
    annihilate that matrix on either side (relative to omega's spectral norm)."""
    emb = quotient_embedding(psi, rtol)
    null = emb.null
    mat = omega.matrix
    if null.shape[1] and omega.spectral_norm != 0:
        right = np.linalg.norm(mat @ null, 2)
        left = np.linalg.norm(null.conj().T @ mat, 2)
        if max(right, left) > rtol * omega.spectral_norm:
            return None
    return emb.to_quotient(mat)


def _class_M_verdict(compressed: Optional[np.ndarray]) -> tuple[bool, float]:
    """Membership and margin read off the compression C of ``_on_quotient``:
    |C| <= 1 (with ``MEMBERSHIP_SLACK`` of slack) and 1 - |C|, or False and
    -inf for a kernel obstruction (C is None)."""
    if compressed is None:
        return False, float("-inf")
    norm = specnorm(compressed)
    return norm <= 1.0 + MEMBERSHIP_SLACK, 1.0 - norm


def in_class_M(
    omega: Form, psi: PositiveForm, rtol: float = DEFAULT_RANK_TOL
) -> tuple[bool, float]:
    """Decide the Cauchy-Schwarz bound |omega(xi, eta)| <= psi-half-norms.

    The bound holds iff the kernel of psi annihilates the representing
    matrix on both sides and the compressed operator on the psi-quotient
    has norm at most 1 (with ``MEMBERSHIP_SLACK`` of slack). The margin is
    1 minus that norm; a kernel obstruction reports margin -inf.
    """
    return _class_M_verdict(_on_quotient(omega, psi, rtol))


@dataclass(frozen=True)
class Membership:
    """The class-M verdict of ``in_class_M`` and the quadratic bound
    |omega(xi, xi)| <= psi(xi, xi), both decided on one compression."""

    member: bool
    margin: float                     # 1 - |C|, -inf for a kernel obstruction
    epsilon: int                      # 1 for symmetric forms, 2 otherwise
    quadratic_norm: Optional[float]   # lower end of the bracket on w(C); None when failed
    failure: Optional[str]            # why the quadratic bound fails; None when it holds


def membership(omega: Form, psi: PositiveForm, rtol: float = DEFAULT_RANK_TOL) -> Membership:
    """Decide omega's membership in the class of psi and the quadratic bound.

    Both are questions about the compression C of omega to the psi-quotient,
    which is built once. The quadratic maximum over the psi-unit sphere is
    the numerical radius w(C), bracketed by ``numerical_radius_bounds``; the
    bound holds only when the whole bracket is within the slack. Since
    w(C) <= |C| <= 2 w(C) (an equality for symmetric omega), the quadratic
    bound puts omega in the class of epsilon * psi.
    """
    compressed = _on_quotient(omega, psi, rtol)
    member, margin = _class_M_verdict(compressed)
    eps = 1 if omega.is_symmetric() else 2
    if compressed is None:
        failure = "the kernel of psi carries a nonzero quadratic of omega"
        return Membership(member, margin, eps, None, failure)
    lower, upper = numerical_radius_bounds(compressed)
    failure = None
    if lower > 1.0 + MEMBERSHIP_SLACK:
        failure = f"quadratic maximum {lower:.6e} over the psi-unit sphere exceeds 1"
    elif upper > 1.0 + MEMBERSHIP_SLACK:
        failure = (
            f"quadratic bound inconclusive: the maximum over the psi-unit sphere "
            f"lies in [{lower:.6e}, {upper:.6e}], which reaches past 1"
        )
    return Membership(member, margin, eps, None if failure else lower, failure)


def canonical_majorant(t, rtol: float = DEFAULT_RANK_TOL) -> PositiveForm:
    """Majorant built from the polar decomposition of an operator.

    With t = u h polar (h PSD, u a partial isometry vanishing on ker h),
    the form with matrix I + h + u h u^H majorizes the form of t.

    Raises:
        ValidationError: if t^H t, its Hermitian sum or its Frobenius norm
            (which ``psd_sqrt`` forms) overflows the float range.
    """
    t = as_matrix(t)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = t.conj().T @ t
        finite = np.isfinite(gram + gram.conj().T).all() and np.isfinite(frob(gram))
    if not finite:
        raise ValidationError("omega is too large for its canonical majorant: t^H t overflows")
    h = psd_sqrt(gram, rtol)
    u = t @ pinv(h, rtol)
    n = t.shape[0]
    mat = np.eye(n, dtype=complex) + h + u @ h @ u.conj().T
    return PositiveForm(hermitize(mat))


@dataclass(frozen=True, eq=False)
class RNCore:
    """Shared skeleton of the quotient construction for the pair (theta, psi).

    A form omega enters through ``sum_embedding.to_quotient``. The kernel
    projector of the contraction is the exact obstruction to absolute
    continuity; it is the zero matrix iff psi is theta-absolutely continuous.
    """

    theta_embedding: QuotientEmbedding
    sum_embedding: QuotientEmbedding
    sum_to_theta: np.ndarray       # u, the connecting map
    frame: np.ndarray              # B, theta-quotient x directions off the kernel block
    spectrum: np.ndarray           # t of those directions, ascending, in (0, 1]
    kernel_basis: np.ndarray       # eigenvectors of u^H u in the kernel block

    @cached_property
    def weights(self) -> np.ndarray:
        """w = sqrt(1 - t^2) / t, the psi-mass per unit of theta-mass."""
        t = self.spectrum
        return np.sqrt(np.clip(1.0 - t * t, 0.0, None)) / t

    def in_frame(self, weights: np.ndarray, rest: float = 0.0) -> np.ndarray:
        """The Hermitian operator B diag(weights) B^H + rest (I - B B^H)."""
        b = self.frame
        op = (b * weights) @ b.conj().T
        if rest:
            op += rest * (np.eye(b.shape[0]) - b @ b.conj().T)
        return hermitize(op)

    @cached_property
    def density_root(self) -> np.ndarray:
        """k, with psi = <k j ., k j .> up to the kernel block."""
        return self.in_frame(self.weights)

    @cached_property
    def scale(self) -> np.ndarray:
        """h = (1 + k^2)^(1/2), with the weights sqrt(1 + w^2) = 1/t."""
        return self.in_frame(1.0 / self.spectrum, 1.0)

    @cached_property
    def kernel_projector(self) -> np.ndarray:
        return self.kernel_basis @ self.kernel_basis.conj().T

    def factor(self, compressed: np.ndarray) -> np.ndarray:
        """The factor y = u c j_sum j_theta^+ of a form with matrix c on the
        sum quotient, so that the form is <h y j ., h j .> when it vanishes
        on the kernel block."""
        emb_s, emb_t = self.sum_embedding, self.theta_embedding
        return self.sum_to_theta @ compressed @ emb_s.matrix @ emb_t.pseudo_inverse


def _rn_core(
    theta: PositiveForm,
    psi: PositiveForm,
    rtol: float = DEFAULT_RANK_TOL,
    *,
    absolutely_continuous: bool = False,
) -> RNCore:
    """With ``absolutely_continuous``, first raise NotAbsolutelyContinuous when
    psi does not vanish on the kernel of theta's embedding, the core's own."""
    emb_theta = quotient_embedding(theta, rtol)
    if absolutely_continuous and not _vanishes_on(psi, emb_theta.null, rtol):
        raise NotAbsolutelyContinuous("psi does not vanish on the kernel of theta")
    # phi = theta + psi is PSD by construction, so it takes no PSD check
    emb_sum = eigen_embedding(hermitian_eig(theta.matrix + psi.matrix), rtol)

    u_map = emb_theta.matrix @ emb_sum.pseudo_inverse
    values, vectors = eigh_or_empty(hermitize(u_map.conj().T @ u_map))
    values = np.clip(values, 0.0, None)
    # snap: the square is a contraction by construction, so eigenvalues within
    # the rank tolerance of 1 are the exact pure-theta directions
    values[values >= 1.0 - rtol] = 1.0
    # kernel decisions happen on the square, where the rounding floor lives;
    # taking the root first would lift eps-size noise above the threshold
    kept = rank_cut(values, rtol)
    spectrum = np.sqrt(values[kept])
    return RNCore(
        theta_embedding=emb_theta,
        sum_embedding=emb_sum,
        sum_to_theta=u_map,
        frame=(u_map @ vectors[:, kept]) / spectrum,
        spectrum=spectrum,
        kernel_basis=vectors[:, ~kept],
    )


@dataclass(frozen=True, eq=False)
class RNRepresentation:
    """Witness bundle of the scale/factor representation <h y j ., h j .>:
    the quotient construction and the factor y, with the majorant built
    from them on first read.

    The identities it satisfies (isometry, density, pairing, fundamental)
    are what tests check; the matrices themselves are not unique.
    """

    core: RNCore
    factor: np.ndarray             # y in omega = <h y j ., h j .>

    @cached_property
    def majorant(self) -> PositiveForm:
        """The positive form with quotient matrix h^2 + y^H h^2 y, which
        majorizes <h y j ., h j .> by the Cauchy-Schwarz inequality and
        vanishes on the kernel of theta."""
        h2 = self.core.scale @ self.core.scale
        gamma_q = hermitize(h2 + self.factor.conj().T @ h2 @ self.factor)
        return PositiveForm(self.core.theta_embedding.from_quotient(gamma_q), tol=BUILT_PSD_TOL)


def _majorized_core(
    omega: Form,
    theta: PositiveForm,
    psi: PositiveForm,
    rtol: float,
    *,
    absolutely_continuous: bool = False,
) -> tuple[RNCore, np.ndarray]:
    """The core of (theta, psi) and omega compressed to its sum quotient.

    Raises:
        NotInClassM: psi does not majorize omega (checked first).
        NotAbsolutelyContinuous: with ``absolutely_continuous``, as ``_rn_core``.
    """
    member, _ = in_class_M(omega, psi, rtol)
    if not member:
        raise NotInClassM("psi does not majorize omega")
    core = _rn_core(theta, psi, rtol, absolutely_continuous=absolutely_continuous)
    return core, core.sum_embedding.to_quotient(omega.matrix)


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
    core, compressed = _majorized_core(omega, theta, psi, rtol, absolutely_continuous=True)
    return RNRepresentation(core, core.factor(compressed))


def representation_residuals(
    rep: RNRepresentation, omega: Form, psi: PositiveForm
) -> dict[str, float]:
    """Relative residuals of the identities the representation must satisfy."""
    core, u, b = rep.core, rep.core.sum_to_theta, rep.core.frame
    emb_t = core.theta_embedding
    h2 = core.scale @ core.scale
    density = emb_t.from_quotient(core.density_root @ core.density_root)
    fundamental = emb_t.from_quotient(h2 @ rep.factor)
    return {
        "isometry": frob(b @ b.conj().T - np.eye(emb_t.rank)),
        "density": relative(frob(density - psi.matrix), frob(psi.matrix)),
        "pairing": frob(u.conj().T @ h2 @ u - np.eye(core.sum_embedding.rank)),
        "fundamental": relative(frob(fundamental - omega.matrix), frob(omega.matrix)),
    }


def kato_S(rep: RNRepresentation) -> np.ndarray:
    """The bounded middle operator s = h y h^-1 with omega = <s h j ., h j .>;
    h^-1 takes the weights t in the core's frame."""
    core = rep.core
    return core.scale @ rep.factor @ core.in_frame(core.spectrum, 1.0)


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
    core = _rn_core(theta, psi, rtol, absolutely_continuous=True)
    k_n = core.in_frame(np.where(core.spectrum >= 1.0 / n, core.weights, 0.0))
    mat = core.theta_embedding.from_quotient(k_n @ k_n)
    return PositiveForm(hermitize(mat), tol=BUILT_PSD_TOL)


def dominated_sequence_stabilization(
    psi: PositiveForm, theta: PositiveForm, rtol: float = DEFAULT_RANK_TOL
) -> int:
    """Smallest index from which the dominated sequence is constant:
    the first n with 1/n strictly below the least positive spectral point."""
    core = _rn_core(theta, psi, rtol)
    relevant = core.spectrum[core.spectrum < 1.0]
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


def _floor(a: np.ndarray, eig: HermEig, scale: float, rtol: float) -> float:
    """sup{t : a - t p PSD} for a Hermitian a and a PSD p given by its eigenpairs.

    On ker p (the rank cut of ``quotient_embedding``) a must be PSD within
    ``MEMBERSHIP_SLACK * scale``, and the range part of a must not couple
    into the directions where a is below ``rtol * scale`` there; otherwise
    the supremum is -inf. It is +inf for p = 0, and else the least
    eigenvalue of the Schur complement of the kernel block (the short of a
    to ran p), compressed to the p-quotient.
    """
    emb = eigen_embedding(eig, rtol)
    null = emb.null
    values, vectors = eigh_or_empty(hermitize(null.conj().T @ a @ null))
    if values.size and values[0] < -MEMBERSHIP_SLACK * scale:
        return float("-inf")
    kept = values > rtol * scale
    if specnorm(emb.basis.conj().T @ a @ null @ vectors[:, ~kept]) > rtol * scale:
        return float("-inf")
    if emb.rank == 0:
        return float("inf")
    coupling = a @ null @ vectors[:, kept]
    short = a - (coupling / values[kept]) @ coupling.conj().T
    return float(np.linalg.eigvalsh(hermitize(emb.to_quotient(short)))[0])


def sectorial_parameters(
    omega: Form,
    theta: PositiveForm,
    delta: Optional[float] = None,
    gamma: Optional[float] = None,
    rtol: float = DEFAULT_RANK_TOL,
) -> SectorialityCertificate:
    """Verify (or search for) sector parameters.

    The certificate is two matrix inequalities, each least eigenvalue within
    ``MEMBERSHIP_SLACK`` times the scale: re - delta theta is PSD and
    gamma-dominates both signs of im. By Kato's bound (*Perturbation Theory
    for Linear Operators*, VI 1.2) they make (1 + gamma)(re - delta theta) a
    majorant of omega - delta theta. When neither is supplied, the vertex is
    the sector frontier at the slope cap, the least of sup{d : re +- im / cap
    - d theta PSD} over both signs (in closed form, through the Schur
    complement on the kernel of theta), backed off by ``MEMBERSHIP_SLACK``
    times the scale so that the check sees a positive margin. The half-slope
    is the least one at that vertex, at most ``SECTOR_SLOPE_CAP``, and the
    pair then goes through the same check.

    Raises:
        NotSectorial: naming the violated inequality, or, for a search, a
            real part that leaves no vertex at the slope cap on the kernel
            of theta.
    """
    if (delta is None) != (gamma is None):
        raise ValueError("supply both delta and gamma, or neither")
    re, im = re_im_split(omega)
    scale = max(1.0, specnorm(omega.matrix), specnorm(theta.matrix))
    if delta is None:
        frontier = min(
            _floor(re.matrix + sign * im.matrix / SECTOR_SLOPE_CAP, theta.eig, scale, rtol)
            for sign in (1.0, -1.0)
        )
        delta = frontier - MEMBERSHIP_SLACK * scale if np.isfinite(frontier) else 0.0
    base = hermitize(re.matrix - delta * theta.matrix)
    if gamma is None:
        eig = HermEig(*eigh_or_empty(base))
        gamma = max(0.0, *(-_floor(sign * im.matrix, eig, scale, rtol) for sign in (1.0, -1.0)))
        if frontier == float("-inf") or gamma == float("inf"):
            raise NotSectorial(
                f"no vertex admits a half-slope at most {SECTOR_SLOPE_CAP:.0f}: the real "
                "part does not dominate the imaginary part on the kernel of theta"
            )
    m_vertex = min_eig_herm(base) / scale
    m_plus = min_eig_herm(gamma * base - im.matrix) / scale
    m_minus = min_eig_herm(gamma * base + im.matrix) / scale
    if m_vertex < -MEMBERSHIP_SLACK:
        raise NotSectorial(
            f"real part minus {delta} * theta has least eigenvalue "
            f"{m_vertex * scale:.4g} (margin {m_vertex:.3e} relative to scale {scale:.4g})"
        )
    if min(m_plus, m_minus) < -MEMBERSHIP_SLACK:
        least = min(m_plus, m_minus)
        raise NotSectorial(
            f"imaginary part exceeds {gamma} * (real part - {delta} * theta): "
            f"least eigenvalue {least * scale:.4g} "
            f"(margin {least:.3e} relative to scale {scale:.4g})"
        )
    return SectorialityCertificate(
        delta=float(delta),
        gamma=float(gamma),
        margin=float(min(m_vertex, m_plus, m_minus)),
    )
