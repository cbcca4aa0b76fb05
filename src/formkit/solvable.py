"""Solvability of forms on a finite-dimensional Gelfand triplet.

The triplet is modeled by a Hermitian positive-definite Gram matrix G:
the small space carries the norm |G^(1/2) xi|, the dual norm of a
functional vector is |G^(-1/2) Lambda|, and a perturbed form acts between
them literally as its matrix. Solvability then reduces to the extreme
singular values of the G-normalized matrix, and the scalar case is
controlled by the numerical range via its support function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import IncompatibleNorm, NotSolvable, TheoremViolation, ValidationError
from .forms import Form, PositiveForm
from .numerics import (
    DEFAULT_RANK_TOL,
    HermEig,
    as_matrix,
    eigh_or_empty,
    hermitize,
    min_eig_herm,
    specnorm,
)

DEFAULT_HULL_GRID = 720
MIN_HULL_GRID = 16

# Hull margins closer to the boundary than this (relative to the hull scale)
# are reported inconclusive rather than guessed.
BOUNDARY_RTOL = 1e-4


@dataclass(frozen=True, eq=False)
class NormGram:
    """Gram matrix of the Hilbert norm put on the domain.

    Construction caches the eigendecomposition and, from its least
    eigenvalue, ``dominates_inner_product``: the outcome of
    ``validate_compatible_norm`` against the inner product at the default
    rank tolerance, since min eig(G - I) = min eig(G) - 1.
    """

    gram: np.ndarray
    eig: HermEig = field(init=False, repr=False)
    dominates_inner_product: bool = field(init=False, repr=False)

    def __post_init__(self):
        g = as_matrix(self.gram)
        if np.linalg.norm(g - g.conj().T) > 1e-10 * max(np.linalg.norm(g), 1e-300):
            raise ValidationError("norm Gram matrix must be Hermitian")
        g = hermitize(g)
        w, v = eigh_or_empty(g)
        if g.size and w[0] <= 0:
            raise ValidationError(
                f"norm Gram matrix must be positive definite: min eigenvalue {w[0]:.6e}"
            )
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "eig", HermEig(w, v))
        compatible = not g.size or w[0] - 1.0 >= -DEFAULT_RANK_TOL * max(w[-1], 1.0)
        object.__setattr__(self, "dominates_inner_product", bool(compatible))

    @property
    def dim(self) -> int:
        return self.gram.shape[0]

    @cached_property
    def _inv_root(self) -> np.ndarray:
        w, v = self.eig.values, self.eig.vectors
        return (v * (1.0 / np.sqrt(w))) @ v.conj().T

    def normalized(self, a: np.ndarray) -> np.ndarray:
        """G^(-1/2) a G^(-1/2): the operator the triplet actually inverts."""
        r = self._inv_root
        return r @ a @ r


def validate_compatible_norm(
    gram: NormGram, theta: PositiveForm, rtol: float = DEFAULT_RANK_TOL
) -> bool:
    """Check theta <= the norm form (condition on the quadratic ordering).

    The separate closability condition is vacuous here: a positive-definite
    Gram already makes the domain complete.
    """
    diff = gram.gram - theta.matrix
    scale = max(np.linalg.norm(gram.gram, 2), np.linalg.norm(theta.matrix, 2), 1.0)
    return min_eig_herm(diff) >= -rtol * scale


@dataclass(frozen=True, eq=False)
class SupportFunction:
    """Support function of the numerical range sampled on a rotation grid.

    ``support[k]`` is the largest eigenvalue of Re(e^(-i angle_k) M), the
    support value h(t) = max Re(e^(-i t) W(M)) at ``angles[k]``.
    """

    angles: np.ndarray
    support: np.ndarray

    @property
    def scale(self) -> float:
        return max(1.0, float(np.max(np.abs(self.support))) if self.support.size else 0.0)

    def signed_margin(self, z: complex) -> float:
        """Max over grid directions of Re(e^(-i t) z) - h(t); positive means
        outside the hull by at least that distance, negative means inside."""
        return float(np.max(np.real(np.exp(-1j * self.angles) * z) - self.support))

    def distance(self, z: complex) -> float:
        return max(0.0, self.signed_margin(z))


@dataclass(frozen=True, eq=False)
class NumericalRangeHull(SupportFunction):
    """Support samples plus ``points[k]``, the boundary value of the
    quadratic form that attains ``support[k]``."""

    points: np.ndarray

    def area(self) -> float:
        """Shoelace area of the polygon of boundary points."""
        x, y = self.points.real, self.points.imag
        return float(abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2)


def _half_stack(mat: np.ndarray, m: int):
    """Rotated Hermitian parts at the distinct reduced angles of an m-grid.

    Re(e^(-i(t + pi)) M) = -Re(e^(-i t) M), so grid angle t_k = 2 pi k / m
    is served by the solve at pi ((2k) mod m) / m: by its top eigenpair when
    2k < m and by its negated bottom eigenpair otherwise. An even grid needs
    m/2 solves, an odd one m. Returns the grid angles, the stack, and per
    grid angle its solve index, eigen-column and sign.
    """
    if m < MIN_HULL_GRID:
        raise ValueError(f"hull grid must have at least {MIN_HULL_GRID} angles")
    step = math.gcd(2, m)
    doubled = 2 * np.arange(m)
    flip = doubled >= m
    reduced = np.pi * step * np.arange(m // step) / m
    h = (mat + mat.conj().T) / 2
    k = (mat - mat.conj().T) * -0.5j
    stack = np.cos(reduced)[:, None, None] * h
    stack += np.sin(reduced)[:, None, None] * k
    angles = 2 * np.pi * np.arange(m) / m
    column = np.where(flip, 0, mat.shape[0] - 1)
    sign = np.where(flip, -1.0, 1.0)
    return angles, stack, (doubled % m) // step, column, sign


def support_function(omega: Form, m: int = DEFAULT_HULL_GRID) -> SupportFunction:
    """Support values of the numerical range at m rotation angles, from
    eigenvalues only."""
    angles, stack, index, column, sign = _half_stack(omega.matrix, m)
    values = np.linalg.eigvalsh(stack)
    return SupportFunction(angles=angles, support=sign * values[index, column])


def numerical_range_hull(omega: Form, m: int = DEFAULT_HULL_GRID) -> NumericalRangeHull:
    """Rotation-method hull of {omega(xi, xi) : |xi| = 1}.

    For each grid angle the support value is the top eigenvalue of the
    rotated Hermitian part, and the boundary point is the quadratic value at
    the corresponding eigenvector.
    """
    mat = omega.matrix
    angles, stack, index, column, sign = _half_stack(mat, m)
    values, vectors = np.linalg.eigh(stack)
    top = vectors[index, :, column]
    points = np.einsum("ki,ij,kj->k", top.conj(), mat, top)
    return NumericalRangeHull(
        angles=angles, support=sign * values[index, column], points=points
    )


def numerical_radius_bounds(
    mat: np.ndarray, m: int = DEFAULT_HULL_GRID
) -> tuple[float, float]:
    """Interval holding the numerical radius: exact for Hermitian input,
    otherwise [max h_k, min(max h_k / cos(pi/m), |M|_2)] from m support
    samples (the maximizing direction lies within pi/m of a grid angle, and
    the radius never exceeds the spectral norm, which decides normal input)."""
    mat = np.asarray(mat, dtype=complex)
    if mat.shape[0] == 0:
        return 0.0, 0.0
    if np.linalg.norm(mat - mat.conj().T) <= 1e-12 * max(np.linalg.norm(mat), 1e-300):
        radius = float(np.max(np.abs(np.linalg.eigvalsh(hermitize(mat)))))
        return radius, radius
    lower = float(np.max(support_function(Form(mat), m).support))
    return lower, min(lower / math.cos(math.pi / m), specnorm(mat))


@dataclass(frozen=True, eq=False)
class SolvabilityReport:
    """Outcome of perturbing a form into an invertible triplet map."""

    upsilon: Form
    system: np.ndarray          # matrix of the perturbed form
    c1: float                   # smallest singular value, G-normalized
    c2: float                   # largest singular value, G-normalized
    solvable: bool
    operator: np.ndarray        # representing operator T
    lam: Optional[complex] = None
    resolvent_norm: Optional[float] = None


def solvability_with(
    omega: Form,
    gram: NormGram,
    upsilon: Form,
    rtol: float = DEFAULT_RANK_TOL,
) -> SolvabilityReport:
    """Inf-sup constants of omega + upsilon in the G-triplet.

    The perturbation is accepted iff the smallest G-normalized singular
    value exceeds ``rtol`` times the largest. The adjoint-side constants are
    the same two, because conjugate transposition preserves singular values.
    """
    if not gram.dominates_inner_product:
        raise IncompatibleNorm("Gram matrix does not dominate the inner product")
    a = omega.matrix + upsilon.matrix
    normalized = gram.normalized(a)
    sing = np.linalg.svd(normalized, compute_uv=False) if a.size else np.zeros(0)
    c2 = float(sing[0]) if sing.size else 0.0
    c1 = float(sing[-1]) if sing.size else 0.0
    solvable = c1 > rtol * c2 if c2 > 0 else False
    return SolvabilityReport(
        upsilon=upsilon,
        system=a,
        c1=c1,
        c2=c2,
        solvable=solvable,
        operator=omega.matrix,
    )


def _scalar_shift(upsilon: Form) -> Optional[complex]:
    """Detect upsilon = -lam * identity exactly; return lam or None."""
    m = upsilon.matrix
    if m.shape[0] == 0:
        return None
    lam = -m[0, 0]
    if np.array_equal(m, -lam * np.eye(m.shape[0], dtype=complex)):
        return complex(lam)
    return None


def represent_operator(
    omega: Form,
    gram: NormGram,
    upsilon: Form,
    rtol: float = DEFAULT_RANK_TOL,
) -> SolvabilityReport:
    """Representing operator for a solvable perturbed form.

    At finite dimension the operator is the representing matrix itself and
    is defined on the whole space. When the perturbation is a scalar shift
    -lam * inner product, lam belongs to the resolvent set and the report
    carries the resolvent norm.

    Raises:
        NotSolvable: if the perturbation fails the inf-sup test.
    """
    report = solvability_with(omega, gram, upsilon, rtol)
    if not report.solvable:
        raise NotSolvable(
            f"inf-sup constant {report.c1:.3e} is not positive relative to {report.c2:.3e}"
        )
    lam = _scalar_shift(upsilon)
    resolvent_norm = None
    if lam is not None:
        shifted = omega.matrix - lam * np.eye(omega.dim, dtype=complex)
        sing = np.linalg.svd(shifted, compute_uv=False)
        if sing[-1] <= rtol * sing[0]:
            raise NotSolvable(f"{lam} is not in the resolvent set")
        resolvent_norm = float(1.0 / sing[-1])
    return replace(report, lam=lam, resolvent_norm=resolvent_norm)


@dataclass(frozen=True, eq=False)
class ScalarSolvability:
    solvable: bool
    distance: float
    status: str                 # "outside", "inside", or "boundary-inconclusive"
    report: SolvabilityReport


def scalar_solvability(
    omega: Form,
    gram: NormGram,
    lam: complex,
    hull: Optional[SupportFunction] = None,
    m: int = DEFAULT_HULL_GRID,
    rtol: float = DEFAULT_RANK_TOL,
) -> ScalarSolvability:
    """Decide solvability of the scalar perturbation -lam via the hull.

    If lam sits strictly outside the numerical range the perturbation must
    be solvable; that implication is asserted and its failure raises
    TheoremViolation. Within the boundary band (relative width
    ``BOUNDARY_RTOL``) the hull is inconclusive and the direct inf-sup check
    decides, as it also does inside.
    """
    shift = Form(-complex(lam) * np.eye(omega.dim, dtype=complex))
    report = solvability_with(omega, gram, shift, rtol)  # checks the norm first
    if hull is None:
        hull = support_function(omega, m)
    margin = hull.signed_margin(lam)
    band = BOUNDARY_RTOL * hull.scale
    if margin > band:
        if not report.solvable:
            raise TheoremViolation(
                f"point at distance {margin:.3e} outside the hull was reported unsolvable"
            )
        status = "outside"
    elif margin < -band:
        status = "inside"
    else:
        status = "boundary-inconclusive"
    return ScalarSolvability(
        solvable=bool(report.solvable),
        distance=max(0.0, margin),
        status=status,
        report=report,
    )
