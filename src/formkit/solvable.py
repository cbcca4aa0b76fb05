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

from .errors import IncompatibleNorm, NotHermitian, NotSolvable, TheoremViolation, ValidationError
from .forms import Form
from .numerics import (
    BOUNDARY_RTOL,
    DEFAULT_RANK_TOL,
    DISTANCE_RTOL,
    EXACT_RADIUS_RTOL,
    HULL_ARC_FLOOR,
    INVERSE_SHIFT_ULPS,
    MEMBERSHIP_SLACK,
    RADIUS_RTOL,
    RAYLEIGH_RTOL,
    HermEig,
    as_matrix,
    asymmetry,
    hermitian_eig,
    hermitize,
    specnorm,
    stack_map,
)

DEFAULT_HULL_GRID = 720
MIN_HULL_GRID = 16
# Bytes in flight in one block of a hull stack, two arrays the size of H per
# angle (see _stacked): the default grid's 360 eigensolves at n <= 16 are one
# call per worker.
HULL_BLOCK_BYTES = 2**22
# Work (angles * n^3) a stack must pass to be spread over the BLAS threads.
# On two workers at n = 48, eigvalsh and the boundary solves are both faster
# serial at 16 angles (3.7 and 1.4 ms) and both faster split at 32 (9.5 -> 5.7
# and 3.2 -> 2.3 ms); at n = 64 the same holds at 8 and 16 angles. The
# decisions' seeds (8 eigensolves, 16 boundary points) and refinements (1 to
# 5 angles, two points each) stay below it up to n = 48.
HULL_SPLIT_FLOOR = 2**21


@dataclass(frozen=True, eq=False)
class NormGram:
    """Gram matrix of the Hilbert norm put on the domain.

    Construction caches the eigendecomposition and, from its least
    eigenvalue, ``dominates_inner_product``: whether the inner product is
    at most the norm form, G - I PSD within the default rank tolerance
    relative to max(|G|_2, 1), since min eig(G - I) = min eig(G) - 1.
    """

    gram: np.ndarray
    eig: HermEig = field(init=False, repr=False)
    dominates_inner_product: bool = field(init=False, repr=False)

    def __post_init__(self):
        g = as_matrix(self.gram)
        try:
            eig = hermitian_eig(g)
        except NotHermitian as exc:
            raise ValidationError("norm Gram matrix must be Hermitian") from exc
        w = eig.values
        if g.size and w[0] <= 0:
            raise ValidationError(
                f"norm Gram matrix must be positive definite: min eigenvalue {w[0]:.6e}"
            )
        g = hermitize(g)
        g.setflags(write=False)
        object.__setattr__(self, "gram", g)
        object.__setattr__(self, "eig", eig)
        compatible = not g.size or w[0] - 1.0 >= -DEFAULT_RANK_TOL * max(w[-1], 1.0)
        object.__setattr__(self, "dominates_inner_product", bool(compatible))

    @cached_property
    def _inv_root(self) -> np.ndarray:
        w, v = self.eig.values, self.eig.vectors
        return (v * (1.0 / np.sqrt(w))) @ v.conj().T

    def normalized(self, a: np.ndarray) -> np.ndarray:
        """G^(-1/2) a G^(-1/2): the operator the triplet actually inverts."""
        r = self._inv_root
        return r @ a @ r


def _parts(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H and K with M = H + iK, so that Re(e^(-i t) M) = cos(t) H + sin(t) K.

    For a structurally diagonal M (every off-diagonal entry exactly 0), or
    a 1-D array lambda standing for diag(lambda), they are the diagonals
    Re(lambda) and Im(lambda), and the hull reads the extremes off
    them without an eigensolve.
    """
    if mat.ndim == 1:
        return mat.real, mat.imag
    if np.count_nonzero(mat) == np.count_nonzero(mat.diagonal()):
        return mat.diagonal().real, mat.diagonal().imag
    return (mat + mat.conj().T) / 2, (mat - mat.conj().T) * -0.5j


def _stacked(h: np.ndarray, count: int, solve) -> list:
    """``solve(start, stop)`` over blocks of a stack of ``count`` angles, in order.

    An angle holds two arrays the size of H in flight: its rotated matrix
    and the temporary its sin term is formed in (an eigensolve or a solve
    adds O(n) more). A block holds at most ``HULL_BLOCK_BYTES`` of them. A
    dense stack whose work (angles * n^3) passes ``HULL_SPLIT_FLOOR`` is
    spread over the BLAS thread budget by ``stack_map``: k workers, one BLAS
    thread each, in blocks of ``HULL_BLOCK_BYTES / k``. A smaller one, and
    the exact diagonal path, is solved on the calling thread.
    """
    split = h.ndim == 2 and count * h.shape[0] ** 3 > HULL_SPLIT_FLOOR
    block = max(1, HULL_BLOCK_BYTES // (2 * h.nbytes))
    return stack_map(solve, count, block, split)


def _rotated(parts, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """cos(t) H + sin(t) K at each angle t: a stack of matrices, or of rows
    for diagonal parts. Complex parts are scaled as their (re, im) pairs."""
    h, k = parts
    axes = (slice(None),) + (None,) * h.ndim
    stack = cos[axes] * h.view(float)
    stack += sin[axes] * k.view(float)
    return stack.view(h.dtype)


def _diagonal_extremes(lam: np.ndarray, reduced: np.ndarray, sizes) -> list:
    """For each N of the positive ``sizes``, the least and largest entries
    (columns 0 and 1) of cos(phi) Re(lambda) + sin(phi) Im(lambda) over
    lambda[:N] at each reduced angle phi, and the entries of lambda that
    attain them (signed zeros made positive, as the quadratic form gives
    them), the extremes of the normal diag(lambda[:N]). Each block of angles
    rotates lambda once, in the operation order of a stack of rows, and
    takes the ``argmin``/``argmax`` of each prefix of those rows."""
    cos, sin = np.cos(reduced), np.sin(reduced)
    parts = (lam.real, lam.imag)

    def block(start: int, stop: int):
        r = _rotated(parts, cos[start:stop], sin[start:stop])
        ends = np.array([[r[:, :n].argmin(1), r[:, :n].argmax(1)] for n in sizes])
        return r[np.arange(stop - start), ends], ends

    solved = _stacked(parts[0], reduced.size, block)
    values, ends = (np.concatenate(pieces, 2) for pieces in zip(*solved))
    return [(v.T, p.T) for v, p in zip(values, lam[ends] + 0.0)]


def _grid(m: int):
    """The angles t_k = 2 pi k / m of an m-grid and the solves that serve them.

    Re(e^(-i(t + pi)) M) = -Re(e^(-i t) M), so t_k is served by the solve at
    the reduced angle pi ((2k) mod m) / m: by its top eigenvalue when 2k < m
    and by its negated bottom eigenvalue otherwise. An even grid needs m/2
    solves, an odd one m. Returns the grid angles, the reduced angles, and
    per grid angle its solve index, extreme column (as in
    ``NumericalRangeHull._extremes``) and sign.
    """
    if m < MIN_HULL_GRID:
        raise ValueError(f"hull grid must have at least {MIN_HULL_GRID} angles")
    step = math.gcd(2, m)
    doubled = 2 * np.arange(m)
    flip = doubled >= m
    reduced = np.pi * step * np.arange(m // step) / m
    angles = 2 * np.pi * np.arange(m) / m
    column = np.where(flip, 0, 1)
    sign = np.where(flip, -1.0, 1.0)
    return angles, reduced, (doubled % m) // step, column, sign


def _quadratic(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """x_k^H M x_k for the rows x_k of x."""
    return np.einsum("ki,ki->k", x.conj(), x @ mat.T)


def _inverse_step(shifted: np.ndarray, start: np.ndarray) -> np.ndarray:
    """A^-1 start for each matrix A of the stack, as unit rows. Where LAPACK
    finds A exactly singular (a pivot rounded to 0), or the step overflows,
    start itself, whose point the Rayleigh check judges like any other."""
    try:
        x = np.linalg.solve(shifted, start[:, None])[..., 0]
    except np.linalg.LinAlgError:
        if len(shifted) == 1:
            return start[None] / np.linalg.norm(start)
        return np.concatenate([_inverse_step(a[None], start) for a in shifted])
    x[~np.isfinite(x).all(1)] = start
    x /= np.max(np.abs(x), axis=1, keepdims=True)  # so that no square overflows
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def _circular(x: np.ndarray) -> np.ndarray:
    """Distance of each angle in x to the nearest multiple of pi."""
    return np.abs((x + np.pi / 2) % np.pi - np.pi / 2)


class NumericalRangeHull:
    """Support samples of the numerical range W(M) by the rotation method.

    ``support[k]`` is the support value h(t) = max Re(e^(-i t) W(M)), the
    top eigenvalue of B(t) = Re(e^(-i t) M) = cos(t) H + sin(t) K, at
    t = ``angles[k]``, and ``points[k]`` the boundary value of the quadratic
    form that attains it (NaN until ``boundary_points``). Construction
    samples the m-grid; ``add`` refines, within ``DEFAULT_HULL_GRID`` angles
    in all. Support values come from ``eigvalsh``: the solve at the reduced
    angle phi = ``reduced[k]`` in [0, pi) gives h(phi) from its top
    eigenvalue and h(phi + pi) from its negated bottom one. The samples, in
    angle order, bound W(M) by two polygons: the outer one cut out by the
    tangent lines Re(e^(-i t) z) = h(t), which contains W(M), and the inner
    one through the boundary points, which W(M) contains. ``fallbacks``
    counts the boundary points that inverse iteration left to ``eigh``.

    A structurally diagonal M (every off-diagonal entry exactly 0) is
    normal, so W(M) = conv{lambda_j} (Horn and Johnson, Topics in Matrix
    Analysis, 1991, 1.2): h(t) is then max_j Re(e^(-i t) lambda_j) and the
    boundary point the attaining lambda_j, read off with no eigensolve as
    soon as h(t) is. A 1-D array lambda is taken as diag(lambda), which is
    never built. They equal the eigensolver's bit for bit (up to the choice
    among tied entries) unless LAPACK rescales the matrix (moduli outside
    about [1e-146, 1e146]), where the exact values are the correctly
    rounded ones.
    """

    def __init__(self, mat: np.ndarray, m: int = DEFAULT_HULL_GRID):
        self.mat = np.asarray(mat, dtype=complex)
        if self.mat.shape[0] == 0:
            raise ValidationError("the numerical range of a 0-dimensional form is empty")
        self.parts = _parts(self.mat)
        grid = _grid(m)
        self._sample(grid, *self._extremes(grid[1]))

    @classmethod
    def prefixes(cls, lam: np.ndarray, sizes, m: int = DEFAULT_HULL_GRID) -> list:
        """The hulls of diag(lam[:N]) for each N of the positive ``sizes``,
        each ``NumericalRangeHull(lam[:N], m)`` bit for bit, in
        O(m len(lam) + m sum of N) (``_diagonal_extremes``)."""
        lam = np.asarray(lam, dtype=complex)
        grid = _grid(m)
        hulls = []
        for size, extremes in zip(sizes, _diagonal_extremes(lam, grid[1], sizes)):
            hull = cls.__new__(cls)
            hull.mat = lam[:size]
            hull.parts = _parts(hull.mat)
            hull._sample(grid, *extremes)
            hulls.append(hull)
        return hulls

    def _sample(self, grid, values, points):
        """Support values and points on the grid from the extremes at its reduced angles."""
        self.angles, reduced, index, column, sign = grid
        self.support = sign * values[index, column]
        self.reduced = reduced[index]
        self.points = points[index, column]
        self.fallbacks = 0

    def _extremes(self, reduced: np.ndarray):
        """Bottom and top eigenvalues (columns 0 and 1) of cos(phi) H + sin(phi) K
        at each reduced angle phi, and the boundary points that attain them:
        on the exact diagonal path those of ``_diagonal_extremes``, otherwise
        the eigenvalues from ``eigvalsh`` in blocks and NaN points, for
        ``boundary_points`` to fill."""
        if self.parts[0].ndim == 1:
            diagonal = self.mat if self.mat.ndim == 1 else self.mat.diagonal()
            return _diagonal_extremes(diagonal, reduced, [diagonal.size])[0]
        cos, sin = np.cos(reduced), np.sin(reduced)

        def block(start: int, stop: int):
            r = _rotated(self.parts, cos[start:stop], sin[start:stop])
            return np.linalg.eigvalsh(r)[:, [0, -1]]

        values = np.concatenate(_stacked(self.parts[0], reduced.size, block))
        return values, np.full((reduced.size, 2), complex(np.nan, np.nan))

    @property
    def scale(self) -> float:
        return max(1.0, float(np.max(np.abs(self.support))))

    def distance(self, z):
        """Max over sampled directions of Re(e^(-i t) z) - h(t), clamped at 0:
        a lower bound on the distance from z to W(M). Elementwise for an
        array z, with the same operations as for each of its entries."""
        z = np.asarray(z)
        worst = np.max(np.real(np.exp(-1j * self.angles) * z[..., None]) - self.support, -1)
        clamped = np.where(worst > 0.0, worst, 0.0)
        return float(clamped) if clamped.ndim == 0 else clamped

    def area(self) -> float:
        """Shoelace area of the polygon of boundary points p: summed without overflow
        on p 2^-e, where max |p| 2^-e is in [1/2, 1) (e >= -1021), then times 2^(2e)."""
        e = max(int(np.frexp(np.abs(self.points).max())[1]), -1021)
        scaled = self.points * 2.0**-e
        x, y = scaled.real, scaled.imag
        shoelace = abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))) / 2
        with np.errstate(over="ignore"):
            return float(np.ldexp(shoelace, 2 * e))

    def add(self, angles) -> int:
        """Solve at the given angles, in priority order, that lie farther than
        ``HULL_ARC_FLOOR`` from every sampled angle (mod pi) and fit the
        budget; returns the number of solves. Their boundary points are read
        off at once on the exact diagonal path and left to
        ``boundary_points`` otherwise."""
        phi = np.mod(np.asarray(angles, dtype=float), np.pi)
        near = (_circular(phi[:, None] - self.reduced[None, :]) <= HULL_ARC_FLOOR).any(1)
        repeat = np.tril(_circular(phi[:, None] - phi[None, :]) <= HULL_ARC_FLOOR, -1).any(1)
        phi = phi[~(near | repeat)][: max(0, DEFAULT_HULL_GRID - self.angles.size) // 2]
        if not phi.size:
            return 0
        values, points = self._extremes(phi)
        angles = np.concatenate([self.angles, phi, phi + np.pi])
        order = np.argsort(angles, kind="stable")
        self.angles = angles[order]
        self.support = np.concatenate([self.support, values[:, 1], -values[:, 0]])[order]
        self.reduced = np.concatenate([self.reduced, phi, phi])[order]
        self.points = np.concatenate([self.points, points[:, 1], points[:, 0]])[order]
        return int(phi.size)

    def arcs(self) -> np.ndarray:
        """Angle from each sample to the next, cyclically."""
        return np.diff(self.angles, append=self.angles[0] + 2 * np.pi)

    def vertices(self) -> np.ndarray:
        """Vertices of the outer polygon: vertex k is where the tangent lines
        of samples k and k + 1 meet."""
        h, d = self.support, self.arcs()
        h_next = np.roll(h, -1)
        along = (h + h_next) / (2 * np.cos(d / 2)) + 1j * (h_next - h) / (2 * np.sin(d / 2))
        return np.exp(1j * (self.angles + d / 2)) * along

    def boundary_points(self) -> np.ndarray:
        """Boundary points at every sampled angle, the missing ones by
        ``_inverse_points``."""
        missing = np.flatnonzero(np.isnan(self.points))
        if missing.size:
            points, fallbacks = self._inverse_points(missing)
            self.points[missing] = points
            self.fallbacks += fallbacks
        return self.points

    def _inverse_points(self, samples: np.ndarray):
        """Boundary points of a dense M at the given samples, and the number
        of them that ``eigh`` re-solved.

        Each point is x^H M x for the unit x that one inverse-iteration step
        gives (I. C. F. Ipsen, SIAM Review 39, 1997): a batched solve of
        (h(t) + delta) I - B(t) against the fixed start vector
        cos(j^2) + i sin(j^3), j = 1..n, whose phases are equidistributed.
        B(t) is formed as the support value's solve formed it, +-B(phi) at
        the reduced angle phi, so that h(t) is its top eigenvalue to
        eigvalsh's rounding. H and K are first scaled by the power of two
        that puts the largest |h| in [1/2, 1), and delta is
        ``INVERSE_SHIFT_ULPS`` ulps of it, so that the shift is never 0 or
        subnormal. Whatever x is, the point lies in W(M). A point off its
        supporting line Re(e^(-i t) z) = h(t) by more than ``RAYLEIGH_RTOL``
        times the hull scale is taken from the top eigenvector of B(t)
        instead. The solves are blocked as ``_stacked`` says.
        """
        n = self.mat.shape[0]
        exponent = math.frexp(float(np.max(np.abs(self.support))))[1]
        unit = math.ldexp(1.0, -max(exponent, -1021))  # a subnormal peak as the least normal
        parts = (self.parts[0] * unit, self.parts[1] * unit)
        support, reduced = self.support[samples], self.reduced[samples]
        shift = support * unit + INVERSE_SHIFT_ULPS * np.spacing(0.5)
        j = np.arange(1.0, n + 1)
        start = np.cos(j * j) + 1j * np.sin(j * j * j)
        band = RAYLEIGH_RTOL * self.scale
        sign = np.rint(np.cos(self.angles[samples] - reduced))  # t is phi or phi + pi
        cos, sin = sign * np.cos(reduced), sign * np.sin(reduced)

        def block(lo: int, hi: int):
            shifted = _rotated(parts, -cos[lo:hi], -sin[lo:hi])
            shifted.reshape(hi - lo, -1)[:, :: n + 1] += shift[lo:hi, None]
            points = _quadratic(self.mat, _inverse_step(shifted, start))
            reach = cos[lo:hi] * points.real + sin[lo:hi] * points.imag
            miss = ~(np.abs(reach - support[lo:hi]) <= band)
            if miss.any():
                rotated = _rotated(parts, cos[lo:hi][miss], sin[lo:hi][miss])
                points[miss] = _quadratic(self.mat, np.linalg.eigh(rotated)[1][:, :, -1])
            return points, int(np.count_nonzero(miss))

        solved = _stacked(parts[0], samples.size, block)
        return np.concatenate([p for p, _ in solved]), sum(c for _, c in solved)


def numerical_range_hull(omega: Form, m: int = DEFAULT_HULL_GRID) -> NumericalRangeHull:
    """Rotation-method hull of {omega(xi, xi) : |xi| = 1} on the m-grid, with
    its boundary points."""
    hull = NumericalRangeHull(omega.matrix, m)
    hull.boundary_points()
    return hull


def numerical_radius_bounds(mat: np.ndarray) -> tuple[float, float]:
    """Interval holding the numerical radius w(M) = max |W(M)|.

    Exact for Hermitian input. Otherwise the lower end is the largest
    sampled support value and the upper end min(largest modulus of an
    outer-polygon vertex, |M|_2), which holds because W(M) lies in the outer
    polygon (and the spectral norm decides normal input). The hull adds
    the arguments of the vertices that keep the bracket open, worst first,
    until the verdict against 1 + ``MEMBERSHIP_SLACK`` is decided and the
    relative width is at most ``RADIUS_RTOL``, or until no vertex is left
    on an arc wider than ``HULL_ARC_FLOOR`` or the angle budget is spent.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.shape[0] == 0:
        return 0.0, 0.0
    if not asymmetry(mat, EXACT_RADIUS_RTOL):
        radius = float(np.max(np.abs(np.linalg.eigvalsh(hermitize(mat)))))
        return radius, radius
    norm = specnorm(mat)
    hull = NumericalRangeHull(mat, MIN_HULL_GRID)
    while True:
        lower = float(np.max(hull.support))
        vertices = hull.vertices()
        modulus = np.abs(vertices)
        upper = max(lower, min(float(np.max(modulus)), norm))
        decided = lower > 1.0 + MEMBERSHIP_SLACK or upper <= 1.0 + MEMBERSHIP_SLACK
        if decided and upper - lower <= RADIUS_RTOL * upper:
            return lower, upper
        open_ = np.flatnonzero(
            (modulus > lower * (1.0 + RADIUS_RTOL)) & (hull.arcs() > HULL_ARC_FLOOR)
        )
        worst = open_[np.argsort(-modulus[open_], kind="stable")]
        if not hull.add(np.angle(vertices[worst])):
            return lower, upper


@dataclass(frozen=True, eq=False)
class SolvabilityReport:
    """Outcome of perturbing a form into an invertible triplet map. A solvable
    scalar shift -lam carries lam and the resolvent norm; ``scalar_solvability``
    adds where lam lies against the hull."""

    system: np.ndarray          # matrix of the perturbed form
    c1: float                   # smallest singular value, G-normalized
    c2: float                   # largest singular value, G-normalized
    solvable: bool
    lam: Optional[complex] = None
    resolvent_norm: Optional[float] = None
    status: Optional[str] = None  # "outside", "inside", or "boundary-inconclusive"
    distance: Optional[float] = None


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
    return SolvabilityReport(system=a, c1=c1, c2=c2, solvable=solvable)


def _shifted(omega: Form, gram: NormGram, lam: complex, rtol: float) -> SolvabilityReport:
    """The report of the scalar shift -lam * inner product. The inf-sup test
    decides; a solvable shift also carries lam and the resolvent norm
    1 / sigma_min(omega - lam)."""
    lam = complex(lam)
    report = solvability_with(omega, gram, Form(-lam * np.eye(omega.dim, dtype=complex)), rtol)
    if not report.solvable:
        return report
    sing = np.linalg.svd(report.system, compute_uv=False)
    return replace(report, lam=lam, resolvent_norm=float(1.0 / sing[-1]))


def represent_operator(
    omega: Form, gram: NormGram, lam: complex, rtol: float = DEFAULT_RANK_TOL
) -> SolvabilityReport:
    """Representing operator for the solvable shifted form omega - lam.

    At finite dimension the operator is omega's matrix itself and is
    defined on the whole space; the inf-sup test puts lam in its resolvent
    set, and the report carries lam and the resolvent norm.

    Raises:
        NotSolvable: if the shift fails the inf-sup test.
    """
    report = _shifted(omega, gram, lam, rtol)
    if not report.solvable:
        raise NotSolvable(
            f"inf-sup constant {report.c1:.3e} is not positive relative to {report.c2:.3e}"
        )
    return report


def _inner_depth(points: np.ndarray, lam: complex, band: float):
    """Signed distance from lam to the boundary of the inner polygon
    (positive inside, negative outside) and the outward normal angle of the
    edge that lam comes closest to crossing (None for a degenerate polygon).

    The polygon runs through the boundary points in angle order, skipping a
    point within ``band`` of the previous one; any subset of points of W(M)
    spans a polygon inside W(M).
    """
    kept = points[np.roll(np.abs(np.roll(points, -1) - points) > band, 1)]
    if kept.size < 2:
        return -float(np.min(np.abs(lam - points))), None
    points = kept
    edges = np.roll(points, -1) - points
    length = np.abs(edges)
    normal = -1j * edges / length
    beyond = np.real(np.conj(normal) * (lam - points))
    worst = int(np.argmax(beyond))
    if beyond[worst] < 0:
        depth = -float(beyond[worst])
    else:
        along = np.clip(np.real(np.conj(edges) * (lam - points)) / length**2, 0.0, 1.0)
        depth = -float(np.min(np.abs(lam - points - along * edges)))
    return depth, float(np.angle(normal[worst]))


def _parabola_probes(t, top, dl, dr, low, high, scale) -> list:
    """The vertex of the parabola through the best margin and its two
    neighbours, and two angles either side of it close enough that the
    concave bound can close there. ``_locate`` asks only while that bound,
    max(dr * drop_l / dl, dl * drop_r / dr), exceeds ``DISTANCE_RTOL`` times
    the scale, so one drop times its arc is positive and so is the
    denominator."""
    drop_l, drop_r = top - low, top - high
    denominator = dl * drop_r + dr * drop_l
    vertex = t - 0.5 * (dl * dl * drop_r - dr * dr * drop_l) / denominator
    curvature = 2 * denominator / (dl * dr * (dl + dr))
    step = max(np.sqrt(DISTANCE_RTOL * scale / curvature), 2 * HULL_ARC_FLOOR)
    return [vertex, vertex - step, vertex + step]


def _locate(hull: NumericalRangeHull, lam: complex) -> tuple[str, float]:
    """Status of lam against W(M) and the lower bound max_t Re(e^(-i t) lam) - h(t)
    on its distance to W(M), from adaptively refined samples.

    "outside": a sampled half-plane excludes lam by more than the band; the
    samples around the best angle are then refined until the margin, which
    is concave where positive, provably lies within ``DISTANCE_RTOL`` of its
    maximum. "inside": lam lies deeper than the band in the inner polygon.
    Neither is possible once lam is within the band of both polygons; until
    then it refines the inner edge lam is nearest and the arcs
    beside the best angle, and at the budget reports "boundary-inconclusive".
    """
    while True:
        angles, n = hull.angles, hull.angles.size
        margins = np.real(np.exp(-1j * angles) * lam) - hull.support
        best = int(np.argmax(margins))
        margin = float(margins[best])
        band = BOUNDARY_RTOL * hull.scale
        left = angles[best - 1] - (2 * np.pi if best == 0 else 0.0)
        right = angles[(best + 1) % n] + (2 * np.pi if best == n - 1 else 0.0)
        beside = [(left + angles[best]) / 2, (angles[best] + right) / 2]
        if margin > band:
            low, high = margins[best - 1], margins[(best + 1) % n]
            dl, dr = angles[best] - left, right - angles[best]
            if min(low, high) > 0:
                rest = max(dr * (margin - low) / dl, dl * (margin - high) / dr)
                if rest <= DISTANCE_RTOL * hull.scale:
                    return "outside", margin
                beside += _parabola_probes(angles[best], margin, dl, dr, low, high, hull.scale)
            if not hull.add(beside):
                return "outside", margin
            continue
        depth, normal = _inner_depth(hull.boundary_points(), lam, band)
        if depth > band:
            return "inside", max(0.0, margin)
        stuck = margin >= -band and depth >= -band
        new = beside if normal is None else [normal] + beside
        if stuck or not hull.add(new):
            return "boundary-inconclusive", max(0.0, margin)


def scalar_solvability(
    omega: Form, gram: NormGram, lam: complex, rtol: float = DEFAULT_RANK_TOL
) -> SolvabilityReport:
    """Decide solvability of the scalar perturbation -lam via the hull.

    The status and distance come from adaptively refined samples
    (``_locate``) seeded with the coarsest rotation grid. If lam sits
    strictly outside the numerical range the perturbation must be solvable;
    that implication is asserted and its failure raises TheoremViolation.
    Within the boundary band (relative width ``BOUNDARY_RTOL``) the hull is
    inconclusive and the direct inf-sup check decides, as it also does
    inside.
    """
    report = _shifted(omega, gram, lam, rtol)  # checks the norm first
    hull = NumericalRangeHull(omega.matrix, MIN_HULL_GRID)
    status, distance = _locate(hull, complex(lam))
    if status == "outside" and not report.solvable:
        raise TheoremViolation(
            f"point at distance {distance:.3e} outside the hull was reported unsolvable"
        )
    return replace(report, status=status, distance=distance)
