"""Instance generators for the worked example families, plus
dimension-growth diagnostics.

The diagnostics are descriptive truncation data (spectral minima, sector
search verdicts, hull geometry, resolvent norms); none of them claims to
certify a property of the untruncated object.
"""

from __future__ import annotations

import ast
import cmath
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import NotSolvable, ValidationError
from .forms import Form, PositiveForm, identity_form
from .numerics import (
    DEFAULT_RANK_TOL,
    MEMBERSHIP_SLACK,
    HermEig,
    as_matrix,
    finite_norm,
    hermitize,
    rank_cut,
)
from .regularity import SECTOR_SLOPE_CAP
from .solvable import NumericalRangeHull


@dataclass(frozen=True, eq=False)
class Instance:
    """A ready-to-analyze triple (omega, theta, psi) with provenance.

    A plain record: construction does not test whether psi majorizes omega.
    Each command that needs membership decides it once, by ``in_class_M`` at
    the user's ``--tol-rank``, and refuses a non-member itself; a family's psi
    is a majorant in exact arithmetic, a file's may not be.
    """

    omega: Form
    theta: PositiveForm
    psi: PositiveForm
    provenance: str
    extras: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.omega.dim


def diag_family(values, provenance: str = "diag") -> Instance:
    """Diagonal form from a finite complex sequence.

    The reference form is the inner product, the suggested majorant is the
    absolute-value diagonal, and the closed-form witnesses are the diagonal
    square-root scale and the unimodular phase factor (phase fixed to 1
    where the entry vanishes).
    """
    lam = np.asarray(values, dtype=complex).ravel()
    if lam.size < 1:
        raise ValidationError("the diagonal family needs at least one entry")
    n = lam.size
    omega = Form(finite_norm(np.diag(lam), "'lambda'"))
    theta = identity_form(n)
    psi = PositiveForm(np.diag(np.abs(lam)))
    phases = np.where(lam == 0, 1.0 + 0j, np.exp(1j * np.angle(lam)))
    extras = {
        "H": np.diag(np.sqrt(np.abs(lam))),
        "Y": np.diag(phases),
        "T": np.diag(lam),
    }
    return Instance(omega=omega, theta=theta, psi=psi, provenance=provenance, extras=extras)


def measure_family(theta_weights, omega_weights, provenance: str = "measure") -> Instance:
    """Discrete measure pair on m atoms.

    The domain is spanned by the indicator of each atom; the reference form
    integrates against the nonnegative weights, the form against the complex
    weights, and the majorant against their moduli. When every complex atom
    sits inside the support of the reference weights, the extras carry the
    density and phase realizing the multiplication-operator witnesses.
    """
    th = np.asarray(theta_weights, dtype=float).ravel()
    om = np.asarray(omega_weights, dtype=complex).ravel()
    if th.size != om.size or th.size < 1:
        raise ValidationError("weight vectors must share a positive length")
    if np.any(th < 0):
        raise ValidationError("reference weights must be nonnegative")
    theta = PositiveForm(finite_norm(np.diag(th).astype(complex), "theta"))
    omega = Form(finite_norm(np.diag(om), "omega"))
    psi = PositiveForm(np.diag(np.abs(om)))
    support_theta = th > 0
    support_omega = np.abs(om) > 0
    ac = bool(np.all(support_theta | ~support_omega))
    extras: dict = {"absolutely_continuous": ac}
    if ac:
        density = np.zeros(th.size)
        density[support_theta] = np.abs(om[support_theta]) / th[support_theta]
        extras["density"] = density
        extras["phase"] = np.where(om == 0, 1.0 + 0j, np.exp(1j * np.angle(om)))
    return Instance(omega=omega, theta=theta, psi=psi, provenance=provenance, extras=extras)


def operator_pair_family(s_mat, t_mat, provenance: str = "operator_pair") -> Instance:
    """Form <s xi, t eta> of an operator pair, with the graph-type majorant."""
    s = as_matrix(s_mat)
    t = as_matrix(t_mat)
    if s.shape != t.shape:
        raise ValidationError("the two operators must have the same shape")
    n = s.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        product = t.conj().T @ s
        gram = np.eye(n, dtype=complex) + s.conj().T @ s + t.conj().T @ t
    if not (np.isfinite(product).all() and np.isfinite(gram).all()):
        raise ValidationError("S and T are too large: T^H S or S^H S + T^H T overflows")
    omega = Form(product)
    psi = PositiveForm(hermitize(gram))
    # psi >= I, yet past a top of about 1e16 an eigenvalue 1 can round below
    # 0, which the PSD check admits: its root is taken as 0
    root = HermEig(np.sqrt(np.clip(psi.eig.values, 0.0, None)), psi.eig.vectors)
    extras = {"H": hermitize(root.reconstruct())}
    return Instance(
        omega=omega,
        theta=identity_form(n),
        psi=psi,
        provenance=provenance,
        extras=extras,
    )


# An integer power in a 'lambda' expression is refused when it reaches
# 2**MAX_POWER_BITS, beyond the float range, before Python computes it
# exactly: a nested one such as 9**9**9**9 would otherwise run without end.
MAX_POWER_BITS = 1024


def _power(left, right):
    """left ** right, refused for an integer power that reaches 2**MAX_POWER_BITS."""
    if (
        type(left) is int
        and type(right) is int
        and right * (abs(left).bit_length() - 1) >= MAX_POWER_BITS
    ):
        raise ValidationError(
            f"'lambda': an integer power with exponent {right} reaches 2**{MAX_POWER_BITS}"
        )
    return operator.pow(left, right)


_CONSTANTS = {"pi": cmath.pi, "e": cmath.e, "i": 1j, "j": 1j}
_FUNCTIONS = {
    "exp": cmath.exp,
    "cos": cmath.cos,
    "sin": cmath.sin,
    "sqrt": cmath.sqrt,
    "log": cmath.log,
    "abs": abs,
}
_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Pow: _power,
}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}


def _compile(node: ast.AST):
    """A parsed sequence expression as a function of the index n, nested
    closures that apply Python's own operators: it admits only numbers, n and
    ``_CONSTANTS``, the operators + - * / ** and unary +-, and calls to
    ``_FUNCTIONS``. Any other node becomes a closure that refuses it when it
    is reached, so that errors arrive in the order evaluation meets them."""
    if isinstance(node, ast.Constant) and type(node.value) in (int, float, complex):
        value = node.value
        return lambda n: value
    if isinstance(node, ast.Name) and node.id == "n":
        return lambda n: n
    if isinstance(node, ast.Name) and node.id in _CONSTANTS:
        value = _CONSTANTS[node.id]
        return lambda n: value
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        unary, operand = _UNARY[type(node.op)], _compile(node.operand)
        return lambda n: unary(operand(n))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        binary, left, right = _BINARY[type(node.op)], _compile(node.left), _compile(node.right)
        return lambda n: binary(left(n), right(n))
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _FUNCTIONS
        and not node.keywords
    ):
        function, args = _FUNCTIONS[node.func.id], [_compile(arg) for arg in node.args]
        return lambda n: function(*[arg(n) for arg in args])

    def refuse(n):
        raise ValidationError(f"'lambda': {ast.unparse(node)!r} is not allowed in an expression")

    return refuse


def _lambda_sequence(expression, size: int):
    """Evaluate a sequence specification once, for n = 1..size: a literal
    list or an expression in the index variable n (1-based), e.g.
    ``"n*exp(i*n)"``, compiled once.

    Returns ``prefix``: ``prefix(s)``, for s <= size, gives lambda_1..lambda_s
    or raises the ValidationError that evaluating them alone would raise.
    Evaluation stops at the first entry that fails, and every size that
    reaches it fails with its error; a specification that does not parse or
    convert fails every size, 0 included.
    """
    entries, failure = None, None
    try:
        if isinstance(expression, str):
            tree = ast.parse(expression, "<lambda-spec>", "eval")
            entries = []  # a tree too deep to compile fails from n = 1, as its evaluation would
            term = _compile(tree.body)
            for n in range(1, size + 1):
                entries.append(complex(term(n)))
        else:
            # numpy reads true as 1 and "2" as 2, but neither is a number
            leaves = np.asarray(expression, dtype=object).ravel()
            if any(isinstance(x, (bool, np.bool_, str)) for x in leaves):
                raise TypeError("entries must be numbers")
            entries = np.asarray(expression, dtype=complex).ravel()
    except ValidationError as exc:
        failure = exc
    # the parser reports nesting beyond its stack as a MemoryError
    except (
        ArithmeticError, MemoryError, RecursionError, SyntaxError, TypeError, ValueError
    ) as exc:
        failure = ValidationError(f"'lambda' {expression!r} does not evaluate: {exc}")
        failure.__cause__ = exc
    values = np.asarray([] if entries is None else entries, dtype=complex)

    def prefix(s: int) -> np.ndarray:
        if failure is not None and (entries is None or s > values.size):
            raise failure
        if s > values.size:
            raise ValidationError(f"sequence literal has {values.size} entries, need {s}")
        if not np.isfinite(values[:s]).all():
            raise ValidationError("'lambda' entries must be finite")
        return values[:s]

    return prefix


def _lambda_values(expression, size: int) -> np.ndarray:
    """lambda_1..lambda_size of a sequence specification (``_lambda_sequence``).

    Raises:
        ValidationError: unless the specification gives ``size`` finite numbers.
    """
    return _lambda_sequence(expression, size)(size)


LAB_HULL_GRID = 360  # support angles of each size's exact hull; the least one places the probe


def convergence_report(
    family: str,
    params: dict,
    sizes: list[int],
    rtol: float = DEFAULT_RANK_TOL,
) -> list[dict]:
    """Truncation diagnostics per size for the diagonal family.

    Size N is omega = diag(lambda_1..lambda_N) against the inner product,
    with the majorant psi = |lambda|, so every diagnostic is elementwise in
    lambda and read off in closed form: the spectral minimum of the real
    part, the sector certificate of ``sectorial_parameters`` (the frontier
    vertex at the half-slope cap, backed off by the slack, and the least
    half-slope there), the exact hull conv{lambda_j} on ``LAB_HULL_GRID``
    angles, the distance from a deterministic probe point outside it, the
    resolvent norm 1 / min |lambda_j - probe|, and the condition number of
    the system normalized by the Gram I + psi, whose singular values are
    |lambda_j - probe| / (1 + |lambda_j|). The ``lambda`` expression is
    compiled once and evaluated once, up to the largest size N_max, and one
    rotation of those entries serves the hull of every size
    (``NumericalRangeHull.prefixes``): a sweep costs O(``LAB_HULL_GRID``
    sum of N) comparisons, and no N x N matrix is built. The rows equal
    those of each size swept alone, bit for bit, and the dense
    ``diag_family``, ``sectorial_parameters``, ``NormGram`` and
    ``represent_operator`` give the same rows, to within a few ulps.

    Raises:
        ValidationError: for a malformed request, or a ``lambda`` whose
            entries are not finite or whose Frobenius norm overflows.
        NotSolvable: if the probe shift fails the inf-sup test.
    """
    if sorted(sizes) != list(sizes) or len(sizes) == 0:
        raise ValidationError("sizes must be a nonempty ascending list")
    if family != "diag":
        raise ValidationError("size sweeps are defined for the diagonal family")
    spec = params.get("lambda")
    if spec is None:
        raise ValidationError("diagonal family needs a 'lambda' entry")
    # entry n does not depend on N, so one evaluation serves every size
    prefix = _lambda_sequence(spec, sizes[-1])
    entries, failure, rows = [], None, []
    for size in sizes:
        try:
            entries.append(_diagonal_entries(prefix(size)))
        except ValidationError as exc:
            # the first size that fails names the error, after the rows before it
            failure = exc
            break
    if entries:
        hulls = NumericalRangeHull.prefixes(entries[-1], sizes[: len(entries)], LAB_HULL_GRID)
        rows = [_diagonal_row(lam, hull, rtol) for lam, hull in zip(entries, hulls)]
    if failure is not None:
        raise failure
    return rows


def _diagonal_entries(lam: np.ndarray) -> np.ndarray:
    """lam, refused unless it is a nonempty diagonal whose Frobenius norm is finite."""
    if lam.size < 1:
        raise ValidationError("the diagonal family needs at least one entry")
    with np.errstate(over="ignore"):
        if not np.isfinite(lam.real @ lam.real + lam.imag @ lam.imag):
            raise ValidationError("'lambda' is too large: its Frobenius norm overflows")
    return lam


def _diagonal_row(lam: np.ndarray, hull: NumericalRangeHull, rtol: float) -> dict:
    """One ``convergence_report`` row: lam = lambda[:N] with its hull."""
    psi = np.abs(lam)
    scale = max(1.0, float(psi.max()))
    re, im = lam.real, lam.imag
    frontier = min(float((re + sign * im / SECTOR_SLOPE_CAP).min()) for sign in (1.0, -1.0))
    delta = frontier - MEMBERSHIP_SLACK * scale
    base = re - delta
    keep = rank_cut(base, rtol)
    verdict = {"sectorial": False}
    if not np.any(np.abs(im[~keep]) > MEMBERSHIP_SLACK * scale):
        # times 1 / base, as sectorial_parameters' quotient push scales, to match it bit for bit
        gamma = float(np.max(np.abs(im[keep]) * (1.0 / base[keep]), initial=0.0))
        least = min(base.min(), (gamma * base - im).min(), (gamma * base + im).min())
        if least / scale >= -MEMBERSHIP_SLACK:
            verdict = {"sectorial": True, "delta": delta, "gamma": gamma}
    direction = int(hull.support.argmin())
    angle = float(hull.angles[direction])
    gap = 1.0 + 0.1 * hull.scale
    # beyond the least supporting half-plane: outside by at least the gap
    probe = complex((hull.support[direction] + gap) * np.exp(1j * angle))
    shifted = lam - probe
    root = 1.0 / np.sqrt(1.0 + psi)
    normalized = np.abs(shifted * root * root)  # G^(-1/2) (omega - probe) G^(-1/2)
    c1, c2 = float(normalized.min()), float(normalized.max())
    if not (c2 > 0 and c1 > rtol * c2):
        raise NotSolvable(f"inf-sup constant {c1:.3e} is not positive relative to {c2:.3e}")
    points = hull.points
    return {
        "size": lam.size,
        "re_spectrum_min": float(re.min()),
        "sectorial": verdict,
        "hull_radius": float(np.abs(points).max()),
        "hull_re_extent": [float(points.real.min()), float(points.real.max())],
        "hull_im_extent": [float(points.imag.min()), float(points.imag.max())],
        "hull_area": hull.area(),
        "probe": probe,
        "probe_distance": hull.distance(probe),
        "resolvent_norm": float(1.0 / np.abs(shifted).min()),
        "normalized_condition": c2 / c1,
    }
