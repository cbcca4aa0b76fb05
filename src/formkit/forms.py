"""Sesquilinear forms on C^n and their quotient geometry.

A form is stored through its representing matrix with the convention

    form(xi, eta) = eta^H M xi,

linear in the first slot and conjugate-linear in the second, so the
representing matrix of the form associated with an operator T is T itself.
A positive form yields a quotient embedding J with Gram identity
J^H J = M: the rows of J are eigenvector coordinates scaled by square
roots of the positive eigenvalues, realizing the inner-product space the
form induces after dividing out its kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import numerics
from .errors import DominationFails, NotPSD
from .numerics import DEFAULT_RANK_TOL, HermEig, as_matrix, frob, hermitize, rank_cut


@dataclass(frozen=True, eq=False)
class Form:
    """A sesquilinear form, not necessarily symmetric."""

    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def spectral_norm(self) -> float:
        """The spectral norm of the matrix, computed once (it is read-only)."""
        return numerics.specnorm(self.matrix)

    def __call__(self, xi, eta) -> complex:
        xi = np.asarray(xi, dtype=complex)
        eta = np.asarray(eta, dtype=complex)
        return complex(eta.conj() @ (self.matrix @ xi))

    def is_symmetric(self, rtol: float = 1e-10) -> bool:
        return frob(self.matrix - self.matrix.conj().T) <= rtol * max(
            frob(self.matrix), 1e-300
        )


@dataclass(frozen=True, eq=False)
class PositiveForm(Form):
    """A form with Hermitian PSD representing matrix.

    Construction validates the symmetry residual and the most negative
    eigenvalue against ``tol`` (relative to the spectral norm), stores the
    Hermitian part, and caches the eigendecomposition.
    """

    tol: float = 1e-10
    eig: HermEig = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = as_matrix(self.matrix)
        scale = frob(m)
        sym_residual = frob(m - m.conj().T)
        if sym_residual > self.tol * max(scale, 1e-300):
            raise NotPSD(
                f"matrix is not Hermitian: symmetry residual {sym_residual:.3e}"
            )
        m = hermitize(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "eig", numerics.psd_eig(m, self.tol))


def identity_form(n: int) -> PositiveForm:
    """The inner product of C^n as a positive form."""
    return PositiveForm(np.eye(n, dtype=complex))


def adjoint(form: Form) -> Form:
    """The adjoint form: conjugate with swapped arguments; matrix M^H."""
    return Form(form.matrix.conj().T)


def re_im_split(form: Form) -> tuple[Form, Form]:
    """Split into symmetric real and imaginary parts.

    Both returned matrices are Hermitian and form = re + 1j * im exactly.
    """
    m = form.matrix
    re = (m + m.conj().T) / 2
    im = (m - m.conj().T) / (2j)
    return Form(re), Form(im)


@dataclass(frozen=True, eq=False)
class QuotientEmbedding:
    """The map J realizing the quotient inner-product space of a positive form.

    ``matrix`` is r x n with J^H J equal to the representing matrix; ``basis``
    (n x r) and ``weights`` (the r positive eigenvalues, ascending) are the
    eigenpairs it was built from, kept so that forms can be pushed to and
    pulled back from quotient coordinates without re-squaring square roots:
    the diagonal of the scaling kernel is the exact eigenvalue, which keeps
    exactly-zero and exactly-diagonal data exact.
    """

    matrix: np.ndarray
    basis: np.ndarray
    weights: np.ndarray

    @property
    def rank(self) -> int:
        return self.matrix.shape[0]

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def pseudo_inverse(self) -> np.ndarray:
        """Closed-form Moore-Penrose inverse: basis * weights^(-1/2)."""
        if self.rank == 0:
            return np.zeros((self.dim, 0), dtype=complex)
        return self.basis * (1.0 / np.sqrt(self.weights))[None, :]

    def embed(self, xi) -> np.ndarray:
        return self.matrix @ np.asarray(xi, dtype=complex)

    def _kernel(self, invert: bool) -> np.ndarray:
        d = self.weights
        root = np.sqrt(d)
        g = np.outer(root, root)
        np.fill_diagonal(g, d)
        if invert:
            g = 1.0 / g
        return g

    def to_quotient(self, m: np.ndarray) -> np.ndarray:
        """Push a form matrix into quotient coordinates: (J^+)^H m J^+."""
        if self.rank == 0:
            return np.zeros((0, 0), dtype=complex)
        inner = self.basis.conj().T @ np.asarray(m, dtype=complex) @ self.basis
        return inner * self._kernel(invert=True)

    def from_quotient(self, x: np.ndarray) -> np.ndarray:
        """Pull an operator on the quotient back to a form matrix: J^H x J."""
        if self.rank == 0:
            return np.zeros((self.dim, self.dim), dtype=complex)
        scaled = np.asarray(x, dtype=complex) * self._kernel(invert=False)
        return self.basis @ scaled @ self.basis.conj().T


def kernel(psi: PositiveForm, rtol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the null space of a positive form."""
    return psi.eig.vectors[:, ~rank_cut(psi.eig.values, rtol)]


def quotient_embedding(
    psi: PositiveForm, rtol: float = DEFAULT_RANK_TOL
) -> QuotientEmbedding:
    """Build the embedding J = D^(1/2) V^H from the positive eigenpairs."""
    return eigen_embedding(psi.eig, rtol)


def eigen_embedding(eig: HermEig, rtol: float = DEFAULT_RANK_TOL) -> QuotientEmbedding:
    """The embedding of ``quotient_embedding`` from a given eigendecomposition,
    keeping the eigenvalues above ``rtol`` times the largest one."""
    keep = rank_cut(eig.values, rtol)
    d = eig.values[keep]
    v = eig.vectors[:, keep]
    j = np.sqrt(d)[:, None] * v.conj().T
    return QuotientEmbedding(matrix=j, basis=v, weights=d)


def is_absolutely_continuous(
    psi: PositiveForm, theta: PositiveForm, rtol: float = DEFAULT_RANK_TOL
) -> bool:
    """Kernel inclusion N(theta) <= N(psi).

    At finite dimension the closability half of the definition is automatic,
    so the kernel inclusion is the whole decision.
    """
    null = kernel(theta, rtol)
    top = max(float(psi.eig.values[-1]), 0.0) if psi.eig.values.size else 0.0
    if null.shape[1] == 0 or top == 0.0:
        return True
    quad = np.linalg.norm(hermitize(null.conj().T @ psi.matrix @ null), 2)
    return float(quad) <= rtol * top


def dominates(
    theta: PositiveForm, psi: PositiveForm, rtol: float = DEFAULT_RANK_TOL
) -> Optional[float]:
    """Least gamma >= 0 with theta <= gamma * psi, or None if no bound exists.

    The bound exists iff theta is psi-absolutely continuous (the kernel of
    psi is annihilated by theta); on the quotient the optimal constant is
    the top eigenvalue of the compressed theta.
    """
    if not is_absolutely_continuous(theta, psi, rtol):
        return None
    emb = quotient_embedding(psi, rtol)
    if emb.rank == 0:
        return 0.0
    compressed = hermitize(emb.to_quotient(theta.matrix))
    return max(float(np.linalg.eigvalsh(compressed)[-1]), 0.0)


def domination_operator(
    theta: PositiveForm,
    psi: PositiveForm,
    gamma: Optional[float] = None,
    rtol: float = DEFAULT_RANK_TOL,
) -> np.ndarray:
    """The PSD operator C on the psi-quotient with
    theta(xi, eta) = <C J xi, J eta> and 0 <= C <= gamma.

    Raises:
        DominationFails: if theta is not dominated by psi, or the optimal
            constant exceeds the supplied ``gamma``.
    """
    best = dominates(theta, psi, rtol)
    if best is None:
        raise DominationFails("kernel obstruction: N(psi) is not inside N(theta)")
    if gamma is not None and best > gamma * (1 + 1e-9) + 1e-15:
        raise DominationFails(f"optimal constant {best:.6e} exceeds gamma={gamma}")
    emb_theta = quotient_embedding(theta, rtol)
    emb_psi = quotient_embedding(psi, rtol)
    connecting = emb_theta.matrix @ emb_psi.pseudo_inverse
    return hermitize(connecting.conj().T @ connecting)
