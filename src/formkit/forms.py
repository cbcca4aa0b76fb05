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

from dataclasses import InitVar, dataclass, field
from functools import cached_property

import numpy as np

from . import numerics
from .errors import NotHermitian, NotPSD
from .numerics import DEFAULT_RANK_TOL, SYMMETRY_RTOL
from .numerics import HermEig, as_matrix, asymmetry, hermitize, rank_cut


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

    def is_symmetric(self) -> bool:
        return not asymmetry(self.matrix, SYMMETRY_RTOL)


@dataclass(frozen=True, eq=False)
class PositiveForm(Form):
    """A form with Hermitian PSD representing matrix.

    Construction validates the symmetry residual against ``SYMMETRY_RTOL``
    (``hermitian_eig``'s one test) and the most negative eigenvalue against
    ``tol`` (relative to the largest), stores the Hermitian part, and caches
    the eigendecomposition. ``tol`` is not stored: no form inherits another's.
    """

    tol: InitVar[float] = DEFAULT_RANK_TOL
    eig: HermEig = field(init=False, repr=False, compare=False)

    def __post_init__(self, tol: float):
        m = as_matrix(self.matrix)
        try:
            eig = numerics.psd_eig(m, tol)
        except NotHermitian as exc:
            raise NotPSD(f"matrix is not Hermitian: {exc}") from exc
        m = hermitize(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "eig", eig)


del PositiveForm.tol  # the InitVar's default, which dataclass leaves as a class attribute


def identity_form(n: int) -> PositiveForm:
    """The inner product of C^n as a positive form."""
    return PositiveForm(np.eye(n, dtype=complex))


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
    exactly-zero and exactly-diagonal data exact. ``null`` (n x (n - r)) holds
    the eigenvectors the same rank cut drops: an orthonormal basis of the
    kernel, so that [null, basis] is unitary.
    """

    matrix: np.ndarray
    basis: np.ndarray
    weights: np.ndarray
    null: np.ndarray

    @property
    def rank(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def pseudo_inverse(self) -> np.ndarray:
        """Closed-form Moore-Penrose inverse: basis * weights^(-1/2)."""
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
        inner = self.basis.conj().T @ np.asarray(m, dtype=complex) @ self.basis
        return inner * self._kernel(invert=True)

    def from_quotient(self, x: np.ndarray) -> np.ndarray:
        """Pull an operator on the quotient back to a form matrix: J^H x J."""
        scaled = np.asarray(x, dtype=complex) * self._kernel(invert=False)
        return self.basis @ scaled @ self.basis.conj().T


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
    return QuotientEmbedding(matrix=j, basis=v, weights=d, null=eig.vectors[:, ~keep])
