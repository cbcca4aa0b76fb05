"""A 50-digit oracle for the parallel sum and its limit.

Each reference is computed with mpmath at 50 digits from the exact float
entries of the forms' matrices, so it carries none of the double-precision
rounding of the route under test. The pseudo-inverse re-decides the rank at
50 digits with the same relative cut, on the eigenvalues' magnitudes.
"""

import numpy as np
import pytest

import formkit as fk
from formkit.lebesgue import _LIMIT_MAX_DOUBLINGS
from formkit.numerics import DEFAULT_RANK_TOL, LIMIT_STALL, frob

from conftest import count_pinv, coupled_hidden_pair, random_psd, random_unitary

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp
DIGITS = 50
DOUBLINGS = (0, 10, 20)  # t = 2^k
# 10x the worst error relative to |psi|_F over these tests' instances, taken
# over the pinv-only route and the solve route (CHANGES.md)
SOLVE_BOUND = 2e-14
PINV_BOUND = 6e-15
LIMIT_BOUND = 6e-11


def to_mp(m):
    return mpmath.matrix([[mpmath.mpc(complex(x)) for x in row] for row in np.asarray(m)])


def to_np(m):
    return np.array([[complex(m[i, j]) for j in range(m.cols)] for i in range(m.rows)])


def mp_columns(q, keep):
    """The columns of q at the indices ``keep``."""
    return mpmath.matrix([[q[i, j] for j in keep] for i in range(q.rows)])


def mp_pinv(m, rtol):
    """Pseudo-inverse of a Hermitian matrix, keeping the eigenvalues whose
    magnitude exceeds ``rtol`` times the largest."""
    values, vectors = mp.eigh(m)
    top = max(abs(v) for v in values)
    keep = [j for j, v in enumerate(values) if abs(v) > rtol * top]
    kept = mp_columns(vectors, keep)
    return kept * mp.diag([1 / values[j] for j in keep]) * kept.H


def mp_parallel_sum(a, b, rtol=DEFAULT_RANK_TOL):
    """a (a + b)^+ b at 50 digits from the float matrices a and b."""
    with mp.workdps(DIGITS):
        a, b = to_mp(a), to_mp(b)
        return to_np(a * mp_pinv(a + b, rtol) * b)


def mp_schur_short(psi, theta, rtol=DEFAULT_RANK_TOL):
    """The short of psi to ran(theta) at 50 digits: psi minus its Schur
    complement correction on the kernel of theta's cut."""
    with mp.workdps(DIGITS):
        psi, theta = to_mp(psi), to_mp(theta)
        values, vectors = mp.eigh(theta)
        top = max(values)
        null = mp_columns(vectors, [j for j, v in enumerate(values) if v <= rtol * top])
        cross = psi * null
        return to_np(psi - cross * mp.inverse(null.H * cross) * cross.H)


def definite_pairs():
    rng = np.random.default_rng(90)
    return [
        (fk.PositiveForm(random_psd(rng, n)), fk.PositiveForm(random_psd(rng, n)))
        for n in (1, 2, 3, 4, 5, 6)
    ]


def shared_kernel_pair(n=6):
    """Positive forms of rank n - 1 on the same random hyperplane."""
    rng = np.random.default_rng(91)
    plane = random_unitary(rng, n)[:, : n - 1]
    psi, theta = ((plane * rng.uniform(0.5, 2.0, n - 1)) @ plane.conj().T for _ in range(2))
    return fk.PositiveForm(psi), fk.PositiveForm(theta)


def parallel_sum_errors(pairs):
    """The largest |parallel_sum(psi, t theta) - oracle|_F / |psi|_F per pair."""
    errors = []
    for psi, theta in pairs:
        worst = 0.0
        for k in DOUBLINGS:
            scaled = fk.PositiveForm(2.0**k * theta.matrix)
            err = frob(fk.parallel_sum(psi, scaled).matrix - mp_parallel_sum(psi.matrix, scaled.matrix))
            worst = max(worst, err / frob(psi.matrix))
        errors.append(worst)
    return errors


def limit_error(seed):
    psi, theta, _ = coupled_hidden_pair(np.random.default_rng(seed), 6, 2)
    reference = mp_schur_short(psi.matrix, theta.matrix)
    return frob(fk.parallel_sum_limit(psi, theta) - reference) / frob(psi.matrix)


def weak_direction_pair(seed):
    """A definite theta 1000 times weaker along one random direction."""
    rng = np.random.default_rng(seed)
    psi = fk.PositiveForm(random_psd(rng, 3))
    u = random_unitary(rng, 3)
    return psi, fk.PositiveForm((u * np.array([1.0, 1.0, 1e-3])) @ u.conj().T)


class TestFiftyDigitParallelSum:
    def test_definite_pairs_take_the_solve(self, monkeypatch):
        calls = count_pinv(monkeypatch)
        errors = parallel_sum_errors(definite_pairs())
        assert calls == []
        assert max(errors) <= SOLVE_BOUND, errors

    def test_shared_kernel_takes_pinv(self, monkeypatch):
        calls = count_pinv(monkeypatch)
        errors = parallel_sum_errors([shared_kernel_pair()])
        assert len(calls) == len(DOUBLINGS)
        assert max(errors) <= PINV_BOUND, errors

    @pytest.mark.parametrize("seed", range(5))
    def test_limit_matches_the_short(self, seed):
        assert limit_error(90 + seed) <= LIMIT_BOUND

    @pytest.mark.parametrize("seed", range(5))
    def test_limit_taken_at_the_last_doubling(self, monkeypatch, seed):
        # the weak direction leaves t theta's pre-asymptotic range late, so the
        # extrapolated steps shrink to the end without passing LIMIT_STOP and
        # the entry at t = 2^20 is returned, its step within LIMIT_STALL
        psi, theta = weak_direction_pair(seed)
        sums = []
        original = fk.lebesgue._parallel_sum_matrix
        monkeypatch.setattr(
            fk.lebesgue, "_parallel_sum_matrix", lambda *args: sums.append(1) or original(*args)
        )
        limit = fk.parallel_sum_limit(psi, theta)
        assert len(sums) == _LIMIT_MAX_DOUBLINGS + 1
        # theta is definite, so the limit, the short of psi to ran theta, is psi
        assert frob(limit - psi.matrix) <= LIMIT_STALL * frob(psi.matrix)
