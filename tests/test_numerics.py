import ast
import json
import multiprocessing
import os
import re
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import formkit as fk
from formkit import numerics
from formkit.cli import encode_matrix, main
from formkit.numerics import as_matrix, frob, hermitize, one_blas_thread, rank_cut, stack_map

from conftest import complex_randn, random_psd, random_unitary


def test_as_matrix_rejects_nonfinite():
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0], [0, 1]])
    with pytest.raises(ValueError):
        as_matrix([[1, 2, 3], [4, 5, 6]])


class TestHermitianEig:
    def test_already_diagonal(self):
        eig = fk.hermitian_eig(np.diag([1.0, 2.0]))
        assert np.allclose(eig.values, [1.0, 2.0])
        assert np.array_equal(np.abs(eig.vectors), np.eye(2))

    def test_off_diagonal_pair(self):
        # characteristic polynomial t^2 - 1 by hand
        eig = fk.hermitian_eig([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(eig.values, [-1.0, 1.0], atol=1e-14)

    def test_zero_matrix(self):
        eig = fk.hermitian_eig(np.zeros((3, 3)))
        assert np.all(eig.values == 0)
        assert numerics.min_eig_herm(np.zeros((0, 0))) == 0.0

    def test_rejects_nonhermitian(self):
        with pytest.raises(fk.NotHermitian):
            fk.hermitian_eig([[0.0, 1.0], [0.0, 0.0]])

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(1)
        for n in range(1, 13):
            m = hermitize(complex_randn(rng, n, n))
            eig = fk.hermitian_eig(m)
            assert frob(eig.reconstruct() - m) <= 1e-11 * frob(m)
            assert frob(eig.vectors.conj().T @ eig.vectors - np.eye(n)) <= 1e-12 * n


class TestPinv:
    def test_diagonal(self):
        assert np.allclose(fk.pinv(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_identity(self):
        assert np.allclose(fk.pinv(np.eye(4)), np.eye(4))

    def test_rank_one(self):
        # svd by hand: single singular value 2 on (1,1)/sqrt2
        m = np.ones((2, 2))
        assert np.allclose(fk.pinv(m), np.ones((2, 2)) / 4, atol=1e-14)

    def test_zero(self):
        assert np.array_equal(fk.pinv(np.zeros((2, 3))), np.zeros((3, 2)))

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 5),
        m=st.integers(1, 5),
        rank=st.integers(0, 5),
        seed=st.integers(0, 2**31),
    )
    def test_moore_penrose_identities(self, n, m, rank, seed):
        rng = np.random.default_rng(seed)
        rank = min(rank, n, m)
        a = complex_randn(rng, n, rank) @ complex_randn(rng, rank, m) if rank else np.zeros((n, m), complex)
        plus = fk.pinv(a)
        scale = max(np.linalg.norm(a), 1e-300)
        assert np.linalg.norm(a @ plus @ a - a) <= 1e-9 * scale
        assert np.linalg.norm(plus @ a @ plus - plus) <= 1e-9 * max(np.linalg.norm(plus), 1e-300)
        assert np.linalg.norm(a @ plus - (a @ plus).conj().T) <= 1e-9 * max(1.0, scale)
        assert np.linalg.norm(plus @ a - (plus @ a).conj().T) <= 1e-9 * max(1.0, scale)


def kernel_projector(m):
    """The orthogonal projector onto the kernel that ``quotient_embedding`` cuts."""
    null = fk.quotient_embedding(fk.PositiveForm(m)).null
    return null @ null.conj().T


class TestKernelProjector:
    def test_diagonal(self):
        assert np.allclose(kernel_projector(np.diag([1.0, 0.0])), np.diag([0.0, 1.0]))

    def test_full_rank(self):
        assert np.allclose(kernel_projector(np.eye(3)), np.zeros((3, 3)))

    def test_rank_one(self):
        expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.allclose(kernel_projector(np.ones((2, 2))), expected, atol=1e-14)

    def test_annihilates_matrix(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 9))
            m = random_psd(rng, n, rank=int(rng.integers(0, n + 1)))
            proj = kernel_projector(m)
            assert frob(proj @ m) <= 1e-9 * max(frob(m), 1e-300)
            assert frob(proj @ proj - proj) <= 1e-10
            assert frob(proj - proj.conj().T) <= 1e-10


class TestRankCutAgreement:
    """A PSD matrix whose small eigenvalue sits just above or just below the
    relative cut gets the same rank from every construction that decides it."""

    @staticmethod
    def _matrix(factor):
        u = random_unitary(np.random.default_rng(23), 4)
        small = fk.DEFAULT_RANK_TOL * factor
        return hermitize((u * np.array([small, 0.3, 0.7, 1.0])) @ u.conj().T)

    @pytest.mark.parametrize("factor, rank", [(1 + 1e-3, 4), (1 - 1e-3, 3)])
    def test_every_site_agrees(self, tmp_path, capsys, factor, rank):
        m = self._matrix(factor)
        psi = fk.PositiveForm(m)
        emb = fk.quotient_embedding(psi)
        assert emb.rank == rank
        assert emb.null.shape[1] == 4 - rank
        assert np.array_equal(emb.null, psi.eig.vectors[:, ~rank_cut(psi.eig.values)])
        assert round(np.trace(kernel_projector(m)).real) == 4 - rank
        assert round(np.trace(fk.pinv(m) @ m).real) == rank
        path = tmp_path / "cut.json"
        doc = {"n": 4, "omega": encode_matrix(np.eye(4)).tolist(), "psi": encode_matrix(m).tolist()}
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["inspect", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["psi_rank"] == rank


def test_tolerances_are_named_only_in_numerics():
    """Every small threshold is a name in the numerics table; elsewhere in the
    package the only small float literal is the 1e-300 division floor."""
    package = Path(fk.__file__).parent
    stray = []
    for path in sorted(package.glob("*.py")):
        if path.name == "numerics.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0 < node.value < 1e-3
                and node.value != 1e-300
            ):
                stray.append(f"{path.name}:{node.lineno}: {node.value!r}")
    assert stray == []


def test_rank_cut_has_four_call_sites():
    """The rank cut is taken in exactly four functions: the pseudoinverse, the
    quotient embedding (whose ``null`` is the kernel), the kernel block of
    the Radon-Nikodym core and the closed-form lab row."""

    def cuts(node):
        return [
            call
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and "rank_cut" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
        ]

    package = Path(fk.__file__).parent
    sites, total = [], 0
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        total += len(cuts(tree))
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef):
                sites += [f"{path.stem}.{func.name}"] * len(cuts(func))
    assert total == len(sites)
    assert sorted(sites) == [
        "forms.eigen_embedding",
        "numerics.pinv",
        "regularity._rn_core",
        "trunclab._diagonal_row",
    ]


def test_asymmetry_has_three_call_sites():
    """The symmetry test is called in exactly three functions, each pinned
    with its tolerance: ``hermitian_eig`` (which every constructor of a
    Hermitian matrix routes through) and ``Form.is_symmetric`` at
    ``SYMMETRY_RTOL``, and the exact numerical radius at the tighter
    ``EXACT_RADIUS_RTOL``, which keeps that radius within ``RADIUS_RTOL``."""

    def calls(node):
        return [
            call
            for call in ast.walk(node)
            if isinstance(call, ast.Call)
            and "asymmetry" in (getattr(call.func, "id", None), getattr(call.func, "attr", None))
        ]

    package = Path(fk.__file__).parent
    sites, total = [], 0
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        total += len(calls(tree))
        scopes = [(path.stem, node) for node in tree.body]
        scopes += [
            (f"{path.stem}.{cls.name}", node)
            for cls in tree.body
            if isinstance(cls, ast.ClassDef)
            for node in cls.body
        ]
        for prefix, func in scopes:
            if isinstance(func, ast.FunctionDef):
                for call in calls(func):
                    tol = (call.args + [k.value for k in call.keywords])[-1]
                    sites.append((f"{prefix}.{func.name}", ast.unparse(tol)))
    assert total == len(sites)
    assert sorted(sites) == [
        ("forms.Form.is_symmetric", "SYMMETRY_RTOL"),
        ("numerics.hermitian_eig", "SYMMETRY_RTOL"),
        ("solvable.numerical_radius_bounds", "EXACT_RADIUS_RTOL"),
    ]


def test_readme_tolerance_table_matches_numerics():
    """The README's tolerance table names exactly the float constants of
    ``formkit.numerics``, with their values."""
    from formkit import numerics

    readme = Path(__file__).resolve().parent.parent / "README.md"
    rows = re.findall(r"^\| `(\w+)` \| ([^ |]+) \|", readme.read_text(encoding="utf-8"), re.M)
    table = {name: float(value) for name, value in rows}
    assert len(table) == len(rows)
    constants = {k: v for k, v in vars(numerics).items() if isinstance(v, float)}
    assert table == constants


class TestBlasThreads:
    def test_pins_nest_and_restore_the_count_found(self, blas_count):
        with one_blas_thread():
            assert blas_count() == 1
            # the budget is the count the pin found, not the pinned one
            assert numerics.blas_workers() == min(2, numerics._cpus())
            with one_blas_thread():
                assert blas_count() == 1
            assert blas_count() == 1
        assert blas_count() == 2
        with one_blas_thread(active=False):
            assert blas_count() == 2

    def test_pin_restores_on_error(self, blas_count):
        with pytest.raises(ZeroDivisionError):
            with one_blas_thread():
                1 / 0
        assert blas_count() == 2

    def test_overlapping_pins_across_threads(self, blas_count):
        # more threads than cores, switching often: the count reads 1 inside
        # every pin, and the last one out restores it
        inside = []

        def pin_often():
            for _ in range(200):
                with one_blas_thread():
                    inside.append(blas_count())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=pin_often) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert inside == [1] * 1600
        assert blas_count() == 2

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_split_runs_in_a_forked_child(self, monkeypatch):
        monkeypatch.setattr(numerics, "blas_workers", lambda: 2)

        def split():
            assert stack_map(lambda start, stop: start, 4, 4) == [0, 2]

        split()  # the parent's pool now has a thread, which the child lacks
        child = multiprocessing.get_context("fork").Process(target=split)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
            child.start()
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
        assert child.exitcode == 0

    @pytest.mark.parametrize("library", ["missing", "without the symbols"])
    def test_controls_absent_from_the_blas(self, monkeypatch, library):
        def load(path):
            if library == "missing":
                raise OSError(f"cannot load {path}")
            return object()

        monkeypatch.setattr(numerics.ctypes, "CDLL", load)
        assert numerics._openblas_controls() is None

    def test_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert numerics._cpus() == (os.cpu_count() or 1)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert numerics._cpus() == 1

    def test_without_controls_nothing_is_pinned_or_split(self, monkeypatch):
        monkeypatch.setattr(numerics, "BLAS_CONTROLS", None)
        assert numerics.blas_workers() == 1
        with one_blas_thread():
            pass

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("count, block", [(0, 4), (1, 4), (7, 1), (10, 3), (360, 113)])
    def test_stack_map_keeps_order_within_the_block(self, monkeypatch, workers, count, block):
        monkeypatch.setattr(numerics, "blas_workers", lambda: workers)
        spans = stack_map(lambda start, stop: (start, stop), count, block)
        assert [i for start, stop in spans for i in range(start, stop)] == list(range(count))
        share = max(1, block // max(1, min(workers, count)))
        assert all(0 < stop - start <= share for start, stop in spans)
        assert stack_map(lambda start, stop: (start, stop), count, block, split=False) == [
            (start, min(start + block, count)) for start in range(0, count, block)
        ]

    def test_stack_map_waits_for_every_share_before_raising(self, monkeypatch):
        monkeypatch.setattr(numerics, "blas_workers", lambda: 2)
        done = []

        def solve(start, stop):
            if threading.current_thread() is threading.main_thread():
                raise ValueError("caller's share")
            time.sleep(0.05)
            done.append(start)
            return start

        with pytest.raises(ValueError, match="caller's share"):
            stack_map(solve, 4, 4)
        assert done == [2]
