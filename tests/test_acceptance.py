"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with ``pytest -s`` to see them live).

Criterion 6 checks the rotating diagonal family diag(n e^{in}), which is
Theta-regular but not sectorial. A finite section of it cannot be refused:
for any vertex delta strictly below min_n n cos n, the slope
max_n |n sin n| / (n cos n - delta) gives a sector (Kato, Perturbation
Theory for Linear Operators, VI.1). The sound finite-N evidence is that
every admissible vertex lies below the section's semibound min_n n cos n,
which tends to -infinity with N. The criterion therefore checks that the
certificate found has its vertex there, that the certificate holds on the
weights themselves, and that no slope admits the coarse vertex -46.7.
"""

import json
import time

import numpy as np
import pytest

import formkit as fk
from formkit.cli import emit_instance, main, parse_instance
from formkit.numerics import frob, min_eig_herm

from conftest import (
    complex_randn,
    mixed_rank_triple,
    positive_pair,
    random_operator_instance,
)

_module_start = time.monotonic()

# frozen after independent evaluation of n * cos(n), n = 1..64; the minimum
# sits at n = 60, below the coarser estimate -46.7 located near n = 47
SEMIBOUND_MIN_N64 = -57.14477882490938
SEMIBOUND_ARGMIN_N64 = 60


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {name}: {status}{suffix}")


@pytest.fixture(scope="module")
def operator_instances():
    rng = np.random.default_rng(1001)
    out = []
    for _ in range(300):
        n = int(rng.integers(1, 9))
        out.append(random_operator_instance(rng, n))
    return out


@pytest.fixture(scope="module")
def representations(operator_instances):
    start = time.monotonic()
    items = [
        (omega, theta, psi, fk.radon_nikodym(omega, theta, psi))
        for omega, theta, psi in operator_instances
    ]
    return items, time.monotonic() - start


@pytest.fixture(scope="module")
def positive_pairs():
    rng = np.random.default_rng(1002)
    out = []
    for k in range(200):
        n = int(rng.integers(2, 7))
        out.append(positive_pair(rng, n, k % 3))
    return out


def test_criterion_01_representation(representations):
    items, build_seconds = representations
    start = time.monotonic()
    worst = 0.0
    for omega, theta, psi, rep in items:
        residuals = fk.representation_residuals(rep, omega, psi)
        worst = max(worst, residuals["fundamental"], residuals["density"], residuals["pairing"])
    elapsed = build_seconds + (time.monotonic() - start)
    ok = worst <= 1e-8 and elapsed < 10.0
    verdict(1, "representation-identities", ok, f"worst={worst:.2e}, {elapsed:.2f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_02_lebesgue_split():
    rng = np.random.default_rng(1003)
    worst_add = 0.0
    for _ in range(300):
        n = int(rng.integers(2, 9))
        omega, theta, psi = mixed_rank_triple(rng, n)
        split = fk.lebesgue_decompose(omega, theta, psi)
        total = max(frob(omega.matrix), 1e-300)
        worst_add = max(
            worst_add,
            frob(split.regular.matrix + split.singular.matrix - omega.matrix) / total,
        )
        member, _ = fk.in_class_M(split.regular, split.rep.majorant)
        assert member
        assert fk.is_absolutely_continuous(split.rep.majorant, theta)
        fk.singularity_witness(split, theta, np.eye(n))
    ok = worst_add <= 1e-10
    verdict(2, "lebesgue-decomposition", ok, f"worst additivity={worst_add:.2e}")
    assert ok


def test_criterion_03_positive_oracle(positive_pairs):
    worst = 0.0
    for psi, theta, _ in positive_pairs:
        limit = fk.parallel_sum_limit(psi, theta)
        ac, _sing = fk.positive_lebesgue(psi, theta)
        worst = max(worst, frob(limit - ac.matrix) / max(1.0, frob(psi.matrix)))
        singular = fk.is_mutually_singular(psi, theta)
        vanished = frob(ac.matrix) <= 1e-9 * max(frob(psi.matrix), 1e-300)
        assert singular == vanished
    ok = worst <= 1e-6
    verdict(3, "positive-oracle-equivalence", ok, f"worst={worst:.2e}")
    assert ok


def test_criterion_04_maximality(positive_pairs):
    for psi, theta, _ in positive_pairs:
        ac, _ = fk.positive_lebesgue(psi, theta)
        candidates = [ac]
        for t in (0.3, 0.7):
            candidates.append(fk.PositiveForm(t * ac.matrix))
        candidates.append(fk.parallel_sum(psi, fk.PositiveForm(2.0**10 * theta.matrix)))
        for cand in candidates:
            assert fk.maximality_check(cand, psi, theta)
    verdict(4, "maximal-minorant", True)


def test_criterion_05_numerical_range_pipeline():
    rng = np.random.default_rng(1005)
    for _ in range(300):
        n = int(rng.integers(1, 11))
        mat = complex_randn(rng, n, n)
        omega = fk.Form(mat)
        hull = fk.numerical_range_hull(omega)
        scale = hull.scale
        for z in np.linalg.eigvals(mat):
            assert hull.distance(z) <= 1e-6 * scale
        gram = fk.NormGram(np.eye(n))
        radius = float(np.max(np.abs(hull.points)))
        for _k in range(10):
            lam = (radius + (0.11 + rng.uniform(0, 1.0)) * scale) * np.exp(
                1j * rng.uniform(0, 2 * np.pi)
            )
            d = hull.distance(lam)
            assert d > 0.1 * scale
            resolvent = np.linalg.inv(mat - lam * np.eye(n))
            assert np.linalg.norm(resolvent, 2) <= (1 + 1e-6) / d
            result = fk.scalar_solvability(omega, gram, lam)
            assert result.solvable
    verdict(5, "numerical-range-pipeline", True)


def test_criterion_06_rotating_diagonal_family():
    sizes = np.arange(1, 65)
    inst = fk.diag_family(sizes * np.exp(1j * sizes), provenance="diag[N=64]")
    h, y = inst.extras["H"], inst.extras["Y"]
    rep_residual = frob(h @ h @ y - inst.omega.matrix) / frob(inst.omega.matrix)
    closed_form = max(
        float(np.max(np.abs(h.diagonal() - np.sqrt(sizes)))),
        float(np.max(np.abs(y.diagonal() - np.exp(1j * sizes)))),
    )
    witnesses_ok = rep_residual <= 1e-12 and closed_form <= 1e-13

    minimum = float(np.min(sizes * np.cos(sizes)))
    argmin = int(sizes[np.argmin(sizes * np.cos(sizes))])
    semibound_ok = (
        minimum <= -46.7
        and abs(minimum - SEMIBOUND_MIN_N64) <= 1e-9
        and argmin == SEMIBOUND_ARGMIN_N64
    )

    # a finite section is always sectorial, so the evidence of non-sectoriality
    # is where its sectors sit: every admissible vertex lies below the semibound
    # min n cos n, which tends to -infinity with N
    try:
        cert = fk.sectorial_parameters(inst.omega, inst.theta)
        found = f"delta={cert.delta:.3f}, gamma={cert.gamma:g}"
        below_semibound = cert.delta < SEMIBOUND_MIN_N64
        # independent check on the weights, allowing only rounding error
        real, imag = sizes * np.cos(sizes), sizes * np.sin(sizes)
        certificate_holds = bool(
            np.all(
                np.abs(imag)
                <= cert.gamma * (real - cert.delta) + 1e-12 * np.max(np.abs(imag))
            )
        )
    except fk.NotSectorial as exc:
        found = f"search refused: {exc}"
        below_semibound = certificate_holds = False

    # the vertex inequality fails before any slope is tried, so no slope of
    # the grid (the largest is 2**20) admits the coarse vertex
    try:
        fk.sectorial_parameters(inst.omega, inst.theta, -46.7, 2.0**20)
        coarse_refused = False
    except fk.NotSectorial as exc:
        coarse_refused = "real part minus -46.7 * theta" in str(exc)
    vertex_ok = below_semibound and certificate_holds and coarse_refused

    verdict(
        6,
        "rotating-diagonal-N64",
        witnesses_ok and semibound_ok and vertex_ok,
        f"witnesses={'PASS' if witnesses_ok else 'FAIL'}, "
        f"semibound={'PASS' if semibound_ok else 'FAIL'}, "
        f"sector_vertex={'PASS' if vertex_ok else 'FAIL ' + found}",
    )
    assert rep_residual <= 1e-12
    assert semibound_ok
    assert below_semibound, f"vertex not below the semibound: {found}"
    assert certificate_holds, f"certificate fails on the weights: {found}"
    assert coarse_refused, "vertex -46.7 not refused by the vertex inequality"


def test_criterion_07_discrete_measure_split():
    rng = np.random.default_rng(1007)
    for _ in range(100):
        m = int(rng.integers(2, 9))
        theta_w = np.where(rng.random(m) < 0.45, 0.0, rng.uniform(0.5, 2.0, m))
        modulus = np.where(rng.random(m) < 0.45, 0.0, rng.uniform(0.5, 2.0, m))
        omega_w = modulus * np.exp(1j * rng.uniform(0, 2 * np.pi, m))
        omega_w = np.where(modulus == 0, 0.0, omega_w)
        inst = fk.measure_family(theta_w, omega_w)
        ac, sing = fk.positive_lebesgue(inst.psi, inst.theta)
        # independent support-splitting oracle on the weights themselves
        on_support = theta_w > 0
        oracle_ac = np.diag(np.where(on_support, np.abs(omega_w), 0.0)).astype(complex)
        oracle_sing = np.diag(np.where(on_support, 0.0, np.abs(omega_w))).astype(complex)
        assert np.array_equal(ac.matrix, oracle_ac)
        assert np.array_equal(sing.matrix, oracle_sing)
    verdict(7, "discrete-measure-split", True, "exact, 0 tolerance")


def test_criterion_08_kato_variant(representations):
    worst = 0.0
    for omega, theta, psi, rep in representations[0]:
        middle = fk.kato_S(rep)
        h = rep.core.scale
        recovered = rep.core.theta_embedding.from_quotient(h @ middle @ h)
        scale = max(frob(omega.matrix), 1e-300)
        worst = max(worst, frob(recovered - omega.matrix) / scale)
    ok = worst <= 1e-8
    verdict(8, "kato-middle-operator", ok, f"worst={worst:.2e}")
    assert ok


def test_criterion_09_dominated_sequence(operator_instances):
    for _omega, theta, psi in operator_instances:
        index = fk.dominated_sequence_stabilization(psi, theta)
        previous = None
        settled = fk.dominated_sequence(psi, theta, index)
        for stage in range(1, index + 3):
            current = fk.dominated_sequence(psi, theta, stage)
            # theta-dominated with the constant n^2 - 1: the weights kept at
            # level 1/n have w^2 = 1/t^2 - 1 <= n^2 - 1
            bound = (stage**2 - 1) * theta.matrix - current.matrix
            assert min_eig_herm(bound) >= -1e-10 * max(1.0, theta.spectral_norm)
            if previous is not None:
                assert min_eig_herm(current.matrix - previous.matrix) >= -1e-10
            previous = current
            if stage >= index:
                assert np.array_equal(current.matrix, settled.matrix)
        # the settled stage carries the whole absolutely continuous mass
        ac, _ = fk.positive_lebesgue(psi, theta)
        assert frob(settled.matrix - ac.matrix) <= 1e-8 * max(frob(psi.matrix), 1e-300)
    verdict(9, "dominated-sequence", True)


def test_criterion_10_cli_and_runtime(tmp_path, capsys, session_start):
    # round-trip: emit -> parse reproduces matrices bit for bit
    rng = np.random.default_rng(1010)
    t = complex_randn(rng, 4, 4)
    inst = fk.Instance(
        omega=fk.Form(t),
        theta=fk.identity_form(4),
        psi=fk.canonical_majorant(t),
        provenance="acceptance-roundtrip",
    )
    path = tmp_path / "roundtrip.json"
    path.write_text(emit_instance(inst), encoding="utf-8")
    parsed = parse_instance(str(path))
    assert np.array_equal(parsed.omega.matrix, inst.omega.matrix)
    assert np.array_equal(parsed.theta.matrix, inst.theta.matrix)
    assert np.array_equal(parsed.psi.matrix, inst.psi.matrix)
    reparsed = parse_instance(str(path))
    assert emit_instance(parsed) == emit_instance(reparsed)

    # determinism: identical inputs and flags give byte-identical reports
    doc = {"family": {"name": "diag", "lambda": "n*exp(i*n)", "N": 6}}
    fam = tmp_path / "fam.json"
    fam.write_text(json.dumps(doc), encoding="utf-8")
    outputs = []
    for _ in range(2):
        assert main(["represent", str(fam), "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    for _ in range(2):
        assert main(["decompose", str(fam)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[2] == outputs[3]

    module_elapsed = time.monotonic() - _module_start
    session_elapsed = time.monotonic() - session_start
    ok = module_elapsed < 60.0 and session_elapsed < 60.0
    verdict(
        10,
        "cli-and-runtime",
        ok,
        f"acceptance={module_elapsed:.1f}s, session={session_elapsed:.1f}s",
    )
    assert ok
