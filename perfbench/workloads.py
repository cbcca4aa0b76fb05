"""The four workloads: seeded instances and the cycle of ops each one runs.

A cycle is one pass over a workload's op list; a run repeats whole cycles,
so every run sees the same mix of ops and the same share of known-defect
ops. Sizes are fixed per workload (only the matrices depend on the seed), so
runs with different seeds do the same amount of work.
"""

from __future__ import annotations

import cmath
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import checks
import instances as gen

# Known defects of the program, reproduced by specific ops: (description, text
# every problem the defect causes contains). Such an op is counted as failed
# whenever its output is unsound; a run stays "correct" as long as every
# failure is one of these.
KNOWN_DEFECTS = {
    "roadmap-2c": (
        "numerical_radius takes the max of sampled support values, a lower bound, "
        "so epsilon_bound_check accepts diag((1+1e-6)e^{i pi/720}, 0) against I",
        "quadratic bound claimed to hold",
    ),
    "psl-hidden-coupling": (
        "parallel_sum_limit drops the coupling of a hidden block: pinv's relative "
        "rank cut zeroes psi's hidden block once 2^k theta dominates it by 1e10, so "
        "the limit misses the short of psi to ran(theta)",
        "parallel_sum_limit off the exact short",
    ),
}


def explained(op: "Op", problems: list) -> bool:
    """Whether every problem is the op's known defect."""
    if op.known_defect is None:
        return False
    signature = KNOWN_DEFECTS[op.known_defect][1]
    return all(signature in problem for problem in problems)


@dataclass
class Op:
    command: str                 # CLI command, or "lib" for the library cross-check
    label: str
    truth: dict
    argv: list = field(default_factory=list)
    params: dict = field(default_factory=dict)
    known_defect: Optional[str] = None


@dataclass
class Workload:
    name: str
    ops: list                    # one cycle
    tail_percentile: float       # fixed so that it sits inside one cost group


def _write(directory: Path, inst: gen.Instance) -> str:
    path = directory / f"{inst.name}.json"
    path.write_text(json.dumps(inst.doc), encoding="utf-8")
    return str(path)


def _lam_arg(lam: complex) -> list:
    # one token: a separate "-1.5,0.2" would be parsed as an option
    return [f"--lambda={lam.real!r},{lam.imag!r}"]


def _cli(command, inst, path, extra=(), **params) -> Op:
    return Op(command, inst.name, inst.truth, [command, path, "--json", *extra], params)


def _solvable_lambda(inst, path, where) -> Op:
    lam = inst.truth[f"lam_{where}"][0]
    return _cli("solvable", inst, path, _lam_arg(lam), lam=lam, where=where)


def hull_dense(rng, directory: Path) -> Workload:
    ops = []
    for i, n in enumerate((24, 36, 48, 48)):
        inst = gen.member(rng, n, f"dense{i}-n{n}")
        path = _write(directory, inst)
        ops += [
            _cli("numrange", inst, path),
            _cli("membership", inst, path),
            _solvable_lambda(inst, path, "outside"),
            _solvable_lambda(inst, path, "inside"),
        ]
        if i < 3:
            herm = gen.member(rng, n, f"herm{i}-n{n}", hermitian=True)
            ops.append(_cli("membership", herm, _write(directory, herm)))
    probe = gen.probe_2c()
    op = _cli("membership", probe, _write(directory, probe))
    op.known_defect = "roadmap-2c"
    ops.append(op)
    return Workload("hull-dense", ops, 0.80)


def split_large(rng, directory: Path) -> Workload:
    ops = []
    for n in (32, 48, 64):
        for hidden in (0, n // 4):
            inst = gen.split(rng, n, f"split-n{n}-h{hidden}", hidden)
            path = _write(directory, inst)
            ops += [
                _cli(command, inst, path)
                for command in ("inspect", "regularity", "represent", "decompose", "solvable")
            ]
            # the library op reads psi and theta from its truth
            pair = gen.hidden_pair(rng, n, hidden)
            defect = "psl-hidden-coupling" if hidden else None
            ops.append(Op("lib", f"pair-n{n}-h{hidden}", pair, known_defect=defect))
    return Workload("split-large", ops, 67 / 72)


def batch_small(rng, directory: Path) -> Workload:
    kinds = (
        ("dense", lambda n, label: gen.member(rng, n, label)),
        ("rankdef", lambda n, label: gen.split(rng, n, label, max(1, n // 4))),
        ("diag", lambda n, label: gen.diag_family(rng, n, label)),
        ("measure", lambda n, label: gen.measure_family(rng, n, label)),
        ("pair", lambda n, label: gen.operator_pair_family(rng, n, label)),
    )
    ops = []
    for i, n in enumerate((4, 8, 12, 16, 20, 24)):
        for j, (kind, make) in enumerate(kinds):
            inst = make(n, f"{kind}-n{n}")
            path = _write(directory, inst)
            ops += [
                _cli(command, inst, path)
                for command in ("inspect", "membership", "regularity", "represent",
                                "decompose", "numrange")
            ]
            if (i + j) % 2:
                ops.append(_solvable_lambda(inst, path, "outside"))
            else:
                ops.append(_cli("solvable", inst, path))
    return Workload("batch-small", ops, 0.98)


LAB_SIZES = (8, 16, 32, 48)

LAB_FAMILIES = (
    # certified after a short scan
    ("rotating", "n*exp(i*n)", lambda n: n * cmath.exp(1j * n)),
    # sectorial with a small slope
    ("parabolic", "n+i*sqrt(n)", lambda n: n + 1j * cmath.sqrt(n)),
    # refused by the grid at N=48 after all 672 points; knife-edge at N=32
    ("quartic", "i*n*n*n*n", lambda n: 1j * n * n * n * n),
)


def lab_sweep(rng, directory: Path) -> Workload:
    ops = []
    sizes = ",".join(str(s) for s in LAB_SIZES)
    for name, expression, term in LAB_FAMILIES:
        def values(size, term=term):
            return np.asarray([term(k) for k in range(1, size + 1)], dtype=complex)

        inst = gen.lab_family(expression, values, f"lab-{name}")
        ops.append(_cli("lab", inst, _write(directory, inst), ["--sizes", sizes], sizes=LAB_SIZES))
    return Workload("lab-sweep", ops, 5 / 6)


WORKLOADS: dict[str, Callable] = {
    "hull-dense": hull_dense,
    "split-large": split_large,
    "batch-small": batch_small,
    "lab-sweep": lab_sweep,
}


def build(name: str, seed: int, directory: Path) -> Workload:
    directory.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](np.random.default_rng(seed), directory)


def check(op: Op, code: int, text: str) -> list[str]:
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    return checks.CLI_CHECKS[op.command](op.truth, code, report, **op.params)


def run_library(op: Op, formkit):
    """The library cross-check: positive_lebesgue against the doubling
    limit on one hidden-block pair."""
    psi = formkit.PositiveForm(op.truth["psi"])
    theta = formkit.PositiveForm(op.truth["theta"])
    ac, singular = formkit.positive_lebesgue(psi, theta)
    try:
        limit = formkit.parallel_sum_limit(psi, theta)
    except formkit.NoConvergence:
        limit = None  # a reported non-convergence is a sound answer
    return ac.matrix, singular.matrix, limit


def check_library(op: Op, result) -> list[str]:
    return checks.positive_split(op.truth, *result)
