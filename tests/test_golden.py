"""Golden corpus: every CLI report on ``tests/golden/instances``, byte for byte.

The expected reports in ``tests/golden/expected`` were written by this file
run as a script. A change that means to alter reports regenerates them with

    PYTHONPATH=src python tests/test_golden.py

and the diff shows every byte that moved. Every instance in the corpus gives
the same bytes under 1 and 2 BLAS threads: the default run uses the
machine's threads, and ``test_reports_under_one_blas_thread`` re-runs the
corpus in a subprocess limited to one.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from formkit.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "expected"
INSTANCES = sorted(p.stem for p in (GOLDEN / "instances").glob("*.json"))
COMMANDS = ("inspect", "membership", "regularity", "represent", "decompose", "numrange", "solvable")
# a coarse hull keeps the numrange reports small
GRID = {"numrange": ("--grid", "64")}
# (instance, command, extra arguments, tag naming the expected file)
EXTRA = (
    ("diag", "lab", ("--sizes", "4,8"), "lab"),
    ("dense", "solvable", ("--lambda=5,0",), "solvable-lambda"),
)
CASES = [
    (name, command, extra, tag, mode)
    for name, command, extra, tag in [(i, c, GRID.get(c, ()), c) for i in INSTANCES for c in COMMANDS]
    + list(EXTRA)
    for mode in ("json", "txt")
]


def case_id(case) -> str:
    name, _, _, tag, mode = case
    return f"{name}.{tag}.{mode}"


def run(case) -> tuple[int, str]:
    name, command, extra, _, mode = case
    argv = [command, str(GOLDEN / "instances" / f"{name}.json"), *extra]
    if mode == "json":
        argv.append("--json")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def write_expected(directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    codes = {}
    for case in CASES:
        code, text = run(case)
        codes[case_id(case)] = code
        (directory / case_id(case)).write_bytes(text.encode("utf-8"))
    (directory / "codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")


@pytest.fixture(scope="module")
def codes():
    return json.loads((EXPECTED / "codes.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_report_bytes(case, codes):
    code, text = run(case)
    assert code == codes[case_id(case)]
    assert text.encode("utf-8") == (EXPECTED / case_id(case)).read_bytes()


def test_reports_under_one_blas_thread(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "PYTHONPATH": path}
    subprocess.run([sys.executable, __file__, str(tmp_path)], env=env, check=True)
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(p.name for p in EXPECTED.iterdir())
    moved = [n for n in written if (tmp_path / n).read_bytes() != (EXPECTED / n).read_bytes()]
    assert moved == []


if __name__ == "__main__":
    write_expected(Path(sys.argv[1]) if len(sys.argv) > 1 else EXPECTED)
