#!/usr/bin/env python3
"""Re-measure the ad hoc Baseline figures quoted in ROADMAP.md.

Each case runs in its own fresh process (so ``ru_maxrss`` is the case's own
peak), builds its instance from seed ``SEED``, repeats its call ``REPEAT``
times and reports every time. Run from the repository root:

    python3 perfbench/crosscheck.py

Output: one line per case with the ROADMAP figure, the best and median of
the repeats, their spread ((max - min) / median) and the peak RSS, then the
same as JSON on the last line. ``hull n=256`` (2.2 GB in ROADMAP) is left
out to keep the run's memory small.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPEAT = 3
SEED = 1

# name -> (ROADMAP seconds, ROADMAP peak MB or None)
CASES = {
    "hull n=128 grid=720": (4.6, 580),
    "radon_nikodym n=256": (0.24, None),
    "lebesgue_decompose n=256": (0.23, None),
    "in_class_M n=256": (0.05, None),
    "sector search diag(n e^{in}) N=64": (0.065, None),
    "sector search diag(n e^{in}) N=256": (2.6, None),
    "cli membership n=96": (2.65, None),
    "cli numrange n=96": (2.40, None),
    "cli solvable --lambda n=96": (2.58, None),
}


def _case(name: str) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import numpy as np

    import formkit
    import formkit.cli
    import instances
    from run import run_cli

    rng = np.random.default_rng(SEED)
    kind, _, size = name.rpartition(" n=") if " n=" in name else name.rpartition(" N=")
    n = int(size.split()[0])
    if kind.startswith("hull"):
        omega = formkit.Form(instances.member(rng, n, "x").truth["omega"])
        call = lambda: formkit.numerical_range_hull(omega, 720)  # noqa: E731
    elif kind.startswith("sector"):
        theta = formkit.identity_form(n)
        omega = formkit.Form(np.diag([k * np.exp(1j * k) for k in range(1, n + 1)]))
        call = lambda: formkit.sectorial_parameters(omega, theta)  # noqa: E731
    elif kind.startswith("cli"):
        inst = instances.member(rng, n, "x")
        path = ROOT / ".perfbench" / f"crosscheck-{n}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(inst.doc), encoding="utf-8")
        command = kind.split()[1]
        argv = [command, str(path)]
        if "--lambda" in kind:
            lam = inst.truth["lam_outside"][0]
            argv.append(f"--lambda={lam.real!r},{lam.imag!r}")
        call = lambda: run_cli(formkit.cli, argv)  # noqa: E731
    else:
        inst = instances.split(rng, n, "x", 0)
        t = inst.truth
        omega = formkit.Form(t["omega"])
        psi = formkit.PositiveForm(t["psi"])
        theta = formkit.PositiveForm(
            np.asarray([[complex(*e) for e in row] for row in inst.doc["theta"]])
        )
        fn = {"radon_nikodym": lambda: formkit.radon_nikodym(omega, theta, psi),
              "lebesgue_decompose": lambda: formkit.lebesgue_decompose(omega, theta, psi),
              "in_class_M": lambda: formkit.in_class_M(omega, psi)}[kind]
        call = fn
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return {"seconds": times, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--case", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.case:
        print(json.dumps(_case(args.case)))
        return 0
    rows = []
    for name, (ref_s, ref_mb) in CASES.items():
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--case", name],
            capture_output=True, text=True, timeout=600, cwd=ROOT,
        )
        if proc.returncode:
            print(f"{name}: failed: {proc.stderr.strip()[-300:]}", file=sys.stderr)
            return 1
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        times = got["seconds"]
        med = statistics.median(times)
        row = {
            "case": name,
            "roadmap_s": ref_s,
            "roadmap_mb": ref_mb,
            "best_s": min(times),
            "median_s": med,
            "spread": (max(times) - min(times)) / med,
            "peak_rss_mb": got["peak_rss_mb"],
            "ratio_to_roadmap": min(times) / ref_s,
        }
        rows.append(row)
        print(f"{name:38s} roadmap {ref_s:7.3f} s  best {row['best_s']:8.4f} s  "
              f"spread {row['spread']:.3f}  ratio {row['ratio_to_roadmap']:.2f}  "
              f"rss {row['peak_rss_mb']:.0f} MB" + (f" (roadmap {ref_mb} MB)" if ref_mb else ""))
    print(json.dumps(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
