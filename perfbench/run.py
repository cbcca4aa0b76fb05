#!/usr/bin/env python3
"""formkit benchmark: seeded CLI workloads with output checks.

Run from the repository root:

    python3 perfbench/run.py --workload hull-dense --seed 1 --seconds 15 --trace 0

Load model: one client in one process runs ops back to back (a closed loop
with no think time). An op is one in-process ``formkit.cli.main([...])`` call
on a generated instance file with stdout captured, or, in ``split-large``,
one library cross-check. BLAS uses the CPUs available to the process unless
``--blas-threads`` says otherwise.

With ``--trace 0`` the last line reports the end-to-end metrics; with
``--trace 1`` every op runs twice, untraced and traced in alternating order,
and the last line reports per-layer metrics (per cycle) plus the tracing
overhead (traced minus untraced). Spans (unscaled wall times) are written
to ``.perfbench/spans-<workload>-seed<seed>.jsonl``. The lines before the last
one give the machine record, each metric by name with its unit, the tail
percentile with its sample count (the ``tail`` line), ``failed_ratio`` and
every failed op.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_SAMPLES = 5
MAX_BUSY_S = 120.0  # hard stop well inside the 180 s a run may take
# The reference kernel's wall time on the reference machine (2-vCPU Xeon VM at
# 2.0 GHz, Python 3.11, numpy 2.4.6). Timings are reported at that speed.
KERNEL_REF_S = 1.7e-3
KERNEL_EVERY_S = 0.05   # sample the kernel at most this often during a run
KERNEL_WINDOW = 5       # an op is scaled by the median of the latest samples
# The reference set-up probe's wall time on the reference machine.
SETUP_REF_S = 0.1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("hull-dense", "split-large", "batch-small", "lab-sweep"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blas-threads", type=int, default=None,
                   help="BLAS threads (default: the CPUs available to this process)")
    p.add_argument("--setup-probe", metavar="SPEC", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe is None and args.workload is None:
        p.error("--workload is required")
    return args


def configure_blas(requested) -> str:
    """Fix the BLAS thread count before numpy loads; returns the setting."""
    if requested is not None:
        value = str(requested)
    else:
        value = os.environ.get("OPENBLAS_NUM_THREADS") or str(len(os.sched_getaffinity(0)))
    for key in BLAS_ENV:
        os.environ[key] = value
    return value


def run_cli(cli, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue()


def setup_probe(spec_path) -> int:
    """One set-up sample in a fresh process: import formkit, then one
    warm-up op per command. The spec ``reference`` is the same fresh-process
    work without formkit: import numpy and run one small ``eigh``."""
    start = time.perf_counter()
    if spec_path == "reference":
        import numpy

        numpy.linalg.eigh(numpy.eye(8))
    else:
        warmups = json.loads(Path(spec_path).read_text(encoding="utf-8"))
        sys.path.insert(0, str(SRC))
        from formkit import cli

        for argv in warmups:
            run_cli(cli, argv)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
    return 0


def fresh_probe(spec) -> float:
    """Run ``setup_probe(spec)`` in a fresh process; returns its time."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", str(spec)],
        capture_output=True, text=True, timeout=150, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure_setup(warmups, directory: Path, calibrator) -> list[tuple[float, float]]:
    """(raw, scaled) set-up time of each fresh-process probe."""
    spec = directory / "warmup.json"
    spec.write_text(json.dumps(warmups), encoding="utf-8")
    samples = []
    for _ in range(SETUP_SAMPLES):
        scale = calibrator.setup_scale()
        raw = fresh_probe(spec)
        samples.append((raw, raw * scale))
    return samples


def blas_threads_in_effect():
    """Ask the loaded OpenBLAS; None when it is not OpenBLAS or not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_record(numpy, setting: str) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads_setting": setting,
        "blas_threads_in_effect": blas_threads_in_effect(),
    }


class Calibrator:
    """Machine-speed reference for timings.

    On a shared virtual machine the CPU speed can drift by a third over
    seconds to minutes as other tenants come and go, which swamps the
    differences between program versions. For op times, a fixed kernel that
    is independent of formkit and uses no BLAS (an interpreter loop plus
    element-wise numpy and a sort, all single-threaded, so formkit's BLAS
    use cannot move it) is timed between ops. Every op time the benchmark
    reports (op latencies, per-layer self times) is multiplied by the one
    ``scale()`` in effect when it was taken, so it is reported at the
    reference machine's speed. Set-up time is mostly process start, imports
    and first-call costs, which that kernel does not follow; each set-up
    probe is scaled by ``setup_scale()``, the same fresh-process work
    without formkit timed just before it. Raw wall times are printed beside
    the scaled ones.
    """

    def __init__(self, numpy):
        self._np = numpy
        self._data = numpy.random.default_rng(0).standard_normal(20000)
        self.samples: list[float] = []
        self._last = -math.inf
        for _ in range(KERNEL_WINDOW):
            self.sample()

    def _kernel(self):
        acc = 0
        for i in range(10000):
            acc += i * i
        np = self._np
        np.sort(np.sin(self._data) * np.exp(self._data))

    def sample(self) -> float:
        self._kernel()  # warm caches first, so the preceding op does not matter
        start = time.perf_counter()
        self._kernel()
        end = time.perf_counter()
        self._last = end
        self.samples.append(end - start)
        return end - start

    def setup_scale(self) -> float:
        """Scale for the next set-up probe."""
        return SETUP_REF_S / fresh_probe("reference")

    def scale(self) -> float:
        """Scale for the next timing: ``KERNEL_REF_S`` over the median of the
        latest samples, sampling the kernel first when one is due."""
        if time.perf_counter() - self._last >= KERNEL_EVERY_S:
            self.sample()
        return KERNEL_REF_S / statistics.median(self.samples[-KERNEL_WINDOW:])


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    data = sorted(values)
    pos = p * (len(data) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def beyond(n: int, p: float) -> int:
    return n - 1 - math.floor(p * (n - 1))


class Runner:
    def __init__(self, workload, formkit, cli, workloads_mod, calibrator):
        self.workload = workload
        self.formkit = formkit
        self.cli = cli
        self.wl = workloads_mod
        self.calibrator = calibrator
        self.tracer_modules = None  # set by the traced run
        self.linalg = None
        self.failures: dict = {}
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0

    def execute(self, op):
        if op.command == "lib":
            return 0, self.wl.run_library(op, self.formkit)
        return run_cli(self.cli, op.argv)

    def timed(self, op, tracer=None):
        """Run and check one op; returns (wall latency, exit code, output size).
        Only the op itself is timed, not its check."""
        start = time.perf_counter()
        try:
            if tracer is None:
                outcome = self.execute(op)
            else:
                tracer.op_id += 1
                tracer.install(self.tracer_modules, self.linalg)
                try:
                    outcome = tracer.call("op", "bench", self.execute, (op,), {})
                finally:
                    tracer.uninstall()
            problems = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            outcome, problems = (None, None), [f"raised {type(exc).__name__}: {exc}"]
        latency = time.perf_counter() - start
        code, payload = outcome
        if problems is None:
            try:
                if op.command == "lib":
                    problems = self.wl.check_library(op, payload)
                else:
                    problems = self.wl.check(op, code, payload)
            except Exception as exc:  # an output the check cannot read fails
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        self.attempted += 1
        if problems:
            self.failed += 1
            self.unexpected += not self.wl.explained(op, problems)
            self.failures.setdefault(op.label + " " + op.command, (op, problems))
        return latency, code, len(payload) if isinstance(payload, str) else 0

    def loop(self, seconds: float, min_ops: int, body) -> tuple[int, float]:
        """Repeat whole cycles until ``seconds`` of op time and ``min_ops``
        ops are done. ``body`` runs one op and returns the op time it used;
        returns (cycles, op seconds)."""
        cycles, ops, busy = 0, 0, 0.0
        while True:
            for index, op in enumerate(self.workload.ops):
                busy += body(cycles, index, op)
                ops += 1
            cycles += 1
            if busy >= MAX_BUSY_S or (busy >= seconds and ops >= min_ops):
                return cycles, busy


def end_to_end(latencies, p_tail):
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_tail_ms": 1000 * percentile(latencies, p_tail),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "formkit" / "__init__.py").is_file():
        print(f"error: formkit sources not found at {SRC}", file=sys.stderr)
        return 2
    setting = configure_blas(args.blas_threads)
    if args.setup_probe:
        return setup_probe(args.setup_probe)

    sys.path.insert(0, str(SRC))
    import numpy

    import tracing
    import workloads

    directory = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    calibrator = Calibrator(numpy)
    try:
        workload = workloads.build(args.workload, args.seed, directory)
        first = {}
        for op in workload.ops:
            first.setdefault(op.command, op)
        setup = measure_setup(
            [op.argv for op in first.values() if op.command != "lib"], directory, calibrator
        )

        import formkit
        from formkit import cli

        if Path(formkit.__file__).resolve().parent != (SRC / "formkit").resolve():
            print(f"error: imported formkit from {formkit.__file__}, not {SRC}", file=sys.stderr)
            return 2
        runner = Runner(workload, formkit, cli, workloads, calibrator)
        for op in first.values():
            runner.timed(op)  # untimed warm-up: its latency is discarded
        runner.failures.clear()
        runner.attempted = runner.failed = runner.unexpected = 0

        p_tail = workload.tail_percentile
        min_ops = math.ceil(10 / (1 - p_tail)) + 1
        print(f"workload {workload.name} seed {args.seed} trace {args.trace} "
              f"ops_per_cycle {len(workload.ops)}")
        print("machine " + json.dumps(machine_record(numpy, setting), sort_keys=True))

        if args.trace:
            metrics = traced_run(runner, tracing, args, p_tail, min_ops)
        else:
            raw, scaled = [], []

            def body(cycle, index, op):
                scale = calibrator.scale()
                latency = runner.timed(op)[0]
                raw.append(latency)
                scaled.append(latency * scale)
                return latency

            cycles, busy = runner.loop(args.seconds, min_ops, body)
            values = end_to_end(scaled, p_tail)
            values["setup_s"] = statistics.median(s for _, s in setup)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                     "op_tail_ms": "ms", "peak_rss_mb": "MB"}
            metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
            wall = end_to_end(raw, p_tail)
            wall["setup_s"] = statistics.median(r for r, _ in setup)
            print(f"cycles {cycles} ops {len(raw)} busy_s {busy:.3f} kernel_samples "
                  f"{len(calibrator.samples)} kernel_median_ms "
                  f"{1000 * statistics.median(calibrator.samples):.4f}")
            print("wall (unscaled) " + json.dumps({k: round(v, 4) for k, v in wall.items()}))
            for key, entry in metrics.items():
                print(f"{key} {entry['value']:.6g} {entry['unit']}")
            print("tail " + json.dumps({"metric": "op_tail_ms", "percentile": 100 * p_tail,
                                        "samples": len(scaled),
                                        "beyond": beyond(len(scaled), p_tail)}))
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    print(f"failed_ratio {runner.failed / max(runner.attempted, 1):.6g} "
          f"({runner.failed}/{runner.attempted})")
    for op, problems in runner.failures.values():
        tag = f"known defect {op.known_defect}" if workloads.explained(op, problems) else "UNEXPECTED"
        print(f"FAILED [{tag}] {op.label} {op.command}: {'; '.join(problems)[:400]}")
    for key in sorted({op.known_defect for op, _ in runner.failures.values()} - {None}):
        print(f"known defect {key}: {workloads.KNOWN_DEFECTS[key][0]}")
    print(json.dumps({
        "correct": runner.unexpected == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


def traced_run(runner, tracing, args, p_tail, min_ops) -> dict:
    """Every op twice, untraced and traced in alternating order. Both runs
    of an op, and the self times of its traced run, take the calibrator's scale
    in effect before it."""
    import numpy

    tracer = tracing.Tracer()
    runner.tracer_modules = tracing.formkit_modules()
    runner.linalg = numpy.linalg
    plain, traced = [], []
    by_command: dict = {}
    totals = {"bytes": 0, "exit2": 0}

    calibrator = runner.calibrator

    def body(cycle, index, op):
        scale = tracer.scale = calibrator.scale()
        used = 0.0
        order = (False, True) if (cycle + index) % 2 == 0 else (True, False)
        for with_trace in order:
            latency, code, size = runner.timed(op, tracer if with_trace else None)
            used += latency
            latency *= scale
            if with_trace:
                traced.append(latency)
                by_command.setdefault(op.command, []).append(latency)
                totals["bytes"] += size
                totals["exit2"] += code == 2
            else:
                plain.append(latency)
        return used

    cycles, _ = runner.loop(args.seconds, min_ops, body)
    values = tracer.metrics(cycles)
    values["cli.report_bytes"] = totals["bytes"] / cycles
    values["cli.exit2"] = totals["exit2"] / cycles
    for command in tracing.COMMANDS:
        samples = by_command.get(command)
        values[f"cli.{command}.p50_ms"] = 1000 * statistics.median(samples) if samples else 0.0
    t = end_to_end(traced, p_tail)
    u = end_to_end(plain, p_tail)
    for key in ("op_p50_ms", "op_tail_ms", "ops_per_s"):
        values[f"trace.overhead.{key}"] = t[key] - u[key]
    WORK.mkdir(exist_ok=True)
    spans = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write_spans(spans)
    print(f"cycles {cycles} traced_ops {len(traced)} spans {len(tracer.spans)} "
          f"-> {spans.relative_to(ROOT)}")
    print(f"kernel_samples {len(calibrator.samples)} kernel_median_ms "
          f"{1000 * statistics.median(calibrator.samples):.4f}")
    print("untraced " + json.dumps({k: round(v, 4) for k, v in u.items()}))
    print("traced   " + json.dumps({k: round(v, 4) for k, v in t.items()}))
    print("wait time: not applicable (no queues or locks in formkit)")
    units = dict(tracing.metric_names())
    for key, unit in units.items():
        print(f"{key} {values[key]:.6g} {unit}")
    return {key: {"value": values[key], "unit": unit} for key, unit in units.items()}


if __name__ == "__main__":
    sys.exit(main())
