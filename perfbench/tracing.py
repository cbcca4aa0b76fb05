"""Per-layer tracing from outside the package.

The tracer replaces each listed public function at every ``formkit.*``
module attribute that binds it (functions imported by name are bound in
several modules), the listed classes' constructors and methods on the class,
and the ``numpy.linalg`` entry points formkit uses. Wrappers are installed
only around a traced op and removed right after it, so untraced ops and the
benchmark's own checks run the unmodified code.

Each call becomes a span (name, start, end, parent, op id) kept in memory.
Self time is a span's duration minus the durations of its direct children;
calls are synchronous, so children never overlap. Nothing in formkit waits
on a queue or a lock, so no wait time is recorded.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = {
    "cli": ("parse_instance", "render_report", "main"),
    "numerics": ("hermitian_eig", "psd_sqrt", "pinv"),
    "forms": (
        "PositiveForm",
        "quotient_embedding",
        "kernel",
        "QuotientEmbedding.to_quotient",
        "QuotientEmbedding.from_quotient",
    ),
    "regularity": (
        "in_class_M",
        "epsilon_bound_check",
        "is_absolutely_continuous",
        "canonical_majorant",
        "radon_nikodym",
        "representation_residuals",
        "kato_S",
        "sectorial_parameters",
    ),
    "lebesgue": (
        "lebesgue_decompose",
        "singularity_witness",
        "regular_part_majorant",
        "positive_lebesgue",
        "parallel_sum_limit",
    ),
    "solvable": (
        "numerical_range_hull",
        "numerical_radius",
        "NormGram",
        "solvability_with",
        "scalar_solvability",
        "represent_operator",
    ),
    "trunclab": ("convergence_report", "diag_family", "measure_family", "operator_pair_family"),
}

CONSTRUCTORS = {"PositiveForm", "NormGram"}
LAPACK = ("eigh", "eigvalsh", "svd", "norm")
COMMANDS = ("inspect", "membership", "regularity", "represent", "decompose",
            "numrange", "solvable", "lab")
# private helpers wrapped only to count work, without a span of their own
COUNTED = {("regularity", "_sector_margins"), ("lebesgue", "_parallel_sum_matrix")}


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric with its unit, in report order."""
    out = []
    for layer, names in LAYERS.items():
        for name in names:
            out.append((f"{layer}.{name}.calls", "count/cycle"))
            out.append((f"{layer}.{name}.self_s", "s/cycle"))
    out += [("cli.report_bytes", "B/cycle"), ("cli.exit2", "count/cycle")]
    out += [(f"cli.{c}.p50_ms", "ms") for c in COMMANDS]
    out += [
        ("numerics.lapack.calls", "count/cycle"),
        ("numerics.lapack.self_s", "s/cycle"),
        ("numerics.lapack.n3", "n3/cycle"),
        ("regularity.sector.grid_points", "count/cycle"),
        ("regularity.sector.yield", "ratio"),
        ("lebesgue.parallel_sum_limit.doublings", "count/cycle"),
        ("solvable.hull.angles", "count/cycle"),
        ("solvable.hull.bytes_computed", "B/cycle"),
        ("solvable.hull.vectors_used_ratio", "ratio"),
        ("regularity.refusals", "count/cycle"),
        ("lebesgue.refusals", "count/cycle"),
        ("solvable.refusals", "count/cycle"),
        ("trace.spans", "count/cycle"),
        ("trace.overhead.op_p50_ms", "ms"),
        ("trace.overhead.op_tail_ms", "ms"),
        ("trace.overhead.ops_per_s", "1/s"),
    ]
    return out


def _n3(shape) -> int:
    """Σn³ of a (possibly stacked) decomposition: batch · a · b · min(a, b)."""
    batch = 1
    for d in shape[:-2]:
        batch *= int(d)
    a, b = int(shape[-2]), int(shape[-1])
    return batch * a * b * min(a, b)


class _Frame:
    __slots__ = ("index", "name", "layer", "child", "search")

    def __init__(self, index, name, layer):
        self.index, self.name, self.layer = index, name, layer
        self.child = 0.0
        self.search = False


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[_Frame] = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.count = defaultdict(float)
        self.op_id = 0
        self.scale = 1.0  # multiplies self times; set before each op
        self.refusal = Exception  # replaced by formkit's MathematicalRefusal
        self._items: list = []    # (owner, attribute, original, wrapper)

    # -- spans --------------------------------------------------------------

    def call(self, name, layer, fn, args, kwargs):
        parent = self.stack[-1] if self.stack else None
        frame = _Frame(len(self.spans), name, layer)
        self.spans.append(None)
        self.stack.append(frame)
        self._enter(frame, args, kwargs)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except self.refusal:
            if parent is None or parent.layer != layer:
                self.count[f"{layer}.refusals"] += 1
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - start
            self.spans[frame.index] = (
                name, start, end, parent.index if parent else None, self.op_id
            )
            self.calls[name] += 1
            self.self_s[name] += (duration - frame.child) * self.scale
            if parent is not None:
                parent.child += duration
        self._leave(frame, result)
        return result

    def _enter(self, frame, args, kwargs):
        if frame.name == "regularity.sectorial_parameters":
            delta = args[2] if len(args) > 2 else kwargs.get("delta")
            frame.search = delta is None
        elif frame.name == "lebesgue.parallel_sum_limit":
            self.count["lebesgue.parallel_sum_limit.doublings"] -= 1

    def _leave(self, frame, result):
        if frame.name == "regularity.sectorial_parameters" and frame.search:
            self.count["sector.certificates"] += 1
        elif frame.name == "solvable.numerical_range_hull":
            self.count["solvable.hull.angles"] += len(getattr(result, "angles", ()))
            self.count["hull.points"] += len(getattr(result, "points", ()))

    def counted(self, name, fn, args, kwargs):
        top = self.stack[-1].name if self.stack else None
        if name == "_sector_margins":
            if top == "regularity.sectorial_parameters" and self.stack[-1].search:
                self.count["regularity.sector.grid_points"] += 1
        elif top == "lebesgue.parallel_sum_limit":
            self.count["lebesgue.parallel_sum_limit.doublings"] += 1
        return fn(*args, **kwargs)

    def lapack(self, name, fn, args, kwargs):
        shape = getattr(args[0], "shape", ())
        if name == "norm":
            order = args[1] if len(args) > 1 else kwargs.get("ord")
            if order != 2 or len(shape) < 2:
                return fn(*args, **kwargs)  # no SVD behind it
        if len(shape) >= 2:
            self.count["numerics.lapack.n3"] += _n3(shape)
            if any(f.name == "solvable.numerical_range_hull" for f in self.stack):
                if len(shape) >= 3:
                    # computed, not measured: m·n²·16 bytes per stacked complex
                    # array passed in, plus the eigenvector stack eigh returns
                    stacked = 16 * _n3(shape) // min(shape[-2:])
                    self.count["solvable.hull.bytes_computed"] += stacked * (2 if name == "eigh" else 1)
                if name == "eigh":
                    self.count["hull.vectors"] += _n3(shape) // (shape[-1] * shape[-1])
        return self.call("numerics.lapack", "numerics", fn, args, kwargs)

    # -- installation -------------------------------------------------------

    def install(self, formkit_modules, linalg):
        """Wrap every target; ``uninstall`` puts the originals back."""
        self.refusal = formkit_modules["formkit.errors"].MathematicalRefusal
        if not self._items:
            self._items = self._build(formkit_modules, linalg)
        for owner, attr, _, wrapper in self._items:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._items:
            setattr(owner, attr, original)

    def _build(self, modules, linalg):
        items = []
        tracer = self

        def span_wrapper(fn, name, layer):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return tracer.call(name, layer, fn, args, kwargs)
            return wrapper

        for layer, names in LAYERS.items():
            home = modules.get(f"formkit.{layer}")
            if home is None:
                continue
            for name in names:
                cls_name, _, method = name.partition(".")
                target = getattr(home, cls_name, None)
                if target is None:
                    continue  # removed from the package: reported as zero calls
                full = f"{layer}.{name}"
                if method or cls_name in CONSTRUCTORS:
                    attr = method or "__init__"
                    original = target.__dict__.get(attr)
                    if original is not None:
                        items.append((target, attr, original, span_wrapper(original, full, layer)))
                    continue
                wrapper = span_wrapper(target, full, layer)
                for module in modules.values():
                    for attr, value in list(vars(module).items()):
                        if value is target:
                            items.append((module, attr, target, wrapper))

        for layer, name in COUNTED:
            home = modules.get(f"formkit.{layer}")
            original = getattr(home, name, None)
            if original is None:
                continue

            def counter(*args, _fn=original, _name=name, **kwargs):
                return tracer.counted(_name, _fn, args, kwargs)

            for module in modules.values():
                for attr, value in list(vars(module).items()):
                    if value is original:
                        items.append((module, attr, original, counter))

        for name in LAPACK:
            original = getattr(linalg, name)

            def lapack_wrapper(*args, _fn=original, _name=name, **kwargs):
                return tracer.lapack(_name, _fn, args, kwargs)

            items.append((linalg, name, original, lapack_wrapper))
        return items

    # -- results ------------------------------------------------------------

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def metrics(self, cycles: int) -> dict:
        """Per-cycle counts and (scaled) self times."""
        per = 1.0 / max(cycles, 1)
        out = {}
        for layer, names in LAYERS.items():
            for name in names:
                full = f"{layer}.{name}"
                out[f"{full}.calls"] = self.calls[full] * per
                out[f"{full}.self_s"] = self.self_s[full] * per
        out["numerics.lapack.calls"] = self.calls["numerics.lapack"] * per
        out["numerics.lapack.self_s"] = self.self_s["numerics.lapack"] * per
        for key in ("numerics.lapack.n3", "regularity.sector.grid_points",
                    "lebesgue.parallel_sum_limit.doublings", "solvable.hull.angles",
                    "solvable.hull.bytes_computed", "regularity.refusals",
                    "lebesgue.refusals", "solvable.refusals"):
            out[key] = self.count[key] * per
        points = self.count["regularity.sector.grid_points"]
        out["regularity.sector.yield"] = self.count["sector.certificates"] / points if points else 0.0
        vectors = self.count["hull.vectors"]
        out["solvable.hull.vectors_used_ratio"] = self.count["hull.points"] / vectors if vectors else 0.0
        out["trace.spans"] = len(self.spans) * per
        return out


def formkit_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "formkit" or name.startswith("formkit.")}
