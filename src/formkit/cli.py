"""Command-line interface: instance IO, dispatch, and reports.

Instance files are JSON documents with an integer ``n``, an ``omega``
matrix, optional ``theta`` / ``psi`` / ``norm_gram`` matrices, or a
``family`` block that generates the matrices instead. Complex entries are
two-element arrays [re, im]; numbers are emitted with shortest round-trip
decimal encoding so that emit -> parse reproduces them bit for bit.

Exit codes: 0 success, 2 mathematical refusal, 1 IO/parse/validation
problems. A refusal report is the header, every field the command wrote
before it refused, then ``reason`` and ``refused: True``. Identical inputs
and flags produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import hashlib
import json
import sys
from itertools import chain
from pathlib import Path
from typing import Optional

import numpy as np

from . import lebesgue as leb
from . import regularity as reg
from .errors import (
    FormkitError,
    MathematicalRefusal,
    NotInClassM,
    NotPSD,
    NotSolvable,
    ParseError,
    ValidationError,
)
from .forms import Form, PositiveForm, identity_form, quotient_embedding, re_im_split
from .numerics import DEFAULT_RANK_TOL, DEFAULT_RESIDUAL_TOL, finite_norm, frob, min_eig_herm
from .numerics import one_blas_thread, relative, specnorm
from .regularity import canonical_majorant
from .solvable import (
    DEFAULT_HULL_GRID,
    MIN_HULL_GRID,
    NormGram,
    numerical_range_hull,
    scalar_solvability,
    solvability_with,
)
from .trunclab import Instance, _lambda_values, convergence_report, diag_family
from .trunclab import measure_family, operator_pair_family

# Largest instance whose parse and command run on one BLAS thread: up to here
# one thread is no slower, and an OpenBLAS worker left spinning by a
# two-thread call would take the core a hull's pooled share runs on. On two
# cores, perfbench's hull-dense reads about 19 % fewer ops/s when the parse
# pin, the command pin or both are dropped.
ONE_BLAS_THREAD_MAX_N = 256

# ---------------------------------------------------------------------------
# encoding / decoding


def encode_matrix(m: np.ndarray) -> np.ndarray:
    """The [re, im] pairs of a complex array, as a float64 array with a
    trailing axis of length 2: (n, n, 2) for a matrix."""
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), -1)


def _is_number(value) -> bool:
    """A JSON number: an int or a float, but not a bool, which Python counts as an int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _decode_entry(entry, where: str) -> complex:
    if _is_number(entry):
        parts = (entry,)
    elif (
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and all(map(_is_number, entry))
    ):
        parts = entry
    else:
        raise ParseError(f"{where}: entries must be numbers or [re, im] pairs")
    try:
        value = complex(*parts)
    except OverflowError:  # an integer beyond the float range
        value = complex(cmath.inf)
    if not cmath.isfinite(value):
        raise ParseError(f"{where}: entries must be finite")
    return value


def decode_matrix(rows, n: int, where: str) -> np.ndarray:
    if not isinstance(rows, list) or len(rows) != n:
        raise ParseError(f"{where}: expected {n} rows")
    # Whole-array fast path for a square block of finite numbers or of
    # [re, im] pairs. Anything else (strings, booleans, null, ragged or mixed
    # rows, integers beyond 64 bits, NaN or infinite entries) takes the
    # per-entry loop, which names the bad entry. numpy reads a boolean mixed
    # with numbers as 0 or 1, so the leaves' types are checked, in C.
    try:
        block = np.array(rows)
    except (ValueError, OverflowError):
        block = None
    if block is not None and block.dtype.kind in "iuf" and np.isfinite(block).all():
        leaves = chain.from_iterable(rows)
        if block.shape == (n, n, 2) and bool not in set(map(type, chain.from_iterable(leaves))):
            return np.ascontiguousarray(block, dtype=np.float64).view(complex)[..., 0]
        if block.shape == (n, n) and bool not in set(map(type, leaves)):
            return block.astype(complex)
    out = np.zeros((n, n), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise ParseError(f"{where}: row {i} must have exactly {n} entries")
        for j, entry in enumerate(row):
            out[i, j] = _decode_entry(entry, f"{where}[{i}][{j}]")
    return out


def _positive(mat: np.ndarray, name: str, tol: float) -> PositiveForm:
    try:
        return PositiveForm(finite_norm(mat, name), tol=tol)
    except NotPSD as exc:
        raise ValidationError(f"{name} is not positive semidefinite: {exc}") from exc


def _family_name(block) -> str:
    if not isinstance(block, dict) or "name" not in block:
        raise ParseError("family block must be an object with a 'name'")
    return block["name"]


def _family_instance(block: dict) -> Instance:
    name = _family_name(block)
    if name == "diag":
        if "N" not in block or "lambda" not in block:
            raise ParseError("diag family needs 'lambda' and 'N'")
        size = block["N"]
        if type(size) is not int or size < 1:  # bool is an int, but not a size
            raise ParseError("family.N must be a positive integer")
        values = _lambda_values(block["lambda"], size)
        return diag_family(values, provenance=f"diag[N={size}]")
    if name == "measure":
        if "theta" not in block or "omega" not in block:
            raise ParseError("measure family needs 'theta' and 'omega'")
        for key in ("theta", "omega"):
            if not isinstance(block[key], list):
                raise ParseError(f"family.{key} must be a list")
        if not all(map(_is_number, block["theta"])):
            raise ParseError("family.theta: entries must be real numbers")
        try:
            th = [float(x) for x in block["theta"]]
        except OverflowError:  # an integer beyond the float range
            th = [np.inf]
        if not np.isfinite(th).all():
            raise ParseError("family.theta: entries must be finite")
        om = [_decode_entry(e, "family.omega") for e in block["omega"]]
        if len(th) != len(om):
            raise ParseError("measure family weights must have equal length")
        return measure_family(th, om, provenance=f"measure[m={len(th)}]")
    if name == "operator_pair":
        if "S" not in block or "T" not in block:
            raise ParseError("operator_pair family needs 'S' and 'T'")
        s_rows = block["S"]
        n = len(s_rows) if isinstance(s_rows, list) else 0
        if n < 1:
            raise ParseError("family.S must be a nonempty square matrix")
        s = decode_matrix(block["S"], n, "family.S")
        t = decode_matrix(block["T"], n, "family.T")
        return operator_pair_family(s, t, provenance=f"operator_pair[n={n}]")
    raise ParseError(f"unknown family name {name!r}")


def _load_json(path):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")


def parse_instance(path, rank_tol: float = DEFAULT_RANK_TOL) -> Instance:
    """Load and validate an instance document.

    Raises:
        ParseError: on malformed JSON or wrong shapes (with location).
        ValidationError: on violated invariants (named).
    """
    doc = _load_json(path)
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")

    norm_gram = None
    if "family" in doc:
        instance = _family_instance(doc["family"])
        if "norm_gram" in doc:
            norm_gram = decode_matrix(doc["norm_gram"], instance.dim, "norm_gram")
    else:
        if "n" not in doc or "omega" not in doc:
            raise ParseError(f"{path}: 'n' and 'omega' are required without a family block")
        n = doc["n"]
        if type(n) is not int or n < 1:
            raise ParseError(f"{path}: 'n' must be a positive integer")
        omega = Form(decode_matrix(doc["omega"], n, "omega"))
        with one_blas_thread(n <= ONE_BLAS_THREAD_MAX_N):
            if "theta" in doc:
                theta = _positive(decode_matrix(doc["theta"], n, "theta"), "theta", rank_tol)
            else:
                theta = identity_form(n)
            if "psi" in doc:
                psi = _positive(decode_matrix(doc["psi"], n, "psi"), "psi", rank_tol)
            else:
                psi = canonical_majorant(omega.matrix, rank_tol)
        # after the majorant, which refuses such an omega in its own words
        finite_norm(omega.matrix, "omega")
        if "norm_gram" in doc:
            norm_gram = decode_matrix(doc["norm_gram"], n, "norm_gram")
        instance = Instance(
            omega=omega,
            theta=theta,
            psi=psi,
            provenance=str(doc.get("label", Path(path).name)),
            check_membership=False,
        )
    if norm_gram is not None:
        instance.extras["norm_gram"] = finite_norm(norm_gram, "norm_gram")
    return instance


def _instance_matrices(instance: Instance) -> dict:
    """The matrices an instance document holds, by key, in document order."""
    matrices = {
        "omega": instance.omega.matrix,
        "theta": instance.theta.matrix,
        "psi": instance.psi.matrix,
    }
    if "norm_gram" in instance.extras:
        matrices["norm_gram"] = instance.extras["norm_gram"]
    return matrices


def emit_instance(instance: Instance) -> str:
    """Round-trip encoding of an instance as a JSON document."""
    doc = {key: encode_matrix(m) for key, m in _instance_matrices(instance).items()}
    doc.update(n=instance.dim, label=instance.provenance)
    return _dump(doc, 0)


def instance_sha256(instance: Instance) -> str:
    """SHA-256 of the little-endian complex128 bytes of omega, theta, psi and,
    when present, norm_gram, in that order: the instance's provenance, equal
    for an instance and its ``emit_instance`` round trip."""
    digest = hashlib.sha256()
    for m in _instance_matrices(instance).values():
        digest.update(np.ascontiguousarray(m, dtype="<c16"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# reports


def _render(value, indent: str = "") -> list[str]:
    lines = []
    if isinstance(value, dict):
        for key in value:
            sub = value[key]
            if isinstance(sub, np.ndarray):
                if sub.dtype == np.float64 and sub.ndim and sub.size:
                    lines.extend(_render_array(key, sub, indent))
                    continue
                sub = sub.tolist()
            if isinstance(sub, (dict, list)) and not _is_scalar_list(sub):
                lines.append(f"{indent}{key}:")
                lines.extend(_render(sub, indent + "  "))
            else:
                lines.append(f"{indent}{key}: {_scalar(sub)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)) and not _is_scalar_list(item):
                lines.append(f"{indent}-")
                lines.extend(_render(item, indent + "  "))
            else:
                lines.append(f"{indent}- {_scalar(item)}")
    else:
        lines.append(f"{indent}{_scalar(value)}")
    return lines


def _render_array(key, array: np.ndarray, indent: str) -> list[str]:
    """The lines ``_render`` gives a float64 array's ``tolist()``, a whole
    row at a time: one ``repr`` map over the entries and one join per row of
    the innermost axis, which is written inline; each outer axis is a "-" list."""
    reprs = map(float.__repr__, array.ravel().tolist())
    rows = ["[" + ", ".join(row) + "]" for row in zip(*[reprs] * array.shape[-1])]
    if array.ndim == 1:
        return [f"{indent}{key}: {rows[0]}"]
    lines = [f"{indent}{key}:"]
    _render_rows(rows, array.shape[:-1], indent + "  ", lines)
    return lines


def _render_rows(rows: list, shape: tuple, indent: str, lines: list) -> None:
    if len(shape) == 1:
        lines.extend([f"{indent}- {row}" for row in rows])
        return
    step = len(rows) // shape[0]
    for start in range(0, len(rows), step):
        lines.append(f"{indent}-")
        _render_rows(rows[start : start + step], shape[1:], indent + "  ", lines)


def _is_scalar_list(value) -> bool:
    return isinstance(value, list) and all(
        isinstance(x, (int, float, str, bool)) or x is None for x in value
    )


def _scalar(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return "[" + ", ".join(_scalar(x) for x in value) + "]"
    return str(value)


def _dump(value, depth: int) -> str:
    """``json.dumps(value, sort_keys=True, indent=1)`` at indent level ``depth``.

    Besides JSON types (with str keys) it takes tuples, complex numbers (as
    [re, im]), numpy scalars and arrays. A finite float64 array is written a
    whole axis at a time; every other value goes through the per-element path.
    """
    if isinstance(value, np.ndarray):
        if value.dtype == np.float64 and value.size and np.isfinite(value).all():
            return _dump_array(value, depth)
        value = value.tolist()
    elif isinstance(value, np.generic):
        value = value.item()
    if value is None or isinstance(value, (str, int, float)):
        return json.dumps(value)
    if isinstance(value, complex):
        value = [value.real, value.imag]
    pad = "\n" + " " * (depth + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f"{json.dumps(key)}: {_dump(value[key], depth + 1)}" for key in sorted(value)]
        return "{" + pad + ("," + pad).join(items) + "\n" + " " * depth + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_dump(item, depth + 1) for item in value]
        return "[" + pad + ("," + pad).join(items) + "\n" + " " * depth + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dump_array(array: np.ndarray, depth: int) -> str:
    """Write a finite float64 array: its layout filled with one ``repr`` per entry."""
    return _array_layout(array.shape, depth) % tuple(map(float.__repr__, array.ravel().tolist()))


# Distinct (shape, depth) layouts kept. An (n, n, 2) layout takes about
# 26 n^2 bytes: 105 KB at n = 64, so the cache holds under 2 MB there.
LAYOUT_CACHE_SIZE = 16


@functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _array_layout(shape: tuple, depth: int) -> str:
    """The text of a nonempty array of ``shape`` at indent level ``depth``,
    with a ``%s`` for each entry. Every row of an axis is the same text, so
    it is built from the innermost axis outwards by one join per axis."""
    text = "%s"
    for axis in range(len(shape) - 1, -1, -1):
        pad = "\n" + " " * (depth + axis + 1)
        text = "[" + pad + ("," + pad).join([text] * shape[axis]) + pad[:-1] + "]"
    return text


def render_report(report: dict, as_json: bool) -> str:
    if as_json:
        return _dump(report, 0)
    return "\n".join(_render(report))


# ---------------------------------------------------------------------------
# commands: each writes its fields into the report it is given


def _base_report(command: str, instance: Optional[Instance], args) -> dict:
    """The report header; the lab command has no single instance."""
    report = {"command": command}
    if instance is not None:
        report.update(instance=instance.provenance, n=instance.dim)
    report["tolerances"] = {
        "rank": float(args.tol_rank),
        "residual": float(args.tol_residual),
    }
    return report


def _margin(value: float):
    """A membership margin as reported: null for the -inf of a kernel
    obstruction, which strict JSON cannot hold."""
    return None if value == float("-inf") else float(value)


def _cmd_inspect(instance: Instance, args, report: dict) -> None:
    omega, theta, psi = instance.omega, instance.theta, instance.psi
    member, margin = reg.in_class_M(omega, psi, args.tol_rank)
    re, im = re_im_split(omega)
    report.update(
        {
            "omega_symmetric": omega.is_symmetric(),
            "omega_real_part_extremes": [
                min_eig_herm(re.matrix),
                -min_eig_herm(-re.matrix) + 0.0,
            ],
            "omega_imag_part_extremes": [
                min_eig_herm(im.matrix),
                -min_eig_herm(-im.matrix) + 0.0,
            ],
            "theta_rank": quotient_embedding(theta, args.tol_rank).rank,
            "psi_rank": quotient_embedding(psi, args.tol_rank).rank,
            "psi_majorizes_omega": bool(member),
            "membership_margin": _margin(margin),
            "instance_sha256": instance_sha256(instance),
        }
    )


def _cmd_membership(instance: Instance, args, report: dict) -> None:
    member, margin = reg.in_class_M(instance.omega, instance.psi, args.tol_rank)
    report["member"] = bool(member)
    report["margin"] = _margin(margin)
    try:
        eps = reg.epsilon_bound_check(instance.omega, instance.psi, args.tol_rank)
        report["quadratic_bound"] = {
            "holds": True,
            "epsilon": eps.epsilon,
            "quadratic_norm": eps.quadratic_norm,
            "scaled_member": bool(eps.member),
            "scaled_margin": _margin(eps.margin),
        }
    except FormkitError as exc:
        report["quadratic_bound"] = {"holds": False, "reason": str(exc)}
    if not member:
        raise NotInClassM("psi does not majorize omega")


def _cmd_regularity(instance: Instance, args, report: dict) -> None:
    ac = reg.is_absolutely_continuous(instance.psi, instance.theta, args.tol_rank)
    report["psi_absolutely_continuous"] = bool(ac)
    report["note"] = (
        "closability is automatic at finite dimension; the kernel inclusion decides"
    )
    report["regular"] = False
    rep = reg.radon_nikodym(instance.omega, instance.theta, instance.psi, args.tol_rank)
    residuals = reg.representation_residuals(rep, instance.omega, instance.psi)
    report["regular"] = True
    report["residuals"] = residuals
    report["residuals_within_tolerance"] = bool(
        max(residuals.values()) <= args.tol_residual
    )
    report["majorant_absolutely_continuous"] = bool(
        reg.is_absolutely_continuous(rep.majorant, instance.theta, args.tol_rank)
    )


def _cmd_represent(instance: Instance, args, report: dict) -> None:
    rep = reg.radon_nikodym(instance.omega, instance.theta, instance.psi, args.tol_rank)
    middle = reg.kato_S(rep)
    residuals = reg.representation_residuals(rep, instance.omega, instance.psi)
    scale = rep.core.scale
    kato_matrix = rep.core.theta_embedding.from_quotient(scale @ middle @ scale)
    kato_residual = relative(frob(kato_matrix - instance.omega.matrix), frob(instance.omega.matrix))
    report.update(
        {
            "H": encode_matrix(scale),
            "Y": encode_matrix(rep.factor),
            "S": encode_matrix(middle),
            "S_norm": specnorm(middle),
            "residuals": residuals,
            "kato_residual": float(kato_residual),
        }
    )


def _cmd_decompose(instance: Instance, args, report: dict) -> None:
    split = leb.lebesgue_decompose(instance.omega, instance.theta, instance.psi, args.tol_rank)
    recombined = split.regular.matrix + split.singular.matrix
    additivity = relative(frob(recombined - instance.omega.matrix), frob(instance.omega.matrix))
    _, worst_theta, worst_sing = leb.singularity_witness(split, instance.theta, np.eye(instance.dim))
    majorant = split.rep.majorant
    cert_member, cert_margin = reg.in_class_M(split.regular, majorant, args.tol_rank)
    report.update(
        {
            "omega_r": encode_matrix(split.regular.matrix),
            "omega_s": encode_matrix(split.singular.matrix),
            "additivity_residual": float(additivity),
            "witness_theta_residual_max": worst_theta,
            "witness_singular_residual_max": worst_sing,
            "witness_within_tolerance": bool(
                max(worst_theta, worst_sing) <= args.tol_residual
            ),
            "regular_certificate": {
                "majorant_member": bool(cert_member),
                "margin": _margin(cert_margin),
                "absolutely_continuous": bool(
                    reg.is_absolutely_continuous(majorant, instance.theta, args.tol_rank)
                ),
            },
        }
    )


def _cmd_numrange(instance: Instance, args, report: dict) -> None:
    hull = numerical_range_hull(instance.omega, args.grid)
    eigenvalues = np.linalg.eigvals(instance.omega.matrix)
    inclusion = np.max(hull.distance(eigenvalues), initial=0.0)
    report.update(
        {
            "grid": int(args.grid),
            "support": hull.support,
            "points": encode_matrix(hull.points),
            "hull_area": hull.area(),
            "eigenvalue_inclusion_excess": float(inclusion),
        }
    )


def _cmd_solvable(instance: Instance, args, report: dict) -> None:
    if args.lam is not None and args.upsilon is not None:
        raise ValidationError("give either --lambda or --upsilon, not both")
    gram_mat = instance.extras.get("norm_gram")
    if gram_mat is None:
        report["norm_gram"] = "identity + psi (default)"
        gram = NormGram(np.eye(instance.dim, dtype=complex) + instance.psi.matrix)
    else:
        report["norm_gram"] = "from instance file"
        gram = NormGram(gram_mat)
    if args.lam is not None:
        lam = _parse_lambda(args.lam)
        result = scalar_solvability(instance.omega, gram, lam, rtol=args.tol_rank)
        report.update(
            {"lambda": [lam.real, lam.imag], "status": result.status, "distance": result.distance}
        )
    else:
        upsilon = np.zeros((instance.dim, instance.dim), dtype=complex)
        if args.upsilon is not None:
            try:
                rows = json.loads(args.upsilon)
            except json.JSONDecodeError as exc:
                raise ParseError(f"--upsilon: {exc.msg}")
            upsilon = decode_matrix(rows, instance.dim, "--upsilon")
        result = solvability_with(instance.omega, gram, Form(upsilon), args.tol_rank)
    report.update(solvable=bool(result.solvable), c1=result.c1, c2=result.c2)
    if args.lam is not None:
        report["note"] = (
            "norm-compatibility and the closing condition are automatic at finite dimension"
        )
    if not result.solvable:
        raise NotSolvable("perturbed form is not solvable")
    if result.lam is not None:
        report["resolvent_norm"] = result.resolvent_norm


def _cmd_lab(path: str, args, report: dict) -> None:
    doc = _load_json(path)
    doc_family = doc.get("family") if isinstance(doc, dict) else None
    if doc_family is None:
        raise ValidationError("the lab command needs an instance file with a family block")
    try:
        sizes = [8, 16, 32, 64] if args.sizes is None else [int(x) for x in args.sizes.split(",")]
    except ValueError:
        sizes = [0]
    if min(sizes) < 1:
        raise ValidationError("--sizes expects comma-separated positive integers")
    rows = convergence_report(_family_name(doc_family), doc_family, sizes, rtol=args.tol_rank)
    report["rows"] = [
        {**row, "probe": [row["probe"].real, row["probe"].imag]} for row in rows
    ]


def _parse_lambda(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError("--lambda expects 're,im'")
    try:
        lam = complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ValidationError("--lambda expects two real numbers 're,im'")
    if not cmath.isfinite(lam):
        raise ValidationError(f"--lambda must be finite, got {text!r}")
    return lam


# every command, in the order the parser lists them; ``lab`` takes the
# instance path, which it reads itself, and every other command the instance
COMMANDS = {
    "inspect": _cmd_inspect,
    "membership": _cmd_membership,
    "regularity": _cmd_regularity,
    "represent": _cmd_represent,
    "decompose": _cmd_decompose,
    "numrange": _cmd_numrange,
    "solvable": _cmd_solvable,
    "lab": _cmd_lab,
}


# ---------------------------------------------------------------------------
# driver


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="formkit",
        description="Exact finite-dimensional calculus for sesquilinear forms.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("instance", help="instance file, or a directory with --batch")
    parser.add_argument("--json", action="store_true", help="structured output")
    parser.add_argument("--tol-rank", type=float, default=DEFAULT_RANK_TOL)
    parser.add_argument("--tol-residual", type=float, default=DEFAULT_RESIDUAL_TOL)
    parser.add_argument("--grid", type=int, default=DEFAULT_HULL_GRID)
    parser.add_argument("--lambda", dest="lam", default=None, help="scalar shift 're,im'")
    parser.add_argument("--upsilon", default=None, help="perturbation matrix as JSON")
    parser.add_argument("--sizes", default=None, help="comma-separated sizes for lab")
    parser.add_argument("--batch", action="store_true", help="process a directory of instances")
    return parser


def _run_single(path: str, args) -> tuple[str, int]:
    """One file's report and exit code. The report is the header plus what
    the command writes; a refusal appends its ``reason`` and ``refused``."""
    instance = None if args.command == "lab" else parse_instance(path, args.tol_rank)
    report = _base_report(args.command, instance, args)
    code = 0
    try:
        with one_blas_thread(instance is not None and instance.dim <= ONE_BLAS_THREAD_MAX_N):
            COMMANDS[args.command](path if instance is None else instance, args, report)
    except MathematicalRefusal as exc:
        report.update(reason=str(exc), refused=True)
        code = 2
    return render_report(report, args.json), code


# errors that end one file's run with exit 1: bad input, an unreadable file,
# a failed internal check, a LAPACK breakdown on extreme entries, or an
# instance too large to allocate
_INPUT_ERRORS = (FormkitError, OSError, np.linalg.LinAlgError, MemoryError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.grid < MIN_HULL_GRID:
            raise ValidationError(f"--grid must be at least {MIN_HULL_GRID}, got {args.grid}")
        # a relative rank cut of 1 or more cuts every rank
        if not 0.0 <= args.tol_rank < 1.0:
            raise ValidationError(f"--tol-rank must be in [0, 1), got {args.tol_rank}")
        if not 0.0 <= args.tol_residual < np.inf:
            raise ValidationError(f"--tol-residual must be in [0, inf), got {args.tol_residual}")
        if args.batch:
            target = Path(args.instance)
            if not target.is_dir():
                raise ValidationError(f"--batch expects a directory, got {target}")
            code = 0
            chunks = []
            for path in sorted(target.glob("*.json")):
                try:
                    text, one = _run_single(str(path), args)
                except _INPUT_ERRORS as exc:
                    # one bad file or failed internal check gets an error chunk;
                    # the others still run
                    text, one = f"error: {exc}", 1
                chunks.append(f"== {path.name}\n{text}")
                code = max(code, one)
            print("\n".join(chunks))
            return code
        text, code = _run_single(args.instance, args)
        print(text)
        return code
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
