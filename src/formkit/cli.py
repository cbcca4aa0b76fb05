"""Command-line interface: instance IO, dispatch, and reports.

Instance files are JSON documents with an integer ``n``, an ``omega``
matrix, optional ``theta`` / ``psi`` / ``norm_gram`` matrices, or a
``family`` block that generates the matrices instead. Complex entries are
two-element arrays [re, im]; numbers are emitted with shortest round-trip
decimal encoding so that emit -> parse reproduces them bit for bit.

Exit codes: 0 success, 2 mathematical refusal, 1 IO/parse/validation
problems. Identical inputs and flags produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import lebesgue as leb
from . import regularity as reg
from .errors import (
    FormkitError,
    MathematicalRefusal,
    NotPSD,
    ParseError,
    ValidationError,
)
from .forms import Form, PositiveForm, identity_form, re_im_split
from .numerics import DEFAULT_RANK_TOL, frob, min_eig_herm, rank_cut
from .regularity import canonical_majorant
from .solvable import (
    DEFAULT_HULL_GRID,
    MIN_HULL_GRID,
    NormGram,
    numerical_range_hull,
    represent_operator,
    scalar_solvability,
    solvability_with,
)
from .trunclab import Instance, _lambda_values, convergence_report, diag_family
from .trunclab import measure_family, operator_pair_family

COMMANDS = (
    "inspect",
    "membership",
    "regularity",
    "represent",
    "decompose",
    "numrange",
    "solvable",
    "lab",
)

DEFAULT_RESIDUAL_TOL = 1e-8


# ---------------------------------------------------------------------------
# encoding / decoding


def encode_matrix(m: np.ndarray) -> np.ndarray:
    """The [re, im] pairs of a complex array, as a float64 array with a
    trailing axis of length 2: (n, n, 2) for a matrix."""
    m = np.asarray(m, dtype=complex)
    return np.stack((m.real, m.imag), -1)


def _decode_entry(entry, where: str) -> complex:
    if isinstance(entry, (int, float)):
        parts = (entry,)
    elif (
        isinstance(entry, (list, tuple))
        and len(entry) == 2
        and all(isinstance(x, (int, float)) for x in entry)
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
    # [re, im] pairs. Anything else (strings, null, ragged or mixed rows,
    # integers beyond 64 bits, NaN or infinite entries) takes the per-entry
    # loop, which names the bad entry.
    try:
        block = np.array(rows)
    except (ValueError, OverflowError):
        block = None
    if block is not None and block.dtype.kind in "biuf" and np.isfinite(block).all():
        if block.shape == (n, n, 2):
            return np.ascontiguousarray(block, dtype=np.float64).view(complex)[..., 0]
        if block.shape == (n, n):
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
        return PositiveForm(mat, tol=tol)
    except NotPSD as exc:
        raise ValidationError(f"{name} is not positive semidefinite: {exc}") from exc


def _family_instance(block: dict) -> Instance:
    if not isinstance(block, dict) or "name" not in block:
        raise ParseError("family block must be an object with a 'name'")
    name = block["name"]
    if name == "diag":
        if "N" not in block or "lambda" not in block:
            raise ParseError("diag family needs 'lambda' and 'N'")
        size = int(block["N"])
        if size < 1:
            raise ValidationError("diag family needs N >= 1")
        values = _lambda_values(block["lambda"], size)
        return diag_family(values, provenance=f"diag[N={size}]")
    if name == "measure":
        if "theta" not in block or "omega" not in block:
            raise ParseError("measure family needs 'theta' and 'omega'")
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
    raise ParseError(f"unknown family name {block['name']!r}")


def parse_instance(path, rank_tol: float = DEFAULT_RANK_TOL) -> Instance:
    """Load and validate an instance document.

    Raises:
        ParseError: on malformed JSON or wrong shapes (with location).
        ValidationError: on violated invariants (named).
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
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
        if not isinstance(n, int) or n < 1:
            raise ParseError(f"{path}: 'n' must be a positive integer")
        omega = Form(decode_matrix(doc["omega"], n, "omega"))
        if "theta" in doc:
            theta = _positive(decode_matrix(doc["theta"], n, "theta"), "theta", rank_tol)
        else:
            theta = identity_form(n)
        if "psi" in doc:
            psi = _positive(decode_matrix(doc["psi"], n, "psi"), "psi", rank_tol)
        else:
            psi = canonical_majorant(omega.matrix, rank_tol)
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
        instance.extras["norm_gram"] = norm_gram
    return instance


def _instance_doc(instance: Instance) -> dict:
    doc = {
        "n": instance.dim,
        "omega": encode_matrix(instance.omega.matrix),
        "theta": encode_matrix(instance.theta.matrix),
        "psi": encode_matrix(instance.psi.matrix),
        "label": instance.provenance,
    }
    if "norm_gram" in instance.extras:
        doc["norm_gram"] = encode_matrix(instance.extras["norm_gram"])
    return doc


def emit_instance(instance: Instance) -> str:
    """Round-trip encoding of an instance as a JSON document."""
    return _dump(_instance_doc(instance), 0)


# ---------------------------------------------------------------------------
# reports


def _render(value, indent: str = "") -> list[str]:
    lines = []
    if isinstance(value, dict):
        for key in value:
            sub = value[key]
            if isinstance(sub, np.ndarray):
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
    """Write a finite float64 array from the innermost axis outwards: one
    ``repr`` per entry, then one join per row of each axis."""
    parts = list(map(float.__repr__, array.ravel().tolist()))
    for axis in range(array.ndim - 1, -1, -1):
        pad = "\n" + " " * (depth + axis + 1)
        close = "\n" + " " * (depth + axis) + "]"
        width = array.shape[axis]
        parts = [
            "[" + pad + ("," + pad).join(parts[k : k + width]) + close
            for k in range(0, len(parts), width)
        ]
    return parts[0]


def render_report(report: dict, as_json: bool) -> str:
    if as_json:
        return _dump(report, 0)
    return "\n".join(_render(report))


# ---------------------------------------------------------------------------
# commands


def _base_report(command: str, instance: Instance, args) -> dict:
    return {
        "command": command,
        "instance": instance.provenance,
        "n": instance.dim,
        "tolerances": {
            "rank": float(args.tol_rank),
            "residual": float(args.tol_residual),
        },
    }


def _cmd_inspect(instance: Instance, args) -> dict:
    report = _base_report("inspect", instance, args)
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
            "theta_rank": int(np.sum(rank_cut(theta.eig.values, args.tol_rank))),
            "psi_rank": int(np.sum(rank_cut(psi.eig.values, args.tol_rank))),
            "psi_majorizes_omega": bool(member),
            "membership_margin": None if margin == float("-inf") else float(margin),
            # sorted like the JSON document, which fixes the text order
            "instance_document": dict(sorted(_instance_doc(instance).items())),
        }
    )
    return report


def _cmd_membership(instance: Instance, args) -> dict:
    report = _base_report("membership", instance, args)
    member, margin = reg.in_class_M(instance.omega, instance.psi, args.tol_rank)
    report["member"] = bool(member)
    report["margin"] = None if margin == float("-inf") else float(margin)
    try:
        eps = reg.epsilon_bound_check(
            instance.omega, instance.psi, args.tol_rank, args.grid
        )
        report["quadratic_bound"] = {
            "holds": True,
            "epsilon": eps.epsilon,
            "quadratic_norm": eps.quadratic_norm,
            "scaled_member": bool(eps.member),
            "scaled_margin": eps.margin,
        }
    except FormkitError as exc:
        report["quadratic_bound"] = {"holds": False, "reason": str(exc)}
    if not member:
        raise _Refusal(report, "psi does not majorize omega")
    return report


def _cmd_regularity(instance: Instance, args) -> dict:
    report = _base_report("regularity", instance, args)
    ac = reg.is_absolutely_continuous(instance.psi, instance.theta, args.tol_rank)
    report["psi_absolutely_continuous"] = bool(ac)
    report["note"] = (
        "closability is automatic at finite dimension; the kernel inclusion decides"
    )
    try:
        rep = reg.radon_nikodym(instance.omega, instance.theta, instance.psi, args.tol_rank)
    except MathematicalRefusal as exc:
        report["regular"] = False
        report["reason"] = str(exc)
        raise _Refusal(report, str(exc))
    residuals = reg.representation_residuals(rep, instance.omega, instance.theta, instance.psi)
    report["regular"] = True
    report["residuals"] = residuals
    report["residuals_within_tolerance"] = bool(
        max(residuals.values()) <= args.tol_residual
    )
    report["majorant_absolutely_continuous"] = bool(
        reg.is_absolutely_continuous(rep.majorant, instance.theta, args.tol_rank)
    )
    return report


def _cmd_represent(instance: Instance, args) -> dict:
    report = _base_report("represent", instance, args)
    rep = reg.radon_nikodym(instance.omega, instance.theta, instance.psi, args.tol_rank)
    middle = reg.kato_S(rep, args.tol_rank)
    residuals = reg.representation_residuals(rep, instance.omega, instance.theta, instance.psi)
    emb = rep.theta_embedding
    kato_matrix = emb.from_quotient(rep.scale @ middle @ rep.scale)
    kato_residual = frob(kato_matrix - instance.omega.matrix) / max(
        frob(instance.omega.matrix), 1e-300
    ) if frob(instance.omega.matrix) > 0 else frob(kato_matrix)
    report.update(
        {
            "H": encode_matrix(rep.scale),
            "Y": encode_matrix(rep.core_factor),
            "S": encode_matrix(middle),
            "S_norm": float(np.linalg.norm(middle, 2)) if middle.size else 0.0,
            "residuals": residuals,
            "kato_residual": float(kato_residual),
        }
    )
    return report


def _cmd_decompose(instance: Instance, args) -> dict:
    report = _base_report("decompose", instance, args)
    split = leb.lebesgue_decompose(instance.omega, instance.theta, instance.psi, args.tol_rank)
    total = frob(instance.omega.matrix)
    additivity = frob(
        split.regular.matrix + split.singular.matrix - instance.omega.matrix
    ) / max(total, 1e-300) if total > 0 else 0.0
    worst_theta, worst_sing = 0.0, 0.0
    n = instance.dim
    theta_norm = max(instance.theta.spectral_norm, 1e-300)
    sing_norm = max(split.singular.spectral_norm, 1e-300)
    for idx in range(n):
        basis_vec = np.zeros(n, dtype=complex)
        basis_vec[idx] = 1.0
        witness = leb.singularity_witness(
            split.singular, instance.theta, split, basis_vec, args.tol_rank
        )
        worst_theta = max(
            worst_theta, abs(instance.theta(witness, witness)) / theta_norm
        )
        diff = witness - basis_vec
        worst_sing = max(worst_sing, abs(split.singular(diff, diff)) / sing_norm)
    majorant = leb.regular_part_majorant(split, args.tol_rank)
    cert_member, cert_margin = reg.in_class_M(split.regular, majorant, args.tol_rank)
    report.update(
        {
            "omega_r": encode_matrix(split.regular.matrix),
            "omega_s": encode_matrix(split.singular.matrix),
            "additivity_residual": float(additivity),
            "witness_theta_residual_max": float(worst_theta),
            "witness_singular_residual_max": float(worst_sing),
            "witness_within_tolerance": bool(
                max(worst_theta, worst_sing) <= args.tol_residual
            ),
            "regular_certificate": {
                "majorant_member": bool(cert_member),
                "margin": float(cert_margin),
                "absolutely_continuous": bool(
                    reg.is_absolutely_continuous(majorant, instance.theta, args.tol_rank)
                ),
            },
        }
    )
    return report


def _cmd_numrange(instance: Instance, args) -> dict:
    report = _base_report("numrange", instance, args)
    hull = numerical_range_hull(instance.omega, args.grid)
    eigenvalues = np.linalg.eigvals(instance.omega.matrix)
    inclusion = max((hull.distance(z) for z in eigenvalues), default=0.0)
    report.update(
        {
            "grid": int(args.grid),
            "support": hull.support,
            "points": encode_matrix(hull.points),
            "hull_area": hull.area(),
            "eigenvalue_inclusion_excess": float(inclusion),
        }
    )
    return report


def _cmd_solvable(instance: Instance, args) -> dict:
    report = _base_report("solvable", instance, args)
    gram_mat = instance.extras.get("norm_gram")
    if gram_mat is None:
        gram = NormGram(np.eye(instance.dim, dtype=complex) + instance.psi.matrix)
        report["norm_gram"] = "identity + psi (default)"
    else:
        gram = NormGram(gram_mat)
        report["norm_gram"] = "from instance file"
    if args.lam is not None and args.upsilon is not None:
        raise ValidationError("give either --lambda or --upsilon, not both")
    try:
        if args.lam is not None:
            lam = _parse_lambda(args.lam)
            result = scalar_solvability(
                instance.omega, gram, lam, m=args.grid, rtol=args.tol_rank
            )
            report.update(
                {
                    "lambda": [lam.real, lam.imag],
                    "status": result.status,
                    "distance": float(result.distance),
                    "solvable": bool(result.solvable),
                    "c1": result.report.c1,
                    "c2": result.report.c2,
                    "note": "norm-compatibility and the closing condition are "
                    "automatic at finite dimension",
                }
            )
            if result.solvable:
                rep = represent_operator(
                    instance.omega,
                    gram,
                    Form(-lam * np.eye(instance.dim, dtype=complex)),
                    args.tol_rank,
                )
                report["resolvent_norm"] = rep.resolvent_norm
            else:
                raise _Refusal(report, "perturbed form is not solvable")
        else:
            if args.upsilon is not None:
                rows = json.loads(args.upsilon)
                upsilon = Form(decode_matrix(rows, instance.dim, "--upsilon"))
            else:
                upsilon = Form(np.zeros((instance.dim, instance.dim), dtype=complex))
            result = solvability_with(instance.omega, gram, upsilon, args.tol_rank)
            report.update(
                {
                    "solvable": bool(result.solvable),
                    "c1": result.c1,
                    "c2": result.c2,
                    # transposition preserves singular values
                    "c1_adjoint": result.c1,
                    "c2_adjoint": result.c2,
                }
            )
            if not result.solvable:
                raise _Refusal(report, "perturbed form is not solvable")
    except json.JSONDecodeError as exc:
        raise ParseError(f"--upsilon: {exc.msg}")
    return report


def _cmd_lab(instance: Instance, args, doc_family: Optional[dict]) -> dict:
    report = {
        "command": "lab",
        "tolerances": {
            "rank": float(args.tol_rank),
            "residual": float(args.tol_residual),
        },
    }
    if doc_family is None:
        raise ValidationError("the lab command needs an instance file with a family block")
    sizes = [int(x) for x in args.sizes.split(",")] if args.sizes else [8, 16, 32, 64]
    rows = convergence_report(doc_family["name"], doc_family, sizes, rtol=args.tol_rank)
    report["rows"] = [
        {**row, "probe": [row["probe"].real, row["probe"].imag]} for row in rows
    ]
    return report


def _parse_lambda(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValidationError("--lambda expects 're,im'")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise ValidationError("--lambda expects two real numbers 're,im'")


_INSTANCE_COMMANDS = {
    "inspect": _cmd_inspect,
    "membership": _cmd_membership,
    "regularity": _cmd_regularity,
    "represent": _cmd_represent,
    "decompose": _cmd_decompose,
    "numrange": _cmd_numrange,
    "solvable": _cmd_solvable,
}


class _Refusal(Exception):
    """Carries a fully built report for a mathematically refused request."""

    def __init__(self, report: dict, reason: str):
        super().__init__(reason)
        self.report = dict(report, refused=True, reason=reason)


# ---------------------------------------------------------------------------
# driver


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
    doc_family = None
    if args.command == "lab":
        try:
            doc = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}")
        doc_family = doc.get("family") if isinstance(doc, dict) else None
        report = _cmd_lab(None, args, doc_family)
        return render_report(report, args.json), 0
    instance = parse_instance(path, args.tol_rank)
    try:
        report = _INSTANCE_COMMANDS[args.command](instance, args)
    except _Refusal as refusal:
        return render_report(refusal.report, args.json), 2
    except MathematicalRefusal as exc:
        base = _base_report(args.command, instance, args)
        base.update({"reason": str(exc), "refused": True})
        return render_report(base, args.json), 2
    return render_report(report, args.json), 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.grid < MIN_HULL_GRID:
            raise ValidationError(f"--grid must be at least {MIN_HULL_GRID}, got {args.grid}")
        if args.batch:
            target = Path(args.instance)
            if not target.is_dir():
                raise ValidationError(f"--batch expects a directory, got {target}")
            code = 0
            chunks = []
            for path in sorted(target.glob("*.json")):
                try:
                    text, one = _run_single(str(path), args)
                except (ParseError, ValidationError, OSError) as exc:
                    # one bad file gets an error chunk; the others still run
                    text, one = f"error: {exc}", 1
                chunks.append(f"== {path.name}\n{text}")
                code = max(code, one)
            print("\n".join(chunks))
            return code
        text, code = _run_single(args.instance, args)
        print(text)
        return code
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
