"""Output checks that accept every sound answer.

Each check receives the instance truth, the exit code and the parsed JSON
report of one op and returns a list of problems (empty when the output is
sound). Checks read verdict keys only: membership decisions and margins,
ranks, residuals, flags, statuses, the split itself and sector certificates.
They never read ``c1_adjoint``, ``c2_adjoint``, ``operator`` or the witness
matrices ``H``/``Y``/``S``, whose presence or exact values are not part of
the answer. Hull boundary points are checked against the numerical range
computed here from the instance's ω, never against today's grid, so an
adaptive hull or a closed-form sector passes as long as it is sound.
"""

from __future__ import annotations

import math

import numpy as np

TOL = 1e-8          # residuals, margins and split entries, relative
HULL_TOL = 1e-9     # eigenvalue inclusion and hull containment, relative
RADIUS_BAND = 1e-4  # a certified hull may report up to w / cos(pi/m), m >= 180
HULL_ANGLES = 180   # a hull must be as fine as a rotation grid of this many angles
CHECK_ANGLES = 32   # directions in which a reported hull is compared with W(omega)


def _close(value, target, tol=TOL, scale=1.0) -> bool:
    return value is not None and abs(value - target) <= tol * max(scale, 1.0)


def _matrix(rows) -> np.ndarray:
    return np.asarray([[complex(e[0], e[1]) for e in row] for row in rows])


def _inconclusive(block) -> bool:
    return "inconclusive" in str(block).lower()


def _expect_code(code: int, expected: int) -> list[str]:
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


def inspect(truth, code, r, **_):
    out = _expect_code(code, 0)
    if r.get("theta_rank") != truth["theta_rank"]:
        out.append(f"theta_rank {r.get('theta_rank')} != {truth['theta_rank']}")
    if r.get("psi_rank") != truth["psi_rank"]:
        out.append(f"psi_rank {r.get('psi_rank')} != {truth['psi_rank']}")
    if r.get("psi_majorizes_omega") is not True:
        out.append("psi_majorizes_omega is not true")
    if not _close(r.get("membership_margin"), truth["margin"]):
        out.append(f"membership_margin {r.get('membership_margin')} != {truth['margin']}")
    if r.get("omega_symmetric") is not truth["hermitian"]:
        out.append("omega_symmetric disagrees with the construction")
    return out


def membership(truth, code, r, **_):
    member = truth["margin"] >= -1e-9
    out = _expect_code(code, 0 if member else 2)
    if r.get("member") is not member:
        out.append(f"member {r.get('member')} != {member}")
    if not _close(r.get("margin"), truth["margin"]):
        out.append(f"margin {r.get('margin')} != {truth['margin']}")
    qb = r.get("quadratic_bound", {})
    radius = truth["numerical_radius"]
    if radius > 1.0 + 1e-9:
        # the bound is violated: "holds" is unsound, a refusal or an
        # inconclusive answer is sound
        if qb.get("holds") is True and not _inconclusive(qb):
            out.append(
                f"quadratic bound claimed to hold, but the numerical radius is {radius!r}"
            )
        return out
    if qb.get("holds") is not True:
        if not (truth.get("knife_edge") and _inconclusive(qb)):
            out.append(f"quadratic bound not reported as holding: {qb}")
        return out
    qn = qb.get("quadratic_norm")
    lower = truth["radius_lower"] * (1 - RADIUS_BAND)
    if isinstance(qn, (int, float)) and not lower - TOL <= qn <= radius * (1 + RADIUS_BAND) + TOL:
        out.append(f"quadratic_norm {qn} outside [{lower}, {radius}]")
    if qb.get("epsilon") is not None and qb["epsilon"] != (1 if truth["hermitian"] else 2):
        out.append(f"epsilon {qb['epsilon']} disagrees with the symmetry of omega")
    if qb.get("scaled_member") is False:
        out.append("scaled membership refused")
    return out


def _refused(code, r):
    out = _expect_code(code, 2)
    if r.get("refused") is not True:
        out.append("refusal not marked in the report")
    return out


def regularity(truth, code, r, **_):
    if not truth["psi_ac"]:
        out = _refused(code, r)
        if r.get("psi_absolutely_continuous") is not False:
            out.append("psi reported absolutely continuous although it charges ker(theta)")
        return out
    out = _expect_code(code, 0)
    if r.get("psi_absolutely_continuous") is not True or r.get("regular") is not True:
        out.append("regular instance not reported regular")
    residuals = r.get("residuals") or {}
    if not residuals or max(residuals.values()) > TOL:
        out.append(f"residuals {residuals} exceed {TOL}")
    if r.get("residuals_within_tolerance") is not True:
        out.append("residuals_within_tolerance is not true")
    if r.get("majorant_absolutely_continuous") is not True:
        out.append("majorant not absolutely continuous")
    return out


def represent(truth, code, r, **_):
    if not truth["psi_ac"]:
        return _refused(code, r)
    out = _expect_code(code, 0)
    residuals = r.get("residuals") or {}
    if not residuals or max(residuals.values()) > TOL:
        out.append(f"residuals {residuals} exceed {TOL}")
    if not (isinstance(r.get("kato_residual"), float) and r["kato_residual"] <= TOL):
        out.append(f"kato_residual {r.get('kato_residual')} exceeds {TOL}")
    return out


def decompose(truth, code, r, **_):
    out = _expect_code(code, 0)
    if out:
        return out
    if not r.get("additivity_residual", 1.0) <= TOL:
        out.append(f"additivity_residual {r.get('additivity_residual')}")
    if r.get("witness_within_tolerance") is not True:
        out.append("singularity witnesses not within tolerance")
    cert = r.get("regular_certificate") or {}
    if cert.get("majorant_member") is not True or cert.get("absolutely_continuous") is not True:
        out.append(f"regular part not certified: {cert}")
    scale = float(np.linalg.norm(truth["omega"]))
    for key, exact in (("omega_r", truth["omega_r"]), ("omega_s", truth["omega_s"])):
        err = float(np.linalg.norm(_matrix(r[key]) - exact))
        if err > TOL * max(scale, 1.0):
            out.append(f"{key} differs from the exact part by {err:.3e}")
    return out


def _support(omega, angles) -> np.ndarray:
    """h(phi) = lambda_max(Re(e^{-i phi} omega)), the support function of W(omega)."""
    rotated = np.exp(-1j * angles)[:, None, None] * omega[None, :, :]
    return np.linalg.eigvalsh((rotated + rotated.conj().transpose(0, 2, 1)) / 2)[:, -1]


def _cross(a: complex, b: complex, z: complex) -> float:
    return ((b - a).conjugate() * (z - a)).imag


def _convex_hull(points) -> list[complex]:
    """Vertices of the convex hull, counter-clockwise (monotone chain)."""
    pts = sorted(set(points), key=lambda z: (z.real, z.imag))
    if len(pts) <= 2:
        return pts
    chains = []
    for seq in (pts, pts[::-1]):
        chain: list[complex] = []
        for z in seq:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], z) <= 0:
                chain.pop()
            chain.append(z)
        chains.append(chain[:-1])
    return chains[0] + chains[1]


def _area(vertices) -> float:
    return abs(sum(_cross(0j, a, b) for a, b in zip(vertices, vertices[1:] + vertices[:1]))) / 2


def _distance_to_hull(z: complex, hull) -> float:
    edges = list(zip(hull, hull[1:] + hull[:1]))
    if len(hull) >= 3 and all(_cross(a, b, z) >= 0 for a, b in edges):
        return 0.0
    best = abs(z - hull[0])
    for a, b in edges:
        d = b - a
        if d:
            t = min(1.0, max(0.0, ((d.conjugate() * (z - a)).real) / abs(d) ** 2))
            best = min(best, abs(z - (a + t * d)))
    return best


def numrange(truth, code, r, **_):
    """The reported boundary points must lie in W(omega), reach within the
    error of a ``HULL_ANGLES`` rotation grid of its boundary in every check
    direction, and their hull must hold omega's eigenvalues to that error;
    ``hull_area`` must lie between the area of their hull and that of the
    polygon circumscribed by the exact tangent lines."""
    out = _expect_code(code, 0)
    omega, norm = truth["omega"], truth["norm"]
    tol = HULL_TOL * max(norm, 1.0)
    # inner polygon through exact support points at angles <= pi/m apart:
    # its support falls short of W's by at most (pi/m) * diam W <= 2 pi |omega| / m
    slack = 2 * math.pi * norm / HULL_ANGLES + tol
    excess = r.get("eigenvalue_inclusion_excess")
    if not (isinstance(excess, float) and excess <= tol):
        out.append(f"eigenvalue_inclusion_excess {excess} exceeds {tol}")
    points = [complex(p[0], p[1]) for p in r.get("points") or []]
    if not points:
        return out + ["no boundary points reported"]
    angles = 2 * math.pi * np.arange(CHECK_ANGLES) / CHECK_ANGLES
    h = _support(omega, angles)
    reach = (np.exp(-1j * angles)[:, None] * np.asarray(points)[None, :]).real
    outside = float(np.max(reach - h[:, None]))
    if outside > tol:
        out.append(f"a boundary point lies {outside:.3e} outside the numerical range")
    short = float(np.max(h - reach.max(axis=1)))
    if short > slack:
        out.append(f"boundary points fall {short:.3e} short of the numerical range's edge")
    hull = _convex_hull(points)
    missed = max(_distance_to_hull(complex(z), hull) for z in np.linalg.eigvals(omega))
    if missed > slack:
        out.append(f"an eigenvalue lies {missed:.3e} outside the hull of the boundary points")
    # vertices of the circumscribed polygon: consecutive tangent lines
    # cos(a) x + sin(a) y = h(a) meet at e^{ia} (h + i (h' - h cos(d)) / sin(d))
    d = angles[1] - angles[0]
    h_next = np.roll(h, -1)
    outer = list(np.exp(1j * angles) * (h + 1j * (h_next - h * math.cos(d)) / math.sin(d)))
    low, high = _area(hull), _area(outer)
    area = r.get("hull_area")
    area_tol = tol * max(norm, 1.0)
    if not (isinstance(area, float) and low - area_tol <= area <= high + area_tol):
        out.append(f"hull_area {area} outside [{low}, {high}]")
    return out


def solvable(truth, code, r, lam=None, where=None, **_):
    ref = truth["shift_refs"][lam] if lam is not None else truth["plain_ref"]
    out = _expect_code(code, 0)
    if r.get("solvable") is not True:
        out.append(f"solvable {r.get('solvable')} for an invertible system")
    c1, c2 = r.get("c1"), r.get("c2")
    if not (_close(c1, ref["c1"], TOL, ref["c2"]) and _close(c2, ref["c2"], TOL, ref["c2"])):
        out.append(f"inf-sup constants ({c1}, {c2}) != ({ref['c1']}, {ref['c2']})")
    if lam is None:
        return out
    status = r.get("status")
    if where == "outside" and status != "outside":
        out.append(f"status {status!r} for a point outside the numerical range")
    if where == "inside" and status == "outside":
        out.append("point inside the numerical range reported outside")
    res = r.get("resolvent_norm")
    if not _close(res, ref["resolvent_norm"], 1e-6, ref["resolvent_norm"]):
        out.append(f"resolvent_norm {res} != {ref['resolvent_norm']}")
    return out


def lab(truth, code, r, sizes=(), **_):
    out = _expect_code(code, 0)
    rows = r.get("rows") or []
    if [row.get("size") for row in rows] != list(sizes):
        return out + [f"rows for sizes {[row.get('size') for row in rows]}, expected {list(sizes)}"]
    for row in rows:
        values = truth["values"](row["size"])
        scale = max(1.0, float(np.max(np.abs(values))))
        re_min = float(np.min(values.real))
        if not _close(row.get("re_spectrum_min"), re_min, 1e-12, scale):
            out.append(f"N={row['size']}: re_spectrum_min {row.get('re_spectrum_min')} != {re_min}")
        sector = row.get("sectorial") or {}
        if sector.get("sectorial") is True:
            delta, gamma = sector["delta"], sector["gamma"]
            tol = TOL * scale * max(1.0, gamma)
            if delta > re_min + tol:
                out.append(f"N={row['size']}: vertex {delta} above min Re = {re_min}")
            slack = gamma * (values.real - delta) - np.abs(values.imag)
            if float(np.min(slack)) < -tol:
                out.append(
                    f"N={row['size']}: certificate (delta={delta}, gamma={gamma}) "
                    f"misses an entry by {-float(np.min(slack)):.3e}"
                )
        probe = row.get("probe")
        if isinstance(probe, list) and row.get("resolvent_norm") is not None:
            exact = 1.0 / float(np.min(np.abs(values - complex(probe[0], probe[1]))))
            if not _close(row["resolvent_norm"], exact, 1e-8, exact):
                out.append(f"N={row['size']}: resolvent_norm {row['resolvent_norm']} != {exact}")
            if not row.get("probe_distance", 0.0) > 0.0:
                out.append(f"N={row['size']}: probe not reported outside the hull")
    return out


def positive_split(truth, ac, singular, limit):
    """Library cross-check: positive_lebesgue against the exact absolutely
    continuous part, and the doubling limit against the same part."""
    out = []
    psi = truth["psi"]
    scale = float(np.linalg.norm(psi))
    err = float(np.linalg.norm(ac - truth["ac"]))
    if err > TOL * scale:
        out.append(f"positive_lebesgue ac part off the exact short by {err / scale:.3e}")
    add = float(np.linalg.norm(ac + singular - psi))
    if add > 1e-10 * scale:
        out.append(f"positive_lebesgue parts do not add up to psi ({add / scale:.3e})")
    if limit is not None:
        err = float(np.linalg.norm(limit - truth["ac"]))
        if err > 1e-6 * scale:
            out.append(f"parallel_sum_limit off the exact short by {err / scale:.3e}")
    return out


CLI_CHECKS = {
    "inspect": inspect,
    "membership": membership,
    "regularity": regularity,
    "represent": represent,
    "decompose": decompose,
    "numrange": numrange,
    "solvable": solvable,
    "lab": lab,
}
