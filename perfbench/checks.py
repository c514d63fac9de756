"""Output checks: every op is held to an invariant that does not depend on
its last digits, so solver or arithmetic changes that move rounding pass
while wrong answers and wrong exit codes count as failures.

Each check returns None when the op is correct and a one-line reason when
it is not.
"""

from __future__ import annotations

import json
import math

#: relative slack for exact inequalities between computed norms
REL = 1e-9
#: at resolution ORACLE_GAP_RESOLUTION and above, the brute-force oracles
#: must land within ORACLE_GAP of the analytic norms, the bound acceptance
#: criteria 2 and 6 hold them to at resolution 400 on 2 atoms.  Below it the
#: oracles are only certified lower bounds: on 3 atoms at resolution 12 the
#: Orlicz oracle sits up to about 0.05 below the analytic norm.
ORACLE_GAP = 5e-3
ORACLE_GAP_RESOLUTION = 400


def _num(x) -> float:
    return math.inf if x == "inf" else float(x)


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def chain_reason(lux: float, orl: float) -> str | None:
    """Luxemburg <= Orlicz <= 2 Luxemburg, to REL relative."""
    slack = REL * max(1.0, abs(orl))
    if not (lux > 0 and math.isfinite(orl)):
        return f"norms not positive and finite: luxemburg {lux}, orlicz {orl}"
    if lux > orl + slack or orl > 2.0 * lux + slack:
        return f"norm chain broken: luxemburg {lux!r}, orlicz {orl!r}"
    return None


def power_closed_forms(p: float, weights, values) -> tuple[float, float]:
    """Luxemburg and Orlicz norms of u under phi = u**p / p, by the
    one-variable calculus formulas (the same ones as
    monorm.power_norm_closed_forms, computed here independently)."""
    q = p / (p - 1.0)
    mass = math.fsum(w * abs(v) ** p for w, v in zip(weights, values))
    return p ** (-1.0 / p) * mass ** (1.0 / p), q ** (1.0 / q) * mass ** (1.0 / p)


def power_reason(p: float, weights, values, lux: float, orl: float) -> str | None:
    lux_ref, orl_ref = power_closed_forms(p, weights, values)
    if not (_close(lux, lux_ref) and _close(orl, orl_ref)):
        return (f"power p={p!r} off its closed forms: luxemburg {lux!r} vs {lux_ref!r}, "
                f"orlicz {orl!r} vs {orl_ref!r}")
    return None


def _instance_arrays(instance: dict):
    atoms = instance["space"]["atoms"]
    return [a["w"] for a in atoms], instance["functions"]["u"]


def _check_norm(op, report):
    entry = report["functions"]["u"]
    lux, orl = _num(entry["luxemburg"]), _num(entry["orlicz"])
    reason = chain_reason(lux, orl)
    if reason is None and _num(entry["amemiya"]) != orl:
        reason = "amemiya differs from orlicz"
    if reason is None and op.family == "power":
        weights, values = _instance_arrays(op.instance)
        reason = power_reason(op.instance["phi"]["p"], weights, values, lux, orl)
    return reason


def _check_support(op, report):
    if report["verified"] is not True:
        failed = [c["name"] for c in report["clauses"] if not c["passed"]]
        return f"support functional not verified (failed clauses {failed})"
    if len(report["density"]) != op.atoms:
        return "support density has the wrong length"
    return None


def _check_oracle(op, report):
    for name in ("orlicz", "luxemburg"):
        exact, bf = _num(report[name]), _num(report[name + "_bruteforce"])
        if not (math.isfinite(exact) and math.isfinite(bf)):
            return f"{name}: non-finite oracle or analytic value"
        if bf > exact + REL * max(1.0, exact):
            return f"{name}: brute force {bf!r} above analytic {exact!r}"
        if report["resolution"] >= ORACLE_GAP_RESOLUTION and exact - bf > ORACLE_GAP:
            return f"{name}: brute force {bf!r} more than {ORACLE_GAP} below {exact!r}"
    return chain_reason(_num(report["luxemburg"]), _num(report["orlicz"]))


def _check_smooth_point(op, report):
    if not isinstance(report["smooth"], bool):
        return "smooth is not a boolean"
    witnesses = report["witnesses"]
    if witnesses is not None and any(len(w) != op.atoms for w in witnesses):
        return "witness density has the wrong length"
    return None


def _check_smooth_space(op, report):
    if report["smooth"] != (report["failing"] == []):
        return f"smooth={report['smooth']} disagrees with failing={report['failing']}"
    return None


def _check_dual(op, report):
    norm = _num(report["norm"])
    singular = float(report["singular"])
    # inf{lam : I*(v/lam) + s/lam <= 1} is at least s and positive for v != 0
    if not (math.isfinite(norm) and norm > 0 and norm >= singular * (1.0 - REL)):
        return f"dual norm {norm!r} not finite, positive and >= singular mass {singular!r}"
    return None


def _check_gap(op, report):
    locs, mask = report["locations"], report["finite_mask"]
    if len(locs) != op.atoms or len(mask) != op.atoms:
        return "gap profile has the wrong length"
    if any((loc != "inf") != m for loc, m in zip(locs, mask)):
        return "finite_mask disagrees with locations"
    return None


def _check_delta2(op, report):
    if not (isinstance(report["holds_on_sample"], bool) and report["checked"] > 0):
        return "delta2 verdict malformed"
    K = float(report["K"])
    phi = op.instance["phi"]
    expected = None
    if phi["family"] == "power":
        expected = 2.0 ** phi["p"] <= K  # phi(2u) / phi(u) = 2**p exactly
    elif phi["family"] == "linear":
        expected = True  # ratio 2 < K
    elif phi["family"] == "expminusone":
        expected = False  # the ratio grows without bound
    if expected is not None and report["holds_on_sample"] != expected:
        return f"delta2 verdict {report['holds_on_sample']} for {phi['family']} with K={K!r}"
    return None


def _check_conjugate(op, report):
    table = report["table"]
    values = [_num(row["phi_star"]) for row in table]
    if values[0] != 0.0:
        return "conjugate is not 0 at v = 0"
    if any(b < a for a, b in zip(values, values[1:])):
        return "conjugate table decreases"
    if op.family == "power":
        p = op.instance["phi"]["p"]
        q = p / (p - 1.0)
        for row, val in zip(table, values):
            ref = row["v"] ** q / q
            if not _close(val, ref, 1e-8):
                return f"power conjugate {val!r} vs closed form {ref!r} at v={row['v']!r}"
    return None


def _check_gallery(op, report):
    for entry in report["ladder"]:
        if _num(entry["modular_low"]["0"]) != 0.0 or _num(entry["modular_high"]["0"]) != 0.0:
            return "gallery modular at scaling 0 is not 0"
    return None


CHECKS = {
    "norm": _check_norm,
    "support": _check_support,
    "oracle": _check_oracle,
    "smooth-point": _check_smooth_point,
    "smooth-space": _check_smooth_space,
    "dual": _check_dual,
    "gap": _check_gap,
    "delta2": _check_delta2,
    "conjugate": _check_conjugate,
    "gallery": _check_gallery,
}


def check_cli(op, code: int, stdout: str) -> str | None:
    """Exit code first, then the report's own invariant."""
    if code != op.expect:
        return f"exit code {code}, expected {op.expect}"
    if op.expect != 0:
        return None
    try:
        report = json.loads(stdout)
    except ValueError:
        return "report is not JSON"
    if report.get("command") != op.command:
        return f"report names command {report.get('command')!r}"
    try:
        return CHECKS[op.kind](op, report)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


def check_sweep(op, lux: float, orl: float) -> str | None:
    reason = chain_reason(lux, orl)
    if reason is None and op.p is not None:
        reason = power_reason(op.p, op.weights, op.values, lux, orl)
    return reason
