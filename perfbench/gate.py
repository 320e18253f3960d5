"""Correctness gate applied to every repetition, outside the timed region.

A repetition counts only when its answer satisfies the paper's invariants
and matches the stored reference values for its seed.  Each function
returns a list of problems; an empty list means the check passed.
"""

import numpy as np

from nsfem.assembly import assemble_divergence

ENERGY_TOL = 1e-9          # per-step residual <= ENERGY_TOL |u0|^2 / tau_n
DIVERGENCE_TOL = 1e-10     # |B u_N| <= DIVERGENCE_TOL |u_N|


def check_run(result, Q, label="run"):
    """Energy identity at every step and divergence of the final velocity."""
    problems = []
    led = result.ledger
    res = np.abs(led.column("energy_residual")[1:])
    tau = led.column("tau")[1:]
    bound = ENERGY_TOL * led.column("l2_sq")[0] / tau
    if res.size == 0 or not np.all(res <= bound):
        worst = float(np.max(res / bound)) if res.size else float("nan")
        problems.append(f"{label}: energy-identity residual {worst:.3g} x "
                        f"its bound")
    u = result.final.coeffs
    div = float(np.linalg.norm(assemble_divergence(result.final.space, Q) @ u))
    if not div <= DIVERGENCE_TOL * np.linalg.norm(u):
        problems.append(f"{label}: |B u_N| = {div:.3g} exceeds "
                        f"{DIVERGENCE_TOL:g} |u_N| = "
                        f"{DIVERGENCE_TOL * np.linalg.norm(u):.3g}")
    return problems


def check_study(report):
    errors = [e for _, e in report.rows]
    problems = []
    if not errors or not all(np.isfinite(e) and e > 0 for e in errors):
        problems.append(f"study errors not finite and positive: {errors}")
    if not np.isfinite(report.rate_last):
        problems.append(f"study rate_last is {report.rate_last}")
    return problems


def answer(outcome):
    """The values compared against the stored reference."""
    values = {"final_l2_sq": [float(r.ledger.column("l2_sq")[-1])
                              for r in outcome.runs]}
    if outcome.report is not None:
        values["errors"] = [float(e) for _, e in outcome.report.rows]
    return values


def check_reference(outcome, reference, rel_tol):
    problems = []
    got = answer(outcome)
    for key, want in reference.items():
        have = got.get(key, [])
        if len(have) != len(want) or not np.allclose(have, want, rtol=rel_tol,
                                                     atol=0.0):
            problems.append(f"{key} = {have} differs from the reference "
                            f"{want} (rtol {rel_tol:g})")
    return problems


def check(outcome, reference=None, rel_tol=None):
    """Every check on one repetition; ``reference`` None skips the last."""
    Qs = {id(V): Q for V, Q in outcome.spaces}
    problems = [] if outcome.runs else ["no timestepper run completed"]
    for i, result in enumerate(outcome.runs):
        problems += check_run(result, Qs[id(result.final.space)],
                              label=f"run {i}")
    if outcome.report is not None:
        problems += check_study(outcome.report)
    if reference is not None:
        problems += check_reference(outcome, reference, rel_tol)
    return problems
