"""Regenerate ``reference.json``: each workload's answer for every seed slot.

Run from the root of a checkout (about six minutes on two cores):

    python3 perfbench/make_reference.py

Each entry holds ``final_l2_sq`` (|u_N|^2 of every march in the workload)
and, for the space study, the error rows.  Only regenerate after a change
that is meant to alter the answer; a faster solver must match the stored
values within ``REL_TOL``.
"""

import json
import os

import run

#: loose enough for a different exact solver (agreement near 1e-10 in the
#: solution), tight enough that a wrong answer (percent-level) fails
REL_TOL = 1e-6


def main():
    run.bootstrap()
    from perfbench import gate, tracing, workloads
    table = {}
    for name, wl in workloads.WORKLOADS.items():
        table[name] = {}
        for slot in range(workloads.SEED_SLOTS):
            tracer = tracing.Tracer(slot, fine=False)
            with tracer.installed():
                outcome = workloads.run_once(
                    wl, workloads.initial_field(slot), tracer)
            problems = gate.check(outcome)
            if problems:
                raise SystemExit(f"{name} slot {slot}: {problems}")
            table[name][str(slot)] = gate.answer(outcome)
            print(name, slot, table[name][str(slot)], flush=True)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference.json")
    with open(path, "w") as fh:
        json.dump({"rel_tol": REL_TOL, "seed_slots": workloads.SEED_SLOTS,
                   "workloads": table}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
