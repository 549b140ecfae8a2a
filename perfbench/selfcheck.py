#!/usr/bin/env python3
"""Quick self-check of the end-to-end benchmark (about a minute).

Run from the repository root:

    python3 perfbench/selfcheck.py

Runs each workload for 2 seconds untraced and requires its output
checks to pass. Then runs solve_tight traced and requires the replay to
report queueing.residual_share. The share is flagged, without failing
the check, when it is above the 5% that the solve ledger asks for.
Exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
RESIDUAL_BUDGET = 0.05


def run(workload, trace):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", "1",
           "--seconds", "2", "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print("FAIL %s: exit %d" % (workload, proc.returncode))
        return None
    return json.loads(lines[-1])


def main():
    ok = True
    for workload in ("sweep_cold", "solve_tight", "serve_mixed"):
        result = run(workload, 0)
        passed = bool(result) and result["correct"] and result["failed"] == 0
        ok = ok and passed
        if result:
            print("%s %s: %d operations, %d failed" % (
                "ok  " if passed else "FAIL", workload, result["attempted"], result["failed"]))
    traced = run("solve_tight", 1)
    share = traced and traced["metrics"].get("queueing.residual_share")
    if not share:
        print("FAIL solve_tight traced: no queueing.residual_share")
        return 1
    value = share["value"]
    print("%s solve_tight residual share %.1f%% (budget %.0f%%)" % (
        "FLAG" if value > RESIDUAL_BUDGET else "ok  ", value * 100, RESIDUAL_BUDGET * 100))
    return 0 if ok and traced["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
