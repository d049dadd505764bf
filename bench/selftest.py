"""Self-test of the benchmark: ``python3 bench/selftest.py`` from the checkout root.

* The traced run, made twice per workload at one seed, repeats every count
  exactly.  Later changes claim gains against these counts
  (``linalg.eigh.calls``, ``mixed.project_separable.calls``,
  ``mixed.solver_iterations``, ``dynamics.evolve_matrix.calls``), while
  wall time for the same work varies by tens of percent between repeats.
* One seed generates the same inputs twice; two seeds generate different
  inputs.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7
NAMED_COUNTS = ("linalg.eigh.calls", "mixed.project_separable.calls",
                "mixed.solver_iterations", "dynamics.evolve_matrix.calls")


def traced(workload: str) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def fingerprint(inputs) -> str:
    digest = hashlib.sha256()
    for inp in inputs:
        digest.update(inp["rho"].matrix.tobytes() if isinstance(inp, dict) else repr(inp).encode())
    return digest.hexdigest()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    problems = []
    seen_nonzero = set()
    for name, cls in WORKLOADS.items():
        first, second = traced(name), traced(name)
        for metric, entry in first["metrics"].items():
            if entry["unit"] not in ("count", "bytes"):
                continue
            again = second["metrics"][metric]["value"]
            if entry["value"] != again:
                problems.append(f"{name}: {metric} {entry['value']} then {again}")
            if metric in NAMED_COUNTS and entry["value"] > 0:
                seen_nonzero.add(metric)
        print(f"{name}: " + ", ".join(f"{m}={first['metrics'][m]['value']:.0f}" for m in NAMED_COUNTS))

        wl = cls()
        a, b, c = (fingerprint(wl.make_inputs(s)) for s in (SEED, SEED, SEED + 1))
        if a != b:
            problems.append(f"{name}: seed {SEED} generated different inputs twice")
        if a == c:
            problems.append(f"{name}: seeds {SEED} and {SEED + 1} generated the same inputs")
    for metric in set(NAMED_COUNTS) - seen_nonzero:
        problems.append(f"{metric} is 0 on every workload")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
