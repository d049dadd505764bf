"""The benchmark's three workloads: inputs from a seed, one operation, its check.

Each workload is a closed loop with one client: the next operation starts
only after the previous one has finished and been checked.  Inputs are made
here from the seed; entcap only ever receives the generated states or argv.
References used by the checks (closed-form E_R of the Bell mixtures, the
entanglement entropy of a pure state) are computed here with numpy, not by
entcap.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np

from calib import MARKER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"  # every file the benchmark writes stays in the checkout
CHILD_TIMEOUT_S = 120.0

REE_TOL = 1e-5
# One group of ree-solve inputs, shuffled.  A run measures whole passes of
# REE_PASS groups (about 30 s on a 2-core 2.1 GHz Xeon VM), so every run has
# the same number of operations and its tail percentile the same rank.
REE_BLOCK = {"family1": 3, "family2": 3, "rank4": 6, "pure": 2, "rank2": 1}
REE_PASS = 5
REE_BLOCKS = 2 * REE_PASS
DESIGN_SEED = 2207  # draws the fixed eigenframes; never a workload seed
# Every class that can reach the tail takes its parameter from a fixed grid
# (stratum midpoints), so the slow operations are the same on every seed.
REE_GRID_KINDS = ("family1", "family2", "pure", "rank2")
FULL_RANK_SPECTRUM = np.array([0.85, 0.1, 0.05, 0.0])  # depolarized toward I/4 by the seed

BOUNDS_SAMPLES = 300
BOUNDS_OPS = 1000

VERIFY_SAMPLES = 50
ANCILLA_FACTOR = 1.4459
ANCILLA_TOL = 1e-3
BETA_BITS = 1.9123
BETA_TOL = 1e-4
HMAX_TOL = 1e-6
QSL_EXCESS = 1e-9  # the verify suite's qsl-validity gate on T_qsl - T


def child_env() -> dict:
    """Environment for entcap subprocesses: checked-out sources, one BLAS thread."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str]) -> tuple[int, bytes, bytes, float]:
    """Run ``cmd`` from the checkout root; return (exit code, stdout, stderr, peak RSS in MB).

    The child is waited for with ``wait4`` so its own peak RSS is known; a
    child that outlives ``CHILD_TIMEOUT_S`` is killed.
    """
    with tempfile.TemporaryFile(dir=OUT) as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        return proc.returncode, out, err.read(), usage.ru_maxrss / 1024.0


class OpResult:
    """What one operation produced: ``ok``, a failure reason, and per-op stats."""

    def __init__(self, ok: bool, reason: str = "", **stats):
        self.ok = ok
        self.reason = reason
        self.stats = stats


# ---------------------------------------------------------------------------
# ree-solve
# ---------------------------------------------------------------------------

_BELL = np.array([1.0, 0.0, 0.0, 1.0], dtype=complex) / math.sqrt(2.0)


def _ket_proj(i: int) -> np.ndarray:
    m = np.zeros((4, 4), dtype=complex)
    m[i, i] = 1.0
    return m


def _xlx(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0


def family_reference(family: int, lam: float) -> float:
    """Closed-form E_R (nats) of lam|Phi+><Phi+| + (1-lam)|01><01| (1) or |00><00| (2)."""
    if family == 1:
        return (lam - 2.0) * math.log(1.0 - lam / 2.0) + (1.0 - lam) * math.log(1.0 - lam)
    disc = math.sqrt(1.0 - 2.0 * lam * (1.0 - lam))
    s_plus, s_minus = (1.0 + disc) / 2.0, (1.0 - disc) / 2.0
    return _xlx(s_plus) + _xlx(s_minus) - _xlx(1.0 - lam / 2.0) - _xlx(lam / 2.0)


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _stratified(rng: np.random.Generator, n: int, group: int, jitter: bool = True) -> np.ndarray:
    """n values on [0, 1): each run of ``group`` has one in each of ``group`` strata, in random order.

    The value is uniform within its stratum, or its midpoint without ``jitter``.
    """
    out = []
    for _ in range(-(-n // group)):
        offset = rng.random(group) if jitter else np.full(group, 0.5)
        out.append((rng.permutation(group) + offset) / group)
    return np.concatenate(out)[:n]


class ReeSolve:
    """closest_separable_numeric(rho), then capacity_mixed(rho, sigma*).

    Solver cost depends on the rank of rho, so every block mixes rank
    classes in fixed numbers: both Bell-mixture families (closed-form
    reference), pure states (reference: entanglement entropy), and rank-2
    and full-rank states (no reference).

    Over random eigenframes the cost is heavy-tailed (0.4 s to 7 s for one
    rank-2 state), so a run of a hundred solves would measure which states
    the seed drew, not the solver.  The pure, rank-2 and full-rank classes
    therefore sit in fixed generic frames drawn once from DESIGN_SEED.  Each
    state's remaining parameter (lambda, Schmidt weight, spectrum) is
    stratified so that every pass covers its range once per stratum.  Cost
    is chaotic in these parameters and even in rounding (the same rank-2
    state in a locally rotated frame took 0.8 s or 5.3 s), so every class
    that can reach the tail uses the stratum midpoints and the seed only
    orders them.  The seed draws the full-rank depolarisation within its
    strata (those solves take about 10 ms) and the order of every pass.
    """

    name = "ree-solve"
    in_process = True  # runs in the benchmark process
    trace_ops = sum(REE_BLOCK.values())
    block = trace_ops * REE_PASS

    def make_inputs(self, seed: int) -> list[dict]:
        from entcap.core import DensityOperator

        design = np.random.default_rng(DESIGN_SEED)
        local_frame = np.kron(_haar_unitary(design, 2), _haar_unitary(design, 2))
        frame2, frame4 = _haar_unitary(design, 4), _haar_unitary(design, 4)

        rng = np.random.default_rng(seed)
        draws = {kind: _stratified(rng, n * REE_BLOCKS, n * REE_PASS, kind not in REE_GRID_KINDS)
                 for kind, n in REE_BLOCK.items()}
        inputs = []
        for b in range(REE_BLOCKS):
            cases = []
            for kind, n in REE_BLOCK.items():
                for u in draws[kind][b * n:(b + 1) * n]:
                    cases.append(self._case(kind, float(u), local_frame, frame2, frame4))
            for i in rng.permutation(len(cases)):
                kind, m, ref = cases[i]
                inputs.append({"kind": kind, "rho": DensityOperator(m, d_a=2, d_b=2), "ref": ref})
        return inputs

    @staticmethod
    def _case(kind, u, local_frame, frame2, frame4):
        if kind in ("family1", "family2"):
            family = int(kind[-1])
            lam = 0.05 + 0.9 * u
            other = _ket_proj(1 if family == 1 else 0)
            return kind, lam * np.outer(_BELL, _BELL.conj()) + (1.0 - lam) * other, family_reference(family, lam)
        if kind == "pure":
            # smaller Schmidt weight of a Haar state: CDF 1 - (1 - 2p)^3 on [0, 1/2]
            p = (1.0 - (1.0 - u) ** (1.0 / 3.0)) / 2.0
            z = local_frame @ np.array([math.sqrt(1.0 - p), 0.0, 0.0, math.sqrt(p)], dtype=complex)
            return kind, np.outer(z, z.conj()), -_xlx(p) - _xlx(1.0 - p)
        if kind == "rank2":
            q = 0.5 + 0.5 * u
            return kind, frame2 @ np.diag([q, 1.0 - q, 0.0, 0.0]) @ frame2.conj().T, None
        # full rank: separable for small u, entangled for large u
        spectrum = u * FULL_RANK_SPECTRUM + (1.0 - u) / 4.0
        return kind, frame4 @ np.diag(spectrum) @ frame4.conj().T, None

    def key(self, inp) -> str:
        return inp["kind"]

    def run(self, inp, tracer=None):
        from entcap import mixed

        approx = mixed.closest_separable_numeric(inp["rho"])
        return approx, mixed.capacity_mixed(inp["rho"], approx.sigma_star)

    def check(self, inp, out) -> OpResult:
        from entcap import mixed

        approx, cap = out
        e_r = approx.relative_entropy
        err = abs(e_r - inp["ref"]) if inp["ref"] is not None and math.isfinite(e_r) else None
        stats = {"iterations": approx.iterations, "converged": bool(approx.converged), "abs_err": err}
        if not math.isfinite(e_r):
            return OpResult(False, f"E_R={e_r}", **stats)
        if not approx.converged:
            return OpResult(False, "not converged", **stats)
        if not mixed.is_ppt(approx.sigma_star):
            return OpResult(False, "sigma* not PPT", **stats)
        if err is not None and err > REE_TOL:
            return OpResult(False, f"|E_R - ref| = {err:.3e}", **stats)
        if not (math.isfinite(cap) and cap >= 0.0):
            return OpResult(False, f"capacity={cap}", **stats)
        return OpResult(True, **stats)


# ---------------------------------------------------------------------------
# bounds-ensemble
# ---------------------------------------------------------------------------

_MARGIN = re.compile(r"min_margin=([-+0-9.eE]+|inf|nan)")


class BoundsEnsemble:
    """verify.run_suite("bounds", BOUNDS_SAMPLES, seed_i) with a fresh seed per op.

    BOUNDS_SAMPLES is large enough that the per-sample trajectory loops take
    most of an operation, ahead of the fixed QSL grid.
    """

    name = "bounds-ensemble"
    in_process = True  # runs in the benchmark process
    block = 1
    trace_ops = 4

    def make_inputs(self, seed: int) -> list[int]:
        rng = np.random.default_rng(seed)
        return [int(s) for s in rng.integers(0, 2**31 - 1, BOUNDS_OPS)]

    def key(self, inp) -> str:
        return "bounds"

    def run(self, inp, tracer=None):
        from entcap import verify

        return verify.run_suite("bounds", BOUNDS_SAMPLES, inp)

    def check(self, inp, out) -> OpResult:
        hard = sum(1 for r in out if r.hard and not r.passed)
        margin = math.nan
        for r in out:
            if r.name == "entanglement-rate-bound":
                found = _MARGIN.search(r.detail)
                margin = float(found.group(1)) if found else math.nan
        stats = {"hard_failures": hard, "rate_bound_min_margin": margin}
        if hard:
            failed = ",".join(r.name for r in out if r.hard and not r.passed)
            return OpResult(False, f"hard checks failed: {failed}", **stats)
        if not math.isfinite(margin) or margin < 0.0:
            return OpResult(False, f"rate-bound margin {margin}", **stats)
        return OpResult(True, **stats)


# ---------------------------------------------------------------------------
# cli-commands
# ---------------------------------------------------------------------------

def _field(text: str, key: str) -> float:
    found = re.search(rf"^{re.escape(key)}=(\S+)$", text, re.MULTILINE)
    if not found:
        raise ValueError(f"no {key}= line")
    return float(found.group(1))


def _csv_rows(text: str, width: int) -> np.ndarray:
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("# command="):
        raise ValueError("not a CSV with a metadata line and a header")
    rows = [line.split(",") for line in lines[2:]]
    if any(len(r) != width for r in rows):
        raise ValueError("ragged CSV")
    return rows


def _check_cli_output(command: str, target: str, text: str) -> str:
    """Return '' when the output meets the acceptance numbers, else the reason."""
    if command == "figure1":
        rows = np.array(_csv_rows(text, 4), dtype=float)
        if len(rows) != 101 * 101 or not np.isfinite(rows).all() or (rows[:, 2] < 0.0).any():
            return "figure1 grid"
    elif command == "figure2":
        rows = np.array(_csv_rows(text, 4), dtype=float)
        if len(rows) != 90 or (rows[:, 2] - rows[:, 1] > QSL_EXCESS).any():
            return "figure2 bound exceeds duration"
    elif command == "figures34":
        rows = _csv_rows(text, 5)
        vals = np.array([r[:3] for r in rows], dtype=float)
        if len(rows) != 101 or not np.isfinite(vals).all() or any(r[4] != "1" for r in rows):
            return "figures34 rows"
    elif target == "ancilla-factor":
        if abs(_field(text, "value") - ANCILLA_FACTOR) > ANCILLA_TOL:
            return "ancilla factor"
    elif target == "rate-factor":
        if not 0.003 <= _field(text, "maximizer p0") <= 0.008:
            return "rate-factor maximizer"
    elif target == "beta":
        if abs(_field(text, "value") - BETA_BITS) > BETA_TOL:
            return "beta"
    elif target == "h-max":
        if _field(text, "discrepancy") > HMAX_TOL:
            return "h-max discrepancy"
    elif command == "verify":
        found = re.search(r"^SUMMARY checks=\d+ hard_failures=(\d+)$", text, re.MULTILINE)
        if not found or int(found.group(1)) != 0:
            return "verify hard failures"
    return ""


class CliCommands:
    """One ``entcap.cli`` subprocess per operation (bench/cli_probe.py), cycling a fixed list.

    The seed orders the list and picks the --seed passed to every command
    and the couplings of the h-max maximizer.
    """

    name = "cli-commands"
    in_process = False  # one subprocess per operation
    block = 9
    trace_ops = 9

    def __init__(self):
        self.first_output: dict[tuple, bytes] = {}
        self.peak_rss_mb = 0.0
        self.child_kernels = (0.0, 0.0)

    def make_inputs(self, seed: int) -> list[list[str]]:
        rng = np.random.default_rng(seed)
        run_seed = str(int(rng.integers(0, 100_000)))
        mu = np.sort(rng.uniform(0.1, 2.0, 3))[::-1]
        commands = [
            ["--command", "figure1"],
            ["--command", "figure2"],
            ["--command", "figures34", "--family", "1", "--method", "analytic"],
            ["--command", "figures34", "--family", "2", "--method", "analytic"],
            ["--command", "maximize", "--target", "ancilla-factor"],
            ["--command", "maximize", "--target", "rate-factor"],
            ["--command", "maximize", "--target", "beta", "--log-base", "2"],
            ["--command", "maximize", "--target", "h-max", "--mu", ",".join(repr(float(m)) for m in mu)],
            ["--command", "verify", "--suite", "properties", "--n-samples", str(VERIFY_SAMPLES)],
        ]
        return [commands[i] + ["--seed", run_seed] for i in rng.permutation(len(commands))]

    def key(self, argv) -> str:
        """Command, with the family or target that picks its cost: "maximize:beta"."""
        for flag in ("--family", "--target"):
            if flag in argv:
                return f"{argv[1]}:{argv[argv.index(flag) + 1]}"
        return argv[1]

    def run(self, argv, tracer=None):
        """Run one command; leave the child's own kernel times in ``child_kernels``."""
        self.child_kernels = (0.0, 0.0)
        if tracer is None:
            cmd = [sys.executable, str(BENCH / "cli_probe.py"), *argv]
            code, out, err, rss = run_child(cmd)
            lines = err.decode(errors="replace").splitlines()
            if lines and lines[-1].startswith(MARKER):
                self.child_kernels = tuple(json.loads(lines[-1][len(MARKER):]))
                err = "\n".join(lines[:-1]).encode()
        else:
            with tempfile.TemporaryDirectory(dir=OUT) as tmp:
                spans = Path(tmp) / "spans.npz"
                cmd = [sys.executable, str(BENCH / "cli_runner.py"), str(spans), *argv]
                code, out, err, rss = run_child(cmd)
                if spans.exists():
                    tracer.merge(spans, tracer.stack[-1])
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        return code, out, err

    def check(self, argv, out) -> OpResult:
        code, stdout, stderr = out
        stats = {"output_bytes": len(stdout), "hard_failures": 0}
        if argv[1] == "verify":
            found = re.search(rb"hard_failures=(\d+)", stdout)
            stats["hard_failures"] = int(found.group(1)) if found else 1
        if code != 0:
            tail = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
            return OpResult(False, f"exit {code}: {tail[0]}", **stats)
        key = tuple(argv)
        first = self.first_output.setdefault(key, stdout)
        if stdout != first:
            return OpResult(False, "output differs from the first run of this command", **stats)
        target = argv[argv.index("--target") + 1] if "--target" in argv else ""
        try:
            reason = _check_cli_output(argv[1], target, stdout.decode())
        except ValueError as exc:
            reason = f"unparsable output: {exc}"
        return OpResult(not reason, reason, **stats)


WORKLOADS = {w.name: w for w in (ReeSolve, BoundsEnsemble, CliCommands)}
