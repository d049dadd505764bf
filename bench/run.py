"""entcap benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Runs one workload from the checkout's own ``src/`` as a closed loop with one
client, checks every operation's output, prints every metric with its unit
and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics declared in BENCHMARK.json:
set-up is timed as the median of several fresh interpreters, then operations
run untraced for ``--seconds``.  ``--trace 1`` reports the per-layer metrics:
it runs untraced for half of ``--seconds``, installs the tracer, then runs
the first ``trace_ops`` inputs once traced and once with tracing off, in
alternating order.  The traced copies give the layer metrics, so counts
repeat exactly for a seed; the pairs give the tracing overhead.  The full
result, with the environment and the recorded baseline, is written to
``bench/out/``; traced runs also write their spans there.  See
bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread for this process and every child: the kernels are
# 4x4 and must not contend for the cores.  Set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
TAIL_BEYOND = 10
WARMUP_S = 2.0
# Identical work on a shared 2-core VM runs 20-70% slower for stretches of
# seconds to minutes, and the speed flips between a fast and a slow state
# within a run.  A fixed kernel (calib.calibrate), timed before the first
# operation and after every one, tracks that speed.  Operations that run in
# the benchmark process are scaled one by one by CAL_REFERENCE_S over the
# mean of the two calibrations that bracket them.  A kernel in the benchmark
# process does not track a subprocess (correlation 0.2 over 120 CLI runs), so
# each CLI child (cli_probe.py) and each set-up child (setup_probe.py) times
# the kernel itself before and after its work, and is scaled by that.  The
# raw figures stay in the result file.
# CAL_REFERENCE_S is the kernel's time in the fast state of a 2.1 GHz Xeon vCPU.
CAL_REFERENCE_S = 0.004
CLI_COMMANDS = ("figure1", "figure2", "figures34", "maximize", "verify")


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------

def _version(dist: str):
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def _git_commit():
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if it can be found."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def closed_loop(wl, inputs, seconds: float, block: int, tracer=None, op_id: int = 0, cal=None):
    """Run operations back to back over ``inputs``, cycled; return [(key, latency_s, OpResult)].

    Stops at the first multiple of ``block`` operations once ``seconds`` have
    passed, so every run measures whole blocks of the workload's mix.  Only
    the operation itself is timed, less the kernel times a subprocess
    operation reports; its check runs after it.  When ``cal`` is given it
    gets, for every operation, the calibration kernel times just before and
    just after it: in this process for an in-process workload, in the child
    for a subprocess one.
    """
    from calib import calibrate
    from workloads import OpResult

    records = []
    prev = calibrate() if cal is not None and wl.in_process else None
    start = time.perf_counter()
    while not records or len(records) % block or time.perf_counter() - start < seconds:
        inp = inputs[len(records) % len(inputs)]
        if tracer is not None:
            tracer.op = op_id + len(records)
            sid = tracer.begin(f"op.{wl.name}")
        t0 = time.perf_counter()
        try:
            out, error = wl.run(inp, tracer), None
        except Exception:  # a failed operation is counted, the run goes on
            out, error = None, traceback.format_exc(limit=3)
        latency = time.perf_counter() - t0
        if tracer is not None:
            tracer.end(sid)
            tracer.op = -1
        if not wl.in_process:
            latency -= sum(wl.child_kernels)
        result = wl.check(inp, out) if error is None else OpResult(False, error)
        records.append((wl.key(inp), latency, result))
        if cal is not None:
            if wl.in_process:
                after = calibrate()
                cal.append((prev, after))
                prev = after
            else:
                cal.append(wl.child_kernels)
    return records


def warm_up(wl, inputs) -> None:
    """Run operations untimed for WARMUP_S, so first-touch memory and lazy set-up are paid."""
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < WARMUP_S:
        try:
            wl.run(inputs[i % len(inputs)])
        except Exception:  # the timed loop runs this input again and records the failure
            pass
        i += 1


def mix_ops_per_s(records) -> float:
    """Operations per second of the run's mix.

    Each kind of operation contributes its median latency, weighted by its
    share of the operations, so one slow operation or a burst of machine
    noise does not move the figure the way a plain mean would.
    """
    by_kind = {}
    for key, lat, _ in records:
        by_kind.setdefault(key, []).append(lat)
    return len(records) / sum(len(v) * statistics.median(v) for v in by_kind.values())


def hd_quantile(values, q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the order statistics.

    A single order statistic jumps whenever machine noise reorders the
    operations next to it; the weights spread over those neighbours.  The
    Beta((n + 1) q, (n + 1)(1 - q)) CDF is integrated numerically.
    """
    import numpy as np

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    t = np.linspace(0.0, 1.0, 20_001)[1:-1]
    log_pdf = (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t)
    pdf = np.exp(log_pdf - log_pdf.max())
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2.0)))
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf))
    return float(weights @ x)


def median(latencies) -> float:
    return hd_quantile(latencies, 0.5)


def tail(latencies):
    """Latency at the highest percentile with at least TAIL_BEYOND operations beyond it.

    That is the order statistic at rank n - TAIL_BEYOND, estimated with
    Harrell-Davis at q = rank / (n + 1), its expected quantile.
    """
    n = len(latencies)
    rank = max(n - TAIL_BEYOND, 1)
    return hd_quantile(latencies, rank / (n + 1)), 100.0 * rank / n


def timed_child(cmd) -> tuple[float, bytes]:
    from workloads import run_child

    t0 = time.perf_counter()
    code, out, err, _ = run_child(cmd)
    elapsed = time.perf_counter() - t0
    if code != 0:
        fail(f"{' '.join(cmd)} exited {code}: {err.decode(errors='replace')[-500:]}")
    return elapsed, out


def setup_seconds(workload: str, seed: int) -> list[tuple[float, float, float]]:
    """(raw, scaled, kernel) seconds of SETUP_REPEATS fresh interpreters.

    The raw time is the child's lifetime less its own calibration kernels;
    the scaled time is that times CAL_REFERENCE_S over the child's median
    kernel time.
    """
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
    runs = []
    for _ in range(SETUP_REPEATS):
        elapsed, out = timed_child(cmd)
        probe = json.loads(out.decode().strip().splitlines()[-1])
        raw = elapsed - probe["cal_total_s"]
        runs.append((raw, raw * CAL_REFERENCE_S / probe["cal_s"], probe["cal_s"]))
    return runs


def import_times() -> dict:
    """Median ``import entcap`` and scipy share from ``-X importtime``, and the bare interpreter."""
    from workloads import run_child

    entcap_s, scipy_s = [], []
    for _ in range(IMPORT_REPEATS):
        code, _, err, _ = run_child([sys.executable, "-X", "importtime", "-c", "import entcap"])
        if code != 0:
            fail(f"import entcap failed: {err.decode(errors='replace')[-500:]}")
        rows = []
        for line in err.decode().splitlines():
            parts = line.split("|")
            if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
                name = parts[2].rstrip()
                rows.append((name.strip(), len(name) - len(name.lstrip()), int(parts[1]) / 1e6))
        entcap_s.append(sum(cum for name, _, cum in rows if name == "entcap"))
        scipy_rows = [(depth, cum) for name, depth, cum in rows if name.split(".")[0] == "scipy"]
        top = min((depth for depth, _ in scipy_rows), default=0)
        scipy_s.append(sum(cum for depth, cum in scipy_rows if depth == top))
    floor = [timed_child([sys.executable, "-c", "pass"])[0] for _ in range(IMPORT_REPEATS)]
    return {"entcap": statistics.median(entcap_s), "scipy": statistics.median(scipy_s),
            "floor": statistics.median(floor)}


def end_to_end(wl, records, setup: list[tuple], cal: list[tuple[float, float]]):
    """End-to-end metrics; timings scaled to CAL_REFERENCE_S machine speed."""
    lat = [r[1] for r in records]
    n = len(records)
    failed = sum(1 for r in records if not r[2].ok)
    slowdown = [(before + after) / (2.0 * CAL_REFERENCE_S) for before, after in cal]
    how = "each op scaled by the calibrations around it"
    scaled = [(key, t / s, r) for (key, t, r), s in zip(records, slowdown)]
    scaled_lat = [r[1] for r in scaled]
    raw_tail, _ = tail(lat)
    tail_s, tail_pct = tail(scaled_lat)
    raw = {"ops_per_s": mix_ops_per_s(records), "op_p50_s": median(lat), "op_tail_s": raw_tail,
           "setup_s": statistics.median(r[0] for r in setup)}
    base = f"{n} ops, {how}"
    metrics = {
        "setup_s": (statistics.median(r[1] for r in setup), "s",
                    f"median of {len(setup)} fresh interpreters, each scaled by its own calibration"),
        "ops_per_s": (mix_ops_per_s(scaled), "1/s", f"{base}, median latency per kind"),
        "op_p50_s": (median(scaled_lat), "s", f"Harrell-Davis median of {base}"),
        "op_tail_s": (tail_s, "s", f"Harrell-Davis p{tail_pct:.1f} of {base}"),
        "peak_rss_mb": ((wl.peak_rss_mb, "MB", "largest CLI child") if hasattr(wl, "peak_rss_mb") else
                        (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "workload process")),
        "ok_ops_frac": ((n - failed) / n, "frac", f"{n} ops"),
    }
    details = {"raw": raw, "machine_slowdown": statistics.median(slowdown), "calibration_s": cal,
               "tail_percentile": tail_pct, "tail_ops_beyond": min(TAIL_BEYOND, n - 1),
               "setup_runs_s": {"raw": [r[0] for r in setup], "scaled": [r[1] for r in setup],
                                "calibration": [r[2] for r in setup]},
               "failed_ops_frac": failed / n}
    return metrics, details


def layer_metrics(untraced, paired, traced, imports: dict, summary) -> dict:
    calls, incl, self_s, weight = summary.calls, summary.incl_s, summary.self_s, summary.weight
    k = len(traced)
    base = f"{k} traced ops"
    stats = [r[2].stats for r in traced]
    solves = calls.get("mixed.closest_separable_numeric", 0)
    projections = calls.get("mixed.project_separable", 0)
    iterations = sum(s.get("iterations", 0) for s in stats)
    errors = [s["abs_err"] for s in stats if s.get("abs_err") is not None]
    margins = [s["rate_bound_min_margin"] for s in stats if "rate_bound_min_margin" in s]
    t_untraced = sum(r[1] for r in paired)
    t_traced = sum(r[1] for r in traced)
    everything = untraced + paired + traced
    m = {}

    def span(name, kind):
        table, unit = {"calls": (calls, "count"), "s": (incl, "s"), "self_s": (self_s, "s")}[kind]
        m[f"{name}.{kind}"] = (table.get(name, 0), unit, base)

    span("mixed.closest_separable_numeric", "self_s")
    span("mixed.project_separable", "calls")
    span("mixed.project_separable", "s")
    m["mixed.solver_iterations"] = (iterations, "count", base)
    m["mixed.projections_per_solve"] = (projections / solves if solves else 0.0, "ratio",
                                        f"{projections} projections / {solves} solves")
    m["mixed.accepted_step_ratio"] = (iterations / projections if projections else 0.0, "ratio",
                                      f"{iterations} iterations / {projections} projections")
    span("mixed.capacity_mixed", "s")
    m["mixed.max_abs_err"] = (max(errors, default=0.0), "nat", f"{len(errors)} referenced solves")
    converged = sum(1 for s in stats if s.get("converged"))
    m["mixed.converged_frac"] = (converged / solves if solves else 0.0, "frac", f"{solves} solves")
    span("linalg.eigh", "calls")
    m["linalg.eigh.matrices"] = (weight.get("linalg.eigh", 0.0), "count", base)
    span("linalg.eigh", "s")
    eigh_in_proj = summary.count_under("linalg.eigh", "mixed.project_separable")
    m["linalg.eigh.per_projection"] = (eigh_in_proj / projections if projections else 0.0, "ratio",
                                       f"{eigh_in_proj} eigh calls / {projections} projections")
    span("linalg.eigvalsh", "calls")
    span("linalg.svd", "calls")
    span("dynamics.simulate_trajectory", "calls")
    span("dynamics.simulate_trajectory", "s")
    span("dynamics.simulate_trajectory", "self_s")
    span("dynamics.evolve_matrix", "calls")
    m["dynamics.samples"] = (weight.get("dynamics.simulate_trajectory", 0.0), "count", base)
    span("speed_limits.family_qsl_curve", "s")
    span("speed_limits.rate_bound_check", "s")
    span("speed_limits.hamiltonian_fluctuation", "calls")
    span("self_inverse.evolve_self_inverse", "calls")
    span("self_inverse.evolve_self_inverse", "s")
    span("self_inverse.capacity_rate_bounds", "calls")
    span("core.schmidt_decompose", "calls")
    span("core.schmidt_decompose", "s")
    m["core.DensityOperator.constructions"] = (calls.get("core.DensityOperator", 0), "count", base)
    span("core.DensityOperator", "s")
    m["core.BipartitePureState.constructions"] = (calls.get("core.BipartitePureState", 0), "count", base)
    span("core.relative_entropy", "s")
    span("measures.capacity_from_spectrum", "calls")
    span("measures.capacity_from_spectrum", "s")
    span("measures.capacity_of", "calls")
    span("verify.run_bounds", "self_s")
    span("verify.run_properties", "self_s")
    m["verify.hard_failures"] = (sum(s.get("hard_failures", 0) for s in stats), "count", base)
    m["verify.rate_bound_min_margin"] = (min(margins, default=0.0), "nat", f"{len(margins)} bounds ops")
    m["import.entcap_s"] = (imports["entcap"], "s", f"median of {IMPORT_REPEATS} -X importtime runs")
    m["import.scipy_s"] = (imports["scipy"], "s", f"median of {IMPORT_REPEATS} -X importtime runs")
    m["import.python_floor_s"] = (imports["floor"], "s", f"median of {IMPORT_REPEATS} bare interpreters")
    for command in CLI_COMMANDS:
        lat = [r[1] for r in untraced if r[0].split(":")[0] == command]
        m[f"cli.{command}.p50_s"] = (statistics.median(lat) if lat else 0.0, "s",
                                     f"{len(lat)} untraced ops")
    m["cli.output_bytes"] = (sum(s.get("output_bytes", 0) for s in stats), "bytes", base)
    m["trace.overhead_frac"] = (t_traced / t_untraced - 1.0, "frac",
                                f"{k} ops, each run traced and untraced")
    m["failed_ops_frac"] = (sum(1 for r in everything if not r[2].ok) / len(everything), "frac",
                            f"{len(everything)} ops")
    return m


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def declared(trace: bool) -> list[dict]:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "entcap" / "__init__.py").is_file():
        fail(f"no entcap sources under {SRC}; run from a checkout of the repository")
    if not SPEC.is_file():
        fail(f"missing {SPEC.name} at the checkout root")
    sys.path.insert(0, str(SRC))
    from workloads import OUT, WORKLOADS

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    env = environment()
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        imports = import_times()
        inputs = wl.make_inputs(args.seed)
        warm_up(wl, inputs)
        untraced = closed_loop(wl, inputs, args.seconds / 2.0, wl.block)
        from tracer import Summary, Tracer

        tracer = Tracer()
        tracer.install()
        paired, traced = [], []
        for i in range(wl.trace_ops):
            order = [(paired, None), (traced, tracer)]
            if i % 2:  # alternate which side runs first, so drift in machine speed cancels
                order.reverse()
            for records_, tracer_ in order:
                records_ += closed_loop(wl, inputs[i:i + 1], 0.0, 1, tracer_, op_id=i)
        tracer.save(f"{stem}.spans.npz")
        records = untraced + paired + traced
        metrics = layer_metrics(untraced, paired, traced, imports, Summary(tracer.names, tracer.spans()))
        details = {}
    else:
        setup = setup_seconds(args.workload, args.seed)
        inputs = wl.make_inputs(args.seed)
        warm_up(wl, inputs)
        cal = []
        records = closed_loop(wl, inputs, args.seconds, wl.block, cal=cal)
        metrics, details = end_to_end(wl, records, setup, cal)

    wanted = declared(bool(args.trace))
    missing = [d["name"] for d in wanted if d["name"] not in metrics]
    wrong_unit = [d["name"] for d in wanted if d["name"] in metrics and metrics[d["name"]][1] != d["unit"]]
    if missing or wrong_unit:
        fail(f"metrics out of line with {SPEC.name}: missing {missing}, unit differs {wrong_unit}")

    failures = [f"{key}: {r.reason}" for key, _, r in records if not r.ok]
    attempted, failed = len(records), len(failures)
    baseline_path = BENCH / "baseline.json"
    baseline = json.loads(baseline_path.read_text()) if baseline_path.is_file() else {}
    per_key = {}
    for key, lat, _ in records:
        per_key.setdefault(key, []).append(lat)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env, "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failures": failures[:20],
        "metrics": {name: {"value": v, "unit": u, "base": b} for name, (v, u, b) in metrics.items()},
        "details": {**details, "latency_by_kind": {
            key: {"ops": len(v), "p50_s": statistics.median(v)} for key, v in sorted(per_key.items())},
            "latencies_s": [lat for _, lat, _ in records]},
        "baseline": baseline.get(args.workload),
    }
    stem.with_suffix(".json").write_text(json.dumps(report, indent=2, default=float) + "\n")

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed}")
    for reason in failures[:5]:
        print(f"FAILED {reason.splitlines()[-1]}")
    for d in wanted:
        value, unit, base = metrics[d["name"]]
        print(f"{d['name']} = {value:.6g} {unit} ({base})")
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {d["name"]: {"value": float(metrics[d["name"]][0]), "unit": d["unit"]}
                        for d in wanted}}
    if not all(math.isfinite(v["value"]) for v in line["metrics"].values()):
        fail("a metric is not finite")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
