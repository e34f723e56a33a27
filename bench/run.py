"""dwelltime benchmark: one workload, one run, one JSON line of metrics.

Usage (from the repository root):

    python3 bench/run.py --workload scan|resonance|verify --seed N --seconds S --trace 0|1

The run generates the workload's jobs from ``--seed`` (the package sees
only the generated JSON configs), times the set-up of a fresh interpreter,
then runs the real CLI in one fresh worker process, closed loop, for
``--seconds``.  Every output is checked against the closed-form oracle in
``oracle.py`` and one job per subcommand is rerun to check byte-identical
results.  With ``--trace 0`` the last line holds the end-to-end metrics;
with ``--trace 1`` the run is traced and the last line holds the per-layer
metrics.  Everything else printed, plus the environment record, is also
written to ``.bench_out/<workload>-seed<N>-trace<T>/result.json``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

# jobs generated per second of run: about three times what one core does
# today, so a faster program still meets fresh inputs
POOL_RATE = {"scan": 30, "resonance": 45, "verify": 8}
SETUP_STARTS = 5
# hand-measured baselines from ROADMAP.md (2-core box, Python 3.11, numpy 2.4, scipy 1.17)
ROADMAP = {
    "radial.delta_err.h1e-3": 7.5e-11, "radial.delta_err.h5e-4": 2.8e-10,
    "radial.delta_err.h1e-4": 6.7e-9, "radial.delta_err.h5e-5": 4.6e-8,
    "radial.integrate_radial.us_per_call.n2001": 500.0,
    "radial.integrate_radial.us_per_call.n10001": 2200.0,
}
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import dwelltime.cli
from dwelltime.scenarios import bundled_regression_config, load_config
load_config(sys.argv[2] if len(sys.argv) > 2 else bundled_regression_config())
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("DWELLTIME_NUM_WORKERS", None)
    env.pop("PYTHONPATH", None)
    return env


def environment(workload: str, seed: int, jobs: int) -> dict:
    """Machine and library record, so results from different machines are not mixed."""
    import numpy
    import scipy

    def read(path, default="unknown"):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return default

    cpu = next((line.split(":", 1)[1].strip() for line in read("/proc/cpuinfo", "").splitlines()
                if line.startswith("model name")), platform.processor() or "unknown")
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(index / "level"), read(index / "type")
        if kind != "Instruction":
            caches[f"L{level}"] = read(index / "size")
    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get(
            "OMP_NUM_THREADS") or "default (unset)",
        "workload": workload, "seed": seed, "jobs": jobs,
    }


def measure_setup(first_config: str | None) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and load the first config."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC)] + ([first_config] if first_config else [])
    times = []
    for _ in range(SETUP_STARTS):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=_child_env(), check=True, timeout=60,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def write_jobs(jobs: list[dict], run_dir: Path) -> Path:
    (run_dir / "configs").mkdir(parents=True)
    entries = []
    for job in jobs:
        argv = [job["sub"]]
        if job["config"] is not None:
            path = run_dir / "configs" / f"{job['id']}.json"
            path.write_text(json.dumps(job["config"], indent=1))
            argv += ["--config", str(path)]
        entries.append({"id": job["id"], "sub": job["sub"], "argv": argv + job["flags"]})
    manifest = run_dir / "manifest.json"
    manifest.write_text(json.dumps({"src": str(SRC), "jobs": entries}))
    return manifest


def tail_latency(latencies: list[float]) -> tuple[float, int]:
    """Latency at the highest whole percentile with at least ten jobs beyond it.

    Nearest rank; runs of fewer than 20 jobs fall back to the median.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    for pct in range(99, 50, -1):
        rank = math.ceil(pct / 100.0 * n)
        if n - rank >= 10:
            return ordered[rank - 1], pct
    return statistics.median(ordered), 50


def error_summary(errs: list[float]) -> dict:
    if not errs:
        return {"count": 0, "worst": 0.0, "p99": 0.0, "p95": 0.0, "p90": 0.0, "median": 0.0}
    q = statistics.quantiles(errs, n=100) if len(errs) > 1 else errs * 99
    return {"count": len(errs), "worst": max(errs), "p99": q[98], "p95": q[94], "p90": q[89],
            "median": statistics.median(errs)}


def accuracy(errors: dict[str, list[float]]) -> float:
    """Geometric mean of every relative error in the run.

    The errors are roundoff-driven and spread over decades; their tail
    follows the few least favourable energies a seed draws (the worst error
    moved by 2x between seeds, the 95th percentile by 20-50%), while the
    mean of their logarithms is steady.  A value beyond its tolerance fails
    its job whatever this mean says.  Errors below 1e-16 count as 1e-16.
    """
    logs = [math.log(max(e, 1e-16)) for errs in errors.values() for e in errs]
    return math.exp(statistics.fmean(logs)) if logs else 0.0


def run(workload: str, seed: int, seconds: float, trace: int, max_jobs: int | None = None,
        tamper=None) -> dict:
    """One benchmark run; ``tamper(records, jobs)`` may corrupt outputs before checking."""
    if not (SRC / "dwelltime" / "cli.py").is_file():
        raise FileNotFoundError(f"package source not found under {SRC}")
    run_dir = ROOT / ".bench_out" / f"{workload}-seed{seed}-trace{trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    cycle = len(workloads.CYCLES[workload])
    pool = 1 + max(2 * cycle, int(POOL_RATE[workload] * seconds))
    if max_jobs is not None:
        pool = min(pool, max_jobs + 1)
    jobs = workloads.generate(workload, seed, pool)
    manifest = write_jobs(jobs, run_dir)
    first = json.loads(manifest.read_text())["jobs"][1]["argv"]
    setup = measure_setup(first[first.index("--config") + 1] if "--config" in first else None)

    result_path = run_dir / "worker.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), str(manifest), str(result_path),
           "--seconds", str(seconds), "--trace", str(trace)]
    if max_jobs is not None:
        cmd += ["--max-jobs", str(max_jobs)]
    with (run_dir / "worker.log").open("w") as log:
        subprocess.run(cmd, cwd=ROOT, env=_child_env(), check=True, stdout=log,
                       stderr=subprocess.STDOUT, timeout=seconds + 120)
    worker = json.loads(result_path.read_text())
    records = worker["records"]
    loop_jobs = jobs[1:]
    if tamper is not None:
        tamper(records, loop_jobs)

    failures, incorrect = [], []  # every failed job; those that crashed or wrote wrong output
    items = verified = completed_items = 0
    errors: dict[str, list[float]] = {}
    delta_err: dict[float, float] = {}
    per_sub_solves: dict[str, list[int]] = {}
    reruns = {rerun["index"]: rerun["identical"] for rerun in worker["reruns"].values()}
    for rec in records:
        job = loop_jobs[rec["index"] % len(loop_jobs)]
        if rec["status"] != 0:
            failures.append((job["id"], f"exit status {rec['status']}: {rec['message'].strip()}"))
            if rec["status"] != 2:
                incorrect.append(job["id"])
            items += job["items"] or 1
            continue
        verdict = checks.check(job, Path(rec["out"]))
        if not reruns.get(rec["index"], True):
            verdict.problem = verdict.problem or "result files differ on a rerun"
        items += verdict.items
        completed_items += verdict.items
        for kind, errs in verdict.errors.items():
            errors.setdefault(kind, []).extend(errs)
        if verdict.delta_err is not None:
            h = job["config"]["numerics"]["grid_spacing"]
            delta_err[h] = max(delta_err.get(h, 0.0), verdict.delta_err)
        if verdict.problem:
            failures.append((job["id"], verdict.problem))
            incorrect.append(job["id"])
            continue
        verified += verdict.verified
        if rec["solves"] is not None:
            key = job["sub"] + ("_dump" if "--dump-wavefunction" in job["flags"] else "")
            acc = per_sub_solves.setdefault(key, [0, 0])
            acc[0] += rec["solves"]
            acc[1] += verdict.items

    latencies = [rec["latency_s"] for rec in records]
    tail, pct = tail_latency(latencies)
    attempted = len(records)
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "job_s_p50": (statistics.median(latencies), "s"),
        "job_s_tail": (tail, "s"),
        "items_per_s": (completed_items / worker["loop_s"], "1/s"),
        "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
        "accuracy_err": (accuracy(errors), "1"),
        "success_rate": (verified / items if items else 0.0, "1"),
    }
    report = {
        "environment": environment(workload, seed, attempted),
        "jobs": {"attempted": attempted, "failed": len(failures),
                 "error_rate": len(failures) / attempted, "pool": worker["pool_size"],
                 "failures": failures[:20]},
        "job_s_tail": {"percentile": pct, "samples": attempted},
        "setup_s_samples": setup,
        "errors_by_kind": {kind: error_summary(errs) for kind, errs in errors.items()},
        "errors_all": error_summary([e for errs in errors.values() for e in errs]),
        "end_to_end": _as_metrics(end_to_end),
    }
    metrics = end_to_end
    if trace:
        metrics = per_layer(worker, records, per_sub_solves, delta_err)
        report["per_layer"] = _as_metrics(metrics)
        report["reference_comparison"] = {
            name: {"measured": metrics[name][0], "roadmap": ref,
                   "ratio": metrics[name][0] / ref if metrics[name][0] else None}
            for name, ref in ROADMAP.items()}
    (run_dir / "result.json").write_text(json.dumps(report, indent=1))
    if not failures:
        # every output passed its check: keep the configs and records, not the
        # result files (the wave-function dumps alone are tens of MB a run)
        for sub in ("jobs", "rerun", "warmup"):
            shutil.rmtree(run_dir / sub, ignore_errors=True)
    return {"correct": not incorrect, "attempted": attempted, "failed": len(failures),
            "metrics": _as_metrics(metrics), "report": report}


def _as_metrics(values: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def per_layer(worker, records, per_sub_solves, delta_err) -> dict:
    tr = worker["trace"]
    self_s, total_s, calls, counts = tr["self_s"], tr["total_s"], tr["calls"], tr["counts"]

    def ratio(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    def group(names):
        return sum(self_s.get(n, 0.0) for n in names)

    def solve_us(n):
        total, count = tr["solve_us"].get(str(n), (0.0, 0))
        return ratio(total, count)

    def per_item(key):
        solves, n_items = per_sub_solves.get(key, (0, 0))
        return ratio(solves, n_items)

    import spans
    nodes = counts.get("numerics.numerov.nodes", 0)
    seeds = counts.get("resonance.seeds", 0)
    latency = sum(rec["latency_s"] for rec in records)
    m = {
        "numerics.numerov.calls": (calls.get("numerics.numerov", 0), "count"),
        "numerics.numerov.nodes": (nodes, "count"),
        "numerics.numerov.self_s": (self_s.get("numerics.numerov", 0.0), "s"),
        "numerics.numerov.ns_per_node": (ratio(total_s.get("numerics.numerov", 0.0), nodes, 1e9), "ns"),
        "numerics.numerov.rescue_calls": (counts.get("numerics.numerov.rescue_calls", 0), "count"),
        "numerics.solve_banded.self_s": (self_s.get("numerics.solve_banded", 0.0), "s"),
        "numerics.derivative_field.calls": (calls.get("numerics.derivative_field", 0), "count"),
        "numerics.derivative_field.self_s": (self_s.get("numerics.derivative_field", 0.0), "s"),
        "numerics.fd_derivative_field.self_s": (self_s.get("numerics.fd_derivative_field", 0.0), "s"),
        "numerics.quadrature.self_s": (group(spans.QUADRATURE), "s"),
        "potentials.evaluate.calls": (calls.get("potentials.evaluate", 0), "count"),
        "potentials.evaluate.self_s": (self_s.get("potentials.evaluate", 0.0), "s"),
        "radial.integrate_radial.calls": (calls.get("radial.integrate_radial", 0), "count"),
        "radial.integrate_radial.self_s": (self_s.get("radial.integrate_radial", 0.0), "s"),
        "radial.integrate_radial.us_per_call": (ratio(total_s.get("radial.integrate_radial", 0.0),
                                                      calls.get("radial.integrate_radial", 0), 1e6), "us"),
        "radial.integrate_radial.us_per_call.n2001": (solve_us(2001), "us"),
        "radial.integrate_radial.us_per_call.n10001": (solve_us(10001), "us"),
        "radial.solve_barrier_1d.calls": (calls.get("radial.solve_barrier_1d", 0), "count"),
        "radial.solve_barrier_1d.us_per_call": (ratio(total_s.get("radial.solve_barrier_1d", 0.0),
                                                      calls.get("radial.solve_barrier_1d", 0), 1e6), "us"),
        "radial.match_scattering.self_s": (self_s.get("radial.match_scattering", 0.0), "s"),
        "radial.solves_per_item": (ratio(sum(v[0] for v in per_sub_solves.values()),
                                         sum(v[1] for v in per_sub_solves.values())), "1"),
        "radial.solves_per_item.scatter": (per_item("scatter"), "1"),
        "radial.solves_per_item.dwell": (per_item("dwell"), "1"),
        "radial.solves_per_item.winful1d": (per_item("winful1d"), "1"),
        "times.phase_time_delay.calls": (calls.get("times.phase_time_delay", 0), "count"),
        "times.phase_time_delay.self_s": (self_s.get("times.phase_time_delay", 0.0), "s"),
        "times.phase_time_delay.retries": (counts.get("times.phase_time_delay.retries", 0), "count"),
        "times.dwell_time.self_s": (self_s.get("times.dwell_time", 0.0), "s"),
        "times.winful_decomposition_1d.self_s": (self_s.get("times.winful_decomposition_1d", 0.0), "s"),
        "times.identities.self_s": (group(spans.IDENTITIES), "s"),
        "resonance.kp_residual.calls": (calls.get("resonance.kp_residual", 0), "count"),
        "resonance.residuals_per_seed": (ratio(calls.get("resonance.kp_residual", 0), seeds), "1"),
        "resonance.seed_yield": (ratio(counts.get("resonance.eigenpairs", 0), seeds), "1"),
        "resonance.find_kp_eigenvalues.self_s": (self_s.get("resonance.find_kp_eigenvalues", 0.0), "s"),
        "resonance.scan_resonance_seeds.self_s": (self_s.get("resonance.scan_resonance_seeds", 0.0), "s"),
        "threebody.continuity_residual.self_s": (self_s.get("threebody.continuity_residual", 0.0), "s"),
        "threebody.factorization_residual.self_s": (self_s.get("threebody.factorization_residual", 0.0), "s"),
        "threebody.peak_alloc_mb": (counts.get("threebody.peak_alloc_bytes", 0) / 2**20, "MB"),
        "scenarios.write.self_s": (group(spans.WRITERS), "s"),
        "scenarios.bytes_written": (counts.get("scenarios.bytes_written", 0), "bytes"),
        "scenarios.run_scenario.self_s": (self_s.get("scenarios.run_scenario", 0.0), "s"),
        "cli.main.self_s": (self_s.get("cli.main", 0.0), "s"),
        "trace.spans": (tr["spans"], "count"),
        "trace.overhead_s": (tr["spans"] * tr["span_cost_s"], "s"),
        "trace.unattributed_s": (latency - tr["root_s"], "s"),
    }
    for h, name in ((1e-3, "h1e-3"), (5e-4, "h5e-4"), (1e-4, "h1e-4"), (5e-5, "h5e-5")):
        m[f"radial.delta_err.{name}"] = (delta_err.get(h, 0.0), "rad")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.CYCLES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, args.trace)
    except (FileNotFoundError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    report = out.pop("report")
    print("environment: " + json.dumps(report["environment"]))
    jobs = report["jobs"]
    print(f"jobs: {jobs['attempted']} attempted, {jobs['failed']} failed "
          f"(error_rate {jobs['error_rate']:.4g}); job_s_tail is p{report['job_s_tail']['percentile']} "
          f"of {report['job_s_tail']['samples']} jobs")
    for job_id, why in jobs["failures"]:
        print(f"failed: {job_id}: {why}")
    for name, cmp in report.get("reference_comparison", {}).items():
        print(f"vs ROADMAP: {name} measured {cmp['measured']:.3g}, hand-measured {cmp['roadmap']:.3g}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
