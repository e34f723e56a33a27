"""Closed-loop job runner: one client, one process, one job at a time.

Run by ``run.py`` in a fresh interpreter so that its peak resident memory
belongs to the jobs alone.  It imports the package from the checkout's
``src``, runs the CLI in-process (``dwelltime.cli.main(argv)``) on one
warm-up job and then on the manifest's jobs until ``--seconds`` have
passed, reruns the first completed job of each subcommand to check
byte-identical output, and writes a JSON record for ``run.py``.

Usage: python3 bench/worker.py MANIFEST RESULT --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _import_package(src: Path):
    sys.path.insert(0, str(src))
    import dwelltime
    import dwelltime.cli
    if Path(dwelltime.__file__).resolve().parent != (src / "dwelltime").resolve():
        raise SystemExit(f"dwelltime imported from {dwelltime.__file__}, not from {src}")
    return dwelltime.cli


def _run_job(cli, job: dict, out_dir: Path) -> tuple[int | str, float, str]:
    """(exit status, latency, printed output) of one in-process CLI call."""
    argv = list(job["argv"]) + ["--out", str(out_dir)]
    printed = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(printed):
            status = cli.main(argv)
    except SystemExit as exc:  # argparse rejected the command line
        status = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # noqa: BLE001 - a crash is a failed job, recorded with its traceback
        status = "exception: " + traceback.format_exc(limit=3)
    return status, time.perf_counter() - t0, printed.getvalue()


def _result_files(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())
            if p.is_file() and not p.name.endswith(".meta.json")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("manifest")
    parser.add_argument("result")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--max-jobs", type=int, default=None)
    args = parser.parse_args(argv)

    manifest = json.loads(Path(args.manifest).read_text())
    run_dir = Path(args.manifest).parent
    cli = _import_package(Path(manifest["src"]))

    tracer = None
    if args.trace:
        import spans
        tracer = spans.install()

    warmup, jobs = manifest["jobs"][0], manifest["jobs"][1:]
    _run_job(cli, warmup, run_dir / "warmup")

    records = []
    loop_start = time.perf_counter()
    i = 0
    while time.perf_counter() - loop_start < args.seconds:
        if args.max_jobs is not None and i >= args.max_jobs:
            break
        job = jobs[i % len(jobs)]
        # a pool shorter than the run repeats, into fresh output directories
        out_dir = run_dir / "jobs" / f"{job['id']}.{i // len(jobs)}"
        solves_before = tracer.counts["solves"] if tracer else 0
        if tracer:
            tracer.job = i
        status, latency, printed = _run_job(cli, job, out_dir)
        if tracer:
            tracer.job = -1
        records.append({"index": i, "id": job["id"], "out": str(out_dir), "status": status,
                        "latency_s": latency, "message": printed[-300:] if status else "",
                        "solves": (tracer.counts["solves"] - solves_before) if tracer else None})
        i += 1
    loop_s = time.perf_counter() - loop_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # determinism: rerun the first successful job of each subcommand
    reruns = {}
    for rec in records:
        sub = jobs[rec["index"] % len(jobs)]["sub"]
        if sub in reruns or rec["status"] != 0:
            continue
        job = jobs[rec["index"] % len(jobs)]
        rerun_dir = run_dir / "rerun" / job["id"]
        status, _, _ = _run_job(cli, job, rerun_dir)
        same = status == 0 and _result_files(rerun_dir) == _result_files(Path(rec["out"]))
        reruns[sub] = {"index": rec["index"], "identical": same}

    result = {"records": records, "loop_s": loop_s, "peak_rss_mb": peak_rss_mb,
              "reruns": reruns, "pool_size": len(jobs)}
    if tracer:
        result["trace"] = {
            "self_s": dict(tracer.self_s), "total_s": dict(tracer.total_s),
            "calls": dict(tracer.calls), "counts": dict(tracer.counts),
            "solve_us": {str(n): v for n, v in tracer.solve_us.items()},
            "root_s": tracer.root_s, "spans": tracer.span_count(),
        }
        tracer.dump(run_dir / "spans.npz")
        import spans
        result["trace"]["span_cost_s"] = spans.calibrate()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
