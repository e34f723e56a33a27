"""Smoke test of the benchmark itself.

    python3 bench/selftest.py

Runs one cycle of job classes of every workload, untraced and traced, and
checks that every metric BENCHMARK.json names is printed with its unit and
that the untouched outputs pass.  It then corrupts one phase shift in a
finished ``scatter`` output and checks that the job is counted as failed,
and finally checks that ``run.py`` exits nonzero without printing a result
when the package source is missing.  Exits nonzero on the first problem.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(out: dict, trace: int, workload: str) -> None:
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    expect(got == wanted, f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(wanted))} "
                          "missing, extra or with the wrong unit")
    expect(all(isinstance(m["value"], (int, float)) for m in out["metrics"].values()),
           f"{workload} trace={trace}: non-numeric metric value")


def corrupt_one_phase_shift(records, jobs):
    for rec in records:
        job = jobs[rec["index"] % len(jobs)]
        if job["cls"] == "scatter_well" and rec["status"] == 0:
            path = Path(rec["out"]) / "scatter.csv"
            with path.open(newline="") as fh:
                rows = list(csv.reader(fh))
            rows[1][2] = repr(float(rows[1][2]) + 1e-3)
            with path.open("w", newline="") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
            return
    raise SystemExit("selftest FAILED: no scatter output to corrupt")


def main() -> int:
    for workload, cycle in workloads.CYCLES.items():
        for trace in (0, 1):
            out = run.run(workload, seed=0, seconds=60, trace=trace, max_jobs=len(cycle))
            expect(out["correct"] and out["failed"] == 0,
                   f"{workload} trace={trace}: clean run reported failures "
                   f"{out['report']['jobs']['failures']}")
            check_metrics(out, trace, workload)
            print(f"ok: {workload} trace={trace}, {out['attempted']} jobs")

    out = run.run("scan", seed=0, seconds=60, trace=0, max_jobs=len(workloads.SCAN_CYCLE),
                  tamper=corrupt_one_phase_shift)
    expect(out["failed"] == 1 and out["report"]["jobs"]["error_rate"] > 0 and not out["correct"],
           f"corrupted output not counted: {out['report']['jobs']}")
    print("ok: a corrupted scatter output is counted as a failed job")

    bare = run.ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(SPEC["command"] + ["--workload", "scan", "--seed", "0", "--seconds", "1",
                                             "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"without the package source: exit {proc.returncode}, stdout {proc.stdout!r}")
    print("ok: no package source -> exit status", proc.returncode, "and no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
