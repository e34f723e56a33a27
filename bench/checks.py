"""Output checks: every result file a job wrote, against the oracle.

Each ``check_<subcommand>`` reads one job's output directory and returns a
:class:`Verdict`.  ``errors`` lists each oracle comparison as a relative
error (for ``verify``: each error check's value over its tolerance);
an error above ``TOLERANCE`` of its kind fails the job.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import oracle

# Relative errors a correct output stays within (phase shifts: |delta S| =
# 2|delta delta|).  Times are finite differences of phases at a step of
# 1e-4 E, which turns the ~1e-10 roundoff of a phase into ~1e-6 of a time.
TOLERANCE = {
    "s_matrix": 1e-6,
    "phase_time": 1e-4,
    "barrier_time": 1e-4,
    "kp_eigenvalue": 1e-7,
    "threebody_time": 1e-6,
    "verify_check": 1.0,
}


@dataclass
class Verdict:
    items: int  # items attempted
    verified: int  # items that produced a checked result
    errors: dict[str, list[float]] = field(default_factory=dict)  # kind -> every error
    delta_err: float | None = None  # max |delta - delta_ref| (accuracy-curve jobs)
    problem: str | None = None

    def add(self, kind: str, err: float) -> None:
        self.errors.setdefault(kind, []).append(err)
        if not err <= TOLERANCE[kind] and self.problem is None:
            self.problem = f"{kind} error {err:.3g} > {TOLERANCE[kind]:g}"


def _rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def _energies(cfg: dict) -> list[float]:
    lo, hi, n = cfg["energy_range"]
    return [lo + (hi - lo) * i / (n - 1) for i in range(n)]


def _expect_rows(rows: list[dict], cfg: dict, verdict: Verdict) -> bool:
    energies = _energies(cfg)
    if len(rows) != len(energies) or any(
            abs(float(r["E"]) - e) > 1e-12 * max(1.0, e) for r, e in zip(rows, energies)):
        verdict.problem = "energy column does not match the configured range"
        return False
    for row in rows:
        for key, value in row.items():
            if key != "flags" and not math.isfinite(float(value)):
                verdict.problem = f"non-finite {key}"
                return False
    return True


def check_scatter(job: dict, out: Path) -> Verdict:
    cfg = job["config"]
    verdict = Verdict(items=job["items"], verified=job["items"])
    rows = _rows(out / "scatter.csv")
    if not _expect_rows(rows, cfg, verdict):
        return verdict
    if "--dump-wavefunction" in job["flags"]:
        dumps = sorted(out.glob("scatter_wavefunction_*.csv"))
        if len(dumps) != len(rows):
            verdict.problem = f"{len(dumps)} wave-function dumps for {len(rows)} energies"
            return verdict
    pot = cfg["potential"]
    if pot["kind"] == "square_well":
        v0, a = pot["params"]["V0"], pot["params"]["a"]
        gaps = [oracle.angle_gap(float(row["delta"]),
                                 oracle.square_well_delta(float(row["E"]), cfg["mass"], v0, a))
                for row in rows]
        for gap in gaps:
            verdict.add("s_matrix", 2.0 * gap)
        if job["cls"] == "scatter_curve":
            verdict.delta_err = max(gaps)
    return verdict


def check_dwell(job: dict, out: Path) -> Verdict:
    cfg = job["config"]
    verdict = Verdict(items=job["items"], verified=job["items"])
    rows = _rows(out / "dwell.csv")
    if not _expect_rows(rows, cfg, verdict):
        return verdict
    pot = cfg["potential"]
    if pot["kind"] == "square_well":
        v0, a = pot["params"]["V0"], pot["params"]["a"]
        for row in rows:
            e, tau_free = float(row["E"]), float(row["tau_free"])
            ref = oracle.square_well_delay(e, cfg["mass"], v0, a) + tau_free
            err = abs(float(row["tau_phase"]) - ref) / max(abs(ref), tau_free)
            verdict.add("phase_time", err)
    return verdict


def check_winful1d(job: dict, out: Path) -> Verdict:
    cfg = job["config"]
    verdict = Verdict(items=job["items"], verified=job["items"])
    rows = _rows(out / "winful.csv")
    if not _expect_rows(rows, cfg, verdict):
        return verdict
    pot = cfg["potential"]
    if pot["kind"] == "rectangular_barrier_1d":
        v0, length = pot["params"]["V0"], pot["params"]["L"]
        for row in rows:
            phase, dwell = oracle.barrier_times(float(row["E"]), cfg["mass"], v0, length)
            scale = max(abs(phase), abs(dwell), float(row["tau_free"]))
            verdict.add("barrier_time", abs(float(row["tau_phase"]) - phase) / scale)
            verdict.add("barrier_time", abs(float(row["tau_dwell"]) - dwell) / scale)
    return verdict


def check_kp(job: dict, out: Path) -> Verdict:
    cfg = job["config"]
    num = cfg["numerics"]
    k_fixed = num["k_fixed"] if num["k_mode"] == "probe" else None
    payload = json.loads((out / "kp.json").read_text())
    failed = len(payload["failed_seeds"])
    verdict = Verdict(items=job["items"], verified=job["items"] - failed)
    if not payload["eigenpairs"] or failed > job["items"]:
        verdict.problem = "no eigenpairs in a successful kp result"
        return verdict
    params = cfg["potential"]["params"]
    for pair in payload["eigenpairs"]:
        w = complex(pair["E_R"], -0.5 * pair["Gamma"])
        ref = oracle.kp_eigenvalue(w, cfg["mass"], params["V0"], params["a"], cfg["r0"], k_fixed)
        verdict.add("kp_eigenvalue", abs(w - ref) / abs(ref))
    return verdict


def check_threebody(job: dict, out: Path) -> Verdict:
    cfg = job["config"]
    verdict = Verdict(items=job["items"], verified=job["items"])
    rep = json.loads((out / "threebody.json").read_text())
    m1, m2, m3 = cfg["masses"]
    widths = []
    for key, pot, mu, region in (
            ("W_chi", cfg["potential_r"], m1 * (m2 + m3) / (m1 + m2 + m3), cfg["r_chi"]),
            ("W_phi", cfg["potential_rho"], m2 * m3 / (m2 + m3), cfg["rho_phi"])):
        w = complex(*rep[key])
        ref = oracle.kp_eigenvalue(w, mu, pot["params"]["V0"], pot["params"]["a"], region)
        verdict.add("kp_eigenvalue", abs(w - ref) / abs(ref))
        widths.append(-2.0 * ref.imag)
    for key, ref in (("tau_chi", 1.0 / widths[0]), ("tau_phi", 1.0 / widths[1]),
                     ("tau_3b", 1.0 / sum(widths)), ("tau_R", 1.0 / sum(widths))):
        verdict.add("threebody_time", abs(rep[key] - ref) / ref)
    return verdict


def check_verify(job: dict, out: Path) -> Verdict:
    report = json.loads((out / "verify_report.json").read_text())
    evaluated = {k: v for k, v in report.items() if "skipped" not in v}
    passed = sum(1 for v in evaluated.values() if v["pass"])
    verdict = Verdict(items=len(evaluated), verified=passed)
    if passed != len(evaluated):
        verdict.problem = "a check failed in a successful verify run"
    for check in evaluated.values():
        # error bounds only: order, margin and flag checks are not errors
        if check["comparison"] == "le" and check["tolerance"] > 1e-100:
            verdict.add("verify_check", check["value"] / check["tolerance"])
    return verdict


CHECKS = {"scatter": check_scatter, "dwell": check_dwell, "winful1d": check_winful1d,
          "kp": check_kp, "threebody": check_threebody, "verify": check_verify}


def check(job: dict, out: Path) -> Verdict:
    """Verdict for one completed job; unreadable output is a problem, not a crash."""
    try:
        return CHECKS[job["sub"]](job, out)
    except (OSError, KeyError, ValueError, TypeError, ZeroDivisionError) as exc:
        return Verdict(items=job["items"] or 1, verified=0,
                       problem=f"unreadable output: {type(exc).__name__}: {exc}")
