"""Scenario execution: config ingestion, runners, deterministic output files.

A scenario is one JSON document naming what to compute.  Result files are
written atomically (temp file + rename), contain no timestamps, and format
every number with 17 significant digits, so identical configs produce
byte-identical outputs.  Run metadata (timing, versions) goes to a
``<output>.meta.json`` sidecar that is allowed to differ between runs.

Exit status convention: 0 success, 1 configuration error, 2 physics-level
failure (non-convergence, failed identity check).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigurationError,
    DwellTimeError,
    SubsystemConvergenceError,
)
from .potentials import PotentialSpec
from .radial import (
    BarrierOperator,
    RadialGrid,
    RadialOperator,
    match_scattering,
    phase_shift_scan,
)
from .resonance import (
    find_kp_eigenvalues,
    scan_resonance_seeds,
    verify_width_dwell,
)
from .threebody import (
    build_three_body,
    continuity_residual,
    solve_subsystems,
    three_body_dwell,
)
from .times import (
    DEFAULT_E_MIN,
    TimeReport,
    dwell_time,
    kp_log_derivative_dwell,
    outgoing_dwell_equals_phase,
    phase_time_delay,
    smith_identity_residual,
    tangent_phase_delay,
    time_scan,
    winful_decomposition_1d,
)

# Pass thresholds of the identity suite (verify).  They are pinned here:
# a config cannot loosen a check.
TOLERANCES = {
    "free_anchor": 1e-8,
    "phase_zero": 1e-10,
    "unitarity": 1e-10,
    "matching_radius": 1e-9,
    "log_derivative": 1e-6,
    "outgoing": 1e-6,
    "tangent_stencil": 1e-6,
    "smith": 1e-5,
    # finite-step order estimates oscillate a few percent around the limit,
    # so the second-order check passes at 1.9 rather than a literal 2.0
    "smith_order": 1.9,
    "winful": 1e-6,
    "flux": 1e-10,
    "width_dwell": 1e-8,
    "width_dwell_refinement": 8.0,
    "reciprocal_sum": 1e-8,
    "lifetime_match": 1e-8,
    "factorization": 1e-9,
    "continuity": 1e-8,
    "continuity_order": 4.0,
}

# relative energy step of the identity checks' finite differences: the flat
# part of the noise/truncation trade-off (the scans differentiate by the
# energy-tangent solve instead)
IDENTITY_REL_STEP = 1e-3


@dataclass(frozen=True)
class Numerics:
    """The numerics a config may set (``numerics`` block); the rest are library defaults.

    ``k_fixed`` is set exactly when ``k_mode`` is ``"probe"``.
    """

    grid_spacing: float = 1e-3
    k_mode: str = "self_consistent"
    k_fixed: float | None = None


# ---------------------------------------------------------------------------
# config parsing

def _is_number(x) -> bool:
    """A JSON number; ``true`` and ``false`` are not, although bool subclasses int."""
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _expect(obj: dict, key: str, kinds, context: str, required: bool = True, default=None):
    if key not in obj:
        if required:
            raise ConfigurationError(f"{context}: missing key '{key}'")
        return default
    value = obj[key]
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    numeric = int in kinds or float in kinds
    if not isinstance(value, kinds) or (numeric and not _is_number(value)):
        raise ConfigurationError(
            f"{context}.{key}: expected {'/'.join(k.__name__ for k in kinds)}, "
            f"got {type(value).__name__}"
        )
    return value


class _NonFinite(str):
    """A JSON number token with no finite double value, kept until its key is known."""


def _key_path(obj, target, where: str) -> str | None:
    """Key path of ``target`` (found by identity) inside ``obj``, below ``where``."""
    if obj is target:
        return where
    if isinstance(obj, dict):
        items = ((f"{where}.{key}" if where else key, value) for key, value in obj.items())
    elif isinstance(obj, list):
        items = ((f"{where}[{i}]", value) for i, value in enumerate(obj))
    else:
        return None
    for sub, value in items:
        found = _key_path(value, target, sub)
        if found is not None:
            return found
    return None


def load_config(path) -> dict:
    """Parse a config file; every JSON number in it must be a finite double.

    Python's ``json`` reads ``NaN``, ``Infinity`` and ``-Infinity``, turns
    ``1e999`` into inf and keeps integers too large for a float; each is
    rejected here, naming its token and key path.
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    non_finite = []

    def reject(token: str) -> _NonFinite:
        non_finite.append(_NonFinite(token))
        return non_finite[-1]

    def real(token: str):
        value = float(token)
        return value if math.isfinite(value) else reject(token)

    def integer(token: str):
        try:
            value = int(token)
        except ValueError:  # more digits than the interpreter converts
            return reject(token)
        return value if abs(value) <= sys.float_info.max else reject(token)

    try:
        obj = json.loads(path.read_text(encoding="utf-8"),
                         parse_constant=reject, parse_float=real, parse_int=integer)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config {path}: invalid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ConfigurationError(f"config {path}: expected a JSON object at top level")
    if non_finite:
        token = non_finite[0]
        scenario = obj.get("scenario")
        where = _key_path(obj, token, scenario if isinstance(scenario, str) else "")
        shown = token if len(token) <= 24 else f"{token[:12]}... ({len(token)} characters)"
        raise ConfigurationError(f"config {path}: {where}: {shown} is not a finite double")
    return obj


def parse_numerics(obj: dict | None) -> Numerics:
    if obj is None:
        return Numerics()
    if not isinstance(obj, dict):
        raise ConfigurationError(f"numerics: expected object, got {type(obj).__name__}")
    for key in obj:
        if key not in ("grid_spacing", "k_mode", "k_fixed"):
            raise ConfigurationError(
                f"numerics.{key}: unknown key (expected grid_spacing, k_mode, k_fixed)")
    spacing = _expect(obj, "grid_spacing", (int, float), "numerics", False, Numerics.grid_spacing)
    if not 0.0 < spacing < math.inf:
        raise ConfigurationError("numerics.grid_spacing: must be positive and finite")
    mode = _expect(obj, "k_mode", str, "numerics", False, Numerics.k_mode)
    if mode not in ("self_consistent", "probe"):
        raise ConfigurationError("numerics.k_mode: expected 'self_consistent' or 'probe'")
    k_fixed = _expect(obj, "k_fixed", (int, float), "numerics", False)
    if (mode == "probe") != (k_fixed is not None):
        raise ConfigurationError("numerics.k_fixed: required with k_mode 'probe', "
                                 "and only allowed with it")
    return Numerics(float(spacing), mode, None if k_fixed is None else float(k_fixed))


def _parse_energy_range(obj: dict, context: str) -> np.ndarray:
    rng = _expect(obj, "energy_range", list, context)
    if len(rng) != 3 or not all(_is_number(x) for x in rng) or not isinstance(rng[2], int):
        raise ConfigurationError(
            f"{context}.energy_range: expected [E_lo, E_hi, n_points], n_points an integer")
    lo, hi, n = float(rng[0]), float(rng[1]), rng[2]
    if not (0.0 < lo < hi < math.inf) or n < 2:
        raise ConfigurationError(f"{context}.energy_range: need 0 < E_lo < E_hi and n >= 2")
    return np.linspace(lo, hi, n)


def _parse_seeds(obj: dict, key: str, context: str):
    if key not in obj:
        return None
    raw = _expect(obj, key, list, context)
    seeds = []
    for i, pair in enumerate(raw):
        if (not isinstance(pair, list)) or len(pair) != 2 \
                or not all(_is_number(x) for x in pair):
            raise ConfigurationError(f"{context}.{key}[{i}]: expected [Re W, Im W]")
        seeds.append(complex(pair[0], pair[1]))
    return seeds


def _parse_seed_scan(obj: dict, context: str):
    """``(e_range, n_scan)`` of the config's ``seed_scan``, or None without one."""
    if "seed_scan" not in obj:
        return None
    scan = _expect(obj, "seed_scan", dict, context)
    context += ".seed_scan"
    rng = _expect(scan, "energy_range", list, context)
    if len(rng) != 2 or not all(_is_number(x) for x in rng) \
            or not 0.0 < rng[0] < rng[1] < math.inf:
        raise ConfigurationError(f"{context}.energy_range: expected [E_lo, E_hi] with 0 < E_lo < E_hi")
    n_scan = _expect(scan, "n_scan", int, context)
    if n_scan < 3:
        raise ConfigurationError(f"{context}.n_scan: expected an integer >= 3")
    return (float(rng[0]), float(rng[1])), n_scan


def _parse_potential(obj: dict, context: str, key: str = "potential") -> PotentialSpec:
    raw = _expect(obj, key, dict, context)
    try:
        return PotentialSpec.from_dict(raw)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{context}.{key}: {exc}") from exc


# ---------------------------------------------------------------------------
# deterministic writers

def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text, encoding="utf-8", newline="\n")
    os.replace(tmp, path)


def write_csv(path: Path, header: list[str], rows) -> None:
    # Python floats (rows from an array's .tolist()) skip _fmt's type
    # dispatch; format(x, ".17g") is what _fmt writes for them
    lines = [",".join(header)]
    lines.extend(",".join([format(cell, ".17g") if type(cell) is float else _fmt(cell) for cell in row])
                 for row in rows)
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_json(path: Path, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_sidecar(path: Path, config: dict, elapsed: float) -> None:
    meta = {
        "package_version": __version__,
        "elapsed_seconds": elapsed,
        "config_echo": config,
    }
    atomic_write_text(Path(str(path) + ".meta.json"), json.dumps(meta, indent=2, sort_keys=True) + "\n")


def _out_path(config: dict, out_dir, default_name: str) -> Path:
    output = config.get("output", {})
    if not isinstance(output, dict):
        raise ConfigurationError(f"output: expected object, got {type(output).__name__}")
    name = output.get("path", default_name)
    if not isinstance(name, str):
        raise ConfigurationError(f"output.path: expected string, got {type(name).__name__}")
    fmt = output.get("format")
    written = Path(default_name).suffix[1:]
    if fmt is not None and fmt != written:
        raise ConfigurationError(f"output.format: this scenario writes {written}, got {fmt!r}")
    path = Path(name)
    if out_dir is not None and not path.is_absolute():
        path = Path(out_dir) / path
    return path


_TIME_COLUMNS = ["E", "tau_dwell", "tau_phase", "tau_free", "dwell_delay",
                 "phase_delay", "self_interference", "flags"]


def _time_report_row(rep: TimeReport) -> list:
    return [rep.energy, rep.tau_dwell, rep.tau_phase, rep.tau_free,
            rep.dwell_delay, rep.phase_delay, rep.self_interference,
            ";".join(rep.flags)]


def write_wave_csvs(nodes: np.ndarray, files) -> None:
    """Dumped wave functions on one grid as (r, Re phi, Im phi) rows: the bytes of :func:`write_csv`.

    ``files`` is a list of ``(path, values)`` pairs, ``values`` on ``nodes``.
    The r column is formatted once and spliced into a row template; each
    file is then one %-format of its phi cells ("%.17g" % x equals
    format(x, ".17g") for every float).  A file whose imaginary part is
    all +0.0 formats its real column only, with the literal "0" that
    format(0.0, ".17g") writes; a -0.0 or nan there takes the full template.
    """
    r = [format(x, ".17g") for x in nodes.tolist()]
    real_rows = ",%.17g,0\n".join(r) + ",%.17g,0\n"
    complex_rows = ",%.17g,%.17g\n".join(r) + ",%.17g,%.17g\n"
    for path, values in files:
        imag = values.imag
        if not imag.any() and not np.signbit(imag).any():
            body = real_rows % tuple(values.real.tolist())
        else:
            body = complex_rows % tuple(np.column_stack((values.real, imag)).ravel().tolist())
        atomic_write_text(path, "r,re_phi,im_phi\n" + body)


def write_wave_csv(path: Path, nodes: np.ndarray, values: np.ndarray) -> None:
    """One dumped wave function: :func:`write_wave_csvs` for a single file."""
    write_wave_csvs(nodes, [(path, values)])


# ---------------------------------------------------------------------------
# scenario runners: (config, out_dir, dump) -> (written files, exit status)

def run_scatter_scan(config: dict, out_dir=None, dump=False) -> tuple[list[Path], int]:
    potential = _parse_potential(config, "scatter_scan")
    mass = float(_expect(config, "mass", (int, float), "scatter_scan"))
    energies = _parse_energy_range(config, "scatter_scan")
    num = parse_numerics(config.get("numerics"))
    r0 = float(_expect(config, "r0", (int, float), "scatter_scan", False, potential.support_radius))
    path = _out_path(config, out_dir, "scatter.csv")

    wavefunctions = [] if dump else None
    deltas, obs = phase_shift_scan(potential, energies, mass, r0=r0, spacing=num.grid_spacing,
                                   wavefunctions=wavefunctions)
    rows = [
        [e, o.k, d, o.s_amp.real, o.s_amp.imag, o.i_amp.real, o.i_amp.imag, o.unitarity_residual]
        for e, d, o in zip(energies, deltas, obs)
    ]
    write_csv(path, ["E", "k", "delta", "re_S", "im_S", "re_I", "im_I", "unitarity_residual"], rows)
    written = [path]
    if dump:
        dumps = [(path.with_name(f"{path.stem}_wavefunction_{idx:04d}.csv"), values)
                 for idx, values in enumerate(wavefunctions)]
        write_wave_csvs(RadialGrid.from_spacing(r0, num.grid_spacing).nodes(), dumps)
        written.extend(wf_path for wf_path, _ in dumps)
    print(f"[scatter_scan] {len(energies)} energies, max |delta| = "
          f"{max(abs(d) for d in deltas):.6g} -> {path}")
    return written, 0


def run_dwell_scan(config: dict, out_dir=None, dump=False) -> tuple[list[Path], int]:
    potential = _parse_potential(config, "dwell_scan")
    mass = float(_expect(config, "mass", (int, float), "dwell_scan"))
    energies = _parse_energy_range(config, "dwell_scan")
    num = parse_numerics(config.get("numerics"))
    r0 = float(_expect(config, "r0", (int, float), "dwell_scan", False, potential.support_radius))
    path = _out_path(config, out_dir, "dwell.csv")

    reports = time_scan(potential, mass, energies, r0, spacing=num.grid_spacing)
    write_csv(path, _TIME_COLUMNS, [_time_report_row(r) for r in reports])
    print(f"[dwell_scan] {len(reports)} energies on [0, {r0}] -> {path}")
    return [path], 0


def run_winful_1d(config: dict, out_dir=None, dump=False) -> tuple[list[Path], int]:
    potential = _parse_potential(config, "winful_1d")
    mass = float(_expect(config, "mass", (int, float), "winful_1d"))
    energies = _parse_energy_range(config, "winful_1d")
    num = parse_numerics(config.get("numerics"))
    path = _out_path(config, out_dir, "winful.csv")

    operator = BarrierOperator(potential, mass,
                               RadialGrid.from_spacing(potential.support_radius, num.grid_spacing))
    reports = [winful_decomposition_1d(operator.solve(float(e), tangent=True)) for e in energies]
    write_csv(path, _TIME_COLUMNS, [_time_report_row(r) for r in reports])
    flagged = sum(1 for r in reports if "threshold_singular" in r.flags)
    print(f"[winful_1d] {len(reports)} energies ({flagged} threshold-flagged) -> {path}")
    return [path], 0


def _eigenpair_payload(pair) -> dict:
    rep = verify_width_dwell(pair)
    return {
        "E_R": pair.w.real,
        "Gamma": pair.gamma,
        "k_fixed": pair.k_fixed,
        "residual": pair.residual_norm,
        "eq10_relative_residual": rep.relative_residual,
    }


def run_kp_find(config: dict, out_dir=None, dump=False) -> tuple[list[Path], int]:
    num = parse_numerics(config.get("numerics"))
    potential = _parse_potential(config, "kp_find")
    mass = float(_expect(config, "mass", (int, float), "kp_find"))
    r0 = float(_expect(config, "r0", (int, float), "kp_find", False, potential.support_radius))
    seeds = _parse_seeds(config, "seeds", "kp_find") or []
    scan = _parse_seed_scan(config, "kp_find")
    path = _out_path(config, out_dir, "kp.json")

    if scan is not None:
        seeds += scan_resonance_seeds(potential, mass, *scan, spacing=num.grid_spacing)
    if not seeds:
        raise SubsystemConvergenceError("kp", "no resonance seeds found")
    result = find_kp_eigenvalues(potential, mass, seeds, r0, k_fixed=num.k_fixed,
                                 spacing=num.grid_spacing)
    if not result.eigenpairs:
        raise SubsystemConvergenceError(
            "kp", "no eigenvalue converged: " + "; ".join(f.reason for f in result.failures))
    payload = {
        "eigenpairs": [_eigenpair_payload(p) for p in result.eigenpairs],
        "failed_seeds": [
            {"seed": [f.seed.real, f.seed.imag], "reason": f.reason}
            for f in result.failures
        ],
    }
    write_json(path, payload)
    written = [path]
    if dump:
        # every eigenpair comes from one operator, so they share its grid
        dumps = [(path.with_name(f"{path.stem}_eigenfunction_{idx:04d}.csv"),
                  pair.eigenfunction.values) for idx, pair in enumerate(result.eigenpairs)]
        write_wave_csvs(result.eigenpairs[0].eigenfunction.grid.nodes(), dumps)
        written.extend(ef_path for ef_path, _ in dumps)
    print(f"[kp_find] {len(result.eigenpairs)} eigenpair(s), "
          f"{len(result.failures)} failed seed(s) -> {path}")
    return written, 0


def _three_body_from_config(config: dict, num: Numerics, context: str = "three_body"):
    masses = _expect(config, "masses", list, context)
    if len(masses) != 3 or not all(_is_number(m) for m in masses):
        raise ConfigurationError(f"{context}.masses: expected [m1, m2, m3]")
    v_r = _parse_potential(config, context, "potential_r")
    v_rho = _parse_potential(config, context, "potential_rho")
    r_chi = float(_expect(config, "r_chi", (int, float), context))
    rho_phi = float(_expect(config, "rho_phi", (int, float), context))
    model = build_three_body(masses, v_r, v_rho, r_chi, rho_phi)
    scan = _parse_seed_scan(config, context)

    def channel_seeds(key: str, pot, mu):
        explicit = _parse_seeds(config, key, context)
        if explicit:
            return explicit
        if scan is None:
            raise ConfigurationError(f"{context}: need '{key}' or 'seed_scan'")
        return scan_resonance_seeds(pot, mu, *scan, spacing=num.grid_spacing)

    seeds_r = channel_seeds("seeds_r", model.v_r, model.mu1)
    seeds_rho = channel_seeds("seeds_rho", model.v_rho, model.mu2)
    eig_r, eig_rho = solve_subsystems(
        model, seeds_r, seeds_rho, k_mode=num.k_mode,
        k_fixed_r=num.k_fixed, k_fixed_rho=num.k_fixed, spacing=num.grid_spacing)
    return model, eig_r, eig_rho


def run_three_body(config: dict, out_dir=None, dump=False) -> tuple[list[Path], int]:
    num = parse_numerics(config.get("numerics"))
    path = _out_path(config, out_dir, "threebody.json")
    model, eig_r, eig_rho = _three_body_from_config(config, num)
    report = three_body_dwell(model, eig_r, eig_rho)
    write_json(path, report.to_dict())
    print(f"[three_body] tau_3b = {report.tau_3b:.9g}, tau_R = {report.tau_r:.9g}, "
          f"identity residual {report.identity_residual:.3e} -> {path}")
    return [path], 0


# ---------------------------------------------------------------------------
# identity suite (verify)

@dataclass
class CheckResult:
    name: str
    value: float
    tolerance: float
    passed: bool
    comparison: str = "le"  # how value relates to tolerance on success
    skipped: str | None = None

    def payload(self) -> dict:
        if self.skipped is not None:
            return {"skipped": self.skipped}
        return {"value": self.value, "tolerance": self.tolerance,
                "comparison": self.comparison, "pass": bool(self.passed)}


def _check_le(name, value, tol) -> CheckResult:
    return CheckResult(name, float(value), float(tol), bool(value <= tol), "le")


def _check_ge(name, value, tol) -> CheckResult:
    return CheckResult(name, float(value), float(tol), bool(value >= tol), "ge")


def _radial_checks(model_cfg: dict, num: Numerics) -> list[CheckResult]:
    potential = _parse_potential(model_cfg, "models.radial")
    mass = float(_expect(model_cfg, "mass", (int, float), "models.radial"))
    energies = _parse_energy_range(model_cfg, "models.radial")
    r0 = float(_expect(model_cfg, "r0", (int, float), "models.radial", False,
                       2.0 * potential.support_radius))
    tol = TOLERANCES
    out: list[CheckResult] = []

    # free anchor: a flat zero barrier of the same extent must give tau = L/v
    free = PotentialSpec("rectangular_barrier_1d", {"V0": 0.0, "L": r0})
    free_operator = BarrierOperator(free, mass, RadialGrid.from_spacing(r0, num.grid_spacing))
    checks = []
    for e in (float(energies[0]), float(energies[-1])):
        sol = free_operator.solve(e)
        tau = dwell_time(sol, (0.0, r0), sol.incident_flux).value
        checks.append(abs(tau * sol.k / (mass * r0) - 1.0))
    out.append(_check_le("free_dwell_anchor", max(checks), tol["free_anchor"]))

    deltas, obs = phase_shift_scan(potential, energies, mass, r0=r0, spacing=num.grid_spacing)
    if potential.is_free():
        out.append(_check_le("phase_shift_zero", float(np.max(np.abs(deltas))), tol["phase_zero"]))
    out.append(_check_le("unitarity_scan",
                         max(o.unitarity_residual for o in obs), tol["unitarity"]))

    support = potential.support_radius
    operator = RadialOperator(potential, mass, RadialGrid.from_spacing(r0, num.grid_spacing))
    mismatch = 0.0
    for e in energies[:: max(1, len(energies) // 4)]:
        sol = operator.solve(float(e))
        d_in = match_scattering(sol, support).delta
        d_out = match_scattering(sol, r0).delta
        diff = abs(d_in - d_out)
        mismatch = max(mismatch, min(diff, abs(diff - math.pi)))
    out.append(_check_le("matching_radius_independence", mismatch, tol["matching_radius"]))

    rel = IDENTITY_REL_STEP
    worst_ld = 0.0
    worst_og = 0.0
    worst_tangent = 0.0
    # the scans' tangent delay against the independent stencil, on its grid
    support_operator = RadialOperator(potential, mass,
                                      RadialGrid.from_spacing(support, num.grid_spacing))
    for e in energies[:: max(1, len(energies) // 8)]:
        e = float(e)
        ld = kp_log_derivative_dwell(potential, e, mass, r0=support, rel_step=rel,
                                     spacing=num.grid_spacing)
        pd = phase_time_delay(potential, e, mass, r0=support, rel_step=rel,
                              spacing=num.grid_spacing)
        tau0 = mass * support / math.sqrt(2.0 * mass * e)
        worst_ld = max(worst_ld, abs(ld.value - (pd + tau0)))
        td = tangent_phase_delay(support_operator.solve(e, tangent=True))
        worst_tangent = max(worst_tangent, abs(td - pd))
        og = outgoing_dwell_equals_phase(potential, e, mass, r0=support, rel_step=rel,
                                         spacing=num.grid_spacing)
        worst_og = max(worst_og, abs(og.difference))
    out.append(_check_le("log_derivative_dwell_identity", worst_ld, tol["log_derivative"]))
    out.append(_check_le("outgoing_dwell_equals_phase", worst_og, tol["outgoing"]))
    out.append(_check_le("tangent_delay_vs_stencil", worst_tangent, tol["tangent_stencil"]))

    e_mid = float(energies[len(energies) // 2])
    smith = smith_identity_residual(potential, e_mid, mass, spacing=1e-3, rel_step=1e-4)
    out.append(_check_le("smith_residual_max", smith.max_norm, tol["smith"]))
    coarse = smith_identity_residual(potential, e_mid, mass, spacing=1e-3, rel_step=8e-3)
    fine = smith_identity_residual(potential, e_mid, mass, spacing=1e-3, rel_step=4e-3)
    order = math.log2(coarse.max_norm / fine.max_norm) if fine.max_norm > 0 else math.inf
    out.append(_check_ge("smith_residual_order", order, tol["smith_order"]))

    if potential.is_free():
        out.append(CheckResult("width_dwell_identity", 0.0, tol["width_dwell"], True,
                               skipped="not applicable: free potential has no resonances"))
        out.append(CheckResult("width_dwell_refinement", 0.0, tol["width_dwell_refinement"],
                               True, skipped="not applicable: free potential has no resonances"))
        return out

    kp_r0 = float(_expect(model_cfg, "kp_r0", (int, float), "models.radial", False, support))
    seeds = _parse_seeds(model_cfg, "kp_seeds", "models.radial") or []
    seeds += scan_resonance_seeds(potential, mass, (float(energies[0]), float(energies[-1])),
                                  max(20, len(energies)), spacing=num.grid_spacing)
    if not seeds:
        reason = "no resonance seeds located in the scan range"
        out.append(CheckResult("width_dwell_identity", 0.0, tol["width_dwell"], True,
                               skipped=reason))
        out.append(CheckResult("width_dwell_refinement", 0.0,
                               tol["width_dwell_refinement"], True, skipped=reason))
        return out
    found = find_kp_eigenvalues(potential, mass, seeds, kp_r0,
                                spacing=num.grid_spacing)
    if not found.eigenpairs:
        out.append(CheckResult("width_dwell_identity", math.inf, tol["width_dwell"], False))
        return out
    residuals = [verify_width_dwell(p).relative_residual for p in found.eigenpairs]
    out.append(_check_le("width_dwell_identity", max(residuals), tol["width_dwell"]))

    pair = found.eigenpairs[0]
    coarse_res = verify_width_dwell(pair).relative_residual
    refined = find_kp_eigenvalues(potential, mass, [pair.w], kp_r0,
                                  spacing=num.grid_spacing / 2.0)
    if refined.eigenpairs:
        fine_res = verify_width_dwell(refined.eigenpairs[0]).relative_residual
        ratio = coarse_res / fine_res if fine_res > 0 else math.inf
        out.append(_check_ge("width_dwell_refinement", ratio, tol["width_dwell_refinement"]))
    else:
        out.append(CheckResult("width_dwell_refinement", math.nan,
                               tol["width_dwell_refinement"], False))
    return out


def _barrier_checks(model_cfg: dict, num: Numerics) -> list[CheckResult]:
    potential = _parse_potential(model_cfg, "models.barrier")
    mass = float(_expect(model_cfg, "mass", (int, float), "models.barrier"))
    energies = _parse_energy_range(model_cfg, "models.barrier")
    tol = TOLERANCES
    out: list[CheckResult] = []

    operator = BarrierOperator(potential, mass,
                               RadialGrid.from_spacing(potential.support_radius, num.grid_spacing))
    results = []
    for e in energies[energies >= DEFAULT_E_MIN]:
        barrier = operator.solve(float(e), tangent=True)
        rep = winful_decomposition_1d(barrier, tol=tol["winful"])
        results.append((barrier.flux_residual, rep))
    out.append(_check_le("flux_conservation", max(r[0] for r in results), tol["flux"]))
    out.append(_check_le("winful_identity",
                         max(abs(r[1].winful_residual) for r in results), tol["winful"]))

    low = operator.solve(0.01, tangent=True)
    low_rep = winful_decomposition_1d(low, tol=tol["winful"])
    flagged = 1.0 if "threshold_singular" in low_rep.flags else 0.0
    out.append(_check_ge("winful_threshold_flag", flagged, 1.0))
    return out


def _three_body_checks(model_cfg: dict, num: Numerics) -> list[CheckResult]:
    tol = TOLERANCES
    model, eig_r, eig_rho = _three_body_from_config(model_cfg, num, context="models.three_body")
    report = three_body_dwell(model, eig_r, eig_rho,
                              factorization_tol=tol["factorization"],
                              lifetime_tol=tol["lifetime_match"])
    out = [
        _check_le("threebody_reciprocal_sum", report.identity_residual, tol["reciprocal_sum"]),
        _check_le("threebody_lifetime_match",
                  abs(report.tau_3b * report.gamma_r - 1.0), tol["lifetime_match"]),
        _check_le("threebody_factorization", report.factorization_residual,
                  tol["factorization"]),
    ]
    swapped = three_body_dwell(model, eig_rho, eig_r,
                               factorization_tol=tol["factorization"],
                               lifetime_tol=tol["lifetime_match"])
    out.append(_check_le("threebody_exchange_symmetry",
                         abs(swapped.tau_3b - report.tau_3b), 0.0 + 1e-300))
    margin = report.tau_3b / min(report.tau_chi, report.tau_phi_sub)
    out.append(CheckResult("threebody_monotonicity", margin, 1.0, margin < 1.0, "lt"))

    cont = continuity_residual(eig_r, eig_rho)
    out.append(_check_le("continuity_integrated",
                         max(cont.integrated_residual_r, cont.integrated_residual_rho),
                         tol["continuity"]))
    coarse = 2.0 * num.grid_spacing
    # the radial solver rejects a jump of V off the nodes of the coarse grid
    if any(RadialGrid.from_spacing(region, coarse).index_of(radius) is None
           for pot, region in ((model.v_r, model.r_chi), (model.v_rho, model.rho_phi))
           for radius, _, _ in pot.jump_points()):
        out.append(CheckResult("continuity_order", 0.0, tol["continuity_order"], True,
                               skipped=f"a jump of V is off the nodes at spacing {coarse:.12g}"))
        return out
    coarse_r, coarse_rho = solve_subsystems(
        model, [eig_r.w], [eig_rho.w], k_mode=num.k_mode,
        k_fixed_r=num.k_fixed, k_fixed_rho=num.k_fixed, spacing=coarse)
    cont_coarse = continuity_residual(coarse_r, coarse_rho)
    ratio = (cont_coarse.balance_max / cont.balance_max
             if cont.balance_max > 0 else math.inf)
    out.append(_check_ge("continuity_order", ratio, tol["continuity_order"]))
    return out


def run_identity_suite(config: dict, out_dir=None, dump=False) -> tuple[list[Path], int]:
    """Run every applicable identity check against the configured model set."""
    models = _expect(config, "models", dict, "identity_suite")
    num = parse_numerics(config.get("numerics"))
    path = _out_path(config, out_dir, "verify_report.json")

    checks: list[CheckResult] = []
    for key, model_checks in (("radial", _radial_checks), ("barrier", _barrier_checks),
                              ("three_body", _three_body_checks)):
        if key in models:
            checks.extend(model_checks(_expect(models, key, dict, "models"), num))
    if not checks:
        raise ConfigurationError("models: need at least one of 'radial', 'barrier', 'three_body'")

    failed = [c for c in checks if c.skipped is None and not c.passed]
    write_json(path, {c.name: c.payload() for c in checks})
    for c in checks:
        if c.skipped is not None:
            print(f"[verify] {c.name}: SKIPPED ({c.skipped})")
        else:
            rel = {"le": "<=", "ge": ">=", "lt": "<"}[c.comparison]
            print(f"[verify] {c.name}: {'PASS' if c.passed else 'FAIL'} "
                  f"(value {c.value:.6g} {rel} {c.tolerance:.6g})")
    print(f"[verify] {len(checks) - len(failed)}/{len(checks)} checks passed -> {path}")
    return [path], (0 if not failed else 2)


# every scenario a config may name; cli.COMMANDS maps each subcommand to one
RUNNERS = {
    "scatter_scan": run_scatter_scan,
    "dwell_scan": run_dwell_scan,
    "winful_1d": run_winful_1d,
    "kp_find": run_kp_find,
    "three_body": run_three_body,
    "identity_suite": run_identity_suite,
}


def bundled_regression_config() -> Path:
    """Path of the packaged regression model configuration."""
    return Path(resources.files("dwelltime").joinpath("data/regression.json"))


def run_scenario(config_path, out_dir=None, scenario_override: str | None = None,
                 dump: bool = False) -> int:
    """Execute a scenario config; returns the process exit status.

    ``dump`` also writes the runner's per-state files (wave functions for
    ``scatter_scan``, eigenfunctions for ``kp_find``); other runners have none.
    """
    started = time.monotonic()
    try:
        config = load_config(config_path)
        scenario = config.get("scenario", scenario_override)
        if scenario_override is not None and scenario != scenario_override:
            raise ConfigurationError(
                f"config names scenario '{scenario}' but the subcommand expects "
                f"'{scenario_override}'")
        if scenario not in RUNNERS:
            raise ConfigurationError(
                f"scenario: expected one of {', '.join(RUNNERS)}, got {scenario!r}")
        files, status = RUNNERS[scenario](config, out_dir, dump)
        write_sidecar(files[0], config, time.monotonic() - started)
        return status
    except ConfigurationError as exc:
        print(f"error: {exc}")
        return 1
    except DwellTimeError as exc:
        print(f"physics failure: {exc}")
        return 2
