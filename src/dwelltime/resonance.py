"""Outgoing-boundary (Kapur-Peierls) resonance eigenvalues.

For a potential contained in r < r0 and a FIXED REAL wavenumber k, the
boundary condition

    phi'(r0) - i k phi(r0) = 0,        phi(0) = 0,

selects a discrete set of complex energies W_n = E_n - i Gamma_n / 2 of the
radial equation.  For each converged eigenfunction the exact balance

    Gamma * integral_0^{r0} |phi|^2 dr = j(r0),
    j(r0) = Im(phi* phi') / m,

holds, i.e. the lifetime 1/Gamma equals norm/current -- a dwell time built
from the boundary current.  The numerical residual of that identity
measures pure solver error and shrinks with the integration order.

Two choices of the fixed k are supported: a user-supplied probe value, or
a self-consistent mode that iterates k = sqrt(2 m Re W) to convergence
(the default for characterizing a specific resonance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import simpson_segmented
from .potentials import PotentialSpec
from .radial import RadialGrid, RadialOperator, RadialSolution, auto_grid
from .times import tangent_phase_delay

DEFAULT_ROOT_TOL = 1e-10
MAX_ROOT_ITERATIONS = 50
MAX_K_ITERATIONS = 30
K_SELF_CONSISTENT_TOL = 1e-10
DUPLICATE_TOL = 1e-8


@dataclass(frozen=True)
class ResonanceEigenpair:
    """A converged outgoing-boundary eigenvalue with its normalized eigenfunction.

    ``w`` is the complex energy, ``gamma`` = -2 Im w the width, ``k_fixed``
    the real boundary wavenumber, and the eigenfunction carries unit norm
    on [0, r0].
    """

    w: complex
    gamma: float
    k_fixed: float
    eigenfunction: RadialSolution
    r0: float
    residual_norm: float

    @property
    def mass(self) -> float:
        return self.eigenfunction.mass

    def norm(self) -> float:
        phi2 = np.abs(self.eigenfunction.values) ** 2
        value, _ = simpson_segmented(phi2, self.eigenfunction.grid.spacing,
                                     self.eigenfunction._break_nodes)
        return float(value)

    def boundary_current(self) -> float:
        phi = complex(self.eigenfunction.values[-1])
        dphi = complex(self.eigenfunction.derivative_at_end)
        return float((np.conj(phi) * dphi).imag / self.mass)


@dataclass(frozen=True)
class SeedFailure:
    seed: complex
    reason: str
    final_w: complex | None = None
    final_residual: float | None = None


@dataclass(frozen=True)
class KPSearchResult:
    eigenpairs: tuple[ResonanceEigenpair, ...]
    failures: tuple[SeedFailure, ...]


def kp_residual(operator: RadialOperator, w: complex, k_fixed: float, r0: float) -> complex:
    """Scaled boundary defect D(W) = phi'(r0) - i k phi(r0) at complex energy W.

    One solve of ``operator``, whose grid must have r0 on a node.
    """
    sol = operator.solve(w)
    grid = operator.grid
    i0 = grid.index_of(r0)
    if i0 is None:
        raise DomainError(f"r0 = {r0} is not a grid node")
    phi = complex(sol.values[i0])
    dphi = complex(sol.derivatives[i0]) if i0 < grid.n_points - 1 else complex(sol.derivative_at_end)
    d = dphi - 1j * k_fixed * phi
    scale = max(abs(dphi), k_fixed * abs(phi))
    if scale == 0.0:
        return complex(np.inf)
    return d / scale


def _root_at_fixed_k(operator, k, seed, r0, tol):
    """Complex secant iteration on the scaled boundary defect at fixed k.

    The first step and any degenerate secant step use a finite-difference
    derivative with step 1e-7 |W|.  The best iterate seen is kept: near the
    root the defect sits on the solver's roundoff floor and the iteration
    dithers there, so stagnating steps end the search.
    """
    def f(w):
        return kp_residual(operator, w, k, r0)

    w0 = complex(seed)
    f0 = f(w0)
    if abs(f0) < tol:
        return w0, abs(f0), True
    eps = 1e-7 * max(abs(w0), 1.0)
    df = (f(w0 + eps) - f0) / eps
    if df == 0:
        return w0, abs(f0), False
    w1 = w0 - f0 / df
    f1 = f(w1)
    best_w, best_f = (w0, abs(f0)) if abs(f0) < abs(f1) else (w1, abs(f1))
    stagnant = 0
    for _ in range(MAX_ROOT_ITERATIONS):
        if abs(f1) < best_f:
            best_w, best_f = w1, abs(f1)
        if best_f < tol:
            break
        denom = f1 - f0
        if denom == 0 or w1 == w0:
            eps = 1e-7 * max(abs(w1), 1.0)
            denom = (f(w1 + eps) - f1) / eps
            if denom == 0:
                break
            step = f1 / denom
        else:
            step = f1 * (w1 - w0) / denom
        if abs(step) < 1e-14 * max(abs(w1), 1.0):
            stagnant += 1
            if stagnant >= 2:
                break
        w0, f0 = w1, f1
        w1 = w1 - step
        f1 = f(w1)
    if abs(f1) < best_f:
        best_w, best_f = w1, abs(f1)
    return best_w, best_f, best_f < tol


def find_kp_eigenvalues(potential: PotentialSpec, mass: float, seeds, r0: float,
                        grid: RadialGrid | None = None, k_fixed: float | None = None,
                        spacing: float | None = None,
                        tol: float = DEFAULT_ROOT_TOL) -> KPSearchResult:
    """Converge outgoing-boundary eigenvalues from the given complex seeds.

    ``k_fixed`` selects probe mode; ``None`` (default) iterates the
    self-consistent k = sqrt(2 m Re W).  Non-convergent seeds are reported,
    not raised; converged duplicates are merged; eigenvalues in the upper
    half plane are rejected as growing states.
    """
    seeds = list(seeds)
    if not seeds:
        raise DomainError("seed list must not be empty")
    if not mass > 0.0:
        raise DomainError("mass must be positive")
    if r0 < potential.support_radius * (1.0 - 1e-12):
        raise DomainError("r0 must cover the potential support")
    if k_fixed is not None and not k_fixed > 0.0:
        raise DomainError("probe-mode k must be positive")
    if grid is None:
        e_scale = max(abs(complex(s)) for s in seeds)
        grid = auto_grid(potential, e_scale, mass, r_max=r0, spacing=spacing)
    # one operator for every seed, k iteration and eigenfunction solve
    operator = RadialOperator(potential, mass, grid)

    eigenpairs: list[ResonanceEigenpair] = []
    failures: list[SeedFailure] = []
    for seed in seeds:
        seed = complex(seed)
        if k_fixed is not None:
            w, res, ok = _root_at_fixed_k(operator, k_fixed, seed, r0, tol)
            k_final = k_fixed
        else:
            ok = False
            w, res = seed, math.inf
            if seed.real <= 0.0:
                failures.append(SeedFailure(seed, "seed has non-positive real energy"))
                continue
            k_prev = None
            fk_prev = None
            k = math.sqrt(2.0 * mass * seed.real)
            w_guess = seed
            for _ in range(MAX_K_ITERATIONS):
                w, res, ok = _root_at_fixed_k(operator, k, w_guess, r0, tol)
                if not ok:
                    break
                if w.real <= 0.0:
                    ok = False
                    failures.append(SeedFailure(seed, "negative real energy in self-consistent mode",
                                                final_w=w, final_residual=res))
                    break
                g = math.sqrt(2.0 * mass * w.real)
                fk = g - k
                if abs(fk) <= K_SELF_CONSISTENT_TOL * max(k, 1e-300):
                    k = g
                    w, res, ok = _root_at_fixed_k(operator, k, w, r0, tol)
                    break
                # secant acceleration on the fixed-point defect g(k) - k
                if k_prev is not None and fk != fk_prev:
                    k_next = k - fk * (k - k_prev) / (fk - fk_prev)
                    if not k_next > 0.0:
                        k_next = g
                else:
                    k_next = g
                k_prev, fk_prev = k, fk
                k = k_next
                w_guess = w
            else:
                ok = False
            if any(fl.seed == seed for fl in failures):
                continue
            k_final = k
        if not ok:
            failures.append(SeedFailure(seed, "did not converge", final_w=w, final_residual=res))
            continue
        if w.imag >= 0.0:
            failures.append(SeedFailure(seed, "growing-state (Im W >= 0) rejected",
                                        final_w=w, final_residual=res))
            continue

        sol = operator.solve(w)
        norm, _ = simpson_segmented(np.abs(sol.values) ** 2, grid.spacing, sol._break_nodes)
        normalized = sol.rescaled(1.0 / math.sqrt(norm))
        eigenpairs.append(ResonanceEigenpair(
            w=w,
            gamma=-2.0 * w.imag,
            k_fixed=k_final,
            eigenfunction=normalized,
            r0=r0,
            residual_norm=float(res),
        ))

    merged: list[ResonanceEigenpair] = []
    for pair in sorted(eigenpairs, key=lambda p: (p.w.real, p.w.imag)):
        dup = next((m for m in merged
                    if abs(m.w - pair.w) < DUPLICATE_TOL * max(abs(pair.w), 1.0)), None)
        if dup is None:
            merged.append(pair)
        elif pair.residual_norm < dup.residual_norm:
            merged[merged.index(dup)] = pair
    return KPSearchResult(eigenpairs=tuple(merged), failures=tuple(failures))


def scan_resonance_seeds(potential: PotentialSpec, mass: float, e_range, n_scan: int,
                         spacing: float | None = None) -> list[complex]:
    """Seed eigenvalue guesses from maxima of the phase delay.

    Each local maximum E_peak of 2 d(delta)/dE (one tangent solve per scan
    energy) contributes the seed W0 = E_peak - i / tau_phi(E_peak),
    consistent with a lifetime of about half the peak delay for a sharp
    resonance.  Peaks whose implied width dwarfs the scan window are
    discretization noise on a flat delay curve and are discarded.  No
    maxima: empty list.
    """
    e_lo, e_hi = float(e_range[0]), float(e_range[1])
    if not (0.0 < e_lo < e_hi):
        raise DomainError("need 0 < E_lo < E_hi")
    if n_scan < 3:
        raise DomainError("need at least 3 scan points")
    energies = np.linspace(e_lo, e_hi, int(n_scan))
    r0 = potential.support_radius
    operator = RadialOperator(potential, mass,
                              auto_grid(potential, e_hi, mass, r_max=r0, spacing=spacing))
    delays = np.array([tangent_phase_delay(operator.solve(float(e), tangent=True))
                       for e in energies])

    seeds: list[complex] = []
    for i in range(1, len(energies) - 1):
        if not (delays[i] > delays[i - 1] and delays[i] >= delays[i + 1]):
            continue
        if delays[i] <= 0.0:
            continue
        # parabolic refinement of the peak position and height
        denom = delays[i - 1] - 2.0 * delays[i] + delays[i + 1]
        if denom < 0.0:
            shift = 0.5 * (delays[i - 1] - delays[i + 1]) / denom
            shift = float(np.clip(shift, -1.0, 1.0))
            e_peak = energies[i] + shift * (energies[1] - energies[0])
            tau_peak = delays[i] - 0.25 * (delays[i - 1] - delays[i + 1]) * shift
        else:
            e_peak = float(energies[i])
            tau_peak = float(delays[i])
        if 2.0 / tau_peak > 20.0 * (e_hi - e_lo):
            continue
        seeds.append(complex(e_peak, -1.0 / tau_peak))
    return seeds


@dataclass(frozen=True)
class WidthDwellReport:
    """Both sides of the lifetime = norm/current identity for one eigenpair."""

    lifetime: float
    dwell: float
    relative_residual: float
    norm: float
    current: float
    flags: tuple[str, ...] = ()


def verify_width_dwell(eigenpair: ResonanceEigenpair) -> WidthDwellReport:
    """Compare 1/Gamma against norm divided by boundary current.

    The two sides come from independent evaluations (quadrature of the
    eigenfunction versus the boundary current), so the relative residual is
    a direct measure of integration error.
    """
    norm = eigenpair.norm()
    current = eigenpair.boundary_current()
    lifetime = 1.0 / eigenpair.gamma
    flags: tuple[str, ...] = ()
    if current <= 0.0:
        flags += ("nonphysical",)
        dwell = math.inf
        rel = math.inf
    else:
        dwell = norm / current
        rel = abs(lifetime - dwell) / lifetime
    return WidthDwellReport(
        lifetime=lifetime,
        dwell=dwell,
        relative_residual=float(rel),
        norm=norm,
        current=current,
        flags=flags,
    )
