"""Dwell times, phase times, and the identities connecting them.

Definitions (hbar = 1 everywhere):

* dwell time      tau_D = (integral of |Psi|^2 over the region) / incident flux
* phase delay     2 d(delta)/dE   (Wigner's time delay)
* phase time      tau_phi = phase delay + tau0,  tau0 = m * extent / k
* 1-d splitting   tau_phi = tau_D - Im(R)/k * dk/dE for a barrier on [0, L],
  where the last term comes from the overlap of incident and reflected
  waves and is singular as E -> 0
* log-derivative dwell time: with the boundary value normalized so that
  e^{2 i delta} = phi(r0) e^{-i k r0}, the quantity -i d/dE ln phi(r0)
  equals 2 d(delta)/dE + r0/v, i.e. the phase time measured at r0.

The self-interference entry of a report is always the literal difference
(dwell delay) - (phase delay), exposed for inspection rather than asserted
against any transition-matrix convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DifferentiationError,
    DomainError,
    InternalConsistencyError,
    NodeAtBoundaryError,
)
from .numerics import (
    fd_derivative_field,
    five_point_derivative,
    richardson4,
    simpson_segmented,
    unwrap_nearest,
)
from .potentials import PotentialSpec
from .radial import (
    Barrier1DSolution,
    RadialGrid,
    RadialOperator,
    RadialSolution,
    auto_grid,
    default_spacing,
    match_scattering,
)

DEFAULT_REL_STEP = 1e-4
DEFAULT_E_MIN = 0.05


@dataclass(frozen=True)
class DwellResult:
    """A dwell time with its quadrature error estimate."""

    value: float
    error_estimate: float
    snapped: bool = False


@dataclass(frozen=True)
class TimeReport:
    """All time observables at one energy ('delays' subtract the free time)."""

    energy: float
    tau_dwell: float
    tau_phase: float
    tau_free: float
    dwell_delay: float
    phase_delay: float
    self_interference: float
    region: tuple[float, float]
    winful_residual: float | None = None
    flags: tuple[str, ...] = ()


def _quadratic_piece(x: np.ndarray, y: np.ndarray, a: float, b: float) -> float:
    """Integral over [a, b] of the quadratic through three (x, y) samples."""
    x0 = x[0]
    coeffs = np.polyfit(x - x0, np.real(y), 2)
    poly = np.polynomial.polynomial.Polynomial(coeffs[::-1]).integ()
    return float(poly(b - x0) - poly(a - x0))


def dwell_time(solution, region, incident_flux: float = 1.0) -> DwellResult:
    """Probability content of the region divided by the incident flux.

    ``solution`` is any solved wave (radial or 1-d barrier) carrying
    ``grid`` and complex ``values``.  Region endpoints that miss the grid
    are handled by sub-spacing interpolation and flagged as snapped.
    """
    if not incident_flux > 0.0:
        raise DomainError("incident flux must be positive")
    x1, x2 = float(region[0]), float(region[1])
    grid = solution.grid
    if x1 < -1e-12 or x2 > grid.r_max * (1.0 + 1e-12) or x2 <= x1:
        raise DomainError(f"region [{x1}, {x2}] not contained in the grid [0, {grid.r_max}]")

    density = np.abs(solution.values) ** 2
    h = grid.spacing
    nodes = grid.nodes()
    breaks = getattr(solution, "_break_nodes", ())

    i1 = grid.index_of(x1)
    i2 = grid.index_of(x2)
    snapped = i1 is None or i2 is None
    lo = i1 if i1 is not None else int(math.ceil(x1 / h - 1e-12))
    hi = i2 if i2 is not None else int(math.floor(x2 / h + 1e-12))
    lo = max(0, min(lo, grid.n_points - 1))
    hi = max(0, min(hi, grid.n_points - 1))
    if hi <= lo:
        raise DomainError("region narrower than one grid spacing")

    inner_breaks = [b - lo for b in breaks if lo < b < hi]
    total, err = simpson_segmented(density[lo : hi + 1], h, inner_breaks)

    if i1 is None:
        j = min(max(lo, 1), grid.n_points - 2)
        total += _quadratic_piece(nodes[j - 1 : j + 2], density[j - 1 : j + 2], x1, nodes[lo])
    if i2 is None:
        j = min(max(hi, 1), grid.n_points - 2)
        total += _quadratic_piece(nodes[j - 1 : j + 2], density[j - 1 : j + 2], nodes[hi], x2)

    return DwellResult(value=float(total) / incident_flux,
                       error_estimate=float(err) / incident_flux,
                       snapped=snapped)


def _phase_set(operator: RadialOperator, energies: np.ndarray, r0: float):
    """delta at the given (sorted) energies on the operator's grid, branch-chained."""
    obs = [match_scattering(operator.solve(float(e)), r0) for e in energies]
    deltas = unwrap_nearest(np.array([o.delta for o in obs]), math.pi)
    return deltas, obs


def _jumpy(deltas: np.ndarray) -> bool:
    return bool(np.any(np.abs(np.diff(deltas)) > 0.5 * math.pi))


def tangent_phase_delay(solution: RadialSolution) -> float:
    """Wigner delay 2 d(delta)/dE at the grid end from a solve with ``tangent=True``.

    With a = k phi, b = phi' at r0 = r_max, delta = atan2(a, b) - k r0, so

        d(delta)/dE = (b da - a db) / (a^2 + b^2) - r0 m / k,
        da = (m/k) phi + k u,   db = u',

    with u = d(phi)/dE.  The ratio is unchanged by any constant factor
    common to phi and u, complex ones included, so raw, block-rescaled
    and flux-normalized solutions give the same delay.  This is the
    production route to the delay; :func:`phase_time_delay` differences
    delta independently.
    """
    if solution.tangent_end is None:
        raise DomainError("the phase delay needs a solve with tangent=True")
    if complex(solution.energy).imag != 0.0 or complex(solution.energy).real <= 0.0:
        raise DomainError("the phase delay needs a real energy E > 0")
    mass = solution.mass
    k = math.sqrt(2.0 * mass * complex(solution.energy).real)
    phi = complex(solution.values[-1])
    u, du = solution.tangent_end
    a, b = k * phi, solution.derivative_at_end
    da, db = (mass / k) * phi + k * u, du
    ratio = (b * da - a * db) / (a * a + b * b)
    return 2.0 * (ratio.real - solution.grid.r_max * mass / k)


def phase_time_delay(potential: PotentialSpec, energy: float, mass: float,
                     rel_step: float = DEFAULT_REL_STEP, r0: float | None = None,
                     spacing: float | None = None) -> float:
    """Wigner delay 2 d(delta)/dE by five-point differencing plus Richardson.

    The stencil uses relative step ``rel_step`` and the same step halved;
    a branch jump inside the stencil triggers one retry with a tighter
    stencil before giving up.  The identity checks use it as the route
    independent of :func:`tangent_phase_delay`.
    """
    if r0 is None:
        r0 = potential.support_radius
    grid = auto_grid(potential, energy, mass, r_max=r0, spacing=spacing)
    return _stencil_delay(RadialOperator(potential, mass, grid), energy, rel_step, r0)


def _stencil_delay(operator: RadialOperator, energy: float, rel_step: float, r0: float) -> float:
    """The stencil of :func:`phase_time_delay`, solved by a given operator."""
    def delta_at(e) -> float:
        return match_scattering(operator.solve(float(e)), r0).delta

    step = rel_step
    for attempt in range(2):
        h = step * energy
        if energy - 2.0 * h <= 0.0:
            raise DomainError("energy too close to threshold for the differentiation stencil")
        raw = [delta_at(e) for e in energy + np.array([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]) * h]
        deltas = unwrap_nearest(np.array(raw), math.pi)
        if not _jumpy(deltas):
            d_h = five_point_derivative(deltas[0], deltas[1], deltas[5], deltas[6], h)
            d_half = five_point_derivative(deltas[1], deltas[2], deltas[4], deltas[5], 0.5 * h)
            return 2.0 * richardson4(d_h, d_half)
        step /= 10.0
    raise DifferentiationError(
        f"phase shift branch jump inside the stencil at E = {energy} even after shrinking"
    )


def winful_decomposition_1d(barrier: Barrier1DSolution, e_min: float = DEFAULT_E_MIN,
                            tol: float = 1e-6) -> TimeReport:
    """Split the 1-d barrier dwell time into phase time plus self-interference.

    Checks tau_phi = tau_D - Im(R)/k * dk/dE and stores the residual.
    The phase time is the barrier's tangent-solve ``phase_time``; a
    solution solved without the tangent is solved again with it.  Below
    ``e_min`` the interference term is threshold-singular and the report
    is flagged instead of checked.
    """
    energy, mass, k = barrier.energy, barrier.mass, barrier.k
    extent = barrier.potential.support_radius

    dwell = dwell_time(barrier, (0.0, extent), barrier.incident_flux)
    tau_dwell = dwell.value

    tau_phase = barrier.phase_time
    if tau_phase is None:
        tau_phase = barrier.operator.solve(energy, tangent=True).phase_time

    dk_de = mass / k
    interference = barrier.reflection.imag / k * dk_de
    residual = tau_phase - (tau_dwell - interference)

    flags: tuple[str, ...] = ()
    if dwell.snapped:
        flags += ("snapped_endpoints",)
    if energy < e_min:
        flags += ("threshold_singular",)
    elif abs(residual) > tol:
        raise InternalConsistencyError(
            f"phase/dwell splitting violated at E = {energy}: residual {residual:.3e} > {tol:.1e}"
        )

    tau_free = mass * extent / k
    dwell_delay = tau_dwell - tau_free
    phase_delay = tau_phase - tau_free
    return TimeReport(
        energy=energy,
        tau_dwell=tau_dwell,
        tau_phase=tau_phase,
        tau_free=tau_free,
        dwell_delay=dwell_delay,
        phase_delay=phase_delay,
        self_interference=dwell_delay - phase_delay,
        region=(0.0, extent),
        winful_residual=float(residual),
        flags=flags,
    )


@dataclass(frozen=True)
class SmithIdentityResult:
    """Pointwise residual of the energy-derivative density identity.

    For a solution family smooth in E, |Psi|^2 equals
    -(1/2m) d/dx (Psi* d^2Psi/dxdE - dPsi/dE dPsi*/dx) pointwise; the
    integrated form equates the norm on [0, r_max] with the boundary term.
    """

    field: np.ndarray
    max_norm: float
    norm_integral: float
    boundary_term: float
    e_step: float


def smith_identity_residual(potential: PotentialSpec, energy: float, mass: float,
                            grid: RadialGrid | None = None,
                            rel_step: float = DEFAULT_REL_STEP,
                            spacing: float | None = None) -> SmithIdentityResult:
    """Residual field of the density/energy-derivative identity.

    dPsi/dE comes from central differencing two solves at E +- h; the
    residual must vanish to O(h^2) plus the integrator's spatial order.
    """
    if energy <= 0.0:
        raise DomainError("requires E > 0")
    if grid is None:
        grid = auto_grid(potential, energy, mass, r_max=potential.support_radius,
                         spacing=spacing)
    h = rel_step * energy
    operator = RadialOperator(potential, mass, grid)
    sol_m = operator.solve(energy - h)
    sol_0 = operator.solve(energy)
    sol_p = operator.solve(energy + h)

    u = (sol_p.values - sol_m.values) / (2.0 * h)
    du = (sol_p.derivatives - sol_m.derivatives) / (2.0 * h)
    phi = sol_0.values
    dphi = sol_0.derivatives

    bracket = np.conj(phi) * du - u * np.conj(dphi)
    d_bracket = fd_derivative_field(bracket, grid.spacing, sol_0._break_nodes)
    residual = np.abs(phi) ** 2 + d_bracket.real / (2.0 * mass)

    norm, _ = simpson_segmented(np.abs(phi) ** 2, grid.spacing, sol_0._break_nodes)
    boundary = -bracket[-1].real / (2.0 * mass)
    return SmithIdentityResult(
        field=residual,
        max_norm=float(np.max(np.abs(residual))),
        norm_integral=float(norm),
        boundary_term=float(boundary),
        e_step=h,
    )


@dataclass(frozen=True)
class OutgoingDwellReport:
    """Dwell delay evaluated with the outgoing-only asymptotic wave vs phase delay.

    With only the outgoing wave (1/sqrt(v)) e^{2 i delta} e^{i k x} fed into
    the boundary form of the norm identity, the interference between
    incident and reflected waves is absent and the dwell delay equals the
    phase delay.  Note the outgoing form is an asymptotic substitution, not
    a regular solution at the origin.
    """

    dwell_delay: float
    phase_delay: float
    difference: float
    imaginary_residual: float


def outgoing_dwell_equals_phase(potential: PotentialSpec, energy: float, mass: float,
                                r0: float | None = None,
                                rel_step: float = DEFAULT_REL_STEP,
                                spacing: float | None = None) -> OutgoingDwellReport:
    """Check dwell delay = phase delay under the outgoing-only boundary wave."""
    if r0 is None:
        r0 = potential.support_radius
    if r0 < potential.support_radius:
        raise DomainError("r0 must not be smaller than the support radius")
    operator = RadialOperator(potential, mass,
                              auto_grid(potential, energy, mass, r_max=r0, spacing=spacing))
    h = rel_step * energy
    energies = np.array([energy - h, energy, energy + h])
    deltas, _ = _phase_set(operator, energies, r0)

    def outgoing(e: float, delta: float):
        k = math.sqrt(2.0 * mass * e)
        v = k / mass
        psi = np.exp(2j * delta) * np.exp(1j * k * r0) / math.sqrt(v)
        return psi, 1j * k * psi

    psi_m, dx_m = outgoing(energies[0], deltas[0])
    psi_0, dx_0 = outgoing(energies[1], deltas[1])
    psi_p, dx_p = outgoing(energies[2], deltas[2])

    dpsi_de = (psi_p - psi_m) / (2.0 * h)
    d2psi = (dx_p - dx_m) / (2.0 * h)
    bracket = np.conj(psi_0) * d2psi - dpsi_de * np.conj(dx_0)
    box = -bracket / (2.0 * mass)  # plays the role of the norm integral

    k0 = math.sqrt(2.0 * mass * energy)
    tau_free = r0 * mass / k0
    lhs = box.real - tau_free
    rhs = _stencil_delay(operator, energy, rel_step, r0)
    return OutgoingDwellReport(
        dwell_delay=float(lhs),
        phase_delay=float(rhs),
        difference=float(lhs - rhs),
        imaginary_residual=float(box.imag),
    )


@dataclass(frozen=True)
class LogDerivativeDwell:
    """-i d/dE ln phi(r0) with the boundary value pinned to e^{2 i delta} e^{i k r0}.

    ``imaginary_residual`` is the imaginary part of the derivative; it
    vanishes when the boundary value stays unimodular, so it measures how
    well the outgoing-boundary premise is realized numerically.
    """

    value: float
    imaginary_residual: float


def kp_log_derivative_dwell(potential: PotentialSpec, energy: float, mass: float,
                            r0: float | None = None,
                            rel_step: float = DEFAULT_REL_STEP,
                            spacing: float | None = None) -> LogDerivativeDwell:
    """Dwell time from the energy derivative of the boundary log-amplitude."""
    if r0 is None:
        r0 = potential.support_radius
    grid = auto_grid(potential, energy, mass, r_max=r0, spacing=spacing)
    h = rel_step * energy
    if energy - 2.0 * h <= 0.0:
        raise DomainError("energy too close to threshold for the differentiation stencil")
    energies = energy + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    i0 = grid.index_of(r0)
    operator = RadialOperator(potential, mass, grid)
    obs = []
    for e in energies:
        sol = operator.solve(float(e))
        scale = float(np.max(np.abs(sol.values)))
        if abs(sol.values[i0]) < 1e-12 * max(1.0, scale):
            raise NodeAtBoundaryError(
                f"phi({r0}) ~ 0 at E = {e}; choose a different matching radius"
            )
        obs.append(match_scattering(sol, r0))
    deltas = unwrap_nearest(np.array([o.delta for o in obs]), math.pi)

    ln_vals = np.empty(5, dtype=complex)
    for j, (e, o, d) in enumerate(zip(energies, obs, deltas)):
        k = math.sqrt(2.0 * mass * float(e))
        # boundary value e^{2 i delta} e^{i k r0}; modulus via the matched
        # scattering matrix so departures from unitarity stay visible
        ln_vals[j] = math.log(abs(o.s_matrix)) + 1j * (2.0 * d + k * r0)

    dln = five_point_derivative(ln_vals[0], ln_vals[1], ln_vals[3], ln_vals[4], h)
    tau = -1j * dln
    return LogDerivativeDwell(value=float(tau.real), imaginary_residual=float(tau.imag))


def time_scan(potential: PotentialSpec, mass: float, energies, r0: float,
              spacing: float | None = None, e_min: float = DEFAULT_E_MIN) -> list[TimeReport]:
    """TimeReport per energy for a radial scattering scan on [0, r0].

    Uses the unit-incident-flux normalization, so the dwell time is the
    probability integral itself.  Each energy is one solve with its energy
    tangent, which gives the phase delay (:func:`tangent_phase_delay`).
    """
    energies = np.asarray(energies, dtype=float)
    if spacing is None:
        spacing = default_spacing(potential, float(np.max(energies)), mass, r0)
    operator = RadialOperator(potential, mass, RadialGrid.from_spacing(r0, spacing))
    reports = []
    for e in energies:
        e = float(e)
        sol = operator.solve(e, tangent=True)
        obs = match_scattering(sol, r0)
        normalized = sol.rescaled(obs.normalization)
        dres = dwell_time(normalized, (0.0, r0), 1.0)
        phase_delay = tangent_phase_delay(sol)
        tau_free = mass * r0 / obs.k
        flags: tuple[str, ...] = ()
        if dres.snapped:
            flags += ("snapped_endpoints",)
        if e < e_min:
            flags += ("threshold_singular",)
        dwell_delay = dres.value - tau_free
        reports.append(TimeReport(
            energy=e,
            tau_dwell=dres.value,
            tau_phase=phase_delay + tau_free,
            tau_free=tau_free,
            dwell_delay=dwell_delay,
            phase_delay=phase_delay,
            self_interference=dwell_delay - phase_delay,
            region=(0.0, r0),
            flags=flags,
        ))
    return reports
