"""s-wave radial integration and amplitude matching.

The reduced wave phi = r * Psi obeys

    phi''(r) + 2 m (E - V(r)) phi(r) = 0,      phi(0) = 0,

at real or complex energy E (hbar = 1).  Outside the support radius the
potential vanishes and the solution is a combination of sin(kr) and
e^{ikr}; matching at a radius r0 beyond the support yields the incident and
scattered amplitudes

    I e^{-i k r0} = phi'(r0) - i k phi(r0)
    S = cos(k r0) phi(r0) - sin(k r0) phi'(r0) / k

and the phase shift delta from the interior logarithmic derivative.  The
unimodular combination 1 + 2 i k S / I is the s-wave scattering matrix
e^{2 i delta}, providing an independent unitarity diagnostic.

Integration is fixed-step Numerov (fourth order) with a companion
derivative recurrence; endpoint derivatives come from the scheme's final
stage via one hidden extension node, never from re-differencing the stored
values.  A one-dimensional barrier solver for transmission/reflection
amplitudes shares the same kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DomainError, MatchingError, ResolutionError
from .numerics import (
    DifferenceBand,
    derivative_field,
    numerov,
    principal_branch,
    taylor_first_step,
    taylor_first_step_tangent,
    unwrap_nearest,
)
from .potentials import PotentialSpec

_NODE_TOL = 1e-9
# on_node_spacing tries this many interval counts before giving up
_NODE_SEARCH = 2**20
_MIN_POINTS_PER_WAVELENGTH = 20.0


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid on [0, r_max] whose nodes include both endpoints exactly."""

    r_max: float
    n_points: int

    def __post_init__(self):
        if self.n_points < 2:
            raise ConfigurationError("grid needs at least 2 points")
        if not (self.r_max > 0.0):
            raise ConfigurationError("grid r_max must be positive")

    @property
    def spacing(self) -> float:
        return self.r_max / (self.n_points - 1)

    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.r_max, self.n_points)

    @classmethod
    def from_spacing(cls, r_max: float, spacing: float) -> "RadialGrid":
        if spacing <= 0.0:
            raise ConfigurationError("grid spacing must be positive")
        n = max(2, int(round(r_max / spacing)) + 1)
        return cls(r_max, n)

    def index_of(self, r: float) -> int | None:
        """Node index of r, or None if r does not sit on a node."""
        h = self.spacing
        i = int(round(r / h))
        if 0 <= i < self.n_points and abs(r - i * h) <= _NODE_TOL * max(h, 1.0):
            return i
        return None


def on_node_spacing(r_max: float, spacing: float, radii) -> float:
    """A spacing whose grid on [0, r_max] has every one of ``radii`` on a node.

    ``spacing`` itself when :meth:`RadialGrid.from_spacing` already puts
    them there, else the largest r_max / N at or below it that does, by
    :meth:`RadialGrid.index_of`.  Raises :class:`ConfigurationError` when
    no grid of up to 2^20 more intervals does.
    """
    def on_node(grid: RadialGrid) -> bool:
        return all(grid.index_of(r) is not None for r in radii)

    if on_node(RadialGrid.from_spacing(r_max, spacing)):
        return spacing
    first = max(1, math.ceil(r_max / spacing - 1e-9))
    for n in range(first, first + _NODE_SEARCH):
        if on_node(RadialGrid(r_max, n + 1)):
            return r_max / n
    raise ConfigurationError(
        f"no grid spacing at or below {spacing:.12g} up to {_NODE_SEARCH} more intervals puts "
        f"r = {', '.join(f'{r:.12g}' for r in radii)} on a node of [0, {r_max:.12g}]")


def default_spacing(potential: PotentialSpec, energy, mass: float, r_max: float) -> float:
    """Default spacing: the finer of r_max / 1500 and 300 nodes per local wavelength.

    The Numerov kernel has no roundoff floor (it runs in difference form),
    so the error keeps falling as h^4 on finer grids while the cost grows
    as 1/h; at this default the square-well phase shift is already within
    about 1e-10 of its closed form.  Refined by :func:`on_node_spacing`
    until every jump of V sits on a node.
    """
    vmax = float(np.max(np.abs(potential.evaluate(np.linspace(0.0, r_max, 512)))))
    kappa = math.sqrt(2.0 * mass * (abs(energy) + vmax)) if (abs(energy) + vmax) > 0 else 1.0
    wavelength = 2.0 * math.pi / max(kappa, 1e-12)
    # a jump beyond r_max is left to the operator's support check
    return on_node_spacing(r_max, min(r_max / 1500.0, wavelength / 300.0),
                           [radius for radius, _, _ in potential.jump_points() if radius <= r_max])


def auto_grid(potential: PotentialSpec, energy, mass: float, r_max: float | None = None,
              spacing: float | None = None) -> RadialGrid:
    if r_max is None:
        r_max = potential.support_radius
    if spacing is None:
        spacing = default_spacing(potential, energy, mass, r_max)
    return RadialGrid.from_spacing(r_max, spacing)


@dataclass
class RadialSolution:
    """phi on a grid with scheme-consistent boundary-derivative data.

    ``values[0] == 0`` (regularity of phi = r Psi) and ``origin_slope``
    records the normalization phi'(0) actually carried by ``values`` (unity
    unless a blocked Numerov solve rescaled the solution between blocks).
    ``tangent_end`` is (u(r_max), u'(r_max)) for u = d(phi)/dE in the same
    normalization (``origin_slope`` times the tangent of the phi'(0) = 1
    solution), from a solve with ``tangent=True``; None otherwise.
    """

    grid: RadialGrid
    values: np.ndarray
    derivative_at_end: complex
    energy: complex
    mass: float
    potential: PotentialSpec
    origin_slope: complex = 1.0
    tangent_end: tuple[complex, complex] | None = None
    diagnostics: dict = field(default_factory=dict)
    _f: np.ndarray | None = None
    _break_nodes: tuple = ()

    @cached_property
    def derivatives(self) -> np.ndarray:
        """d(phi)/dr on every node, fourth-order, discontinuity-aware."""
        d = derivative_field(self.values, self._f, self.grid.spacing, self._break_nodes)
        d[0] = self.origin_slope
        d[-1] = self.derivative_at_end
        return d

    def rescaled(self, factor: complex) -> "RadialSolution":
        """A copy with values, derivatives and normalization scaled by factor."""
        out = replace(
            self,
            values=self.values * factor,
            derivative_at_end=self.derivative_at_end * factor,
            origin_slope=self.origin_slope * factor,
            tangent_end=None if self.tangent_end is None else
            (self.tangent_end[0] * factor, self.tangent_end[1] * factor),
            diagnostics=dict(self.diagnostics),
        )
        return out


def _node_potentials(potential: PotentialSpec, grid: RadialGrid):
    """Role-resolved node samples of V plus one extension node.

    Returns ``(v_left, v_center, v_right, breaks, jump)`` arrays of length
    n_points + 1: the value a node contributes when it closes a step from
    below (left limit), when it is a step's center (midpoint of the
    limits), and when it opens a step upward (right limit).  They differ
    only on nodes that sit exactly on a declared discontinuity, which keeps
    the integrator at full order there.  A discontinuity on the last node
    is continued with its interior limit into the extension node so the
    boundary derivative stays consistent with a one-sided solution.  A
    jump off every node would cost the integrator its order, so it raises
    :class:`ConfigurationError` naming a spacing that puts it on one.
    """
    nodes = grid.nodes()
    h = grid.spacing
    v = np.append(np.asarray(potential.evaluate(nodes), dtype=float),
                  float(potential.evaluate(nodes[-1] + h)))
    v_left = v.copy()
    v_center = v.copy()
    v_right = v.copy()
    breaks = []
    jump = 0.0
    for radius, left, right in potential.jump_points():
        jump = max(jump, abs(left - right))
        i = grid.index_of(radius)
        if i is None:
            suggested = on_node_spacing(grid.r_max, h, [r for r, _, _ in potential.jump_points()])
            raise ConfigurationError(
                f"the jump of V at r = {radius:.12g} is not a node of the grid on "
                f"[0, {grid.r_max:.12g}] at spacing {h:.12g}; grid_spacing {suggested:.12g} "
                f"puts every jump on a node")
        if i == grid.n_points - 1:
            v_left[i] = v_center[i] = v_right[i] = left
            v_left[i + 1] = v_center[i + 1] = v_right[i + 1] = left
        elif i > 0:
            v_left[i] = left
            v_center[i] = 0.5 * (left + right)
            v_right[i] = right
            breaks.append(i)
    # slope-only kinks join the break list: their value arrays coincide but
    # the defect correction and stencil selection still apply
    for radius in potential.kink_points():
        i = grid.index_of(radius)
        if i is not None and 0 < i < grid.n_points - 1:
            breaks.append(i)
    return v_left, v_center, v_right, tuple(sorted(set(breaks))), jump


def _end_slope(y, f, h: float, n: int, mass: float, u=None):
    """The companion derivative at node n - 1, read through the extension node n.

    With ``u``, the energy tangent of ``y``, also returns the E-derivative
    of that slope (None without): f[n] - f[n - 2] does not move with E,
    and the denominator moves by 2h (h^2/6)(-2m).
    """
    denom = 2.0 * h * (1.0 + (h * h / 6.0) * f[n - 1])
    slope = (y[n] - y[n - 2] - (h * h / 6.0) * (f[n] - f[n - 2]) * y[n - 1]) / denom
    if u is None:
        return slope, None
    d_slope = (u[n] - u[n - 2] - (h * h / 6.0) * (f[n] - f[n - 2]) * u[n - 1]
               + slope * 2.0 * h * (h * h / 6.0) * 2.0 * mass) / denom
    return slope, d_slope


def _check_resolution(grid: RadialGrid, energy, mass: float, v: np.ndarray):
    """Raise unless the grid resolves the shortest local wavelength.

    ``v`` may be every node sample of V or only their extremes: |E - v| is
    largest at one of them, and rounding keeps that order, so both give
    the same bits.
    """
    scale = float(np.max(np.abs(energy - v)))
    kappa = math.sqrt(2.0 * mass * scale) if scale > 0 else 0.0
    if kappa == 0.0:
        return
    wavelength = 2.0 * math.pi / kappa
    per_wave = wavelength / grid.spacing
    if per_wave < _MIN_POINTS_PER_WAVELENGTH:
        suggested = int(math.ceil(_MIN_POINTS_PER_WAVELENGTH * grid.r_max / wavelength)) + 1
        raise ResolutionError(
            f"grid too coarse: {per_wave:.1f} points per local wavelength "
            f"(need >= {_MIN_POINTS_PER_WAVELENGTH:.0f}); suggest n_points >= {suggested}",
            suggested_n_points=suggested,
        )


def _extremes(v: np.ndarray) -> np.ndarray:
    return np.array([np.min(v), np.max(v)])


class RadialOperator:
    """The reduced radial equation for one (potential, mass, grid), ready to solve at any energy.

    Construction checks the inputs and does the work that does not depend
    on the energy, once: the role-resolved node samples of V with their
    breaks and truncation jump (:func:`_node_potentials`), the extremes of
    V for the resolution check, and the difference-form band storage
    (:class:`~dwelltime.numerics.DifferenceBand`).  :meth:`solve` forms
    f = 2 m (V - E) per energy with the same arithmetic as a one-shot
    solve, so reusing an operator changes no bit of any result.  Every
    solve rewrites the band storage: an operator serves one caller at a
    time, for as long as that caller solves on its grid.
    """

    def __init__(self, potential: PotentialSpec, mass: float, grid: RadialGrid):
        if not mass > 0.0:
            raise DomainError("mass must be positive")
        if grid.r_max < potential.support_radius * (1.0 - 1e-12):
            raise ConfigurationError(
                f"grid r_max = {grid.r_max} does not cover the potential support "
                f"radius {potential.support_radius}"
            )
        self.potential = potential
        self.mass = mass
        self.grid = grid
        self._v_left, self._v_center, self._v_right, self._breaks, self._jump = \
            _node_potentials(potential, grid)
        self._v_extremes = _extremes(self._v_center[:-1])
        self._band = DifferenceBand(grid.n_points + 1)

    def solve(self, energy, tangent: bool = False) -> RadialSolution:
        """Integrate outward from the origin at real or complex ``energy``.

        Normalization phi(0) = 0, phi'(0) = 1, recorded in ``origin_slope``.
        Where its growth bound allows overflow, the kernel solves in
        rescaled blocks; ``origin_slope`` then carries the accumulated scale
        and ``diagnostics["rescaled"]`` is set.

        ``tangent=True`` also solves for the energy tangent u = d(phi)/dE
        (u'' = f u - 2m phi, u(0) = u'(0) = 0): the exact E-derivative of
        the discrete solve, one more triangular solve on the same band,
        seeded with the derivative of the Taylor first step.  Its boundary
        data go to ``tangent_end``; the values and every other field are
        bit for bit those of a solve without it.
        """
        grid, mass = self.grid, self.mass
        _check_resolution(grid, energy, mass, self._v_extremes)

        h = grid.spacing
        f = 2.0 * mass * (self._v_center - energy)
        f_as_right = 2.0 * mass * (self._v_left - energy)
        f_as_left = 2.0 * mass * (self._v_right - energy)
        # The step centered on a discontinuity node keeps O(h^3) defects
        # proportional to the jumps of f and of its slope; rewriting y'(a)
        # through the neighbouring values moves the first into the step
        # coefficients, the second folds into the center weight.  Together
        # they restore full order across the node.
        for c in self._breaks:
            df = f_as_left[c] - f_as_right[c]
            slope_gap = (f[c + 1] - f_as_left[c]) / h - (f_as_right[c] - f[c - 1]) / h
            f_as_right[c + 1] += 0.5 * df
            f_as_left[c - 1] -= 0.5 * df
            f[c] += h * slope_gap / 10.0 - h * h * df * df / 40.0
        y1 = taylor_first_step(0.0, 1.0, h, f[0], f[1])
        seed = None
        if tangent:
            # f moves by -2m with E in every role: the break corrections
            # hold only differences of f
            seed = (0.0, taylor_first_step_tangent(0.0, 1.0, 0.0, 0.0, h, f[0], f[1], -2.0 * mass),
                    -2.0 * mass)
        out = numerov(f, h, 0.0, y1, f_as_right=f_as_right, f_as_left=f_as_left,
                      band=self._band, tangent=seed)
        y, scale = out[0], out[1]
        u = out[2] if tangent else None

        n = grid.n_points
        d_end, du_end = _end_slope(y, f, h, n, mass, u)

        return RadialSolution(
            grid=grid,
            values=y[:n],
            derivative_at_end=complex(d_end),
            energy=energy,
            mass=mass,
            potential=self.potential,
            origin_slope=scale,
            tangent_end=None if u is None else (complex(u[n - 1]), complex(du_end)),
            diagnostics={"rescaled": scale != 1.0, "truncation_jump": self._jump},
            _f=f[:n],
            _break_nodes=self._breaks,
        )


def integrate_radial(potential: PotentialSpec, energy, mass: float, grid: RadialGrid) -> RadialSolution:
    """One solve of the reduced radial equation: :meth:`RadialOperator.solve`.

    Callers that solve many energies on one grid build the operator once
    and reuse it.
    """
    return RadialOperator(potential, mass, grid).solve(energy)


@dataclass(frozen=True)
class ScatteringObservables:
    """Amplitudes and phase shift extracted at the matching radius.

    ``s_amp``/``i_amp`` follow the sin/outgoing decomposition above under
    the unit-incident-flux normalization (incident amplitude 1/sqrt(v),
    v = k/m), so probability integrals divided by flux 1 are dwell times.
    ``normalization`` is the factor applied to the raw phi'(0)=1 solution.
    """

    k: float
    delta: float
    s_amp: complex
    i_amp: complex
    r0: float
    s_matrix: complex
    unitarity_residual: float
    normalization: complex


def match_scattering(solution: RadialSolution, r0: float | None = None) -> ScatteringObservables:
    """Match the interior solution to free exterior waves at r0 >= support."""
    if abs(complex(solution.energy).imag) > 0.0:
        raise MatchingError("amplitude matching requires a real energy")
    energy = complex(solution.energy).real
    if energy <= 0.0:
        raise DomainError("amplitude matching requires E > 0")
    if r0 is None:
        r0 = solution.grid.r_max
    if r0 < solution.potential.support_radius * (1.0 - 1e-12):
        raise DomainError(f"matching radius {r0} lies inside the potential support")
    i0 = solution.grid.index_of(r0)
    if i0 is None:
        raise ConfigurationError(f"matching radius {r0} is not a grid node")

    k = math.sqrt(2.0 * solution.mass * energy)
    phi = complex(solution.values[i0])
    if i0 == solution.grid.n_points - 1:
        # the stored end derivative, without building the whole field
        dphi = solution.derivative_at_end
    else:
        dphi = complex(solution.derivatives[i0])

    i_raw = np.exp(1j * k * r0) * (dphi - 1j * k * phi)
    s_raw = math.cos(k * r0) * phi - math.sin(k * r0) * dphi / k
    if abs(i_raw) < 1e-14 * abs(s_raw):
        raise MatchingError(
            "no incident component at real energy (pure outgoing state); "
            "use the resonance eigenvalue search instead"
        )
    s_matrix = 1.0 + 2j * k * s_raw / i_raw
    unitarity_residual = abs(abs(s_matrix) - 1.0)

    delta = principal_branch(math.atan2(k * phi.real, dphi.real) - k * r0, math.pi)

    v = k / solution.mass
    a_incoming = 1j * i_raw / (2.0 * k)  # coefficient of e^{-ikr}
    normalization = (1.0 / math.sqrt(v)) / a_incoming
    return ScatteringObservables(
        k=k,
        delta=delta,
        s_amp=complex(normalization * s_raw),
        i_amp=complex(normalization * i_raw),
        r0=r0,
        s_matrix=complex(s_matrix),
        unitarity_residual=float(unitarity_residual),
        normalization=complex(normalization),
    )


def scattering_solution(potential: PotentialSpec, energy: float, mass: float,
                        grid: RadialGrid | None = None, r0: float | None = None,
                        spacing: float | None = None):
    """Unit-incident-flux scattering solution plus its observables.

    The returned wave equals (1/sqrt(v)) [e^{-ikr} - e^{2 i delta} e^{ikr}]
    asymptotically, so the incident flux is exactly 1.
    """
    if r0 is None:
        r0 = potential.support_radius if grid is None else grid.r_max
    if grid is None:
        grid = auto_grid(potential, energy, mass, r_max=r0, spacing=spacing)
    raw = integrate_radial(potential, energy, mass, grid)
    obs = match_scattering(raw, r0)
    return raw.rescaled(obs.normalization), obs


def phase_shift_scan(potential: PotentialSpec, energies, mass: float,
                     r0: float | None = None, spacing: float | None = None,
                     wavefunctions: list | None = None):
    """Unwrapped delta(E) along an increasing energy scan.

    The first point is reduced to (-pi/2, pi/2]; subsequent points take the
    branch nearest their predecessor, making delta(E) differentiable.
    Every energy is one solve of one :class:`RadialOperator`; a list passed
    as ``wavefunctions`` receives each solve's phi values (phi'(0) = 1
    normalization), in scan order.  Returns (deltas, observables).
    """
    energies = np.asarray(energies, dtype=float)
    if energies.ndim != 1 or energies.size == 0:
        raise DomainError("energy scan must be a non-empty 1-d array")
    if np.any(np.diff(energies) <= 0.0):
        raise DomainError("energy scan must be strictly increasing")
    if r0 is None:
        r0 = potential.support_radius
    if spacing is None:
        spacing = default_spacing(potential, float(energies[-1]), mass, r0)
    operator = RadialOperator(potential, mass, RadialGrid.from_spacing(r0, spacing))
    obs = []
    for e in energies:
        sol = operator.solve(float(e))
        obs.append(match_scattering(sol, r0))
        if wavefunctions is not None:
            wavefunctions.append(sol.values)
    deltas = unwrap_nearest(np.array([o.delta for o in obs]), math.pi)
    return deltas, obs


@dataclass
class Barrier1DSolution:
    """Interior wave and amplitudes for a unit-amplitude wave hitting a 1-d barrier.

    Psi(x) = e^{ikx} + R e^{-ikx} on the left, T e^{ikx} on the right;
    ``values`` holds Psi on the interior grid [0, L].  The incident flux is
    v = k/m (unit amplitude), recorded in ``incident_flux``.  ``operator``
    is the :class:`BarrierOperator` that solved it, for further energies
    on the same grid.  ``phase_time`` is |T|^2 d(arg T + kL)/dE +
    |R|^2 d(arg R)/dE from a solve with ``tangent=True``; None otherwise.
    """

    grid: RadialGrid
    values: np.ndarray
    reflection: complex
    transmission: complex
    k: float
    energy: float
    mass: float
    potential: PotentialSpec
    incident_flux: float
    flux_residual: float
    operator: "BarrierOperator" = field(repr=False, compare=False)
    phase_time: float | None = None


class BarrierOperator:
    """One-dimensional scattering off a finite barrier on [0, L], ready to solve at any energy.

    The 1-d counterpart of :class:`RadialOperator` for one (potential,
    mass, grid on [0, L]): construction checks the inputs and prepares the
    interior-side samples of V on the reversed grid, their extremes and the
    band storage; :meth:`solve` does the per-energy work with the
    arithmetic of a one-shot solve.  One caller at a time.
    """

    def __init__(self, potential: PotentialSpec, mass: float, grid: RadialGrid):
        if potential.kind not in ("rectangular_barrier_1d", "tabulated"):
            raise ConfigurationError("1-d barrier solver accepts rectangular_barrier_1d or tabulated potentials")
        if not mass > 0.0:
            raise DomainError("mass must be positive")
        if grid.r_max != potential.support_radius:
            raise ConfigurationError(
                f"barrier grid must span [0, {potential.support_radius}], not [0, {grid.r_max}]")
        self.potential = potential
        self.mass = mass
        self.grid = grid
        n = grid.n_points
        # Interior-side samples: the solve lives on (0, L), so edge nodes take
        # the interior limit rather than the exterior zero.
        v = np.asarray(potential.evaluate(grid.nodes()), dtype=float)
        for radius, left, right in potential.jump_points():
            i = grid.index_of(radius)
            if i == n - 1:
                v[i] = left
        self._v_extremes = _extremes(v)
        # March from x = L toward x = 0 in the reversed variable xi = L - x,
        # with one extension node past x = 0 for the companion derivative.
        self._v_rev = np.append(v[::-1], v[0])
        self._band = DifferenceBand(n + 1)

    def solve(self, energy: float, tangent: bool = False) -> Barrier1DSolution:
        """Transmission, reflection and the interior wave at ``energy`` > 0.

        Integrates from the transmitted side back to x = 0 and matches
        plane waves; |R|^2 + |T|^2 - 1 is reported as ``flux_residual``.
        ``tangent=True`` also solves for the energy tangent of the reversed
        wave (see :meth:`RadialOperator.solve`) and reports the phase time
        from the exact dR/dE and d(ln T)/dE, with no division by R.
        """
        if energy <= 0.0:
            raise DomainError("barrier scattering requires E > 0 (k = 0 is singular)")
        grid, mass = self.grid, self.mass
        _check_resolution(grid, energy, mass, self._v_extremes)
        length = grid.r_max
        h = grid.spacing
        n = grid.n_points

        k = math.sqrt(2.0 * mass * energy)
        f_rev = 2.0 * mass * (self._v_rev - energy)
        z0 = np.exp(1j * k * length)
        dz0 = -1j * k * z0  # d/d(xi) at xi = 0
        z1 = taylor_first_step(z0, dz0, h, f_rev[0], f_rev[1])
        dk = mass / k
        seed = None
        if tangent:
            # the seeds move with E through k and through f
            u0 = 1j * length * dk * z0
            du0 = -1j * dk * z0 - 1j * k * u0
            seed = (u0, taylor_first_step_tangent(z0, dz0, u0, du0, h, f_rev[0], f_rev[1],
                                                  -2.0 * mass), -2.0 * mass)
        out = numerov(f_rev, h, z0, z1, band=self._band, tangent=seed)
        z, scale = out[0], out[1]
        u = out[2] if tangent else None

        psi = z[:n][::-1].copy()
        dpsi0_rev, du_rev = _end_slope(z, f_rev, h, n, mass, u)
        psi0 = psi[0]
        dpsi0 = -dpsi0_rev  # back to d/dx

        # The block rescaling (if any) cancels in the matching ratio; the
        # transmitted amplitude reacquires it, which is where it physically
        # belongs (exponentially small transmission through a thick barrier).
        c = 2j * k / (1j * k * psi0 + dpsi0)
        reflection = c * psi0 - 1.0
        transmission = scale * c
        psi *= c

        phase_time = None
        if tangent:
            # the tangent carries the same block scale as z, so it cancels in
            # d(ln c)/dE and in c u; the real scale adds nothing to Im(T'/T)
            u_psi0, du_psi0 = u[n - 1], -du_rev
            dlog_c = dk / k - (1j * dk * psi0 + 1j * k * u_psi0 + du_psi0) / (1j * k * psi0 + dpsi0)
            d_reflection = c * (dlog_c * psi0 + u_psi0)
            phase_time = float(abs(transmission) ** 2 * (dlog_c.imag + length * dk)
                               + (np.conj(reflection) * d_reflection).imag)

        flux_residual = abs(abs(reflection) ** 2 + abs(transmission) ** 2 - 1.0)
        return Barrier1DSolution(
            grid=grid,
            values=psi,
            reflection=complex(reflection),
            transmission=complex(transmission),
            k=k,
            energy=energy,
            mass=mass,
            potential=self.potential,
            incident_flux=k / mass,
            flux_residual=float(flux_residual),
            operator=self,
            phase_time=phase_time,
        )


def solve_barrier_1d(potential: PotentialSpec, energy: float, mass: float,
                     spacing: float | None = None) -> Barrier1DSolution:
    """One solve of :class:`BarrierOperator` on a grid of the given spacing over [0, L]."""
    length = potential.support_radius
    if spacing is None:
        spacing = default_spacing(potential, energy, mass, length)
    return BarrierOperator(potential, mass, RadialGrid.from_spacing(length, spacing)).solve(energy)
