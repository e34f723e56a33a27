"""Separable three-body models on two Jacobi radial coordinates.

Particles (1, 2, 3) are described by the pair coordinate rho (particles 2
and 3, reduced mass mu2 = m2 m3 / (m2 + m3)) and the spectator coordinate
r (particle 1 against the pair, mu1 = m1 (m2 + m3) / (m1 + m2 + m3)).  The
wave function is taken separable, Psi = chi(r) Phi(rho) f(t) with
|f(t)|^2 = exp(-Gamma_R t), and the two channels carry effective
finite-range potentials V_r(r) and V_rho(rho) supplied directly by the
caller (reducing three pairwise potentials to this form is a modeling
step, not something this module guesses).  Only s-waves enter, and only
the (2,3) Jacobi set is implemented; the other two sets follow by
permuting the mass labels.

Each channel is an outgoing-boundary eigenproblem.  Writing N and j for a
channel's norm and boundary current, the channel identity Gamma N = j
turns the total width Gamma_R = Gamma_chi + Gamma_Phi into the
reciprocal-addition law for dwell times,

    1 / tau_3b = 1 / tau_chi + 1 / tau_rho,     tau = N / j per channel,

and the three-body dwell time (double norm integral over marginal-current
sum) equals the lifetime 1 / Gamma_R.  The decay factor |f|^2 cancels in
every ratio, so reports are evaluated at t = 0 and the cancellation is
checked at t != 0 in tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    InternalConsistencyError,
    NonphysicalStateError,
    SubsystemConvergenceError,
)
from .numerics import fd_derivative_field
from .potentials import PotentialSpec
from .resonance import DEFAULT_ROOT_TOL, ResonanceEigenpair, find_kp_eigenvalues


@dataclass(frozen=True)
class ThreeBodyModel:
    """Masses, channel potentials, and the two dwell regions."""

    m1: float
    m2: float
    m3: float
    v_r: PotentialSpec
    v_rho: PotentialSpec
    r_chi: float
    rho_phi: float

    @property
    def mu1(self) -> float:
        return self.m1 * (self.m2 + self.m3) / (self.m1 + self.m2 + self.m3)

    @property
    def mu2(self) -> float:
        return self.m2 * self.m3 / (self.m2 + self.m3)


def build_three_body(masses, v_r: PotentialSpec, v_rho: PotentialSpec,
                     r_chi: float, rho_phi: float) -> ThreeBodyModel:
    """Validate and assemble a separable three-body model."""
    m1, m2, m3 = (float(m) for m in masses)
    if min(m1, m2, m3) <= 0.0:
        raise ConfigurationError("all three masses must be positive")
    if r_chi < v_r.support_radius:
        raise ConfigurationError(
            f"r region {r_chi} smaller than the V_r support {v_r.support_radius}"
        )
    if rho_phi < v_rho.support_radius:
        raise ConfigurationError(
            f"rho region {rho_phi} smaller than the V_rho support {v_rho.support_radius}"
        )
    return ThreeBodyModel(m1, m2, m3, v_r, v_rho, r_chi, rho_phi)


def solve_subsystems(model: ThreeBodyModel, seeds_r, seeds_rho,
                     k_mode: str = "self_consistent",
                     k_fixed_r: float | None = None, k_fixed_rho: float | None = None,
                     spacing: float | None = None, tol: float = DEFAULT_ROOT_TOL):
    """Solve both channel eigenproblems; lowest-Re-W eigenpair per channel.

    The r channel runs (V_r, mu1) on [0, r_chi], the rho channel
    (V_rho, mu2) on [0, rho_phi].  A channel with no converged eigenpair
    raises a composite error naming the channel.  Probe mode needs both
    ``k_fixed_r`` and ``k_fixed_rho``.
    """
    if k_mode not in ("self_consistent", "probe"):
        raise ConfigurationError(f"unknown k mode {k_mode!r}")
    if k_mode == "probe" and (k_fixed_r is None or k_fixed_rho is None):
        raise ConfigurationError("probe k mode needs k_fixed_r and k_fixed_rho")
    channels = (
        ("r", model.v_r, model.mu1, model.r_chi, k_fixed_r, seeds_r),
        ("rho", model.v_rho, model.mu2, model.rho_phi, k_fixed_rho, seeds_rho),
    )
    out = []
    for name, pot, mu, region, k_fix, seeds in channels:
        if not seeds:
            raise SubsystemConvergenceError(name, "no seeds supplied")
        result = find_kp_eigenvalues(
            pot, mu, seeds, region,
            k_fixed=k_fix if k_mode == "probe" else None,
            spacing=spacing, tol=tol,
        )
        if not result.eigenpairs:
            reasons = "; ".join(f.reason for f in result.failures) or "no eigenpairs"
            raise SubsystemConvergenceError(name, f"no converged eigenvalue ({reasons})")
        out.append(min(result.eigenpairs, key=lambda p: p.w.real))
    return out[0], out[1]


@dataclass(frozen=True)
class ThreeBodyWidth:
    gamma: float
    tau: float
    gamma_from_currents: float


def three_body_width(eig_r: ResonanceEigenpair, eig_rho: ResonanceEigenpair) -> ThreeBodyWidth:
    """Total width as the sum of channel widths, cross-checked against currents.

    ``gamma_from_currents`` recomputes each channel's Gamma as j/N straight
    from the wave functions, an independent code path from the eigenvalues.
    """
    if eig_r.gamma <= 0.0 or eig_rho.gamma <= 0.0:
        raise NonphysicalStateError("both channel widths must be positive")
    gamma = eig_r.gamma + eig_rho.gamma
    gamma_cur = (eig_r.boundary_current() / eig_r.norm()
                 + eig_rho.boundary_current() / eig_rho.norm())
    return ThreeBodyWidth(gamma=gamma, tau=1.0 / gamma, gamma_from_currents=gamma_cur)


@dataclass(frozen=True)
class ThreeBodyCurrents:
    j_r: float
    j_rho: float
    j_3b: float
    decay_factor: float


def three_body_currents(eig_r: ResonanceEigenpair, eig_rho: ResonanceEigenpair,
                        t: float = 0.0) -> ThreeBodyCurrents:
    """Marginal boundary currents j_r = |f|^2 N_Phi j_chi and its rho twin."""
    if not math.isfinite(t):
        raise ConfigurationError("t must be finite")
    gamma = eig_r.gamma + eig_rho.gamma
    decay = math.exp(-gamma * t)
    j_r = decay * eig_rho.norm() * eig_r.boundary_current()
    j_rho = decay * eig_r.norm() * eig_rho.boundary_current()
    return ThreeBodyCurrents(j_r=j_r, j_rho=j_rho, j_3b=j_r + j_rho, decay_factor=decay)


@dataclass(frozen=True)
class ThreeBodyReport:
    """Subsystem dwell times, composite width, and identity residuals."""

    w_chi: complex
    w_phi: complex
    e_total: complex
    gamma_r: float
    tau_r: float
    tau_chi: float
    tau_phi_sub: float
    tau_3b: float
    identity_residual: float
    continuity_residual: float
    # the quadrature gate's value; not part of the wire format
    factorization_residual: float

    def to_dict(self) -> dict:
        return {
            "W_chi": [self.w_chi.real, self.w_chi.imag],
            "W_phi": [self.w_phi.real, self.w_phi.imag],
            "Gamma_R": self.gamma_r,
            "tau_R": self.tau_r,
            "tau_chi": self.tau_chi,
            "tau_phi": self.tau_phi_sub,
            "tau_3b": self.tau_3b,
            "identity_residual": self.identity_residual,
            "continuity_residual": self.continuity_residual,
        }


def _scipy_simpson(y: np.ndarray, dx: float):
    """scipy's Simpson rule.  ``scipy.integrate`` is imported on the first
    call: nothing else needs it, and importing it at start-up would make
    every CLI run pay for a check only ``threebody`` and ``verify`` make."""
    from scipy.integrate import simpson

    return simpson(y, dx=dx)


def factorization_residual(eig_r: ResonanceEigenpair, eig_rho: ResonanceEigenpair) -> float:
    """Relative gap between scipy's Simpson of |Psi|^2 and N_chi * N_phi.

    For a separable Psi the double norm integral factorizes by
    construction, and by linearity the 2-d Simpson rule of the outer
    product |chi|^2 |Phi|^2 is the product of the two 1-d Simpson sums, so
    no n x n array is formed.  What the check really tests is scipy's
    Simpson rule against ``numerics.simpson_segmented`` (the route behind
    ``norm``): an independent quadrature cross-check, gated at 1e-9.
    """
    product = eig_r.norm() * eig_rho.norm()
    direct = (float(_scipy_simpson(np.abs(eig_r.eigenfunction.values) ** 2,
                                   dx=eig_r.eigenfunction.grid.spacing))
              * float(_scipy_simpson(np.abs(eig_rho.eigenfunction.values) ** 2,
                                     dx=eig_rho.eigenfunction.grid.spacing)))
    return abs(direct - product) / max(abs(product), 1e-300)


def three_body_dwell(model: ThreeBodyModel, eig_r: ResonanceEigenpair,
                     eig_rho: ResonanceEigenpair,
                     factorization_tol: float = 1e-9,
                     lifetime_tol: float = 1e-8) -> ThreeBodyReport:
    """Three-body dwell time and the reciprocal-addition residuals.

    The double norm integral is evaluated both as the product of channel
    norms and by direct two-dimensional quadrature; disagreement beyond
    ``factorization_tol`` signals a grid problem.  The resulting tau_3b
    must match the composite lifetime 1/Gamma_R to ``lifetime_tol``.
    The report's ``continuity_residual`` is the integrated channel
    residual |Gamma N - j| / (Gamma N), the larger of the two channels;
    the pointwise balance needs ``continuity_residual()``.
    """
    widths = three_body_width(eig_r, eig_rho)
    currents = three_body_currents(eig_r, eig_rho, t=0.0)

    n_chi = eig_r.norm()
    n_phi = eig_rho.norm()
    product = n_chi * n_phi

    factorization = factorization_residual(eig_r, eig_rho)
    if factorization > factorization_tol:
        raise InternalConsistencyError(
            "2-d quadrature of the double norm disagrees with the factorized product"
        )

    tau_chi = n_chi / eig_r.boundary_current()
    tau_phi = n_phi / eig_rho.boundary_current()
    tau_3b = product / currents.j_3b

    identity_residual = abs(tau_3b * (1.0 / tau_chi + 1.0 / tau_phi) - 1.0)
    lifetime_residual = abs(tau_3b * widths.gamma - 1.0)
    if lifetime_residual > lifetime_tol:
        raise InternalConsistencyError(
            f"three-body dwell time {tau_3b} does not match lifetime "
            f"{widths.tau} (relative residual {lifetime_residual:.3e})"
        )

    return ThreeBodyReport(
        w_chi=eig_r.w,
        w_phi=eig_rho.w,
        e_total=eig_r.w + eig_rho.w,
        gamma_r=widths.gamma,
        tau_r=widths.tau,
        tau_chi=tau_chi,
        tau_phi_sub=tau_phi,
        tau_3b=tau_3b,
        identity_residual=identity_residual,
        continuity_residual=max(_integrated_residual(eig_r, n_chi),
                                _integrated_residual(eig_rho, n_phi)),
        factorization_residual=factorization,
    )


@dataclass(frozen=True)
class ContinuityReport:
    """Numerical residuals of the density balance equations.

    ``balance_max`` is the max-norm over the 2-d grid of the generalized
    balance  d|Psi|^2/dt + d(J_r)/dr + d(J_rho)/drho  with the analytic
    time derivative -Gamma_R |Psi|^2.  It is evaluated in row chunks of at
    most ``_BALANCE_CHUNK`` elements, so memory stays O(n) however fine
    the grid; every element is the same product-and-sum as on the full
    n x n grid, so the max is bit-identical.  The channel residuals check
    each marginal density against the divergence of its own current (each
    channel decays with its own width; the remaining decay drains through
    the other channel's boundary).  Integrated over its region, a channel
    residual reduces to the width-norm-current identity Gamma N = j.
    All residuals are per unit |f(t)|^2; the decay factor cancels.
    """

    balance_max: float
    balance_scale: float
    channel_max_r: float
    channel_max_rho: float
    integrated_residual_r: float
    integrated_residual_rho: float


# elements per row chunk of the 2-d balance (2 MiB of float64)
_BALANCE_CHUNK = 2 ** 18


def _channel_fields(eig: ResonanceEigenpair):
    sol = eig.eigenfunction
    values = sol.values
    current = (np.conj(values) * sol.derivatives).imag / eig.mass
    div_current = fd_derivative_field(current, sol.grid.spacing, sol._break_nodes).real
    return np.abs(values) ** 2, div_current


def _integrated_residual(eig: ResonanceEigenpair, norm: float) -> float:
    """|Gamma N - j| / (Gamma N) of one channel with norm N."""
    return abs(eig.gamma * norm - eig.boundary_current()) / (eig.gamma * norm)


def _balance_max(gamma: float, dens_r, div_r, dens_rho, div_rho,
                 chunk: int = _BALANCE_CHUNK) -> float:
    """max |-gamma a_i b_j + da_i b_j + a_i db_j| over the 2-d grid, by row chunks."""
    rows = max(1, chunk // dens_rho.size)
    peaks = []
    for start in range(0, dens_r.size, rows):
        a = dens_r[start:start + rows, None]
        block = a * dens_rho
        block *= -gamma
        block += div_r[start:start + rows, None] * dens_rho
        block += a * div_rho
        peaks.append(np.abs(block, out=block).max())
    return float(np.max(peaks))  # np.max, unlike max(), keeps a NaN


def continuity_residual(eig_r: ResonanceEigenpair, eig_rho: ResonanceEigenpair) -> ContinuityReport:
    """Evaluate the generalized balance and per-channel continuity residuals."""
    gamma_r_total = eig_r.gamma + eig_rho.gamma

    dens_r, div_r = _channel_fields(eig_r)
    dens_rho, div_rho = _channel_fields(eig_rho)
    n_chi = eig_r.norm()
    n_phi = eig_rho.norm()

    # channel continuity: Gamma_channel * density = d(current)/dx pointwise
    res_r = n_phi * (eig_r.gamma * dens_r - div_r)
    res_rho = n_chi * (eig_rho.gamma * dens_rho - div_rho)

    return ContinuityReport(
        # generalized balance on the 2-d grid (time derivative is analytic)
        balance_max=_balance_max(gamma_r_total, dens_r, div_r, dens_rho, div_rho),
        # densities are non-negative and rounding is monotone, so this is
        # exactly the max of the outer product
        balance_scale=gamma_r_total * float(np.max(dens_r) * np.max(dens_rho)),
        channel_max_r=float(np.max(np.abs(res_r))),
        channel_max_rho=float(np.max(np.abs(res_rho))),
        # integrated form: width-weighted norm equals the boundary current
        integrated_residual_r=_integrated_residual(eig_r, n_chi),
        integrated_residual_rho=_integrated_residual(eig_rho, n_phi),
    )
