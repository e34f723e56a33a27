"""Closed-form reference solutions used as independent oracles.

Everything here is derived from textbook matching algebra, evaluated
symbolically (sympy) or by direct linear algebra, never through the
package's own integrators.  The exception is the last section, a frozen
copy of the one-shot Numerov assembly that the prepared operators must
reproduce bit for bit.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import mpmath
import numpy as np
import sympy as sp
from scipy.linalg.lapack import dtbtrs, ztbtrs

from dwelltime.numerics import taylor_first_step

_E, _m, _V, _a = sp.symbols("E m V a", positive=True)


def _wrap_pi(x: float) -> float:
    out = x - math.pi * round(x / math.pi)
    if out <= -0.5 * math.pi:
        out += math.pi
    return out


def square_well_delta(energy: float, mass: float, depth: float, radius: float) -> float:
    """s-wave phase shift of an attractive square well, in (-pi/2, pi/2]."""
    k = math.sqrt(2.0 * mass * energy)
    kp = math.sqrt(2.0 * mass * (energy + depth))
    return _wrap_pi(math.atan2(k * math.tan(kp * radius), kp) - k * radius)


@lru_cache(maxsize=None)
def _square_well_delay_fn():
    k = sp.sqrt(2 * _m * _E)
    kp = sp.sqrt(2 * _m * (_E + _V))
    delta = sp.atan((k / kp) * sp.tan(kp * _a)) - k * _a
    return sp.lambdify((_E, _m, _V, _a), 2 * sp.diff(delta, _E), "math")


def square_well_delay(energy: float, mass: float, depth: float, radius: float) -> float:
    """2 d(delta)/dE for the square well, by symbolic differentiation."""
    return _square_well_delay_fn()(energy, mass, depth, radius)


def repulsive_step_delta(energy: float, mass: float, height: float, radius: float) -> float:
    """Phase shift of a repulsive step core (E < height), in (-pi/2, pi/2]."""
    assert energy < height
    k = math.sqrt(2.0 * mass * energy)
    kappa = math.sqrt(2.0 * mass * (height - energy))
    return _wrap_pi(math.atan((k / kappa) * math.tanh(kappa * radius)) - k * radius)


@lru_cache(maxsize=None)
def _repulsive_step_delay_fn():
    k = sp.sqrt(2 * _m * _E)
    kappa = sp.sqrt(2 * _m * (_V - _E))
    delta = sp.atan((k / kappa) * sp.tanh(kappa * _a)) - k * _a
    return sp.lambdify((_E, _m, _V, _a), 2 * sp.diff(delta, _E), "math")


def repulsive_step_delay(energy: float, mass: float, height: float, radius: float) -> float:
    return _repulsive_step_delay_fn()(energy, mass, height, radius)


def barrier_amplitudes(energy: float, mass: float, height: float, width: float):
    """(R, A, B, T) for a rectangular barrier by direct plane-wave matching.

    Interior basis A e^{iqx} + B e^{-iqx} with q = sqrt(2m(E - V0) + 0j);
    at E == V0 the interior is linear and handled in closed form.
    """
    k = math.sqrt(2.0 * mass * energy)
    q = cmath.sqrt(2.0 * mass * complex(energy - height))
    if abs(q) < 1e-12:
        t = 2.0 * cmath.exp(-1j * k * width) / (2.0 - 1j * k * width)
        r = t * cmath.exp(1j * k * width) * (1.0 - 1j * k * width) - 1.0
        return r, None, None, t
    mat = np.array([
        [1, -1, -1, 0],
        [-1j * k, -1j * q, 1j * q, 0],
        [0, cmath.exp(1j * q * width), cmath.exp(-1j * q * width), -cmath.exp(1j * k * width)],
        [0, 1j * q * cmath.exp(1j * q * width), -1j * q * cmath.exp(-1j * q * width),
         -1j * k * cmath.exp(1j * k * width)],
    ], dtype=complex)
    rhs = np.array([-1, -1j * k, 0, 0], dtype=complex)
    r, a, b, t = np.linalg.solve(mat, rhs)
    return r, a, b, t


def barrier_phase_time(energy: float, mass: float, height: float, width: float) -> float:
    """|T|^2 d(arg T + kL)/dE + |R|^2 d(arg R)/dE of the rectangular barrier (E != V0).

    R and T in closed form (interior wavenumber q, imaginary below the
    top), evaluated and differentiated in E by mpmath at 30 digits, so the
    exponentially small T of an opaque barrier keeps its digits.
    """
    with mpmath.workdps(30):
        m, v0, length = mpmath.mpf(mass), mpmath.mpf(height), mpmath.mpf(width)

        def amplitudes(e):
            k = mpmath.sqrt(2 * m * e)
            q = mpmath.sqrt(mpmath.mpc(2 * m * (e - v0)))
            s, c = mpmath.sin(q * length), mpmath.cos(q * length)
            denom = c - 1j * (k * k + q * q) / (2 * k * q) * s
            return 1j * (q * q - k * k) / (2 * k * q) * s / denom, mpmath.exp(-1j * k * length) / denom

        e = mpmath.mpf(energy)
        r, t = amplitudes(e)
        dr = mpmath.diff(lambda x: amplitudes(x)[0], e)
        dt = mpmath.diff(lambda x: amplitudes(x)[1], e)
        k = mpmath.sqrt(2 * m * e)
        return float(mpmath.im(mpmath.conj(t) * dt) + abs(t) ** 2 * m * length / k
                     + mpmath.im(mpmath.conj(r) * dr))


def barrier_interior_dwell(energy: float, mass: float, height: float, width: float,
                           n_points: int = 1_000_001) -> float:
    """Dwell time over the barrier by brute-force quadrature of the exact wave."""
    r, a, b, t = barrier_amplitudes(energy, mass, height, width)
    x = np.linspace(0.0, width, n_points)
    q = cmath.sqrt(2.0 * mass * complex(energy - height))
    psi = a * np.exp(1j * q * x) + b * np.exp(-1j * q * x)
    k = math.sqrt(2.0 * mass * energy)
    return float(np.trapezoid(np.abs(psi) ** 2, x) / (k / mass))


def square_well_interior_dwell(energy: float, mass: float, depth: float, radius: float) -> float:
    """Unit-flux interior dwell time of the square well on [0, radius], closed form."""
    k = math.sqrt(2.0 * mass * energy)
    kp = math.sqrt(2.0 * mass * (energy + depth))
    v = k / mass
    delta = square_well_delta(energy, mass, depth, radius)
    amp2 = (4.0 / v) * math.sin(k * radius + delta) ** 2 / math.sin(kp * radius) ** 2
    return amp2 * (radius / 2.0 - math.sin(2.0 * kp * radius) / (4.0 * kp))


# ---------------------------------------------------------------------------
# The per-solve Numerov assembly as it stood before the prepared operators:
# node samples, resolution check, f, the break corrections and a freshly
# built difference-form band on every call.  Tests require the operators'
# solves to equal it bit for bit.

_GROWTH_LIMIT = math.log(1e250)


def _one_shot_band_solve(cf, cf_right, cf_left, y0, y1):
    m = cf.shape[0]
    band = np.zeros((2 * m - 1, 4), dtype=cf.dtype)
    band[:, 0] = 1.0
    band[3::2, 0] -= cf_right[2:]
    band[2:-2:2, 1] = -(cf_right[2:] + 10.0 * cf[1:-1])
    band[3:-1:2, 1] = -1.0
    band[1:-2, 2] = -1.0
    band[:-4:2, 3] = -cf_left[:-2]
    rhs = np.zeros(2 * m - 1, dtype=cf.dtype)
    rhs[:3] = y0, y1 - y0, y1
    x, info = (ztbtrs if np.iscomplexobj(band) else dtbtrs)(band.T, rhs, uplo="L", overwrite_b=1)
    assert info == 0
    return x[::2]


def _one_shot_numerov(f, h, y0, y1, f_as_right=None, f_as_left=None):
    f_as_right = f if f_as_right is None else f_as_right
    f_as_left = f if f_as_left is None else f_as_left
    n = f.shape[0]
    dtype = complex if (np.iscomplexobj(f) or isinstance(y0, complex) or isinstance(y1, complex)) else float
    c = h * h / 12.0
    cf = (c * f).astype(dtype, copy=False)
    cf_right = cf if f_as_right is f else (c * f_as_right).astype(dtype, copy=False)
    cf_left = cf if f_as_left is f else (c * f_as_left).astype(dtype, copy=False)
    if np.iscomplexobj(f):
        kappa2 = max(float(np.max(f.real)), 0.0) + float(np.max(np.abs(f.imag)))
    else:
        kappa2 = max(float(np.max(f)), 0.0)
    kappa = math.sqrt(kappa2)
    m = n
    if h * kappa * (n - 1) > _GROWTH_LIMIT:
        m = max(3, int(_GROWTH_LIMIT / (h * kappa)))
    y = np.empty(n, dtype=dtype)
    y[0] = y0
    y[1] = y1
    scale = 1.0
    start = 0
    while start + 2 < n:
        stop = min(start + m, n)
        z = _one_shot_band_solve(cf[start:stop], cf_right[start:stop], cf_left[start:stop],
                                 y[start], y[start + 1])
        y[start + 2 : stop] = z[2:]
        if stop < n:
            peak = float(np.max(np.abs(y[start:stop])))
            y[:stop] /= peak
            scale /= peak
        start = stop - 2
    return y.astype(complex, copy=False), scale


def _one_shot_resolution_scale(energy, v):
    return float(np.max(np.abs(energy - v)))


def one_shot_radial(potential, energy, mass, grid):
    """(values, derivative_at_end, origin_slope, resolution scale) of one radial solve."""
    nodes = grid.nodes()
    h = grid.spacing
    n = grid.n_points
    v = np.append(np.asarray(potential.evaluate(nodes), dtype=float),
                  float(potential.evaluate(nodes[-1] + h)))
    v_left, v_center, v_right = v.copy(), v.copy(), v.copy()
    breaks = []
    for radius, left, right in potential.jump_points():
        i = grid.index_of(radius)
        if i is None:
            continue
        if i == n - 1:
            v_left[i] = v_center[i] = v_right[i] = left
            v_left[i + 1] = v_center[i + 1] = v_right[i + 1] = left
        elif i > 0:
            v_left[i] = left
            v_center[i] = 0.5 * (left + right)
            v_right[i] = right
            breaks.append(i)
    for radius in potential.kink_points():
        i = grid.index_of(radius)
        if i is not None and 0 < i < n - 1:
            breaks.append(i)
    f = 2.0 * mass * (v_center - energy)
    f_as_right = 2.0 * mass * (v_left - energy)
    f_as_left = 2.0 * mass * (v_right - energy)
    for c in sorted(set(breaks)):
        df = f_as_left[c] - f_as_right[c]
        slope_gap = (f[c + 1] - f_as_left[c]) / h - (f_as_right[c] - f[c - 1]) / h
        f_as_right[c + 1] += 0.5 * df
        f_as_left[c - 1] -= 0.5 * df
        f[c] += h * slope_gap / 10.0 - h * h * df * df / 40.0
    y1 = taylor_first_step(0.0, 1.0, h, f[0], f[1])
    y, scale = _one_shot_numerov(f, h, 0.0, y1, f_as_right=f_as_right, f_as_left=f_as_left)
    d_end = (
        y[n] - y[n - 2] - (h * h / 6.0) * (f[n] - f[n - 2]) * y[n - 1]
    ) / (2.0 * h * (1.0 + (h * h / 6.0) * f[n - 1]))
    return y[:n], complex(d_end), scale, _one_shot_resolution_scale(energy, v_center[:-1])


def one_shot_barrier(potential, energy, mass, grid):
    """(values, reflection, transmission, resolution scale) of one 1-d barrier solve."""
    nodes = grid.nodes()
    h = grid.spacing
    n = grid.n_points
    length = potential.support_radius
    v = np.asarray(potential.evaluate(nodes), dtype=float)
    for radius, left, right in potential.jump_points():
        if grid.index_of(radius) == n - 1:
            v[n - 1] = left
    k = math.sqrt(2.0 * mass * energy)
    f = 2.0 * mass * (v - energy)
    f_rev = np.append(f[::-1], f[0])
    z0 = np.exp(1j * k * length)
    dz0 = -1j * k * z0
    z1 = taylor_first_step(z0, dz0, h, f_rev[0], f_rev[1])
    z, scale = _one_shot_numerov(f_rev, h, z0, z1)
    psi = z[:n][::-1].copy()
    dpsi0_rev = (
        z[n] - z[n - 2] - (h * h / 6.0) * (f_rev[n] - f_rev[n - 2]) * z[n - 1]
    ) / (2.0 * h * (1.0 + (h * h / 6.0) * f_rev[n - 1]))
    psi0 = psi[0]
    dpsi0 = -dpsi0_rev
    c = 2j * k / (1j * k * psi0 + dpsi0)
    psi *= c
    return psi, complex(c * psi0 - 1.0), complex(scale * c), _one_shot_resolution_scale(energy, v)
