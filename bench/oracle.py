"""Closed-form references for the benchmark, independent of the package.

Nothing here imports ``dwelltime``: every value comes from textbook
matching algebra evaluated with mpmath at ``DIGITS`` significant digits,
so an output is never checked against the code path that produced it.

Conventions follow the package (hbar = 1, k = sqrt(2 m E)):

* square well ``V = -V0`` on ``r < a``; the s-wave phase shift satisfies
  ``delta + k a = atan2(k sin(K a), K cos(K a))`` with ``K = sqrt(2 m (E + V0))``;
* rectangular barrier ``V = V0`` on ``[0, L)``, with
  ``Psi = e^{ikx} + R e^{-ikx}`` on the left and ``T e^{ikx}`` on the right;
* Kapur-Peierls (KP) eigenvalues ``W`` of the square well solve
  ``phi'(r0) = i k phi(r0)`` with ``phi`` regular at the origin, either at a
  fixed probe ``k`` or self-consistently with ``k = sqrt(2 m Re W)``.

Every formula is written through ``cos(q x)``, ``sin(q x) / q`` and
``q sin(q x)``, which are entire in ``q^2``, so no square-root branch is
ever chosen.
"""

from __future__ import annotations

import cmath
import math

import mpmath as mp

DIGITS = 30
mp.mp.dps = DIGITS


def _c(q2, x):
    """cos(q x) as a function of q^2."""
    return mp.cos(mp.sqrt(q2) * x)


def _s(q2, x):
    """sin(q x) / q as a function of q^2 (equals x at q = 0)."""
    q = mp.sqrt(q2)
    return x if q == 0 else mp.sin(q * x) / q


# ---------------------------------------------------------------------------
# square-well scattering


def square_well_delta(energy, mass, depth, radius) -> float:
    """s-wave phase shift of the attractive square well, reduced to (-pi/2, pi/2]."""
    e, m, v0, a = (mp.mpf(x) for x in (energy, mass, depth, radius))
    k = mp.sqrt(2 * m * e)
    kk = mp.sqrt(2 * m * (e + v0))
    delta = mp.atan2(k * mp.sin(kk * a), kk * mp.cos(kk * a)) - k * a
    return float(_wrap_pi(delta))


def square_well_delay(energy, mass, depth, radius) -> float:
    """Wigner delay 2 d(delta)/dE of the square well, differentiated in closed form."""
    e, m, v0, a = (mp.mpf(x) for x in (energy, mass, depth, radius))
    k = mp.sqrt(2 * m * e)
    kk = mp.sqrt(2 * m * (e + v0))
    y, x = k * mp.sin(kk * a), kk * mp.cos(kk * a)
    dy = (m / k) * mp.sin(kk * a) + k * mp.cos(kk * a) * a * m / kk
    dx = (m / kk) * mp.cos(kk * a) - a * m * mp.sin(kk * a)
    ddelta = (x * dy - y * dx) / (x * x + y * y) - a * m / k
    return float(2 * ddelta)


def _wrap_pi(x):
    out = x - mp.pi * mp.nint(x / mp.pi)
    if out <= -mp.pi / 2:
        out += mp.pi
    return out


def angle_gap(a: float, b: float) -> float:
    """|a - b| reduced modulo pi (phase shifts are defined modulo pi)."""
    d = (a - b) % math.pi
    return min(d, math.pi - d)


# ---------------------------------------------------------------------------
# rectangular barrier


def barrier_amplitudes(e, m, v0, length):
    """(R, T) of the rectangular barrier from plane-wave matching at x = 0 and L."""
    k = mp.sqrt(2 * m * e)
    q2 = 2 * m * (e - v0)
    c, s = _c(q2, length), _s(q2, length)
    den = c - 1j * (k * k + q2) * s / (2 * k)
    r = 1j * (q2 - k * k) * s / (2 * k) / den
    t = mp.exp(-1j * k * length) / den
    return r, t


def barrier_times(energy, mass, height, width):
    """(tau_phase, tau_dwell) of the rectangular barrier.

    The phase time is |T|^2 d(arg T + kL)/dE + |R|^2 d(arg R)/dE, with the
    amplitude derivatives taken by mpmath at working precision; the dwell
    time follows from the exact splitting tau_phase = tau_dwell - Im(R) m / k^2.
    """
    e, m, v0, length = (mp.mpf(x) for x in (energy, mass, height, width))
    k = mp.sqrt(2 * m * e)
    r, t = barrier_amplitudes(e, m, v0, length)
    dr = mp.diff(lambda x: barrier_amplitudes(x, m, v0, length)[0], e)
    dt = mp.diff(lambda x: barrier_amplitudes(x, m, v0, length)[1], e)
    # |A|^2 d(arg A)/dE = Im(conj(A) dA/dE): no division by a vanishing amplitude
    tau_phase = mp.im(mp.conj(t) * dt) + abs(t) ** 2 * m * length / k + mp.im(mp.conj(r) * dr)
    tau_dwell = tau_phase + mp.im(r) * m / (k * k)
    return float(tau_phase), float(tau_dwell)


# ---------------------------------------------------------------------------
# Kapur-Peierls eigenvalues of the square well


def _kp_defect(w, k, mass, depth, radius, r0):
    """phi'(r0) - i k phi(r0) for the regular solution phi(r) = sin(K r)/K inside."""
    inner = 2 * mass * (w + depth)
    phi_a, dphi_a = _s(inner, radius), _c(inner, radius)
    outer = 2 * mass * w
    d = r0 - radius
    c, s = _c(outer, d), _s(outer, d)
    phi = phi_a * c + dphi_a * s
    dphi = -phi_a * outer * s + dphi_a * c
    return dphi - 1j * k * phi


def kp_eigenvalue(guess: complex, mass, depth, radius, r0, k_fixed=None) -> complex:
    """KP eigenvalue nearest ``guess`` (probe mode if ``k_fixed`` is given)."""
    m, v0, a, r0 = (mp.mpf(x) for x in (mass, depth, radius, r0))
    if k_fixed is not None:
        k = mp.mpf(k_fixed)
        w = mp.findroot(lambda w: _kp_defect(w, k, m, v0, a, r0), mp.mpc(guess))
        return complex(w)

    def equations(x, y):
        d = _kp_defect(mp.mpc(x, y), mp.sqrt(2 * m * x), m, v0, a, r0)
        return [mp.re(d), mp.im(d)]

    x, y = mp.findroot(equations, (mp.mpf(guess.real), mp.mpf(guess.imag)))
    return complex(mp.mpc(x, y))


# ---------------------------------------------------------------------------
# double-precision root search used only to place generated seeds


def _kp_defect_float(w: complex, k: float, mass, depth, radius, r0) -> complex:
    def c(q2, x):
        return cmath.cos(cmath.sqrt(q2) * x)

    def s(q2, x):
        q = cmath.sqrt(q2)
        return x if q == 0 else cmath.sin(q * x) / q

    inner = 2 * mass * (w + depth)
    phi_a, dphi_a = s(inner, radius), c(inner, radius)
    outer = 2 * mass * w
    d = r0 - radius
    phi = phi_a * c(outer, d) + dphi_a * s(outer, d)
    dphi = -phi_a * outer * s(outer, d) + dphi_a * c(outer, d)
    return dphi - 1j * k * phi


def _secant(fn, w0: complex, iterations: int = 60):
    w1 = w0 * (1 + 1e-3) + 1e-3j
    f0, f1 = fn(w0), fn(w1)
    for _ in range(iterations):
        if f1 == f0:
            break
        w0, w1 = w1, w1 - f1 * (w1 - w0) / (f1 - f0)
        f0, f1 = f1, fn(w1)
        if abs(w1 - w0) < 1e-13 * max(abs(w1), 1.0):
            return w1
    return None


def approximate_kp_roots(mass, depth, radius, r0, k_fixed=None, e_max=12.0) -> list[complex]:
    """Decaying KP eigenvalues (0 < Re W < e_max, Im W < 0) found from a grid of starts.

    Used to place benchmark seeds; the checks use :func:`kp_eigenvalue`.
    """
    roots: list[complex] = []
    for re in (0.5, 1.5, 3.0, 5.0, 7.5, 10.0):
        for im in (-0.5, -1.5, -3.0):
            w = _settle(complex(re, im), mass, depth, radius, r0, k_fixed)
            if w is None or not (0.0 < w.real < e_max and -6.0 < w.imag < -1e-6):
                continue
            if all(abs(w - r) > 1e-6 * max(abs(w), 1.0) for r in roots):
                roots.append(w)
    return sorted(roots, key=lambda w: w.real)


def _settle(w: complex, mass, depth, radius, r0, k_fixed):
    if k_fixed is not None:
        return _secant(lambda x: _kp_defect_float(x, k_fixed, mass, depth, radius, r0), w)

    # self-consistent k = sqrt(2 m Re W) is not analytic in W: Newton on the
    # real 2x2 system (Re D, Im D) = 0 with a forward-difference Jacobian
    def defect(x, y):
        d = _kp_defect_float(complex(x, y), math.sqrt(2.0 * mass * x), mass, depth, radius, r0)
        return d.real, d.imag

    x, y = w.real, w.imag
    for _ in range(50):
        if x <= 0.0:
            return None
        hx, hy = 1e-7 * max(abs(x), 1.0), 1e-7 * max(abs(y), 1.0)
        if x - hx <= 0.0:
            return None
        f0, fx, fy = defect(x, y), defect(x + hx, y), defect(x, y + hy)
        a, b = (fx[0] - f0[0]) / hx, (fy[0] - f0[0]) / hy
        c, d = (fx[1] - f0[1]) / hx, (fy[1] - f0[1]) / hy
        det = a * d - b * c
        if det == 0.0:
            return None
        dx, dy = (f0[0] * d - f0[1] * b) / det, (a * f0[1] - c * f0[0]) / det
        x, y = x - dx, y - dy
        if abs(dx) + abs(dy) < 1e-13 * max(abs(x) + abs(y), 1.0):
            return complex(x, y)
    return None
