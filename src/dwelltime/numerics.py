"""Low-level numerical kernels: Numerov propagation, stencils, quadrature.

Everything here works on plain arrays; the physics modules translate
potentials and boundary conditions into the ``y'' = f(x) y`` form used
throughout.  All kernels accept complex data.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg.lapack import dtbtrs, ztbtrs

from .errors import BlockOverflowError

# ln(1e250): the growth one LAPACK solve may accumulate, leaving a wide
# margin below the double-precision overflow at about 1.8e308
_GROWTH_LIMIT = math.log(1e250)


def taylor_first_step(y0, dy0, h: float, f0, f1):
    """Series value y(h) for y'' = f y from y(0), y'(0).

    Uses the local slope of f estimated from the first two nodes; exact
    through h^5 for constant f, O(h^5) otherwise.
    """
    fp = (f1 - f0) / h
    return (
        y0 * (1.0 + f0 * h**2 / 2.0 + f0**2 * h**4 / 24.0)
        + dy0 * (h + f0 * h**3 / 6.0 + f0**2 * h**5 / 120.0)
        + fp * (y0 * h**3 / 6.0 + dy0 * h**4 / 12.0)
    )


def taylor_first_step_tangent(y0, dy0, u0, du0, h: float, f0, f1, df):
    """d/dp of :func:`taylor_first_step` when y0, dy0 move by u0, du0 and f by df.

    ``df`` shifts f0 and f1 alike (the energy: df = -2m), so the slope of
    f does not move.
    """
    return taylor_first_step(u0, du0, h, f0, f1) + df * (
        y0 * (h**2 / 2.0 + f0 * h**4 / 12.0) + dy0 * (h**3 / 6.0 + f0 * h**5 / 60.0))


def _growth_bound(f: np.ndarray) -> float:
    """Upper bound on the local growth rate Re sqrt(f) of y'' = f y.

    kappa^2 = max(Re f, 0) + max|Im f| bounds (Re sqrt f)^2 at every node
    without taking a complex square root over the grid.
    """
    if np.iscomplexobj(f):
        kappa2 = max(float(np.max(f.real)), 0.0) + float(np.max(np.abs(f.imag)))
    else:
        kappa2 = max(float(np.max(f)), 0.0)
    return math.sqrt(kappa2)


def solve_banded(ab, rhs):
    """Solve a lower-triangular banded system by forward substitution.

    ``ab`` holds the band in LAPACK lower storage (``ab[k, j]`` is the
    coefficient of unknown j in row j + k) and shares ``rhs``'s dtype; one
    LAPACK ``tbtrs`` call, which overwrites ``rhs``.  A nonzero LAPACK
    status (a zero diagonal entry) raises :class:`numpy.linalg.LinAlgError`.
    """
    tbtrs = ztbtrs if np.iscomplexobj(ab) else dtbtrs
    x, info = tbtrs(ab, rhs, uplo="L", overwrite_b=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular band solve failed: LAPACK tbtrs info = {info}")
    return x


class DifferenceBand:
    """Band storage of the difference-form solve, for blocks of up to ``n`` nodes.

    Holds one LAPACK lower-band array per dtype with the constant +-1
    entries of :func:`_banded_block` already set.  A solve writes only the
    three f-dependent slices of the first 2m - 1 rows it uses, and LAPACK
    reads the band without writing it, so one instance serves any number of
    solves with bit-identical results.  Each solve rewrites the storage:
    share an instance between successive solves, never concurrent ones.
    """

    def __init__(self, n: int):
        self.n = n
        self._storage: dict = {}

    def rows(self, m: int, dtype) -> np.ndarray:
        """The first 2m - 1 rows of the band for ``dtype``; m <= n."""
        if m > self.n:
            raise ValueError(f"band holds blocks of up to {self.n} nodes, not {m}")
        band = self._storage.get(dtype)
        if band is None:
            band = np.zeros((2 * self.n - 1, 4), dtype=dtype)
            band[:, 0] = 1.0
            band[3:-1:2, 1] = -1.0
            band[1:-2, 2] = -1.0
            self._storage[dtype] = band
        return band[: 2 * m - 1]


def _banded_block(cf, cf_right, cf_left, y0, y1, band: DifferenceBand, tangent=None, dcf=None):
    """One difference-form solve of the recurrence on a block seeded with y0, y1.

    ``cf`` is (h^2/12) f over the block's nodes, ``cf_right``/``cf_left``
    the same for the endpoint roles.  The unknowns interleave the values
    and their first differences, (y0, d1, y1, d2, y2, ...) with
    d_j = y_j - y_{j-1}; each step adds two rows

        (1 - cf^R_{i+1}) d_{i+1} - d_i - (cf^R_{i+1} + 10 cf_i) y_i - cf^L_{i-1} y_{i-1} = 0
        y_{i+1} - y_i - d_{i+1} = 0

    so the rounded coefficient 2 + 10 cf_i of the plain recurrence is never
    formed.  ``band`` supplies the storage with the constant entries set;
    entries past the block's last row are never read by LAPACK.

    With ``tangent = (u0, u1)`` a second solve on the same band gives the
    exact derivative of the block's values with respect to a parameter
    that moves every cf by ``dcf``: differentiating a step row leaves the
    band unchanged and puts dcf (y_{i+1} + 10 y_i + y_{i-1}) on its right
    side.  Returns the values y over the block and the tangent (None
    without ``tangent``).
    """
    m = cf.shape[0]
    # row j of band is column j of the LAPACK storage, so band.T needs no copy
    band = band.rows(m, cf.dtype)
    np.subtract(1.0, cf_right[2:], out=band[3::2, 0])
    band[2:-2:2, 1] = -(cf_right[2:] + 10.0 * cf[1:-1])
    np.negative(cf_left[:-2], out=band[:-4:2, 3])
    rhs = np.zeros(2 * m - 1, dtype=cf.dtype)
    rhs[:3] = y0, y1 - y0, y1
    y = solve_banded(band.T, rhs)[::2]
    if tangent is None:
        return y, None
    u0, u1 = tangent
    rhs = np.zeros(2 * m - 1, dtype=cf.dtype)
    rhs[:3] = u0, u1 - u0, u1
    rhs[3::2] = dcf * (y[2:] + 10.0 * y[1:-1] + y[:-2])
    return y, solve_banded(band.T, rhs)[::2]


def numerov(f: np.ndarray, h: float, y0, y1, f_as_right=None, f_as_left=None,
            band: DifferenceBand | None = None, tangent=None):
    """Propagate y'' = f(x) y across equally spaced nodes given y[0], y[1].

    Returns ``(y, scale)`` where the computed values equal the exact
    recurrence solution multiplied by ``scale`` (scale != 1 only when the
    solve ran in more than one block).

    Each step expands the solution around its center node, so a node value
    of f enters three steps in different roles.  Where f is discontinuous
    exactly on a node, full order needs the one-sided limits per role:
    ``f_as_right``/``f_as_left`` supply the values seen when the node acts
    as the right/left endpoint of a step (default: f itself, which should
    then hold the midpoint of the limits for the center role).

    The recurrence is solved in Blatt's difference form (values and first
    differences as unknowns, see :func:`_banded_block`): one forward
    substitution over a lower-triangular band that never rounds the
    coefficient 2 + 5 h^2 f / 6, so refining the grid does not raise a
    roundoff floor.  When the growth bound kappa (:func:`_growth_bound`)
    allows exp(h kappa (n - 1)) to stay below 1e250 this is a single LAPACK
    call.  Otherwise the nodes are split into blocks of at most
    ln(1e250) / (h kappa) nodes that overlap by two; each block is one
    LAPACK call seeded with the previous block's last two values, and
    everything solved so far is divided by the block's peak modulus before
    the next block starts.  A block that still produces non-finite values
    raises :class:`BlockOverflowError`.

    ``tangent = (u0, u1, df)`` also returns the tangent u = dy/dp of the
    discrete solution for a parameter p that shifts f uniformly by
    df = df/dp in every role (the energy: df = -2m), seeded with
    u[0] = u0, u[1] = u1: ``(y, scale, u)``.  Each block then makes a
    second LAPACK call on the same band, and u is divided by the same
    peaks as y, so u equals ``scale`` times the exact tangent and the
    p-dependence of ``scale`` cancels in every ratio of y and u.  Without
    ``tangent`` nothing of the solve or its bits changes.

    ``band`` is storage kept by a caller that solves many times on one
    grid (:class:`DifferenceBand` of at least ``len(f)`` nodes); without
    it each call builds its own.
    """
    f = np.asarray(f)
    f_as_right = f if f_as_right is None else np.asarray(f_as_right)
    f_as_left = f if f_as_left is None else np.asarray(f_as_left)
    n = f.shape[0]
    if n < 2:
        raise ValueError("need at least two nodes")
    dtype = complex if (np.iscomplexobj(f) or isinstance(y0, complex) or isinstance(y1, complex)) else float
    c = h * h / 12.0
    cf = (c * f).astype(dtype, copy=False)
    cf_right = cf if f_as_right is f else (c * f_as_right).astype(dtype, copy=False)
    cf_left = cf if f_as_left is f else (c * f_as_left).astype(dtype, copy=False)

    kappa = _growth_bound(f)
    m = n
    if h * kappa * (n - 1) > _GROWTH_LIMIT:
        # a block of m nodes advances m - 2 of them
        m = max(3, int(_GROWTH_LIMIT / (h * kappa)))
    if band is None:
        band = DifferenceBand(m)

    y = np.empty(n, dtype=dtype)
    y[0] = y0
    y[1] = y1
    u = dcf = None
    if tangent is not None:
        u = np.empty(n, dtype=dtype)
        u[0], u[1], df = tangent
        dcf = c * df
    scale = 1.0
    start = block = 0
    while start + 2 < n:
        stop = min(start + m, n)
        seed = None if u is None else (u[start], u[start + 1])
        z, w = _banded_block(cf[start:stop], cf_right[start:stop], cf_left[start:stop],
                             y[start], y[start + 1], band, seed, dcf)
        if not (np.all(np.isfinite(z)) and (w is None or np.all(np.isfinite(w)))):
            raise BlockOverflowError(h, kappa, block)
        y[start + 2 : stop] = z[2:]
        if u is not None:
            u[start + 2 : stop] = w[2:]
        if stop < n:
            peak = float(np.max(np.abs(y[start:stop])))
            y[:stop] /= peak
            if u is not None:
                u[:stop] /= peak
            scale /= peak
        start, block = stop - 2, block + 1
    if u is None:
        return y.astype(complex, copy=False), scale
    return y.astype(complex, copy=False), scale, u.astype(complex, copy=False)


def _forward5(y: np.ndarray, i: int, h: float):
    return (-25.0 * y[i] + 48.0 * y[i + 1] - 36.0 * y[i + 2] + 16.0 * y[i + 3] - 3.0 * y[i + 4]) / (12.0 * h)


def _backward5(y: np.ndarray, i: int, h: float):
    return (25.0 * y[i] - 48.0 * y[i - 1] + 36.0 * y[i - 2] - 16.0 * y[i - 3] + 3.0 * y[i - 4]) / (12.0 * h)


def derivative_field(y: np.ndarray, f: np.ndarray, h: float, breaks=()):
    """Fourth-order dy/dx on the whole grid for a solution of y'' = f y.

    Interior nodes use the derivative recurrence that accompanies the
    Numerov scheme; the two end nodes use one-sided stencils.  Nodes listed
    in ``breaks`` (grid indices sitting exactly on a discontinuity of f) and
    their immediate neighbours switch to one-sided stencils that do not
    straddle the discontinuity, preserving the convergence order.
    """
    y = np.asarray(y)
    f = np.asarray(f)
    n = y.shape[0]
    if n < 5:
        raise ValueError("need at least five nodes for fourth-order derivatives")
    d = np.empty(n, dtype=complex)
    d[1:-1] = (y[2:] - y[:-2] - (h * h / 6.0) * (f[2:] - f[:-2]) * y[1:-1]) / (
        2.0 * h * (1.0 + (h * h / 6.0) * f[1:-1])
    )
    d[0] = _forward5(y, 0, h)
    d[-1] = _backward5(y, n - 1, h)

    break_set = set(int(b) for b in breaks)
    for b in break_set:
        # Replace the break node and its neighbours with stencils kept on
        # one smooth side of the discontinuity.
        for i in (b - 1, b, b + 1):
            if i < 0 or i >= n:
                continue
            if i >= 4 and not any(i - 4 <= c < i for c in break_set if c != i):
                d[i] = _backward5(y, i, h)
            elif i + 4 < n:
                d[i] = _forward5(y, i, h)
    return d


def fd_derivative_field(y: np.ndarray, h: float, breaks=()):
    """Fourth-order finite-difference dy/dx for a generic sampled field.

    Same stencil-selection rules as :func:`derivative_field` but without the
    ODE-aware companion form (used for fields that do not obey y'' = f y).
    """
    y = np.asarray(y)
    n = y.shape[0]
    if n < 5:
        raise ValueError("need at least five nodes for fourth-order derivatives")
    d = np.empty(n, dtype=complex)
    d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * h)
    d[0] = _forward5(y, 0, h)
    d[1] = _forward5(y, 1, h) if n >= 6 else d[2]
    d[-1] = _backward5(y, n - 1, h)
    d[-2] = _backward5(y, n - 2, h) if n >= 6 else d[-3]

    break_set = set(int(b) for b in breaks)
    for b in break_set:
        for i in range(b - 2, b + 3):
            if i < 0 or i >= n:
                continue
            if i >= 4 and not any(i - 4 <= c < i for c in break_set if c != i):
                d[i] = _backward5(y, i, h)
            elif i + 4 < n:
                d[i] = _forward5(y, i, h)
    return d


def simpson_uniform(y: np.ndarray, h: float):
    """Composite Simpson integral on a uniform grid.

    Odd interval counts are closed with the 3/8 rule on the final three
    intervals; a bare two-point segment falls back to the trapezoid.
    """
    y = np.asarray(y)
    n = y.shape[0]
    if n < 2:
        return 0.0 * y[..., 0] if n else 0.0
    if n == 2:
        return 0.5 * h * (y[0] + y[1])
    intervals = n - 1
    if intervals % 2 == 0:
        core = y
        tail = 0.0
    else:
        # odd interval count with n >= 4 nodes: the core keeps an odd length
        core = y[: n - 3]
        tail = 3.0 * h / 8.0 * (y[-4] + 3.0 * y[-3] + 3.0 * y[-2] + y[-1])
    if core.shape[0] >= 3:
        s = core[0] + core[-1] + 4.0 * np.sum(core[1:-1:2]) + 2.0 * np.sum(core[2:-2:2])
        main = h / 3.0 * s
    else:
        main = 0.0
    return main + tail


def simpson_with_error(y: np.ndarray, h: float):
    """Simpson integral plus a Richardson-style error estimate."""
    value = simpson_uniform(y, h)
    n = y.shape[0]
    if n >= 5:
        m = n - ((n - 1) % 2)  # largest odd-length prefix: even interval count
        fine = simpson_uniform(y[:m], h)
        coarse = simpson_uniform(y[:m:2], 2.0 * h)
        frac = (m - 1) / (n - 1)
        err = abs(fine - coarse) / 15.0 / max(frac, 1e-12)
    else:
        err = abs(value - np.trapezoid(y, dx=h))
    return value, err


def simpson_segmented(y: np.ndarray, h: float, breaks=()):
    """Simpson integral split at the given node indices.

    Splitting keeps full order when the integrand is only piecewise smooth
    with kinks sitting exactly on grid nodes.
    """
    n = y.shape[0]
    cuts = sorted({0, n - 1} | {int(b) for b in breaks if 0 < int(b) < n - 1})
    total = 0.0
    err = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        v, e = simpson_with_error(y[a : b + 1], h)
        total += v
        err += e
    return total, err


def five_point_derivative(f_m2, f_m1, f_p1, f_p2, h: float):
    """Fourth-order central first derivative from samples at +-h, +-2h."""
    return (f_m2 - 8.0 * f_m1 + 8.0 * f_p1 - f_p2) / (12.0 * h)


def richardson4(d_h, d_half):
    """Extrapolate two fourth-order estimates computed at steps h and h/2."""
    return (16.0 * d_half - d_h) / 15.0


def unwrap_nearest(values: np.ndarray, period: float) -> np.ndarray:
    """Shift each value by multiples of ``period`` to hug its predecessor."""
    out = np.array(values, dtype=float, copy=True)
    for i in range(1, out.shape[0]):
        out[i] += period * np.round((out[i - 1] - out[i]) / period)
    return out


def principal_branch(value: float, period: float) -> float:
    """Reduce to (-period/2, period/2]."""
    out = value - period * np.round(value / period)
    if out <= -0.5 * period:
        out += period
    return float(out)
