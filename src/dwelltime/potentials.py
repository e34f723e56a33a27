"""Finite-range potential models.

Every potential in this package vanishes identically beyond a declared
support radius, so the exterior wave is exactly free.  Smooth shapes
(gaussian, woods_saxon) are hard-truncated at their declared cutoff; the
resulting step is accepted as-is and its magnitude is surfaced through the
solver diagnostics.

Units: hbar = 1 throughout the package.  Masses, energies and lengths are
in any mutually consistent system, and k = sqrt(2 m E).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ConfigurationError, DomainError

KINDS = (
    "square_well",
    "rectangular_barrier_1d",
    "gaussian",
    "woods_saxon",
    "tabulated",
)

_REQUIRED_PARAMS = {
    "square_well": ("V0", "a"),
    "rectangular_barrier_1d": ("V0", "L"),
    "gaussian": ("V0", "sigma", "cutoff"),
    "woods_saxon": ("V0", "R", "a", "cutoff"),
    "tabulated": (),
}

# Length-like parameters must be strictly positive; depths/heights may take
# any sign (negative V0 flips attraction to repulsion).
_RANGE_PARAMS = frozenset({"a", "L", "sigma", "cutoff", "R"})


def _is_real(value) -> bool:
    """A real number (numpy scalars included); not a bool, although bool subclasses int."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _as_float(value, name: str) -> float:
    if not _is_real(value):
        raise ConfigurationError(f"parameter '{name}': expected a real number, got {value!r}")
    out = float(value)
    if not np.isfinite(out):
        raise ConfigurationError(f"parameter '{name}' must be finite, got {out!r}")
    return out


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """A finite-range potential: shape parameters plus a support radius.

    ``evaluate(r)`` returns exactly 0.0 for every r >= support_radius.
    The tabulated kind interpolates its (strictly increasing) table
    piecewise-linearly and reproduces the table nodes exactly.
    """

    kind: str
    params: Mapping[str, float] = field(default_factory=dict)
    support_radius: float | None = None
    table_r: np.ndarray | None = None
    table_v: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigurationError(
                f"unknown potential kind {self.kind!r}; expected one of {', '.join(KINDS)}"
            )
        required = set(_REQUIRED_PARAMS[self.kind])
        given = set(self.params)
        unknown = given - required
        if unknown:
            raise ConfigurationError(
                f"{self.kind}: unknown parameter name(s) {sorted(unknown)}; expected {sorted(required)}"
            )
        missing = required - given
        if missing:
            raise ConfigurationError(f"{self.kind}: missing parameter(s) {sorted(missing)}")
        clean = {name: _as_float(self.params[name], name) for name in sorted(given)}
        for name in given & _RANGE_PARAMS:
            if clean[name] <= 0.0:
                raise ConfigurationError(f"{self.kind}: range parameter '{name}' must be > 0")
        object.__setattr__(self, "params", clean)

        if self.kind == "tabulated":
            if self.table_r is None or self.table_v is None:
                raise ConfigurationError("tabulated: needs 'r' and 'v' arrays")
            r = np.asarray(self.table_r, dtype=float)
            v = np.asarray(self.table_v, dtype=float)
            if r.ndim != 1 or r.shape != v.shape or r.size < 2:
                raise ConfigurationError("tabulated: 'r' and 'v' must be equal-length 1-d arrays (>= 2 points)")
            if r[0] < 0.0:
                raise ConfigurationError("tabulated: grid must start at r >= 0")
            if not np.all(np.diff(r) > 0.0):
                raise ConfigurationError("tabulated: grid must be strictly increasing")
            object.__setattr__(self, "table_r", r)
            object.__setattr__(self, "table_v", v)
        elif self.table_r is not None or self.table_v is not None:
            raise ConfigurationError(f"{self.kind}: table arrays are only valid for the tabulated kind")

        derived = self._derived_support()
        if self.support_radius is None:
            object.__setattr__(self, "support_radius", derived)
        else:
            declared = _as_float(self.support_radius, "support_radius")
            if abs(declared - derived) > 1e-12 * max(1.0, derived):
                raise ConfigurationError(
                    f"{self.kind}: declared support_radius {declared} does not match "
                    f"the shape parameters (expected {derived})"
                )
            object.__setattr__(self, "support_radius", declared)

    def _derived_support(self) -> float:
        p = self.params
        if self.kind == "square_well":
            return p["a"]
        if self.kind == "rectangular_barrier_1d":
            return p["L"]
        if self.kind in ("gaussian", "woods_saxon"):
            return p["cutoff"]
        return float(self.table_r[-1])

    def _interior(self, r: np.ndarray) -> np.ndarray:
        p = self.params
        if self.kind == "square_well":
            return np.full_like(r, -p["V0"])
        if self.kind == "rectangular_barrier_1d":
            return np.full_like(r, p["V0"])
        if self.kind == "gaussian":
            return -p["V0"] * np.exp(-(r * r) / (2.0 * p["sigma"] ** 2))
        if self.kind == "woods_saxon":
            x = np.clip((r - p["R"]) / p["a"], None, 700.0)
            return -p["V0"] / (1.0 + np.exp(x))
        return np.interp(r, self.table_r, self.table_v)

    def evaluate(self, r):
        """Potential value at radius r (scalar or array); exact 0 beyond support."""
        arr = np.asarray(r, dtype=float)
        if np.any(arr < 0.0):
            raise DomainError("potential evaluated at negative radius")
        out = np.where(arr >= self.support_radius, 0.0, self._interior(arr))
        if np.isscalar(r) or arr.ndim == 0:
            return float(out)
        return out

    def jump_points(self):
        """Declared discontinuities as (radius, left_limit, right_limit) tuples."""
        p = self.params
        edge = self.support_radius
        if self.kind == "square_well":
            left = -p["V0"]
        elif self.kind == "rectangular_barrier_1d":
            left = p["V0"]
        elif self.kind == "gaussian":
            left = -p["V0"] * float(np.exp(-(edge**2) / (2.0 * p["sigma"] ** 2)))
        elif self.kind == "woods_saxon":
            left = -p["V0"] / (1.0 + float(np.exp((edge - p["R"]) / p["a"])))
        else:
            left = float(self.table_v[-1])
        if left == 0.0:
            return ()
        return ((edge, left, 0.0),)

    def kink_points(self):
        """Radii where the potential is continuous but its slope jumps.

        Only the tabulated kind has interior kinks (its table nodes);
        collinear nodes are skipped.
        """
        if self.kind != "tabulated":
            return ()
        r, v = self.table_r, self.table_v
        slopes = np.diff(v) / np.diff(r)
        out = []
        for i in range(1, r.size - 1):
            if slopes[i] != slopes[i - 1]:
                out.append(float(r[i]))
        return tuple(out)

    def is_free(self) -> bool:
        """True if the potential is identically zero."""
        if self.kind == "tabulated":
            return bool(np.all(self.table_v == 0.0))
        return self.params["V0"] == 0.0

    def to_dict(self) -> dict:
        out = {"kind": self.kind, "params": dict(self.params), "support_radius": self.support_radius}
        if self.kind == "tabulated":
            out["r"] = [float(x) for x in self.table_r]
            out["v"] = [float(x) for x in self.table_v]
        return out

    @classmethod
    def from_dict(cls, obj: Mapping) -> "PotentialSpec":
        if not isinstance(obj, Mapping):
            raise ConfigurationError(f"potential: expected an object, got {type(obj).__name__}")
        if "kind" not in obj:
            raise ConfigurationError("potential: missing 'kind'")
        kind = obj["kind"]
        if not isinstance(kind, str):
            raise ConfigurationError(f"potential 'kind': expected string, got {type(kind).__name__}")
        params = obj.get("params", {})
        if not isinstance(params, Mapping):
            raise ConfigurationError(f"potential 'params': expected object, got {type(params).__name__}")
        tables = {}
        for key in ("r", "v"):
            table = obj.get(key)
            if table is not None and (not isinstance(table, list)
                                      or not all(_is_real(x) for x in table)):
                raise ConfigurationError(f"potential '{key}': expected a list of real numbers")
            tables[key] = None if table is None else np.asarray(table, dtype=float)
        return cls(
            kind=kind,
            params=dict(params),
            support_radius=obj.get("support_radius"),
            table_r=tables["r"],
            table_v=tables["v"],
        )


def square_well(depth: float, radius: float) -> PotentialSpec:
    """V(r) = -depth for r < radius, 0 beyond."""
    return PotentialSpec("square_well", {"V0": depth, "a": radius})


def rectangular_barrier(height: float, width: float) -> PotentialSpec:
    """V(x) = +height on [0, width), 0 beyond."""
    return PotentialSpec("rectangular_barrier_1d", {"V0": height, "L": width})


def gaussian_well(depth: float, sigma: float, cutoff: float | None = None) -> PotentialSpec:
    """V(r) = -depth * exp(-r^2 / 2 sigma^2), hard-truncated at cutoff (default 4 sigma)."""
    if cutoff is None:
        cutoff = 4.0 * sigma
    return PotentialSpec("gaussian", {"V0": depth, "sigma": sigma, "cutoff": cutoff})


def woods_saxon_well(depth: float, radius: float, diffuseness: float, cutoff: float) -> PotentialSpec:
    """V(r) = -depth / (1 + exp((r - radius)/diffuseness)), hard-truncated at cutoff."""
    return PotentialSpec("woods_saxon", {"V0": depth, "R": radius, "a": diffuseness, "cutoff": cutoff})


def tabulated_potential(r, v) -> PotentialSpec:
    """Piecewise-linear potential through the given strictly increasing table."""
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    return PotentialSpec("tabulated", {}, table_r=r, table_v=v)
