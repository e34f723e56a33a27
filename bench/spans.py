"""Span tracing for the benchmark's traced run.

The package is not edited: :func:`install` replaces each layer's public
functions, at every module attribute that binds them, with a wrapper that
records a span (name, start, end, parent, job id).  Spans are kept in
compact arrays in memory and written out when the run ends.  Self time is
a span's duration minus the time its child spans cover; counts come from
the wrapped calls' arguments and return values.
"""

from __future__ import annotations

import functools
import sys
import time
import tracemalloc
from array import array
from collections import defaultdict

# (module, attribute) of every traced function; the span name is
# "<module>.<attribute>" without the package prefix
TARGETS = (
    ("cli", "main"),
    ("scenarios", "run_scenario"),
    ("scenarios", "atomic_write_text"),
    ("scenarios", "write_csv"),
    ("scenarios", "write_json"),
    ("scenarios", "write_sidecar"),
    ("numerics", "numerov"),
    ("numerics", "solve_banded"),
    ("numerics", "derivative_field"),
    ("numerics", "fd_derivative_field"),
    ("numerics", "simpson_uniform"),
    ("numerics", "simpson_with_error"),
    ("numerics", "simpson_segmented"),
    ("radial", "integrate_radial"),
    ("radial", "match_scattering"),
    ("radial", "solve_barrier_1d"),
    ("radial", "phase_shift_scan"),
    ("times", "dwell_time"),
    ("times", "phase_time_delay"),
    ("times", "winful_decomposition_1d"),
    ("times", "time_scan"),
    ("times", "smith_identity_residual"),
    ("times", "outgoing_dwell_equals_phase"),
    ("times", "kp_log_derivative_dwell"),
    ("resonance", "kp_residual"),
    ("resonance", "find_kp_eigenvalues"),
    ("resonance", "scan_resonance_seeds"),
    ("resonance", "verify_width_dwell"),
    ("threebody", "continuity_residual"),
    ("threebody", "factorization_residual"),
    ("threebody", "three_body_dwell"),
    ("threebody", "solve_subsystems"),
    ("threebody", "_scipy_simpson"),
)
QUADRATURE = ("numerics.simpson_uniform", "numerics.simpson_with_error",
              "numerics.simpson_segmented", "threebody._scipy_simpson")
WRITERS = ("scenarios.atomic_write_text", "scenarios.write_csv", "scenarios.write_json",
           "scenarios.write_sidecar")
IDENTITIES = ("times.smith_identity_residual", "times.outgoing_dwell_equals_phase",
              "times.kp_log_derivative_dwell")
MEMORY_SPANS = ("threebody.continuity_residual", "threebody.factorization_residual")
# phase_time_delay's stencil takes 7 solves; more means a branch-jump retry
STENCIL_SOLVES = 7


class Tracer:
    """Span recorder plus the counters that need call arguments or results."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_job = array("i")
        self.job = -1
        self._stack: list[list] = []  # [span index, name, start, child time]
        self._stencils: list[list[int]] = []  # solve counts of open phase_time_delay spans
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.solve_us: dict[int, list] = {}  # n_points -> [total us, calls]
        self.root_s = 0.0
        self._last_n = 0

    # -- recording -------------------------------------------------------

    def wrap(self, name: str, fn):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        nid = self.name_id[name]
        count = _COUNTERS.get(name)
        memory = name in MEMORY_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(self, args, kwargs)
            if memory:
                tracemalloc.start()
            frame = self._open(nid, name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(frame)
                if memory:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    if self.job >= 0:
                        self.counts["threebody.peak_alloc_bytes"] = max(
                            self.counts["threebody.peak_alloc_bytes"], peak)
            if self.job >= 0 and name in _RESULTS:
                _RESULTS[name](self, out)
            return out

        return traced

    def _open(self, nid: int, name: str):
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_job.append(self.job)
        if name == "times.phase_time_delay":
            self._stencils.append([0])
        frame = [idx, name, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = time.perf_counter()
        self.span_start.append(frame[2])
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        idx, name, start, child = frame
        self.span_end.append(end)
        self._stack.pop()
        duration = end - start
        if self._stack:
            self._stack[-1][3] += duration
        elif self.job >= 0:
            self.root_s += duration
        if name == "times.phase_time_delay":
            if self._stencils.pop()[0] > STENCIL_SOLVES and self.job >= 0:
                self.counts["times.phase_time_delay.retries"] += 1
        if self.job < 0:
            return
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        if name == "radial.integrate_radial":
            bucket = self.solve_us.setdefault(self._last_n, [0.0, 0])
            bucket[0] += duration * 1e6
            bucket[1] += 1

    # -- output ----------------------------------------------------------

    def span_count(self) -> int:
        return len(self.span_name)

    def dump(self, path) -> None:
        """Write every span as parallel arrays (numpy .npz) plus the name table."""
        import numpy as np
        np.savez(path,
                 names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 job=np.frombuffer(self.span_job, dtype=np.int32))


def _count_numerov(tracer, args, kwargs):
    f = args[0] if args else kwargs["f"]
    if tracer.job >= 0:
        tracer.counts["numerics.numerov.nodes"] += len(f)


def _count_solve(tracer, args, kwargs):
    grid = args[3] if len(args) > 3 else kwargs["grid"]
    tracer._last_n = grid.n_points
    if tracer._stencils:
        tracer._stencils[-1][0] += 1
    if tracer.job >= 0:
        tracer.counts["solves"] += 1


def _count_barrier_solve(tracer, args, kwargs):
    if tracer.job >= 0:
        tracer.counts["solves"] += 1


def _count_seeds(tracer, args, kwargs):
    seeds = args[2] if len(args) > 2 else kwargs["seeds"]
    if tracer.job >= 0:
        tracer.counts["resonance.seeds"] += len(list(seeds))


def _count_bytes(tracer, args, kwargs):
    text = args[1] if len(args) > 1 else kwargs["text"]
    if tracer.job >= 0:
        tracer.counts["scenarios.bytes_written"] += len(text.encode("utf-8"))


def _numerov_result(tracer, out):
    if out[1] != 1.0:
        tracer.counts["numerics.numerov.rescue_calls"] += 1


def _kp_result(tracer, out):
    tracer.counts["resonance.eigenpairs"] += len(out.eigenpairs)


_COUNTERS = {
    "numerics.numerov": _count_numerov,
    "radial.integrate_radial": _count_solve,
    "radial.solve_barrier_1d": _count_barrier_solve,
    "resonance.find_kp_eigenvalues": _count_seeds,
    "scenarios.atomic_write_text": _count_bytes,
}
_RESULTS = {
    "numerics.numerov": _numerov_result,
    "resonance.find_kp_eigenvalues": _kp_result,
}


def install(package_name: str = "dwelltime") -> Tracer:
    """Wrap every target at every binding inside the loaded package."""
    tracer = Tracer()
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == package_name or n.startswith(package_name + "."))]
    for mod_name, attr in TARGETS:
        module = sys.modules[f"{package_name}.{mod_name}"]
        original = getattr(module, attr)
        traced = tracer.wrap(f"{mod_name}.{attr}", original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)
    spec = sys.modules[f"{package_name}.potentials"].PotentialSpec
    spec.evaluate = tracer.wrap("potentials.evaluate", spec.evaluate)
    return tracer


def calibrate(repeats: int = 20000) -> float:
    """Seconds one traced call adds over a bare call, measured on a no-op."""
    tracer = Tracer()
    tracer.job = 0

    def noop():
        return None

    traced = tracer.wrap("calibration.noop", noop)
    t0 = time.perf_counter()
    for _ in range(repeats):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(repeats):
        traced()
    return max(0.0, (time.perf_counter() - t0 - bare) / repeats)
