"""Job generators for the three benchmark workloads.

A job is one CLI invocation: a subcommand, a generated JSON config and
flags.  Every workload repeats a fixed cycle of job classes.  The seed
draws the physics inside each class (depths, masses, energies, seeds);
the amount of work a job does (grid size, item count, seed count) follows
the job's place in the sequence alone, so every seed gives a run with the
same mix of job sizes and the timings of different seeds compare.

Grid-aligned geometry: every support radius and matching radius is a
multiple of 0.05, so each declared discontinuity sits on a node of every
grid spacing used here (1e-3 down to 5e-5).  Off-node jumps would cost
the integrator its order and make the oracle comparison meaningless.
"""

from __future__ import annotations

import random

import oracle

# Cycle lengths and class counts place the median job inside a block of
# like-sized jobs (dwell_well in scan, kp_sc in resonance, the full model
# sets in verify) and the tail percentiles inside the largest class (the
# opaque barriers in scan, the n = 3001 three-body jobs in resonance), so
# neither sits on the edge between two job sizes.
SCAN_CYCLE = (
    "scatter_curve", "scatter_well", "scatter_smooth", "winful_rect", "winful_table",
    "dwell_well", "dwell_well", "dwell_well", "dwell_well", "dwell_well", "dwell_well",
    "dwell_smooth", "scatter_dump", "winful_opaque", "winful_opaque",
)
RESONANCE_CYCLE = (
    "kp_sc", "kp_probe", "kp_sc", "threebody_r2", "kp_sc_floor", "kp_probe_floor", "kp_sc",
    "threebody_r3",
)
VERIFY_CYCLE = ("radial_barrier", "bundled", "all", "threebody", "all", "bundled", "all")
CYCLES = {"scan": SCAN_CYCLE, "resonance": RESONANCE_CYCLE, "verify": VERIFY_CYCLE}

# spacings of the accuracy-curve jobs, one per job in this order
CURVE_SPACINGS = (1e-3, 5e-4, 1e-4, 5e-5)

# Narrow low-lying KP roots stall on the solver's roundoff floor (ROADMAP
# item 4): the defect stops near 1e-10 and never meets root_tol.  For the
# lowest root with Re W below this value that happens already at 1e-3 on
# the grids used here.  Every job keeps one seed on a root that converges,
# so floor stalls show as failed seeds, not as failed jobs; resonance jobs
# stay at spacing 1e-3 because at 5e-4 and below every seed of a job can
# stall, and the job then exits 2.
_FLOOR_RE = 0.6


def _turn(index: int, cycle: tuple, options: tuple):
    """The option for this pass through the cycle: sizes follow the position, not the seed."""
    return options[(index // len(cycle)) % len(options)]


def _linspace(rng, lo: tuple, width: tuple, n: int) -> list:
    e_lo = round(rng.uniform(*lo), 6)
    return [e_lo, round(e_lo + rng.uniform(*width), 6), n]


def _tunneling_range(rng, height: float, mass: float, n: int) -> list:
    """Energies below the barrier with k >= 2.

    Above the barrier R vanishes at the transmission resonances, where the
    reflection phase and with it the splitting check break down.  Slow
    particles (small k, light mass, low barrier) push the splitting
    residual, a finite difference of phases, towards its 1e-6 tolerance.
    """
    lo = 2.0 / mass + rng.uniform(0.0, 0.5)
    hi = lo + rng.uniform(0.3, 1.0) * (0.9 * height - lo)
    return [round(lo, 6), round(hi, 6), n]


def _square_well(rng, depth: tuple, radius: float) -> dict:
    return {"kind": "square_well", "params": {"V0": round(rng.uniform(*depth), 6), "a": radius}}


def _smooth_well(rng, kind: str) -> dict:
    """Gaussian, Woods-Saxon or tabulated well, supported inside r < 3.5."""
    if kind == "gaussian":
        sigma = round(rng.uniform(0.3, 0.8), 4)
        return {"kind": "gaussian", "params": {
            "V0": round(rng.uniform(2.0, 10.0), 6), "sigma": sigma,
            "cutoff": round(round(4.0 * sigma / 0.05) * 0.05, 10)}}
    if kind == "woods_saxon":
        radius = round(rng.uniform(0.8, 1.5), 4)
        diffuse = round(rng.uniform(0.1, 0.3), 4)
        return {"kind": "woods_saxon", "params": {
            "V0": round(rng.uniform(20.0, 50.0), 6), "R": radius, "a": diffuse,
            "cutoff": round(round((radius + 6.0 * diffuse) / 0.05) * 0.05, 10)}}
    nodes = [round(0.25 * i, 2) for i in range(rng.randint(4, 8))]
    return {"kind": "tabulated", "params": {}, "r": nodes,
            "v": [round(-rng.uniform(1.0, 12.0), 6) for _ in nodes]}


def _converging(roots: list) -> list:
    return [w for i, w in enumerate(roots) if i > 0 or w.real >= _FLOOR_RE]


def _seed(rng, w: complex) -> list:
    w = w * complex(1.0 + rng.uniform(-0.05, 0.05), rng.uniform(-0.03, 0.03))
    return [round(w.real, 6), round(w.imag, 6)]


# ---------------------------------------------------------------------------
# scan


def _scan_job(rng, cls: str, index: int) -> dict:
    def turn(options):
        return _turn(index, SCAN_CYCLE, options)

    mass = round(rng.uniform(0.5, 2.0), 6)
    flags: list[str] = []
    if cls == "scatter_well":
        cfg = {"potential": _square_well(rng, (4.0, 16.0), rng.choice((0.5, 1.0, 1.5, 2.0))),
               "mass": mass, "r0": 2.0, "energy_range": _linspace(rng, (0.1, 1.0), (2.0, 10.0), 40)}
        sub = "scatter"
    elif cls == "dwell_well":
        cfg = {"potential": _square_well(rng, (4.0, 16.0), rng.choice((0.5, 1.0, 1.5, 2.0))),
               "mass": mass, "r0": 2.0, "energy_range": _linspace(rng, (0.5, 1.0), (2.0, 10.0), 10)}
        sub = "dwell"
    elif cls == "scatter_curve":
        # the accuracy curve: wells near the regression model, one spacing per job
        cfg = {"potential": _square_well(rng, (8.0, 12.0), 1.0), "mass": 1.0,
               "energy_range": _linspace(rng, (0.2, 0.6), (4.0, 7.5), 12),
               "numerics": {"grid_spacing": turn(CURVE_SPACINGS)}}
        sub = "scatter"
    elif cls in ("dwell_smooth", "scatter_smooth"):
        pot = _smooth_well(rng, turn(("gaussian", "woods_saxon", "tabulated")))
        cfg = {"potential": pot, "mass": mass, "r0": 3.5,
               "energy_range": _linspace(rng, (0.1, 1.0), (2.0, 10.0),
                                         15 if cls == "dwell_smooth" else 40)}
        sub = "dwell" if cls == "dwell_smooth" else "scatter"
    elif cls == "scatter_dump":
        pot = turn((_square_well(rng, (4.0, 16.0), 1.0), _smooth_well(rng, "gaussian")))
        cfg = {"potential": pot, "mass": mass, "r0": 3.5,
               "energy_range": _linspace(rng, (0.1, 1.0), (2.0, 10.0), 6)}
        sub, flags = "scatter", ["--dump-wavefunction"]
    elif cls == "winful_rect":
        height, mass = round(rng.uniform(6.0, 12.0), 6), round(rng.uniform(1.0, 2.0), 6)
        cfg = {"potential": {"kind": "rectangular_barrier_1d",
                             "params": {"V0": height, "L": turn((0.5, 1.0, 1.5, 2.0))}},
               "mass": mass, "energy_range": _tunneling_range(rng, height, mass, 15)}
        sub = "winful1d"
    elif cls == "winful_table":
        length = turn((1.0, 1.5, 2.0))
        heights = [round(rng.uniform(6.0, 12.0), 6) for _ in range(5)]
        mass = round(rng.uniform(1.0, 2.0), 6)
        cfg = {"potential": {"kind": "tabulated", "params": {},
                             "r": [round(length * i / 4, 4) for i in range(5)], "v": heights},
               "mass": mass, "energy_range": _tunneling_range(rng, min(heights), mass, 15)}
        sub = "winful1d"
    elif cls == "winful_opaque":
        # exp(kappa L) overflows a double, so the kernel takes its rescue
        # loop; its work grows with kappa L, so V0 stays in a narrow band
        cfg = {"potential": {"kind": "rectangular_barrier_1d",
                             "params": {"V0": round(rng.uniform(1900.0, 2100.0), 6), "L": 14.0}},
               "mass": 1.0, "energy_range": _linspace(rng, (5.0, 20.0), (10.0, 30.0), 2)}
        sub = "winful1d"
    else:
        raise ValueError(cls)
    return {"sub": sub, "config": cfg, "flags": flags, "items": cfg["energy_range"][2]}


# ---------------------------------------------------------------------------
# resonance


def threebody_config(rng, radius: float) -> dict:
    """Separable three-body model; each channel is seeded near its second converging root.

    Low narrow channel roots stall on the roundoff floor at 1e-3 already,
    and a channel without an eigenvalue fails the whole job.
    """
    masses = [round(rng.uniform(3.0, 5.0), 6), round(rng.uniform(3.0, 5.0), 6),
              round(rng.uniform(0.8, 1.2), 6)]
    m1, m2, m3 = masses
    channels = []
    for mu in (m1 * (m2 + m3) / (m1 + m2 + m3), m2 * m3 / (m2 + m3)):
        while True:
            pot = _square_well(rng, (8.0, 12.0), 1.0)
            roots = _converging(oracle.approximate_kp_roots(mu, pot["params"]["V0"], 1.0, radius))
            if len(roots) > 1:
                break
        channels.append((pot, [_seed(rng, roots[1])]))
    (v_r, seeds_r), (v_rho, seeds_rho) = channels
    return {"masses": masses, "potential_r": v_r, "potential_rho": v_rho,
            "r_chi": radius, "rho_phi": radius, "seeds_r": seeds_r, "seeds_rho": seeds_rho}


def _resonance_job(rng, cls: str, index: int) -> dict:
    if cls.startswith("threebody"):
        cfg = threebody_config(rng, 2.0 if cls == "threebody_r2" else 3.0)
        return {"sub": "threebody", "config": cfg, "flags": [], "items": 2}

    probe = "probe" in cls
    floor = cls.endswith("_floor")
    radius = _turn(index, RESONANCE_CYCLE, (0.75, 1.0, 1.25))
    r0 = radius + {"kp_sc": 0.0, "kp_probe": 0.5}.get(cls, 1.0)
    while True:
        mass = round(rng.uniform(0.7, 1.5), 6)
        pot = _square_well(rng, (6.0, 16.0), radius)
        k_fixed = round(rng.uniform(1.0, 3.0), 6) if probe else None
        roots = oracle.approximate_kp_roots(mass, pot["params"]["V0"], radius, r0, k_fixed=k_fixed)
        safe = _converging(roots)
        if safe and (len(roots) > 1 or not floor):
            break
    if floor:
        # the lowest root, which may stall on the floor, next to the broader
        # of the next two (narrow roots stall too)
        seeds = [_seed(rng, roots[0]), _seed(rng, min(roots[1:3], key=lambda w: w.imag))]
    else:
        # a root drawn from the lowest three and one that converges: they
        # may coincide and merge
        seeds = [_seed(rng, rng.choice(roots[:3])), _seed(rng, rng.choice(safe))]
    if not probe and not floor:
        seeds.append([-0.5, -0.2])  # reported as a failed seed: non-positive energy
    numerics = {"grid_spacing": 1e-3, "k_mode": "probe" if probe else "self_consistent"}
    if probe:
        numerics["k_fixed"] = k_fixed
    cfg = {"potential": pot, "mass": mass, "r0": r0, "seeds": seeds, "numerics": numerics}
    return {"sub": "kp", "config": cfg, "flags": [], "items": len(seeds)}


# ---------------------------------------------------------------------------
# verify


# The regression radial model itself: for about one well depth in four the
# half-spacing KP refinement stalls on the roundoff floor and the check
# fails, and energy ranges other than the bundled one move the
# log-derivative identity past its 1e-6 tolerance.
_RADIAL = {
    "potential": {"kind": "square_well", "params": {"V0": 10.0, "a": 1.0}},
    "mass": 1.0, "energy_range": [0.2, 8.0, 25], "r0": 2.0, "kp_r0": 1.0,
    "kp_seeds": [[1.17, -1.57]],
}


def _verify_job(rng, cls: str, index: int) -> dict:
    if cls == "bundled":
        return {"sub": "verify", "config": None, "flags": [], "items": None}
    models = {}
    if cls in ("all", "radial_barrier"):
        models["radial"] = _RADIAL
    if cls in ("all", "radial_barrier"):
        height = round(rng.uniform(6.0, 10.0), 6)
        models["barrier"] = {
            "potential": {"kind": "rectangular_barrier_1d",
                          "params": {"V0": height, "L": _turn(index, VERIFY_CYCLE, (0.8, 1.0, 1.2))}},
            "mass": 1.0, "energy_range": _tunneling_range(rng, height, 1.0, 25)}
    if cls in ("all", "threebody"):
        models["three_body"] = threebody_config(rng, 2.0)
    return {"sub": "verify", "config": {"scenario": "identity_suite", "models": models},
            "flags": [], "items": None}


_MAKERS = {"scan": _scan_job, "resonance": _resonance_job, "verify": _verify_job}


def generate(workload: str, seed: int, count: int) -> list[dict]:
    """``count`` jobs of ``workload`` drawn from ``seed``; job 0 is the warm-up."""
    rng = random.Random(f"{workload}:{seed}")
    cycle = CYCLES[workload]
    jobs = []
    for i in range(count):
        cls = cycle[i % len(cycle)]
        job = _MAKERS[workload](rng, cls, i)
        job.update(id=f"{workload}-{i:05d}", cls=cls)
        jobs.append(job)
    return jobs
