import cmath
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dtbtrs

from dwelltime import numerics
from dwelltime.errors import (
    BlockOverflowError,
    ConfigurationError,
    DomainError,
    MatchingError,
    ResolutionError,
)
from dwelltime.numerics import derivative_field, numerov, taylor_first_step
from dwelltime.potentials import (
    PotentialSpec,
    gaussian_well,
    rectangular_barrier,
    square_well,
    tabulated_potential,
)
from dwelltime.radial import (
    BarrierOperator,
    RadialGrid,
    RadialOperator,
    RadialSolution,
    auto_grid,
    default_spacing,
    integrate_radial,
    match_scattering,
    on_node_spacing,
    phase_shift_scan,
    scattering_solution,
    solve_barrier_1d,
)
from dwelltime.resonance import find_kp_eigenvalues
from dwelltime.scenarios import run_scenario
from dwelltime.times import phase_time_delay, tangent_phase_delay, time_scan

from reference import (
    barrier_amplitudes,
    barrier_phase_time,
    one_shot_barrier,
    one_shot_radial,
    repulsive_step_delta,
    square_well_delay,
    square_well_delta,
)

SW_DELTA_E1 = 0.08382277524263821          # closed-form delta for V0=10, a=1, m=1, E=1
KP_INTERIOR = 4.69041575982343             # sqrt(22), interior wavenumber at E=1
BARRIER_T2_E25 = 0.04466532173111984       # |T|^2 for V0=5, L=1, m=1, E=2.5
BARRIER_R_E25 = -0.9774122355837787j       # R at the symmetric point E = V0/2
BARRIER_T2_THRESHOLD = 2.0 / 7.0           # |T|^2 at E = V0: 1/(1 + (kL/2)^2), k = sqrt(10)


class TestGrid:
    def test_nodes_include_endpoints_exactly(self):
        grid = RadialGrid.from_spacing(2.0, 1e-3)
        nodes = grid.nodes()
        assert nodes[0] == 0.0
        assert nodes[-1] == 2.0
        assert grid.index_of(0.0) == 0
        assert grid.index_of(2.0) == grid.n_points - 1
        assert grid.index_of(1.0) == (grid.n_points - 1) // 2
        assert grid.index_of(1.0 + 0.4 * grid.spacing) is None

    def test_needs_two_points(self):
        with pytest.raises(ConfigurationError):
            RadialGrid(1.0, 1)


class TestOffNodeJumps:
    """A jump of V off every grid node would cost the integrator its order: it is rejected."""

    # the well edge a = 1 sits a quarter step from a node at r0 = 2.0005, h = 1e-3
    def scatter_config(self, tmp_path, spacing: float):
        cfg = tmp_path / f"scatter_{spacing}.json"
        cfg.write_text(json.dumps({
            "scenario": "scatter_scan", "mass": 1.0, "r0": 2.0005,
            "energy_range": [0.3, 9.0, 25], "numerics": {"grid_spacing": spacing},
            "potential": {"kind": "square_well", "params": {"V0": 10.0, "a": 1.0},
                          "support_radius": 1.0},
        }))
        return cfg

    def test_off_node_config_exits_1_naming_radius_and_spacing(self, tmp_path, capsys):
        assert run_scenario(self.scatter_config(tmp_path, 1e-3), out_dir=tmp_path) == 1
        out = capsys.readouterr().out
        assert "jump of V at r = 1 " in out
        assert "grid_spacing 0.0005 puts every jump on a node" in out
        assert not (tmp_path / "scatter.csv").exists()

    def test_suggested_spacing_meets_the_closed_form(self, tmp_path):
        assert run_scenario(self.scatter_config(tmp_path, 5e-4), out_dir=tmp_path) == 0
        rows = (tmp_path / "scatter.csv").read_text().splitlines()[1:]
        for row in rows:
            e, _, delta = (float(x) for x in row.split(",")[:3])
            diff = delta - square_well_delta(e, 1.0, 10.0, 1.0)
            assert abs(diff - math.pi * round(diff / math.pi)) < 1e-10

    @pytest.mark.parametrize("r_max, spacing, want", [
        (2.0005, 1e-3, 5e-4), (2.00025, 1e-3, 2.5e-4), (2.0001, 1e-3, 1e-4), (2.0, 1e-3, 1e-3),
    ])
    def test_on_node_spacing(self, r_max, spacing, want):
        got = on_node_spacing(r_max, spacing, [1.0])
        assert got == pytest.approx(want, rel=1e-12)
        assert RadialGrid.from_spacing(r_max, got).index_of(1.0) is not None
        # the requested spacing is kept whenever its grid already has the jump
        if want == spacing:
            assert got == spacing

    def test_auto_grids_put_the_jump_on_a_node(self, sw10):
        spacing = default_spacing(sw10, 1.0, 1.0, 2.0005)
        assert spacing <= 2.0005 / 1500.0
        sol = integrate_radial(sw10, 1.0, 1.0, auto_grid(sw10, 1.0, 1.0, r_max=2.0005))
        diff = match_scattering(sol, 2.0005).delta - square_well_delta(1.0, 1.0, 10.0, 1.0)
        assert abs(diff - math.pi * round(diff / math.pi)) < 1e-10


class TestIntegrateRadial:
    def test_free_particle_matches_sine(self):
        grid = RadialGrid.from_spacing(5.0, 1e-3)
        sol = integrate_radial(square_well(0.0, 1.0), 1.0, 1.0, grid)
        k = math.sqrt(2.0)
        exact = np.sin(k * grid.nodes()) / k
        assert sol.values[0] == 0.0
        assert np.max(np.abs(sol.values - exact)) < 1e-8
        assert abs(sol.derivative_at_end - math.cos(k * 5.0)) < 1e-8

    def test_square_well_interior_node_positions(self, sw10):
        # interior wave is sin(k' r); nodes sit at n pi / k'
        grid = RadialGrid.from_spacing(1.0, 2.5e-4)
        sol = integrate_radial(sw10, 1.0, 1.0, grid)
        vals = sol.values.real
        derivs = sol.derivatives.real
        nodes = grid.nodes()
        found = []
        for i in range(1, grid.n_points - 1):
            if vals[i] == 0.0 or vals[i] * vals[i + 1] < 0.0:
                # one step of the ODE-aware local expansion past the node
                s = -vals[i] / derivs[i]
                f_i = 2.0 * (sw10.evaluate(nodes[i]) - 1.0)
                s = -vals[i] / (derivs[i] + 0.5 * s * f_i * vals[i])
                found.append(nodes[i] + s)
        expected = [n * math.pi / KP_INTERIOR for n in (1,)]
        assert len(found) == len(expected)
        for got, want in zip(found, expected):
            assert abs(got - want) < 1e-7

    def test_complex_energy_free_solution(self):
        w = 1.0 - 0.1j
        kappa = cmath.sqrt(2.0 * w)
        grid = RadialGrid.from_spacing(4.0, 1e-3)
        sol = integrate_radial(square_well(0.0, 1.0), w, 1.0, grid)
        r = grid.nodes()
        exact = np.array([cmath.sin(kappa * x) / kappa for x in r])
        assert np.max(np.abs(sol.values - exact)) < 1e-8
        # the envelope (not the oscillating modulus itself) grows with r
        mags = np.abs(sol.values)
        half = grid.n_points // 2
        assert np.max(mags[half:]) > np.max(mags[:half])

    def test_refinement_reduces_error_fourth_order(self, sw10):
        k = math.sqrt(2.0)
        kp = KP_INTERIOR
        delta = SW_DELTA_E1
        amp = (math.sin(kp) / kp) / math.sin(k + delta)

        def max_err(spacing):
            grid = RadialGrid.from_spacing(2.0, spacing)
            sol = integrate_radial(sw10, 1.0, 1.0, grid)
            r = grid.nodes()
            exact = np.where(r <= 1.0, np.sin(kp * np.minimum(r, 1.0)) / kp,
                             amp * np.sin(k * r + delta))
            return np.max(np.abs(sol.values - exact))

        coarse, fine = max_err(4e-3), max_err(2e-3)
        assert coarse / fine >= 8.0

    def test_wronskian_of_independent_solutions_is_constant(self, sw10):
        grid = RadialGrid.from_spacing(1.0, 5e-4)
        h = grid.spacing
        f = 2.0 * (np.asarray(sw10.evaluate(grid.nodes())) - 1.0)
        y1 = taylor_first_step(0.0, 1.0, h, f[0], f[1])
        ya, _ = numerov(f, h, 0.0, y1)
        y1b = taylor_first_step(1.0, 0.0, h, f[0], f[1])
        yb, _ = numerov(f, h, 1.0, y1b)
        da = derivative_field(ya, f, h)
        db = derivative_field(yb, f, h)
        wr = (ya * db - yb * da).real
        inner = wr[2:-2]
        assert np.max(np.abs(inner - inner[0])) < 1e-9 * abs(inner[0])

    def test_resolution_guard_suggests_points(self, sw10):
        grid = RadialGrid(1.0, 12)
        with pytest.raises(ResolutionError) as err:
            integrate_radial(sw10, 200.0, 1.0, grid)
        assert err.value.suggested_n_points is not None
        fixed = RadialGrid(1.0, err.value.suggested_n_points)
        integrate_radial(sw10, 200.0, 1.0, fixed)  # no raise at the suggestion

    def test_overflow_rescue_flags_solution(self):
        wall = tabulated_potential([0.0, 1.0], [3.0e5, 3.0e5])
        grid = RadialGrid.from_spacing(1.0, 2.5e-4)
        sol = integrate_radial(wall, 1.0, 1.0, grid)
        assert sol.diagnostics["rescaled"]
        assert np.all(np.isfinite(sol.values))

    def test_grid_must_cover_support(self, sw10):
        with pytest.raises(ConfigurationError):
            integrate_radial(sw10, 1.0, 1.0, RadialGrid.from_spacing(0.5, 1e-3))

    def test_truncation_jump_reported(self, gauss5):
        grid = RadialGrid.from_spacing(2.0, 1e-3)
        sol = integrate_radial(gauss5, 1.0, 1.0, grid)
        assert sol.diagnostics["truncation_jump"] == pytest.approx(5.0 * np.exp(-8.0), rel=1e-12)


class TestMatchScattering:
    def test_free_has_zero_phase_and_scattered_amplitude(self):
        sol, obs = scattering_solution(square_well(0.0, 1.0), 1.0, 1.0, r0=3.0)
        assert abs(obs.delta) < 1e-10
        assert abs(obs.s_amp) < 1e-9
        assert obs.unitarity_residual < 1e-10

    def test_square_well_phase_shift_against_closed_form(self, sw10):
        grid = RadialGrid.from_spacing(2.0, 1e-3)
        sol = integrate_radial(sw10, 1.0, 1.0, grid)
        obs = match_scattering(sol, 2.0)
        assert obs.delta == pytest.approx(SW_DELTA_E1, abs=1e-8)

    def test_matching_radius_independence(self, sw10):
        grid = RadialGrid.from_spacing(2.0, 1e-3)
        sol = integrate_radial(sw10, 1.0, 1.0, grid)
        d_edge = match_scattering(sol, 1.0).delta
        d_far = match_scattering(sol, 2.0).delta
        assert abs(d_edge - d_far) < 1e-9

    def test_unitarity_across_scan(self, sw10):
        energies = np.linspace(0.2, 8.0, 40)
        _, obs = phase_shift_scan(sw10, energies, 1.0, r0=1.0)
        assert max(o.unitarity_residual for o in obs) < 1e-10

    def test_scan_unwraps_continuously(self, sw10):
        energies = np.linspace(0.2, 8.0, 120)
        deltas, _ = phase_shift_scan(sw10, energies, 1.0, r0=1.0)
        assert np.max(np.abs(np.diff(deltas))) < 0.5

    def test_complex_energy_rejected(self, sw10):
        grid = RadialGrid.from_spacing(1.0, 1e-3)
        sol = integrate_radial(sw10, 1.0 - 0.1j, 1.0, grid)
        with pytest.raises(MatchingError):
            match_scattering(sol, 1.0)

    def test_pure_outgoing_state_directed_to_resonance_search(self, sw10):
        grid = RadialGrid.from_spacing(2.0, 1e-3)
        k = math.sqrt(2.0)
        outgoing = np.exp(1j * k * grid.nodes())
        sol = integrate_radial(sw10, 1.0, 1.0, grid)
        fake = RadialSolution(
            grid=grid, values=outgoing, derivative_at_end=1j * k * outgoing[-1],
            energy=1.0, mass=1.0, potential=sw10,
            _f=sol._f, _break_nodes=sol._break_nodes)
        with pytest.raises(MatchingError, match="resonance"):
            match_scattering(fake, 2.0)

    def test_r0_validation(self, sw10):
        grid = RadialGrid.from_spacing(2.0, 1e-3)
        sol = integrate_radial(sw10, 1.0, 1.0, grid)
        with pytest.raises(DomainError):
            match_scattering(sol, 0.5)  # inside the support
        with pytest.raises(ConfigurationError):
            match_scattering(sol, 1.23456789e-1 + 1.0)  # not a node


class TestBarrier1D:
    def test_free_is_transparent(self):
        sol = solve_barrier_1d(rectangular_barrier(0.0, 5.0), 0.5, 1.0)
        assert abs(sol.reflection) < 1e-10
        assert abs(sol.transmission - 1.0) < 1e-10

    def test_tunnelling_amplitudes_match_closed_form(self, barrier5):
        sol = solve_barrier_1d(barrier5, 2.5, 1.0)
        assert abs(sol.transmission) ** 2 == pytest.approx(BARRIER_T2_E25, abs=1e-10)
        assert abs(sol.reflection - BARRIER_R_E25) < 1e-9

    def test_threshold_limit(self, barrier5):
        sol = solve_barrier_1d(barrier5, 5.0, 1.0)
        assert abs(sol.transmission) ** 2 == pytest.approx(BARRIER_T2_THRESHOLD, abs=1e-8)

    def test_flux_conservation_scan(self, barrier5):
        for e in np.linspace(0.2, 10.0, 23):
            sol = solve_barrier_1d(barrier5, float(e), 1.0)
            assert sol.flux_residual < 1e-10

    def test_interior_wave_matches_closed_form(self, barrier5):
        e = 2.5
        sol = solve_barrier_1d(barrier5, e, 1.0)
        _, a, b, _ = barrier_amplitudes(e, 1.0, 5.0, 1.0)
        q = cmath.sqrt(2.0 * complex(e - 5.0))
        x = sol.grid.nodes()
        exact = a * np.exp(1j * q * x) + b * np.exp(-1j * q * x)
        assert np.max(np.abs(sol.values - exact)) < 1e-9

    def test_zero_energy_is_domain_error(self, barrier5):
        with pytest.raises(DomainError):
            solve_barrier_1d(barrier5, 0.0, 1.0)

    def test_radial_kinds_rejected(self, sw10):
        with pytest.raises(ConfigurationError):
            solve_barrier_1d(sw10, 1.0, 1.0)

    def test_thick_barrier_transmission_underflows_gracefully(self):
        wide = rectangular_barrier(400.0, 8.0)
        sol = solve_barrier_1d(wide, 1.0, 1.0, spacing=2e-4)
        assert abs(sol.transmission) < 1e-90
        assert abs(abs(sol.reflection) - 1.0) < 1e-9


class TestBlockedNumerov:
    """Solves whose growth bound exceeds one LAPACK call run in rescaled blocks."""

    @staticmethod
    def _constant_problem(growth: float, kappa: float = 50.0, h: float = 1e-3):
        """Constant f = kappa^2 on a grid over which the solution grows by exp(growth)."""
        n = int(round(growth / (h * kappa))) + 1
        f = np.full(n, kappa * kappa)
        return f, h, 1.0, taylor_first_step(1.0, kappa, h, f[0], f[1])

    @staticmethod
    def _difference_form_solve(f, h, y0, y1):
        """Blatt's difference form, written out row by row, as one dtbtrs call.

        Unknowns (y0, d1, y1, d2, y2, ...) with d_j = y_j - y_{j-1}; band
        entry ab[k, j] is the coefficient of unknown j in row j + k.
        """
        n = f.shape[0]
        c = h * h / 12.0
        ab = np.zeros((4, 2 * n - 1))
        ab[0] = 1.0
        for i in range(1, n - 1):
            row = 2 * i + 1
            # (1 - c f_{i+1}) d_{i+1} - d_i - c (f_{i+1} + 10 f_i) y_i - c f_{i-1} y_{i-1} = 0
            ab[0, row] = 1.0 - c * f[i + 1]
            ab[1, row - 1] = -(c * f[i + 1] + 10.0 * (c * f[i]))
            ab[2, row - 2] = -1.0
            ab[3, row - 3] = -(c * f[i - 1])
            # y_{i+1} - y_i - d_{i+1} = 0
            ab[1, row] = -1.0
            ab[2, row - 1] = -1.0
        rhs = np.zeros(2 * n - 1)
        rhs[:3] = y0, y1 - y0, y1
        x, info = dtbtrs(ab, rhs, uplo="L")
        assert info == 0
        return x[::2]

    @staticmethod
    def _single_solve(f, h, y0, y1):
        """The plain three-term recurrence as one pivoting band LU (gbsv)."""
        n = f.shape[0]
        ab = np.zeros((3, n))
        ab[0, :2] = 1.0
        ab[0, 2:] = 1.0 - (h * h / 12.0) * f[2:]
        ab[1, 1 : n - 1] = -(2.0 + (5.0 * h * h / 6.0) * f[1 : n - 1])
        ab[2, : n - 2] = 1.0 - (h * h / 12.0) * f[: n - 2]
        rhs = np.zeros(n)
        rhs[:2] = y0, y1
        y = solve_banded((2, 0), ab, rhs, check_finite=False)
        y[:2] = y0, y1
        return y

    def test_repulsive_step_beyond_block_limit_matches_closed_form(self):
        # kappa a = 1549 exceeds the single-solve limit ln(1e250) ~ 575.6
        step = square_well(-3.0e5, 2.0)
        grid = RadialGrid.from_spacing(2.5, 2e-4)
        for e in (1.0, 5.0):
            sol = integrate_radial(step, e, 1.0, grid)
            assert sol.diagnostics["rescaled"]
            assert np.all(np.isfinite(sol.values))
            obs = match_scattering(sol, 2.5)
            diff = obs.delta - repulsive_step_delta(e, 1.0, 3.0e5, 2.0)
            diff -= math.pi * round(diff / math.pi)
            assert abs(diff) < 1e-7

    def test_opaque_barrier_conserves_flux(self):
        e, height, width = 10.0, 2000.0, 14.3
        k, kappa = math.sqrt(2.0 * e), math.sqrt(2.0 * (height - e))
        assert kappa * width == pytest.approx(900.0, abs=5.0)
        sol = solve_barrier_1d(rectangular_barrier(height, width), e, 1.0, spacing=1e-3)
        assert sol.flux_residual < 1e-10
        # e^{-2 kappa L} is far below double precision: a semi-infinite step
        assert abs(sol.reflection - (k - 1j * kappa) / (k + 1j * kappa)) < 1e-7

    def test_just_below_block_limit_is_one_bitwise_solve(self):
        f, h, y0, y1 = self._constant_problem(575.0)
        assert h * 50.0 * (f.shape[0] - 1) < numerics._GROWTH_LIMIT
        y, scale = numerov(f, h, y0, y1)
        assert scale == 1.0
        assert np.array_equal(y, self._difference_form_solve(f, h, y0, y1).astype(complex))

    def test_blocks_match_single_solve_up_to_scale(self):
        # exp(650) still fits a double, so one solve is a reference here
        f, h, y0, y1 = self._constant_problem(650.0)
        y, scale = numerov(f, h, y0, y1)
        assert scale < 1.0
        ref = self._single_solve(f, h, y0, y1)
        assert np.all(np.isfinite(ref))
        tail = slice(f.shape[0] // 2, None)
        assert np.max(np.abs(y[tail] / scale / ref[tail] - 1.0)) < 1e-10

    def test_complex_growth_is_bounded_without_overflow(self):
        # f = i b grows like exp(sqrt(b/2) x): exp(800) here, past a double
        h, b = 1e-3, 5000.0
        n = int(round(800.0 / (h * math.sqrt(b / 2.0)))) + 1
        f = np.full(n, 1j * b)
        y, scale = numerov(f, h, 1.0, taylor_first_step(1.0, 0.0, h, f[0], f[1]))
        assert np.all(np.isfinite(y))
        assert scale < 1.0
        # the dominant root of beta z^2 - alpha z + beta = 0 for constant f
        beta, alpha = 1.0 - h * h * f[0] / 12.0, 2.0 + 5.0 * h * h * f[0] / 6.0
        growth = (alpha + cmath.sqrt(alpha * alpha - 4.0 * beta * beta)) / (2.0 * beta)
        assert abs(y[-1] / y[-2] / growth - 1.0) < 1e-12

    def test_overflowing_block_raises_typed_error(self, monkeypatch):
        f, h, y0, y1 = self._constant_problem(900.0)
        # blocks sized for exp(750) pass the double-precision limit
        monkeypatch.setattr(numerics, "_GROWTH_LIMIT", 750.0)
        with pytest.raises(BlockOverflowError) as err:
            numerov(f, h, y0, y1)
        assert err.value.block == 0
        assert err.value.h == h
        assert err.value.kappa == pytest.approx(50.0)

    def test_singular_band_raises_instead_of_returning(self):
        ab = np.zeros((4, 3))
        ab[0] = 1.0, 0.0, 1.0
        ab[1, 0] = -1.0
        with pytest.raises(np.linalg.LinAlgError, match="info = 2"):
            numerics.solve_banded(ab, np.ones(3))


class TestNoRoundoffFloor:
    """Refining the grid keeps reducing the error: no roundoff floor below 1e-3."""

    ENERGIES = np.linspace(0.3, 7.5, 25)

    def _max_delta_error(self, sw10, spacing):
        deltas, _ = phase_shift_scan(sw10, self.ENERGIES, 1.0, r0=1.0, spacing=spacing)
        worst = 0.0
        for e, d in zip(self.ENERGIES, deltas):
            diff = d - square_well_delta(float(e), 1.0, 10.0, 1.0)
            worst = max(worst, abs(diff - math.pi * round(diff / math.pi)))
        return worst

    @pytest.mark.parametrize("spacing", [1e-4, 5e-5])
    def test_fine_grid_delta_error_below_1e_11(self, sw10, spacing):
        assert self._max_delta_error(sw10, spacing) < 1e-11

    def test_halving_coarse_spacing_cuts_error_eightfold(self, sw10):
        assert self._max_delta_error(sw10, 1e-3) >= 8.0 * self._max_delta_error(sw10, 5e-4)


def test_phase_shift_scan_matches_oracle_everywhere(sw10):
    energies = np.linspace(0.25, 9.0, 60)
    deltas, _ = phase_shift_scan(sw10, energies, 1.0, r0=1.0)
    for e, d in zip(energies, deltas):
        want = square_well_delta(float(e), 1.0, 10.0, 1.0)
        diff = d - want
        diff -= math.pi * round(diff / math.pi)
        assert abs(diff) < 1e-8


# a narrow state trapped behind a thin barrier: kinks on the table nodes
TRAP = tabulated_potential([0.0, 0.98, 1.02, 1.58, 1.62], [-8.0, -8.0, 6.0, 6.0, 0.0])


class TestPreparedOperator:
    """Prepared operators solve bit for bit like the one-shot assembly they replaced."""

    RADIAL_CASES = {
        # the jump at r = 1 sits on an interior node (a break)
        "square_well": (square_well(10.0, 1.0), RadialGrid.from_spacing(2.0, 1e-3),
                        [1.3, complex(1.17, -1.57), 0.2]),
        "gaussian_cutoff": (gaussian_well(5.0, 0.5), RadialGrid.from_spacing(2.5, 1e-3),
                            [0.7, complex(2.0, -0.3)]),
        "tabulated_kinks": (TRAP, RadialGrid.from_spacing(2.0, 1e-3),
                            [4.7675, complex(4.7675, -0.1664)]),
        # kappa a = 1549: every solve runs in rescaled blocks
        "blocked": (square_well(-3.0e5, 2.0), RadialGrid.from_spacing(2.5, 2e-4),
                    [1.0, complex(5.0, -1.0)]),
        # one operator alternating between one block and many
        "blocked_then_single": (square_well(10.0, 1.0), RadialGrid.from_spacing(2.0, 2e-4),
                                [1.0, complex(1.0, -2.0e5), 1.0]),
    }

    @pytest.mark.parametrize("case", sorted(RADIAL_CASES))
    def test_radial_solves_equal_the_one_shot_assembly(self, case):
        potential, grid, energies = self.RADIAL_CASES[case]
        operator = RadialOperator(potential, 1.0, grid)
        rescaled = []
        for e in energies:
            values, d_end, slope, scale = one_shot_radial(potential, e, 1.0, grid)
            for sol in (operator.solve(e), integrate_radial(potential, e, 1.0, grid)):
                assert np.array_equal(sol.values, values)
                assert np.array_equal(sol.derivative_at_end, d_end)
                assert np.array_equal(sol.origin_slope, slope)
            # the resolution check reads the extremes of V, not every node
            assert float(np.max(np.abs(e - operator._v_extremes))) == scale
            rescaled.append(sol.diagnostics["rescaled"])
        assert any(rescaled) == case.startswith("blocked")

    BARRIER_CASES = {
        "rectangular": (rectangular_barrier(5.0, 1.0), 1e-3, [2.5, 0.3, 9.5]),
        "opaque_blocked": (rectangular_barrier(2000.0, 14.3), 1e-3, [10.0, 12.0]),
        "tabulated": (tabulated_potential([0.0, 0.4, 0.9, 1.5], [0.0, 6.0, 2.0, 3.0]), 1e-3,
                      [1.0, 4.0]),
    }

    @pytest.mark.parametrize("case", sorted(BARRIER_CASES))
    def test_barrier_solves_equal_the_one_shot_assembly(self, case):
        potential, spacing, energies = self.BARRIER_CASES[case]
        grid = RadialGrid.from_spacing(potential.support_radius, spacing)
        operator = BarrierOperator(potential, 1.0, grid)
        for e in energies:
            values, reflection, transmission, scale = one_shot_barrier(potential, e, 1.0, grid)
            for sol in (operator.solve(e), solve_barrier_1d(potential, e, 1.0, spacing=spacing)):
                assert np.array_equal(sol.values, values)
                assert np.array_equal(sol.reflection, reflection)
                assert np.array_equal(sol.transmission, transmission)
            assert float(np.max(np.abs(e - operator._v_extremes))) == scale

    def test_barrier_grid_must_span_the_barrier(self, barrier5):
        with pytest.raises(ConfigurationError, match="span"):
            BarrierOperator(barrier5, 1.0, RadialGrid.from_spacing(2.0, 1e-3))


def _table(data, h: float, depth, end_value):
    """A random piecewise-linear table whose nodes sit on multiples of h."""
    widths = data.draw(st.lists(st.integers(40, 400), min_size=1, max_size=4))
    r = np.concatenate(([0.0], np.cumsum(widths) * h))
    v = data.draw(st.lists(depth, min_size=r.size - 1, max_size=r.size - 1)) + [end_value]
    return tabulated_potential(r, v)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), end_value=st.sampled_from([0.0, -2.0]),
       energies=st.lists(st.floats(0.1, 10.0), min_size=2, max_size=3),
       width=st.floats(0.0, 1.0))
def test_reused_operator_equals_fresh_solves_on_random_wells(data, end_value, energies, width):
    h = 2e-3
    potential = _table(data, h, st.floats(-15.0, 5.0), end_value)
    r0 = potential.support_radius
    grid = RadialGrid.from_spacing(r0, h)
    operator = RadialOperator(potential, 1.0, grid)
    for e in energies + [complex(energies[0], -width)]:
        sol = operator.solve(e)
        fresh = integrate_radial(potential, e, 1.0, grid)
        values, d_end, slope, scale = one_shot_radial(potential, e, 1.0, grid)
        for got in (sol, fresh):
            assert np.array_equal(got.values, values)
            assert np.array_equal(got.derivative_at_end, d_end)
            assert np.array_equal(got.origin_slope, slope)
        assert float(np.max(np.abs(e - operator._v_extremes))) == scale
        if isinstance(e, float):
            assert match_scattering(sol, r0).unitarity_residual < 1e-10


@settings(max_examples=30, deadline=None)
@given(data=st.data(), energies=st.lists(st.floats(0.2, 12.0), min_size=2, max_size=3))
def test_reused_barrier_operator_equals_fresh_solves_on_random_barriers(data, energies):
    h = 2e-3
    potential = _table(data, h, st.floats(0.0, 15.0), 3.0)
    operator = BarrierOperator(potential, 1.0,
                               RadialGrid.from_spacing(potential.support_radius, h))
    for e in energies:
        sol = operator.solve(e)
        fresh = solve_barrier_1d(potential, e, 1.0, spacing=h)
        values, reflection, transmission, _ = one_shot_barrier(potential, e, 1.0, operator.grid)
        for got in (sol, fresh):
            assert np.array_equal(got.values, values)
            assert np.array_equal(got.reflection, reflection)
            assert np.array_equal(got.transmission, transmission)
        # not 1e-10: the 1-d solver has no kink corrections, so on sloped
        # tables the flux residual falls only as h^3 (see the xfail below)
        assert sol.flux_residual < 1e-6


@pytest.mark.xfail(strict=True, reason="the 1-d barrier solver skips the kink corrections "
                                       "of the radial one: third order on sloped tables")
def test_sloped_barrier_flux_residual_falls_fourth_order():
    # a ramp from 0 to 3 over [0, 0.08]: kinks at both ends
    ramp = tabulated_potential([0.0, 0.08], [0.0, 3.0])
    coarse = solve_barrier_1d(ramp, 1.0, 1.0, spacing=1e-3).flux_residual
    fine = solve_barrier_1d(ramp, 1.0, 1.0, spacing=5e-4).flux_residual
    assert coarse / fine >= 14.0


class TestPreparedOnce:
    """The potential is sampled once per operator, not once per energy or seed."""

    @staticmethod
    def _counted(monkeypatch) -> list:
        calls = []
        evaluate = PotentialSpec.evaluate

        def counting(self, r):
            calls.append(r)
            return evaluate(self, r)

        monkeypatch.setattr(PotentialSpec, "evaluate", counting)
        return calls

    def test_time_scan(self, sw10, monkeypatch):
        calls = self._counted(monkeypatch)
        counts = []
        for n in (2, 5):
            calls.clear()
            time_scan(sw10, 1.0, np.linspace(0.5, 3.0, n), 1.0, spacing=1e-3)
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 2

    def test_find_kp_eigenvalues(self, sw10, monkeypatch):
        calls = self._counted(monkeypatch)
        counts = []
        for seeds in ([1.17 - 1.57j], [1.17 - 1.57j, 1.3 - 1.4j, 6.0 - 2.0j]):
            calls.clear()
            assert find_kp_eigenvalues(sw10, 1.0, seeds, 1.0, spacing=1e-3).eigenpairs
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 2

    def test_winful_scenario(self, tmp_path, monkeypatch):
        calls = self._counted(monkeypatch)
        counts = []
        for n in (2, 6):
            calls.clear()
            cfg = tmp_path / f"winful_{n}.json"
            cfg.write_text(json.dumps({
                "scenario": "winful_1d", "mass": 1.0, "energy_range": [0.5, 4.0, n],
                "potential": {"kind": "rectangular_barrier_1d", "params": {"V0": 5.0, "L": 1.0}},
            }))
            assert run_scenario(cfg, out_dir=tmp_path / str(n)) == 0
            counts.append(len(calls))
        assert counts[0] == counts[1] <= 1

    def test_successive_scans_on_one_grid_match_fresh_solves(self, sw10):
        # an operator per scan: the second potential must not see the first
        energies = np.array([0.6, 2.0, 4.7675])
        grid = RadialGrid.from_spacing(2.0, 1e-3)
        for potential in (sw10, TRAP, sw10):
            wavefunctions = []
            phase_shift_scan(potential, energies, 1.0, r0=2.0, spacing=1e-3,
                             wavefunctions=wavefunctions)
            for e, values in zip(energies, wavefunctions):
                assert np.array_equal(values, one_shot_radial(potential, float(e), 1.0, grid)[0])


class TestEnergyTangent:
    """The tangent solve is the exact E-derivative of the discrete solve."""

    # real-energy counterparts of TestPreparedOperator.RADIAL_CASES, plus a
    # deep repulsive step that runs in rescaled blocks
    RADIAL_CASES = {
        "square_well": (square_well(10.0, 1.0), RadialGrid.from_spacing(2.0, 1e-3), [1.3, 0.2]),
        "gaussian_cutoff": (gaussian_well(5.0, 0.5), RadialGrid.from_spacing(2.5, 1e-3), [0.7]),
        "tabulated_kinks": (TRAP, RadialGrid.from_spacing(2.0, 1e-3), [4.7675, 2.0]),
        "blocked": (square_well(-3.0e5, 2.0), RadialGrid.from_spacing(2.5, 2e-4), [1.0, 5.0]),
    }

    @staticmethod
    def _central_delay(operator, energy: float, eps: float) -> float:
        def delta(e):
            return match_scattering(operator.solve(e), operator.grid.r_max).delta

        diff = delta(energy + eps) - delta(energy - eps)
        return 2.0 * (diff - math.pi * round(diff / math.pi)) / (2.0 * eps)

    @pytest.mark.parametrize("case", sorted(RADIAL_CASES))
    def test_delay_is_the_limit_of_central_differences(self, case):
        potential, grid, energies = self.RADIAL_CASES[case]
        operator = RadialOperator(potential, 1.0, grid)
        for e in energies:
            sol = operator.solve(e, tangent=True)
            assert sol.diagnostics["rescaled"] == case.startswith("blocked")
            delay = tangent_phase_delay(sol)
            eps = 1e-3 * e
            coarse = abs(self._central_delay(operator, e, eps) - delay)
            fine = abs(self._central_delay(operator, e, eps / 2.0) - delay)
            # the central difference closes in on the tangent as eps^2
            assert 3.5 < coarse / fine < 4.5
            assert fine < 1e-3 * max(abs(delay), 1.0)

    def test_complex_energy_tangent_matches_central_differences(self, sw10):
        operator = RadialOperator(sw10, 1.0, RadialGrid.from_spacing(1.0, 1e-3))
        w, eps = complex(1.17, -1.57), 1e-4
        u, du = operator.solve(w, tangent=True).tangent_end
        plus, minus = operator.solve(w + eps), operator.solve(w - eps)
        assert u == pytest.approx((plus.values[-1] - minus.values[-1]) / (2.0 * eps), rel=1e-8)
        assert du == pytest.approx(
            (plus.derivative_at_end - minus.derivative_at_end) / (2.0 * eps), rel=1e-8)

    def test_opaque_barrier_phase_time_is_the_reflection_phase_slope(self):
        # e^{-kappa L} underflows: the phase time is |R|^2 d(arg R)/dE alone
        operator = BarrierOperator(rectangular_barrier(2000.0, 14.3), 1.0,
                                   RadialGrid.from_spacing(14.3, 1e-3))
        e, eps = 10.0, 1e-3
        sol = operator.solve(e, tangent=True)
        arg = [np.angle(operator.solve(e + s * eps).reflection) for s in (-1.0, 1.0)]
        assert sol.phase_time == pytest.approx((arg[1] - arg[0]) / (2.0 * eps), rel=1e-6)

    @pytest.mark.parametrize("case", sorted(TestPreparedOperator.RADIAL_CASES))
    def test_tangent_leaves_the_radial_solve_bitwise_unchanged(self, case):
        potential, grid, energies = TestPreparedOperator.RADIAL_CASES[case]
        operator = RadialOperator(potential, 1.0, grid)
        for e in energies:
            plain, with_tangent = operator.solve(e), operator.solve(e, tangent=True)
            assert plain.tangent_end is None and with_tangent.tangent_end is not None
            assert np.array_equal(with_tangent.values, plain.values)
            assert np.array_equal(with_tangent.derivative_at_end, plain.derivative_at_end)
            assert np.array_equal(with_tangent.origin_slope, plain.origin_slope)

    @pytest.mark.parametrize("case", sorted(TestPreparedOperator.BARRIER_CASES))
    def test_tangent_leaves_the_barrier_solve_bitwise_unchanged(self, case):
        potential, spacing, energies = TestPreparedOperator.BARRIER_CASES[case]
        operator = BarrierOperator(potential, 1.0,
                                   RadialGrid.from_spacing(potential.support_radius, spacing))
        for e in energies:
            plain, with_tangent = operator.solve(e), operator.solve(e, tangent=True)
            assert plain.phase_time is None and with_tangent.phase_time is not None
            assert np.array_equal(with_tangent.values, plain.values)
            assert np.array_equal(with_tangent.reflection, plain.reflection)
            assert np.array_equal(with_tangent.transmission, plain.transmission)

    def test_rescaling_keeps_the_delay(self, sw10):
        sol = RadialOperator(sw10, 1.0, RadialGrid.from_spacing(2.0, 1e-3)).solve(1.3, tangent=True)
        obs = match_scattering(sol)
        assert tangent_phase_delay(sol.rescaled(obs.normalization)) == pytest.approx(
            tangent_phase_delay(sol), rel=1e-12)

    def test_delay_needs_the_tangent_and_a_real_energy(self, sw10):
        operator = RadialOperator(sw10, 1.0, RadialGrid.from_spacing(1.0, 1e-3))
        with pytest.raises(DomainError, match="tangent"):
            tangent_phase_delay(operator.solve(1.0))
        with pytest.raises(DomainError, match="real energy"):
            tangent_phase_delay(operator.solve(complex(1.0, -0.1), tangent=True))


class TestTangentDelayRefinement:
    """Grid refinement: the tangent delay converges as h^4 with no floor."""

    ENERGIES = np.linspace(0.3, 9.0, 25)

    def _max_rel_error(self, sw10, spacing):
        operator = RadialOperator(sw10, 1.0, RadialGrid.from_spacing(1.0, spacing))
        return max(abs(tangent_phase_delay(operator.solve(float(e), tangent=True))
                       / square_well_delay(float(e), 1.0, 10.0, 1.0) - 1.0)
                   for e in self.ENERGIES)

    def test_halving_the_spacing_cuts_the_error_eightfold(self, sw10):
        assert self._max_rel_error(sw10, 2e-3) >= 8.0 * self._max_rel_error(sw10, 1e-3)

    def test_fine_grid_error_below_2e_11(self, sw10):
        assert self._max_rel_error(sw10, 5e-4) < 2e-11


class TestBarrierPhaseTime:
    """The tangent phase time against the closed-form rectangular barrier."""

    @pytest.mark.parametrize("height,width", [(8.0, 1.0), (5.0, 1.0), (10.0, 0.5)])
    def test_rectangular_barriers(self, height, width):
        operator = BarrierOperator(rectangular_barrier(height, width), 1.0,
                                   RadialGrid.from_spacing(width, 1e-3))
        for e in np.linspace(0.3, 12.0, 13):
            want = barrier_phase_time(float(e), 1.0, height, width)
            assert operator.solve(float(e), tangent=True).phase_time == pytest.approx(want, rel=1e-10)

    def test_opaque_blocked_barrier(self):
        operator = BarrierOperator(rectangular_barrier(2000.0, 14.3), 1.0,
                                   RadialGrid.from_spacing(14.3, 1e-3))
        for e in (10.0, 12.0):
            sol = operator.solve(e, tangent=True)
            assert sol.transmission == 0.0  # the block scale underflows
            assert sol.phase_time == pytest.approx(
                barrier_phase_time(e, 1.0, 2000.0, 14.3), rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), end_value=st.sampled_from([0.0, -2.0]),
       energies=st.lists(st.floats(0.1, 10.0), min_size=1, max_size=2))
def test_tangent_delay_equals_stencil_delay_on_random_wells(data, end_value, energies):
    h = 2e-3
    potential = _table(data, h, st.floats(-15.0, 5.0), end_value)
    r0 = potential.support_radius
    operator = RadialOperator(potential, 1.0, RadialGrid.from_spacing(r0, h))
    for e in energies:
        stencil = phase_time_delay(potential, e, 1.0, rel_step=1e-3, spacing=h)
        # relative to the delay, or to the free time where the delay crosses 0
        scale = max(abs(stencil), r0 / math.sqrt(2.0 * e))
        assert abs(tangent_phase_delay(operator.solve(e, tangent=True)) - stencil) <= 1e-6 * scale
