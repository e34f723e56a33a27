import math

import numpy as np
import pytest

from dwelltime.errors import DomainError, NodeAtBoundaryError
from dwelltime.potentials import rectangular_barrier, square_well, tabulated_potential
from dwelltime.radial import (
    BarrierOperator,
    RadialGrid,
    integrate_radial,
    scattering_solution,
    solve_barrier_1d,
)
from dwelltime.times import (
    dwell_time,
    kp_log_derivative_dwell,
    outgoing_dwell_equals_phase,
    phase_time_delay,
    smith_identity_residual,
    time_scan,
    winful_decomposition_1d,
)

from reference import (
    barrier_interior_dwell,
    barrier_phase_time,
    repulsive_step_delay,
    square_well_delay,
    square_well_interior_dwell,
)

# frozen oracle values (m = 1 everywhere)
SW_INTERIOR_DWELL_E1 = 1.4008280957306595   # closed-form, V0=10 a=1, region [0,1], unit flux
BARRIER_DWELL_E25 = 0.19548244711708165     # 1e6-point trapezoid of the exact interior wave


class TestDwellTime:
    def test_free_passage_time(self):
        # plane wave through an empty region: tau = m L / k
        sol = solve_barrier_1d(rectangular_barrier(0.0, 5.0), 0.5, 1.0)  # k = 1
        res = dwell_time(sol, (0.0, 5.0), sol.incident_flux)
        assert res.value == pytest.approx(5.0, rel=1e-8)
        assert not res.snapped

    def test_square_well_interior_against_closed_form(self, sw10):
        sol, _ = scattering_solution(sw10, 1.0, 1.0, r0=1.0)
        res = dwell_time(sol, (0.0, 1.0), 1.0)
        assert res.value == pytest.approx(SW_INTERIOR_DWELL_E1, abs=1e-7)
        assert square_well_interior_dwell(1.0, 1.0, 10.0, 1.0) == pytest.approx(
            SW_INTERIOR_DWELL_E1, abs=1e-12)

    def test_barrier_interior_against_brute_force_quadrature(self, barrier5):
        sol = solve_barrier_1d(barrier5, 2.5, 1.0)
        res = dwell_time(sol, (0.0, 1.0), sol.incident_flux)
        assert res.value == pytest.approx(BARRIER_DWELL_E25, abs=1e-7)
        assert barrier_interior_dwell(2.5, 1.0, 5.0, 1.0) == pytest.approx(
            BARRIER_DWELL_E25, abs=1e-9)

    def test_snapped_endpoints_flagged_and_accurate(self):
        sol = solve_barrier_1d(rectangular_barrier(0.0, 5.0), 0.5, 1.0)
        h = sol.grid.spacing
        res = dwell_time(sol, (0.37 * h, 5.0 - 1.43 * h), sol.incident_flux)
        assert res.snapped
        assert res.value == pytest.approx(5.0 - 1.8 * h, rel=1e-9)

    def test_error_estimate_bounds_true_error(self, sw10):
        sol, _ = scattering_solution(sw10, 1.0, 1.0, r0=1.0)
        res = dwell_time(sol, (0.0, 1.0), 1.0)
        assert abs(res.value - SW_INTERIOR_DWELL_E1) < max(res.error_estimate, 1e-9) * 50

    def test_zero_flux_rejected(self, sw10):
        sol, _ = scattering_solution(sw10, 1.0, 1.0, r0=1.0)
        with pytest.raises(DomainError):
            dwell_time(sol, (0.0, 1.0), 0.0)

    def test_region_outside_grid_rejected(self, sw10):
        sol, _ = scattering_solution(sw10, 1.0, 1.0, r0=1.0)
        with pytest.raises(DomainError):
            dwell_time(sol, (0.0, 3.0), 1.0)


class TestPhaseTimeDelay:
    def test_free_is_zero(self):
        assert abs(phase_time_delay(square_well(0.0, 1.0), 1.0, 1.0)) < 1e-9

    @pytest.mark.parametrize("energy", [0.5, 1.0, 3.0, 6.0])
    def test_square_well_against_symbolic_derivative(self, sw10, energy):
        got = phase_time_delay(sw10, energy, 1.0, rel_step=5e-3, spacing=2e-3)
        want = square_well_delay(energy, 1.0, 10.0, 1.0)
        assert got == pytest.approx(want, rel=1e-6)

    def test_hard_core_limit_against_step_oracle(self):
        # flat repulsive core, tabulated: delta -> -ka as the core hardens
        core = tabulated_potential([0.0, 1.0], [1.0e4, 1.0e4])
        got = phase_time_delay(core, 1.0, 1.0, rel_step=5e-3)
        want = repulsive_step_delay(1.0, 1.0, 1.0e4, 1.0)
        assert got == pytest.approx(want, rel=1e-6)
        # and the hard-sphere limiting value -2 a m / k to the core's accuracy
        assert got == pytest.approx(-2.0 / math.sqrt(2.0), rel=2e-2)

    def test_threshold_stencil_guard(self, sw10):
        with pytest.raises(DomainError):
            phase_time_delay(sw10, 1e-4, 1.0, rel_step=0.5)


class TestWinful1D:
    def test_free_barrier_has_no_delays(self):
        sol = solve_barrier_1d(rectangular_barrier(0.0, 1.0), 2.0, 1.0)
        rep = winful_decomposition_1d(sol)
        assert rep.dwell_delay == pytest.approx(0.0, abs=1e-7)
        assert rep.phase_delay == pytest.approx(0.0, abs=1e-7)
        assert rep.self_interference == pytest.approx(0.0, abs=1e-7)

    def test_identity_with_independently_built_sides(self, barrier5):
        # left side: dwell by brute-force quadrature of the exact wave;
        # right side: phases from the exact amplitudes, differenced in E
        from reference import barrier_amplitudes
        e, m = 2.5, 1.0
        k = math.sqrt(2.0 * m * e)
        h = 1e-5
        th_t, th_r = [], []
        for ee in (e - h, e + h):
            r_amp, _, _, t_amp = barrier_amplitudes(ee, m, 5.0, 1.0)
            kk = math.sqrt(2.0 * m * ee)
            th_t.append(np.angle(t_amp) + kk * 1.0)
            th_r.append(np.angle(r_amp))
        r_amp, _, _, t_amp = barrier_amplitudes(e, m, 5.0, 1.0)
        tau_phase_oracle = (abs(t_amp) ** 2 * (th_t[1] - th_t[0]) / (2 * h)
                            + abs(r_amp) ** 2 * (th_r[1] - th_r[0]) / (2 * h))
        interference = r_amp.imag / k * (m / k)
        assert tau_phase_oracle == pytest.approx(BARRIER_DWELL_E25 - interference, abs=1e-6)

        rep = winful_decomposition_1d(solve_barrier_1d(barrier5, e, m))
        assert abs(rep.winful_residual) < 1e-6
        assert rep.tau_dwell == pytest.approx(BARRIER_DWELL_E25, abs=1e-7)
        assert rep.tau_phase == pytest.approx(tau_phase_oracle, abs=1e-6)

    @pytest.mark.parametrize("energy", [0.2, 1.0, 2.5, 5.0, 9.5])
    def test_identity_residual_across_scan(self, barrier5, energy):
        rep = winful_decomposition_1d(solve_barrier_1d(barrier5, energy, 1.0))
        assert abs(rep.winful_residual) < 1e-6
        # definitional, bit-exact
        assert rep.self_interference == rep.dwell_delay - rep.phase_delay
        assert rep.tau_free == 1.0 * 1.0 / math.sqrt(2.0 * energy)

    def test_phase_time_is_the_tangent_solve_and_matches_closed_form(self, barrier5):
        operator = BarrierOperator(barrier5, 1.0, RadialGrid.from_spacing(1.0, 1e-3))
        for e in (0.2, 2.5, 9.5):
            rep = winful_decomposition_1d(operator.solve(e, tangent=True))
            # a solution solved without the tangent is solved again with it
            assert winful_decomposition_1d(operator.solve(e)) == rep
            assert rep.tau_phase == pytest.approx(barrier_phase_time(e, 1.0, 5.0, 1.0), rel=1e-10)

    def test_mass_enters_free_time_and_every_delay(self, barrier5):
        # tau_free = m L / k: at m != 1 a dropped mass moves both delays
        m, e = 1.7, 2.5
        k = math.sqrt(2.0 * m * e)
        rep = winful_decomposition_1d(solve_barrier_1d(barrier5, e, m))
        assert rep.tau_free == pytest.approx(m * 1.0 / k, rel=1e-15)
        tau_dwell = barrier_interior_dwell(e, m, 5.0, 1.0)
        tau_phase = barrier_phase_time(e, m, 5.0, 1.0)
        assert rep.tau_dwell == pytest.approx(tau_dwell, rel=1e-6)
        assert rep.dwell_delay == pytest.approx(tau_dwell - m / k, abs=1e-6)
        assert rep.phase_delay == pytest.approx(tau_phase - m / k, abs=1e-6)

    def test_threshold_is_flagged_not_asserted(self, barrier5):
        rep = winful_decomposition_1d(solve_barrier_1d(barrier5, 0.01, 1.0))
        assert "threshold_singular" in rep.flags
        assert abs(rep.self_interference) > 10.0 * rep.tau_dwell


class TestSmithIdentity:
    def test_free_wave_residual_is_tiny(self):
        res = smith_identity_residual(square_well(0.0, 1.0), 1.0, 1.0, spacing=1e-3)
        assert res.max_norm < 1e-6

    def test_square_well_residual_and_convergence(self, sw10):
        res = smith_identity_residual(sw10, 1.0, 1.0, spacing=1e-3, rel_step=1e-4)
        assert res.max_norm < 1e-5
        coarse = smith_identity_residual(sw10, 1.0, 1.0, spacing=1e-3, rel_step=8e-3)
        fine = smith_identity_residual(sw10, 1.0, 1.0, spacing=1e-3, rel_step=4e-3)
        assert coarse.max_norm / fine.max_norm >= 3.8

    def test_integrated_form_matches_boundary_term(self, sw10):
        res = smith_identity_residual(sw10, 1.0, 1.0, spacing=1e-3, rel_step=1e-3)
        assert res.norm_integral == pytest.approx(res.boundary_term, abs=1e-6)


class TestOutgoingDwellEqualsPhase:
    def test_free_both_sides_vanish(self):
        rep = outgoing_dwell_equals_phase(square_well(0.0, 1.0), 1.0, 1.0, r0=1.0)
        assert abs(rep.dwell_delay) < 1e-7
        assert abs(rep.phase_delay) < 1e-7

    def test_square_well(self, sw10):
        rep = outgoing_dwell_equals_phase(sw10, 1.0, 1.0, r0=1.0, rel_step=1e-3)
        assert abs(rep.difference) < 1e-6
        assert abs(rep.imaginary_residual) < 1e-6

    def test_sweep_across_delay_peak(self, sw10):
        # the phase delay peaks near E ~ 0.4 for this well
        for e in np.linspace(0.25, 1.2, 7):
            rep = outgoing_dwell_equals_phase(sw10, float(e), 1.0, r0=1.0, rel_step=1e-3)
            assert abs(rep.difference) < 1e-6


class TestLogDerivativeDwell:
    def test_free_equals_free_time(self):
        res = kp_log_derivative_dwell(square_well(0.0, 1.0), 1.0, 1.0, r0=1.0)
        assert res.value == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-6)
        assert abs(res.imaginary_residual) < 1e-6

    @pytest.mark.parametrize("energy", [0.5, 1.0, 3.0, 6.0])
    def test_equals_phase_delay_plus_free_time(self, sw10, energy):
        res = kp_log_derivative_dwell(sw10, energy, 1.0, r0=1.0, rel_step=1e-3)
        delay = phase_time_delay(sw10, energy, 1.0, r0=1.0, rel_step=1e-3)
        tau0 = 1.0 / math.sqrt(2.0 * energy)
        assert res.value == pytest.approx(delay + tau0, abs=1e-6)

    def test_equals_phase_time_at_delay_peak(self, sw10):
        # locate the delay maximum, then compare the two dwell routes there
        energies = np.linspace(0.25, 2.0, 15)
        delays = [phase_time_delay(sw10, float(e), 1.0, r0=1.0) for e in energies]
        e_peak = float(energies[int(np.argmax(delays))])
        res = kp_log_derivative_dwell(sw10, e_peak, 1.0, r0=1.0, rel_step=1e-3)
        tau_phase = (phase_time_delay(sw10, e_peak, 1.0, r0=1.0, rel_step=1e-3)
                     + 1.0 / math.sqrt(2.0 * e_peak))
        assert res.value == pytest.approx(tau_phase, abs=1e-6)

    def test_node_at_matching_radius_raises(self, sw10):
        # phi(1; E) = 0 when sqrt(2(E+10)) = 2 pi; a coarse grid keeps the
        # solver's phi noise floor below the node-detection threshold
        from scipy.optimize import brentq
        spacing = 8e-3
        grid = RadialGrid.from_spacing(1.0, spacing)

        def boundary_value(e):
            return integrate_radial(sw10, e, 1.0, grid).values[-1].real

        e_node = brentq(boundary_value, 9.5, 10.0, xtol=1e-13)
        assert e_node == pytest.approx(2.0 * math.pi**2 - 10.0, abs=1e-4)
        with pytest.raises(NodeAtBoundaryError):
            kp_log_derivative_dwell(sw10, e_node, 1.0, r0=1.0, spacing=spacing)


class TestTimeScan:
    def test_report_structure_and_definitional_identities(self, sw10):
        energies = np.linspace(0.5, 3.0, 5)
        reports = time_scan(sw10, 1.0, energies, r0=1.0)
        for e, rep in zip(energies, reports):
            assert rep.energy == float(e)
            assert rep.tau_free == 1.0 * 1.0 / math.sqrt(2.0 * e)
            assert rep.self_interference == rep.dwell_delay - rep.phase_delay
            assert rep.tau_dwell > 0.0
            assert rep.region == (0.0, 1.0)

    def test_threshold_energies_flagged(self, sw10):
        reports = time_scan(sw10, 1.0, [0.02, 0.5], r0=1.0, e_min=0.05)
        assert "threshold_singular" in reports[0].flags
        assert "threshold_singular" not in reports[1].flags

    def test_phase_delay_against_symbolic_derivative(self, sw10):
        energies = np.linspace(0.3, 9.0, 12)
        for e, rep in zip(energies, time_scan(sw10, 1.0, energies, r0=1.0, spacing=1e-3)):
            want = square_well_delay(float(e), 1.0, 10.0, 1.0)
            # relative to the free time where the delay crosses zero
            assert abs(rep.phase_delay - want) < 2e-10 * max(abs(want), rep.tau_free)

    def test_mass_enters_free_time_and_every_time(self, sw10):
        # tau_free = m r0 / k; the closed forms take the mass independently
        m, r0 = 1.7, 1.0
        energies = np.linspace(0.3, 9.0, 12)
        for e, rep in zip(energies, time_scan(sw10, m, energies, r0=r0, spacing=1e-3)):
            e = float(e)
            tau_free = m * r0 / math.sqrt(2.0 * m * e)
            delay = square_well_delay(e, m, 10.0, 1.0)
            assert rep.tau_free == pytest.approx(tau_free, rel=1e-15)
            assert abs(rep.phase_delay - delay) < 2e-10 * max(abs(delay), tau_free)
            assert rep.tau_phase == pytest.approx(delay + tau_free, rel=1e-9)
            assert rep.tau_dwell == pytest.approx(square_well_interior_dwell(e, m, 10.0, 1.0),
                                                  rel=1e-9)

    def test_nonpositive_energy_is_domain_error(self, sw10):
        with pytest.raises(DomainError):
            time_scan(sw10, 1.0, [0.0, 1.0], r0=1.0)
