import math

import numpy as np
import pytest

from dwelltime.errors import DomainError
from dwelltime.potentials import square_well, tabulated_potential
from dwelltime.radial import RadialGrid, RadialOperator
from dwelltime.resonance import (
    find_kp_eigenvalues,
    kp_residual,
    scan_resonance_seeds,
    verify_width_dwell,
)

from reference import square_well_delay

# converged self-consistent eigenvalue for the depth-10 well, boundary at r0 = 1
SW_EIGENVALUE = 1.1666001075 - 1.5746791359j
# a narrow state trapped behind a thin barrier, with a seed near it
TRAP = tabulated_potential([0.0, 0.98, 1.02, 1.58, 1.62], [-8.0, -8.0, 6.0, 6.0, 0.0])
TRAP_SEED = complex(4.7675, -0.1664)


def joint_zero_cells(potential, mass, k_fixed, r0, grid, re_axis, im_axis):
    """Cells of a W-plane mesh where Re D and Im D both change sign."""
    operator = RadialOperator(potential, mass, grid)
    d = np.array([[kp_residual(operator, complex(a, b), k_fixed, r0)
                   for a in re_axis] for b in im_axis])
    cells = []
    sr, si = np.sign(d.real), np.sign(d.imag)
    for i in range(len(im_axis) - 1):
        for j in range(len(re_axis) - 1):
            br, bi = sr[i : i + 2, j : j + 2], si[i : i + 2, j : j + 2]
            if br.max() > br.min() and bi.max() > bi.min():
                cells.append(complex(0.5 * (re_axis[j] + re_axis[j + 1]),
                                     0.5 * (im_axis[i] + im_axis[i + 1])))
    return cells


class TestResidual:
    def test_free_standing_wave_cannot_satisfy_outgoing_condition(self):
        free = square_well(0.0, 1.0)
        grid = RadialGrid.from_spacing(1.0, 1e-3)
        k = math.sqrt(2.0)
        d = kp_residual(RadialOperator(free, 1.0, grid), 1.0, k, 1.0)
        assert abs(d) > 0.1  # real standing wave never matches pure outgoing

    def test_conjugate_point_is_not_the_conjugate_residual(self, sw10):
        grid = RadialGrid.from_spacing(1.0, 1e-3)
        w = SW_EIGENVALUE
        k = 1.52748166
        operator = RadialOperator(sw10, 1.0, grid)
        d = kp_residual(operator, w, k, 1.0)
        d_mirror = kp_residual(operator, w.conjugate(), k, 1.0)
        # conjugating W flips the sign of ik in the boundary operator, so the
        # mirror point solves a different condition
        assert abs(d_mirror - d.conjugate()) > 0.1

    def test_grid_map_shows_isolated_joint_zero(self, sw10):
        grid = RadialGrid.from_spacing(1.0, 2e-3)
        cells = joint_zero_cells(sw10, 1.0, 1.52748166, 1.0, grid,
                                 np.linspace(0.05, 8.0, 40), np.linspace(-2.0, -0.01, 40))
        assert len(cells) >= 1
        spacing = 8.0 / 39 + 2.0 / 39
        assert min(abs(c - SW_EIGENVALUE) for c in cells) < spacing


class TestSeedScan:
    def test_free_potential_yields_no_seeds(self):
        assert scan_resonance_seeds(square_well(0.0, 1.0), 1.0, (0.1, 8.0), 30) == []

    def test_peak_location_matches_symbolic_delay_maximum(self, sw10):
        seeds = scan_resonance_seeds(sw10, 1.0, (0.1, 8.0), 40)
        assert len(seeds) >= 1
        es = np.linspace(0.1, 8.0, 1600)
        delays = [square_well_delay(float(e), 1.0, 10.0, 1.0) for e in es]
        e_peak = float(es[int(np.argmax(delays))])
        scan_step = (8.0 - 0.1) / 39
        assert min(abs(s.real - e_peak) for s in seeds) < 2.0 * scan_step
        assert all(s.imag < 0.0 for s in seeds)

    def test_barrier_trap_gives_narrow_seed(self):
        trap = tabulated_potential([0.0, 0.98, 1.02, 1.58, 1.62],
                                   [-8.0, -8.0, 6.0, 6.0, 0.0])
        seeds = scan_resonance_seeds(trap, 1.0, (0.2, 6.0), 60, spacing=2e-3)
        assert len(seeds) == 1
        seed = seeds[0]
        assert -2.0 * seed.imag < 0.2 * seed.real  # Gamma_seed << E_peak
        found = find_kp_eigenvalues(trap, 1.0, seeds, r0=1.62, spacing=2e-3)
        assert len(found.eigenpairs) == 1
        pair = found.eigenpairs[0]
        assert abs(pair.w.real - seed.real) < 0.05
        assert pair.gamma < 0.2 * pair.w.real

    def test_range_validation(self, sw10):
        with pytest.raises(DomainError):
            scan_resonance_seeds(sw10, 1.0, (-1.0, 2.0), 10)
        with pytest.raises(DomainError):
            scan_resonance_seeds(sw10, 1.0, (2.0, 1.0), 10)


class TestFindEigenvalues:
    def test_self_consistent_converges_from_scan_seed(self, sw10):
        seeds = scan_resonance_seeds(sw10, 1.0, (0.1, 8.0), 40)
        result = find_kp_eigenvalues(sw10, 1.0, seeds, r0=1.0, spacing=1e-3)
        assert len(result.eigenpairs) == 1
        pair = result.eigenpairs[0]
        assert abs(pair.w - SW_EIGENVALUE) < 1e-6
        assert pair.residual_norm < 1e-10
        assert pair.w.imag < 0.0
        assert pair.gamma == -2.0 * pair.w.imag
        # self-consistency of the boundary wavenumber
        assert pair.k_fixed == pytest.approx(math.sqrt(2.0 * pair.w.real), rel=1e-9)
        # eigenfunction is normalized and regular at the origin
        assert pair.eigenfunction.values[0] == 0.0
        assert pair.norm() == pytest.approx(1.0, abs=1e-10)

    def test_probe_mode_matches_map_cell(self, sw10):
        result = find_kp_eigenvalues(sw10, 1.0, [complex(1.2, -1.5)], r0=1.0,
                                     spacing=1e-3, k_fixed=1.52748166)
        assert len(result.eigenpairs) == 1
        assert abs(result.eigenpairs[0].w - SW_EIGENVALUE) < 1e-4

    def test_duplicate_seeds_merge(self, sw10):
        result = find_kp_eigenvalues(
            sw10, 1.0, [complex(1.1, -1.4), complex(1.3, -1.7)], r0=1.0, spacing=1e-3)
        assert len(result.eigenpairs) == 1

    def test_distant_seed_never_raises(self, sw10):
        # W0 = 100 - 50i is far from the scan window: the search must come
        # back with every seed accounted for (the spectrum is unbounded, so
        # a distant seed may legitimately land on a high-lying eigenvalue)
        result = find_kp_eigenvalues(sw10, 1.0, [complex(100.0, -50.0)], r0=1.0,
                                     spacing=1e-3)
        assert len(result.eigenpairs) + len(result.failures) == 1
        for pair in result.eigenpairs:
            assert pair.residual_norm < 1e-10 and pair.w.imag < 0.0
        for failure in result.failures:
            assert failure.reason

    def test_stalled_seed_reports_failure_with_residual(self):
        # a tolerance below the solver's reach makes the search stall
        result = find_kp_eigenvalues(TRAP, 1.0, [TRAP_SEED], r0=1.62, spacing=5e-4, tol=1e-18)
        assert result.eigenpairs == ()
        (failure,) = result.failures
        assert failure.reason == "did not converge"
        assert failure.final_residual is not None and failure.final_residual > 1e-18

    def test_narrow_trap_state_converges_at_fine_spacing(self):
        result = find_kp_eigenvalues(TRAP, 1.0, [TRAP_SEED], r0=1.62, spacing=5e-4)
        assert result.failures == ()
        (pair,) = result.eigenpairs
        assert pair.residual_norm < 1e-10
        rep = verify_width_dwell(pair)
        assert rep.flags == ()
        assert rep.relative_residual < 1e-8

    @pytest.mark.parametrize("spacing", [2.5e-4, 1e-4])
    def test_fine_spacing_converges_below_1e_12(self, sw10, spacing):
        result = find_kp_eigenvalues(sw10, 1.0, [complex(1.17, -1.57)], r0=1.0, spacing=spacing)
        assert result.failures == ()
        (pair,) = result.eigenpairs
        assert pair.residual_norm < 1e-12
        assert abs(pair.w - SW_EIGENVALUE) < 1e-9

    def test_nonpositive_seed_energy_fails_in_self_consistent_mode(self, sw10):
        result = find_kp_eigenvalues(sw10, 1.0, [complex(-1.0, -0.5)], r0=1.0,
                                     spacing=1e-3)
        assert result.eigenpairs == ()
        assert "non-positive" in result.failures[0].reason

    def test_input_validation(self, sw10):
        with pytest.raises(DomainError):
            find_kp_eigenvalues(sw10, 1.0, [], r0=1.0)
        with pytest.raises(DomainError):
            find_kp_eigenvalues(sw10, 1.0, [1.0 - 1.0j], r0=1.0, k_fixed=-2.0)
        with pytest.raises(DomainError):
            find_kp_eigenvalues(sw10, 1.0, [1.0 - 1.0j], r0=0.5)


@pytest.fixture(scope="module")
def pair(sw10):
    return find_kp_eigenvalues(sw10, 1.0, [SW_EIGENVALUE], r0=1.0,
                               spacing=1e-3).eigenpairs[0]


class TestWidthDwellIdentity:
    def test_identity_residual_at_production_spacing(self, pair):
        rep = verify_width_dwell(pair)
        assert rep.relative_residual < 1e-8
        assert rep.flags == ()
        assert rep.lifetime == pytest.approx(1.0 / pair.gamma)

    def test_normalization_makes_dwell_the_inverse_current(self, pair):
        rep = verify_width_dwell(pair)
        assert rep.norm == pytest.approx(1.0, abs=1e-10)
        assert rep.dwell == pytest.approx(rep.norm / rep.current, rel=1e-14)

    def test_residual_shrinks_at_least_eightfold_on_halving(self, sw10, pair):
        coarse = verify_width_dwell(pair).relative_residual
        refined = find_kp_eigenvalues(sw10, 1.0, [pair.w], r0=1.0,
                                      spacing=5e-4).eigenpairs[0]
        fine = verify_width_dwell(refined).relative_residual
        assert coarse / fine >= 8.0

    def test_lifetime_vs_peak_delay_same_order(self, sw10, pair):
        # soft cross-check, reported not asserted tightly: for this broad
        # state the two time scales agree only in order of magnitude
        delay = max(square_well_delay(float(e), 1.0, 10.0, 1.0)
                    for e in np.linspace(0.2, 2.0, 50))
        assert 0.05 < (1.0 / pair.gamma) / (delay / 2.0) < 20.0
