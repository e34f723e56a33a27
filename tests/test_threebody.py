import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dwelltime import threebody
from dwelltime.errors import (
    ConfigurationError,
    InternalConsistencyError,
    SubsystemConvergenceError,
)
from dwelltime.potentials import square_well
from dwelltime.resonance import find_kp_eigenvalues
from dwelltime.threebody import (
    build_three_body,
    continuity_residual,
    factorization_residual,
    solve_subsystems,
    three_body_currents,
    three_body_dwell,
    three_body_width,
)

# regression model: alpha + alpha + n mass pattern, both channels depth-10 wells
MASSES = (4.0, 4.0, 1.0)
SEED_R = complex(0.8, -0.6)
SEED_RHO = complex(1.4, -1.0)


@pytest.fixture(scope="module")
def model(sw10):
    return build_three_body(MASSES, sw10, sw10, 2.0, 2.0)


@pytest.fixture(scope="module")
def eigenpairs(model):
    return solve_subsystems(model, [SEED_R], [SEED_RHO], spacing=1e-3)


@pytest.fixture(scope="module")
def symmetric_pairs():
    # masses (2/3, 1, 1) give mu1 = mu2 = 1/2: identical channel problems
    pot = square_well(8.0, 1.5)
    model = build_three_body((2.0 / 3.0, 1.0, 1.0), pot, pot, 3.0, 3.0)
    seed = complex(3.8, -1.85)
    return model, *solve_subsystems(model, [seed], [seed], spacing=1e-3)


class TestBuild:
    def test_reduced_masses_from_stated_formulas(self, sw10):
        model = build_three_body(MASSES, sw10, sw10, 2.0, 2.0)
        assert model.mu2 == 4.0 * 1.0 / 5.0
        assert model.mu1 == pytest.approx(4.0 * 5.0 / 9.0, rel=1e-15)

    def test_equal_masses(self, sw10):
        model = build_three_body((1.0, 1.0, 1.0), sw10, sw10, 2.0, 2.0)
        assert model.mu1 == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert model.mu2 == pytest.approx(0.5, rel=1e-15)

    def test_heavy_spectator_limit(self, sw10):
        # mu1 -> m2 + m3 with relative gap (m2+m3)/(m1+m2+m3)
        model = build_three_body((1.0e6, 0.5, 0.5), sw10, sw10, 2.0, 2.0)
        assert model.mu1 == pytest.approx(1.0, rel=1e-6)

    def test_region_must_cover_support(self, sw10):
        with pytest.raises(ConfigurationError):
            build_three_body(MASSES, sw10, sw10, 0.5, 2.0)
        with pytest.raises(ConfigurationError):
            build_three_body(MASSES, sw10, sw10, 2.0, 0.5)

    def test_masses_must_be_positive(self, sw10):
        with pytest.raises(ConfigurationError):
            build_three_body((1.0, -1.0, 1.0), sw10, sw10, 2.0, 2.0)


class TestSolveSubsystems:
    def test_channels_reproduce_standalone_solves_bitwise(self, model, eigenpairs):
        eig_r, eig_rho = eigenpairs
        alone_r = find_kp_eigenvalues(model.v_r, model.mu1, [SEED_R], 2.0,
                                      spacing=1e-3).eigenpairs[0]
        alone_rho = find_kp_eigenvalues(model.v_rho, model.mu2, [SEED_RHO], 2.0,
                                        spacing=1e-3).eigenpairs[0]
        assert eig_r.w == alone_r.w
        assert eig_rho.w == alone_rho.w

    def test_asymmetric_masses_split_the_channels(self, eigenpairs):
        eig_r, eig_rho = eigenpairs
        assert abs(eig_r.w - eig_rho.w) > 0.1  # same wells, different reduced masses

    def test_failing_channel_is_named(self, model):
        with pytest.raises(SubsystemConvergenceError, match="rho"):
            solve_subsystems(model, [SEED_R], [], spacing=1e-3)
        free = square_well(0.0, 1.0)
        broken = build_three_body(MASSES, model.v_r, free, 2.0, 2.0)
        # a free channel produces no seeds; the composite error names it
        with pytest.raises(SubsystemConvergenceError, match="rho"):
            solve_subsystems(broken, [SEED_R], [], spacing=1e-3)

    def test_probe_mode_needs_both_fixed_wavenumbers(self, model):
        # without them the channels would silently run self-consistently
        with pytest.raises(ConfigurationError, match="k_fixed"):
            solve_subsystems(model, [SEED_R], [SEED_RHO], k_mode="probe", spacing=1e-3)
        with pytest.raises(ConfigurationError, match="k_fixed"):
            solve_subsystems(model, [SEED_R], [SEED_RHO], k_mode="probe",
                             k_fixed_r=1.3, spacing=1e-3)


class TestWidth:
    def test_total_width_is_sum_of_channel_widths(self, eigenpairs):
        eig_r, eig_rho = eigenpairs
        w = three_body_width(eig_r, eig_rho)
        assert w.gamma == eig_r.gamma + eig_rho.gamma
        assert w.tau == 1.0 / w.gamma

    def test_current_ratio_route_agrees(self, eigenpairs):
        w = three_body_width(*eigenpairs)
        assert abs(w.gamma - w.gamma_from_currents) / w.gamma < 1e-8

    def test_symmetric_model_halves_the_lifetime(self, symmetric_pairs):
        _, eig_a, eig_b = symmetric_pairs
        w = three_body_width(eig_a, eig_b)
        assert w.gamma == 2.0 * eig_a.gamma
        assert w.tau == pytest.approx(0.5 / eig_a.gamma, rel=1e-15)


class TestCurrents:
    def test_normalized_channels_collapse_to_boundary_currents(self, eigenpairs):
        eig_r, eig_rho = eigenpairs
        cur = three_body_currents(eig_r, eig_rho, t=0.0)
        assert cur.decay_factor == 1.0
        assert cur.j_r == pytest.approx(eig_rho.norm() * eig_r.boundary_current(), rel=1e-14)
        assert cur.j_rho == pytest.approx(eig_r.norm() * eig_rho.boundary_current(), rel=1e-14)
        assert cur.j_3b == cur.j_r + cur.j_rho

    def test_exponential_decay_factor(self, eigenpairs):
        eig_r, eig_rho = eigenpairs
        gamma = eig_r.gamma + eig_rho.gamma
        c0 = three_body_currents(eig_r, eig_rho, 0.0)
        c1 = three_body_currents(eig_r, eig_rho, 1.0 / gamma)
        assert c1.j_3b / c0.j_3b == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_symmetric_channels_carry_equal_currents(self, symmetric_pairs):
        _, eig_a, eig_b = symmetric_pairs
        cur = three_body_currents(eig_a, eig_b)
        assert cur.j_r == pytest.approx(cur.j_rho, rel=1e-12)

    def test_decay_factor_cancels_in_the_dwell_ratio(self, eigenpairs):
        eig_r, eig_rho = eigenpairs
        gamma = eig_r.gamma + eig_rho.gamma
        t = 0.7 / gamma
        cur = three_body_currents(eig_r, eig_rho, t)
        numerator = eig_r.norm() * eig_rho.norm() * cur.decay_factor
        rep = three_body_dwell(*_model_args(eigenpairs))
        assert numerator / cur.j_3b == pytest.approx(rep.tau_3b, rel=1e-12)


def _model_args(eigenpairs):
    model = build_three_body(MASSES, eigenpairs[0].eigenfunction.potential,
                             eigenpairs[1].eigenfunction.potential, 2.0, 2.0)
    return model, eigenpairs[0], eigenpairs[1]


class TestDwellReport:
    def test_reciprocal_addition(self, model, eigenpairs):
        rep = three_body_dwell(model, *eigenpairs)
        assert rep.identity_residual < 1e-8
        # same arithmetic rebuilt from the subsystem dwell times
        assert rep.tau_3b == pytest.approx(
            1.0 / (1.0 / rep.tau_chi + 1.0 / rep.tau_phi_sub), rel=1e-12)

    def test_dwell_time_equals_lifetime(self, model, eigenpairs):
        rep = three_body_dwell(model, *eigenpairs)
        assert abs(rep.tau_3b * rep.gamma_r - 1.0) < 1e-8
        assert rep.tau_r == pytest.approx(rep.tau_3b, rel=1e-8)

    def test_factorization_consistency(self, eigenpairs):
        assert factorization_residual(*eigenpairs) < 1e-9

    def test_factorization_looks_up_scipy_simpson_by_name(self, eigenpairs, monkeypatch):
        # the traced quadrature span wraps the module attribute, so the
        # check must call it through the global name, once per channel
        calls = []

        def counting(y, dx):
            calls.append(dx)
            return original(y, dx=dx)

        original = threebody._scipy_simpson
        monkeypatch.setattr(threebody, "_scipy_simpson", counting)
        factorization_residual(*eigenpairs)
        assert len(calls) == 2

    def test_report_carries_the_factorization_gate_value(self, model, eigenpairs):
        rep = three_body_dwell(model, *eigenpairs)
        assert rep.factorization_residual == factorization_residual(*eigenpairs)

    def test_exchange_symmetry_bitwise(self, model, eigenpairs):
        rep = three_body_dwell(model, *eigenpairs)
        swapped = three_body_dwell(model, eigenpairs[1], eigenpairs[0])
        assert swapped.tau_3b == rep.tau_3b

    def test_three_body_dwell_below_both_subsystems(self, model, eigenpairs):
        rep = three_body_dwell(model, *eigenpairs)
        assert rep.tau_3b < min(rep.tau_chi, rep.tau_phi_sub)

    def test_symmetric_model_gives_half_the_channel_dwell(self, symmetric_pairs):
        model, eig_a, eig_b = symmetric_pairs
        rep = three_body_dwell(model, eig_a, eig_b)
        assert rep.tau_3b == pytest.approx(rep.tau_chi / 2.0, abs=1e-8)

    def test_report_wire_format(self, model, eigenpairs):
        wire = three_body_dwell(model, *eigenpairs).to_dict()
        assert set(wire) == {"W_chi", "W_phi", "Gamma_R", "tau_R", "tau_chi",
                             "tau_phi", "tau_3b", "identity_residual",
                             "continuity_residual"}
        assert wire["W_chi"] == [eigenpairs[0].w.real, eigenpairs[0].w.imag]

    def test_factorization_guard_error_path(self, model, eigenpairs):
        # the independent quadrature routes agree to roundoff; a tolerance
        # below that floor must trip the internal-consistency guard
        with pytest.raises(InternalConsistencyError):
            three_body_dwell(model, *eigenpairs, factorization_tol=1e-17)


class TestContinuity:
    def test_cavity_state_of_free_channel_balances_at_roundoff(self):
        # a pure outgoing state of the empty cavity is an exact sine in each
        # coordinate: the balance residual sits at the solver floor
        free = square_well(0.0, 1.0)
        found = find_kp_eigenvalues(free, 1.0, [complex(1.2, -0.8)], 2.0,
                                    spacing=1e-3, k_fixed=1.5)
        assert found.eigenpairs, [f.reason for f in found.failures]
        pair = found.eigenpairs[0]
        cont = continuity_residual(pair, pair)
        assert cont.balance_max < 1e-9 * cont.balance_scale

    def test_generalized_balance_and_channel_residuals(self, eigenpairs):
        cont = continuity_residual(*eigenpairs)
        assert cont.balance_max < 1e-6 * cont.balance_scale
        assert cont.integrated_residual_r < 1e-8
        assert cont.integrated_residual_rho < 1e-8

    def test_residuals_converge_with_grid_refinement(self, model, eigenpairs):
        eig_r, eig_rho = eigenpairs
        coarse_r, coarse_rho = solve_subsystems(model, [eig_r.w], [eig_rho.w],
                                                spacing=2e-3)
        coarse = continuity_residual(coarse_r, coarse_rho)
        fine = continuity_residual(eig_r, eig_rho)
        assert coarse.balance_max / fine.balance_max >= 4.0
        assert coarse.channel_max_r / fine.channel_max_r >= 4.0
        assert coarse.channel_max_rho / fine.channel_max_rho >= 4.0

    def test_integrated_channel_residual_is_width_norm_current_identity(self, eigenpairs):
        eig_r, _ = eigenpairs
        cont = continuity_residual(*eigenpairs)
        direct = abs(eig_r.gamma * eig_r.norm() - eig_r.boundary_current()) / (
            eig_r.gamma * eig_r.norm())
        assert cont.integrated_residual_r == pytest.approx(direct, rel=1e-12)


def _balance_nxn(gamma, dens_r, div_r, dens_rho, div_rho):
    """The full n x n balance max and scale, as the formulas read."""
    balance = (-gamma * np.outer(dens_r, dens_rho)
               + np.outer(div_r, dens_rho) + np.outer(dens_r, div_rho))
    return (float(np.max(np.abs(balance))),
            gamma * float(np.max(np.outer(dens_r, dens_rho))))


class TestChunkedBalance:
    def test_report_equals_the_nxn_formulas_bitwise(self, eigenpairs):
        # n = 2001 runs in 16 row chunks of 131 rows
        eig_r, eig_rho = eigenpairs
        gamma = eig_r.gamma + eig_rho.gamma
        dens_r, div_r = threebody._channel_fields(eig_r)
        dens_rho, div_rho = threebody._channel_fields(eig_rho)
        cont = continuity_residual(eig_r, eig_rho)
        assert (cont.balance_max, cont.balance_scale) == _balance_nxn(
            gamma, dens_r, div_r, dens_rho, div_rho)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(),
           n_r=st.integers(1, 40), n_rho=st.integers(1, 40),
           chunk=st.integers(1, 300),
           gamma=st.floats(1e-3, 10.0))
    def test_any_chunking_is_bit_identical(self, data, n_r, n_rho, chunk, gamma):
        # chunk sizes that divide neither length leave a short last chunk
        dens = st.floats(0.0, 1e3)
        div = st.floats(-1e3, 1e3)
        dens_r = data.draw(arrays(np.float64, n_r, elements=dens))
        dens_rho = data.draw(arrays(np.float64, n_rho, elements=dens))
        div_r = data.draw(arrays(np.float64, n_r, elements=div))
        div_rho = data.draw(arrays(np.float64, n_rho, elements=div))
        full_max, full_scale = _balance_nxn(gamma, dens_r, div_r, dens_rho, div_rho)
        assert threebody._balance_max(gamma, dens_r, div_r, dens_rho, div_rho,
                                      chunk=chunk) == full_max
        assert gamma * float(np.max(dens_r) * np.max(dens_rho)) == full_scale

    def test_nan_is_not_dropped(self):
        dens = np.ones(5)
        div = np.array([0.0, 0.0, np.nan, 0.0, 0.0])
        assert math.isnan(threebody._balance_max(1.0, dens, div, dens, np.zeros(5), chunk=5))


# r_chi = rho_phi = 10 at spacing 1e-3: n = 10001 per channel, so an n x n
# float64 array alone is 763 MiB
LARGE_REGION = 10.0


@pytest.fixture(scope="module")
def large(sw10):
    model = build_three_body(MASSES, sw10, sw10, LARGE_REGION, LARGE_REGION)
    eig_r, eig_rho = solve_subsystems(model, [SEED_R], [SEED_RHO], spacing=1e-3)
    assert eig_r.eigenfunction.values.size >= 10001
    return model, eig_r, eig_rho


def _peak_mib(fn) -> float:
    """Peak traced allocation of fn() above what was live before it."""
    tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return (tracemalloc.get_traced_memory()[1] - live) / 2 ** 20
    finally:
        tracemalloc.stop()


class TestLargeGridMemory:
    """No n x n array: peak allocation stays flat in n (aim: large grids fit)."""

    def test_continuity_residual_peak(self, large):
        _, eig_r, eig_rho = large
        assert _peak_mib(lambda: continuity_residual(eig_r, eig_rho)) < 16.0

    def test_three_body_dwell_peak(self, large):
        model, eig_r, eig_rho = large
        assert _peak_mib(lambda: three_body_dwell(model, eig_r, eig_rho)) < 1.0
