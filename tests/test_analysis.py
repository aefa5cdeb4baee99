import numpy as np
import pytest

from qme.analysis import (
    appendix_d_scenario,
    bounds_monitor,
    dephasing_counterexample_matrix,
    dephasing_limit_spectrum,
    duality_check,
    duality_residuals,
    first_crossing_time,
    low_density_slope,
)
from qme.dynamics import HoleFlow, NetworkFlow, OperatorFlow, Statistics, TransitionNetwork
from qme.integrator import EvolutionSpec, Trajectory, evolve
from qme.operators import DensityMatrix, positivity_report

FERMION = Statistics.FERMION


def evolve_counterexample(gamma=1.0, t1=15.0, coupling=10.0 / 27.0, h_diag=None,
                          dt=1e-2, record_every=10):
    sc = appendix_d_scenario(gamma=gamma, h_diag=h_diag, coupling=coupling)
    spec = EvolutionSpec(rhs=sc.rhs, t0=0.0, t1=t1, dt=dt, record_every=record_every)
    return evolve(spec, sc.initial)


class UnswappedHoleFlow(HoleFlow):
    """A broken hole flow: the particle operators at I - x, loss and gain
    left in their particle roles."""

    def relaxation_operators(self, x):
        return self._particle.relaxation_operators(self._eye - x)


def two_state_pair(t1=3.0, dt=2e-3, record_every=25, swap_ops=False):
    """Matched particle and hole evolutions of the two-state transfer."""
    net = TransitionNetwork.computational(2, {(1, 0): 1.0})
    flow = NetworkFlow(np.zeros((2, 2)), net, FERMION)
    initial = DensityMatrix(np.diag([1.0, 0.0]), FERMION)
    spec = EvolutionSpec(rhs=flow, t0=0.0, t1=t1, dt=dt, record_every=record_every)
    traj = evolve(spec, initial)

    eye = np.eye(2, dtype=complex)
    hole_rhs = UnswappedHoleFlow(flow) if swap_ops else flow.hole()
    hole_spec = EvolutionSpec(rhs=hole_rhs, t0=0.0, t1=t1, dt=dt, record_every=record_every)
    hole_traj = evolve(hole_spec, DensityMatrix(eye - initial.matrix, FERMION))
    return traj, hole_traj


class TestCounterexampleScenario:
    def test_canonical_matrix_entries(self):
        m = dephasing_counterexample_matrix()
        assert np.allclose(np.diag(m), 1 / 3)
        assert m[0, 1] == m[1, 0] == m[0, 2] == m[2, 0] == pytest.approx(10 / 27)
        assert m[1, 2] == m[2, 1] == pytest.approx(2 / 9)

    def test_canonical_initial_is_slightly_indefinite(self):
        # 10/27 > 1/3 makes the (0,1) principal minor indefinite; freeze the edge
        min_eig, psd = positivity_report(dephasing_counterexample_matrix())
        assert min_eig == pytest.approx(-0.09099378869633201, abs=1e-12)
        assert not psd

    def test_limit_spectrum_matches_closed_form(self):
        traj = evolve_counterexample(t1=20.0)
        got = np.linalg.eigvalsh(traj.final_state)
        assert np.abs(got - dephasing_limit_spectrum()).max() <= 1e-6

    def test_hamiltonian_phases_do_not_shift_limit(self):
        traj = evolve_counterexample(t1=20.0, h_diag=[0.3, -0.4, 0.9])
        got = np.linalg.eigvalsh(traj.final_state)
        assert np.abs(got - dephasing_limit_spectrum()).max() <= 1e-6

    def test_bounds_monitor_flags_the_run(self):
        traj = evolve_counterexample(t1=5.0)
        violations = bounds_monitor(traj, FERMION)
        assert violations
        assert min(v for _, v in violations) < -0.05

    def test_positive_variant_crosses_zero_at_finite_time(self):
        # coupling 8/27 starts positive and loses positivity under dephasing
        traj = evolve_counterexample(t1=0.5, coupling=8.0 / 27.0, dt=1e-3, record_every=1)
        assert traj.min_eig[0] > 0
        t_cross = first_crossing_time(traj.times, traj.min_eig, 0.0)
        assert t_cross == pytest.approx(0.13884, abs=2e-3)  # regression baseline
        assert traj.min_eig[-1] < 0
        assert bounds_monitor(traj, FERMION)

    def test_gamma_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            appendix_d_scenario(gamma=0.0)


class TestDualityCheck:
    def test_matched_evolutions_stay_complementary(self):
        traj, hole_traj = two_state_pair()
        assert duality_check(traj, hole_traj) <= 1e-10

    def test_unitary_case(self):
        h = np.array([[0.0, 0.4], [0.4, 0.3]], dtype=complex)
        net = TransitionNetwork.computational(2, {})
        initial = DensityMatrix(np.diag([0.8, 0.1]), FERMION)
        spec = EvolutionSpec(
            rhs=NetworkFlow(h, net, FERMION),
            t0=0.0, t1=2.0, dt=1e-3, record_every=50,
        )
        traj = evolve(spec, initial)
        eye = np.eye(2, dtype=complex)
        hole_spec = EvolutionSpec(
            rhs=OperatorFlow(h, np.zeros((2, 2)), np.zeros((2, 2)), FERMION).hole(),
            t0=0.0, t1=2.0, dt=1e-3, record_every=50,
        )
        hole_traj = evolve(hole_spec, DensityMatrix(eye - initial.matrix, FERMION))
        assert duality_check(traj, hole_traj) <= 1e-12

    def test_swapped_operators_detected(self):
        traj, broken = two_state_pair(swap_ops=True)
        assert duality_check(traj, broken) > 1e-3

    def test_time_grid_mismatch_rejected(self):
        traj, hole_traj = two_state_pair(t1=3.0)
        other, _ = two_state_pair(t1=2.0)
        with pytest.raises(ValueError, match="time grids"):
            duality_check(traj, other)

    @pytest.mark.parametrize("case", ["one_short", "one_long", "shifted"])
    def test_mismatched_stream_rejected(self, case):
        traj, hole_traj = two_state_pair()
        hole = list(zip(hole_traj.times, hole_traj.states, hole_traj.herm_defect))
        if case == "one_short":
            hole = hole[:-1]
        elif case == "one_long":
            hole.append(hole[-1])
        else:
            hole = [(t + 1e-9, x, defect) for t, x, defect in hole]
        with pytest.raises(ValueError, match="time grids of the particle and hole trajectories do not match"):
            list(duality_residuals(traj, iter(hole)))

    def test_occupation_states_take_a_scalar_identity(self):
        # exact complements of 1-D states have no residual; an eye(d) broadcast
        # against them would report 1
        particle = Trajectory.from_states([0.0, 1.0], [np.array([0.25, 0.75]), np.array([0.5, 0.5])],
                                          [0.0, 0.0], FERMION)
        hole = [(0.0, np.array([0.75, 0.25]), 0.0), (1.0, np.array([0.5, 0.625]), 0.0)]
        assert list(duality_residuals(particle, iter(hole))) == [0.0, 0.125]


class TestLowDensitySlope:
    def test_random_instance(self):
        rng = np.random.default_rng(5)
        n = 4
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        h = 0.5 * (g + g.conj().T)
        rates = {(1, 0): 0.8, (2, 1): 0.5, (3, 2): 0.4, (0, 3): 0.6, (0, 2): 0.3}
        net = TransitionNetwork.computational(n, rates)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        sigma = (q * rng.uniform(0.1, 1.0, n)) @ q.conj().T
        sigma /= np.trace(sigma).real
        fit = low_density_slope(h, net, sigma, [1e-1, 1e-2, 1e-3, 1e-4])
        assert not fit.degenerate
        assert fit.slope == pytest.approx(2.0, abs=0.05)

    def test_single_transition(self):
        net = TransitionNetwork.computational(2, {(1, 0): 1.0})
        sigma = np.diag([0.6, 0.4]).astype(complex)
        fit = low_density_slope(np.zeros((2, 2)), net, sigma, [1e-1, 1e-2, 1e-3, 1e-4])
        assert fit.slope == pytest.approx(2.0, abs=0.05)

    def test_zero_rates_degenerate(self):
        net = TransitionNetwork.computational(2, {})
        sigma = np.diag([0.6, 0.4]).astype(complex)
        fit = low_density_slope(np.zeros((2, 2)), net, sigma, [1e-1, 1e-2, 1e-3])
        assert fit.degenerate
        assert fit.slope is None
        assert all(r == 0.0 for r in fit.residuals)


class TestBoundsMonitor:
    def test_valid_network_run_is_clean(self):
        net = TransitionNetwork.computational(2, {(1, 0): 1.0, (0, 1): 0.3})
        initial = DensityMatrix(np.diag([1.0, 0.0]), FERMION)
        spec = EvolutionSpec(
            rhs=NetworkFlow(np.zeros((2, 2)), net, FERMION),
            t0=0.0, t1=3.0, dt=1e-3, record_every=20,
        )
        assert bounds_monitor(evolve(spec, initial), FERMION) == []

    def test_static_state_clean(self):
        initial = DensityMatrix(np.diag([0.5, 0.5]), FERMION)
        spec = EvolutionSpec(rhs=lambda t, r: np.zeros_like(r), t0=0.0, t1=1.0, dt=0.1)
        assert bounds_monitor(evolve(spec, initial), FERMION) == []

    def test_fermion_overfill_flagged(self):
        from qme.integrator import Trajectory

        traj = Trajectory(
            times=np.array([0.0, 1.0]),
            states=[np.diag([1.1, 0.0]).astype(complex)] * 2,
            trace=np.array([1.1, 1.1]),
            min_eig=np.array([0.0, 0.0]),
            max_eig=np.array([1.1, 1.1]),
            herm_defect=np.zeros(2),
        )
        violations = bounds_monitor(traj, FERMION)
        assert len(violations) == 2
        assert bounds_monitor(traj, Statistics.BOSON) == []


class TestCrossingDetection:
    def test_interpolated_crossing(self):
        times = [0.0, 1.0, 2.0]
        values = [1.0, 0.5, -0.5]
        assert first_crossing_time(times, values) == pytest.approx(1.5)

    def test_none_when_always_positive(self):
        assert first_crossing_time([0, 1], [1.0, 0.5]) is None

    def test_none_when_starting_negative(self):
        assert first_crossing_time([0, 1], [-1.0, -2.0]) is None

    def test_level_parameter(self):
        assert first_crossing_time([0.0, 2.0], [1.0, 0.0], level=0.5) == pytest.approx(1.0)


class TestTrajectoryDiagnostics:
    def test_trace_drift_and_duality_on_the_snapshot_grid(self):
        traj, hole_traj = two_state_pair(t1=1.0, record_every=100)
        assert len(traj.trace) == len(traj.times)
        assert np.abs(traj.trace - traj.trace[0]).max() <= 1e-12
        assert duality_check(traj, hole_traj) <= 1e-10
