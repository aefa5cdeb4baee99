import numpy as np
import pytest

from qme.dynamics import NetworkFlow, OperatorFlow, Statistics, TransitionNetwork
from qme.integrator import (
    MAX_SNAPSHOT_BYTES,
    MAX_STEPS,
    EvolutionSpec,
    IntegrationDivergedError,
    Trajectory,
    check_snapshot_budget,
    evolve,
)
from qme.operators import DensityMatrix

FERMION = Statistics.FERMION
BOSON = Statistics.BOSON


def loss_rhs(gamma=1.0):
    """Exponential decay of orbital 0: n(t) = n(0) exp(-gamma t)."""
    p = np.zeros((2, 2), dtype=complex)
    p[0, 0] = 1.0
    a = -0.5 * gamma * p
    return OperatorFlow(np.zeros((2, 2)), a, np.zeros((2, 2)), None)


def fermion_gain_rhs(gamma_p=1.0):
    """n(t) = 1 - (1 - n0) exp(-gamma' t) on orbital 0."""
    p = np.zeros((2, 2), dtype=complex)
    p[0, 0] = 1.0
    gain = -0.5 * gamma_p * p
    z = np.zeros((2, 2))
    return OperatorFlow(z, z, gain, FERMION)


def boson_gain_rhs(gamma=1.0):
    """n(t) = (1 + n0) exp(gamma t) - 1 on orbital 0."""
    p = np.zeros((2, 2), dtype=complex)
    p[0, 0] = 1.0
    gain = -0.5 * gamma * p
    z = np.zeros((2, 2))
    return OperatorFlow(z, z, gain, BOSON)


def one_step(rho, rhs, t, dt, stats=FERMION):
    """The hermitized RK4 update of ``rho`` from t to t + dt: a one-step
    evolve window."""
    spec = EvolutionSpec(rhs=rhs, t0=t, t1=t + dt, dt=dt)
    return evolve(spec, DensityMatrix(rho, stats)).final_state


class TestStepRK4:
    """Single RK4 steps, each taken as a one-step evolve window."""

    def test_zero_rhs_is_identity(self):
        rho = np.diag([0.4, 0.6]).astype(complex)
        out = one_step(rho, lambda t, r: np.zeros_like(r), 0.0, 0.1)
        assert np.array_equal(out, rho)

    def test_pure_loss_matches_analytic(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        rhs = loss_rhs(1.0)
        t = 0.0
        for _ in range(1000):
            rho = one_step(rho, rhs, t, 1e-3)
            t += 1e-3
        assert abs(rho[0, 0].real - np.exp(-1.0)) <= 1e-10

    def test_local_error_drops_sixteenfold_when_halving(self):
        # Richardson check on the boson-gain problem
        rho = np.diag([0.5, 0.0]).astype(complex)
        rhs = boson_gain_rhs(1.0)
        exact = lambda t: (1 + 0.5) * np.exp(t) - 1

        def one_step_error(dt):
            out = one_step(rho, rhs, 0.0, dt, BOSON)
            return abs(out[0, 0].real - exact(dt))

        ratio = one_step_error(0.1) / one_step_error(0.05)
        assert 24 <= ratio <= 40  # local truncation is O(dt^5): ratio ~ 32

    def test_divergence_names_the_time(self):
        rho = np.ones((2, 2), dtype=complex)
        with pytest.raises(IntegrationDivergedError, match="t = 0.25") as info:
            one_step(rho, lambda t, r: 1e200 * r, 0.25, 1.0, BOSON)
        assert info.value.t == 0.25


class TestEvolve:
    def test_fermion_gain_law(self):
        initial = DensityMatrix(np.zeros((2, 2)), FERMION)
        spec = EvolutionSpec(rhs=fermion_gain_rhs(1.0), t0=0.0, t1=5.0, dt=1e-3, record_every=100)
        traj = evolve(spec, initial)
        exact = 1.0 - np.exp(-traj.times)
        got = np.array([m[0, 0].real for m in traj.states])
        assert np.abs(got - exact).max() <= 1e-8

    def test_boson_gain_law_relative(self):
        initial = DensityMatrix(np.zeros((2, 2)), BOSON)
        spec = EvolutionSpec(rhs=boson_gain_rhs(1.0), t0=0.0, t1=2.0, dt=1e-3, record_every=100)
        traj = evolve(spec, initial)
        got = np.array([m[0, 0].real for m in traj.states[1:]])
        exact = np.exp(traj.times[1:]) - 1.0
        assert (np.abs(got - exact) / exact).max() <= 1e-8

    @pytest.mark.parametrize(
        "stats,closed_form",
        [
            (FERMION, lambda t: 1.0 - 1.0 / (1.0 + t)),
            (BOSON, np.tanh),
        ],
    )
    def test_two_state_transfer(self, stats, closed_form):
        net = TransitionNetwork.computational(2, {(1, 0): 1.0})
        h = np.zeros((2, 2))
        initial = DensityMatrix(np.diag([1.0, 0.0]), stats)
        spec = EvolutionSpec(
            rhs=NetworkFlow(h, net, stats),
            t0=0.0,
            t1=3.0,
            dt=1e-3,
            record_every=100,
        )
        traj = evolve(spec, initial)
        got = np.array([m[1, 1].real for m in traj.states])
        assert np.abs(got - closed_form(traj.times)).max() <= 1e-8

    def test_global_order_four(self):
        initial = DensityMatrix(np.diag([1.0, 0.0]), FERMION)
        errors = []
        dts = [0.02, 0.01, 0.005, 0.0025]
        for dt in dts:
            spec = EvolutionSpec(rhs=loss_rhs(1.0), t0=0.0, t1=1.0, dt=dt, record_every=10**6)
            traj = evolve(spec, initial)
            errors.append(abs(traj.final_state[0, 0].real - np.exp(-1.0)))
        slope = np.polyfit(np.log(dts), np.log(errors), 1)[0]
        assert slope == pytest.approx(4.0, abs=0.1)

    def test_lands_exactly_on_t1(self):
        initial = DensityMatrix(np.diag([1.0, 0.0]), FERMION)
        spec = EvolutionSpec(rhs=loss_rhs(1.0), t0=0.0, t1=0.0105, dt=1e-3)
        traj = evolve(spec, initial)
        assert traj.times[-1] == 0.0105
        assert abs(traj.final_state[0, 0].real - np.exp(-0.0105)) < 1e-12

    def test_record_every_thins_snapshots(self):
        initial = DensityMatrix(np.diag([1.0, 0.0]), FERMION)
        spec = EvolutionSpec(rhs=loss_rhs(1.0), t0=0.0, t1=0.1, dt=1e-3, record_every=10)
        traj = evolve(spec, initial)
        assert len(traj) == 11  # initial snapshot + 10 recorded steps
        assert np.allclose(np.diff(traj.times), 0.01)

    def test_trace_conserved_along_network_run(self):
        net = TransitionNetwork.computational(3, {(1, 0): 1.0, (2, 1): 0.5, (0, 2): 0.25})
        h = np.diag([0.0, 0.3, 0.7]).astype(complex)
        initial = DensityMatrix(np.diag([1.0, 0.5, 0.0]), FERMION)
        spec = EvolutionSpec(
            rhs=NetworkFlow(h, net, FERMION),
            t0=0.0, t1=2.0, dt=1e-3, record_every=50,
        )
        traj = evolve(spec, initial)
        duration_steps = 2.0 / 1e-3
        assert np.abs(traj.trace - traj.trace[0]).max() <= 1e-10 * duration_steps * 3

    def test_hermitize_is_hygiene_not_correction(self):
        net = TransitionNetwork.computational(2, {(1, 0): 1.0})
        initial = DensityMatrix(np.diag([1.0, 0.0]), FERMION)
        spec = EvolutionSpec(
            rhs=NetworkFlow(np.zeros((2, 2)), net, FERMION),
            t0=0.0, t1=1.0, dt=1e-3,
        )
        traj = evolve(spec, initial)
        # defect of the raw update, i.e. how much the symmetrization moves the state
        assert traj.herm_defect.max() <= 1e-12

    def test_invalid_initial_rejected_before_stepping(self):
        initial = DensityMatrix(np.diag([1.0, 0.0]), FERMION)
        initial.matrix[1, 1] = -0.5  # break the invariant after construction
        calls = []

        def rhs(t, r):
            calls.append(t)
            return np.zeros_like(r)

        spec = EvolutionSpec(rhs=rhs, t0=0.0, t1=1.0, dt=0.1)
        with pytest.raises(ValueError, match="positive semidefinite"):
            evolve(spec, initial)
        assert not calls

    def test_requires_density_matrix_type(self):
        spec = EvolutionSpec(rhs=lambda t, r: r, t0=0.0, t1=1.0)
        with pytest.raises(TypeError):
            evolve(spec, np.eye(2))

    def test_divergence_propagates(self):
        initial = DensityMatrix(np.diag([1.0, 0.0]), BOSON)
        spec = EvolutionSpec(rhs=lambda t, r: 1e200 * r, t0=0.0, t1=1.0, dt=0.5)
        with pytest.raises(IntegrationDivergedError):
            evolve(spec, initial)

    def test_step_halving_improves_coarse_grid(self):
        initial = DensityMatrix(np.diag([1.0, 0.0]), FERMION)
        coarse = EvolutionSpec(rhs=loss_rhs(4.0), t0=0.0, t1=1.0, dt=0.25)
        controlled = EvolutionSpec(
            rhs=loss_rhs(4.0), t0=0.0, t1=1.0, dt=0.25, error_tol=1e-10, record_every=10**6
        )
        err_coarse = abs(evolve(coarse, initial).final_state[0, 0].real - np.exp(-4.0))
        err_controlled = abs(evolve(controlled, initial).final_state[0, 0].real - np.exp(-4.0))
        assert err_controlled < err_coarse / 100

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="dt"):
            EvolutionSpec(rhs=lambda t, r: r, t0=0.0, t1=1.0, dt=-1.0)
        with pytest.raises(ValueError, match="t1"):
            EvolutionSpec(rhs=lambda t, r: r, t0=1.0, t1=0.5)
        with pytest.raises(ValueError, match="record_every"):
            EvolutionSpec(rhs=lambda t, r: r, t0=0.0, t1=1.0, record_every=0)

    @pytest.mark.parametrize("field", ["t0", "t1", "dt"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_spec_rejects_non_finite_times(self, field, value):
        window = {"t0": 0.0, "t1": 1.0, "dt": 1e-3, field: value}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            EvolutionSpec(rhs=lambda t, r: r, **window)

    @pytest.mark.parametrize(
        "t0, t1, dt",
        [(0.0, 1e300, 1e-10), (0.0, 1.0, 1e-300), (-1e308, 1e308, 1.0), (0.0, 2.0, 1e-7)],
        ids=["huge_window", "tiny_dt", "span_overflows", "just_over_the_limit"],
    )
    def test_spec_rejects_too_many_steps(self, t0, t1, dt):
        # evolve would die in int(inf) or run for years; the spec refuses first
        with pytest.raises(ValueError, match=r"^dt \("):
            EvolutionSpec(rhs=lambda t, r: r, t0=t0, t1=t1, dt=dt)

    def test_spec_accepts_the_step_limit(self):
        spec = EvolutionSpec(rhs=lambda t, r: r, t0=0.0, t1=1.0, dt=1.0 / MAX_STEPS)
        assert (spec.t1 - spec.t0) / spec.dt <= MAX_STEPS

    def test_snapshot_budget_boundary(self):
        # the start plus 63 recorded steps of a 1024 x 1024 state fill the
        # budget exactly; one more snapshot, or a coarser record_every, decides
        assert 64 * 1024 * 1024 * 16 == MAX_SNAPSHOT_BYTES
        check_snapshot_budget(63, 1, 1024)
        check_snapshot_budget(126, 2, 1024)
        with pytest.raises(ValueError, match="more than"):
            check_snapshot_budget(64, 1, 1024)
        with pytest.raises(ValueError, match="more than"):
            check_snapshot_budget(127, 2, 1024)

    def test_evolve_refuses_an_oversized_record_before_stepping(self):
        # 5e6 recorded steps of a 5 x 5 state would be 2 GB; nothing is stepped
        def never(t, rho):
            raise AssertionError("the flow must not be called")

        spec = EvolutionSpec(rhs=never, t0=0.0, t1=1.0, dt=2e-7, record_every=1)
        with pytest.raises(ValueError, match=r"recorded every 1 would store .* 5x5 states"):
            evolve(spec, DensityMatrix(np.eye(5) / 5, FERMION))

    @pytest.mark.parametrize(
        "error_tol,expected",
        [
            (None, [0.0, 0.01, 0.02, 0.0255]),
            # controlled steps accumulate t += dt, so the grid carries roundoff
            (1e-10, [0.0, 0.010000000000000002, 0.02000000000000001, 0.0255]),
        ],
    )
    def test_snapshot_grid(self, error_tol, expected):
        initial = DensityMatrix(np.diag([1.0, 0.0]), FERMION)
        spec = EvolutionSpec(rhs=loss_rhs(1.0), t0=0.0, t1=0.0255, dt=1e-3, record_every=10,
                             error_tol=error_tol)
        traj = evolve(spec, initial)
        assert traj.times.tolist() == expected
        for column in (traj.trace, traj.min_eig, traj.max_eig, traj.herm_defect, traj.states):
            assert len(column) == len(traj.times)

    def test_from_states_reproduces_evolve_diagnostics(self):
        net = TransitionNetwork.computational(3, {(1, 0): 1.0, (2, 1): 0.5, (0, 2): 0.25})
        h = np.array([[0.0, 0.2, 0.0], [0.2, 0.3, 0.1], [0.0, 0.1, 0.7]], dtype=complex)
        initial = DensityMatrix(np.diag([0.9, 0.4, 0.1]), FERMION)
        spec = EvolutionSpec(
            rhs=NetworkFlow(h, net, FERMION),
            t0=0.0, t1=0.5, dt=1e-3, record_every=50,
        )
        traj = evolve(spec, initial)
        rebuilt = Trajectory.from_states(traj.times, traj.states, traj.herm_defect, FERMION)
        for column in ("times", "trace", "min_eig", "max_eig", "herm_defect"):
            assert np.array_equal(getattr(rebuilt, column), getattr(traj, column)), column
        assert rebuilt.statistics is traj.statistics is FERMION


class TestLazyDiagnostics:
    def test_from_states_derives_diagnostics_on_first_read(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
        states = [np.diag([0.75, 0.25]).astype(complex), np.array([[0.5, 0.5j], [-0.5j, 0.5]])]
        traj = Trajectory.from_states([0.0, 1.0], states, [0.0, 0.0], FERMION)
        assert not calls
        assert traj.trace.tolist() == [1.0, 1.0]
        assert not calls
        assert traj.min_eig == pytest.approx([0.25, 0.0], abs=1e-15)
        assert traj.max_eig == pytest.approx([0.75, 1.0], abs=1e-15)
        assert len(calls) == 2  # one eigvalsh per snapshot, shared by min_eig and max_eig

    def test_given_diagnostics_are_kept(self):
        traj = Trajectory(times=np.array([0.0]), states=[np.eye(2)], herm_defect=np.zeros(1),
                          trace=np.array([7.0]), min_eig=np.array([-3.0]), max_eig=np.array([9.0]))
        assert (traj.trace[0], traj.min_eig[0], traj.max_eig[0]) == (7.0, -3.0, 9.0)
        assert traj.statistics is None

    def test_populations_are_the_diagonal_of_a_diagonal_state(self):
        populations = [np.array([0.5, 0.125, 0.375]), np.array([0.0, 0.25, 0.75])]
        traj = Trajectory.from_states([0.0, 1.0], populations, [0.0, 0.0], None)
        matrices = Trajectory.from_states([0.0, 1.0], [np.diag(p) for p in populations],
                                          [0.0, 0.0], None)
        for column in ("trace", "min_eig", "max_eig"):
            assert np.array_equal(getattr(traj, column), getattr(matrices, column)), column


class TestPopulationEvolve:
    """A 1-D start is the diagonal of a diagonal density matrix."""

    @staticmethod
    def _rates():
        # a two-level classical master equation: 0 -> 1 at rate 1, 1 -> 0 at 0.5
        w = np.array([[-1.0, 0.5], [1.0, -0.5]])
        return lambda t, p: w @ p

    def test_matches_the_diagonal_matrix_run(self):
        spec = EvolutionSpec(rhs=self._rates(), t0=0.0, t1=1.0, dt=1e-2, record_every=10)
        traj = evolve(spec, np.array([1.0, 0.0]))
        matrix_spec = EvolutionSpec(rhs=lambda t, r: np.diag(self._rates()(t, np.diag(r))),
                                    t0=0.0, t1=1.0, dt=1e-2, record_every=10)
        reference = evolve(matrix_spec, DensityMatrix(np.diag([1.0, 0.0]), BOSON))
        assert np.array_equal(traj.times, reference.times)
        for p, m in zip(traj.states, reference.states):
            assert p.shape == (2,)
            assert np.abs(p - np.diag(m).real).max() <= 1e-15
        assert traj.statistics is None
        assert not np.any(traj.herm_defect)
        # p(t) -> (1/3, 2/3) with rate 1.5: p0 = 1/3 + (2/3) exp(-1.5 t)
        assert traj.states[-1][0] == pytest.approx(1 / 3 + 2 / 3 * np.exp(-1.5), abs=1e-9)
        assert np.abs(traj.trace - 1.0).max() <= 1e-15

    def test_start_is_copied(self):
        p0 = np.array([1.0, 0.0])
        evolve(EvolutionSpec(rhs=self._rates(), t0=0.0, t1=0.1, dt=1e-2), p0)
        assert p0.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize(
        "p,error,message",
        [
            (np.array([1.0, np.nan]), ValueError, "finite"),
            (np.array([1.5, -0.5]), ValueError, "negative entry"),
            (np.array([1.0, 0.0j]), TypeError, "real"),
        ],
        ids=["nan", "negative", "complex"],
    )
    def test_invalid_populations_rejected_before_stepping(self, p, error, message):
        calls = []
        spec = EvolutionSpec(rhs=lambda t, q: calls.append(t) or np.zeros_like(q), t0=0.0, t1=1.0)
        with pytest.raises(error, match=message):
            evolve(spec, p)
        assert not calls

    def test_population_budget_counts_the_matrix(self):
        # a 1-D state is budgeted as the D x D matrix it stands for
        spec = EvolutionSpec(rhs=lambda t, q: q, t0=0.0, t1=1.0, dt=1e-6, record_every=1)
        with pytest.raises(ValueError, match="bytes"):
            evolve(spec, np.ones(16) / 16)
