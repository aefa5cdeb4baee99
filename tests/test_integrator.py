import dataclasses
import warnings

import numpy as np
import pytest

from qme.dynamics import NetworkFlow, OperatorFlow, Statistics, TransitionNetwork
from qme.fock_oracle import FockModel, product_populations
from qme.integrator import (
    AFFINE_MAX_ENTRIES,
    MAX_SNAPSHOT_BYTES,
    MAX_STEPS,
    EvolutionSpec,
    IntegrationDivergedError,
    Trajectory,
    _rk4_raw,
    check_snapshot_budget,
    evolve,
    snapshots,
)
from qme.operators import DensityMatrix
from test_flows import build_flow, rand_homogeneous, rand_instance, rand_state

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_a_bad_value_in_one_stage_reaches_the_result(self, bad):
        # the flow sees no check between stages; the second stage's NaN or
        # Inf carries into the step's result, which is checked once
        calls = []

        def rhs(t, r):
            calls.append(t)
            return np.full_like(r, bad) if len(calls) == 2 else np.zeros_like(r)

        rho = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(IntegrationDivergedError, match="t = 0.5") as info:
            one_step(rho, rhs, 0.5, 0.1)
        assert len(calls) == 4
        assert info.value.t == 0.5

    def test_overflow_in_hermitization_diverges_without_a_warning(self):
        # every stage is 2.5e307, so the raw update is 1.5e308: finite, but
        # its hermitization 0.5 * (raw + raw^+) overflows
        rho = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(IntegrationDivergedError, match="t = 0"):
            one_step(rho, lambda t, r: np.full_like(r, 2.5e307), 0.0, 6.0)

    def test_a_population_past_half_the_float_limit_diverges(self):
        # each step adds 6 * 1.4e307: the first result (8.4e307) lies below
        # DBL_MAX/2, the second (1.68e308) above it, where hermitizing the
        # real vector, 0.5 * (raw + raw), overflows; the step diverges there
        spec = EvolutionSpec(rhs=lambda t, p: np.full_like(p, 1.4e307), t0=0.0, t1=18.0, dt=6.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationDivergedError, match="t = 6") as info:
                evolve(spec, np.array([0.5, 0.5]))
        assert info.value.t == 6.0

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

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="dt"):
            EvolutionSpec(rhs=lambda t, r: r, t0=0.0, t1=1.0, dt=-1.0)
        with pytest.raises(ValueError, match="t1"):
            EvolutionSpec(rhs=lambda t, r: r, t0=1.0, t1=0.5)
        with pytest.raises(ValueError, match="record_every"):
            EvolutionSpec(rhs=lambda t, r: r, t0=0.0, t1=1.0, record_every=0)

    def test_spec_is_frozen(self):
        # a step map is derived from dt once, and the window is checked once
        spec = EvolutionSpec(rhs=loss_rhs(), t0=0.0, t1=1.0, dt=0.1)
        for field, value in (("dt", -0.1), ("dt", 1e-12), ("t1", 0.0), ("rhs", None)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, field, value)
        assert spec.dt == 0.1 and spec.t1 == 1.0

    def test_record_every_is_bounded_by_the_step_limit(self):
        # no window takes more steps; a larger integer (10^400 is beyond the
        # float range) is refused before any arithmetic on it
        EvolutionSpec(rhs=lambda t, r: r, t0=0.0, t1=1.0, record_every=MAX_STEPS)
        with pytest.raises(ValueError, match=f"^record_every: must be at most {MAX_STEPS}"):
            EvolutionSpec(rhs=lambda t, r: r, t0=0.0, t1=1.0, record_every=10**400)

    @pytest.mark.parametrize("field", ["t0", "t1", "dt"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_spec_rejects_non_finite_times(self, field, value):
        window = {"t0": 0.0, "t1": 1.0, "dt": 1e-3, field: value}
        with pytest.raises(ValueError, match=f"^{field}: must be finite"):
            EvolutionSpec(rhs=lambda t, r: r, **window)

    @pytest.mark.parametrize(
        "t0, t1, dt",
        [(0.0, 1e300, 1e-10), (0.0, 1.0, 1e-300), (-1e308, 1e308, 1.0), (0.0, 2.0, 1e-7)],
        ids=["huge_window", "tiny_dt", "span_overflows", "just_over_the_limit"],
    )
    def test_spec_rejects_too_many_steps(self, t0, t1, dt):
        # evolve would die in int(inf) or run for years; the spec refuses first
        with pytest.raises(ValueError, match=r"^dt: the window takes "):
            EvolutionSpec(rhs=lambda t, r: r, t0=t0, t1=t1, dt=dt)

    def test_spec_accepts_the_step_limit(self):
        spec = EvolutionSpec(rhs=lambda t, r: r, t0=0.0, t1=1.0, dt=1.0 / MAX_STEPS)
        assert (spec.t1 - spec.t0) / spec.dt <= MAX_STEPS

    def test_snapshot_budget_boundary(self):
        # the start plus 63 recorded steps of a 1024 x 1024 complex state, or
        # plus 2^17 - 1 steps of 1024 float populations, fill the budget
        # exactly; one more snapshot, or a coarser record_every, decides
        matrix, populations = 1024 * 1024 * 16, 1024 * 8
        assert 64 * matrix == 2**17 * populations == MAX_SNAPSHOT_BYTES
        for steps, state_bytes in ((63, matrix), (2**17 - 1, populations)):
            check_snapshot_budget(steps, 1, state_bytes)
            check_snapshot_budget(2 * steps, 2, state_bytes)
            with pytest.raises(ValueError, match="more than"):
                check_snapshot_budget(steps + 1, 1, state_bytes)
            with pytest.raises(ValueError, match="more than"):
                check_snapshot_budget(2 * steps + 1, 2, state_bytes)

    def test_evolve_refuses_an_oversized_record_before_stepping(self):
        # 5e6 recorded steps of a 5 x 5 complex state (400 bytes) would be 2 GB;
        # nothing is stepped
        def never(t, rho):
            raise AssertionError("the flow must not be called")

        spec = EvolutionSpec(rhs=never, t0=0.0, t1=1.0, dt=2e-7, record_every=1)
        with pytest.raises(ValueError, match=r"recorded every 1 would store \d+ states of 400 bytes"):
            evolve(spec, DensityMatrix(np.eye(5) / 5, FERMION))

    def test_snapshot_grid(self):
        initial = DensityMatrix(np.diag([1.0, 0.0]), FERMION)
        spec = EvolutionSpec(rhs=loss_rhs(1.0), t0=0.0, t1=0.0255, dt=1e-3, record_every=10)
        traj = evolve(spec, initial)
        assert traj.times.tolist() == [0.0, 0.01, 0.02, 0.0255]
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

    def test_population_budget_counts_the_stored_vector(self):
        # 2^14 populations take 128 KB a snapshot, the D x D matrix they are
        # the diagonal of 4 GB: the budget counts what is stored
        p = np.full(2**14, 2.0**-14)
        spec = EvolutionSpec(rhs=lambda t, q: np.zeros_like(q), t0=0.0, t1=1.0, dt=0.25)
        assert len(evolve(spec, p)) == 5

        # 2^13 snapshots fill the budget, so 2^13 recorded steps exceed it
        def never(t, q):
            raise AssertionError("the flow must not be called")

        spec = EvolutionSpec(rhs=never, t0=0.0, t1=1.0, dt=2.0**-13)
        with pytest.raises(ValueError, match=r"would store 8193 states of 131072 bytes"):
            evolve(spec, p)


class TestSnapshots:
    """``evolve`` is ``snapshots`` collected into a Trajectory."""

    @pytest.mark.parametrize("start", ["matrix", "populations"])
    def test_evolve_collects_the_stream_bitwise(self, start):
        if start == "matrix":
            net = TransitionNetwork.computational(3, {(1, 0): 0.8, (2, 1): 0.5, (0, 2): 0.3})
            flow = NetworkFlow(np.diag([0.0, 0.7, 1.3]), net, FERMION)
            x = DensityMatrix(np.array([[0.6, 0.1j, 0.0], [-0.1j, 0.3, 0.05], [0.0, 0.05, 0.2]]),
                              FERMION)
        else:
            model = FockModel(FERMION, (0.0, 0.5), {(1, 0): 0.7, (0, 1): 0.2})
            flow, x = model.populations, product_populations(model, (0.8, 0.3))
        # a window that is not a multiple of dt ends on a partial step
        spec = EvolutionSpec(rhs=flow, t0=0.1, t1=0.537, dt=0.02, record_every=3)
        traj = evolve(spec, x)
        times, states, defects = zip(*snapshots(spec, x))
        assert times[-1] == 0.537
        assert np.array_equal(traj.times, np.array(times))
        assert np.array_equal(traj.herm_defect, np.array(defects))
        assert len(traj.states) == len(states)
        for a, b in zip(traj.states, states):
            assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)
        assert traj.statistics is (FERMION if start == "matrix" else None)

    def test_a_suspended_stream_leaves_the_error_state_alone(self):
        before = np.geterr()
        stream = snapshots(EvolutionSpec(rhs=loss_rhs(), t0=0.0, t1=1.0, dt=0.1), DensityMatrix(
            np.diag([0.5, 0.5]), FERMION))
        next(stream)
        next(stream)
        assert np.geterr() == before

    def test_wrong_initial_type_raises_at_the_call(self):
        spec = EvolutionSpec(rhs=loss_rhs(), t0=0.0, t1=1.0, dt=0.1)
        with pytest.raises(TypeError, match="DensityMatrix or a 1-D array"):
            snapshots(spec, np.eye(2))
        with pytest.raises(TypeError, match="DensityMatrix or a 1-D array"):
            snapshots(spec, [0.5, 0.5])

    def test_invalid_start_raises_at_the_call(self):
        spec = EvolutionSpec(rhs=loss_rhs(), t0=0.0, t1=1.0, dt=0.1)
        with pytest.raises(ValueError, match="negative entry"):
            snapshots(spec, np.array([1.5, -0.5]))
        bad = DensityMatrix(np.diag([0.5, 0.5]), FERMION)
        bad.matrix[0, 0] = -0.5  # corrupted after construction
        with pytest.raises(ValueError, match="not positive semidefinite"):
            snapshots(spec, bad)

    def test_over_budget_window_raises_at_the_call(self):
        def never(t, q):
            raise AssertionError("the flow must not be called")

        p = np.full(2**14, 2.0**-14)
        spec = EvolutionSpec(rhs=never, t0=0.0, t1=1.0, dt=2.0**-13)
        with pytest.raises(ValueError, match=r"would store 8193 states of 131072 bytes"):
            snapshots(spec, p)


# -- the RK4 map of an affine flow --------------------------------------------


#: equation, statistics and basis of each matrix flow that steps by its RK4
#: map, as ``test_flows.build_flow`` builds it
AFFINE_EQUATIONS = {
    "general_linear": ("general", None, "computational"),
    "general_fermion": ("general", FERMION, "computational"),
    "general_boson": ("general", BOSON, "computational"),
    "general_hole": ("general", FERMION, "computational"),
    "markoff": ("markoff", None, "computational"),
    "markoff_rotated": ("markoff", None, "rotated"),
    "lindblad": ("lindblad", None, "computational"),
}


def affine_case(kind):
    """(flow, start) for each kind of flow that steps by its RK4 map."""
    rng = np.random.default_rng(sum(map(ord, kind)))
    if kind in AFFINE_EQUATIONS:
        equation, stats, basis = AFFINE_EQUATIONS[kind]
        inst = rand_instance(rng, 3, stats, basis)
        flow = build_flow(equation, stats, inst)
        flow = flow.hole() if kind == "general_hole" else flow
        return flow, DensityMatrix(inst["rho"], stats or BOSON)
    if kind == "occupations":
        flow, n = rand_homogeneous(rng, 4, None)
        return flow.occupation_flow(), n
    if kind == "populations":
        model = FockModel(BOSON, (0.0, 0.6, 1.1), {(1, 0): 0.7, (0, 1): 0.3, (2, 1): 0.5},
                          boson_cutoff=2)
        return model.populations, rng.dirichlet(np.ones(model.fock_dim))
    assert kind == "fock"
    model = FockModel(FERMION, (0.0, 0.5), {(1, 0): 0.7, (0, 1): 0.2})
    return model.flow, DensityMatrix(rand_state(rng, model.fock_dim, FERMION) / model.fock_dim,
                                     FERMION)


AFFINE_KINDS = [*AFFINE_EQUATIONS, "occupations", "populations", "fock"]


def _start(x):
    return x.matrix.copy() if isinstance(x, DensityMatrix) else x.astype(float)


def rk4_reference(flow, x, t0, t1, dt):
    """The plain RK4 loop of ``snapshots``: ``_rk4_raw`` and hermitization on
    every step, full steps then a final partial one."""
    rho = _start(x)
    n_full = int(np.floor((t1 - t0) / dt + 1e-9))
    remainder = (t1 - t0) - n_full * dt
    sizes = [dt] * n_full + ([remainder] if remainder >= 1e-12 * dt else [])
    t = t0
    for k, h in enumerate(sizes, 1):
        raw = _rk4_raw(rho, flow, t, h)
        rho = 0.5 * (raw + raw.conj().T)
        t = t0 + k * dt
    return rho


class Counting:
    """A flow that counts its calls and declares what the wrapped one does."""

    def __init__(self, flow):
        self.flow, self.calls = flow, 0

    @property
    def affine(self):
        return self.flow.affine

    def __call__(self, t, rho):
        self.calls += 1
        return self.flow(t, rho)


def _entries(x) -> int:
    m = _start(x)
    return m.size * (2 if np.iscomplexobj(m) else 1)


class TestAffineMap:
    """An affine flow is stepped by x + (K x + b), K and b built for each step
    size from one probe of n + 1 flow calls; any other flow keeps four calls
    a step."""

    @pytest.mark.parametrize("kind", AFFINE_KINDS)
    @pytest.mark.parametrize("t1", [0.05, 0.13], ids=["one_step", "partial_step"])
    def test_a_short_window_is_the_rk4_step(self, kind, t1):
        flow, x = affine_case(kind)
        assert flow.affine is True and _entries(x) <= AFFINE_MAX_ENTRIES
        spec = EvolutionSpec(rhs=Counting(flow), t0=0.2, t1=0.2 + t1, dt=0.05)
        got = evolve(spec, x).final_state
        want = rk4_reference(flow, x, 0.2, 0.2 + t1, 0.05)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
        # one probe, whose (L, c) builds the map of each step size: a full
        # one, then (t1 = 0.13) a partial one
        assert spec.rhs.calls == _entries(x) + 1

    @pytest.mark.parametrize("kind", AFFINE_KINDS)
    def test_a_long_window_stays_on_the_rk4_run(self, kind):
        flow, x = affine_case(kind)
        spec = EvolutionSpec(rhs=Counting(flow), t0=0.0, t1=1.0, dt=1e-3, record_every=250)
        traj = evolve(spec, x)
        assert spec.rhs.calls == _entries(x) + 1
        want = rk4_reference(flow, x, 0.0, 1.0, 1e-3)
        assert np.abs(traj.final_state - want).max() <= 1e-12 * np.abs(want).max()
        rerun = evolve(spec, x)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(traj.states, rerun.states))
        assert np.array_equal(traj.herm_defect, rerun.herm_defect)

    @pytest.mark.parametrize("kind", ["bare_callable", "above_the_cap", "nonlinear_master",
                                      "nonlinear_master_hole", "generalized_jumps",
                                      "generalized_jumps_hole", "paired_occupations"])
    def test_other_flows_take_four_calls_a_step(self, kind):
        rng = np.random.default_rng(3)
        if kind == "bare_callable":
            flow, x = affine_case("markoff")
        elif kind == "above_the_cap":
            # 12 x 12 complex: 288 float-view entries
            inst = rand_instance(rng, 12, None, "computational")
            flow, x = build_flow("general", None, inst), DensityMatrix(inst["rho"], BOSON)
            assert flow.affine and _entries(x) > AFFINE_MAX_ENTRIES
        elif kind == "paired_occupations":
            particle, n = rand_homogeneous(rng, 3, FERMION)
            flow, x = particle.occupation_flow().paired(), np.concatenate((n, 1.0 - n))
        else:
            inst = rand_instance(rng, 3, FERMION, "computational")
            flow = build_flow(kind.removesuffix("_hole"), FERMION, inst)
            flow = flow.hole() if kind.endswith("_hole") else flow
            x = DensityMatrix(inst["rho"], FERMION)
        assert kind == "bare_callable" or flow.affine == (kind == "above_the_cap")
        counting = Counting(flow)
        # a plain function has no affine attribute
        rhs = (lambda t, r: counting(t, r)) if kind == "bare_callable" else counting
        spec = EvolutionSpec(rhs=rhs, t0=0.0, t1=0.13, dt=0.05)
        traj = evolve(spec, x)
        assert counting.calls == 4 * 3
        # and each step is the plain RK4 step, bit for bit
        assert traj.final_state.tobytes() == rk4_reference(flow, x, 0.0, 0.13, 0.05).tobytes()

    def test_a_map_that_overflows_is_not_used(self):
        # (h L)^2 overflows, but the loss acts on an empty orbital, so every
        # RK4 stage is finite: the window runs the plain steps, bit for bit
        flow = OperatorFlow(np.zeros((2, 2)), np.diag([-1e160, 0.0]), np.zeros((2, 2)), None)
        x = DensityMatrix(np.diag([0.0, 1.0]), BOSON)
        spec = EvolutionSpec(rhs=Counting(flow), t0=0.0, t1=0.5, dt=0.1)
        traj = evolve(spec, x)
        assert spec.rhs.calls == (8 + 1) + 4 * 5
        assert traj.final_state.tobytes() == rk4_reference(flow, x, 0.0, 0.5, 0.1).tobytes()

    def test_a_diverging_mapped_run_names_the_step(self):
        # a finite map whose product overflows on the second step
        flow = OperatorFlow(np.zeros((2, 2)), np.diag([1e75, 0.0]), np.zeros((2, 2)), None)
        spec = EvolutionSpec(rhs=Counting(flow), t0=0.0, t1=1.0, dt=0.1)
        with pytest.raises(IntegrationDivergedError, match="t = 0.1") as info:
            evolve(spec, DensityMatrix(np.diag([1.0, 0.0]), BOSON))
        assert info.value.t == 0.1
        assert spec.rhs.calls == 8 + 1
