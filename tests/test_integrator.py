import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from hypothesis import given, settings
from hypothesis import strategies as st

from qme.dynamics import FlowPair, JumpFlow, NetworkFlow, OperatorFlow, Statistics, TransitionNetwork
from qme.fock_oracle import FockModel, product_populations
from qme.integrator import (
    AFFINE_MAX_ENTRIES,
    MAX_SNAPSHOT_BYTES,
    MAX_STEPS,
    EvolutionSpec,
    IntegrationDivergedError,
    Trajectory,
    _packed,
    _rk4_raw,
    _unpacked,
    check_snapshot_budget,
    evolve,
    snapshots,
    spectrum,
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


def rk4_only(flow):
    """``flow`` as a plain callable: it has no ``affine`` attribute, so a run
    takes RK4 steps of dt under it rather than the exact map."""
    return lambda t, rho: flow(t, rho)


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
        rhs = rk4_only(boson_gain_rhs(1.0))
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
            spec = EvolutionSpec(rhs=rk4_only(loss_rhs(1.0)), t0=0.0, t1=1.0, dt=dt,
                                 record_every=10**6)
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
        # the invariant cannot be broken after construction: the start evolve
        # takes is the one that was checked
        initial = DensityMatrix(np.diag([1.0, 0.0]), FERMION)
        with pytest.raises(ValueError, match="read-only"):
            initial.matrix[1, 1] = -0.5
        calls = []

        def rhs(t, r):
            calls.append(t)
            return np.zeros_like(r)

        spec = EvolutionSpec(rhs=rhs, t0=0.0, t1=1.0, dt=0.1)
        with pytest.raises(ValueError, match="negative entry"):
            evolve(spec, np.array([1.5, -0.5]))
        assert not calls
        assert evolve(spec, initial).states[0].tobytes() == initial.matrix.tobytes()

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

    def test_constructor_reproduces_evolve_diagnostics(self):
        net = TransitionNetwork.computational(3, {(1, 0): 1.0, (2, 1): 0.5, (0, 2): 0.25})
        h = np.array([[0.0, 0.2, 0.0], [0.2, 0.3, 0.1], [0.0, 0.1, 0.7]], dtype=complex)
        initial = DensityMatrix(np.diag([0.9, 0.4, 0.1]), FERMION)
        spec = EvolutionSpec(
            rhs=NetworkFlow(h, net, FERMION),
            t0=0.0, t1=0.5, dt=1e-3, record_every=50,
        )
        traj = evolve(spec, initial)
        rebuilt = Trajectory(traj)
        for column in ("times", "trace", "min_eig", "max_eig", "herm_defect"):
            assert np.array_equal(getattr(rebuilt, column), getattr(traj, column)), column

    def test_iterates_as_its_snapshots_stream(self):
        # the same (t, state, herm_defect) triples as the generator it was kept from
        net = TransitionNetwork.computational(2, {(1, 0): 1.0})
        spec = EvolutionSpec(rhs=NetworkFlow(np.diag([0.0, 0.4]).astype(complex), net, FERMION),
                             t0=0.0, t1=0.2, dt=1e-2, record_every=5)
        initial = DensityMatrix(np.diag([0.9, 0.1]), FERMION)
        streamed = list(snapshots(spec, initial))
        kept = list(evolve(spec, initial))
        assert len(kept) == len(streamed) == 5
        for (t, rho, defect), (t_s, rho_s, defect_s) in zip(kept, streamed):
            assert (t, defect) == (t_s, defect_s) and np.array_equal(rho, rho_s)


class TestTrajectoryDiagnostics:
    def test_diagnostics_are_taken_as_each_state_arrives(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
        states = [np.diag([0.75, 0.25]).astype(complex), np.array([[0.5, 0.5j], [-0.5j, 0.5]])]
        seen = []

        def stream():
            for t, m in enumerate(states):
                yield float(t), m, 0.0
                # the state is read before the next one is asked for
                seen.append(len(calls))

        traj = Trajectory(stream())
        assert seen == [1, 2]
        assert traj.trace.tolist() == [1.0, 1.0]
        assert traj.min_eig == pytest.approx([0.25, 0.0], abs=1e-15)
        assert traj.max_eig == pytest.approx([0.75, 1.0], abs=1e-15)
        assert len(calls) == 2  # one eigvalsh per snapshot, shared by min_eig and max_eig

    def test_constructor_converts_to_arrays(self):
        states = (np.eye(2), np.zeros((2, 2)))
        traj = Trajectory(zip((0, 1), states, (0.0, 0.5)))
        for column in (traj.times, traj.trace, traj.min_eig, traj.max_eig, traj.herm_defect):
            assert isinstance(column, np.ndarray) and column.dtype == float and column.shape == (2,)
        assert traj.times.tolist() == [0.0, 1.0] and traj.herm_defect.tolist() == [0.0, 0.5]
        # a real matrix is kept as given, and each read is a fresh copy of it
        first = traj.states[0]
        assert first is not states[0] and first is not traj.states[0]
        assert first.dtype == states[0].dtype and first.tobytes() == states[0].tobytes()

    def test_populations_are_the_diagonal_of_a_diagonal_state(self):
        populations = [np.array([0.5, 0.125, 0.375]), np.array([0.0, 0.25, 0.75])]
        traj = Trajectory(zip([0.0, 1.0], populations, [0.0, 0.0]))
        matrices = Trajectory(zip([0.0, 1.0], [np.diag(p) for p in populations], [0.0, 0.0]))
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
        start = DensityMatrix(np.diag([0.5, 0.5]), FERMION)
        with pytest.raises(ValueError, match="read-only"):
            start.matrix[0, 0] = -0.5
        with pytest.raises(ValueError, match="not positive semidefinite"):
            DensityMatrix(np.diag([-0.5, 0.5]), FERMION)

    def test_over_budget_window_raises_at_the_call(self):
        def never(t, q):
            raise AssertionError("the flow must not be called")

        p = np.full(2**14, 2.0**-14)
        spec = EvolutionSpec(rhs=never, t0=0.0, t1=1.0, dt=2.0**-13)
        with pytest.raises(ValueError, match=r"would store 8193 states of 131072 bytes"):
            snapshots(spec, p)


# -- the exact map of an affine flow -------------------------------------------


#: equation, statistics and basis of each matrix flow that crosses its
#: snapshot intervals by its exact map, as ``test_flows.build_flow`` builds it
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
    """(flow, start) for each kind of flow that crosses its snapshot intervals
    by its exact map."""
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
                          sectors=(0, 1, 2))
        return model.populations, rng.dirichlet(np.ones(model.dim))
    assert kind == "fock"
    model = FockModel(FERMION, (0.0, 0.5), {(1, 0): 0.7, (0, 1): 0.2})
    return model.flow, DensityMatrix(rand_state(rng, model.dim, FERMION) / model.dim,
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


def generator(flow, x):
    """M = [[L, c], [0, 0]] of the affine ``flow`` on the float view of states
    like ``x``, probed here on the unit vectors, apart from the integrator."""
    like = _start(x)
    n = _entries(x)

    def f(v):
        return np.asarray(flow(0.0, v.view(like.dtype).reshape(like.shape))).reshape(-1).view(float)

    m = np.zeros((n + 1, n + 1))
    m[:n, n] = f(np.zeros(n))
    for k, unit in enumerate(np.eye(n)):
        m[:n, k] = f(unit) - m[:n, n]
    return m


def exact(m, x, tau):
    """(exp(tau M) applied to (x, 1), max(1, ||exp(tau M)||_1)) by scipy's expm.
    Past ||tau M||_1 = 2^10, where expm's own norm estimates overflow at
    huge rates, it is expm at 2^-k tau M squared k times."""
    like = _start(x)
    k = max(0, math.ceil(math.log2(max(np.abs(tau * m).sum(axis=0).max(), 1.0))) - 10)
    e = expm(np.ldexp(tau * m, -k))
    for _ in range(k):
        e = e @ e
    state = (e @ np.append(like.reshape(-1).view(float), 1.0))[:-1]
    return state.view(like.dtype).reshape(like.shape), max(1.0, np.abs(e).sum(axis=0).max())


class Affine:
    """x' = L x + c on a real vector."""

    affine = True

    def __init__(self, lin, c):
        self.lin, self.c = lin, c

    def __call__(self, t, x):
        return self.lin @ x + self.c


def random_affine(rng, family, n, scale):
    """(L, c) of one family, scaled so that ||L||_1 = ``scale``: ``gaussian``
    entries (growing and decaying modes), ``stable`` (eigenvalues -1 down to
    -1e3 on random, non-orthogonal eigenvectors: stiff and non-normal), or a
    classical ``master`` equation (nonnegative rates, columns summing to zero)
    with a source."""
    if family == "gaussian":
        lin = rng.standard_normal((n, n))
    elif family == "stable":
        q = rng.standard_normal((n, n)) + 3.0 * np.eye(n)
        lin = (q * -np.logspace(0.0, 3.0, n)) @ np.linalg.inv(q)
    else:
        lin = rng.uniform(0.0, 1.0, (n, n))
        np.fill_diagonal(lin, 0.0)
        lin -= np.diag(lin.sum(axis=0))
    return lin * (scale / np.abs(lin).sum(axis=0).max()), rng.uniform(0.0, 1.0, n)


class TestAffineMap:
    """An affine flow crosses each snapshot interval by its exact map exp(tau M),
    built from one probe of n + 1 flow calls, once for the full intervals and
    once for a shorter last one; any other flow keeps four calls a step."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("family", ["gaussian", "stable", "master"])
    def test_random_generators_match_expm(self, family, scale):
        rng = np.random.default_rng(sum(map(ord, family)) + int(np.log10(scale)))
        for n in (2, 4, 9):
            flow = Affine(*random_affine(rng, family, n, scale))
            x = rng.uniform(0.0, 1.0, n)
            m = generator(flow, x)
            # ||tau L||_1 = scale on the full intervals; the last one is 0.6 tau
            spec = EvolutionSpec(rhs=Counting(flow), t0=0.3, t1=3.9, dt=0.25, record_every=4)
            traj = evolve(spec, x)
            assert spec.rhs.calls == n + 1
            assert traj.times[-1] == 3.9 and len(traj) == 5
            for t, got in zip(traj.times, traj.states):
                want, size = exact(m, x, t - 0.3)
                assert np.abs(got - want).max() <= 1e-12 * size

    @pytest.mark.parametrize("kind", AFFINE_KINDS)
    @pytest.mark.parametrize("t1", [0.01, 0.137, 1.0], ids=["one_step", "partial_step", "long"])
    def test_each_snapshot_is_the_exact_propagator(self, kind, t1):
        flow, x = affine_case(kind)
        assert flow.affine is True and _entries(x) <= AFFINE_MAX_ENTRIES
        spec = EvolutionSpec(rhs=Counting(flow), t0=0.2, t1=0.2 + t1, dt=0.01, record_every=3)
        traj = evolve(spec, x)
        # one probe, whose M builds the map of the full intervals and of a
        # shorter last one
        assert spec.rhs.calls == _entries(x) + 1
        m = generator(flow, x)
        for t, got in zip(traj.times, traj.states):
            want, size = exact(m, x, t - 0.2)
            assert got.shape == want.shape and got.dtype == want.dtype
            assert np.abs(got - want).max() <= 1e-12 * size
        rerun = evolve(spec, x)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(traj.states, rerun.states))
        assert np.array_equal(traj.herm_defect, rerun.herm_defect)

    @pytest.mark.parametrize("kind", AFFINE_KINDS)
    def test_the_rk4_run_converges_to_the_map(self, kind):
        # the RK4 steps the map replaces differ from it by their O(dt^4) error
        flow, x = affine_case(kind)
        mapped = evolve(EvolutionSpec(rhs=flow, t0=0.0, t1=1.0, dt=0.05, record_every=20), x)
        errors = [np.abs(rk4_reference(flow, x, 0.0, 1.0, dt) - mapped.final_state).max()
                  for dt in (0.05, 0.025)]
        assert errors[1] <= errors[0] / 10 and errors[0] <= 1e-3

    @pytest.mark.parametrize("record_every", [1, 2])
    @pytest.mark.parametrize("kind", ["bare_callable", "above_the_cap", "nonlinear_master",
                                      "nonlinear_master_hole", "generalized_jumps",
                                      "generalized_jumps_hole", "paired_occupations"])
    def test_other_flows_take_four_calls_a_step(self, kind, record_every):
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
        rhs = rk4_only(counting) if kind == "bare_callable" else counting
        # at record_every=2 the steps, two full and a partial one, make one
        # interval of two and one of one
        spec = EvolutionSpec(rhs=rhs, t0=0.0, t1=0.13, dt=0.05, record_every=record_every)
        traj = evolve(spec, x)
        assert counting.calls == 4 * 3
        # and each step is the plain RK4 step, bit for bit
        assert traj.final_state.tobytes() == rk4_reference(flow, x, 0.0, 0.13, 0.05).tobytes()

    @pytest.mark.memory
    def test_the_map_is_built_in_place(self):
        # D = 64 populations (every sector of 6 fermion modes): the run's peak
        # is the augmented generator M and the three work arrays its map is
        # built in, each (D+1)^2 floats, plus 8 KB for the recorded states and
        # small objects
        model = FockModel(FERMION, (0.0, 0.6, 1.1, 1.3, 1.6, 2.0),
                          {(d, s): 0.2 + 0.1 * (3 * d + s) for d in range(6) for s in range(6) if d != s})
        flow, p = model.populations, product_populations(model, (0.9, 0.2, 0.5, 0.7, 0.1, 0.4))
        assert model.dim == 64
        spec = EvolutionSpec(rhs=flow, t0=0.0, t1=0.16, dt=2e-3, record_every=10)
        # an untimed run first: numpy's dispatch caches, filled on first use,
        # are not the run's to count, whatever test ran before this one
        evolve(spec, p)
        tracemalloc.start()
        try:
            evolve(spec, p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * 65**2 + 8192

    @pytest.mark.parametrize("loss", [-1e308, 1e3], ids=["norm_overflows", "map_overflows"])
    def test_a_map_that_is_not_finite_is_not_used(self, loss):
        # -1e308: tau M holds -inf, as its entry -2e308 overflows in the
        # probe; 1e3: exp(tau M) holds exp(1000) = inf.  Either loss acts on
        # an empty orbital, so every RK4 stage is finite: the window runs the
        # plain steps, bit for bit
        flow = OperatorFlow(np.zeros((2, 2)), np.diag([loss, 0.0]), np.zeros((2, 2)), None)
        x = DensityMatrix(np.diag([0.0, 1.0]), BOSON)
        spec = EvolutionSpec(rhs=Counting(flow), t0=0.0, t1=0.5, dt=0.1, record_every=5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            traj = evolve(spec, x)
        assert spec.rhs.calls == (8 + 1) + 4 * 5
        assert traj.final_state.tobytes() == rk4_reference(flow, x, 0.0, 0.5, 0.1).tobytes()

    def test_a_diverging_mapped_run_names_the_interval(self):
        # a finite map, exp(300) on rho_00, whose third application overflows
        flow = OperatorFlow(np.zeros((2, 2)), np.diag([750.0, 0.0]), np.zeros((2, 2)), None)
        spec = EvolutionSpec(rhs=Counting(flow), t0=0.0, t1=1.0, dt=0.1, record_every=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationDivergedError, match="t = 0.4") as info:
                evolve(spec, DensityMatrix(np.diag([1.0, 0.0]), BOSON))
        assert info.value.t == 0.4
        assert spec.rhs.calls == 8 + 1

    def test_a_boson_gain_beyond_its_loss_diverges_at_the_first_non_finite_snapshot(self):
        # general boson flow with n' = (g - l) n + g: n(t) = (n0 + g/k) e^(k t) - g/k,
        # k = g - l = 100, so each interval of 0.5 multiplies n by about e^50
        # and n passes DBL_MAX/2, where hermitizing it overflows, in the 15th
        gain, loss = 101.0, 1.0
        projector = np.diag([1.0, 0.0])
        flow = OperatorFlow(np.zeros((2, 2)), -0.5 * loss * projector, -0.5 * gain * projector,
                            BOSON)
        spec = EvolutionSpec(rhs=Counting(flow), t0=0.0, t1=10.0, dt=0.01, record_every=50)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationDivergedError) as info:
                evolve(spec, DensityMatrix(np.diag([0.5, 0.0]), BOSON))
        k = gain - loss
        times = np.arange(21) * 0.5
        with np.errstate(over="ignore"):
            closed = (0.5 + gain / k) * np.exp(k * times) - gain / k
        first = np.flatnonzero(~(closed < np.finfo(float).max / 2))[0]
        assert first == 15 and info.value.t == times[first - 1] == 7.0
        assert spec.rhs.calls == 8 + 1


# -- RK4 snapshot intervals -----------------------------------------------------


def rk4_case(kind):
    """(flow, start) of a run of RK4 steps, as ``test_flows`` builds it."""
    rng = np.random.default_rng(29)
    if kind == "paired_occupations":
        # the pair flow steps [n, 1 - n] from the particle occupations n
        particle, n = rand_homogeneous(rng, 3, FERMION)
        return particle.occupation_flow().paired(), n
    inst = rand_instance(rng, 3, FERMION, "rotated")
    return build_flow(kind, FERMION, inst), DensityMatrix(inst["rho"], FERMION)


def runaway_case(kind):
    """(flow, start, dt, t1) of an RK4 run that diverges inside its window."""
    if kind in ("matrix", "callable"):
        # the boson ``general`` runaway n' = n + 1 of the CLI's divergence
        # test, which overflows near t = 709; at d = 12 (288 float-view
        # entries) it lies above the cap of the exact map, and at d = 1 it
        # runs as a plain callable
        d = 12 if kind == "matrix" else 1
        flow = OperatorFlow(np.zeros((d, d)), np.zeros((d, d)), -0.5 * np.eye(d), BOSON)
        x = DensityMatrix(np.zeros((d, d)), BOSON)
        assert kind == "callable" or _entries(x) > AFFINE_MAX_ENTRIES
        return flow, x, 0.5, 800.0
    # the boson occupations of a stiff network, whose quadratic term blows up
    # in the fourth step
    assert kind == "populations"
    flow, n = rand_homogeneous(np.random.default_rng(3), 3, BOSON)
    return flow.occupation_flow(), 200.0 * n, 0.018, 0.5


class TestRK4Intervals:
    """An RK4 run checks each snapshot interval's result once, and replays a
    diverged interval from its start to name the step that diverged."""

    @pytest.mark.parametrize("record_every", [4, 7])
    @pytest.mark.parametrize("kind", ["nonlinear_master", "generalized_jumps", "paired_occupations"])
    def test_a_thinned_run_records_the_steps_of_the_full_run(self, kind, record_every):
        flow, x = rk4_case(kind)
        # 25 full steps and a partial one: the last interval ends on it
        every = EvolutionSpec(rhs=flow, t0=0.1, t1=0.1 + 25.3 * 0.02, dt=0.02)
        thinned = dataclasses.replace(every, record_every=record_every)
        steps = list(snapshots(every, x))
        kept = list(snapshots(thinned, x))
        assert len(steps) == 27 and len(kept) == 1 + math.ceil(26 / record_every)
        shared = [steps[k] for k in (*range(0, 26, record_every), 26)]
        for (t, state, defect), (t_k, state_k, defect_k) in zip(shared, kept):
            assert t == t_k and np.float64(defect).tobytes() == np.float64(defect_k).tobytes()
            assert state.dtype == state_k.dtype and state.tobytes() == state_k.tobytes()

    # the population run diverges in its fourth step, which ends its first
    # interval at record_every=4 and lies inside it at 5 to 10
    @pytest.mark.parametrize("record_every", [4, 5, 7, 10])
    @pytest.mark.parametrize("kind", ["matrix", "populations", "callable"])
    def test_a_divergence_is_named_at_its_own_step(self, kind, record_every):
        flow, x, dt, t1 = runaway_case(kind)

        def diverged(every):
            counting = Counting(flow)
            # a plain function has no affine attribute
            rhs = rk4_only(counting) if kind == "callable" else counting
            spec = EvolutionSpec(rhs=rhs, t0=0.0, t1=t1, dt=dt, record_every=every)
            # the stream alone: the trace of a state near DBL_MAX may overflow
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(IntegrationDivergedError) as info:
                    for _ in snapshots(spec, x):
                        pass
            return info.value, counting.calls

        error, calls = diverged(1)
        failing = calls // 4  # the step that diverged, counting from 1
        assert calls == 4 * failing and error.t == (failing - 1) * dt
        thinned, thinned_calls = diverged(record_every)
        assert thinned.t == error.t and str(thinned) == str(error)
        # the steps up to the diverged interval's end take four calls each;
        # the replay takes the interval's steps again, up to the one that
        # diverged, and not the last one, whose result was checked
        start = (failing - 1) // record_every * record_every
        end = min(start + record_every, math.ceil(t1 / dt))
        assert start < failing <= end
        assert thinned_calls == 4 * end + 4 * (min(failing, end - 1) - start)

    def test_a_pair_diverges_at_the_first_step_of_either_member(self):
        """A pair run names the first step at which either member diverged.
        Here the hole member alone grows, by about 1e120 a step, and
        overflows in the third step, which starts at t = 0.2, while the
        particle member stands still: alone, it would not diverge at all."""

        class HoleRunaway:
            pair = True
            start = staticmethod(FlowPair.start)

            def __call__(self, t, rho):
                out = np.zeros_like(rho)
                out[1] = 2.2e31 * rho[1]
                return out

        start = DensityMatrix(np.diag([0.75, 0.25]), FERMION)
        spec = EvolutionSpec(rhs=HoleRunaway(), t0=0.0, t1=1.0, dt=0.1, record_every=5)
        with pytest.raises(IntegrationDivergedError) as info:
            for _ in snapshots(spec, start):
                pass
        assert info.value.t == 0.2


# -- packed storage of hermitian snapshots -------------------------------------


def _hermitian_bits(m: np.ndarray) -> bool:
    """True when ``m`` is hermitian by bit pattern: its real part symmetric
    in its bits, its imaginary diagonal +0.0, and each imaginary entry above
    the diagonal 0.0 minus its mirror below it."""
    re, im = np.ascontiguousarray(m.real), np.ascontiguousarray(m.imag)
    upper = np.triu_indices(len(m), 1)
    diagonal = np.diagonal(im)
    return (re.tobytes() == np.ascontiguousarray(re.T).tobytes()
            and not (diagonal.any() or np.signbit(diagonal).any())
            and im[upper].tobytes() == (0.0 - im.T)[upper].tobytes())


def _hermitian_of(re: np.ndarray, below: np.ndarray, negate=lambda x: 0.0 - x) -> np.ndarray:
    """The complex matrix with the real part of ``re`` on and above the
    diagonal mirrored below it, ``below`` as its imaginary part below the
    diagonal, ``negate`` of it mirrored above and +0.0 on the diagonal; built
    by selection, which keeps every bit."""
    d = len(re)
    lower = np.tril(np.ones((d, d), dtype=bool), -1)
    m = np.empty((d, d), dtype=complex)
    m.real = np.where(lower, re.T, re)
    m.imag = np.where(lower, below, np.where(lower.T, negate(below.T), 0.0))
    return m


#: Doubles whose bits a rebuild must keep: signed zeros, subnormals, the
#: top of the range and ordinary values.
PACK_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e308, -1e308, 0.1, -2.0, 3.0]


def _dense_jump_flow(d, rng):
    """A fermion ``JumpFlow`` in the benchmark's dense shape: a hermitian H,
    4 dense jumps, and a coherent start."""
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    jumps = [(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) * np.sqrt(0.5 / d)
             for _ in range(4)]
    flow = JumpFlow((x + x.conj().T) / (2.0 * np.sqrt(d)), jumps, FERMION)
    return flow, DensityMatrix(rand_state(rng, d, FERMION), FERMION)


def packing_case(kind):
    """(flow, start, dt) for the runs whose snapshots are checked bitwise."""
    if kind == "jumps_d32":
        flow, x = _dense_jump_flow(32, np.random.default_rng(7))
        return flow, x, 2e-3
    if kind == "nonlinear_master":
        inst = rand_instance(np.random.default_rng(11), 4, FERMION, "rotated")
        return build_flow("nonlinear_master", FERMION, inst), DensityMatrix(inst["rho"], FERMION), 1e-2
    flow, x = affine_case(kind)
    assert flow.affine and _entries(x) <= AFFINE_MAX_ENTRIES  # a mapped run
    return flow, x, 1e-2


class TestPackedStates:
    """A trajectory stores a hermitian snapshot as its d^2 independent reals
    and rebuilds it bit for bit on every read."""

    @pytest.mark.parametrize("kind", ["jumps_d32", "nonlinear_master", "markoff", "lindblad"])
    def test_every_snapshot_after_t0_is_hermitian_by_bit_pattern(self, kind):
        flow, x, dt = packing_case(kind)
        spec = EvolutionSpec(rhs=flow, t0=0.0, t1=10 * dt, dt=dt, record_every=2)
        streamed = list(snapshots(spec, x))
        traj = evolve(spec, x)
        assert len(streamed) == len(traj) == 6
        for (_, m, _), got in zip(streamed[1:], traj.states[1:]):
            assert _hermitian_bits(m)
            assert _packed(m).shape == (1, *m.shape)
            assert got.dtype == m.dtype and got.tobytes() == m.tobytes()

    @pytest.mark.parametrize("kind", ["packed_matrix", "whole_start", "occupations", "pair"])
    def test_the_final_spectrum_is_that_of_the_final_state(self, kind):
        """A trajectory keeps the spectrum it took of its last snapshot, with
        the bits of ``spectrum(final_state)``: of a packed matrix, of a lone
        start kept whole, of 1-D occupations (their sorted entries) and of
        member 0 of a pair run."""
        flow, x, dt = packing_case("nonlinear_master")
        spec = EvolutionSpec(rhs=flow, t0=0.0, t1=5 * dt, dt=dt)
        if kind == "packed_matrix":
            traj = evolve(spec, x)
        elif kind == "whole_start":
            m = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
            m[1, 0] += 1e-15  # hermitian within tolerance, not bitwise
            traj = Trajectory([(0.0, m, 0.0)])
        elif kind == "occupations":
            particle, n = rand_homogeneous(np.random.default_rng(4), 3, FERMION)
            traj = evolve(dataclasses.replace(spec, rhs=particle.occupation_flow()), n)
        else:
            traj = evolve(dataclasses.replace(spec, rhs=flow.paired()), x)
        assert traj.stored[-1].ndim == {"whole_start": 2, "occupations": 1}.get(kind, 3)
        assert traj.final_spectrum.tobytes() == spectrum(traj.final_state).tobytes()

    def test_an_empty_trajectory_has_no_final_spectrum(self):
        assert Trajectory([]).final_spectrum is None

    @pytest.mark.parametrize("d", [1, 2, 3, 8])
    def test_pack_then_unpack_keeps_every_bit(self, d):
        rng = np.random.default_rng(d)
        for _ in range(20):
            m = _hermitian_of(rng.choice(PACK_EDGE_VALUES, (d, d)),
                              rng.choice(PACK_EDGE_VALUES, (d, d)))
            assert _hermitian_bits(m)
            packed = _packed(m)
            assert packed.shape == (1, d, d) and packed.dtype == float
            assert _unpacked(packed).tobytes() == m.tobytes()
            # packing a packed state keeps it
            assert _packed(packed) is packed

    def test_a_negative_zero_above_the_diagonal_is_kept_whole(self):
        # hermitian in value, but -(+0.0) above the diagonal is not what the
        # rebuild makes of a +0.0 below it
        m = _hermitian_of(np.array([[0.5, 0.25], [0.0, 0.5]]), np.zeros((2, 2)),
                          negate=np.negative)
        assert np.signbit(m[0, 1].imag) and not _hermitian_bits(m)
        assert _packed(m) is m
        assert Trajectory([(0.0, m, 0.0)]).states[0].tobytes() == m.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 5), st.data())
    def test_any_bits_read_back_unchanged(self, d, data):
        # any doubles, NaN payloads included, in a matrix built by the
        # rebuild's rule (packed) or at random (packed only if it happens to
        # follow it): every read has the bits given
        bits = st.lists(st.integers(0, 2**64 - 1), min_size=d * d, max_size=d * d)
        re, below = (np.array(data.draw(bits), dtype=np.uint64).view(float).reshape(d, d)
                     for _ in range(2))
        structured = _hermitian_of(re, below)
        assert _packed(structured).ndim == 3
        free = np.empty((d, d), dtype=complex)
        free.real, free.imag = re, below
        for m in (structured, free):
            assert _unpacked(_packed(m)).tobytes() == m.tobytes()

    def test_a_start_hermitian_within_tolerance_is_stepped_from_its_hermitian_part(self):
        m = np.array([[0.6, 0.1 + 0.2j], [0.1 - 0.2j, 0.4]])
        m[1, 0] += 1e-15  # within DEFAULT_TOL of hermitian, not bitwise
        x = DensityMatrix(m, FERMION)
        hermitian = 0.5 * (m + m.conj().T)
        assert not _hermitian_bits(m) and _hermitian_bits(x.matrix)
        assert x.matrix.tobytes() == hermitian.tobytes()
        spec = EvolutionSpec(rhs=lambda t, r: np.zeros_like(r), t0=0.0, t1=0.2, dt=0.1)
        traj = evolve(spec, x)
        # every snapshot, the start too, is hermitian by bit pattern and packed
        assert traj.states[0].tobytes() == hermitian.tobytes() and traj.herm_defect[0] == 0.0
        assert all(state.ndim == 3 for state in traj.stored)

    def test_each_read_is_a_fresh_array(self):
        m = _hermitian_of(np.array([[0.5, 0.25], [0.0, 0.5]]), np.array([[0.0, 0.0], [0.125, 0.0]]))
        traj = Trajectory([(0.0, m, 0.0), (1.0, np.array([0.25, 0.75]), 0.0)])
        for k in range(2):
            first = traj.states[k]
            first[...] = 9.0
            assert traj.states[k] is not first and not np.any(traj.states[k] == 9.0)

    @pytest.mark.memory
    def test_a_dense_trajectory_holds_half_the_complex_states(self):
        """A d = 32 run of 76 snapshots keeps at most 55% of the 76 * 16 d^2
        bytes its complex states take, each packed into 8 d^2, and packs
        each as it arrives: the run never holds them at full size."""
        d = 32
        flow, x = _dense_jump_flow(d, np.random.default_rng(3))
        spec = EvolutionSpec(rhs=flow, t0=0.0, t1=0.15, dt=2e-3)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = evolve(spec, x)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj) == 76
        assert held - before <= 0.55 * 76 * 16 * d**2
        assert peak - before <= 0.75 * 76 * 16 * d**2

    @pytest.mark.memory
    def test_a_trajectory_packs_the_states_it_is_fed(self):
        """A trajectory built from a generator of hermitian matrices packs
        each as it arrives too."""
        d, n, rng = 32, 60, np.random.default_rng(5)

        def states():
            for _ in range(n):
                a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
                yield 0.5 * (a + a.conj().T)

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            traj = Trajectory((0.0, m, 0.0) for m in states())
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj.states) == n
        assert held - before <= 0.55 * n * 16 * d**2
        assert peak - before <= 0.75 * n * 16 * d**2
