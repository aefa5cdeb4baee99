import numpy as np
import pytest

import qme.dynamics
from qme.dynamics import (
    DephasingRates,
    FlowPair,
    JumpFlow,
    NetworkFlow,
    OccupationFlow,
    OperatorFlow,
    Statistics,
    TransitionNetwork,
    build_relaxation_operators,
    rank_one_jumps,
    rhs_quasiclassical,
)
from qme.operators import hermiticity_defect

FERMION = Statistics.FERMION
BOSON = Statistics.BOSON


def test_every_exported_name_resolves():
    missing = [name for name in qme.dynamics.__all__ if not hasattr(qme.dynamics, name)]
    assert not missing


def rand_hermitian(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def rand_fermion_state(rng, n):
    """PSD with eigenvalues in [0, 1]."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    return (q * rng.uniform(0.0, 1.0, n)) @ q.conj().T


def rand_boson_state(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    return (q * rng.uniform(0.0, 3.0, n)) @ q.conj().T


def rand_network(rng, n, density=0.5):
    rates = {}
    for dest in range(n):
        for src in range(n):
            if dest != src and rng.uniform() < density:
                rates[(dest, src)] = float(rng.uniform(0.1, 2.0))
    return TransitionNetwork.computational(n, rates)


def meanfield(h, a):
    """The mean-field flow (1/i)[H, rho] + {rho, A}."""
    return OperatorFlow(h, a, np.zeros_like(a), None)


def projector(n, k):
    v = np.zeros(n, dtype=complex)
    v[k] = 1.0
    return np.outer(v, v.conj())


class TestMeanfieldNonhermitian:
    def test_pure_loss_rate(self):
        # A = -(gamma/2)|phi><phi| on rho = |phi><phi| drains at rate gamma
        p = projector(2, 0)
        out = meanfield(np.zeros((2, 2)), -0.5 * p).evaluate(p)
        assert out[0, 0].real == pytest.approx(-1.0, abs=1e-14)

    def test_zero_relaxation_is_traceless_liouville(self):
        rng = np.random.default_rng(10)
        h = rand_hermitian(rng, 4)
        rho = rand_fermion_state(rng, 4)
        out = meanfield(h, np.zeros((4, 4))).evaluate(rho)
        assert abs(np.trace(out)) < 1e-13
        assert hermiticity_defect(out) < 1e-13

    @pytest.mark.parametrize("seed", range(20))
    def test_empty_orbital_cannot_gain(self, seed):
        # PSD rho with <phi|rho|phi> = 0 pins the phi diagonal of the flow to 0
        rng = np.random.default_rng(seed)
        n = 4
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        g[0, :] = 0.0  # empty the phi = e_0 orbital
        rho = g @ g.conj().T
        h = rand_hermitian(rng, n)
        a = rand_hermitian(rng, n)
        out = meanfield(h, a).evaluate(rho)
        assert abs(out[0, 0]) <= 1e-13


class TestGeneralForm:
    def test_fermion_gain_is_pauli_blocked(self):
        p = projector(2, 0)
        gamma_p = 0.8
        for occ in (0.0, 0.25, 1.0):
            rho = np.diag([occ, 0.0]).astype(complex)
            flow = OperatorFlow(np.zeros((2, 2)), np.zeros((2, 2)), -0.5 * gamma_p * p, FERMION)
            out = flow.evaluate(rho)
            assert out[0, 0].real == pytest.approx(gamma_p * (1 - occ), abs=1e-14)

    def test_boson_gain_is_enhanced(self):
        p = projector(2, 0)
        gamma = 0.6
        for occ in (0.0, 1.0, 4.0):
            rho = np.diag([occ, 0.0]).astype(complex)
            flow = OperatorFlow(np.zeros((2, 2)), np.zeros((2, 2)), -0.5 * gamma * p, BOSON)
            out = flow.evaluate(rho)
            assert out[0, 0].real == pytest.approx(gamma * (1 + occ), abs=1e-13)

    def test_reduces_to_liouville(self):
        rng = np.random.default_rng(11)
        h = rand_hermitian(rng, 3)
        rho = rand_fermion_state(rng, 3)
        z = np.zeros((3, 3))
        assert np.allclose(
            OperatorFlow(h, z, z, FERMION).evaluate(rho),
            -1j * (h @ rho - rho @ h),
        )

    @pytest.mark.parametrize("stats", [FERMION, BOSON])
    def test_output_hermitian(self, stats):
        rng = np.random.default_rng(12)
        h = rand_hermitian(rng, 5)
        loss = rand_hermitian(rng, 5)
        gain = rand_hermitian(rng, 5)
        rho = rand_fermion_state(rng, 5)
        assert hermiticity_defect(OperatorFlow(h, loss, gain, stats).evaluate(rho)) <= 1e-12


class TestHoleRepresentation:
    def test_complement_of_empty_and_full(self):
        # a pair's start is the particle state and its hole state I - rho
        empty, full = np.zeros((3, 3), dtype=complex), np.eye(3, dtype=complex)
        assert np.array_equal(FlowPair.start(empty), np.stack((empty, full)))
        assert np.array_equal(FlowPair.start(full), np.stack((full, empty)))

    def test_per_orbital_complement(self):
        rho = np.diag([0.3, 0.9]).astype(complex)
        assert np.allclose(FlowPair.start(rho)[1], np.diag([0.7, 0.1]))
        n = np.array([0.3, 0.9])
        assert np.allclose(OccupationFlow.start(n), [[0.3, 0.9], [0.7, 0.1]])

    def test_involution(self):
        # the start of the hole state is the particle state again, and a
        # start's residual is at rounding
        rng = np.random.default_rng(13)
        rho = rand_fermion_state(rng, 4)
        pair = FlowPair.start(rho)
        assert np.allclose(FlowPair.start(pair[1])[1], rho)
        assert FlowPair.residual(pair) <= 1e-15
        n = rng.uniform(0.0, 1.0, 4)
        assert np.allclose(OccupationFlow.start(OccupationFlow.start(n)[1])[1], n)
        assert OccupationFlow.residual(OccupationFlow.start(n)) <= 1e-15

    def test_rejects_bosons(self):
        # only a fermion flow has a pair to lift a start to
        z = np.zeros((2, 2))
        with pytest.raises(ValueError, match="fermions only"):
            OperatorFlow(z, z, z, BOSON).paired()
        with pytest.raises(ValueError, match="fermions only"):
            OccupationFlow(z, BOSON.sign).paired()

    def test_hole_gain_from_particle_loss(self):
        # particle loss operator -(gamma/2)|phi><phi| feeds holes at gamma*(1 - n_hole)
        p = projector(2, 0)
        gamma = 1.3
        rho_hole = np.diag([0.4, 0.0]).astype(complex)
        flow = OperatorFlow(np.zeros((2, 2)), -0.5 * gamma * p, np.zeros((2, 2)), FERMION)
        out = flow.hole().evaluate(rho_hole)
        assert out[0, 0].real == pytest.approx(gamma * (1 - 0.4), abs=1e-14)

    def test_hole_loss_from_particle_gain(self):
        p = projector(2, 0)
        gamma_p = 0.7
        rho_hole = np.diag([0.4, 0.0]).astype(complex)
        flow = OperatorFlow(np.zeros((2, 2)), np.zeros((2, 2)), -0.5 * gamma_p * p, FERMION)
        out = flow.hole().evaluate(rho_hole)
        assert out[0, 0].real == pytest.approx(-gamma_p * 0.4, abs=1e-14)

    def test_zero_operators_zero_flow(self):
        z = np.zeros((3, 3))
        rho_hole = np.diag([1.0, 0.5, 0.0]).astype(complex)
        assert np.abs(OperatorFlow(z, z, z, FERMION).hole().evaluate(rho_hole)).max() == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_particle_hole_duality(self, seed):
        # complementary flows cancel entrywise for any operators and state
        rng = np.random.default_rng(100 + seed)
        n = rng.integers(2, 7)
        h = rand_hermitian(rng, n)
        loss = rand_hermitian(rng, n)
        gain = rand_hermitian(rng, n)
        rho = rand_fermion_state(rng, n)
        flow = OperatorFlow(h, loss, gain, FERMION)
        total = flow.evaluate(rho) + flow.hole().evaluate(np.eye(n) - rho)
        assert np.abs(total).max() <= 1e-12


class TestRelaxationOperators:
    def test_single_transition_by_hand(self):
        net = TransitionNetwork.computational(2, {(1, 0): 2.0})
        rho = np.diag([1.0, 0.0]).astype(complex)
        loss, gain = build_relaxation_operators(net, rho, FERMION)
        assert np.allclose(gain, -1.0 * projector(2, 1))
        assert np.allclose(loss, -1.0 * projector(2, 0))

    def test_all_rates_zero(self):
        net = TransitionNetwork.computational(3, {})
        rho = np.diag([0.5, 0.5, 0.5]).astype(complex)
        loss, gain = build_relaxation_operators(net, rho, FERMION)
        assert not np.any(loss) and not np.any(gain)

    def test_boson_enhancement_factor(self):
        net = TransitionNetwork.computational(2, {(1, 0): 1.5})
        rho = np.diag([0.0, 3.0]).astype(complex)
        loss, _ = build_relaxation_operators(net, rho, BOSON)
        assert np.allclose(loss, -0.5 * 1.5 * 4.0 * projector(2, 0))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match=r"rates\[\(2,1\)\]"):
            TransitionNetwork.computational(3, {(2, 1): -0.5})

    def test_operators_negative_semidefinite(self):
        rng = np.random.default_rng(14)
        net = rand_network(rng, 4)
        rho = rand_fermion_state(rng, 4)
        for stats in (FERMION, BOSON):
            loss, gain = build_relaxation_operators(net, rho, stats)
            assert np.linalg.eigvalsh(loss)[-1] <= 1e-12
            assert np.linalg.eigvalsh(gain)[-1] <= 1e-12


class TestNonlinearMaster:
    def test_two_state_initial_rate(self):
        net = TransitionNetwork.computational(2, {(1, 0): 1.7})
        rho = np.diag([1.0, 0.0]).astype(complex)
        for stats in (FERMION, BOSON):
            out = NetworkFlow(np.zeros((2, 2)), net, stats).evaluate(rho)
            assert out[1, 1].real == pytest.approx(1.7, abs=1e-13)

    def test_pauli_blocking_is_exact(self):
        net = TransitionNetwork.computational(2, {(1, 0): 1.0})
        rho = np.diag([0.6, 1.0]).astype(complex)
        out = NetworkFlow(np.zeros((2, 2)), net, FERMION).evaluate(rho)
        assert abs(out[1, 1]) <= 1e-13

    def test_empty_network_is_liouville(self):
        rng = np.random.default_rng(15)
        h = rand_hermitian(rng, 3)
        rho = rand_fermion_state(rng, 3)
        net = TransitionNetwork.computational(3, {})
        assert np.allclose(
            NetworkFlow(h, net, FERMION).evaluate(rho), -1j * (h @ rho - rho @ h)
        )

    @pytest.mark.parametrize("stats", [FERMION, BOSON])
    def test_traceless_and_hermitian(self, stats):
        rng = np.random.default_rng(16)
        h = rand_hermitian(rng, 5)
        net = rand_network(rng, 5)
        rho = rand_fermion_state(rng, 5) if stats is FERMION else rand_boson_state(rng, 5)
        out = NetworkFlow(h, net, stats).evaluate(rho)
        assert abs(np.trace(out)) <= 1e-12
        assert hermiticity_defect(out) <= 1e-12

    def test_rotated_basis_consistency(self):
        # a network over rotated orthonormal kets is the rotated computational network
        rng = np.random.default_rng(17)
        n = 3
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u, _ = np.linalg.qr(g)
        rates = {(1, 0): 0.9, (2, 1): 0.4}
        net_rot = TransitionNetwork(kets=u, rates=rates)
        net_std = TransitionNetwork.computational(n, rates)
        rho = rand_fermion_state(rng, n)
        out_rot = NetworkFlow(np.zeros((n, n)), net_rot, FERMION).evaluate(rho)
        out_std = NetworkFlow(np.zeros((n, n)), net_std, FERMION).evaluate(u.conj().T @ rho @ u)
        assert np.abs(out_rot - u @ out_std @ u.conj().T).max() <= 1e-12


class TestGeneralizedJumps:
    @pytest.mark.parametrize("stats", [FERMION, BOSON])
    @pytest.mark.parametrize("seed", range(5))
    def test_rank_one_jumps_reduce_to_network_form(self, stats, seed):
        rng = np.random.default_rng(200 + seed)
        n = int(rng.integers(2, 7))
        h = rand_hermitian(rng, n)
        net = rand_network(rng, n)
        rho = rand_fermion_state(rng, n) if stats is FERMION else rand_boson_state(rng, n)
        a = JumpFlow(h, rank_one_jumps(net), stats).evaluate(rho)
        b = NetworkFlow(h, net, stats).evaluate(rho)
        assert np.abs(a - b).max() <= 1e-12

    def test_empty_jump_set_is_liouville(self):
        rng = np.random.default_rng(18)
        h = rand_hermitian(rng, 3)
        rho = rand_fermion_state(rng, 3)
        assert np.allclose(
            JumpFlow(h, [], FERMION).evaluate(rho), -1j * (h @ rho - rho @ h)
        )

    def test_low_density_quadratic_remainder(self):
        # difference to the linear jump equation scales as eps^2
        rng = np.random.default_rng(19)
        n = 4
        h = rand_hermitian(rng, n)
        jumps = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(3)]
        sigma = rand_fermion_state(rng, n)
        sigma /= np.trace(sigma).real
        eps = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        res = [
            np.abs(
                JumpFlow(h, jumps, FERMION).evaluate(e * sigma)
                - JumpFlow(h, jumps, None).evaluate(e * sigma)
            ).max()
            for e in eps
        ]
        slope = np.polyfit(np.log(eps), np.log(res), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.05)

    def test_traceless(self):
        rng = np.random.default_rng(20)
        n = 4
        h = rand_hermitian(rng, n)
        jumps = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2)]
        rho = rand_boson_state(rng, n)
        for stats in (FERMION, BOSON):
            assert abs(np.trace(JumpFlow(h, jumps, stats).evaluate(rho))) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="jump operator"):
            JumpFlow(np.zeros((2, 2)), [np.zeros((3, 3))], FERMION).evaluate(np.zeros((2, 2)))


class TestMarkoff:
    def test_pure_dephasing_decays_coherence_only(self):
        net = TransitionNetwork.computational(2, {})
        deph = DephasingRates({(0, 1): 0.9})
        rho = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
        out = NetworkFlow(np.zeros((2, 2)), net, None, deph).evaluate(rho)
        assert out[0, 1] == pytest.approx(-0.9 * rho[0, 1])
        assert out[1, 0] == pytest.approx(-0.9 * rho[1, 0])
        assert out[0, 0] == 0 and out[1, 1] == 0

    def test_single_transition_rate(self):
        net = TransitionNetwork.computational(2, {(1, 0): 1.1})
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = NetworkFlow(np.zeros((2, 2)), net, None).evaluate(rho)
        assert out[1, 1].real == pytest.approx(1.1, abs=1e-14)

    def test_linearity_at_zero(self):
        net = TransitionNetwork.computational(3, {(1, 0): 1.0, (2, 1): 0.5})
        deph = DephasingRates({(0, 2): 0.3})
        out = NetworkFlow(np.zeros((3, 3)), net, None, deph).evaluate(np.zeros((3, 3)))
        assert not np.any(out)

    def test_traceless_without_dephasing(self):
        rng = np.random.default_rng(21)
        net = rand_network(rng, 4)
        h = rand_hermitian(rng, 4)
        rho = rand_fermion_state(rng, 4)
        assert abs(np.trace(NetworkFlow(h, net, None).evaluate(rho))) <= 1e-12


class TestLindblad:
    @pytest.mark.parametrize("seed", range(5))
    def test_rank_one_jumps_reduce_to_markoff(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 7))
        h = rand_hermitian(rng, n)
        net = rand_network(rng, n)
        rho = rand_fermion_state(rng, n)
        a = JumpFlow(h, rank_one_jumps(net), None).evaluate(rho)
        b = NetworkFlow(h, net, None).evaluate(rho)
        assert np.abs(a - b).max() <= 1e-12

    def test_empty_set_is_liouville(self):
        rng = np.random.default_rng(22)
        h = rand_hermitian(rng, 3)
        rho = rand_fermion_state(rng, 3)
        assert np.allclose(JumpFlow(h, [], None).evaluate(rho), -1j * (h @ rho - rho @ h))

    def test_traceless(self):
        rng = np.random.default_rng(23)
        n = 5
        h = rand_hermitian(rng, n)
        jumps = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(3)]
        rho = rand_fermion_state(rng, n)
        assert abs(np.trace(JumpFlow(h, jumps, None).evaluate(rho))) <= 1e-12


class TestQuasiclassical:
    def test_two_mode_fermion(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        df = rhs_quasiclassical([1.0, 0.0], w, FERMION)
        assert np.allclose(df, [-1.0, 1.0])

    @pytest.mark.parametrize("stats", [FERMION, BOSON])
    def test_detailed_balance_fixed_point(self, stats):
        s = stats.sign
        f1, f2 = 0.3, 0.6
        w12 = 1.0  # rate 2 -> 1
        # choose w21 so that w12*f2*(1+s*f1) = w21*f1*(1+s*f2)
        w21 = w12 * f2 * (1 + s * f1) / (f1 * (1 + s * f2))
        w = np.array([[0.0, w12], [w21, 0.0]])
        df = rhs_quasiclassical([f1, f2], w, stats)
        assert np.abs(df).max() <= 1e-14

    def test_zero_rates(self):
        assert not np.any(rhs_quasiclassical([0.5, 0.2], np.zeros((2, 2)), FERMION))

    def test_conservation(self):
        rng = np.random.default_rng(24)
        n = 6
        w = rng.uniform(0, 2, (n, n))
        np.fill_diagonal(w, 0.0)
        f = rng.uniform(0, 1, n)
        assert abs(rhs_quasiclassical(f, w, FERMION).sum()) <= 1e-13

    def test_domain_errors(self):
        w = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="negative occupation"):
            rhs_quasiclassical([-0.1, 0.5], w, FERMION)
        with pytest.raises(ValueError, match="exceeds 1"):
            rhs_quasiclassical([1.2, 0.5], w, FERMION)
        with pytest.raises(ValueError, match="negative rate"):
            rhs_quasiclassical([0.5, 0.5], -w, FERMION)
        with pytest.raises(ValueError, match="occupations: occupations must be finite"):
            rhs_quasiclassical([np.nan, 0.5], w, FERMION)
        with pytest.raises(ValueError, match="occupations: occupations must be finite"):
            rhs_quasiclassical([np.inf, 0.5], w, BOSON)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="rate matrix: rates must be finite"):
                rhs_quasiclassical([0.5, 0.5], [[0.0, bad], [1.0, 0.0]], FERMION)
        rhs_quasiclassical([1.2, 0.5], w, BOSON)  # bosons are uncapped

    def test_homogeneous_reduction_of_matrix_form(self):
        # diagonal H and rho in the network basis: the matrix flow's diagonal
        # is exactly the occupation kinetics
        rng = np.random.default_rng(25)
        n = 5
        net = rand_network(rng, n)
        h = np.diag(rng.standard_normal(n)).astype(complex)
        f = rng.uniform(0, 1, n)
        rho = np.diag(f).astype(complex)
        for stats in (FERMION, BOSON):
            lhs = np.diag(NetworkFlow(h, net, stats).evaluate(rho)).real
            rhs = rhs_quasiclassical(f, net.rate_matrix(), stats)
            assert np.abs(lhs - rhs).max() <= 1e-12


class TestCombinedRelaxationOperator:
    """The merged operator A' = A_loss - s*A_gain reproduces the flow."""

    @pytest.mark.parametrize("stats", [FERMION, BOSON])
    @pytest.mark.parametrize("seed", range(5))
    def test_merged_flow_identity(self, stats, seed):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(2, 7))
        h = rand_hermitian(rng, n)
        loss = rand_hermitian(rng, n)
        gain = rand_hermitian(rng, n)
        rho = rand_fermion_state(rng, n)
        merged = loss - stats.sign * gain
        via_merged = -1j * (h @ rho - rho @ h) + (rho @ merged + merged @ rho) - 2 * gain
        assert np.abs(via_merged - OperatorFlow(h, loss, gain, stats).evaluate(rho)).max() <= 1e-12


class TestEveryFlowIsHermitian:
    """Hermitian inputs must give hermitian flows, defect <= 1e-12."""

    @pytest.mark.parametrize("seed", range(3))
    def test_all_builders(self, seed):
        rng = np.random.default_rng(500 + seed)
        n = 4
        h = rand_hermitian(rng, n)
        rho = rand_fermion_state(rng, n)
        net = rand_network(rng, n)
        deph = DephasingRates({(0, 1): 0.4, (2, 3): 0.7})
        jumps = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(2)]
        loss, gain = rand_hermitian(rng, n), rand_hermitian(rng, n)
        outs = [
            meanfield(h, loss).evaluate(rho),
            OperatorFlow(h, loss, gain, FERMION).evaluate(rho),
            OperatorFlow(h, loss, gain, BOSON).evaluate(rho),
            OperatorFlow(h, loss, gain, FERMION).hole().evaluate(rho),
            NetworkFlow(h, net, FERMION).evaluate(rho),
            NetworkFlow(h, net, BOSON).evaluate(rho),
            JumpFlow(h, jumps, FERMION).evaluate(rho),
            JumpFlow(h, jumps, BOSON).evaluate(rho),
            NetworkFlow(h, net, None, deph).evaluate(rho),
            JumpFlow(h, jumps, None).evaluate(rho),
        ]
        for out in outs:
            assert hermiticity_defect(out) <= 1e-12


class TestNetworkAndDephasingValidation:
    def test_self_transition_rejected(self):
        with pytest.raises(ValueError, match="self-transitions"):
            TransitionNetwork.computational(2, {(1, 1): 1.0})

    def test_index_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            TransitionNetwork.computational(2, {(2, 0): 1.0})

    def test_non_orthonormal_kets_rejected(self):
        kets = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="Gram"):
            TransitionNetwork(kets=kets, rates={})

    def test_kets_whose_gram_matrix_overflows_are_rejected(self):
        # K^+ K overflows to inf; refused as not orthonormal, with no numpy warning
        kets = np.array([[1e308, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="Gram matrix deviates from identity by inf"):
            TransitionNetwork(kets=kets, rates={})

    def test_jumps_whose_drain_overflows_are_rejected(self):
        jump = np.array([[0.0, 1e308], [0.0, 0.0]])
        with pytest.raises(ValueError, match="^jump_operators: too large"):
            JumpFlow(np.zeros((2, 2)), [jump], FERMION)

    def test_dephasing_symmetrized(self):
        d = DephasingRates({(0, 1): 0.5})
        assert d.gamma[(1, 0)] == 0.5

    def test_dephasing_conflict(self):
        with pytest.raises(ValueError, match="symmetric partner"):
            DephasingRates({(0, 1): 0.5, (1, 0): 0.6})

    def test_dephasing_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            DephasingRates({(1, 1): 0.5})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rates_rejected(self, value):
        with pytest.raises(ValueError, match=r"rates\[\(1,0\)\]: rate must be finite"):
            TransitionNetwork.computational(2, {(1, 0): value})
        with pytest.raises(ValueError, match="dephasing.*finite"):
            DephasingRates({(0, 1): value})

    def test_dephasing_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            DephasingRates({(0, 1): -0.5})
