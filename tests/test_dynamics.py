import numpy as np
import pytest

from qme.dynamics import (
    DephasingRates,
    Statistics,
    TransitionNetwork,
    build_relaxation_operators,
    combined_relaxation_operator,
    hole_transform,
    rank_one_jumps,
    rhs_general,
    rhs_generalized_jumps,
    rhs_hole_form,
    rhs_lindblad,
    rhs_markoff,
    rhs_meanfield_nonhermitian,
    rhs_nonlinear_master,
    rhs_quasiclassical,
)
from qme.operators import DensityMatrix, hermiticity_defect

FERMION = Statistics.FERMION
BOSON = Statistics.BOSON


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


def projector(n, k):
    v = np.zeros(n, dtype=complex)
    v[k] = 1.0
    return np.outer(v, v.conj())


class TestMeanfieldNonhermitian:
    def test_pure_loss_rate(self):
        # A = -(gamma/2)|phi><phi| on rho = |phi><phi| drains at rate gamma
        p = projector(2, 0)
        out = rhs_meanfield_nonhermitian(np.zeros((2, 2)), -0.5 * p, p)
        assert out[0, 0].real == pytest.approx(-1.0, abs=1e-14)

    def test_zero_relaxation_is_traceless_liouville(self):
        rng = np.random.default_rng(10)
        h = rand_hermitian(rng, 4)
        rho = rand_fermion_state(rng, 4)
        out = rhs_meanfield_nonhermitian(h, np.zeros((4, 4)), rho)
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
        out = rhs_meanfield_nonhermitian(h, a, rho)
        assert abs(out[0, 0]) <= 1e-13


class TestGeneralForm:
    def test_fermion_gain_is_pauli_blocked(self):
        p = projector(2, 0)
        gamma_p = 0.8
        for occ in (0.0, 0.25, 1.0):
            rho = np.diag([occ, 0.0]).astype(complex)
            out = rhs_general(np.zeros((2, 2)), np.zeros((2, 2)), -0.5 * gamma_p * p, rho, FERMION)
            assert out[0, 0].real == pytest.approx(gamma_p * (1 - occ), abs=1e-14)

    def test_boson_gain_is_enhanced(self):
        p = projector(2, 0)
        gamma = 0.6
        for occ in (0.0, 1.0, 4.0):
            rho = np.diag([occ, 0.0]).astype(complex)
            out = rhs_general(np.zeros((2, 2)), np.zeros((2, 2)), -0.5 * gamma * p, rho, BOSON)
            assert out[0, 0].real == pytest.approx(gamma * (1 + occ), abs=1e-13)

    def test_reduces_to_liouville(self):
        rng = np.random.default_rng(11)
        h = rand_hermitian(rng, 3)
        rho = rand_fermion_state(rng, 3)
        z = np.zeros((3, 3))
        assert np.allclose(
            rhs_general(h, z, z, rho, FERMION),
            -1j * (h @ rho - rho @ h),
        )

    @pytest.mark.parametrize("stats", [FERMION, BOSON])
    def test_output_hermitian(self, stats):
        rng = np.random.default_rng(12)
        h = rand_hermitian(rng, 5)
        loss = rand_hermitian(rng, 5)
        gain = rand_hermitian(rng, 5)
        rho = rand_fermion_state(rng, 5)
        assert hermiticity_defect(rhs_general(h, loss, gain, rho, stats)) <= 1e-12


class TestHoleRepresentation:
    def test_complement_of_empty_and_full(self):
        empty = DensityMatrix(np.zeros((3, 3)), FERMION)
        assert np.allclose(hole_transform(empty).matrix, np.eye(3))
        full = DensityMatrix(np.eye(3), FERMION)
        assert np.allclose(hole_transform(full).matrix, 0)

    def test_per_orbital_complement(self):
        rho = DensityMatrix(np.diag([0.3, 0.9]), FERMION)
        assert np.allclose(hole_transform(rho).matrix, np.diag([0.7, 0.1]))

    def test_involution(self):
        rng = np.random.default_rng(13)
        rho = DensityMatrix(rand_fermion_state(rng, 4), FERMION)
        again = hole_transform(hole_transform(rho))
        assert np.allclose(again.matrix, rho.matrix)

    def test_rejects_bosons(self):
        rho = DensityMatrix(np.diag([2.0, 0.0]), BOSON)
        with pytest.raises(ValueError, match="fermions only"):
            hole_transform(rho)

    def test_hole_gain_from_particle_loss(self):
        # particle loss operator -(gamma/2)|phi><phi| feeds holes at gamma*(1 - n_hole)
        p = projector(2, 0)
        gamma = 1.3
        rho_hole = np.diag([0.4, 0.0]).astype(complex)
        out = rhs_hole_form(np.zeros((2, 2)), -0.5 * gamma * p, np.zeros((2, 2)), rho_hole)
        assert out[0, 0].real == pytest.approx(gamma * (1 - 0.4), abs=1e-14)

    def test_hole_loss_from_particle_gain(self):
        p = projector(2, 0)
        gamma_p = 0.7
        rho_hole = np.diag([0.4, 0.0]).astype(complex)
        out = rhs_hole_form(np.zeros((2, 2)), np.zeros((2, 2)), -0.5 * gamma_p * p, rho_hole)
        assert out[0, 0].real == pytest.approx(-gamma_p * 0.4, abs=1e-14)

    def test_zero_operators_zero_flow(self):
        z = np.zeros((3, 3))
        rho_hole = np.diag([1.0, 0.5, 0.0]).astype(complex)
        assert np.abs(rhs_hole_form(z, z, z, rho_hole)).max() == 0.0

    @pytest.mark.parametrize("seed", range(10))
    def test_particle_hole_duality(self, seed):
        # complementary flows cancel entrywise for any operators and state
        rng = np.random.default_rng(100 + seed)
        n = rng.integers(2, 7)
        h = rand_hermitian(rng, n)
        loss = rand_hermitian(rng, n)
        gain = rand_hermitian(rng, n)
        rho = rand_fermion_state(rng, n)
        total = rhs_general(h, loss, gain, rho, FERMION) + rhs_hole_form(
            h, loss, gain, np.eye(n) - rho
        )
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
            out = rhs_nonlinear_master(np.zeros((2, 2)), net, rho, stats)
            assert out[1, 1].real == pytest.approx(1.7, abs=1e-13)

    def test_pauli_blocking_is_exact(self):
        net = TransitionNetwork.computational(2, {(1, 0): 1.0})
        rho = np.diag([0.6, 1.0]).astype(complex)
        out = rhs_nonlinear_master(np.zeros((2, 2)), net, rho, FERMION)
        assert abs(out[1, 1]) <= 1e-13

    def test_empty_network_is_liouville(self):
        rng = np.random.default_rng(15)
        h = rand_hermitian(rng, 3)
        rho = rand_fermion_state(rng, 3)
        net = TransitionNetwork.computational(3, {})
        assert np.allclose(
            rhs_nonlinear_master(h, net, rho, FERMION), -1j * (h @ rho - rho @ h)
        )

    @pytest.mark.parametrize("stats", [FERMION, BOSON])
    def test_traceless_and_hermitian(self, stats):
        rng = np.random.default_rng(16)
        h = rand_hermitian(rng, 5)
        net = rand_network(rng, 5)
        rho = rand_fermion_state(rng, 5) if stats is FERMION else rand_boson_state(rng, 5)
        out = rhs_nonlinear_master(h, net, rho, stats)
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
        out_rot = rhs_nonlinear_master(np.zeros((n, n)), net_rot, rho, FERMION)
        out_std = rhs_nonlinear_master(np.zeros((n, n)), net_std, u.conj().T @ rho @ u, FERMION)
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
        a = rhs_generalized_jumps(h, rank_one_jumps(net), rho, stats)
        b = rhs_nonlinear_master(h, net, rho, stats)
        assert np.abs(a - b).max() <= 1e-12

    def test_empty_jump_set_is_liouville(self):
        rng = np.random.default_rng(18)
        h = rand_hermitian(rng, 3)
        rho = rand_fermion_state(rng, 3)
        assert np.allclose(
            rhs_generalized_jumps(h, [], rho, FERMION), -1j * (h @ rho - rho @ h)
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
                rhs_generalized_jumps(h, jumps, e * sigma, FERMION)
                - rhs_lindblad(h, jumps, e * sigma)
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
            assert abs(np.trace(rhs_generalized_jumps(h, jumps, rho, stats))) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="jump operator"):
            rhs_generalized_jumps(np.zeros((2, 2)), [np.zeros((3, 3))], np.zeros((2, 2)), FERMION)


class TestMarkoff:
    def test_pure_dephasing_decays_coherence_only(self):
        net = TransitionNetwork.computational(2, {})
        deph = DephasingRates({(0, 1): 0.9})
        rho = np.array([[0.6, 0.2 + 0.1j], [0.2 - 0.1j, 0.4]])
        out = rhs_markoff(np.zeros((2, 2)), net, deph, rho)
        assert out[0, 1] == pytest.approx(-0.9 * rho[0, 1])
        assert out[1, 0] == pytest.approx(-0.9 * rho[1, 0])
        assert out[0, 0] == 0 and out[1, 1] == 0

    def test_single_transition_rate(self):
        net = TransitionNetwork.computational(2, {(1, 0): 1.1})
        rho = np.diag([1.0, 0.0]).astype(complex)
        out = rhs_markoff(np.zeros((2, 2)), net, None, rho)
        assert out[1, 1].real == pytest.approx(1.1, abs=1e-14)

    def test_linearity_at_zero(self):
        net = TransitionNetwork.computational(3, {(1, 0): 1.0, (2, 1): 0.5})
        deph = DephasingRates({(0, 2): 0.3})
        out = rhs_markoff(np.zeros((3, 3)), net, deph, np.zeros((3, 3)))
        assert not np.any(out)

    def test_traceless_without_dephasing(self):
        rng = np.random.default_rng(21)
        net = rand_network(rng, 4)
        h = rand_hermitian(rng, 4)
        rho = rand_fermion_state(rng, 4)
        assert abs(np.trace(rhs_markoff(h, net, None, rho))) <= 1e-12


class TestLindblad:
    @pytest.mark.parametrize("seed", range(5))
    def test_rank_one_jumps_reduce_to_markoff(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 7))
        h = rand_hermitian(rng, n)
        net = rand_network(rng, n)
        rho = rand_fermion_state(rng, n)
        a = rhs_lindblad(h, rank_one_jumps(net), rho)
        b = rhs_markoff(h, net, None, rho)
        assert np.abs(a - b).max() <= 1e-12

    def test_empty_set_is_liouville(self):
        rng = np.random.default_rng(22)
        h = rand_hermitian(rng, 3)
        rho = rand_fermion_state(rng, 3)
        assert np.allclose(rhs_lindblad(h, [], rho), -1j * (h @ rho - rho @ h))

    def test_traceless(self):
        rng = np.random.default_rng(23)
        n = 5
        h = rand_hermitian(rng, n)
        jumps = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(3)]
        rho = rand_fermion_state(rng, n)
        assert abs(np.trace(rhs_lindblad(h, jumps, rho))) <= 1e-12


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
            lhs = np.diag(rhs_nonlinear_master(h, net, rho, stats)).real
            rhs = rhs_quasiclassical(f, net.rate_matrix(), stats)
            assert np.abs(lhs - rhs).max() <= 1e-12


class TestCombinedRelaxationOperator:
    def test_zero_gain_returns_loss(self):
        rng = np.random.default_rng(26)
        loss = rand_hermitian(rng, 3)
        assert np.allclose(
            combined_relaxation_operator(loss, np.zeros((3, 3)), BOSON), loss
        )

    def test_fermion_equal_operators_double(self):
        rng = np.random.default_rng(27)
        x = rand_hermitian(rng, 3)
        assert np.allclose(combined_relaxation_operator(x, x, FERMION), 2 * x)

    @pytest.mark.parametrize("stats", [FERMION, BOSON])
    @pytest.mark.parametrize("seed", range(5))
    def test_merged_flow_identity(self, stats, seed):
        rng = np.random.default_rng(400 + seed)
        n = int(rng.integers(2, 7))
        h = rand_hermitian(rng, n)
        loss = rand_hermitian(rng, n)
        gain = rand_hermitian(rng, n)
        rho = rand_fermion_state(rng, n)
        merged = combined_relaxation_operator(loss, gain, stats)
        via_merged = -1j * (h @ rho - rho @ h) + (rho @ merged + merged @ rho) - 2 * gain
        assert np.abs(via_merged - rhs_general(h, loss, gain, rho, stats)).max() <= 1e-12


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
            rhs_meanfield_nonhermitian(h, loss, rho),
            rhs_general(h, loss, gain, rho, FERMION),
            rhs_general(h, loss, gain, rho, BOSON),
            rhs_hole_form(h, loss, gain, rho),
            rhs_nonlinear_master(h, net, rho, FERMION),
            rhs_nonlinear_master(h, net, rho, BOSON),
            rhs_generalized_jumps(h, jumps, rho, FERMION),
            rhs_generalized_jumps(h, jumps, rho, BOSON),
            rhs_markoff(h, net, deph, rho),
            rhs_lindblad(h, jumps, rho),
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
