import warnings

import numpy as np
import pytest

from qme.fock_oracle import (
    FockModel,
    NonProductStateWarning,
    build_mode_operators,
    closure_residual_at_t0,
    cutoff_contamination,
    fock_hamiltonian,
    fock_jump_operators,
    is_product_diagonal,
    number_operators,
    product_diagonal_state,
    reduce_one_particle,
    rhs_fock_lindblad,
)
from qme.integrator import EvolutionSpec, evolve
from qme.operators import DensityMatrix, Statistics, hermiticity_defect

FERMION = Statistics.FERMION
BOSON = Statistics.BOSON


def fermion_model(modes, rates=None, energies=None):
    return FockModel(
        statistics=FERMION,
        energies=tuple(energies) if energies else tuple(float(k) for k in range(modes)),
        rates=rates or {},
    )


class TestModeOperators:
    def test_single_fermion_mode_is_canonical(self):
        (c,) = build_mode_operators(fermion_model(1))
        assert np.array_equal(c, [[0, 1], [0, 0]])
        assert np.allclose(c @ c.conj().T + c.conj().T @ c, np.eye(2))

    @pytest.mark.parametrize("modes", [2, 3, 4])
    def test_fermion_anticommutation(self, modes):
        cs = build_mode_operators(fermion_model(modes))
        dim = 2**modes
        for i in range(modes):
            for j in range(modes):
                acomm = cs[i] @ cs[j] + cs[j] @ cs[i]
                assert np.abs(acomm).max() <= 1e-12
                mixed = cs[i] @ cs[j].conj().T + cs[j].conj().T @ cs[i]
                expected = np.eye(dim) if i == j else np.zeros((dim, dim))
                assert np.abs(mixed - expected).max() <= 1e-12

    def test_single_boson_number_operator(self):
        model = FockModel(BOSON, (0.0,), boson_cutoff=3)
        (c,) = build_mode_operators(model)
        assert np.allclose(c.conj().T @ c, np.diag([0.0, 1.0, 2.0, 3.0]))

    def test_boson_commutation_below_cutoff(self):
        model = FockModel(BOSON, (0.0, 1.0), boson_cutoff=4)
        cs = build_mode_operators(model)
        below = [
            idx
            for idx in range(model.fock_dim)
            if max(model.occupancy_of_index(idx)) < model.boson_cutoff
        ]
        for i in range(2):
            for j in range(2):
                comm = cs[i] @ cs[j].conj().T - cs[j].conj().T @ cs[i]
                expected = np.eye(model.fock_dim) if i == j else np.zeros_like(comm)
                sub = np.ix_(below, below)
                assert np.abs((comm - expected)[sub]).max() <= 1e-12

    def test_mode_count_limit(self):
        with pytest.raises(ValueError, match="modes"):
            fermion_model(5)

    def test_boson_dimension_limit(self):
        with pytest.raises(ValueError, match="exceeds limit"):
            FockModel(BOSON, (0.0,) * 4, boson_cutoff=10)

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"rates": {(1, 0): float("nan")}}, r"rates\[\(1,0\)\]"),
            ({"rates": {(1, 0): float("inf")}}, r"rates\[\(1,0\)\]"),
            ({"boson_cutoff": True}, "boson_cutoff"),
        ],
        ids=["nan_rate", "inf_rate", "bool_cutoff"],
    )
    def test_malformed_model_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            FockModel(FERMION, (0.0, 1.0), **kwargs)

    def test_occupancy_indexing_little_endian(self):
        model = fermion_model(3)
        assert model.occupancy_of_index(0b101) == (1, 0, 1)
        nops = number_operators(model)
        for k in range(3):
            diag = np.diag(nops[k]).real
            expected = [model.occupancy_of_index(i)[k] for i in range(8)]
            assert np.allclose(diag, expected)


class TestFockLindblad:
    def test_no_rates_is_pure_commutator(self):
        model = fermion_model(2, energies=(0.0, 0.8))
        rng = np.random.default_rng(0)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        h = fock_hamiltonian(model)
        assert np.allclose(rhs_fock_lindblad(model, rho), -1j * (h @ rho - rho @ h))

    def test_single_jump_feeds_destination_at_unit_rate(self):
        model = fermion_model(2, rates={(1, 0): 1.0})
        rho = product_diagonal_state(model, [1.0, 0.0])
        n1 = number_operators(model)[1]
        deriv = np.trace(n1 @ rhs_fock_lindblad(model, rho)).real
        assert deriv == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.parametrize("stats", [FERMION, BOSON])
    def test_traceless_and_hermitian(self, stats):
        if stats is FERMION:
            model = fermion_model(3, rates={(1, 0): 0.7, (2, 1): 0.4, (0, 2): 0.2})
        else:
            model = FockModel(BOSON, (0.0, 1.0), {(1, 0): 0.7, (0, 1): 0.3}, boson_cutoff=3)
        rng = np.random.default_rng(1)
        d = model.fock_dim
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        out = rhs_fock_lindblad(model, rho)
        assert abs(np.trace(out)) <= 1e-12
        assert hermiticity_defect(out) <= 1e-12

    @pytest.mark.parametrize(
        "model",
        [
            fermion_model(3, rates={(1, 0): 0.7, (2, 1): 0.4, (0, 2): 0.2}, energies=(0.0, 0.5, 1.3)),
            fermion_model(4, rates={(1, 0): 0.9, (2, 1): 0.4, (3, 2): 0.6, (0, 3): 0.2, (2, 0): 0.3},
                          energies=(0.0, 0.4, 0.9, 1.7)),
            FockModel(BOSON, (0.0, 0.6, 1.1), {(1, 0): 0.7, (0, 1): 0.3, (2, 1): 0.5, (1, 2): 0.2,
                                               (0, 2): 0.4, (2, 0): 0.1}, boson_cutoff=3),
        ],
        ids=["fermion_3", "fermion_4", "boson_3_cutoff_3"],
    )
    def test_matches_per_jump_reference(self, model):
        # the oracle's former hand-written kernel, one sandwich per jump
        h = fock_hamiltonian(model)
        rng = np.random.default_rng(model.fock_dim)
        d = model.fock_dim
        for _ in range(4):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = g @ g.conj().T
            rho /= np.trace(rho).real
            ref = -1j * (h @ rho - rho @ h)
            for a in fock_jump_operators(model):
                ad = a.conj().T
                ref -= 0.5 * (ad @ a @ rho + rho @ ad @ a)
                ref += a @ rho @ ad
            assert np.abs(rhs_fock_lindblad(model, rho) - ref).max() <= 1e-14

    def test_flow_is_built_once_and_leaves_equality_alone(self):
        model = fermion_model(2, rates={(1, 0): 1.0})
        assert model.flow is model.flow
        assert model == fermion_model(2, rates={(1, 0): 1.0})
        assert "flow" not in repr(model)

    def test_jump_operator_shapes(self):
        model = fermion_model(2, rates={(1, 0): 2.0})
        (a,) = fock_jump_operators(model)
        # sqrt(2) c_1^dag c_0 moves |01> (index 1) to |10> (index 2)
        assert a[2, 1] == pytest.approx(np.sqrt(2.0))


class TestReduction:
    def test_single_particle_state(self):
        model = fermion_model(2)
        rho = product_diagonal_state(model, [1.0, 0.0])
        assert np.allclose(reduce_one_particle(model, rho), np.diag([1.0, 0.0]))

    def test_vacuum_reduces_to_zero(self):
        model = fermion_model(2)
        rho = product_diagonal_state(model, [0.0, 0.0])
        assert not np.any(reduce_one_particle(model, rho))

    def test_coherent_superposition(self):
        # (|mode0> + |mode1>)/sqrt(2) reduces to the rank-one matrix [[1,1],[1,1]]/2
        model = fermion_model(2)
        psi = np.zeros(4, dtype=complex)
        psi[0b01] = 1 / np.sqrt(2)
        psi[0b10] = 1 / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert np.allclose(reduce_one_particle(model, rho), 0.5 * np.ones((2, 2)))

    def test_trace_counts_particles(self):
        model = fermion_model(3)
        rho = product_diagonal_state(model, [0.9, 0.4, 0.2])
        assert np.trace(reduce_one_particle(model, rho)).real == pytest.approx(1.5)


class TestProductStates:
    def test_fermion_probabilities(self):
        model = fermion_model(2)
        rho = product_diagonal_state(model, [0.7, 0.2])
        assert np.trace(rho).real == pytest.approx(1.0)
        assert is_product_diagonal(model, rho)
        occ = np.diag(reduce_one_particle(model, rho)).real
        assert np.allclose(occ, [0.7, 0.2])

    def test_boson_fock_occupancies(self):
        model = FockModel(BOSON, (0.0, 1.0), boson_cutoff=4)
        rho = product_diagonal_state(model, [2, 1])
        occ = np.diag(reduce_one_particle(model, rho)).real
        assert np.allclose(occ, [2.0, 1.0])

    def test_fermion_probability_range(self):
        with pytest.raises(ValueError, match=r"occupations\[0\]"):
            product_diagonal_state(fermion_model(1), [1.2])

    def test_boson_requires_integer_below_cutoff(self):
        model = FockModel(BOSON, (0.0,), boson_cutoff=2)
        with pytest.raises(ValueError, match="integer"):
            product_diagonal_state(model, [0.5])
        with pytest.raises(ValueError, match="integer"):
            product_diagonal_state(model, [3])

    def test_diagonal_correlated_state_is_not_a_product(self):
        # equal weights on |01> and |10>: both marginals are (1/2, 1/2), yet
        # the joint weight of |00> is 0, not 1/4
        model = fermion_model(2)
        rho = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
        assert not is_product_diagonal(model, rho)
        assert is_product_diagonal(model, np.diag([0.25] * 4))

    def test_occupancy_table_rows(self):
        model = FockModel(BOSON, (0.0, 1.0, 2.0), boson_cutoff=2)
        d = model.level_dim
        assert model.occupancies.shape == (model.fock_dim, model.modes)
        for idx in range(model.fock_dim):
            occ = model.occupancy_of_index(idx)
            assert sum(o * d**k for k, o in enumerate(occ)) == idx

    def test_cutoff_contamination(self):
        model = FockModel(BOSON, (0.0,), boson_cutoff=2)
        rho = product_diagonal_state(model, [2])
        assert cutoff_contamination(model, rho) == pytest.approx(1.0)
        assert cutoff_contamination(model, product_diagonal_state(model, [0])) == 0.0
        two = FockModel(BOSON, (0.0, 1.0), boson_cutoff=2)
        assert cutoff_contamination(two, product_diagonal_state(two, [0, 2])) == pytest.approx(1.0)
        assert cutoff_contamination(two, product_diagonal_state(two, [1, 1])) == 0.0


class TestClosure:
    def test_two_mode_fermion_product(self):
        model = fermion_model(2, rates={(1, 0): 1.0})
        rho = product_diagonal_state(model, [1.0, 0.0])
        assert closure_residual_at_t0(model, rho) <= 1e-10

    def test_three_mode_fermion_fractional(self):
        model = fermion_model(
            3, rates={(1, 0): 0.8, (2, 1): 0.5, (0, 2): 0.3, (1, 2): 0.4}
        )
        rho = product_diagonal_state(model, [0.9, 0.4, 0.2])
        assert closure_residual_at_t0(model, rho) <= 1e-10

    def test_two_mode_boson_product(self):
        model = FockModel(BOSON, (0.0, 1.0), {(1, 0): 0.6, (0, 1): 0.9}, boson_cutoff=4)
        rho = product_diagonal_state(model, [2, 1])
        assert closure_residual_at_t0(model, rho) <= 1e-10

    def test_vacuum_residual_zero(self):
        model = fermion_model(2, rates={(1, 0): 1.0, (0, 1): 0.5})
        rho = product_diagonal_state(model, [0.0, 0.0])
        assert closure_residual_at_t0(model, rho) == 0.0

    def test_correlated_state_warns_and_reports_baseline(self):
        # equal-weight coherent sharing of one particle over two modes:
        # <N0 N1> = 0 but the closure uses f0*f1 = 1/4, so the residual is 1/4
        model = fermion_model(2, rates={(1, 0): 1.0})
        psi = np.zeros(4, dtype=complex)
        psi[0b01] = psi[0b10] = 1 / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        with pytest.warns(NonProductStateWarning):
            residual = closure_residual_at_t0(model, rho)
        assert residual == pytest.approx(0.25, abs=1e-12)


class TestExactEvolution:
    def test_psd_and_trace_preserved_over_long_run(self):
        model = fermion_model(2, rates={(1, 0): 1.0, (0, 1): 0.4})
        rho0 = product_diagonal_state(model, [0.8, 0.3])
        initial = DensityMatrix(rho0, FERMION)
        spec = EvolutionSpec(
            rhs=lambda t, r: rhs_fock_lindblad(model, r),
            t0=0.0, t1=10.0, dt=1e-3, record_every=100,
        )
        traj = evolve(spec, initial)  # 10^4 steps
        assert traj.min_eig.min() >= -1e-9
        assert np.abs(traj.trace - 1.0).max() <= 1e-9

    def test_particle_number_superselection(self):
        # coherence within one particle-number sector stays in that sector
        model = fermion_model(2, rates={(1, 0): 0.7, (0, 1): 0.2})
        psi = np.zeros(4, dtype=complex)
        psi[0b01] = psi[0b10] = 1 / np.sqrt(2)
        initial = DensityMatrix(np.outer(psi, psi.conj()), FERMION)
        n_total = sum(number_operators(model))
        spec = EvolutionSpec(
            rhs=lambda t, r: rhs_fock_lindblad(model, r),
            t0=0.0, t1=1.0, dt=1e-3, record_every=200,
        )
        traj = evolve(spec, initial)
        for state in traj.states:
            assert np.abs(n_total @ state - state @ n_total).max() <= 1e-10

    def test_dim_mismatch(self):
        model = fermion_model(2)
        with pytest.raises(ValueError, match="dimension mismatch"):
            rhs_fock_lindblad(model, np.eye(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            reduce_one_particle(model, np.eye(3))
