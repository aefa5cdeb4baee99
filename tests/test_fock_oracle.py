import warnings

import numpy as np
import pytest

from fock_reference import (
    fock_hamiltonian,
    fock_jump_operators,
    hop_operator,
    mode_operators,
    number_operators,
    table_operator,
)
from qme.dynamics import JumpFlow
from qme.fock_oracle import (
    FockFlow,
    FockModel,
    NonProductStateWarning,
    PopulationFlow,
    closure_residual_at_t0,
    cutoff_contamination,
    is_product_diagonal,
    product_populations,
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


def random_density_matrix(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def dense_lindblad(h, jumps, rho):
    """The many-body equation written out with dense products, one sandwich per jump."""
    out = -1j * (h @ rho - rho @ h)
    for a in jumps:
        ad = a.conj().T
        out += a @ rho @ ad - 0.5 * (ad @ a @ rho + rho @ ad @ a)
    return out


REFERENCE_MODELS = {
    "fermion_3": fermion_model(3, rates={(1, 0): 0.7, (2, 1): 0.4, (0, 2): 0.2}, energies=(0.0, 0.5, 1.3)),
    "fermion_4": fermion_model(4, rates={(1, 0): 0.9, (2, 1): 0.4, (3, 2): 0.6, (0, 3): 0.2, (2, 0): 0.3},
                               energies=(0.0, 0.4, 0.9, 1.7)),
    "boson_3_cutoff_3": FockModel(BOSON, (0.0, 0.6, 1.1), {(1, 0): 0.7, (0, 1): 0.3, (2, 1): 0.5,
                                                           (1, 2): 0.2, (0, 2): 0.4, (2, 0): 0.1},
                                  boson_cutoff=3),
    "boson_2_cutoff_1": FockModel(BOSON, (0.0, 0.8), {(1, 0): 0.6, (0, 1): 0.9}, boson_cutoff=1),
    "boson_1_mode": FockModel(BOSON, (0.7,), boson_cutoff=3),
    "fermion_3_no_rates": fermion_model(3, energies=(0.0, 0.5, 1.3)),
}


class TestModeOperators:
    def test_single_fermion_mode_is_canonical(self):
        (c,) = mode_operators(fermion_model(1))
        assert np.array_equal(c, [[0, 1], [0, 0]])
        assert np.allclose(c @ c.conj().T + c.conj().T @ c, np.eye(2))

    @pytest.mark.parametrize("modes", [2, 3, 4])
    def test_fermion_anticommutation(self, modes):
        cs = mode_operators(fermion_model(modes))
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
        (c,) = mode_operators(model)
        assert np.allclose(c.conj().T @ c, np.diag([0.0, 1.0, 2.0, 3.0]))

    def test_boson_commutation_below_cutoff(self):
        model = FockModel(BOSON, (0.0, 1.0), boson_cutoff=4)
        cs = mode_operators(model)
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
        with pytest.raises(ValueError, match="^modes: "):
            fermion_model(5)

    def test_boson_dimension_limit(self):
        with pytest.raises(ValueError, match="^boson_cutoff: boson Fock dimension 14641 exceeds limit"):
            FockModel(BOSON, (0.0,) * 4, boson_cutoff=10)
        # a cutoff past the limit is refused as such, and echoed shortened
        with pytest.raises(ValueError, match=r"^boson_cutoff: must lie in \[1, 1023\], got 1000.{,40}$"):
            FockModel(BOSON, (0.0,), boson_cutoff=10**3000)
        # past the 4300 digits repr accepts, the echo is the bit length
        huge = r"^boson_cutoff: must lie in \[1, 1023\], got an integer of 16610 bits$"
        with pytest.raises(ValueError, match=huge):
            FockModel(BOSON, (0.0,), boson_cutoff=10**5000)

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"rates": {(1, 0): float("nan")}}, r"rates\[\(1,0\)\]"),
            ({"rates": {(1, 0): float("inf")}}, r"rates\[\(1,0\)\]"),
            ({"boson_cutoff": True}, "boson_cutoff"),
            # a fermion model ignores the cutoff but refuses a malformed one
            ({"boson_cutoff": -5}, r"^boson_cutoff: must lie in \[1, 1023\], got -5$"),
        ],
        ids=["nan_rate", "inf_rate", "bool_cutoff", "negative_cutoff"],
    )
    def test_malformed_model_rejected(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            FockModel(FERMION, (0.0, 1.0), **kwargs)

    @pytest.mark.parametrize("index", [-1, -8, 8, 100])
    def test_occupancy_index_out_of_range(self, index):
        # a negative index must not wrap around to the last basis states
        with pytest.raises(IndexError, match="out of range"):
            fermion_model(3).occupancy_of_index(index)

    def test_occupancy_indexing_little_endian(self):
        model = fermion_model(3)
        assert model.occupancy_of_index(0b101) == (1, 0, 1)
        nops = number_operators(model)
        for k in range(3):
            diag = np.diag(nops[k]).real
            expected = [model.occupancy_of_index(i)[k] for i in range(8)]
            assert np.allclose(diag, expected)


#: Fermion models of 1 to 4 modes and the boson models of REFERENCE_MODELS.
HOP_MODELS = {f"fermion_{m}_modes": fermion_model(m) for m in range(1, 5)} | {
    name: model for name, model in REFERENCE_MODELS.items() if model.statistics is BOSON
}


class TestHopTable:
    """The one occupancy rule behind every operator of the package, against
    the Kronecker-product reference."""

    @pytest.mark.parametrize("model", HOP_MODELS.values(), ids=HOP_MODELS.keys())
    def test_equals_the_reference_monomials(self, model):
        for dest in range(model.modes):
            for src in range(model.modes):
                i, j, *_ = model._hops(dest, src)
                # a monomial, listed by increasing source state
                assert np.all(np.diff(i) > 0) and len(np.unique(j)) == len(j)
                table = table_operator(model, dest, src)
                assert np.abs(table - hop_operator(model, dest, src)).max() <= 1e-15

    @pytest.mark.parametrize("model", REFERENCE_MODELS.values(), ids=REFERENCE_MODELS.keys())
    def test_population_rates_are_w_n_src_n_dest_plus_one(self, model):
        # rate by rate, in increasing source state, rounded as w * n_src * (n_dest + 1)
        occ, top = model.occupancies, model.level_dim - 1
        src, dst, rate = [], [], []
        for (dest, source), w in model.rates.items():
            n_src, n_dest = occ[:, source], occ[:, dest]
            i = np.flatnonzero((n_src > 0) & (n_dest < top))
            src += i.tolist()
            dst += (i - model.level_dim**source + model.level_dim**dest).tolist()
            rate += (w * n_src[i] * (n_dest[i] + 1)).tolist()
        flow = model.populations
        assert np.array_equal(flow.src, src) and np.array_equal(flow.dst, dst)
        assert np.array_equal(flow.rate, rate)


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
        rho = np.diag(product_populations(model, [1.0, 0.0]))
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

    @pytest.mark.parametrize("model", REFERENCE_MODELS.values(), ids=REFERENCE_MODELS.keys())
    def test_matches_per_jump_reference(self, model):
        # on full (coherent) states; the shared JumpFlow with the adjoint
        # jumps is the same equation
        h = fock_hamiltonian(model)
        jumps = fock_jump_operators(model)
        dense = JumpFlow(h, [a.conj().T for a in jumps], None)
        rng = np.random.default_rng(model.fock_dim)
        for _ in range(4):
            rho = random_density_matrix(rng, model.fock_dim)
            out = rhs_fock_lindblad(model, rho)
            assert np.abs(out - dense_lindblad(h, jumps, rho)).max() <= 1e-14
            assert np.abs(out - dense(0.0, rho)).max() <= 1e-14
            # the kernel reads rho by flat index, so a Fortran-ordered copy gives the same result
            assert np.array_equal(rhs_fock_lindblad(model, np.asfortranarray(rho)), out)

    @pytest.mark.parametrize("model", REFERENCE_MODELS.values(), ids=REFERENCE_MODELS.keys())
    def test_jumps_move_each_basis_state_to_one_basis_state(self, model):
        for a in fock_jump_operators(model):
            assert (np.count_nonzero(a, axis=0) <= 1).all()
            assert (np.count_nonzero(a, axis=1) <= 1).all()

    def test_flow_matches_dense_formula_for_complex_jumps(self):
        # partial permutations with complex weights: the gain weight must be a_k conj(a_k')
        rng = np.random.default_rng(5)
        d = 6
        energies = rng.standard_normal(d)
        tables, dense = [], []
        for _ in range(3):
            i, j = rng.permutation(d)[:4], rng.permutation(d)[:4]
            a = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            tables.append((i, j, a))
            dense.append(np.zeros((d, d), dtype=complex))
            dense[-1][j, i] = a
        rho = random_density_matrix(rng, d)
        out = FockFlow(energies, tables)(0.0, rho)
        assert np.abs(out - dense_lindblad(np.diag(energies), dense, rho)).max() <= 1e-14

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


#: The models of the population-flow checks, and a product start of each.
POPULATION_STARTS = {
    "fermion_4": [0.9, 0.35, 0.6, 0.05],
    "boson_3_cutoff_3": [3, 0, 2],  # modes 0 and 2 start at the cutoff
    "boson_2_cutoff_1": [1, 1],
    "boson_1_mode": [3],
    "fermion_3_no_rates": [0.25, 1.0, 0.5],
}


def coherent_diagonal(model, p):
    """The diagonal of the coherent flow on the diagonal state with populations p."""
    out = model.flow(0.0, np.diag(p).astype(complex))
    # a diagonal state stays diagonal: no coherence is created, no imaginary part
    assert not np.any(out - np.diag(np.diag(out)))
    assert not np.any(np.diag(out).imag)
    return np.diag(out).real


class TestPopulationFlow:
    @pytest.mark.parametrize("name", POPULATION_STARTS)
    def test_equals_the_coherent_diagonal(self, name):
        model = REFERENCE_MODELS[name]
        rng = np.random.default_rng(model.fock_dim + 7)
        starts = [product_populations(model, POPULATION_STARTS[name])]
        starts += [rng.dirichlet(np.ones(model.fock_dim)) for _ in range(4)]
        for p in starts:
            out = model.populations(0.0, p)
            assert out.shape == (model.fock_dim,)
            assert np.abs(out - coherent_diagonal(model, p)).max() <= 1e-13
            assert abs(out.sum()) <= 1e-15

    @pytest.mark.parametrize("occupations", [[0.5, 0.5, 0.5, 0.5], [0.1, 0.9, 0.3, 0.7], [1, 1, 0, 1]])
    def test_fractional_fermion_products(self, occupations):
        model = REFERENCE_MODELS["fermion_4"]
        p = product_populations(model, occupations)
        assert np.abs(model.populations(0.0, p) - coherent_diagonal(model, p)).max() <= 1e-13

    def test_transition_table(self):
        # one fermion jump 0 -> 1 at rate 2 moves index 1 (mode 0 filled) to
        # index 2 (mode 1 filled), and index 5 to 6 with mode 2 filled too, each
        # at the bare rate
        model = fermion_model(3, rates={(1, 0): 2.0})
        flow = model.populations
        assert flow.src.tolist() == [1, 5]
        assert flow.dst.tolist() == [2, 6]
        assert flow.rate.tolist() == [2.0, 2.0]
        # bosons at cutoff 2 (index n0 + 3 n1): rate w n_src (n_dest + 1), and
        # nothing moves into a mode at the cutoff, so (1, 2) and (2, 2) stay
        boson = FockModel(BOSON, (0.0, 0.0), {(1, 0): 0.5}, boson_cutoff=2)
        flow = boson.populations
        table = dict(zip(zip(flow.src.tolist(), flow.dst.tolist()), flow.rate.tolist()))
        assert table == {(1, 3): 0.5, (2, 4): 1.0, (4, 6): 1.0, (5, 7): 2.0}

    def test_built_with_the_model(self):
        model = fermion_model(2, rates={(1, 0): 1.0})
        assert model.populations is model.populations
        assert isinstance(model.populations, PopulationFlow)
        assert "populations" not in repr(model)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"energies": (1e308, -1e308)}, "energies: the many-body energy differences overflow"),
            ({"energies": (1e308, 1e308)}, "energies: the many-body energy differences overflow"),
            ({"rates": {(1, 0): 1e308}}, "rates: the many-body transition rates overflow"),
            # either direction alone is admitted, both together overflow the drain
            ({"rates": {(1, 0): 6e307, (0, 1): 6e307}}, "rates: the many-body transition rates"),
        ],
        ids=["energy_spread", "energy_sum", "rate", "rate_total"],
    )
    def test_overflowing_generator_is_refused(self, kwargs, message):
        kwargs = {"energies": (0.0, 1.0), **kwargs}
        with pytest.raises(ValueError, match=message):
            FockModel(FERMION, **kwargs)

    def test_boson_rate_overflow_counts_the_occupation_factors(self):
        # 1e307 is finite, but w n_src (n_dest + 1) reaches 4 x 5 x 1e307
        with pytest.raises(ValueError, match="rates: "):
            FockModel(BOSON, (0.0, 1.0), {(1, 0): 1e307}, boson_cutoff=4)
        FockModel(BOSON, (0.0, 1.0), {(1, 0): 1e300}, boson_cutoff=4)
        FockModel(FERMION, (0.0, 1.0), {(1, 0): 6e307})


class TestReduction:
    @pytest.mark.parametrize("name", POPULATION_STARTS)
    def test_populations_reduce_like_their_diagonal_state(self, name):
        model = REFERENCE_MODELS[name]
        product = product_populations(model, POPULATION_STARTS[name])
        for p in (np.random.default_rng(3).dirichlet(np.ones(model.fock_dim)), product):
            rho = np.diag(p).astype(complex)
            assert np.abs(reduce_one_particle(model, p) - reduce_one_particle(model, rho)).max() <= 1e-15
            assert cutoff_contamination(model, p) == cutoff_contamination(model, rho)
        # the closure reads the exact derivative from the population flow
        closure = closure_residual_at_t0(model, product)
        assert abs(closure - closure_residual_at_t0(model, np.diag(product))) <= 1e-14

    def test_single_particle_state(self):
        model = fermion_model(2)
        rho = np.diag(product_populations(model, [1.0, 0.0]))
        assert np.allclose(reduce_one_particle(model, rho), np.diag([1.0, 0.0]))

    def test_vacuum_reduces_to_zero(self):
        model = fermion_model(2)
        rho = np.diag(product_populations(model, [0.0, 0.0]))
        assert not np.any(reduce_one_particle(model, rho))

    def test_coherent_superposition(self):
        # (|mode0> + |mode1>)/sqrt(2) reduces to the rank-one matrix [[1,1],[1,1]]/2
        model = fermion_model(2)
        psi = np.zeros(4, dtype=complex)
        psi[0b01] = 1 / np.sqrt(2)
        psi[0b10] = 1 / np.sqrt(2)
        rho = np.outer(psi, psi.conj())
        assert np.allclose(reduce_one_particle(model, rho), 0.5 * np.ones((2, 2)))

    @pytest.mark.parametrize("name", ["fermion_4", "boson_3_cutoff_3", "boson_1_mode"])
    def test_matches_dense_trace_formula(self, name):
        model = REFERENCE_MODELS[name]
        cs = mode_operators(model)
        rng = np.random.default_rng(model.fock_dim + 1)
        for _ in range(3):
            rho = random_density_matrix(rng, model.fock_dim)
            ref = np.array([[np.trace(cn.conj().T @ cn2 @ rho) for cn2 in cs] for cn in cs])
            assert np.abs(reduce_one_particle(model, rho) - ref).max() <= 1e-14

    def test_trace_counts_particles(self):
        model = fermion_model(3)
        rho = np.diag(product_populations(model, [0.9, 0.4, 0.2]))
        assert np.trace(reduce_one_particle(model, rho)).real == pytest.approx(1.5)


class TestProductStates:
    def test_fermion_probabilities(self):
        model = fermion_model(2)
        p = product_populations(model, [0.7, 0.2])
        assert p.shape == (4,) and p.sum() == pytest.approx(1.0)
        assert is_product_diagonal(model, p)
        occ = np.diag(reduce_one_particle(model, p)).real
        assert np.allclose(occ, [0.7, 0.2])

    def test_boson_fock_occupancies(self):
        model = FockModel(BOSON, (0.0, 1.0), boson_cutoff=4)
        p = product_populations(model, [2, 1])
        occ = np.diag(reduce_one_particle(model, p)).real
        assert np.allclose(occ, [2.0, 1.0])

    @pytest.mark.parametrize("name", POPULATION_STARTS)
    def test_populations_are_the_kronecker_product(self, name):
        model, occupations = REFERENCE_MODELS[name], POPULATION_STARTS[name]
        # each mode's occupation distribution as a diagonal matrix, mode 0 the last factor
        rho = np.eye(1, dtype=complex)
        for occ in reversed(occupations):
            local = [1 - occ, occ] if model.statistics is FERMION else np.eye(model.level_dim)[occ]
            rho = np.kron(rho, np.diag(local).astype(complex))
        p = product_populations(model, occupations)
        assert p.dtype == float and np.array_equal(p, np.diag(rho).real)
        assert abs(p.sum() - 1.0) <= 1e-15

    def test_fermion_probability_range(self):
        with pytest.raises(ValueError, match=r"occupations\[0\]"):
            product_populations(fermion_model(1), [1.2])

    def test_boson_requires_integer_below_cutoff(self):
        model = FockModel(BOSON, (0.0,), boson_cutoff=2)
        with pytest.raises(ValueError, match="integer"):
            product_populations(model, [0.5])
        with pytest.raises(ValueError, match="integer"):
            product_populations(model, [3])

    def test_diagonal_correlated_state_is_not_a_product(self):
        # equal weights on |01> and |10>: both marginals are (1/2, 1/2), yet
        # the joint weight of |00> is 0, not 1/4
        model = fermion_model(2)
        rho = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
        assert not is_product_diagonal(model, rho)
        assert not is_product_diagonal(model, np.diag(rho))
        assert is_product_diagonal(model, np.diag([0.25] * 4))
        assert is_product_diagonal(model, np.full(4, 0.25))

    def test_occupancy_table_rows(self):
        model = FockModel(BOSON, (0.0, 1.0, 2.0), boson_cutoff=2)
        d = model.level_dim
        assert model.occupancies.shape == (model.fock_dim, model.modes)
        for idx in range(model.fock_dim):
            occ = model.occupancy_of_index(idx)
            assert sum(o * d**k for k, o in enumerate(occ)) == idx

    def test_cutoff_contamination(self):
        model = FockModel(BOSON, (0.0,), boson_cutoff=2)
        rho = np.diag(product_populations(model, [2]))
        assert cutoff_contamination(model, rho) == pytest.approx(1.0)
        assert cutoff_contamination(model, product_populations(model, [0])) == 0.0
        two = FockModel(BOSON, (0.0, 1.0), boson_cutoff=2)
        assert cutoff_contamination(two, product_populations(two, [0, 2])) == pytest.approx(1.0)
        assert cutoff_contamination(two, product_populations(two, [1, 1])) == 0.0


class TestClosure:
    def test_two_mode_fermion_product(self):
        model = fermion_model(2, rates={(1, 0): 1.0})
        p = product_populations(model, [1.0, 0.0])
        assert max(closure_residual_at_t0(model, s) for s in (p, np.diag(p))) <= 1e-10

    def test_three_mode_fermion_fractional(self):
        model = fermion_model(
            3, rates={(1, 0): 0.8, (2, 1): 0.5, (0, 2): 0.3, (1, 2): 0.4}
        )
        p = product_populations(model, [0.9, 0.4, 0.2])
        assert max(closure_residual_at_t0(model, s) for s in (p, np.diag(p))) <= 1e-10

    def test_two_mode_boson_product(self):
        model = FockModel(BOSON, (0.0, 1.0), {(1, 0): 0.6, (0, 1): 0.9}, boson_cutoff=4)
        p = product_populations(model, [2, 1])
        assert max(closure_residual_at_t0(model, s) for s in (p, np.diag(p))) <= 1e-10

    def test_vacuum_residual_zero(self):
        model = fermion_model(2, rates={(1, 0): 1.0, (0, 1): 0.5})
        p = product_populations(model, [0.0, 0.0])
        assert closure_residual_at_t0(model, p) == closure_residual_at_t0(model, np.diag(p)) == 0.0

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
        rho0 = np.diag(product_populations(model, [0.8, 0.3]))
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
        with pytest.raises(ValueError, match="dimension mismatch"):
            reduce_one_particle(model, np.ones(3) / 3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            closure_residual_at_t0(model, np.ones(3) / 3)
