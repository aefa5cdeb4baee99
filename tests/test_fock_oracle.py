import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fock_reference import (
    fock_hamiltonian,
    fock_jump_operators,
    hop_operator,
    level_count,
    mode_operators,
    number_operators,
    population_generator,
)
from qme.dynamics import JumpFlow, OccupationFlow
from qme.fock_oracle import (
    MAX_STATES,
    FockFlow,
    FockModel,
    NonProductStateWarning,
    PopulationFlow,
    closure_residual_at_t0,
    is_product_diagonal,
    product_populations,
    reduce_one_particle,
    rhs_fock_lindblad,
    start_sectors,
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


def table_operator(model, dest: int, src: int) -> np.ndarray:
    """c_dest^dag c_src as the package builds it, from its hop table."""
    i, j, n_src, n_dest, sign = model._hops(dest, src)
    out = np.zeros((model.dim, model.dim), dtype=complex)
    out[j, i] = sign * np.sqrt(n_src * n_dest)
    return out


def population_matrix(flow: PopulationFlow) -> np.ndarray:
    """The generator G of a population flow, dp/dt = G p, as a dense matrix."""
    g = np.zeros((flow.dim, flow.dim))
    np.add.at(g, (flow.dst, flow.src), flow.rate)
    return g - np.diag(np.bincount(flow.src, flow.rate, minlength=flow.dim))


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


BOSON_RATES = {(1, 0): 0.7, (0, 1): 0.3, (2, 1): 0.5, (1, 2): 0.2, (0, 2): 0.4, (2, 0): 0.1}

REFERENCE_MODELS = {
    "fermion_3": fermion_model(3, rates={(1, 0): 0.7, (2, 1): 0.4, (0, 2): 0.2}, energies=(0.0, 0.5, 1.3)),
    "fermion_4": fermion_model(4, rates={(1, 0): 0.9, (2, 1): 0.4, (3, 2): 0.6, (0, 3): 0.2, (2, 0): 0.3},
                               energies=(0.0, 0.4, 0.9, 1.7)),
    "boson_3_N_2_to_5": FockModel(BOSON, (0.0, 0.6, 1.1), BOSON_RATES, sectors=(2, 3, 4, 5)),
    "boson_2_N_2": FockModel(BOSON, (0.0, 0.8), {(1, 0): 0.6, (0, 1): 0.9}, sectors=(2,)),
    "boson_1_mode": FockModel(BOSON, (0.7,), sectors=(3,)),
    "fermion_3_no_rates": fermion_model(3, energies=(0.0, 0.5, 1.3)),
}


def ring_rates(modes):
    """Rates between neighbouring modes of a ring, both ways, all distinct."""
    return {(d, s): 0.2 + 0.1 * (3 * d + s) for d in range(modes) for s in range(modes)
            if d != s and (d - s) % modes in (1, modes - 1)}


#: One model per sector: fermions of up to 4 modes at every N, bosons of up to
#: 3 modes at N <= 4; and the fermion models of every sector at once.
SECTOR_MODELS = {
    f"{stats.value}_{m}_modes_N_{n}": FockModel(stats, tuple(0.3 * k + 0.1 for k in range(m)),
                                                ring_rates(m), sectors=(n,))
    for stats, modes, numbers in ((FERMION, range(1, 5), lambda m: range(m + 1)),
                                  (BOSON, range(1, 4), lambda m: range(5)))
    for m in modes for n in numbers(m)
} | {f"fermion_{m}_modes": fermion_model(m, rates=ring_rates(m)) for m in range(1, 5)}


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
        model = FockModel(BOSON, (0.0,), sectors=(3,))
        (c,) = mode_operators(model)
        assert np.allclose(c.conj().T @ c, np.diag([0.0, 1.0, 2.0, 3.0]))

    def test_boson_commutation_below_cutoff(self):
        # the reference's full space stops one level above the largest sector
        model = FockModel(BOSON, (0.0, 1.0), sectors=(4,))
        cs, levels = mode_operators(model), level_count(model)
        occupations = np.arange(levels**2)[:, None] // levels ** np.arange(2) % levels
        below = np.flatnonzero(occupations.max(axis=1) < levels - 1)
        for i in range(2):
            for j in range(2):
                comm = cs[i] @ cs[j].conj().T - cs[j].conj().T @ cs[i]
                expected = np.eye(levels**2) if i == j else np.zeros_like(comm)
                sub = np.ix_(below, below)
                assert np.abs((comm - expected)[sub]).max() <= 1e-12

    def test_basis_size_limit(self):
        # every fermion sector of 18 modes is 2^18 states
        with pytest.raises(ValueError, match=f"^sectors: .* 18 modes exceeds the limit of {MAX_STATES}"):
            fermion_model(18)
        assert fermion_model(17, rates={(1, 0): 1.0}).dim == MAX_STATES == 2**17
        assert FockModel(FERMION, (0.0,) * 17, sectors=(8, 9)).dim == 2 * math.comb(17, 8)

    def test_boson_sector_limit(self):
        # 3 modes: N = 510 is C(512, 2) = 130816 states, N = 511 is C(513, 2) = 131328
        assert math.comb(512, 2) <= MAX_STATES < math.comb(513, 2)
        with pytest.raises(ValueError, match="^sectors: .* exceeds the limit"):
            FockModel(BOSON, (0.0, 1.0, 2.0), sectors=(511,))
        # sized by math.comb, so a huge N is refused at once, and not echoed
        for n in (10**6, 10**30, 10**5000):
            with pytest.raises(ValueError, match="^sectors: the basis of these particle numbers"):
                FockModel(BOSON, (0.0, 1.0, 2.0), sectors=(n,))

    @pytest.mark.parametrize(
        "statistics,modes,sector",
        [(FERMION, 64, 1), (FERMION, 63, 1), (BOSON, 1, 10**10)],
        ids=["fermion_64_modes", "fermion_63_modes", "boson_1_mode_huge_N"],
    )
    def test_a_key_past_int64_is_refused(self, statistics, modes, sector):
        # one sector of few states, but N * r**modes leaves int64
        with pytest.raises(ValueError, match="^sectors: the basis key .* does not fit in int64$"):
            FockModel(statistics, (0.0,) * modes, sectors=(sector,))
        # 62 modes at N = 1: the largest key is 2^62 + 2^61
        assert FockModel(FERMION, (0.0,) * 62, sectors=(1,))._keys[-1] == 2**62 + 2**61

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"rates": {(1, 0): float("nan")}}, r"rates\[\(1,0\)\]"),
            ({"rates": {(1, 0): float("inf")}}, r"rates\[\(1,0\)\]"),
            ({"sectors": (True,)}, "^sectors: expected nonnegative particle numbers"),
            ({"sectors": (-1,)}, "^sectors: expected nonnegative particle numbers"),
            ({"sectors": (1.0,)}, "^sectors: expected nonnegative particle numbers"),
            ({"sectors": ()}, "^sectors: expected nonnegative particle numbers"),
            # a fermion sector holds at most one particle a mode
            ({"sectors": (3,)}, "^sectors: .*, at most 2 for fermions$"),
            ({"statistics": BOSON}, "^sectors: a boson model needs its particle numbers$"),
            ({"energies": ()}, "^modes: "),
        ],
        ids=["nan_rate", "inf_rate", "bool_sector", "negative_sector", "float_sector",
             "no_sector", "fermion_sector_over_the_modes", "boson_without_sectors", "no_mode"],
    )
    def test_malformed_model_rejected(self, kwargs, field):
        kwargs = {"statistics": FERMION, "energies": (0.0, 1.0), **kwargs}
        with pytest.raises(ValueError, match=field):
            FockModel(**kwargs)

    def test_basis_ranks_sectors_by_key(self):
        # three fermion modes: N = 0, then N = 1 by the key sum_k occ_k 2^k, ...
        model = fermion_model(3)
        assert model.occupancies.tolist() == [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                                              [1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]]
        assert not model.occupancies.flags.writeable
        nops = number_operators(model)
        for k in range(3):
            assert np.array_equal(np.diag(nops[k]).real, model.occupancies[:, k])
        assert model.sectors == (0, 1, 2, 3)
        # sectors are sorted and deduplicated
        assert FockModel(BOSON, (0.0, 1.0), sectors=[2, 0, 2]).sectors == (0, 2)

    @pytest.mark.parametrize("statistics", [FERMION, BOSON])
    def test_occupancy_table_holds_each_sector_once(self, statistics):
        model = FockModel(statistics, (0.0, 1.0, 2.0), sectors=(0, 2, 3))
        occ, r = model.occupancies, level_count(model)
        sizes = [math.comb(3, n) if statistics is FERMION else math.comb(n + 2, 2) for n in (0, 2, 3)]
        assert occ.shape == (model.dim, 3) and model.dim == sum(sizes)
        # every occupation tuple of the sectors, once, in increasing (N, key)
        n = occ.sum(axis=1)
        assert np.array_equal(np.bincount(n, minlength=4)[[0, 2, 3]], sizes)
        keys = n * r**3 + occ @ r ** np.arange(3)
        assert np.all(np.diff(keys) > 0)
        assert occ.max() <= (1 if statistics is FERMION else 3)


class TestStartSectors:
    @pytest.mark.parametrize(
        "statistics,occupations,sectors",
        [(FERMION, [1.0, 0.5, 0.0], range(1, 3)), (FERMION, [1.0, 0.0], range(1, 2)),
         (FERMION, [0.0, 0.0], range(0, 1)), (FERMION, [0.2, 0.9, 1.0, 0.4], range(1, 5)),
         (BOSON, [2, 1, 0], range(3, 4)), (BOSON, [0.0], range(0, 1))],
    )
    def test_sectors_of_a_product_start(self, statistics, occupations, sectors):
        assert start_sectors(statistics, occupations) == sectors

    @pytest.mark.parametrize(
        "statistics,occupations,message",
        [(FERMION, [0.5, 1.2], r"^occupations\[1\]: fermion occupation must lie in \[0, 1\]"),
         (FERMION, [float("nan")], r"^occupations\[0\]: fermion"),
         (BOSON, [0.5], r"^occupations\[0\]: boson occupancy must be a nonnegative integer"),
         (BOSON, [1, -1], r"^occupations\[1\]: boson occupancy"),
         (BOSON, [float("nan")], r"^occupations\[0\]: boson occupancy"),
         (BOSON, [float("inf")], r"^occupations\[0\]: boson occupancy")],
    )
    def test_malformed_occupations_name_their_entry(self, statistics, occupations, message):
        with pytest.raises(ValueError, match=message):
            start_sectors(statistics, occupations)


class TestHopTable:
    """The one occupancy rule behind every operator of the package, against
    the Kronecker-product reference."""

    @pytest.mark.parametrize("model", SECTOR_MODELS.values(), ids=SECTOR_MODELS.keys())
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
        # rate by rate, in increasing source state, rounded as w * n_src * (n_dest + 1),
        # each move found by its occupation tuple
        occ = model.occupancies
        index = {tuple(row): k for k, row in enumerate(occ.tolist())}
        src, dst, rate = [], [], []
        for (dest, source), w in model.rates.items():
            n_src, n_dest = occ[:, source], occ[:, dest]
            moves = n_src > 0
            if model.statistics is FERMION:
                moves &= n_dest == 0
            i = np.flatnonzero(moves)
            for k in i:
                moved = occ[k].copy()
                moved[source] -= 1
                moved[dest] += 1
                dst.append(index[tuple(moved.tolist())])
            src += i.tolist()
            rate += (w * n_src[i] * (n_dest[i] + 1)).tolist()
        flow = model.populations
        assert np.array_equal(flow.src, src) and np.array_equal(flow.dst, dst)
        assert np.array_equal(flow.rate, rate)


class TestSectorOperators:
    """Every operator of a sector model is the Kronecker construction of
    tests/fock_reference.py, restricted to the model's states."""

    @pytest.mark.parametrize("model", SECTOR_MODELS.values(), ids=SECTOR_MODELS.keys())
    def test_equals_the_restricted_kronecker_construction(self, model):
        # the reference evaluates the product state by state; as a check on
        # it, that equals the full-space matrices restricted by index
        r = level_count(model)
        place = model.occupancies @ r ** np.arange(model.modes)
        sub = np.ix_(place, place)
        cs = mode_operators(model)
        for dest in range(model.modes):
            for src in range(model.modes):
                full = cs[dest].conj().T @ cs[src]
                assert np.array_equal(hop_operator(model, dest, src), full[sub])
        # H: diagonal, the many-body energies
        h = fock_hamiltonian(model)
        assert not np.any(h - np.diag(np.diag(h)))
        assert np.abs(np.diag(h).real - model._state_energies).max() <= 1e-14
        # each number operator and each jump
        for n, n_op in enumerate(number_operators(model)):
            assert np.abs(table_operator(model, n, n) - n_op).max() <= 1e-15
        jumps = fock_jump_operators(model)
        assert len(model.flow._jumps) == len(jumps)
        for (i, j, a), ref in zip(model.flow._jumps, jumps):
            table = np.zeros((model.dim, model.dim), dtype=complex)
            table[j, i] = a
            assert np.abs(table - ref).max() <= 1e-15
        # the population flow
        assert np.abs(population_matrix(model.populations)
                      - population_generator(model).toarray()).max() <= 1e-14


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
            model = FockModel(BOSON, (0.0, 1.0), {(1, 0): 0.7, (0, 1): 0.3}, sectors=(0, 1, 2, 3))
        rng = np.random.default_rng(1)
        d = model.dim
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
        rng = np.random.default_rng(model.dim)
        for _ in range(4):
            rho = random_density_matrix(rng, model.dim)
            out = rhs_fock_lindblad(model, rho)
            assert np.abs(out - dense_lindblad(h, jumps, rho)).max() <= 1e-14
            assert np.abs(out - dense(0.0, rho)).max() <= 1e-14
            # the kernel reads rho by index, so a Fortran-ordered copy gives the same result
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
    "boson_3_N_2_to_5": [3, 0, 2],  # in the top sector
    "boson_2_N_2": [1, 1],
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


#: A product start for every model of REFERENCE_MODELS.
PRODUCT_STARTS = {**POPULATION_STARTS, "fermion_3": [0.8, 0.3, 0.55]}


def fresh(model):
    """An equal model with nothing cached yet."""
    return FockModel(model.statistics, model.energies, model.rates, model.sectors)


class TestFockFlowOnPopulations:
    """A 1-D state is the populations p of a diagonal state:
    `rhs_fock_lindblad` returns the coherent flow's diagonal on diag(p) from
    the jumps' nonzeros alone, one jump at a time, with no `FockFlow`."""

    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_is_the_matrix_diagonal_bit_for_bit(self, name):
        model = fresh(REFERENCE_MODELS[name])
        rng = np.random.default_rng(model.dim + 11)
        starts = [product_populations(model, PRODUCT_STARTS[name])]
        starts += [rng.dirichlet(np.ones(model.dim)) for _ in range(4)]
        outs = [rhs_fock_lindblad(model, p) for p in starts]
        assert "flow" not in vars(model)
        for p, out in zip(starts, outs):
            assert out.shape == (model.dim,) and out.dtype == float
            assert np.array_equal(out, coherent_diagonal(model, p))

    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_only_a_matrix_builds_the_coherent_flow(self, name):
        model = fresh(REFERENCE_MODELS[name])
        p = product_populations(model, PRODUCT_STARTS[name])
        rhs_fock_lindblad(model, p)
        assert "flow" not in vars(model)
        rhs_fock_lindblad(model, np.diag(p))
        assert "flow" in vars(model)

    @pytest.mark.parametrize("name", REFERENCE_MODELS)
    def test_matrix_calls_after_it_match_the_reference(self, name):
        model = fresh(REFERENCE_MODELS[name])
        rhs_fock_lindblad(model, product_populations(model, PRODUCT_STARTS[name]))
        h, jumps = fock_hamiltonian(model), fock_jump_operators(model)
        rng = np.random.default_rng(model.dim + 3)
        for _ in range(3):
            rho = random_density_matrix(rng, model.dim)
            assert np.abs(rhs_fock_lindblad(model, rho) - dense_lindblad(h, jumps, rho)).max() <= 1e-14

    def test_complex_jumps_weigh_by_their_modulus(self):
        # the gain of a complex amplitude a is |a|^2 = a conj(a)
        energies = np.array([0.0, 0.3, 1.1])
        flow = FockFlow(energies, [(np.array([0, 2]), np.array([1, 0]), np.array([0.6j, 0.3 - 0.4j]))])
        p = np.array([0.5, 0.2, 0.3])
        out = flow(0.0, np.diag(p).astype(complex))
        assert not np.any(out - np.diag(np.diag(out)))
        assert np.allclose(np.diag(out).real, [0.25 * 0.3 - 0.36 * 0.5, 0.36 * 0.5, -0.25 * 0.3])


def chain_model(modes):
    """Every sector of ``modes`` fermion modes, hopping both ways along a chain."""
    rates = {}
    for k in range(modes - 1):
        rates[(k + 1, k)] = 1.0 + 0.1 * k
        rates[(k, k + 1)] = 0.5 + 0.05 * k
    return fermion_model(modes, rates)


@pytest.mark.memory
def test_the_coherent_flow_holds_about_one_state():
    """After one coherent call at S = 256 (8 fermion modes, 14 rates) the
    model's flow holds its ``decay``, one state's bytes, and the jumps'
    nonzeros: no table of pairs of them."""
    rng = np.random.default_rng(8)
    # a warm-up call on another model: numpy's dispatch caches, filled on
    # first use, are not the call's to count, whatever test ran before this one
    warm = chain_model(3)
    rhs_fock_lindblad(warm, random_density_matrix(rng, warm.dim))
    model = chain_model(8)
    rho = random_density_matrix(rng, model.dim)
    assert model.dim == 256 and len(model.rates) == 14
    tracemalloc.start()
    try:
        out = rhs_fock_lindblad(model, rho)
        held = tracemalloc.get_traced_memory()[0] - out.nbytes
    finally:
        tracemalloc.stop()
    assert held <= 1.5 * rho.nbytes


#: The entry points that read a 1-D state as populations.
POPULATION_ENTRY_POINTS = {
    "rhs_fock_lindblad": rhs_fock_lindblad,
    "reduce_one_particle": reduce_one_particle,
    "closure_residual_at_t0": closure_residual_at_t0,
    "is_product_diagonal": is_product_diagonal,
}


def four_state_model(statistics):
    """Two modes and four basis states: every fermion sector, or 3 bosons."""
    return FockModel(statistics, (0.0, 1.0), {(1, 0): 1.0},
                     sectors=None if statistics is FERMION else (3,))


class TestPopulationInput:
    @pytest.mark.parametrize("entry", POPULATION_ENTRY_POINTS.values(), ids=POPULATION_ENTRY_POINTS.keys())
    @pytest.mark.parametrize("statistics", [FERMION, BOSON])
    @pytest.mark.parametrize(
        "bad,message",
        [(0.25 + 0.01j, "rho_s: populations must be real"),
         (np.nan, "rho_s: entries must be finite"),
         (np.inf, "rho_s: entries must be finite"),
         (-np.inf, "rho_s: entries must be finite")],
        ids=["complex", "nan", "inf", "minus_inf"],
    )
    def test_refused_not_coerced(self, entry, statistics, bad, message):
        model = four_state_model(statistics)
        p = np.full(4, 0.25, dtype=complex if isinstance(bad, complex) else float)
        p[2] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                entry(model, p)
            with pytest.raises(ValueError, match=message):
                entry(model, p.tolist())

    @pytest.mark.parametrize("entry", POPULATION_ENTRY_POINTS.values(), ids=POPULATION_ENTRY_POINTS.keys())
    @pytest.mark.parametrize("statistics", [FERMION, BOSON])
    @pytest.mark.parametrize(
        "rho_s,message",
        [(np.full((4, 4), np.nan), "rho_s: entries must be finite"),
         (np.eye(7) / 7.0, "dimension mismatch")],
        ids=["nan", "wrong_size"],
    )
    def test_matrix_refused(self, entry, statistics, rho_s, message):
        # a density matrix is read as checked as populations are: a NaN
        # matrix is not called a product state, and a 7 x 7 one on D = 4
        # names the mismatch rather than failing inside numpy
        model = four_state_model(statistics)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                entry(model, rho_s)

    def test_real_complex_and_negative_entries_pass(self):
        # a complex array with no imaginary part is its real part; a derivative
        # has negative entries and still reduces
        model = REFERENCE_MODELS["fermion_4"]
        p = product_populations(model, POPULATION_STARTS["fermion_4"])
        for entry in POPULATION_ENTRY_POINTS.values():
            assert np.array_equal(entry(model, p.astype(complex)), entry(model, p))
        deriv = rhs_fock_lindblad(model, p)
        assert (deriv < 0).any()
        assert np.array_equal(reduce_one_particle(model, deriv), model.occupancies.T @ deriv)
        assert closure_residual_at_t0(model, p) <= 1e-15


class TestPopulationFlow:
    @pytest.mark.parametrize("name", POPULATION_STARTS)
    def test_equals_the_coherent_diagonal(self, name):
        model = REFERENCE_MODELS[name]
        rng = np.random.default_rng(model.dim + 7)
        starts = [product_populations(model, POPULATION_STARTS[name])]
        starts += [rng.dirichlet(np.ones(model.dim)) for _ in range(4)]
        for p in starts:
            out = model.populations(0.0, p)
            assert out.shape == (model.dim,)
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
        # bosons in the sectors N = 1, 2 (states (1,0), (0,1) | (2,0), (1,1),
        # (0,2)): rate w n_src (n_dest + 1), and a sector is complete, so
        # every state with mode 0 filled moves
        boson = FockModel(BOSON, (0.0, 0.0), {(1, 0): 0.5}, sectors=(1, 2))
        assert boson.occupancies.tolist() == [[1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]
        flow = boson.populations
        table = dict(zip(zip(flow.src.tolist(), flow.dst.tolist()), flow.rate.tolist()))
        assert table == {(0, 1): 0.5, (2, 3): 1.0, (3, 4): 1.0}

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
        # 1e307 is finite, but at N = 4 the factors n_src (n_dest + 1) of the
        # four moves sum to 4 + 6 + 6 + 4 = 20, and twice 20 x 1e307 overflows
        with pytest.raises(ValueError, match="rates: "):
            FockModel(BOSON, (0.0, 1.0), {(1, 0): 1e307}, sectors=(4,))
        FockModel(BOSON, (0.0, 1.0), {(1, 0): 1e300}, sectors=(4,))
        FockModel(FERMION, (0.0, 1.0), {(1, 0): 6e307})


class TestReduction:
    @pytest.mark.parametrize("name", POPULATION_STARTS)
    def test_populations_reduce_like_their_diagonal_state(self, name):
        model = REFERENCE_MODELS[name]
        product = product_populations(model, POPULATION_STARTS[name])
        for p in (np.random.default_rng(3).dirichlet(np.ones(model.dim)), product):
            rho = np.diag(p).astype(complex)
            occ = reduce_one_particle(model, p)
            assert occ.shape == (model.modes,)
            assert np.abs(np.diag(occ) - reduce_one_particle(model, rho)).max() <= 1e-15
        # the closure reads the exact derivative of both from the population flow
        assert closure_residual_at_t0(model, product) == closure_residual_at_t0(model, np.diag(product))

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

    @pytest.mark.parametrize("name", ["fermion_4", "boson_3_N_2_to_5", "boson_1_mode"])
    def test_matches_dense_trace_formula(self, name):
        model = REFERENCE_MODELS[name]
        modes = range(model.modes)
        rng = np.random.default_rng(model.dim + 1)
        for _ in range(3):
            rho = random_density_matrix(rng, model.dim)
            ref = np.array([[np.trace(hop_operator(model, n, n2) @ rho) for n2 in modes]
                            for n in modes])
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
        occ = reduce_one_particle(model, p)
        assert np.allclose(occ, [0.7, 0.2])

    def test_boson_fock_occupancies(self):
        model = FockModel(BOSON, (0.0, 1.0), sectors=(3,))
        p = product_populations(model, [2, 1])
        occ = reduce_one_particle(model, p)
        assert np.allclose(occ, [2.0, 1.0])

    @pytest.mark.parametrize("name", POPULATION_STARTS)
    def test_populations_are_the_kronecker_product(self, name):
        model, occupations = REFERENCE_MODELS[name], POPULATION_STARTS[name]
        # each mode's occupation distribution as a diagonal matrix, mode 0 the
        # last factor, on the full space of level_count levels a mode
        r = level_count(model)
        rho = np.eye(1, dtype=complex)
        for occ in reversed(occupations):
            local = [1 - occ, occ] if model.statistics is FERMION else np.eye(r)[occ]
            rho = np.kron(rho, np.diag(local).astype(complex))
        # the model's states by their full-space index hold all the weight
        place = model.occupancies @ r ** np.arange(model.modes)
        p = product_populations(model, occupations)
        assert p.dtype == float and np.array_equal(p, np.diag(rho).real[place])
        assert abs(p.sum() - 1.0) <= 1e-15

    def test_fermion_probability_range(self):
        with pytest.raises(ValueError, match=r"occupations\[0\]"):
            product_populations(fermion_model(1), [1.2])

    def test_boson_requires_an_integer_in_the_sectors(self):
        model = FockModel(BOSON, (0.0,), sectors=(2,))
        with pytest.raises(ValueError, match=r"^occupations\[0\]: .* integer"):
            product_populations(model, [0.5])
        with pytest.raises(ValueError, match=r"^occupations: the state has weight on N = 3\.\.3, outside"):
            product_populations(model, [3])

    def test_fermion_start_must_lie_in_the_sectors(self):
        # [1, 0.5, 0] has weight on N = 1 and N = 2
        model = FockModel(FERMION, (0.0, 1.0, 2.0), sectors=(1,))
        with pytest.raises(ValueError, match=r"^occupations: the state has weight on N = 1\.\.2"):
            product_populations(model, [1.0, 0.5, 0.0])
        p = product_populations(FockModel(FERMION, (0.0, 1.0, 2.0), sectors=(1, 2)), [1.0, 0.5, 0.0])
        assert p.tolist() == [0.5, 0.0, 0.0, 0.5, 0.0, 0.0]

    def test_diagonal_correlated_state_is_not_a_product(self):
        # equal weights on |01> and |10>: both marginals are (1/2, 1/2), yet
        # the joint weight of |00> is 0, not 1/4
        model = fermion_model(2)
        rho = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
        assert not is_product_diagonal(model, rho)
        assert not is_product_diagonal(model, np.diag(rho))
        assert is_product_diagonal(model, np.diag([0.25] * 4))
        assert is_product_diagonal(model, np.full(4, 0.25))


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
        model = FockModel(BOSON, (0.0, 1.0), {(1, 0): 0.6, (0, 1): 0.9}, sectors=(3,))
        p = product_populations(model, [2, 1])
        assert max(closure_residual_at_t0(model, s) for s in (p, np.diag(p))) <= 1e-10

    def test_vacuum_residual_zero(self):
        model = fermion_model(2, rates={(1, 0): 1.0, (0, 1): 0.5})
        p = product_populations(model, [0.0, 0.0])
        assert closure_residual_at_t0(model, p) == closure_residual_at_t0(model, np.diag(p)) == 0.0

    def test_residual_is_taken_on_the_occupations_as_reduced(self):
        # the filled mode reduces to 1 + 2.2e-16; the closure kernel reads
        # that value, not one clipped back to 1
        occupations = [0.6962159966701554, 1.0, 0.0014900835088361708]
        model = fermion_model(3, rates={(1, 0): 1.0, (2, 1): 1.0, (0, 1): 0.5, (1, 2): 0.5},
                              energies=(0.0, 0.5, 1.0))
        p = product_populations(model, occupations)
        occ = reduce_one_particle(model, p)
        assert occ.max() > 1.0
        exact = reduce_one_particle(model, model.populations(0.0, p))
        closed = OccupationFlow(model.network.rate_matrix(), FERMION.sign)(0.0, occ)
        assert closure_residual_at_t0(model, p) == float(np.abs(exact - closed).max())

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
            rhs_fock_lindblad(model, np.ones(3) / 3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            reduce_one_particle(model, np.eye(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            reduce_one_particle(model, np.ones(3) / 3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            closure_residual_at_t0(model, np.ones(3) / 3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            is_product_diagonal(model, np.ones(3) / 3)
