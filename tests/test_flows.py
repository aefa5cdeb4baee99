"""Flow objects against the loop-over-rates formulas they replace.

The references below evaluate every equation term by term: one projector
outer product per rate, one sandwich per jump operator, and the hole flows
with hand-derived relaxation operators.  Each flow must agree with them to
1e-14 on random admissible states, for both statistics, in the computational
basis and in a random unitary basis.  The one-product form each flow is
evaluated in, K rho + (K rho)^dag + Q, is held to the two-product form
before it on hermitian states up to d = 39, and in runs.
"""

import dataclasses

import numpy as np
import pytest

import qme.dynamics
import qme.integrator
import qme.operators
from qme import cli
from qme.cli import run
from qme.dynamics import (
    DephasingRates,
    FlowPair,
    JumpFlow,
    NetworkFlow,
    OccupationFlow,
    OperatorFlow,
    Statistics,
    TransitionNetwork,
    rank_one_jumps,
)
from qme.integrator import EvolutionSpec, evolve
from qme.operators import DensityMatrix
from duality_reference import duality_residuals, hole_start
from occupation_reference import occupation_row, occupation_rows

FERMION = Statistics.FERMION
BOSON = Statistics.BOSON
TOL = 1e-14
TRIALS = 12


# -- references: the per-rate and per-jump loops -----------------------------


def ref_general(h, loss, gain, rho, s):
    blocked = np.eye(rho.shape[0]) + s * rho
    return (-1j * (h @ rho - rho @ h) + (rho @ loss + loss @ rho)
            - (blocked @ gain + gain @ blocked))


def ref_relaxation(kets, rates, rho, s):
    def proj(k):
        return np.outer(kets[:, k], kets[:, k].conj())

    def occ(k):
        return (kets[:, k].conj() @ rho @ kets[:, k]).real

    loss = np.zeros(rho.shape, dtype=complex)
    gain = np.zeros(rho.shape, dtype=complex)
    for (dest, src), w in rates.items():
        gain += (-0.5 * w * occ(src)) * proj(dest)
        loss += (-0.5 * w * (1 + s * occ(dest))) * proj(src)
    return loss, gain


def ref_jump_relaxation(jumps, rho, s):
    blocked = np.eye(rho.shape[0]) + s * rho
    loss = np.zeros(rho.shape, dtype=complex)
    gain = np.zeros(rho.shape, dtype=complex)
    for w in jumps:
        wd = w.conj().T
        loss += -0.5 * (w @ blocked @ wd)
        gain += -0.5 * (wd @ rho @ w)
    return loss, gain


def ref_generalized_jumps(h, jumps, rho, s):
    blocked = np.eye(rho.shape[0]) + s * rho
    out = -1j * (h @ rho - rho @ h)
    for w in jumps:
        wd = w.conj().T
        drain = w @ blocked @ wd
        feed = wd @ rho @ w
        out -= 0.5 * (rho @ drain + drain @ rho)
        out += 0.5 * (blocked @ feed + feed @ blocked)
    return out


def ref_markoff(h, kets, rates, gamma, rho):
    out = -1j * (h @ rho - rho @ h)
    for (dest, src), w in rates.items():
        p_src = np.outer(kets[:, src], kets[:, src].conj())
        n_src = (kets[:, src].conj() @ rho @ kets[:, src]).real
        out -= (0.5 * w) * (rho @ p_src + p_src @ rho)
        out += (w * n_src) * np.outer(kets[:, dest], kets[:, dest].conj())
    return out + ref_dephasing(kets, gamma, rho)


def ref_dephasing(kets, gamma, rho):
    out = np.zeros(rho.shape, dtype=complex)
    for (a, b), g in gamma.items():
        out -= g * (kets[:, b].conj() @ rho @ kets[:, a]) * np.outer(kets[:, b], kets[:, a].conj())
    return out


def ref_lindblad(h, jumps, rho):
    out = -1j * (h @ rho - rho @ h)
    for w in jumps:
        wd = w.conj().T
        out -= 0.5 * (rho @ (w @ wd) + (w @ wd) @ rho)
        out += wd @ rho @ w
    return out


# -- random admissible instances ---------------------------------------------


def rand_unitary(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q


def rand_hermitian(rng, n, scale=0.5):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * scale * (g + g.conj().T)


def rand_state(rng, n, stats):
    """PSD; fermion eigenvalues in [0, 1], boson eigenvalues in [0, 2]."""
    q = rand_unitary(rng, n)
    top = 1.0 if stats is FERMION else 2.0
    return (q * rng.uniform(0.0, top, n)) @ q.conj().T


def rand_instance(rng, n, stats, basis):
    kets = np.eye(n, dtype=complex) if basis == "computational" else rand_unitary(rng, n)
    rates = {(d, s): float(rng.uniform(0.1, 1.0))
             for d in range(n) for s in range(n) if d != s and rng.uniform() < 0.6}
    net = TransitionNetwork(kets=kets, rates=rates)
    dense = [0.3 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
             for _ in range(2)]
    a, b = sorted(rng.choice(n, 2, replace=False))
    return {
        "h": rand_hermitian(rng, n),
        "net": net,
        "jumps": rank_one_jumps(net) + dense,
        "loss": rand_hermitian(rng, n),
        "gain": rand_hermitian(rng, n),
        "dephasing": DephasingRates({(int(a), int(b)): float(rng.uniform(0.1, 1.0))}),
        "rho": rand_state(rng, n, stats),
    }


def build_flow(equation, stats, inst):
    h, net, jumps = inst["h"], inst["net"], inst["jumps"]
    if equation == "meanfield_nonhermitian":
        return OperatorFlow(h, inst["loss"], np.zeros_like(inst["loss"]), None)
    if equation == "general":
        return OperatorFlow(h, inst["loss"], inst["gain"], stats)
    if equation == "nonlinear_master":
        return NetworkFlow(h, net, stats)
    if equation == "generalized_jumps":
        return JumpFlow(h, jumps, stats)
    if equation == "markoff":
        return NetworkFlow(h, net, None, inst["dephasing"])
    if equation == "lindblad":
        return JumpFlow(h, jumps, None)
    raise AssertionError(equation)


def reference(equation, stats, inst, rho):
    """(reference RHS, reference (A_loss, A_gain)) at ``rho``."""
    h, net, jumps = inst["h"], inst["net"], inst["jumps"]
    s = stats.sign
    if equation == "meanfield_nonhermitian":
        a = inst["loss"]
        return -1j * (h @ rho - rho @ h) + (rho @ a + a @ rho), (a, np.zeros_like(a))
    if equation == "general":
        ops = inst["loss"], inst["gain"]
        return ref_general(h, *ops, rho, s), ops
    if equation == "nonlinear_master":
        ops = ref_relaxation(net.kets, net.rates, rho, s)
        return ref_general(h, *ops, rho, s), ops
    if equation == "generalized_jumps":
        return ref_generalized_jumps(h, jumps, rho, s), ref_jump_relaxation(jumps, rho, s)
    if equation == "markoff":
        gamma = inst["dephasing"].gamma
        return (ref_markoff(h, net.kets, net.rates, gamma, rho),
                ref_relaxation(net.kets, net.rates, rho, 0))
    if equation == "lindblad":
        return ref_lindblad(h, jumps, rho), ref_jump_relaxation(jumps, rho, 0)
    raise AssertionError(equation)


EQUATIONS = ["meanfield_nonhermitian", "general", "nonlinear_master",
             "generalized_jumps", "markoff", "lindblad"]
#: Equations with a particle/hole-symmetric fermionic form.
HOLE_EQUATIONS = ["general", "nonlinear_master", "generalized_jumps"]


@pytest.mark.parametrize("basis", ["computational", "unitary"])
@pytest.mark.parametrize("stats", [FERMION, BOSON], ids=["fermion", "boson"])
@pytest.mark.parametrize("equation", EQUATIONS)
def test_particle_flow_matches_loop_reference(equation, stats, basis):
    rng = np.random.default_rng([EQUATIONS.index(equation), stats.sign + 1, len(basis)])
    worst = worst_ops = 0.0
    for trial in range(TRIALS):
        inst = rand_instance(rng, 2 + trial % 5, stats, basis)
        flow, rho = build_flow(equation, stats, inst), inst["rho"]
        ref, (ref_loss, ref_gain) = reference(equation, stats, inst, rho)
        worst = max(worst, np.abs(flow(0.0, rho) - ref).max())
        loss, gain = flow.relaxation_operators(rho)
        worst_ops = max(worst_ops, np.abs(loss - ref_loss).max(), np.abs(gain - ref_gain).max())
    assert worst <= TOL
    assert worst_ops <= TOL


@pytest.mark.parametrize("basis", ["computational", "unitary"])
@pytest.mark.parametrize("equation", HOLE_EQUATIONS)
def test_hole_flow_matches_hand_derived_reference(equation, basis):
    # the hole flow of the old runner: particle relaxation operators built at
    # I - x, then (1/i)[H, x] + {x, A_gain} - {I - x, A_loss}
    rng = np.random.default_rng([HOLE_EQUATIONS.index(equation), len(basis)])
    worst = 0.0
    for trial in range(TRIALS):
        n = 2 + trial % 5
        inst = rand_instance(rng, n, FERMION, basis)
        x = np.eye(n) - inst["rho"]  # the hole state
        vacancies = np.eye(n) - x
        _, (loss, gain) = reference(equation, FERMION, inst, vacancies)
        h = inst["h"]
        ref = (-1j * (h @ x - x @ h) + (x @ gain + gain @ x)
               - (vacancies @ loss + loss @ vacancies))
        worst = max(worst, np.abs(build_flow(equation, FERMION, inst).hole()(0.0, x) - ref).max())
    assert worst <= TOL


@pytest.mark.parametrize("stats", [None, FERMION], ids=["linear", "fermion"])
def test_jump_flow_without_jumps_is_the_liouville_term(stats):
    rng = np.random.default_rng(7)
    h, rho = rand_hermitian(rng, 4), rand_state(rng, 4, FERMION)
    flow = JumpFlow(h, [], stats)
    assert np.abs(flow(0.0, rho) - (-1j) * (h @ rho - rho @ h)).max() <= TOL
    loss, gain = flow.relaxation_operators(rho)
    assert not loss.any() and not gain.any()


def test_evaluate_checks_the_state():
    flow = NetworkFlow(np.zeros((2, 2)), TransitionNetwork.computational(2, {(1, 0): 1.0}), FERMION)
    rho = np.diag([0.7, 0.2]).astype(complex)
    assert np.array_equal(flow.evaluate(DensityMatrix(rho, FERMION)), flow(0.0, rho))
    assert np.array_equal(flow.hole().evaluate(rho), flow.hole()(0.0, rho))
    # a state hermitian within DEFAULT_TOL is taken at its hermitian part
    skew = np.array([[0.0, 1j], [0.0, 0.0]])
    near = rho + 1e-12 * skew
    assert flow.evaluate(near).tobytes() == flow(0.0, 0.5 * (near + near.conj().T)).tobytes()
    for bad, match in ((np.zeros((3, 3)), "dimension mismatch"), (np.zeros((2, 3)), "square"),
                       (np.full((2, 2), np.nan), "finite"),
                       (rho + 1e-9 * skew, r"^rho: hermiticity defect .* exceeds tolerance 1\.0e-10")):
        with pytest.raises(ValueError, match=match):
            flow.evaluate(bad)


def test_hole_flow_rejects_bosons():
    with pytest.raises(ValueError, match="fermions only"):
        OperatorFlow(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)), BOSON).hole()


# -- the one-product form K rho + (K rho)^dag + Q on hermitian states ---------


def two_product(h, s, ops, extra=None):
    """The flow in the form it had before the one-product form,
    (M - iH) rho + rho (M + iH) - 2 A_gain with M = A_loss - s A_gain: two
    products, at any square rho, ``ops(rho)`` its (A_loss, A_gain) and
    ``extra(rho)`` a term added to it (dephasing)."""
    def flow(rho):
        loss, gain = ops(rho)
        merged = loss - s * gain
        out = (merged - 1j * h) @ rho + rho @ (merged + 1j * h) - 2.0 * gain
        return out if extra is None else out + extra(rho)
    return flow


class TwoProduct:
    """A test-local flow object: the reference ``f(rho)`` of :func:`two_product`
    with the ``affine`` flag of the flow it stands for."""

    def __init__(self, f, affine):
        self.f, self.affine = f, affine

    def __call__(self, t, rho):
        return self.f(rho)


def one_product_case(rng, kind, stats, basis, dephasing, d):
    """(flow, reference) of one flow class at dimension d, with operators of
    norm about 1 at every d: a dense complex H, about three rates out of each
    orbital, two dense jumps besides the rank-one ones; and, for fermions,
    (hole flow, reference) with loss and gain exchanged by hand."""
    s = 0 if stats is None else stats.sign
    h = rand_hermitian(rng, d, 1.0 / np.sqrt(d))
    kets = np.eye(d, dtype=complex) if basis == "computational" else rand_unitary(rng, d)
    rates = {(a, b): float(rng.uniform(0.1, 1.0))
             for a in range(d) for b in range(d) if a != b and rng.uniform() < min(0.6, 3.0 / d)}
    net = TransitionNetwork(kets=kets, rates=rates)
    flipped = {(b, a): w for (a, b), w in rates.items()}  # the holes' network: W^T
    cases = []
    if kind == "operator":
        loss, gain = rand_hermitian(rng, d, 1.0 / np.sqrt(d)), rand_hermitian(rng, d, 1.0 / np.sqrt(d))
        flow = OperatorFlow(h, loss, gain, stats)
        cases.append((flow, two_product(h, s, lambda rho: (loss, gain))))
        if stats is FERMION:
            cases.append((flow.hole(), two_product(h, s, lambda rho: (gain, loss))))
    elif kind == "network":
        rates_of_pairs, extra = None, None
        if dephasing:
            a, b = rng.choice(d, 2, replace=False)
            rates_of_pairs = DephasingRates({(int(a), int(b)): float(rng.uniform(0.1, 1.0))})
            extra = lambda rho: ref_dephasing(kets, rates_of_pairs.gamma, rho)  # noqa: E731
        flow = NetworkFlow(h, net, stats, rates_of_pairs)
        cases.append((flow, two_product(h, s, lambda rho: ref_relaxation(kets, rates, rho, s), extra)))
        if stats is FERMION:
            cases.append((flow.hole(), two_product(h, s, lambda rho: ref_relaxation(kets, flipped, rho, s))))
    else:
        jumps = rank_one_jumps(net) + [
            (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2 * d)
            for _ in range(2)]
        flow = JumpFlow(h, jumps, stats)
        cases.append((flow, two_product(h, s, lambda rho: ref_jump_relaxation(jumps, rho, s))))
        if stats is FERMION:
            adjoints = [w.conj().T for w in jumps]
            cases.append((flow.hole(), two_product(h, s, lambda rho: ref_jump_relaxation(adjoints, rho, s))))
    return cases


def hermitian_state(rng, d, stats):
    """A random admissible state, hermitian by bit pattern, as every state
    a run integrates is."""
    rho = rand_state(rng, d, FERMION if stats is None else stats)
    return 0.5 * (rho + rho.conj().T)


ONE_PRODUCT_CASES = [
    pytest.param(kind, stats, basis, dephasing,
                 id=f"{kind}-{'linear' if stats is None else stats.value}-{basis}"
                    + ("-dephasing" if dephasing else ""))
    for kind in ("operator", "network", "jumps")
    for stats in (FERMION, BOSON, None)
    for basis in (("computational",) if kind == "operator" else ("computational", "unitary"))
    for dephasing in ((False, True) if kind == "network" and stats is None else (False,))
]


@pytest.mark.parametrize("kind, stats, basis, dephasing", ONE_PRODUCT_CASES)
def test_one_product_flow_is_the_two_product_flow_on_hermitian_states(kind, stats, basis, dephasing):
    """For hermitian rho, rho K^dag = (K rho)^dag, so each flow class's one
    product K rho + (K rho)^dag + Q is the two-product form with its
    relaxation operators built term by term, to TOL relative to max(1, |f|),
    at every d from 2 to 39, and so are the fermionic hole flows at I - rho.
    The value is hermitian by bit pattern when Q is: for fixed operators
    and on the computational basis."""
    rng = np.random.default_rng([19, len(kind), 0 if stats is None else stats.sign + 2, len(basis),
                                 dephasing])
    for d in range(2, 40):
        rho = hermitian_state(rng, d, stats)
        cases = one_product_case(rng, kind, stats, basis, dephasing, d)
        for (flow, ref), state in zip(cases, (rho, np.eye(d) - rho)):
            got, want = flow(0.0, state), ref(state)
            assert close(got, want), (d, np.abs(got - want).max())
            if kind == "operator" or (kind == "network" and basis == "computational"):
                assert qme.integrator._packed(got).ndim == 3, d  # hermitian by bit pattern


@pytest.mark.parametrize("equation", ["markoff", "lindblad", "general"])
def test_a_mapped_run_is_the_two_product_flow_s_run(equation):
    """An affine flow's exact map is probed on non-hermitian unit vectors,
    where the one-product form is not the two-product one; both forms map
    hermitian states alike, so a coherent start at d <= 11 (each member
    mapped: 2 d^2 <= AFFINE_MAX_ENTRIES) runs as under the two-product flow,
    to TOL relative to max(1, |rho|) at every snapshot.  ``general`` runs as
    a fermion pair, each member mapped on its own."""
    stats = {"markoff": None, "lindblad": None, "general": FERMION}[equation]
    kind = {"markoff": "network", "lindblad": "jumps", "general": "operator"}[equation]
    rng = np.random.default_rng([23, len(equation)])
    for d in (2, 5, 8, 11):
        start = DensityMatrix(hermitian_state(rng, d, FERMION), FERMION)
        cases = one_product_case(rng, kind, stats, "unitary", equation == "markoff", d)
        refs = [TwoProduct(ref, True) for _, ref in cases]
        if stats is FERMION:
            rhs, ref_rhs = cases[0][0].paired(), FlowPair(*refs)
        else:
            rhs, ref_rhs = cases[0][0], refs[0]
        spec = EvolutionSpec(rhs=rhs, t0=0.0, t1=0.5, dt=0.01, record_every=10)
        lift = rhs.start(start.matrix) if stats is FERMION else start.matrix
        assert qme.integrator._generators(rhs, 0.0, lift) is not None
        got = evolve(spec, start)
        want = evolve(dataclasses.replace(spec, rhs=ref_rhs), start)
        assert len(got) == 6
        for a, b in zip(got.states, want.states):
            assert close(a, b), (d, np.abs(a - b).max())


@pytest.mark.parametrize("equation", ["generalized_jumps", "lindblad"])
def test_a_start_hermitian_within_tolerance_is_stepped_from_its_hermitian_part(equation):
    """A start with a 1e-11 antihermitian part runs from its hermitian part
    (the DensityMatrix keeps it), as the two-product flow ran from the
    matrix as given: the snapshots after t0 agree to TOL relative to
    max(1, |rho|), by RK4 steps and by the exact map.  Only the t0 row moves,
    to the hermitian part, by the antihermitian part, and its defect is 0."""
    stats = None if equation == "lindblad" else FERMION
    rng = np.random.default_rng([29, len(equation)])
    d = 6
    (flow, ref), *_ = one_product_case(rng, "jumps", stats, "unitary", False, d)
    rho = hermitian_state(rng, d, FERMION)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    raw = rho + 0.5e-11 * (g - g.conj().T)
    start = DensityMatrix(raw, FERMION)
    spec = EvolutionSpec(rhs=flow, t0=0.0, t1=0.3, dt=0.01, record_every=10)
    got = evolve(spec, start)
    # the run as it was: the matrix as given, stepped by the two-product flow
    want = list(qme.integrator._steps(dataclasses.replace(spec, rhs=TwoProduct(ref, flow.affine)),
                                      raw.copy()))
    assert got.states[0].tobytes() == (0.5 * (raw + raw.conj().T)).tobytes()
    assert got.herm_defect[0] == 0.0 and want[0][2] > 1e-12
    assert np.abs(got.states[0] - raw).max() <= 1e-10
    assert len(got) == len(want) == 4
    for a, (_, b, _) in zip(got.states[1:], want[1:]):
        assert close(a, b), np.abs(a - b).max()


# -- the hole flow is each equation's own particle-hole form ------------------


class LossReadsW(NetworkFlow):
    """A broken network flow: its loss reads W where the equation has W^T."""

    def _terms(self, rho):
        n = self._to_kets(rho).diagonal().real
        gain = self._half_w @ n
        m = self._half_w @ (1.0 + self.sign * n) - self.sign * gain
        return self._from_kets(self._eye * m) + self._minus_ih, self._from_kets(self._eye * (-2.0 * gain))


class GainSandwichedAsLoss(JumpFlow):
    """A broken jump flow: its gain is sandwiched as W rho W^dag, where the
    equation has W^dag rho W, so G = L and K = K0 + (s/2)(G - L) is K0."""

    def _terms(self, rho):
        return self._k0, qme.dynamics._sandwich(self._wide, self._wide_dag, rho)


def duality_residual(flow, initial: DensityMatrix) -> float:
    """Max duality residual of the run of ``flow.paired()``, the flow and
    ``flow.hole()`` side by side, as ``qme run`` takes it."""
    spec = EvolutionSpec(rhs=flow.paired(), t0=0.0, t1=1.0, dt=1e-2, record_every=10)
    return float(evolve(spec, initial).duality.max())


@pytest.mark.parametrize("basis", ["computational", "unitary"])
def test_duality_residual_checks_each_equation_s_particle_hole_form(basis):
    # a hole flow that evaluated the particle flow at I - x would cancel any
    # particle flow to rounding, these broken ones too
    rng = np.random.default_rng(len(basis))
    inst = rand_instance(rng, 4, FERMION, basis)
    initial = DensityMatrix(inst["rho"], FERMION)
    for equation in HOLE_EQUATIONS:
        assert duality_residual(build_flow(equation, FERMION, inst), initial) <= 1e-13, equation
    assert duality_residual(LossReadsW(inst["h"], inst["net"], FERMION), initial) > 1e-6
    assert duality_residual(GainSandwichedAsLoss(inst["h"], inst["jumps"], FERMION), initial) > 1e-6


@pytest.mark.parametrize("equation", HOLE_EQUATIONS)
def test_hole_flow_is_the_same_kind_of_flow_and_an_involution(equation):
    rng = np.random.default_rng(HOLE_EQUATIONS.index(equation))
    inst = rand_instance(rng, 4, FERMION, "unitary")
    flow, rho = build_flow(equation, FERMION, inst), inst["rho"]
    assert type(flow.hole()) is type(flow)
    assert np.array_equal(flow.hole().hole()(0.0, rho), flow(0.0, rho))
    for stats in (BOSON, None):
        with pytest.raises(ValueError, match="hole flow: defined for fermions only"):
            build_flow(equation, stats, inst).hole()


def test_jump_drain_that_overflows_is_refused_for_particles_and_holes():
    # W = c |u><0| with u all ones: W W^dag has entries c^2, W^dag W has 2 c^2
    c, z = np.sqrt(1.2e308), np.zeros((2, 2))
    w = np.array([[c, 0.0], [c, 0.0]])
    with pytest.raises(ValueError, match=r"jump_operators: too large, sum_l W_l\^dag W_l overflows"):
        JumpFlow(z, [w], FERMION).hole()
    with pytest.raises(ValueError, match=r"jump_operators: too large, sum_l W_l W_l\^dag overflows"):
        JumpFlow(z, [w.T], FERMION)


def test_dephasing_needs_the_linear_equation():
    net = TransitionNetwork.computational(2, {})
    with pytest.raises(ValueError, match="dephasing"):
        NetworkFlow(np.zeros((2, 2)), net, FERMION, DephasingRates({(0, 1): 1.0}))


# -- the occupation flow: a network flow on diagonal states -------------------


def rand_homogeneous(rng, d, stats):
    """A network flow that keeps diagonal states diagonal (computational
    basis, real diagonal H, dephasing in the linear limit) and a start whose
    occupations include exact zeros and, for fermions, full orbitals."""
    rates = {(a, b): float(rng.uniform(0.1, 1.0))
             for a in range(d) for b in range(d) if a != b and rng.uniform() < 0.6}
    h = np.diag(rng.uniform(-2.0, 2.0, d)).astype(complex)
    dephasing = None
    if stats is None and d > 1:
        a, b = rng.choice(d, 2, replace=False)
        dephasing = DephasingRates({(int(a), int(b)): float(rng.uniform(0.1, 1.0))})
    flow = NetworkFlow(h, TransitionNetwork.computational(d, rates), stats, dephasing)
    n = rng.uniform(0.0, 2.0 if stats is BOSON else 1.0, d)
    n[rng.uniform(size=d) < 0.2] = 0.0
    if stats is FERMION:
        n[rng.uniform(size=d) < 0.2] = 1.0
    return flow, n


def close(got: np.ndarray, want: np.ndarray) -> bool:
    """Entrywise agreement to TOL relative to max(1, |want|)."""
    bound = TOL * np.maximum(1.0, np.abs(want))
    return got.shape == want.shape and bool(np.all(np.abs(got - want) <= bound))


@pytest.mark.parametrize("stats", [FERMION, BOSON, None], ids=["fermion", "boson", "linear"])
def test_occupation_flow_is_the_diagonal_of_the_matrix_flow_to_rounding(stats):
    """On a diagonal state the matrix flow's off-diagonal entries are exactly
    0 and its diagonal is the occupation flow's to TOL (relative to
    max(1, |f|)): the particle flow and, for fermions, the hole flow at
    1 - n.  The occupation flow's quadratic form sums in another order than
    the matrix flow, so the two agree to rounding, not bit for bit."""
    rng = np.random.default_rng([3, 0 if stats is None else stats.sign + 2])
    cases = 0
    for d in range(1, 17):
        for _ in range(20):
            flow, n = rand_homogeneous(rng, d, stats)
            occupations = flow.occupation_flow()
            pairs = [(flow, occupations, n)]
            if stats is FERMION:
                pairs.append((flow.hole(), occupations.hole(), 1.0 - n))
            for matrix_flow, occupation_flow, state in pairs:
                out = matrix_flow(0.0, np.diag(state).astype(complex))
                diagonal = out.diagonal()
                assert not np.any(out - np.diag(diagonal)) and not np.any(diagonal.imag)
                assert close(occupation_flow(0.0, state), diagonal.real)
                cases += 1
    assert cases == 16 * 20 * (2 if stats is FERMION else 1)


@pytest.mark.parametrize("stats, hole", [
    (FERMION, (False,)), (FERMION, (True,)), (FERMION, (False, True)), (FERMION, (True, False)),
    (BOSON, (False,)), (None, (False,)),
], ids=["fermion-particle", "fermion-hole", "fermion-paired", "fermion-paired_hole",
        "boson-particle", "linear-particle"])
def test_occupation_flow_is_the_reference_expression(stats, hole):
    """The quadratic form L n + (A n) * n, with W -> W^T on hole rows, is the
    term-by-term expression of ``tests/occupation_reference.py`` to TOL, on
    every row kind, with entries at exactly 0 and 1 (hole rows exist for
    fermions only)."""
    rng = np.random.default_rng([11, 0 if stats is None else stats.sign + 2, *hole])
    sign = 0 if stats is None else stats.sign
    for d in range(1, 17):
        for _ in range(20):
            rates = {(a, b): float(rng.uniform(0.1, 1.0)) for a in range(d) for b in range(d) if a != b}
            net = TransitionNetwork.computational(d, rates)
            flow = NetworkFlow(np.diag(rng.uniform(-2.0, 2.0, d)), net, stats)
            state = rng.uniform(0.0, 2.0 if stats is BOSON else 1.0, len(hole) * d)
            state[rng.uniform(size=state.size) < 0.2] = 0.0
            state[rng.uniform(size=state.size) < 0.2] = 1.0
            occupations = flow.occupation_flow()
            if hole[0]:
                occupations = occupations.hole()
            if len(hole) == 2:
                occupations = occupations.paired()
            assert close(occupations(0.0, state), occupation_rows(net.rate_matrix(), sign, state, hole))


def rand_dense_network_flow(rng, d, stats):
    """A homogeneous network flow with every rate present, and random
    occupations with one orbital at exactly 0 and one at exactly 1."""
    rates = {(a, b): float(rng.uniform(0.1, 1.0)) for a in range(d) for b in range(d) if a != b}
    flow = NetworkFlow(np.diag(rng.uniform(-2.0, 2.0, d)), TransitionNetwork.computational(d, rates),
                       stats)
    n = rng.uniform(0.0, 2.0 if stats is BOSON else 1.0, d)
    n[rng.permutation(d)[:2]] = [0.0, 1.0][:d]
    return flow, n


@pytest.mark.parametrize("stats", [FERMION, BOSON, None], ids=["fermion", "boson", "linear"])
def test_occupation_flow_error_scales_with_its_largest_term(stats):
    """Past d = 16 the gap to the matrix flow's diagonal and to the reference
    expression can pass TOL * max(1, |f|) (1.4e-14 on dense boson networks
    at d = 32): every expression rounds at the ulp of its largest term.  It
    stays below 8 eps * max(1, m), with m = (W x)(1 + x) + x (W^T (1 + x))
    the size of those terms on a particle row x, W -> W^T on a hole row."""
    rng = np.random.default_rng([13, 0 if stats is None else stats.sign + 2])
    sign = 0 if stats is None else stats.sign
    eps = np.finfo(float).eps
    for d in (20, 24, 28, 32):
        for _ in range(10):
            flow, n = rand_dense_network_flow(rng, d, stats)
            w = -2.0 * flow._half_w
            occupations = flow.occupation_flow()
            rows = [(flow, occupations, n, w, False)]
            if stats is FERMION:
                rows.append((flow.hole(), occupations.hole(), 1.0 - n, w.T, True))
            for matrix_flow, occupation_flow, x, v, hole in rows:
                bound = 8.0 * eps * np.maximum(1.0, (v @ x) * (1.0 + x) + x * (v.T @ (1.0 + x)))
                got = occupation_flow(0.0, x)
                for want in (matrix_flow(0.0, np.diag(x).astype(complex)).diagonal().real,
                             occupation_rows(w, sign, x, (hole,))):
                    assert np.all(np.abs(got - want) <= bound)


def test_paired_occupation_flow_is_the_particle_and_hole_flows_bit_for_bit():
    """The paired flow on [n, x] is [particle flow at n, hole flow at x], bit
    for bit, at complementary and at unrelated particle and hole states."""
    rng = np.random.default_rng(8)
    for d in range(1, 17):
        for _ in range(10):
            flow, n = rand_dense_network_flow(rng, d, FERMION)
            occupations = flow.occupation_flow()
            paired = occupations.paired()
            for x in (1.0 - n, rng.uniform(0.0, 1.0, d)):
                particle, hole = occupations(0.0, n), occupations.hole()(0.0, x)
                assert np.array_equal(paired(0.0, np.concatenate((n, x))),
                                      np.concatenate((particle, hole)))
                # rows in the other order: the hole flow of the pair
                assert np.array_equal(paired.hole()(0.0, np.concatenate((x, n))),
                                      np.concatenate((hole, particle)))


def reshape_form(w, sign, rows, state):
    """The occupation flow's call in its reshape form, the reference for
    every layout: the stack of each row's (2d x d) operator [L; A], rows
    ``(w, w.T)`` of a pair and ``(w,)`` of a lone flow, times the state
    reshaped to (k, d, 1), reshaped back."""
    d = len(w)
    with np.errstate(over="ignore", invalid="ignore"):
        ops = np.stack([np.vstack((m - np.diag(m.sum(axis=0)), sign * (m - m.T))) for m in rows])
    x = state.reshape(len(ops), d, 1)
    u = ops @ x
    out = u[:, d:] * x
    out += u[:, :d]
    return out.reshape(state.shape)


@pytest.mark.parametrize("stats", [FERMION, BOSON, None], ids=["fermion", "boson", "linear"])
def test_occupation_flow_bytes_do_not_depend_on_the_layout(stats):
    """On every layout it takes (a lone flow's (d,) state; a pair's stacked
    (2, d) rows and the same rows laid end to end, (2d,)) the occupation
    flow gives the bytes of its reshape form, in the state's shape, and never
    writes its argument."""
    rng = np.random.default_rng([19, 0 if stats is None else stats.sign + 2])
    sign = 0 if stats is None else stats.sign
    for d in range(1, 41):
        for _ in range(3):
            flow, n = rand_dense_network_flow(rng, d, stats)
            w = -2.0 * flow._half_w
            x = rng.uniform(0.0, 1.0, d)
            lone = flow.occupation_flow()
            cases = [(lone, (w,), n)]
            if stats is FERMION:
                cases += [(lone.hole(), (w.T,), x),
                          (lone.paired(), (w, w.T), np.stack((n, x))),
                          (lone.paired(), (w, w.T), np.concatenate((n, x))),
                          (lone.paired().hole(), (w.T, w), np.stack((x, n))),
                          (lone.hole().paired(), (w.T, w), np.concatenate((x, n)))]
            for occupations, rows, state in cases:
                assert isinstance(occupations, OccupationFlow)
                before = state.copy()
                state.flags.writeable = False
                got = occupations(0.0, state)
                want = reshape_form(w, sign, rows, state)
                assert got.shape == state.shape and got.tobytes() == want.tobytes()
                assert state.tobytes() == before.tobytes()


@pytest.mark.parametrize("pairing", ["paired", "hole_paired", "paired_hole"])
def test_an_occupation_pair_has_no_pair_of_its_own(pairing):
    """Pairing a paired occupation flow, in either row order, is refused:
    the rows of the pair of a pair would be neither a pair nor a lone flow."""
    flow, _ = rand_dense_network_flow(np.random.default_rng(9), 3, FERMION)
    occupations = flow.occupation_flow()
    pair = {"paired": occupations.paired(), "hole_paired": occupations.hole().paired(),
            "paired_hole": occupations.paired().hole()}[pairing]
    assert pair.pair
    with pytest.raises(ValueError, match="a pair has no pair of its own"):
        pair.paired()


class TestPairedFlows:
    """A fermionic flow's ``paired()`` flow is a :class:`FlowPair` of the flow
    and its hole flow, which steps [rho, x] with the bits of the flow at rho
    and of its hole flow at x, in one call and in one run."""

    @pytest.mark.parametrize("equation", HOLE_EQUATIONS)
    @pytest.mark.parametrize("basis", ["computational", "rotated"])
    def test_a_pair_call_is_the_particle_and_hole_calls(self, equation, basis):
        rng = np.random.default_rng([17, len(equation), len(basis)])
        for d in (2, 5, 8):
            inst = rand_instance(rng, d, FERMION, basis)
            flow = build_flow(equation, FERMION, inst)
            hole, pair = flow.hole(), flow.paired()
            rho, x = inst["rho"], rand_state(rng, d, FERMION)
            assert type(pair) is FlowPair and pair.pair and pair.members[0] is flow
            assert type(pair.members[1]) is type(flow)
            assert pair.members[1](0.0, x).tobytes() == hole(0.0, x).tobytes()
            want = np.stack((flow(0.0, rho), hole(0.0, x)))
            assert pair(0.0, np.stack((rho, x))).tobytes() == want.tobytes()

    @pytest.mark.parametrize("equation, d, basis", [
        # each member's float view has 200 entries, within AFFINE_MAX_ENTRIES,
        # and the pair's 400 do not: each member still crosses an interval by
        # its own 201 x 201 exact map
        ("general", 10, "computational"),
        ("nonlinear_master", 4, "rotated"),
        ("generalized_jumps", 6, "computational"),
    ])
    def test_a_paired_run_is_its_two_lone_runs(self, equation, d, basis, monkeypatch):
        maps, build = [], qme.integrator._increment_map
        monkeypatch.setattr(qme.integrator, "_increment_map",
                            lambda gen, tau: maps.append(gen.shape) or build(gen, tau))
        calls, call = [], qme.dynamics.Flow.__call__
        monkeypatch.setattr(qme.dynamics.Flow, "__call__",
                            lambda self, t, rho: calls.append(self) or call(self, t, rho))
        inst = rand_instance(np.random.default_rng(d), d, FERMION, basis)
        flow, start = build_flow(equation, FERMION, inst), DensityMatrix(inst["rho"], FERMION)
        # four intervals of five steps and a last one of three
        spec = EvolutionSpec(rhs=flow.paired(), t0=0.0, t1=0.23, dt=0.01, record_every=5)
        pair = evolve(spec, start)
        paired_maps = maps[:]
        # the probe of the affine pair makes n + 1 = 201 calls of each member
        # flow, 402 in all; the other pairs take 23 RK4 steps of four calls a member
        per_member = 201 if equation == "general" else 4 * 23
        assert [calls.count(member) for member in spec.rhs.members] == [per_member] * 2
        assert len(calls) == 2 * per_member
        particle = evolve(dataclasses.replace(spec, rhs=flow), start)
        hole = evolve(dataclasses.replace(spec, rhs=flow.hole()), hole_start(start))
        assert [a.tobytes() for a in pair.stored] == [a.tobytes() for a in particle.stored]
        for column in ("times", "trace", "min_eig", "max_eig", "herm_defect"):
            assert getattr(pair, column).tobytes() == getattr(particle, column).tobytes(), column
        assert pair.duality.tolist() == duality_residuals(particle, hole)
        assert particle.duality is None and len(pair.duality) == 6
        # a map for the full intervals and one for the last, of each member
        assert sorted(paired_maps) == sorted(maps[len(paired_maps):])
        assert paired_maps == ([(201, 201)] * 4 if equation == "general" else [])

    def test_a_pair_is_fermionic_and_has_no_pair_or_hole_flow(self):
        """A pair answers only what a run asks of it; the rest of a flow's
        questions are for its members, and it has no pair of its own."""
        inst = rand_instance(np.random.default_rng(2), 3, FERMION, "computational")
        for equation in HOLE_EQUATIONS:
            with pytest.raises(ValueError, match="fermions only"):
                build_flow(equation, BOSON, inst).paired()
            pair = build_flow(equation, FERMION, inst).paired()
            for name in ("evaluate", "relaxation_operators", "occupation_flow", "hole"):
                assert not hasattr(pair, name), (equation, name)
            with pytest.raises(ValueError, match="a pair has no pair of its own"):
                pair.paired()

    @pytest.mark.parametrize("state", ["matrix", "occupations"])
    def test_a_run_takes_its_start_and_residuals_from_the_pair(self, state):
        """The integrator lifts the start and reads each snapshot's residual
        through the pair flow: a pair of one flow twice, started as two
        copies of the state, keeps them equal, so each residual, the largest
        gap between the members, is exactly 0.  The fermion lift and
        residual of the same two flows would read far from 0."""

        class Copies(FlowPair):
            @staticmethod
            def start(x):
                return np.stack((x, x))

            @staticmethod
            def residual(pair):
                return float(np.abs(pair[0] - pair[1]).max())

        rng = np.random.default_rng(5)
        if state == "matrix":
            inst = rand_instance(rng, 3, FERMION, "computational")
            flow, start = build_flow("nonlinear_master", FERMION, inst), DensityMatrix(inst["rho"], FERMION)
        else:
            particle, start = rand_homogeneous(rng, 3, FERMION)
            flow = particle.occupation_flow()
        spec = EvolutionSpec(rhs=Copies(flow, flow), t0=0.0, t1=0.2, dt=0.01, record_every=5)
        traj = evolve(spec, start)
        assert traj.duality.tolist() == [0.0] * 5
        lone = evolve(dataclasses.replace(spec, rhs=flow), start)
        assert [a.tobytes() for a in traj.stored] == [a.tobytes() for a in lone.stored]
        if state == "matrix":
            fermion = evolve(dataclasses.replace(spec, rhs=FlowPair(flow, flow)), start)
            assert fermion.duality.max() > 1e-3


def test_occupation_flow_declined_where_a_diagonal_state_can_leave_the_diagonal():
    net = TransitionNetwork.computational(2, {(1, 0): 1.0})
    zero = np.zeros((2, 2))
    assert NetworkFlow(np.diag([0.0, 1.0]), net, FERMION).occupation_flow() is not None
    # an off-diagonal or a complex diagonal H entry
    assert NetworkFlow([[0.0, 0.1], [0.1, 1.0]], net, FERMION).occupation_flow() is None
    assert NetworkFlow(np.diag([1e-12j, 0.0]), net, FERMION).occupation_flow() is None
    # orbitals other than the computational basis
    rotated = TransitionNetwork(np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0), {(1, 0): 1.0})
    assert NetworkFlow(zero, rotated, FERMION).occupation_flow() is None
    # a -0.0 occupation needs no exclusion: it flows as +0.0 does
    occupations = NetworkFlow(zero, net, FERMION).occupation_flow()
    assert np.array_equal(occupations(0.0, np.array([0.7, -0.0])), occupations(0.0, np.array([0.7, 0.0])))
    assert JumpFlow(zero, rank_one_jumps(net), FERMION).occupation_flow() is None
    assert OperatorFlow(zero, zero, zero, FERMION).occupation_flow() is None
    for pairing in ("hole", "paired"):
        with pytest.raises(ValueError, match="fermions only"):
            getattr(NetworkFlow(zero, net, BOSON).occupation_flow(), pairing)()


def test_occupation_flow_whose_out_rates_overflow_is_built_without_a_warning():
    # two rates of 1e308 out of orbital 0 sum to inf: the flow is built, and
    # its value is not finite, which a run reports as a divergence
    net = TransitionNetwork.computational(3, {(1, 0): 1e308, (2, 0): 1e308})
    flow = NetworkFlow(np.zeros((3, 3)), net, FERMION).occupation_flow()
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(flow(0.0, np.array([0.5, 0.2, 0.1]))).all()


@pytest.mark.parametrize("stats", [FERMION, BOSON], ids=["fermion", "boson"])
def test_quasiclassical_flow_does_not_clip_occupations(stats):
    """The quasiclassical equation runs the network's occupation flow, which
    takes occupations outside the physical range as they are: an overshoot
    is left for the bounds monitor to report, not projected away."""
    raw = {"name": "qc", "equation": "quasiclassical", "statistics": stats.value, "dimension": 3,
           "initial": {"occupations": [1.0, 0.0, 0.0]},
           "network": {"rates": [{"from": 0, "to": 1, "rate": 1.0}, {"from": 1, "to": 2, "rate": 0.5},
                                 {"from": 2, "to": 0, "rate": 0.25}]},
           "integrator": {"t1": 0.1, "dt": 0.01}}
    scenario = cli.scenario_from_dict(raw)
    flow = cli._EQUATIONS["quasiclassical"].build(scenario).occupation_flow()
    w = scenario.network.rate_matrix()
    f = np.array([0.9, 1.2, -0.1])
    # the size of the largest terms, as in the d >= 20 test above
    m = np.abs(w @ f) * np.abs(1.0 + f) + np.abs(f) * np.abs(w.T @ (1.0 + f))
    bound = 8.0 * np.finfo(float).eps * np.maximum(1.0, m)
    got = flow(0.0, f)
    assert np.all(np.abs(got - occupation_row(w, stats.sign, f)) <= bound)
    clipped = np.clip(f, 0.0, 1.0 if stats is FERMION else None)
    assert np.abs(got - occupation_row(w, stats.sign, clipped)).max() > 1e-3


def test_validation_does_not_scale_with_steps(tmp_path, monkeypatch):
    """A CLI run validates its inputs when it builds the flows, not per stage."""
    calls = []
    original = qme.operators.as_square_matrix

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(qme.dynamics, "as_square_matrix", counting)
    monkeypatch.setattr(qme.operators, "as_square_matrix", counting)
    counts = []
    for t1 in ("0.01", "0.1"):
        calls.clear()
        out = tmp_path / t1
        assert run("two_state_fermion", overrides=[f"t1={t1}"], out_dir=str(out), quiet=True) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
