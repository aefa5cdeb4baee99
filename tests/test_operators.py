import numpy as np
import pytest

from qme.operators import (
    DensityMatrix,
    Statistics,
    commutator,
    hermiticity_defect,
    positivity_report,
    require_hermitian,
)
from qme.analysis import dephasing_counterexample_matrix, dephasing_limit_spectrum


def rand_matrix(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def rand_hermitian(rng, n):
    g = rand_matrix(rng, n)
    return 0.5 * (g + g.conj().T)


class TestCommutatorAlgebra:
    def test_identity_commutes(self):
        rng = np.random.default_rng(0)
        b = rand_matrix(rng, 3)
        assert np.allclose(commutator(np.eye(3), b), 0)

    def test_two_by_two_by_hand(self):
        a = np.diag([1.0, 2.0])
        b = np.array([[0.0, 1.0], [0.0, 0.0]])
        assert np.allclose(commutator(a, b), [[0, -1], [0, 0]])

    def test_antisymmetry(self):
        rng = np.random.default_rng(1)
        a, b = rand_matrix(rng, 4), rand_matrix(rng, 4)
        assert np.allclose(commutator(a, b), -commutator(b, a))

    def test_self_commutator_vanishes(self):
        rng = np.random.default_rng(2)
        a = rand_matrix(rng, 5)
        assert np.abs(commutator(a, a)).max() < 1e-12

    def test_bilinearity(self):
        rng = np.random.default_rng(5)
        a, b, c = (rand_matrix(rng, 3) for _ in range(3))
        assert np.allclose(
            commutator(a, 2.0 * b + c),
            2.0 * commutator(a, b) + commutator(a, c),
        )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            commutator(np.eye(2), np.eye(3))

    def test_nonfinite_rejected(self):
        bad = np.array([[0.0, np.nan], [0.0, 0.0]])
        with pytest.raises(ValueError, match="finite"):
            commutator(bad, np.eye(2))


class TestPositivityReport:
    def test_zero_matrix(self):
        assert positivity_report(np.zeros((3, 3))) == (0.0, True)

    def test_indefinite_diagonal(self):
        min_eig, psd = positivity_report(np.diag([1.0, -0.5]))
        assert min_eig == pytest.approx(-0.5)
        assert not psd

    def test_counterexample_matrix_is_indefinite(self):
        # the 10/27 coupling exceeds the 1/3 diagonal, so the matrix cannot
        # be completed to a positive one; record the actual spectrum edge
        min_eig, psd = positivity_report(dephasing_counterexample_matrix())
        assert min_eig == pytest.approx(-0.09099378869633201, abs=1e-12)
        assert not psd

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_eig(self, seed):
        rng = np.random.default_rng(seed)
        m = rand_hermitian(rng, 6)
        min_eig, psd = positivity_report(m)
        reference = np.linalg.eigvalsh(m)[0]
        assert min_eig == pytest.approx(reference)
        assert psd == (reference >= -1e-10)


class TestDensityMatrix:
    def test_valid_fermion(self):
        rho = DensityMatrix(np.diag([0.3, 0.9]), Statistics.FERMION)
        assert rho.dim == 2
        assert rho.particle_number == pytest.approx(1.2)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityMatrix(np.diag([1.0, -0.2]), Statistics.FERMION)

    def test_rejects_fermion_overfill(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            DensityMatrix(np.diag([1.5, 0.0]), Statistics.FERMION)

    def test_boson_occupation_above_one_is_fine(self):
        rho = DensityMatrix(np.diag([3.0, 0.5]), Statistics.BOSON)
        assert rho.particle_number == pytest.approx(3.5)

    def test_rejects_nonhermitian(self):
        with pytest.raises(ValueError, match="hermiticity"):
            DensityMatrix(np.array([[0.5, 0.3], [0.0, 0.5]]), Statistics.FERMION)

    def test_tolerance_is_respected(self):
        m = np.diag([1.0, -1e-3])
        with pytest.raises(ValueError):
            DensityMatrix(m, Statistics.FERMION)
        DensityMatrix(m, Statistics.FERMION, tolerance=1e-2)  # no raise

    @pytest.mark.parametrize("given", [np.diag([0.5, 0.25]), np.diag([0.5, 0.25]).astype(complex)],
                             ids=["real", "complex"])
    def test_cannot_be_written_after_construction(self, given):
        # the checked matrix is a read-only copy: neither the object nor the
        # array it was built from can move it out of the bounds checked once
        rho = DensityMatrix(given, Statistics.FERMION)
        with pytest.raises(ValueError, match="read-only"):
            rho.matrix[1, 1] = -0.5
        given[1, 1] = 1.5
        assert rho.matrix[1, 1] == 0.25 and given.flags.writeable

    @pytest.mark.parametrize("statistics", list(Statistics))
    @pytest.mark.parametrize(
        "m",
        [np.diag([1.0, 1e308]), np.diag([1e308, 1e308]), np.full((3, 3), 1e308)],
        ids=["hermitized", "trace", "all_entries"],
    )
    def test_rejects_entries_whose_sums_overflow(self, m, statistics):
        # 0.5 * (m + m^+) or the trace overflows; eigvalsh would then return
        # NaN, which every bound comparison lets through, or not converge
        with pytest.raises(ValueError, match="entries too large"):
            DensityMatrix(m, statistics)


class TestStatistics:
    def test_signs(self):
        assert Statistics.FERMION.sign == -1
        assert Statistics.BOSON.sign == +1

    def test_parse(self):
        assert Statistics.parse("fermion") is Statistics.FERMION
        assert Statistics.parse("Boson") is Statistics.BOSON
        with pytest.raises(ValueError, match="unknown statistics"):
            Statistics.parse("anyon")


def test_overflowing_defect_is_rejected_without_a_warning():
    # m - m^+ overflows to inf: the matrix is refused, and no RuntimeWarning
    # (an error under this suite's settings) is raised
    m = np.array([[0.0, 1e308], [-1e308, 0.0]])
    with pytest.raises(ValueError, match="hermiticity defect inf"):
        require_hermitian(m)


def test_defect_measures_max_deviation():
    m = np.array([[0.0, 1.0], [1.0 + 3e-9j, 0.0]])
    assert hermiticity_defect(m) == pytest.approx(3e-9, rel=1e-6)
    require_hermitian(m, tol=1e-8)
    with pytest.raises(ValueError):
        require_hermitian(m, tol=1e-10)


def test_defect_of_a_real_vector_is_zero_without_a_complex_copy(monkeypatch):
    """A real 1-D array (the diagonal of a real diagonal matrix) has defect
    0.0 at once; a complex vector and a real nonsymmetric matrix are measured."""
    assert hermiticity_defect(np.array([0.3, -2.0, 1e308])) == 0.0
    assert hermiticity_defect(np.array([0.5, 1.0 + 2e-3j])) == pytest.approx(4e-3)
    assert hermiticity_defect(np.array([[0.0, 1.0], [0.5, 0.0]])) == 0.5
    n = np.linspace(0.0, 1.0, 5)
    monkeypatch.setattr(np, "asarray", None)  # any conversion would now fail
    assert hermiticity_defect(n) == 0.0
