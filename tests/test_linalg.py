import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augustin_lab.errors import InvalidInput, SingularMatrix
from augustin_lab.linalg import (
    hermitian_eig,
    hermitize,
    matrix_power,
    random_density_ensemble,
    thompson_metric_psd,
    thompson_metric_vec,
)
from conftest import random_spd


def two_by_two_eigenvalues(m):
    # closed-form spectrum of a real symmetric 2x2, our independent oracle
    a, b, d = m[0, 0], m[0, 1], m[1, 1]
    mean = (a + d) / 2
    r = math.hypot((a - d) / 2, b)
    return mean + r, mean - r


class TestHermitianEig:
    def test_identity(self):
        spec = hermitian_eig(np.eye(2))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0])

    def test_diagonal(self):
        spec = hermitian_eig(np.diag([3.0, 1.0]))
        assert np.allclose(spec.eigenvalues, [3.0, 1.0])

    def test_two_by_two_against_closed_form(self):
        m = np.array([[2.0, 1.0], [1.0, 2.0]])
        spec = hermitian_eig(m)
        assert np.allclose(spec.eigenvalues, two_by_two_eigenvalues(m))
        assert np.allclose(spec.eigenvalues, [3.0, 1.0])

    def test_sorted_and_reconstructs(self, rng):
        for _ in range(20):
            q = random_spd(rng, 5)
            spec = hermitian_eig(q)
            assert np.all(np.diff(spec.eigenvalues) <= 0)
            err = np.abs(spec.apply(spec.eigenvalues) - q).max()
            assert err <= 1e-10 * (1 + np.abs(q).max())

    def test_deterministic(self, rng):
        q = random_spd(rng, 6)
        s1 = hermitian_eig(q)
        s2 = hermitian_eig(q)
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
        assert np.array_equal(s1.eigenvectors, s2.eigenvectors)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInput):
            hermitian_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInput):
            hermitize(np.ones((2, 3)))


class TestMatrixPower:
    def test_identity_any_power(self):
        for r in (-2.0, -0.5, 0.0, 0.5, 1.0, 3.7):
            assert np.allclose(matrix_power(np.eye(3), r), np.eye(3))

    def test_diagonal_square_root(self):
        out = matrix_power(np.diag([4.0, 9.0]), 0.5)
        assert np.allclose(out, np.diag([2.0, 3.0]))

    def test_power_one_and_zero(self, rng):
        q = random_spd(rng, 4)
        assert np.allclose(matrix_power(q, 1.0), q)
        assert np.allclose(matrix_power(q, 0.0), np.eye(4))

    @pytest.mark.parametrize("r", [-1.0, -0.3, 0.25, 0.5, 2.0])
    def test_round_trip(self, rng, r):
        for _ in range(10):
            q = random_spd(rng, 4)
            back = matrix_power(matrix_power(q, r), 1.0 / r)
            assert np.abs(back - q).max() <= 1e-9 * (1 + np.abs(q).max())

    def test_multiplicativity_on_common_matrix(self, rng):
        q = random_spd(rng, 4)
        for r, s in [(0.5, 0.25), (-0.5, 1.5), (2.0, -1.0)]:
            lhs = matrix_power(q, r + s)
            rhs = matrix_power(q, r) @ matrix_power(q, s)
            assert np.abs(lhs - rhs).max() <= 1e-8 * (1 + np.abs(lhs).max())

    def test_singular_fractional_rejected(self):
        singular = np.diag([1.0, 0.0])
        with pytest.raises(SingularMatrix):
            matrix_power(singular, 0.5)
        with pytest.raises(SingularMatrix):
            matrix_power(singular, -1.0)
        # nonnegative integer powers of a singular matrix are fine
        assert np.allclose(matrix_power(singular, 2.0), np.diag([1.0, 0.0]))

    def test_non_finite_power_rejected(self, rng):
        with pytest.raises(InvalidInput):
            matrix_power(random_spd(rng, 2), math.inf)


class TestThompsonPsd:
    def test_zero_on_equal(self, rng):
        q = random_spd(rng, 4)
        assert thompson_metric_psd(q, q) == pytest.approx(0.0, abs=1e-12)

    def test_scaling(self, rng):
        q = random_spd(rng, 4)
        assert thompson_metric_psd(2 * q, q) == pytest.approx(math.log(2), abs=1e-12)

    def test_symmetry_and_triangle(self, rng):
        for _ in range(50):
            u, v, w = (random_spd(rng, 3) for _ in range(3))
            duv = thompson_metric_psd(u, v)
            assert abs(duv - thompson_metric_psd(v, u)) <= 1e-9
            assert duv <= thompson_metric_psd(u, w) + thompson_metric_psd(w, v) + 1e-9

    def test_non_pd_rejected(self):
        with pytest.raises(SingularMatrix):
            thompson_metric_psd(np.diag([1.0, 0.0]), np.eye(2))
        with pytest.raises(SingularMatrix):
            thompson_metric_psd(np.eye(2), np.diag([1.0, -1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            thompson_metric_psd(np.eye(2), np.eye(3))

    def test_power_contraction(self, rng):
        for _ in range(50):
            u, v = random_spd(rng, 4), random_spd(rng, 4)
            base = thompson_metric_psd(u, v)
            for r in (-1.0, -0.5, 0.3, 0.7, 1.0):
                d = thompson_metric_psd(matrix_power(u, r), matrix_power(v, r))
                assert d <= abs(r) * base + 1e-9

    def test_log_homogeneity(self, rng):
        for _ in range(30):
            u, v = random_spd(rng, 4), random_spd(rng, 4)
            base = thompson_metric_psd(u, v)
            for r in (0.1, 0.5, 2.0, 10.0):
                assert thompson_metric_psd(u, r * v) <= base + abs(math.log(r)) + 1e-9


class TestThompsonVec:
    def test_zero_on_equal(self):
        v = np.array([0.3, 0.7])
        assert thompson_metric_vec(v, v) == 0.0

    def test_coordinatewise_example(self):
        assert thompson_metric_vec([1.0, 4.0], [2.0, 2.0]) == pytest.approx(math.log(2))

    def test_matches_diagonal_matrices(self, rng):
        for _ in range(20):
            u = rng.uniform(0.1, 5.0, size=4)
            v = rng.uniform(0.1, 5.0, size=4)
            dv = thompson_metric_vec(u, v)
            dm = thompson_metric_psd(np.diag(u), np.diag(v))
            assert abs(dv - dm) <= 1e-12

    @given(
        st.lists(st.floats(0.01, 100.0), min_size=1, max_size=6),
        st.sampled_from([-2.0, -0.5, 0.5, 3.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_power_equality_vectors(self, entries, r):
        u = np.array(entries)
        v = np.roll(u, 1) + 0.01
        lhs = thompson_metric_vec(u**r, v**r)
        assert abs(lhs - abs(r) * thompson_metric_vec(u, v)) <= 1e-9 * (1 + lhs)

    def test_rejects_nonpositive(self):
        with pytest.raises(InvalidInput):
            thompson_metric_vec([1.0, 0.0], [1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInput):
            thompson_metric_vec([1.0, 1.0], [1.0, 1.0, 1.0])


class TestRandomDensity:
    def test_dimension_one(self):
        assert np.allclose(random_density_ensemble(5, 1, 1)[0], [[1.0]])

    def test_deterministic(self):
        assert np.array_equal(
            random_density_ensemble(42, 1, 6)[0], random_density_ensemble(42, 1, 6)[0]
        )

    def test_statistics(self):
        traces = []
        for seed in range(1000):
            m = random_density_ensemble(seed, 1, 8)[0]
            w = np.linalg.eigvalsh(m)
            assert w.min() > 0
            traces.append(np.trace(m).real)
        assert np.mean(traces) == pytest.approx(1.0, abs=1e-12)

    def test_ensemble_distinct_and_deterministic(self):
        e1 = random_density_ensemble(7, 3, 4)
        e2 = random_density_ensemble(7, 3, 4)
        assert all(np.array_equal(a, b) for a, b in zip(e1, e2))
        assert not np.array_equal(e1[0], e1[1])

    def test_invalid_dimension(self):
        with pytest.raises(InvalidInput):
            random_density_ensemble(0, 1, 0)[0]
        for n, d in ((0, 3), (3, 0)):
            with pytest.raises(InvalidInput):
                random_density_ensemble(0, n, d)
