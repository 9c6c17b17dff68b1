import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from augustin_lab.divergences import (
    INF,
    AugustinProblem,
    ClassicalAugustinProblem,
    classical_pairings,
    divergence_from_pairing,
    objective_F,
    objective_f,
    petz_renyi_divergence,
    weighted_divergence,
)
from augustin_lab.errors import DegenerateTraceWarning, InvalidInput, InvalidOrder
from augustin_lab.linalg import (
    EIG_FLOOR,
    random_density_ensemble,
    thompson_metric_psd,
)
from reference import diagonal_embedding
from conftest import random_simplex


def scalar_divergence(a, q, alpha):
    # direct scalar evaluation of the defining formula on diagonal data
    return math.log(float(np.dot(a**alpha, q ** (1 - alpha)))) / (alpha - 1)


class TestPetzRenyiDivergence:
    def test_zero_on_equal_full_rank(self):
        a = random_density_ensemble(3, 1, 4)[0]
        for alpha in (0.6, 0.8, 1.5, 3.0):
            assert petz_renyi_divergence(a, a, alpha) == pytest.approx(0.0, abs=1e-10)

    def test_diagonal_example(self):
        a = np.diag([0.5, 0.5])
        q = np.diag([0.25, 0.75])
        expected = math.log(4.0 / 3.0)  # = scalar formula at alpha 2
        assert scalar_divergence(np.array([0.5, 0.5]), np.array([0.25, 0.75]), 2.0) == pytest.approx(expected)
        assert petz_renyi_divergence(a, q, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_kernel_gives_infinity(self):
        a = np.diag([0.5, 0.5])
        q = np.diag([0.0, 1.0])  # singular on the support of a
        assert petz_renyi_divergence(a, q, 2.0) == INF

    def test_orthogonal_support_small_order(self):
        a = np.diag([1.0, 0.0])
        q = np.diag([0.0, 1.0])
        assert petz_renyi_divergence(a, q, 0.5) == INF

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_non_psd_argument_raises(self, alpha):
        # not a state: its negative eigenvalue must not be clipped away
        with pytest.raises(InvalidInput, match="not PSD"):
            petz_renyi_divergence(np.diag([1.2, -0.2]), np.eye(2) / 2, alpha)

    def test_non_psd_second_argument_raises(self):
        # below order 1 the negative eigenvalue would count as a zero one
        q = np.diag([1.2, -0.2])
        with pytest.raises(InvalidInput, match="not PSD"):
            petz_renyi_divergence(np.eye(2) / 2, q, 0.5)
        p = AugustinProblem.create([np.eye(2) / 2, np.diag([0.3, 0.7])], [0.5, 0.5], 0.5)
        with pytest.raises(InvalidInput, match="not PSD"):
            objective_F(p, q)

    def test_invalid_orders(self):
        a = random_density_ensemble(0, 1, 2)[0]
        for alpha in (0.0, 1.0, -2.0):
            with pytest.raises(InvalidOrder):
                petz_renyi_divergence(a, a, alpha)

    @pytest.mark.parametrize("alpha", [0.6, 0.8, 1.5, 3.0])
    def test_nonnegative_on_states(self, alpha):
        for seed in range(25):
            a = random_density_ensemble(seed, 1, 4)[0]
            q = random_density_ensemble(seed + 1000, 1, 4)[0]
            assert petz_renyi_divergence(a, q, alpha) >= -1e-10

    @pytest.mark.parametrize("alpha", [0.8, 1.5])
    def test_positive_when_far_apart(self, alpha):
        found = 0
        for seed in range(40):
            a = random_density_ensemble(seed, 1, 3)[0]
            q = random_density_ensemble(seed + 500, 1, 3)[0]
            if thompson_metric_psd(a, q) > 0.1:
                found += 1
                assert petz_renyi_divergence(a, q, alpha) > 1e-4
        assert found > 10


class TestProblems:
    def test_weights_validated(self):
        states = random_density_ensemble(1, 2, 3)
        with pytest.raises(InvalidInput):
            AugustinProblem.create(states, [0.7, 0.2], 1.5)  # does not sum to 1
        with pytest.raises(InvalidInput):
            AugustinProblem.create(states, [1.2, -0.2], 1.5)
        with pytest.raises(InvalidInput):
            AugustinProblem.create(states, [0.2, 0.3, 0.5], 1.5)  # three for two states

    def test_states_validated(self):
        with pytest.raises(InvalidInput):
            AugustinProblem.create([np.diag([1.2, -0.2])], [1.0], 1.5)  # not PSD
        with pytest.raises(InvalidInput):
            AugustinProblem.create([np.diag([0.6, 0.6])], [1.0], 1.5)  # trace 1.2

    def test_rank_deficient_sum_rejected(self):
        a = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(InvalidInput):
            AugustinProblem.create([a, a], [0.5, 0.5], 1.5)

    def test_cached_powers(self):
        states = random_density_ensemble(2, 3, 4)
        p = AugustinProblem.create(states, np.ones(3) / 3, 1.5)
        for j in range(3):
            w = np.linalg.eigvalsh(states[j])
            expected = np.sort(w) ** 1.5
            got = np.sort(np.linalg.eigvalsh(p.state_powers[j]))
            assert np.abs(got - expected).max() <= 1e-10

    def test_classical_row_validation(self):
        with pytest.raises(InvalidInput):
            ClassicalAugustinProblem.create([[0.5, 0.4]], [1.0], 1.5)
        with pytest.raises(InvalidInput):
            ClassicalAugustinProblem.create([[1.0, 0.0], [1.0, 0.0]], [0.5, 0.5], 1.5)
        with pytest.raises(InvalidInput):
            ClassicalAugustinProblem.create([0.5, 0.5], [1.0], 1.5)  # not 2-D
        with pytest.raises(InvalidInput):
            ClassicalAugustinProblem.create([[1.2, -0.2], [0.5, 0.5]], [0.5, 0.5], 1.5)


class TestObjectives:
    def test_single_state_matches_divergence(self):
        a = random_density_ensemble(11, 1, 4)[0]
        p = AugustinProblem.create([a], [1.0], 1.5)
        q = random_density_ensemble(12, 1, 4)[0]
        assert objective_F(p, q) == pytest.approx(petz_renyi_divergence(a, q, 1.5), abs=1e-12)

    def test_zero_at_common_state(self):
        a = random_density_ensemble(13, 1, 3)[0]
        p = AugustinProblem.create([a, a, a], np.ones(3) / 3, 2.0)
        assert objective_F(p, a) == pytest.approx(0.0, abs=1e-10)

    def test_infinity_propagates(self):
        a = np.diag([0.5, 0.5]).astype(complex)
        b = np.diag([0.3, 0.7]).astype(complex)
        p = AugustinProblem.create([a, b], [0.5, 0.5], 2.0)
        assert objective_F(p, np.diag([1.0, 0.0])) == INF

    @pytest.mark.parametrize("alpha", [0.6, 0.8, 1.5, 3.0])
    def test_diagonal_reduction(self, rng, alpha):
        n, d = 4, 5
        pts = np.stack([random_simplex(rng, d) for _ in range(n)])
        w = random_simplex(rng, n)
        cp = ClassicalAugustinProblem.create(pts, w, alpha)
        qp = diagonal_embedding(cp, pts)
        for _ in range(5):
            q = random_simplex(rng, d)
            fv = objective_f(cp, q)
            Fv = objective_F(qp, np.diag(q.astype(complex)))
            assert abs(fv - Fv) <= 1e-12 * (1 + abs(fv))

    def test_classical_single_point(self, rng):
        a = random_simplex(rng, 4)
        p = ClassicalAugustinProblem.create([a], [1.0], 0.8)
        assert objective_f(p, a) == pytest.approx(0.0, abs=1e-12)

    def test_classical_scalar_example(self):
        p = ClassicalAugustinProblem.create([[0.5, 0.5]], [1.0], 2.0)
        assert objective_f(p, np.array([0.25, 0.75])) == pytest.approx(math.log(4 / 3), abs=1e-12)

    def test_classical_kernel_above_order_one(self):
        # a zero coordinate of q: +inf for a point with mass there, else the
        # sum over the support
        p = ClassicalAugustinProblem.create([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]], [0.5, 0.5], 2.0)
        q = np.array([0.25, 0.75, 0.0])
        pair = classical_pairings(p, q)
        assert pair[0] == pytest.approx(0.5**2 / 0.25 + 0.5**2 / 0.75, rel=1e-15)
        assert pair[1] == INF
        assert objective_f(p, q) == INF
        with pytest.raises(InvalidInput):
            classical_pairings(p, np.array([0.5, 0.6, -0.1]))

    def test_non_positive_pairing_above_order_one_is_clamped(self):
        with pytest.warns(DegenerateTraceWarning):
            value = divergence_from_pairing(0.0, 1.5)
        assert value == math.log(EIG_FLOOR) / 0.5

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_classical_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.dirichlet(np.ones(3), size=2)
        p = ClassicalAugustinProblem.create(pts, [0.5, 0.5], 1.5)
        q = rng.dirichlet(np.ones(3))
        assert objective_f(p, q) >= -1e-10


class TestDivergenceMap:
    @pytest.mark.parametrize("alpha", [0.5, 1.5])
    def test_infinity_stays_infinite(self, alpha):
        d = divergence_from_pairing(np.array([INF, 0.5, INF]), alpha)
        assert d[0] == INF and d[2] == INF
        assert d[1] == pytest.approx(math.log(0.5) / (alpha - 1), rel=1e-15)

    def test_non_positive_below_order_one_is_infinite(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no warning of any kind
            d = divergence_from_pairing(np.array([0.0, -1e-3, 0.25, 0.0]), 0.5)
        assert list(d[[0, 1, 3]]) == [INF] * 3
        assert d[2] == pytest.approx(math.log(0.25) / -0.5, rel=1e-15)

    def test_non_positive_entries_above_order_one_warn_once(self):
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            d = divergence_from_pairing(np.array([0.0, 0.5, -2.0, 0.0]), 1.5)
        assert [r.category for r in record] == [DegenerateTraceWarning]
        assert d[[0, 2, 3]] == pytest.approx([math.log(EIG_FLOOR) / 0.5] * 3, rel=1e-15)

    @pytest.mark.parametrize("alpha", [0.3, 0.8, 1.5, 4.0])
    def test_matches_the_scalar_formula(self, alpha):
        pairings = np.exp(np.random.default_rng(11).uniform(-30.0, 30.0, 10_000))
        d = divergence_from_pairing(pairings, alpha)
        expected = np.array([math.log(p) / (alpha - 1) for p in pairings])
        # np.log and math.log differ by at most 1 ulp, which the division by
        # alpha - 1 can round to 2 ulps of the quotient (1 entry here at 4.0)
        assert np.all(np.abs(d - expected) <= 2 * np.finfo(float).eps * np.abs(expected))

    def test_weighted_divergence_is_infinite_when_any_entry_is(self):
        w = np.array([0.5, 0.25, 0.25])
        assert weighted_divergence(w, np.array([0.9, INF, 0.8]), 1.5) == INF
        assert weighted_divergence(w, np.array([0.9, 0.8, INF]), 0.5) == INF
        assert weighted_divergence(w, np.array([0.9, 0.0, 0.8]), 0.5) == INF
        finite = weighted_divergence(w, np.array([0.9, 0.7, 0.8]), 0.5)
        expected = sum(wj * math.log(p) / -0.5 for wj, p in zip(w, [0.9, 0.7, 0.8]))
        assert finite == pytest.approx(expected, rel=1e-15)
