"""AugustinProblem.create: one stack, integer orders by products, and the
split of the power fill over a helper thread."""

import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from augustin_lab import divergences
from augustin_lab.augustin import solve_petz_augustin
from augustin_lab.divergences import DENSITY_ATOL, AugustinProblem
from augustin_lab.errors import InvalidInput
from augustin_lab.linalg import random_density_ensemble

N, D = 32, 64


def _ginibre(rng, d, rank):
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    m = g @ g.conj().T
    m = (m + m.conj().T) / 2
    return m / np.trace(m).real


def _family(name, seed, n, d):
    """The bench's families: Ginibre, and rank-4 or rank-1 states mixed with 1e-3 I/d."""
    rng = np.random.default_rng(seed)
    if name == "ginibre":
        return [_ginibre(rng, d, d) for _ in range(n)]
    rank = 4 if name == "rank4" else 1
    return [(1 - 1e-3) * _ginibre(rng, d, rank) + 1e-3 * np.eye(d) / d for _ in range(n)]


def _eigh_powers(states, order):
    lam, vecs = np.linalg.eigh(np.stack([(s + s.conj().T) / 2 for s in states]))
    return np.stack(
        [(v * np.clip(w, 0.0, None) ** order) @ v.conj().T for w, v in zip(lam, vecs)]
    )


@pytest.fixture
def threads_started(monkeypatch):
    """Count the helper threads that create starts."""
    started = []

    class Counted(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(divergences.threading, "Thread", Counted)
    return started


@pytest.fixture(scope="module")
def states():
    return random_density_ensemble(5, N, D)


def _non_psd(d, low=-1e-3):
    # unit trace, one eigenvalue `low`; small enough to keep the sum full-rank
    bad = np.zeros((d, d), dtype=complex)
    bad[0, 0], bad[1, 1] = 1.0 - low, low
    return bad


class TestSplit:
    @pytest.mark.parametrize("order", [0.8, 1.5])
    def test_split_powers_are_bit_identical(self, monkeypatch, threads_started, states, order):
        weights = np.full(N, 1.0 / N)
        monkeypatch.setattr(divergences, "SPLIT", False)
        serial = AugustinProblem.create(states, weights, order).state_powers
        assert threads_started == []
        monkeypatch.setattr(divergences, "SPLIT", True)
        split = AugustinProblem.create(states, weights, order).state_powers
        assert len(threads_started) == 1
        assert np.array_equal(serial, split)

    def test_split_under_fast_thread_switching(self, monkeypatch, states):
        weights = np.full(N, 1.0 / N)
        monkeypatch.setattr(divergences, "SPLIT", False)
        serial = AugustinProblem.create(states, weights, 3.0).state_powers
        monkeypatch.setattr(divergences, "SPLIT", True)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                split = AugustinProblem.create(states, weights, 3.0).state_powers
                assert np.array_equal(serial, split)
        finally:
            sys.setswitchinterval(interval)

    def test_one_block_stays_serial(self, monkeypatch, threads_started):
        # capacity's 4 states at d=2 make one LAPACK call on the caller's thread
        monkeypatch.setattr(divergences, "SPLIT", True)
        AugustinProblem.create(random_density_ensemble(1, 4, 2), np.full(4, 0.25), 0.8)
        assert threads_started == []

    @pytest.mark.parametrize("order", [0.8, 3.0])
    def test_non_psd_state_raises_the_same_error_in_either_half(
        self, monkeypatch, threads_started, states, order
    ):
        monkeypatch.setattr(divergences, "SPLIT", True)
        messages = []
        for j in (1, N - 2):
            bad = list(states)
            bad[j] = _non_psd(D)
            with pytest.raises(InvalidInput) as info:
                AugustinProblem.create(bad, np.full(N, 1.0 / N), order)
            messages.append(str(info.value))
        assert len(threads_started) == 2
        assert messages == ["matrix is not PSD: min eigenvalue -1.000e-03"] * 2

    def test_first_bad_state_wins_when_both_halves_fail(self, monkeypatch, states):
        monkeypatch.setattr(divergences, "SPLIT", True)
        bad = list(states)
        bad[N - 2] = _non_psd(D)
        bad[1] = _non_psd(D, low=-2e-3)
        with pytest.raises(InvalidInput, match="min eigenvalue -2.000e-03"):
            AugustinProblem.create(bad, np.full(N, 1.0 / N), 0.8)

    @pytest.mark.parametrize("order", [0.8, 3.0])
    @pytest.mark.parametrize("split", [False, True])
    def test_trace_and_rank_checks_in_either_half(self, monkeypatch, states, order, split):
        monkeypatch.setattr(divergences, "SPLIT", split)
        weights = np.full(N, 1.0 / N)
        for j in (1, N - 2):
            bad = list(states)
            bad[j] = 1.5 * states[j]
            with pytest.raises(InvalidInput, match="is not 1 within"):
                AugustinProblem.create(bad, weights, order)
        # every state supported on the first D - 1 coordinates
        embedded = []
        for s in random_density_ensemble(6, N, D - 1):
            m = np.zeros((D, D), dtype=complex)
            m[:-1, :-1] = s
            embedded.append(m)
        with pytest.raises(InvalidInput, match="must be full-rank"):
            AugustinProblem.create(embedded, weights, order)

    def test_helper_error_is_raised_on_the_caller(self, monkeypatch, states):
        monkeypatch.setattr(divergences, "SPLIT", True)
        original = divergences._fill_powers
        caller, running = threading.current_thread(), threading.active_count()

        def fails_off_the_caller(stack, order):
            if threading.current_thread() is not caller:
                raise FloatingPointError("helper failed")
            original(stack, order)

        monkeypatch.setattr(divergences, "_fill_powers", fails_off_the_caller)
        with pytest.raises(FloatingPointError, match="helper failed"):
            AugustinProblem.create(states, np.full(N, 1.0 / N), 0.8)
        assert threading.active_count() == running


class TestIntegerOrders:
    @pytest.mark.parametrize("family", ["ginibre", "rank4", "rank1"])
    @pytest.mark.parametrize("order", [2.0, 3.0, 4.0, 5.0, 7.0])
    def test_products_agree_with_eigh(self, family, order):
        # stated tolerance: 4e-15 of the stack's Frobenius norm
        states = _family(family, 11, 8, 48)
        got = AugustinProblem.create(states, np.full(8, 1 / 8), order).state_powers
        want = _eigh_powers(states, order)
        assert np.linalg.norm(got - want) <= 4e-15 * np.linalg.norm(want)

    @pytest.mark.parametrize("order", [3.0, 5.0])
    def test_final_iterates_follow_the_eigh_route(self, monkeypatch, order):
        # Ginibre states only: on the rank-4 family the solver amplifies the
        # 1-ulp change of the powers (up to 9e-15 at n=8, d=32, order 5).
        for seed in range(5):
            states = _family("ginibre", seed, 8, 32)
            got = solve_petz_augustin(AugustinProblem.create(states, np.full(8, 1 / 8), order))
            monkeypatch.setattr(divergences, "MAX_PRODUCT_ORDER", 1)
            want = solve_petz_augustin(AugustinProblem.create(states, np.full(8, 1 / 8), order))
            monkeypatch.undo()
            assert (got.stop_reason, len(got.iterates.rows)) == (
                want.stop_reason,
                len(want.iterates.rows),
            )
            assert np.abs(got.final - want.final).max() <= 2e-16

    def test_large_integer_orders_take_eigh(self, monkeypatch):
        calls = []
        matrix_power = np.linalg.matrix_power

        def counted(a, k):
            calls.append(k)
            return matrix_power(a, k)

        monkeypatch.setattr(np.linalg, "matrix_power", counted)
        states = _family("ginibre", 11, 4, 8)
        for order in (7.0, 8.0, 1e300):
            p = AugustinProblem.create(states, np.full(4, 0.25), order)
            assert np.all(np.isfinite(p.state_powers))
        assert calls == [7]
        want = _eigh_powers(states, 8.0)
        got = AugustinProblem.create(states, np.full(4, 0.25), 8.0).state_powers
        assert np.linalg.norm(got - want) <= 4e-15 * np.linalg.norm(want)

    def test_psd_state_at_the_tolerance_is_accepted(self):
        # eigenvalue -DENSITY_ATOL / 2: the Cholesky check passes it, as eigh did
        lam = np.array([0.5, 0.5 + DENSITY_ATOL / 2, -DENSITY_ATOL / 2])
        p = AugustinProblem.create([np.diag(lam), np.eye(3) / 3], [0.5, 0.5], 3.0)
        assert np.allclose(p.state_powers[0], np.diag(lam**3), atol=1e-15)

    def test_non_psd_fallback_reports_the_min_eigenvalue(self):
        lam = np.array([0.5, 0.5 + 1e-3, -1e-3])
        with pytest.raises(InvalidInput, match="min eigenvalue -1.000e-03"):
            AugustinProblem.create([np.eye(3) / 3, np.diag(lam)], [0.5, 0.5], 5.0)

    def test_real_states_keep_their_dtype(self):
        states = [np.diag([0.25, 0.75]), np.diag([0.5, 0.5])]
        p = AugustinProblem.create(states, [0.5, 0.5], 2.0)
        assert p.state_powers.dtype == np.float64
        assert np.array_equal(p.state_powers[0], np.diag([0.0625, 0.5625]))


    @pytest.mark.parametrize("dtype", [np.float32, np.complex64])
    def test_single_precision_states_are_widened(self, dtype):
        diagonals = ([0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5])
        states = [np.diag(v).astype(dtype) for v in diagonals]
        wide = [s.astype(np.result_type(dtype, np.float64)) for s in states]
        p = AugustinProblem.create(states, np.full(3, 1 / 3), 2.0)
        ref = AugustinProblem.create(wide, np.full(3, 1 / 3), 2.0)
        assert p.state_powers.dtype == ref.state_powers.dtype
        assert np.array_equal(solve_petz_augustin(p).final, solve_petz_augustin(ref).final)


class TestOneStack:
    @pytest.mark.parametrize("order", [0.8, 3.0])
    @pytest.mark.parametrize("split", [False, True])
    def test_peak_memory_is_below_two_stacks(self, monkeypatch, states, order, split):
        monkeypatch.setattr(divergences, "SPLIT", split)
        one_stack = N * D * D * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            AugustinProblem.create(states, np.full(N, 1.0 / N), order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * one_stack

    def test_shape_mismatch_and_empty_input_rejected(self):
        with pytest.raises(InvalidInput, match="expected at least one state"):
            AugustinProblem.create([], [], 1.5)
        states = [np.eye(2) / 2, np.eye(3) / 3]
        with pytest.raises(InvalidInput, match="has shape"):
            AugustinProblem.create(states, [0.5, 0.5], 1.5)

    def test_n_and_dim_read_the_powers(self, states):
        p = AugustinProblem.create(states, np.full(N, 1.0 / N), 1.5)
        assert (p.n, p.dim) == (N, D)
        assert not hasattr(p, "states")


class TestWorkerRule:
    def test_no_blas_variable_means_no_split(self):
        assert divergences._idle_core({}, 2) is False
        assert divergences._idle_core({}, 64) is False

    @pytest.mark.parametrize("name", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
    @pytest.mark.parametrize("threads", [1, 2, 3, 8])
    def test_split_when_cores_hold_two_blas_pools(self, name, threads):
        assert divergences._idle_core({name: str(threads)}, 8) is (8 // threads >= 2)
        assert divergences._idle_core({name: str(threads)}, 2) is (threads == 1)

    def test_openblas_variable_wins_and_junk_is_ignored(self):
        env = {"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}
        assert divergences._idle_core(env, 4) is False
        assert divergences._idle_core(env, 8) is True
        assert divergences._idle_core({"OPENBLAS_NUM_THREADS": "x"}, 8) is False
        assert divergences._idle_core({"OPENBLAS_NUM_THREADS": "0"}, 8) is False

    def test_read_once_at_import(self):
        env = {k: v for k, v in os.environ.items() if not k.endswith("_NUM_THREADS")}
        env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        argv = [sys.executable, "-c", "import augustin_lab.divergences as d; print(d.SPLIT)"]

        def split(**extra):
            done = subprocess.run(
                argv, env={**env, **extra}, capture_output=True, text=True, timeout=60
            )
            return done.stdout.strip()

        assert split() == "False"
        assert split(OPENBLAS_NUM_THREADS="1") == str(divergences._usable_cores() >= 2)
