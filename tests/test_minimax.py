import itertools
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from fractions import Fraction
from functools import reduce
from pathlib import Path

import numpy as np
import pytest

import convmax
import convmax.minimax as minimax
from convmax.constants import optimal_constant
from convmax.errors import BudgetExceeded
from convmax.gridfn import GridFn, convolve_many
from convmax.minimax import (
    SolverConfig,
    _convolve_rows,
    _polish,
    _profiles,
    _simplex_grid,
    diagonal_constant,
    general_constant,
    grid_oracle,
    intersection_restricted_solve,
)

from conftest import FAST, brute_coarse_diagonal_grid, brute_convolve, brute_grid_oracle


class TestConfig:
    def test_json_roundtrip(self):
        cfg = SolverConfig(multistarts=5, seed=7)
        assert SolverConfig(**json.loads(json.dumps(asdict(cfg)))) == cfg

    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.seed == 0
        assert list(asdict(cfg)) == ["multistarts", "seed"]


def _conv_matrix(c: np.ndarray, m: int) -> np.ndarray:
    """Reference column build: M[i, a] = c[i - a] (0 outside c), so M @ w == np.convolve(c, w)."""
    M = np.zeros((len(c) + m, m + 1))
    for a in range(m + 1):
        M[a:a + len(c), a] = c
    return M


def _factors(x: np.ndarray, k: int, r: int):
    """The k factors of an epigraph point x = (r factors of length m+1, t)."""
    return list(x[:-1].reshape(r, -1)) * (k // r)


def _reference_jac(k: int, r: int, m: int):
    """The epigraph constraint Jacobian built block by block from ``_conv_matrix``."""
    copies = k // r

    def jac(x):
        f = _factors(x, k, r)
        blocks = [_conv_matrix(-copies * reduce(_convolve_rows, f[:j] + f[j + 1:]), m)
                  for j in range(r)]
        return np.column_stack(blocks + [np.ones(k * m + 1)])

    return jac


def test_conv_matrix_matches_loop():
    rng = np.random.default_rng(0)
    for n, m in [(1, 1), (3, 2), (5, 4), (2, 6)]:
        c = rng.random(n)
        M = _conv_matrix(c, m)
        loop = [[c[i - a] if 0 <= i - a < n else 0.0 for a in range(m + 1)]
                for i in range(n + m)]
        assert M.tolist() == loop
        w = rng.random(m + 1)
        assert M @ w == pytest.approx(np.convolve(c, w), rel=1e-12)


class TestEpigraphJacobian:
    CASES = [(k, m, r) for k, m in [(2, 3), (3, 2), (4, 5)] for r in sorted({1, k})]

    @pytest.mark.parametrize("k,m,r", CASES)
    def test_matches_central_difference(self, k, m, r):
        def cons(x):
            return x[-1] - reduce(_convolve_rows, _factors(x, k, r))

        rng = np.random.default_rng(7)
        x, h = np.concatenate([rng.exponential(size=r * (m + 1)), [0.7]]), 1e-6
        J = _reference_jac(k, r, m)(x)
        assert J.shape == (k * m + 1, r * (m + 1) + 1)
        for col in range(len(x)):
            e = np.zeros(len(x))
            e[col] = h
            fd = (cons(x + e) - cons(x - e)) / (2 * h)
            assert J[:, col] == pytest.approx(fd, rel=1e-6, abs=1e-8)


def _minimize_epigraph(ws0, k):
    """``_polish``'s result from ``scipy.optimize.minimize``'s x: the reference for the direct drive.

    The constraint Jacobian is the column build ``_reference_jac``, so equal
    results also show that ``_polish``'s Toeplitz-view Jacobian takes the
    column build's iterates.
    """
    from scipy.optimize import minimize

    r, m = len(ws0), len(ws0[0]) - 1
    n_w = r * (m + 1)
    A_eq = np.zeros((r, n_w + 1))
    for j in range(r):
        A_eq[j, j * (m + 1):(j + 1) * (m + 1)] = 1.0
    grad = np.zeros(n_w + 1)
    grad[-1] = 1.0
    x0 = np.concatenate([*ws0, [_profiles(np.array(ws0), k).max()]])
    res = minimize(
        lambda x: x[-1], x0, method="SLSQP", jac=lambda x: grad,
        constraints=[
            {"type": "ineq", "fun": lambda x: x[-1] - reduce(_convolve_rows, _factors(x, k, r)),
             "jac": _reference_jac(k, r, m)},
            {"type": "eq", "fun": lambda x: x[:-1].reshape(r, m + 1).sum(axis=1) - 1.0,
             "jac": lambda x: A_eq},
        ],
        bounds=[(0.0, None)] * n_w + [(None, None)],
        options={"maxiter": minimax.SLSQP_MAXITER, "ftol": minimax.SLSQP_ACC},
    )
    assert res.success == (res.status == 0)
    ws = [w / w.sum() for w in np.maximum(res.x[:-1].reshape(r, m + 1), 0.0)]
    return ws, float(_profiles(np.array(ws), k).max()), res.status, res.nit


def _polish_solves(starts, k):
    """``_polish`` from a list of starts, its arrays read back as one (ws, peak, mode, nit) per start.

    Also checks that the profiles are the fold of the weights ``_polish``
    returns, and that the modes and nit are integer arrays.
    """
    W, profiles, peaks, modes, nits, calls, rounds = _polish(np.array(starts, dtype=float), k)
    assert profiles.tobytes() == _profiles(W, k).tobytes()
    assert peaks.tobytes() == profiles.max(axis=1).tobytes()
    assert modes.dtype.kind == nits.dtype.kind == "i"
    peaks = peaks.tolist()
    solves = [(list(W[b]), peaks[b], *map(int, (modes[b], nits[b]))) for b in range(len(W))]
    return solves, calls, rounds


def _assert_same_solve(got, want):
    """Solves ``got`` and ``want`` agree bit for bit, and the exit mode is an int."""
    (ws, v, mode, nit), (ref_ws, ref_v, ref_mode, ref_nit) = got, want
    assert [w.tobytes() for w in ws] == [w.tobytes() for w in ref_ws]
    assert (v, mode, nit) == (ref_v, ref_mode, ref_nit)
    assert type(mode) is int


class TestDirectSLSQP:
    """The direct drive of scipy's SLSQP core takes exactly ``minimize``'s iterates.

    It fails if scipy changes the private core's calling convention.
    """

    @staticmethod
    def starts(r, m):
        uniform = [np.full(m + 1, 1.0 / (m + 1))] * r
        # point masses: every weight sits on a bound, so w <= 1 was active there
        first, last = np.eye(m + 1)[0], np.eye(m + 1)[-1]
        deltas = [[first] * r, [first, last] * (r // 2) + [first] * (r % 2)]
        rng = np.random.default_rng(100 * r + m)
        seeded = [[w / w.sum() for w in (rng.exponential(size=m + 1) for _ in range(r))]
                  for _ in range(3)]
        return [uniform] + deltas + seeded

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("mode", ["diagonal", "general"])
    def test_bit_identical_to_minimize(self, mode, k, m):
        r = 1 if mode == "diagonal" else k
        for ws0 in self.starts(r, m):
            _assert_same_solve(_polish_solves([ws0], k)[0][0], _minimize_epigraph(ws0, k))

    @pytest.mark.parametrize("k,r,m", [(2, 1, 4), (3, 3, 2)])
    def test_weights_bounded_below_only(self, monkeypatch, k, r, m):
        # sum(w) = 1 and w >= 0 imply w <= 1, so the core gets no finite upper bound
        bounds = []
        core = minimax._slsqp_core

        def recording(state, fx, grad, C, d, x, mult, xl, xu, buffer, ints):
            bounds.append((xl.copy(), xu.copy()))
            return core(state, fx, grad, C, d, x, mult, xl, xu, buffer, ints)

        monkeypatch.setattr(minimax, "_slsqp_core", recording)
        _polish(np.array(TestDirectSLSQP.starts(r, m)[:2]), k)
        n_w = r * (m + 1)
        assert len(bounds) > 2
        for xl, xu in bounds:
            assert np.isnan(xu).all() and len(xu) == n_w + 1
            assert xl[:-1].tolist() == [0.0] * n_w and np.isnan(xl[-1])

    def test_missing_core_names_the_scipy_version(self):
        # scipy.optimize itself loads; only the compiled core is missing, as before 1.16
        code = ("import sys, scipy.optimize; sys.modules['scipy.optimize._slsqplib'] = None\n"
                "try:\n    import convmax.minimax\n"
                "except ImportError as e:\n    print(e)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(convmax.__file__).parent.parent)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True).stdout
        assert "scipy >= 1.16" in out


class TestLockstep:
    """``_polish`` runs its starts in lock-step, and each start's solve is the one it gets alone."""

    @staticmethod
    def alone(starts, k):
        """Each start's solve and core calls, from one ``_polish`` call per start."""
        runs = [_polish_solves([ws0], k) for ws0 in starts]
        assert all(calls == rounds for _, calls, rounds in runs)
        return [solves[0] for solves, _, _ in runs], [calls for _, calls, _ in runs]

    @pytest.mark.parametrize("m", [1, 2, 4, 8])
    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("mode", ["diagonal", "general"])
    def test_batch_matches_alone(self, mode, k, m):
        r = 1 if mode == "diagonal" else k
        starts = TestDirectSLSQP.starts(r, m)
        solves, calls, rounds = _polish_solves(starts, k)
        ref, ref_calls = self.alone(starts, k)
        assert len(solves) == len(starts)
        for got, want in zip(solves, ref):
            _assert_same_solve(got, want)
        # the starts leave the batch on different rounds, and it runs until the last one exits
        assert len(set(ref_calls)) > 1
        assert (calls, rounds) == (sum(ref_calls), max(ref_calls))

    def test_iteration_cap_stops_some_starts(self, monkeypatch):
        # the cap is read into the core's state when ``_lockstep`` runs
        monkeypatch.setattr(minimax, "SLSQP_MAXITER", 7)
        starts = TestDirectSLSQP.starts(1, 4)
        solves, _, _ = _polish_solves(starts, 3)
        ref, _ = self.alone(starts, 3)
        for got, want in zip(solves, ref):
            _assert_same_solve(got, want)
        # mode 9 is the iteration limit; the uniform start converges in 6 iterations
        assert [mode for _, _, mode, _ in solves][:2] == [0, 9]
        assert all(nit <= 7 for *_, nit in solves)

    def test_chunks_stay_within_block_entries(self, monkeypatch):
        k, r, m = 2, 2, 4
        starts = TestDirectSLSQP.starts(r, m)
        want, want_calls, _ = _polish_solves(starts, k)
        *_, entries = minimax._work_sizes(k, r, m)
        chunks = []
        core = minimax._slsqp_core

        def recording(state, fx, grad, C, d, x, mult, xl, xu, buffer, ints):
            # each work array is a row (C: a transposed slice) of its chunk's array
            bases = [a.base for a in (C, d, x, mult, buffer, ints)]
            if not chunks or chunks[-1][0] is not bases[0]:
                chunks.append(bases)
            return core(state, fx, grad, C, d, x, mult, xl, xu, buffer, ints)

        monkeypatch.setattr(minimax, "_slsqp_core", recording)
        for cap, per_chunk in [(2 * entries + 1, 2), (entries - 1, 1)]:
            chunks.clear()
            monkeypatch.setattr(minimax, "BLOCK_ENTRIES", cap)
            solves, calls, rounds = _polish_solves(starts, k)
            for got, ref in zip(solves, want):
                _assert_same_solve(got, ref)
            assert len(solves) == len(starts) and calls == want_calls
            # the chunks ran one after the other, none of them revisited
            assert len(chunks) == len({id(c[0]) for c in chunks}) == len(starts) // per_chunk
            for bases in chunks:
                assert len(bases[2]) == per_chunk
                # below one start's entries the chunks hold one start each, over the cap
                assert per_chunk == 1 or sum(a.size for a in bases) <= cap
            assert (rounds == calls) == (per_chunk == 1)

    @pytest.mark.parametrize("k,r", [(2, 1), (3, 1), (2, 2), (3, 3)])
    def test_core_gets_the_reference_jacobian(self, monkeypatch, k, r):
        # the starts include point masses, so the band holds -0.0 entries
        # (-copies * 0.0) and the entries outside it must stay +0.0
        m = 4
        starts = TestDirectSLSQP.starts(r, m)
        jac = _reference_jac(k, r, m)
        last_mode, checked = {}, []
        core = minimax._slsqp_core

        def checking(state, fx, grad, C, d, x, mult, xl, xu, buffer, ints):
            # on its first call and after each Jacobian request a start's C is fresh
            if last_mode.get(id(state), -1) == -1:
                assert C[r:].tobytes() == jac(x.copy()).tobytes()
                checked.append(id(state))
            out = core(state, fx, grad, C, d, x, mult, xl, xu, buffer, ints)
            last_mode[id(state)] = state["mode"]
            return out

        monkeypatch.setattr(minimax, "_slsqp_core", checking)
        _polish(np.array(starts), k)
        assert len(set(checked)) == len(starts) and len(checked) > 2 * len(starts)

    def test_non_finite_entries_become_one_violation(self):
        # replaced in place; the finite entries keep their bits
        a = np.array([[0.1, -np.inf, np.nan], [np.inf, -1e308, 5e-324]])
        assert minimax._finite(a) is a
        v = -minimax.OVERFLOW_VIOLATION
        assert a.tobytes() == np.array([[0.1, v, v], [v, -1e308, 5e-324]]).tobytes()

    def test_overflowing_folds_are_finite_violations(self, monkeypatch):
        # at (k, m) = (100, 3) some trial points the core asks about lie far off the
        # simplex, and their 100-fold overflows float64; pytest turns a
        # RuntimeWarning into an error, so an overflow that warns fails here
        met = []
        finite = minimax._finite

        def spy(a):
            met.append(not np.isfinite(a).all())
            return finite(a)

        monkeypatch.setattr(minimax, "_finite", spy)
        res = diagonal_constant(100, 3, SolverConfig(seed=0))
        assert any(met)
        # the violation leaves every start's iterates as the raw inf and NaN did
        assert res.value == pytest.approx(0.02698055590584684, abs=1e-12)
        assert res.slsqp_status == {0: 63, 8: 1}


def _fresh(code: str) -> str:
    """Stdout of ``code`` run in a fresh interpreter that imports convmax and these tests."""
    paths = [str(Path(convmax.__file__).parent.parent), str(Path(__file__).parent)]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestCoreLoader:
    """``minimax`` loads only scipy's compiled SLSQP extension, never ``scipy.optimize``."""

    def test_later_scipy_optimize_reuses_the_core(self):
        # the extension this module loaded is the one scipy.optimize then drives,
        # and the direct drive still takes minimize's iterates bit for bit
        code = """
import sys
import convmax.minimax as minimax
assert "scipy.optimize" not in sys.modules
import scipy.optimize
from test_minimax import TestDirectSLSQP, _assert_same_solve, _minimize_epigraph, _polish_solves
assert scipy.optimize._slsqp_py.slsqp is minimax._slsqp_core
for r in (1, 2):
    for ws0 in TestDirectSLSQP.starts(r, 3):
        _assert_same_solve(_polish_solves([ws0], 2)[0][0], _minimize_epigraph(ws0, 2))
print("ok")
"""
        assert _fresh(code).split() == ["ok"]

    def test_earlier_scipy_optimize_core_is_reused(self):
        code = """
import sys
import scipy.optimize
core = sys.modules["scipy.optimize._slsqplib"]
import convmax.minimax as minimax
assert sys.modules["scipy.optimize._slsqplib"] is core
assert minimax._slsqp_core is core.slsqp
print("ok")
"""
        assert _fresh(code).split() == ["ok"]

    def test_tracer_names_resolve_from_scipy_optimize(self):
        import scipy.optimize

        assert minimax.minimize is scipy.optimize.minimize
        assert minimax.linprog is scipy.optimize.linprog

    def test_other_names_raise_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            minimax.no_such_name
        assert not hasattr(minimax, "no_such_name")

    def test_directory_without_the_core_names_the_scipy_version(self, monkeypatch, tmp_path):
        import scipy

        (tmp_path / "optimize").mkdir()
        monkeypatch.delitem(sys.modules, "scipy.optimize._slsqplib", raising=False)
        monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
        with pytest.raises(ImportError, match=r"scipy >= 1\.16"):
            minimax._load_slsqp_core()
        assert "scipy.optimize._slsqplib" not in sys.modules


def test_profiles_match_fold_from_one():
    # one factor (r = 1) is folded k times, k factors (r = k) once each, left to
    # right; starting the float fold at the first factor keeps every bit, one
    # point or stacked
    rng = np.random.default_rng(1)
    for m, k in [(1, 2), (2, 5), (7, 3), (16, 2), (40, 4)]:
        for r in (1, k):
            F = rng.exponential(size=(3, r, m + 1))
            acc = np.array([1.0])
            for j in list(range(r)) * (k // r):
                acc = _convolve_rows(acc, F[1, j])
            assert np.array_equal(_profiles(F[1], k), acc)
            assert np.array_equal(_profiles(F, k)[1], acc)


def _stub_polish(peaks, modes=None, seen=None):
    """A ``_polish`` stand-in: every start ends where it began, with a one-entry
    profile per start from ``peaks(B)``, the exit modes ``modes(B)`` (all 0 by
    default) and one iteration each.  Appends each batch of starts to ``seen``."""
    def polish(S, k):
        if seen is not None:
            seen.append(S)
        B = len(S)
        mode = np.zeros(B, dtype=int) if modes is None else modes(B)
        peak = np.asarray(peaks(B), dtype=float)
        return S, peak[:, None], peak, mode, np.ones(B, dtype=int), B, 1

    return polish


@pytest.mark.parametrize("solve", [general_constant, diagonal_constant])
def test_first_of_tied_starts_wins(monkeypatch, solve):
    batches = []
    monkeypatch.setattr(minimax, "_polish", _stub_polish(lambda B: [0.5] * B, seen=batches))
    res = solve(2, 3, FAST)
    (S,) = batches
    seen = S.tolist()
    assert len(seen) == FAST.multistarts
    assert len({json.dumps(ws) for ws in seen}) > 1
    assert res.argument == seen[0]
    assert (res.value, res.iterations, res.converged) == (0.5, FAST.multistarts, True)


@pytest.mark.parametrize("solve", [general_constant, diagonal_constant])
def test_failing_best_start_is_not_converged(monkeypatch, solve):
    # the second start is the best one, and it exits with SLSQP mode 8
    def second(B, best, rest):
        return [best if i == 1 else rest for i in range(B)]

    monkeypatch.setattr(minimax, "_polish", _stub_polish(lambda B: second(B, 0.25, 0.5),
                                                         lambda B: np.array(second(B, 8, 0))))
    res = solve(2, 3, FAST)
    assert res.value == 0.25 and res.converged is False
    assert res.slsqp_status == {0: FAST.multistarts - 1, 8: 1}
    assert all(type(mode) is int for mode in res.slsqp_status)


@pytest.mark.parametrize("solve", [general_constant, diagonal_constant])
def test_nan_peak_never_wins(monkeypatch, solve):
    # start 0's profile is NaN, where plain np.argmin would stop; the first
    # least of the other peaks wins
    batches = []
    peaks = [math.nan, 0.5, 0.5, 0.25, 0.5, 0.25, 0.5, 0.5]
    monkeypatch.setattr(minimax, "_polish", _stub_polish(lambda B: peaks, seen=batches))
    res = solve(2, 3, FAST)
    assert res.value == 0.25 and res.converged is True
    assert res.argument == batches[0][3].tolist()


@pytest.mark.parametrize("solve,fixed,factors", [(general_constant, 2, 3),
                                                  (diagonal_constant, 2, 1)])
@pytest.mark.parametrize("seed", [0, 7])
def test_padding_starts_are_stdlib_exponential_draws(monkeypatch, solve, fixed, factors, seed):
    # m + 1 draws of random.Random(seed).expovariate(1.0) per factor, start by
    # start and factor by factor, each factor divided by its own sum: w / w.sum()
    # to the byte.  m + 1 = 4, 8, 9 and 17 reach both sides of the n = 8 switch
    # in numpy's pairwise summation
    for m in (3, 7, 8, 16):
        batches = []
        monkeypatch.setattr(minimax, "_polish", _stub_polish(lambda B: [0.5] * B, seen=batches))
        cfg = SolverConfig(multistarts=fixed + 4, seed=seed)
        solve(3, m, cfg)
        (S,) = batches
        assert S.shape == (cfg.multistarts, factors, m + 1)
        rng = random.Random(seed)
        for ws0 in S[fixed:]:
            for w in ws0:
                draws = np.array([rng.expovariate(1.0) for _ in range(m + 1)])
                assert w.tobytes() == (draws / draws.sum()).tobytes()


class TestWaves:
    """``_polish`` runs starts in waves of 16 and stops once half of them share the best peak."""

    @staticmethod
    def polish(monkeypatch, peaks, chunk=None):
        """``_polish`` of len(peaks) starts under a ``_lockstep`` stand-in: start b ends where it
        began, with the one-entry profile [peaks[b]] and one core call.  Returns the
        starts that ran, in order, and the start ids of each ``_lockstep`` call."""
        calls = []

        def lockstep(S, k):
            ids = S[:, 0, 0].astype(int)
            calls.append(ids.tolist())
            B = len(S)
            peak = np.array(peaks, dtype=float)[ids]
            return S, peak[:, None], peak, np.zeros(B, dtype=int), np.ones(B, dtype=int), B, 1

        monkeypatch.setattr(minimax, "_lockstep", lockstep)
        if chunk is not None:
            *_, entries = minimax._work_sizes(2, 1, 1)
            monkeypatch.setattr(minimax, "BLOCK_ENTRIES", chunk * entries)
        S = np.zeros((len(peaks), 1, 2))
        S[:, 0, 0] = np.arange(len(peaks))
        W, profiles, got, modes, nits, n_calls, rounds = _polish(S, 2)
        ran = W[:, 0, 0].astype(int).tolist()
        assert ran == list(range(len(ran)))
        assert np.array_equal(got, np.array(peaks)[ran], equal_nan=True)
        assert np.array_equal(profiles[:, 0], got, equal_nan=True)
        assert len(modes) == nits.sum() == n_calls == len(ran) and rounds == len(calls)
        return ran, calls

    @staticmethod
    def peaks(best_per_wave, budget=64, best=0.25):
        """Peaks of ``budget`` starts: the first best_per_wave[w] starts of wave w peak at
        ``best``, and every other start b at 0.5 + b / 1000, a peak of its own."""
        out = [0.5 + b / 1000 for b in range(budget)]
        for w, n in enumerate(best_per_wave):
            out[16 * w:16 * w + n] = [best] * n
        return out

    @pytest.mark.parametrize("best_per_wave,starts,budget", [
        ([8], 16, 64),              # 8 of 16 share the best peak: 8 >= 16/2
        ([7, 9], 32, 64),           # 7 of 16 do not; 16 of 32 do
        ([7, 7, 10], 48, 64),       # 14 of 32 do not; 24 of 48 do
        ([7, 7, 7, 7], 64, 64),     # 28 of 64 never settle: the budget ends the run
        ([0, 16], 32, 64),          # a wave without the best peak settles nothing
        ([7, 7, 7, 7, 12], 80, 96),  # exactly half: 40 of 80
    ])
    def test_stops_after_the_first_settled_wave(self, monkeypatch, best_per_wave, starts, budget):
        ran, calls = self.polish(monkeypatch, self.peaks(best_per_wave, budget))
        assert len(ran) == starts
        assert calls == [list(range(w, w + 16)) for w in range(0, starts, 16)]

    def test_budget_ends_in_a_part_wave(self, monkeypatch):
        ran, calls = self.polish(monkeypatch, self.peaks([7, 7, 5], budget=40))
        assert len(ran) == 40 and [len(ids) for ids in calls] == [16, 16, 8]
        ran, _ = self.polish(monkeypatch, self.peaks([7, 9], budget=40))
        assert len(ran) == 32
        # the stop test reads whole waves only: 8 best starts at the end of the
        # first wave settle it, however the wave is chunked
        peaks = self.peaks([0], budget=40)
        peaks[8:16] = [0.25] * 8
        for chunk in (1, 5, 16, 64):
            ran, calls = self.polish(monkeypatch, peaks, chunk)
            assert len(ran) == 16
            assert all(len({b // 16 for b in ids}) == 1 and len(ids) <= chunk for ids in calls)

    def test_a_better_peak_restarts_the_count(self, monkeypatch):
        # wave 2 finds 0.125 once: one start of 32 shares it, the 15 at 0.25 count no more
        peaks = self.peaks([7, 9])
        peaks[20] = 0.125
        ran, _ = self.polish(monkeypatch, peaks)
        assert len(ran) == 64

    def test_share_counts_peaks_within_the_relative_tolerance(self, monkeypatch):
        near = self.peaks([1])
        near[1:8] = [0.25 * (1 + 5e-10)] * 7
        assert len(self.polish(monkeypatch, near)[0]) == 16
        far = self.peaks([1])
        far[1:8] = [0.25 * (1 + 2e-9)] * 7
        assert len(self.polish(monkeypatch, far)[0]) == 64

    def test_nan_wave_neither_stops_nor_warns(self, monkeypatch):
        # np.nanmin of an all-NaN wave warns, and pytest turns that into an error;
        # the NaN starts still count among the starts run
        peaks = [math.nan] * 16 + self.peaks([0, 16])[16:32] + [math.nan] * 32
        ran, _ = self.polish(monkeypatch, peaks)
        assert len(ran) == 32
        ran, _ = self.polish(monkeypatch, [math.nan] * 40)
        assert len(ran) == 40

    @pytest.mark.parametrize("solve,k,m", [(general_constant, 2, 3), (diagonal_constant, 3, 8)])
    def test_one_wave_budget_runs_every_start(self, monkeypatch, solve, k, m):
        # a budget of at most 16 is one wave: the same result, counters included,
        # as one lock-step run of all its starts
        for budget in (2, 9, 16):
            cfg = SolverConfig(multistarts=budget, seed=3)
            got = solve(k, m, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(minimax, "WAVE", 10**9)
                want = solve(k, m, cfg)
            assert got == want and sum(got.slsqp_status.values()) == budget
            assert ((got.slsqp_status, got.slsqp_calls, got.slsqp_rounds)
                    == (want.slsqp_status, want.slsqp_calls, want.slsqp_rounds))

    def test_stopped_run_is_the_run_of_its_starts(self):
        # (3, 6) at seed 0 stops after 16 of its 64 starts; the draws do not depend
        # on the budget, so the result is that of a budget of 16
        got = diagonal_constant(3, 6, SolverConfig(seed=0))
        want = diagonal_constant(3, 6, SolverConfig(multistarts=16, seed=0))
        assert got == want and sum(got.slsqp_status.values()) == 16
        assert (got.slsqp_calls, got.slsqp_rounds) == (want.slsqp_calls, want.slsqp_rounds)

    @pytest.mark.parametrize("m,seed", [(6, 0), (10, 0), (10, 2), (10, 4), (11, 7)])
    def test_keeps_the_full_budget_value(self, monkeypatch, m, seed):
        # a share of 1/5 stopped these rows after 16 starts in a worse basin, by up to
        # 4.8e-3 at (2, 6): here 4 to 7 of the first 16 starts share a peak the
        # full budget beats
        got = diagonal_constant(2, m, SolverConfig(seed=seed))
        with monkeypatch.context() as patch:
            patch.setattr(minimax, "WAVE", 10**9)
            full = diagonal_constant(2, m, SolverConfig(seed=seed))
        assert got.value <= full.value * (1 + 1e-9)


class TestDiagonalM1:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_exact_closed_form(self, k):
        res = diagonal_constant(k, 1)
        assert res.value_exact == optimal_constant(k)
        assert res.method == "diagonal-envelope-exact"
        assert res.converged

    def test_k2_argument(self):
        res = diagonal_constant(2, 1)
        # optimum at p = 1/3 (or the mirror); modes 0 and 1 tied
        assert sorted(res.argument[0]) == pytest.approx([1 / 3, 2 / 3])
        assert len(res.shared_modes) >= 2

    @pytest.mark.parametrize("k", range(2, 9))
    def test_certificate_has_tied_pair(self, k):
        res = diagonal_constant(k, 1)
        assert len(res.shared_modes) >= 2


class TestGeneralM1:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_closed_form(self, k):
        res = general_constant(k, 1, FAST)
        assert res.value == pytest.approx(float(optimal_constant(k)), abs=1e-9)
        assert res.converged
        assert len(res.shared_modes) >= 2

    def test_weights_are_distributions(self):
        res = general_constant(3, 1, FAST)
        for w in res.argument:
            assert sum(w) == pytest.approx(1.0, abs=1e-12)
            assert all(x >= 0 for x in w)

    def test_determinism(self):
        a = general_constant(2, 1, FAST).to_dict()
        b = general_constant(2, 1, FAST).to_dict()
        assert a == b

    def test_bad_args(self):
        with pytest.raises(ValueError):
            general_constant(1, 1)
        with pytest.raises(ValueError):
            general_constant(2, 0)


class TestGeneralM2Plus:
    @pytest.mark.parametrize("k,m,n", [(2, 2, 12), (2, 3, 6), (2, 4, 4), (3, 2, 6)])
    def test_not_above_grid_oracle(self, k, m, n):
        # the solver is unrestricted, so it must do at least as well as the grid
        grid_min = float(grid_oracle(k, m, n).grid_min)
        for cfg in [FAST] + [SolverConfig(seed=s) for s in range(4)]:
            res = general_constant(k, m, cfg)
            assert res.value <= grid_min + 1e-9, (k, m, n, cfg)

    def test_iterations_sum_slsqp_nit(self, monkeypatch):
        nits = []
        real = minimax._polish

        def recording(S, k):
            out = real(S, k)
            nits.extend(out[4].tolist())
            return out

        monkeypatch.setattr(minimax, "_polish", recording)
        res = general_constant(2, 3, FAST)
        assert res.method == "slsqp"
        assert len(nits) == FAST.multistarts
        assert res.iterations == sum(nits) > 0


class TestDiagonalM2Plus:
    def test_k2_m2_value(self):
        res = diagonal_constant(2, 2, FAST)
        assert res.converged
        # strictly better than the zero-padded m = 1 optimum, and 6x the value
        # stays above the known continuous lower bound
        assert res.value < float(optimal_constant(2)) - 1e-3
        assert 6 * res.value >= 1.28

    def test_general_not_above_diagonal(self):
        # general mode optimizes over a superset of the diagonal feasible set
        diag = diagonal_constant(2, 2, FAST)
        gen = general_constant(2, 2, FAST)
        assert gen.value <= diag.value + 1e-7

    def test_matches_grid_oracle_upper(self):
        # FAST runs in one wave; the default budget runs in waves and can stop early
        for k, m, n in [(2, 2, 12), (2, 3, 8), (2, 4, 6), (3, 2, 10),
                        (3, 3, 6), (4, 2, 8), (2, 6, 4), (2, 4, 20)]:
            oracle = grid_oracle(k, m, n, diagonal=True)
            for cfg in [FAST] + [SolverConfig(seed=s) for s in range(4)]:
                res = diagonal_constant(k, m, cfg)
                # the solver is unrestricted, so it must do at least as well as the grid
                assert res.value <= float(oracle.grid_min) + 1e-9, (k, m, n, cfg)

    def test_not_above_frozen_k3_m8(self):
        # value of the solver with a projected-subgradient phase before SLSQP
        res = diagonal_constant(3, 8, SolverConfig(seed=2))
        assert res.value <= 0.06755639365011029 + 1e-9

    def test_iterations_sum_slsqp_nit(self, monkeypatch):
        nits = []
        real = minimax._polish

        def recording(S, k):
            out = real(S, k)
            nits.extend(out[4].tolist())
            return out

        monkeypatch.setattr(minimax, "_polish", recording)
        res = diagonal_constant(2, 4, FAST)
        assert res.method == "slsqp"
        assert len(nits) == FAST.multistarts
        assert res.iterations == sum(nits) > 0

    def test_determinism(self):
        a = diagonal_constant(2, 3, FAST).to_dict()
        b = diagonal_constant(2, 3, FAST).to_dict()
        assert a == b


class TestSimplexGrid:
    @pytest.mark.parametrize("m", range(1, 5))
    @pytest.mark.parametrize("n", range(0, 7))
    def test_lexicographic_compositions(self, m, n):
        ref = sorted(c for c in itertools.product(range(n + 1), repeat=m + 1) if sum(c) == n)
        assert [tuple(row) for row in _simplex_grid(m, n).tolist()] == ref

    @pytest.mark.parametrize("rows", [1, 7, 35, 1000])
    def test_blocks_concatenate_to_the_grid(self, rows):
        blocks = list(minimax._simplex_blocks(3, 4, rows))
        assert all(len(b) == rows for b in blocks[:-1]) and 0 < len(blocks[-1]) <= rows
        assert np.array_equal(np.concatenate(blocks), _simplex_grid(3, 4))


class TestDiagonalOracleOnCoarseGrids:
    """``grid_oracle`` in diagonal mode on the coarse grids, the grids with the
    largest denominator n that have at most 4000 points, against the brute
    force ``brute_coarse_diagonal_grid``: it finds their least value and first
    minimiser exactly, in many ``_fold_rows`` blocks with the reversed weights
    skipped."""

    # (18, 5) and (19, 2): many exact ties that float rounding in the brute
    # force's score can break either way, so its near-best window has to catch
    # them; at (10, 2) and (19, 2) n^k overflows int64 and the oracle folds
    # Python ints
    @pytest.mark.parametrize("k,m", [
        (k, m) for k in (2, 3, 4, 10) for m in (2, 3, 4, 5, 7, 8, 16, 20) if k * m <= 80]
        + [(18, 5), (19, 2)])
    def test_matches_brute_force(self, k, m):
        n, value, minimisers = brute_coarse_diagonal_grid(k, m)
        res = grid_oracle(k, m, n, diagonal=True)
        assert res.points_evaluated == math.comb(n + m, m) <= 4000 < math.comb(n + 1 + m, m)
        assert res.grid_min == value
        assert res.argmin == (tuple(Fraction(c, n) for c in minimisers[0]),), (k, m)


class TestGridOracle:
    def test_k2_m1_n3_hits_optimum(self):
        res = grid_oracle(2, 1, 3)
        assert res.grid_min == Fraction(4, 9)

    def test_k3_m1_n2(self):
        assert grid_oracle(3, 1, 2).grid_min == Fraction(3, 8)

    def test_k4_m1_n5(self):
        assert grid_oracle(4, 1, 5).grid_min == Fraction(216, 625)

    def test_k5_m1_n2(self):
        assert grid_oracle(5, 1, 2).grid_min == Fraction(5, 16)

    def test_diagonal_restriction_not_below_general(self):
        g = grid_oracle(2, 2, 4)
        d = grid_oracle(2, 2, 4, diagonal=True)
        assert g.grid_min <= d.grid_min

    def test_point_counts(self):
        res = grid_oracle(2, 1, 3)
        assert res.points_evaluated == 4**2
        assert grid_oracle(2, 1, 3, diagonal=True).points_evaluated == 4

    def test_fold_counts(self):
        # one fold per multiset (general) and per reversal pair (diagonal)
        res = grid_oracle(3, 2, 6)
        assert (res.points_evaluated, res.folds) == (28**3, 4060)
        comps = _simplex_grid(3, 4).tolist()
        diag = grid_oracle(2, 3, 4, diagonal=True)
        assert diag.folds == sum(c <= c[::-1] for c in comps) < diag.points_evaluated
        assert "folds" not in res.to_dict()

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            grid_oracle(4, 3, 40)

    def test_budget_bounds_folds_not_tuples(self, monkeypatch):
        # (3, 2, 6): 4060 nondecreasing tuples folded out of 28^3 = 21952
        want = grid_oracle(3, 2, 6)
        for budget in (4060, 5000):
            monkeypatch.setattr(minimax, "GRID_BUDGET", budget)
            got = grid_oracle(3, 2, 6)
            assert got.grid_min == want.grid_min
            assert (got.points_evaluated, got.folds) == (28**3, 4060)
        monkeypatch.setattr(minimax, "GRID_BUDGET", 4059)
        with pytest.raises(BudgetExceeded, match="exceed budget"):
            grid_oracle(3, 2, 6)

    def test_diagonal_budget_counts_every_weight(self, monkeypatch):
        # all 35 weights are compared with their reversal, fewer are folded
        monkeypatch.setattr(minimax, "GRID_BUDGET", 35)
        res = grid_oracle(2, 3, 4, diagonal=True)
        assert res.points_evaluated == 35 > res.folds
        monkeypatch.setattr(minimax, "GRID_BUDGET", 34)
        with pytest.raises(BudgetExceeded, match="exceed budget"):
            grid_oracle(2, 3, 4, diagonal=True)

    @pytest.mark.parametrize("k,m,n,diagonal", [(4, 3, 40, False), (2, 24, 10, False),
                                                (2, 24, 10, True)])
    def test_large_grids_still_refused(self, k, m, n, diagonal):
        with pytest.raises(BudgetExceeded, match="exceed budget"):
            grid_oracle(k, m, n, diagonal)

    @pytest.mark.parametrize("k,m,n", [(2, 1, 3), (2, 2, 4), (3, 2, 3), (2, 3, 3)])
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_argmin_reevaluates_to_grid_min(self, k, m, n, diagonal):
        res = grid_oracle(k, m, n, diagonal=diagonal)
        assert len(res.argmin) == (1 if diagonal else k)
        for w in res.argmin:
            assert len(w) == m + 1 and sum(w) == 1
            assert all((x * n).denominator == 1 for x in w)
        factors = [GridFn(1, m, w) for w in res.argmin] * (k if diagonal else 1)
        acc = factors[0]
        for f in factors[1:]:
            out = brute_convolve(acc, f)
            acc = GridFn(1, acc.m + f.m, [out[(i,)] for i in range(acc.m + f.m + 1)])
        assert max(acc.values) == res.grid_min

    def test_refining_grid_decreases(self):
        vals = [grid_oracle(2, 2, n, diagonal=True).grid_min for n in (2, 4, 8)]
        assert vals[0] >= vals[1] >= vals[2]

    @pytest.mark.parametrize("k,m,n", [
        (k, m, n) for k in (2, 3, 4) for m in (1, 2, 3) for n in range(1, 5)
        if math.comb(n + m, m) ** k <= 5000])
    @pytest.mark.parametrize("diagonal", [True, False])
    def test_matches_brute_force(self, k, m, n, diagonal):
        # grid_min, argmin (first minimiser) and points_evaluated all agree
        assert grid_oracle(k, m, n, diagonal) == brute_grid_oracle(k, m, n, diagonal)

    @pytest.mark.parametrize("k,m,n", [(2, 3, 2), (2, 3, 3), (2, 4, 2), (2, 4, 4),
                                       (3, 3, 3), (3, 4, 2), (4, 3, 2)])
    def test_diagonal_reversal_ties(self, k, m, n):
        # here the first minimiser is not a palindrome: its reversal ties with it
        # and comes later, and the sweep that skips it still agrees with brute force
        res = grid_oracle(k, m, n, diagonal=True)
        assert res == brute_grid_oracle(k, m, n, diagonal=True)
        w = res.argmin[0]
        assert w < w[::-1]
        rev = GridFn(1, m, w[::-1])
        assert max(convolve_many([rev] * k).values) == res.grid_min

    @pytest.mark.parametrize("k,m,n,diagonal", [(3, 2, 3, False), (2, 3, 4, True),
                                                (3, 1, 5, True)])
    def test_blocks_fold_with_convolve_rows(self, monkeypatch, k, m, n, diagonal):
        # a block holds FOLD_ENTRIES // ((k + 1)m + 1) points, the rows of the widest
        # padded fold operand: here 10 (1 at m = 1).  Each block that keeps a point
        # (diagonal: one not above its reversal) is folded by k - 1 _convolve_rows
        # calls; at m = 1 the filter empties the blocks of (a, n - a) with a > n/2
        rows = 1 if m == 1 else 10
        want = grid_oracle(k, m, n, diagonal)
        calls = []
        fold = minimax._convolve_rows

        def counting(a, b):
            calls.append(len(a))
            return fold(a, b)

        monkeypatch.setattr(minimax, "_convolve_rows", counting)
        monkeypatch.setattr(minimax, "FOLD_ENTRIES", rows * ((k + 1) * m + 1))
        got = grid_oracle(k, m, n, diagonal)
        assert got == want and got.folds == want.folds
        if diagonal:
            grid = sorted(w for w in itertools.product(range(n + 1), repeat=m + 1) if sum(w) == n)
            chunks = [grid[i:i + rows] for i in range(0, len(grid), rows)]
            blocks = sum(any(w <= w[::-1] for w in chunk) for chunk in chunks)
            assert blocks < len(chunks)
        else:
            blocks = math.ceil(got.folds / rows)
        assert len(calls) == (k - 1) * blocks > k - 1
        assert max(calls) <= rows and sum(calls) == (k - 1) * got.folds

    def test_budget_edge_memory_bounded(self):
        # the 1 789 486 nondecreasing pairs of the 1 891-point grid, in blocks of
        # 2^20 fold entries; the index arrays of all pairs at once hold about 29 MB
        tracemalloc.start()
        try:
            res = grid_oracle(2, 2, 60)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert res.grid_min == Fraction(1, 4)
        assert (res.folds, res.points_evaluated) == (math.comb(1892, 2), 1891**2)

    def test_diagonal_grid_memory_bounded(self):
        # 646 646 weights, generated and folded in blocks of 2^15 // 31 rows;
        # the whole grid and its reversal test at once peak at about 163 MB.
        # The bound is 1 MB above the 24.2 MB of shift-add folds in blocks of
        # 2^20 // 21 rows
        tracemalloc.start()
        try:
            res = grid_oracle(2, 10, 12, diagonal=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 25.2 * 2**20
        assert res.grid_min == Fraction(1, 12)
        assert (res.folds, res.points_evaluated) == (323_554, 646_646)
        six = Fraction(1, 6)
        twelve = Fraction(1, 12)
        assert res.argmin == ((0, twelve, six, six, six, 0, twelve, six, 0, 0, six),)

    @pytest.mark.parametrize("k,m,n,diagonal", [(40, 1, 3, True), (63, 1, 2, False),
                                                (64, 1, 2, True)])
    def test_object_dtype_past_int64(self, k, m, n, diagonal):
        # n^k > 2^63 - 1: the numerators are Python ints, and the minimum is still exact
        assert n**k > np.iinfo(np.int64).max
        res = grid_oracle(k, m, n, diagonal)
        if diagonal:
            assert res == brute_grid_oracle(k, m, n, diagonal=True)
        factors = [GridFn(1, m, w) for w in res.argmin] * (k // len(res.argmin))
        assert max(convolve_many(factors).values) == res.grid_min

    def test_int64_up_to_its_largest_power(self):
        # 2^62 fits int64: the diagonal (62, 1, 2) sweep agrees with brute force
        assert grid_oracle(62, 1, 2, True) == brute_grid_oracle(62, 1, 2, diagonal=True)


class TestIntersectionRestricted:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_matches_closed_form(self, k):
        res = intersection_restricted_solve(k)
        assert res.value_exact == optimal_constant(k)
        assert len(res.shared_modes) >= 2

    def test_k2_argument(self):
        res = intersection_restricted_solve(2)
        assert sorted(res.argument[0]) == pytest.approx([1 / 3, 2 / 3])

    def test_closed_form_mismatch_raises_under_optimize(self):
        # the cross-check against the closed form must survive python -O
        code = (
            "import sys\n"
            "from fractions import Fraction\n"
            "import convmax.minimax as mm\n"
            "assert False, 'not reached under -O'\n"
            "mm.optimal_constant = lambda k: Fraction(1, 2)\n"
            "try:\n"
            "    mm.intersection_restricted_solve(2)\n"
            "except AssertionError:\n"
            "    sys.exit(3)\n"
        )
        src = str(Path(convmax.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 3, proc.stderr


class TestResultSerialization:
    def test_to_dict_fields(self):
        d = diagonal_constant(2, 1).to_dict()
        for key in ("k", "m", "value", "value_exact", "argument",
                    "shared_modes", "method", "converged"):
            assert key in d
        # the solver config lives in the report's top-level config only
        assert "config" not in d
        assert "seed" not in d and "tolerance" not in d
        assert d["value_exact"] == "4/9"

    def test_run_counters_not_serialized(self):
        res = general_constant(2, 2, FAST)
        assert sum(res.slsqp_status.values()) == FAST.multistarts
        assert 0 < res.slsqp_rounds < res.slsqp_calls
        for key in ("starts", "slsqp_status", "slsqp_calls", "slsqp_rounds"):
            assert key not in res.to_dict()
        exact = diagonal_constant(2, 1)
        assert (exact.slsqp_status, exact.slsqp_calls, exact.slsqp_rounds) == ({}, 0, 0)


@pytest.mark.parametrize("k", [1, 0])
def test_intersection_restricted_rejects_k_below_two(k):
    with pytest.raises(ValueError, match=f"k must be >= 2, got {k}"):
        intersection_restricted_solve(k)
