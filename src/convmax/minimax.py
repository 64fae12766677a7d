"""Numerical computation of the discrete constants C_{k,m} and Cbar_{k,m}.

Both float solvers share one engine, ``_polish``: SLSQP solves of the
epigraph form min t s.t. (f_1*...*f_k)_i <= t, each factor on the simplex.
A batch of points is one (B, r, m + 1) float array from end to end: B
points of r factors each, r = 1 in diagonal mode (the one factor used k
times) and r = k in general mode.  ``_multistart`` builds the starts once,
the solver's fixed starts and then seeded random starts (stdlib ``random``,
uniform on each simplex), up to ``SolverConfig.multistarts``: a budget.
``_polish`` runs them in waves of ``WAVE``, in start order, and stops after
the first wave where at least ``SETTLED_SHARE`` of the starts run so far
peak within a relative 1e-9 of their least peak.  It returns the final
weights of the starts that ran as one such array, with their profiles,
peaks, exit modes and nit as arrays beside it; the first least peak among
them wins.  Every float and integer fold is one
``_profiles`` call: each factor folded k // r times, left to right, by
``_convolve_rows``, one ``np.matmul`` of the strided Toeplitz view
``_toeplitz`` that adds each entry's products in column order.  So a
profile has a shift-add's bits, its row does not depend on the rows
stacked beside it, and a start takes the same iterates alone or in any
batch.

``_polish`` drives scipy's compiled SLSQP core (Kraft's method,
``scipy.optimize._slsqplib.slsqp``, scipy >= 1.16) through its
reverse-communication loop with the inputs ``minimize(method="SLSQP")``
would give it, so the iterates are scipy's own, without its Python driver
around each of the core's calls.  ``_lockstep`` runs all starts of a chunk
together, each with its own core state and work arrays: a round calls the
core once per unfinished start, then answers every request for constraint
values with one batched evaluation and every request for the Jacobian with
one batched build.  At most ``BLOCK_ENTRIES`` work-array entries of SLSQP
starts are in flight; a longer wave runs in chunks, in order.
``_lockstep`` poses the problem: the layout of x, the constraint rows and
the bounds, and the core's state and work arrays (``_work_sizes``).  The
module imports numpy (never ``numpy.random`` or ``numpy.fft``) and the
top-level ``scipy`` package only: ``_load_slsqp_core`` loads the core's
extension straight from its file, since ``import scipy.optimize`` would add
about 0.37 s and 47 MB RSS to every float command for a module this one
never calls.  ``minimize`` and ``linprog`` remain as lazy module names, read
only by the benchmark tracer.

* ``general_constant`` — k free factors.  Starts: the zero-padded m = 1
  diagonal optimum (``_padded_m1``) for all k factors, and the asymmetric
  witness (delta_0 + delta_m)/2 as factor 1 with every other factor uniform
  on {1, ..., m}: at k = 2 its fold peaks at 1/(2m).
* ``diagonal_constant`` — one factor used k times.  At m = 1 the objective is
  the one-dimensional diagonal envelope, and the exact result is read off
  ``constants.diagonal_profile``, its minimum over the rational crossing
  points.  For m > 1 the fixed starts are the uniform weights and the
  zero-padded m = 1 optimum.

The independent cross-checks are exact:

* ``grid_oracle`` — exhaustive exact sweep over the simplex grid points
  with denominator n (``_simplex_blocks``, in lexicographic order).  It folds
  integer numerators (each factor a numerator over n, a k-fold one over n^k)
  in numpy blocks of ``_fold_rows`` points, each block one (rows, r, m + 1)
  array and one ``_profiles`` call of k - 1 ``_convolve_rows`` steps, with
  no prefix shared, as int64 when n^k < 2^63 and as
  Python ints (dtype object) otherwise, and builds Fractions only for the
  minimiser.  It folds one member of each class of points that share a
  peak: in general mode each multiset of factors (convolution commutes),
  once per nondecreasing tuple; in diagonal mode each pair {w, w[::-1]}.  ``points_evaluated``
  counts every point the sweep decides, per^k ordered tuples or per weights.
  Its minimum is an upper bound for the true constant and is exactly the
  best value any solver restricted to that grid can reach.
* three independent exact routes at m = 1: the closed form
  ``constants.optimal_constant``, the envelope minimum
  ``constants.diagonal_profile`` (which ``diagonal_constant`` reads) and the
  Poisson-binomial intersection route ``intersection_restricted_solve``.

All solvers return upper estimates of the true constants (they evaluate the
objective at feasible points).  Whether C_{k,m} = Cbar_{k,m} for m > 1 is
open; the two are reported side by side and never asserted equal.

Everything is deterministic given the config seed: starts run in a fixed
order, in waves whose stop test reads whole waves only, and are reduced by
minimum, the first start winning ties.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import itertools
import math
import os
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
# the top-level package only: _load_slsqp_core loads the one compiled extension
# the solvers call, and scipy.optimize loads only if the lazy minimize/linprog
# names below are read
import scipy

from .constants import _envelope_terms, diagonal_profile, optimal_constant
from .errors import BudgetExceeded
from .pb import intersection_point, pb_pmf


def _load_slsqp_core():
    """scipy's compiled SLSQP function, without running ``scipy/optimize/__init__.py``.

    ``import scipy.optimize`` loads the whole package (about 0.37 s and 47 MB
    RSS); the one extension ``_polish`` calls loads in a few ms.  A module
    already in ``sys.modules`` is reused; one loaded here is registered
    there, so a later ``import scipy.optimize`` reuses it too.  Before scipy
    1.16 there is no such extension, and an entry of ``None`` blocks it.
    """
    name = "scipy.optimize._slsqplib"
    if name not in sys.modules:
        spec = importlib.machinery.PathFinder.find_spec(
            name, [os.path.join(scipy.__path__[0], "optimize")])
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[name] = module
    module = sys.modules.get(name)   # None: absent, or blocked in sys.modules
    if module is None:
        raise ImportError(f"convmax.minimax drives scipy's compiled SLSQP core {name}, "
                          "which needs scipy >= 1.16")
    return module.slsqp


_slsqp_core = _load_slsqp_core()


def __getattr__(name):
    # minimize and linprog are never called here.  They resolve from
    # scipy.optimize on first access only because the benchmark tracer
    # (perfbench/tracer.py) reads both; they go away with ROADMAP item 25's
    # benchmark change.
    if name in ("minimize", "linprog"):
        import scipy.optimize

        return getattr(scipy.optimize, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Tolerance for the mode-sharing certificate (``shared_modes``).
CERT_TOL = 1e-7

#: Most points that ``grid_oracle`` folds: nondecreasing k-tuples in general
#: mode; in diagonal mode every weight, since each is generated and compared
#: with its reversal.
GRID_BUDGET = 2_000_000

#: Most SLSQP work-array entries of the starts ``_polish`` runs at once.
BLOCK_ENTRIES = 2**20

#: ``_polish`` runs its starts in waves of ``WAVE`` and stops after the first
#: wave where at least ``SETTLED_SHARE`` of the starts run so far peak within a
#: relative 1e-9 of their least peak: the best basin has then been sampled
#: often enough (Rinnooy Kan & Timmer, Math. Programming 39, 1987).  A share of
#: 1/5 stopped k = 2 rows in a worse basin; the sweep is in ``CHANGES.md``.
WAVE = 16
SETTLED_SHARE = Fraction(1, 2)

#: Most entries of the widest padded fold operand in one block of
#: ``grid_oracle`` (``_fold_rows``): 256 KB of int64 or float64, so a block's
#: folds stay in cache.  Larger blocks fold no faster and raise the peak RSS
#: of every grid-oracle solve.
FOLD_ENTRIES = 2**15

#: The violation ``_lockstep`` reports for a constraint value or Jacobian entry
#: whose fold overflowed: the largest float64, so no finite value exceeds it.
OVERFLOW_VIOLATION = float(np.finfo(np.float64).max)


@dataclass(frozen=True)
class SolverConfig:
    multistarts: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.multistarts < 1:
            raise ValueError(f"multistarts must be >= 1, got {self.multistarts}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass
class MinimaxResult:
    value: float
    argument: List[List[float]]      # k weight vectors; one vector in diagonal mode
    shared_modes: List[int]
    method: str
    iterations: int                  # SLSQP nit summed over the starts that ran
    converged: bool
    diagonal: bool
    k: int
    m: int
    value_exact: Optional[Fraction] = None
    # run counters for CLI meta, kept out of to_dict and of comparisons
    slsqp_status: Dict[int, int] = field(default_factory=dict, compare=False)  # starts per exit mode
    slsqp_calls: int = field(default=0, compare=False)               # SLSQP core calls
    slsqp_rounds: int = field(default=0, compare=False)              # lock-step rounds of those calls

    def to_dict(self) -> dict:
        d = {
            "k": self.k,
            "m": self.m,
            "diagonal": self.diagonal,
            "value": self.value,
            "value_exact": str(self.value_exact) if self.value_exact is not None else None,
            "argument": self.argument,
            "shared_modes": self.shared_modes,
            "method": self.method,
            "iterations": self.iterations,
            "converged": self.converged,
        }
        return d


# ---------------------------------------------------------------------------
# Shared numeric helpers
# ---------------------------------------------------------------------------

def _toeplitz(a: np.ndarray, lb: int) -> np.ndarray:
    """The view V[..., i, j] = a[..., i - j] (0 outside a), of shape (..., la + lb - 1, lb).

    V reads a copy of a with lb - 1 zeros on each side: la + 2(lb - 1) entries
    a row, which callers that block rows budget.  ``np.ndarray(shape, dtype,
    buffer, offset, strides)`` builds it; ``as_strided`` only where there is
    no buffer to view: object items.
    """
    la = a.shape[-1]
    pad = np.zeros(a.shape[:-1] + (la + 2 * (lb - 1),), dtype=a.dtype)
    pad[..., lb - 1:lb - 1 + la] = a
    step = pad.strides[-1]
    shape, strides = pad.shape[:-1] + (la + lb - 1, lb), pad.strides[:-1] + (step, -step)
    if a.dtype == object:
        return np.lib.stride_tricks.as_strided(pad[..., lb - 1:], shape, strides)
    return np.ndarray(shape, a.dtype, pad, (lb - 1) * step, strides)


def _convolve_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row i is the 1-d convolution of rows a[i] and b[i] of two numpy arrays.

    The batched form of ``gridfn._convolve_seq`` and the one batched fold for
    every dtype: int64 and object (Python ints) rows fold exactly, float64
    rows in binary64.  Rows are the last axis; a and b share their leading
    axes, of any number (none for two single 1-d rows).  An int64 caller
    keeps every entry below 2^63.

    One ``np.matmul`` of the ``_toeplitz`` view of a against b as a column.
    The view steps backwards along j, so numpy cannot hand it to BLAS and
    runs its own loop: each output entry starts from 0 and adds its products
    in column order of b, like a shifted multiply-add per column of b, and
    never depends on the rows stacked beside it.  The padding adds only
    0 * b[j] terms.  On finite rows those are +-0, and a sum that starts from
    +0 never holds -0, so adding them leaves every bit as the shift-add has it
    (``tests/conftest.py`` keeps that shift-add as the reference).  An inf in
    b meets a zero of the padding and gives NaN, in its own row only.
    """
    V = _toeplitz(a.astype(np.result_type(a, b), copy=False), b.shape[-1])
    return np.matmul(V, b[..., :, None])[..., 0]


def _profiles(F: np.ndarray, k: int) -> np.ndarray:
    """The profile of each point of F, a (..., r, m + 1) array of r factors per point.

    A point's profile is the k-fold convolution of its factors, each used
    k // r times, for an r that divides k: 1 in diagonal mode, k in general
    mode, k - 1 in ``_lockstep``'s leave-one-out folds.  The fold
    runs left to right, factor 0 first, one ``_convolve_rows`` call per
    step, so a point has the same profile bits alone or in any stack.
    """
    r = F.shape[-2]
    return reduce(_convolve_rows, [F[..., j, :] for j in range(r)] * (k // r))


def _fold_rows(k: int, m: int) -> int:
    """Rows per block of ``grid_oracle``'s k-fold folds of length-(m + 1) rows, at least one.

    ``_convolve_rows`` reads each fold's left operand from its ``_toeplitz``
    copy, padded to la + 2m entries a row; the last fold's, (k + 1)m + 1
    wide, is the widest.  A block holds at most ``FOLD_ENTRIES`` entries of it.
    """
    return max(1, FOLD_ENTRIES // ((k + 1) * m + 1))


def _shared_modes(profile: np.ndarray) -> List[int]:
    top = float(np.max(profile))
    return [i for i, v in enumerate(profile) if v >= top - CERT_TOL]


def _simplex_grid(m: int, n: int) -> np.ndarray:
    """Integer numerators of the simplex grid points with denominator n, one per row.

    The one-block case of ``_simplex_blocks``; the rows come in lexicographic order.
    """
    return next(_simplex_blocks(m, n, math.comb(n + m, m)))


# ---------------------------------------------------------------------------
# Epigraph solve and multistart driver shared by both modes
# ---------------------------------------------------------------------------

def _check_km(k: int, m: int) -> None:
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")


def _padded_m1(k: int, m: int) -> np.ndarray:
    """The m = 1 diagonal optimum of ``diagonal_constant``, zero-padded to length m + 1."""
    p = float(_diagonal_m1(k)[1])
    return np.array([1.0 - p, p] + [0.0] * (m - 1))


#: SLSQP's accuracy (``minimize``'s ``ftol``) and iteration cap, per start.
SLSQP_ACC = 1e-14
SLSQP_MAXITER = 300


def _work_sizes(k: int, r: int, m: int) -> Tuple[int, int, int, int, int]:
    """Sizes of ``_lockstep``'s epigraph problem with r factors of m + 1 weights.

    Returns n and n_con, the lengths of x and of the constraint vector; the
    lengths of the core's float buffer and of its int work array (also that
    of its multipliers), scipy's (>= 1.16) for this problem; and the
    work-array entries of one start: x, d, C, multipliers, ints and buffer.
    """
    n = r * (m + 1) + 1
    meq, n_con = r, r + k * m + 1
    # scipy's worst-case workspace for SLSQP, LSQ, LSEI, LDP and NNLS together (mieq > 0)
    buffer_size = (n * (n + 1) // 2 + 3 * n_con * n - (n_con + 5 * n + 7) * meq + 9 * n_con
                   + 8 * n * n + 35 * n + meq * meq + 28)
    index_size = n_con + 2 * n + 2
    return n, n_con, buffer_size, index_size, n + n_con + n * n_con + 2 * index_size + buffer_size


def _polish(S: np.ndarray, k: int):
    """SLSQP on the epigraph form from the starts S, in waves, until the best peak is settled.

    The starts S are a (B, r, m + 1) float array, a budget of B starts: r = 1
    factor per start in diagonal mode (used k times), r = k in general mode;
    ``_lockstep`` poses and solves each start's problem.  The starts run in
    waves of ``WAVE``, in start order.  After each wave, with n starts run
    and p* their least peak (NaN peaks ignored), the run stops once at least
    ``SETTLED_SHARE`` * n of them peak at most p* (1 + 1e-9); a wave of NaN
    peaks only never stops it.  Within a wave the starts run in
    ``_lockstep``, at most ``BLOCK_ENTRIES`` // (one start's entries, from
    ``_work_sizes``) of them (at least one) at once, in chunks in order; the
    stop test reads whole waves only, so the chunk size never moves the
    result.  A budget of at most ``WAVE`` starts runs them all.

    Returns, in start order for the starts that ran, the final weights W
    (n, r, m + 1), clipped to w >= 0 and each factor normalised to sum 1;
    their ``_profiles`` (n, km + 1) and peaks, each profile's largest entry;
    the SLSQP exit modes (0 on success) and nit, one int per start; then the
    core calls and the lock-step rounds, summed over chunks.
    """
    chunk = max(1, BLOCK_ENTRIES // _work_sizes(k, S.shape[1], S.shape[2] - 1)[-1])
    runs = []
    for wave in (S[w:w + WAVE] for w in range(0, len(S), WAVE)):
        runs += [_lockstep(wave[i:i + chunk], k) for i in range(0, len(wave), chunk)]
        peaks = np.concatenate([run[2] for run in runs])
        found = peaks[~np.isnan(peaks)]     # np.nanmin warns when every peak is NaN
        if found.size and (np.count_nonzero(found <= found.min() * (1 + 1e-9))
                           >= SETTLED_SHARE * len(peaks)):
            break
    *arrays, calls, rounds = zip(*runs)
    return (*map(np.concatenate, arrays), sum(calls), sum(rounds))


def _finite(a: np.ndarray) -> np.ndarray:
    """a with every non-finite entry replaced, in place, by -``OVERFLOW_VIOLATION``."""
    if not np.isfinite(a).all():    # the check alone costs a fifth of the replacement
        np.nan_to_num(a, copy=False, nan=-OVERFLOW_VIOLATION, posinf=-OVERFLOW_VIOLATION,
                      neginf=-OVERFLOW_VIOLATION)
    return a


@np.errstate(over="ignore", invalid="ignore")
def _lockstep(S: np.ndarray, k: int):
    """``_polish`` on one chunk: the starts S, a (B, r, m + 1) array, in lock-step.

    Each start b solves min t s.t. (f_1*...*f_k)_i <= t, f_j in simplex, with
    the inputs ``minimize(method="SLSQP")`` (scipy >= 1.16) gives the core
    for it at ``ftol`` = ``SLSQP_ACC`` and ``maxiter`` = ``SLSQP_MAXITER``,
    both read when the function runs; so the iterates, nit and exit mode are
    ``minimize``'s given the same fold.  x = (f_1, ..., f_r, t) starts from
    S[b], clipped to w >= 0, and its peak.  The objective is t.  The
    constraints are r equality rows sum(f_j) - 1 = 0, then km + 1 inequality
    rows t - (f_1*...*f_k)_i >= 0.  Each weight is bounded by w >= 0 and t is
    free.  There is no bound w <= 1: sum(w) = 1 with w >= 0 implies it, and
    the core would turn every finite bound into one more inequality row of
    each QP step.  ``_work_sizes`` gives the array sizes.

    This is scipy's own SLSQP driver loop, cut to this problem: each start
    keeps its own core state, x, d, C, multipliers, buffer and int work
    array.  Each round calls the compiled core once per unfinished start; the
    core updates that start's x in place and asks for the constraint values
    (mode 1) or their Jacobian (mode -1) at x, or exits.  Then one batched
    ``evaluate`` writes the values of every mode-1 start into its d, and one
    batched ``gradient`` the Jacobians of every mode -1 start into its C; both
    read the rows of x they answer as one (rows, r, m + 1) array W.  The
    objective gradient, the r equality rows of C and the t column of ones
    never change, so ``gradient`` writes only the weight columns of the
    inequality rows: entry (i, (j, a)) is -(k/r) c_j[i - a], where c_j is the
    fold of all factors but one copy of factor j.  Column block j is the
    ``_toeplitz`` view of -(k/r) c_j, the matrix that a fold of c_j with
    factor j multiplies by.  One ``_profiles`` call folds every c_j of every
    requesting start from one index of W, a gather of the k - 1 other
    factors in general mode or a view of the one factor in diagonal mode,
    and one view of the stacked -(k/r) c_j gives every block.  A row's fold
    does not depend on the rows beside it, so a start takes the same
    iterates alone or in any batch.

    Without a bound w <= 1 the points the core asks about can leave the
    simplex: its line-search trial points do, with sum(w) off by up to 3.7e3
    at (k, m) = (100, 3), and at large k their folds overflow (inf, or NaN
    from inf * 0).  Such a fold warns nothing: the call runs under one
    ``np.errstate``, and each non-finite constraint value or Jacobian entry
    is reported as -``OVERFLOW_VIOLATION``, a finite, very large violation,
    so the core backtracks.  Finite entries keep their bits.

    Returns ``_polish``'s five arrays for these starts, the core calls and
    the lock-step rounds.
    """
    B, r, m1 = S.shape
    # the factors left in the fold when one copy of factor j is dropped: the one
    # factor itself in diagonal mode (``W[:, None]``, a view), else the k - 1 others
    others = None if r == 1 else np.array([[i for i in range(r) if i != j] for j in range(r)])
    n, n_con, buffer_size, index_size, _ = _work_sizes(k, r, m1 - 1)
    X = np.empty((B, n))
    X[:, :-1] = np.maximum(S.reshape(B, -1), 0.0)
    X[:, -1] = _profiles(S, k).max(axis=1)
    # Cs[b].T is start b's C, in the Fortran order the core reads: the equality
    # rows, then the inequality rows with their t column of ones
    Cs = np.zeros((B, n, n_con))
    Cs[:, :-1, :r] = np.repeat(np.eye(r), m1, axis=0)
    Cs[:, -1, r:] = 1.0
    blocks = Cs[:, :-1].reshape(B, r, m1, n_con)   # a view: blocks[b, j] are factor j's columns
    D = np.empty((B, n_con))
    mult = np.zeros((B, index_size))
    ints = np.zeros((B, index_size), dtype=np.int32)
    buffer = np.zeros((B, buffer_size))
    fx = np.empty(B)        # each start's objective t at its last evaluation

    def evaluate(rows):
        # equality rows first, as the core expects
        x = X[rows]
        W = x[:, :-1].reshape(len(rows), r, m1)
        fx[rows] = x[:, -1]
        d = np.empty((len(rows), n_con))
        np.subtract(W.sum(axis=2), 1.0, out=d[:, :r])
        np.subtract(x[:, -1:], _profiles(W, k), out=d[:, r:])
        D[rows] = _finite(d)

    def gradient(rows):
        W = X[rows, :-1].reshape(len(rows), r, m1)
        loo = np.multiply(_profiles(W[:, others], k - 1), -k / r)
        blocks[rows, :, :, r:] = _toeplitz(_finite(loo), m1).swapaxes(2, 3)

    live = list(range(B))
    gradient(live)
    evaluate(live)
    states = [dict(acc=SLSQP_ACC, alpha=0.0, f0=0.0, gs=0.0, h1=0.0, h2=0.0, h3=0.0, h4=0.0,
                   t=0.0, t0=0.0, tol=10.0 * SLSQP_ACC, exact=0, inconsistent=0, reset=0,
                   iter=0, itermax=SLSQP_MAXITER, line=0, m=n_con, meq=r, mode=0, n=n)
              for _ in range(B)]
    views = [(states[b], Cs[b].T, D[b], X[b], mult[b], buffer[b], ints[b]) for b in range(B)]
    grad = np.zeros(n)
    grad[-1] = 1.0
    xl, xu = np.append(np.zeros(n - 1), np.nan), np.full(n, np.nan)    # NaN: no bound
    core = _slsqp_core
    calls, rounds = 0, 0
    while live:
        rounds += 1
        calls += len(live)
        values, jacobians = [], []
        ts = fx.tolist()    # the core takes each start's t as a Python float
        for b in live:
            state, C, d, x, mu, buf, iw = views[b]
            core(state, ts[b], grad, C, d, x, mu, xl, xu, buf, iw)
            mode = state["mode"]
            if mode == 1:
                values.append(b)
            elif mode == -1:
                jacobians.append(b)
        if values:
            evaluate(values)
        if jacobians:
            gradient(jacobians)
        live = sorted(values + jacobians)

    W = np.maximum(X[:, :-1].reshape(B, r, m1), 0.0)
    W /= W.sum(axis=2, keepdims=True)
    modes = np.array([state["mode"] for state in states])
    nits = np.array([state["iter"] for state in states])
    profiles = _profiles(W, k)
    return W, profiles, profiles.max(axis=1), modes, nits, calls, rounds


def _multistart(k: int, m: int, cfg: SolverConfig, fixed: Sequence[Sequence[np.ndarray]],
                diagonal: bool) -> MinimaxResult:
    """Run ``_polish`` on a budget of starts; the first least peak among those that ran wins.

    The starts are one (B, r, m + 1) array: the solver's ``fixed`` starts,
    then seeded random starts up to ``cfg.multistarts`` starts in all, a
    budget that ``_polish`` may stop short of (``WAVE``).  The draws do not
    depend on where it stops, so the starts that ran are the first ones of
    any larger budget with the same seed.  The
    random starts' factors are m + 1 draws each of
    ``random.Random(cfg.seed).expovariate(1.0)``, start by start and factor
    by factor, each divided by its sum in one division: uniform on the
    simplex (Dirichlet(1)).  The stdlib generator keeps ``numpy.random``, and
    the OpenSSL bindings it imports, out of every float command.

    The winner is the first start whose peak, the largest entry of its
    profile, is least; a NaN peak never wins (``np.nanargmin``).  Its
    weights, peak and profile are the ones ``_polish`` returns, so no point
    is folded again.  ``iterations`` sums nit over the starts that ran, and
    the result counts those starts per SLSQP exit mode, the core calls and
    the lock-step rounds.
    """
    rng = random.Random(cfg.seed)
    shape = (max(0, cfg.multistarts - len(fixed)), len(fixed[0]), m + 1)
    draws = np.array([rng.expovariate(1.0) for _ in range(math.prod(shape))]).reshape(shape)
    S = np.concatenate([np.array(fixed, dtype=float), draws / draws.sum(axis=2, keepdims=True)])
    W, profiles, peaks, modes, nits, calls, rounds = _polish(S, k)
    best = int(np.nanargmin(peaks))
    return MinimaxResult(
        value=float(peaks[best]),
        argument=W[best].tolist(),
        shared_modes=_shared_modes(profiles[best]),
        method="slsqp",
        iterations=int(nits.sum()),
        converged=int(modes[best]) == 0,
        diagonal=diagonal,
        k=k,
        m=m,
        slsqp_status=dict(sorted(Counter(modes.tolist()).items())),
        slsqp_calls=calls,
        slsqp_rounds=rounds,
    )


# ---------------------------------------------------------------------------
# General constant: k independent factors
# ---------------------------------------------------------------------------

def general_constant(k: int, m: int, cfg: SolverConfig = SolverConfig()) -> MinimaxResult:
    """Upper estimate of C_{k,m}: one epigraph solve over k free factors per start.

    The fixed starts are the zero-padded m = 1 diagonal optimum for all k
    factors, and the asymmetric pair f = (delta_0 + delta_m)/2 as factor 1
    with g uniform on {1, ..., m} as every other factor.  The first start
    keeps all factors equal; the second does not, and at k = 2 its fold
    f*g is 1/(2m) on {1, ..., 2m}, below Cbar_{2,2} = 64/225 at m = 2.
    """
    _check_km(k, m)
    f = np.zeros(m + 1)
    f[[0, m]] = 0.5
    g = np.append(0.0, np.full(m, 1.0 / m))
    return _multistart(k, m, cfg, [[_padded_m1(k, m)] * k, [f] + [g] * (k - 1)], diagonal=False)


# ---------------------------------------------------------------------------
# Diagonal constant: all factors equal
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _diagonal_m1(k: int) -> Tuple[Fraction, Fraction, Tuple[int, ...]]:
    """The exact m = 1 diagonal optimum: the value, the least minimizing p and the shared modes.

    Read off ``constants.diagonal_profile`` once per k: at k = 300 that takes
    about 0.5 s, and every ``diagonal_constant`` and ``general_constant`` call
    at m > 1 starts from this optimum.
    """
    # the weight (1 - p, p) has pmf entry i equal to envelope term i at x = 1 - p;
    # the last minimizing x gives the least minimizing p
    prof = diagonal_profile(k)
    x = prof.envelope_min_locations[-1]
    terms = _envelope_terms(k, x)
    top = max(terms)
    return prof.envelope_min_value, 1 - x, tuple(i for i, t in enumerate(terms) if t == top)


def diagonal_constant(k: int, m: int, cfg: SolverConfig = SolverConfig()) -> MinimaxResult:
    """Upper estimate of Cbar_{k,m}; exact at m = 1 via the envelope."""
    _check_km(k, m)
    if m == 1:
        v, p, modes = _diagonal_m1(k)
        return MinimaxResult(
            value=float(v),
            argument=[[1.0 - float(p), float(p)]],
            shared_modes=list(modes),
            method="diagonal-envelope-exact",
            iterations=k + 2,
            converged=True,
            diagonal=True,
            k=k,
            m=m,
            value_exact=v,
        )

    return _multistart(k, m, cfg, [[np.full(m + 1, 1.0 / (m + 1))], [_padded_m1(k, m)]],
                       diagonal=True)


# ---------------------------------------------------------------------------
# Exhaustive rational grid oracle
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridOracleResult:
    k: int
    m: int
    n: int
    diagonal: bool
    grid_min: Fraction           # exact minimum over the grid: an upper bound for the constant
    argmin: tuple                # weight tuples with denominator n
    points_evaluated: int        # grid points decided: per^k ordered tuples, or per (diagonal)
    folds: Optional[int] = field(default=None, compare=False)   # points actually folded

    def to_dict(self) -> dict:
        return {
            "k": self.k, "m": self.m, "n": self.n, "diagonal": self.diagonal,
            "grid_min": str(self.grid_min),
            "grid_min_decimal": float(self.grid_min),
            "argmin": [[str(x) for x in w] for w in self.argmin],
            "points_evaluated": self.points_evaluated,
        }


def _tuple_blocks(tuples, total: int, width: int, rows: int):
    """The ``total`` width-tuples of the iterator ``tuples``, in order, as (rows, width) arrays.

    The last array may hold fewer rows.
    """
    for start in range(0, total, rows):
        yield np.fromiter(itertools.chain.from_iterable(itertools.islice(tuples, rows)),
                          dtype=np.intp, count=min(rows, total - start) * width).reshape(-1, width)


def _simplex_blocks(m: int, n: int, rows: int):
    """Integer numerators of the simplex grid points with denominator n, as (rows, m + 1) arrays.

    The m bars of each ``combinations(range(n + m), m)`` split n stars into
    m + 1 cells, so the rows come in lexicographic order.
    """
    bars = _tuple_blocks(itertools.combinations(range(n + m), m), math.comb(n + m, m), m, rows)
    return (np.diff(b, prepend=-1, append=n + m) - 1 for b in bars)


def _not_above_reversal(w: np.ndarray) -> np.ndarray:
    """Which rows of w satisfy w <= w[::-1], decided at the first index where they differ."""
    rev = w[:, ::-1]
    at = np.arange(len(w)), (w != rev).argmax(axis=1)
    return w[at] <= rev[at]


def grid_oracle(k: int, m: int, n: int, diagonal: bool = False) -> GridOracleResult:
    """Exact sweep of simplex points with weight denominator n.

    The grid minimum is an upper bound for the true constant.  Weights are
    integer numerators over n, so every fold is an integer numerator over
    n^k and the sweep is exact; the first minimising point in
    ``itertools.product`` order (diagonal: grid order) wins, and only it is
    turned into Fractions.

    Each symmetry class of points with one peak is folded once, through its
    least member.  General mode: convolution commutes, so a k-tuple and its
    sorted multiset have one peak, and only the nondecreasing tuples are
    folded; the least minimiser is sorted, since sorting a tuple never makes
    it larger.  Diagonal mode: reversed weights give a reversed fold, so a
    point w with w > w[::-1] is skipped; the least minimiser is never larger
    than its reversal.  ``points_evaluated`` counts the points the sweep
    decides (per^k ordered tuples, or per weights), ``folds`` the ones it
    folded.  ``GRID_BUDGET`` bounds the points to fold: the C(per+k-1, k)
    nondecreasing tuples in general mode, all per weights in diagonal mode
    (each one is compared with its reversal).

    The points are folded in blocks of ``_fold_rows(k, m)`` rows (at most
    ``FOLD_ENTRIES`` entries of the widest padded fold operand), each block
    a (rows, r, m + 1) array (``w[:, None]`` in diagonal mode, one gather
    ``comps[idx]`` of the tuples' factors in general mode), folded by one
    ``_profiles`` call of k - 1 ``_convolve_rows`` steps with no prefix
    shared between tuples; the first least peak of a block replaces the best
    so far only when strictly smaller.  Diagonal mode never holds the whole
    grid: it is generated in blocks of that many rows, and each is folded as
    soon as the reversal test has filtered it (a block the test empties is
    skipped).  Every fold entry is at most n^k, so the numerators are int64
    when n^k < 2^63 and Python ints (dtype object) otherwise, through the
    same code.
    """
    if k < 2 or m < 1 or n < 1:
        raise ValueError(f"need k >= 2, m >= 1, n >= 1; got k={k}, m={m}, n={n}")
    per = math.comb(n + m, m)
    work = per if diagonal else math.comb(per + k - 1, k)
    if work > GRID_BUDGET:
        raise BudgetExceeded(f"{work} grid points to fold exceed budget {GRID_BUDGET}")

    rows = min(work, _fold_rows(k, m))
    dtype = np.int64 if n**k <= np.iinfo(np.int64).max else object
    if diagonal:
        kept = (w[_not_above_reversal(w)].astype(dtype, copy=False)
                for w in _simplex_blocks(m, n, rows))
        blocks = (w[:, None] for w in kept if len(w))
    else:
        comps = _simplex_grid(m, n).astype(dtype)
        tuples = itertools.combinations_with_replacement(range(per), k)
        blocks = (comps[idx] for idx in _tuple_blocks(tuples, work, k, rows))
    best, best_point, folded = None, None, 0
    for F in blocks:
        peaks = _profiles(F, k).max(axis=1)
        i = int(np.argmin(peaks))
        if best is None or peaks[i] < best:
            best, best_point = peaks[i], F[i].tolist()
        folded += len(F)
    argmin = tuple(tuple(Fraction(c, n) for c in w) for w in best_point)
    return GridOracleResult(k, m, n, diagonal, Fraction(int(best), n**k), argmin,
                            per if diagonal else per**k, folded)


# ---------------------------------------------------------------------------
# Proof-mirroring exact solver at m = 1
# ---------------------------------------------------------------------------

def intersection_restricted_solve(k: int) -> MinimaxResult:
    """Exact m = 1 solution restricted to shared-mode diagonal points.

    On the diagonal, adjacent pmf entries i-1 and i intersect exactly at
    p = i/(k+1); the minimax value is the smallest envelope value over those
    intersection points and equals the closed-form constant exactly.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    best_p, best_v, best_modes = None, None, None
    for i in range(1, k + 1):
        p = Fraction(i, k + 1)
        if 0 < p < 1:
            # self-consistency with the generic intersection formula
            pstar = intersection_point((p,) * (k - 1), i)
            if pstar != p:  # pragma: no cover - would signal a bug
                raise AssertionError(f"intersection fixed point failed at k={k}, i={i}")
        pmf = pb_pmf((p,) * k).pmf
        if pmf[i] != pmf[i - 1]:  # pragma: no cover
            raise AssertionError(f"entries {i - 1},{i} not tied at p={p}")
        v = max(pmf)
        if best_v is None or v < best_v:
            best_p, best_v = p, v
            best_modes = [t for t, x in enumerate(pmf) if x == v]
    if best_v != optimal_constant(k):  # pragma: no cover
        raise AssertionError(f"k={k}: envelope minimum {best_v} != closed form")
    return MinimaxResult(
        value=float(best_v),
        argument=[[float(1 - best_p), float(best_p)]],
        shared_modes=best_modes,
        method="intersection-restricted-exact",
        iterations=k,
        converged=True,
        diagonal=True,
        k=k,
        m=1,
        value_exact=best_v,
    )
