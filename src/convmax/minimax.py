"""Numerical computation of the discrete constants C_{k,m} and Cbar_{k,m}.

Both float solvers share one engine, ``_polish``: SLSQP solves of the
epigraph form min t s.t. (f_1*...*f_k)_i <= t, each factor on the simplex,
run by ``_multistart`` from each solver's fixed starts, then from seeded
random starts (stdlib ``random``, uniform on each simplex), and reduced to
the best start.  ``_polish`` drives scipy's compiled SLSQP core (Kraft's
method, ``scipy.optimize._slsqplib.slsqp``, scipy >= 1.16) through its
reverse-communication loop with the inputs ``minimize(method="SLSQP")``
would give it, so the iterates are scipy's own,
without its Python driver around each of the core's calls.  It runs all
starts of a solve in lock-step, each with its own core state and work
arrays: a round calls the core once per unfinished start, then answers every
request for constraint values with one batched evaluation and every request
for the Jacobian with one batched gather.  Each float fold is one
``gridfn._convolve_rows`` call over the stacked rows: one strided
``np.matmul`` that adds each entry's products in column order, so its rows
have a shift-add's bits and do not depend on each other, and a start takes
the same iterates alone or in any batch.  The folds of ``grid_oracle`` run
in blocks of ``_fold_rows`` rows, which budget the zero-padded operand the
matmul reads.  At most ``BLOCK_ENTRIES`` work-array entries of SLSQP starts
are in flight; longer lists of starts run in chunks, in order.  The solve
bounds each weight by w >= 0 and leaves t free.  It poses no bound w <= 1:
the factor's row sum(w) = 1 with w >= 0 implies it, and the core turns every
finite bound into one more inequality row of each QP step ((k + 1)m + 2 rows
in diagonal mode, not (k + 2)m + 3).  Without it the points the core asks to
evaluate can leave the simplex: its line-search trial points do, with sum(w)
off by up to 3.7e3 at (k, m) = (100, 3), where their folds overflow float64.
``_lockstep`` runs under one ``np.errstate`` that keeps the overflow silent,
and reports each non-finite constraint value or Jacobian entry as the finite
violation -``OVERFLOW_VIOLATION``, so the core backtracks.  On each Jacobian
request it writes the leave-one-out folds of the factors into one flat row
and gathers the constraint rows from it with a fixed index.  The module
imports numpy (never ``numpy.random`` or ``numpy.fft``) and the top-level
``scipy`` package only: ``_load_slsqp_core`` loads the core's extension
straight from its file, since ``import scipy.optimize`` would add about
0.37 s and 47 MB RSS to every float command for a module this one never
calls.  ``minimize`` and ``linprog`` remain as lazy module names, read only
by the benchmark tracer.

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
  in numpy blocks of ``_fold_rows`` points, k - 1 ``gridfn._convolve_rows``
  calls per block and no prefix shared, as int64 when n^k < 2^63 and as
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
order and are reduced by minimum, the first start winning ties.
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
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
# the top-level package only: _load_slsqp_core loads the one compiled extension
# the solvers call, and scipy.optimize loads only if the lazy minimize/linprog
# names below are read
import scipy

from .constants import _envelope_terms, diagonal_profile, optimal_constant
from .errors import BudgetExceeded
from .gridfn import _convolve_rows
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
    # (perfbench/tracer.py) reads both; they go away with ROADMAP item 1's
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
    iterations: int
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

def _conv_all(ws: Sequence[np.ndarray]) -> np.ndarray:
    """The convolution of the factors ``ws`` (at least one), folded left to right.

    Each factor is one row or a stack of rows with the same leading axes, and
    every fold is a ``gridfn._convolve_rows`` call, so a row's fold has the
    same bits alone or in any stack.
    """
    return reduce(_convolve_rows, ws)


def _peak(ws: Sequence[np.ndarray]) -> np.ndarray:
    """The largest entry of the fold of ``ws``: one float64 per stacked row (a scalar for 1-d rows)."""
    return _conv_all(ws).max(axis=-1)


def _fold_rows(k: int, m: int) -> int:
    """Rows per block of ``grid_oracle``'s k-fold folds of length-(m + 1) rows, at least one.

    ``_convolve_rows`` reads each fold's left operand from a copy padded to
    la + 2m entries a row; the last fold's, (k + 1)m + 1 wide, is the
    widest.  A block holds at most ``FOLD_ENTRIES`` entries of it.
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


def _clean_weights(w: np.ndarray) -> np.ndarray:
    w = np.maximum(np.asarray(w, dtype=float), 0.0)
    return w / w.sum()


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
    return np.array(diagonal_constant(k, 1).argument[0] + [0.0] * (m - 1))


#: SLSQP's accuracy (``minimize``'s ``ftol``) and iteration cap, per start.
SLSQP_ACC = 1e-14
SLSQP_MAXITER = 300


class _EpigraphSetup(NamedTuple):
    """Everything the SLSQP solve of a (k, r, m) epigraph problem needs but its start.

    The arrays are read-only: each start copies ``C`` and gets its own work
    arrays of the given sizes.
    """
    index: np.ndarray        # Jacobian gather index of ``_polish``'s ``gradient``
    xl: np.ndarray           # lower bounds of x = (weights, t): 0 per weight, NaN (free) for t
    xu: np.ndarray           # upper bounds: NaN (none) throughout; sum(w) = 1 implies w <= 1
    grad: np.ndarray         # gradient of the objective t
    C: np.ndarray            # constraint Jacobian, Fortran order: r equality rows, then km+1 zero rows
    state: Tuple[Tuple[str, float], ...]   # the core's state on entry
    buffer_size: int
    index_size: int          # length of the core's int work array and of its multipliers
    entries: int             # work-array entries of one start: x, d, C, multipliers, ints, buffer


@lru_cache(maxsize=32)
def _epigraph_setup(k: int, r: int, m: int) -> _EpigraphSetup:
    """The start-independent part of the epigraph solve, built once per (k, r, m).

    The state, bounds and work sizes are the ones ``scipy.optimize.minimize``
    (scipy >= 1.16) hands the core for this problem with ``ftol`` =
    ``SLSQP_ACC``, ``maxiter`` = ``SLSQP_MAXITER`` and the bounds of the
    module docstring: w >= 0 per weight, none on t.
    """
    # the gather index of ``_polish``'s Jacobian: src slots r*n_c and r*n_c + 1 hold 0.0 and 1.0
    n_c = (k - 1) * m + 1
    zero, one = r * n_c, r * n_c + 1
    lag = np.arange(k * m + 1)[:, None] - np.arange(m + 1)
    inside = (lag >= 0) & (lag < n_c)
    index = np.full((k * m + 1, r * (m + 1) + 1), one)
    for j in range(r):
        index[:, j * (m + 1):(j + 1) * (m + 1)] = np.where(inside, lag + j * n_c, zero)

    n_w = r * (m + 1)
    n = n_w + 1
    meq, mieq = r, k * m + 1
    n_con = meq + mieq
    xl, xu = np.append(np.zeros(n_w), np.nan), np.full(n, np.nan)
    grad = np.zeros(n)
    grad[-1] = 1.0
    C = np.zeros((n_con, n), order="F")
    for j in range(r):
        C[j, j * (m + 1):(j + 1) * (m + 1)] = 1.0
    for a in (index, xl, xu, grad, C):
        a.flags.writeable = False
    state = (("acc", SLSQP_ACC), ("alpha", 0.0), ("f0", 0.0), ("gs", 0.0), ("h1", 0.0),
             ("h2", 0.0), ("h3", 0.0), ("h4", 0.0), ("t", 0.0), ("t0", 0.0),
             ("tol", 10.0 * SLSQP_ACC), ("exact", 0), ("inconsistent", 0), ("reset", 0),
             ("iter", 0), ("itermax", SLSQP_MAXITER), ("line", 0), ("m", n_con),
             ("meq", meq), ("mode", 0), ("n", n))
    # scipy's worst-case workspace for SLSQP, LSQ, LSEI, LDP and NNLS together (mieq > 0)
    buffer_size = (n * (n + 1) // 2 + 3 * n_con * n - (n_con + 5 * n + 7) * meq + 9 * n_con
                   + 8 * n * n + 35 * n + meq * meq + 28)
    index_size = n_con + 2 * n + 2
    entries = n + n_con + n * n_con + 2 * index_size + buffer_size
    return _EpigraphSetup(index, xl, xu, grad, C, state, buffer_size, index_size, entries)


#: One start's solve: its cleaned factors, their peak, the SLSQP exit mode (0 on success) and nit.
Solve = Tuple[List[np.ndarray], float, int, int]


def _polish(starts: Sequence[Sequence[np.ndarray]], k: int) -> Tuple[List[Solve], int, int]:
    """SLSQP on the epigraph form from each start: min t s.t. (f_1*...*f_k)_i <= t, f_j in simplex.

    Every start holds one factor (diagonal mode: it is used k times) or k
    factors (general mode), all of one length m + 1; its x = (the r free
    factors, t) starts from them, clipped to w >= 0, and their peak.  This is
    scipy's own SLSQP driver loop, cut to this problem and run for the starts
    in lock-step: each start keeps its own core state, x, d, C, multipliers,
    buffer and int work array.  Each round calls the compiled core once per
    unfinished start; the core updates that start's x in place and asks for
    the constraint values (mode 1) or their Jacobian (mode -1) at x, or
    exits.  Then one batched ``evaluate`` writes the values of every mode-1
    start into its d, and one batched ``gradient`` the Jacobians of every
    mode -1 start into its C.  The objective gradient and the r equality rows
    of C never change, so ``gradient`` writes only the inequality rows: entry
    (i, (j, a)) is -(k/r) c_j[i - a], where c_j is the fold of all factors
    but one copy of factor j, and the t column is ones.  It writes each
    start's r leave-one-out folds into one flat source row, after which a 0.0
    and a 1.0 slot sit, and gathers the rows from it with the (km+1,
    r(m+1)+1) index of ``_epigraph_setup``.  Every fold is a
    ``_convolve_rows`` call, whose rows do not depend on each other, so a
    start takes the same iterates alone or in any batch; and the core's
    inputs are those of ``minimize(method="SLSQP")``, so the iterates, nit
    and exit mode are bit-identical to it given the same fold.

    At most ``BLOCK_ENTRIES`` // ``_EpigraphSetup.entries`` starts (at least
    one) are in flight: longer lists run in chunks of that many, in order.

    Returns each start's ``Solve`` in start order, the core calls and the
    lock-step rounds, both summed over the chunks.
    """
    setup = _epigraph_setup(k, len(starts[0]), len(starts[0][0]) - 1)
    chunk = max(1, BLOCK_ENTRIES // setup.entries)
    solves, calls, rounds = [], 0, 0
    for i in range(0, len(starts), chunk):
        S = np.array([list(ws0) for ws0 in starts[i:i + chunk]], dtype=float)
        part, part_calls, part_rounds = _lockstep(S, k, setup)
        solves += part
        calls += part_calls
        rounds += part_rounds
    return solves, calls, rounds


def _finite(a: np.ndarray) -> np.ndarray:
    """a with every non-finite entry replaced, in place, by -``OVERFLOW_VIOLATION``."""
    if not np.isfinite(a).all():    # the check alone costs a fifth of the replacement
        np.nan_to_num(a, copy=False, nan=-OVERFLOW_VIOLATION, posinf=-OVERFLOW_VIOLATION,
                      neginf=-OVERFLOW_VIOLATION)
    return a


@np.errstate(over="ignore", invalid="ignore")
def _lockstep(S: np.ndarray, k: int, setup: _EpigraphSetup) -> Tuple[List[Solve], int, int]:
    """``_polish`` on one chunk: the starts S, a (B, r, m + 1) array, in lock-step.

    A point the core asks about can lie far off the simplex, and at large k its
    folds overflow (inf, or NaN from inf * 0).  Such a fold warns nothing: the
    call runs under one ``np.errstate``, and each non-finite constraint value or
    Jacobian entry is reported as -``OVERFLOW_VIOLATION``, a finite, very large
    violation, so the core backtracks.  Finite entries keep their bits.
    """
    B, r, m1 = S.shape
    copies, n_c = k // r, (k - 1) * (m1 - 1) + 1
    n_con, n = setup.C.shape
    X = np.empty((B, n))
    X[:, :-1] = np.maximum(S.reshape(B, -1), 0.0)
    X[:, -1] = _peak(list(S.transpose(1, 0, 2)) * copies)
    # Cs[b].T is start b's copy of C, in the Fortran order the core reads
    Cs = np.empty((B, n, n_con))
    Cs[:] = setup.C.T
    D = np.empty((B, n_con))
    mult = np.zeros((B, setup.index_size))
    ints = np.zeros((B, setup.index_size), dtype=np.int32)
    buffer = np.zeros((B, setup.buffer_size))
    fx = np.empty(B)        # each start's objective t at its last evaluation
    gather = setup.index.T

    def factors(x):
        W = x[:, :-1].reshape(len(x), r, m1)
        return W, [W[:, j] for j in range(r)] * copies

    def evaluate(rows):
        # equality rows first, as the core expects
        x = X[rows]
        W, f = factors(x)
        fx[rows] = x[:, -1]
        d = np.empty((len(rows), n_con))
        np.subtract(W.sum(axis=2), 1.0, out=d[:, :r])
        np.subtract(x[:, -1:], _conv_all(f), out=d[:, r:])
        D[rows] = _finite(d)

    def gradient(rows):
        _, f = factors(X[rows])
        src = np.zeros((len(rows), r * n_c + 2))
        src[:, -1] = 1.0
        for j in range(r):
            np.multiply(_conv_all(f[:j] + f[j + 1:]), -copies, out=src[:, j * n_c:(j + 1) * n_c])
        Cs[rows, :, r:] = _finite(src)[:, gather]

    live = list(range(B))
    gradient(live)
    evaluate(live)
    states = [dict(setup.state) for _ in range(B)]
    views = [(states[b], Cs[b].T, D[b], X[b], mult[b], buffer[b], ints[b]) for b in range(B)]
    core, grad, xl, xu = _slsqp_core, setup.grad, setup.xl, setup.xu
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
    peaks = _peak(list(W.transpose(1, 0, 2)) * copies).tolist()
    solves = [(list(W[b]), peaks[b], int(states[b]["mode"]), int(states[b]["iter"]))
              for b in range(B)]
    return solves, calls, rounds


def _multistart(k: int, m: int, cfg: SolverConfig, starts: Sequence[Sequence[np.ndarray]],
                diagonal: bool) -> MinimaxResult:
    """Run ``_polish`` from all starts at once; the first best start wins ties.

    ``starts`` is padded to ``cfg.multistarts`` with seeded random starts of
    the same shape.  Each factor of a padding start is m + 1 draws of
    ``random.Random(cfg.seed).expovariate(1.0)``, start by start and factor by
    factor, normalised: uniform on the simplex (Dirichlet(1)).  The stdlib
    generator keeps ``numpy.random``, and the OpenSSL bindings it imports,
    out of every float command.  The result counts the starts per SLSQP exit
    mode, the core calls and the lock-step rounds.
    """
    starts = list(starts)
    rng = random.Random(cfg.seed)
    while len(starts) < cfg.multistarts:
        starts.append([_clean_weights([rng.expovariate(1.0) for _ in range(m + 1)])
                       for _ in range(len(starts[0]))])
    solves, calls, rounds = _polish(starts, k)
    best_ws, best_v, best_mode, total_nit = None, math.inf, None, 0
    status: Counter = Counter()
    for ws, v, mode, nit in solves:
        total_nit += nit
        status[mode] += 1
        if v < best_v:
            best_ws, best_v, best_mode = ws, v, mode

    profile = _conv_all(best_ws * (k // len(best_ws)))
    return MinimaxResult(
        value=best_v,
        argument=[list(map(float, w)) for w in best_ws],
        shared_modes=_shared_modes(profile),
        method="slsqp",
        iterations=total_nit,
        converged=best_mode == 0,
        diagonal=diagonal,
        k=k,
        m=m,
        slsqp_status=dict(sorted(status.items())),
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
    with k - 1 ``gridfn._convolve_rows`` calls and no prefix shared between
    tuples; the first least peak of a block replaces the best so far only
    when strictly smaller.  Diagonal mode never holds the whole grid: it is
    generated in blocks of that many rows, and each is folded as soon as the
    reversal test has filtered it (a block the test empties is skipped).  Every fold entry is at most n^k, so the numerators
    are int64 when n^k < 2^63 and Python ints (dtype object) otherwise,
    through the same code.
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
        blocks = ([w] for w in kept if len(w))
    else:
        comps = _simplex_grid(m, n).astype(dtype)
        tuples = itertools.combinations_with_replacement(range(per), k)
        blocks = ([comps[col] for col in idx.T] for idx in _tuple_blocks(tuples, work, k, rows))
    best, best_ws, folded = None, None, 0
    for ws in blocks:
        peaks = reduce(_convolve_rows, ws * (k // len(ws))).max(axis=1)
        i = int(np.argmin(peaks))
        if best is None or peaks[i] < best:
            best, best_ws = peaks[i], [w[i].tolist() for w in ws]
        folded += len(ws[0])
    argmin = tuple(tuple(Fraction(c, n) for c in w) for w in best_ws)
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
