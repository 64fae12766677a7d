"""Numerical computation of the discrete constants C_{k,m} and Cbar_{k,m}.

Both float solvers share one engine, ``_polish``: an SLSQP solve of the
epigraph form min t s.t. (f_1*...*f_k)_i <= t, each factor on the simplex,
run by ``_multistart`` from each solver's fixed starts, then from seeded
random starts, and reduced to the best start.  ``_polish`` drives scipy's
compiled SLSQP core (Kraft's method, ``scipy.optimize._slsqplib.slsqp``,
scipy >= 1.16) through its reverse-communication loop with the inputs
``minimize(method="SLSQP")`` would give it, so the iterates are scipy's own,
without its Python driver around each of the core's calls.  The module imports
numpy and the top-level ``scipy`` package only: ``_load_slsqp_core`` loads the
core's extension straight from its file, since ``import scipy.optimize`` would
add about 0.37 s and 47 MB RSS to every float command for a module this one
never calls.  ``minimize`` and ``linprog`` remain as lazy module names, read
only by the benchmark tracer.

* ``general_constant`` — k free factors.  Starts: the zero-padded m = 1
  diagonal optimum (``_padded_m1``) and the uniform weights, each used for all
  k factors.
* ``diagonal_constant`` — one factor used k times.  At m = 1 the objective is
  the one-dimensional diagonal envelope, and the exact result is read off
  ``constants.diagonal_profile``, its minimum over the rational crossing
  points.  For m > 1 the starts are the uniform weights, the
  zero-padded m = 1 optimum, the best points of a coarse simplex grid
  (``_coarse_grid_seeds``: m <= 26 only, filtered by one FFT power of the
  whole grid) and caller-chained seeds.

The independent cross-checks are exact:

* ``grid_oracle`` — exhaustive exact sweep over the simplex grid points
  with denominator n (``_simplex_blocks``, in lexicographic order).  It folds
  integer numerators (each factor a numerator over n, a k-fold one over n^k)
  in numpy blocks of points, k - 1 ``gridfn._convolve_rows`` calls per block
  and no prefix shared, as int64 when n^k < 2^63 and as Python ints (dtype
  object) otherwise, and builds Fractions only for the minimiser.  It folds
  one member of each class of points that share a peak: in general mode
  each multiset of factors (convolution commutes), once per nondecreasing
  tuple; in diagonal mode each pair {w, w[::-1]}.  ``points_evaluated``
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

import heapq
import importlib.machinery
import importlib.util
import itertools
import math
import os
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

#: Most entries of one block of batched work: FFT scores in
#: ``_coarse_grid_seeds``, fold entries in ``grid_oracle``.
BLOCK_ENTRIES = 2**20


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
    starts: int = field(default=0, compare=False)                    # SLSQP solves run
    slsqp_status: Dict[int, int] = field(default_factory=dict, compare=False)  # starts per exit mode

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
    """The convolution of the factors ``ws`` (at least one), folded left to right."""
    return reduce(np.convolve, ws)


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
    """The exact m = 1 diagonal optimum, as floats, zero-padded to length m + 1."""
    p = 1 - diagonal_profile(k).envelope_min_locations[-1]
    w = np.zeros(m + 1)
    w[0], w[1] = 1.0 - float(p), float(p)
    return w


def _peak(ws: Sequence[np.ndarray]) -> float:
    return float(np.max(_conv_all(ws)))


def _factors(x: np.ndarray, k: int, r: int) -> List[np.ndarray]:
    """The k factors of an epigraph point x = (r factors of length m+1, t)."""
    return list(x[:-1].reshape(r, -1)) * (k // r)


#: SLSQP's accuracy (``minimize``'s ``ftol``) and iteration cap, per start.
SLSQP_ACC = 1e-14
SLSQP_MAXITER = 300


class _EpigraphSetup(NamedTuple):
    """Everything the SLSQP solve of a (k, r, m) epigraph problem needs but its start.

    The arrays are read-only: each solve copies ``C`` and allocates its own
    work arrays of the given sizes.
    """
    index: np.ndarray        # Jacobian gather index, see ``_epigraph_jac``
    xl: np.ndarray           # bounds of x = (weights, t): [0, 1] per weight, NaN (free) for t
    xu: np.ndarray
    grad: np.ndarray         # gradient of the objective t
    C: np.ndarray            # constraint Jacobian, Fortran order: r equality rows, then km+1 zero rows
    state: Tuple[Tuple[str, float], ...]   # the core's state on entry
    buffer_size: int
    index_size: int          # length of the core's int work array and of its multipliers


@lru_cache(maxsize=32)
def _epigraph_setup(k: int, r: int, m: int) -> _EpigraphSetup:
    """The start-independent part of the epigraph solve, built once per (k, r, m).

    The state, bounds and work sizes are the ones ``scipy.optimize.minimize``
    (scipy >= 1.16) hands the core for this problem with ``ftol`` =
    ``SLSQP_ACC`` and ``maxiter`` = ``SLSQP_MAXITER``.
    """
    # the Jacobian gather index of ``_epigraph_jac``: src slots r*n_c and r*n_c + 1 hold 0.0 and 1.0
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
    xl, xu = np.append(np.zeros(n_w), np.nan), np.append(np.ones(n_w), np.nan)
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
    return _EpigraphSetup(index, xl, xu, grad, C, state, buffer_size, n_con + 2 * n + 2)


def _epigraph_jac(k: int, r: int, m: int):
    """The Jacobian x -> d(t - f_1*...*f_k)/dx of the epigraph constraint, r free factors.

    Entry (i, (j, a)) is -(k/r) c_j[i - a], where c_j is the fold of all
    factors but one copy of factor j, and the t column is ones.  Each call
    writes the r leave-one-out folds into one flat source, after which a 0.0
    and a 1.0 slot sit, and gathers the whole Jacobian from it with the
    (km+1, r(m+1)+1) index of ``_epigraph_setup``: a fresh array every call.
    """
    copies = k // r
    n_c = (k - 1) * m + 1
    index = _epigraph_setup(k, r, m).index
    src = np.zeros(r * n_c + 2)
    src[-1] = 1.0

    def jac(x):
        f = _factors(x, k, r)
        for j in range(r):
            np.multiply(_conv_all(f[:j] + f[j + 1:]), -copies, out=src[j * n_c:(j + 1) * n_c])
        return src[index]

    return jac


def _epigraph_slsqp(ws0: Sequence[np.ndarray], k: int) -> Tuple[np.ndarray, int, int]:
    """SLSQP on the epigraph form from (ws0, its peak); returns the final x, exit mode and nit.

    This is scipy's own SLSQP driver loop, cut to this problem.  The start
    is clipped to the bounds, and the compiled core asks for the objective
    and constraint values (mode 1) or their gradients (mode -1) at x, which
    it updates in place, until it exits.  Constraint values are written into
    ``d`` in place; the objective gradient and the r equality rows of ``C``
    never change, so a gradient request writes only the ``_epigraph_jac``
    gather into the inequality rows.  The core's inputs are those of
    ``minimize(method="SLSQP")``, so x, nit and the exit mode are
    bit-identical to it.
    """
    r, m = len(ws0), len(ws0[0]) - 1
    setup = _epigraph_setup(k, r, m)
    jac = _epigraph_jac(k, r, m)
    x = np.append(np.clip(np.concatenate(ws0), 0.0, 1.0), _peak(list(ws0) * (k // r)))
    C = setup.C.copy(order="F")
    d = np.empty(len(C))
    # views, built once: the core updates x in place and reads d in place
    W = x[:-1].reshape(r, m + 1)
    factors = list(W) * (k // r)
    d_eq, d_ieq = d[:r], d[r:]

    def evaluate():
        # equality rows first, as the core expects
        np.subtract(W.sum(axis=1), 1.0, out=d_eq)
        np.subtract(x[-1], _conv_all(factors), out=d_ieq)

    state = dict(setup.state)
    mult = np.zeros(setup.index_size)
    indices = np.zeros(setup.index_size, dtype=np.int32)
    buffer = np.zeros(setup.buffer_size)
    fx = x[-1]
    C[r:] = jac(x)
    evaluate()
    while True:
        _slsqp_core(state, fx, setup.grad, C, d, x, mult, setup.xl, setup.xu, buffer, indices)
        mode = state["mode"]
        if mode == 1:
            fx = x[-1]
            evaluate()
        elif mode == -1:
            C[r:] = jac(x)
        else:
            return x, int(mode), int(state["iter"])


class _ExitMode(int):
    """An SLSQP exit mode that is true exactly when it is 0 (success), so it reads as an ok flag."""

    def __bool__(self) -> bool:
        return self == 0


def _polish(ws0: Sequence[np.ndarray], k: int) -> Tuple[List[np.ndarray], float, _ExitMode, int]:
    """SLSQP on the epigraph form: min t s.t. (f_1*...*f_k)_i <= t, each f_j in simplex.

    ``ws0`` holds one factor (diagonal mode: it is used k times) or k factors
    (general mode).  Runs ``_epigraph_slsqp`` and returns the cleaned
    factors, their objective, the SLSQP exit mode (true on success) and its
    nit.
    """
    r, m = len(ws0), len(ws0[0]) - 1
    x, mode, nit = _epigraph_slsqp(ws0, k)
    ws = [_clean_weights(w) for w in x[:-1].reshape(r, m + 1)]
    return ws, _peak(ws * (k // r)), _ExitMode(mode), nit


def _multistart(k: int, m: int, cfg: SolverConfig, starts: Sequence[Sequence[np.ndarray]],
                diagonal: bool) -> MinimaxResult:
    """Run ``_polish`` from each start in order; the first best start wins ties.

    ``starts`` is padded to ``cfg.multistarts`` with seeded random starts of the same shape.
    The result counts the starts run and the starts per SLSQP exit mode.
    """
    starts = list(starts)
    rng = np.random.default_rng(cfg.seed)
    while len(starts) < cfg.multistarts:
        starts.append([_clean_weights(rng.exponential(size=m + 1)) for _ in range(len(starts[0]))])
    best_ws, best_v, best_exit, total_nit = None, math.inf, False, 0
    status: Counter = Counter()
    for ws0 in starts:
        ws, v, exit_mode, nit = _polish(ws0, k)
        total_nit += nit
        status[int(exit_mode)] += 1
        if v < best_v:
            best_ws, best_v, best_exit = ws, v, exit_mode

    profile = _conv_all(best_ws * (k // len(best_ws)))
    return MinimaxResult(
        value=best_v,
        argument=[list(map(float, w)) for w in best_ws],
        shared_modes=_shared_modes(profile),
        method="slsqp",
        iterations=total_nit,
        converged=bool(best_exit),
        diagonal=diagonal,
        k=k,
        m=m,
        starts=len(starts),
        slsqp_status=dict(sorted(status.items())),
    )


# ---------------------------------------------------------------------------
# General constant: k independent factors
# ---------------------------------------------------------------------------

def general_constant(k: int, m: int, cfg: SolverConfig = SolverConfig()) -> MinimaxResult:
    """Upper estimate of C_{k,m}: one epigraph solve over k free factors per start."""
    _check_km(k, m)
    uniform = np.full(m + 1, 1.0 / (m + 1))
    return _multistart(k, m, cfg, [[_padded_m1(k, m)] * k, [uniform] * k], diagonal=False)


# ---------------------------------------------------------------------------
# Diagonal constant: all factors equal
# ---------------------------------------------------------------------------

#: Seeds that ``_coarse_grid_seeds`` returns.
GRID_SEEDS = 3


def _coarse_grid_seeds(k: int, m: int) -> List[np.ndarray]:
    """The ``GRID_SEEDS`` best points of the diagonal simplex grid with denominator n.

    n is the largest denominator whose grid has at most 4000 points.  Below
    n = 3, that is for every m >= 27, there are no seeds: every two-cell
    point (delta_i + delta_j) / 2 has the same k-fold peak, so that grid
    ranks nothing.  Points are ranked by the float peak ``_peak([w] * k)``,
    then by the weight tuple.  An FFT power of all grid weights at once only
    filters: the points within a relative 1e-9 of the ``GRID_SEEDS``-th
    smallest FFT score are rescored with ``_peak``, since float rounding in
    either score can break exact ties either way.
    """
    n = 2
    while math.comb(n + 1 + m, m) <= 4000:
        n += 1
    if n < 3:
        return []
    weights = _simplex_grid(m, n) / n
    size = k * m + 1
    # score the rows in blocks of at most BLOCK_ENTRIES scores: one FFT of the
    # whole grid holds (points, km+1) arrays, about 120 MB at (k, m) = (1000, 2)
    rows = max(1, BLOCK_ENTRIES // size)
    scores = np.concatenate([
        np.fft.irfft(np.fft.rfft(weights[i:i + rows], size) ** k, size).max(axis=1)
        for i in range(0, len(weights), rows)])
    cut = np.partition(scores, GRID_SEEDS - 1)[GRID_SEEDS - 1] * (1 + 1e-9)
    near_best = ((_peak([w] * k), tuple(w.tolist())) for w in weights[scores <= cut])
    return [np.array(w) for _, w in heapq.nsmallest(GRID_SEEDS, near_best)]


def diagonal_constant(k: int, m: int, cfg: SolverConfig = SolverConfig(),
                      extra_seeds: Optional[Sequence[Sequence[float]]] = None) -> MinimaxResult:
    """Upper estimate of Cbar_{k,m}; exact at m = 1 via the envelope.

    Each of ``extra_seeds`` must hold m+1 finite nonnegative weights with a
    positive sum; it is normalized and run after the built-in starts.
    """
    _check_km(k, m)
    extra = [np.array(s, dtype=float) for s in extra_seeds or ()]
    for s in extra:
        if s.shape != (m + 1,) or not np.all(np.isfinite(s)) or np.any(s < 0) or s.sum() <= 0:
            raise ValueError(f"each extra seed needs m+1 = {m + 1} finite nonnegative "
                             f"weights with a positive sum, got {s.tolist()}")

    if m == 1:
        # the weight (1 - p, p) has pmf entry i equal to envelope term i at x = 1 - p;
        # the last minimizing x gives the least minimizing p
        prof = diagonal_profile(k)
        x, v = prof.envelope_min_locations[-1], prof.envelope_min_value
        p = 1 - x
        terms = _envelope_terms(k, x)
        top = max(terms)
        return MinimaxResult(
            value=float(v),
            argument=[[1.0 - float(p), float(p)]],
            shared_modes=[i for i, t in enumerate(terms) if t == top],
            method="diagonal-envelope-exact",
            iterations=k + 2,
            converged=True,
            diagonal=True,
            k=k,
            m=m,
            value_exact=v,
        )

    seeds: List[np.ndarray] = [np.full(m + 1, 1.0 / (m + 1)), _padded_m1(k, m)]
    seeds.extend(_coarse_grid_seeds(k, m))
    seeds.extend(_clean_weights(s) for s in extra)
    return _multistart(k, m, cfg, [[w] for w in seeds], diagonal=True)


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


def _nondecreasing_blocks(per: int, k: int, rows: int):
    """The nondecreasing k-tuples of ``range(per)``, as (rows, k) index arrays.

    The tuples come in ``itertools.combinations_with_replacement`` order.
    """
    return _tuple_blocks(itertools.combinations_with_replacement(range(per), k),
                         math.comb(per + k - 1, k), k, rows)


def _simplex_blocks(m: int, n: int, rows: int):
    """Integer numerators of the simplex grid points with denominator n, as (rows, m + 1) arrays.

    The m bars of each ``combinations(range(n + m), m)`` split n stars into
    m + 1 cells, so the rows come in lexicographic order.
    """
    bars = _tuple_blocks(itertools.combinations(range(n + m), m), math.comb(n + m, m), m, rows)
    return (np.diff(b, prepend=-1, append=n + m) - 1 for b in bars)


def _regroup(arrays, rows: int):
    """The rows of ``arrays``, in order, as new arrays of ``rows`` rows; the last may hold fewer."""
    out, filled = None, 0
    for a in arrays:
        while len(a):
            if out is None:
                out, filled = np.empty((rows, *a.shape[1:]), dtype=a.dtype), 0
            take = min(rows - filled, len(a))
            out[filled:filled + take] = a[:take]
            a, filled = a[take:], filled + take
            if filled == rows:
                yield out
                out = None
    if out is not None:
        yield out[:filled]


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

    The points are folded in blocks of at most ``BLOCK_ENTRIES`` fold
    entries, each block with k - 1 ``gridfn._convolve_rows`` calls and no
    prefix shared between tuples; the first least peak of a block replaces
    the best so far only when strictly smaller.  Diagonal mode never holds
    the whole grid: it is generated in blocks of that many rows, each is
    filtered by the reversal test, and the kept rows are regrouped into full
    blocks to fold.  Every fold entry is at most
    n^k, so the numerators are int64 when n^k < 2^63 and Python ints (dtype
    object) otherwise, through the same code.
    """
    if k < 2 or m < 1 or n < 1:
        raise ValueError(f"need k >= 2, m >= 1, n >= 1; got k={k}, m={m}, n={n}")
    per = math.comb(n + m, m)
    work = per if diagonal else math.comb(per + k - 1, k)
    if work > GRID_BUDGET:
        raise BudgetExceeded(f"{work} grid points to fold exceed budget {GRID_BUDGET}")

    rows = max(1, min(work, BLOCK_ENTRIES // (k * m + 1)))
    dtype = np.int64 if n**k <= np.iinfo(np.int64).max else object
    if diagonal:
        kept = (w[_not_above_reversal(w)].astype(dtype, copy=False)
                for w in _simplex_blocks(m, n, rows))
        blocks = ([w] for w in _regroup(kept, rows))
    else:
        comps = _simplex_grid(m, n).astype(dtype)
        blocks = ([comps[col] for col in idx.T] for idx in _nondecreasing_blocks(per, k, rows))
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
