"""Shared brute-force oracles, deliberately independent of the library paths,
the small solver config the float-solver tests share, and a stub table row
below the k = 2 continuous floor."""

import dataclasses
import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

import convmax.continuous
from convmax.constants import optimal_constant_d
from convmax.gridfn import GridFn, _codes
from convmax.minimax import GridOracleResult, SolverConfig
from convmax.sidon import KEEP_SETS, _PackedCounts

#: Few starts, so the float-solver tests stay fast.
FAST = SolverConfig(multistarts=8)

#: A 12-point 2-Sidon set in {0,1}^5, found by max_size_g_sidon(5, 2, 2, samples=2000, seed=4).
#: Its largest ordered 3-fold count, 12, is below the k = 3 bound (3/8)^5 * 12^3 = 6561/512.
ODD_K_COUNTEREXAMPLE = ["00011", "00101", "00110", "01000", "01001", "01110",
                        "10000", "10011", "10100", "11010", "11101", "11111"]


def brute_convolve(f: GridFn, g: GridFn) -> dict:
    """Direct double sum over all point pairs; returns {point: value}."""
    out = {}
    for pf in itertools.product(range(f.m + 1), repeat=f.d):
        for pg in itertools.product(range(g.m + 1), repeat=g.d):
            key = tuple(a + b for a, b in zip(pf, pg))
            out[key] = out.get(key, 0) + f[pf] * g[pg]
    return out


def shift_add_rows(a, b):
    """Row i is the 1-d convolution of rows a[i] and b[i]: one shifted
    multiply-add per column of b into zeros, the reference whose bytes
    ``minimax._convolve_rows`` keeps."""
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + b.shape[-1] - 1,), dtype=np.result_type(a, b))
    for j in range(b.shape[-1]):
        out[..., j:j + a.shape[-1]] += a * b[..., j:j + 1]
    return out


def brute_pb_pmf(p):
    """Pmf by enumerating all 2^k success patterns."""
    k = len(p)
    pmf = [0] * (k + 1)
    for pattern in itertools.product((0, 1), repeat=k):
        prob = 1
        for b, q in zip(pattern, p):
            prob *= q if b else (1 - q)
        pmf[sum(pattern)] += prob
    return pmf


def brute_lagrange_residuals(p):
    """{i: spread of D_{k-1,i-1}(p'_j) / D_{k-1,i}(p'_j) over j}, skipping each i
    where some D_{k-1,i}(p'_j) vanishes; p'_j is p without coordinate j and each
    leave-one-out pmf comes from ``brute_pb_pmf``."""
    k = len(p)
    pmfs = [brute_pb_pmf(tuple(p[:j]) + tuple(p[j + 1:])) for j in range(k)]

    def diff(f, i):  # D_i = f_i - f_{i-1}, entries outside 0..len(f)-1 read as 0
        def entry(n):
            return f[n] if 0 <= n < len(f) else 0
        return Fraction(entry(i) - entry(i - 1))

    out = {}
    for i in range(1, k + 1):
        if all(diff(f, i) != 0 for f in pmfs):
            ratios = [diff(f, i - 1) / diff(f, i) for f in pmfs]
            out[i] = max(ratios) - min(ratios)
    return out


def brute_grid_oracle(k: int, m: int, n: int, diagonal: bool = False) -> GridOracleResult:
    """The grid oracle by its definition, on Fraction weights.

    The weights are the points of the simplex with denominator n, in
    lexicographic order of their numerators.  Every ordered k-tuple (diagonal:
    one weight used k times) is refolded from scratch, and the first tuple in
    ``itertools.product`` order with the least peak wins.
    """
    weights = [tuple(Fraction(c, n) for c in comp)
               for comp in itertools.product(range(n + 1), repeat=m + 1) if sum(comp) == n]
    combos = [(w,) for w in weights] if diagonal else list(itertools.product(weights, repeat=k))

    def peak(combo):
        acc = [Fraction(1)]
        for f in combo * (k // len(combo)):
            out = [Fraction(0)] * (len(acc) + m)
            for i, x in enumerate(acc):
                for j, y in enumerate(f):
                    out[i + j] += x * y
            acc = out
        return max(acc)

    best, best_combo = None, None
    for combo in combos:
        v = peak(combo)
        if best is None or v < best:
            best, best_combo = v, combo
    return GridOracleResult(k, m, n, diagonal, best, best_combo, len(combos))


def brute_coarse_diagonal_grid(k: int, m: int):
    """The best points of the coarse diagonal grid of m, by their definition.

    n is the largest denominator whose simplex grid has at most 4000 points.
    Every point is scored by k float folds (``shift_add_rows``) of all points
    stacked; the points within a relative 1e-9 of the least score are refolded
    exactly in Python ints, since float rounding can reorder near ties.
    Returns n, the least k-fold peak as a Fraction over n^k and the numerator
    tuples of its minimisers in lexicographic order.
    """
    n = 2
    while math.comb(n + 1 + m, m) <= 4000:
        n += 1
    comps = sorted(c for c in itertools.combinations_with_replacement(range(n + 1), m)
                   for c in [tuple(b - a for a, b in zip((0,) + c, c + (n,)))])
    acc = np.ones((len(comps), 1))
    for _ in range(k):
        acc = shift_add_rows(acc, np.array(comps) / n)
    scores = acc.max(axis=1)

    def peak(comp):
        out = [1]
        for _ in range(k):
            out = [sum(out[i - j] * comp[j] for j in range(len(comp)) if 0 <= i - j < len(out))
                   for i in range(len(out) + m)]
        return max(out)

    near = [c for c, s in zip(comps, scores) if s <= scores.min() * (1 + 1e-9)]
    peaks = [peak(c) for c in near]
    best = min(peaks)
    return n, Fraction(best, n**k), [c for c, p in zip(near, peaks) if p == best]


#: One-dimensional optimal constants C_{k,1}: k = 2..5 as pinned by acceptance
#: criterion 1, and C_{1,1} = 1/2 (max(a, b) >= (a + b) / 2).
SIDON_CONSTANTS = {1: Fraction(1, 2), 2: Fraction(4, 9), 3: Fraction(3, 8),
                   4: Fraction(216, 625), 5: Fraction(5, 16)}


def brute_max_count(subset, k: int) -> int:
    """Largest number of ordered k-tuples of ``subset`` with one coordinatewise sum.

    ``subset`` holds points as '0'/'1' strings of equal length.
    """
    counts = {}
    for tup in itertools.product(subset, repeat=k):
        key = tuple(sum(int(p[t]) for p in tup) for t in range(len(tup[0])))
        counts[key] = counts.get(key, 0) + 1
    return max(counts.values())


def brute_first_g_sidon(d: int, k: int, g: int, order=None):
    """First set, largest size first, in ``itertools.combinations`` order over the
    cube, whose ordered k-tuple counts are all <= g; '0'/'1' strings.

    The cube is sorted, or listed as ``order`` gives it: entry p is the point
    whose binary digits, first coordinate most significant, spell p.
    """
    if order is None:
        order = range(2**d)
    cube = [format(p, f"0{d}b") for p in order]
    for size in range(len(cube), 0, -1):
        for subset in itertools.combinations(cube, size):
            if brute_max_count(subset, k) <= g:
                return list(subset)
    return []


def brute_sidon_violations(d: int, k: int, mask_order: bool = False):
    """Sweep every nonempty A in {0,1}^d against max count >= C_{k,1}^d |A|^k.

    Counts ordered k-tuples of A by their coordinatewise sum.  Sets are sorted
    lists of '0'/'1' strings, first coordinate first.  Returns
    (violating sets, minimum slack, sets attaining the minimum slack, sets
    with slack 0).  The lists are sorted, or with ``mask_order`` in increasing
    order of the subset mask whose bit p selects the point that p spells.
    """
    c = SIDON_CONSTANTS[k] ** d
    cube = ["".join(bits) for bits in itertools.product("01", repeat=d)]
    violating, min_slack, min_sets, equality = [], None, [], []
    for size in range(1, len(cube) + 1):
        for subset in itertools.combinations(cube, size):
            slack = brute_max_count(subset, k) - c * size**k
            members = sorted(subset)
            if slack < 0:
                violating.append(members)
            if slack == 0:
                equality.append(members)
            if min_slack is None or slack < min_slack:
                min_slack, min_sets = slack, [members]
            elif slack == min_slack:
                min_sets.append(members)

    def order(sets):
        if mask_order:
            return sorted(sets, key=lambda s: sum(1 << int(p, 2) for p in s))
        return sorted(sets)

    return order(violating), min_slack, order(min_sets), order(equality)


def brute_sampled_subsets(d: int, samples: int, seed: int):
    """The documented sampled-sweep stream, rebuilt without ``convmax``.

    The first ``samples`` nonzero draws of random.Random(seed).getrandbits(2^d);
    bit p of a draw selects the point whose binary digits, first coordinate
    most significant, spell p.  Sets are sorted lists of '0'/'1' strings.
    """
    rng = random.Random(seed)
    cube = ["".join(bits) for bits in itertools.product("01", repeat=d)]
    subsets = []
    while len(subsets) < samples:
        draw = rng.getrandbits(2**d)
        if draw:
            subsets.append(sorted(cube[p] for p in range(2**d) if draw >> p & 1))
    return subsets


def plain_sweep(d: int, k: int, masks=None) -> dict:
    """``EnumerationSummary.to_dict()`` by the plain sweep: each subset folded by the
    packed engine and its max count found by the full ``peak``, with no symmetry
    classes and no cap on the search.

    The subsets are every nonempty subset mask in increasing order
    (exhaustive), or the masks ``masks`` yields, in its order (sampled); bit p
    of a mask selects point mask p.  The first KEEP_SETS sets met at the least
    slack and at slack 0 are kept.
    """
    c = optimal_constant_d(k, d)
    engine = _PackedCounts(_codes(d, 1, k + 1), k, 2**d)
    exhaustive = masks is None
    if exhaustive:
        masks = range(1, 2 ** 2**d)
    checked = failures = 0
    min_slack, min_sets, equality = None, [], []
    for mask in masks:
        checked += 1
        members = [p for p in range(2**d) if mask >> p & 1]
        slack = engine.peak(engine.fold(members)) - c * len(members) ** k
        points = [format(p, f"0{d}b") for p in members]
        failures += slack < 0
        if slack == 0:
            equality.append(points)
        if min_slack is None or slack < min_slack:
            min_slack, min_sets = slack, [points]
        elif slack == min_slack:
            min_sets.append(points)
    return {"d": d, "k": k, "subsets_checked": checked, "failures": failures,
            "min_slack": str(min_slack), "min_slack_sets": min_sets[:KEEP_SETS],
            "equality_sets": equality[:KEEP_SETS], "exhaustive": exhaustive}


def random_exact_gridfn(rng: random.Random, d: int, m: int = 1,
                        allow_zero: bool = False) -> GridFn:
    size = (m + 1) ** d
    while True:
        vals = [Fraction(rng.randint(0, 12), rng.randint(1, 6)) for _ in range(size)]
        if allow_zero or any(vals):
            return GridFn(d, m, vals)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def undercut_m2(monkeypatch):
    """``continuous`` rows whose m = 2 row, 2 * 3 * 0.1, undercuts the known k = 2
    lower bound 1.28."""
    solve = convmax.continuous.diagonal_constant

    def undercut(k, m, cfg):
        res = solve(k, 1, cfg)
        return res if m == 1 else dataclasses.replace(res, m=m, value=0.1, value_exact=None,
                                                      argument=[[1 / 3] * 3])

    monkeypatch.setattr(convmax.continuous, "diagonal_constant", undercut)
