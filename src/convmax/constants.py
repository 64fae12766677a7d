"""Closed-form optimal constants on {0,1}^d and the diagonal envelope.

The one-dimensional constant is

    binom(k, floor(k/2)) / 2^k                       for odd k,
    binom(k, floor(k/2)) / 2^k * (1 - 1/(k+1)^2)^(k/2)  for even k,

and the d-dimensional reference value is its d-th power.  The tensor power
is attained with equality by the product extremal function, but it is a
proven lower bound only at d = 1.  For d >= 2 it is NOT a lower bound for all
inputs, for either parity of k: exact rational counterexamples exist (two
distinct factors at k=2, d=2; five-point Sidon sets at k=2, d=3; three
distinct factors at k=3, d=2; one factor used three times at k=3, d=3; a
12-point 2-Sidon set at k=3, d=5), so
consumers must treat optimal_constant_d as the attained reference value
rather than a guaranteed floor outside d = 1.  Everything here is exact
rational arithmetic; the even-k exponent k/2 is an integer so no real powers
are ever taken.

Note: the source remark bounding the continuous constant reads
``C_k <= k(m+1) Cbar_{2,m}``; the subscript 2 is a typo for k (the remark is
stated for general k and the m=1 corollary uses C_{k,1}).  This module
implements the k-version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .gridfn import GridFn, _table_size, product_function, ratio

#: Largest k accepted by the exact verification helpers.
K_BUDGET = 64


def optimal_constant(k: int) -> Fraction:
    """Best constant for k factors on {0,1} (exact rational)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    c = Fraction(math.comb(k, k // 2), 2**k)
    if k % 2 == 0:
        c *= (1 - Fraction(1, (k + 1) ** 2)) ** (k // 2)
    return c


def optimal_constant_d(k: int, d: int) -> Fraction:
    """Tensor power of the 1-d constant: the reference value on {0,1}^d.

    Attained exactly by the product extremal function; a proven lower bound
    only when d = 1; at d >= 2 exact counterexamples exist for k = 2 and
    k = 3 (see the module docstring).
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return optimal_constant(k) ** d


def extremal_function(k: int, d: int) -> GridFn:
    """A function attaining equality for k factors on {0,1}^d.

    The d-fold tensor product of (floor(k/2) + 1, k - floor(k/2)), so
    f(x) = (k - floor(k/2))^(sum x) * (floor(k/2) + 1)^(d - sum x); constant
    ((k+1)/2)^d when k is odd.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    return product_function([GridFn(1, 1, (k // 2 + 1, k - k // 2))] * d)


@dataclass(frozen=True)
class SharpnessCertificate:
    k: int
    d: int
    lhs: Fraction  # ratio of k copies of the extremal function
    rhs: Fraction  # closed-form constant
    passed: bool


def verify_sharpness(k: int, d: int) -> SharpnessCertificate:
    """Exact check that the extremal function attains the closed form."""
    if k > K_BUDGET:
        raise ValueError(f"k={k} exceeds the exact-arithmetic budget {K_BUDGET}")
    _table_size(d, k + 1)  # the k-fold table is the largest: refuse before building anything
    f = extremal_function(k, d)
    lhs = ratio([f] * k)
    rhs = optimal_constant_d(k, d)
    return SharpnessCertificate(k, d, lhs, rhs, lhs == rhs)


def _envelope_terms(k: int, x: Fraction) -> List[int]:
    """binom(k,i) n^(k-i) (q-n)^i for i = 0..k at x = n/q: the envelope's terms times q^k."""
    n, q = x.numerator, x.denominator
    return [math.comb(k, i) * n ** (k - i) * (q - n) ** i for i in range(k + 1)]


def envelope_value(k: int, x: Fraction) -> Fraction:
    """max_{0<=i<=k} binom(k,i) x^(k-i) (1-x)^i at a point x = n/q of [0,1], on integers."""
    return Fraction(max(_envelope_terms(k, x)), x.denominator**k)


@dataclass(frozen=True)
class DiagonalProfile:
    """Piecewise description of the diagonal envelope and its minimum.

    On [(k-i)/(k+1), (k+1-i)/(k+1)] the envelope equals the i-th term, so the
    per-interval argmax index drops by one from k down to 0 as x sweeps [0,1].
    Each term is unimodal with its peak inside its own interval, so the
    envelope's minimum over [0,1] sits at a breakpoint: the crossing points
    where two adjacent terms tie.
    """

    k: int
    breakpoints: List[Fraction]      # (k-i)/(k+1), i = k..0, ascending
    piece_index: List[int]           # argmax index on each of the k+1 intervals
    envelope_min_value: Fraction
    envelope_min_locations: List[Fraction]


def diagonal_profile(k: int) -> DiagonalProfile:
    """The envelope's pieces, and the min and argmins of ``envelope_value`` over its breakpoints."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    breakpoints = [Fraction(j, k + 1) for j in range(k + 1)]
    values = [envelope_value(k, x) for x in breakpoints]
    min_value = min(values)
    locations = [x for x, v in zip(breakpoints, values) if v == min_value]
    return DiagonalProfile(k, breakpoints, list(range(k, -1, -1)), min_value, locations)


def continuous_upper_bound_m1(k: int) -> Fraction:
    """Exact m=1 upper bound 2k * optimal_constant(k) for the continuous constant."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return 2 * k * optimal_constant(k)
