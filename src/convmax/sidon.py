"""Representation counts of k-fold sums over subsets of {0,1}^d.

A subset A is stored as a set of d-bit masks, the most significant bit being
the first coordinate, so a mask is its point's storage index.  Counts are
plain integers on ``gridfn``'s point layout: ``gridfn._codes(d, 1, k + 1)``
reads each point as a base-(k+1) integer, so sums of k points never carry and
integer order is sorted point order; ``gridfn._digits`` reads an index back
as a point, and ``_codes`` enforces the memory cap on the (k+1)^d count
table.  The ordered representation counts of kA are the k-fold convolution
of the indicator of A on those codes.  ``CubeSet.indicator`` keeps the
``GridFn`` route to them as an independent oracle.

Every count here comes from one engine.  ``_RunningCounts`` holds the i-fold
counts P_1..P_k of the current set (P_0 = delta_0) and adds or undoes one
point with code x by P_i +/-= sum_{j=1..i} C(i,j) P_{i-j} shifted by j x, so
a step reads only the supports of P_0..P_{k-1}, never a whole table.  Counts
never fall when a point is added, so the max count of a set is the max of its
parent's and of the P_k entries the new point touched.  The single-set routes
(``representation_counts``, ``verify_bound`` and the sampled branches) add a
set's points to a fresh engine (``_fold_counts``).  ``enumerate_verify``
walks the subsets depth-first in increasing mask order and never refolds one.

The claimed bound is max representation count >= C_{k,d} |A|^k with C_{k,d}
the tensor power of the exact one-dimensional constant.  It is attained by the
product extremal function, but it is a proven floor only at d = 1.  For even k
it fails on sets: five-point Sidon sets in {0,1}^3 have max count 2 below the
k=2 value (4/9)^3 * 25.  For odd k it fails on general functions in dimension
>= 2 (see ``constants``); on 0/1 indicators no odd-k failure is known, and the
exhaustive sweeps find none for k in {3, 5} at d <= 4.  verify_bound
therefore reports pass/fail faithfully instead of asserting; exhaustive
sweeps surface the genuine counterexamples.

Size caps for g-Sidon sets: g / C_{k,1} at d = 1 (a theorem), the
average-bound cap (g (k+1)^d)^(1/k) for even k with d >= 2 (always valid), and
the explicit g 2^{kd} / binom(k, k//2)^d form for odd k.  The odd-k cap rests
on the odd-k bound for indicators: computer-checked where the exhaustive sweep
finds no failure, a conjecture elsewhere.  So the search never reads the cap:
up to EXHAUSTIVE_D_MAX it is one pruned depth-first walk over all 2^d points
(``_largest_g_sidon``), and ``sidon search`` checks its result against the
cap.  Above EXHAUSTIVE_D_MAX the sweep and the search read one seeded stream
of nonzero subsets, ``_sampled_masks``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .constants import optimal_constant_d
from .gridfn import GridFn, _codes, _digits

Point = Tuple[int, ...]

#: Largest dimension swept exhaustively (2^(2^d) subsets).
EXHAUSTIVE_D_MAX = 4


def _point_to_mask(point: Sequence[int], d: int) -> int:
    if len(point) != d:
        raise ValueError(f"point {tuple(point)} does not have {d} coordinates")
    mask = 0
    for x in point:
        if x not in (0, 1):
            raise ValueError(f"coordinate {x} outside {{0,1}}")
        mask = (mask << 1) | x
    return mask


class _RunningCounts:
    """The i-fold counts P_1..P_k of a point set that grows and shrinks by one code.

    P_0 = delta_0, P_1..P_{k-1} are sparse dicts and P_k is a dense list of
    ``length`` entries.  Adding the point with code x applies
    P_i += sum_{j=1..i} C(i,j) P_{i-j} shifted by j x, which must read the old
    lower powers: ``add`` updates P_k first, then P_{k-1} down to P_1, and
    ``undo`` restores P_1 up to P_{k-1} first, then P_k.
    """

    def __init__(self, k: int, length: int):
        self.k = k
        self.lower: List[Dict[int, int]] = [{0: 1}] + [{} for _ in range(k - 1)]
        self.top = [0] * length
        self.terms = [[(j, math.comb(i, j)) for j in range(1, i + 1)] for i in range(k + 1)]

    def add(self, x: int) -> int:
        """Add code x; returns the max of the P_k entries it touched.

        Counts never fall on ``add``, so the max of P_k after it is the max of
        the value returned and the max before it.
        """
        k, lower, top = self.k, self.lower, self.top
        peak = 0
        for j, coef in self.terms[k]:
            shift = j * x
            for c, n in lower[k - j].items():
                c += shift
                v = top[c] + coef * n
                top[c] = v
                if v > peak:
                    peak = v
        for i in range(k - 1, 0, -1):
            p = lower[i]
            for j, coef in self.terms[i]:
                shift = j * x
                for c, n in lower[i - j].items():
                    c += shift
                    p[c] = p.get(c, 0) + coef * n
        return peak

    def undo(self, x: int) -> None:
        """Remove code x, which must be in the set."""
        k, lower, top = self.k, self.lower, self.top
        for i in range(1, k):
            p = lower[i]
            for j, coef in self.terms[i]:
                shift = j * x
                for c, n in lower[i - j].items():
                    c += shift
                    v = p[c] - coef * n
                    if v:
                        p[c] = v
                    else:
                        del p[c]
        for j, coef in self.terms[k]:
            shift = j * x
            for c, n in lower[k - j].items():
                top[c + shift] -= coef * n


def _fold_counts(members: Iterable[int], codes: Sequence[int], k: int) -> Tuple[List[int], int]:
    """P_k of the points ``members`` and its max, added to a fresh ``_RunningCounts``."""
    counts = _RunningCounts(k, k * codes[-1] + 1)
    peak = 0
    for p in members:
        peak = max(peak, counts.add(codes[p]))
    return counts.top, peak


@dataclass(frozen=True)
class CubeSet:
    """A subset of {0,1}^d encoded as d-bit masks."""

    d: int
    members: frozenset

    def __init__(self, d: int, members: Iterable[int]):
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        ms = frozenset(members)
        for mask in ms:
            if not 0 <= mask < 2**d:
                raise ValueError(f"mask {mask} outside {{0,...,{2 ** d - 1}}}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "members", ms)

    def __len__(self) -> int:
        return len(self.members)

    @classmethod
    def from_points(cls, d: int, points: Iterable[Sequence[int]]) -> "CubeSet":
        return cls(d, (_point_to_mask(p, d) for p in points))

    def points(self) -> List[Point]:
        return sorted(_digits(mask, self.d, 2) for mask in self.members)

    def indicator(self) -> GridFn:
        vals = [0] * (2**self.d)
        for mask in self.members:
            vals[mask] = 1  # flat row-major index on {0,1}^d equals the mask
        return GridFn(self.d, 1, vals)

    def serialize(self) -> str:
        """One point per line, d characters of '0'/'1', first coordinate first."""
        return "\n".join(_points_str(self.d, self.members)) + "\n"

    @classmethod
    def parse(cls, text: str, d: Optional[int] = None) -> "CubeSet":
        points = []
        for raw in text.splitlines():
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if any(c not in "01" for c in line):
                raise ValueError(f"bad point line {line!r}")
            points.append(tuple(int(c) for c in line))
        if not points:
            raise ValueError("empty set file")
        dd = d if d is not None else len(points[0])
        if any(len(p) != dd for p in points):
            raise ValueError("inconsistent point dimensions")
        return cls.from_points(dd, points)


@dataclass(frozen=True)
class SidonReport:
    set: CubeSet
    k: int
    max_count: int             # = smallest g with A a g-Sidon set of order k
    argmax_points: List[Point]
    bound: Fraction            # C_{k,d} |A|^k
    slack: Fraction            # max_count - bound
    passed: bool

    def to_dict(self) -> dict:
        return {
            "d": self.set.d,
            "set": _points_str(self.set.d, self.set.members),
            "k": self.k,
            "max_count": self.max_count,
            "argmax_points": [list(p) for p in self.argmax_points],
            "bound": str(self.bound),
            "bound_decimal": float(self.bound),
            "slack": str(self.slack),
            "passed": self.passed,
        }


def _set_counts(A: CubeSet, k: int) -> Tuple[List[int], int]:
    """Representation counts of kA indexed by base-(k+1) code, and their max."""
    if len(A) == 0:
        raise ValueError("representation counts need a nonempty set")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _fold_counts(A.members, _codes(A.d, 1, k + 1), k)


def representation_counts(A: CubeSet, k: int) -> Dict[Point, int]:
    """Ordered k-tuple representation counts of each point of kA."""
    return {_digits(code, A.d, k + 1): n
            for code, n in enumerate(_set_counts(A, k)[0]) if n}


def verify_bound(A: CubeSet, k: int) -> SidonReport:
    """Check max representation count against the exact tensor-power bound.

    ``passed`` is genuinely informative: for even k and d >= 3 some subsets
    fail, which is a property of the bound rather than a bug.
    """
    counts, max_count = _set_counts(A, k)
    argmax = [_digits(code, A.d, k + 1) for code, n in enumerate(counts) if n == max_count]
    bound = optimal_constant_d(k, A.d) * len(A) ** k
    slack = max_count - bound
    return SidonReport(A, k, max_count, argmax, bound, slack, max_count >= bound)


@dataclass(frozen=True)
class SampleConfig:
    samples: int = 1000
    seed: int = 0


def _sampled_masks(d: int, cfg: Optional[SampleConfig]) -> List[int]:
    """Subset masks: the first ``cfg.samples`` nonzero Random(cfg.seed).getrandbits(2^d)."""
    if cfg is None:
        raise ValueError(f"d={d} needs a SampleConfig (exhaustive cap is d={EXHAUSTIVE_D_MAX})")
    if cfg.samples < 1:
        raise ValueError(f"samples must be >= 1, got {cfg.samples}")
    rng = random.Random(cfg.seed)
    masks = []
    while len(masks) < cfg.samples:
        s = rng.getrandbits(2**d)
        if s:
            masks.append(s)
    return masks


@dataclass(frozen=True)
class EnumerationSummary:
    d: int
    k: int
    subsets_checked: int
    failures: int
    min_slack: Fraction
    min_slack_sets: List[List[str]]   # serialized point lists, capped
    equality_sets: List[List[str]]
    exhaustive: bool

    def to_dict(self) -> dict:
        return {
            "d": self.d, "k": self.k,
            "subsets_checked": self.subsets_checked,
            "failures": self.failures,
            "min_slack": str(self.min_slack),
            "min_slack_sets": self.min_slack_sets,
            "equality_sets": self.equality_sets,
            "exhaustive": self.exhaustive,
        }


def _points_str(d: int, masks: Iterable[int]) -> List[str]:
    """Sorted points as '0'/'1' strings, first coordinate first (mask order is point order)."""
    return [format(mask, f"0{d}b") for mask in sorted(masks)]


def enumerate_verify(d: int, k: int, sample_cfg: Optional[SampleConfig] = None,
                     keep: int = 8) -> EnumerationSummary:
    """Verify the corollary bound over all nonempty subsets of {0,1}^d.

    Exhaustive for d <= 4; for larger d the ``_sampled_masks`` subsets are
    checked, which is a heuristic sweep only.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    c = optimal_constant_d(k, d)
    codes = _codes(d, 1, k + 1)
    n_points = 2**d
    exhaustive = d <= EXHAUSTIVE_D_MAX
    # slack = max count - c s^k, kept as an integer numerator over c.denominator
    scaled_bound = [c.numerator * s**k for s in range(n_points + 1)]

    failures = 0
    min_slack = None
    min_sets: List[List[str]] = []
    eq_sets: List[List[str]] = []

    def record(members: List[int], max_count: int) -> None:
        nonlocal failures, min_slack, min_sets
        slack = max_count * c.denominator - scaled_bound[len(members)]
        if slack < 0:
            failures += 1
        if slack == 0 and len(eq_sets) < keep:
            eq_sets.append(_points_str(d, members))
        if min_slack is None or slack < min_slack:
            min_slack = slack
            min_sets = [_points_str(d, members)]
        elif slack == min_slack and len(min_sets) < keep:
            min_sets.append(_points_str(d, members))

    if exhaustive:
        checked = 2**n_points - 1
        counts = _RunningCounts(k, k * codes[-1] + 1)
        members: List[int] = []

        def sweep(p: int, peak: int) -> None:
            # subsets whose highest point is below p, in increasing mask order
            for q in range(p):
                x = codes[q]
                q_peak = max(peak, counts.add(x))
                members.append(q)
                record(members, q_peak)
                sweep(q, q_peak)
                members.pop()
                counts.undo(x)

        sweep(n_points, 0)
    else:
        masks = _sampled_masks(d, sample_cfg)
        checked = len(masks)
        for subset_mask in masks:
            members = [p for p in range(n_points) if (subset_mask >> p) & 1]
            record(members, _fold_counts(members, codes, k)[1])
    return EnumerationSummary(d, k, checked, failures, Fraction(min_slack, c.denominator),
                              min_sets, eq_sets, exhaustive)


@dataclass(frozen=True)
class SearchResult:
    d: int
    k: int
    g: int
    best_set: CubeSet
    best_size: int
    size_cap: int
    cap_form: str    # 'paper-odd-k', 'general' or 'trivial-average'
    exhaustive: bool

    def to_dict(self) -> dict:
        return {
            "d": self.d, "k": self.k, "g": self.g,
            "best_set": _points_str(self.best_set.d, self.best_set.members),
            "best_size": self.best_size,
            "size_cap": self.size_cap,
            "cap_form": self.cap_form,
            "exhaustive": self.exhaustive,
        }


def _int_kth_root(n: int, k: int) -> int:
    """Largest s with s^k <= n, by integer Newton steps down from a power of two above it."""
    if n < 0:
        raise ValueError("negative radicand")
    if n == 0:
        return 0
    s = 1 << -(-n.bit_length() // k)
    while True:
        t = ((k - 1) * s + n // s ** (k - 1)) // k
        if t >= s:
            return s
        s = t


def g_sidon_size_cap(d: int, k: int, g: int) -> Tuple[int, str]:
    """Largest possible |A| for a g-Sidon set of order k on {0,1}^d.

    Uses |A|^k <= g / C_{k,d}: a theorem at d = 1 ('general' for even k).
    For odd k the explicit g 2^{kd} / binom(k, k//2)^d form ('paper-odd-k')
    assumes the tensor-power bound on 0/1 indicators, which is unproven for
    d >= 2: the exhaustive sweeps find no failure for k in {3, 5} at d <= 4,
    but the bound fails for general functions.  For even k with d >= 2 the
    bound fails on sets, so the cap falls back to the always-valid average
    bound |A|^k <= g (k+1)^d ('trivial-average').
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k % 2 == 1:
        bound = Fraction(g) / optimal_constant_d(k, d)
        form = "paper-odd-k"
    elif d == 1:
        bound = Fraction(g) / optimal_constant_d(k, d)
        form = "general"
    else:
        bound = Fraction(g * (k + 1) ** d)
        form = "trivial-average"
    cap = _int_kth_root(math.floor(bound), k)
    return cap, form


def _largest_g_sidon(codes: Sequence[int], k: int, g: int) -> List[int]:
    """First subset of the largest size, in ``itertools.combinations`` order, with every count <= g.

    Depth-first over increasing point indices, which meets the subsets of each
    size in ``itertools.combinations`` order, and only a strictly larger set
    replaces the best.  A prefix with a count above g is dropped with all its
    extensions (adding a point never lowers a count), and so is a prefix that
    cannot outgrow the best set even with every point left.
    """
    n_points = len(codes)
    counts = _RunningCounts(k, k * codes[-1] + 1)
    chosen: List[int] = []
    best: List[int] = []

    def extend(start: int) -> None:
        nonlocal best
        for p in range(start, n_points):
            if len(chosen) + n_points - p <= len(best):
                return
            x = codes[p]
            chosen.append(p)
            # every count of the prefix is <= g, so only the touched ones can exceed it
            if counts.add(x) <= g:
                if len(chosen) > len(best):
                    best = chosen[:]
                extend(p + 1)
            chosen.pop()
            counts.undo(x)

    extend(0)
    return best


def max_size_g_sidon(d: int, k: int, g: int,
                     search_cfg: Optional[SampleConfig] = None) -> SearchResult:
    """Largest g-Sidon set of order k found (exhaustive for d <= 4, else sampled).

    The exhaustive search returns the first qualifying set of the largest size
    in ``itertools.combinations`` order; the sampled one keeps the first
    strictly larger qualifying set of the stream.  Neither reads the size cap,
    so a set above it is returned as found: ``best_size > size_cap`` refutes
    the bound behind the cap.
    """
    if g < 1:
        raise ValueError(f"g must be >= 1, got {g}")
    cap, cap_form = g_sidon_size_cap(d, k, g)
    n_points = 2**d
    codes = _codes(d, 1, k + 1)
    exhaustive = d <= EXHAUSTIVE_D_MAX
    if exhaustive:
        best = _largest_g_sidon(codes, k, g)
    else:
        best = [0]
        for s in _sampled_masks(d, search_cfg):
            members = [p for p in range(n_points) if (s >> p) & 1]
            if len(members) > len(best) and _fold_counts(members, codes, k)[1] <= g:
                best = members
    return SearchResult(d, k, g, CubeSet(d, best), len(best), cap, cap_form, exhaustive)
