"""Representation counts of k-fold sums over subsets of {0,1}^d.

A subset A is stored as a set of d-bit masks, the most significant bit being
the first coordinate, so a mask is its point's storage index.  Counts are
plain integers on ``gridfn``'s point layout: ``gridfn._codes(d, 1, k + 1)``
reads each point as a base-(k+1) integer, so sums of k points never carry and
integer order is sorted point order; ``gridfn._digits`` reads an index back
as a point, and ``_codes`` enforces the memory cap on the (k+1)^d count
table.  The ordered representation counts of kA are the k-fold convolution
of the indicator of A on those codes.  ``CubeSet.indicator`` retains the
``GridFn`` route to them as an independent oracle.

Every count here comes from one engine, ``_PackedCounts``.  It packs each
i-fold count P_i of a set of at most n points into one Python int: the count
at code c is the w-bit field starting at bit c*w, with w = bit_length(n^k) + 1
(n = 2^d on the sweeps and the search, |A| for one set), so the top bit of
every field stays clear.  Adding the point with code x is
P_i += sum_{j=1..i} C(i,j) P_{i-j} << j*x*w, every term read from the old
state: O(k^2) big-int operations whatever the set size.  Ints are
immutable, so a parent's state stays valid after a point is added to it.
``remove`` is the exact inverse of ``add`` by the signed binomial update,
P_i += sum_{j=1..i} C(i,j) (-1)^j P_{i-j} << j*x*w, read from the old state
as well; the sum is exact, so a negative partial sum does no harm.
"Some count of P_k exceeds t" is one guard-bit test,
(P_k + (2^(w-1) - 1 - t) * ONES) & HIGH, with ONES a 1 in every field and
HIGH every top bit; it is never true for t >= 2^(w-1) - 1.
A max count is found by galloping up with that test and bisecting, or by
bisecting below a bound already known.
The g-Sidon walk holds one state and takes points back out with ``remove``.
Every other route counts a fixed set at once with ``fold``: P_1 is the
polynomial sum_a X^(c_a) at X = 2^w and P_k its k-th power, built by one
squaring and shifted sums with no field carrying into the next (Kronecker
substitution).  Counts are read back by one reader, ``fields_above(top, t)``:
the guard bits of that test locate the fields above t, and only those are parsed.
``representation_counts`` reads the fields above 0, and ``verify_bound`` the
codes of the fields above max - 1.

The exhaustive ``enumerate_verify`` scores one set per symmetry class of the
cube.  A coordinate permutation permutes the base-(k+1) codes, and reflecting
coordinate t maps each coordinate sum s_t of k points to k - s_t, a bijection
on the codes of kA; so the multiset of counts, hence the max count, |A| and
the slack, is the same on every set of a class under the 2^d d! symmetries.
The sweep walks the subset masks 1 .. 2^(2^d) - 1 in increasing order, skips
the masks already marked, and scores each unmarked one, the least of its
class, after marking its class: 2, 5, 21 and 401 classes at d = 1..4 instead
of 2^(2^d) - 1 sets.  ``_symmetry_orbit`` reads a class off one OR of two
table entries that pack the images of a subset under every symmetry, one
16-bit field each; the image of a union is the union of the images.

Both sweeps search the exact max count only where it can change the result.
With c the least slack so far, floored at 0, a set whose counts exceed
floor(c + C_{k,d} |A|^k) has slack above c, so it is no failure, no equality
set and no new minimum: one guard-bit test drops it.  Only the other sets run
``peak``, which bisects below that threshold; ``EnumerationSummary.peaks``
counts them.

The claimed bound is max representation count >= C_{k,d} |A|^k with C_{k,d}
the tensor power of the exact one-dimensional constant.  It is attained by the
product extremal function, but it is a proven floor only at d = 1.  It fails
on sets for both parities of k: five-point Sidon sets in {0,1}^3 have max
count 2 below the k=2 value (4/9)^3 * 25, and a 12-point 2-Sidon set in
{0,1}^5 has max 3-fold count 12 below the k=3 value (3/8)^5 * 12^3 = 6561/512.
The exhaustive sweeps find no odd-k failure for k in {3, 5} at d <= 4.
verify_bound therefore reports pass/fail faithfully instead of asserting;
the sweeps surface the genuine counterexamples.

Size caps for g-Sidon sets: g / C_{k,1} at d = 1 (a theorem), the
average-bound cap (g (k+1)^d)^(1/k) for even k with d >= 2 (always valid), and
the explicit g 2^{kd} / binom(k, k//2)^d form for odd k.  The odd-k cap rests
on the odd-k bound for indicators: computer-checked where the exhaustive sweep
finds no failure, and refuted at (d, k, g) = (5, 3, 12), where the 12-point
set above is a 12-Sidon set of order 3 against a cap of 11.  So the search
never reads the cap: it is one pruned depth-first walk over the 2^d points
(``_largest_g_sidon``), and ``sidon search`` checks its result against the
cap.  Reflecting coordinates keeps every count, so some largest set holds any
chosen point, and the walk starts from the state holding its first one.
Both routes take ``samples`` and ``seed``, the CLI's ``--samples`` and
``--seed``, check them at every d (samples >= 1, seed >= 0) and read them
only above EXHAUSTIVE_D_MAX.  There the walk takes the points in the order
random.Random(seed) shuffles them, ``samples`` is its budget of engine adds
and ``exhaustive`` means it finished; the sweep there reads the first
``samples`` nonzero subsets of a stream seeded by ``seed``, ``_sampled_masks``.
"""

from __future__ import annotations

import array
import itertools
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

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


class _PackedCounts:
    """Packed i-fold counts P_1..P_k of point sets of up to n points, one Python int per P_i.

    The count of P_i at base-(k+1) code c sits in the w-bit field c*w..c*w+w-1,
    with w = bit_length(n^k) + 1: every count is at most n^k, below the top
    bit of its field, which stays free as a guard bit.  P_0 = delta_0 is the
    int 1 and is never stored.  A state is the tuple (P_1, ..., P_k); ints are
    immutable, so ``add`` returns a new state and the old one stays valid.
    ``remove`` takes a point of the set back out.  Both are one update body.
    ``fold`` builds P_k of a fixed set by products instead, into the same ints.
    """

    def __init__(self, codes: Sequence[int], k: int, n: int):
        self.codes = codes
        self.length = length = k * codes[-1] + 1
        self.w = w = (n**k).bit_length() + 1
        # the largest count a field holds below its guard bit; no count of n points exceeds n^k
        self.limit = (1 << (w - 1)) - 1
        self.ones = ((1 << (length * w)) - 1) // ((1 << w) - 1)  # 1 in every field
        self.high = self.ones << (w - 1)                          # every guard bit
        self.empty = (0,) * k
        # Horner terms of P_i: (C(i, j), index of P_{i-j}) for j = i-1 down to 1
        self.terms = [[(math.comb(i, j), i - j - 1) for j in range(i - 1, 0, -1)]
                      for i in range(1, k + 1)]

    def _update(self, counts: Tuple[int, ...], x: int, minus: bool = False) -> Tuple[int, ...]:
        """The state with code x added (``minus``: taken out): each P_i = S^i becomes (S ± X^x)^i.

        By the binomial theorem P_i += sum_{j=1..i} C(i,j) u^j P_{i-j} with
        u = ±X^x, every term read from the old state.  The sum is Horner's rule
        in u: each step multiplies by u, a shift by x*w (negated when
        ``minus``), so a step is O(k^2) big-int operations whatever the set
        size.  The sum is exact integer arithmetic, so the fields come out
        right even where a partial sum is negative.
        """
        s = x * self.w
        u = -(1 << s) if minus else 1 << s
        out = []
        for p, terms in zip(counts, self.terms):
            acc = u
            for coef, i in terms:
                acc = (acc + coef * counts[i]) << s
                if minus:
                    acc = -acc
            out.append(p + acc)
        return tuple(out)

    add = _update

    def remove(self, counts: Tuple[int, ...], x: int) -> Tuple[int, ...]:
        """The state with code x, a point of the set, taken out: the inverse of ``add``."""
        return self._update(counts, x, True)

    def above(self, top: int, t: int) -> int:
        """The guard bits of the fields of ``top`` that hold a count above t; 0 if none does.

        Adding 2^(w-1) - 1 - t to every field sets the guard bit of a field
        holding v exactly when v > t, and v + 2^(w-1) - 1 - t < 2^w carries
        nothing into the next field.  No count exceeds t >= 2^(w-1) - 1.
        """
        if t >= self.limit:
            return 0
        return (top + (self.limit - t) * self.ones) & self.high

    def peak(self, top: int, hi: Optional[int] = None) -> int:
        """The max field of ``top``: gallop up from 0, then bisect; given ``hi``, a bound
        no field of ``top`` exceeds, bisect 0..hi."""
        lo, step = 0, 1
        while hi is None:
            t = lo + step - 1
            if not self.above(top, t):
                hi = t
            else:
                lo = t + 1
                step *= 2
        while lo < hi:
            mid = (lo + hi) // 2
            if self.above(top, mid):
                lo = mid + 1
            else:
                hi = mid
        return lo

    def fields_above(self, top: int, t: int) -> List[Tuple[int, int]]:
        """(code, count) of each field of ``top`` holding a count above t, in code order.

        The guard bits that ``above`` sets locate those fields; only they are parsed.
        """
        w = self.w
        n = self.length * w
        bits = format(top, f"0{n}b")  # field c is bits[n - c*w - w : n - c*w]
        flags = format(self.above(top, t) >> (w - 1), "b")[::-1]  # '1' at c*w for field c
        fields = []
        i = flags.find("1")
        while i >= 0:
            fields.append((i // w, int(bits[n - i - w:n - i], 2)))
            i = flags.find("1", i + 1)
        return fields

    def fold(self, members: Iterable[int]) -> int:
        """P_k of the points ``members`` (a repeated member counts again), as a product.

        With X = 2^w the packed P_i is the polynomial (sum_a X^(c_a))^i at X,
        and no field carries into the next (every count is at most n^k), so
        the ints are the ones ``add`` builds.  P_1 sets one bit per point in a
        zeroed buffer; P_2 = P_1 * P_1 is CPython's squaring; each further
        P_i = sum_a P_(i-1) << c_a*w, one shifted copy per point.
        """
        w, codes = self.w, self.codes
        shifts = [codes[p] * w for p in members]
        if not shifts:
            return 0
        buf = bytearray((max(shifts) >> 3) + 1)
        for s in shifts:
            buf[s >> 3] |= 1 << (s & 7)
        top = int.from_bytes(buf, "little")
        if top.bit_count() < len(shifts):  # a repeated member: its bit was set twice
            top = sum(1 << s for s in shifts)
        k = len(self.terms)
        if k > 1:
            top *= top
        for _ in range(k - 2):
            top = sum(top << s for s in shifts)
        return top


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
    def parse(cls, text: str) -> "CubeSet":
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
        d = len(points[0])
        if any(len(p) != d for p in points):
            raise ValueError("inconsistent point dimensions")
        return cls.from_points(d, points)


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


def _set_counts(A: CubeSet, k: int) -> Tuple[_PackedCounts, int]:
    """An engine sized for A and the packed representation counts of kA."""
    if len(A) == 0:
        raise ValueError("representation counts need a nonempty set")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    engine = _PackedCounts(_codes(A.d, 1, k + 1), k, len(A))
    # increasing codes leave the ints short until the last points
    return engine, engine.fold(sorted(A.members))


def representation_counts(A: CubeSet, k: int) -> Dict[Point, int]:
    """Ordered k-tuple representation counts of each point of kA."""
    engine, top = _set_counts(A, k)
    return {_digits(code, A.d, k + 1): n for code, n in engine.fields_above(top, 0)}


def verify_bound(A: CubeSet, k: int) -> SidonReport:
    """Check max representation count against the exact tensor-power bound.

    ``passed`` is genuinely informative: for even k and d >= 3 some subsets
    fail, which is a property of the bound rather than a bug.
    """
    engine, top = _set_counts(A, k)
    max_count = engine.peak(top)
    argmax = [_digits(code, A.d, k + 1) for code, _ in engine.fields_above(top, max_count - 1)]
    bound = optimal_constant_d(k, A.d) * len(A) ** k
    slack = max_count - bound
    return SidonReport(A, k, max_count, argmax, bound, slack, max_count >= bound)


def _check_sampling(samples: int, seed: int) -> None:
    """Refuse ``samples < 1`` and ``seed < 0`` at every d, before any work.

    ``random.Random`` would run a negative seed as its absolute value.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _sampled_masks(d: int, samples: int, seed: int) -> Iterator[int]:
    """The first ``samples`` nonzero Random(seed).getrandbits(2^d), drawn as they are read."""
    rng = random.Random(seed)
    drawn = 0
    while drawn < samples:
        s = rng.getrandbits(2**d)
        if s:
            drawn += 1
            yield s


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
    # symmetry classes the exhaustive sweep scored, None when sampled, and the
    # sets whose exact max count was searched; run statistics, left out of to_dict
    orbits: Optional[int]
    peaks: int

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


#: Sets kept in each of ``min_slack_sets`` and ``equality_sets``.
KEEP_SETS = 8


def _subset_str(d: int, subset_mask: int) -> List[str]:
    """The points of a subset given as a 2^d-bit mask (bit p set for point mask p)."""
    return _points_str(d, (p for p in range(2**d) if subset_mask >> p & 1))


def _symmetry_orbit(d: int) -> Callable[[int], Set[int]]:
    """The map from a subset mask of {0,1}^d, d <= 4, to its images under the cube's symmetries.

    Bit p of a subset mask is point p, and a symmetry maps point p to
    pi(p) ^ f for a coordinate permutation pi and a reflection mask f.  One
    int packs the images of a subset under all 2^d d! symmetries, one 16-bit
    field per symmetry; the image of a union is the union of the images, so
    the packed int of a subset is the OR of those of its points.  Two tables
    of such ints, one per byte of the subset mask (the high one is [0] below
    d = 4), are filled one point at a time, so ``orbit`` is one OR, read back
    as native 16-bit fields.  The tables are built per call.
    """
    n = 2**d
    images = []  # per symmetry, the image of each point
    for sigma in itertools.permutations(range(d)):
        pm = [sum((p >> s & 1) << j for j, s in enumerate(sigma)) for p in range(n)]
        images += [[q ^ f for q in pm] for f in range(n)]
    size = 2 * len(images)
    point = [int.from_bytes(array.array("H", [1 << img[p] for img in images]).tobytes(),
                            sys.byteorder) for p in range(n)]
    lo, hi = [0] * (1 << min(8, n)), [0] * (1 << max(0, n - 8))
    for table, base in ((lo, 0), (hi, 8)):
        for b in range(1, len(table)):
            low = b & -b
            table[b] = table[b ^ low] | point[base + low.bit_length() - 1]

    def orbit(x: int) -> Set[int]:
        return set(memoryview((lo[x & 255] | hi[x >> 8]).to_bytes(size, sys.byteorder)).cast("H"))

    return orbit


def enumerate_verify(d: int, k: int, samples: int = 1000, seed: int = 0) -> EnumerationSummary:
    """Verify the corollary bound over all nonempty subsets of {0,1}^d.

    Exhaustive for d <= EXHAUSTIVE_D_MAX; above it the ``samples`` subsets that
    ``_sampled_masks`` draws from ``seed`` are checked, which is a heuristic
    sweep only.  ``samples`` and ``seed`` are checked at every d.
    """
    _check_sampling(samples, seed)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    c = optimal_constant_d(k, d)
    n_points = 2**d
    exhaustive = d <= EXHAUSTIVE_D_MAX
    engine = _PackedCounts(_codes(d, 1, k + 1), k, n_points)
    peaks = 0

    def slack(subset_mask: int, least: float) -> Optional[int]:
        """max count - c |A|^k, as an integer numerator over c.denominator, or None when
        it exceeds max(least, 0): that set is no failure, no equality set and no new
        minimum.  One ``above`` test decides that; only the other sets run ``peak``."""
        nonlocal peaks
        members = [p for p in range(n_points) if subset_mask >> p & 1]
        top = engine.fold(members)
        base = c.numerator * len(members) ** k
        cap = None
        if least < math.inf:
            cap = (max(least, 0) + base) // c.denominator  # the largest max count kept
            if engine.above(top, cap):
                return None
        peaks += 1
        return engine.peak(top, cap) * c.denominator - base

    min_slack = math.inf
    if exhaustive:
        checked = 2**n_points - 1
        orbit = _symmetry_orbit(d)
        seen = bytearray(checked + 1)
        seen[0] = 1  # the empty set is not swept
        orbits = 0
        classes = []  # (slack, class size, least member) of the classes slack kept
        rep = seen.find(0)
        while rep >= 0:
            images = orbit(rep)
            for y in images:
                seen[y] = 1
            orbits += 1
            s = slack(rep, min_slack)
            if s is not None:
                classes.append((s, len(images), rep))
                min_slack = min(min_slack, s)
            rep = seen.find(0, rep + 1)
        failures = sum(size for s, size, _ in classes if s < 0)
        # the first KEEP_SETS masks of the classes at a slack, rebuilt from their least members
        min_sets, eq_sets = [sorted(y for s, _, least in classes if s == target
                                    for y in orbit(least))[:KEEP_SETS]
                             for target in (min_slack, 0)]
    else:
        checked, orbits = samples, None
        failures = 0
        min_sets, eq_sets = [], []  # subset masks in draw order, rendered on return
        for subset_mask in _sampled_masks(d, samples, seed):
            s = slack(subset_mask, min_slack)
            if s is None:
                continue
            if s < 0:
                failures += 1
            if s == 0 and len(eq_sets) < KEEP_SETS:
                eq_sets.append(subset_mask)
            if s < min_slack:
                min_slack, min_sets = s, [subset_mask]
            elif s == min_slack and len(min_sets) < KEEP_SETS:
                min_sets.append(subset_mask)
    return EnumerationSummary(d, k, checked, failures, Fraction(min_slack, c.denominator),
                              [_subset_str(d, m) for m in min_sets],
                              [_subset_str(d, m) for m in eq_sets], exhaustive, orbits, peaks)


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
    nodes: int       # engine adds the walk made, its first point's included; a run
                     # statistic, left out of to_dict

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
    and the 12-point set that ``max_size_g_sidon(5, 3, 12, samples=20000,
    seed=4)`` finds refutes the k = 3 cap 11 at d = 5, g = 12.  For even k
    with d >= 2 the bound fails on sets, so the cap falls back to the
    always-valid average bound |A|^k <= g (k+1)^d ('trivial-average').
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k % 2 == 1 or d == 1:
        bound = Fraction(g) / optimal_constant_d(k, d)
        form = "paper-odd-k" if k % 2 == 1 else "general"
    else:
        bound = Fraction(g * (k + 1) ** d)
        form = "trivial-average"
    cap = _int_kth_root(math.floor(bound), k)
    return cap, form


def _largest_g_sidon(engine: _PackedCounts, g: int, order: Sequence[int],
                     budget: float) -> Tuple[List[int], int, bool]:
    """First largest subset, in ``itertools.combinations`` order over ``order``, with
    every count <= g (g >= 1); also the ``add`` calls made and whether the walk finished.

    ``order`` lists every point of the cube.  For a point a of a largest set,
    x -> x ^ a ^ order[0] reflects coordinates, so it keeps every count and
    maps that set onto one holding order[0]; and every combination holding
    position 0 comes before every other one.  So the first largest set holds
    order[0]: the walk starts from the state that holds it (its add is the
    first node) and walks the positions 1.. depth-first; only a strictly
    larger set replaces the best.  A prefix with a count above g is dropped with all its extensions
    (adding a point never lowers a count), and so is a prefix that cannot
    outgrow the best set even with every point left.  The walk stops before
    the add that would exceed ``budget``; it has finished when no prefix is
    left, which proves its set a largest one.  It holds one state, the counts
    of the chosen points: backtracking pops the last chosen position p,
    removes its point and resumes at p + 1.
    """
    codes, add, remove, above = engine.codes, engine.add, engine.remove, engine.above
    n_points = len(order)
    chosen = [0]  # positions in order
    best = [order[0]]
    nodes = 1
    counts = add(engine.empty, codes[order[0]])  # one point: every count is 1 <= g
    i = 1
    while True:
        if len(chosen) + n_points - i <= len(best):
            if len(chosen) == 1:
                return best, nodes, True
            p = chosen.pop()
            counts = remove(counts, codes[order[p]])
            i = p + 1
            continue
        if nodes >= budget:
            return best, nodes, False
        nodes += 1
        grown = add(counts, codes[order[i]])
        if not above(grown[-1], g):
            chosen.append(i)
            counts = grown
            if len(chosen) > len(best):
                best = [order[p] for p in chosen]
        i += 1


def max_size_g_sidon(d: int, k: int, g: int, samples: int = 1000, seed: int = 0) -> SearchResult:
    """Largest g-Sidon set of order k found by the pruned walk ``_largest_g_sidon``.

    Up to EXHAUSTIVE_D_MAX the walk visits the points in mask order with no
    budget, holding point 0.  Above it the order is random.Random(seed).shuffle
    of the points, the walk holds the first of them and ``samples`` is the add
    budget, that point's add included; both are checked at every d.
    ``exhaustive`` is the walk's own finished flag, so the set is a largest one,
    also when the walk finished on its last allowed add.  The walk never reads
    the size cap: ``best_size > size_cap`` refutes its bound.
    """
    _check_sampling(samples, seed)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if g < 1:
        raise ValueError(f"g must be >= 1, got {g}")
    cap, cap_form = g_sidon_size_cap(d, k, g)
    engine = _PackedCounts(_codes(d, 1, k + 1), k, 2**d)
    order = list(range(2**d))
    budget = math.inf
    if d > EXHAUSTIVE_D_MAX:
        random.Random(seed).shuffle(order)
        budget = samples
    best, nodes, finished = _largest_g_sidon(engine, g, order, budget)
    return SearchResult(d, k, g, CubeSet(d, best), len(best), cap, cap_form, finished, nodes)
