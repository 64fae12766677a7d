"""Nonnegative functions on discrete cubes {0,...,m}^d with exact convolution.

Values are either exact (int / Fraction) or binary64 floats.  Exact -> float
conversion is allowed anywhere; nothing converts a float to an exact value,
so no precision is laundered into "exact" results.  Storage is a dense
row-major table with the first coordinate slowest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, List, Sequence, Tuple, Union

from .errors import DimensionMismatch, MemoryCapExceeded, ZeroMassInput

Scalar = Union[int, Fraction, float]

#: Hard cap on dense table size (entries).
MEMORY_CAP_ENTRIES = 1 << 26


def is_exact(x: Scalar) -> bool:
    """True for exact rationals (int or Fraction), False for floats."""
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def _quotient(num: Scalar, den: Scalar) -> Scalar:
    """num / den: a Fraction when both operands are exact, a float otherwise."""
    return Fraction(num, den) if is_exact(num) and is_exact(den) else num / den


def _check_value(v: Scalar) -> Scalar:
    if isinstance(v, bool) or not isinstance(v, (int, Fraction, float)):
        raise TypeError(f"grid values must be int, Fraction or float, got {type(v).__name__}")
    if isinstance(v, float) and not math.isfinite(v):
        raise ValueError(f"grid values must be finite (no NaN or inf), got {v}")
    if v < 0:
        raise ValueError(f"grid values must be nonnegative, got {v}")
    return v


@dataclass(frozen=True)
class GridFn:
    """A nonnegative function on {0,...,m}^d, stored densely.

    ``values`` is row-major with the first coordinate slowest.  ``m`` may be 0
    (a single point, e.g. the delta at the origin).
    """

    d: int
    m: int
    values: tuple

    def __init__(self, d: int, m: int, values: Iterable[Scalar]):
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        if m < 0:
            raise ValueError(f"side degree must be >= 0, got {m}")
        size = _table_size(d, m + 1)
        vals = tuple(_check_value(v) for v in values)
        if len(vals) != size:
            raise ValueError(f"expected {size} values for d={d}, m={m}, got {len(vals)}")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "values", vals)

    @property
    def is_exact(self) -> bool:
        return all(is_exact(v) for v in self.values)

    def points(self):
        """Coordinate tuples in storage order (first coordinate slowest)."""
        return itertools.product(range(self.m + 1), repeat=self.d)

    def index(self, point: Sequence[int]) -> int:
        idx = 0
        for x in point:
            if not 0 <= x <= self.m:
                raise IndexError(f"coordinate {x} outside {{0,...,{self.m}}}")
            idx = idx * (self.m + 1) + x
        return idx

    def __getitem__(self, point) -> Scalar:
        if isinstance(point, int):
            point = (point,)
        return self.values[self.index(point)]

    @staticmethod
    def delta(d: int) -> "GridFn":
        """Indicator of the origin (all mass at 0, m = 0)."""
        return GridFn(d, 0, (1,))


def _convolve_seq(a: Sequence, b: Sequence) -> list:
    """1-d convolution of coefficient lists, skipping zero entries on both sides."""
    out = [0] * (len(a) + len(b) - 1)
    nonzero_b = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in nonzero_b:
                out[i + j] += x * y
    return out


def _table_size(d: int, base: int) -> int:
    """base^d, the length of a table indexed by d-digit codes; the one cap check."""
    size = base**d
    if size > MEMORY_CAP_ENTRIES:
        raise MemoryCapExceeded(f"base^d = {size} exceeds cap {MEMORY_CAP_ENTRIES}")
    return size


def _codes(d: int, m: int, base: int) -> List[int]:
    """Each point of {0,...,m}^d, in storage order, as a base-``base`` integer
    (first coordinate most significant); tables indexed by codes have base^d entries."""
    _table_size(d, base)
    codes = [0]
    for _ in range(d):
        codes = [c * base + x for c in codes for x in range(m + 1)]
    return codes


def _digits(code: int, d: int, base: int) -> Tuple[int, ...]:
    """The point whose base-``base`` code is ``code``; inverse of ``_codes``."""
    digits = []
    for _ in range(d):
        code, digit = divmod(code, base)
        digits.append(digit)
    return tuple(reversed(digits))


def _spread(f: GridFn, base: int) -> list:
    """f's values placed at their base-``base`` codes, zeros between."""
    idx = _codes(f.d, f.m, base)
    seq = [0] * (idx[-1] + 1)
    for i, v in zip(idx, f.values):
        seq[i] = v
    return seq


def convolve(f: GridFn, g: GridFn) -> GridFn:
    """Convolution (f*g)(x) = sum_{y+z=x} f(y) g(z); exact in, exact out.

    Points are read as base-(m+1) integers with m = f.m + g.m.  Coordinate
    sums stay below m+1 and never carry, so the d-dimensional convolution is
    a 1-d one whose output has exactly (m+1)^d entries in storage order.
    """
    if f.d != g.d:
        raise DimensionMismatch(f"d mismatch: {f.d} != {g.d}")
    m = f.m + g.m
    return GridFn(f.d, m, _convolve_seq(_spread(f, m + 1), _spread(g, m + 1)))


def convolve_many(fs: Sequence[GridFn]) -> GridFn:
    """Left fold of ``convolve``; result is independent of fold order."""
    if not fs:
        raise ValueError("convolve_many needs at least one factor")
    acc = fs[0]
    for f in fs[1:]:
        acc = convolve(acc, f)
    return acc


def l1_norm(f: GridFn) -> Scalar:
    return sum(f.values)


def sup_norm(f: GridFn) -> Scalar:
    return max(f.values)


def ratio(fs: Sequence[GridFn]) -> Scalar:
    """sup |f_1*...*f_k| / prod ||f_i||_1; scale-invariant in every factor."""
    masses = [l1_norm(f) for f in fs]
    for i, mass in enumerate(masses):
        if mass == 0:
            raise ZeroMassInput(f"factor {i} has zero total mass")
    return _quotient(sup_norm(convolve_many(fs)), math.prod(masses))


def product_function(axes: Sequence[GridFn]) -> GridFn:
    """Tensor product F(x_1,...,x_d) = prod_t h_t(x_t) of 1-d factors."""
    if not axes:
        raise ValueError("product_function needs at least one axis")
    m = axes[0].m
    for t, h in enumerate(axes):
        if h.d != 1:
            raise DimensionMismatch(f"axis {t} has d={h.d}, expected 1")
        if h.m != m:
            raise ValueError(f"axis {t} has m={h.m}, expected {m}")
    d = len(axes)
    vals = []
    for point in itertools.product(range(m + 1), repeat=d):
        vals.append(math.prod(h.values[x] for h, x in zip(axes, point)))
    return GridFn(d, m, vals)

