"""Poisson-binomial pmf and the structural properties used by the proof.

The pmf of k independent Bernoulli trials with success probabilities p is
built by folding in one parameter at a time:

    f_{k,i} = (1 - p_j) f_{k-1,i} + p_j f_{k-1,i-1},

with out-of-range entries read as 0.  All operations work in exact rational
mode (int/Fraction parameters) or float mode; exact mode gives exact
equalities everywhere.  The recursion is one loop,
F_i <- (b - a) F_i + a F_{i-1}: an exact p_j = a/b runs it on integer
numerators over the product of the parameter denominators and builds one
Fraction per entry at the end (all-int parameters give int entries), and a
float p_j runs it as (a, b) = (p_j, 1.0) on the pmf itself.  Float mode
judges mode ties and the log-concavity margins within the relative
tolerance ``FLOAT_TIE_RTOL``, since rounding breaks exact equalities.

Ratio and residual operations require parameters in the open cube (0,1)^k;
boundary values are accepted by ``pb_pmf`` and by ``likelihood_ratios``, which
reads all k ratios off one built pmf and marks undefined ones None.
``lagrange_residuals`` builds one leave-one-out pmf per coordinate and
returns every defined residual.

``differences`` gives the zero-padded D_0..D_{k+1}, D_j = f_j - f_{j-1} with
f_{-1} = f_{k+1} = 0: the coefficients of (1-z) P(z).  Every rule here that
reads differences reads that one table.

The successive-difference Newton inequality is implemented with the full
parameter vector on both sides (the source display truncates the argument of
the last factor, which is a typo).  The likelihood ratios are also concave in
each parameter, but only monotonicity is checked here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import BoundaryParameter, UnimodalityViolation, ZeroDenominator
from .gridfn import _quotient, is_exact

Prob = Union[int, Fraction, float]

#: Relative tolerance for mode ties and chain checks in float mode.
FLOAT_TIE_RTOL = 1e-9


def _validate_params(p: Sequence[Prob]) -> Tuple[Prob, ...]:
    p = tuple(p)
    if len(p) < 1:
        raise ValueError("need at least one parameter")
    for j, pj in enumerate(p):
        if not 0 <= pj <= 1:
            raise ValueError(f"p[{j}] = {pj} outside [0,1]")
    return p


def _require_interior(p: Sequence[Prob]) -> None:
    for j, pj in enumerate(p):
        if pj == 0 or pj == 1:
            raise BoundaryParameter(j)


@dataclass(frozen=True)
class PBDist:
    """A Poisson-binomial pmf together with the parameters that generated it."""

    k: int
    pmf: Tuple[Prob, ...]
    params: Tuple[Prob, ...]

    @property
    def is_exact(self) -> bool:
        return all(is_exact(v) for v in self.pmf)

    def __getitem__(self, i: int) -> Prob:
        """Entry f_{k,i}, with out-of-range indices reading as 0."""
        if 0 <= i <= self.k:
            return self.pmf[i]
        return 0


def _pmf_values(p: Sequence[Prob]) -> List[Prob]:
    # p_j = a_j / b_j: F_i = f_i * (b_1 ... b_j) obeys F_i <- (b_j - a_j) F_i + a_j F_{i-1};
    # a float p_j folds as (p_j, 1.0), so F is then the float pmf itself
    exact = all(is_exact(x) for x in p)
    F, den = [1], 1
    for pj in p:
        a, b = (pj.numerator, pj.denominator) if exact else (pj, 1.0)
        F = [(b - a) * x + a * y for x, y in zip([*F, 0], [0, *F])]
        den *= b
    if exact and any(isinstance(x, Fraction) for x in p):
        return [Fraction(x, den) for x in F]
    return F


def pb_pmf(p: Sequence[Prob]) -> PBDist:
    """Poisson-binomial pmf via the one-parameter-at-a-time recursion."""
    p = _validate_params(p)
    return PBDist(len(p), tuple(_pmf_values(p)), p)


def _entries_tie(a: Prob, b: Prob, exact: bool) -> bool:
    if exact:
        return a == b
    return abs(a - b) <= FLOAT_TIE_RTOL * max(abs(a), abs(b))


def pb_mode(dist: PBDist) -> Tuple[int, bool]:
    """Mode index and whether it is shared with the previous index.

    A shared pair reports the larger index.  Verifies the unimodality chain
    (strict away from the single allowed tie and away from zero entries) and
    raises UnimodalityViolation if it fails.
    """
    pmf = dist.pmf
    exact = dist.is_exact
    mode = 0
    for i in range(1, dist.k + 1):
        if pmf[i] > pmf[mode] or _entries_tie(pmf[i], pmf[mode], exact):
            mode = i
    shared = mode >= 1 and _entries_tie(pmf[mode], pmf[mode - 1], exact)
    # Chain check: nondecreasing up to the mode, nonincreasing after, with
    # ties allowed only at zero entries or at the shared pair itself.
    for i in range(mode):
        if pmf[i] > pmf[i + 1] and not _entries_tie(pmf[i], pmf[i + 1], exact):
            raise UnimodalityViolation(f"rise violated at {i}: {pmf[i]} > {pmf[i + 1]}")
        if _entries_tie(pmf[i], pmf[i + 1], exact) and pmf[i] != 0 and i + 1 != mode:
            raise UnimodalityViolation(f"interior tie at {i} below the mode")
    for i in range(mode, dist.k):
        if pmf[i] < pmf[i + 1] and not _entries_tie(pmf[i], pmf[i + 1], exact):
            raise UnimodalityViolation(f"fall violated at {i}: {pmf[i]} < {pmf[i + 1]}")
        if _entries_tie(pmf[i], pmf[i + 1], exact) and pmf[i + 1] != 0:
            raise UnimodalityViolation(f"interior tie at {i} above the mode")
    return mode, shared


def likelihood_ratio(p: Sequence[Prob], i: int) -> Prob:
    """r_{k,i} = f_{k,i} / f_{k,i-1} for interior parameters."""
    p = _validate_params(p)
    _require_interior(p)
    k = len(p)
    if not 1 <= i <= k:
        raise ValueError(f"index i={i} outside 1..{k}")
    f = _pmf_values(p)
    if f[i - 1] == 0:
        raise ZeroDenominator(f"f_{{{k},{i - 1}}} = 0")
    return _quotient(f[i], f[i - 1])


def likelihood_ratios(dist: PBDist) -> List[Optional[Prob]]:
    """[r_{k,1}, ..., r_{k,k}], each f_{k,i} / f_{k,i-1}, read from ``dist.pmf``.

    Every entry is None when a parameter is on the boundary, and an entry is
    None when its denominator f_{k,i-1} is 0 (a float pmf can underflow).
    """
    try:
        _require_interior(dist.params)
    except BoundaryParameter:
        return [None] * dist.k
    f = dist.pmf
    return [_quotient(f[i], f[i - 1]) if f[i - 1] != 0 else None
            for i in range(1, dist.k + 1)]


def _diffs(f: Sequence[Prob]) -> List[Prob]:
    """D_0..D_{k+1} of the pmf f_0..f_k: D_j = f_j - f_{j-1}, with f_{-1} = f_{k+1} = 0."""
    return [b - a for a, b in zip([0, *f], [*f, 0])]


def differences(dist: PBDist) -> Tuple[Prob, ...]:
    """Zero-padded successive differences D_0..D_{k+1}; D_1..D_k telescope to f_k - f_0."""
    return tuple(_diffs(dist.pmf))


def intersection_point(p_rest: Sequence[Prob], i: int) -> Optional[Prob]:
    """The unique p* making f_{k,i} = f_{k,i-1} when the rest is fixed.

    ``p_rest`` has k-1 entries; returns None when the formula's value falls
    outside [0,1] or its denominator vanishes.
    """
    p_rest = _validate_params(p_rest)
    k = len(p_rest) + 1
    if not 1 <= i <= k:
        raise ValueError(f"index i={i} outside 1..{k}")
    D = _diffs(_pmf_values(p_rest))  # D_{k-1, .}
    num = -D[i]
    den = D[i - 1] - D[i]
    if den == 0:
        return None
    p = _quotient(num, den)
    if 0 <= p <= 1:
        return p
    return None


@dataclass(frozen=True)
class ConcavityReport:
    """Margins lhs - rhs of the (ultra) log-concavity inequalities."""

    k: int
    ultra_margins: Tuple[Prob, ...]   # index i = 1..k-1
    plain_margins: Tuple[Prob, ...]   # index i = 1..k-1
    worst_ultra: Prob
    worst_plain: Prob
    ultra_ok: bool
    plain_ok: bool


def check_ultra_log_concave(dist: PBDist) -> ConcavityReport:
    """Check f_i^2 >= ((i+1)/i)((k-i+1)/(k-i)) f_{i-1} f_{i+1} and the plain form.

    A float margin passes down to -FLOAT_TIE_RTOL f_i^2: a binomial pmf meets
    ultra-log-concavity with equality, which rounding can push below 0.
    """
    k, f = dist.k, dist.pmf
    exact = dist.is_exact
    ultra, plain = [], []
    ultra_ok = plain_ok = True
    for i in range(1, k):
        factor = Fraction((i + 1) * (k - i + 1), i * (k - i))
        lhs = f[i] * f[i]
        prod = f[i - 1] * f[i + 1]
        ultra.append(lhs - factor * prod)
        plain.append(lhs - prod)
        floor = 0 if exact else -FLOAT_TIE_RTOL * lhs
        ultra_ok &= ultra[-1] >= floor
        plain_ok &= plain[-1] >= floor
    return ConcavityReport(
        k, tuple(ultra), tuple(plain), min(ultra) if ultra else 0, min(plain) if plain else 0,
        ultra_ok, plain_ok,
    )


@dataclass(frozen=True)
class NewtonReport:
    """Margins of the Newton inequality on successive differences."""

    k: int
    margins: Tuple[Prob, ...]  # index i = 2..k-1
    worst: Prob
    ok: bool


def check_newton_differences(dist: PBDist) -> NewtonReport:
    """D_i^2 >= ((i+1)/i)((k-i+2)/(k-i+1)) D_{i-1} D_{i+1} for 2 <= i <= k-1.

    The differences are the coefficients of (1-z) P(z), a real-rooted
    polynomial of degree k+1, so the Newton factor is the binomial ratio at
    degree k+1.  (The degree-k factor is falsifiable by exact fuzzing.)
    """
    if dist.k < 3:
        raise ValueError(f"need k >= 3 for three consecutive differences, got k={dist.k}")
    k = dist.k
    d = _diffs(dist.pmf)
    margins = []
    for i in range(2, k):
        factor = Fraction((i + 1) * (k - i + 2), i * (k - i + 1))
        margins.append(d[i] * d[i] - factor * d[i - 1] * d[i + 1])
    worst = min(margins)
    return NewtonReport(k, tuple(margins), worst, worst >= 0)


def _drop(p: Sequence[Prob], j: int) -> Tuple[Prob, ...]:
    if not 0 <= j < len(p):
        raise IndexError(f"coordinate {j} outside 0..{len(p) - 1}")
    return tuple(p[:j]) + tuple(p[j + 1:])


def partial_derivative(p: Sequence[Prob], i: int, j: int) -> Prob:
    """d f_{k,i} / d p_j = f_{k-1,i-1}(p'_j) - f_{k-1,i}(p'_j).

    ``j`` is 0-based.  Equals -D_{k-1,i} of the reduced vector.
    """
    p = _validate_params(p)
    if len(p) < 2:
        raise ValueError("need k >= 2 to remove a coordinate")
    if not 0 <= i <= len(p):
        raise ValueError(f"pmf index i={i} outside 0..{len(p)}")
    return -_diffs(_pmf_values(_drop(p, j)))[i]


def lagrange_residuals(p: Sequence[Prob]) -> Dict[int, Prob]:
    """Spread (max - min) of the per-coordinate stationarity ratios, by index i.

    The Lagrange system for minimizing f_{k,i} on the shared-mode manifold
    admits one multiplier across all coordinates exactly when all the ratios
    D_{k-1,i-1}(p'_j) / D_{k-1,i}(p'_j) coincide; the residual is 0 iff that
    happens, in particular whenever all coordinates of p are equal.  The k
    leave-one-out pmfs are built once; an i where some D_{k-1,i}(p'_j) is 0
    is left out.  With k = 1 the reduced pmf is that of zero trials, (1,).
    """
    p = _validate_params(p)
    _require_interior(p)
    k = len(p)
    # diffs[j][i] = D_{k-1,i}(p'_j) for i = 0..k
    diffs = [_diffs(_pmf_values(_drop(p, j))) for j in range(k)]
    residuals = {}
    for i in range(1, k + 1):
        if all(D[i] != 0 for D in diffs):
            ratios = [_quotient(D[i - 1], D[i]) for D in diffs]
            residuals[i] = max(ratios) - min(ratios)
    return residuals


def mobius_ratio(p_rest2: Sequence[Prob], i: int, y: Prob) -> Prob:
    """The Mobius transformation Lambda(y) built from twice-reduced differences.

    With D_j = D_{k-2,j}(p_rest2),

        Lambda(y) = (y (D_{i-2} - D_{i-1}) + D_{i-1}) / (y (D_{i-1} - D_i) + D_i).

    Injective on its domain unless the differences are geometric, which the
    strict Newton inequality rules out for genuine pmfs.
    """
    p_rest2 = _validate_params(p_rest2)
    _require_interior(p_rest2)
    if not 2 <= i <= len(p_rest2) + 1:
        raise ValueError(f"index i={i} outside 2..{len(p_rest2) + 1}")
    D = _diffs(_pmf_values(p_rest2))
    num = y * (D[i - 2] - D[i - 1]) + D[i - 1]
    den = y * (D[i - 1] - D[i]) + D[i]
    if den == 0:
        raise ZeroDenominator(f"Lambda denominator vanishes at y={y}")
    return _quotient(num, den)
