"""Upper bounds for the continuous autoconvolution constant via step functions.

A weight vector on {0,...,m} corresponds to a step function with m+1 equal
cells tiling the support (-1/(2k), 1/(2k)), and the k-fold peak of any such
vector w bounds C_k <= k(m+1) max(w^{*k}).  Row m holds the result of
``diagonal_constant(k, m, cfg)``, the solve ``convmax solve --mode diagonal``
runs, and no row depends on another.  The m = 1 row uses the exact closed
form and is a proven bound.  Rows for m >= 2 are float estimates: k(m+1)
times the float peak of the solve's factor, not re-evaluated in exact
arithmetic, so rounding is not yet excluded.  The step-function export reads
a row's factor.  This module never claims a value for C_k itself; the known
lower bound 1.28 for k = 2 (Cloninger & Steinerberger) is an imported
literature constant, reported as the table's ``known_lower``.  The table is
returned as computed, and the CLI exits 1 when its ``best_bound`` is below
that floor.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Union

from .constants import optimal_constant
from .minimax import MinimaxResult, SolverConfig, diagonal_constant

#: Known lower bound for the k = 2 continuous constant (literature value).
KNOWN_LOWER_K2 = 1.28


@dataclass(frozen=True)
class BoundRow:
    result: MinimaxResult   # diagonal_constant(k, m, cfg): at m = 1 the exact envelope optimum

    @property
    def m(self) -> int:
        return self.result.m

    @property
    def cbar(self) -> Union[Fraction, float]:
        """The estimate of Cbar_{k,m}: the exact closed form at m = 1, else the solve's value."""
        return optimal_constant(self.result.k) if self.m == 1 else self.result.value

    @property
    def upper_bound(self) -> Union[Fraction, float]:
        return self.result.k * (self.m + 1) * self.cbar

    @property
    def converged(self) -> bool:
        return self.result.converged

    @property
    def method(self) -> str:
        return "closed-form" if self.m == 1 else self.result.method

    def to_dict(self) -> dict:
        exact = isinstance(self.cbar, Fraction)
        return {
            "m": self.m,
            "cbar": str(self.cbar) if exact else self.cbar,
            "cbar_decimal": float(self.cbar),
            "upper_bound": str(self.upper_bound) if exact else self.upper_bound,
            "upper_bound_decimal": float(self.upper_bound),
            "converged": self.converged,
            "method": self.method,
        }


@dataclass(frozen=True)
class BoundTable:
    k: int
    rows: List[BoundRow]
    best_bound: float
    known_lower: Optional[float]   # 1.28 when k = 2

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "rows": [r.to_dict() for r in self.rows],
            "best_bound": self.best_bound,
            "known_lower": self.known_lower,
        }

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["m", "cbar", "bound", "converged"])
        for r in self.rows:
            w.writerow([r.m, float(r.cbar), float(r.upper_bound), r.converged])
        return buf.getvalue()


def upper_bound_sequence(k: int, m_max: int,
                         cfg: SolverConfig = SolverConfig()) -> BoundTable:
    """Rows (m, Cbar estimate, k(m+1) * estimate) for m = 1..m_max.

    ``best_bound`` is the least bound of a converged row.  For k = 2 the table
    carries the literature floor 1.28 as ``known_lower`` and never raises on a
    row below it: the CLI flags ``best_bound < known_lower`` and exits 1.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    rows = [BoundRow(diagonal_constant(k, m, cfg)) for m in range(1, m_max + 1)]
    best = min(float(r.upper_bound) for r in rows if r.converged)
    return BoundTable(k, rows, best, KNOWN_LOWER_K2 if k == 2 else None)


@dataclass(frozen=True)
class StepFunction:
    """Piecewise-constant function on (-1/(2k), 1/(2k)) with m+1 equal cells."""

    k: int
    breakpoints: List[Fraction]
    heights: List[Union[Fraction, float]]

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "breakpoints": [float(b) for b in self.breakpoints],
            "heights": [float(h) for h in self.heights],
        }


def step_function_export(weights: Sequence, k: int) -> StepFunction:
    """Step function whose discrete profile on {0,...,m} is the given weights."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    weights = list(weights)
    if not weights:
        raise ValueError("need at least one weight")
    for j, w in enumerate(weights):
        if w < 0:
            raise ValueError(f"weight {j} is negative: {w}")
    m = len(weights) - 1
    cell = Fraction(1, k * (m + 1))
    left = -Fraction(1, 2 * k)
    breaks = [left + j * cell for j in range(m + 2)]
    return StepFunction(k, breaks, weights)
