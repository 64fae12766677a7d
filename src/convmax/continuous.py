"""Upper bounds for the continuous autoconvolution constant via step functions.

A weight vector on {0,...,m} corresponds to a step function with m+1 equal
cells tiling the support (-1/(2k), 1/(2k)), and the k-fold peak of any such
vector w bounds C_k <= k(m+1) max(w^{*k}).  The m = 1 row uses the exact
closed form and is a proven bound.  Rows for m >= 2 are float estimates:
k(m+1) times the float peak of the diagonal solver's factor, not re-evaluated
in exact arithmetic, so rounding is not yet excluded.  Each row holds the
factor whose k-fold peak is its value, and the step-function export reads
that factor.  This module never claims a value for C_k itself; the known
lower bound 1.28 for k = 2 is an imported literature constant used only as
a validity floor.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Union

from .constants import continuous_upper_bound_m1, optimal_constant
from .errors import BoundValidityError
from .minimax import SolverConfig, diagonal_constant

#: Known lower bound for the k = 2 continuous constant (literature value).
KNOWN_LOWER_K2 = 1.28


@dataclass(frozen=True)
class BoundRow:
    m: int
    cbar: Union[Fraction, float]     # estimate of Cbar_{k,m} (exact at m = 1)
    upper_bound: Union[Fraction, float]  # k (m+1) cbar
    converged: bool
    method: str
    weights: List[float]   # the factor whose k-fold peak is cbar; not serialized
    # the row's SLSQP solves for CLI meta (none at m = 1), kept out of to_dict and comparisons
    starts: int = field(default=0, compare=False)
    slsqp_status: Dict[int, int] = field(default_factory=dict, compare=False)
    slsqp_calls: int = field(default=0, compare=False)
    slsqp_rounds: int = field(default=0, compare=False)

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
    """Rows (m, Cbar estimate, k(m+1) * estimate) for m = 1..m_max."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    rows = [BoundRow(1, optimal_constant(k), continuous_upper_bound_m1(k), True,
                     "closed-form", diagonal_constant(k, 1, cfg).argument[0])]
    for m in range(2, m_max + 1):
        # chain the zero-padded previous optimum in as a seed; the m = 1
        # optimum is already a built-in seed of the diagonal solver
        extra = [rows[-1].weights + [0.0]] if m > 2 else None
        res = diagonal_constant(k, m, cfg, extra_seeds=extra)
        rows.append(BoundRow(m, res.value, k * (m + 1) * res.value, res.converged,
                             res.method, res.argument[0], res.starts, res.slsqp_status,
                             res.slsqp_calls, res.slsqp_rounds))
    converged_rows = [r for r in rows if r.converged]
    best = min(float(r.upper_bound) for r in converged_rows)
    lower = KNOWN_LOWER_K2 if k == 2 else None
    if k == 2:
        for r in converged_rows:
            if float(r.upper_bound) < KNOWN_LOWER_K2:
                raise BoundValidityError(
                    f"computed bound {float(r.upper_bound)} at m={r.m} undercuts "
                    f"the known lower bound {KNOWN_LOWER_K2}"
                )
    return BoundTable(k, rows, best, lower)


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
