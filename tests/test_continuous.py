import csv
import io
import json
from fractions import Fraction

import pytest

from convmax.continuous import (
    KNOWN_LOWER_K2,
    step_function_export,
    upper_bound_sequence,
)
import convmax.minimax as minimax
from convmax.minimax import SolverConfig

from conftest import FAST

#: Row bounds of upper_bound_sequence(2, 8, SolverConfig(multistarts=16, seed=5))
#: as computed by the solver with a projected-subgradient phase before SLSQP.
K2_SEED5_BOUNDS = [
    1.7777777777777777, 1.706666666666667, 1.644465242009058, 1.6326530612244912,
    1.6007660479597332, 1.5915678540526073, 1.5791090612201149, 1.5772723106249462,
]


class TestUpperBoundSequence:
    def test_k2_m1_exact(self):
        table = upper_bound_sequence(2, 1)
        assert table.rows[0].upper_bound == Fraction(16, 9)
        assert table.rows[0].cbar == Fraction(4, 9)
        assert table.rows[0].method == "closed-form"
        assert table.known_lower == KNOWN_LOWER_K2

    def test_k3_m1(self):
        table = upper_bound_sequence(3, 1)
        assert table.rows[0].upper_bound == Fraction(9, 4)
        assert table.known_lower is None

    def test_k2_bounds_valid_and_improving(self):
        table = upper_bound_sequence(2, 4, FAST)
        bounds = [float(r.upper_bound) for r in table.rows]
        assert all(KNOWN_LOWER_K2 <= b <= 16 / 9 + 1e-9 for b in bounds)
        # observed, not implied: a step function on m + 1 cells embeds exactly
        # into 2(m + 1) cells, the row for 2m + 1, not into the row for m + 1
        assert all(a >= b - 1e-9 for a, b in zip(bounds, bounds[1:]))
        assert table.best_bound == pytest.approx(min(bounds))

    def test_not_above_frozen_bounds(self):
        table = upper_bound_sequence(2, 8, SolverConfig(multistarts=16, seed=5))
        bounds = [float(r.upper_bound) for r in table.rows]
        assert len(bounds) == len(K2_SEED5_BOUNDS)
        for b, ref in zip(bounds, K2_SEED5_BOUNDS):
            assert b <= ref + 1e-9

    def test_rows_labelled_by_m(self):
        table = upper_bound_sequence(2, 3, FAST)
        assert [r.m for r in table.rows] == [1, 2, 3]

    def test_m1_optimum_worked_out_once_per_k(self, monkeypatch):
        # every row at m > 1 starts from the m = 1 optimum, read off the profile once
        calls = []
        profile = minimax.diagonal_profile
        monkeypatch.setattr(minimax, "diagonal_profile", lambda k: calls.append(k) or profile(k))
        minimax._diagonal_m1.cache_clear()
        upper_bound_sequence(3, 6, FAST)
        assert calls == [3]

    def test_rows_count_their_solves(self):
        table = upper_bound_sequence(2, 3, FAST)
        first = table.rows[0].result
        assert (first.slsqp_status, first.slsqp_calls, first.slsqp_rounds) == ({}, 0, 0)
        for row in table.rows[1:]:
            assert sum(row.result.slsqp_status.values()) == FAST.multistarts
            assert 0 < row.result.slsqp_rounds < row.result.slsqp_calls
            for key in ("starts", "slsqp_status", "slsqp_calls", "slsqp_rounds", "argument"):
                assert key not in row.to_dict()

    @pytest.mark.parametrize("k,m_max,cfg", [
        (2, 6, SolverConfig(multistarts=6, seed=3)), (3, 4, SolverConfig(multistarts=5, seed=1))])
    def test_rows_are_standalone_diagonal_solves(self, k, m_max, cfg):
        # no row seeds the next: row m is the solve that solve --mode diagonal runs
        table = upper_bound_sequence(k, m_max, cfg)
        assert table.rows[0].result == minimax.diagonal_constant(k, 1)
        for m, row in enumerate(table.rows[1:], start=2):
            res = minimax.diagonal_constant(k, m, cfg)
            # the counters are kept out of comparisons, so slsqp_calls is checked apart
            assert row.result == res and row.result.slsqp_calls == res.slsqp_calls
            assert (row.cbar, row.upper_bound) == (res.value, k * (m + 1) * res.value)

    def test_bound_below_known_lower_is_returned(self, undercut_m2):
        # the table is returned as computed; the CLI flags the undercut
        table = upper_bound_sequence(2, 2)
        assert [r.m for r in table.rows] == [1, 2]
        assert table.rows[1].upper_bound == pytest.approx(0.6)
        assert table.best_bound == pytest.approx(0.6)
        assert table.known_lower == KNOWN_LOWER_K2

    def test_bad_args(self):
        with pytest.raises(ValueError):
            upper_bound_sequence(1, 2)
        with pytest.raises(ValueError):
            upper_bound_sequence(2, 0)


class TestSerialization:
    def test_json(self):
        table = upper_bound_sequence(2, 2, FAST)
        data = json.loads(json.dumps(table.to_dict()))
        assert data["k"] == 2
        assert data["rows"][0]["upper_bound"] == "16/9"
        assert data["rows"][1]["converged"] is True

    def test_csv(self):
        table = upper_bound_sequence(2, 2, FAST)
        rows = list(csv.reader(io.StringIO(table.to_csv())))
        assert rows[0] == ["m", "cbar", "bound", "converged"]
        assert len(rows) == 3
        assert float(rows[1][2]) == pytest.approx(16 / 9)


class TestStepFunction:
    def test_m1_k2_geometry(self):
        sf = step_function_export([Fraction(2, 3), Fraction(1, 3)], 2)
        assert sf.breakpoints == [Fraction(-1, 4), 0, Fraction(1, 4)]
        assert sf.heights == [Fraction(2, 3), Fraction(1, 3)]

    def test_cells_tile_support(self):
        for k in (2, 3):
            for m in (1, 2, 5):
                sf = step_function_export([1.0] * (m + 1), k)
                assert sf.breakpoints[0] == Fraction(-1, 2 * k)
                assert sf.breakpoints[-1] == Fraction(1, 2 * k)
                widths = {b - a for a, b in zip(sf.breakpoints, sf.breakpoints[1:])}
                assert widths == {Fraction(1, k * (m + 1))}

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            step_function_export([0.5, -0.1], 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            step_function_export([], 2)

    @pytest.mark.parametrize("k", [0, -2])
    def test_rejects_k_below_one(self, k):
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            step_function_export([0.5, 0.5], k)

    def test_to_dict(self):
        d = step_function_export([0.5, 0.5], 2).to_dict()
        assert d["k"] == 2
        assert d["breakpoints"] == [-0.25, 0.0, 0.25]
