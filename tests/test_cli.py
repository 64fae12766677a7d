import collections
import dataclasses
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import convmax.constants
import convmax.continuous
import convmax.minimax
from convmax import cli, gridfn, pb, sidon
from convmax.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, export_report, run
from convmax.errors import UnimodalityViolation
from convmax.minimax import MinimaxResult, SolverConfig

from conftest import ODD_K_COUNTEREXAMPLE


def run_json(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestConstant:
    @pytest.mark.parametrize("d", ["19", "21"])
    def test_sharpness_over_cap_rejected_before_building(self, capsys, monkeypatch, d):
        # 3^d entries in the 2-fold table exceed the cap: refused before the extremal function
        def refuse(*args):
            raise AssertionError("the extremal function was built before the cap check")

        monkeypatch.setattr(convmax.constants, "extremal_function", refuse)
        assert run(["constant", "--k", "2", "--d", d, "--sharpness"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds cap" in captured.err

    def test_basic(self, capsys):
        code, rep = run_json(capsys, "constant", "--k", "2")
        assert code == EXIT_OK
        assert rep["schema"] == 1
        assert rep["payload"]["constant"]["exact"] == "4/9"
        assert rep["payload"]["constant"]["decimal"] == pytest.approx(4 / 9)

    def test_dim_power(self, capsys):
        code, rep = run_json(capsys, "constant", "--k", "4", "--d", "2", "--sharpness")
        assert code == EXIT_OK
        assert rep["payload"]["constant"]["exact"] == "46656/390625"
        assert rep["payload"]["sharpness"]["passed"] is True

    def test_profile(self, capsys):
        code, rep = run_json(capsys, "constant", "--k", "3", "--profile")
        assert code == EXIT_OK
        prof = rep["payload"]["profile"]
        assert prof["breakpoints"] == ["0", "1/4", "1/2", "3/4"]
        assert prof["envelope_min"]["exact"] == "3/8"

    def test_plotdata_format(self, capsys):
        code = run(["constant", "--k", "2", "--profile", "--format", "plotdata"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        lines = out.strip().splitlines()
        assert len(lines) == 1001
        x, y = map(float, lines[0].split())
        assert (x, y) == (0.0, 1.0)
        # the rendered text is the payload's own plotdata
        _, rep = run_json(capsys, "constant", "--k", "2", "--profile")
        assert out == rep["payload"]["plotdata"]

    def test_bad_k(self, capsys):
        assert run(["constant", "--k", "0"]) == EXIT_USAGE

    def test_failed_sharpness_is_a_violation(self, capsys, monkeypatch):
        # the report is written and shows the failed certificate
        sharpness = cli.verify_sharpness
        monkeypatch.setattr(cli, "verify_sharpness",
                            lambda k, d: dataclasses.replace(sharpness(k, d), passed=False))
        code, rep = run_json(capsys, "constant", "--k", "2", "--sharpness")
        assert code == EXIT_VIOLATION
        assert rep["payload"]["sharpness"]["passed"] is False
        assert rep["payload"]["constant"]["exact"] == "4/9"

    def test_missing_args(self, capsys, tmp_path):
        assert run(["constant"]) == EXIT_USAGE
        # removed options are rejected, not silently accepted
        assert run(["constant", "--k", "2", "--exact"]) == EXIT_USAGE
        assert run(["solve", "--k", "2", "--threads", "2"]) == EXIT_USAGE
        assert run(["solve", "--k", "2", "--tol", "1e-9"]) == EXIT_USAGE
        f = tmp_path / "set.txt"
        f.write_text("0\n1\n")
        assert run(["sidon", "classify", "--set", str(f), "--k", "2"]) == EXIT_OK
        assert run(["sidon", "classify", "--set", str(f), "--k", "2", "--seed", "1"]) == EXIT_USAGE


class TestSolve:
    def test_diagonal_m1_with_grid(self, capsys):
        code, rep = run_json(capsys, "solve", "--k", "2", "--m", "1", "--grid", "3")
        assert code == EXIT_OK
        assert rep["payload"]["result"]["value_exact"] == "4/9"
        assert rep["payload"]["grid_oracle"]["grid_min"] == "4/9"
        assert rep["payload"]["recomputed_value"] == pytest.approx(4 / 9)

    def test_general_mode(self, capsys):
        code, rep = run_json(capsys, "solve", "--k", "3", "--mode", "general",
                             "--multistarts", "4")
        assert code == EXIT_OK
        assert rep["payload"]["result"]["value"] == pytest.approx(3 / 8, abs=1e-8)

    def test_general_mode_dominates_grid_oracle(self, capsys):
        code, rep = run_json(capsys, "solve", "--mode", "general", "--grid", "12",
                             "--k", "2", "--m", "2")
        assert code == EXIT_OK
        assert rep["payload"]["grid_oracle"]["grid_min"] == "1/4"

    def test_value_above_grid_oracle_is_a_violation(self, capsys, monkeypatch):
        # the uniform factors are a consistent point, peak 1/3, above the oracle's 1/4
        def uniform(k, m, cfg):
            return MinimaxResult(value=1 / 3, argument=[[1 / 3] * 3] * 2, shared_modes=[],
                                 method="stub", iterations=0, converged=True,
                                 diagonal=False, k=k, m=m)

        monkeypatch.setattr(convmax.minimax, "general_constant", uniform)
        code, rep = run_json(capsys, "solve", "--k", "2", "--m", "2", "--mode", "general",
                             "--grid", "12")
        assert code == EXIT_VIOLATION
        assert rep["payload"]["grid_oracle"]["grid_min"] == "1/4"
        assert rep["payload"]["recomputed_value"] == pytest.approx(1 / 3, abs=1e-12)
        assert rep["payload"]["result"]["value"] == 1 / 3

    def test_general_fixed_starts_reach_grid_oracle(self, capsys):
        # both fixed starts used to keep the factors equal, stopping at Cbar_{2,2} = 64/225
        code, rep = run_json(capsys, "solve", "--k", "2", "--m", "2", "--mode", "general",
                             "--grid", "6", "--multistarts", "2")
        assert code == EXIT_OK
        assert rep["payload"]["grid_oracle"]["grid_min"] == "1/4"
        assert rep["payload"]["result"]["value"] == pytest.approx(1 / 4, abs=1e-12)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_general_k2_reaches_half_over_m(self, capsys, m):
        code, rep = run_json(capsys, "solve", "--k", "2", "--m", str(m), "--mode", "general",
                             "--multistarts", "2")
        assert code == EXIT_OK
        assert rep["meta"]["starts"] == 2
        assert rep["payload"]["result"]["value"] == pytest.approx(1 / (2 * m), abs=1e-12)

    @pytest.mark.parametrize("mode,folds,points", [("general", 220, 1000), ("diagonal", 6, 10)])
    def test_meta_reports_oracle_folds(self, capsys, mode, folds, points):
        code, rep = run_json(capsys, "solve", "--k", "3", "--m", "2", "--mode", mode,
                             "--grid", "3", "--multistarts", "2")
        assert code == EXIT_OK
        assert rep["meta"]["oracle_folds"] == folds
        assert rep["payload"]["grid_oracle"]["points_evaluated"] == points
        assert "folds" not in rep["payload"]["grid_oracle"]

    @pytest.mark.parametrize("grid", ["0", "-1"])
    def test_grid_below_one_rejected(self, capsys, grid):
        assert run(["solve", "--k", "2", "--grid", grid]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("mode", ["diagonal", "general"])
    @pytest.mark.parametrize("starts", ["0", "-3"])
    def test_multistarts_below_one_rejected(self, capsys, monkeypatch, mode, starts):
        # refused before the grid oracle or a solver runs; m = 1 takes the exact route,
        # which runs no multistart
        def refuse(*args):
            raise AssertionError("work started before the config was checked")

        for name in ("grid_oracle", "diagonal_constant", "general_constant"):
            monkeypatch.setattr(convmax.minimax, name, refuse)
        for flag, value, message in (("--multistarts", starts, "multistarts must be >= 1"),
                                     ("--seed", "-1", "seed must be >= 0")):
            for m in ("1", "2"):
                argv = ["solve", "--k", "2", "--m", m, "--mode", mode, "--grid", "3", flag, value]
                assert run(argv) == EXIT_USAGE
                captured = capsys.readouterr()
                assert captured.out == ""
                assert message in captured.err

    @pytest.mark.parametrize("mode", ["diagonal", "general"])
    def test_over_budget_grid_rejected_before_solving(self, capsys, monkeypatch, mode):
        def solver(*args):
            raise AssertionError("the solver ran before the grid oracle was checked")

        monkeypatch.setattr(convmax.minimax, "diagonal_constant", solver)
        monkeypatch.setattr(convmax.minimax, "general_constant", solver)
        argv = ["solve", "--k", "2", "--m", "24", "--grid", "10", "--mode", mode]
        assert run(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceed budget" in captured.err

    def test_meta_reports_phase_times(self, capsys):
        _, rep = run_json(capsys, "solve", "--k", "2", "--m", "2", "--multistarts", "2",
                          "--grid", "4")
        assert rep["meta"]["oracle_s"] >= 0
        assert rep["meta"]["solve_s"] >= 0
        assert "oracle_s" not in rep["payload"] and "solve_s" not in rep["payload"]
        _, rep = run_json(capsys, "solve", "--k", "2", "--m", "2", "--multistarts", "2")
        assert "oracle_s" not in rep["meta"]
        assert rep["meta"]["solve_s"] >= 0

    @pytest.mark.parametrize("mode", ["diagonal", "general"])
    def test_meta_reports_slsqp_counters(self, capsys, mode):
        _, rep = run_json(capsys, "solve", "--k", "2", "--m", "3", "--multistarts", "5",
                          "--mode", mode)
        meta = rep["meta"]
        assert meta["starts"] >= 5
        assert sum(meta["slsqp_status"].values()) == meta["starts"]
        assert all(int(mode) >= 0 for mode in meta["slsqp_status"])
        # each round calls the core once per unfinished start
        assert 0 < meta["slsqp_rounds"] <= meta["slsqp_calls"] <= meta["starts"] * meta["slsqp_rounds"]
        for key in ("starts", "slsqp_calls", "slsqp_rounds"):
            assert key not in rep["payload"]["result"]

    def test_meta_exact_m1_runs_no_slsqp(self, capsys):
        _, rep = run_json(capsys, "solve", "--k", "3", "--m", "1", "--mode", "diagonal")
        assert (rep["meta"]["starts"], rep["meta"]["slsqp_status"]) == (0, {})
        assert (rep["meta"]["slsqp_calls"], rep["meta"]["slsqp_rounds"]) == (0, 0)

    def test_lockstep_leaves_payload_bytes(self, capsys, monkeypatch):
        # starts run one at a time take the same iterates: only meta's rounds move
        argv = ["solve", "--k", "3", "--m", "2", "--mode", "general", "--multistarts", "6"]
        _, batched = run_json(capsys, *argv)
        monkeypatch.setattr(convmax.minimax, "BLOCK_ENTRIES", 1)
        _, alone = run_json(capsys, *argv)
        assert json.dumps(alone["payload"]) == json.dumps(batched["payload"])
        calls = batched["meta"]["slsqp_calls"]
        assert alone["meta"]["slsqp_calls"] == alone["meta"]["slsqp_rounds"] == calls
        assert batched["meta"]["slsqp_rounds"] < calls

    @pytest.mark.parametrize("mode,starts", [("diagonal", 2), ("general", 2)])
    def test_multistarts_pads_the_built_in_starts(self, capsys, mode, starts):
        # --multistarts N never drops a built-in start: N = 1 still runs both of them
        _, rep = run_json(capsys, "solve", "--k", "2", "--m", "3", "--mode", mode,
                          "--multistarts", "1")
        assert rep["meta"]["starts"] == starts

    def test_seed_recorded_and_deterministic(self, capsys):
        code, a = run_json(capsys, "solve", "--k", "2", "--m", "2", "--seed", "5",
                           "--multistarts", "6")
        code2, b = run_json(capsys, "solve", "--k", "2", "--m", "2", "--seed", "5",
                            "--multistarts", "6")
        assert code == code2 == EXIT_OK
        assert a["seed"] == 5
        assert a["payload"] == b["payload"]
        # the report's config rebuilds the solver config
        assert SolverConfig(**a["config"]) == SolverConfig(multistarts=6, seed=5)
        assert "seed" not in a["payload"]["result"]


class TestPb:
    def test_exact_rationals(self, capsys):
        code, rep = run_json(capsys, "pb", "--p", "1/2,1/2,1/2")
        assert code == EXIT_OK
        pl = rep["payload"]
        assert pl["exact"] is True
        assert pl["pmf"] == ["1/8", "3/8", "3/8", "1/8"]
        assert pl["mode"] == {"index": 2, "shared": True}
        assert pl["ultra_log_concave"]["ok"] is True
        assert pl["newton_differences"]["ok"] is True
        assert pl["likelihood_ratios"] == ["3", "1", "1/3"]
        assert list(pl) == ["p", "exact", "pmf", "mode", "ultra_log_concave",
                            "newton_differences", "likelihood_ratios", "lagrange_residuals"]

    def test_float_input(self, capsys):
        # every check runs; Newton differences need k >= 3
        code, rep = run_json(capsys, "pb", "--p", "0.25,0.75")
        assert code == EXIT_OK
        assert rep["payload"]["exact"] is False
        assert list(rep["payload"]) == ["p", "exact", "pmf", "mode", "ultra_log_concave",
                                        "likelihood_ratios", "lagrange_residuals"]

    def test_out_of_range(self, capsys):
        assert run(["pb", "--p", "1.5"]) == EXIT_USAGE

    def test_float_binomial_is_ultra_log_concave(self, capsys):
        # a binomial pmf meets the ultra inequality with equality; rounding is not a violation
        code, rep = run_json(capsys, "pb", "--p", "0.1,0.1,0.1,0.1,0.1")
        assert code == EXIT_OK
        ulc = rep["payload"]["ultra_log_concave"]
        assert ulc["ok"] is True and ulc["worst_margin"] < 0

    def test_empty_list_rejected(self, capsys):
        assert run(["pb", "--p", ","]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "empty probability list" in captured.err

    @pytest.mark.parametrize("p", ["1/2,0.5", "0.25,1/3,0.5"])
    def test_mixed_exact_and_decimal_rejected(self, capsys, p):
        assert run(["pb", "--p", p]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "mixes exact ('p/q') and decimal tokens" in captured.err

    @pytest.mark.parametrize("p", ["1/0", "1/2,3/0"])
    def test_zero_denominator_rejected(self, capsys, p):
        assert run(["pb", "--p", p]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("checks", ["unimodl,ulcc", "unimodal,ratio", "unimodal",
                                        "unimodal,ulc,newton,ratios,lagrange"])
    def test_unknown_check_rejected(self, capsys, checks):
        # every report carries every check: --checks is no option, whatever it names
        assert run(["pb", "--p", "1/3,1/2,2/3", "--checks", checks]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_boundary_parameters(self, capsys):
        # ratios and residuals are undefined on the boundary: null / omitted
        code, rep = run_json(capsys, "pb", "--p", "1/2,1")
        assert code == EXIT_OK
        pl = rep["payload"]
        assert pl["pmf"] == ["0", "1/2", "1/2"]
        assert pl["likelihood_ratios"] == [None, None]
        assert pl["lagrange_residuals"] == {}

    def test_single_parameter(self, capsys):
        # the leave-one-out pmf of one trial is the pmf of zero trials, (1,)
        code, rep = run_json(capsys, "pb", "--p", "1/3")
        assert code == EXIT_OK
        assert rep["payload"]["pmf"] == ["2/3", "1/3"]
        assert rep["payload"]["lagrange_residuals"] == {"1": "0"}

    def test_unimodality_violation_exits_as_violation(self, capsys, monkeypatch):
        # a failed unimodality chain is a broken invariant (exit 1), not bad input (exit 2)
        def broken(dist):
            raise UnimodalityViolation("rise violated at 0")

        monkeypatch.setattr(pb, "pb_mode", broken)
        assert run(["pb", "--p", "1/3,1/2"]) == EXIT_VIOLATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unimodality violation: rise violated at 0" in captured.err


class TestSidon:
    def test_verify(self, capsys):
        code, rep = run_json(capsys, "sidon", "verify", "--d", "2", "--k", "3")
        assert code == EXIT_OK
        assert rep["payload"]["failures"] == 0
        assert rep["payload"]["exhaustive"] is True

    def test_classify(self, capsys, tmp_path):
        f = tmp_path / "set.txt"
        f.write_text("00\n01\n10\n11\n")
        code, rep = run_json(capsys, "sidon", "classify", "--set", str(f), "--k", "3")
        assert code == EXIT_OK
        assert rep["payload"]["max_count"] == 9
        assert rep["payload"]["slack"] == "0"

    def test_classify_odd_k_counterexample(self, capsys, tmp_path):
        f = tmp_path / "set.txt"
        f.write_text("\n".join(ODD_K_COUNTEREXAMPLE) + "\n")
        code, rep = run_json(capsys, "sidon", "classify", "--set", str(f), "--k", "3")
        assert code == EXIT_VIOLATION
        assert rep["payload"]["max_count"] == 12
        assert rep["payload"]["slack"] == "-417/512"
        assert rep["payload"]["passed"] is False

    def test_search_refutes_odd_k_cap(self, capsys):
        # the walk finds the 12-point set, a 12-Sidon set of order 3 above the cap 11
        code, rep = run_json(capsys, "sidon", "search", "--d", "5", "--k", "3", "--g", "12",
                             "--samples", "20000", "--seed", "4")
        assert code == EXIT_VIOLATION
        pl = rep["payload"]
        assert (pl["best_size"], pl["size_cap"], pl["cap_form"]) == (12, 11, "paper-odd-k")
        assert pl["best_set"] == ODD_K_COUNTEREXAMPLE

    def test_classify_missing_file(self, capsys, tmp_path):
        code = run(["sidon", "classify", "--set", str(tmp_path / "nope"), "--k", "2"])
        assert code == EXIT_USAGE

    def test_verify_sampled_needs_samples(self, capsys):
        assert run(["sidon", "verify", "--d", "5", "--k", "2", "--samples", "0"]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_search_sampled_needs_samples(self, capsys):
        assert run(["sidon", "search", "--d", "5", "--k", "2", "--g", "2",
                    "--samples", "0"]) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("d", ["3", "5"])
    @pytest.mark.parametrize("action", [["verify"], ["search", "--g", "2"]], ids=["verify", "search"])
    def test_negative_seed_rejected_before_any_work(self, capsys, monkeypatch, action, d):
        # random.Random would run -1 as seed 1; at d <= 4 the seed is unread but still checked
        def refuse(*args):
            raise AssertionError("engine built")

        monkeypatch.setattr(sidon, "_PackedCounts", refuse)
        assert run(["sidon", *action, "--d", d, "--k", "2", "--seed", "-1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be >= 0, got -1" in captured.err

    def test_search(self, capsys):
        code, rep = run_json(capsys, "sidon", "search", "--d", "2", "--k", "2", "--g", "2")
        assert code == EXIT_OK
        assert rep["payload"]["best_size"] == 3

    @pytest.mark.parametrize("argv", [["--d", "2", "--g", "2"],
                                      ["--d", "5", "--g", "4", "--samples", "60"]])
    def test_search_above_cap_is_a_violation(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sidon, "g_sidon_size_cap", lambda d, k, g: (1, "paper-odd-k"))
        code, rep = run_json(capsys, "sidon", "search", "--k", "2", *argv)
        assert code == EXIT_VIOLATION
        assert rep["payload"]["size_cap"] == 1
        assert rep["payload"]["best_size"] > 1

    @pytest.mark.parametrize("exponent", [300, 400])
    def test_search_huge_g(self, capsys, exponent):
        # the cap's k-th root is taken in integers: no float overflow, no slow walk down
        code, rep = run_json(capsys, "sidon", "search", "--d", "2", "--k", "2",
                             "--g", str(10**exponent))
        assert code == EXIT_OK
        assert rep["payload"]["best_size"] == 4

    def test_verify_meta_reports_sweep_rate(self, capsys):
        _, rep = run_json(capsys, "sidon", "verify", "--d", "3", "--k", "2")
        meta = rep["meta"]
        assert meta["sweep_s"] >= 0
        # subsets_checked / sweep_s, both already in the report
        assert "subsets_per_s" not in meta
        assert "sweep_s" not in rep["payload"]

    def test_verify_meta_reports_orbits(self, capsys):
        # symmetry classes the exhaustive sweep scored; the sampled sweep has none
        _, rep = run_json(capsys, "sidon", "verify", "--d", "3", "--k", "2")
        assert rep["meta"]["orbits"] == 21
        assert "orbits" not in rep["payload"]
        _, rep = run_json(capsys, "sidon", "verify", "--d", "5", "--k", "2", "--samples", "5")
        assert rep["meta"]["orbits"] is None

    def test_verify_meta_reports_peaks(self, capsys):
        # sets whose exact max count was searched: at most one per class, or per sample
        _, rep = run_json(capsys, "sidon", "verify", "--d", "4", "--k", "2")
        assert 1 <= rep["meta"]["peaks"] <= rep["meta"]["orbits"] == 401
        assert "peaks" not in rep["payload"]
        _, rep = run_json(capsys, "sidon", "verify", "--d", "5", "--k", "2", "--samples", "40")
        assert 1 <= rep["meta"]["peaks"] <= rep["payload"]["subsets_checked"] == 40

    def test_search_meta_reports_search_time(self, capsys):
        _, rep = run_json(capsys, "sidon", "search", "--d", "3", "--k", "2", "--g", "2")
        assert rep["meta"]["search_s"] >= 0
        assert "search_s" not in rep["payload"]

    def test_search_meta_reports_nodes(self, capsys):
        # engine adds of the pruned walk; a run statistic, so not in the payload
        _, rep = run_json(capsys, "sidon", "search", "--d", "4", "--k", "2", "--g", "2")
        assert rep["meta"]["nodes"] == 2400
        assert "nodes" not in rep["payload"]
        _, rep = run_json(capsys, "sidon", "search", "--d", "5", "--k", "2", "--g", "2",
                          "--samples", "50")
        assert 0 < rep["meta"]["nodes"] <= 50  # above d = 4, --samples is the add budget

    @pytest.mark.parametrize("argv, message", [
        (["--d", "40"], "exceeds cap"),          # 3^40 entries in one table
    ])
    def test_search_over_cap_rejected_before_the_walk(self, capsys, monkeypatch, argv, message):
        def refuse(*args):
            raise AssertionError("search work before the cap check")

        monkeypatch.setattr(random.Random, "shuffle", refuse)
        monkeypatch.setattr(sidon, "_largest_g_sidon", refuse)
        assert run(["sidon", "search", "--k", "2", "--g", "2"] + argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_search_needs_one_table_under_the_cap(self, capsys, monkeypatch):
        # the walk holds one 3^11-entry state however many points it chooses
        monkeypatch.setattr(gridfn, "MEMORY_CAP_ENTRIES", 3**11)
        code, rep = run_json(capsys, "sidon", "search", "--d", "11", "--k", "2", "--g", "2",
                             "--samples", "50")
        assert code == EXIT_OK
        assert rep["meta"]["nodes"] == 50

    @pytest.mark.parametrize("k", ["2", "3"])
    def test_search_rejects_d_below_one(self, capsys, monkeypatch, k):
        def refuse(*args):
            raise AssertionError("engine built")

        monkeypatch.setattr(sidon, "_PackedCounts", refuse)
        assert run(["sidon", "search", "--d", "0", "--k", k, "--g", "1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "d must be >= 1, got 0" in captured.err

    @pytest.mark.parametrize("action", ["verify", "search", "classify"])
    def test_above_memory_cap_rejected(self, capsys, monkeypatch, tmp_path, action):
        # (k+1)^d = 81 count entries at d = 4, k = 2
        monkeypatch.setattr(gridfn, "MEMORY_CAP_ENTRIES", 80)
        f = tmp_path / "set.txt"
        f.write_text("0000\n0101\n1111\n")
        argv = {"verify": ["--d", "4"], "search": ["--d", "4", "--g", "2"],
                "classify": ["--set", str(f)]}[action]
        assert run(["sidon", action, "--k", "2"] + argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "exceeds cap" in captured.err

    def test_memory_cap_message_names_base(self, capsys, monkeypatch):
        # sidon tables have (k+1)^d entries, so the message says base^d, not (m+1)^d
        monkeypatch.setattr(gridfn, "MEMORY_CAP_ENTRIES", 80)
        assert run(["sidon", "verify", "--d", "4", "--k", "2"]) == EXIT_USAGE
        assert "base^d = 81 exceeds cap 80" in capsys.readouterr().err

    @pytest.mark.parametrize("d", ["1", "3"])
    def test_search_rejects_k_below_one(self, capsys, d):
        assert run(["sidon", "search", "--d", d, "--k", "0", "--g", "1"]) == EXIT_USAGE
        assert capsys.readouterr().out == ""


class TestContinuous:
    def test_m1(self, capsys):
        code, rep = run_json(capsys, "continuous", "--k", "2")
        assert code == EXIT_OK
        assert rep["payload"]["rows"][0]["upper_bound"] == "16/9"

    def test_bound_below_known_lower_is_a_violation(self, capsys, tmp_path, undercut_m2):
        # the report is written, to stdout and to --out, and shows why the run exits 1
        argv = ["continuous", "--k", "2", "--m-max", "2"]
        code, rep = run_json(capsys, *argv)
        out = tmp_path / "rep.json"
        assert run(argv + ["--out", str(out)]) == code == EXIT_VIOLATION
        assert capsys.readouterr() == ("", "")
        for payload in (rep["payload"], json.loads(out.read_text())["payload"]):
            assert payload["best_bound"] == pytest.approx(0.6)
            assert payload["known_lower"] == 1.28
            row = payload["rows"][1]
            assert (row["m"], row["cbar"]) == (2, 0.1)
            assert row["upper_bound"] == pytest.approx(0.6)

    def test_csv_format(self, capsys):
        code = run(["continuous", "--k", "2", "--m-max", "2", "--format", "csv",
                    "--multistarts", "4"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert out.splitlines()[0] == "m,cbar,bound,converged"
        table = convmax.continuous.upper_bound_sequence(2, 2, SolverConfig(multistarts=4, seed=0))
        assert out == table.to_csv()
        # the csv is rendered from the table, not stored in the payload
        _, rep = run_json(capsys, "continuous", "--k", "2", "--m-max", "2", "--multistarts", "4")
        assert "csv" not in rep["payload"]

    def test_export_steps(self, capsys):
        code, rep = run_json(capsys, "continuous", "--k", "2", "--m-max", "2",
                             "--export-steps", "2", "--multistarts", "4")
        assert code == EXIT_OK
        sf = rep["payload"]["step_function"]
        assert sf["breakpoints"][0] == -0.25
        assert sf["breakpoints"][-1] == 0.25
        assert len(sf["heights"]) == 3

    def test_export_steps_realizes_its_row(self, capsys):
        code, rep = run_json(capsys, "continuous", "--k", "2", "--m-max", "8",
                             "--export-steps", "8", "--multistarts", "4", "--seed", "0")
        assert code == EXIT_OK
        h = rep["payload"]["step_function"]["heights"]
        peak = np.convolve(h, h).max()
        assert abs(peak - rep["payload"]["rows"][7]["cbar_decimal"]) <= 1e-15

    def test_config_recorded(self, capsys):
        # the report's config rebuilds the solver config; the payload does not carry it
        code, rep = run_json(capsys, "continuous", "--k", "2", "--m-max", "2",
                             "--multistarts", "3", "--seed", "4")
        assert code == EXIT_OK
        assert SolverConfig(**rep["config"]) == SolverConfig(multistarts=3, seed=4)
        assert rep["seed"] == 4
        assert "config" not in rep["payload"]

    def test_meta_reports_phase_times(self, capsys):
        _, rep = run_json(capsys, "continuous", "--k", "2", "--m-max", "2",
                          "--export-steps", "2", "--multistarts", "2")
        assert rep["meta"]["table_s"] >= 0
        assert "export_s" not in rep["meta"]
        assert "table_s" not in rep["payload"] and "export_s" not in rep["payload"]
        _, rep = run_json(capsys, "continuous", "--k", "2")
        assert rep["meta"]["table_s"] >= 0
        assert "export_s" not in rep["meta"]

    def test_meta_reports_slsqp_counters(self, capsys):
        # summed over the solved rows m = 2..4; the exact m = 1 row runs no SLSQP
        _, rep = run_json(capsys, "continuous", "--k", "2", "--m-max", "4",
                          "--multistarts", "3", "--seed", "1")
        table = convmax.continuous.upper_bound_sequence(2, 4, SolverConfig(multistarts=3, seed=1))
        results = [row.result for row in table.rows]
        status = collections.Counter()
        for res in results:
            status.update(res.slsqp_status)
        meta = rep["meta"]
        assert meta["starts"] == sum(status.values()) == 3 * 3
        assert meta["slsqp_status"] == {str(mode): n for mode, n in sorted(status.items())}
        assert meta["slsqp_calls"] == sum(res.slsqp_calls for res in results)
        assert meta["slsqp_rounds"] == sum(res.slsqp_rounds for res in results)
        assert 0 < meta["slsqp_rounds"] < meta["slsqp_calls"]
        assert rep["payload"] == table.to_dict()
        _, rep = run_json(capsys, "continuous", "--k", "2")
        assert (rep["meta"]["starts"], rep["meta"]["slsqp_status"]) == (0, {})
        assert (rep["meta"]["slsqp_calls"], rep["meta"]["slsqp_rounds"]) == (0, 0)

    def test_meta_sums_the_diagonal_solves_of_its_rows(self, capsys):
        # each row m >= 2 is the solve of solve --mode diagonal --m m, so the
        # table's counters are those solves' counters summed
        flags = ["--multistarts", "5", "--seed", "2"]
        _, rep = run_json(capsys, "continuous", "--k", "2", "--m-max", "5", *flags)
        keys = ("starts", "slsqp_status", "slsqp_calls", "slsqp_rounds")
        status, totals = collections.Counter(), collections.Counter()
        for m in range(2, 6):
            _, one = run_json(capsys, "solve", "--k", "2", "--m", str(m), "--mode", "diagonal",
                              *flags)
            status.update(one["meta"]["slsqp_status"])
            totals.update({key: one["meta"][key] for key in keys if key != "slsqp_status"})
        assert {key: rep["meta"][key] for key in keys} == {
            **totals, "slsqp_status": dict(status)}

    @pytest.mark.parametrize("starts", ["0", "-3"])
    def test_multistarts_below_one_rejected(self, capsys, monkeypatch, starts):
        def refuse(*args):
            raise AssertionError("the table was solved before the config was checked")

        monkeypatch.setattr(convmax.continuous, "upper_bound_sequence", refuse)
        for flag, value, message in (("--multistarts", starts, "multistarts must be >= 1"),
                                     ("--seed", "-1", "seed must be >= 0")):
            for m_max in ("1", "2"):
                argv = ["continuous", "--k", "2", "--m-max", m_max, flag, value]
                assert run(argv) == EXIT_USAGE
                captured = capsys.readouterr()
                assert captured.out == ""
                assert message in captured.err

    @pytest.mark.parametrize("steps", ["0", "-2"])
    def test_export_steps_below_one_rejected(self, capsys, steps):
        assert run(["continuous", "--k", "2", "--export-steps", steps]) == EXIT_USAGE
        assert capsys.readouterr().out == ""


class TestSelftest:
    def test_passes_and_deterministic(self, capsys):
        code, a = run_json(capsys, "selftest", "--seed", "42")
        code2, b = run_json(capsys, "selftest", "--seed", "42")
        assert code == code2 == EXIT_OK
        assert a["payload"]["passed"] is True
        assert a["payload"] == b["payload"]

    def test_negative_seed_rejected_before_work(self, capsys, monkeypatch):
        import convmax.selftest

        def refuse(*args):
            raise AssertionError("the battery ran before the seed was checked")

        monkeypatch.setattr(convmax.selftest, "optimal_constant", refuse)
        assert run(["selftest", "--seed", "-1"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "seed must be >= 0" in captured.err

    def test_fuzz_reports_unimodality_violations(self, monkeypatch):
        import convmax.selftest

        def broken(dist):
            raise UnimodalityViolation("fall violated at 1")

        monkeypatch.setattr(pb, "pb_mode", broken)
        fuzz = convmax.selftest._fuzz_pb(random.Random(0), 2)
        assert fuzz["failures"] == ["trial 0: unimodality (fall violated at 1)",
                                    "trial 1: unimodality (fall violated at 1)"]

    def test_fuzz_does_not_relabel_other_errors(self, monkeypatch):
        # a TypeError in pb_mode is a bug in the battery's own call, not a unimodality failure
        import convmax.selftest

        def broken(dist):
            raise TypeError("bad pmf")

        monkeypatch.setattr(pb, "pb_mode", broken)
        with pytest.raises(TypeError, match="bad pmf"):
            convmax.selftest._fuzz_pb(random.Random(0), 2)

    def test_failing_section_fails_the_run(self, capsys, monkeypatch):
        import convmax.selftest

        def wrong(factors):
            return gridfn.GridFn(1, 1, (Fraction(1), Fraction(0)))

        monkeypatch.setattr(convmax.selftest, "convolve_many", wrong)
        code, rep = run_json(capsys, "selftest")
        assert code == EXIT_VIOLATION
        payload = rep["payload"]
        assert payload["passed"] is False
        assert payload["pb_exact_cross_check"]["failures"][0] == "trial 0: pmf != convolution"
        assert payload["closed_forms"]["ok"] is True


class TestMain:
    @pytest.mark.parametrize("argv,code", [
        (["constant", "--k", "2"], EXIT_OK),
        (["sidon", "verify", "--d", "3", "--k", "2"], EXIT_VIOLATION),
        (["solve", "--k", "1"], EXIT_USAGE)])
    def test_module_entry_point_exit_codes(self, argv, code):
        # ``python -m convmax.cli`` runs main(), the target of the ``convmax`` script
        src = str(Path(cli.__file__).resolve().parents[1])
        proc = subprocess.run([sys.executable, "-m", "convmax.cli", *argv, "--out", os.devnull],
                              capture_output=True, text=True, timeout=300,
                              env=dict(os.environ, PYTHONPATH=src))
        assert proc.returncode == code, proc.stderr


class TestOutput:
    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "rep.json"
        code = run(["constant", "--k", "2", "--out", str(path)])
        assert code == EXIT_OK
        rep = json.loads(path.read_text())
        assert rep["payload"]["constant"]["exact"] == "4/9"

    def test_text_format(self, capsys):
        code = run(["constant", "--k", "2", "--format", "text"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "4/9" in out

    def test_text_format_nested_lists(self, capsys):
        # a list of lists prints one "- " line per inner list, as JSON
        code = run(["sidon", "verify", "--d", "3", "--k", "2", "--format", "text"])
        out = capsys.readouterr().out
        assert code == EXIT_VIOLATION
        lines = out.splitlines()
        i = lines.index("  min_slack_sets:")
        assert lines[i + 1:i + 9] == [f"    - {json.dumps(s)}" for s in [
            ["000", "001", "011", "101", "110"], ["000", "010", "011", "101", "110"],
            ["000", "011", "100", "101", "110"], ["000", "001", "010", "100", "111"],
            ["001", "010", "011", "100", "111"], ["001", "010", "100", "101", "111"],
            ["001", "010", "100", "110", "111"], ["000", "011", "101", "110", "111"]]]
        assert "  min_slack: -142/729" in lines

    def test_text_format_empty_list(self, capsys):
        run(["sidon", "verify", "--d", "3", "--k", "2", "--format", "text"])
        assert "  equality_sets: []" in capsys.readouterr().out.splitlines()

    def test_export_report_rejects_unknown(self):
        with pytest.raises(ValueError):
            export_report({}, "xml")

    def test_csv_unavailable(self, capsys):
        assert run(["constant", "--k", "2", "--format", "csv"]) == EXIT_USAGE

    @pytest.mark.parametrize("argv, module, work", [
        pytest.param(["sidon", "verify", "--d", "4", "--k", "3", "--format", "csv"],
                     cli, "enumerate_verify", id="sidon-verify-csv"),
        pytest.param(["sidon", "search", "--d", "3", "--k", "2", "--g", "2",
                      "--format", "plotdata"], cli, "max_size_g_sidon", id="sidon-search-plotdata"),
        pytest.param(["solve", "--k", "2", "--m", "2", "--format", "plotdata"],
                     convmax.minimax, "diagonal_constant", id="solve-plotdata"),
        pytest.param(["solve", "--k", "2", "--grid", "4", "--format", "csv"],
                     convmax.minimax, "grid_oracle", id="solve-grid-csv"),
        pytest.param(["continuous", "--k", "2", "--format", "plotdata"],
                     convmax.continuous, "upper_bound_sequence", id="continuous-plotdata"),
        pytest.param(["continuous", "--k", "2", "--m-max", "2", "--export-steps", "3"],
                     convmax.continuous, "upper_bound_sequence",
                     id="continuous-export-steps-above-m-max"),
        pytest.param(["pb", "--p", "1/2", "--format", "csv"], cli.pb, "pb_pmf", id="pb-csv"),
        pytest.param(["constant", "--k", "2", "--format", "plotdata"],
                     cli, "optimal_constant_d", id="constant-plotdata-without-profile"),
    ])
    def test_unrenderable_format_rejected_before_work(self, capsys, monkeypatch,
                                                      argv, module, work):
        def fail(*args, **kwargs):
            raise AssertionError(f"{work} ran before --format was checked")

        monkeypatch.setattr(module, work, fail)
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().out == ""

    def test_parser_built_once_and_reused(self, capsys):
        # a usage error and an earlier command's options leave the shared parser as it was
        assert cli._build_parser() is cli._build_parser()
        assert run(["sidon", "search", "--d", "3", "--k", "2"]) == EXIT_USAGE
        assert "--g" in capsys.readouterr().err
        code, rep = run_json(capsys, "constant", "--k", "3", "--profile")
        assert code == EXIT_OK and "profile" in rep["payload"]
        code, rep = run_json(capsys, "constant", "--k", "2")
        assert code == EXIT_OK and "profile" not in rep["payload"]
        assert rep["payload"]["constant"]["exact"] == "4/9"

    def test_meta_separated_from_payload(self, capsys):
        _, rep = run_json(capsys, "constant", "--k", "2")
        assert "timestamp" in rep["meta"]
        assert "timestamp" not in json.dumps(rep["payload"])
