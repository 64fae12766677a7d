"""Workloads, frozen exact references and output checks for the convmax benchmark.

A workload is a list of CLI operations built from a seed.  Each operation runs
through ``convmax.cli.run`` with ``--out`` pointing at a JSON file; its checker
reads that report and records named checks.

A check is *hard* when its failure means a wrong exact value or a broken
invariant.  It is *soft* when it grades a float estimate against an exact
oracle: "solver value <= exact grid minimum + 1e-9".  A value above the grid
minimum is still a feasible-point upper estimate, so it is not a wrong number,
but it is the known general-solver defect.  Both kinds count in ``fail_frac``;
only hard failures make a run incorrect.

The references below were frozen from independent computations that share no
code with ``convmax``: exhaustive sweeps with the counters in this file and
integer grid sweeps.  The checkers recompute what is cheap (closed forms,
representation counts, seeded sample sweeps, Poisson-binomial pmfs, float
convolution maxima, exact oracle argmins) with the same helpers.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Sequence

# ---------------------------------------------------------------------------
# Frozen references
# ---------------------------------------------------------------------------

#: Exhaustive ``sidon verify`` sweeps, keyed by (d, k).
SIDON_VERIFY = {
    (3, 2): {"subsets_checked": 255, "failures": 8, "min_slack": "-142/729"},
    (4, 2): {"subsets_checked": 65535, "failures": 0, "min_slack": "578/6561"},
    (3, 3): {"subsets_checked": 255, "failures": 0},
}

#: Largest g-Sidon set of order k on {0,1}^d, keyed by (d, k, g).
SIDON_SEARCH = {
    (4, 2, 2): {"best_size": 7, "size_cap": 12, "cap_form": "trivial-average"},
    (3, 2, 2): {"best_size": 5, "size_cap": 7, "cap_form": "trivial-average"},
}

#: Exact grid minima, keyed by (k, m, n, diagonal).
GRID_MIN = {
    (2, 2, 12, False): "1/4",
    (2, 3, 6, False): "1/6",
    (2, 4, 4, False): "1/8",
    (3, 2, 6, False): "2/9",
    (2, 4, 20, True): "17/100",
    (2, 2, 6, True): "1/3",
}

#: Literature floor for the k=2 continuous constant and the m=1 ceiling 2k C_{k,1}.
CONTINUOUS_K2_RANGE = (1.28, 16 / 9)

# ---------------------------------------------------------------------------
# Independent oracles (no convmax imports)
# ---------------------------------------------------------------------------


def closed_form(k: int) -> Fraction:
    """C_{k,1}: binom(k, k//2)/2^k, times (1 - 1/(k+1)^2)^(k/2) for even k."""
    c = Fraction(math.comb(k, k // 2), 2**k)
    if k % 2 == 0:
        c *= (1 - Fraction(1, (k + 1) ** 2)) ** (k // 2)
    return c


def max_rep_count(masks: Sequence[int], d: int, k: int) -> int:
    """Largest ordered k-fold representation count of a subset of {0,1}^d.

    Each point becomes a base-(k+1) integer, so sums of k points never carry.
    """
    enc = [sum(((mask >> t) & 1) * (k + 1) ** t for t in range(d)) for mask in masks]
    counts = Counter({0: 1})
    for _ in range(k):
        nxt: Counter = Counter()
        for s, c in counts.items():
            for x in enc:
                nxt[s + x] += c
        counts = nxt
    return max(counts.values())


def _point_masks(points: Sequence[str]) -> List[int]:
    return [int(p, 2) for p in points]


def _slack(masks: Sequence[int], d: int, k: int) -> Fraction:
    return max_rep_count(masks, d, k) - closed_form(k) ** d * len(masks) ** k


def sampled_sweep(d: int, k: int, samples: int, seed: int):
    """Failures and minimum slack over the documented seeded subset sample."""
    rng = random.Random(seed)
    failures, min_slack = 0, None
    drawn = 0
    while drawn < samples:
        s = rng.getrandbits(2**d)
        if not s:
            continue
        drawn += 1
        slack = _slack([p for p in range(2**d) if (s >> p) & 1], d, k)
        failures += slack < 0
        min_slack = slack if min_slack is None else min(min_slack, slack)
    return failures, min_slack


def conv_max(ws: Sequence[Sequence], k_copies: int = 1):
    """max of the convolution of the given vectors (each repeated k_copies times)."""
    out = [1]
    for w in ws:
        for _ in range(k_copies):
            nxt = [0] * (len(out) + len(w) - 1)
            for i, x in enumerate(out):
                for j, y in enumerate(w):
                    nxt[i + j] += x * y
            out = nxt
    return max(out)


def pb_pmf_exact(p: Sequence[Fraction]) -> List[Fraction]:
    pmf = [Fraction(1)]
    for q in p:
        pmf = [(pmf[i] if i < len(pmf) else 0) * (1 - q) + (pmf[i - 1] * q if i else 0)
               for i in range(len(pmf) + 1)]
    return pmf


# ---------------------------------------------------------------------------
# Operations and checks
# ---------------------------------------------------------------------------


@dataclass
class Checks:
    """Named outcomes of one operation's checks."""

    results: List[tuple] = field(default_factory=list)   # (name, ok, hard)

    def hard(self, name: str, ok) -> None:
        self.results.append((name, bool(ok), True))

    def soft(self, name: str, ok) -> None:
        self.results.append((name, bool(ok), False))


@dataclass
class Op:
    """One CLI call: ``argv`` without ``--out``; ``check(report, exit_code, checks)``."""

    argv: List[str]
    check: Callable[[dict, int, Checks], None]
    kind: str

    @property
    def label(self) -> str:
        return " ".join(self.argv)


def _exhaustive_verify(d: int, k: int) -> Op:
    ref = SIDON_VERIFY[(d, k)]

    def check(rep, rc, c):
        p = rep["payload"]
        c.hard("subsets_checked", p["subsets_checked"] == ref["subsets_checked"])
        c.hard("failures", p["failures"] == ref["failures"])
        c.hard("exhaustive", p["exhaustive"] is True)
        c.hard("exit_code", rc == (1 if ref["failures"] else 0))
        if "min_slack" in ref:
            c.hard("min_slack", p["min_slack"] == ref["min_slack"])
        c.hard("min_slack_sets", all(
            _slack(_point_masks(s), d, k) == Fraction(p["min_slack"])
            for s in p["min_slack_sets"]))

    return Op(["sidon", "verify", "--d", str(d), "--k", str(k)], check, "verify")


def _sampled_verify(d: int, k: int, samples: int, seed: int) -> Op:
    expected = {}

    def check(rep, rc, c):
        p = rep["payload"]
        if not expected:
            expected["v"] = sampled_sweep(d, k, samples, seed)
        failures, min_slack = expected["v"]
        c.hard("subsets_checked", p["subsets_checked"] == samples)
        c.hard("failures", p["failures"] == failures)
        c.hard("min_slack", Fraction(p["min_slack"]) == min_slack)
        c.hard("exhaustive", p["exhaustive"] is False)
        c.hard("exit_code", rc == (1 if failures else 0))
        if k % 2 == 1:
            c.hard("odd_k_bound_holds", p["failures"] == 0)

    return Op(["sidon", "verify", "--d", str(d), "--k", str(k),
               "--samples", str(samples), "--seed", str(seed)], check, "verify")


def _search(d: int, k: int, g: int, samples: int = 0, seed: int = 0) -> Op:
    ref = SIDON_SEARCH.get((d, k, g)) if not samples else None

    def check(rep, rc, c):
        p = rep["payload"]
        best = _point_masks(p["best_set"])
        c.hard("exit_code", rc == 0)
        c.hard("best_size_matches_set", p["best_size"] == len(best) == len(set(best)))
        c.hard("best_set_is_g_sidon", max_rep_count(best, d, k) <= g)
        c.hard("within_cap", p["best_size"] <= p["size_cap"])
        if ref is not None:
            c.hard("best_size", p["best_size"] == ref["best_size"])
            c.hard("size_cap", p["size_cap"] == ref["size_cap"])
            c.hard("cap_form", p["cap_form"] == ref["cap_form"])

    argv = ["sidon", "search", "--d", str(d), "--k", str(k), "--g", str(g)]
    if samples:
        argv += ["--samples", str(samples), "--seed", str(seed)]
    return Op(argv, check, "search")


def _check_solve(rep, rc, c, k: int, grid_ref=None) -> None:
    """Invariants of a ``solve`` report; a grid reference adds the oracle checks."""
    p = rep["payload"]
    res = p["result"]
    value = res["value"]
    arg = res["argument"]
    copies = k if res["diagonal"] else 1
    c.hard("recomputed_value", abs(p["recomputed_value"] - value) <= 1e-10)
    c.hard("independent_value", abs(conv_max(arg, copies) - value) <= 1e-12)
    c.hard("weights_on_simplex", all(
        min(w) >= 0 and abs(sum(w) - 1) <= 1e-9 for w in arg))
    dominated = True
    if grid_ref is not None:
        oracle = p["grid_oracle"]
        gm = Fraction(oracle["grid_min"])
        argmin = [[Fraction(x) for x in w] for w in oracle["argmin"]]
        per = math.comb(oracle["n"] + oracle["m"], oracle["m"])
        c.hard("grid_min", gm == Fraction(grid_ref))
        c.hard("grid_argmin_attains_min", conv_max(argmin, copies) == gm)
        c.hard("points_evaluated",
               oracle["points_evaluated"] == (per if res["diagonal"] else per**k))
        dominated = value <= float(gm) + 1e-9
        # the known general-solver defect shows here
        c.soft("solver_not_above_grid_oracle", dominated)
    recompute_ok = abs(p["recomputed_value"] - value) <= 1e-10
    c.hard("exit_code", rc == (0 if dominated and recompute_ok else 1))


def _solve(k: int, m: int, mode: str, seed: int, grid: int = 0) -> Op:
    grid_ref = GRID_MIN[(k, m, grid, mode == "diagonal")] if grid else None
    argv = ["solve", "--k", str(k), "--m", str(m), "--mode", mode, "--seed", str(seed)]
    if grid:
        argv += ["--grid", str(grid)]
    return Op(argv, lambda rep, rc, c: _check_solve(rep, rc, c, k, grid_ref),
              f"solve-{mode}")


def _continuous(k: int, m_max: int, seed: int) -> Op:
    def check(rep, rc, c):
        p = rep["payload"]
        rows = p["rows"]
        c.hard("exit_code", rc == 0)
        c.hard("rows", [r["m"] for r in rows] == list(range(1, m_max + 1)))
        c.hard("m1_closed_form", Fraction(rows[0]["cbar"]) == closed_form(k)
               and Fraction(rows[0]["upper_bound"]) == 2 * k * closed_form(k))
        c.hard("bound_scaling", all(
            abs(r["upper_bound_decimal"] - k * (r["m"] + 1) * r["cbar_decimal"]) <= 1e-12
            for r in rows))
        c.hard("best_bound_is_row_min", p["best_bound"] == min(
            r["upper_bound_decimal"] for r in rows if r["converged"]))
        if k == 2:
            lo, hi = CONTINUOUS_K2_RANGE
            c.hard("bounds_in_range", all(
                lo <= r["upper_bound_decimal"] <= hi + 1e-12 for r in rows))

    return Op(["continuous", "--k", str(k), "--m-max", str(m_max), "--seed", str(seed)],
              check, "continuous")


def _pb(p: Sequence[Fraction]) -> Op:
    def check(rep, rc, c):
        pay = rep["payload"]
        pmf = [Fraction(x) for x in pay["pmf"]]
        ref = pb_pmf_exact(p)
        c.hard("exit_code", rc == 0)
        c.hard("exact", pay["exact"] is True)
        c.hard("pmf", pmf == ref)
        c.hard("mode", ref[pay["mode"]["index"]] == max(ref))
        c.hard("ultra_log_concave", pay["ultra_log_concave"]["ok"]
               and pay["ultra_log_concave"]["plain_ok"])
        c.hard("newton_differences", pay["newton_differences"]["ok"])

    return Op(["pb", "--p", ",".join(str(x) for x in p)], check, "pb")


def _sharpness(k: int, d: int) -> Op:
    def check(rep, rc, c):
        p = rep["payload"]
        ref = closed_form(k) ** d
        c.hard("exit_code", rc == 0)
        c.hard("constant", Fraction(p["constant"]["exact"]) == ref)
        c.hard("constant_1d", Fraction(p["constant_1d"]["exact"]) == closed_form(k))
        c.hard("continuous_m1", Fraction(p["continuous_upper_bound_m1"]["exact"])
               == 2 * k * closed_form(k))
        c.hard("sharpness", p["sharpness"]["passed"] is True
               and Fraction(p["sharpness"]["lhs"]["exact"]) == ref
               and Fraction(p["sharpness"]["rhs"]["exact"]) == ref)

    return Op(["constant", "--k", str(k), "--d", str(d), "--sharpness"], check, "constant")


def _profile(k: int) -> Op:
    def check(rep, rc, c):
        prof = rep["payload"]["profile"]
        rows = [tuple(map(float, line.split()))
                for line in rep["payload"]["plotdata"].splitlines()]
        ck = closed_form(k)
        c.hard("exit_code", rc == 0)
        c.hard("envelope_min", Fraction(prof["envelope_min"]["exact"]) == ck)
        c.hard("breakpoints", [Fraction(b) for b in prof["breakpoints"]]
               == [Fraction(j, k + 1) for j in range(k + 1)])
        c.hard("plotdata_rows", len(rows) == 1001)
        c.hard("plotdata_above_min", min(v for _, v in rows) >= float(ck) - 1e-12)

    return Op(["constant", "--k", str(k), "--profile"], check, "constant")


def _selftest(seed: int) -> Op:
    def check(rep, rc, c):
        p = rep["payload"]
        c.hard("exit_code", rc == 0)
        c.hard("passed", p["passed"] is True)
        c.hard("closed_forms", all(Fraction(v) == closed_form(int(k))
                                   for k, v in p["closed_forms"]["values"].items()))

    return Op(["selftest", "--seed", str(seed)], check, "selftest")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def sidon_ops(seed: int, small: bool = False) -> List[Op]:
    """Exact representation counts through gridfn.convolve (no numpy/scipy)."""
    rng = _rng("sidon", seed)
    s = [rng.randrange(2**31) for _ in range(3)]
    if small:
        return [_exhaustive_verify(3, 2), _exhaustive_verify(3, 3),
                _sampled_verify(5, 2, 40, s[0]), _search(3, 2, 2),
                _search(5, 2, 2, 100, s[2])]
    return [
        _exhaustive_verify(3, 2),            # the 8 known counterexamples
        _exhaustive_verify(4, 2),            # 65 535 small sets
        _sampled_verify(5, 2, 1000, s[0]),   # dense sets
        _sampled_verify(5, 3, 300, s[1]),    # dense sets, three-fold sums
        _search(4, 2, 2),                    # early-exit search
        _search(5, 2, 2, 2000, s[2]),
    ]


def continuous_ops(seed: int, small: bool = False) -> List[Op]:
    """Float path: _conv_pow, subgradient loop, SLSQP and its Jacobian."""
    rng = _rng("continuous", seed)
    s = [rng.randrange(2**31) for _ in range(2)]
    if small:
        return [_continuous(2, 4, s[0]), _solve(3, 3, "diagonal", s[1])]
    return [_continuous(2, 16, s[0]), _solve(3, 8, "diagonal", s[1])]


def solve_oracle_ops(seed: int, small: bool = False) -> List[Op]:
    """Exact grid sweeps, HiGHS LP coordinate descent and the pb recursion."""
    rng = _rng("solve-oracle", seed)
    s = [rng.randrange(2**31) for _ in range(7)]
    k_pb = 8 if small else 24
    p = [Fraction(rng.randint(1, b - 1), b) for b in (rng.randint(2, 12) for _ in range(k_pb))]
    if small:
        general = [_solve(2, 2, "general", s[0], 12)]
        diag = _solve(2, 2, "diagonal", s[4], 6)
    else:
        general = [_solve(k, m, "general", s[i], n)
                   for i, (k, m, n) in enumerate([(2, 2, 12), (2, 3, 6), (2, 4, 4), (3, 2, 6)])]
        diag = _solve(2, 4, "diagonal", s[4], 20)
    return general + [diag, _pb(p), _sharpness(4, 2), _profile(3), _selftest(s[5])]


WORKLOADS: Dict[str, Callable[..., List[Op]]] = {
    "sidon": sidon_ops,
    "continuous": continuous_ops,
    "solve-oracle": solve_oracle_ops,
}
