"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Run with ``pytest -v tests/test_acceptance.py -s`` to see the lines; each
test is independent and asserts at the tolerances stated in its docstring.
"""

import json
import random
import time
from fractions import Fraction

from convmax.constants import optimal_constant, optimal_constant_d, verify_sharpness
from convmax.gridfn import GridFn, convolve_many, ratio
from convmax.minimax import SolverConfig, diagonal_constant, general_constant, grid_oracle
from convmax.pb import (
    check_newton_differences,
    check_ultra_log_concave,
    lagrange_residuals,
    likelihood_ratio,
    partial_derivative,
    pb_mode,
    pb_pmf,
)
from convmax.selftest import run_selftest
from convmax.sidon import enumerate_verify
from convmax.continuous import upper_bound_sequence

from conftest import brute_sidon_violations, random_exact_gridfn


def report(name: str, ok: bool, elapsed: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[{status}] {name}: {elapsed:.2f}s{extra}")


def test_criterion_1_closed_form_table():
    """Exact closed forms for k = 2..5, confirmed by exact grid-oracle sweeps."""
    t0 = time.monotonic()
    expected = {2: Fraction(4, 9), 3: Fraction(3, 8), 4: Fraction(216, 625), 5: Fraction(5, 16)}
    grid_n = {2: 3, 3: 2, 4: 5, 5: 2}
    ok = True
    for k, val in expected.items():
        ok &= optimal_constant(k) == val
        ok &= grid_oracle(k, 1, grid_n[k]).grid_min == val
    elapsed = time.monotonic() - t0
    report("criterion 1 closed-form table", ok and elapsed < 1.0, elapsed)
    assert ok
    assert elapsed < 1.0


def test_criterion_2_sharpness():
    """Exact sharpness certificates for 2 <= k <= 8, 1 <= d <= 3."""
    t0 = time.monotonic()
    ok = True
    for k in range(2, 9):
        for d in range(1, 4):
            cert = verify_sharpness(k, d)
            ok &= cert.passed and cert.lhs == optimal_constant_d(k, d)
    elapsed = time.monotonic() - t0
    report("criterion 2 sharpness certificates", ok and elapsed < 10.0, elapsed)
    assert ok
    assert elapsed < 10.0


def test_criterion_3_solver_agreement():
    """Both m = 1 solvers within 1e-6 of the closed form, certs with >= 2 tied indices."""
    t0 = time.monotonic()
    cfg = SolverConfig(multistarts=16)
    ok = True
    for k in range(2, 7):
        target = float(optimal_constant(k))
        for res in (general_constant(k, 1, cfg), diagonal_constant(k, 1, cfg)):
            ok &= abs(res.value - target) <= 1e-6
            ok &= len(res.shared_modes) >= 2
    elapsed = time.monotonic() - t0
    report("criterion 3 solver agreement at m=1", ok and elapsed < 120.0, elapsed)
    assert ok
    assert elapsed < 120.0


def test_criterion_4_pb_property_suite():
    """1000 seeded random p (k <= 10): normalization, unimodality, ultra-log-
    concavity, Newton differences, ratio monotonicity in p_j and i, derivative
    vs finite difference <= 1e-8; residual == 0 on 100 all-equal vectors."""
    t0 = time.monotonic()
    rng = random.Random(1106)
    failures = 0
    for _ in range(1000):
        k = rng.randint(2, 10)
        exact = rng.random() < 0.5
        if exact:
            p = tuple(Fraction(rng.randint(1, 99), 100) for _ in range(k))
        else:
            p = tuple(rng.uniform(0.01, 0.99) for _ in range(k))
        dist = pb_pmf(p)
        try:
            total = sum(dist.pmf)
            if exact:
                assert total == 1
            else:
                assert abs(total - 1.0) <= 1e-12
            pb_mode(dist)
            rep = check_ultra_log_concave(dist)
            assert rep.ultra_ok and rep.plain_ok
            if k >= 3:
                assert check_newton_differences(dist).ok
            # monotone decreasing in the index i
            rs = [likelihood_ratio(p, i) for i in range(1, k + 1)]
            assert all(a > b for a, b in zip(rs, rs[1:]))
            # monotone increasing in a random coordinate
            j = rng.randrange(k)
            i = rng.randint(1, k)
            bumped = list(p)
            one = Fraction(1) if exact else 1.0
            bumped[j] = bumped[j] + (one - bumped[j]) / 2
            assert likelihood_ratio(bumped, i) > rs[i - 1]
            # analytic partial vs central finite difference (float route)
            pf = [float(x) for x in p]
            h = 1e-6
            up, dn = list(pf), list(pf)
            up[j] += h
            dn[j] -= h
            fd = (pb_pmf(up)[i] - pb_pmf(dn)[i]) / (2 * h)
            assert abs(partial_derivative(pf, i, j) - fd) <= 1e-8
        except AssertionError:
            failures += 1
    for _ in range(100):
        k = rng.randint(2, 10)
        q = Fraction(rng.randint(1, 99), 100)
        i = rng.randint(1, k)
        # an i left out of the dict has a vanishing difference
        if lagrange_residuals((q,) * k).get(i, 0) != 0:
            failures += 1
    elapsed = time.monotonic() - t0
    ok = failures == 0
    report("criterion 4 pb property suite", ok and elapsed < 60.0, elapsed,
           f"{failures} failures")
    assert failures == 0
    assert elapsed < 60.0


def test_criterion_5_cross_module_oracle():
    """pb_pmf equals the exact k-fold GridFn convolution for 200 random rational p."""
    t0 = time.monotonic()
    rng = random.Random(55)
    bad = 0
    for _ in range(200):
        k = rng.randint(1, 8)
        p = [Fraction(rng.randint(0, 20), 20) for _ in range(k)]
        factors = [GridFn(1, 1, (1 - pj, pj)) for pj in p]
        if convolve_many(factors).values != pb_pmf(p).pmf:
            bad += 1
    elapsed = time.monotonic() - t0
    report("criterion 5 pmf vs convolution cross-check", bad == 0, elapsed,
           f"{bad} discrepancies")
    assert bad == 0


def test_criterion_6_sidon_exhaustive():
    """All nonempty subsets of {0,1}^d, d <= 3, k in {2,3}: the sweep's
    failure count, minimum slack and minimum-slack sets equal an independent
    brute-force count.  Even k: the tensor-power bound fails at d=3, k=2 on
    exactly the 8 five-point Sidon sets, each with slack -142/729 (max pair
    count 2, and 2 * 729 < 64 * 25).  Odd k (no failure known on sets): zero
    violations, equality exactly at the full cube."""
    t0 = time.monotonic()
    ok = True
    details = []
    for d in (1, 2, 3):
        for k in (2, 3):
            violating, min_slack, min_sets, _ = brute_sidon_violations(d, k)
            summary = enumerate_verify(d, k)
            good = summary.exhaustive
            good &= summary.failures == len(violating)
            good &= summary.min_slack == min_slack
            good &= sorted(summary.min_slack_sets) == min_sets
            if k == 3:
                full = ["".join(f"{mask >> (d - 1 - t) & 1}" for t in range(d))
                        for mask in range(2**d)]
                good &= summary.failures == 0
                good &= summary.equality_sets == [sorted(full)]
                good &= summary.min_slack == 0
            if (d, k) == (3, 2):
                good &= summary.failures == 8
                good &= summary.min_slack == Fraction(-142, 729)
                good &= sorted(summary.min_slack_sets) == violating
                good &= ["000", "001", "011", "101", "110"] in violating
                good &= all(len(s) == 5 for s in violating)
                if good:
                    details.append(f"d=3 k=2: {summary.failures} counterexamples "
                                   "(five-point Sidon sets), as brute force predicts")
            if not good:
                details.append(f"d={d} k={k}: {summary.failures} failures, min slack "
                               f"{summary.min_slack}; brute force {len(violating)}, "
                               f"{min_slack}")
            ok &= good
    elapsed = time.monotonic() - t0
    report("criterion 6 sidon exhaustive verification", ok and elapsed < 120.0, elapsed,
           "; ".join(details))
    assert ok, f"sweep disagrees with brute force: {details}"
    assert elapsed < 120.0


def test_criterion_7_continuous_bounds():
    """upper_bound_sequence(2, 1) == 16/9 exactly; all bounds up to m = 6 lie
    in [1.28, 16/9 + 1e-9]."""
    t0 = time.monotonic()
    ok = upper_bound_sequence(2, 1).rows[0].upper_bound == Fraction(16, 9)
    table = upper_bound_sequence(2, 6, SolverConfig(multistarts=12))
    for row in table.rows:
        b = float(row.upper_bound)
        ok &= 1.28 <= b <= 16 / 9 + 1e-9
    elapsed = time.monotonic() - t0
    report("criterion 7 continuous upper bounds", ok and elapsed < 600.0, elapsed,
           f"best {table.best_bound:.6f}")
    assert ok
    assert elapsed < 600.0


def test_criterion_8_trivial_bound_fuzz():
    """1000 random GridFns per (k,d) in {2,3}x{1,2}: each GridFn's k-fold
    self-convolution ratio is exactly >= 1/(k+1)^d and >= the optimal
    constant.  (With k independent factors instead, the second bound is
    provably false already at k=2, d=2; see the frozen counterexample in
    test_constants.py.)"""
    t0 = time.monotonic()
    rng = random.Random(808)
    failures = 0
    for k in (2, 3):
        for d in (1, 2):
            c = optimal_constant_d(k, d)
            floor = Fraction(1, (k + 1) ** d)
            for _ in range(1000):
                f = random_exact_gridfn(rng, d)
                r = ratio([f] * k)
                if not (r >= floor and r >= c):
                    failures += 1
    elapsed = time.monotonic() - t0
    report("criterion 8 trivial-bound fuzz", failures == 0, elapsed,
           f"{failures} failures")
    assert failures == 0


def test_criterion_9_determinism():
    """Repeated selftest runs with seed 42 produce byte-identical payloads."""
    t0 = time.monotonic()
    a = json.dumps(run_selftest(42), sort_keys=True).encode()
    b = json.dumps(run_selftest(42), sort_keys=True).encode()
    ok = a == b and json.loads(a)["passed"]
    elapsed = time.monotonic() - t0
    report("criterion 9 selftest determinism", ok, elapsed)
    assert ok
