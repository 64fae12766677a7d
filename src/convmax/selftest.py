"""Deterministic self-check battery exposed through the CLI.

Runs a condensed version of the acceptance checks and returns a JSON-ready
payload.  Given the same seed the payload is byte-identical across runs; all
randomness flows from a single ``random.Random(seed)``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict

from . import pb
from .constants import optimal_constant, verify_sharpness
from .continuous import KNOWN_LOWER_K2
from .errors import UnimodalityViolation
from .gridfn import GridFn, convolve_many
from .minimax import (
    SolverConfig,
    diagonal_constant,
    grid_oracle,
    intersection_restricted_solve,
)
from .sidon import enumerate_verify

CLOSED_FORMS = {2: Fraction(4, 9), 3: Fraction(3, 8), 4: Fraction(216, 625), 5: Fraction(5, 16)}
ORACLE_GRID_N = {2: 3, 3: 2, 4: 5, 5: 2}


def _fuzz_pb(rng: random.Random, trials: int) -> Dict:
    failures = []
    fd_worst = 0.0
    for t in range(trials):
        k = rng.randint(2, 8)
        p = [rng.uniform(0.02, 0.98) for _ in range(k)]
        dist = pb.pb_pmf(p)
        if abs(sum(dist.pmf) - 1.0) > 1e-12:
            failures.append(f"trial {t}: normalization")
        try:
            pb.pb_mode(dist)
        except UnimodalityViolation as e:
            failures.append(f"trial {t}: unimodality ({e})")
        rep = pb.check_ultra_log_concave(dist)
        if not rep.ultra_ok:
            failures.append(f"trial {t}: ultra-log-concavity")
        if k >= 3 and not pb.check_newton_differences(dist).ok:
            failures.append(f"trial {t}: newton differences")
        i = rng.randint(0, k)
        j = rng.randrange(k)
        d_analytic = pb.partial_derivative(p, i, j)
        h = 1e-5
        hi = list(p); hi[j] += h
        lo = list(p); lo[j] -= h
        d_fd = (pb.pb_pmf(hi)[i] - pb.pb_pmf(lo)[i]) / (2 * h)
        err = abs(d_analytic - d_fd)
        fd_worst = max(fd_worst, err)
        if err > 1e-8:
            failures.append(f"trial {t}: derivative vs finite difference ({err})")
    return {"trials": trials, "fd_worst": fd_worst, "failures": failures}


def _exact_pb_cross_check(rng: random.Random, trials: int) -> Dict:
    failures = []
    for t in range(trials):
        k = rng.randint(2, 8)
        p = [Fraction(rng.randint(1, 99), 100) for _ in range(k)]
        pmf = pb.pb_pmf(p).pmf
        conv = convolve_many([GridFn(1, 1, (1 - q, q)) for q in p])
        if tuple(conv.values) != pmf:
            failures.append(f"trial {t}: pmf != convolution")
        if sum(pmf) != 1:
            failures.append(f"trial {t}: exact normalization")
    return {"trials": trials, "failures": failures}


def _lagrange_zero_check(rng: random.Random, trials: int) -> Dict:
    failures = []
    for t in range(trials):
        k = rng.randint(2, 8)
        q = Fraction(rng.randint(1, 99), 100)
        residuals = pb.lagrange_residuals((q,) * k)
        i = min(residuals, default=None)  # the first index with a defined residual
        if i is not None and residuals[i] != 0:
            failures.append(f"trial {t}: residual {residuals[i]} at i={i}")
    return {"trials": trials, "failures": failures}


def run_selftest(seed: int = 42) -> Dict:
    cfg = SolverConfig(multistarts=6, seed=seed)  # first: a bad seed is refused before any work
    rng = random.Random(seed)
    payload: Dict = {"seed": seed}
    ok = True

    closed = {k: str(optimal_constant(k)) for k in range(2, 9)}
    closed_ok = all(optimal_constant(k) == v for k, v in CLOSED_FORMS.items())
    payload["closed_forms"] = {"values": closed, "ok": closed_ok}
    ok &= closed_ok

    sharp = [verify_sharpness(k, d) for k in range(2, 7) for d in (1, 2)]
    sharp_ok = all(c.passed for c in sharp)
    payload["sharpness"] = {"cases": len(sharp), "ok": sharp_ok}
    ok &= sharp_ok

    diag_ok = all(
        diagonal_constant(k, 1).value_exact == optimal_constant(k)
        and intersection_restricted_solve(k).value_exact == optimal_constant(k)
        for k in range(2, 7)
    )
    payload["diagonal_m1"] = {"ok": diag_ok}
    ok &= diag_ok

    grid_ok = all(
        grid_oracle(k, 1, n, diagonal=True).grid_min == optimal_constant(k)
        for k, n in ORACLE_GRID_N.items()
    )
    payload["grid_oracle"] = {"ok": grid_ok}
    ok &= grid_ok

    fuzz = _fuzz_pb(rng, 100)
    payload["pb_fuzz"] = fuzz
    ok &= not fuzz["failures"]

    cross = _exact_pb_cross_check(rng, 25)
    payload["pb_exact_cross_check"] = cross
    ok &= not cross["failures"]

    lag = _lagrange_zero_check(rng, 20)
    payload["lagrange_zero"] = lag
    ok &= not lag["failures"]

    sid = {}
    sid_ok = True
    for d in (1, 2):
        for k in (2, 3):
            summary = enumerate_verify(d, k)
            sid[f"d{d}_k{k}"] = {"subsets": summary.subsets_checked, "failures": summary.failures}
            sid_ok &= summary.failures == 0
    payload["sidon"] = {"sweeps": sid, "ok": sid_ok}
    ok &= sid_ok

    # Cbar_{2,2} lies between the m = 1 value and the continuous floor over k(m+1)
    k, m = 2, 2
    res = diagonal_constant(k, m, cfg)
    solver_ok = (0.0 < res.value <= float(optimal_constant(k)) + 1e-9
                 and k * (m + 1) * res.value >= KNOWN_LOWER_K2)
    payload["diagonal_k2_m2"] = {"value": res.value, "ok": solver_ok}
    ok &= solver_ok

    payload["passed"] = bool(ok)
    return payload
