"""convmax benchmark: run one workload through ``convmax.cli.run`` and report metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sidon --seed 1 --seconds 20 --trace 0

``--workload`` is ``sidon``, ``continuous``, ``solve-oracle`` or ``all``.  Every
operation runs in this process, on one thread, with ``--out`` in a temporary
directory under ``.bench_out/``.  Passes over the workload's operations repeat
until ``--seconds`` have been measured (at least two, so seeded payloads can be
compared byte for byte).  After each operation its report is checked.  Times
are normalized to a reference machine speed by ``SpeedSampler``.

``--trace 0`` reports the end-to-end metrics with tracing off.  ``--trace 1``
runs one untraced pass, then traced passes, and reports per-layer metrics; the
spans go to ``.bench_out/trace-<workload>.txt``.  The last line of
standard output is one JSON object: ``correct``, ``attempted`` and ``failed``
(CLI operations, where failing means an exception, exit code 2 or no report)
and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Dict, List

from tracer import SCIPY, Tracer
from workloads import WORKLOADS, Checks, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 2
SAMPLE_PERIOD_S = 0.025
SAMPLE_LOOP = 500
#: Sampler-loop duration that defines one normalized second.
REF_LOOP_S = 50e-6


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no convmax sources, import fails)."""


def pin_threads() -> None:
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_cli():
    """convmax.cli from this checkout's ``src/``, never from an installed copy."""
    if not (SRC / "convmax" / "cli.py").is_file():
        raise SetupError(f"no convmax sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import convmax
    import convmax.cli
    if Path(convmax.__file__).resolve().parent != SRC / "convmax":
        raise SetupError(f"convmax imported from {convmax.__file__}, not {SRC}")
    return convmax.cli


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu": platform.processor() or platform.machine()}


def setup_once(workload: str, seed: int, small: bool):
    """Time a fresh interpreter importing convmax.cli plus building the inputs."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    t = perf_counter()
    subprocess.run([sys.executable, "-c", "import convmax.cli"], env=env, cwd=ROOT,
                   check=True, timeout=120)
    ops = WORKLOADS[workload](seed, small)
    return perf_counter() - t, ops


class SpeedSampler:
    """In-thread machine-speed sampler for normalizing operation times.

    On a shared host the speed of this vCPU swings by up to 2x over seconds,
    in CPU time as much as in wall time.  Every SAMPLE_PERIOD_S a SIGALRM
    handler, running in this thread between bytecodes, times a fixed
    pure-Python loop.  An operation's normalized time is its wall time times
    REF_LOOP_S over the median loop time sampled during it, which varies far
    less with the host's speed than wall time does.  The handler costs about
    0.2% of the run.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def _handler(self, signum, frame) -> None:
        t = perf_counter()
        acc = 0
        for i in range(SAMPLE_LOOP):
            acc += (i * 7) % 13
        self.samples.append(perf_counter() - t)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def normalized(self, seconds: float, since: int) -> float:
        """``seconds`` at reference speed, from the samples taken after index ``since``.

        An operation too short for three samples uses the latest 40 samples.
        """
        window = self.samples[since:]
        if len(window) < 3:
            window = self.samples[-40:]
        return seconds * REF_LOOP_S / statistics.median(window) if window else seconds


@dataclass
class Tally:
    """Operation outcomes, checks and per-operation timings across passes."""

    ops: List[Op]
    op_attempted: int = 0
    op_failed: int = 0
    checks_attempted: int = 0
    checks_failed: int = 0
    hard_failed: int = 0
    failures: Dict[str, int] = field(default_factory=dict)   # message -> passes
    first_payload: Dict[int, str] = field(default_factory=dict)
    reports: Dict[int, dict] = field(default_factory=dict)
    times: Dict[int, List[float]] = field(default_factory=dict)

    def _fail(self, message: str, hard: bool) -> None:
        self.failures[message] = self.failures.get(message, 0) + 1
        self.checks_failed += 1
        self.hard_failed += hard

    def record(self, i: int, rc, out: str, seconds: float, traced: bool) -> None:
        op = self.ops[i]
        self.op_attempted += 1
        if not traced:
            self.times.setdefault(i, []).append(seconds)
        if rc not in (0, 1) or not os.path.exists(out):
            self.op_failed += 1
            self.checks_attempted += 1
            self._fail(f"[hard] {op.label}: operation failed (exit {rc})", True)
            return
        with open(out) as fh:
            report = json.load(fh)
        os.remove(out)
        checks = Checks()
        try:
            op.check(report, rc, checks)
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as e:
            checks.hard(f"check raised {type(e).__name__}: {e}", False)
        payload = json.dumps(report["payload"], sort_keys=True)
        if i in self.first_payload:
            checks.hard("payload byte-identical across passes", payload == self.first_payload[i])
        else:
            self.first_payload[i] = payload
        self.reports[i] = report
        for name, ok, hard in checks.results:
            self.checks_attempted += 1
            if not ok:
                self._fail(f"[{'hard' if hard else 'soft'}] {op.label}: {name}", hard)

    @property
    def correct(self) -> bool:
        return self.op_failed == 0 and self.hard_failed == 0

    @property
    def fail_frac(self) -> float:
        return self.checks_failed / max(self.checks_attempted, 1)

    # -- workload results read from the reports (tracing off) ---------------

    def subsets_per_s(self):
        idx = [i for i, op in enumerate(self.ops) if op.kind == "verify" and i in self.reports]
        if not idx:
            return None
        subsets = sum(self.reports[i]["payload"]["subsets_checked"] * len(self.times[i])
                      for i in idx)
        return subsets / sum(sum(self.times[i]) for i in idx)

    def best_bound(self):
        vals = [self.reports[i]["payload"]["best_bound"]
                for i, op in enumerate(self.ops) if op.kind == "continuous" and i in self.reports]
        return min(vals) if vals else None

    def oracle_gap(self):
        gaps = []
        for i, op in enumerate(self.ops):
            p = self.reports.get(i, {}).get("payload", {})
            if op.kind == "solve-general" and "grid_oracle" in p:
                gaps.append(p["result"]["value"] - float(Fraction(p["grid_oracle"]["grid_min"])))
        return max(gaps) if gaps else None


def run_pass(cli, tally: Tally, outdir: str, sampler: SpeedSampler,
             traced: bool = False):
    """One pass over the workload; returns (wall, normalized) seconds inside ``cli.run``."""
    wall = norm = 0.0
    for i, op in enumerate(tally.ops):
        out = os.path.join(outdir, f"op{i}.json")
        since = len(sampler.samples)
        t = perf_counter()
        try:
            rc = cli.run(op.argv + ["--out", out])
        except Exception as e:   # an operation that crashes is counted, not fatal
            print(f"# {op.label}: {type(e).__name__}: {e}", file=sys.stderr)
            rc = None
        dt = perf_counter() - t
        dn = sampler.normalized(dt, since)
        wall += dt
        norm += dn
        tally.record(i, rc, out, dn, traced)
    return wall, norm


def _per_layer(tracer, passes: int, tally: Tally, overhead: float) -> Dict[str, tuple]:
    s = tracer.summary()
    calls, incl, self_s = s["calls"], s["s"], s["self_s"]
    counts = tracer.counts

    def per(x):
        return x / passes

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "gridfn.convolve.calls": (per(calls["gridfn.convolve"]), "count"),
        "gridfn.convolve.s": (per(incl["gridfn.convolve"]), "s"),
        "gridfn.convolve.mults": (per(counts["gridfn.convolve.mults"]), "count"),
        "gridfn.self_s": (per(self_s["gridfn"]), "s"),
        "sidon.verify_bound.calls": (per(calls["sidon.verify_bound"]), "count"),
        "sidon.representation_counts.calls": (per(calls["sidon.representation_counts"]), "count"),
        "sidon.self_s": (per(self_s["sidon"]), "s"),
        "minimax.slsqp.calls": (per(calls["minimax.slsqp"]), "count"),
        "minimax.slsqp.s": (per(incl["minimax.slsqp"]), "s"),
        "minimax.slsqp.nit": (per(counts["minimax.slsqp.nit"]), "count"),
        "minimax.slsqp.success_ratio": (
            ratio(counts["minimax.slsqp.successes"], calls["minimax.slsqp"]), "ratio"),
        "minimax.slsqp.jac_s": (per(incl["minimax.slsqp.jac"]), "s"),
        "minimax.slsqp.jac_calls": (per(calls["minimax.slsqp.jac"]), "count"),
        "minimax.slsqp.fun_s": (per(incl["minimax.slsqp.fun"]), "s"),
        "scipy.self_s": (per(self_s[SCIPY]), "s"),
        "minimax.diagonal_constant.s": (per(incl["minimax.diagonal_constant"]), "s"),
        "minimax.self_s": (per(self_s["minimax"]), "s"),
        "continuous.upper_bound_sequence.s": (per(incl["continuous.upper_bound_sequence"]), "s"),
        "continuous.self_s": (per(self_s["continuous"]), "s"),
        "minimax.linprog.calls": (per(calls["minimax.linprog"]), "count"),
        "minimax.linprog.s": (per(incl["minimax.linprog"]), "s"),
        "minimax.linprog.nit": (per(counts["minimax.linprog.nit"]), "count"),
        "minimax.general_constant.s": (per(incl["minimax.general_constant"]), "s"),
        "minimax.grid_oracle.s": (per(incl["minimax.grid_oracle"]), "s"),
        "minimax.grid_oracle.points": (per(counts["minimax.grid_oracle.points"]), "count"),
        "pb.calls": (per(s["entry_calls"]["pb"]), "count"),
        "pb.s": (per(s["entry_s"]["pb"]), "s"),
        "pb.self_s": (per(self_s["pb"]), "s"),
        "constants.verify_sharpness.s": (per(incl["constants.verify_sharpness"]), "s"),
        "constants.self_s": (per(self_s["constants"]), "s"),
        "selftest.run_selftest.s": (per(incl["selftest.run_selftest"]), "s"),
        "selftest.self_s": (per(self_s["selftest"]), "s"),
        "cli.run.self_s": (per(s["self_by_name"]["cli.run"]), "s"),
        "cli.out_bytes": (per(counts["cli.out_bytes"]), "bytes"),
        "trace.overhead_s": (overhead, "s"),
        "grid_points_per_s": (ratio(counts["minimax.grid_oracle.points"],
                                    incl["minimax.grid_oracle"]), "1/s"),
    }
    # results read from the untraced pass's reports; 0 where the workload has none
    m["subsets_per_s"] = (tally.subsets_per_s() or 0.0, "1/s")
    m["best_bound"] = (tally.best_bound() or 0.0, "bound")
    m["oracle_gap"] = (tally.oracle_gap() or 0.0, "value")
    m["fail_frac"] = (tally.fail_frac, "frac")
    return m


def measure(cli, workload: str, seed: int, seconds: float, trace: bool,
            small: bool = False) -> dict:
    """Run one workload; return the result object plus human-readable lines."""
    OUT.mkdir(exist_ok=True)
    setups, passes, traced_passes = [], [], []   # (wall, normalized) seconds
    tracer = None
    with tempfile.TemporaryDirectory(dir=OUT) as outdir, SpeedSampler() as sampler:
        for _ in range(SETUP_REPEATS):
            since = len(sampler.samples)
            dt, ops = setup_once(workload, seed, small)
            setups.append((dt, sampler.normalized(dt, since)))
        tally = Tally(ops)
        # untimed, unchecked warm-up so lazy imports inside scipy and numpy are done
        run_pass(cli, Tally(WORKLOADS[workload](seed, True)), outdir, sampler)
        start = perf_counter()
        while (len(passes) < (1 if trace else MIN_PASSES)
               or (not trace and perf_counter() - start < seconds)):
            passes.append(run_pass(cli, tally, outdir, sampler))
        if trace:
            tracer = Tracer()
            tracer.install()
            try:
                while not traced_passes or perf_counter() - start < seconds:
                    tracer.run_id = len(traced_passes)
                    traced_passes.append(run_pass(cli, tally, outdir, sampler, traced=True))
            finally:
                tracer.uninstall()

    lines = [f"# workload={workload} seed={seed} seconds={seconds} trace={int(trace)} "
             f"untraced_passes={len(passes)} traced_passes={len(traced_passes)}",
             "# environment: " + json.dumps(environment())]
    lines += [f"# check failed in {n} pass(es): {msg}" for msg, n in sorted(tally.failures.items())]
    norm = statistics.median(n for _, n in passes)
    if trace:
        overhead = statistics.median(n for _, n in traced_passes) - norm
        metrics = _per_layer(tracer, len(traced_passes), tally, overhead)
        path = OUT / f"trace-{workload}.txt"
        tracer.write(str(path), {"workload": workload, "seed": seed,
                                 "traced_passes": len(traced_passes),
                                 "environment": environment()})
        lines.append(f"# spans: {len(tracer.start)} written to {path.relative_to(ROOT)}")
    else:
        metrics = {
            "norm_wall_s": (norm, "s"),
            "setup_s": (statistics.median(n for _, n in setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "pass_frac": (1.0 - tally.fail_frac, "frac"),
        }
        extra = {"wall_s": (statistics.median(w for w, _ in passes), "s"),
                 "raw_setup_s": (statistics.median(w for w, _ in setups), "s"),
                 "fail_frac": (tally.fail_frac, "frac"),
                 "subsets_per_s": (tally.subsets_per_s(), "1/s"),
                 "best_bound": (tally.best_bound(), "bound"),
                 "oracle_gap": (tally.oracle_gap(), "value")}
        for name, (value, unit) in extra.items():
            lines.append(f"# {name} = " + ("n/a on this workload" if value is None
                                             else f"{value!r} {unit}"))
        lines.append("# grid_points_per_s is measured by the traced run (--trace 1)")
        lines.append("# per pass, wall_s/norm_wall_s: "
                     + " ".join(f"{w:.4f}/{n:.4f}" for w, n in passes))
    lines += [f"{name} {value!r} {unit}" for name, (value, unit) in metrics.items()]
    return {
        "lines": lines,
        "result": {
            "correct": tally.correct,
            "attempted": tally.op_attempted,
            "failed": tally.op_failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    pin_threads()
    try:
        cli = import_cli()
    except (SetupError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.workload != "all":
        res = measure(cli, args.workload, args.seed, args.seconds, bool(args.trace))
        print("\n".join(res["lines"]))
        print(json.dumps(res["result"]), flush=True)
        return 0
    # every workload, untraced then traced, under one combined result line
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (False, True):
            res = measure(cli, workload, args.seed, args.seconds, trace)
            print(f"## {workload} trace={int(trace)}")
            print("\n".join(res["lines"]))
            r = res["result"]
            combined["correct"] &= r["correct"]
            combined["attempted"] += r["attempted"]
            combined["failed"] += r["failed"]
            combined["metrics"].update({f"{workload}.{k}": v for k, v in r["metrics"].items()})
    print(json.dumps(combined), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
