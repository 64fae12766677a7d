"""Command-line interface, report serialization and run persistence.

Exit codes: 0 success, 1 a bound or invariant violation in the outputs,
2 invalid input.  Each ``_cmd_*`` handler returns its payload, its violation
flag and its envelope fields, and ``run`` alone writes the report and turns the
flag into exit 1: a violation is always a flag in a written report.  Only a
broken internal invariant (``UnimodalityViolation``) exits 1 without a report.
Reports carry a ``schema`` field and split deterministic content
(``payload``) from timestamps (``meta``) so repeated runs with the same seed
are byte-identical where it matters.  The solver commands (``solve``,
``continuous``, ``selftest``) import their modules, and with them numpy and
scipy, when they run, so the exact commands start without the float stack.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import Counter
from dataclasses import asdict
from fractions import Fraction

from . import __version__
from .constants import (
    continuous_upper_bound_m1,
    diagonal_profile,
    envelope_value,
    optimal_constant,
    optimal_constant_d,
    verify_sharpness,
)
from .errors import ConvmaxError, UnimodalityViolation
from .gridfn import GridFn, ratio
from . import pb
from .sidon import CubeSet, enumerate_verify, max_size_g_sidon, verify_bound

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2


def _wrap(argv, payload, config=None, seed=None, meta=None) -> dict:
    """The report envelope; ``meta`` adds run-dependent fields such as wall times."""
    return {
        "schema": SCHEMA_VERSION,
        "command": list(argv),
        "config": config,
        "seed": seed,
        "payload": payload,
        "meta": {"timestamp": time.time(), "version": __version__, **(meta or {})},
    }


def export_report(payload, fmt: str = "json") -> bytes:
    """Serialize a report payload with stable field ordering."""
    if fmt == "json":
        return (json.dumps(payload, indent=2) + "\n").encode()
    if fmt == "text":
        return (_to_text(payload) + "\n").encode()
    raise ValueError(f"unsupported format {fmt!r}")


def _to_text(obj, indent: int = 0) -> str:
    """A report dict, or a list inside one, as indented lines.

    Nested containers in a list, and empty ones anywhere, print as JSON.
    """
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for key, val in obj.items():
            if isinstance(val, (dict, list)) and not val:
                lines.append(f"{pad}{key}: {json.dumps(val)}")
            elif isinstance(val, (dict, list)):
                lines.append(f"{pad}{key}:")
                lines.append(_to_text(val, indent + 1))
            else:
                lines.append(f"{pad}{key}: {val}")
        return "\n".join(lines)
    return "\n".join(f"{pad}- {json.dumps(v) if isinstance(v, (dict, list)) else v}"
                     for v in obj)


def _rational(x: Fraction) -> dict:
    return {"exact": str(x), "decimal": float(x)}


def _solver_meta(results) -> dict:
    """The SLSQP work of the ``MinimaxResult``s, summed for ``meta``; exact results ran none."""
    status = Counter()
    for res in results:
        status.update(res.slsqp_status)
    return {"starts": sum(status.values()),
            "slsqp_status": {str(mode): n for mode, n in sorted(status.items())},
            "slsqp_calls": sum(res.slsqp_calls for res in results),
            "slsqp_rounds": sum(res.slsqp_rounds for res in results)}


def _emit(report: dict, fmt: str, out: str | None, render=None) -> None:
    """Write the report; ``render()`` gives the command's own ``csv``/``plotdata`` text."""
    data = render().encode() if fmt in ("csv", "plotdata") else export_report(report, fmt)
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.buffer.write(data)
        sys.stdout.buffer.flush()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_constant(args):
    if args.format == "plotdata" and not args.profile:
        raise ValueError("--format plotdata needs --profile")
    payload = {
        "k": args.k,
        "d": args.d,
        "constant": _rational(optimal_constant_d(args.k, args.d)),
        "constant_1d": _rational(optimal_constant(args.k)),
    }
    if args.k >= 2:
        payload["continuous_upper_bound_m1"] = _rational(continuous_upper_bound_m1(args.k))
    violation = False
    if args.profile:
        prof = diagonal_profile(args.k)
        payload["profile"] = {
            "breakpoints": [str(b) for b in prof.breakpoints],
            "piece_index": prof.piece_index,
            "envelope_min": _rational(prof.envelope_min_value),
            "envelope_min_locations": [str(x) for x in prof.envelope_min_locations],
        }
        samples = 1000
        rows = []
        for t in range(samples + 1):
            x = Fraction(t, samples)
            rows.append(f"{float(x)} {float(envelope_value(args.k, x))}")
        payload["plotdata"] = "\n".join(rows) + "\n"
        violation |= prof.envelope_min_value != optimal_constant(args.k)
    if args.sharpness:
        cert = verify_sharpness(args.k, args.d)
        payload["sharpness"] = {
            "lhs": _rational(cert.lhs),
            "rhs": _rational(cert.rhs),
            "passed": cert.passed,
        }
        violation |= not cert.passed
    return payload, violation, {"render": lambda: payload["plotdata"]}


def _cmd_solve(args):
    from .minimax import SolverConfig, diagonal_constant, general_constant, grid_oracle

    cfg = SolverConfig(multistarts=args.multistarts, seed=args.seed)
    meta = {}
    # the exact oracle first: an over-budget --grid is rejected before any solve
    oracle = None
    if args.grid is not None:
        t0 = time.perf_counter()
        oracle = grid_oracle(args.k, args.m, args.grid, diagonal=args.mode == "diagonal")
        meta["oracle_s"] = time.perf_counter() - t0
        meta["oracle_folds"] = oracle.folds
    t0 = time.perf_counter()
    if args.mode == "diagonal":
        res = diagonal_constant(args.k, args.m, cfg)
    else:
        res = general_constant(args.k, args.m, cfg)
    meta["solve_s"] = time.perf_counter() - t0
    meta.update(_solver_meta([res]))
    payload = {"result": res.to_dict()}
    # independent recomputation of the reported argument
    fns = [GridFn(1, args.m, w) for w in (res.argument * args.k
                                          if res.diagonal else res.argument)]
    recomputed = float(ratio(fns[: args.k]))
    payload["recomputed_value"] = recomputed
    violation = abs(recomputed - res.value) > 1e-10
    if oracle is not None:
        payload["grid_oracle"] = oracle.to_dict()
        violation |= res.value > float(oracle.grid_min) + 1e-9
    return payload, violation, {"config": asdict(cfg), "seed": args.seed, "meta": meta}


def _parse_probs(text: str):
    toks = [t.strip() for t in text.split(",") if t.strip()]
    if not toks:
        raise ValueError("empty probability list")
    if all(("/" in t or t in ("0", "1")) for t in toks):
        try:
            return [Fraction(t) for t in toks]
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    if any("/" in t for t in toks):
        raise ValueError(f"{text!r} mixes exact ('p/q') and decimal tokens; use one kind")
    return [float(t) for t in toks]


def _cmd_pb(args):
    p = _parse_probs(args.p)
    dist = pb.pb_pmf(p)
    exact = dist.is_exact
    num = str if exact else float   # exact values as 'p/q' strings, floats as JSON numbers
    mode, shared = pb.pb_mode(dist)
    ulc = pb.check_ultra_log_concave(dist)
    payload = {
        "p": [str(x) for x in p],
        "exact": exact,
        "pmf": [num(v) for v in dist.pmf],
        "mode": {"index": mode, "shared": shared},
        "ultra_log_concave": {
            "ok": ulc.ultra_ok,
            "plain_ok": ulc.plain_ok,
            "worst_margin": num(ulc.worst_ultra),
        },
    }
    violation = not (ulc.ultra_ok and ulc.plain_ok)
    if dist.k >= 3:
        newton = pb.check_newton_differences(dist)
        payload["newton_differences"] = {"ok": newton.ok, "worst_margin": num(newton.worst)}
        violation |= not newton.ok
    payload["likelihood_ratios"] = [None if r is None else num(r)
                                    for r in pb.likelihood_ratios(dist)]
    try:
        residuals = pb.lagrange_residuals(p)
    except pb.BoundaryParameter:
        residuals = {}
    payload["lagrange_residuals"] = {str(i): num(r) for i, r in residuals.items()}
    return payload, violation, {}


def _cmd_sidon_verify(args):
    t0 = time.perf_counter()
    summary = enumerate_verify(args.d, args.k, args.samples, args.seed)
    meta = {"sweep_s": time.perf_counter() - t0, "orbits": summary.orbits,
            "peaks": summary.peaks}
    return summary.to_dict(), summary.failures > 0, {"seed": args.seed, "meta": meta}


def _cmd_sidon_classify(args):
    with open(args.set) as fh:
        A = CubeSet.parse(fh.read())
    rep = verify_bound(A, args.k)
    return rep.to_dict(), not rep.passed, {}


def _cmd_sidon_search(args):
    t0 = time.perf_counter()
    res = max_size_g_sidon(args.d, args.k, args.g, args.samples, args.seed)
    meta = {"search_s": time.perf_counter() - t0, "nodes": res.nodes}
    return res.to_dict(), res.best_size > res.size_cap, {"seed": args.seed, "meta": meta}


def _cmd_continuous(args):
    if args.export_steps is not None and not 1 <= args.export_steps <= args.m_max:
        raise ValueError(f"--export-steps must be in 1..{args.m_max} (--m-max), "
                         f"got {args.export_steps}")
    from .continuous import step_function_export, upper_bound_sequence
    from .minimax import SolverConfig

    cfg = SolverConfig(multistarts=args.multistarts, seed=args.seed)
    t0 = time.perf_counter()
    table = upper_bound_sequence(args.k, args.m_max, cfg)
    meta = {"table_s": time.perf_counter() - t0,
            **_solver_meta([row.result for row in table.rows])}
    payload = table.to_dict()
    if args.export_steps is not None:
        row = table.rows[args.export_steps - 1]
        payload["step_function"] = step_function_export(row.result.argument[0], args.k).to_dict()
    # a bound below the literature floor (k = 2) is wrong, and the report shows both
    violation = table.known_lower is not None and table.best_bound < table.known_lower
    return payload, violation, {"config": asdict(cfg), "seed": args.seed, "meta": meta,
                                "render": table.to_csv}


def _cmd_selftest(args):
    from .selftest import run_selftest

    payload = run_selftest(args.seed)
    return payload, not payload["passed"], {"seed": args.seed}


# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="convmax",
        description="Optimal constants for suprema of k-fold convolutions on discrete cubes",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, *formats):
        # only the formats the command can render, so a bad --format exits 2 before any work
        p.add_argument("--format", choices=["json", "text", *formats], default="json")
        p.add_argument("--out", default=None, help="write the report to a file")

    p = sub.add_parser("constant", help="closed forms, diagonal profile, sharpness")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--profile", action="store_true")
    p.add_argument("--sharpness", action="store_true")
    common(p, "plotdata")
    p.set_defaults(func=_cmd_constant)

    p = sub.add_parser("solve", help="minimax solvers for C_{k,m} and Cbar_{k,m}")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--mode", choices=["diagonal", "general"], default="diagonal")
    p.add_argument("--grid", type=int, default=None, help="also run the exact grid oracle")
    p.add_argument("--multistarts", type=int, default=64, metavar="N",
                   help="SLSQP starts: the 2 built-in starts always run, then seeded "
                        "random starts pad them to N")
    p.add_argument("--seed", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("pb", help="Poisson-binomial pmf and structural checks")
    p.add_argument("--p", required=True, help="comma list: floats or exact 'p/q' rationals")
    common(p)
    p.set_defaults(func=_cmd_pb)

    p = sub.add_parser("sidon", help="representation counts and Sidon verification")
    s2 = p.add_subparsers(dest="action", required=True)
    pv = s2.add_parser("verify")
    pv.add_argument("--d", type=int, required=True)
    pv.add_argument("--k", type=int, required=True)
    pv.add_argument("--samples", type=int, default=1000)
    pv.add_argument("--seed", type=int, default=0)
    common(pv)
    pv.set_defaults(func=_cmd_sidon_verify)
    pc = s2.add_parser("classify")
    pc.add_argument("--set", required=True, help="set file, one 0/1 point per line")
    pc.add_argument("--k", type=int, required=True)
    common(pc)
    pc.set_defaults(func=_cmd_sidon_classify)
    ps = s2.add_parser("search")
    ps.add_argument("--d", type=int, required=True)
    ps.add_argument("--k", type=int, required=True)
    ps.add_argument("--g", type=int, required=True)
    ps.add_argument("--samples", type=int, default=1000,
                    help="d > 4: budget of engine adds for the seeded walk; "
                         "exhaustive means the walk finished within it")
    ps.add_argument("--seed", type=int, default=0)
    common(ps)
    ps.set_defaults(func=_cmd_sidon_search)

    p = sub.add_parser("continuous", help="upper bounds for the continuous constant")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m-max", dest="m_max", type=int, default=1)
    p.add_argument("--multistarts", type=int, default=16, metavar="N",
                   help="SLSQP starts per row m >= 2, each row solved as by solve --mode "
                        "diagonal: the 2 built-in starts always run, then seeded random "
                        "starts pad them to N")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--export-steps", type=int, default=None,
                   help="also export the step function of table row m (1..--m-max)")
    common(p, "csv")
    p.set_defaults(func=_cmd_continuous)

    p = sub.add_parser("selftest", help="run the deterministic self-check battery")
    p.add_argument("--seed", type=int, default=42)
    common(p)
    p.set_defaults(func=_cmd_selftest)

    return parser


def run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0,) else 0
    try:
        payload, violation, envelope = args.func(args)
        render = envelope.pop("render", None)
        _emit(_wrap(argv, payload, **envelope), args.format, args.out, render)
    except UnimodalityViolation as e:
        # a broken invariant, not bad input, and the one violation with no report
        print(f"unimodality violation: {e}", file=sys.stderr)
        return EXIT_VIOLATION
    except (ConvmaxError, ValueError, TypeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_VIOLATION if violation else EXIT_OK


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
