"""Self-test of the benchmark harness at small sizes (about a minute).

    python3 perfbench/selfcheck.py

It asserts four things:

- every metric named in ``BENCHMARK.json`` is reported, with its unit, in the
  result object and in the printed lines of every workload, with tracing off
  and on;
- the known general-solver defect shows as a soft failure on
  ``solve-oracle``: ``fail_frac`` > 0 while the run stays correct;
- a deliberately corrupted reference makes ``fail_frac`` > 0 and the run
  incorrect, so the checker cannot pass vacuously;
- in a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads


def _metric_lines(res: dict, spec: list) -> None:
    metrics = res["result"]["metrics"]
    assert set(metrics) == {m["name"] for m in spec}, sorted(set(metrics) ^ {m["name"] for m in spec})
    for m in spec:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got["unit"], m["unit"])
        assert isinstance(got["value"], (int, float)), m["name"]
        assert f"{m['name']} {got['value']!r} {m['unit']}" in res["lines"], m["name"]


def _fail_frac(res: dict) -> float:
    line = next(x for x in res["lines"] if x.startswith("# fail_frac = "))
    return float(line.split()[3])


def check_metrics(cli, spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            res = run.measure(cli, workload, 7, 0, trace, small=True)
            assert res["result"]["correct"], (workload, trace, res["lines"])
            assert res["result"]["failed"] == 0 and res["result"]["attempted"] > 0
            _metric_lines(res, spec[key])
            if not trace:
                defect = workload == "solve-oracle"
                assert (_fail_frac(res) > 0) == defect, (workload, res["lines"])
                assert (res["result"]["metrics"]["pass_frac"]["value"] < 1) == defect
        print(f"ok: {workload} reports every metric with its unit")


def check_corrupted_reference(cli) -> None:
    ref = workloads.SIDON_VERIFY[(3, 2)]
    saved = ref["failures"]
    ref["failures"] = saved + 1
    try:
        res = run.measure(cli, "sidon", 7, 0, False, small=True)
    finally:
        ref["failures"] = saved
    assert _fail_frac(res) > 0 and not res["result"]["correct"], res["lines"]
    print("ok: a corrupted reference gives fail_frac > 0 and correct = false")


def check_bare_directory() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "sidon",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok: without the sources the benchmark exits", proc.returncode, "and prints no result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    run.pin_threads()
    cli = run.import_cli()
    check_metrics(cli, spec)
    check_corrupted_reference(cli)
    check_bare_directory()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
