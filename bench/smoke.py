"""Smoke test of the benchmark itself, at tiny sizes (about a minute):

    python3 bench/smoke.py

For every workload in BENCHMARK.json it checks that the untraced run prints
exactly the end-to-end metrics and the traced run exactly the per-layer
metrics, each with the unit the file gives it; that two traced runs of one
seed report the same work counts; and that the benchmark refuses to run
without the cogmap sources.  Output checks that fail at these sizes are
reported but do not fail the smoke test: it tests the harness, and the
full-size runs are where ``correct`` counts.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("paths.paths", "influence.pairs", "impulse.steps", "impulse.refused")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", "7",
           "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def check_metrics(res: dict, group: str) -> list[str]:
    problems = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(res)}")
    if not (isinstance(res["attempted"], int) and res["attempted"] >= 1 and isinstance(res["failed"], int)):
        problems.append(f"attempted={res['attempted']!r} failed={res['failed']!r}")
    want = {m["name"]: m["unit"] for m in SPEC[group]}
    got = {name: m.get("unit") for name, m in res["metrics"].items()}
    if got != want:
        problems.append(f"{group} metrics differ: missing {sorted(set(want) - set(got))}, "
                        f"extra {sorted(set(got) - set(want))}, "
                        f"wrong units {sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
    for name, m in res["metrics"].items():
        if set(m) != {"value", "unit"} or not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"]):
            problems.append(f"{name}: {m}")
    return problems


def main() -> int:
    problems = []
    # cli_fixtures is not in BENCHMARK.json's list, but it is kept runnable by hand
    for wl in [w["name"] for w in SPEC["workloads"]] + ["cli_fixtures"]:
        res, _ = result(run(wl, 0))
        problems += [f"{wl} trace 0: {p}" for p in check_metrics(res, "end_to_end")]
        traced = [result(run(wl, 1)) for _ in range(2)]
        problems += [f"{wl} trace 1: {p}" for p in check_metrics(traced[0][0], "per_layer")]
        counts = [{c: r["metrics"][c]["value"] for c in COUNTS} for r, _ in traced]
        if counts[0] != counts[1]:
            problems.append(f"{wl}: work counts differ between runs of one seed: {counts}")
        for r, detail in [(res, None)] + traced:
            if not r["correct"]:
                print(f"note: {wl}: {r['failed']} of {r['attempted']} ops failed their check at tiny size"
                      + (f": {detail['failures'][0].splitlines()[-1]}" if detail and detail["failures"] else ""))
        print(f"{wl}: {counts[0]}")

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(bare) / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(SPEC["workloads"][0]["name"], 0, cwd=Path(bare))
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without src/cogmap: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")

    for p in problems:
        print("FAIL:", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
