"""cogmap benchmark: one seeded workload in a closed loop, outputs checked.

    python3 bench/run.py --workload dense_paths --seed 1 --seconds 36 --trace 0

Run from anywhere inside a checkout that has ``src/cogmap``.  One client
runs one op at a time for ``--seconds`` of summed op time (workloads with
a fixed mix finish their last cycle of ops); every op's output is checked
against independent references.  The last line of stdout is the result
object; the line before it carries provenance and the bases of every ratio.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones (see README.md).
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # setup_s counts from here, before numpy or cogmap are imported

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib.metadata  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5  # setup_s is the median of this many set-ups: this process and fresh ones
TAIL_BEYOND = 10  # op_tail_ms is the highest percentile with this many samples above it
HARD_CAP_S = 90  # a timed loop never runs longer than this, finished cycle or not
MAX_REPORTED_FAILURES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=["dense_paths", "sparse_chain", "cli_fixtures", "spectral"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full", help="tiny is for the smoke test")
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def provenance(args) -> dict:
    """Where and on what the run happened; ``src_sha256`` identifies the source
    also in a checkout that is not a git repository."""
    sha = None
    if (ROOT / ".git").exists():  # never let git search the directories above the checkout
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "cogmap").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "trace": bool(args.trace),
    }


def repeat_setup(args) -> list[float]:
    """Set-up times of fresh processes running the same seed."""
    out = []
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--size", args.size, "--setup-only"],
            capture_output=True, text=True, cwd=ROOT, timeout=60, check=True,
        )
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest sample with TAIL_BEYOND samples above it."""
    ordered = sorted(times)
    k = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[k - 1], 100.0 * k / len(ordered)


class Loop:
    """The closed loop: one op at a time, its output checked before the next."""

    def __init__(self, wl, tracer, probe: bool):
        self.wl, self.tracer, self.probe = wl, tracer, probe
        self.times: list[float] = []
        self.failures: list[str] = []
        self.failed = 0

    def one(self, i: int) -> tuple[bool, float]:
        """Run, check and (traced) probe op ``i``; return (passed, op seconds)."""
        wl, tracer = self.wl, self.tracer
        key = wl.op_key(i)
        t = time.perf_counter()
        dt = None
        try:
            with tracer.span("op", i, key):
                out = wl.run_op(i, tracer.call)
                dt = time.perf_counter() - t
            wl.check(i, out)
            if self.probe:
                with tracer.span("probe", i, key):
                    wl.probe(i, tracer.call)
            return True, dt
        except Exception:  # any failure of an op counts against it; the loop goes on
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(f"op {i} ({key}): {traceback.format_exc(limit=-2)}")
            return False, time.perf_counter() - t if dt is None else dt

    def run(self, seconds: float) -> float:
        """Loop for ``seconds`` of op time (wall time when probing); return op seconds."""
        busy = 0.0
        start = time.perf_counter()
        i = 0
        while True:
            elapsed = time.perf_counter() - start
            spent = elapsed if self.probe else busy
            if spent >= seconds and not (self.wl.whole_cycles and i % self.wl.cycle):
                break
            if elapsed > HARD_CAP_S:
                break
            ok, dt = self.one(i)
            self.times.append(dt)
            self.failed += not ok
            busy += dt
            i += 1
        return busy


def run(args) -> dict:
    import tracing
    import workloads

    wl_cls = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else tracing.NullTracer()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        wl = wl_cls(args.seed, args.size, ROOT, workdir)
        if wl.in_process or args.trace:
            wl.load_program()
        warm = Loop(wl, tracing.NullTracer(), probe=False)
        warm_ok, _ = warm.one(0)
        setup_s = time.perf_counter() - T0
        if args.setup_only:
            return {"setup_s": setup_s}

        loop = Loop(wl, tracer, probe=bool(args.trace))
        busy = loop.run(args.seconds)
        attempted = len(loop.times)
        detail = {
            "provenance": provenance(args),
            "ops_per_cycle": wl.cycle,
            "whole_cycles": wl.whole_cycles,
            "failures": warm.failures + loop.failures,
        }
        if args.trace:
            metrics = layer_metrics(wl, tracer, attempted, detail)
            trace_file = ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.json"
            trace_file.write_text(json.dumps(tracer.dump()))
            detail["spans"] = {"count": len(tracer.spans), "file": str(trace_file.relative_to(ROOT))}
        else:
            rss_who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
            peak_rss_mb = resource.getrusage(rss_who).ru_maxrss / 1024.0  # ru_maxrss is in KiB
            setups = [setup_s] + repeat_setup(args)
            tail_ms, tail_pct = tail(loop.times)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "ops_per_s": (attempted / busy, "1/s"),
                "op_p50_ms": (statistics.median(loop.times) * 1e3, "ms"),
                "op_tail_ms": (tail_ms * 1e3, "ms"),
                "success_ratio": ((attempted - loop.failed) / attempted, "ratio"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
            detail.update(
                setup_samples_s=setups,
                op_tail_percentile=tail_pct,
                op_samples=attempted,
                peak_rss_of="largest cogmap subprocess" if not wl.in_process else "this process",
                bases={
                    "ops_per_s": {"ops": attempted, "summed_op_seconds": busy},
                    "success_ratio": {"passed": attempted - loop.failed, "attempted": attempted},
                },
            )
        print(json.dumps({"detail": detail}))
        return {
            "correct": warm_ok and loop.failed == 0,
            "attempted": attempted,
            "failed": loop.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def layer_metrics(wl, tracer, attempted: int, detail: dict) -> dict:
    counts, paths_of = wl.counts()

    def per_path_us(name):
        spans = tracer.keyed(name)
        return 1e6 * sum(d for d, _ in spans) / sum(paths_of[wl.path_key(k)] for _, k in spans)

    def ms(name):
        return tracer.median(name) * 1e3, "ms"

    def s(name):
        return tracer.median(name), "s"

    ops_seconds = sum(tracer.durations("op"))
    self_s = tracer.self_seconds()
    metrics = {
        "maps.load_ms": ms("maps.load"),
        "maps.closure_ms": ms("maps.closure"),
        "paths.enumerate_s": s("paths.enumerate"),
        "paths.list_ms": ms("paths.list"),
        "paths.paths": (counts["paths.paths"], "count"),
        "paths.us_per_path": (per_path_us("paths.enumerate"), "us"),
        "influence.matrix_t1_s": s("influence.matrix_t1"),
        "influence.matrix_t2_s": s("influence.matrix_t2"),
        "influence.accumulate_s": s("influence.accumulate"),
        "influence.pairs": (counts["influence.pairs"], "count"),
        "influence.us_per_path": (per_path_us("influence.matrix_t1"), "us"),
        "influence.scores_ms": ms("influence.scores"),
        "kosko.total_ms": ms("kosko.total"),
        "eigen.eigenvalues_ms": ms("eigen.eigenvalues"),
        "impulse.stability_ms": ms("impulse.stability"),
        "impulse.scores_ms": ms("impulse.scores"),
        "impulse.steps": (counts["impulse.steps"], "count"),
        "impulse.refused": (counts["impulse.refused"], "count"),
        "cli.interp_ms": ms("cli.interp"),
        "cli.import_ms": ms("cli.import"),
        "cli.main_ms": ms("cli.main"),
        "trace.ops_per_s": (attempted / ops_seconds, "1/s"),
    }
    for layer in ("maps", "paths", "influence", "kosko", "eigen", "impulse", "cli", "bench"):
        metrics[f"self.{layer}_ms"] = (self_s.get(layer, 0.0) * 1e3 / attempted, "ms")
    detail["bases"] = {
        "paths.us_per_path": "paths.enumerate time / paths of the maps it ran on",
        "influence.us_per_path": "influence.matrix_t1 time / paths of the maps it ran on",
        "trace.ops_per_s": {"ops": attempted, "summed_op_span_seconds": ops_seconds},
        "self.*_ms": {"layer_self_seconds": self_s, "per_op_of": attempted},
    }
    detail["paths_per_input"] = paths_of
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cogmap" / "__init__.py").is_file():
        print(f"error: no cogmap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
