#!/usr/bin/env python3
"""qdirac benchmark: one seeded workload per run, every output checked.

    python3 benchmark/run.py --workload corpus_check --seed 1 --seconds 25 --trace 0

It finds the checkout (`src/qdirac`, `corpus/`) from its own location.
With `--trace 0` it reports the end-to-end metrics, with `--trace 1` the
per-module metrics of a run instrumented by `tracing.py`, and writes that
run's spans under `benchmark/out/`.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
OUT = BENCH / "out"
WORKLOADS = ("corpus_check", "qubit_sweep", "traced_laws")
SETUP_SPAWNS = 7     # fresh interpreters timed per run for setup_s
CLI_SPAWNS = 5       # fresh `qdirac check` processes timed per run
SPAWN_TIMEOUT = 120
# Spawned processes start their own SpeedClock (see clock.py) and stop it
# before exiting, since an alarm after Python resets its handlers kills them.
SETUP_CHILD = ("import sys; sys.path.append({bench!r}); from clock import SpeedClock; "
               "c = SpeedClock(); c.start(); m = c.mark(); import qdirac; "
               "print(c.elapsed(m)); c.stop()")
CLI_CHILD = ("import atexit, runpy, sys; sys.path.append({bench!r}); "
             "from clock import SpeedClock; c = SpeedClock(); c.start(); "
             "atexit.register(lambda: (c.stop(), print(c.scale(), file=sys.stderr))); "
             "sys.argv = {argv!r}; "
             "runpy.run_module('qdirac.cli', run_name='__main__', alter_sys=True)")


# --- measurement ---------------------------------------------------------------


def spawn(code: str, env) -> tuple[float, subprocess.CompletedProcess]:
    """Run `python -c code` to its exit: (wall seconds, result)."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=SPAWN_TIMEOUT)
    return time.perf_counter() - start, proc


def measure_setup(env) -> float:
    """Median time of `import qdirac` in fresh interpreters; the first is a warm-up."""
    times = []
    for k in range(SETUP_SPAWNS + 1):
        _, proc = spawn(SETUP_CHILD.format(bench=str(BENCH)), env)
        if proc.returncode != 0:
            raise RuntimeError(f"import qdirac failed: {proc.stderr.strip()}")
        if k:
            times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def measure_cli(w, env, problems) -> float:
    """Median wall time of a fresh `qdirac check` process, spawn to exit,
    scaled by the speed the process's own clock saw."""
    OUT.mkdir(exist_ok=True)
    paths = []
    for name, text in w.cli_files:
        path = OUT / f"{w.name}_{name}"
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    argv = ["qdirac", "check", "--json", *paths]
    if not w.oracle:
        argv += ["--oracle", "off"]
    code = CLI_CHILD.format(bench=str(BENCH), argv=argv)
    times = []
    for _ in range(CLI_SPAWNS):
        seconds, proc = spawn(code, env)
        if proc.returncode not in (0, 1):
            problems.append(f"qdirac check exited {proc.returncode}: {proc.stderr.strip()}")
            continue
        times.append(seconds * float(proc.stderr.split()[-1]))
        for f in json.loads(proc.stdout)["files"]:
            name = Path(f["path"]).name[len(w.name) + 1:]
            for r in f["results"]:
                want = w.known[(name, r["name"])]
                if r["verdict"] != want:
                    problems.append(f"cli {name}:{r['name']}: {r['verdict']}, want {want}")
    if not times:
        raise RuntimeError("; ".join(problems))
    return statistics.median(times)


def percentile(values, q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(loop, setup_s, check_wall_s, peak_rss_mb) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "check_wall_s": (check_wall_s, "s"),
        "verdicts_per_s": (len(loop.verdict_ms) / loop.verdict_s, "1/s"),
        "verdict_ms_p50": (statistics.median(loop.verdict_ms), "ms"),
        "verdict_ms_p95": (percentile(loop.verdict_ms, 95), "ms"),
        "normalize_ms_p50": (statistics.median(loop.normalize_ms), "ms"),
        "normalize_ms_p95": (percentile(loop.normalize_ms, 95), "ms"),
        "exprs_per_s": (len(loop.normalize_ms) / loop.normalize_s, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def report_trace(tracer, loop, span_file: Path) -> None:
    """Print the traced loop's rates and self time per span name; write the spans."""
    print(f"traced loop: {len(loop.verdict_ms) / loop.verdict_s:.4g} verdicts/s, "
          f"{len(loop.normalize_ms) / loop.normalize_s:.4g} exprs/s")
    for name, seconds in sorted(tracer.self_times().items()):
        print(f"self time {name}: {seconds / loop.rounds:.6f} s per round")
    OUT.mkdir(exist_ok=True)
    tracer.write(span_file)
    print(f"spans: {len(tracer.spans)} written to {span_file.relative_to(ROOT)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qdirac" / "__init__.py").is_file() or not CORPUS.is_dir():
        print(f"error: {ROOT} holds no qdirac checkout (src/qdirac and corpus/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = dict(os.environ, PYTHONPATH=str(SRC))

    import workloads
    from clock import REFERENCE_PROBE_S, SpeedClock
    from loop import Loop
    from qdirac.corpus import RunConfig
    from tracing import Tracer

    w = workloads.build(args.workload, args.seed, CORPUS)
    problems: list[str] = []
    clock = SpeedClock()
    loop = Loop(w, RunConfig(oracle=w.oracle), clock)
    if args.trace:
        # Per-module times are plain wall times of an instrumented run.
        tracer = Tracer()
        loop.warm_up()
        tracer.install()
        try:
            loop.run(args.seconds, tracer)
        finally:
            tracer.uninstall()
    else:
        setup_s = measure_setup(env)
        check_wall_s = measure_cli(w, env, problems)
        clock.start()
        try:
            loop.warm_up()
            loop.run(args.seconds)
        finally:
            clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    import checks  # loads numpy, so only after peak memory is read
    problems += loop.problems + checks.check(w, loop)
    for p in problems:
        print(f"CHECK FAILED: {p}")
    print(f"workload {w.name} seed {args.seed}: {loop.rounds} round(s), "
          f"{len(loop.verdict_ms)} verdicts, {len(loop.normalize_ms)} normalizations, "
          f"attempted {loop.attempted}, failed {loop.failed}")
    if args.trace:
        metrics = tracer.per_layer(loop.rounds, loop.oracle_skipped)
        report_trace(tracer, loop, OUT / f"spans_{w.name}_seed{args.seed}.jsonl")
    else:
        metrics = end_to_end(loop, setup_s, check_wall_s, peak_rss_mb)
        print(f"clock: {clock.samples} probes, mean {clock.probe_s / clock.samples * 1e6:.1f} us "
              f"(reference {REFERENCE_PROBE_S * 1e6:.1f} us)")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
