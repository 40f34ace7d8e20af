"""The reproduction's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload paper-timeline --seed 1 \\
        --seconds 30 --trace 0

Runs from the root of a checkout of the repository.  Every measurement
happens in a replica of one scenario instance: a single-threaded process
forked by a worker process (``worker.py``), with its own ``ru_maxrss``:

* ``--trace 0`` runs a fixed number of replicas: ``--seconds`` over the
  workload's instance budget (``spec.json``), at least one.  It reports
  the end-to-end metrics, timed from each round's median wall time over
  the replicas;
* ``--trace 1`` runs one replica untraced and the same instance again
  with span tracing, and reports the per-layer metrics; the ratio of the
  two runs' throughput is ``trace.overhead``.

Prints every metric by name and unit, writes the full record (metrics,
output checks, exact fingerprint, environment) to
``perfbench/results/``, and ends with one JSON line: ``correct``,
``attempted``, ``failed`` and the metrics ``BENCHMARK.json`` declares for
the mode.  Exits non-zero without a result when the checkout holds no
``src/repro`` or the worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402

ROOT = HERE.parent
RESULTS = HERE / "results"
#: A run must end within 180 s; the workers share what is left of it.
DEADLINE_S = 170.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def pin_threads() -> dict:
    """Pin BLAS/OpenMP to one thread in this process and its workers."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return dict(os.environ)


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"rev": None, "dirty": None, "note": "not a git checkout"}

    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            timeout=30, check=True,
        ).stdout.strip()

    try:
        return {
            "rev": git("rev-parse", "HEAD"),
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        }
    except (OSError, subprocess.SubprocessError) as exc:
        return {"rev": None, "dirty": None, "note": f"git failed: {exc}"}


def run_worker(args, started: float, *extra: str) -> list:
    """Run one worker process to completion and return its replicas'
    records.  On a timeout, kill its whole process group (the worker and
    its replica child) and wait for it."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--scale", args.scale, *extra,
    ]
    if args.fault:
        cmd += ["--fault", args.fault]
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise BenchError("no time left for the worker")
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=args.env, stdout=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=left)
    except subprocess.TimeoutExpired as exc:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker timed out after {left:.0f}s") from exc
    finally:
        wait_group_gone(proc.pid)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise BenchError("worker printed no record")
    return json.loads(lines[-1])


def wait_group_gone(pgid: int, limit_s: float = 10.0) -> None:
    """Wait until no process of the group is left (a killed replica
    child is reaped by init once the worker is gone)."""
    end = time.monotonic() + limit_s
    while time.monotonic() < end:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def round_medians(done: list) -> list:
    """Per-round wall times (ms) of a run's replicas, each the median
    over them: a round that another tenant of the host slowed in fewer
    than half the replicas is timed from the others."""
    return [statistics.median(w) for w in zip(*(i["walls_ms"] for i in done))]


def end_to_end(records: list) -> dict:
    """End-to-end metrics as ``name -> (value, unit)``.  The timings come
    from the per-round wall times of the run's replicas, each round's
    median over the replicas; set-up time and peak RSS are medians."""
    median = statistics.median
    done = [r["instance"] for r in records if "walls_ms" in r["instance"]]
    setups = [t for r in records for t in r["setup_samples"]]
    out = {}
    if setups:
        out["setup_s"] = (median(setups), "s")
    if done:
        walls = round_medians(done)
        first = done[0]
        out["node_rounds_per_s"] = (
            first["node_rounds"] / (sum(walls) / 1e3), "node-rounds/s"
        )
        out["round_ms_p50"] = (median(walls), "ms")
        tail, pct, beyond = tracing.tail(walls)
        out["round_ms_tail"] = (tail, "ms")
        out["round_ms_tail.percentile"] = (pct, "%")
        out["round_ms_tail.beyond"] = (beyond, "rounds")
        out["rounds"] = (len(walls), "rounds")
        out["replicas"] = (len(done), "count")
        if first.get("reshape_s") is not None:
            crash = first["crash_round"]
            reshape = first["reshape_rounds"]
            out["reshape_s"] = (sum(walls[crash : crash + reshape]) / 1e3, "s")
            out["reshape_rounds"] = (reshape, "rounds")
        out["points_surviving"] = (first["points_surviving"], "fraction")
    out["peak_rss_mb"] = (median(r["peak_rss_mb"] for r in records), "MB")
    failed = sum(1 for r in records if r["instance"]["problems"])
    out["failed_ratio"] = (failed / len(records), "fraction")
    return out


def measure(args, spec: dict, started: float) -> dict:
    """The run's record: its replica records and the reported metrics.

    An untraced run runs one scenario instance a fixed number of times,
    ``--seconds`` over the workload's instance budget, so the work per
    run is the same on every commit."""
    if args.trace == 0:
        budget = spec["workloads"][args.workload]["instance_budget_s"]
        count = max(1, int(args.seconds // budget))
        repeats = -(-spec["setup_repeats"] // count)
        records = run_worker(
            args, started, "--replicas", str(count),
            "--setup-repeats", str(repeats),
        )
        metrics = end_to_end(records)
    else:
        spans = RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl"
        records = [
            *run_worker(args, started),
            *run_worker(args, started, "--trace", "--spans-out", str(spans)),
        ]
        rates = [r["instance"].get("node_rounds_per_s") for r in records]
        metrics = dict(records[1].get("layer_metrics", {}))
        if all(rates):
            metrics["trace.overhead"] = (rates[1] / rates[0] - 1.0, "ratio")
    problems = []
    if args.trace:
        if (records[0]["fingerprint"]["state_digest"]
                != records[1]["fingerprint"]["state_digest"]):
            problems.append(
                "tracing changed the trajectory (state digests differ)"
            )
    elif len({json.dumps(r["fingerprint"], sort_keys=True) for r in records}) > 1:
        problems.append("the run's replicas diverged (fingerprints differ)")
    return {
        "metrics": metrics,
        "attempted": len(records),
        "failed": sum(1 for r in records if r["instance"]["problems"]),
        "problems": problems,
        "workers": records,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny: a small torus and a few rounds, for the self-test",
    )
    parser.add_argument(
        "--fault", default=None,
        help="corrupt a view after the run, to show the checks catch it",
    )
    args = parser.parse_args(argv)
    started = time.monotonic()

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    if not bench_file.is_file():
        print(f"perfbench: no BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = spec["default_seed"]
    if args.seconds is None:
        args.seconds = bench["run_seconds"]
    args.env = pin_threads()
    RESULTS.mkdir(exist_ok=True)

    env_record = {
        "git": git_state(),
        "host": socket.gethostname(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        "python": platform.python_version(),
        "seed": args.seed,
        "threads": {var: args.env[var] for var in THREAD_VARS},
    }
    try:
        record = measure(args, spec, started)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    env_record["loadavg_after"] = os.getloadavg()
    env_record["numpy"] = record["workers"][0]["numpy"]
    record["environment"] = env_record
    record["args"] = {k: v for k, v in vars(args).items() if k != "env"}

    declared = bench["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in record["metrics"]]
    problems = record["problems"]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    correct = record["failed"] == 0 and not problems
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"record={out.relative_to(ROOT)}")
    for name, (value, unit) in record["metrics"].items():
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            m["name"]: {"value": record["metrics"][m["name"]][0], "unit": m["unit"]}
            for m in declared if m["name"] in record["metrics"]
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
