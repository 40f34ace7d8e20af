"""Replicas of one scenario instance of a benchmark workload.

``run.py`` starts this script with BLAS/OpenMP pinned to one thread.  It
imports the simulator once, then runs each replica of the instance in a
forked child, one after the other, so each has its own ``ru_maxrss``
and starts from the same interpreter state.  A replica builds the
instance through the public
:func:`repro.experiments.scenario.prepare_scenario` (plus
:mod:`repro.runtime.scenarios` churn schedules), advances it with the
public ``Simulation.step`` and checks the outputs after the timed
window.  The script prints the replicas' records as one JSON list, the
last line of its standard output.

    python3 perfbench/worker.py --workload paper-timeline --seed 1 \\
        [--replicas K] [--setup-repeats N] [--trace] [--scale tiny]
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from repro.experiments.scenario import ScenarioConfig, prepare_scenario  # noqa: E402
from repro.metrics.homogeneity import surviving_fraction  # noqa: E402
from repro.metrics.reshaping import reference_homogeneity, reshaping_time  # noqa: E402
from repro.runtime import scenarios as churn  # noqa: E402
from repro.runtime.checkpoint import state_digest  # noqa: E402
from repro.sim import engine as event_engine  # noqa: E402
from repro.sim import batch as batch_engine  # noqa: E402
from repro.sim.batch import backend as kernel_backend  # noqa: E402

import tracer as tracing  # noqa: E402

now = time.perf_counter

#: Faults the self-test injects after the timed window to prove the
#: output checks catch them.
FAULTS = ("duplicate-view", "self-view")


def load_spec() -> dict:
    with open(HERE / "spec.json") as handle:
        return json.load(handle)


class Workload:
    """One named workload of ``spec.json`` at a given scale."""

    def __init__(self, name: str, spec: dict, scale: str) -> None:
        entry = spec["workloads"][name]
        self.engine = entry["engine"]
        self.stop = entry["stop"]
        self.scenario = dict(entry["scenario"])
        self.churn = entry.get("churn")
        if scale == "tiny":
            self.scenario.update(entry["tiny"])
            self.churn = entry.get("tiny_churn", self.churn)
        self.floor = spec["checks"]["points_surviving_floor"][name]

    def config(self, seed: int) -> ScenarioConfig:
        params = dict(self.scenario)
        if "metrics" in params:
            params["metrics"] = tuple(params["metrics"])
        return ScenarioConfig(engine=self.engine, seed=seed, **params)

    def schedule(self, cfg: ScenarioConfig):
        """The churn schedule to install, or ``None``."""
        if not self.churn:
            return None
        trickle = self.churn["trickle"]
        crowd = self.churn["flash_crowd"]
        grid = cfg.grid.parallel(0.5).generate()
        stride = len(grid) / crowd["count"]
        positions = [grid[int(i * stride)] for i in range(crowd["count"])]
        return churn.compose(
            churn.trickle(
                trickle["first_round"], trickle["last_round"], trickle["rate"]
            ),
            churn.flash_crowd(crowd["round"], positions),
            name="trickle+flash-crowd",
        )

    def prepare(self, cfg: ScenarioConfig):
        """Set up one instance (what ``setup_s`` times)."""
        sim, recorder, _, points, _ = prepare_scenario(cfg)
        schedule = self.schedule(cfg)
        if schedule is not None:
            schedule.install(sim)
        return sim, recorder, points


def view_problems(sim, cfg: ScenarioConfig) -> list:
    """View bounds, self entries and duplicate ids of every alive node,
    read from public per-node state."""
    sync = getattr(sim, "sync_canonical", None)
    if sync is not None:
        sync()
    problems = []
    for node in sim.network.alive_nodes():
        for attr, cap in (
            ("rps_view", cfg.rps_view_size),
            ("tman_view", cfg.tman_view_cap),
        ):
            view = getattr(node, attr)
            ids = list(view.ids_list() if hasattr(view, "ids_list") else view)
            if len(ids) > cap:
                problems.append(f"node {node.nid}: {attr} holds {len(ids)} > {cap}")
            if node.nid in ids:
                problems.append(f"node {node.nid}: {attr} holds itself")
            if len(set(ids)) != len(ids):
                problems.append(f"node {node.nid}: {attr} holds a duplicate id")
    return problems


def inject_fault(sim, fault: str) -> None:
    """Corrupt one alive node's T-Man view (self-test only)."""
    sync = getattr(sim, "sync_canonical", None)
    if sync is not None:
        sync()
    node = sim.network.alive_nodes()[0]
    ids = list(node.tman_view.ids_list())
    node.tman_view = ids + ids[:1] if fault == "duplicate-view" else ids + [node.nid]


def message_counts(sim) -> dict:
    counts: dict = {}
    for snapshot in sim.meter.history:
        for layer, units in snapshot.items():
            counts[layer] = counts.get(layer, 0) + units
    return {f"{layer}.messages": int(units) for layer, units in counts.items()}


def run_instance(workload, seed, tracer=None, fault=None) -> dict:
    """Set up and run one scenario instance; check it after the timed
    rounds.  Returns the instance's measurements and check results."""
    cfg = workload.config(seed)
    out = {"seed": seed, "problems": []}
    try:
        if tracer is not None:
            tracer.round = -1
            span = tracer.open("setup.build")
        t0 = now()
        sim, recorder, points = workload.prepare(cfg)
        out["setup_s"] = now() - t0
        if tracer is not None:
            tracer.close(span)
            tracer.patch_simulation(sim)
        out["rss_setup_mb"] = _maxrss_mb()
        first_id = sim.network._next_id  # ids are never reused
        first_total = sim.network.n_total

        crash = cfg.failure_round if cfg.failed_node_count() else None
        h_ref = None
        if crash is not None:
            h_ref = reference_homogeneity(
                cfg.grid.area, cfg.n_nodes - cfg.failed_node_count()
            )
        walls, alive = [], []
        run_span = tracer.open("run") if tracer is not None else None
        for rnd in range(cfg.total_rounds):
            if tracer is None:
                t = now()
                sim.step()
                walls.append(now() - t)
            else:
                tracer.round = rnd
                span = tracer.open("round")
                t = now()
                sim.step()
                walls.append(now() - t)
                tracer.close(span)
                tracer.rows_peak = max(tracer.rows_peak, sim.network.table.n_rows)
            alive.append(sim.network.n_alive)
            if (
                workload.stop == "reshaped"
                and crash is not None
                and rnd >= crash
                and recorder.series["homogeneity"][-1] <= h_ref
            ):
                break
        if tracer is not None:
            tracer.close(run_span)
            tracer.round = -1
        # Before the checks below, whose view copies can raise the peak.
        out["peak_rss_mb"] = _maxrss_mb()

        # -- after the timed window: outputs and fingerprint -------------
        out["walls"] = walls
        out["alive"] = alive
        reshape = None
        if crash is not None:
            series = recorder.series["homogeneity"]
            if cfg.reinjection_round is not None:
                series = series[: cfg.reinjection_round]
            reshape = reshaping_time(series, crash, h_ref)
            if reshape is None:
                out["problems"].append("the shape did not reshape within the run")
            else:
                out["reshape_s"] = sum(walls[crash : crash + reshape])
        out["crash_round"] = crash
        out["reshape_rounds"] = reshape
        out["points_surviving"] = surviving_fraction(
            points, sim.network.alive_nodes()
        )
        if out["points_surviving"] < workload.floor:
            out["problems"].append(
                f"points_surviving {out['points_surviving']:.4f} is below "
                f"the floor {workload.floor}"
            )
        if fault is not None:
            inject_fault(sim, fault)
        out["problems"].extend(view_problems(sim, cfg)[:20])
        joins = sim.network._next_id - first_id
        out["counts"] = {
            **message_counts(sim),
            "rps.fallbacks": int(getattr(sim.layers[0], "bootstrap_fallbacks", 0)),
            "reshape_rounds": reshape,
            "network.joins": joins,
            "network.removals": first_total + joins - sim.network.n_total,
            "rounds": len(walls),
        }
        out["state_digest"] = state_digest(sim) if fault is None else None
    except Exception:  # a run that raises is a failed attempt, not a crash
        out["problems"].append("raised:\n" + traceback.format_exc())
    return out


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(inst: dict) -> dict:
    """Add to an instance's per-round series (wall times in ms, alive
    nodes) the statistics of this one process."""
    walls = inst.pop("walls", None)
    if walls:
        alive = inst["alive"]
        walls_ms = inst["walls_ms"] = [w * 1e3 for w in walls]
        tail, pct, beyond = tracing.tail(walls_ms)
        inst.update(
            rounds=len(walls),
            wall_s=sum(walls),
            node_rounds=sum(alive),
            node_rounds_per_s=sum(alive) / sum(walls),
            round_ms_p50=statistics.median(walls_ms),
            round_ms_tail=tail,
            round_ms_tail_percentile=pct,
            round_ms_tail_beyond=beyond,
        )
    return inst


def traced_metrics(tracer, inst: dict, tolerance: float) -> dict:
    """Per-layer metrics of the traced instance plus the span self-check."""
    spans = tracer.spans
    check = tracing.self_check(spans, tracing.self_times(spans), tolerance)
    check["problems"] = check["problems"][:10]
    if check["problems"]:
        inst["problems"].append("trace self-check failed")
    layers = tracing.layer_metrics(tracer)
    build = next(s for s in spans if s[tracing.NAME] == "setup.build")
    layers["setup.build_s"] = (build[tracing.END] - build[tracing.START], "s")
    layers["mem.rss_setup_mb"] = (inst.get("rss_setup_mb", 0.0), "MB")
    counts = inst.setdefault("counts", {})
    counts.update(
        (name, value) for name, (value, _) in layers.items()
        if name.startswith("kernel.") and name.endswith(".calls")
    )
    for layer in tracing.LAYERS:
        layers[f"{layer}.messages"] = (counts.get(f"{layer}.messages", 0), "units")
    layers["rps.fallbacks"] = (counts.get("rps.fallbacks", 0), "count")
    return {"self_check": check, "layer_metrics": layers, "spans": len(spans)}


def replica(args, spec: dict, workload: Workload) -> dict:
    """Set up, run and check the instance once; its record."""
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "numpy": np.__version__,
    }
    # Extra set-ups, timed and dropped straight away, so that set-up
    # time is a median of several samples.
    setup_samples = []
    for _ in range(args.setup_repeats):
        t0 = now()
        sim = workload.prepare(workload.config(args.seed))
        setup_samples.append(now() - t0)
        del sim
        gc.collect()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.patch_modules(type(workload.config(args.seed).grid.space()))
    inst = run_instance(workload, args.seed, tracer, args.fault)
    if "setup_s" in inst:
        setup_samples.append(inst["setup_s"])
    if tracer is not None:
        record.update(traced_metrics(
            tracer, inst, spec["checks"]["self_check_tolerance"]
        ))
        if args.spans_out:
            tracer.write(args.spans_out)
    record["setup_samples"] = setup_samples
    record["peak_rss_mb"] = inst.pop("peak_rss_mb", _maxrss_mb())
    # Exact: a bit-identical trajectory reproduces all of it.
    record["fingerprint"] = {
        "semantics_version": {
            "event": event_engine.SEMANTICS_VERSION,
            "batch": batch_engine.SEMANTICS_VERSION,
        },
        "kernel_backend": kernel_backend.active_backend().name,
        "seed": args.seed,
        "state_digest": inst.pop("state_digest", None),
        **inst.pop("counts", {}),
    }
    record["instance"] = summarize(inst)
    return record


def in_child(job) -> dict:
    """Run ``job`` in a forked child, a fresh process with its own
    ``ru_maxrss`` and the parent's imports, and return the record it
    sends back through a pipe.  Waits for the child to end."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 0
        try:
            with os.fdopen(write_fd, "w") as out:
                json.dump(job(), out)
        except BaseException:
            traceback.print_exc()
            code = 1
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd) as src:
            data = src.read()
    finally:
        _, status = os.waitpid(pid, 0)
    if status != 0 or not data:
        raise RuntimeError(f"replica process ended with status {status}")
    return json.loads(data)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--replicas", type=int, default=1)
    parser.add_argument("--setup-repeats", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--fault", choices=FAULTS, default=None)
    args = parser.parse_args(argv)

    spec = load_spec()
    workload = Workload(args.workload, spec, args.scale)
    records = [
        in_child(lambda: replica(args, spec, workload))
        for _ in range(args.replicas)
    ]
    print(json.dumps(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
