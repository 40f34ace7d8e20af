"""Outside-in span tracing for the traced benchmark run.

The tracer wraps the public entry points each layer of the simulator is
reached through, from the benchmark's side only:

* each layer's ``step`` and each observer's ``on_round_end`` (instance
  attributes, so only the traced simulation is affected);
* the metric functions :mod:`repro.metrics.collector` calls;
* the :mod:`repro.sim.batch.kernels` functions, ``split.batch_split`` and
  the space's ``rank_sq_*`` methods, which the batch layers look up at
  call time;
* ``Network.add_node``, ``remove_node`` and ``prune_dead``, and the
  engines' ``init_all_nodes`` (set-up).

Spans live in memory (one list per run) and are written once at the end.
Each span records its name, parent span, round index (``-1`` during
set-up), start and end; layer spans also record how much the process'
``ru_maxrss`` rose during the call.
"""

from __future__ import annotations

import importlib
import json
import resource
import statistics
import time
from typing import Dict, List

import numpy as np

#: Kernel entry points as ``(module path, attribute)``; ``None`` marks a
#: method of the simulation's space class.
KERNELS = (
    ("repro.sim.batch.kernels", "merge_rank_truncate"),
    ("repro.sim.batch.kernels", "dedup_priority_truncate"),
    ("repro.sim.batch.kernels", "topk_smallest"),
    ("repro.sim.batch.kernels", "row_rank_sq"),
    ("repro.sim.batch.kernels", "radix_argsort"),
    ("repro.sim.batch.split", "batch_split"),
    (None, "rank_sq_pools"),
    (None, "rank_sq_rows"),
)
METRIC_FUNCTIONS = ("homogeneity", "proximity", "average_storage", "per_node_cost")
NETWORK_METHODS = ("add_node", "remove_node", "prune_dead")
LAYERS = ("rps", "tman", "polystyrene")

# Span record fields.
NAME, PARENT, ROUND, START, END, RSS_RISE = range(6)

_now = time.perf_counter


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _nbytes(args, kwargs) -> int:
    total = 0
    for value in (*args, *kwargs.values()):
        if isinstance(value, np.ndarray):
            total += value.nbytes
    return total


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.round = -1
        self.bytes_in: Dict[str, int] = {}
        self.rows_peak = 0

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, self.round, _now(), 0.0, 0])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = _now()
        popped = self.stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: {popped} != {idx}")

    def wrap(self, name: str, fn, count_bytes: bool = False, rss: bool = False):
        """A stand-in for ``fn`` that records one span per call."""

        def traced(*args, **kwargs):
            if count_bytes and self.round >= 0:
                self.bytes_in[name] = self.bytes_in.get(name, 0) + _nbytes(
                    args, kwargs
                )
            before = _maxrss_kb() if rss else 0
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
                if rss:
                    self.spans[idx][RSS_RISE] = _maxrss_kb() - before

        traced.__wrapped__ = fn
        return traced

    # -- installation ------------------------------------------------------

    def patch_modules(self, space_cls) -> None:
        """Wrap the module-level and class-level entry points.  Call
        before the traced scenario is built, in a process that runs
        nothing else afterwards."""
        from repro.metrics import collector
        from repro.sim import engine as event_engine
        from repro.sim import network
        from repro.sim.batch import engine as batch_engine

        for module_path, attr in KERNELS:
            owner = space_cls if module_path is None else importlib.import_module(
                module_path
            )
            setattr(owner, attr, self.wrap(
                f"kernel.{attr}", getattr(owner, attr), count_bytes=True
            ))
        for attr in METRIC_FUNCTIONS:
            setattr(collector, attr, self.wrap(
                f"metric.{attr}", getattr(collector, attr)
            ))
        for attr in NETWORK_METHODS:
            setattr(network.Network, attr, self.wrap(
                f"network.{attr}", getattr(network.Network, attr)
            ))
        for cls in (event_engine.Simulation, batch_engine.BatchSimulation):
            if "init_all_nodes" in vars(cls):
                cls.init_all_nodes = self.wrap(
                    "setup.init_nodes", cls.init_all_nodes
                )

    def patch_simulation(self, sim) -> None:
        """Wrap this simulation's layers and observers."""
        for layer in sim.layers:
            layer.step = self.wrap(f"layer.{layer.name}", layer.step, rss=True)
        for observer in sim.observers:
            observer.on_round_end = self.wrap(
                f"observer.{type(observer).__name__}",
                observer.on_round_end,
                rss=True,
            )

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one JSON line (once, at the end)."""
        with open(path, "w") as handle:
            for idx, (name, parent, rnd, start, end, rise) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": idx, "parent": parent, "name": name, "round": rnd,
                    "start": start, "end": end, "rss_rise_kb": rise,
                }) + "\n")


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part of it its children cover
    (children clipped to the parent's interval)."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        parent = s[PARENT]
        if parent >= 0:
            p = spans[parent]
            covered = min(s[END], p[END]) - max(s[START], p[START])
            out[parent] -= max(covered, 0.0)
    return out


def self_check(spans: List[list], selfs: List[float], tolerance: float) -> dict:
    """Per round, the self times of every span under the round span plus
    the round's own self time must sum to the round wall within
    ``tolerance`` (a share of the wall); every child must also lie
    inside its parent.  Returns the worst error and any violations."""
    root_of = [-1] * len(spans)
    sums: Dict[int, float] = {}
    problems = []
    worst = 0.0
    for idx, s in enumerate(spans):
        parent = s[PARENT]
        if s[NAME] == "round":
            root_of[idx] = idx
        elif parent >= 0:
            root_of[idx] = root_of[parent]
            p = spans[parent]
            if s[START] < p[START] or s[END] > p[END]:
                problems.append(f"span {idx} ({s[NAME]}) leaves its parent")
        root = root_of[idx]
        if root >= 0:
            sums[root] = sums.get(root, 0.0) + selfs[idx]
    for root, total in sums.items():
        wall = spans[root][END] - spans[root][START]
        err = abs(total - wall) / wall if wall > 0 else 0.0
        worst = max(worst, err)
        if err > tolerance:
            problems.append(
                f"round {spans[root][ROUND]}: self times sum to {total:.6f}s "
                f"against a wall of {wall:.6f}s"
            )
    return {"max_rel_error": worst, "tolerance": tolerance, "problems": problems}


def tail(values):
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), as ``(value, percentile, samples_beyond)``; the
    maximum when there are fewer than eleven samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100, 0
    pct = (100 * (n - 10)) // n
    rank = max(1, -(-pct * n // 100))
    return ordered[rank - 1], pct, n - rank


def layer_metrics(tracer: Tracer) -> Dict[str, tuple]:
    """Per-layer metrics of one traced instance as ``name -> (value,
    unit)``; counts kept in the simulation's own state (messages,
    fallbacks) and set-up timings are added by the caller."""
    spans = tracer.spans
    selfs = self_times(spans)
    by_name: Dict[str, List[int]] = {}
    children: Dict[int, List[int]] = {}
    for idx, s in enumerate(spans):
        key = s[NAME] if s[ROUND] >= 0 else f"setup:{s[NAME]}"
        by_name.setdefault(key, []).append(idx)
        children.setdefault(s[PARENT], []).append(idx)

    def dur(idx):
        return spans[idx][END] - spans[idx][START]

    def total(idxs, field=None):
        if field is None:
            return sum(dur(i) for i in idxs)
        return sum(spans[i][field] for i in idxs)

    def named(prefix):
        return [
            i for i, s in enumerate(spans)
            if s[ROUND] >= 0 and s[NAME].startswith(prefix)
        ]

    out: Dict[str, tuple] = {
        "setup.init_nodes_s": (total(by_name.get("setup:setup.init_nodes", ())), "s")
    }
    for layer in LAYERS:
        idxs = by_name.get(f"layer.{layer}", [])
        steps_ms = [dur(i) * 1e3 for i in idxs] or [0.0]
        out[f"{layer}.busy_s"] = (total(idxs), "s")
        out[f"{layer}.self_s"] = (sum(selfs[i] for i in idxs), "s")
        out[f"{layer}.step_ms_p50"] = (statistics.median(steps_ms), "ms")
        out[f"{layer}.step_ms_tail"] = (tail(steps_ms)[0], "ms")
        out[f"mem.peak_rise_mb.{layer}"] = (total(idxs, RSS_RISE) / 1024.0, "MB")
    for _, attr in KERNELS:
        name = f"kernel.{attr}"
        out[f"{name}.busy_s"] = (total(by_name.get(name, ())), "s")
        out[f"{name}.calls"] = (len(by_name.get(name, ())), "count")
        out[f"{name}.bytes_in"] = (tracer.bytes_in.get(name, 0), "bytes-computed")
    observers = named("observer.")
    out["observers.busy_s"] = (total(observers), "s")
    out["mem.peak_rise_mb.observers"] = (total(observers, RSS_RISE) / 1024.0, "MB")
    for attr in ("homogeneity", "proximity"):
        out[f"metrics.{attr}.busy_s"] = (total(by_name.get(f"metric.{attr}", ())), "s")
    # Outermost network calls only: prune_dead calls remove_node.
    network = [
        i for i in named("network.")
        if not spans[spans[i][PARENT]][NAME].startswith("network.")
    ]
    out["network.busy_s"] = (total(network), "s")
    out["network.joins"] = (len(by_name.get("network.add_node", ())), "count")
    out["network.removals"] = (len(by_name.get("network.remove_node", ())), "count")
    out["network.rows_peak"] = (tracer.rows_peak, "rows")
    other = 0.0
    for idx in by_name.get("round", ()):
        other += dur(idx) - total(
            c for c in children.get(idx, ())
            if spans[c][NAME].startswith(("layer.", "observer."))
        )
    out["round.other_s"] = (other, "s")
    return out
