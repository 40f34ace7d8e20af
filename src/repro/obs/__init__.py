"""``repro.obs`` — zero-dependency observability for the reproduction.

Three cooperating pieces, all stdlib-only:

* :mod:`repro.obs.log` — structured JSONL event logging with bound
  run/worker/cell context (``obs.log.info("queue.claim", task=...)``).
* :mod:`repro.obs.metrics` — a process-wide registry of counters,
  gauges, and histograms with timer context managers, instrumented at
  the hot seams of both engines and the cluster runtime, flushed as
  single-write JSONL lines.
* :mod:`repro.obs.profiling` — ``--profile`` support: cProfile + peak
  RSS sampling → ``obs/profile.json``.
* :mod:`repro.obs.trace` — causal spans with cross-process parent
  propagation, emitted to ``obs/spans.jsonl``; the ``repro obs trace``
  / ``export`` / ``diff`` analysis surfaces read them back.
* :mod:`repro.obs.series` — one compact record per simulation round
  (wall/layer/kernel time, message/exchange/SPLIT counts, node counts,
  periodic health probes) in ``obs/series.jsonl``; ``repro obs
  series`` / ``watch`` read it back.
* :mod:`repro.obs.mem` — a byte ledger at the allocation chokepoints
  (table/view growth, padded kernel buffers, checkpoint blobs) feeding
  per-family bytes into the series and a peak-attribution snapshot
  into ``obs/mem.json`` (``repro obs mem``).

Configuration flows through :func:`configure` (what the CLI flags call)
and is mirrored into environment variables so ``ParallelRunner`` child
processes — under fork *or* spawn — and cluster workers inherit it:

========================  ====================================================
``REPRO_LOG``             stderr log level: ``debug``/``info``/``warning``/
                          ``error`` (unset/``off`` = silent)
``REPRO_OBS_DIR``         run directory; artifacts land in ``<dir>/obs/``
                          (``events.jsonl``, ``metrics.jsonl``,
                          ``profile.json``).  Setting it enables metrics.
``REPRO_OBS``             ``1`` forces metrics collection on even with no
                          obs dir (snapshots only, nothing written)
``REPRO_PROFILE``         ``1`` arms the profiler (cProfile + memory
                          sampling) in every process of the run
``REPRO_TRACE_CTX``       ``<trace_id>:<span_id>`` — the parent span a
                          child process's spans attach under, so a
                          distributed sweep stitches into one trace tree
``REPRO_OBS_RESERVOIR``   histogram percentile reservoir size (default
                          64; must be >= 1)
``REPRO_OBS_SERIES_EVERY``  rounds between domain health probes in the
                          per-round series (default 10; must be >= 1)
========================  ====================================================

Everything is off by default: no files are written, and the
instrumented seams cost one global check each (CI gates the disabled
path at ≤2% on ``perf_smoke.py``).  Instrumentation is read-only —
no RNG draws, no iteration-order changes — so trajectories and golden
digests are bit-identical with observability on or off.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, Optional, Union

from . import log, mem, metrics, profiling, series, trace

ENV_LOG = "REPRO_LOG"
ENV_OBS_DIR = "REPRO_OBS_DIR"
ENV_OBS = "REPRO_OBS"
ENV_PROFILE = "REPRO_PROFILE"

#: The configured run directory (``None`` = no artifacts).
_RUN_DIR: Optional[Path] = None


def run_dir() -> Optional[Path]:
    return _RUN_DIR


def obs_dir() -> Optional[Path]:
    """``<run_dir>/obs``, or None when no run dir is configured."""
    return _RUN_DIR / "obs" if _RUN_DIR is not None else None


def metrics_path() -> Optional[Path]:
    d = obs_dir()
    return d / "metrics.jsonl" if d is not None else None


def profile_path() -> Optional[Path]:
    d = obs_dir()
    return d / "profile.json" if d is not None else None


def spans_path() -> Optional[Path]:
    d = obs_dir()
    return d / "spans.jsonl" if d is not None else None


def series_path() -> Optional[Path]:
    d = obs_dir()
    return d / "series.jsonl" if d is not None else None


def mem_path() -> Optional[Path]:
    d = obs_dir()
    return d / "mem.json" if d is not None else None


def configure(
    log_level: Optional[str] = None,
    dir: Optional[Union[str, Path]] = None,
    profile: Optional[bool] = None,
    enable_metrics: Optional[bool] = None,
    export_env: bool = True,
) -> None:
    """Apply observability settings for this process (and, via env vars,
    every child process it launches).

    ``None`` arguments leave the corresponding setting untouched, so
    callers can layer CLI flags over an inherited environment.
    """
    global _RUN_DIR
    if log_level is not None:
        log.set_level(log_level)
        if export_env:
            os.environ[ENV_LOG] = str(log_level)
    if dir is not None:
        _RUN_DIR = Path(dir)
        d = obs_dir()
        try:
            d.mkdir(parents=True, exist_ok=True)
        except OSError:
            pass
        log.set_events_path(d / "events.jsonl")
        trace.set_spans_path(d / "spans.jsonl")
        trace.set_enabled(True)
        series.set_series_path(d / "series.jsonl")
        series.set_enabled(True)
        mem.set_enabled(True)
        if export_env:
            os.environ[ENV_OBS_DIR] = str(_RUN_DIR)
    if profile is not None:
        profiling.set_active(bool(profile))
        if export_env:
            os.environ[ENV_PROFILE] = "1" if profile else ""
    if enable_metrics is not None:
        metrics.set_enabled(bool(enable_metrics))
        if export_env:
            os.environ[ENV_OBS] = "1" if enable_metrics else ""
    # Metrics collection follows any sink or profiler unless explicitly
    # forced: an obs dir or an armed profiler needs numbers to report.
    if enable_metrics is None and (_RUN_DIR is not None or profiling.ACTIVE):
        metrics.set_enabled(True)


def configure_from_env(environ: Optional[Dict[str, str]] = None) -> None:
    """Adopt settings from the environment — how ``ParallelRunner``
    children and cluster workers (fork or spawn) pick up the parent's
    configuration.  Called at import, and again by child entry points
    that may run under ``spawn``."""
    env = os.environ if environ is None else environ
    level = env.get(ENV_LOG)
    dir_ = env.get(ENV_OBS_DIR)
    profile = env.get(ENV_PROFILE)
    force = env.get(ENV_OBS)
    configure(
        log_level=level if level else None,
        dir=dir_ if dir_ else None,
        profile=bool(profile) if profile else None,
        enable_metrics=True if force else None,
        export_env=False,
    )
    # Spawn-mode children re-join the parent's trace through the
    # exported span context (fork-mode children inherit the contextvar
    # directly; adopting the same token again is harmless).
    if env.get(trace.ENV_CTX):
        trace.adopt_env(env)


def reset_for_cell(**ctx: Any):
    """Start a fresh per-cell metrics scope in a worker process: clears
    the registry, series delta baselines, and memory ledger, and binds
    the cell's identity into the log context.  Returns the
    (token-restoring) log binding."""
    metrics.registry().reset()
    series.reset_cell()
    mem.reset()
    return log.bind(**ctx)


def flush_cell_metrics(ctx: Optional[Dict[str, Any]] = None) -> Optional[Dict[str, Any]]:
    """Snapshot this process's registry, append it to the run's
    ``metrics.jsonl`` (when a run dir is configured), and return the
    snapshot for embedding in the cell's result record.  No-op (None)
    when metrics are disabled or nothing was recorded."""
    if not metrics.ENABLED:
        return None
    reg = metrics.registry()
    if reg.is_empty():
        return None
    snap = reg.snapshot()
    path = metrics_path()
    if path is not None:
        merged_ctx = dict(log.context())
        if ctx:
            merged_ctx.update(ctx)
        metrics.flush(path, ctx=merged_ctx, snapshot=snap)
    # Spans and series records buffer per process; draining them at the
    # same cadence keeps the streams fresh and bounds loss if a worker
    # dies mid-drain.  The memory ledger max-merges its attribution
    # snapshot into the run's mem.json at the same seam.
    trace.flush()
    series.flush()
    mp = mem_path()
    if mp is not None and mem.ENABLED:
        mem.write_snapshot(mp)
    return snap


# Child processes inherit configuration through the environment; the
# parent process is configured explicitly by the CLI before any child
# exists, so this import-time adoption is a no-op there.
configure_from_env()
