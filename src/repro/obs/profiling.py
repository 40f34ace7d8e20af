"""Profiling hooks: cProfile wrapping, memory sampling, ``profile.json``.

``--profile`` (or ``REPRO_PROFILE=1``) arms a :class:`Profiler` around a
run: the whole run executes under :mod:`cProfile`, an
:class:`ArraySampler` observer rides the simulation sampling peak RSS
each round, and at the end everything — hot functions, peak RSS, and
the metrics registry's per-phase/per-kernel histograms — lands in one
``obs/profile.json``.  Array bytes are the byte-exact :mod:`repro.obs.mem`
ledger's job.

All sampling is read-only: the observer draws no RNG, mutates no state,
and observers are outside ``state_digest``, so a profiled run's
trajectory and golden digests are bit-identical to an unprofiled one.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from . import metrics

#: Whether a profiler is armed for this process (set by
#: :func:`repro.obs.configure`); :func:`repro.experiments.scenario.build_simulation`
#: checks it to attach an :class:`ArraySampler` to every simulation it
#: builds.
ACTIVE = False


def set_active(on: bool) -> None:
    global ACTIVE
    ACTIVE = bool(on)


def peak_rss_bytes() -> int:
    """Peak resident set size of this process, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        return int(peak)
    return int(peak) * 1024


class ArraySampler:
    """Simulation observer recording the process' peak RSS into the
    metrics registry (``mem.peak_rss_bytes`` gauge) every ``interval``
    rounds.  Attached only when profiling is active."""

    def __init__(self, interval: int = 1) -> None:
        self.interval = max(1, int(interval))

    def on_round_end(self, sim) -> None:
        if sim.round % self.interval:
            return
        metrics.registry().gauge_max("mem.peak_rss_bytes", peak_rss_bytes())


class Profiler:
    """One profiled run: ``start()`` ... work ... ``write(path)``."""

    def __init__(self, top: int = 40) -> None:
        self.top = top
        self._profile = cProfile.Profile()
        self._t0: Optional[float] = None

    def start(self) -> None:
        self._t0 = time.perf_counter()
        self._profile.enable()

    def stop(self) -> float:
        self._profile.disable()
        return time.perf_counter() - (self._t0 or time.perf_counter())

    def hot_functions(self) -> list:
        """Top functions by cumulative time, as JSON-ready dicts."""
        stats = pstats.Stats(self._profile)
        rows = []
        entries = sorted(
            stats.stats.items(), key=lambda kv: kv[1][3], reverse=True
        )
        for (filename, lineno, funcname), (cc, nc, tt, ct, _callers) in entries[
            : self.top
        ]:
            rows.append(
                {
                    "function": f"{Path(filename).name}:{lineno}:{funcname}",
                    "ncalls": nc,
                    "tottime_s": round(tt, 6),
                    "cumtime_s": round(ct, 6),
                }
            )
        return rows

    def write(
        self,
        path: Union[str, Path],
        ctx: Optional[Dict[str, Any]] = None,
        wall_s: Optional[float] = None,
    ) -> Dict[str, Any]:
        """Stop (if still running) and write ``profile.json``: context,
        wall time, peak memory, hot functions, and the full metrics
        snapshot (per-phase/per-kernel histograms included)."""
        if self._t0 is not None and wall_s is None:
            wall_s = self.stop()
        snap = metrics.registry().snapshot()
        report = {
            "kind": "profile",
            "ts": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "ctx": dict(ctx or {}),
            "wall_s": round(wall_s, 6) if wall_s is not None else None,
            "peak_rss_bytes": peak_rss_bytes(),
            "hot_functions": self.hot_functions(),
            "metrics": snap,
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        return report
