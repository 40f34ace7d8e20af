"""Name of the batch kernels' implementation.

The kernels in :mod:`repro.sim.batch.kernels` are plain NumPy.  The
outside-in benchmark (``perfbench/worker.py``) records
``active_backend().name`` in its run fingerprint, so the name stays.
"""

from __future__ import annotations

from types import SimpleNamespace

_NUMPY = SimpleNamespace(name="numpy")


def active_backend() -> SimpleNamespace:
    """The kernels' implementation, named for run fingerprints."""
    return _NUMPY
