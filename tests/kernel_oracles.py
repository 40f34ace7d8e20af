"""Global-sort oracles for the batch merge kernels.

These are the original composite-key implementations the
receiver-bucketed kernels in :mod:`repro.sim.batch.kernels` replaced.
The engine never calls them: ``tests/test_prop_kernels.py`` checks the
live kernels against them for exact output equality, and
``benchmarks/perf_smoke.py --kernel-gate`` times
:func:`repro.sim.batch.kernels.merge_rank_truncate` against
:func:`merge_rank_truncate_reference` on :func:`torus_merge_load`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.sim.batch.kernels import cumcount
from repro.spaces import FlatTorus


def dedup_rank_truncate_reference(
    recv: np.ndarray,
    ids: np.ndarray,
    dist_of,
    cap: int,
    ages: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, ...]:
    """Flat distance-ranked merge: dedup per ``(recv, id)`` keeping the
    *last* occurrence, rank each receiver group by
    ``dist_of(kept_indices)`` with id tie-break, and keep the ``cap``
    closest per receiver (composite-key stable argsort + lexsort).

    Returns ``(sel, slot)`` (+ ``ages[sel]`` when given): flat input
    indices of the survivors and their rank within their receiver's
    view.
    """
    if len(recv) == 0:
        empty = np.zeros(0, dtype=np.int64)
        return (empty, empty) if ages is None else (empty, empty, empty)
    stride = int(ids.max(initial=0)) + 1
    key = recv.astype(np.int64) * stride + ids
    order = np.argsort(key, kind="stable")
    k_s = key[order]
    last = np.ones(len(order), dtype=bool)
    last[:-1] = k_s[1:] != k_s[:-1]
    kept = order[last]  # sorted by (recv, id)
    dist = dist_of(kept)
    # lexsort is stable: equal (recv, dist) pairs keep their (recv, id)
    # order, which *is* the id tie-break.
    order2 = np.lexsort((dist, recv[kept]))
    slot = cumcount(recv[kept][order2])
    fit = slot < cap
    sel = kept[order2][fit]
    slot = slot[fit]
    if ages is None:
        return sel, slot
    return sel, slot, ages[sel]


def merge_rank_truncate_reference(
    space,
    pos: np.ndarray,
    ids_pad: np.ndarray,
    coords_pad: np.ndarray,
    valid: np.ndarray,
    cap: int,
    ages_pad: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, ...]:
    """The padded topology merge computed the flat way: flatten the
    valid cells row by row (column order is arrival order), rank them
    by ``sqrt(space.rank_sq_rows)`` through
    :func:`dedup_rank_truncate_reference`, and scatter the survivors
    into ``(rows, cap)`` blocks padded like the live kernel's."""
    n_rows = ids_pad.shape[0]
    rows, cols = np.nonzero(valid)
    ids = ids_pad[rows, cols]
    dist = np.sqrt(space.rank_sq_rows(pos, coords_pad)[rows, cols])
    ages = None if ages_pad is None else ages_pad[rows, cols]
    sel, slot, *rest = dedup_rank_truncate_reference(
        rows, ids, lambda kept: dist[kept], cap, ages
    )
    out_ids = np.full((n_rows, cap), -1, dtype=np.int64)
    out_ids[rows[sel], slot] = ids[sel]
    out_coords = np.zeros((n_rows, cap, coords_pad.shape[2]), dtype=float)
    out_coords[rows[sel], slot] = coords_pad[rows[sel], cols[sel]]
    if ages_pad is None:
        return out_ids, out_coords
    out_ages = np.zeros((n_rows, cap), dtype=np.int64)
    out_ages[rows[sel], slot] = rest[0]
    return out_ids, out_coords, out_ages


def dedup_priority_truncate_reference(
    recv: np.ndarray,
    ids: np.ndarray,
    prio: np.ndarray,
    order_in: np.ndarray,
    ages: np.ndarray,
    cap: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three-stable-argsort slot-priority merge, the oracle for
    :func:`repro.sim.batch.kernels.dedup_priority_truncate`."""
    empty = np.zeros(0, dtype=np.int64)
    if len(recv) == 0:
        return empty, empty, empty
    n = len(recv)
    sel_key = prio.astype(np.int64) * n + order_in
    pre = np.argsort(sel_key, kind="stable")
    stride = int(ids.max(initial=0)) + 1
    pair_key = recv[pre].astype(np.int64) * stride + ids[pre]
    order = np.argsort(pair_key, kind="stable")
    k_s = pair_key[order]
    first = np.ones(n, dtype=bool)
    first[1:] = k_s[1:] != k_s[:-1]
    starts = np.flatnonzero(first)
    min_age = np.minimum.reduceat(ages[pre][order], starts)
    kept = pre[order[first]]
    final_key = recv[kept].astype(np.int64) * (3 * n) + sel_key[kept]
    order2 = np.argsort(final_key, kind="stable")
    slot = cumcount(recv[kept][order2])
    fit = slot < cap
    sel = kept[order2][fit]
    return sel, slot[fit], min_age[order2][fit]


def torus_merge_load(cols: int, rows: int, per: int, seed: int = 0):
    """A T-Man-merge-shaped padded load on a ``cols x rows`` grid torus:
    every node receives ``per`` descriptors of random nodes (at their
    grid positions, so the exact-integer rank path runs) with random
    ages.  Returns ``(space, pos, ids_pad, coords_pad, valid, ages_pad)``
    — :func:`merge_rank_truncate_reference`'s arguments minus ``cap``.
    """
    space = FlatTorus(float(cols), float(rows))
    n = cols * rows
    node = np.arange(n)
    grid = np.stack([node % cols, node // cols], axis=1).astype(float)
    rng = np.random.default_rng(seed)
    ids_pad = rng.integers(0, n, (n, per)).astype(np.int64)
    ages_pad = rng.integers(0, 50, (n, per)).astype(np.int64)
    valid = np.ones((n, per), dtype=bool)
    return space, grid, ids_pad, grid[ids_pad], valid, ages_pad
