"""Grouped flat-array kernels shared by the batch gossip layers.

The batch engine computes every exchange of a round from the
round-start snapshot, then applies all merges at once.  A merge round
is naturally *ragged* — each receiver gets its old view entries plus
the entries of however many messages reached it — so the layers group
everything by receiver row and use the kernels here to deduplicate per
``(receiver, id)`` pair, rank within each receiver group, and truncate
each group to the view capacity.

Receiver rows and descriptor ids are dense small non-negative ints, so
grouping is *counting/radix bucketing*, not comparison sorting: NumPy's
``kind="stable"`` argsort lowers to an O(n) LSD radix pass for 16-bit
integers, and :func:`radix_argsort` cascades two such passes for wider
keys.  The slot-priority merge :func:`dedup_priority_truncate` groups
with such radix cascades instead of one global composite-key sort over
every entry of the round.  The fused :func:`merge_rank_truncate` goes
further for the topology merge: the
receivers' views are *already* padded ``(rows, cap)`` matrices, so the
whole dedup → distance → rank → truncate chain runs in padded form —
no flattening, no ``np.unique``, and (on exact-integer squared
distances, which every grid scenario produces) a single non-stable
integer ``argsort`` per merge.

The layers call these functions by module attribute
(``kernels.merge_rank_truncate(...)``), so a wrapper installed on the
module (``perfbench/tracer.py``) sees every call.  The global-sort
oracles they are checked against live in ``tests/kernel_oracles.py``:
the property suites in ``tests/test_prop_kernels.py`` pin exact output
equality, and ``benchmarks/perf_smoke.py --kernel-gate`` times the live
merge against the flat oracle.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ...obs import mem as _mem
from ...obs.metrics import timed

#: Sort sentinel pushing invalid entries past every real key.
_SENTINEL = np.iinfo(np.int64).max

#: Above this ``rows * id_stride`` product the dense last-writer scatter
#: dedup (one int32 cell per possible ``(row, id)`` pair) would allocate
#: too much scratch; the padded per-row sort path takes over.
_DENSE_DEDUP_LIMIT = 1 << 23

#: Squared distances must stay below 2**51 for the integer rank path:
#: ``sqrt`` is injective on distinct exactly-representable integers up
#: to that bound, which is what makes ranking by the *squared* integer
#: key bit-identical to the reference ranking by float distance.
_MAX_EXACT_SQ = float(1 << 51)


def cumcount(sorted_keys: np.ndarray) -> np.ndarray:
    """Position of each element within its run of equal ``sorted_keys``
    (the input must already be group-sorted)."""
    n = len(sorted_keys)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    starts = np.ones(n, dtype=bool)
    starts[1:] = sorted_keys[1:] != sorted_keys[:-1]
    idx = np.arange(n, dtype=np.int64)
    start_idx = idx[starts]
    group = np.cumsum(starts) - 1
    return idx - start_idx[group]


def radix_argsort(a: np.ndarray) -> np.ndarray:
    """Stable ascending argsort for small non-negative integer keys.

    NumPy's ``kind="stable"`` is an O(n) LSD radix sort for 16-bit
    integers (and timsort for wider types), so keys below ``2**16`` sort
    in one counting pass and keys below ``2**32`` in two cascaded passes
    (low half, then high half) — several times faster than a comparison
    sort on the shuffled composite keys the merge kernels group by.
    """
    n = len(a)
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    hi = int(a.max())
    if hi < (1 << 16):
        return np.argsort(a.astype(np.uint16), kind="stable")
    if hi < (1 << 32):
        order = np.argsort((a & 0xFFFF).astype(np.uint16), kind="stable")
        high = (a >> 16).astype(np.uint16)
        return order[np.argsort(high[order], kind="stable")]
    return np.argsort(a, kind="stable")


@timed("kernel.pairs_member")
def pairs_member(
    q_rows: np.ndarray,
    q_ids: np.ndarray,
    s_rows: np.ndarray,
    s_ids: np.ndarray,
) -> np.ndarray:
    """Membership of query ``(row, id)`` pairs in a set of pairs.

    Encodes each pair as ``row * stride + id`` (both are small
    non-negative ints, so the composite stays well inside int64) and
    binary-searches the sorted set keys.
    """
    out = np.zeros(len(q_rows), dtype=bool)
    if len(s_rows) == 0 or len(q_rows) == 0:
        return out
    stride = int(max(q_ids.max(initial=0), s_ids.max(initial=0))) + 1
    s_keys = np.sort(s_rows.astype(np.int64) * stride + s_ids)
    q_keys = q_rows.astype(np.int64) * stride + q_ids
    pos = np.searchsorted(s_keys, q_keys)
    inside = pos < len(s_keys)
    out[inside] = s_keys[pos[inside]] == q_keys[inside]
    return out


# -- dedup_priority_truncate ---------------------------------------------


@timed("kernel.dedup_priority_truncate")
def dedup_priority_truncate(
    recv: np.ndarray,
    ids: np.ndarray,
    prio: np.ndarray,
    order_in: np.ndarray,
    ages: np.ndarray,
    cap: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Slot-priority merge (the batch Cyclon rule): dedup per
    ``(recv, id)`` keeping the *lowest* ``(prio, order_in)`` entry with
    the group-minimum age, then keep the first ``cap`` entries per
    receiver in ``(prio, order_in)`` order.

    Priority classes encode "existing non-sent entries keep their
    slots, incoming entries fill the rest, sent-out entries are
    replaced only when space runs out".

    Returns ``(sel, slot, age)``: flat input indices of the survivors,
    their slot within the receiver's view, and their merged age.

    Bucketed implementation: one three-key radix grouping pass
    ``(recv, id, sel_key)`` groups the entries; the final per-receiver
    ordering is two more radix passes on the (much smaller) survivor
    set.
    """
    empty = np.zeros(0, dtype=np.int64)
    if len(recv) == 0:
        return empty, empty, empty
    n = len(recv)
    sel_key = prio.astype(np.int64) * n + order_in
    # LSD radix cascade: least-significant key first.
    order = radix_argsort(sel_key)
    order = order[radix_argsort(ids[order])]
    order = order[radix_argsort(recv[order])]
    r_s = recv[order]
    i_s = ids[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (r_s[1:] != r_s[:-1]) | (i_s[1:] != i_s[:-1])
    starts = np.flatnonzero(first)
    min_age = np.minimum.reduceat(ages[order], starts)
    kept = order[first]  # min (prio, order_in) per (recv, id)
    k_sel = sel_key[kept]
    k_recv = recv[kept]
    order2 = radix_argsort(k_sel)
    order2 = order2[radix_argsort(k_recv[order2])]
    slot = cumcount(k_recv[order2])
    fit = slot < cap
    sel = kept[order2][fit]
    return sel, slot[fit], min_age[order2][fit]


# -- fused padded merge ---------------------------------------------------


def keep_last_per_row(ids_pad: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Keep-mask over a padded ``(rows, width)`` id matrix: for each
    duplicated id within a row, only the *last* (rightmost) valid copy
    survives.

    Small domains use a dense last-writer scatter — one int32 cell per
    possible ``(row, id)`` pair, written in column order so the final
    write per pair is the rightmost copy (NumPy fancy assignment stores
    the last value for repeated indices).  Large domains fall back to a
    per-row stable sort by id, where the last entry of each equal-id
    run is the rightmost copy.
    """
    n_rows, width = ids_pad.shape
    stride = int(ids_pad.max(initial=-1)) + 1
    if stride <= 0 or not valid.any():
        return np.zeros((n_rows, width), dtype=bool)
    cols = np.broadcast_to(np.arange(width, dtype=np.int32), (n_rows, width))
    if n_rows * stride <= _DENSE_DEDUP_LIMIT:
        # ``empty``, not ``full``: every cell read below was written by
        # the scatter (reads index ``lin_v`` only), so the O(rows*stride)
        # initialisation pass would be pure waste.
        lastcol = np.empty(n_rows * stride, dtype=np.int32)
        if _mem.ENABLED:
            _mem.scratch(
                "kernel_pads", "keep_last_per_row.dense", lastcol.nbytes
            )
        lin = np.arange(n_rows, dtype=np.int64)[:, None] * stride + ids_pad
        lin_v = lin[valid]
        col_v = cols[valid]
        lastcol[lin_v] = col_v
        keep = np.zeros((n_rows, width), dtype=bool)
        keep[valid] = lastcol[lin_v] == col_v
        return keep
    key = np.where(valid, ids_pad, _SENTINEL)
    order = np.argsort(key, axis=1, kind="stable")
    k_s = np.take_along_axis(key, order, axis=1)
    last = np.empty((n_rows, width), dtype=bool)
    last[:, -1] = True
    last[:, :-1] = k_s[:, :-1] != k_s[:, 1:]
    last &= k_s != _SENTINEL
    keep = np.zeros((n_rows, width), dtype=bool)
    np.put_along_axis(keep, order, last, axis=1)
    return keep


@timed("kernel.merge_rank_truncate")
def merge_rank_truncate(
    space,
    pos: np.ndarray,
    ids_pad: np.ndarray,
    coords_pad: np.ndarray,
    valid: np.ndarray,
    cap: int,
    ages_pad: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, ...]:
    """The topology merge in fused padded form.

    ``ids_pad``/``coords_pad`` are ``(rows, width)`` padded blocks whose
    columns hold each receiver's existing view entries first and the
    incoming message entries after, in arrival order; ``valid`` masks
    real entries; ``pos`` is each receiver's own position.  Per row the
    kernel keeps the last (freshest) copy of every duplicated id, ranks
    the survivors by canonical-coordinate distance to ``pos`` with id
    tie-break, truncates to ``cap`` and returns ``(rows, cap)`` blocks
    padded with ``-1`` ids / zero coords (+ merged ages, incoming
    entries aging from 0, when ``ages_pad`` is given).

    Output contract: byte-identical to the reference flat pipeline
    (dedup keep-last, rank by ``space.distance_rows``, id tie-break,
    truncate) on canonical coordinates — property-tested in
    ``tests/test_prop_kernels.py``.
    """
    n_rows, width = ids_pad.shape
    keep = keep_last_per_row(ids_pad, valid)
    dsq = space.rank_sq_rows(pos, coords_pad)
    cnt = keep.sum(axis=1)
    k = min(cap, width)
    stride = int(ids_pad.max(initial=-1)) + 1
    dmax = float(dsq.max(initial=0.0))
    int_ok = (
        stride > 0
        and dmax < _MAX_EXACT_SQ
        and dmax * stride + stride < float(1 << 62)
    )
    if int_ok:
        # Candidate integer squared distances: the truncating ``astype``
        # equals ``floor`` on this non-negative range, so comparing the
        # cast back against ``dsq`` doubles as the integrality test.
        dsq_i = dsq.astype(np.int64)
        int_ok = bool(np.all(dsq_i == dsq))
    if int_ok:
        # Exact-integer squared distances (every grid scenario): the
        # composite (dsq, id) int64 key is a total order, so one
        # *non-stable* sort suffices and ranking by dsq is bit-identical
        # to the reference ranking by sqrt(dsq) (sqrt is injective on
        # distinct integers below 2**51).  Invalid slots (id ``-1``)
        # are overwritten by the sentinel, so the raw ids can feed the
        # key directly.
        key = np.where(keep, dsq_i * stride + ids_pad, _SENTINEL)
        order = np.argsort(key, axis=1)
    else:
        # Float path: rank by sqrt like the reference, id tie-break via
        # a cascade of two stable sorts (by id, then by distance).
        idkey = np.where(keep, ids_pad, _SENTINEL)
        o1 = np.argsort(idkey, axis=1, kind="stable")
        d = np.sqrt(np.where(keep, dsq, np.inf))
        o2 = np.argsort(np.take_along_axis(d, o1, axis=1), axis=1, kind="stable")
        order = np.take_along_axis(o1, o2, axis=1)
    top = order[:, :k]
    fit = np.arange(k) < np.minimum(cnt, cap)[:, None]
    # Harvest with direct row-fancy indexing — ``take_along_axis``'s
    # python-level broadcasting checks dominate at these shapes.
    rix = np.arange(n_rows)[:, None]
    out_ids = np.full((n_rows, cap), -1, dtype=np.int64)
    out_ids[:, :k] = np.where(fit, ids_pad[rix, top], -1)
    out_coords = np.zeros((n_rows, cap, coords_pad.shape[2]), dtype=float)
    out_coords[:, :k] = np.where(fit[:, :, None], coords_pad[rix, top], 0.0)
    if _mem.ENABLED:
        out_bytes = out_ids.nbytes + out_coords.nbytes
        if ages_pad is not None:
            out_bytes += out_ids.nbytes  # out_ages mirrors out_ids
        _mem.scratch("kernel_pads", "merge_rank_truncate.out", out_bytes)
    if ages_pad is None:
        return out_ids, out_coords
    out_ages = np.zeros((n_rows, cap), dtype=np.int64)
    out_ages[:, :k] = np.where(fit, ages_pad[rix, top], 0)
    return out_ids, out_coords, out_ages


def row_rank_sq(space, origins: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """Per-row-origin squared rank distances (``space.rank_sq_rows``)."""
    return space.rank_sq_rows(origins, blocks)


@timed("kernel.topk_smallest")
def topk_smallest(values: np.ndarray, k: int) -> np.ndarray:
    """Column indices of the ``k`` smallest finite values per row of a
    2-D array (unordered); rows pad with whatever argpartition leaves,
    so callers must re-check finiteness after the gather.  Already
    bucketed: ``argpartition`` is an O(width) per-row selection, not a
    sort."""
    m = values.shape[1]
    k = min(k, m)
    if k <= 0 or m == 0:
        return np.zeros((values.shape[0], 0), dtype=np.int64)
    if k >= m:
        return np.broadcast_to(np.arange(m), values.shape).copy()
    return np.argpartition(values, k - 1, axis=1)[:, :k]
