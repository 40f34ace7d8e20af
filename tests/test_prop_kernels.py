"""Property tests: batched space kernels ≡ the scalar reference.

The array core routes every hot-path distance through the batched
kernels (``distance_block``, ``distance_sq_block``, ``pairwise``,
``knn_indices`` and the canonical-coordinate ``rank_*`` variants).
These tests pin the contract for every shipped space: per-row float
equality with the scalar ``distance``/``distance_sq`` calls (exact for
the shipped implementations — they run the same operation sequence),
identical rankings, and sensible behaviour on the edge cases the
simulator produces (torus wraparound, a single node, an all-dead
network).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.network import Network
from repro.spaces import Euclidean, FlatTorus, JaccardSpace, Ring

finite = st.floats(
    min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False
)


def coords_2d(min_size=1, max_size=12):
    return st.lists(st.tuples(finite, finite), min_size=min_size, max_size=max_size)


def sets_coords(min_size=1, max_size=10):
    item = st.integers(min_value=0, max_value=20)
    return st.lists(
        st.frozensets(item, max_size=6), min_size=min_size, max_size=max_size
    )


VECTOR_SPACES = [Euclidean(2), FlatTorus(80.0, 40.0), FlatTorus(1.5, 7.25)]


@pytest.mark.parametrize("space", VECTOR_SPACES, ids=repr)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_distance_block_matches_scalar(space, data):
    coords = data.draw(coords_2d())
    origin = data.draw(st.tuples(finite, finite))
    batch = space.pack_batch(coords)
    block = space.distance_block(origin, batch)
    sq_block = space.distance_sq_block(origin, batch)
    scalar = np.array([space.distance(origin, c) for c in coords])
    scalar_sq = np.array([space.distance_sq(origin, c) for c in coords])
    np.testing.assert_allclose(block, scalar, rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(sq_block, scalar_sq, rtol=1e-12, atol=1e-9)
    # Between block and sq-block the relation is exact squaring up to
    # the sqrt rounding.
    np.testing.assert_allclose(block * block, sq_block, rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize("space", VECTOR_SPACES, ids=repr)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_pairwise_matches_distance_block_rows(space, data):
    coords = data.draw(coords_2d(min_size=2, max_size=8))
    batch = space.pack_batch(coords)
    matrix = space.pairwise(batch)
    matrix_sq = space.pairwise_sq(batch)
    for i in range(len(coords)):
        np.testing.assert_array_equal(matrix[i], space.distance_block(batch[i], batch))
        np.testing.assert_array_equal(
            matrix_sq[i], space.distance_sq_block(batch[i], batch)
        )
    # Symmetry and zero diagonal (up to float noise from the fold).
    np.testing.assert_allclose(matrix, matrix.T, rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(np.diag(matrix), 0.0, atol=1e-9)


@pytest.mark.parametrize("space", VECTOR_SPACES, ids=repr)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_knn_indices_matches_scalar_ranking(space, data):
    coords = data.draw(coords_2d(min_size=1, max_size=10))
    origin = data.draw(st.tuples(finite, finite))
    k = data.draw(st.integers(min_value=0, max_value=len(coords) + 2))
    got = space.knn_indices(origin, space.pack_batch(coords), k).tolist()
    dists = space.distance_block(origin, space.pack_batch(coords))
    want = sorted(range(len(coords)), key=lambda i: (dists[i], i))[:k]
    assert got == want


def _wrap_all(space, coords):
    return [space.wrap(c) for c in coords]


@pytest.mark.parametrize("space", [FlatTorus(80.0, 40.0), FlatTorus(3.0, 5.0)], ids=repr)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_torus_rank_kernels_on_canonical_coords(space, data):
    """On wrapped (canonical) coordinates the rank kernels agree with
    the general squared kernels to the last units in the last place
    (the row-dot may fuse multiply-adds) and produce the *identical
    ranking* — the precondition the simulator relies on."""
    coords = _wrap_all(space, data.draw(coords_2d(max_size=10)))
    origin = space.wrap(data.draw(st.tuples(finite, finite)))
    batch = space.pack_batch(coords)
    rank_sq = space.rank_sq_block(origin, batch)
    general_sq = space.distance_sq_block(origin, batch)
    np.testing.assert_allclose(rank_sq, general_sq, rtol=1e-12, atol=1e-9)
    np.testing.assert_allclose(
        space.pairwise_rank_sq(batch), space.pairwise_sq(batch),
        rtol=1e-12, atol=1e-9,
    )
    np.testing.assert_array_equal(
        space.pairwise_canonical(batch), space.pairwise(batch)
    )
    ids = np.arange(len(coords))
    assert np.lexsort((ids, rank_sq)).tolist() == np.lexsort((ids, general_sq)).tolist()


def test_torus_rank_kernels_bit_exact_on_grid():
    """On integer grid coordinates (the evaluation scenarios) squared
    distances are exactly representable, so the rank kernels are
    bit-identical to the general ones — this is what keeps the golden
    digests unchanged."""
    space = FlatTorus(8.0, 4.0)
    coords = [(float(x), float(y)) for x in range(8) for y in range(4)]
    batch = space.pack_batch(coords)
    for origin in [(0.0, 0.0), (7.0, 3.0), (4.0, 2.0)]:
        np.testing.assert_array_equal(
            space.rank_sq_block(origin, batch),
            space.distance_sq_block(origin, batch),
        )
    np.testing.assert_array_equal(
        space.pairwise_rank_sq(batch), space.pairwise_sq(batch)
    )


def test_torus_wraparound_block():
    """The classic wraparound case: opposite corners are 1 step apart
    on the torus, through the boundary."""
    space = FlatTorus(80.0, 40.0)
    batch = space.pack_batch([(79.0, 39.0), (0.0, 0.0), (40.0, 20.0)])
    dists = space.distance_block((0.0, 0.0), batch)
    assert dists[0] == pytest.approx(np.sqrt(2.0))
    assert dists[1] == 0.0
    assert dists[2] == pytest.approx(np.hypot(40.0, 20.0))


def test_ring_kernels_inherit_torus():
    space = Ring(1.0)
    batch = space.pack_batch([(0.9,), (0.5,), (0.1,)])
    np.testing.assert_allclose(
        space.distance_block((0.0,), batch), [0.1, 0.5, 0.1], atol=1e-12
    )


class TestJaccardKernels:
    space = JaccardSpace()

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_block_matches_scalar(self, data):
        coords = data.draw(sets_coords())
        origin = data.draw(st.frozensets(st.integers(0, 20), max_size=6))
        batch = self.space.pack_batch(coords)
        block = self.space.distance_block(origin, batch)
        sq_block = self.space.distance_sq_block(origin, batch)
        for i, coord in enumerate(coords):
            assert block[i] == self.space.distance(origin, coord)
            assert sq_block[i] == self.space.distance_sq(origin, coord)

    def test_distance_sq_exact(self):
        a, b = frozenset({1, 2, 3}), frozenset({2, 3, 4, 5})
        d = self.space.distance(a, b)
        assert self.space.distance_sq(a, b) == d * d
        assert self.space.distance_sq(frozenset(), frozenset()) == 0.0

    def test_empty_sets_in_block(self):
        empty = frozenset()
        batch = self.space.pack_batch([empty, frozenset({1})])
        dists = self.space.distance_block(empty, batch)
        assert dists.tolist() == [0.0, 1.0]

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_pairwise_symmetric(self, data):
        coords = data.draw(sets_coords(min_size=2, max_size=6))
        matrix = self.space.pairwise(self.space.pack_batch(coords))
        np.testing.assert_array_equal(matrix, matrix.T)
        assert np.all(np.diag(matrix) == 0.0)

    def test_distance_many_vectorised(self):
        coords = [frozenset({1, 2}), frozenset({3}), frozenset()]
        origin = frozenset({1})
        got = self.space.distance_many(origin, coords)
        want = [self.space.distance(origin, c) for c in coords]
        assert got.tolist() == want


class TestSimulatorEdgeCases:
    def test_single_node_network_kernels(self):
        network = Network()
        network.add_node((1.0, 2.0))
        ids = np.array([0])
        assert network.alive_mask(ids).tolist() == [True]
        assert network.positions_of(ids).tolist() == [[1.0, 2.0]]

    def test_all_dead_network_mask(self):
        network = Network()
        for i in range(4):
            network.add_node((float(i), 0.0))
        network.fail([0, 1, 2, 3], rnd=1)
        ids = np.array([0, 1, 2, 3])
        assert not network.alive_mask(ids).any()
        assert network.alive_ids() == []
        assert network.alive_positions().shape == (0, 2)

    def test_empty_batch_blocks(self):
        space = FlatTorus(8.0, 4.0)
        batch = space.pack_batch([])
        assert space.distance_block((0.0, 0.0), batch).shape == (0,)
        assert space.knn_indices((0.0, 0.0), batch, 3).shape == (0,)


@pytest.mark.parametrize("space", VECTOR_SPACES, ids=repr)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_distance_rows_matches_scalar(space, data):
    """Row-paired kernel (homogeneity's single-holder scan, the batch
    merge rankings) ≡ the scalar distance per row."""
    n = data.draw(st.integers(min_value=1, max_value=10))
    a = data.draw(st.lists(st.tuples(finite, finite), min_size=n, max_size=n))
    b = data.draw(st.lists(st.tuples(finite, finite), min_size=n, max_size=n))
    rows = space.distance_rows(space.pack_batch(a), space.pack_batch(b))
    scalar = np.array([space.distance(x, y) for x, y in zip(a, b)])
    np.testing.assert_allclose(rows, scalar, rtol=1e-12, atol=1e-9)


@pytest.mark.parametrize(
    "space", [Euclidean(2), FlatTorus(80.0, 40.0)], ids=repr
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_rank_sq_rows_matches_scalar_on_canonical(space, data):
    """Per-row-origin rank kernel (the batch engine's workhorse) ≡ the
    scalar rank_sq_block per row, on canonical coordinates."""
    def canonical(draw_n):
        if isinstance(space, FlatTorus):
            xs = st.tuples(
                st.floats(min_value=0, max_value=79.99, allow_nan=False),
                st.floats(min_value=0, max_value=39.99, allow_nan=False),
            )
        else:
            xs = st.tuples(finite, finite)
        return st.lists(xs, min_size=draw_n, max_size=draw_n)

    n = data.draw(st.integers(min_value=1, max_value=6))
    m = data.draw(st.integers(min_value=1, max_value=8))
    origins = data.draw(canonical(n))
    blocks = [data.draw(canonical(m)) for _ in range(n)]
    batch = np.asarray(blocks, dtype=float)
    got = space.rank_sq_rows(space.pack_batch(origins), batch)
    for i in range(n):
        want = space.rank_sq_block(origins[i], batch[i])
        np.testing.assert_allclose(got[i], want, rtol=1e-12, atol=1e-9)

# -- batch merge kernels vs the global-sort oracles -----------------------
#
# The receiver-bucketed merge kernels replaced the global composite-key
# sorts; the originals live on as oracles in ``tests/kernel_oracles.py``
# and these suites pin exact output equality — same survivors, same
# slots, same ages, same tie-breaking.

from repro.sim.batch import kernels as batch_kernels

from tests.kernel_oracles import (
    dedup_priority_truncate_reference,
    merge_rank_truncate_reference,
)


def flat_loads(single_receiver=False, duplicate_ids=False):
    """Strategy for flat (recv, ids, ages, prio) merge loads, biased
    toward the degenerate shapes: empty loads, one receiver bucket,
    heavily duplicated ids."""
    n_recv = st.just(1) if single_receiver else st.integers(1, 6)
    id_pool = st.just(7) if duplicate_ids else st.integers(0, 9)
    return st.tuples(
        n_recv,
        st.lists(
            st.tuples(id_pool, st.integers(0, 50), st.integers(0, 2)),
            min_size=0,
            max_size=60,
        ),
    )


def _unpack_load(draw_pair, data):
    n_recv, rows = draw_pair
    n = len(rows)
    recv = data.draw(
        st.lists(st.integers(0, n_recv - 1), min_size=n, max_size=n)
    )
    if data.draw(st.booleans()):  # callers send both orders
        recv = sorted(recv)
    recv = np.asarray(recv, dtype=np.int64)
    ids = np.asarray([r[0] for r in rows], dtype=np.int64)
    ages = np.asarray([r[1] for r in rows], dtype=np.int64)
    prio = np.asarray([r[2] for r in rows], dtype=np.int64)
    return recv, ids, ages, prio


@pytest.mark.parametrize(
    "shape",
    [dict(), dict(single_receiver=True), dict(duplicate_ids=True)],
    ids=("mixed", "single-receiver", "all-duplicate-ids"),
)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_dedup_priority_truncate_matches_reference(shape, data):
    recv, ids, ages, prio = _unpack_load(data.draw(flat_loads(**shape)), data)
    order_in = np.arange(len(recv), dtype=np.int64)
    cap = data.draw(st.integers(1, 8))
    want = dedup_priority_truncate_reference(
        recv, ids, prio, order_in, ages, cap
    )
    got = batch_kernels.dedup_priority_truncate(
        recv, ids, prio, order_in, ages, cap
    )
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)


def _merge_model(space, pos, ids_pad, coords_pad, valid, cap, ages_pad):
    """Dict-model of the fused padded merge: per row keep the rightmost
    copy of each id, rank by sqrt(rank_sq) with id tie-break, truncate.
    Distances come from the same ``rank_sq_rows`` matrix the kernel
    uses, so the comparison isolates the dedup/rank/truncate logic."""
    n_rows, width = ids_pad.shape
    dsq = space.rank_sq_rows(pos, coords_pad)
    out_ids = np.full((n_rows, cap), -1, dtype=np.int64)
    out_coords = np.zeros((n_rows, cap, coords_pad.shape[2]))
    out_ages = np.zeros((n_rows, cap), dtype=np.int64)
    for r in range(n_rows):
        lastcol = {}
        for c in range(width):
            if valid[r, c]:
                lastcol[int(ids_pad[r, c])] = c
        ranked = sorted(
            lastcol.items(), key=lambda kv: (np.sqrt(dsq[r, kv[1]]), kv[0])
        )[:cap]
        for slot, (pid, c) in enumerate(ranked):
            out_ids[r, slot] = pid
            out_coords[r, slot] = coords_pad[r, c]
            if ages_pad is not None:
                out_ages[r, slot] = ages_pad[r, c]
    if ages_pad is None:
        return out_ids, out_coords
    return out_ids, out_coords, out_ages


@pytest.mark.parametrize("grid", [True, False], ids=("int-grid", "float"))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_merge_rank_truncate_matches_dict_model(grid, data):
    """The fused padded merge ≡ a per-row dict model, on both the exact
    integer-key path (grid coordinates) and the float sqrt path, with
    empty rows, duplicate ids and tied distances in the mix.  The flat
    global-sort oracle the kernel gate times it against agrees too."""
    space = FlatTorus(16.0, 8.0)
    n_rows = data.draw(st.integers(1, 5))
    width = data.draw(st.integers(1, 12))
    cap = data.draw(st.integers(1, 6))
    if grid:
        coord = st.tuples(
            st.integers(0, 15).map(float), st.integers(0, 7).map(float)
        )
    else:
        coord = st.tuples(
            st.floats(0, 15.99, allow_nan=False),
            st.floats(0, 7.99, allow_nan=False),
        )
    rows = data.draw(
        st.lists(
            st.lists(
                st.tuples(st.integers(0, 6), coord, st.integers(0, 30)),
                min_size=width,
                max_size=width,
            ),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    valid = np.asarray(
        data.draw(
            st.lists(
                st.lists(st.booleans(), min_size=width, max_size=width),
                min_size=n_rows,
                max_size=n_rows,
            )
        ),
        dtype=bool,
    )
    pos = space.pack_batch([data.draw(coord) for _ in range(n_rows)])
    ids_pad = np.where(
        valid, np.asarray([[e[0] for e in row] for row in rows]), -1
    ).astype(np.int64)
    coords_pad = np.asarray(
        [[e[1] for e in row] for row in rows], dtype=float
    )
    ages_pad = np.asarray([[e[2] for e in row] for row in rows], dtype=np.int64)
    with_ages = data.draw(st.booleans())
    args = (space, pos, ids_pad, coords_pad, valid, cap)
    want = _merge_model(*args, ages_pad if with_ages else None)
    got = batch_kernels.merge_rank_truncate(
        *args, ages_pad if with_ages else None
    )
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w)
    flat = merge_rank_truncate_reference(*args, ages_pad if with_ages else None)
    for f, w in zip(flat, want):
        np.testing.assert_array_equal(f, w)


def test_dedup_priority_truncate_empty_load():
    """An empty flat load (no bucket at all) returns empty selections."""
    empty = np.zeros(0, dtype=np.int64)
    sel, slot, age = batch_kernels.dedup_priority_truncate(
        empty, empty, empty, empty, empty, 4
    )
    assert len(sel) == 0 and len(slot) == 0 and len(age) == 0


def test_merge_rank_truncate_tie_break_is_id_order():
    """Equal distances rank by ascending id — the contract the golden
    digests depend on, checked against a hand-built load."""
    space = Euclidean(1)
    ids_pad = np.asarray([[9, 3, 7, 5]], dtype=np.int64)
    coords_pad = np.ones((1, 4, 1))
    valid = np.ones((1, 4), dtype=bool)
    out_ids, _ = batch_kernels.merge_rank_truncate(
        space, np.zeros((1, 1)), ids_pad, coords_pad, valid, 3
    )
    assert out_ids.tolist() == [[3, 5, 7]]


@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_counting_partition_matches_stable_argsort(data):
    """The migration round's counting-based stable partition (valid
    candidates packed to the front, order preserved) ≡ the stable
    argsort on ``~valid`` it replaced."""
    n = data.draw(st.integers(1, 8))
    w = data.draw(st.integers(1, 10))
    cand = np.asarray(
        data.draw(
            st.lists(
                st.lists(st.integers(-1, 50), min_size=w, max_size=w),
                min_size=n,
                max_size=n,
            )
        ),
        dtype=np.int64,
    )
    valid = cand >= 0
    run_v = np.cumsum(valid, axis=1)
    counts = run_v[:, -1]
    col = np.arange(w, dtype=np.int64)
    dest = np.where(valid, run_v - 1, counts[:, None] + col - run_v)
    packed = np.empty_like(cand)
    np.put_along_axis(packed, dest, cand, axis=1)
    order = np.argsort(~valid, axis=1, kind="stable")
    want = np.take_along_axis(cand, order, axis=1)
    np.testing.assert_array_equal(packed, want)
