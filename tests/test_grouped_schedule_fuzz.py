"""`_grouped_greedy` must be placement-for-placement identical to the serial
`SuperMessageRouter._schedule_blocks` greedy.

The batched router's grouped fast path schedules whole message *runs* with
scalar bit tricks instead of per-chunk scans; the parity contract is that
every chunk lands in exactly the (batch, block) the serial scheduler gives
it — that is what makes grouped batched routing bit-identical to serial
trial loops.  This fuzz pins the contract over random single-target
workloads, including the run-cache and first_open edge cases.
"""

import numpy as np
import pytest

from repro.core.batched_routing import _grouped_greedy
from repro.core.routing import SuperMessageRouter, _Chunk


def reference_schedule(srcs, tgts, counts, num_blocks):
    """Run the serial scheduler on the equivalent chunk list and read the
    per-chunk (batch, block) placements back in message order."""
    chunks = []
    for m, (src, tgt, count) in enumerate(zip(srcs, tgts, counts)):
        for index in range(count):
            chunks.append(_Chunk(source=int(src), slot=m, index=index,
                                 bits=np.ones(1, dtype=np.uint8),
                                 targets=(int(tgt),)))
    batches = SuperMessageRouter._schedule_blocks(chunks, num_blocks)
    placement = {}
    for batch_index, batch in enumerate(batches):
        for chunk, block in batch:
            placement[id(chunk)] = (batch_index, block)
    batch_arr = np.array([placement[id(c)][0] for c in chunks],
                         dtype=np.int64)
    block_arr = np.array([placement[id(c)][1] for c in chunks],
                         dtype=np.int64)
    return batch_arr, block_arr, len(batches)


@pytest.mark.parametrize("seed", range(20))
def test_grouped_greedy_matches_serial_scheduler(seed):
    rng = np.random.default_rng(seed)
    nodes = int(rng.integers(4, 24))
    num_messages = int(rng.integers(1, 60))
    num_blocks = int(rng.integers(1, 9))
    srcs = rng.integers(0, nodes, size=num_messages)
    tgts = rng.integers(0, nodes, size=num_messages)
    counts = rng.integers(1, 6 * num_blocks, size=num_messages)
    got_batch, got_block, got_batches = _grouped_greedy(
        srcs, tgts, counts, num_blocks)
    want_batch, want_block, want_batches = reference_schedule(
        srcs, tgts, counts, num_blocks)
    np.testing.assert_array_equal(got_batch, want_batch)
    np.testing.assert_array_equal(got_block, want_block)
    assert got_batches == want_batches


def test_repeated_key_runs_share_batches():
    # consecutive chunks of one (source, target) run exercise the
    # run-cache (prev_free) path on both schedulers
    srcs = np.array([0, 0, 0, 1, 0], dtype=np.int64)
    tgts = np.array([2, 2, 2, 2, 2], dtype=np.int64)
    counts = np.array([5, 3, 7, 2, 4], dtype=np.int64)
    got = _grouped_greedy(srcs, tgts, counts, 4)
    want = reference_schedule(srcs, tgts, counts, 4)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2] == want[2]


def test_empty_schedule():
    empty = np.zeros(0, dtype=np.int64)
    batch, block, num_batches = _grouped_greedy(empty, empty, empty, 4)
    assert len(batch) == 0 and len(block) == 0 and num_batches == 0


@pytest.mark.parametrize("seed", range(10))
def test_bitmask_scheduler_matches_set_reference(seed):
    # the serial scheduler (the oracle above) against its own set-based
    # reference, on multi-target chunk lists
    rng = np.random.default_rng(100 + seed)
    nodes = int(rng.integers(4, 20))
    num_blocks = int(rng.integers(1, 9))
    chunks = []
    for m in range(int(rng.integers(1, 50))):
        src = int(rng.integers(0, nodes))
        targets = tuple(sorted(set(
            rng.integers(0, nodes, size=int(rng.integers(1, 4))).tolist())))
        for index in range(int(rng.integers(1, 3 * num_blocks))):
            chunks.append(_Chunk(source=src, slot=m, index=index,
                                 bits=np.ones(1, dtype=np.uint8),
                                 targets=targets))
    got = SuperMessageRouter._schedule_blocks(chunks, num_blocks)
    want = SuperMessageRouter._schedule_blocks_reference(chunks, num_blocks)
    assert [[(id(c), b) for c, b in batch] for batch in got] == \
        [[(id(c), b) for c, b in batch] for batch in want]
