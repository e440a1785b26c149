"""Trial-batched super-message routing over a :class:`BatchedClique`.

A campaign cell runs the *same* routing step in every trial, so the two
clique rounds of each wave can move all trials at once.  Parity strategy:
one kernel, three front ends.

* :func:`~repro.core.routing.relay_waves` is the only code that stages
  blocks-mode relay rounds, for the serial router and for every batched
  entry point alike.  It takes flat chunk rows (trial, batch, block,
  source, padded payload) plus chunk -> target edges, addresses the
  ``(trials, n, n)`` stack through flat keys, and batches ECC
  encode/decode across every trial's rows of a wave.  Serial routing is
  the same kernel on an ``(n, n)`` network, so placements, staged planes,
  erasure gating and round labels cannot drift apart.
* The front ends only differ in how they build the schedule:

  - :meth:`BatchedRouter.route` — per-trial message lists, each chunked
    and scheduled by the serial router's own ``_split_into_chunks`` /
    ``_schedule_blocks`` (the shared
    :func:`~repro.core.routing.route_message_lists`, which the serial
    router calls with one trial);
  - :meth:`BatchedRouter.route_shared` — one prototype message structure
    for every trial (det-sqrt, det-logn, broadcasts): chunked and
    scheduled once, its rows tiled over the batch;
  - :meth:`BatchedRouter.route_grouped` — a shared structure whose single
    targets and sources are per-trial node ids (the adaptive compiler's
    concentration and gather, nonadaptive's return step): one
    message-run greedy (:func:`_grouped_greedy`) per trial,
    placement-for-placement the serial scheduler's.

* Trials run in lockstep only when every trial's schedule has the same
  batch count (then every wave has the same plane width in every trial);
  otherwise :class:`CellUnbatchable` is raised and the caller falls back to
  per-trial serial execution.

Blocks mode only: cover-free relay sets are not blocks, so cover-free
routing keeps its own serial executor.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.cliquesim.batched import BatchedClique
from repro.core.profiles import ProtocolProfile, SIMULATION
from repro.core.routing import (
    CellUnbatchable,
    RoutingResult,
    SuperMessage,
    SuperMessageRouter,
    relay_waves,
    route_message_lists,
)
from repro.obs import metrics, tracing

def _assemble(decoded: np.ndarray, slots: np.ndarray, starts: np.ndarray,
              sizes: np.ndarray, num_slots: int, width: int) -> np.ndarray:
    """Scatter chunk rows ``decoded[:, r]`` into bits ``[starts[r],
    starts[r] + sizes[r])`` of slot ``slots[r]`` of a ``(trials,
    num_slots, width)`` tensor; rows sharing (start, size) move as one
    slice write."""
    out = np.zeros((decoded.shape[0], num_slots, width), dtype=np.uint8)
    key = starts * (width + 1) + sizes
    for value in np.unique(key).tolist():
        start, size = divmod(value, width + 1)
        sel = np.flatnonzero(key == value)
        out[:, slots[sel], start:start + size] = decoded[:, sel, :size]
    return out


@dataclass
class SharedRoutingResult:
    """Result of :meth:`BatchedRouter.route_shared`: decoded chunk rows for
    the whole batch plus the index arrays to slice them back into
    per-message bit strings.  ``decoded[t, e]`` is trial ``t``'s decode of
    chunk-target row ``e``; rows map to messages through ``e_message`` /
    ``e_target`` / ``e_start`` / ``e_size``."""

    decoded: np.ndarray        # (trials, E, capacity) uint8
    failed: np.ndarray         # (trials, E) bool decode-failure flags
    e_message: np.ndarray      # (E,) message position of each chunk row
    e_target: np.ndarray       # (E,) target node of each chunk row
    e_start: np.ndarray        # (E,) bit offset of the chunk in its message
    e_size: np.ndarray         # (E,) chunk payload bits
    bit_length: int            # shared message length L
    rounds: int
    batches: int
    codeword_bits: int
    dropped: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    def single_target_stack(self, num_messages: int) -> np.ndarray:
        """``(trials, num_messages, L)`` received bits — message ``j``'s
        row is what its (unique) target decoded.  Only valid when every
        message has exactly one target."""
        return _assemble(self.decoded, self.e_message, self.e_start,
                         self.e_size, num_messages, self.bit_length)

    def target_stack(self, message: int) -> np.ndarray:
        """``(trials, n_targets, L)`` received bits of one (multi-target)
        message, rows indexed by target node id order."""
        rows = np.flatnonzero(self.e_message == message)
        targets = np.unique(self.e_target[rows])
        return _assemble(self.decoded[:, rows],
                         np.searchsorted(targets, self.e_target[rows]),
                         self.e_start[rows], self.e_size[rows], targets.size,
                         self.bit_length)


@dataclass
class GroupedRoutingResult:
    """Result of :meth:`BatchedRouter.route_grouped`: decoded chunk rows in
    one canonical chunk order shared by every trial.  ``decoded[t, c]`` is
    trial ``t``'s decode of chunk ``c``; chunks map back to messages through
    ``chunk_msg`` / ``chunk_start`` / ``chunk_size``."""

    decoded: np.ndarray        # (trials, C, capacity) uint8
    failed: np.ndarray         # (trials, C) bool decode-failure flags
    chunk_msg: np.ndarray      # (C,) canonical message index of each chunk
    chunk_start: np.ndarray    # (C,) bit offset of the chunk in its message
    chunk_size: np.ndarray     # (C,) chunk payload bits
    sizes: np.ndarray          # (M,) message bit lengths
    rounds: int
    batches: int
    codeword_bits: int
    dropped: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    def message_bits(self) -> np.ndarray:
        """``(trials, M, Lmax)`` received bits — message ``m``'s row is what
        its (single) target decoded, chunks concatenated in index order
        exactly as the serial reassembly concatenates them."""
        return _assemble(self.decoded, self.chunk_msg, self.chunk_start,
                         self.chunk_size, self.sizes.size,
                         int(self.sizes.max()))


def _grouped_greedy(srcs: np.ndarray, tgts: np.ndarray, counts: np.ndarray,
                    num_blocks: int):
    """Message-run formulation of the serial scheduler's greedy: place each
    message's chunk run by taking the lowest free blocks of each feasible
    batch, which is placement-for-placement what
    :meth:`SuperMessageRouter._schedule_blocks` does chunk by chunk
    (consecutive chunks of one message share (source, target), so the
    reference's run-cache takes exactly the lowest remaining free bits).
    Single-target messages only.  Returns per-chunk (batch, block) arrays
    in the given message order plus the batch count."""
    full = (1 << num_blocks) - 1
    nodes = int(max(srcs.max(), tgts.max())) + 1 if srcs.size else 1
    # per-node occupancy columns as plain Python int lists, grown lazily
    # (an index past a column's length reads as 0) — scalar probes and
    # updates on them are several times cheaper than numpy item access
    src_cols: List[List[int]] = [[] for _ in range(nodes)]
    tgt_cols: List[List[int]] = [[] for _ in range(nodes)]
    num_batches = 0
    first_open: Dict[int, int] = defaultdict(int)
    run_batch: List[int] = []
    run_mask: List[int] = []
    run_take: List[int] = []
    prev_key = None
    prev_batch = -1
    prev_free = 0
    srcs_l = srcs.tolist()
    tgts_l = tgts.tolist()
    counts_l = counts.tolist()
    for m in range(len(srcs_l)):
        src = srcs_l[m]
        tgt = tgts_l[m]
        remaining = counts_l[m]
        key = (src, tgt)
        scol = src_cols[src]
        tcol = tgt_cols[tgt]
        # a run only ever conflicts with its *own* placements, so the open
        # suffix seen at run start stays valid for the whole run: the
        # reference greedy's later scans (always from prev_batch + 1) see
        # exactly these masks
        if key == prev_key:
            scan_from = prev_batch + 1
            if prev_free:
                take = min(remaining, prev_free.bit_count())
                mask = 0
                rest = prev_free
                for _ in range(take):
                    bit = rest & -rest
                    mask |= bit
                    rest &= ~bit
                run_batch.append(prev_batch)
                run_mask.append(mask)
                run_take.append(take)
                scol[prev_batch] |= mask
                tcol[prev_batch] |= mask
                prev_free = rest
                remaining -= take
        else:
            fo = first_open[src]
            ls = len(scol)
            while fo < num_batches and fo < ls and scol[fo] == full:
                fo += 1
            first_open[src] = fo
            scan_from = fo
        if remaining and scan_from < num_batches \
                and remaining <= 4 * num_blocks:
            # short run: a scalar scan with early exit (the first open
            # batch is almost always within a step or two).  If the scan
            # runs dry every batch past scan_from is closed for this key,
            # so falling through to the append path is correct.
            ls = len(scol)
            lt = len(tcol)
            for batch_index in range(scan_from, num_batches):
                used = (scol[batch_index] if batch_index < ls else 0) \
                    | (tcol[batch_index] if batch_index < lt else 0)
                free = ~used & full
                if not free:
                    continue
                pc = free.bit_count()
                if remaining < pc:
                    take = remaining
                    mask = 0
                    rest = free
                    for _ in range(take):
                        bit = rest & -rest
                        mask |= bit
                        rest &= ~bit
                else:
                    take = pc
                    mask = free
                    rest = 0
                run_batch.append(batch_index)
                run_mask.append(mask)
                run_take.append(take)
                if batch_index >= ls:
                    scol.extend([0] * (batch_index + 1 - ls))
                    ls = batch_index + 1
                if batch_index >= lt:
                    tcol.extend([0] * (batch_index + 1 - lt))
                    lt = batch_index + 1
                scol[batch_index] |= mask
                tcol[batch_index] |= mask
                prev_batch = batch_index
                prev_free = rest
                remaining -= take
                if not remaining:
                    break
        elif remaining and scan_from < num_batches:
            ls = len(scol)
            lt = len(tcol)
            open_masks = np.array(
                [~((scol[b] if b < ls else 0)
                   | (tcol[b] if b < lt else 0)) & full
                 for b in range(scan_from, num_batches)], dtype=np.int64)
            nz = np.flatnonzero(open_masks)
            if nz.size:
                free_m = open_masks[nz]
                pc = np.bitwise_count(free_m).astype(np.int64)
                cum = np.cumsum(pc)
                k = int(np.searchsorted(cum, remaining))
                if k >= nz.size:
                    # every open batch is fully consumed
                    use_b = (scan_from + nz).tolist()
                    use_m = free_m.tolist()
                    use_t = pc.tolist()
                    remaining -= int(cum[-1])
                    prev_free = 0
                else:
                    # batches before k are fully consumed; batch k takes
                    # its lowest remaining bits
                    use_b = (scan_from + nz[:k + 1]).tolist()
                    use_m = free_m[:k + 1].tolist()
                    use_t = pc[:k + 1].tolist()
                    last_take = remaining - (int(cum[k - 1]) if k else 0)
                    mask = 0
                    rest = int(free_m[k])
                    for _ in range(last_take):
                        bit = rest & -rest
                        mask |= bit
                        rest &= ~bit
                    use_m[k] = mask
                    use_t[k] = last_take
                    prev_free = rest
                    remaining = 0
                prev_batch = use_b[-1]
                run_batch.extend(use_b)
                run_mask.extend(use_m)
                run_take.extend(use_t)
                top = use_b[-1] + 1
                if top > ls:
                    scol.extend([0] * (top - ls))
                if top > lt:
                    tcol.extend([0] * (top - lt))
                for b, mk in zip(use_b, use_m):
                    scol[b] |= mk
                    tcol[b] |= mk
        if remaining:
            # nothing open at or past the scan head: the reference greedy
            # appends one batch per iteration, each taking the lowest
            # remaining bits — place the whole tail at once
            n_full, leftover = divmod(remaining, num_blocks)
            if n_full:
                run_batch.extend(range(num_batches, num_batches + n_full))
                run_mask.extend([full] * n_full)
                run_take.extend([num_blocks] * n_full)
                scol.extend([0] * (num_batches - len(scol)))
                scol.extend([full] * n_full)
                tcol.extend([0] * (num_batches - len(tcol)))
                tcol.extend([full] * n_full)
                num_batches += n_full
                prev_batch = num_batches - 1
                prev_free = 0
            if leftover:
                mask = (1 << leftover) - 1
                run_batch.append(num_batches)
                run_mask.append(mask)
                run_take.append(leftover)
                scol.extend([0] * (num_batches - len(scol)))
                scol.append(mask)
                tcol.extend([0] * (num_batches - len(tcol)))
                tcol.append(mask)
                prev_batch = num_batches
                prev_free = full & ~mask
                num_batches += 1
        prev_key = key
    takes = np.array(run_take, dtype=np.int64)
    batch_out = np.repeat(np.array(run_batch, dtype=np.int64), takes)
    bit_rows = (np.array(run_mask, dtype=np.int64)[:, None]
                >> np.arange(num_blocks)[None, :]) & 1
    block_out = np.nonzero(bit_rows)[1]  # row-major: ascending per run
    return batch_out, block_out, num_batches


def _chunk_payload(bits_stack: np.ndarray, trial: np.ndarray,
                   msg: np.ndarray, start: np.ndarray, size: np.ndarray,
                   k: int) -> np.ndarray:
    """``(rows, k)`` zero-padded payloads: row ``r`` is bits
    ``[start, start + size)`` of message ``msg[r]`` in trial ``trial[r]``."""
    arange_k = np.arange(k)
    valid = arange_k[None, :] < size[:, None]
    col = np.where(valid, start[:, None] + arange_k[None, :], 0)
    return np.where(valid, bits_stack[trial[:, None], msg[:, None], col],
                    0).astype(np.uint8)


class BatchedRouter:
    """Executes one routing instance per trial, lockstep over the batch."""

    def __init__(self, net: BatchedClique,
                 profile: ProtocolProfile = SIMULATION):
        self.net = net
        self.profile = profile

    def _code(self):
        return self.profile.select_routing_code(self.net.n,
                                                self.net.adversary.alpha)

    def route(self, trials_messages: Sequence[Sequence[SuperMessage]],
              label: str = "routing") -> List[RoutingResult]:
        """Route trial ``t``'s ``trials_messages[t]`` for every ``t``;
        returns one serial-identical :class:`RoutingResult` per trial."""
        with metrics.timed("routing.route"), \
                tracing.maybe_span(f"{label}/route",
                                   messages=sum(map(len, trials_messages)),
                                   trials=len(trials_messages)):
            if len(trials_messages) != self.net.trials:
                raise ValueError(
                    f"expected {self.net.trials} per-trial message lists, "
                    f"got {len(trials_messages)}")
            length, code = self._code()
            return route_message_lists(self.net, trials_messages, length,
                                       code, label)

    def route_shared(self, messages: Sequence[SuperMessage],
                     bits_stack: np.ndarray,
                     label: str = "routing") -> SharedRoutingResult:
        """Shared-structure fast path: every trial sends the *same* message
        structure (keys, lengths, targets — ``messages`` is the prototype)
        with per-trial payloads ``bits_stack[t, j]`` for message ``j``.

        Chunking and scheduling then run **once** instead of per trial —
        the schedule depends only on structure, so it equals the schedule a
        serial run computes for every trial — and the rows tile across the
        batch into one :func:`~repro.core.routing.relay_waves` call.
        """
        with metrics.timed("routing.route"), \
                tracing.maybe_span(f"{label}/route",
                                   messages=len(messages) * self.net.trials,
                                   trials=self.net.trials):
            return self._route_shared(messages, bits_stack, label)

    def route_grouped(self, sources: np.ndarray, slots: np.ndarray,
                      sizes: np.ndarray, targets: np.ndarray,
                      bits_stack: np.ndarray,
                      label: str = "routing") -> GroupedRoutingResult:
        """Grouped fast path for *structure-shared* routings with per-trial
        node ids: every trial sends the same number of messages with the
        same bit lengths and slots, but message ``m``'s source and (single)
        target node are per-trial values ``sources[t, m]`` /
        ``targets[t, m]`` (e.g. the adaptive compiler's partition-dependent
        concentration and gather steps, nonadaptive's shift-dependent
        return step).

        Chunk structure (counts, offsets, sizes) is computed once; each
        trial's greedy schedule runs at message-run granularity
        (:func:`_grouped_greedy`), placement-for-placement identical to the
        serial scheduler on that trial's key-sorted message list.  Raises
        :class:`CellUnbatchable` when per-trial batch counts diverge."""
        with metrics.timed("routing.route"), \
                tracing.maybe_span(f"{label}/route",
                                   messages=int(np.asarray(sizes).size)
                                   * self.net.trials,
                                   trials=self.net.trials):
            return self._route_grouped(sources, slots, sizes, targets,
                                       bits_stack, label)

    def _route_grouped(self, sources, slots, sizes, targets, bits_stack,
                       label) -> GroupedRoutingResult:
        net = self.net
        n, trials = net.n, net.trials
        sources = np.asarray(sources, dtype=np.int64)
        slots = np.asarray(slots, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        bits_stack = np.ascontiguousarray(bits_stack, dtype=np.uint8)
        num_messages = sizes.size
        if sources.shape != (trials, num_messages) \
                or targets.shape != (trials, num_messages) \
                or slots.shape != (num_messages,):
            raise ValueError("sources/targets must be (trials, M), "
                             "slots (M,)")
        if bits_stack.ndim != 3 or bits_stack.shape[:2] != (trials,
                                                            num_messages):
            raise ValueError(
                f"bits_stack must be (trials={trials}, M={num_messages}, "
                f"Lmax); got {bits_stack.shape}")
        if num_messages == 0 or sizes.min() < 1:
            raise ValueError("grouped routing needs non-empty messages")
        length, code = self._code()
        capacity = code.k
        num_blocks = n // length
        if num_blocks > 62:
            raise CellUnbatchable(
                "grouped scheduler handles at most 62 relay blocks")

        # canonical chunk arrays, shared by every trial
        n_chunks = -(-sizes // capacity)
        total_chunks = int(n_chunks.sum())
        chunk_msg = np.repeat(np.arange(num_messages), n_chunks)
        c_start = np.cumsum(n_chunks) - n_chunks
        within = np.arange(total_chunks) - np.repeat(c_start, n_chunks)
        chunk_start = within * capacity
        chunk_size = np.minimum(capacity, sizes[chunk_msg] - chunk_start)

        # per-trial schedules at message-run granularity, scattered into
        # the canonical chunk numbering through each trial's key order
        chunk_batch = np.empty((trials, total_chunks), dtype=np.int64)
        chunk_block = np.empty((trials, total_chunks), dtype=np.int64)
        batch_counts = set()
        num_batches = 0
        for t in range(trials):
            order = np.lexsort((slots, sources[t]))
            so = sources[t][order]
            sl = slots[order]
            if np.any((so[1:] == so[:-1]) & (sl[1:] == sl[:-1])):
                raise ValueError("duplicate super-message key in trial "
                                 f"{t}")
            batch_o, block_o, num_batches = _grouped_greedy(
                so, targets[t][order], n_chunks[order], num_blocks)
            counts_o = n_chunks[order]
            canon = np.repeat(c_start[order], counts_o) \
                + (np.arange(total_chunks)
                   - np.repeat(np.cumsum(counts_o) - counts_o, counts_o))
            chunk_batch[t, canon] = batch_o
            chunk_block[t, canon] = block_o
            batch_counts.add(num_batches)
        if len(batch_counts) > 1:
            raise CellUnbatchable(
                f"per-trial schedules diverge: batch counts "
                f"{sorted(batch_counts)}")

        # one row (and one edge: single target) per (trial, chunk)
        tr = np.repeat(np.arange(trials), total_chunks)
        ch = np.tile(np.arange(total_chunks), trials)
        msgs = chunk_msg[ch]
        start_rounds = net.rounds_used
        decoded, failed, dropped, _ = relay_waves(
            net, code, length, tr, chunk_batch.reshape(-1),
            chunk_block.reshape(-1), sources[tr, msgs],
            _chunk_payload(bits_stack, tr, msgs, chunk_start[ch],
                           chunk_size[ch], capacity),
            np.arange(tr.size), targets[tr, msgs], label)
        return GroupedRoutingResult(
            decoded=decoded.reshape(trials, total_chunks, capacity),
            failed=failed.reshape(trials, total_chunks),
            chunk_msg=chunk_msg, chunk_start=chunk_start,
            chunk_size=chunk_size, sizes=sizes,
            rounds=net.rounds_used - start_rounds, batches=num_batches,
            codeword_bits=length, dropped=dropped)

    def _route_shared(self, messages, bits_stack, label) -> SharedRoutingResult:
        net = self.net
        trials = net.trials
        bits_stack = np.ascontiguousarray(bits_stack, dtype=np.uint8)
        if bits_stack.ndim != 3 or bits_stack.shape[:2] != (trials,
                                                            len(messages)):
            raise ValueError(
                f"bits_stack must be (trials={trials}, "
                f"messages={len(messages)}, L); got {bits_stack.shape}")
        bit_length = bits_stack.shape[2]
        if any(len(m.bits) != bit_length for m in messages):
            raise ValueError("shared routing needs equal-length messages "
                             "matching bits_stack's last axis")
        length, code = self._code()
        capacity = code.k

        # chunk + schedule ONCE from the prototype structure — per-trial
        # serial runs would compute this very schedule in every trial
        batches = SuperMessageRouter._schedule_blocks(
            SuperMessageRouter._split_into_chunks(messages, capacity),
            net.n // length)
        position = {m.key: j for j, m in enumerate(messages)}
        items = [(b, chunk, block) for b, batch in enumerate(batches)
                 for chunk, block in batch]
        proto = np.array([(b, block, chunk.source,
                           position[chunk.source, chunk.slot],
                           chunk.index * capacity, chunk.bits.size)
                          for b, chunk, block in items],
                         dtype=np.int64).reshape(-1, 6)
        rows = len(items)
        e_row = np.repeat(np.arange(rows),
                          [len(chunk.targets) for _, chunk, _ in items])
        e_target = np.array([t for _, chunk, _ in items
                             for t in chunk.targets], dtype=np.int64)

        # the prototype rows and edges, tiled trial-major over the batch
        tr = np.repeat(np.arange(trials), rows)
        tiled = np.tile(proto, (trials, 1))
        start_rounds = net.rounds_used
        decoded, failed, dropped, _ = relay_waves(
            net, code, length, tr, tiled[:, 0], tiled[:, 1], tiled[:, 2],
            _chunk_payload(bits_stack, tr, tiled[:, 3], tiled[:, 4],
                           tiled[:, 5], capacity),
            (np.arange(trials)[:, None] * rows + e_row[None, :]).reshape(-1),
            np.tile(e_target, trials), label)
        return SharedRoutingResult(
            decoded=decoded.reshape(trials, e_row.size, capacity),
            failed=failed.reshape(trials, e_row.size),
            e_message=proto[e_row, 3], e_target=e_target,
            e_start=proto[e_row, 4], e_size=proto[e_row, 5],
            bit_length=bit_length, rounds=net.rounds_used - start_rounds,
            batches=len(batches), codeword_bits=length, dropped=dropped)


def broadcast_many(router: BatchedRouter, source: int,
                   bits_stack: np.ndarray,
                   label: str = "broadcast") -> np.ndarray:
    """Batched Corollary 4.8: node ``source`` broadcasts trial ``t``'s row
    ``bits_stack[t]`` in trial ``t``; returns the ``(trials, n, bits)``
    tensor of per-node received strings."""
    n = router.net.n
    bits_stack = np.asarray(bits_stack, dtype=np.uint8)
    message = SuperMessage.make(source, 0, bits_stack[0], targets=range(n))
    result = router.route_shared([message], bits_stack[:, None, :],
                                 label=label)
    # targets are 0..n-1, so target-sorted rows index directly by node id
    return result.target_stack(0)
