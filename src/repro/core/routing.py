"""Resilient super-message routing — Theorem 4.1 / Section 4.2.

The paper's scheme sends each super-message as an ECC codeword spread over a
set of relay nodes: round 1 delivers bit ``ℓ`` of ``C(m_j(u))`` to the
``ℓ``-th relay, round 2 forwards relay bits to every target, and the target
decodes.  Congestion is avoided by making each (sender, relay) and
(relay, target) pair carry at most one bit per round.

Relay-set assignment supports two modes:

* ``"blocks"`` (default) — relay sets are consecutive blocks of ``L`` node
  ids, and a deterministic greedy schedule (a bipartite-edge-colouring
  argument: conflicts are "same source, same block" or "same target, same
  block") assigns each chunk a (batch, block) pair.  Within a batch the
  paper's ``InLoad``/``OutLoad`` are identically 1, so *no* codeword
  position is lost to overlap and the entire distance budget of the code is
  available against the adversary.  This replaces the randomized cover-free
  sets at simulation scale (see DESIGN.md §2): the paper needs cover-free
  families because its ``kn`` relay sets must be fixed obliviously; with the
  instance public (as Theorem 4.1 assumes — "the target set of each of the
  kn super-messages is known to all the nodes") the explicit schedule is
  computable by every node locally and achieves overlap 0.
* ``"coverfree"`` — the paper-faithful mode: relay sets come from an
  (r, δ)-cover-free family w.r.t. the instance's IN/OUT constraint
  collection H (Lemma 4.4), and bits are dropped wherever ``InLoad`` or
  ``OutLoad`` exceeds 1, exactly as in Section 4.2.  Used by the fidelity
  tests and the E11 ablation.

Batches execute in *waves* of ``B`` (the bandwidth): B independent 1-bit
instances ride in the B bit-planes of a single round, which is exactly the
parallel-composition argument of Lemma 2.9 / the proof of Theorem 4.1.
Blocks-mode waves of every router, serial and trial-batched, run through
the one kernel :func:`relay_waves`.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cliquesim.network import CongestedClique
from repro.core.profiles import ProfileError, ProtocolProfile, SIMULATION
from repro.coverfree.random_construction import build_cover_free_family
from repro.obs import metrics, tracing
from repro.utils.bits import as_bits
from repro.utils.rng import derive

MessageKey = Tuple[int, int]  # (source, slot)


@dataclass(frozen=True)
class SuperMessage:
    """One super-message: ``slot``-th input of ``source``, sent to
    ``targets`` (Section 4's (u, j) indexing with multi-target support)."""

    source: int
    slot: int
    bits: tuple
    targets: Tuple[int, ...]

    @classmethod
    def make(cls, source: int, slot: int, bits, targets) -> "SuperMessage":
        bit_arr = as_bits(bits)
        return cls(source=source, slot=slot, bits=tuple(int(b) for b in bit_arr),
                   targets=tuple(sorted(set(int(t) for t in targets))))

    @property
    def key(self) -> MessageKey:
        return (self.source, self.slot)


@dataclass
class _Chunk:
    source: int
    slot: int
    index: int
    bits: np.ndarray
    targets: Tuple[int, ...]


@dataclass
class RoutingResult:
    """Per-target outputs plus transport diagnostics."""

    outputs: Dict[int, Dict[MessageKey, np.ndarray]]
    rounds: int
    decode_failures: List[Tuple[int, MessageKey]] = field(default_factory=list)
    batches: int = 0
    codeword_bits: int = 0
    #: codeword bits the adversary silenced outright ("no message" where a
    #: relay bit was expected); decoded as 0 but surfaced here so callers
    #: can see drops separately from content corruption
    dropped_entries: int = 0
    #: round-2 drops threaded into the decoder as declared erasures
    #: (errors-and-erasures decoding doubles the radius for pure drops);
    #: zero when the code is not erasure-aware or nothing was dropped
    erased_entries: int = 0

    def received(self, target: int, source: int, slot: int = 0) -> np.ndarray:
        return self.outputs[target][(source, slot)]


class SuperMessageRouter:
    """Executes SuperMessagesRouting instances on a network."""

    def __init__(self, net: CongestedClique,
                 profile: ProtocolProfile = SIMULATION,
                 mode: str = "blocks",
                 coverfree_k: int = 2):
        if mode not in ("blocks", "coverfree"):
            raise ValueError(f"unknown routing mode {mode!r}")
        self.net = net
        self.profile = profile
        self.mode = mode
        self.coverfree_k = coverfree_k
        #: overlap parameter for the verified family construction; larger
        #: than profile.delta because simulation-scale group sizes are small
        self.coverfree_delta = 0.3
        self._construction_rng = derive(profile.construction_seed,
                                        f"router:{net.n}")

    # -- public entry ----------------------------------------------------------
    def route(self, messages: Sequence[SuperMessage],
              label: str = "routing") -> RoutingResult:
        with metrics.timed("routing.route"), \
                tracing.maybe_span(f"{label}/route", messages=len(messages)):
            return self._route(messages, label)

    def _route(self, messages: Sequence[SuperMessage],
               label: str) -> RoutingResult:
        net = self.net
        n = net.n
        length, code = self.profile.select_routing_code(n,
                                                        net.adversary.alpha)
        if self.mode == "blocks":
            return route_message_lists(net, [messages], length, code,
                                       label)[0]
        # cover-freeness needs group size >> k/delta, so the relay sets
        # stay small relative to n; low-rate codes absorb the overlap
        length = max(8, n // 16)
        code = self.profile.routing_code_at_rate(
            length, min(self.profile.code_rate, 1.0 / 8))
        chunks = self._split_into_chunks(messages, max(1, code.k))
        start_rounds = net.rounds_used
        batches = self._schedule_capacity(chunks, self.coverfree_k)

        raw: Dict[int, Dict[MessageKey, Dict[int, np.ndarray]]] = \
            defaultdict(lambda: defaultdict(dict))
        failures: List[Tuple[int, MessageKey]] = []
        stats = {"dropped": 0, "erased": 0}
        bandwidth = net.bandwidth
        for wave_start in range(0, len(batches), bandwidth):
            wave = batches[wave_start:wave_start + bandwidth]
            self._execute_wave_coverfree(
                wave, length, code, raw, failures, stats,
                f"{label}/wave{wave_start // bandwidth}")

        outputs = self._reassemble(messages, raw)
        return RoutingResult(outputs=outputs,
                             rounds=net.rounds_used - start_rounds,
                             decode_failures=failures,
                             batches=len(batches),
                             codeword_bits=length,
                             dropped_entries=stats["dropped"],
                             erased_entries=stats["erased"])

    # -- chunking ---------------------------------------------------------------
    @staticmethod
    def _split_into_chunks(messages: Sequence[SuperMessage],
                           capacity: int) -> List[_Chunk]:
        seen = set()
        chunks: List[_Chunk] = []
        for msg in sorted(messages, key=lambda m: m.key):
            if msg.key in seen:
                raise ValueError(f"duplicate super-message key {msg.key}")
            seen.add(msg.key)
            bits = np.array(msg.bits, dtype=np.uint8)
            if bits.size == 0:
                raise ValueError(f"super-message {msg.key} is empty")
            if not msg.targets:
                raise ValueError(f"super-message {msg.key} has no targets")
            for index, start in enumerate(range(0, bits.size, capacity)):
                chunks.append(_Chunk(source=msg.source, slot=msg.slot,
                                     index=index,
                                     bits=bits[start:start + capacity],
                                     targets=msg.targets))
        return chunks

    # -- scheduling ---------------------------------------------------------------
    @staticmethod
    def _schedule_blocks(chunks: List[_Chunk],
                         num_blocks: int) -> List[List[Tuple[_Chunk, int]]]:
        """Greedy (batch, block) assignment avoiding same-source-same-block
        and same-target-same-block conflicts within a batch.

        Bitmask formulation of :meth:`_schedule_blocks_reference` — one
        int64 mask per (batch, node) replaces the per-block set probes, and
        each chunk's batch scan is a single vectorized search over the open
        suffix.  Placements are identical to the reference greedy: the scan
        order, the lowest-free-block choice and the ``first_open`` advance
        rule (move past the contiguous run of source-full batches at the
        scan head) are preserved exactly.
        """
        if num_blocks < 1:
            raise ProfileError("codeword longer than the network")
        if num_blocks > 62:  # block masks must fit an int64
            return SuperMessageRouter._schedule_blocks_reference(chunks,
                                                                 num_blocks)
        if not chunks:
            return []
        full = (1 << num_blocks) - 1
        nodes = 1 + max(max(c.source for c in chunks),
                        max(t for c in chunks for t in c.targets))
        cap = 64
        src_used = np.zeros((cap, nodes), dtype=np.int64)
        tgt_used = np.zeros((cap, nodes), dtype=np.int64)
        num_batches = 0
        first_open: Dict[int, int] = defaultdict(int)
        placements: List[Tuple[_Chunk, int, int]] = []
        # consecutive chunks of one multi-chunk message share (source,
        # targets); nothing is placed between them, so the previous chunk's
        # scan outcome (its batch and the blocks still free there) stays
        # valid and the run places with pure bit arithmetic
        prev_key = None
        prev_batch = -1
        prev_free = 0
        for chunk in chunks:
            src = chunk.source
            targets = list(chunk.targets)
            key = (src, chunk.targets)
            batch_index = -1
            free_mask = full
            if key == prev_key and prev_free:
                batch_index = prev_batch
                free_mask = prev_free
            else:
                if key == prev_key:
                    scan_from = prev_batch + 1
                else:
                    fo = first_open[src]
                    while fo < num_batches and src_used[fo, src] == full:
                        fo += 1
                    first_open[src] = fo
                    scan_from = fo
                if scan_from < num_batches:
                    conflicts = src_used[scan_from:num_batches, src]
                    if len(targets) == 1:
                        conflicts = conflicts | tgt_used[
                            scan_from:num_batches, targets[0]]
                    else:
                        conflicts = conflicts | np.bitwise_or.reduce(
                            tgt_used[scan_from:num_batches, targets], axis=1)
                    free = ~conflicts & full
                    hits = np.flatnonzero(free)
                    if hits.size:
                        batch_index = scan_from + int(hits[0])
                        free_mask = int(free[hits[0]])
                if batch_index < 0:
                    batch_index = num_batches
                    num_batches += 1
                    if num_batches > cap:
                        cap *= 2
                        src_used = np.vstack(
                            [src_used, np.zeros_like(src_used)])
                        tgt_used = np.vstack(
                            [tgt_used, np.zeros_like(tgt_used)])
            block = (free_mask & -free_mask).bit_length() - 1
            placements.append((chunk, batch_index, block))
            bit = np.int64(1 << block)
            src_used[batch_index, src] |= bit
            for t in targets:
                tgt_used[batch_index, t] |= bit
            prev_key = key
            prev_batch = batch_index
            prev_free = free_mask & ~(1 << block)
        batches: List[List[Tuple[_Chunk, int]]] = \
            [[] for _ in range(num_batches)]
        for chunk, batch_index, block in placements:
            batches[batch_index].append((chunk, block))
        return batches

    @staticmethod
    def _schedule_blocks_reference(chunks: List[_Chunk],
                                   num_blocks: int
                                   ) -> List[List[Tuple[_Chunk, int]]]:
        """Original set-based greedy; the oracle `_schedule_blocks` must
        match placement-for-placement (and the >62-block fallback)."""
        batches: List[List[Tuple[_Chunk, int]]] = []
        source_used: List[Dict[int, set]] = []
        target_used: List[Dict[int, set]] = []
        first_open: Dict[int, int] = defaultdict(int)
        for chunk in chunks:
            batch_index = first_open[chunk.source]
            placed = False
            while not placed:
                if batch_index == len(batches):
                    batches.append([])
                    source_used.append(defaultdict(set))
                    target_used.append(defaultdict(set))
                used_src = source_used[batch_index][chunk.source]
                if len(used_src) < num_blocks:
                    for block in range(num_blocks):
                        if block in used_src:
                            continue
                        if any(block in target_used[batch_index][t]
                               for t in chunk.targets):
                            continue
                        batches[batch_index].append((chunk, block))
                        used_src.add(block)
                        for t in chunk.targets:
                            target_used[batch_index][t].add(block)
                        placed = True
                        break
                if not placed:
                    if len(used_src) >= num_blocks and \
                            batch_index == first_open[chunk.source]:
                        first_open[chunk.source] = batch_index + 1
                    batch_index += 1
        return batches

    @staticmethod
    def _schedule_capacity(chunks: List[_Chunk],
                           k: int) -> List[List[Tuple[_Chunk, int]]]:
        """Cover-free mode: cap per-source and per-target chunks per batch
        at k; the within-batch set index is positional."""
        batches: List[List[Tuple[_Chunk, int]]] = []
        src_count: List[Dict[int, int]] = []
        tgt_count: List[Dict[int, int]] = []
        for chunk in chunks:
            placed = False
            for b, batch in enumerate(batches):
                if src_count[b][chunk.source] >= k:
                    continue
                if any(tgt_count[b][t] >= k for t in chunk.targets):
                    continue
                batch.append((chunk, len(batch)))
                src_count[b][chunk.source] += 1
                for t in chunk.targets:
                    tgt_count[b][t] += 1
                placed = True
                break
            if not placed:
                batches.append([(chunk, 0)])
                src_count.append(defaultdict(int))
                tgt_count.append(defaultdict(int))
                src_count[-1][chunk.source] = 1
                for t in chunk.targets:
                    tgt_count[-1][t] = 1
        return batches

    # -- execution: cover-free mode -------------------------------------------------
    def _execute_wave_coverfree(self, wave, length, code, raw, failures,
                                stats, label):
        net = self.net
        n = net.n
        planes = len(wave)
        all_items = []
        for plane, batch in enumerate(wave):
            if not batch:
                continue
            # build the constraint collection H for this batch: the chunks of
            # each source (INind) and the chunks targeted at each node (OUTind)
            local_index = {}
            for position, (chunk, _) in enumerate(batch):
                local_index[position] = chunk
            by_source = defaultdict(list)
            by_target = defaultdict(list)
            for position, (chunk, _) in enumerate(batch):
                by_source[chunk.source].append(position)
                for t in chunk.targets:
                    by_target[t].append(position)
            constraints = [tuple(v) for v in by_source.values() if len(v) > 1]
            constraints += [tuple(v) for v in by_target.values() if len(v) > 1]
            family = build_cover_free_family(
                ground_size=n, num_sets=len(batch), set_size=length,
                delta=self.coverfree_delta, rng=self._construction_rng,
                constraints=constraints or None)
            # in/out loads w.r.t. the family
            in_load = defaultdict(lambda: defaultdict(int))   # source -> relay
            out_load = defaultdict(lambda: defaultdict(int))  # relay -> target
            for position, (chunk, _) in enumerate(batch):
                relays = family.set_elements(position)
                for w in relays:
                    in_load[chunk.source][int(w)] += 1
                for t in chunk.targets:
                    for w in relays:
                        out_load[int(w)][t] += 1
            all_items.append((plane, batch, family, in_load, out_load))
        if not all_items:
            return

        flat = [(plane, chunk, family.set_elements(position), in_load, out_load)
                for plane, batch, family, in_load, out_load in all_items
                for position, (chunk, _) in enumerate(batch)]
        padded = np.zeros((len(flat), code.k), dtype=np.uint8)
        for row, (_, chunk, _, _, _) in enumerate(flat):
            padded[row, :chunk.bits.size] = chunk.bits
        codewords = code.encode_many(padded).astype(np.int64)

        values = np.zeros((n, n), dtype=np.int64)
        present = np.zeros((n, n), dtype=bool)
        for row, (plane, chunk, relays, in_load, _) in enumerate(flat):
            for pos, w in enumerate(relays):
                if in_load[chunk.source][int(w)] == 1:
                    values[chunk.source, int(w)] |= int(codewords[row, pos]) << plane
                    present[chunk.source, int(w)] = True
        delivered1 = net.round(np.where(present, values, -1), width=planes,
                               label=f"{label}/r1")

        values2 = np.zeros((n, n), dtype=np.int64)
        present2 = np.zeros((n, n), dtype=bool)
        for row, (plane, chunk, relays, in_load, out_load) in enumerate(flat):
            for pos, w in enumerate(relays):
                w = int(w)
                if in_load[chunk.source][w] != 1:
                    continue
                got = delivered1[chunk.source, w]
                if got < 0:
                    stats["dropped"] += 1
                bit1 = 0 if got < 0 else (int(got) >> plane) & 1
                for t in chunk.targets:
                    if out_load[w][t] == 1:
                        values2[w, t] |= bit1 << plane
                        present2[w, t] = True
        delivered2 = net.round(np.where(present2, values2, -1), width=planes,
                               label=f"{label}/r2")

        rows = []
        row_erasures = []
        metas = []
        for row, (plane, chunk, relays, in_load, out_load) in enumerate(flat):
            for t in chunk.targets:
                bits2 = np.zeros(code.n, dtype=np.uint8)
                erased = np.zeros(code.n, dtype=bool)
                for pos, w in enumerate(relays):
                    w = int(w)
                    if in_load[chunk.source][w] == 1 and out_load[w][t] == 1:
                        got2 = delivered2[w, t]
                        if got2 < 0:
                            stats["dropped"] += 1
                            erased[pos] = True
                        bits2[pos] = 0 if got2 < 0 else (int(got2) >> plane) & 1
                rows.append(bits2)
                row_erasures.append(erased)
                metas.append((chunk, t))
        erase_mat = np.stack(row_erasures)
        if erase_mat.any() and getattr(code, "supports_erasures", False):
            stats["erased"] += int(erase_mat.sum())
            decoded, failed = code.decode_many_flagged(np.stack(rows),
                                                       erasures=erase_mat)
        else:
            decoded, failed = code.decode_many_flagged(np.stack(rows))
        for (chunk, t), message_bits, bad in zip(metas, decoded, failed):
            raw[t][(chunk.source, chunk.slot)][chunk.index] = \
                message_bits[:chunk.bits.size]
            if bad:
                failures.append((t, (chunk.source, chunk.slot)))

    # -- reassembly ---------------------------------------------------------------
    @staticmethod
    def _reassemble(messages, raw):
        outputs: Dict[int, Dict[MessageKey, np.ndarray]] = defaultdict(dict)
        for msg in messages:
            for t in msg.targets:
                pieces = raw[t].get(msg.key, {})
                parts = [pieces[i] for i in sorted(pieces)]
                if parts:
                    combined = np.concatenate(parts)[:len(msg.bits)]
                else:
                    combined = np.zeros(len(msg.bits), dtype=np.uint8)
                outputs[t][msg.key] = combined
        return dict(outputs)


class CellUnbatchable(Exception):
    """The trials of this cell cannot run in lockstep (e.g. per-trial
    routing schedules diverge); the caller should fall back to per-trial
    serial execution."""


def _stage(keys: np.ndarray, values: np.ndarray, cells: int,
           width: int) -> np.ndarray:
    """Flat intended plane: OR of ``values`` at ``keys``, -1 where nothing
    is sent.  The schedule puts at most one chunk in each (cell, plane), so
    the OR is a plain sum, which bincount scatters far faster than
    ``bitwise_or.at`` — exactly while the sums fit float64's 52-bit
    mantissa; wider waves take the exact OR-scatter."""
    keys = keys.reshape(-1)
    values = values.reshape(-1)
    if width <= 52:
        plane = np.bincount(keys, weights=values,
                            minlength=cells).astype(np.int64)
    else:
        plane = np.zeros(cells, dtype=np.int64)
        np.bitwise_or.at(plane, keys, values)
    present = np.zeros(cells, dtype=bool)
    present[keys] = True
    return np.where(present, plane, -1)


def relay_waves(net, code, length: int, trial: np.ndarray,
                batch: np.ndarray, block: np.ndarray, source: np.ndarray,
                payload: np.ndarray, edge_row: np.ndarray,
                edge_target: np.ndarray, label: str):
    """Run a blocks-mode schedule: the one relay kernel of every router.

    Input is one flat row per scheduled chunk — its trial, batch, relay
    block, source node and ``code.k``-bit zero-padded payload — plus the
    chunk -> target edges (``edge_row[e]`` is the chunk row edge ``e``
    delivers to node ``edge_target[e]``).  Batches ride in waves of
    ``net.bandwidth`` planes; each wave is two rounds
    (``{label}/wave{k}/r1`` source -> relay block, ``r2`` relay ->
    targets) over the network's own shape — ``(n, n)`` on a
    :class:`~repro.cliquesim.network.CongestedClique`, ``(trials, n, n)``
    on a :class:`~repro.cliquesim.batched.BatchedClique` — addressed
    through flat ``(trial, row, column)`` keys.  Round-2 drops are declared
    erasures to erasure-aware codes whenever the wave has any (drop-free
    waves take the exact errors-only decode).

    Returns ``(decoded, failed, dropped, erased)``: ``(E, k)`` decoded
    bits and ``(E,)`` failure flags per edge, and per-trial counts of
    dropped relay bits and of erasures handed to the decoder.
    """
    n = net.n
    trials = getattr(net, "trials", None)
    shape = (n, n) if trials is None else (trials, n, n)
    num_trials = trials or 1
    cells = num_trials * n * n
    k = code.k
    decoded = np.zeros((edge_row.size, k), dtype=np.uint8)
    failed = np.zeros(edge_row.size, dtype=bool)
    dropped = np.zeros(num_trials, dtype=np.int64)
    erased = np.zeros(num_trials, dtype=np.int64)
    erasure_aware = getattr(code, "supports_erasures", False)
    bandwidth = net.bandwidth
    num_batches = int(batch.max(initial=-1)) + 1
    starts = np.arange(0, num_batches + bandwidth, bandwidth)
    # waves are contiguous slices of the batch-sorted rows and edges
    row_order = np.argsort(batch, kind="stable")
    row_cut = np.searchsorted(batch[row_order], starts)
    row_pos = np.empty_like(row_order)
    row_pos[row_order] = np.arange(row_order.size)
    edge_batch = batch[edge_row]
    edge_order = np.argsort(edge_batch, kind="stable")
    edge_cut = np.searchsorted(edge_batch[edge_order], starts)
    arange_len = np.arange(length)

    def per_trial(ids, lost):
        return np.bincount(ids, weights=np.count_nonzero(lost, axis=1),
                           minlength=num_trials).astype(np.int64)

    for wave, wave_start in enumerate(starts[:-1].tolist()):
        width = min(bandwidth, num_batches - wave_start)
        wl = f"{label}/wave{wave}"
        rows = row_order[row_cut[wave]:row_cut[wave + 1]]
        edges = edge_order[edge_cut[wave]:edge_cut[wave + 1]]
        tr = trial[rows]
        planes = (batch[rows] - wave_start)[:, None]
        relay = block[rows][:, None] * length + arange_len[None, :]

        # round 1: source -> relay block
        codewords = code.encode_many(payload[rows]).astype(np.int64)
        keys1 = ((tr * n + source[rows]) * n)[:, None] + relay
        delivered1 = net.round(
            _stage(keys1, codewords << planes, cells, width).reshape(shape),
            width=width, label=f"{wl}/r1")
        got1 = delivered1.reshape(-1)[keys1]
        lost1 = got1 < 0
        dropped += per_trial(tr, lost1)
        bits1 = np.where(lost1, 0, (got1 >> planes) & 1)

        # round 2: relay -> targets, one row per (chunk, target) edge
        local = row_pos[edge_row[edges]] - row_cut[wave]
        etr = tr[local]
        eplanes = planes[local]
        keys2 = (etr[:, None] * n + relay[local]) * n \
            + edge_target[edges][:, None]
        delivered2 = net.round(
            _stage(keys2, bits1[local] << eplanes, cells,
                   width).reshape(shape),
            width=width, label=f"{wl}/r2")

        # decode at every target: one gather + one batched decode
        got2 = delivered2.reshape(-1)[keys2]
        erase2 = got2 < 0
        bits2 = np.where(erase2, 0, (got2 >> eplanes) & 1).astype(np.uint8)
        any_erased = bool(erase2.any())
        if any_erased:
            lost2 = per_trial(etr, erase2)
            dropped += lost2
        if any_erased and erasure_aware:
            erased += lost2
            out, bad = code.decode_many_flagged(bits2, erasures=erase2)
        else:
            out, bad = code.decode_many_flagged(bits2)
        decoded[edges] = out[:, :k]
        failed[edges] = bad
    return decoded, failed, dropped, erased


def route_message_lists(net, trials_messages: Sequence[Sequence[SuperMessage]],
                        length: int, code, label: str) -> List[RoutingResult]:
    """Message-list front end of :func:`relay_waves`: route trial ``t``'s
    ``trials_messages[t]`` for every trial of ``net`` (one list on a
    serial clique).  Each trial is chunked and greedily block-scheduled on
    its own; trials run in lockstep only when their batch counts agree,
    otherwise :class:`CellUnbatchable` is raised."""
    trial_batches = [
        SuperMessageRouter._schedule_blocks(
            SuperMessageRouter._split_into_chunks(messages, code.k),
            net.n // length)
        for messages in trials_messages]
    num_batches = len(trial_batches[0])
    if any(len(batches) != num_batches for batches in trial_batches):
        raise CellUnbatchable(
            f"per-trial schedules diverge: batch counts "
            f"{sorted(len(b) for b in trial_batches)}")

    # one row per scheduled chunk, trial-major then schedule order
    items = [(t, b, chunk, block)
             for t, batches in enumerate(trial_batches)
             for b, batch in enumerate(batches)
             for chunk, block in batch]
    payload = np.zeros((len(items), code.k), dtype=np.uint8)
    for row, item in enumerate(items):
        payload[row, :item[2].bits.size] = item[2].bits
    columns = np.array([(t, b, block, chunk.source)
                        for t, b, chunk, block in items],
                       dtype=np.int64).reshape(-1, 4)
    edge_row = np.repeat(np.arange(len(items)),
                         [len(item[2].targets) for item in items])
    edge_target = np.array([target for item in items
                            for target in item[2].targets], dtype=np.int64)
    start_rounds = net.rounds_used
    decoded, failed, dropped, erased = relay_waves(
        net, code, length, columns[:, 0], columns[:, 1], columns[:, 2],
        columns[:, 3], payload, edge_row, edge_target, label)

    raw = [defaultdict(lambda: defaultdict(dict)) for _ in trials_messages]
    failures: List[List[Tuple[int, MessageKey]]] = [[] for _ in raw]
    for e, (row, target) in enumerate(zip(edge_row.tolist(),
                                          edge_target.tolist())):
        t, _, chunk, _ = items[row]
        raw[t][target][chunk.source, chunk.slot][chunk.index] = \
            decoded[e, :chunk.bits.size]
        if failed[e]:
            failures[t].append((target, (chunk.source, chunk.slot)))
    rounds = net.rounds_used - start_rounds
    return [RoutingResult(
        outputs=SuperMessageRouter._reassemble(messages, raw[t]),
        rounds=rounds, decode_failures=failures[t], batches=num_batches,
        codeword_bits=length, dropped_entries=int(dropped[t]),
        erased_entries=int(erased[t]))
        for t, messages in enumerate(trials_messages)]


def broadcast(router: SuperMessageRouter, source: int, bits,
              label: str = "broadcast") -> Dict[int, np.ndarray]:
    """Corollary 4.8: one node broadcasts an O(n)-bit string to everyone
    via a single-source routing instance targeting all nodes."""
    n = router.net.n
    message = SuperMessage.make(source, 0, bits, targets=range(n))
    result = router.route([message], label=label)
    return {v: result.outputs[v][(source, 0)] for v in range(n)}
