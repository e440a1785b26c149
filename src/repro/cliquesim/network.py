"""The Congested Clique engine (Section 2's communication model).

``n`` fully-connected nodes communicate in synchronous rounds; in each round
every ordered pair may carry up to ``B`` bits.  Payloads are an ``(n, n)``
int64 matrix where entry ``(u, v)`` is the value ``u`` sends to ``v`` and
``-1`` means "no message".  The engine:

* enforces the per-round width limit,
* hands the round to the attached adversary (fault-set selection is
  validated against the faulty-degree budget — the adversary physically
  cannot cheat: deliveries are clamped so only entries across faulty edges
  may differ from the intended payloads),
* counts rounds and bits, which is what the Table 1 benchmarks measure.

The engine is written once, in :class:`Clique`, over a leading batch shape
``lead``: every payload is ``lead + (n, n)`` and every reduction runs over
the two trailing node axes.  :class:`CongestedClique` is the serial engine
(``lead == ()``); :class:`~repro.cliquesim.batched.BatchedClique` drives
``trials`` independent cliques in lockstep (``lead == (trials,)``).  The
two differ only in how a round consults its adversary, in the serial
engine's plain-int counters and ``history`` list, and in the batched-only
ragged exchange.

KT1 is implicit: node ids are ``0..n-1`` and every protocol may use them.

The diagonal (a node "sending to itself") is free bookkeeping, never
corrupted and never counted as communication.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.adversary.base import Adversary, NullAdversary, RoundOutcome, RoundView
from repro.adversary.budget import validate_fault_set
from repro.obs import metrics, tracing
from repro.utils.bits import WORD_BITS, pack_bits, unpack_bits, words_per_width

#: per-round payloads live in int64 matrices with -1 as "no message", so a
#: single round can carry at most 62 bits per edge without sign trouble
MAX_ROUND_WIDTH = 62


class BandwidthViolation(Exception):
    """A protocol tried to send more bits per edge than the model allows."""


class Clique:
    """Round, booking and transport core shared by both engines.

    Subclasses implement :meth:`round` (the adversary consultation) and
    :meth:`fault_free`.
    """

    def __init__(self, n: int, bandwidth: int, lead: Tuple[int, ...],
                 adversary, keep_history: bool):
        if n < 2:
            raise ValueError("need at least two nodes")
        if not 1 <= bandwidth <= MAX_ROUND_WIDTH:
            raise ValueError(
                f"bandwidth must be in [1, {MAX_ROUND_WIDTH}] bits")
        self.n = n
        self.bandwidth = bandwidth
        self.lead = lead
        self.adversary = adversary
        adversary.begin_protocol(n, *lead)  # batched adversaries take trials
        # keep_history=False keeps only the counters — one RoundOutcome per
        # round per trial is real memory over a long campaign.  An adversary
        # that reads view.history forces it back on (it would otherwise see
        # an empty record).
        self.keep_history = keep_history or adversary.reads_history
        self.histories: List[List[RoundOutcome]] = [
            [] for _ in range(int(np.prod(lead)))]
        self.rounds_used = 0
        self.bits_sent = np.zeros(lead, dtype=np.int64)
        self.entries_corrupted = np.zeros(lead, dtype=np.int64)

    # -- checks --------------------------------------------------------------
    def _check_width(self, width: int) -> None:
        if width > self.bandwidth:
            raise BandwidthViolation(
                f"round width {width} exceeds bandwidth {self.bandwidth}")
        if width < 1:
            raise ValueError("round width must be at least 1 bit")

    def _check_payload(self, intended: np.ndarray, width: int) -> None:
        shape = self.lead + (self.n, self.n)
        if intended.shape[-len(shape):] != shape:
            raise ValueError(
                f"payload must end in {shape}, got {intended.shape}")
        high = np.int64(1) << width
        if intended.min() < -1 or intended.max() >= high:
            raise BandwidthViolation(
                f"payload values must be -1 or fit in {width} bits")

    def _check_planes(self, planes: np.ndarray, words: int) -> None:
        """``planes`` must be ``lead + (n, n, >= words)``."""
        shape = self.lead + (self.n, self.n)
        if planes.ndim != len(shape) + 1 or planes.shape[:-1] != shape \
                or planes.shape[-1] < words:
            raise ValueError(f"expected shape {shape} + (>={words},)")

    def _admit(self, intended: np.ndarray, width: Optional[int]):
        """Default and check one round's width and payload."""
        width = self.bandwidth if width is None else width
        self._check_width(width)
        intended = np.asarray(intended, dtype=np.int64)
        self._check_payload(intended, width)
        return intended, width

    @property
    def _budget_alpha(self) -> float:
        # fault models whose degree budget differs from the code-sizing
        # alpha (Byzantine nodes: degree n-1, error budget floor(alpha*n))
        # declare the budget they are held to as ``validation_alpha``
        return getattr(self.adversary, "validation_alpha",
                       self.adversary.alpha)

    # -- clamp and booking ---------------------------------------------------
    def _count(self, mask: np.ndarray):
        """True entries of ``mask`` per trial, over its trailing axes; on
        the serial engine NumPy's whole-array count, a plain int."""
        if not self.lead:
            return np.count_nonzero(mask)
        return np.count_nonzero(
            mask, axis=tuple(range(len(self.lead), mask.ndim)))

    def _sent_entries(self, sent: np.ndarray):
        """Off-diagonal entries of a ``lead + (n, n)`` send mask."""
        ids = np.arange(self.n)
        return self._count(sent) - self._count(sent[..., ids, ids])

    def _clamp(self, intended: np.ndarray, proposed, edges: np.ndarray,
               high) -> np.ndarray:
        """The adversary's proposal, clipped below ``high`` and kept only
        across faulty edges (both directions; never on the diagonal)."""
        proposed = np.asarray(proposed, dtype=np.int64)
        if proposed.shape != intended.shape:
            raise ValueError("adversary returned a malformed delivery")
        if proposed.min() < -1 or (proposed >= high).any():
            proposed = np.clip(proposed, -1, high - 1)
        delivered = np.where(edges, proposed, intended)
        ids = np.arange(self.n)
        delivered[..., ids, ids] = intended[..., ids, ids]
        return delivered

    def _tally(self, rounds: int, bits, corrupted) -> None:
        self.rounds_used += rounds
        self.bits_sent += bits
        self.entries_corrupted += corrupted

    def _fast_booking(self) -> bool:
        """True when per-round accounting can collapse to plain counter
        arithmetic: nobody is recording history, tracing rounds, or
        collecting metrics, so the engine owes nothing but the counters
        (whose values stay bit-identical either way)."""
        return (not self.keep_history and tracing.active() is None
                and not metrics.enabled())

    def _book_rounds_fast(self, intended_stack: np.ndarray,
                          widths: Sequence[int]) -> None:
        """Book a whole fault-free ``(rounds,) + lead + (n, n)`` stack with
        one reduction — no per-round RoundOutcome, labels, or observability
        dispatch.  Only legal under :meth:`_fast_booking`."""
        ids = np.arange(self.n)
        sent_entries = (np.count_nonzero(intended_stack >= 0, axis=(-2, -1))
                        - np.count_nonzero(
                            intended_stack[..., ids, ids] >= 0, axis=-1))
        widths = np.asarray(widths, dtype=np.int64)
        self._tally(len(widths),
                    np.tensordot(widths, sent_entries, axes=1), 0)

    def _observe(self, index: int, width: int, label: str, bits,
                 corrupted) -> None:
        """Metrics and trace event of one round, summed over trials."""
        tracer = tracing.active()
        if tracer is None and not metrics.enabled():
            return
        bits, corrupted = int(np.sum(bits)), int(np.sum(corrupted))
        metrics.count("net.rounds")
        metrics.count("net.bits", bits)
        if tracer is not None:
            tracer.round_event(index=index, label=label, width=width,
                               bits=bits, corrupted=corrupted)

    def _book_round(self, intended: np.ndarray, delivered: np.ndarray,
                    edges: Optional[np.ndarray], width: int,
                    label: str) -> None:
        """Per-round accounting (history, counters, observability hooks),
        one reduction per counter over the whole batch."""
        corrupted = np.zeros(self.lead, dtype=np.int64) if edges is None \
            else self._count(delivered != intended)
        bits = width * self._sent_entries(intended >= 0)
        index = self.rounds_used
        self._tally(1, bits, corrupted)
        if self.keep_history:
            for history, b, c in zip(self.histories, np.ravel(bits).tolist(),
                                     np.ravel(corrupted).tolist()):
                history.append(RoundOutcome(index=index, width=width,
                                            corrupted_entries=c, bits=b,
                                            label=label))
        self._observe(index, width, label, bits, corrupted)

    def _clamp_and_book(self, intended: np.ndarray, proposed,
                        edges: np.ndarray, width: int,
                        label: str) -> np.ndarray:
        delivered = self._clamp(intended, proposed, edges,
                                np.int64(1) << width)
        self._book_round(intended, delivered, edges, width, label)
        return delivered

    # -- rounds --------------------------------------------------------------
    def round_many(self, intended_stack: np.ndarray,
                   widths: Sequence[int],
                   labels: Sequence[str]) -> np.ndarray:
        """Execute ``len(widths)`` consecutive rounds from a pre-staged
        ``(rounds,) + lead + (n, n)`` payload stack and return the
        delivered stack.

        Semantically identical to calling :meth:`round` once per chunk — the
        adversary still acts (and is budget-validated) round by round, the
        history gains one entry per round, and counters advance the same way.
        The fast path kicks in on the fault-free clique: payload validation
        happens once over the whole stack and the adversary machinery is
        skipped entirely, which is what makes wide ``exchange`` calls cheap.
        """
        intended_stack = np.asarray(intended_stack, dtype=np.int64)
        count = len(widths)
        shape = (count,) + self.lead + (self.n, self.n)
        if intended_stack.shape != shape:
            raise ValueError(f"expected payload stack {shape}, "
                             f"got {intended_stack.shape}")
        if len(labels) != count:
            raise ValueError("one label per round required")
        if count == 0:
            return intended_stack.copy()
        with metrics.timed("net.round_many"):
            if not self.fault_free():
                return np.stack([
                    self.round(intended_stack[i], widths[i], labels[i])
                    for i in range(count)])
            max_width = max(widths)
            self._check_width(max_width)
            for i, width in enumerate(widths):
                self._check_width(width)
                if width < max_width:
                    self._check_payload(intended_stack[i], width)
            self._check_payload(intended_stack, max_width)
            if self._fast_booking():
                self._book_rounds_fast(intended_stack, widths)
            else:
                for i, width in enumerate(widths):
                    self._book_round(intended_stack[i], intended_stack[i],
                                     None, width, labels[i])
            return intended_stack.copy()

    @staticmethod
    def _chunk_spans(width: int, bandwidth: int):
        """(start, take) pairs splitting ``width`` bits into rounds."""
        return [(start, min(bandwidth, width - start))
                for start in range(0, width, bandwidth)]

    # -- transport -----------------------------------------------------------
    def exchange(self, intended: np.ndarray, width: int,
                 label: str = "") -> np.ndarray:
        """Send ``width``-bit payloads, transparently splitting into
        ``ceil(width / B)`` rounds when width exceeds the bandwidth.

        Reassembly: an entry is ``-1`` if any of its chunks arrived as
        "no message" (the adversary may cause that only across faulty edges).

        The chunked path folds onto :meth:`exchange_words`: the int64 payload
        is viewed as a one-word plane (width <= 62 always fits one word), so
        narrow payloads ride the same plane transport as ``exchange_bits``.
        """
        intended = np.asarray(intended, dtype=np.int64)
        if width <= self.bandwidth:
            return self.round(intended, width, label)
        present = intended >= 0
        plane = np.where(present, intended, 0).astype(np.uint64)[..., None]
        spans = self._chunk_spans(width, self.bandwidth)
        delivered, dropped = self.exchange_words(
            plane, present, width,
            labels=[f"{label}[chunk{part}]" for part in range(len(spans))])
        out = delivered[..., 0].astype(np.int64)
        return np.where(dropped | ~present, -1, out)

    def exchange_words(self, words: np.ndarray, present: np.ndarray,
                       width: int, label: str = "",
                       labels: Optional[Sequence[str]] = None,
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """Send ``width``-bit payloads held as packed 64-bit word planes:
        ``words[..., u, v, :]`` are the payload words u sends v
        (little-endian, :func:`repro.utils.bits.pack_bits` layout) and
        ``present[..., u, v]`` gates sending.

        Splits the width into ``ceil(width / B)`` rounds, all chunks lifted
        out of the word planes with one vectorised gather (no per-bit and no
        per-chunk staging), and returns ``(delivered, dropped)``:

        * ``delivered`` — the delivered word tensor, dropped chunks
          zero-filled;
        * ``dropped`` — a ``lead + (n, n)`` bool mask, True exactly where a
          *sent* payload (``present``) had at least one chunk arrive as "no
          message".  The adversary can cause that only across faulty edges;
          without the mask a dropped payload would be indistinguishable from
          a legitimate all-zero one.

        This is the transport primitive behind the wide scatter/answer steps
        of the adaptive compiler, where per-edge payloads exceed 62 bits.
        ``labels`` overrides the per-chunk round labels (one per chunk).
        """
        words = np.asarray(words, dtype=np.uint64)
        present = np.asarray(present, dtype=bool)
        self._check_planes(words, words_per_width(width))
        if width == 0:
            return np.zeros_like(words), np.zeros(
                self.lead + (self.n, self.n), dtype=bool)
        spans = self._chunk_spans(width, self.bandwidth)
        if labels is None:
            labels = [f"{label}[bits{start}]" for start, _ in spans]
        elif len(labels) != len(spans):
            raise ValueError(f"expected {len(spans)} labels")
        starts = np.array([s for s, _ in spans], dtype=np.int64)
        takes = np.array([t for _, t in spans], dtype=np.int64)
        word_of = starts // WORD_BITS
        offset = (starts % WORD_BITS).astype(np.uint64)
        masks = ((np.uint64(1) << takes.astype(np.uint64)) - np.uint64(1))
        # one gather + shift over the whole stack: chunk p of every edge (of
        # every trial) at once
        value = words[..., word_of] >> offset
        straddle = (starts % WORD_BITS) + takes > WORD_BITS
        if straddle.any():
            carry = words[..., word_of[straddle] + 1] << (
                np.uint64(WORD_BITS) - offset[straddle])
            value[..., straddle] |= carry
        chunks = np.ascontiguousarray(
            np.moveaxis((value & masks).astype(np.int64), -1, 0))
        chunks[:, ~present] = -1
        with metrics.timed("net.exchange_words"):
            got = self.round_many(chunks, [int(t) for t in takes],
                                  list(labels))
        dropped = present & (got < 0).any(axis=0)
        tracer = tracing.active()
        if tracer is not None or metrics.enabled():
            n_dropped = int(np.count_nonzero(dropped))
            metrics.count("net.dropped_entries", n_dropped)
            if tracer is not None:
                tracer.transport_event(
                    label=label or (labels[0] if labels else ""),
                    width=width, chunks=len(spans), dropped=n_dropped)
        got = np.where(got < 0, 0, got).astype(np.uint64)
        out = np.zeros_like(words)
        for part, (start, take) in enumerate(spans):
            word, off = divmod(start, WORD_BITS)
            out[..., word] |= got[part] << np.uint64(off)
            if off + take > WORD_BITS:
                out[..., word + 1] |= got[part] >> np.uint64(
                    WORD_BITS - off)
        return out, dropped

    def exchange_bits(self, bits: np.ndarray, present: np.ndarray,
                      label: str = "") -> Tuple[np.ndarray, np.ndarray]:
        """Send an arbitrary-width bit tensor: ``bits[..., u, v, :]`` are
        the payload bits u sends v (``present[..., u, v]`` gates sending).

        Boundary adapter over :meth:`exchange_words`: packs the tensor into
        64-bit word planes once, moves the packed planes, and unpacks once.
        Returns ``(delivered_bits, dropped)`` with the same drop-mask
        semantics as :meth:`exchange_words`.  Callers that already hold
        packed words should use :meth:`exchange_words` directly.
        """
        bits = np.asarray(bits, dtype=np.uint8)
        present = np.asarray(present, dtype=bool)
        self._check_planes(bits, 0)
        width = bits.shape[-1]
        delivered, dropped = self.exchange_words(pack_bits(bits), present,
                                                 width, label=label)
        if width == 0:
            return np.zeros_like(bits), dropped
        return unpack_bits(delivered, width), dropped


class CongestedClique(Clique):
    """A bandwidth-B Congested Clique with an attached mobile adversary."""

    def __init__(self, n: int, bandwidth: int = 1,
                 adversary: Optional[Adversary] = None,
                 keep_history: bool = True):
        super().__init__(n, bandwidth, (), adversary if adversary is not None
                         else NullAdversary(), keep_history)
        self.history = self.histories[0]
        # plain ints: the counters reach JSON rows through ProtocolReport
        self.bits_sent = 0
        self.entries_corrupted = 0

    def _tally(self, rounds: int, bits, corrupted) -> None:
        super()._tally(rounds, int(bits), int(corrupted))

    def round(self, intended: np.ndarray, width: Optional[int] = None,
              label: str = "") -> np.ndarray:
        """Execute one synchronous round and return the delivered matrix."""
        intended, width = self._admit(intended, width)
        view = RoundView(index=self.rounds_used, width=width,
                         intended=intended.copy(), history=self.history,
                         label=label)
        edges = np.asarray(self.adversary.select_edges(view), dtype=bool)
        validate_fault_set(edges, self.n, self._budget_alpha)
        return self._clamp_and_book(intended,
                                    self.adversary.corrupt(view, edges),
                                    edges, width, label)

    # bound here, not inherited: tracing wraps each engine's own methods
    round_many = Clique.round_many
    exchange_words = Clique.exchange_words
    exchange_bits = Clique.exchange_bits

    def fault_free(self) -> bool:
        return isinstance(self.adversary, NullAdversary)

    def __repr__(self) -> str:
        return (f"CongestedClique(n={self.n}, B={self.bandwidth}, "
                f"rounds={self.rounds_used}, "
                f"adversary={type(self.adversary).__name__})")
