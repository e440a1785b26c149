"""Trial-batched Congested Clique engine — one tensor program per round
for a whole stack of protocol instances.

A campaign cell (same protocol, n, width, bandwidth, adversary kind and
alpha) is ``trials`` independent cliques whose per-round state is already
``(n, n, words)`` planes; :class:`BatchedClique` stacks them into
``(trials, n, n, words)``.  It is the shared engine core
(:class:`~repro.cliquesim.network.Clique`) at ``lead == (trials,)``, so
``round_many`` / ``exchange`` / ``exchange_words`` / ``exchange_bits``,
payload validation, the clamp and the booking are the serial engine's own
code, each reduction running over the batch at once.  What is its own:

* the adversary consultation: a fault-free batch skips the adversary
  entirely, otherwise it is consulted once per round for every trial with
  batched ``(trials, n, n)`` masks
  (:class:`~repro.adversary.batched.BatchedAdversary`), with per-trial
  independent RNG streams inside the batch;
* :meth:`BatchedClique.exchange_words_ragged`, a transport whose width
  differs per trial.

Trials execute in lockstep: every trial sees the same round sequence
(index, width, label), which is exactly the situation in a campaign cell —
the protocols are data-independent in their round *structure*.  Counters
(``bits_sent``, ``entries_corrupted``, per-trial ``dropped`` masks) are
``(trials,)`` vectors; ``rounds_used`` is a scalar shared by the batch.
Running a batched cell is bit-identical to running its trials one at a
time on serial engines.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.adversary.base import RoundOutcome
from repro.adversary.batched import (
    BatchedAdversary,
    BatchedNullAdversary,
    BatchRoundView,
)
from repro.adversary.budget import validate_fault_sets
from repro.cliquesim.network import Clique
from repro.utils.bits import WORD_BITS, words_per_width


class BatchedClique(Clique):
    """``trials`` bandwidth-B Congested Cliques driven in lockstep."""

    def __init__(self, n: int, trials: int, bandwidth: int = 1,
                 adversary: Optional[BatchedAdversary] = None,
                 keep_history: bool = False):
        if trials < 1:
            raise ValueError("need at least one trial")
        # history defaults OFF here (campaign cells only need counters)
        super().__init__(n, bandwidth, (trials,),
                         adversary if adversary is not None
                         else BatchedNullAdversary(), keep_history)
        self.trials = trials
        #: extra per-trial rounds booked by :meth:`exchange_words_ragged`
        #: (zero for purely lockstep protocols)
        self.rounds_ragged = np.zeros(trials, dtype=np.int64)
        self._ragged_done = False

    @property
    def rounds_by_trial(self) -> np.ndarray:
        """Per-trial round counts: the shared lockstep prefix plus any
        trial-specific ragged-tail rounds."""
        return self.rounds_used + self.rounds_ragged

    def round(self, intended: np.ndarray, width: Optional[int] = None,
              label: str = "") -> np.ndarray:
        """Execute one synchronous round in every trial; returns the
        ``(trials, n, n)`` delivered stack."""
        if self._ragged_done:
            raise RuntimeError(
                "a ragged exchange must be the final transport: per-trial "
                "round indices have already diverged")
        intended, width = self._admit(intended, width)
        if self.fault_free():
            self._book_round(intended, intended, None, width, label)
            return intended.copy()
        view = BatchRoundView(index=self.rounds_used, width=width,
                              intended=intended.copy(),
                              histories=self.histories, label=label)
        edges = np.asarray(self.adversary.select_edges_many(view), dtype=bool)
        validate_fault_sets(edges, self.n, self._budget_alpha)
        return self._clamp_and_book(intended,
                                    self.adversary.corrupt_many(view, edges),
                                    edges, width, label)

    # bound here, not inherited: tracing wraps each engine's own methods
    round_many = Clique.round_many
    exchange_words = Clique.exchange_words
    exchange_bits = Clique.exchange_bits

    def exchange_words_ragged(self, words: np.ndarray, present: np.ndarray,
                              widths: np.ndarray, label: str = "",
                              ) -> Tuple[np.ndarray, np.ndarray]:
        """Packed-word transport with a *per-trial* width: trial ``t``
        moves ``widths[t]`` bits per present entry over
        ``ceil(widths[t] / B)`` rounds — exactly the chunk rounds a serial
        run of that trial would execute.  Trials whose width is exhausted
        stop participating (their adversary instances are not consulted,
        their counters stop), so per-trial round counts diverge; the extra
        rounds land in :attr:`rounds_ragged` and no lockstep round may
        follow.  Used by the adaptive compiler's query-answer exchange,
        whose width is a per-trial random quantity."""
        words = np.asarray(words, dtype=np.uint64)
        present = np.asarray(present, dtype=bool)
        widths = np.asarray(widths, dtype=np.int64)
        if widths.shape != self.lead:
            raise ValueError(f"expected {self.lead} per-trial widths")
        if widths.min() < 1:
            raise ValueError("ragged widths must be at least 1 bit")
        max_width = int(widths.max())
        if int(widths.min()) == max_width:
            return self.exchange_words(words, present, max_width,
                                       label=label)
        self._check_planes(words, words_per_width(max_width))
        sent_entries = self._sent_entries(present)
        dropped = np.zeros(self.lead + (self.n, self.n), dtype=bool)
        out = np.zeros_like(words)
        for part, (start, _) in enumerate(
                self._chunk_spans(max_width, self.bandwidth)):
            active = widths > start
            # inactive trials take 0 bits, so they send and book nothing
            takes = np.where(active,
                             np.minimum(self.bandwidth, widths - start), 0)
            word, off = divmod(start, WORD_BITS)
            value = words[..., word] >> np.uint64(off)
            if off and off + self.bandwidth > WORD_BITS \
                    and word + 1 < words.shape[3]:
                value = value | (words[..., word + 1]
                                 << np.uint64(WORD_BITS - off))
            masks = ((np.uint64(1) << takes.astype(np.uint64))
                     - np.uint64(1))[:, None, None]
            sent = present & active[:, None, None]
            intended = np.where(sent, (value & masks).astype(np.int64),
                                np.int64(-1))
            index = self.rounds_used + part
            label_p = f"{label}[bits{start}]"
            if self.fault_free():
                delivered = intended
                corrupted = np.zeros(self.trials, dtype=np.int64)
            else:
                view = BatchRoundView(
                    index=index, width=int(takes.max()),
                    intended=intended.copy(), histories=self.histories,
                    label=label_p, widths=takes.copy(),
                    active=active.copy())
                edges = np.asarray(self.adversary.select_edges_many(view),
                                   dtype=bool)
                edges[~active] = False  # finished trials see no faults
                validate_fault_sets(edges, self.n, self._budget_alpha)
                delivered = self._clamp(
                    intended, self.adversary.corrupt_many(view, edges),
                    edges, (np.int64(1) << takes)[:, None, None])
                corrupted = self._count(delivered != intended)
            bits = takes * sent_entries
            if self.keep_history:
                for t in np.flatnonzero(active):
                    self.histories[t].append(RoundOutcome(
                        index=int(self.rounds_by_trial[t]),
                        width=int(takes[t]),
                        corrupted_entries=int(corrupted[t]),
                        bits=int(bits[t]), label=label_p))
            self._observe(index, int(takes.max()), label_p, bits, corrupted)
            self.rounds_ragged += active
            self._tally(0, bits, corrupted)
            dropped |= sent & (delivered < 0)
            got = np.where(delivered < 0, 0, delivered).astype(np.uint64)
            out[..., word] |= got << np.uint64(off)
            if off and off + self.bandwidth > WORD_BITS \
                    and word + 1 < out.shape[3]:
                out[..., word + 1] |= got >> np.uint64(WORD_BITS - off)
        self._ragged_done = True
        return out, dropped

    def fault_free(self) -> bool:
        return isinstance(self.adversary, BatchedNullAdversary)

    def __repr__(self) -> str:
        return (f"BatchedClique(n={self.n}, trials={self.trials}, "
                f"B={self.bandwidth}, rounds={self.rounds_used}, "
                f"adversary={type(self.adversary).__name__})")
