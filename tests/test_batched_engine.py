"""Parity and contract tests for the trial-batched clique engine."""

import numpy as np
import pytest

from repro.adversary import (AdaptiveAdversary, BatchedNonAdaptiveAdversary,
                             BatchedNullAdversary, NonAdaptiveAdversary,
                             NullAdversary, PerTrialAdversaryBatch)
from repro.adversary.budget import FaultBudgetViolation, validate_fault_sets
from repro.cliquesim import BatchedClique, CongestedClique
from repro.utils.rng import make_rng

N = 16
TRIALS = 3
WIDTH = 6


def payload_stack(seed: int, width: int = WIDTH) -> np.ndarray:
    rng = make_rng(seed)
    vals = rng.integers(0, 1 << width, size=(TRIALS, N, N), dtype=np.int64)
    vals[rng.random((TRIALS, N, N)) < 0.2] = -1
    return vals


def history_rows(history):
    return [(h.index, h.width, h.label, h.corrupted_entries, h.bits)
            for h in history]


def assert_trial_matches(bc, t, net):
    """Trial ``t`` of ``bc`` booked exactly what the serial ``net`` did."""
    assert int(bc.rounds_by_trial[t]) == net.rounds_used
    assert int(bc.bits_sent[t]) == net.bits_sent
    assert int(bc.entries_corrupted[t]) == net.entries_corrupted
    assert history_rows(bc.histories[t]) == history_rows(net.history)


def assert_engine_parity(batched_adv, serial_adv_factory, rounds=3):
    """Drive the same exchanges through a BatchedClique and per-trial
    CongestedCliques; everything observable must match bit for bit."""
    bc = BatchedClique(N, TRIALS, bandwidth=4, adversary=batched_adv,
                       keep_history=True)
    nets = [CongestedClique(N, bandwidth=4, adversary=serial_adv_factory(t))
            for t in range(TRIALS)]
    for r in range(rounds):
        vals = payload_stack(100 + r)
        got_b = bc.exchange(vals, width=WIDTH)
        for t in range(TRIALS):
            got_s = nets[t].exchange(vals[t], width=WIDTH)
            assert np.array_equal(got_b[t], got_s)
    for t in range(TRIALS):
        assert bc.rounds_used == nets[t].rounds_used
        assert_trial_matches(bc, t, nets[t])


class TestBatchedCliqueParity:
    def test_fault_free(self):
        assert_engine_parity(None, lambda t: NullAdversary())

    def test_nonadaptive_native_masks(self):
        seeds = [500 + 7 * t for t in range(TRIALS)]
        assert_engine_parity(
            BatchedNonAdaptiveAdversary(1 / 16, seeds),
            lambda t: NonAdaptiveAdversary(1 / 16, seed=seeds[t]))

    def test_per_trial_fallback_wrapper(self):
        seeds = [900 + 11 * t for t in range(TRIALS)]
        assert_engine_parity(
            PerTrialAdversaryBatch(
                [AdaptiveAdversary(1 / 16, seed=s) for s in seeds]),
            lambda t: AdaptiveAdversary(1 / 16, seed=seeds[t]))

    def test_exchange_bits_parity(self):
        rng = make_rng(7)
        bits = rng.integers(0, 2, size=(TRIALS, N, N, 10), dtype=np.uint8)
        present = rng.random((TRIALS, N, N)) < 0.9
        bc = BatchedClique(N, TRIALS, bandwidth=4)
        got_b, dropped_b = bc.exchange_bits(bits, present)
        for t in range(TRIALS):
            net = CongestedClique(N, bandwidth=4)
            got_s, dropped_s = net.exchange_bits(bits[t], present[t])
            assert np.array_equal(got_b[t], got_s)
            assert np.array_equal(dropped_b[t], dropped_s)

    def test_per_trial_dropped_masks_are_independent(self):
        seeds = [123 + t for t in range(TRIALS)]
        bc = BatchedClique(N, TRIALS, bandwidth=4,
                           adversary=BatchedNonAdaptiveAdversary(
                               0.25, seeds, content_attack="drop"))
        vals = payload_stack(42)
        present = vals >= 0
        bits = np.unpackbits(
            vals.clip(min=0).astype(np.uint8)[..., None],
            axis=-1, count=WIDTH, bitorder="little")
        _, dropped = bc.exchange_bits(bits, present)
        assert dropped.shape == (TRIALS, N, N)
        # independent per-trial streams: the drop patterns must differ
        assert not all(np.array_equal(dropped[0], dropped[t])
                       for t in range(1, TRIALS))


class TestRaggedExchange:
    """``exchange_words_ragged`` moves a different width per trial; each
    trial must see exactly a serial ``exchange_words`` at its own width."""

    #: bandwidth 6 makes the chunk at bit 60 straddle a word boundary
    BANDWIDTH = 6
    WIDTHS = np.array([20, 70, 45])

    def run_both(self, batched_adv, serial_adv_factory):
        rng = make_rng(31)
        words = rng.integers(0, 1 << 63, size=(TRIALS, N, N, 2),
                             dtype=np.uint64)
        present = rng.random((TRIALS, N, N)) < 0.85
        bc = BatchedClique(N, TRIALS, bandwidth=self.BANDWIDTH,
                           adversary=batched_adv, keep_history=True)
        nets = [CongestedClique(N, bandwidth=self.BANDWIDTH,
                                adversary=serial_adv_factory(t))
                for t in range(TRIALS)]
        # a lockstep exchange first, so ragged round indices start past 0
        vals = payload_stack(5)
        bc.exchange(vals, width=WIDTH)
        for t in range(TRIALS):
            nets[t].exchange(vals[t], width=WIDTH)
        got_b, dropped_b = bc.exchange_words_ragged(
            words, present, self.WIDTHS, label="answers")
        for t in range(TRIALS):
            got_s, dropped_s = nets[t].exchange_words(
                words[t], present[t], int(self.WIDTHS[t]), label="answers")
            assert np.array_equal(got_b[t], got_s)
            assert np.array_equal(dropped_b[t], dropped_s)
            assert_trial_matches(bc, t, nets[t])
        return bc, nets

    def test_per_trial_adaptive_adversaries(self):
        seeds = [300 + 13 * t for t in range(TRIALS)]
        bc, nets = self.run_both(
            PerTrialAdversaryBatch(
                [AdaptiveAdversary(1 / 16, seed=s) for s in seeds]),
            lambda t: AdaptiveAdversary(1 / 16, seed=seeds[t]))
        assert sum(net.entries_corrupted for net in nets) > 0
        assert len({net.rounds_used for net in nets}) == TRIALS

    def test_native_nonadaptive_adversary(self):
        seeds = [700 + 5 * t for t in range(TRIALS)]
        _, nets = self.run_both(
            BatchedNonAdaptiveAdversary(1 / 16, seeds),
            lambda t: NonAdaptiveAdversary(1 / 16, seed=seeds[t]))
        assert sum(net.entries_corrupted for net in nets) > 0

    def test_lockstep_round_after_ragged_exchange_raises(self):
        bc, _ = self.run_both(None, lambda t: NullAdversary())
        with pytest.raises(RuntimeError, match="ragged"):
            bc.round(payload_stack(6), width=WIDTH)


class TestValidateFaultSets:
    def test_accepts_within_budget(self):
        edges = np.zeros((TRIALS, N, N), dtype=bool)
        edges[:, 0, 1] = edges[:, 1, 0] = True
        validate_fault_sets(edges, N, 1 / 16)

    def test_rejects_over_budget_naming_trial(self):
        edges = np.zeros((TRIALS, N, N), dtype=bool)
        edges[1, 0, 1:4] = edges[1, 1:4, 0] = True  # degree 3 at node 0
        with pytest.raises(FaultBudgetViolation, match="trial 1"):
            validate_fault_sets(edges, N, 1 / 16)

    def test_rejects_asymmetric_and_diagonal(self):
        edges = np.zeros((TRIALS, N, N), dtype=bool)
        edges[0, 2, 3] = True
        with pytest.raises(FaultBudgetViolation, match="symmetric"):
            validate_fault_sets(edges, N, 0.5)
        edges = np.zeros((TRIALS, N, N), dtype=bool)
        edges[2, 5, 5] = True
        with pytest.raises(FaultBudgetViolation, match="self-loops"):
            validate_fault_sets(edges, N, 0.5)


class TestKeepHistory:
    def test_history_off_by_default(self):
        bc = BatchedClique(N, TRIALS, bandwidth=4)
        bc.exchange(payload_stack(1), width=WIDTH)
        assert not bc.keep_history
        assert all(len(h) == 0 for h in bc.histories)
        assert bc.rounds_used > 0  # counters still advance

    def test_history_opt_in(self):
        bc = BatchedClique(N, TRIALS, bandwidth=4, keep_history=True)
        bc.exchange(payload_stack(1), width=WIDTH)
        assert all(len(h) == bc.rounds_used for h in bc.histories)

    def test_history_forced_by_history_reading_adversary(self):
        adv = BatchedNullAdversary()
        adv.reads_history = True
        bc = BatchedClique(N, TRIALS, bandwidth=4, adversary=adv)
        assert bc.keep_history

    def test_serial_keep_history_flag(self):
        lean = CongestedClique(N, bandwidth=4, keep_history=False)
        full = CongestedClique(N, bandwidth=4)
        vals = payload_stack(3)[0]
        assert np.array_equal(lean.exchange(vals, width=WIDTH),
                              full.exchange(vals, width=WIDTH))
        assert len(lean.history) == 0
        assert len(full.history) == full.rounds_used
        assert lean.bits_sent == full.bits_sent
