"""Unit tests for the Congested Clique engine."""

import numpy as np
import pytest

from repro.adversary.base import Adversary, NullAdversary, RoundView
from repro.adversary.budget import FaultBudgetViolation
from repro.cliquesim.network import BandwidthViolation, CongestedClique


def full_matrix(n, value=1):
    return np.full((n, n), value, dtype=np.int64)


class TestFaultFreeRounds:
    def test_delivery(self):
        net = CongestedClique(8, bandwidth=4)
        payload = np.arange(64).reshape(8, 8) % 16
        delivered = net.round(payload, width=4)
        assert np.array_equal(delivered, payload)
        assert net.rounds_used == 1

    def test_width_defaults_to_bandwidth(self):
        net = CongestedClique(4, bandwidth=3)
        delivered = net.round(full_matrix(4, 7))
        assert np.array_equal(delivered, full_matrix(4, 7))

    def test_width_violation(self):
        net = CongestedClique(4, bandwidth=2)
        with pytest.raises(BandwidthViolation):
            net.round(full_matrix(4), width=3)

    def test_payload_value_violation(self):
        net = CongestedClique(4, bandwidth=2)
        with pytest.raises(BandwidthViolation):
            net.round(full_matrix(4, 5), width=2)

    def test_shape_violation(self):
        net = CongestedClique(4)
        with pytest.raises(ValueError):
            net.round(np.zeros((3, 3), dtype=np.int64))

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            CongestedClique(1)

    def test_bit_accounting_ignores_absent_and_diagonal(self):
        net = CongestedClique(4, bandwidth=1)
        payload = np.full((4, 4), -1, dtype=np.int64)
        payload[0, 1] = 1
        payload[2, 2] = 1  # diagonal: free
        net.round(payload, width=1)
        assert net.bits_sent == 1


class _EvilAdversary(Adversary):
    """Tries to corrupt everything regardless of its fault set."""

    def select_edges(self, view):
        mask = np.zeros((self.n, self.n), dtype=bool)
        mask[0, 1] = mask[1, 0] = True
        return mask

    def corrupt(self, view, edges):
        return np.zeros_like(view.intended)  # tampers every entry


class _OverBudgetAdversary(Adversary):
    def select_edges(self, view):
        mask = np.ones((self.n, self.n), dtype=bool)
        np.fill_diagonal(mask, False)
        return mask


class TestAdversaryEnforcement:
    def test_clamping_limits_corruption_to_fault_set(self):
        adv = _EvilAdversary(alpha=0.5)
        net = CongestedClique(4, bandwidth=2, adversary=adv)
        payload = full_matrix(4, 3)
        delivered = net.round(payload, width=2)
        # only the (0,1) edge may differ, in both directions
        differences = np.argwhere(delivered != payload)
        assert {tuple(d) for d in differences} <= {(0, 1), (1, 0)}
        assert net.entries_corrupted == 2

    def test_budget_violation_raises(self):
        adv = _OverBudgetAdversary(alpha=0.25)
        net = CongestedClique(8, bandwidth=1, adversary=adv)
        with pytest.raises(FaultBudgetViolation):
            net.round(full_matrix(8))

    def test_diagonal_never_corrupted(self):
        adv = _EvilAdversary(alpha=1.0)
        net = CongestedClique(4, bandwidth=2, adversary=adv)
        payload = full_matrix(4, 2)
        delivered = net.round(payload, width=2)
        assert np.array_equal(np.diag(delivered), np.diag(payload))

    def test_null_adversary(self):
        net = CongestedClique(4, adversary=NullAdversary())
        assert net.fault_free()


class TestExchange:
    def test_wide_exchange_chunks(self):
        net = CongestedClique(4, bandwidth=3)
        payload = np.arange(16).reshape(4, 4).astype(np.int64) * 17 % 256
        delivered = net.exchange(payload, width=8)
        assert np.array_equal(delivered, payload)
        assert net.rounds_used == 3  # ceil(8 / 3)

    def test_exchange_preserves_absent(self):
        net = CongestedClique(4, bandwidth=2)
        payload = np.full((4, 4), -1, dtype=np.int64)
        payload[1, 2] = 9
        delivered = net.exchange(payload, width=4)
        assert delivered[1, 2] == 9
        assert delivered[0, 1] == -1

    def test_exchange_bits(self):
        net = CongestedClique(4, bandwidth=5)
        rng = np.random.default_rng(0)
        bits = rng.integers(0, 2, size=(4, 4, 13)).astype(np.uint8)
        present = np.ones((4, 4), dtype=bool)
        out, dropped = net.exchange_bits(bits, present)
        assert np.array_equal(out, bits)
        assert not dropped.any()  # fault-free: nothing is ever dropped
        assert net.rounds_used == 3  # ceil(13 / 5)

    def test_exchange_bits_absent_zero_filled(self):
        net = CongestedClique(4, bandwidth=4)
        bits = np.ones((4, 4, 6), dtype=np.uint8)
        present = np.zeros((4, 4), dtype=bool)
        present[0, 1] = True
        out, dropped = net.exchange_bits(bits, present)
        assert out[0, 1].all()
        assert not out[2, 3].any()
        # absent entries are not "dropped": nothing was sent on them
        assert not dropped.any()

    def test_exchange_bits_shape_check(self):
        net = CongestedClique(4)
        with pytest.raises(ValueError):
            net.exchange_bits(np.zeros((3, 3, 2), dtype=np.uint8),
                              np.ones((3, 3), dtype=bool))


class TestRoundManyAdversarialParity:
    """``round_many`` must be *semantically identical* to the equivalent
    sequence of ``round()`` calls even with a live adversary attached —
    same delivered stacks, same history entries, same round/bit/corruption
    counters (the fast path may only engage on the fault-free clique)."""

    N = 8
    ROUNDS = 6

    def _stack(self, seed):
        rng = np.random.default_rng(seed)
        stack = rng.integers(0, 8, size=(self.ROUNDS, self.N, self.N),
                             dtype=np.int64)
        stack[0, 1, 2] = -1  # an absent entry rides along
        widths = [3] * self.ROUNDS
        labels = [f"r{i}" for i in range(self.ROUNDS)]
        return stack, widths, labels

    def _nets(self):
        from repro.adversary import AdaptiveAdversary
        return (CongestedClique(self.N, bandwidth=4,
                                adversary=AdaptiveAdversary(1 / 4, seed=9)),
                CongestedClique(self.N, bandwidth=4,
                                adversary=AdaptiveAdversary(1 / 4, seed=9)))

    def test_bit_identical_to_round_sequence(self):
        net_many, net_loop = self._nets()
        stack, widths, labels = self._stack(3)
        got_many = net_many.round_many(stack, widths, labels)
        got_loop = np.stack([net_loop.round(stack[i], widths[i], labels[i])
                             for i in range(self.ROUNDS)])
        assert np.array_equal(got_many, got_loop)
        # the adversary corrupted something, so the parity is non-trivial
        assert net_loop.entries_corrupted > 0

    def test_counters_and_history_match(self):
        net_many, net_loop = self._nets()
        stack, widths, labels = self._stack(4)
        net_many.round_many(stack, widths, labels)
        for i in range(self.ROUNDS):
            net_loop.round(stack[i], widths[i], labels[i])
        assert net_many.rounds_used == net_loop.rounds_used == self.ROUNDS
        assert net_many.bits_sent == net_loop.bits_sent
        assert net_many.entries_corrupted == net_loop.entries_corrupted
        for h_many, h_loop in zip(net_many.history, net_loop.history):
            assert h_many.index == h_loop.index
            assert h_many.width == h_loop.width
            assert h_many.label == h_loop.label
            assert h_many.corrupted_entries == h_loop.corrupted_entries


class TestHistory:
    def test_history_records_labels(self):
        net = CongestedClique(4, bandwidth=1)
        net.round(full_matrix(4), label="step-a")
        net.round(full_matrix(4), label="step-b")
        assert [h.label for h in net.history] == ["step-a", "step-b"]
