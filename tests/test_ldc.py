"""Unit + property tests for locally decodable codes (Hadamard, Reed–Muller)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.hadamard import HadamardLDC
from repro.coding.ldc_interfaces import LocalDecodingFailure
from repro.coding.reed_muller import ReedMullerLDC, berlekamp_welch, poly_divmod
from repro.fields.gfp import PrimeField


class TestHadamard:
    def test_parameters(self):
        ldc = HadamardLDC(6)
        assert ldc.n == 64 and ldc.k == 6 and ldc.query_count == 2

    def test_rejects_large_k(self):
        with pytest.raises(ValueError):
            HadamardLDC(20)

    def test_encode_linear(self, rng):
        ldc = HadamardLDC(5)
        a = rng.integers(0, 2, 5)
        b = rng.integers(0, 2, 5)
        assert np.array_equal(
            (ldc.encode(a) + ldc.encode(b)) % 2, ldc.encode((a + b) % 2))

    def test_clean_local_decode(self, rng):
        ldc = HadamardLDC(8)
        msg = rng.integers(0, 2, 8)
        word = ldc.encode(msg)
        for i in range(8):
            for seed in range(5):
                assert ldc.local_decode_from_word(i, word, seed) == msg[i]

    def test_decode_under_corruption(self, rng):
        ldc = HadamardLDC(8)
        msg = rng.integers(0, 2, 8)
        word = ldc.encode(msg)
        corrupted = word.copy()
        positions = rng.choice(ldc.n, ldc.n // 20, replace=False)  # 5%
        corrupted[positions] ^= 1
        hits = sum(ldc.local_decode_from_word(0, corrupted, seed) == msg[0]
                   for seed in range(100))
        assert hits >= 80  # expected failure rate <= 2 * 5%

    def test_non_adaptive_queries(self):
        ldc = HadamardLDC(6)
        a = ldc.decode_indices(3, seed=42)
        b = ldc.decode_indices(3, seed=42)
        assert np.array_equal(a, b)
        assert a[0] ^ a[1] == 1 << 3


class TestPolyDivmod:
    def test_exact_division(self):
        field = PrimeField(13)
        # (x + 2)(x + 3) = x^2 + 5x + 6
        quotient, remainder = poly_divmod(
            field, np.array([6, 5, 1]), np.array([2, 1]))
        assert np.array_equal(quotient % 13, [3, 1])
        assert not (remainder % 13).any()

    def test_division_by_zero_raises(self):
        field = PrimeField(13)
        with pytest.raises(ZeroDivisionError):
            poly_divmod(field, np.array([1, 2]), np.array([0]))


class TestBerlekampWelch:
    def test_clean_recovery(self, rng):
        field = PrimeField(17)
        coeffs = rng.integers(0, 17, 4)
        xs = np.arange(1, 17)
        ys = field.poly_eval(coeffs, xs)
        out = berlekamp_welch(field, xs, ys, degree=3)
        assert np.array_equal(out % 17, coeffs % 17)

    def test_recovery_with_errors(self, rng):
        field = PrimeField(17)
        coeffs = rng.integers(0, 17, 4)
        xs = np.arange(1, 17)
        ys = field.poly_eval(coeffs, xs).copy()
        max_errors = (16 - 3 - 1) // 2  # = 6
        bad = rng.choice(16, max_errors, replace=False)
        ys[bad] = (ys[bad] + 1 + rng.integers(0, 15, max_errors)) % 17
        out = berlekamp_welch(field, xs, ys, degree=3)
        assert np.array_equal(out % 17, coeffs % 17)

    def test_too_few_points_raises(self):
        field = PrimeField(17)
        with pytest.raises(ValueError):
            berlekamp_welch(field, np.array([1, 2]), np.array([3, 4]),
                            degree=5)

    @given(st.integers(0, 2**31 - 1), st.integers(0, 6))
    @settings(max_examples=25, deadline=None)
    def test_random_instances(self, seed, errors):
        field = PrimeField(17)
        rng = np.random.default_rng(seed)
        coeffs = rng.integers(0, 17, 4)
        xs = np.arange(1, 17)
        ys = field.poly_eval(coeffs, xs).copy()
        if errors:
            bad = rng.choice(16, errors, replace=False)
            ys[bad] = (ys[bad] + 1 + rng.integers(0, 15, errors)) % 17
        out = berlekamp_welch(field, xs, ys, degree=3)
        assert np.array_equal(out % 17, coeffs % 17)


@pytest.fixture
def rm():
    return ReedMullerLDC(p=13, m=2, degree=4)


class TestReedMuller:
    def test_parameters(self, rm):
        assert rm.n == 169
        assert rm.k == 15  # C(2 + 4, 2)
        assert rm.query_count == 12
        assert rm.relative_distance == pytest.approx(1 - 4 / 13)

    def test_rejects_large_degree(self):
        with pytest.raises(ValueError):
            ReedMullerLDC(p=7, m=2, degree=6)

    def test_systematic(self, rm, rng):
        msg = rng.integers(0, 13, rm.k)
        word = rm.encode(msg)
        assert np.array_equal(word[rm.systematic_positions()], msg)

    def test_clean_local_decode_all(self, rm, rng):
        msg = rng.integers(0, 13, rm.k)
        word = rm.encode(msg)
        assert np.array_equal(rm.decode_all(word, seed=3), msg)

    def test_local_decode_under_corruption(self, rm, rng):
        msg = rng.integers(0, 13, rm.k)
        word = rm.encode(msg).copy()
        n_err = rm.max_line_errors()  # per-line budget; global random errs
        positions = rng.choice(rm.n, int(0.05 * rm.n), replace=False)
        word[positions] = (word[positions] + 1) % 13
        hits = sum(rm.local_decode_from_word(i, word, seed=9) == msg[i]
                   for i in range(rm.k))
        assert hits >= rm.k - 1
        assert n_err == (12 - 4 - 1) // 2

    def test_non_adaptive_queries(self, rm):
        a = rm.decode_indices(5, seed=11)
        b = rm.decode_indices(5, seed=11)
        assert np.array_equal(a, b)
        assert len(set(a.tolist())) == rm.query_count  # distinct line points

    def test_queries_depend_only_on_index_and_seed(self, rm):
        # different indices (generically) give different lines
        a = rm.decode_indices(1, seed=4)
        c = rm.decode_indices(2, seed=4)
        assert not np.array_equal(a, c)

    def test_local_decode_many_matches_scalar(self, rm, rng):
        msg = rng.integers(0, 13, rm.k)
        word = rm.encode(msg).copy()
        positions = rng.choice(rm.n, 8, replace=False)
        word[positions] = (word[positions] + 3) % 13
        idx = 7
        qpos = rm.decode_indices(idx, seed=21)
        values = np.tile(word[qpos], (6, 1))
        # corrupt some rows further
        values[2, :3] = (values[2, :3] + 1) % 13
        batch = rm.local_decode_many(idx, values, seed=21)
        for row in range(6):
            try:
                expected = rm.local_decode(idx, values[row], seed=21)
            except LocalDecodingFailure:
                expected = -1
            assert batch[row] == expected

    def test_design(self):
        code = ReedMullerLDC.design(max_codeword_symbols=200,
                                    min_message_symbols=10)
        assert code.n <= 200
        assert code.k >= 10

    def test_design_impossible(self):
        with pytest.raises(ValueError):
            ReedMullerLDC.design(max_codeword_symbols=4,
                                 min_message_symbols=100)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_line_budget_always_decodes(self, seed):
        rm = ReedMullerLDC(p=13, m=2, degree=4)
        rng = np.random.default_rng(seed)
        msg = rng.integers(0, 13, rm.k)
        word = rm.encode(msg).copy()
        index = int(rng.integers(0, rm.k))
        qpos = rm.decode_indices(index, seed=seed)
        values = word[qpos].copy()
        budget = rm.max_line_errors()
        bad = rng.choice(len(values), budget, replace=False)
        values[bad] = (values[bad] + 1 + rng.integers(0, 11, budget)) % 13
        assert rm.local_decode(index, values, seed=seed) == msg[index]


def _scalar_rows(rm, values):
    """Row-by-row scalar Berlekamp–Welch oracle: g(0), or -1 on failure."""
    ts = np.arange(1, rm.p)
    out = []
    for row in values:
        try:
            out.append(int(berlekamp_welch(rm.field, ts, row, rm.degree)[0]))
        except LocalDecodingFailure:
            out.append(-1)
    return np.array(out, dtype=np.int64)


def _line_words(rm, rng, weights):
    """One restricted codeword per entry of ``weights``, each with that many
    uniformly placed nonzero symbol errors."""
    ts = np.arange(1, rm.p)
    rows = []
    for weight in weights:
        coeffs = rng.integers(0, rm.p, rm.degree + 1)
        row = rm.field.poly_eval(coeffs, ts).copy()
        bad = rng.choice(rm.p - 1, weight, replace=False)
        row[bad] = (row[bad] + rng.integers(1, rm.p, weight)) % rm.p
        rows.append(row)
    return np.array(rows, dtype=np.int64)


_PARITY_CODES = [
    pytest.param(lambda: ReedMullerLDC(31, 2, 13), id="p31-d13"),
    pytest.param(lambda: ReedMullerLDC.design(200, 10), id="design-p13-d3"),
    pytest.param(lambda: ReedMullerLDC.design(3000, 60), id="design-p53-d10"),
    pytest.param(lambda: ReedMullerLDC(5, 2, 1), id="tiny-p5-d1"),
    pytest.param(lambda: ReedMullerLDC(3, 1, 1), id="tiny-p3-d1"),
]


class TestBatchedLineDecoder:
    """The lockstep GF(p) syndrome decoder behind ``local_decode_many``
    against the scalar Berlekamp–Welch oracle, row by row."""

    @pytest.mark.parametrize("make", _PARITY_CODES)
    def test_error_weights_match_oracle(self, make):
        rm = make()
        e = rm.max_line_errors()
        rng = np.random.default_rng(rm.p * 100 + rm.degree)
        weights = [w for w in range(e + 4) if w <= rm.p - 1] * 12
        values = _line_words(rm, rng, weights)
        batch = rm.local_decode_many(0, values, seed=1)
        expected = _scalar_rows(rm, values)
        assert np.array_equal(batch, expected)
        weights = np.array(weights)
        assert (expected[weights <= e] >= 0).all()  # inside the radius

    @pytest.mark.parametrize("make", _PARITY_CODES)
    def test_random_words_match_oracle(self, make):
        rm = make()
        rng = np.random.default_rng(rm.p)
        values = rng.integers(0, rm.p, size=(60, rm.p - 1))
        batch = rm.local_decode_many(3 % rm.k, values, seed=2)
        assert np.array_equal(batch, _scalar_rows(rm, values))

    def test_all_rows_dirty_batch(self):
        rm = ReedMullerLDC(31, 2, 13)
        e = rm.max_line_errors()
        rng = np.random.default_rng(17)
        weights = list(range(1, e + 4)) * 20
        values = _line_words(rm, rng, weights)
        syndromes = rm.field.matmul(values, rm._line_operators()[0])
        assert syndromes.any(axis=1).all()
        batch = rm.local_decode_many(5, values, seed=3)
        expected = _scalar_rows(rm, values)
        assert np.array_equal(batch, expected)
        assert (batch == -1).any() and (batch >= 0).any()

    def test_unreduced_and_empty_inputs(self):
        rm = ReedMullerLDC(13, 2, 4)
        rng = np.random.default_rng(4)
        values = _line_words(rm, rng, [0, 1, 2, 5])
        shifted = values + 13 * rng.integers(-2, 3, size=values.shape)
        assert np.array_equal(rm.local_decode_many(0, shifted, seed=0),
                              _scalar_rows(rm, values))
        empty = rm.local_decode_many(0, np.zeros((0, 12), dtype=np.int64), 0)
        assert empty.shape == (0,)

    def test_sentinel_decodes_first_dirty_row_through_scalar(self,
                                                             monkeypatch):
        rm = ReedMullerLDC(13, 2, 4)
        rng = np.random.default_rng(8)
        calls = []
        scalar = ReedMullerLDC.local_decode

        def spy(self, index, values, seed):
            calls.append(np.array(values))
            return scalar(self, index, values, seed)

        monkeypatch.setattr(ReedMullerLDC, "local_decode", spy)
        clean = _line_words(rm, rng, [0, 0, 0])
        rm.local_decode_many(0, clean, seed=0)
        assert calls == []  # no dirty rows, no oracle call
        mixed = _line_words(rm, rng, [0, 2, 1, 9])
        rm.local_decode_many(0, mixed, seed=0)
        assert len(calls) == 1 and np.array_equal(calls[0], mixed[1])

        # long inputs decode in blocks, each with its own sentinel row
        from repro.coding import reed_muller

        calls.clear()
        monkeypatch.setattr(reed_muller, "_LINE_BLOCK_ROWS", 2)
        blocked = _line_words(rm, rng, [0, 2, 1, 9, 0, 0, 0])
        out = rm.local_decode_many(0, blocked, seed=0)
        assert np.array_equal(out, _scalar_rows(rm, blocked))
        assert [row.tolist() for row in calls] == \
            [blocked[1].tolist(), blocked[2].tolist()]

    def test_sentinel_raises_on_injected_disagreement(self, monkeypatch):
        from repro.coding import reed_muller

        rm = ReedMullerLDC(31, 2, 13)
        rng = np.random.default_rng(9)
        values = _line_words(rm, rng, [0, 3, 2])
        real = reed_muller.correct_syndromes_many

        def wrong_symbol(field, words, *args, **kwargs):
            patched, ok = real(field, words, *args, **kwargs)
            patched[:, 0] = (patched[:, 0] + 1) % field.p
            return patched, ok

        monkeypatch.setattr(reed_muller, "correct_syndromes_many",
                            wrong_symbol)
        with pytest.raises(reed_muller.BatchParityError):
            rm.local_decode_many(0, values, seed=0)

        def spurious_failure(field, words, *args, **kwargs):
            patched, ok = real(field, words, *args, **kwargs)
            return patched, np.zeros_like(ok)

        monkeypatch.setattr(reed_muller, "correct_syndromes_many",
                            spurious_failure)
        with pytest.raises(reed_muller.BatchParityError):
            rm.local_decode_many(0, values, seed=0)
