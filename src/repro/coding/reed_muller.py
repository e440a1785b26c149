"""Reed–Muller locally decodable code (Lemma 2.2 substitute).

The paper instantiates its adaptive compiler with the Kopparty–Meir–
Ron-Zewi–Saraf LDC (constant rate, ``q = exp(sqrt(log n log log n))``
queries).  That construction is far beyond a faithful reimplementation; per
DESIGN.md §2 we substitute the classical Reed–Muller LDC, which offers every
property Section 5.2 actually uses:

* **non-adaptive** local decoding: the queried positions are an affine line
  through the decoded point with a direction derived only from
  ``(index, randomness)`` — exposed as :meth:`decode_indices`;
* constant relative distance ``1 - d/p``;
* local decoding succeeds w.h.p. against a constant corruption fraction;
* polynomial-time encoding and decoding.

The rate is a smaller constant and ``q = p - 1 = O(n^{1/m})`` instead of
``n^{o(1)}``; EXPERIMENTS.md reports the concrete α this costs.

Encoding is *systematic on the principal lattice*: the message symbols are
the evaluations of an m-variate degree-≤d polynomial over GF(p) at the
lattice points ``{x : sum(x) <= d}`` (a classical unique-interpolation set),
and the codeword is the evaluation over all of GF(p)^m.  Local decoding of
message coordinate ``i`` therefore reduces to locally *correcting* the
codeword position of lattice point ``i``: pick a random line through it,
decode the restriction (a univariate polynomial of degree ≤ d) from the
``p - 1`` other points of the line, and evaluate at the decoded point.

That restriction is a Reed–Solomon codeword over GF(p) evaluated at all of
GF(p)*, so the batched :meth:`ReedMullerLDC.local_decode_many` decodes every
row with the field-generic lockstep syndrome decoder shared with
:mod:`repro.coding.reed_solomon`.  The per-row :func:`berlekamp_welch`
(:meth:`ReedMullerLDC.local_decode`) is its scalar oracle, kept live as a
sentinel on every batched call with dirty rows.
"""

from __future__ import annotations

import itertools
import math
from typing import List, Tuple

import numpy as np

from repro.coding.ldc_interfaces import LocalDecodingFailure, LocallyDecodableCode
from repro.coding.reed_solomon import correct_syndromes_many, power_table
from repro.fields.gfp import PrimeField, is_prime
from repro.obs import metrics
from repro.utils.rng import derive


#: rows per lockstep decode in :meth:`ReedMullerLDC.local_decode_many`;
#: bounds the pipeline's temporaries (about ten row-sized arrays)
_LINE_BLOCK_ROWS = 4096


class BatchParityError(RuntimeError):
    """The batched line decoder disagreed with the scalar Berlekamp–Welch
    oracle — a kernel bug, never a property of the received word."""


def _lattice_points(m: int, degree: int) -> List[Tuple[int, ...]]:
    """The principal lattice {x in N^m : sum(x) <= degree}, lex ordered."""
    points = [pt for pt in itertools.product(range(degree + 1), repeat=m)
              if sum(pt) <= degree]
    points.sort()
    return points


def _monomials(m: int, degree: int) -> List[Tuple[int, ...]]:
    """Exponent vectors of the m-variate monomials of total degree <= d."""
    return _lattice_points(m, degree)


def poly_divmod(field: PrimeField, numerator: np.ndarray,
                denominator: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Polynomial division over GF(p); coefficients low-to-high."""
    num = np.asarray(numerator, dtype=np.int64) % field.p
    den = np.asarray(denominator, dtype=np.int64) % field.p
    while len(den) > 1 and den[-1] == 0:
        den = den[:-1]
    if len(den) == 1 and den[0] == 0:
        raise ZeroDivisionError("division by zero polynomial")
    num = num.copy()
    d_den = len(den) - 1
    lead_inv = int(field.inv(int(den[-1])))
    quot = np.zeros(max(1, len(num) - d_den), dtype=np.int64)
    for i in range(len(num) - 1, d_den - 1, -1):
        coeff = num[i] * lead_inv % field.p
        if coeff:
            quot[i - d_den] = coeff
            num[i - d_den:i + 1] = (num[i - d_den:i + 1]
                                    - coeff * den) % field.p
    remainder = num[:d_den] if d_den > 0 else np.zeros(1, dtype=np.int64)
    return quot, remainder


def berlekamp_welch(field: PrimeField, xs: np.ndarray, ys: np.ndarray,
                    degree: int) -> np.ndarray:
    """Recover a polynomial of degree <= ``degree`` from noisy evaluations.

    Given ``q`` distinct points with at most ``e = (q - degree - 1) // 2``
    wrong values, returns the coefficient vector.  Raises
    :class:`LocalDecodingFailure` when no consistent polynomial exists.
    """
    xs = np.asarray(xs, dtype=np.int64) % field.p
    ys = np.asarray(ys, dtype=np.int64) % field.p
    q = len(xs)
    if q != len(ys):
        raise ValueError("xs and ys must have the same length")
    max_errors = (q - degree - 1) // 2
    if max_errors < 0:
        raise ValueError(f"{q} points cannot determine degree {degree}")
    for e in range(max_errors, -1, -1):
        # unknowns: E (monic, degree e -> e coefficients) and Q (degree <= degree+e)
        n_q = degree + e + 1
        # equation per point: Q(x) - y * (E(x)) = 0 with E monic:
        #   sum_j Q_j x^j - y * (x^e + sum_{j<e} E_j x^j) = 0
        powers = np.ones((q, max(n_q, e + 1)), dtype=np.int64)
        for j in range(1, powers.shape[1]):
            powers[:, j] = powers[:, j - 1] * xs % field.p
        A = np.zeros((q, n_q + e), dtype=np.int64)
        A[:, :n_q] = powers[:, :n_q]
        if e > 0:
            A[:, n_q:] = (-(ys[:, None] * powers[:, :e])) % field.p
        b = ys * powers[:, e] % field.p
        try:
            solution = field.solve(A, b)
        except ValueError:
            continue
        q_coeffs = solution[:n_q]
        e_coeffs = np.concatenate(
            [solution[n_q:], np.array([1], dtype=np.int64)])
        quot, rem = poly_divmod(field, q_coeffs, e_coeffs)
        if np.any(rem % field.p):
            continue
        # verify against the points within the error budget
        fitted = field.poly_eval(quot[:degree + 1], xs)
        if int(np.count_nonzero(fitted != ys)) <= e:
            out = np.zeros(degree + 1, dtype=np.int64)
            out[:min(len(quot), degree + 1)] = quot[:degree + 1]
            return out
    raise LocalDecodingFailure("Berlekamp–Welch found no consistent polynomial")


_LDC_CACHE: dict = {}


def cached_reed_muller(p: int, m: int, degree: int) -> "ReedMullerLDC":
    """Construction is O(k^3 + n*k); protocols share instances."""
    key = (p, m, degree)
    if key not in _LDC_CACHE:
        _LDC_CACHE[key] = ReedMullerLDC(p, m, degree)
    return _LDC_CACHE[key]


class ReedMullerLDC(LocallyDecodableCode):
    """Reed–Muller code RM_p(m, d) with affine-line local decoding."""

    def __init__(self, p: int, m: int, degree: int):
        if m < 1:
            raise ValueError("need at least one variable")
        if not 1 <= degree <= p - 2:
            raise ValueError(
                f"degree must be in [1, p-2] for line decoding, got {degree} "
                f"(p={p})")
        self.field = PrimeField(p)
        self.p = p
        self.m = m
        self.degree = degree
        self.alphabet_size = p
        self.n = p ** m
        lattice = _lattice_points(m, degree)
        if any(max(pt) >= p for pt in lattice):
            raise ValueError("degree too large: lattice leaves GF(p)^m")
        self.k = len(lattice)
        self._lattice = np.array(lattice, dtype=np.int64)
        monos = _monomials(m, degree)
        self._monomials = np.array(monos, dtype=np.int64)
        # evaluation of every monomial at every point of GF(p)^m
        self._points = self._all_points()
        self._eval_matrix = self._monomial_evals(self._points)
        lattice_evals = self._monomial_evals(self._lattice)
        self._interp_inv = self._invert(lattice_evals)
        self._lattice_positions = np.array(
            [self._index_of_point(pt) for pt in lattice], dtype=np.int64)

    # -- construction helpers ------------------------------------------------
    def _all_points(self) -> np.ndarray:
        idx = np.arange(self.n, dtype=np.int64)
        coords = np.zeros((self.n, self.m), dtype=np.int64)
        for axis in range(self.m - 1, -1, -1):
            coords[:, axis] = idx % self.p
            idx = idx // self.p
        return coords

    def _index_of_point(self, point) -> int:
        index = 0
        for coordinate in point:
            index = index * self.p + int(coordinate) % self.p
        return index

    def _monomial_evals(self, points: np.ndarray) -> np.ndarray:
        """Matrix M[x, mono] = prod_i x_i^{e_i} mod p."""
        p = self.p
        n_points = points.shape[0]
        out = np.ones((n_points, len(self._monomials)), dtype=np.int64)
        # precompute coordinate powers up to the degree
        powers = np.ones((n_points, self.m, self.degree + 1), dtype=np.int64)
        for d in range(1, self.degree + 1):
            powers[:, :, d] = powers[:, :, d - 1] * points % p
        for j, mono in enumerate(self._monomials):
            acc = np.ones(n_points, dtype=np.int64)
            for axis, exponent in enumerate(mono):
                if exponent:
                    acc = acc * powers[:, axis, exponent] % p
            out[:, j] = acc
        return out

    def _invert(self, matrix: np.ndarray) -> np.ndarray:
        return self.field.inv_matrix(matrix)

    # -- LocallyDecodableCode interface ---------------------------------------
    @property
    def query_count(self) -> int:
        return self.p - 1

    @property
    def relative_distance(self) -> float:
        return 1.0 - self.degree / self.p

    def max_line_errors(self) -> int:
        """Errors tolerated on a single decoding line."""
        return (self.p - 1 - self.degree - 1) // 2

    def encode(self, message: np.ndarray) -> np.ndarray:
        message = np.asarray(message, dtype=np.int64) % self.p
        if message.shape != (self.k,):
            raise ValueError(f"expected {self.k} message symbols")
        coeffs = self.field.matmul(self._interp_inv, message)
        return self.field.matmul(self._eval_matrix, coeffs)

    def encode_many(self, messages: np.ndarray) -> np.ndarray:
        """Encode a (count, k) symbol matrix into (count, n) codewords with
        two batched matrix products (interpolate, then evaluate)."""
        messages = np.asarray(messages, dtype=np.int64) % self.p
        if messages.ndim != 2 or messages.shape[1] != self.k:
            raise ValueError(f"expected shape (*, {self.k})")
        coeffs = self.field.matmul(messages, self._interp_inv.T)
        return self.field.matmul(coeffs, self._eval_matrix.T)

    def _line_direction(self, index: int, seed: int) -> np.ndarray:
        rng = derive(seed, f"rm-line:{index}")
        while True:
            direction = rng.integers(0, self.p, size=self.m, dtype=np.int64)
            if np.any(direction != 0):
                return direction

    def decode_indices(self, index: int, seed: int) -> np.ndarray:
        if not 0 <= index < self.k:
            raise IndexError(f"index {index} out of range [0, {self.k})")
        base = self._lattice[index]
        direction = self._line_direction(index, seed)
        ts = np.arange(1, self.p, dtype=np.int64)
        points = (base[None, :] + ts[:, None] * direction[None, :]) % self.p
        weights = self.p ** np.arange(self.m - 1, -1, -1, dtype=np.int64)
        return (points * weights[None, :]).sum(axis=1)

    def local_decode(self, index: int, values: np.ndarray, seed: int) -> int:
        values = np.asarray(values, dtype=np.int64)
        if values.shape != (self.p - 1,):
            raise ValueError(
                f"expected {self.p - 1} queried values, got {values.shape}")
        ts = np.arange(1, self.p, dtype=np.int64)
        coeffs = berlekamp_welch(self.field, ts, values % self.p, self.degree)
        return int(coeffs[0])  # g(0) = f(decoded point)

    def _line_operators(self):
        """Cached line-decoding operators, which depend only on (p, d).

        The restriction of a codeword to a decoding line is a Reed–Solomon
        codeword over GF(p): the values of a degree-<=d polynomial ``g`` at
        ``t = 1..p-1``, i.e. at every element of GF(p)*.  Since
        ``sum_{t != 0} t^i = 0`` unless ``(p-1) | i``, a word ``y`` is such a
        codeword iff its ``q - d - 1`` syndromes ``S_j = sum_t y_t t^j``
        (``j = 1..q-d-1``) all vanish.  Returns ``(syndrome_matrix,
        inverse_powers, c0)``: the (q, q-d-1) matrix ``H[t-1, j-1] = t^j``,
        the powers ``t^{-j}`` (``j = 0..q-d-1``) of the Chien/Forney
        evaluation points and the interpolation row mapping the first d+1
        values of a codeword to ``g(0)``.
        """
        cached = getattr(self, "_line_ops", None)
        if cached is not None:
            return cached
        p, d = self.p, self.degree
        ts = np.arange(1, p, dtype=np.int64)
        n_synd = p - 2 - d
        powers = np.ones((p - 1, max(n_synd, d) + 1), dtype=np.int64)
        for j in range(1, powers.shape[1]):
            powers[:, j] = powers[:, j - 1] * ts % p
        c0 = self.field.inv_matrix(powers[:d + 1, :d + 1])[0]
        self._line_ops = (powers[:, 1:n_synd + 1].copy(),
                          power_table(self.field, self.field.inv(ts),
                                      n_synd + 1), c0)
        return self._line_ops

    def local_decode_many(self, index: int, values: np.ndarray,
                          seed: int) -> np.ndarray:
        """Decode the same message coordinate from many independent query
        rows at once (rows = different codewords queried at identical
        positions — exactly the situation of Figure 1, where one node reads
        its sketch slot out of every group's codeword with shared
        randomness).

        Every row is decoded in lockstep as a Reed–Solomon word over GF(p)
        (see :meth:`_line_operators`): one matrix product gives all
        syndromes, rows with all-zero syndromes are clean, and the dirty
        rows go through the shared field-generic
        :func:`~repro.coding.reed_solomon.correct_syndromes_many` (lockstep
        Berlekamp–Massey, Chien search, Forney, re-syndrome check) with
        radius ``e = (q - d - 1) // 2``.  That bounded-distance decoder
        returns exactly what scalar Berlekamp–Welch returns — the unique
        degree-<=d polynomial within distance ``e``, or failure — so rows
        that fail come back as -1, as :meth:`local_decode` would raise.

        The scalar :meth:`local_decode` stays live as a sentinel: rows are
        decoded in blocks of :data:`_LINE_BLOCK_ROWS`, and in every block
        with dirty rows the first one is decoded through it too; any
        disagreement raises :class:`BatchParityError`.
        """
        values = np.asarray(values, dtype=np.int64)
        if values.ndim != 2 or values.shape[1] != self.p - 1:
            raise ValueError(f"expected shape (*, {self.p - 1})")
        out = np.empty(values.shape[0], dtype=np.int64)
        with metrics.timed("ldc.local_decode_many"):
            for start in range(0, values.shape[0], _LINE_BLOCK_ROWS):
                stop = start + _LINE_BLOCK_ROWS
                out[start:stop] = self._decode_lines(
                    index, values[start:stop], seed)
        return out

    def _decode_lines(self, index: int, values: np.ndarray,
                      seed: int) -> np.ndarray:
        # skip the reduction write pass when the rows are already reduced
        # (the common case: symbols straight off the wire)
        if values.size and (values.min() < 0 or values.max() >= self.p):
            values = values % self.p
        field = self.field
        syndrome_matrix, inverse_powers, c0 = self._line_operators()
        syndromes = field.matmul(values, syndrome_matrix)
        dirty = np.flatnonzero(syndromes.any(axis=1))
        metrics.count("ldc.rows", values.shape[0])
        metrics.count("ldc.dirty_rows", int(dirty.size))
        accepted = np.ones(values.shape[0], dtype=bool)
        corrected = values
        if dirty.size:
            patched, ok = correct_syndromes_many(
                field, values[dirty], syndromes[dirty], syndrome_matrix,
                inverse_powers)
            corrected = values.copy()
            corrected[dirty] = patched  # rejected rows are masked below
            accepted[dirty] = ok
        metrics.count("ldc.failed_rows", int(np.count_nonzero(~accepted)))
        decoded = field.matmul(corrected[:, :self.degree + 1], c0[:, None])
        out = np.where(accepted, decoded[:, 0], -1)
        if dirty.size:
            row = int(dirty[0])
            try:
                expected = self.local_decode(index, values[row], seed)
            except LocalDecodingFailure:
                expected = -1
            if expected != out[row]:
                raise BatchParityError(
                    f"batched line decode returned {int(out[row])} for row "
                    f"{row}, scalar Berlekamp–Welch {expected}")
        return out

    # -- convenience -----------------------------------------------------------
    def systematic_positions(self) -> np.ndarray:
        """Codeword positions that carry the message symbols verbatim."""
        return self._lattice_positions.copy()

    @classmethod
    def design(cls, max_codeword_symbols: int, min_message_symbols: int,
               m: int = 2) -> "ReedMullerLDC":
        """Choose (p, degree) with ``p^m <= max_codeword_symbols`` and
        ``k >= min_message_symbols``, using the largest admissible prime (so
        the per-line error margin ``p - 2 - degree`` is maximised) and the
        smallest admissible degree."""
        limit = int(max_codeword_symbols ** (1.0 / m)) + 1
        prime = None
        for candidate in range(limit, 1, -1):
            if is_prime(candidate) and candidate ** m <= max_codeword_symbols:
                prime = candidate
                break
        if prime is None:
            raise ValueError(
                f"no prime p with p^{m} <= {max_codeword_symbols}")
        for degree in range(1, prime - 1):
            if math.comb(m + degree, m) >= min_message_symbols:
                return cls(prime, m, degree)
        raise ValueError(
            f"no RM code with <= {max_codeword_symbols} codeword symbols and "
            f">= {min_message_symbols} message symbols (m={m}, p={prime})")

    def __repr__(self) -> str:
        return (f"ReedMullerLDC(p={self.p}, m={self.m}, d={self.degree}, "
                f"k={self.k}, n={self.n}, q={self.query_count})")
