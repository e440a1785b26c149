"""Prime-field arithmetic GF(p) with numpy-vectorised operations.

Used by the Reed–Muller locally decodable code (Section 5.2 substrate), the
k-wise independent hash families (Lemma 2.5), and the sparse-recovery sketch
fingerprints (Lemma 2.3).  Elements are represented as Python/numpy integers
in ``[0, p)``; all array operations accept and return ``int64`` arrays.

``p`` is limited to 31 bits so that products fit comfortably in ``int64``
before reduction.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

_MAX_PRIME_BITS = 31


def is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin for the 64-bit range."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime ``>= n``."""
    candidate = max(2, n)
    while not is_prime(candidate):
        candidate += 1
    return candidate


class PrimeField:
    """The field GF(p) for a prime ``p < 2**31``."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p.bit_length() > _MAX_PRIME_BITS:
            raise ValueError(f"prime {p} too large (max {_MAX_PRIME_BITS} bits)")
        self.p = p
        self.order = p
        self.characteristic = p

    # -- scalar / array arithmetic -----------------------------------------
    def add(self, a, b):
        return (np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % self.p

    def sub(self, a, b):
        return (np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64)) % self.p

    def mul(self, a, b):
        return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.p

    def sum(self, a, axis=-1):
        """Field sum along ``axis`` (one reduction, then one ``mod``)."""
        return np.asarray(a, dtype=np.int64).sum(axis=axis) % self.p

    def neg(self, a):
        return (-np.asarray(a, dtype=np.int64)) % self.p

    def inv(self, a):
        """Multiplicative inverse (scalar or array).  Raises on zero."""
        arr = np.asarray(a, dtype=np.int64)
        if np.any(arr % self.p == 0):
            raise ZeroDivisionError("inverse of zero in GF(p)")
        if arr.ndim == 0:
            return np.int64(pow(int(arr) % self.p, self.p - 2, self.p))
        return self._pow_array(arr % self.p, self.p - 2)

    def pow(self, a, e: int):
        """``a ** e`` (scalar or array); a negative ``e`` inverts first."""
        arr = np.asarray(a, dtype=np.int64)
        if arr.ndim == 0:
            return np.int64(pow(int(arr) % self.p, int(e), self.p))
        e = int(e)
        if e < 0:
            return self._pow_array(self.inv(arr), -e)
        return self._pow_array(arr % self.p, e)

    def _pow_array(self, base: np.ndarray, e: int) -> np.ndarray:
        """Elementwise square-and-multiply on reduced ``base``: every
        operand stays below ``p < 2**31``, so each product fits int64."""
        result = np.ones_like(base)
        while e:
            if e & 1:
                result = result * base % self.p
            e >>= 1
            if e:
                base = base * base % self.p
        return result

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def div_where(self, a, b):
        """Elementwise ``a / b`` with zero divisors mapped to 0 instead of
        raising — the masked form the batched decoder kernels need (as
        :meth:`GF2m.div_where`)."""
        b_arr = np.asarray(b, dtype=np.int64) % self.p
        zero = b_arr == 0
        out = self.mul(a, self.inv(np.where(zero, 1, b_arr)))
        return np.where(zero, 0, out)

    # -- polynomials (coefficient vectors, low-to-high degree) -------------
    def poly_eval(self, coeffs: Sequence[int], xs) -> np.ndarray:
        """Evaluate a polynomial at points ``xs`` (Horner, vectorised)."""
        xs_arr = np.asarray(xs, dtype=np.int64) % self.p
        result = np.zeros_like(xs_arr)
        for c in reversed(list(coeffs)):
            result = (result * xs_arr + int(c)) % self.p
        return result

    def matmul(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        """Matrix product mod p.  Splits the contraction into blocks so the
        intermediate int64 accumulation cannot overflow."""
        A = np.asarray(A, dtype=np.int64) % self.p
        B = np.asarray(B, dtype=np.int64) % self.p
        inner = A.shape[-1]
        # when every accumulated sum stays below 2^53 the whole product is
        # exact in float64, and float matmul runs through BLAS — integer
        # matmul does not; the result is bit-identical to the int64 path
        if self.p * self.p * inner < 1 << 53:
            return (A.astype(np.float64) @ B.astype(np.float64))\
                .astype(np.int64) % self.p
        # each product < p^2 <= 2^62; cap the number of summed terms per block
        max_terms = max(1, (1 << 62) // (self.p * self.p))
        if inner <= max_terms:
            return (A @ B) % self.p
        out = None
        for start in range(0, inner, max_terms):
            part = (A[..., start:start + max_terms]
                    @ B[start:start + max_terms, ...]) % self.p
            out = part if out is None else (out + part) % self.p
        return out

    def solve(self, A: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Solve ``A x = b`` mod p by Gaussian elimination.

        ``A`` may be rectangular in either direction; returns one solution.
        Raises ``ValueError`` only if the system is inconsistent.  An
        underdetermined system is not an error: every free (non-pivot)
        variable is set to 0, which is the solution Berlekamp–Welch relies
        on when its error budget exceeds the actual number of errors.
        """
        A = (np.asarray(A, dtype=np.int64) % self.p).copy()
        b = (np.asarray(b, dtype=np.int64) % self.p).copy()
        n_rows, n_cols = A.shape
        aug = np.concatenate([A, b.reshape(n_rows, 1)], axis=1)
        pivot_cols = []
        row = 0
        for col in range(n_cols):
            pivot = None
            for r in range(row, n_rows):
                if aug[r, col] % self.p != 0:
                    pivot = r
                    break
            if pivot is None:
                continue
            aug[[row, pivot]] = aug[[pivot, row]]
            inv = pow(int(aug[row, col]), self.p - 2, self.p)
            aug[row] = (aug[row] * inv) % self.p
            mask = np.arange(n_rows) != row
            factors = aug[mask, col].copy()
            aug[mask] = (aug[mask] - factors[:, None] * aug[row][None, :]) % self.p
            pivot_cols.append(col)
            row += 1
            if row == n_rows:
                break
        # consistency check for leftover rows
        for r in range(row, n_rows):
            if np.all(aug[r, :n_cols] == 0) and aug[r, n_cols] != 0:
                raise ValueError("inconsistent linear system over GF(p)")
        x = np.zeros(n_cols, dtype=np.int64)
        for r, col in enumerate(pivot_cols):
            x[col] = aug[r, n_cols]
        return x

    def inv_matrix(self, matrix: np.ndarray) -> np.ndarray:
        """Matrix inverse mod p via Gauss–Jordan on [A | I] (one pass for
        all columns — used for interpolation operators on hot paths)."""
        matrix = (np.asarray(matrix, dtype=np.int64) % self.p)
        size = matrix.shape[0]
        if matrix.shape != (size, size):
            raise ValueError("matrix must be square")
        aug = np.concatenate([matrix.copy(),
                              np.eye(size, dtype=np.int64)], axis=1)
        for col in range(size):
            pivot = None
            for r in range(col, size):
                if aug[r, col] % self.p != 0:
                    pivot = r
                    break
            if pivot is None:
                raise ValueError("matrix is singular over GF(p)")
            aug[[col, pivot]] = aug[[pivot, col]]
            inv = pow(int(aug[col, col]), self.p - 2, self.p)
            aug[col] = (aug[col] * inv) % self.p
            mask = np.arange(size) != col
            factors = aug[mask, col].copy()
            aug[mask] = (aug[mask] - factors[:, None] * aug[col][None, :]) % self.p
        return aug[:, size:]

    def interpolate(self, xs: Sequence[int], ys: Sequence[int]) -> np.ndarray:
        """Lagrange interpolation: coefficients of the unique polynomial of
        degree < len(xs) through the given points."""
        xs = [int(x) % self.p for x in xs]
        ys = [int(y) % self.p for y in ys]
        if len(set(xs)) != len(xs):
            raise ValueError("interpolation points must be distinct")
        n = len(xs)
        V = np.zeros((n, n), dtype=np.int64)
        for i, x in enumerate(xs):
            acc = 1
            for j in range(n):
                V[i, j] = acc
                acc = acc * x % self.p
        return self.solve(V, np.array(ys, dtype=np.int64))

    def __repr__(self) -> str:
        return f"PrimeField(p={self.p})"
