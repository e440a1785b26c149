"""Unit + property tests for GF(p) arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.fields.gfp import PrimeField, is_prime, next_prime


class TestPrimality:
    @pytest.mark.parametrize("n", [2, 3, 5, 7, 13, 31, 127, 524287,
                                   2147483647])
    def test_primes(self, n):
        assert is_prime(n)

    @pytest.mark.parametrize("n", [0, 1, 4, 9, 15, 91, 524288, 2147483646])
    def test_composites(self, n):
        assert not is_prime(n)

    def test_next_prime(self):
        assert next_prime(14) == 17
        assert next_prime(17) == 17
        assert next_prime(1) == 2


@pytest.fixture(params=[13, 31, 524287])
def field(request):
    return PrimeField(request.param)


class TestArithmetic:
    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(15)

    def test_rejects_huge_prime(self):
        with pytest.raises(ValueError):
            PrimeField((1 << 61) - 1)

    def test_add_sub_inverse(self, field):
        a = np.arange(10) % field.p
        b = (np.arange(10) * 7 + 3) % field.p
        assert np.array_equal(field.sub(field.add(a, b), b), a % field.p)

    def test_mul_inv(self, field):
        values = np.arange(1, min(field.p, 50))
        products = field.mul(values, field.inv(values))
        assert np.all(products == 1)

    def test_inv_zero_raises(self, field):
        with pytest.raises(ZeroDivisionError):
            field.inv(0)

    def test_pow_agrees_with_mul(self, field):
        a = 5 % field.p
        expected = 1
        for exponent in range(8):
            assert int(field.pow(a, exponent)) == expected
            expected = expected * a % field.p

    @pytest.mark.parametrize("p", [3, 31, 524287, 2147483647])
    def test_array_inv_and_pow_match_python_pow(self, p):
        """Vectorised square-and-multiply is bit-identical to Python's
        ``pow`` — including the largest 31-bit prime, where every product
        is close to 2^62."""
        field = PrimeField(p)
        rng = np.random.default_rng(p)
        values = rng.integers(1, p, size=(7, 9), dtype=np.int64)
        values[0, :3] = [1, p - 1, p - 2 if p > 3 else 1]
        inverses = field.inv(values)
        assert inverses.shape == values.shape and inverses.dtype == np.int64
        assert inverses.tolist() == [[pow(int(x), p - 2, p) for x in row]
                                     for row in values]
        for e in (0, 1, 2, 5, p - 2, p - 1, 12345, -1, -3):
            got = field.pow(values, e)
            assert got.shape == values.shape
            assert got.tolist() == [[pow(int(x), e, p) for x in row]
                                    for row in values], e

    def test_array_pow_of_zero(self, field):
        zeros = np.zeros(3, dtype=np.int64)
        assert field.pow(zeros, 0).tolist() == [1, 1, 1]
        assert field.pow(zeros, 4).tolist() == [0, 0, 0]
        with pytest.raises(ZeroDivisionError):
            field.pow(zeros, -1)

    def test_array_inv_zero_raises(self, field):
        with pytest.raises(ZeroDivisionError):
            field.inv(np.array([1, 0, 2]))

    def test_div_where_maps_zero_divisors_to_zero(self, field):
        a = np.array([[3, 5, 7], [0, 1, 2]]) % field.p
        b = np.array([[2, 0, 1], [4, 0, field.p + 3]])
        out = field.div_where(a, b)
        assert out.shape == a.shape
        for (i, j), value in np.ndenumerate(out):
            if b[i, j] % field.p == 0:
                assert value == 0
            else:
                assert value == int(field.div(int(a[i, j]), int(b[i, j])))

    def test_sum_reduces_mod_p(self, field):
        a = np.full((2, 5), field.p - 1, dtype=np.int64)
        assert field.sum(a, axis=1).tolist() == [(5 * (field.p - 1))
                                                 % field.p] * 2

    @given(st.integers(1, 10**6), st.integers(1, 10**6))
    @settings(max_examples=50)
    def test_field_axioms(self, x, y):
        field = PrimeField(524287)
        a, b = x % field.p, y % field.p
        assert int(field.mul(a, b)) == a * b % field.p
        assert int(field.add(a, b)) == (a + b) % field.p
        if a != 0:
            assert int(field.mul(a, field.inv(a))) == 1


class TestPolynomials:
    def test_poly_eval_horner(self, field):
        coeffs = [1, 2, 3]  # 1 + 2x + 3x^2
        xs = np.array([0, 1, 2])
        expected = (1 + 2 * xs + 3 * xs * xs) % field.p
        assert np.array_equal(field.poly_eval(coeffs, xs), expected)

    def test_interpolate_round_trip(self, field):
        rng = np.random.default_rng(5)
        coeffs = rng.integers(0, field.p, size=4)
        xs = np.arange(4)
        ys = field.poly_eval(coeffs, xs)
        recovered = field.interpolate(xs, ys)
        assert np.array_equal(recovered % field.p, coeffs % field.p)

    def test_interpolate_rejects_duplicates(self, field):
        with pytest.raises(ValueError):
            field.interpolate([1, 1], [0, 1])


class TestLinearAlgebra:
    def test_solve_identity(self, field):
        b = np.arange(5) % field.p
        x = field.solve(np.eye(5, dtype=np.int64), b)
        assert np.array_equal(x, b)

    def test_solve_random_consistent(self, field):
        rng = np.random.default_rng(9)
        A = rng.integers(0, field.p, size=(6, 6))
        x_true = rng.integers(0, field.p, size=6)
        b = field.matmul(A, x_true.reshape(-1, 1)).reshape(-1)
        x = field.solve(A, b)
        b_check = field.matmul(A, x.reshape(-1, 1)).reshape(-1)
        assert np.array_equal(b_check, b)

    def test_solve_inconsistent_raises(self, field):
        A = np.array([[1, 0], [1, 0], [0, 0]])
        b = np.array([1, 2, 1])
        with pytest.raises(ValueError):
            field.solve(A, b)

    def test_solve_underdetermined_sets_free_variables_to_zero(self, field):
        """An underdetermined but consistent system is not an error: the
        free (non-pivot) columns come back as 0.  Berlekamp–Welch relies on
        this whenever a line carries fewer errors than its budget."""
        A = np.array([[1, 2, 0, 5], [0, 0, 1, 3]])
        b = np.array([4, 6])
        x = field.solve(A, b)
        assert x.tolist() == [4, 0, 6, 0]
        # a zero column is free as well
        x = field.solve(np.array([[0, 1], [0, 2]]), np.array([3, 6]))
        assert x.tolist() == [0, 3]

    def test_inv_matrix(self, field):
        rng = np.random.default_rng(11)
        for _ in range(5):
            A = rng.integers(0, field.p, size=(5, 5))
            try:
                inv = field.inv_matrix(A)
            except ValueError:
                continue  # singular draw
            assert np.array_equal(field.matmul(A, inv),
                                  np.eye(5, dtype=np.int64))

    def test_inv_matrix_singular_raises(self, field):
        with pytest.raises(ValueError):
            field.inv_matrix(np.zeros((3, 3), dtype=np.int64))

    def test_matmul_blocking_matches_direct(self):
        # force the block path with a large prime
        field = PrimeField((1 << 30) + 3 if is_prime((1 << 30) + 3)
                           else next_prime(1 << 30))
        rng = np.random.default_rng(3)
        A = rng.integers(0, field.p, size=(4, 600))
        B = rng.integers(0, field.p, size=(600, 3))
        expected = np.zeros((4, 3), dtype=object)
        for i in range(4):
            for j in range(3):
                expected[i, j] = int(sum(int(a) * int(b) for a, b in
                                         zip(A[i], B[:, j])) % field.p)
        out = field.matmul(A, B)
        assert np.array_equal(out.astype(object), expected)
