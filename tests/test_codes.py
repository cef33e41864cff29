import math
from itertools import combinations

import pytest

import b2sets.codes as codes
from b2sets.codes import (
    SUBMATRIX_VERIFY_LIMIT,
    hadamard_code_vectors,
    int_det,
    reduced_vandermonde,
    star_code_vectors,
    walsh_rows,
)
from b2sets.errors import InternalVerificationFailure, ParameterError
from oracles import hadamard_pairs_ok, sampled_minors


class TestWalsh:
    def test_base_doubled_once(self):
        assert walsh_rows(1) == ((1, 1), (1, -1))

    def test_j2_rows(self):
        assert walsh_rows(2) == (
            (1, 1, 1, 1),
            (1, -1, 1, -1),
            (1, 1, -1, -1),
            (1, -1, -1, 1),
        )

    @pytest.mark.parametrize("j", [1, 2, 3, 4, 5])
    def test_orthogonal_rows(self, j):
        rows = walsh_rows(j)
        assert sum(a * b for a, b in zip(rows[0], rows[1])) == 0
        for r1, r2 in combinations(rows, 2):
            assert sum(a * b for a, b in zip(r1, r2)) == 0

    def test_first_column_ones(self):
        assert all(r[0] == 1 for r in walsh_rows(4))


class TestHadamardFamily:
    def test_k2(self):
        cf = hadamard_code_vectors(2)
        assert cf.d == 1
        assert cf.vectors == ((1,), (-1,))

    def test_k4(self):
        cf = hadamard_code_vectors(4)
        assert cf.d == 3
        assert cf.vectors == ((1, 1, 1), (-1, 1, -1), (1, -1, -1), (-1, -1, 1))
        # check the 10 pairwise sums are distinct by direct enumeration
        sums = [
            tuple(a + b for a, b in zip(cf.vectors[i], cf.vectors[j]))
            for i in range(4)
            for j in range(i, 4)
        ]
        assert len(set(sums)) == 10

    def test_k4_zero_count(self):
        cf = hadamard_code_vectors(4)
        s = tuple(a + b for a, b in zip(cf.vectors[0], cf.vectors[1]))
        assert s == (0, 2, 0)
        assert sum(1 for x in s if x == 0) == 2 > 3 / 2

    @pytest.mark.parametrize("k", range(1, 17))
    def test_invariants_small(self, k):
        cf = hadamard_code_vectors(k)
        assert cf.d == 2 ** max(1, (k - 1).bit_length()) - 1
        assert len(cf.vectors) == k
        sums = {}
        for i in range(k):
            for j in range(i, k):
                s = tuple(a + b for a, b in zip(cf.vectors[i], cf.vectors[j]))
                assert s not in sums
                sums[s] = (i, j)
                if i != j:
                    assert 2 * sum(1 for x in s if x == 0) > cf.d

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 8, 9, 16, 17, 64, 128])
    def test_theorem_check_and_pair_oracle_agree(self, k):
        # the build checks that each vector is its Walsh character; the
        # exhaustive pair check confirms the invariants the theorem gives
        cf = hadamard_code_vectors(k)
        codes._verify_hadamard_family(cf.vectors, cf.d)
        assert hadamard_pairs_ok(cf.vectors)

    def test_repeated_row_is_internal(self, monkeypatch):
        walsh = codes.walsh_rows
        monkeypatch.setattr(codes, "walsh_rows", lambda j: (walsh(j)[0],) + walsh(j)[:-1])
        assert not hadamard_pairs_ok(tuple(r[1:] for r in codes.walsh_rows(2)))
        with pytest.raises(InternalVerificationFailure, match="vector 1"):
            hadamard_code_vectors(4)


class TestStarFamily:
    def test_k5_definition(self):
        cf = star_code_vectors(5)
        assert cf.d == 5
        assert cf.vectors[0] == (-1, 1, 1, 1, 1)
        assert not cf.warnings

    def test_k5_difference_support(self):
        cf = star_code_vectors(5)
        d12 = tuple(a - b for a, b in zip(cf.vectors[0], cf.vectors[1]))
        assert d12 == (-2, 2, 0, 0, 0)
        assert [i for i, x in enumerate(d12) if x] == [0, 1]

    def test_k5_sum_majority_nonzero(self):
        cf = star_code_vectors(5)
        s12 = tuple(a + b for a, b in zip(cf.vectors[0], cf.vectors[1]))
        assert s12 == (0, 0, 2, 2, 2)
        assert sum(1 for x in s12 if x) == 3 > 5 / 2

    def test_small_k_flagged(self):
        assert star_code_vectors(3).warnings
        assert not star_code_vectors(6).warnings


class TestReducedVandermonde:
    def test_d3(self):
        rv = reduced_vandermonde(3)
        assert rv.prime == 5
        assert rv.rows == ((1, 1), (1, 2), (1, 3))
        dets = {
            int_det([rv.rows[i], rv.rows[j]]) for i, j in combinations(range(3), 2)
        }
        assert dets == {1, 2}

    def test_d5(self):
        rv = reduced_vandermonde(5)
        assert rv.prime == 7
        assert rv.rows == ((1, 1, 1), (1, 2, 4), (1, 3, 2), (1, 4, 2), (1, 5, 4))

    def test_d1_degenerate(self):
        rv = reduced_vandermonde(1)
        assert rv.prime == 2
        assert rv.rows == ((1,),)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_all_submatrices_invertible(self, d):
        rv = reduced_vandermonde(d)
        m = rv.m
        assert d < rv.prime <= 2 * d
        assert all(1 <= x <= rv.prime for r in rv.rows for x in r)
        for pick in combinations(range(d), m):
            assert int_det([rv.rows[r] for r in pick]) != 0

    def test_rejects_bad_d(self):
        with pytest.raises(ParameterError):
            reduced_vandermonde(0)

    @pytest.mark.parametrize("d", [17, 31, 63])
    def test_sampled_minors_invertible_above_exhaustive_limit(self, d):
        # above the limit the build checks the theorem's hypotheses only;
        # a seeded sample of its minors must still be invertible
        rv = reduced_vandermonde(d)
        assert math.comb(d, rv.m) > SUBMATRIX_VERIFY_LIMIT
        assert all(int_det(minor) != 0 for minor in sampled_minors(rv.rows))

    @pytest.mark.parametrize("d", [3, 63])
    def test_broken_hypothesis_is_internal(self, d, monkeypatch):
        # every row built from node 2: repeated nodes, and rows that are
        # not the powers of their own nodes
        monkeypatch.setattr(codes, "pow", lambda r, c, p: pow(2, c, p), raising=False)
        with pytest.raises(InternalVerificationFailure, match="row 1 entry 1 is 2"):
            reduced_vandermonde(d)


class TestIntDet:
    def test_known_values(self):
        assert int_det([[1, 2], [3, 4]]) == -2
        assert int_det([[2, 0, 0], [0, 3, 0], [0, 0, 4]]) == 24
        assert int_det([[1, 1], [1, 1]]) == 0

    def test_pivot_swap(self):
        assert int_det([[0, 1], [1, 0]]) == -1

    def test_vandermonde_formula(self):
        nodes = [2, 3, 5, 7]
        rows = [[x**c for c in range(4)] for x in nodes]
        expected = math.prod(
            nodes[j] - nodes[i] for i in range(4) for j in range(i + 1, 4)
        )
        assert int_det(rows) == expected
