"""Sign-vector code families and the reduced Vandermonde lattice matrix.

Two kinds of {+1, -1} vector families parameterize the set constructions:

* ``hadamard``: the first k rows of a Sylvester-Walsh matrix with the
  all-ones first column removed. Pairwise sums v_i + v_j are distinct and
  each off-diagonal sum is zero in more than half its coordinates, because
  row i is the character x -> (-1)^popcount(i & x); the construction
  re-checks that hypothesis on the vectors it built.
* ``star``: v_j has a single -1 in coordinate j. Differences v_i - v_j are
  nonzero exactly in coordinates {i, j}.

The reduced Vandermonde matrix supplies the lattice behind the families:
row r holds the powers r^0, ..., r^(m-1) of its node r reduced modulo a
prime p with d < p <= 2d, m = ceil(d/2). Any m rows form a Vandermonde
matrix whose determinant is the product of the node differences, nonzero
mod p because the nodes 1..d are distinct and nonzero mod p; so every
selection of m rows is invertible over the integers. The construction
re-checks these hypotheses on the rows it built. All verification here
is exact integer arithmetic; no floats.
"""

from __future__ import annotations

import math
from itertools import combinations
from typing import NamedTuple

from .errors import InternalVerificationFailure, ParameterError

SUBMATRIX_VERIFY_LIMIT = 20000


def walsh_rows(j: int) -> tuple[tuple[int, ...], ...]:
    """The 2^j x 2^j Sylvester matrix: H_1 = [1], H_2n = [[H, H], [H, -H]].

    Rows are pairwise orthogonal and the first column is all ones. The
    row order is pinned by the recursion so downstream families are
    reproducible.
    """
    if j < 1:
        raise ParameterError("walsh_rows requires j >= 1")
    rows: list[tuple[int, ...]] = [(1,)]
    for _ in range(j):
        rows = [r + r for r in rows] + [r + tuple(-x for x in r) for r in rows]
    return tuple(rows)


class CodeFamily(NamedTuple):
    """A family of k sign vectors of common length d."""

    kind: str  # "hadamard" | "star"
    d: int
    vectors: tuple[tuple[int, ...], ...]
    warnings: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "d": self.d,
            "vectors": [list(v) for v in self.vectors],
            "warnings": list(self.warnings),
        }


def _verify_hadamard_family(vectors, d):
    """Check, in O(k*d), that vector i is the character
    x -> (-1)^popcount(i & x) on the coordinates x = 1..d, for k <= d + 1
    distinct characters."""
    if len(vectors) > d + 1:
        raise InternalVerificationFailure(f"{len(vectors)} vectors but {d + 1} characters")
    for i, v in enumerate(vectors):
        want = tuple(1 - 2 * ((i & x).bit_count() & 1) for x in range(1, d + 1))
        if v != want:
            raise InternalVerificationFailure(f"vector {i} is not the Walsh character of {i}")


def hadamard_length(k: int) -> int:
    """The length d = 2^j - 1 of k hadamard code vectors, for the smallest
    j >= 1 with 2^j >= k."""
    return (1 << max(1, (k - 1).bit_length())) - 1


def hadamard_code_vectors(k: int) -> CodeFamily:
    """k sign vectors of length d = 2^j - 1 with distinct pairwise sums.

    The vectors are the first k Sylvester-Walsh rows with the leading +1
    column dropped, for the smallest j >= 1 with 2^j >= k. Row i of the
    recursion is the character x -> (-1)^popcount(i & x) on x in 0..d, and
    that hypothesis is re-checked on the built vectors at O(k*d) cost. It
    gives both invariants:

    * two distinct rows i, j differ where popcount((i ^ j) & x) is odd,
      which is exactly half of the 2^j points x and never x = 0, so on
      the coordinates 1..d they differ in 2^(j-1) = (d+1)/2 places; there
      v_i + v_j is zero, so every off-diagonal sum is more than half
      zeros, while a diagonal sum 2v_i has none;
    * the zero set of v_i + v_j is where the character of i ^ j is -1,
      which fixes i ^ j; on the rest, the kernel of that character, the
      sum is 2v_i, and a character's values on that kernel fix it up to
      adding i ^ j, that is up to swapping i and j. So the pair {i, j} is
      fixed by its sum, and the pairwise sums are distinct.
    """
    if k < 1:
        raise ParameterError("hadamard_code_vectors requires k >= 1")
    d = hadamard_length(k)
    rows = walsh_rows(d.bit_length())
    vectors = tuple(r[1:] for r in rows[:k])
    _verify_hadamard_family(vectors, d)
    return CodeFamily(kind="hadamard", d=d, vectors=vectors)


def star_code_vectors(k: int) -> CodeFamily:
    """k sign vectors of length d = k; v_j is -1 at coordinate j, +1 elsewhere.

    For k < 5 the family still exists but pairwise sums no longer vanish in
    more than half the coordinates, which voids the two-representation sum
    bound downstream; a warning flag records this.
    """
    if k < 1:
        raise ParameterError("star_code_vectors requires k >= 1")
    vectors = tuple(
        tuple(-1 if c == j else 1 for c in range(k)) for j in range(k)
    )
    warnings = ()
    if k < 5:
        warnings = (
            f"star family with k={k} < 5: off-diagonal vector sums are not "
            "majority-zero, so the union-level sum bound does not apply",
        )
    return CodeFamily(kind="star", d=k, vectors=vectors, warnings=warnings)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def int_det(rows) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    n = len(m)
    if any(len(r) != n for r in m):
        raise ParameterError("int_det needs a square matrix")
    sign = 1
    prev = 1
    for c in range(n - 1):
        if m[c][c] == 0:
            for r in range(c + 1, n):
                if m[r][c] != 0:
                    m[c], m[r] = m[r], m[c]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[c][c]
        for r in range(c + 1, n):
            for cc in range(c + 1, n):
                m[r][cc] = (m[r][cc] * pivot - m[r][c] * m[c][cc]) // prev
            m[r][c] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


class ReducedVandermonde(NamedTuple):
    """d rows of m = ceil(d/2) entries in 1..prime-1: row r is
    (r^0, r^1, ..., r^(m-1)) mod prime."""

    rows: tuple[tuple[int, ...], ...]
    prime: int

    @property
    def d(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.rows[0])

    def to_dict(self) -> dict:
        return {"prime": self.prime, "rows": [list(r) for r in self.rows]}


def reduced_vandermonde(d: int) -> ReducedVandermonde:
    """The d x ceil(d/2) Vandermonde matrix on the nodes 1..d, reduced
    modulo the smallest prime p in (d, 2d].

    Every m-row submatrix is invertible: it is a Vandermonde matrix whose
    determinant, the product of its node differences, is nonzero mod p
    because the nodes are distinct and nonzero mod p. The hypotheses of
    that argument (p prime, m <= d < p, distinct nonzero nodes, each row
    the geometric sequence of its node) are re-checked on the built rows
    at O(d*m) cost; when C(d, m) is small every determinant is also
    checked exactly.
    """
    if d < 1:
        raise ParameterError("reduced_vandermonde requires d >= 1")
    prime = next((p for p in range(d + 1, 2 * d + 1) if _is_prime(p)), 0)
    m = (d + 1) // 2
    if not (_is_prime(prime) and m <= d < prime):
        raise InternalVerificationFailure(f"no prime modulus above d={d} >= m={m}")
    rows = tuple(
        tuple(pow(r, c, prime) for c in range(m)) for r in range(1, d + 1)
    )
    nodes = [r % prime for r in range(1, d + 1)]
    if 0 in nodes or len(set(nodes)) != d:
        raise InternalVerificationFailure(f"nodes 1..{d} collide mod {prime}")
    for node, row in zip(nodes, rows):
        power = 1
        for c, entry in enumerate(row):
            if entry != power:
                raise InternalVerificationFailure(
                    f"row {node} entry {c} is {entry}, not {node}^{c} mod {prime}"
                )
            power = power * node % prime
    if math.comb(d, m) <= SUBMATRIX_VERIFY_LIMIT:
        for pick in combinations(range(d), m):
            if int_det([rows[r] for r in pick]) == 0:
                raise InternalVerificationFailure(f"rows {pick} are singular")
    return ReducedVandermonde(rows=rows, prime=prime)
