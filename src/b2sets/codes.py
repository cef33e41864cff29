"""Sign-vector code families and the reduced Vandermonde lattice matrix.

Two kinds of {+1, -1} vector families parameterize the set constructions:

* ``hadamard``: the first k rows of a Sylvester-Walsh matrix with the
  all-ones first column removed. Pairwise sums v_i + v_j are distinct and
  each off-diagonal sum is zero in more than half its coordinates.
* ``star``: v_j has a single -1 in coordinate j. Differences v_i - v_j are
  nonzero exactly in coordinates {i, j}.

The reduced Vandermonde matrix supplies the lattice behind the families:
its entries are powers of 1..d reduced modulo a prime p with d < p <= 2d,
so every selection of ceil(d/2) rows stays invertible over the integers.
All verification here is exact integer arithmetic; no floats.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import combinations

from .errors import InternalVerificationFailure, ParameterError

SUBMATRIX_VERIFY_LIMIT = 20000
SUBMATRIX_SAMPLE = 200


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


@dataclass(frozen=True)
class CodeFamily:
    """A family of k sign vectors of common length d."""

    kind: str  # "hadamard" | "star"
    d: int
    vectors: tuple[tuple[int, ...], ...]
    warnings: tuple[str, ...] = ()

    @property
    def k(self) -> int:
        return len(self.vectors)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "d": self.d,
            "vectors": [list(v) for v in self.vectors],
            "warnings": list(self.warnings),
        }


def _verify_hadamard_family(vectors, d):
    seen: dict[tuple[int, ...], tuple[int, int]] = {}
    k = len(vectors)
    for i in range(k):
        for j in range(i, k):
            s = tuple(vectors[i][c] + vectors[j][c] for c in range(d))
            if s in seen:
                raise InternalVerificationFailure(
                    f"pairwise sums collide: {seen[s]} and {(i, j)}"
                )
            seen[s] = (i, j)
            if i != j:
                zeros = sum(1 for x in s if x == 0)
                if 2 * zeros <= d:
                    raise InternalVerificationFailure(
                        f"sum of vectors {i},{j} has only {zeros} zeros in length {d}"
                    )


def hadamard_code_vectors(k: int) -> CodeFamily:
    """k sign vectors of length d = 2^j - 1 with distinct pairwise sums.

    The vectors are the first k Sylvester-Walsh rows with the leading +1
    column dropped, for the smallest j >= 1 with 2^j >= k. The invariants
    (distinct pairwise sums, off-diagonal sums more than half zero) are
    re-checked exhaustively before returning.
    """
    if k < 1:
        raise ParameterError("hadamard_code_vectors requires k >= 1")
    j = max(1, (k - 1).bit_length())
    rows = walsh_rows(j)
    d = (1 << j) - 1
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


@dataclass(frozen=True)
class ReducedVandermonde:
    """d rows of m = ceil(d/2) positive entries, reduced modulo ``prime``.

    Row r is (r^0, r^1, ..., r^(m-1)) mod prime with residue 0 mapped to
    prime itself, which keeps entries positive without disturbing
    invertibility: a determinant nonzero mod p is nonzero over the
    integers.
    """

    rows: tuple[tuple[int, ...], ...]
    prime: int
    verified: str = field(default="exhaustive", compare=False)

    @property
    def d(self) -> int:
        return len(self.rows)

    @property
    def m(self) -> int:
        return len(self.rows[0])

    def to_dict(self) -> dict:
        return {"prime": self.prime, "rows": [list(r) for r in self.rows]}


def reduced_vandermonde(d: int) -> ReducedVandermonde:
    """The d x ceil(d/2) Vandermonde matrix reduced modulo the smallest
    prime in (d, 2d].

    Every m-row submatrix is invertible: the nodes 1..d stay distinct and
    nonzero modulo p, so each such submatrix is a Vandermonde matrix with
    nonzero determinant mod p. The determinants are re-checked exactly,
    exhaustively when C(d, m) is small and on a seeded sample otherwise.
    """
    if d < 1:
        raise ParameterError("reduced_vandermonde requires d >= 1")
    prime = 0
    for p in range(d + 1, 2 * d + 1):
        if _is_prime(p):
            prime = p
            break
    if not prime:
        raise InternalVerificationFailure(f"no prime in ({d}, {2 * d}]")
    m = (d + 1) // 2
    rows = tuple(
        tuple((pow(r, c, prime) or prime) for c in range(m))
        for r in range(1, d + 1)
    )
    total = math.comb(d, m)
    if total <= SUBMATRIX_VERIFY_LIMIT:
        picks = combinations(range(d), m)
        verified = "exhaustive"
    else:
        rng = random.Random(0xB25)
        picks = (
            tuple(sorted(rng.sample(range(d), m)))
            for _ in range(SUBMATRIX_SAMPLE)
        )
        verified = f"sampled({SUBMATRIX_SAMPLE} of {total})"
    for pick in picks:
        det = int_det([rows[r] for r in pick])
        if det == 0:
            raise InternalVerificationFailure(f"rows {pick} are singular")
    return ReducedVandermonde(rows=rows, prime=prime, verified=verified)
