"""Independent counts the benchmark checks b2sets results against.

Nothing here imports b2sets or shares its algorithms: counts come from
C-level iterators over every ordered or unordered pair, big values are
compared through residues modulo two large primes, and minimum
decompositions are decided by subset transforms over all 2^n subsets
instead of backtracking.

Run as a script, it answers one JSON request on stdin:

    {"small_sets": [[int, ...], ...], "min_union": [[[int, ...], g, kind], ...]}

with the per-set pair counts and minimum union sizes. The benchmark runs
it in its own process: every child inherits its parent's peak RSS as the
starting value of its own, so the harness keeps its memory small.
"""

from __future__ import annotations

import json
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from functools import reduce
from itertools import combinations, combinations_with_replacement, permutations, product, starmap
from operator import add, or_, sub

import numpy as np

# Residue maps keep big-integer pair counts in int64 arrays. Each count is
# taken under both primes and must agree: a false merge would need the same
# pair of distinct values to collide under both.
PRIMES = (2**61 - 1, 2**59 - 55)
PLANE_MIX = 1_000_003**3  # (x, y) -> x + PLANE_MIX*y, linear, so sums map to sums
MAX_UNION_BITS = 20


# -- family files --------------------------------------------------------------


def family_parts(path) -> list[list[int]]:
    """Part-by-part element values of a W/Wcirc/meyer family file."""
    return _parts_of(json.loads(open(path).read()))


def family_points(path) -> list[list[tuple]]:
    """Part-by-part (coords, value) of a W/Wcirc family file."""
    data = json.loads(open(path).read())
    return [
        [(tuple(e["coords"]), int(e["decimal"])) for e in p["elements"]]
        for p in data["parts"]
    ]


def product_values(path) -> list[tuple[int, int]]:
    """Union of a product family file, in the file's element order."""
    data = json.loads(open(path).read())
    left = [v for part in _parts_of(data["factors"]["left"]) for v in part]
    right = [v for part in _parts_of(data["factors"]["right"]) for v in part]
    return [(left[li], right[ri]) for p in data["parts"] for li, ri in p["pairs"]]


def _parts_of(data) -> list[list[int]]:
    return [[int(e["decimal"]) for e in p["elements"]] for p in data["parts"]]


# -- pair counts of small integer sets -----------------------------------------


def ordered_energy(values, op) -> int:
    """Number of ordered quadruples with a op b = c op d."""
    counts = Counter(starmap(op, product(values, repeat=2)))
    return sum(c * c for c in counts.values())


def max_sum_reps(values) -> int:
    """Largest number of unordered pairs {a, b} (a = b allowed) sharing a sum."""
    return max(Counter(starmap(add, combinations_with_replacement(values, 2))).values(), default=0)


def max_diff_reps(values) -> int:
    """Largest number of ordered pairs (a, b), a != b, sharing a difference."""
    return max(Counter(starmap(sub, permutations(values, 2))).values(), default=0)


# -- pair counts of big values, through residues --------------------------------


def _residues(values, prime) -> np.ndarray:
    def res(v):
        if isinstance(v, tuple):
            return (v[0] + PLANE_MIX * v[1]) % prime
        return v % prime

    return np.array([res(v) for v in values], dtype=np.int64)


def _value_counts(values, prime, kind) -> np.ndarray:
    """Multiplicities of the pair values of ``kind``: "sum" (unordered, a = b
    once), "diff" (ordered, a != b), "osum"/"odiff" (all ordered pairs)."""
    r = _residues(values, prime)
    n = len(r)
    blocks = []
    for i in range(n):
        if kind in ("sum", "osum"):
            rest = r[i:] if kind == "sum" else r
            blocks.append((r[i] + rest) % prime)
        else:
            rest = r if kind == "odiff" else np.delete(r, i)
            blocks.append((r[i] - rest) % prime)
    _, counts = np.unique(np.concatenate(blocks), return_counts=True)
    return counts


def pair_stats(values, kind) -> dict:
    """max multiplicity, number of values hit at least twice, and the sum of
    squared multiplicities, agreeing under every prime."""
    stats = []
    for prime in PRIMES:
        c = _value_counts(values, prime, kind)
        stats.append(
            {
                "max": int(c.max()),
                "repeated": int((c >= 2).sum()),
                "square_sum": int((c * c).sum()),
                "distinct": len(c),
            }
        )
    if stats[0] != stats[1]:
        raise ValueError(f"residue counts disagree across primes: {stats}")
    return stats[0]


def collision_value_count(path, kind) -> int:
    """Distinct same-tuple cross-part sums (or differences) in a W/Wcirc file."""
    parts = family_points(path)
    by_tuple = defaultdict(list)
    for part in parts:
        for coords, value in part:
            by_tuple[coords].append(value)
    op = add if kind == "sum" else sub
    values = set()
    for members in by_tuple.values():
        for a, b in combinations(members, 2):
            values.add(op(a, b))
    return len(values)


def parts_sumsets_disjoint(parts: list[list[int]]) -> bool:
    seen: dict = {}
    for i, j in combinations_with_replacement(range(len(parts)), 2):
        pairs = (
            combinations_with_replacement(parts[i], 2) if i == j else product(parts[i], parts[j])
        )
        for v in set(starmap(add, pairs)):
            if seen.setdefault(v, (i, j)) != (i, j):
                return False
    return True


# -- subset doubling -------------------------------------------------------------


def doubling_ratios(values, subsets) -> tuple[int, Fraction, Fraction]:
    """(count, min |S+S|/|S|^2, min |S-S|/|S|^2) over the index subsets."""
    n = len(values)
    sum_id = {}
    diff_id = {}
    sums = [[sum_id.setdefault(values[i] + values[j], len(sum_id)) for j in range(n)] for i in range(n)]
    diffs = [[diff_id.setdefault(values[i] - values[j], len(diff_id)) for j in range(n)] for i in range(n)]
    count = 0
    best_sum = best_diff = None
    for idx in subsets:
        count += 1
        s = len(idx)
        ss = {sums[a][b] for a in idx for b in idx}
        dd = {diffs[a][b] for a in idx for b in idx}
        rs = Fraction(len(ss), s * s)
        rd = Fraction(len(dd), s * s)
        best_sum = rs if best_sum is None else min(best_sum, rs)
        best_diff = rd if best_diff is None else min(best_diff, rd)
    return count, best_sum, best_diff


def all_subsets(n: int, min_size: int):
    for size in range(min_size, n + 1):
        yield from combinations(range(n), size)


# -- minimum bounded-repetition decompositions ----------------------------------


def _transform(f: np.ndarray, n: int, sign: int) -> None:
    """In-place subset-sum (sign=+1) or Moebius (sign=-1) transform."""
    for i in range(n):
        v = f.reshape(-1, 2, 1 << i)
        if sign > 0:
            v[:, 1] += v[:, 0]
        else:
            v[:, 1] -= v[:, 0]


def min_union(values, g: int, kind: str, max_parts: int = 6) -> int | None:
    """Least t such that ``values`` splits into t parts each repeating no
    sum (kind="sum") or nonzero difference (kind="diff") more than g times.

    A part is valid iff it contains no g+1 distinct representations of one
    value; valid subsets are marked over all 2^n masks, and t-part covers
    come from powers of the subset-sum transform. Returns None above
    ``max_parts``.
    """
    n = len(values)
    if n > MAX_UNION_BITS:
        raise ValueError(f"min_union handles at most {MAX_UNION_BITS} elements")
    reps = defaultdict(list)
    pairs = combinations_with_replacement(range(n), 2) if kind == "sum" else permutations(range(n), 2)
    for i, j in pairs:
        v = values[i] + values[j] if kind == "sum" else values[i] - values[j]
        if kind == "sum" or v > 0:
            reps[v].append((1 << i) | (1 << j))
    bad = np.zeros(1 << n, dtype=np.int64)
    for masks in reps.values():
        for combo in combinations(masks, g + 1):
            bad[reduce(or_, combo)] = 1
    _transform(bad, n, +1)  # a superset of a bad set is bad
    valid = bad == 0
    zeta = valid.astype(np.int64)
    _transform(zeta, n, +1)
    covers = {1: valid}
    for t in (2, 3):  # exact counts: at most 2^(n*t) <= 2^60 covers of a mask
        c = zeta**t
        _transform(c, n, -1)
        covers[t] = c > 0
    splits = {1: (1, 0), 2: (1, 1), 3: (1, 2), 4: (2, 2), 5: (2, 3), 6: (3, 3)}
    for t in range(1, max_parts + 1):
        a, b = splits[t]
        if b == 0:
            ok = bool(covers[1][-1])
        else:
            ok = bool(np.any(covers[a] & covers[b][::-1]))
        if ok:
            return t
    return None


def pair_counts(values) -> dict:
    return {
        "energy": ordered_energy(values, add),
        "energy_diff": ordered_energy(values, sub),
        "max_sum": max_sum_reps(values),
        "max_diff": max_diff_reps(values),
    }


def main() -> None:
    request = json.load(sys.stdin)
    json.dump(
        {
            "small_sets": [pair_counts(v) for v in request.get("small_sets", [])],
            "min_union": [min_union(v, g, kind) for v, g, kind in request.get("min_union", [])],
        },
        sys.stdout,
    )


if __name__ == "__main__":
    main()
