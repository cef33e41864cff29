"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's counting machinery: plain dict
tallies over explicit pair loops, literal quadruple scans, and exhaustive
partition enumeration. Slow but obviously correct. The dict-based
minimum-union search, the census matchers, the product certificates and
the sampled audit's exact per-draw count are previous implementations,
kept as step-by-step references.
"""

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from b2sets.analyze import _family_mode, _pair_values, canonical_keys
from b2sets.construct import SetFamily
from b2sets.decompose import (
    Decomposition,
    SearchResult,
    _pigeonhole_groups,
    _product_factors,
    pair_collision_values,
)
from b2sets.errors import ParameterError


def vadd(a, b):
    if isinstance(a, tuple):
        return tuple(x + y for x, y in zip(a, b))
    return a + b


def vsub(a, b):
    if isinstance(a, tuple):
        return tuple(x - y for x, y in zip(a, b))
    return a - b


def sum_counts_unordered(values):
    """value -> number of unordered pairs {a, b} (a = b allowed, once)."""
    out = {}
    vs = list(values)
    for i in range(len(vs)):
        for j in range(i, len(vs)):
            s = vadd(vs[i], vs[j])
            out[s] = out.get(s, 0) + 1
    return out


def diff_counts_ordered(values):
    """nonzero value -> number of ordered pairs (a, b), a != b."""
    out = {}
    vs = list(values)
    for i in range(len(vs)):
        for j in range(len(vs)):
            if i == j:
                continue
            d = vsub(vs[i], vs[j])
            out[d] = out.get(d, 0) + 1
    return out


def hadamard_pairs_ok(vectors):
    """Exhaustive pair check of a sign-vector family: the pairwise sums
    v_i + v_j, i <= j, are distinct, and each off-diagonal sum is zero in
    more than half its coordinates. O(k^2 * d)."""
    seen = set()
    for i, a in enumerate(vectors):
        for b in vectors[i:]:
            s = tuple(x + y for x, y in zip(a, b))
            if s in seen or (a is not b and 2 * s.count(0) <= len(s)):
                return False
            seen.add(s)
    return True


def brute_is_b2(values, g):
    counts = sum_counts_unordered(values)
    return all(c <= g for c in counts.values())


def brute_is_b2_circ(values, g):
    counts = diff_counts_ordered(values)
    return all(c <= g for c in counts.values())


def brute_energy_plus(values):
    """Ordered-pair convention: sum of squared ordered sum counts."""
    out = {}
    vs = list(values)
    for a in vs:
        for b in vs:
            s = vadd(a, b)
            out[s] = out.get(s, 0) + 1
    return sum(c * c for c in out.values())


def brute_energy_minus(values):
    out = {}
    vs = list(values)
    for a in vs:
        for b in vs:
            d = vsub(a, b)
            out[d] = out.get(d, 0) + 1
    return sum(c * c for c in out.values())


def brute_energy_quadruples(values):
    """Literal quadruple count of a+b = c+d; for tiny sets only."""
    vs = list(values)
    count = 0
    for a in vs:
        for b in vs:
            for c in vs:
                for d in vs:
                    if vadd(a, b) == vadd(c, d):
                        count += 1
    return count


def sumset(values):
    return {vadd(a, b) for a in values for b in values}


def diffset(values):
    return {vsub(a, b) for a in values for b in values}


def brute_audit(elements, mode, min_size, trials=0, seed=0, max_size=None):
    """The subset doubling audit by its definition, as a dict of the
    AuditResult fields it determines.

    ``exhaustive`` scores every index subset of size >= min_size in
    increasing mask order (bit i for element i); ``sample`` replays the
    seeded draws: a uniform size in [min_size, max_size], then a uniform
    subset. Each subset is scored with explicit sumsets and difference
    sets and exact Fractions, and only a strictly smaller ratio replaces
    the minimum, so the first minimum wins.
    """
    values = [tuple(map(int, x)) if isinstance(x, tuple) else int(x) for x in elements]
    n = len(values)
    if mode == "exhaustive":
        masks = (m for m in range(1, 1 << n) if bin(m).count("1") >= min_size)
        subsets = ([i for i in range(n) if m >> i & 1] for m in masks)
    else:
        rng = random.Random(seed)
        hi = min(n if max_size is None else max_size, n)
        subsets = (
            sorted(rng.sample(range(n), rng.randint(min_size, hi))) for _ in range(trials)
        )
    examined = 0
    best = {}
    for idx in subsets:
        examined += 1
        sub = [values[i] for i in idx]
        for name, image in (("sum", sumset(sub)), ("diff", diffset(sub))):
            ratio = Fraction(len(image), len(sub) ** 2)
            if name not in best or ratio < best[name][0]:
                best[name] = (ratio, idx)
    return {
        "subsets_examined": examined,
        "min_sum_ratio": best["sum"][0],
        "min_diff_ratio": best["diff"][0],
        "argmin_sum": [elements[i] for i in best["sum"][1]],
        "argmin_diff": [elements[i] for i in best["diff"][1]],
    }


def exact_sampled_audit(elements, min_size, max_size, trials, seed):
    """The sampled audit with an exact count of every draw, as a dict of
    the AuditResult fields it determines: each draw's int keys are sorted
    and their sums and positive differences counted in a set, and only a
    strictly smaller Fraction replaces the minimum."""
    keys, _ = canonical_keys(elements)
    n = len(keys)
    best_sum = best_diff = None
    argmin_sum = argmin_diff = ()
    rng = random.Random(seed)
    for _ in range(trials):
        s = rng.randint(min_size, min(max_size, n))
        indices = sorted(rng.sample(range(n), s))
        desc = sorted((keys[i] for i in indices), reverse=True)
        rs = Fraction(len(set(_pair_values(desc, "sum"))), s * s)
        rd = Fraction(1 + 2 * len(set(_pair_values(desc, "diff"))), s * s)
        if best_sum is None or rs < best_sum:
            best_sum, argmin_sum = rs, indices
        if best_diff is None or rd < best_diff:
            best_diff, argmin_diff = rd, indices
    return {
        "subsets_examined": trials,
        "min_sum_ratio": best_sum,
        "min_diff_ratio": best_diff,
        "argmin_sum": [elements[i] for i in argmin_sum],
        "argmin_diff": [elements[i] for i in argmin_diff],
    }


def brute_disjointness(part_values):
    """Pairwise part sumset disjointness by an owner dict, as the tuple
    (passed, pair_count, witness_value, witness_pairs) of a
    DisjointnessReport.

    The sumset of every index pair (i, j), i <= j (1-based), is built
    explicitly in lexicographic pair order; each value remembers the
    first pair that produced it, and a later pair producing it is a
    collision. The witness is the least colliding value (planar points
    compare lexicographically) with its first two pairs.
    """
    parts = [
        [tuple(map(int, x)) if isinstance(x, tuple) else int(x) for x in part]
        for part in part_values
    ]
    k = len(parts)
    owner = {}
    collisions = []
    for i in range(k):
        for j in range(i, k):
            pair = (i + 1, j + 1)
            for v in {vadd(a, b) for a in parts[i] for b in parts[j]}:
                prev = owner.setdefault(v, pair)
                if prev != pair:
                    collisions.append((v, prev, pair))
    if not collisions:
        return True, k * (k + 1) // 2, None, None
    value, first, second = min(collisions)
    return False, k * (k + 1) // 2, value, (first, second)


def partitions_into_at_most(items, t):
    """All set partitions of items into at most t nonempty parts, as lists
    of lists (restricted growth strings)."""
    n = len(items)

    def rec(idx, parts):
        if idx == n:
            yield [list(p) for p in parts]
            return
        for p in parts:
            p.append(items[idx])
            yield from rec(idx + 1, parts)
            p.pop()
        if len(parts) < t:
            parts.append([items[idx]])
            yield from rec(idx + 1, parts)
            parts.pop()

    yield from rec(0, [])


def brute_min_union(values, g, kind, max_parts):
    """Smallest t <= max_parts admitting a partition into parts that all
    satisfy the bound, by exhaustive enumeration; None if impossible."""
    check = brute_is_b2 if kind == "sum" else brute_is_b2_circ
    items = list(values)
    for t in range(1, max_parts + 1):
        for parts in partitions_into_at_most(items, t):
            if all(check(p, g) for p in parts):
                return t
    return None


def brute_relations_preserved(domain, image):
    """Literal scan over every quadruple, both sum and difference, both
    directions. Domain entries are tuples of ints; image entries ints."""
    n = len(domain)
    idx = range(n)
    for a in idx:
        for b in idx:
            for c in idx:
                for d in idx:
                    dom_sum = vadd(domain[a], domain[b]) == vadd(domain[c], domain[d])
                    img_sum = image[a] + image[b] == image[c] + image[d]
                    if dom_sum != img_sum:
                        return False
                    dom_diff = vsub(domain[a], domain[b]) == vsub(domain[c], domain[d])
                    img_diff = image[a] - image[b] == image[c] - image[d]
                    if dom_diff != img_diff:
                        return False
    return True


def pair_partitions_agree(domain, image):
    """O(n^2) check that a map preserves every sum and difference
    relation in both directions. Over unordered pairs for sums and over
    ordered pairs of distinct points for differences, the pairs are
    grouped by their domain value D and by their image value I; the two
    groupings coincide iff |{D}| = |{I}| = |{(D, I)}|. Domain entries are
    tuples of ints; image entries ints."""
    n = len(domain)
    sums = [
        (vadd(domain[i], domain[j]), image[i] + image[j]) for i in range(n) for j in range(i, n)
    ]
    diffs = [
        (vsub(domain[i], domain[j]), image[i] - image[j])
        for i in range(n)
        for j in range(n)
        if i != j
    ]
    return all(
        len({d for d, _ in pairs}) == len({v for _, v in pairs}) == len(set(pairs))
        for pairs in (sums, diffs)
    )


def greedy_sidon(rng, pool_size, target):
    """A random Sidon set: scan a shuffled range, keeping elements that
    preserve distinct pairwise sums."""
    pool = list(range(pool_size))
    rng.shuffle(pool)
    chosen = []
    sums = set()
    for x in pool:
        new_sums = {x + y for y in chosen}
        new_sums.add(2 * x)
        if sums.isdisjoint(new_sums):
            chosen.append(x)
            sums |= new_sums
        if len(chosen) == target:
            break
    return chosen


def collision_values_by_formula(family):
    """For a W or Wcirc family, (i, j) -> the set of values
    sum_c (v_i +- v_j)[c] * 5^(coords[c]*d + c+1) over the lattice tuples,
    + for W and - for Wcirc, from the code vectors alone."""
    sign = 1 if family.kind == "W" else -1
    vectors = family.code.vectors
    d = family.code.d
    out = {}
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            combined = [vectors[i][c] + sign * vectors[j][c] for c in range(d)]
            out[(i + 1, j + 1)] = {
                sum(combined[c] * 5 ** (el.point.coords[c] * d + c + 1) for c in range(d))
                for el in family.parts[0].elements
            }
    return out


def decode_element(family, value):
    """Recover (coords, vector_index) from a W / Wcirc element value.

    The value has exactly d digits, one per coordinate class modulo d; the
    exponent i*d + c determines the index i and the digit sign recovers
    the code vector. Raises if the value is not decodable.
    """
    if family.kind not in ("W", "Wcirc"):
        raise ParameterError("decode_element needs a W or Wcirc family")
    d = family.params["d"]
    if len(value.digits) != d:
        raise ValueError(f"value has {len(value.digits)} digits, expected {d}")
    coords = [0] * d
    signs = [0] * d
    for e, c in value.digits:
        if abs(c) != 1:
            raise ValueError(f"digit {c} is not a sign")
        col = e % d
        col = d if col == 0 else col  # 1-based coordinate class
        coords[col - 1] = (e - col) // d
        signs[col - 1] = c
    try:
        j = family.code.vectors.index(tuple(signs)) + 1
    except ValueError:
        raise ValueError(f"sign pattern {signs} matches no code vector") from None
    if any(i < 1 for i in coords):
        raise ValueError("decoded index below 1")
    return tuple(coords), j


def sampled_minors(rows, count=200, seed=0xB25):
    """``count`` seeded square minors of a d x m matrix, each made of m
    of its d rows in order."""
    rng = random.Random(seed)
    d, m = len(rows), len(rows[0])
    return [[rows[r] for r in sorted(rng.sample(range(d), m))] for _ in range(count)]


def is_prime(n):
    """Deterministic Miller-Rabin: the first twelve prime bases decide
    every n below 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2:
        return False
    for q in bases:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
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


# -- the dict-based minimum-union search, kept as a reference ----------------
#
# The search as it stood before it counted value ids: every part keeps a
# dict of its pair values as ints. Its steps, node counts and assignments
# are the ones the library's search must reproduce.


class _PartState:
    __slots__ = ("members", "counts")

    def __init__(self):
        self.members: list = []
        self.counts: dict = {}

    def deltas(self, key, kind):
        if kind == "sum":
            return [key + m for m in self.members] + [key + key]
        return [abs(key - m) for m in self.members]

    def add(self, key, vals):
        self.members.append(key)
        for v in vals:
            self.counts[v] = self.counts.get(v, 0) + 1

    def remove(self, key, vals):
        self.members.pop()
        for v in vals:
            c = self.counts[v] - 1
            if c:
                self.counts[v] = c
            else:
                del self.counts[v]

    def fits(self, vals, g):
        counts = self.counts
        local: dict = {}
        for v in vals:
            c = counts.get(v, 0) + local.get(v, 0) + 1
            if c > g:
                return False
            local[v] = local.get(v, 0) + 1
        return True



def _search_t(keys, g, kind, t, budget) -> SearchResult:
    """Depth-first search for a t-part assignment of ``keys`` in order,
    on an explicit stack with one entry per placed element, so its depth
    is not bounded by the interpreter's recursion limit. An element tries
    the parts already opened, then one new part while fewer than t are
    open; every try is a node, and the search times out once the node
    count exceeds ``budget``."""
    n = len(keys)
    parts = [_PartState() for _ in range(t)]
    stack: list = []  # (part, pair values added, limit) of each placed element
    nodes = 0
    idx, p, limit = 0, 0, min(1, t)  # element idx tries parts p..limit-1
    while idx < n:
        if p < limit:
            nodes += 1
            if nodes > budget:
                return SearchResult("TIMEOUT", t, None, nodes)
            part = parts[p]
            vals = part.deltas(keys[idx], kind)
            if part.fits(vals, g):
                part.add(keys[idx], vals)
                stack.append((p, vals, limit))
                idx, p, limit = idx + 1, 0, min(max(limit, p + 2), t)
            else:
                p += 1
        elif stack:
            p, vals, limit = stack.pop()
            idx -= 1
            parts[p].remove(keys[idx], vals)
            p += 1
        else:
            return SearchResult("UNSAT", t, None, nodes)
    deco = Decomposition(assignment=[entry[0] for entry in stack], parts_used=t)
    return SearchResult("SAT", t, deco, nodes)


def fail_first_order(keys, kind):
    """Positions by descending number of pairs (an element with itself
    included for sums) whose value repeats in the set, ties by position,
    from plain pair loops over int keys."""
    n = len(keys)
    first = 0 if kind == "sum" else 1
    pairs = [(i, j) for i in range(n) for j in range(i + first, n)]
    values = [keys[i] + keys[j] if kind == "sum" else abs(keys[i] - keys[j]) for i, j in pairs]
    counts = {}
    for v in values:
        counts[v] = counts.get(v, 0) + 1
    degree = [0] * n
    for (i, j), v in zip(pairs, values):
        if counts[v] >= 2:
            degree[i] += 1
            degree[j] += j != i
    return sorted(range(n), key=lambda i: (-degree[i], i))


def reference_min_union(keys, g, kind, max_parts, budget):
    """t -> (status, nodes explored, assignment by input position or
    None) of the reference search over ``fail_first_order``, for t up to
    the first SAT or ``max_parts``."""
    order = fail_first_order(keys, kind)
    ordered = [keys[i] for i in order]
    out = {}
    for t in range(1, max_parts + 1):
        res = _search_t(ordered, g, kind, t, budget)
        assignment = None
        if res.decomposition is not None:
            assignment = [0] * len(keys)
            for pos, part in enumerate(res.decomposition.assignment):
                assignment[order[pos]] = part
        out[t] = (res.status, res.nodes_explored, assignment)
        if res.status == "SAT":
            break
    return out


def reference_greedy(keys, g, kind):
    """First-fit assignment in input order: the reference search's first
    descent with one part per element."""
    return _search_t(keys, g, kind, len(keys), float("inf")).decomposition.assignment


# -- the census matchers as they returned (ok, part pair), kept as a reference
#
# Each matcher writes its own pattern test; the library's census writes the
# swap rule once and returns the part pair or None, and must classify every
# collision the way these do.


def _classify_collision(reps, family, mode):
    if mode == _family_mode(family):
        ok, part_pair = _is_diagonal_pattern(reps, family.code.vectors, mode)
        if ok:
            return "PREDICTED", "diagonal", part_pair
        if family.kind == "Wcirc":
            ok, part_pair = _is_agreement_pattern(reps)
            if ok:
                return "PREDICTED", "agreement", part_pair
        return "ANOMALY", "unmatched", None
    ok, part_pair = _is_swap_pattern(reps, mode)
    if ok:
        return "PREDICTED", "swap", part_pair
    return "ANOMALY", "unmatched", None


def _is_agreement_pattern(reps):
    """Within-part differences of one tuple pair, repeated across every
    part whose own coordinate agrees between the two tuples."""
    point_pairs = set()
    parts = []
    for a, b in reps:
        if a.vector_index != b.vector_index:
            return False, None
        if a.point == b.point:
            return False, None
        j = a.vector_index
        if a.point.coords[j - 1] != b.point.coords[j - 1]:
            return False, None
        parts.append(j)
        point_pairs.add((a.point, b.point))
    if len(point_pairs) != 1 or len(set(parts)) != len(parts):
        return False, None
    return True, tuple(sorted(parts))


def _is_diagonal_pattern(reps, vectors, mode):
    first_pair = None
    supp = None
    ref_coords = None
    for a, b in reps:
        if mode == "sum" and a.vector_index > b.vector_index:
            a, b = b, a
        if a.point != b.point:
            return False, None
        pair = (a.vector_index, b.vector_index)
        if pair[0] == pair[1]:
            return False, None
        if first_pair is None:
            first_pair = pair
            vi = vectors[pair[0] - 1]
            vj = vectors[pair[1] - 1]
            combined = [
                vi[c] + vj[c] if mode == "sum" else vi[c] - vj[c]
                for c in range(len(vi))
            ]
            supp = [c for c, x in enumerate(combined) if x]
            ref_coords = a.point.coords
        elif pair != first_pair:
            return False, None
        if any(a.point.coords[c] != ref_coords[c] for c in supp):
            return False, None
    return True, first_pair


def _is_swap_pattern(reps, mode):
    if len(reps) != 2:
        return False, None
    (a1, b1), (a2, b2) = reps
    if mode == "sum":
        # {phi(y).v_i, phi(z).v_j} and {phi(z).v_i, phi(y).v_j}, y != z
        for p, q in ((a2, b2), (b2, a2)):
            if (
                a1.vector_index == p.vector_index
                and b1.vector_index == q.vector_index
                and a1.vector_index != b1.vector_index
                and a1.point == q.point
                and b1.point == p.point
                and a1.point != b1.point
            ):
                return True, tuple(sorted((a1.vector_index, b1.vector_index)))
        return False, None
    # diff, within-part: (phi(y).v_i, phi(z).v_i) and (phi(z).v_h, phi(y).v_h)
    if (
        a1.vector_index == b1.vector_index
        and a2.vector_index == b2.vector_index
        and a1.vector_index != a2.vector_index
        and a1.point == b2.point
        and b1.point == a2.point
        and a1.point != b1.point
    ):
        return True, (a1.vector_index, a2.vector_index)
    # diff, cross-part: (phi(y).v_i, phi(z).v_j) and (phi(z).v_i, phi(y).v_j)
    if (
        a1.vector_index == a2.vector_index
        and b1.vector_index == b2.vector_index
        and a1.vector_index != b1.vector_index
        and a1.point == b2.point
        and b1.point == a2.point
        and a1.point != b1.point
    ):
        return True, (a1.vector_index, b1.vector_index)
    return False, None


# -- the product certificates with a capacity loop each, kept as a reference
#
# Each certificate calls ``_line_groups`` once per branch and writes its own
# capacity rule; the library runs one density pigeonhole for both, and must
# report every branch key and value, threshold, gamma and verdict these do.


def _line_groups(line: SetFamily, other: SetFamily, mass: int, threshold: int) -> dict:
    """The densest-line pigeonhole of a product subset holding ``mass``
    elements: one of the |other| copies of ``line`` holds at least
    row_mass = ceil(mass / |other|) of them (at most |line|), and grouping
    that line by lattice tuples guarantees guaranteed_groups groups with
    at least ``threshold`` of them, each pair of which repeats one of the
    line family's collision values."""
    n_groups = line.params["lattice_size"]
    row_mass = min(-(-mass // other.size()), line.size())
    return {
        "groups": n_groups,
        "row_mass": row_mass,
        "guaranteed_groups": _pigeonhole_groups(
            row_mass, n_groups, line.params["k"], threshold
        ),
        "collision_value_count": sum(
            len(s) for s in pair_collision_values(line).values()
        ),
    }


@dataclass
class MixedCertificate:
    """Certificate that the product family admits no mixed decomposition
    into ``parts`` parts, each bounded-repetition for sums or for
    differences.

    Whichever kind carries at least half the product mass pins one row
    (or column); grouping that line by lattice tuples, an exact pigeonhole
    guarantees T_min groups with at least ceil(k/3) marked elements, and
    with parts < k/3 each such group forces a same-part pair. Both the
    sum branch (over the right factor) and the diff branch (over the left
    factor) must then exceed their capacity g*V for the verdict to hold.
    """

    g: int
    parts: int
    k: int
    applicable: bool
    threshold: int
    sum_branch: dict
    diff_branch: dict
    verdict: bool
    params: dict


def mixed_certificate(family: SetFamily, g: int, parts: int) -> MixedCertificate:
    left, right = _product_factors(family)
    if g < 1 or parts < 1:
        raise ParameterError("g and parts must be >= 1")
    k = left.params["k"]
    applicable = parts <= k // 3 - 1
    threshold = -(-k // 3)  # ceil(k/3)
    total = left.size() * right.size()
    half = -(-total // 2)
    sum_branch = _line_groups(right, left, half, threshold)
    diff_branch = _line_groups(left, right, half, threshold)
    for line, branch in ((right, sum_branch), (left, diff_branch)):
        capacity = parts * g * branch["collision_value_count"]
        branch.update(
            line_size=line.size(),
            capacity=capacity,
            exceeds=branch["guaranteed_groups"] > capacity,
        )
    verdict = applicable and sum_branch["exceeds"] and diff_branch["exceeds"]
    return MixedCertificate(
        g=g,
        parts=parts,
        k=k,
        applicable=applicable,
        threshold=threshold,
        sum_branch=sum_branch,
        diff_branch=diff_branch,
        verdict=verdict,
        params={"n": left.params["n"], "total": total},
    )


@dataclass
class NoLargeSubsetCertificate:
    """Certificate that no subset of relative size delta' of the product
    family is bounded-repetition for sums or for differences.

    A hypothetical dense subset pins a row with at least ceil(delta'*k*N)
    marked elements; the exact group pigeonhole yields T_min groups each
    holding >= ceil(delta'*k/2) elements and hence C(threshold, 2) pairs,
    all mapping into V collision values with at most g representations
    each. Both branches must overflow for the verdict.
    """

    g: int
    delta_prime: Fraction
    k: int
    threshold: int
    gamma: Fraction
    sum_branch: dict
    diff_branch: dict
    verdict: bool
    params: dict


def no_large_bsubset_certificate(
    family: SetFamily, g: int, delta_prime
) -> NoLargeSubsetCertificate:
    left, right = _product_factors(family)
    delta_prime = Fraction(delta_prime)
    if not 0 < delta_prime <= 1:
        raise ParameterError("delta_prime must lie in (0, 1]")
    if g < 1:
        raise ParameterError("g must be >= 1")
    k = left.params["k"]
    if delta_prime * k < 4:
        raise ParameterError("need delta_prime * k / 2 >= 2")
    threshold = math.ceil(delta_prime * k / 2)
    gamma = (delta_prime / 2) / (1 - delta_prime / 2)
    total = left.size() * right.size()
    subset_mass = math.ceil(delta_prime * total)
    pairs_per_group = math.comb(threshold, 2)
    sum_branch = _line_groups(right, left, subset_mass, threshold)
    diff_branch = _line_groups(left, right, subset_mass, threshold)
    for branch in (sum_branch, diff_branch):
        pair_mass = branch["guaranteed_groups"] * pairs_per_group
        capacity = g * branch["collision_value_count"]
        branch.update(
            pairs_per_group=pairs_per_group,
            pair_mass=pair_mass,
            capacity=capacity,
            exceeds=pair_mass > capacity,
        )
    return NoLargeSubsetCertificate(
        g=g,
        delta_prime=delta_prime,
        k=k,
        threshold=threshold,
        gamma=gamma,
        sum_branch=sum_branch,
        diff_branch=diff_branch,
        verdict=sum_branch["exceeds"] and diff_branch["exceeds"],
        params={"n": left.params["n"], "total": total},
    )
