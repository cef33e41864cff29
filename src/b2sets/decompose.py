"""Minimum-union search, finite pigeonhole certificates, and the random
partition extraction from the power-of-five difference set.

The search side answers "can this set be written as a union of t parts,
each repeating no sum (or difference) more than g times?" by exact
backtracking that counts, per part, only the pair values that repeat in
the whole set, each interned once as a small id. The certificate side
replaces asymptotics with exact finite counts: if a family has N lattice
tuples and only V possible collision values, any decomposition into t
bounded-repetition parts can absorb at most t*g*V of the N forced
collisions, so N > t*g*V certifies that no such decomposition exists.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from operator import add, sub
from typing import NamedTuple

from .analyze import _family_mode, canonical_keys, is_b2, is_b2_circ, rep_profile
from .construct import SetFamily
from .digitnum import as_int
from .errors import InternalVerificationFailure, ParameterError

DEFAULT_NODE_BUDGET = 2_000_000


# -- decompositions and search -----------------------------------------------


class Decomposition(NamedTuple):
    assignment: list[int]  # element index -> part index (0-based)
    parts_used: int

    def parts(self, elements) -> list[list]:
        out = [[] for _ in range(self.parts_used)]
        for idx, p in enumerate(self.assignment):
            out[p].append(elements[idx])
        return out


class SearchResult(NamedTuple):
    status: str  # "SAT" | "UNSAT" | "TIMEOUT"
    parts: int
    decomposition: Decomposition | None
    nodes_explored: int


class MinUnionReport(NamedTuple):
    results: dict[int, SearchResult]
    minimum: int | None
    order: list[int]  # element indices in search order


def _pair_ids(keys, kind):
    """The search's view of one ``rep_profile`` call: ``ids[i]`` maps each
    partner j of element i (i itself for its own sum) to a small id, from
    1, of the value of pair {i, j}, for every value that repeats in the
    whole set; a value with one representation can never push a part
    past g >= 1, so it gets no id. Also the fail-first order: descending
    number of such partners, ties broken by canonical position."""
    ids = [{} for _ in keys]
    for vid, pairs in enumerate(rep_profile(keys, kind).repeated.values(), 1):
        for i, j in pairs:
            ids[i][j] = ids[j][i] = vid
    return ids, sorted(range(len(keys)), key=lambda i: (-len(ids[i]), i))


def _check_search(g, kind):
    if kind not in ("sum", "diff"):
        raise ParameterError(f"unknown kind {kind!r}")
    if g < 1:
        raise ParameterError("g must be >= 1")


def exact_min_union(
    elements,
    g: int,
    kind: str,
    max_parts: int | None = None,
    budget: int = DEFAULT_NODE_BUDGET,
) -> MinUnionReport:
    """Exact minimum number of parts in a union decomposition where every
    part repeats no sum (kind="sum") or nonzero difference (kind="diff")
    more than g times.

    Backtracking over a pinned fail-first element order; the first element
    is fixed to part 1 and a new part may only be opened as the next
    unused index, so part relabelings are never explored twice. UNSAT is
    claimed only when the search space is exhausted within budget;
    TIMEOUT is a first-class status and never upgrades to a claim.
    """
    _check_search(g, kind)
    if max_parts is not None and max_parts < 1:
        raise ParameterError("max_parts must be >= 1")
    if budget < 1:
        raise ParameterError("budget must be >= 1")
    items = list(elements)
    keys, _ = canonical_keys(items)
    ids, order = _pair_ids(keys, kind)
    n = len(keys)
    cap = max_parts if max_parts is not None else n
    results: dict[int, SearchResult] = {}
    minimum = None
    all_smaller_unsat = True
    for t in range(1, cap + 1):
        res = _search_t(ids, order, g, t, budget)
        if res.status == "SAT" and res.decomposition is not None:
            # translate back to input element order
            assignment = [0] * n
            for pos, part in enumerate(res.decomposition.assignment):
                assignment[order[pos]] = part
            res = res._replace(decomposition=res.decomposition._replace(assignment=assignment))
            _verify_decomposition(items, res.decomposition, g, kind)
        results[t] = res
        if res.status == "SAT":
            # the minimum is claimed only when every smaller t was fully
            # refuted; a timeout below leaves it unknown
            if all_smaller_unsat:
                minimum = t
            break
        if res.status != "UNSAT":
            all_smaller_unsat = False
    return MinUnionReport(results=results, minimum=minimum, order=order)


def _search_t(ids, order, g, t, budget) -> SearchResult:
    """Depth-first search for a t-part assignment of the elements in
    ``order``, on an explicit stack with one entry per placed element, so
    its depth is not bounded by the interpreter's recursion limit. An
    element tries the parts already opened, then one new part while fewer
    than t are open; every try is a node, and the search times out once
    the node count exceeds ``budget``. A part keeps its members and a
    count per repeated-value id of ``_pair_ids``: an element joins it,
    the ids of its pairs with the members (itself included) are counted,
    and the counts are undone if any exceeds g."""
    n = len(order)
    members = [[] for _ in range(t)]
    counts = [{} for _ in range(t)]
    stack: list = []  # (part, value ids counted, limit) of each placed element
    nodes = 0
    idx, p, limit = 0, 0, min(1, t)  # element idx tries parts p..limit-1
    while idx < n:
        if p < limit:
            nodes += 1
            if nodes > budget:
                return SearchResult("TIMEOUT", t, None, nodes)
            link, part, count = ids[order[idx]], members[p], counts[p]
            part.append(order[idx])
            vids = list(filter(None, map(link.get, part)))  # ids are never 0
            for k, v in enumerate(vids):
                count[v] = c = count.get(v, 0) + 1
                if c > g:
                    del vids[k + 1 :]  # undo only the counts made
                    break
            else:
                stack.append((p, vids, limit))
                idx, p, limit = idx + 1, 0, min(max(limit, p + 2), t)
                continue
        elif stack:
            p, vids, limit = stack.pop()
            idx -= 1
        else:
            return SearchResult("UNSAT", t, None, nodes)
        members[p].pop()
        for v in vids:
            counts[p][v] -= 1
        p += 1
    deco = Decomposition(assignment=[entry[0] for entry in stack], parts_used=t)
    return SearchResult("SAT", t, deco, nodes)


def _verify_decomposition(items, deco: Decomposition, g, kind):
    for part in deco.parts(items):
        if not part:
            continue
        verdict = is_b2(part, g) if kind == "sum" else is_b2_circ(part, g)
        if not verdict.passed:
            raise InternalVerificationFailure("search returned a part violating its bound")


def greedy_union(elements, g: int, kind: str) -> Decomposition:
    """First-fit assignment in canonical element order; an upper bound on
    the exact minimum. It is the first descent of the exact search with
    one part per element: a new part always fits, so it never backtracks."""
    _check_search(g, kind)
    items = list(elements)
    keys, _ = canonical_keys(items)
    ids, _ = _pair_ids(keys, kind)
    assignment = _search_t(ids, range(len(keys)), g, len(keys), math.inf).decomposition.assignment
    deco = Decomposition(assignment=assignment, parts_used=max(assignment) + 1)
    _verify_decomposition(items, deco, g, kind)
    return deco


# -- collision value enumeration ----------------------------------------------

def pair_collision_values(family: SetFamily) -> dict:
    """For each part pair i < j, the exact set of values a + b (W) or
    a - b (Wcirc) over same-tuple elements a of part i and b of part j.

    These are the only values a same-tuple pair across parts i and j can
    produce, and the sets are disjoint across distinct pairs, which is
    checked. Every part lists the lattice tuples in the same order, so
    same-tuple elements are zipped.
    """
    op = add if _family_mode(family) == "sum" else sub
    parts = [[as_int(e.value) for e in part.elements] for part in family.parts]
    out = {
        (i, j): set(map(op, a, b))
        for (i, a), (j, b) in combinations(enumerate(parts, 1), 2)
    }
    union_size = len(set().union(*out.values())) if out else 0
    if union_size != sum(len(v) for v in out.values()):
        raise InternalVerificationFailure(
            "collision value sets of distinct vector pairs are not disjoint"
        )
    return out


# -- counting certificates -------------------------------------------------------


class CountingCertificate(NamedTuple):
    """Exact pigeonhole certificate that no t-part decomposition exists.

    With t < k parts, every lattice tuple forces one same-part pair among
    its k elements, hence one representation of one of the V collision
    values inside one of the t parts; each (part, value) cell absorbs at
    most g of these because distinct tuples give distinct representations.
    ``applicable`` is t < k: with t >= k parts the k elements of a tuple
    can lie in distinct parts, as the family's own parts show. verdict is
    True exactly when the certificate applies and lhs > capacity = t*g*V.
    """

    kind: str  # "sum" | "diff"
    applicable: bool
    lhs: int
    collision_value_count: int
    capacity: int
    verdict: bool
    formula_lower_bound: int
    per_pair_counts: dict


def counting_certificate(family: SetFamily, g: int, parts: int) -> CountingCertificate:
    """Certificate against decomposing the family union into ``parts``
    bounded-repetition parts: sum kind for the hadamard-code family, diff
    kind for the star-code family."""
    kind = _family_mode(family)
    if g < 1 or parts < 1:
        raise ParameterError("g and parts must be >= 1")
    value_sets = pair_collision_values(family)
    v_total = sum(len(s) for s in value_sets.values())
    lhs = family.params["lattice_size"]
    capacity = parts * g * v_total
    d = family.params["d"]
    m = family.params["m"]
    n = family.params["n"]
    k = family.params["k"]
    formula = (n // (2 * d * m)) ** m
    if formula > lhs:
        raise InternalVerificationFailure("closed-form lattice lower bound does not hold")
    applicable = parts < k
    return CountingCertificate(
        kind=kind,
        applicable=applicable,
        lhs=lhs,
        collision_value_count=v_total,
        capacity=capacity,
        verdict=applicable and lhs > capacity,
        formula_lower_bound=formula,
        per_pair_counts={pair: len(s) for pair, s in value_sets.items()},
    )


def _product_factors(family: SetFamily):
    if family.kind != "product":
        raise ParameterError("expected a product family")
    return family.factors


def _pigeonhole_groups(row_mass: int, n_groups: int, k: int, threshold: int) -> int:
    """Least number of k-element groups holding >= threshold marked
    elements, given row_mass marked elements across n_groups groups."""
    if threshold < 1 or threshold > k:
        raise ParameterError("threshold out of range")
    slack = k - threshold + 1
    shortfall = row_mass - n_groups * (threshold - 1)
    if shortfall <= 0:
        return 0
    return -(-shortfall // slack)  # ceil division


def _density_pigeonhole(left, right, g, mass, threshold, repeats, parts):
    """The densest-line pigeonhole of a product subset holding ``mass``
    marked elements, as the sum branch over the right factor and the diff
    branch over the left. One of the |other| copies of a factor line holds
    row_mass = ceil(mass / |other|) of them (at most |line|); grouping that
    line by lattice tuples guarantees guaranteed_groups groups with at
    least ``threshold`` of them, each forcing ``repeats`` representations
    of one of the line's V collision values. ``parts`` parts absorb at
    most capacity = parts*g*V, so a branch exceeds it when
    guaranteed_groups * repeats > capacity."""
    branches = []
    for line, other in ((right, left), (left, right)):
        n_groups = line.params["lattice_size"]
        row_mass = min(-(-mass // other.size()), line.size())
        groups = _pigeonhole_groups(row_mass, n_groups, line.params["k"], threshold)
        values = sum(len(s) for s in pair_collision_values(line).values())
        capacity = parts * g * values
        branches.append({
            "groups": n_groups,
            "row_mass": row_mass,
            "guaranteed_groups": groups,
            "collision_value_count": values,
            "capacity": capacity,
            "exceeds": groups * repeats > capacity,
        })
    return branches


class MixedCertificate(NamedTuple):
    """Certificate that the product family admits no mixed decomposition
    into ``parts`` parts, each bounded-repetition for sums or for
    differences.

    Whichever kind carries at least half the product mass pins one row
    (or column), and the density pigeonhole with threshold ceil(k/3)
    guarantees T_min groups; with parts < k/3 each such group forces a
    same-part pair. Both the sum branch (over the right factor) and the
    diff branch (over the left factor) must then exceed their capacity
    parts*g*V for the verdict to hold.
    """

    applicable: bool
    threshold: int
    sum_branch: dict
    diff_branch: dict
    verdict: bool


def mixed_certificate(family: SetFamily, g: int, parts: int) -> MixedCertificate:
    left, right = _product_factors(family)
    if g < 1 or parts < 1:
        raise ParameterError("g and parts must be >= 1")
    k = left.params["k"]
    applicable = parts <= k // 3 - 1
    threshold = -(-k // 3)  # ceil(k/3)
    half = -(-left.size() * right.size() // 2)
    sum_branch, diff_branch = _density_pigeonhole(left, right, g, half, threshold, 1, parts)
    sum_branch["line_size"] = right.size()
    diff_branch["line_size"] = left.size()
    return MixedCertificate(
        applicable=applicable,
        threshold=threshold,
        sum_branch=sum_branch,
        diff_branch=diff_branch,
        verdict=applicable and sum_branch["exceeds"] and diff_branch["exceeds"],
    )


class NoLargeSubsetCertificate(NamedTuple):
    """Certificate that no subset of relative size delta' of the product
    family is bounded-repetition for sums or for differences.

    A hypothetical dense subset of ceil(delta'*|S|) elements runs the
    density pigeonhole with threshold ceil(delta'*k/2): each of its T_min
    groups holds C(threshold, 2) pairs, all mapping into V collision
    values with at most g representations each. Both branches must
    overflow for the verdict.
    """

    delta_prime: Fraction
    threshold: int
    gamma: Fraction
    sum_branch: dict
    diff_branch: dict
    verdict: bool


def no_large_bsubset_certificate(
    family: SetFamily, g: int, delta_prime
) -> NoLargeSubsetCertificate:
    left, right = _product_factors(family)
    try:
        delta_prime = Fraction(delta_prime)
    except (ValueError, ZeroDivisionError):
        raise ParameterError(f"delta_prime {delta_prime!r} is not a number") from None
    if not 0 < delta_prime <= 1:
        raise ParameterError("delta_prime must lie in (0, 1]")
    if g < 1:
        raise ParameterError("g must be >= 1")
    k = left.params["k"]
    if delta_prime * k < 4:
        raise ParameterError("need delta_prime * k / 2 >= 2")
    threshold = math.ceil(delta_prime * k / 2)
    pairs_per_group = math.comb(threshold, 2)
    mass = math.ceil(delta_prime * left.size() * right.size())
    branches = _density_pigeonhole(left, right, g, mass, threshold, pairs_per_group, 1)
    for branch in branches:
        branch["pairs_per_group"] = pairs_per_group
        branch["pair_mass"] = branch["guaranteed_groups"] * pairs_per_group
    sum_branch, diff_branch = branches
    return NoLargeSubsetCertificate(
        delta_prime=delta_prime,
        threshold=threshold,
        gamma=(delta_prime / 2) / (1 - delta_prime / 2),
        sum_branch=sum_branch,
        diff_branch=diff_branch,
        verdict=sum_branch["exceeds"] and diff_branch["exceeds"],
    )


# -- random partition extraction ---------------------------------------------


class MeyerExtraction(NamedTuple):
    n_elements: int
    trials: int
    seed: int
    mean_ratio: Fraction
    best_size: int
    best_upper: tuple[int, ...]
    best_elements: list
    all_pass: bool
    sizes: list[int]


def meyer_extract(family: SetFamily, seed: int, trials: int) -> MeyerExtraction:
    """Random two-coloring extraction from the difference family.

    Each trial assigns every index 0..n_max to the upper or lower class
    with probability 1/2 from a seeded generator; the extracted subset
    keeps elements whose high index is upper and low index is lower. Such
    a subset never repeats a sum more than twice, which is verified for
    every trial.
    """
    if family.kind != "meyer":
        raise ParameterError("meyer_extract needs a meyer family")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    elems = family.parts[0].elements
    n_max = family.params["n_max"]
    rng = random.Random(seed)
    total_size = 0
    best = None
    sizes = []
    all_pass = True
    for _ in range(trials):
        upper = frozenset(
            i for i in range(n_max + 1) if rng.getrandbits(1)
        )
        chosen = [e for e in elems if e.hi in upper and e.lo not in upper]
        sizes.append(len(chosen))
        total_size += len(chosen)
        if chosen:
            verdict = is_b2([e.value for e in chosen], 2)
            if not verdict.passed:
                all_pass = False
        if best is None or len(chosen) > best[0]:
            best = (len(chosen), tuple(sorted(upper)), chosen)
    return MeyerExtraction(
        n_elements=len(elems),
        trials=trials,
        seed=seed,
        mean_ratio=Fraction(total_size, trials * len(elems)),
        best_size=best[0],
        best_upper=best[1],
        best_elements=best[2],
        all_pass=all_pass,
        sizes=sizes,
    )
