"""Exact verification engine: representation profiles, bounded-repetition
checks, additive energy, sumset disjointness, collision censuses, and
subset doubling audits.

Everything here is exact counting on plain Python ints, in the one key
space ``_int_keys`` builds: the integer values of ints and DigitVectors,
or the ``f2_embed`` images of planar points with the first coordinate
most significant, mapped to (k - min) // g, g the gcd of their
differences (unless g < 2). The map is increasing and affine, so it
keeps every sum and difference relation, the order (lexicographic for
points) and the sign of every difference, and a dilated set gets the
keys of the set itself up to a translation, so its path and its cost.
No engine normalises keys again; values handed back are decoded to the
element space. ``construct``, which holds ``f2_embed``, is loaded for
planar input only, so a caller with ints never loads it.

All pair enumeration runs through one kernel over the keys sorted in
descending order. Up to FULL_MAP_PAIR_LIMIT pairs, a full value->count
map is built. Above it, each pair value is reduced to a residue mod the
prime 2^31 - 19, computed from the keys' residues with numpy, one range
of residues at a time: ranges are halved until each holds at most 2^17
pairs or a single residue, so the arrays grow with the pair count only
where more pairs than that share one residue. The residue is a function
of the value, so every repeated value has a repeated residue; only the
pairs whose residue repeats in its range and whose residue mod a second
prime, 2^31 - 61, repeats too are counted exactly as Python ints: those
of repeated values and about N^2/(pq) of N others. Reported counts are
exact, and Python-object memory stays proportional to the number of
repeated values. numpy is imported only on that path, so calls below the
limit never load it. The bounded-repetition checks and
the energies skip the kernel on dense keys, whose span is at most
DENSE_SPAN_FACTOR times their number: one big-int product of the keys'
indicator polynomial holds every count in the same conventions, and no
pair value is hashed. The energies skip it on a full grid too, planar
points that are every combination of their coordinates: each count is
the product of the axes' counts, and only each axis, whose ints are
keyed by ``_int_keys`` too, takes the dense product or the kernel.

Conventions, pinned once in the kernel:

* sum mode counts unordered pairs {a, b}, a = b allowed and counted once;
* diff mode counts ordered pairs (a, b), a != b, per nonzero value; the
  profile stores one entry per +-value class in its positive orientation
  (counts for v and -v are equal), and zero is reported separately;
* witnesses are selected deterministically, smallest values first (for
  differences: smallest positive-orientation value first);
* a profile lists the pairs of every repeated value and only counts the
  rest, since each of them occurs exactly once, so its size does not
  depend on which counting path ran;
* the bounded-repetition checks read the counts only, and look up the
  pairs of their one witness, one lookup per key.
"""

from __future__ import annotations

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, compress, repeat, starmap
from math import gcd, prod
from operator import add, mul, sub
from typing import TYPE_CHECKING, NamedTuple

from .digitnum import as_int
from .errors import InternalVerificationFailure, ParameterError, ResourceCap

if TYPE_CHECKING:
    from .construct import SetFamily

ENERGY_PAIR_BUDGET = 5 * 10**7
FULL_MAP_PAIR_LIMIT = 200_000
# keys whose span is at most this many times their number are counted by
# one big-int product (_dense_counts) instead of pair by pair
DENSE_SPAN_FACTOR = 24
# 2^31 - 19: a uint32 sum of two residues stays below 2p < 2^32, and 2 is
# a primitive root, so powers of two do not cluster as mod 2^61 - 1, the
# modulus of Python's int hash, where 2^i is 2^(i mod 61).
RESIDUE_PRIME = 2147483629
# 2^31 - 61, also with primitive root 2: a pair whose residue repeats mod
# RESIDUE_PRIME is counted as an int only if its residue mod this prime
# repeats too among the pairs of its range
SECOND_PRIME = 2147483587
WITNESS_CAP = 10
EXHAUSTIVE_AUDIT_LIMIT = 20


# -- canonical keys --------------------------------------------------------


def canonical_key(x):
    """An element as an int, or a planar point as a tuple of ints."""
    if isinstance(x, tuple):
        return tuple(map(as_int, x))
    return as_int(x)


def canonical_keys(elements):
    """Distinct elements as int keys, and the decoder that turns a sum or
    difference of two keys back into an element-space value. An empty set
    is a ParameterError: no check has anything to verify."""
    return _int_keys(_canonical_points(elements))


def _canonical_points(elements):
    ints = {}  # a product's points share few coordinates: each is converted once
    points = [
        tuple([ints[c] if c in ints else ints.setdefault(c, as_int(c)) for c in x])
        if isinstance(x, tuple)
        else canonical_key(x)
        for x in elements
    ]
    if not points:
        raise ParameterError("the set is empty")
    if len(set(points)) != len(points):
        raise ParameterError("elements must be distinct")
    return points


def _int_keys(points):
    """Int keys for distinct canonical points, and their decoder: the one
    place where keys are built. Planar points go through ``f2_embed`` of
    the reversed coordinates, whose base, five times the largest
    coordinate magnitude, makes int order the lexicographic order of the
    points. The ints k become (k - min) // g, g the gcd of their
    differences (a planar image is a multiple of its base, so g is too),
    or stay as they are, uncopied, when g < 2. ``decode(value, mode)``
    turns a sum or a difference of two keys back into an element-space
    value: times g, plus 2 * min for a sum.
    """
    planar = any(isinstance(p, tuple) for p in points)
    if planar:
        from .construct import f2_embed

        emb = f2_embed([p[::-1] if isinstance(p, tuple) else p for p in points])
        points = list(emb.image)
    step, low = gcd(*map(sub, points, points[1:])) or 1, 0
    if step > 1:
        low = min(points)
        points = [(k - low) // step for k in points]

    def decode(value, mode):
        value = value * step + (2 * low if mode == "sum" else 0)
        return emb.decode(value)[::-1] if planar else value

    return points, decode


# -- the pair kernel ---------------------------------------------------------


def _pair_total(n, mode):
    if mode == "sum":
        return n * (n + 1) // 2
    if mode == "diff":
        return n * (n - 1) // 2
    raise ParameterError(f"unknown mode {mode!r}")


def _descending(keys):
    """Input positions from the largest key to the smallest, and the keys
    in that order."""
    order = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
    return order, [keys[i] for i in order]


def _pair_values(desc, mode):
    """Every pair value of keys sorted in descending order: each unordered
    sum {a, b}, a = b included, once; each difference as larger minus
    smaller, so it is positive by construction."""
    if mode == "sum":
        return starmap(add, combinations_with_replacement(desc, 2))
    return starmap(sub, combinations(desc, 2))


def _pair_positions(order, mode):
    """Input positions of the pairs, in the sequence of ``_pair_values``,
    larger key first."""
    pairs = combinations_with_replacement if mode == "sum" else combinations
    return pairs(order, 2)


def _count_values(desc, mode, order=None):
    """Exact counts of the pair values, the number of distinct values, and
    the input positions of the pairs of every repeated value (i <= j for
    sums, (larger, smaller) for differences), or {} when no ``order`` is
    given.

    Up to FULL_MAP_PAIR_LIMIT pairs ``counts`` holds every value. Above
    it ``counts`` keeps only the repeated values, found through their
    residues mod RESIDUE_PRIME one range at a time (``_residue_counts``,
    which imports numpy on first use and holds one range of at most 2^17
    pairs, or of a single residue, at once); a value missing from
    ``counts`` then occurs exactly once.
    """
    if _pair_total(len(desc), mode) > FULL_MAP_PAIR_LIMIT:
        return _residue_counts(desc, mode, order)
    counts = Counter(_pair_values(desc, mode))
    if order is None:
        return counts, len(counts), {}
    repeated = {v for v, c in counts.items() if c >= 2}
    return counts, len(counts), _pair_groups(order, desc, mode, repeated)


def _residue_counts(desc, mode, order):
    """``_count_values`` above FULL_MAP_PAIR_LIMIT, one residue range at a time.

    A pair's key is a function of its value: the residue mod p =
    RESIDUE_PRIME, (r_a + r_b) mod p for a sum, and for a difference
    min(d, p - d) with d = (r_a - r_b) mod p, which does not depend on
    which key is larger (r is a key's residue; values are built from
    ``desc``). So a repeated value has a repeated key, and no value spans
    two key ranges. With the keys sorted by residue, row t pairs key t
    with the keys u >= t (u > t for differences), and its pair keys form
    two sorted runs: for sums, those
    below p and those that wrap once; for differences, d up to p/2 and the
    rest, whose keys fall. So one searchsorted per run bound gives every
    row's slice, and the exact pair count, of any key range. A range of
    more than ``cap`` = 2^17 pairs and more than one key is halved at its
    middle key, whose pair count below is one such search. A range's keys
    are gathered, sorted and scanned for repeats, and the pairs whose key
    repeats and whose residue mod SECOND_PRIME also repeats are counted
    exactly as Python ints; the others occur once. Memory is O(n + cap +
    the pairs of the largest single key + the pairs counted as ints), and
    the pair lists are put in enumeration order, the values in the order
    of their first pair.
    """
    import numpy as np

    n, p, diff = len(desc), RESIDUE_PRIME, mode == "diff"
    # the most pairs a range of several keys holds; 2^16 was slower on
    # Wcirc(5,45) and 2^18 peaked higher on both scale sets
    cap = 1 << 17
    res = np.array([k % p for k in desc], dtype=np.int64)
    sigma = np.argsort(res, kind="stable")  # row t is key desc[sigma[t]]
    s = res[sigma]
    s2 = np.array([k % SECOND_PRIME for k in desc], dtype=np.int64)[sigma]
    floor = np.arange(n) + diff  # row t pairs with the rows u >= floor[t]

    def bounds(x):
        """Per row, where each run crosses key x: run 1 has its keys below
        x before it, run 2 before it for sums and after it for differences."""
        ends = (s + x, s + (p + 1) - x) if diff else (x - s, p + x - s)
        return [np.maximum(np.searchsorted(s, e), floor) for e in ends]

    def ranges(lo, hi, pairs, below):
        """(end, pair count) of consecutive key ranges covering [lo, hi),
        which holds ``pairs`` pairs and has ``below`` pairs below it; each
        range holds at most cap pairs unless it is a single key."""
        if pairs <= cap or hi - lo == 1:
            yield hi, pairs
            return
        mid = (lo + hi) // 2
        one, two = bounds(mid)
        left = int((one - zero[0]).sum() + abs(two - zero[1]).sum()) - below
        yield from ranges(lo, mid, left, below)
        yield from ranges(mid, hi, pairs - left, below + left)

    def flagged(starts, lens, m):
        """The range's pairs whose key and residue mod SECOND_PRIME both
        repeat, as a * n + b for desc indices a <= b. Run j is run 1 of row
        j for j < n and run 2 of row j - n after, and pairs its row with
        the lens[j] rows from starts[j]."""
        firsts = np.cumsum(lens) - lens
        u = np.repeat((starts - firsts).astype(np.int32), lens)
        u += np.arange(m, dtype=np.int32)
        key = su[u]
        del u
        key += np.repeat(shift, lens)
        if diff:  # run 2 holds the keys p - d
            key[firsts[n] :] = np.uint32(p) - key[firsts[n] :]
        sk = np.sort(key)
        repeated = sk[1:][sk[1:] == sk[:-1]]
        del sk
        if not len(repeated):
            return key[:0]
        # a direct-address table of the low key bits passes every repeated
        # key and few others, which the second residue drops with the rest
        table[repeated & low] = True
        hits = np.flatnonzero(table[key & low])
        table[repeated & low] = False
        row = np.searchsorted(firsts, hits, side="right") - 1
        t, u = run[row], starts[row] + hits - firsts[row]
        both = (s2[u] - s2[t] if diff else s2[u] + s2[t]) % SECOND_PRIME
        if diff:
            both = np.minimum(both, SECOND_PRIME - both)
        both |= key[hits].astype(np.int64) << 32
        by_key = np.argsort(both)
        same = np.diff(both[by_key]) == 0
        keep = by_key[np.concatenate(([False], same)) | np.concatenate((same, [False]))]
        a, b = sigma[t[keep]], sigma[u[keep]]
        return np.minimum(a, b) * n + np.maximum(a, b)

    su = s.astype(np.uint32)
    run = np.concatenate((np.arange(n), np.arange(n)))  # the row of each run
    # added to a partner's residue as a wrapping uint32: s_u + s_t, less p
    # in run 2 of the sums, and d = s_u - s_t for the differences
    shift = (np.concatenate((-s, -s) if diff else (s, s - p)) % (1 << 32)).astype(np.uint32)
    table = np.zeros(1 << 16, dtype=bool)
    low = np.uint32(len(table) - 1)
    op = sub if diff else add
    positions = None if order is None else np.array(order)
    counts, groups, distinct = {}, [], 0
    zero = bounds(0)
    lo1, lo2 = zero
    for hi, m in ranges(0, (p + 1) // 2 if diff else p, _pair_total(n, mode), 0):
        hi1, hi2 = bounds(hi)
        starts = np.concatenate((lo1, hi2 if diff else lo2))
        lens = np.concatenate((hi1 - lo1, lo2 - hi2 if diff else hi2 - lo2))
        lo1, lo2 = hi1, hi2
        if not m:
            continue
        lin = flagged(starts, lens, m)
        a, b = np.divmod(lin, n)
        values = list(map(op, map(desc.__getitem__, a.tolist()), map(desc.__getitem__, b.tolist())))
        found = Counter(values)
        distinct += m - len(values) + len(found)
        repeated = {v: c for v, c in found.items() if c > 1}
        counts.update(repeated)
        if order is not None and repeated:
            # each repeated value's pairs, in enumeration order
            index = dict(zip(repeated, range(len(repeated))))
            ids = np.fromiter(map(index.get, values, repeat(-1)), dtype=np.int64, count=len(values))
            lin, ids = lin[ids >= 0], ids[ids >= 0]
            lin = lin[np.lexsort((lin, ids))]
            i, j = positions[lin // n], positions[lin % n]
            if not diff:
                i, j = np.minimum(i, j), np.maximum(i, j)
            pairs = list(zip(i.tolist(), j.tolist()))
            ends = np.cumsum(list(repeated.values()))
            firsts = ends - list(repeated.values())
            for v, f, e, x in zip(repeated, firsts.tolist(), ends.tolist(), lin[firsts].tolist()):
                groups.append((x, v, pairs[f:e]))
    # the values in the order of their first pairs
    return counts, distinct, {v: pairs for _, v, pairs in sorted(groups)}


def _pair_groups(order, desc, mode, wanted):
    """Input positions of the pairs of each value in ``wanted``: (i, j)
    with i <= j for sums, (larger, smaller) for differences."""
    groups: dict = {}
    if not wanted:
        return groups
    flags = map(wanted.__contains__, _pair_values(desc, mode))
    hits = compress(zip(_pair_values(desc, mode), _pair_positions(order, mode)), flags)
    for value, (i, j) in hits:
        if mode == "sum" and i > j:
            i, j = j, i
        groups.setdefault(value, []).append((i, j))
    return groups


def _dense_counts(desc, mode):
    """The count of every pair value of keys sorted in descending order,
    as a list from its least value up, and that least value; None when the
    keys' span exceeds DENSE_SPAN_FACTOR times their number.

    Key a is slot a - min of P(x) = sum x^(a - min), packed into an int of
    w-byte slots, w the least of 1, 2, 4, 8 that holds n + 1, so no slot
    of a product carries. (P(x)^2 + P(x^2)) / 2 holds the unordered sums,
    a = b once, and P(x) * x^span P(1/x) the ordered differences, the
    positive ones in its upper half. The slots are read in native byte
    order by the format whose item size is w.
    """
    n, low, high = len(desc), desc[-1], desc[0]
    if high - low > DENSE_SPAN_FACTOR * n:
        return None
    span, width = high - low, next(w for w in (1, 2, 4, 8) if n + 1 < 256**w)
    slots = bytearray(width * (span + 1))
    for a in desc:
        slots[width * (a - low)] = 1
    p = int.from_bytes(slots, "little")
    if mode == "sum":
        doubled = bytearray(width * (2 * span + 1))
        doubled[:: 2 * width] = slots[::width]
        product = (p * p + int.from_bytes(doubled, "little")) >> 1
        size, least = 2 * span + 1, 2 * low
    else:
        # read big-endian, the 1 of slot i is the top byte of slot span - i
        product = p * int.from_bytes(slots, "big") >> 8 * (width * (span + 2) - 1)
        size, least = span, 1
    code = next(c for c in "BHILQ" if memoryview(bytes(8)).cast(c).itemsize == width)
    counts = memoryview(product.to_bytes(size * width, sys.byteorder)).cast(code).tolist()
    return counts[::-1] if sys.byteorder == "big" else counts, least


def _repeated_pairs(keys, mode):
    """The number of distinct pair values of distinct int keys, and the
    input positions of the pairs of each repeated value."""
    order, desc = _descending(keys)
    _, distinct, groups = _count_values(desc, mode, order)
    return distinct, groups


# -- representation profiles ------------------------------------------------


class Witness(NamedTuple):
    value: object
    count: int
    pairs: tuple


class RepProfile(NamedTuple):
    """Exact representation counts for pair sums or differences.

    ``repeated`` maps every value with at least two representations to
    the input positions (i, j) of its pairs, oriented like the witness
    pairs, so a value's count is the length of its list; each of the
    other ``distinct_values`` occurs exactly once. In diff mode each entry
    stands for the +-class of its value taken in positive orientation,
    and the |A| trivial representations of zero are excluded from the
    counts.
    """

    mode: str
    n_elements: int
    total_pairs: int
    distinct_values: int
    max_count: int
    witnesses: list[Witness]
    repeated: dict


def rep_profile(elements, mode: str) -> RepProfile:
    """Exact per-value representation counts for a list of distinct
    elements, in ``sum`` or ``diff`` mode, with up to WITNESS_CAP
    witnesses of the largest count."""
    items = list(elements)
    keys, decode = canonical_keys(items)
    n = len(keys)
    total = _pair_total(n, mode)
    distinct, groups = _repeated_pairs(keys, mode)
    max_count = max(map(len, groups.values()), default=min(total, 1))
    witnesses = [
        Witness(decode(v, mode), max_count, tuple((items[i], items[j]) for i, j in sorted(groups[v])))
        for v in sorted(v for v, pairs in groups.items() if len(pairs) == max_count)[:WITNESS_CAP]
    ]
    return RepProfile(
        mode=mode,
        n_elements=n,
        total_pairs=total,
        distinct_values=distinct,
        max_count=max_count,
        witnesses=witnesses,
        repeated={decode(v, mode): pairs for v, pairs in groups.items()},
    )


class BVerdict(NamedTuple):
    passed: bool
    max_count: int
    witness: Witness | None


def is_b2(elements, g: int) -> BVerdict:
    """True iff every value has at most g unordered representations as a
    sum of two elements (the diagonal pair counts once)."""
    return _bounded_repetition(elements, g, "sum")


def is_b2_circ(elements, g: int) -> BVerdict:
    """True iff every nonzero value has at most g ordered representations
    as a difference of two elements."""
    return _bounded_repetition(elements, g, "diff")


def _bounded_repetition(elements, g: int, mode: str) -> BVerdict:
    """The verdict from the pair counts alone; only a failing check looks
    up pairs, those of its witness, the least value of the largest count."""
    if g < 1:
        raise ParameterError("g must be >= 1")
    items = list(elements)
    keys, decode = canonical_keys(items)
    desc = sorted(keys, reverse=True)
    dense = _dense_counts(desc, mode)
    if dense:
        counts, least = dense
        max_count = max(counts, default=0)
    else:
        counts, _, _ = _count_values(desc, mode)
        # above FULL_MAP_PAIR_LIMIT counts holds only the repeated values
        max_count = max(counts.values(), default=min(_pair_total(len(keys), mode), 1))
    if max_count <= g:
        return BVerdict(True, max_count, None)
    if dense:
        value = least + counts.index(max_count)
    else:
        value = min(v for v, c in counts.items() if c == max_count)
    return BVerdict(False, max_count, _witness(items, keys, decode, mode, value, max_count))


def _witness(items, keys, decode, mode, value, count):
    """The witness of one pair value, its pairs found by one lookup per key,
    as input positions (i, j) in sorted order: i <= j for sums, (larger,
    smaller) for differences."""
    index = {k: i for i, k in enumerate(keys)}
    partners = (index.get(value - k if mode == "sum" else k - value) for k in keys)
    pairs = [(i, j) for i, j in enumerate(partners) if j is not None and (mode == "diff" or i <= j)]
    return Witness(decode(value, mode), count, tuple((items[i], items[j]) for i, j in pairs))


# -- additive energy ---------------------------------------------------------


class EnergyReport(NamedTuple):
    """Ordered quadruple counts and the doubling quantities they bound.

    e_plus counts ordered (a, b, c, d) with a+b = c+d, e_minus the same
    for a-c = d-b; the two are always equal. Sizes and ratios are exact;
    energy_lower_bound = |A|^4 / e_plus bounds both |A+A| and |A-A| from
    below (Cauchy-Schwarz).
    """

    n_elements: int
    e_plus: int
    e_minus: int
    sumset_size: int
    diffset_size: int
    doubling_ratio_sum: Fraction
    doubling_ratio_diff: Fraction
    energy_lower_bound: Fraction


def additive_energy(elements) -> EnergyReport:
    """The energies and doubling sizes of a set. A full grid, points that
    are every combination of their coordinates, is counted per axis: each
    quantity of X x Y is the product of those of X and Y, so its pairs are
    never enumerated and ENERGY_PAIR_BUDGET bounds the largest axis."""
    points = _canonical_points(elements)
    n = len(points)
    axes = _grid_axes(points) or [points]  # _int_keys rejects mixed dimensions
    factors = [_int_keys(axis)[0] for axis in axes]
    largest = max(map(len, factors))
    if largest * largest > ENERGY_PAIR_BUDGET:
        raise ResourceCap(f"{largest}^2 pairs exceed the budget {ENERGY_PAIR_BUDGET}")
    e_plus = e_minus = sumset_size = diffset_size = 1
    for factor in factors:
        desc = sorted(factor, reverse=True)
        plus, sums = _sum_energy(desc)
        minus, diffs = _diff_energy(desc)
        e_plus, sumset_size = e_plus * plus, sumset_size * sums
        e_minus, diffset_size = e_minus * minus, diffset_size * diffs
    report = EnergyReport(
        n_elements=n,
        e_plus=e_plus,
        e_minus=e_minus,
        sumset_size=sumset_size,
        diffset_size=diffset_size,
        doubling_ratio_sum=Fraction(sumset_size, n * n),
        doubling_ratio_diff=Fraction(diffset_size, n * n),
        energy_lower_bound=Fraction(n**4, e_plus),
    )
    if e_plus != e_minus:
        raise InternalVerificationFailure("ordered sum and difference energies disagree")
    if sumset_size < report.energy_lower_bound or diffset_size < Fraction(n**4, e_minus):
        raise InternalVerificationFailure("a doubling size is below its Cauchy-Schwarz bound")
    return report


def _grid_axes(points):
    """The coordinate sets of distinct points of one dimension when the
    points are every combination of them, else None."""
    if not all(isinstance(p, tuple) for p in points) or len(set(map(len, points))) != 1:
        return None
    axes = [list(set(c)) for c in zip(*points)]
    return axes if prod(map(len, axes)) == len(points) else None


def _sum_energy(desc):
    """Ordered sum quadruples and |A+A|. U(v) unordered pairs, a = b
    included, give r(v) = 2U(v) - [v in 2A] ordered ones, so the sum of
    r(v)^2 is 4 sum U^2 - 4 sum_{a in A} U(2a) + |A|; a value missing
    from the counts has U(v) = 1, and a zero slot of the dense counts
    stands for no value."""
    dense = _dense_counts(desc, "sum")
    if dense:
        c, least = dense
        doubles = sum(c[k + k - least] for k in desc)
        distinct = len(c) - c.count(0)
    else:
        counts, distinct, _ = _count_values(desc, "sum")
        c = list(counts.values())
        doubles = sum(counts.get(k + k, 1) for k in desc)
    squares = sum(map(mul, c, c)) + distinct - len(c) + c.count(0)
    return 4 * (squares - doubles) + len(desc), distinct


def _diff_energy(desc):
    """Ordered difference quadruples and |A-A|. A positive value with c(v)
    pairs has c(v) ordered representations, and so has -v; zero has |A|."""
    dense = _dense_counts(desc, "diff")
    if dense:
        c = dense[0]
        positive = len(c) - c.count(0)
    else:
        counts, positive, _ = _count_values(desc, "diff")
        c = list(counts.values())
    squares = sum(map(mul, c, c)) + positive - len(c) + c.count(0)
    return len(desc) ** 2 + 2 * squares, 1 + 2 * positive


# -- family-level checks ------------------------------------------------------


class DisjointnessReport(NamedTuple):
    passed: bool
    pair_count: int
    witness_value: object | None
    witness_pairs: tuple | None  # the two 1-based part index pairs


def family_sumset_disjointness(family: SetFamily) -> DisjointnessReport:
    """Check that the pairwise part sumsets P_i + P_j are disjoint across
    distinct unordered index pairs {i, j}; the witness is the least value
    in two of them, with the first two such pairs. A family of fewer than
    two parts has nothing to compare and raises ParameterError.

    The candidates are the union's repeated sums, from the pair kernel,
    and one more value. A value with a single representation a + b in the
    union lies in two part sumsets only when a or b lies in two parts. The
    least such value is the least shared element plus the least element,
    and it does lie in two part sumsets, so it is the one added.
    """
    part_values = family.part_values()
    if len(part_values) < 2:
        raise ParameterError(f"disjointness needs two or more parts, not {len(part_values)}")
    part_points = [[canonical_key(v) for v in values] for values in part_values]
    holders: dict = {}  # point -> the 1-based parts holding it
    for number, part in enumerate(part_points, 1):
        for p in part:
            holders.setdefault(p, set()).add(number)
    keys, decode = _int_keys(list(holders))
    owners = list(holders.values())
    _, groups = _repeated_pairs(keys, "sum")
    shared = [i for i, parts in enumerate(owners) if len(parts) > 1]
    if shared:
        a = min(shared, key=keys.__getitem__)
        b = min(range(len(keys)), key=keys.__getitem__)
        groups.setdefault(keys[a] + keys[b], [(a, b)])
    pair_count = len(part_points) * (len(part_points) + 1) // 2
    for value in sorted(groups):
        pairs = sorted(
            {(min(p, q), max(p, q)) for i, j in groups[value] for p in owners[i] for q in owners[j]}
        )
        if len(pairs) > 1:
            return DisjointnessReport(False, pair_count, decode(value, "sum"), tuple(pairs[:2]))
    return DisjointnessReport(True, pair_count, None, None)


# -- collision census ---------------------------------------------------------


class CollisionRecord(NamedTuple):
    value: object
    reps: tuple  # pairs (a, b) of labeled elements
    part_pair: tuple | None
    classification: str  # "PREDICTED" | "ANOMALY"
    pattern: str


class CensusReport(NamedTuple):
    mode: str
    n_elements: int
    records: list[CollisionRecord]
    predicted: int
    anomalies: int


def collision_census(family: SetFamily, mode: str) -> CensusReport:
    """Enumerate every repeated sum (or difference) in the family union and
    classify each against the structural pattern the construction allows.

    With v_i, v_j the code vectors and phi(y).v_j the part-j element built
    from lattice tuple y, the allowed patterns are:

    * diagonal: every representation is {phi(y).v_i, phi(y).v_j} with one
      shared tuple per representation, a fixed part pair (i, j), i != j,
      and all tuples agreeing on the coordinates where v_i +- v_j is
      nonzero;
    * swap: exactly two representations (phi(y).v_i, phi(z).v_j) and
      (phi(z).v_h, phi(y).v_m) whose tuples are swapped, y != z, and whose
      parts are crossed, h = i != j = m, or, for differences only, within
      two distinct parts, i = j != h = m (a sum's pairs are unordered);
    * agreement (star-code differences only): every representation is the
      within-part difference (phi(y).v_j, phi(z).v_j) of one fixed tuple
      pair y != z, across distinct parts j whose own coordinate satisfies
      (My)_j = (Mz)_j; at most ceil(d/2) - 1 parts can agree this way.

    Sums over the hadamard-code family admit only the diagonal pattern;
    star-code differences admit diagonal and agreement; the opposite
    combinations admit only swaps. Anything else is classified ANOMALY.
    """
    _family_mode(family)  # only the W and Wcirc families have a census
    if mode not in ("sum", "diff"):
        raise ParameterError(f"unknown mode {mode!r}")
    elems = family.union_elements()
    keys, decode = canonical_keys([e.value for e in elems])
    _, groups = _repeated_pairs(keys, mode)
    records = []
    predicted = anomalies = 0
    for value in sorted(groups):
        reps = tuple((elems[i], elems[j]) for i, j in sorted(groups[value]))
        classification, pattern, part_pair = _classify_collision(reps, family, mode)
        if classification == "PREDICTED":
            predicted += 1
        else:
            anomalies += 1
        records.append(
            CollisionRecord(decode(value, mode), reps, part_pair, classification, pattern)
        )
    return CensusReport(
        mode=mode,
        n_elements=len(elems),
        records=records,
        predicted=predicted,
        anomalies=anomalies,
    )


def _family_mode(family: SetFamily) -> str:
    """The repetition a code family is certified against: sums for the
    hadamard-code family W, differences for its star-code twin."""
    if family.kind == "W":
        return "sum"
    if family.kind == "Wcirc":
        return "diff"
    raise ParameterError(f"needs a W or Wcirc family, not {family.kind!r}")


def _classify_collision(reps, family, mode):
    if mode != _family_mode(family):
        if part_pair := _is_swap_pattern(reps, mode):
            return "PREDICTED", "swap", part_pair
    elif part_pair := _is_diagonal_pattern(reps, family.code.vectors, mode):
        return "PREDICTED", "diagonal", part_pair
    elif family.kind == "Wcirc" and (part_pair := _is_agreement_pattern(reps)):
        return "PREDICTED", "agreement", part_pair
    return "ANOMALY", "unmatched", None


def _is_agreement_pattern(reps):
    """The sorted parts of within-part differences of one tuple pair,
    repeated across every part whose own coordinate agrees between the two
    tuples; None if the representations are not of that form."""
    point_pairs = set()
    parts = []
    for a, b in reps:
        if a.vector_index != b.vector_index:
            return None
        if a.point == b.point:
            return None
        j = a.vector_index
        if a.point.coords[j - 1] != b.point.coords[j - 1]:
            return None
        parts.append(j)
        point_pairs.add((a.point, b.point))
    if len(point_pairs) != 1 or len(set(parts)) != len(parts):
        return None
    return tuple(sorted(parts))


def _is_diagonal_pattern(reps, vectors, mode):
    """The part pair (i, j) shared by representations {phi(y).v_i,
    phi(y).v_j}, i != j, whose tuples agree where v_i +- v_j is nonzero;
    None if the representations are not of that form."""
    first_pair = None
    supp = None
    ref_coords = None
    for a, b in reps:
        if mode == "sum" and a.vector_index > b.vector_index:
            a, b = b, a
        if a.point != b.point:
            return None
        pair = (a.vector_index, b.vector_index)
        if pair[0] == pair[1]:
            return None
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
            return None
        if any(a.point.coords[c] != ref_coords[c] for c in supp):
            return None
    return first_pair


def _is_swap_pattern(reps, mode):
    """The part pair of two representations (phi(y).v_i, phi(z).v_j) and
    (phi(z).v_h, phi(y).v_m) with y != z whose parts are crossed, h = i !=
    j = m, or, for differences only, within two parts, i = j != h = m;
    None if they are not. A sum's second pair is also tried reversed, and
    its part pair is reported sorted."""
    if len(reps) != 2:
        return None
    (a, b), second = reps
    for c, d in (second, second[::-1]) if mode == "sum" else (second,):
        if a.point == d.point and b.point == c.point and a.point != b.point:
            i, j, h, m = a.vector_index, b.vector_index, c.vector_index, d.vector_index
            if i == h and j == m and i != j:
                return tuple(sorted((i, j))) if mode == "sum" else (i, j)
            if mode == "diff" and i == j and h == m and i != h:
                return i, h
    return None


# -- subset doubling audit -----------------------------------------------------


class AuditResult(NamedTuple):
    mode: str
    n_elements: int
    subsets_examined: int
    min_sum_ratio: Fraction
    min_diff_ratio: Fraction
    argmin_sum: list
    argmin_diff: list


def subset_doubling_audit(
    elements, mode: str, *, min_size: int = 4, trials: int = 1000, seed: int = 0,
    max_size: int | None = None,
) -> AuditResult:
    """Minimum |A'+A'| / |A'|^2 and |A'-A'| / |A'|^2 over subsets A'.

    ``exhaustive`` examines every subset of size >= min_size (|A| <= 20)
    by a depth-first walk that adds elements in increasing index order
    (``_exhaustive_minima``): each subset costs O(1) bitset operations on
    its parent's sumset and difference set, and the walk holds O(n) state
    beside per-element tables of O(n * 2^(n/2)) ints. ``sample`` draws
    ``trials`` subsets of uniform size in [min_size, max_size] from a
    seeded generator and counts each one's sums and positive differences
    once, exactly, on its int keys in descending order. Memory stays
    O(|A'|^2) per draw.

    Ratios are exact Fractions; |A'-A'| includes zero. The argmin is the
    first minimum in examination order: in mask order (bit i for element
    i) when exhaustive, so a tie goes to the smaller mask, and in draw
    order when sampled.
    """
    items = list(elements)
    keys, _ = canonical_keys(items)
    n = len(keys)
    if min_size < 2:
        raise ParameterError("min_size must be >= 2")
    if n < min_size:
        raise ParameterError("fewer elements than min_size")

    if mode == "exhaustive":
        if n > EXHAUSTIVE_AUDIT_LIMIT:
            raise ResourceCap(
                f"exhaustive audit limited to {EXHAUSTIVE_AUDIT_LIMIT} elements"
            )
        examined, (best_sum, argmin_sum), (best_diff, argmin_diff) = _exhaustive_minima(
            keys, min_size
        )
    elif mode == "sample":
        hi = min(max_size if max_size is not None else n, n)
        if hi < min_size:
            raise ParameterError("max_size below min_size")
        if trials < 1:
            raise ParameterError("trials must be >= 1")
        examined = trials
        order, desc = _descending(keys)
        rank = sorted(range(n), key=order.__getitem__)  # each index's row in desc
        best = [[1, 0, ()], [1, 0, ()]]  # num, den, draw of sums, differences; 1/0 > all
        rng = random.Random(seed)
        for _ in range(trials):
            s = rng.randint(min_size, hi)
            indices = sorted(rng.sample(range(n), s))
            draw = [desc[t] for t in sorted(map(rank.__getitem__, indices))]  # descending
            for entry, kind, extra, factor in zip(best, ("sum", "diff"), (0, 1), (1, 2)):
                num, den, _ = entry
                size = extra + factor * len(set(_pair_values(draw, kind)))
                if size * den < num * s * s:
                    entry[:] = size, s * s, indices
        (best_sum, argmin_sum), (best_diff, argmin_diff) = [(Fraction(a, b), d) for a, b, d in best]
    else:
        raise ParameterError(f"unknown audit mode {mode!r}")

    return AuditResult(
        mode=mode,
        n_elements=n,
        subsets_examined=examined,
        min_sum_ratio=best_sum,
        min_diff_ratio=best_diff,
        argmin_sum=[items[i] for i in argmin_sum],
        argmin_diff=[items[i] for i in argmin_diff],
    )


def _exhaustive_minima(keys, min_size):
    """The exhaustive audit: the number of subsets examined, and (ratio,
    index list) of the first minimum in mask order for sums and for
    differences.

    A subset's sums and positive differences are Python-int bitsets over
    the pair ids of ``_pair_id_tables``. The walk adds element x to a set
    S of smaller indices, so S + {x} gains the bit of x+x and the cross
    bits of x with S, read from two tables indexed by the low and the
    high half of S's mask: lo[m][x] holds the bit of x+x and the bits of
    x with the elements of m, hi[m][x] those of x with the elements of
    m << half. Then |S+S| is a popcount and |S-S| is 1 + 2 * popcount.
    At a fixed size the ratio falls with the popcount, so the walk keeps,
    per size, the least popcount and its smallest mask; the sizes are
    compared by cross-multiplying at the end, ties again to the smaller
    mask.
    """
    n = len(keys)
    half = n // 2
    low = (1 << half) - 1
    sum_ids, diff_ids = _pair_id_tables(keys)
    sum_lo = _cross_bits(sum_ids, 0, half, self_bits=True)
    sum_hi = _cross_bits(sum_ids, half, n - half, self_bits=False)
    diff_lo = _cross_bits(diff_ids, 0, half, self_bits=False)
    diff_hi = _cross_bits(diff_ids, half, n - half, self_bits=False)
    # best[s] = [least sum popcount, its mask, least diff popcount, its mask]
    best = [[n * n, 0, n * n, 0] for _ in range(n + 1)]
    examined = 0

    def walk(start, mask, size, sums, diffs):
        nonlocal examined
        size += 1
        s_lo, s_hi = sum_lo[mask & low], sum_hi[mask >> half]
        d_lo, d_hi = diff_lo[mask & low], diff_hi[mask >> half]
        scored = size >= min_size
        if scored:
            examined += n - start
            sc, sm, dc, dm = best[size]
        for x in range(start, n):
            grown = mask | 1 << x
            s_bits = sums | s_lo[x] | s_hi[x]
            d_bits = diffs | d_lo[x] | d_hi[x]
            if scored:
                c = s_bits.bit_count()
                if c < sc or c == sc and grown < sm:
                    sc, sm = c, grown
                c = d_bits.bit_count()
                if c < dc or c == dc and grown < dm:
                    dc, dm = c, grown
            if x + 1 < n:
                walk(x + 1, grown, size, s_bits, d_bits)
        if scored:
            best[size] = [sc, sm, dc, dm]

    walk(0, 0, 0, 0, 0)
    sizes = range(min_size, n + 1)
    sum_min = _first_minimum((best[s][0], s * s, best[s][1]) for s in sizes)
    diff_min = _first_minimum((1 + 2 * best[s][2], s * s, best[s][3]) for s in sizes)
    return examined, sum_min, diff_min


def _first_minimum(candidates):
    """(Fraction, index list) of the least num/den among (num, den, mask)
    candidates, the smaller mask on a tie."""
    num, den, mask = next(candidates)
    for c_num, c_den, c_mask in candidates:
        lhs, rhs = c_num * den, num * c_den
        if lhs < rhs or lhs == rhs and c_mask < mask:
            num, den, mask = c_num, c_den, c_mask
    return Fraction(num, den), [i for i in range(mask.bit_length()) if mask >> i & 1]


def _cross_bits(ids, offset, width, self_bits):
    """2^width rows of pair-id bits: entry [m][x] ORs the bits of the
    pairs of x with each element offset + i, i in m, plus the bit of x+x
    when ``self_bits``."""
    n = len(ids)
    rows = [[1 << ids[x][x] if self_bits else 0 for x in range(n)]]
    for m in range(1, 1 << width):
        # m is m & (m - 1) plus its lowest bit, element offset + i
        col = offset + (m & -m).bit_length() - 1
        rows.append([b | 1 << ids[x][col] for x, b in enumerate(rows[m & (m - 1)])])
    return rows


def _pair_id_tables(keys):
    """Intern pair sums and positive differences as small integer ids, in
    one symmetric n x n table per mode. Used only by the exhaustive audit,
    where n <= EXHAUSTIVE_AUDIT_LIMIT keeps both tables tiny."""
    n = len(keys)
    order, desc = _descending(keys)
    tables = []
    for mode in ("sum", "diff"):
        ids: dict = {}
        table = [[0] * n for _ in range(n)]
        for value, (i, j) in zip(_pair_values(desc, mode), _pair_positions(order, mode)):
            table[i][j] = table[j][i] = ids.setdefault(value, len(ids))
        tables.append(table)
    return tables
