import inspect
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import b2sets
import b2sets.analyze as analyze
from b2sets.analyze import (
    RESIDUE_PRIME,
    AuditResult,
    _family_mode,
    additive_energy,
    canonical_key,
    canonical_keys,
    collision_census,
    family_sumset_disjointness,
    is_b2,
    is_b2_circ,
    rep_profile,
    subset_doubling_audit,
)
from b2sets.cli import main
from b2sets.construct import Part, SetFamily, build_product, build_w, build_w_circ, f2_embed
from b2sets.decompose import exact_min_union, greedy_union
from b2sets.digitnum import DigitVector
from b2sets.errors import EmptyConstruction, ParameterError, ResourceCap

from oracles import _classify_collision as reference_classify_collision
from oracles import (
    brute_audit,
    brute_disjointness,
    brute_energy_minus,
    brute_energy_plus,
    brute_energy_quadruples,
    brute_is_b2,
    brute_is_b2_circ,
    diff_counts_ordered,
    exact_sampled_audit,
    diffset,
    is_prime,
    sum_counts_unordered,
    sumset,
)


def _oracle_counts(elements, mode):
    """Brute-force counts in the profile's convention: unordered sums, or
    ordered differences in positive orientation."""
    if mode == "sum":
        return sum_counts_unordered(elements)
    zero = tuple(0 for _ in elements[0]) if isinstance(elements[0], tuple) else 0
    return {v: c for v, c in diff_counts_ordered(elements).items() if v > zero}


def _assert_matches_oracle(prof, elements):
    oracle = _oracle_counts(elements, prof.mode)
    repeated = {v: c for v, c in oracle.items() if c >= 2}
    assert {v: len(pairs) for v, pairs in prof.repeated.items()} == repeated
    assert prof.distinct_values == len(oracle)
    assert prof.max_count == max(oracle.values(), default=0)


class TestRepProfile:
    def test_sum_example(self):
        prof = rep_profile([0, 1, 2, 3], "sum")
        # all 10 unordered pairs enumerated by hand
        assert prof.total_pairs == 10
        assert {v: sorted(pairs) for v, pairs in prof.repeated.items()} == {
            2: [(0, 2), (1, 1)],
            3: [(0, 3), (1, 2)],
            4: [(1, 3), (2, 2)],
        }
        assert prof.distinct_values == 7
        assert prof.max_count == 2
        _assert_matches_oracle(prof, [0, 1, 2, 3])

    def test_sidon_sum(self):
        prof = rep_profile([1, 2, 5, 11], "sum")
        assert prof.max_count == 1
        assert prof.distinct_values == 10
        assert prof.repeated == {}
        _assert_matches_oracle(prof, [1, 2, 5, 11])

    def test_diff_example(self):
        prof = rep_profile([0, 1, 2], "diff")
        # 1 = 1-0 = 2-1 (the -1 class mirrors it); 2 = 2-0 occurs once
        assert {v: sorted(pairs) for v, pairs in prof.repeated.items()} == {1: [(1, 0), (2, 1)]}
        assert prof.distinct_values == 2
        assert prof.max_count == 2
        _assert_matches_oracle(prof, [0, 1, 2])

    def test_diff_witness_pairs(self):
        prof = rep_profile([0, 1, 2], "diff")
        w = prof.witnesses[0]
        assert w.value == 1
        assert set(w.pairs) == {(1, 0), (2, 1)}

    def test_matches_oracle_random_sets(self):
        rng = random.Random(3)
        for _ in range(20):
            vals = list({rng.randint(-40, 40) for _ in range(rng.randint(1, 25))})
            for mode in ("sum", "diff"):
                _assert_matches_oracle(rep_profile(vals, mode), vals)

    def test_rejects_duplicates(self):
        with pytest.raises(ParameterError):
            rep_profile([1, 1], "sum")


class TestPlanarKeys:
    """Planar points become ints by an order-preserving map."""

    def test_order_sign_and_decoding(self):
        rng = random.Random(5)
        pts = list({(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(60)})
        keys, decode = canonical_keys(pts)
        assert sorted(pts) == [p for _, p in sorted(zip(keys, pts))]
        for (a, ka), (b, kb) in zip(zip(pts, keys), zip(pts[1:], keys[1:])):
            assert decode(ka + kb, "sum") == (a[0] + b[0], a[1] + b[1])
            d = (a[0] - b[0], a[1] - b[1])
            assert decode(ka - kb, "diff") == d
            assert (ka > kb) == (d > (0, 0))

    def test_product_keys_are_the_normalised_images(self):
        # Every f2_embed image is a multiple of its base, so the gcd of the
        # image differences is one too, and (image - min) // gcd keeps
        # every relation: product(5,19)'s keys shrink from 874 to 485 bits,
        # and each sum and difference still decodes to its point.
        points = [tuple(map(int, p)) for p in build_product(5, 19).union_values()]
        keys, decode = canonical_keys(points)
        emb = f2_embed([p[::-1] for p in points])
        low = min(emb.image)
        step = math.gcd(*(k - low for k in emb.image))
        assert step % emb.base == 0
        assert max(k.bit_length() for k in emb.image) == 874
        assert keys == [(k - low) // step for k in emb.image]
        assert max(k.bit_length() for k in keys) == 485
        assert [decode(k + k, "sum") for k in keys] == [(2 * x, 2 * y) for x, y in points]
        for (a, ka), (b, kb) in zip(zip(points, keys), zip(points[7:], keys[7:])):
            assert decode(ka + kb, "sum") == (a[0] + b[0], a[1] + b[1])
            assert decode(ka - kb, "diff") == (a[0] - b[0], a[1] - b[1])
        assert canonical_keys([(0, 0)])[0] == [0]
        assert canonical_keys([(3, 4)])[1](0, "diff") == (0, 0)

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(ParameterError):
            canonical_keys([1, (2, 3)])

    def test_each_distinct_coordinate_is_converted_once(self, monkeypatch):
        # a product's points share their coordinates; the first point here
        # holds equal copies, which are the same coordinates by value
        points = build_product(3, 8).union_values()
        points[0] = tuple(DigitVector(c.digits) for c in points[0])
        want = [canonical_key(p) for p in points]
        distinct = {c for p in points for c in p}
        assert len(distinct) < len(points)
        conversions = []
        to_integer = DigitVector.to_integer

        def counted(self):
            conversions.append(self)
            return to_integer(self)

        monkeypatch.setattr(DigitVector, "to_integer", counted)
        assert analyze._canonical_points(points) == want
        assert sorted(map(repr, conversions)) == sorted(map(repr, distinct))


def _seeded_ints(n, seed):
    return random.Random(seed).sample(range(-2 * n, 2 * n), n)


def _seeded_points(n, seed):
    box = [(x, y) for x in range(-20, 20) for y in range(-20, 20)]
    return random.Random(seed).sample(box, n)


def _dilated(elements, factor):
    """The elements times ``factor``: a Freiman isomorphism of every order,
    so every count is kept while the span grows by the factor."""
    return [tuple(factor * c for c in x) if isinstance(x, tuple) else factor * x for x in elements]


def _with_outlier(elements):
    """The elements with the last one moved far out along the first axis:
    nearly every pair value still repeats, but the span is far past the
    dense gate, and no gcd of the differences undoes it."""
    last = elements[-1]
    far = (10**6, *last[1:]) if isinstance(last, tuple) else 10**6
    return elements[:-1] + [far]


def _random_keys(n, seed, bits=100):
    """n distinct seeded random keys of ``bits`` bits: their pair values
    are all distinct, and far too wide for the dense product."""
    rng = random.Random(seed)
    keys = list({rng.getrandbits(bits) for _ in range(n)})
    assert len(keys) == n
    return keys


def _dense(elements, mode="sum"):
    """True iff the elements' pair values are counted by one big-int product."""
    keys, _ = canonical_keys(elements)
    return analyze._dense_counts(sorted(keys, reverse=True), mode) is not None


def _residue(value):
    if isinstance(value, tuple):
        return tuple(c % RESIDUE_PRIME for c in value)
    return value % RESIDUE_PRIME


_P = RESIDUE_PRIME
# Elements whose keys share residues mod RESIDUE_PRIME, so that many
# distinct pair values share a residue. Planar keys are linear in the
# coordinates, so points whose coordinates differ by multiples of the
# prime have keys that differ by a multiple of it.
RESIDUE_TWINS = {
    "ints": [0, 1, _P + 1, 2 * _P + 1, -_P, -_P + 1, -3 * _P + 2, 2, _P + 2, 5 * _P],
    "points": [
        (0, 0), (_P, 0), (0, _P), (1, 1), (_P + 1, 1 - _P),
        (-_P, 2), (2 * _P, -_P), (1, 2 * _P + 1), (-1, 0), (_P - 1, 3 * _P),
    ],
}


class TestResiduePrime:
    def test_is_a_prime_with_primitive_root_2_and_uint32_sums(self):
        assert [n for n in range(60) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59
        ]
        assert not is_prime(561 * 1105)  # a product of Carmichael numbers
        p = RESIDUE_PRIME
        assert is_prime(p)
        # a residue plus a residue, or plus p minus one, never wraps a uint32
        assert 2 * p < 2**32
        # 2 has order p - 1: 2^((p-1)/q) != 1 for every prime q | p - 1
        factors, m, q = set(), p - 1, 2
        while q * q <= m:
            while m % q == 0:
                factors.add(q)
                m //= q
            q += 1
        factors.add(m)
        assert factors == {2, 3, 59652323}
        assert all(pow(2, (p - 1) // q, p) != 1 for q in factors)

    def test_second_prime_is_another_prime_with_primitive_root_2(self):
        # A pair flagged mod RESIDUE_PRIME is counted as an int only if its
        # residue mod SECOND_PRIME also repeats; two distinct values share
        # both residues only if p * q divides their difference.
        q = analyze.SECOND_PRIME
        assert q == 2**31 - 61 != RESIDUE_PRIME
        assert is_prime(q)
        assert 2 * q < 2**32
        factors = {2, 3, 357913931}
        assert math.prod(factors) == q - 1 and all(map(is_prime, factors))
        assert all(pow(2, (q - 1) // f, q) != 1 for f in factors)

    def test_sums_of_powers_of_two_keep_distinct_residues(self):
        # Mod 2^61 - 1, the modulus of Python's int hash, 2^i is 2^(i mod
        # 61), and these 245,350 sums share 1,891 residues.
        powers = [pow(2, i, RESIDUE_PRIME) for i in range(700)]
        residues = {(a + b) % RESIDUE_PRIME for i, a in enumerate(powers) for b in powers[i:]}
        assert len(residues) >= 0.95 * (700 * 701 // 2)


class TestCountingPaths:
    """The residue path and the full value map must agree exactly."""

    # 640 elements give 205,120 sum pairs and 204,480 difference pairs,
    # just above FULL_MAP_PAIR_LIMIT.
    N = 640

    @pytest.mark.parametrize("mode", ["sum", "diff"])
    @pytest.mark.parametrize("make", [_seeded_ints, _seeded_points])
    def test_surrogate_matches_full_map(self, make, mode, monkeypatch):
        import b2sets.analyze as analyze

        elements = make(self.N, seed=17)
        surrogate = rep_profile(elements, mode)
        assert surrogate.total_pairs > analyze.FULL_MAP_PAIR_LIMIT
        monkeypatch.setattr(analyze, "FULL_MAP_PAIR_LIMIT", surrogate.total_pairs)
        full = rep_profile(elements, mode)
        assert full.max_count == surrogate.max_count > 1
        assert full.distinct_values == surrogate.distinct_values
        assert full.witnesses == surrogate.witnesses
        assert list(full.repeated.items()) == list(surrogate.repeated.items())

    @pytest.mark.parametrize("make", [_seeded_ints, _seeded_points])
    def test_energy_paths_agree(self, make, monkeypatch):
        # With one element moved far out, the seeded ints span over 1500|A|,
        # past the dense gate, so the residue path and the full value map
        # are compared; a dilation would not get past it, since _int_keys
        # divides it out.
        elements = _with_outlier(make(self.N, seed=23))
        assert not _dense(elements)
        surrogate = additive_energy(elements)
        monkeypatch.setattr(analyze, "FULL_MAP_PAIR_LIMIT", self.N * self.N)
        assert additive_energy(elements) == surrogate

    def test_dense_energy_matches_both_kernel_paths(self, monkeypatch):
        elements = _seeded_ints(self.N, seed=23)
        assert _dense(elements)
        dense = additive_energy(elements)
        assert additive_energy(_dilated(elements, 25)) == dense
        monkeypatch.setattr(analyze, "DENSE_SPAN_FACTOR", -1)
        assert additive_energy(elements) == dense
        monkeypatch.setattr(analyze, "FULL_MAP_PAIR_LIMIT", self.N * self.N)
        assert additive_energy(elements) == dense

    @pytest.mark.parametrize("mode", ["sum", "diff"])
    @pytest.mark.parametrize("name", sorted(RESIDUE_TWINS))
    def test_residue_twins_are_told_apart(self, name, mode, monkeypatch):
        # Distinct pair values that share a residue mod RESIDUE_PRIME are
        # flagged together and must still be counted apart. The limit is
        # 0, so the residue path runs on a handful of elements.
        elements = RESIDUE_TWINS[name]
        full = rep_profile(elements, mode)
        energy = additive_energy(elements)
        values = _oracle_counts(elements, mode)
        assert len(set(map(_residue, values))) < len(values)
        monkeypatch.setattr(analyze, "FULL_MAP_PAIR_LIMIT", 0)
        residue = rep_profile(elements, mode)
        _assert_matches_oracle(residue, elements)
        assert residue.max_count == full.max_count
        assert residue.distinct_values == full.distinct_values
        assert residue.witnesses == full.witnesses
        assert list(residue.repeated.items()) == list(full.repeated.items())
        assert additive_energy(elements) == energy

    @pytest.mark.parametrize("mode", ["sum", "diff"])
    def test_false_residue_collisions_are_counted_apart(self, mode, monkeypatch):
        # 1,000 random 100-bit keys have 500,500 distinct sums (499,500
        # differences), and mod the 31-bit prime about N^2/(2p) of those
        # pairs of distinct values still share a residue: the residue path
        # must count them apart.
        import numpy as np

        keys = _random_keys(1000, seed=1)
        desc = sorted(keys, reverse=True)
        total = analyze._pair_total(len(keys), mode)
        values = list(analyze._pair_values(desc, mode))
        assert len(set(values)) == total > analyze.FULL_MAP_PAIR_LIMIT
        residues = np.array([v % RESIDUE_PRIME for v in values], dtype=np.uint32)
        assert len(np.unique(residues)) < total
        counts, distinct, groups = analyze._count_values(desc, mode, list(range(len(keys))))
        assert (counts, distinct, groups) == ({}, total, {})
        surrogate = rep_profile(keys, mode)
        monkeypatch.setattr(analyze, "FULL_MAP_PAIR_LIMIT", total)
        assert rep_profile(keys, mode) == surrogate
        assert surrogate.distinct_values == total and surrogate.max_count == 1

    @pytest.mark.parametrize("mode", ["sum", "diff"])
    def test_false_flags_build_almost_no_ints(self, mode, monkeypatch):
        # 3,000 random 100-bit keys: 4,501,500 sums or 4,498,500
        # differences, all distinct. About N^2/p of those pairs share a
        # residue mod RESIDUE_PRIME with another; a residue mod SECOND_PRIME
        # tells them apart before any int is built. Every pair value the
        # kernel builds goes through analyze.add or analyze.sub.
        desc = sorted(_random_keys(3000, seed=4), reverse=True)
        built = []
        for name in ("add", "sub"):
            op = getattr(analyze, name)
            monkeypatch.setattr(analyze, name, lambda a, b, op=op: built.append(1) or op(a, b))
        total = analyze._pair_total(len(desc), mode)
        assert analyze._count_values(desc, mode) == ({}, total, {})
        assert len(built) < 100

    @pytest.mark.parametrize("mode", ["sum", "diff"])
    def test_residue_memory_is_fixed(self, mode):
        # 6,000 random 100-bit keys: 18,003,000 sums or 17,997,000
        # differences, none repeated. One residue range of at most 2^17
        # pairs, the kernel's cap, is held at a time; numpy reports its buffers
        # to tracemalloc. Their residues alone would be 72 MB as uint32.
        import numpy  # noqa: F401  (loaded before tracing)

        desc = sorted(_random_keys(6000, seed=2), reverse=True)
        total = analyze._pair_total(len(desc), mode)
        tracemalloc.start()
        try:
            counts, distinct, _ = analyze._count_values(desc, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (counts, distinct) == ({}, total)
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("mode", ["sum", "diff"])
    def test_repeats_span_several_ranges(self, mode):
        # range(800) has 320,400 sums and 319,600 differences, more than
        # two ranges of 2^17 pairs, the kernel's cap, and every value but the
        # extreme ones repeats: a pair lost or counted twice where two
        # ranges meet changes the counts or the number of distinct values.
        desc = list(range(799, -1, -1))
        assert analyze._pair_total(800, mode) > 2 * 2**17
        full = Counter(analyze._pair_values(desc, mode))
        counts, distinct, _ = analyze._count_values(desc, mode)
        assert counts == {v: c for v, c in full.items() if c >= 2}
        assert distinct == len(full)

    @pytest.mark.parametrize("mode", ["sum", "diff"])
    @pytest.mark.parametrize(
        "elements",
        [
            _dilated(_seeded_ints(800, seed=8), 25),
            _seeded_points(800, seed=8),
            build_w(3, 40).union_values(),
            build_w_circ(5, 32).union_values(),
            _random_keys(800, seed=8, bits=40),
        ],
        ids=["ints", "points", "W", "Wcirc", "random"],
    )
    def test_ranges_match_the_full_map(self, elements, mode, monkeypatch):
        # Each set has more than 2 * 2^17 pairs, so it spans several ranges
        # of the kernel's cap. The profile lists every repeated value with
        # its pairs: the dict's key order and each value's pair order must
        # be the full map's, so reports keep their bytes; the energy and
        # verdicts must agree too.
        full = rep_profile(elements, mode), additive_energy(elements)
        verdicts = [check(elements, 2) for check in (is_b2, is_b2_circ)]
        monkeypatch.setattr(analyze, "FULL_MAP_PAIR_LIMIT", 0)
        monkeypatch.setattr(analyze, "DENSE_SPAN_FACTOR", -1)
        assert analyze._pair_total(len(elements), mode) > 2 * 2**17
        ranged = rep_profile(elements, mode), additive_energy(elements)
        assert ranged == full
        assert list(ranged[0].repeated.items()) == list(full[0].repeated.items())
        assert [check(elements, 2) for check in (is_b2, is_b2_circ)] == verdicts

    @pytest.mark.parametrize("mode", ["sum", "diff"])
    def test_near_dilated_keys_are_counted_exactly(self, mode):
        # Keys P*x + (x mod 3) have gcd 1, so _int_keys keeps them, with
        # three residues: their 499,500 or 500,500 pairs share five or
        # three keys, some over the cap of 2^17 pairs: single-key ranges,
        # sorted and filtered whole. A pure dilation by P is undone by
        # _int_keys, and its values decode to the dilated ones.
        elements = _seeded_ints(1000, seed=9)
        keys, _ = canonical_keys([RESIDUE_PRIME * x + x % 3 for x in elements])
        order, desc = analyze._descending(keys)
        counts, distinct, groups = analyze._residue_counts(desc, mode, order)
        full = Counter(analyze._pair_values(desc, mode))
        assert counts == {v: c for v, c in full.items() if c >= 2}
        assert distinct == len(full)
        assert list(groups.items()) == list(
            analyze._pair_groups(order, desc, mode, set(counts)).items()
        )
        keys, decode = canonical_keys(_dilated(elements, RESIDUE_PRIME))
        order, desc = analyze._descending(keys)
        groups = analyze._residue_counts(desc, mode, order)[2]
        dense = rep_profile(elements, mode)
        assert [(decode(v, mode), pairs) for v, pairs in groups.items()] == [
            (RESIDUE_PRIME * v, pairs) for v, pairs in dense.repeated.items()
        ]

    @pytest.mark.parametrize("mode", ["sum", "diff"])
    def test_dilated_keys_work_in_fixed_memory(self, mode):
        # 2,000 random 60-bit keys times RESIDUE_PRIME all have residue 0,
        # but _int_keys reduces them to (k - min) // gcd, whose residues
        # spread as the undilated keys' do. Unreduced, one range held all
        # 2M pairs: about 140 MB of numpy arrays, which report to tracemalloc.
        import numpy  # noqa: F401  (loaded before tracing)

        keys, _ = canonical_keys(_dilated(_random_keys(2000, seed=6, bits=60), RESIDUE_PRIME))
        desc = sorted(keys, reverse=True)
        total = analyze._pair_total(len(desc), mode)
        tracemalloc.start()
        try:
            counts, distinct, _ = analyze._count_values(desc, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (counts, distinct) == ({}, total)
        assert peak < 8 * 2**20

    @pytest.mark.parametrize("mode", ["sum", "diff"])
    def test_several_crowded_keys_are_counted_exactly(self, mode):
        # Keys P*i + (i mod 3), 520 of each residue, so their 1.2M pairs
        # share five or three keys, each over the cap of 2^17 pairs,
        # between ranges of no pairs at all.
        keys = [RESIDUE_PRIME * i + i % 3 for i in range(-780, 780)]
        order, desc = analyze._descending(keys)
        counts, distinct, groups = analyze._residue_counts(desc, mode, order)
        full = Counter(analyze._pair_values(desc, mode))
        assert counts == {v: c for v, c in full.items() if c >= 2}
        assert distinct == len(full)
        assert list(groups.items()) == list(
            analyze._pair_groups(order, desc, mode, set(counts)).items()
        )

    @pytest.mark.parametrize("mode", ["sum", "diff"])
    def test_ranges_without_a_repeated_key(self, mode):
        # The Erdos-Turan Sidon set 2qi + (i^2 mod q), i < q = 701: its
        # 246,051 sums and 245,350 differences are distinct and below p,
        # so no range of the kernel holds a repeated key.
        q = 701
        desc = sorted((2 * q * i + i * i % q for i in range(q)), reverse=True)
        total = analyze._pair_total(q, mode)
        assert total > 2**17
        assert analyze._count_values(desc, mode, list(range(q))) == ({}, total, {})

    def test_an_empty_pair_list_takes_the_residue_path(self, monkeypatch):
        # one element has no differences: no range holds a pair
        assert analyze._residue_counts([7], "diff", [0]) == ({}, 0, {})
        monkeypatch.setattr(analyze, "FULL_MAP_PAIR_LIMIT", -1)
        prof = rep_profile([7], "diff")
        assert (prof.total_pairs, prof.distinct_values, prof.max_count) == (0, 0, 0)

    @pytest.mark.parametrize("mode", ["sum", "diff"])
    @pytest.mark.parametrize("family", [build_w(3, 10), build_w_circ(3, 12)], ids=["W", "Wcirc"])
    def test_census_paths_agree(self, family, mode, monkeypatch):
        full = collision_census(family, mode)
        monkeypatch.setattr(analyze, "FULL_MAP_PAIR_LIMIT", 0)
        assert collision_census(family, mode) == full
        assert full.records

    def test_small_calls_do_not_import_numpy(self):
        # numpy serves only the residue path, which no call below
        # FULL_MAP_PAIR_LIMIT pairs reaches, nor any dense call: range(1500)
        # has 1.1M pairs.
        code = (
            "import random, sys\n"
            "import b2sets\n"
            "from b2sets.analyze import additive_energy, is_b2, is_b2_circ\n"
            "for values in (random.Random(1).sample(range(10**6), 300), range(1500)):\n"
            "    is_b2(values, 2), is_b2_circ(values, 2), additive_energy(values)\n"
            "print('numpy' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(b2sets.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("mode", ["sum", "diff"])
    def test_census_values_are_repeated_values(self, mode):
        family = build_w(3, 12)
        census = collision_census(family, mode)
        prof = rep_profile(family.union_values(), mode)
        repeated = {v: len(pairs) for v, pairs in prof.repeated.items()}
        assert {r.value: len(r.reps) for r in census.records} == repeated
        assert repeated


def _dense_sweep_sets():
    """Seeded sets whose width straddles the dense gate, tiny sets, planar
    points, and the sizes at which the slots grow from 1 to 2 bytes."""
    rng = random.Random(16)
    sets = [[5], [-3, 4], [0, 1, 3], [-2, -1, 0], [(0, 0)], [(0, 0), (1, -1)]]
    for n in (4, 30, 120):
        for width in (1, 2, 3, 5, 8, 12, 16, 20, 23, 24, 25, 26, 30):
            low = -(width * n) // 2
            inner = rng.sample(range(low + 1, low + width * n), n - 2)
            sets.append([low + width * n, *inner, low])
    sets.append([(x, y) for x in range(-3, 3) for y in range(-2, 4)])
    box = [(x, y) for x in range(-6, 7) for y in range(-6, 7)]
    sets += [rng.sample(box, k) for k in (10, 40, 120)]
    sets += [list(range(-130, n - 130)) for n in (254, 255, 256)]
    return sets


class TestDenseRoute:
    """One big-int product per call must count exactly what the kernel and
    the brute-force oracles count."""

    @staticmethod
    def _results(elements):
        verdicts = [check(elements, g) for check in (is_b2, is_b2_circ) for g in (1, 2, 3, 10**6)]
        return verdicts, additive_energy(elements)

    def test_agrees_with_kernel_paths_and_oracles(self, monkeypatch):
        sets = _dense_sweep_sets()
        dense = [self._results(elements) for elements in sets]
        assert sum(map(_dense, sets)) > len(sets) // 2
        assert not all(map(_dense, sets))
        assert any(_dense(e) for e in sets if isinstance(e[0], tuple))
        for elements, (verdicts, energy) in zip(sets, dense):
            checks = [("sum", brute_is_b2), ("diff", brute_is_b2_circ)]
            for (mode, brute), row in zip(checks, (verdicts[:4], verdicts[4:])):
                oracle = _oracle_counts(elements, mode)
                top = max(oracle.values(), default=0)
                value = min((v for v, c in oracle.items() if c == top), default=None)
                for g, verdict in zip((1, 2, 3, 10**6), row):
                    assert verdict.passed == brute(elements, g) == (top <= g)
                    assert verdict.max_count == top
                    assert verdict.witness is None or verdict.witness.value == value
            assert energy.e_plus == brute_energy_plus(elements)
            assert energy.e_minus == brute_energy_minus(elements)
            assert energy.sumset_size == len(sumset(elements))
            assert energy.diffset_size == len(diffset(elements))
        monkeypatch.setattr(analyze, "DENSE_SPAN_FACTOR", -1)
        assert [self._results(elements) for elements in sets] == dense
        monkeypatch.setattr(analyze, "FULL_MAP_PAIR_LIMIT", 0)
        assert [self._results(elements) for elements in sets] == dense

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 254, 255, 256, 1000, 65535])
    def test_closed_forms_of_an_interval(self, n):
        # In range(n) the most frequent unordered sums are n - 2 and n - 1,
        # ceil(n/2) times each; the difference 1 occurs n - 1 times. At
        # 65,535 elements the slots are 4 bytes wide.
        top = (n + 1) // 2
        verdict = is_b2(range(n), 1)
        assert (verdict.passed, verdict.max_count) == (top <= 1, top)
        if not verdict.passed:
            assert verdict.witness.value == 2 * ((n - 1) // 2)
            assert len(verdict.witness.pairs) == verdict.witness.count == top
        verdict = is_b2_circ(range(n), 1)
        assert (verdict.passed, verdict.max_count) == (n <= 2, n - 1)
        if not verdict.passed:
            assert verdict.witness.value == 1
            assert len(verdict.witness.pairs) == verdict.witness.count == n - 1
        if n <= 1000:
            energy = additive_energy(range(n))
            assert energy.e_plus == energy.e_minus == (2 * n**3 + n) // 3
            assert energy.sumset_size == energy.diffset_size == 2 * n - 1

    def test_wide_keys_take_the_kernel(self):
        # [0, 1, 2**4000] spans 2^4000 and 600 powers of two span 2^599: the
        # gate must send them to the kernel before anything span-sized is
        # allocated. The child's timeout turns a hang into a failure.
        code = (
            "import b2sets.analyze as analyze\n"
            "from b2sets.analyze import additive_energy, is_b2, is_b2_circ\n"
            "dense, calls = analyze._dense_counts, []\n"
            "def recording(desc, mode):\n"
            "    calls.append(dense(desc, mode))\n"
            "    return calls[-1]\n"
            "analyze._dense_counts = recording\n"
            "for values in ([0, 1, 2**4000], [2**i for i in range(600)]):\n"
            "    print(is_b2(values, 1).passed, is_b2_circ(values, 1).passed,\n"
            "          additive_energy(values).e_plus)\n"
            "print(len(calls), set(calls))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(b2sets.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        # Sidon sets: E = 2|A|^2 - |A|
        assert proc.stdout.split("\n")[:3] == ["True True 15", "True True 719400", "8 {None}"]


class TestIsB2:
    def test_examples(self):
        assert is_b2([1, 2, 5, 11], 1).passed
        verdict = is_b2([0, 1, 2, 3], 1)
        assert not verdict.passed
        # smallest value attaining the maximal count: 2 = 0+2 = 1+1
        assert verdict.witness.value == 2
        assert verdict.witness.count == 2

    def test_witness_reps_are_real(self):
        verdict = is_b2([0, 1, 2, 3], 1)
        for a, b in verdict.witness.pairs:
            assert a + b == verdict.witness.value

    def test_circ(self):
        assert is_b2_circ([1, 2, 5, 11], 1).passed
        assert not is_b2_circ([0, 1, 2], 1).passed
        assert is_b2_circ([0, 1, 2], 2).passed

    def test_pairs_ambient2(self):
        pts = [(0, 0), (1, 2), (3, 1), (4, 4)]
        assert is_b2(pts, 1).passed == brute_is_b2(pts, 1)
        assert is_b2_circ(pts, 1).passed == brute_is_b2_circ(pts, 1)

    def test_hereditary(self):
        rng = random.Random(11)
        base = list({rng.randint(0, 400) for _ in range(40)})
        g = rep_profile(base, "sum").max_count
        for _ in range(10):
            sub = rng.sample(base, rng.randint(2, len(base)))
            assert is_b2(sub, g).passed

    @staticmethod
    def _agreement_sets():
        rng = random.Random(41)
        sets = [[7], [2**i for i in range(100)], _seeded_points(40, seed=3)]
        for n in (5, 20, 45, 70):
            for span in (2 * n + 4, 10 * n, 10**9):
                sets.append(list({rng.randint(-span, span) for _ in range(n)}))
        return sets

    @pytest.mark.parametrize("limit", ["default", 0])
    def test_verdicts_agree_with_profile_and_brute_force(self, limit, monkeypatch):
        # The verdict reads counts only and looks up its witness's pairs;
        # the profile lists every repeated value's pairs, and the oracles
        # count every pair by brute force. All three must agree, on the
        # full value map and on the residue path.
        if limit != "default":
            monkeypatch.setattr(analyze, "FULL_MAP_PAIR_LIMIT", limit)
        checks = [(is_b2, "sum", brute_is_b2), (is_b2_circ, "diff", brute_is_b2_circ)]
        for elements in self._agreement_sets():
            for check, mode, brute in checks:
                prof = rep_profile(elements, mode)
                oracle = _oracle_counts(elements, mode)
                top = max(oracle.values(), default=0)
                assert prof.max_count == top
                for g in (1, 2, 3):
                    verdict = check(elements, g)
                    assert verdict.passed == brute(elements, g) == (top <= g)
                    assert verdict.max_count == top
                    if verdict.passed:
                        assert verdict.witness is None
                        continue
                    w = verdict.witness
                    assert w == prof.witnesses[0]
                    assert w.value == min(v for v, c in oracle.items() if c == top)
                    assert w.count == top
                    positions = sorted(prof.repeated[w.value])
                    assert w.pairs == tuple((elements[i], elements[j]) for i, j in positions)

    @staticmethod
    def _expected_verdicts(elements):
        expected = {}
        for check, mode in ((is_b2, "sum"), (is_b2_circ, "diff")):
            prof = rep_profile(elements, mode)
            expected[check, 1] = analyze.BVerdict(False, prof.max_count, prof.witnesses[0])
            expected[check, 300] = analyze.BVerdict(True, prof.max_count, None)
        return expected

    @pytest.mark.parametrize("limit", ["default", 0])
    def test_verdicts_list_no_pair_positions(self, limit, monkeypatch):
        # A set that repeats nearly every pair value, so listing their
        # positions costs as much as counting them; the verdict only counts.
        # One element moved far out takes its span past the dense gate.
        elements = _with_outlier(random.Random(13).sample(range(700), 300))
        assert not _dense(elements)
        expected = self._expected_verdicts(elements)

        def no_positions(*args):
            raise AssertionError("pair positions were listed")

        orders = []
        residue_counts = analyze._residue_counts

        def recording(desc, mode, order):
            orders.append(order)
            return residue_counts(desc, mode, order)

        monkeypatch.setattr(analyze, "_pair_groups", no_positions)
        monkeypatch.setattr(analyze, "_residue_counts", recording)
        if limit != "default":
            monkeypatch.setattr(analyze, "FULL_MAP_PAIR_LIMIT", limit)
        for (check, g), verdict in expected.items():
            assert check(elements, g) == verdict
        assert orders == ([] if limit == "default" else [None] * len(expected))

    def test_dense_verdicts_count_no_pair_values(self, monkeypatch):
        # Without the outlier, the same set spans at most 2.4|A|: the
        # verdicts come from one big-int product each, and no pair value is
        # hashed.
        elements = random.Random(13).sample(range(700), 300)
        assert _dense(elements, "sum") and _dense(elements, "diff")
        expected = self._expected_verdicts(elements)

        def no_kernel(*args):
            raise AssertionError("pair values were hashed")

        monkeypatch.setattr(analyze, "_count_values", no_kernel)
        for (check, g), verdict in expected.items():
            assert check(elements, g) == verdict


class TestEnergy:
    def test_frozen_examples(self):
        assert additive_energy([0]).e_plus == 1
        assert additive_energy([0, 1]).e_plus == 6
        assert additive_energy([0, 1, 2]).e_plus == 19

    def test_matches_oracles(self):
        rng = random.Random(7)
        for _ in range(25):
            vals = list({rng.randint(-60, 60) for _ in range(rng.randint(1, 30))})
            rep = additive_energy(vals)
            assert rep.e_plus == brute_energy_plus(vals)
            assert rep.e_minus == brute_energy_minus(vals)
            assert rep.sumset_size == len(sumset(vals))
            assert rep.diffset_size == len(diffset(vals))

    def test_quadruple_convention(self):
        vals = [0, 1, 3, 7]
        assert additive_energy(vals).e_plus == brute_energy_quadruples(vals)

    def test_pairs(self):
        pts = [(0, 0), (1, 2), (3, 1)]
        rep = additive_energy(pts)
        assert rep.e_plus == brute_energy_plus(pts)
        assert rep.e_minus == rep.e_plus

    def test_budget(self, monkeypatch):
        monkeypatch.setattr(analyze, "ENERGY_PAIR_BUDGET", 50)
        with pytest.raises(ResourceCap):
            additive_energy(list(range(100)))
        # the budget bounds a grid's largest axis, and every pair of a set
        # that is not a grid: a 7 x 7 grid fits, the same grid less one
        # point does not
        grid = list(itertools.product(range(7), range(-3, 4)))
        assert additive_energy(grid).n_elements == 49
        with pytest.raises(ResourceCap):
            additive_energy(grid[1:])

    @pytest.mark.parametrize(
        "points",
        [
            [(0,), (1, 2)], [(0, 1), (2,)], [(0, 0), (0, 1, 5)], [(0, 0), 5], [5, (0, 0)],
            [(0, 0), (1, 1), (0, 0)],
        ],
        ids=["ragged", "ragged-short-last", "ragged-fake-grid", "mixed", "mixed-int-first",
             "duplicate"],
    )
    def test_bad_points_are_rejected(self, points):
        # zip(*points) would cut ragged tuples to a two-point "grid"
        with pytest.raises(ParameterError):
            additive_energy(points)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_products_match_enumeration(self, k):
        # every product(k, n) that builds with at most 2,100 points: up to
        # 1,000 against the pair count of the embedded ints, beyond that
        # (36 s of enumeration on two cores) against the factor families
        built = 0
        for n in range(1, 30):
            try:
                points = build_product(k, n, element_cap=2100).union_values()
            except (EmptyConstruction, ResourceCap):
                continue
            built += 1
            assert analyze._grid_axes(list(map(canonical_key, points))) is not None
            rep = additive_energy(points)
            if len(points) <= 1000:
                assert rep == _enumerated_energy(points), n
            assert _energy_fields(rep) == _factor_energy_products(k, n), n
        assert built == {2: 22, 3: 8, 4: 6, 5: 2, 6: 1}[k]

    def test_random_grids_match_enumeration(self):
        rng = random.Random(1017)
        for _ in range(80):
            axes = [rng.sample(range(-40, 41), rng.randint(1, 6)) for _ in range(rng.choice([2, 3]))]
            grid = list(itertools.product(*axes))
            rng.shuffle(grid)
            assert analyze._grid_axes(grid) is not None
            _assert_energy_matches_enumeration(grid)
            if len(grid) < 2:
                continue
            # one point removed, or moved off the grid along one axis
            moved = list(grid[-1])
            axis = rng.randrange(len(moved))
            moved[axis] = rng.choice([c for c in range(-50, 51) if c not in axes[axis]])
            for near in (grid[:-1], grid[:-1] + [tuple(moved)]):
                # on a line, the other axes singletons, both stay grids
                if sum(len(x) > 1 for x in axes) >= 2:
                    assert analyze._grid_axes(near) is None
                _assert_energy_matches_enumeration(near)

    @pytest.mark.parametrize(
        "grid",
        [
            [(3, y) for y in (-5, 0, 2, 9)],
            [(x, -7) for x in (-4, 1, 6, 8, 20)],
            list(itertools.product([1, 2, 5], [0], [-3, 4])),
            [(2, -3)],
        ],
        ids=["1xm", "mx1", "singleton-axis", "one-point"],
    )
    def test_degenerate_grids(self, grid):
        assert analyze._grid_axes(grid) is not None
        _assert_energy_matches_enumeration(grid)

    def test_near_grids_are_enumerated(self):
        square = list(itertools.product([-3, 0, 1], [-2, 0, 5]))
        wide = list(itertools.product([-3, 0, 1, 7], [-2, 0, 5]))
        near_grids = [
            square[1:],
            wide[:-1],
            # the moved point keeps its first coordinate: the first axis
            # still has 3 values and 3^2 is still the number of points
            square[:-1] + [(square[-1][0], 11)],
            [(12, wide[0][1])] + wide[1:],
        ]
        for points in near_grids:
            assert analyze._grid_axes(points) is None
            _assert_energy_matches_enumeration(points)

    def test_grids_are_never_embedded(self, monkeypatch):
        # a grid is counted per axis, so no point needs its f2_embed key
        import b2sets.construct as construct

        points = build_product(4, 20).union_values()
        expected = _factor_energy_products(4, 20)

        def refuse(points):
            raise AssertionError("a grid was embedded")

        monkeypatch.setattr(construct, "f2_embed", refuse)
        assert _energy_fields(additive_energy(points)) == expected
        with pytest.raises(AssertionError):
            additive_energy(points[1:])

    def test_products_beyond_enumeration(self):
        # 36,480 points, so about 1.3e9 ordered pairs, far above the
        # budget, while each axis holds at most 240 points
        points = build_product(4, 20).union_values()
        assert len(points) ** 2 > analyze.ENERGY_PAIR_BUDGET
        rep = additive_energy(points)
        assert _energy_fields(rep) == _factor_energy_products(4, 20)

    def test_fourth_moment_caps(self):
        # bounded repetition caps the ordered quadruple count: a set whose
        # nonzero differences repeat at most g times has E <= (1+2g)|A|^2,
        # and one whose sums repeat at most g times has E <= 2g|A|^2
        w = build_w(3, 12)
        union = w.union_values()
        g = rep_profile(union, "diff").max_count
        e = additive_energy(union).e_plus
        assert e <= (1 + 2 * g) * len(union) ** 2
        part = w.part_values()[0]
        gs = rep_profile(part, "sum").max_count
        assert additive_energy(part).e_plus <= 2 * gs * len(part) ** 2


def _enumerated_energy(points):
    """The report of the pair count: the embedded ints are never a grid."""
    return additive_energy(list(f2_embed(points).image))


def _assert_energy_matches_enumeration(points):
    rep = additive_energy(points)
    assert rep == _enumerated_energy(points)
    if len(points) > 60:
        return
    assert rep.e_plus == brute_energy_plus(points)
    assert rep.e_minus == brute_energy_minus(points)
    assert rep.sumset_size == len(sumset(points))
    assert rep.diffset_size == len(diffset(points))


def _energy_fields(rep):
    return [rep.n_elements, rep.e_plus, rep.e_minus, rep.sumset_size, rep.diffset_size]


def _factor_energy_products(k, n):
    """The energy fields of product(k, n) as products of those of its
    factor families Wcirc(k, n) and W(k, n)."""
    left, right = (_energy_fields(additive_energy(f(k, n).union_values())) for f in (build_w_circ, build_w))
    return [a * b for a, b in zip(left, right)]


@settings(max_examples=60)
@given(
    st.sets(st.integers(min_value=-500, max_value=500), min_size=1, max_size=40)
)
def test_energy_identity_property(values):
    rep = additive_energy(sorted(values))
    assert rep.e_plus == rep.e_minus
    n = rep.n_elements
    assert rep.sumset_size >= Fraction(n**4, rep.e_plus)
    assert rep.diffset_size >= Fraction(n**4, rep.e_minus)


def _toy_family(parts):
    return SetFamily(
        kind="toy",
        ambient=1,
        params={},
        parts=tuple(Part(f"P_{i}", tuple(p)) for i, p in enumerate(parts)),
    )


class FakeValueParts:
    """Minimal stand-in exposing part_values for adversarial checks."""

    def __init__(self, parts):
        self._parts = parts

    def part_values(self):
        return self._parts


class TestDisjointness:
    def test_w_family(self):
        assert family_sumset_disjointness(build_w(3, 10)).passed

    def test_w_circ_family(self):
        assert family_sumset_disjointness(build_w_circ(5, 14)).passed

    def test_adversarial(self):
        rep = family_sumset_disjointness(FakeValueParts([[0, 1], [1, 2]]))
        assert not rep.passed
        # the witness value genuinely lies in two distinct pair sumsets
        v = rep.witness_value
        (i1, j1), (i2, j2) = rep.witness_pairs
        assert (i1, j1) != (i2, j2)
        parts = [[0, 1], [1, 2]]
        for i, j in rep.witness_pairs:
            s = {
                a + b
                for a in parts[i - 1]
                for b in parts[j - 1]
            }
            assert v in s

    def test_shared_element_with_a_single_representation(self):
        # 0 + 5 has one representation in the union {0, 5}, yet it lies
        # in P_1 + P_3 and P_2 + P_3 because 5 lies in two parts; it is
        # below 2 * 5, the value the shared element repeats
        parts = [[5], [5], [0]]
        rep = family_sumset_disjointness(FakeValueParts(parts))
        assert (rep.witness_value, rep.witness_pairs) == (5, ((1, 3), (2, 3)))
        assert tuple(rep) == brute_disjointness(parts)

    @pytest.mark.parametrize("planar", [False, True], ids=["int", "planar"])
    def test_matches_brute_force_on_random_families(self, planar):
        rng = random.Random(1003 + planar)
        for _ in range(300):
            hi = rng.choice([4, 12, 50, 300])
            draw = (
                (lambda: (rng.randint(-hi, hi), rng.randint(-hi, hi)))
                if planar
                else (lambda: rng.randint(-hi, hi))
            )
            parts = [
                list(dict.fromkeys(draw() for _ in range(rng.randint(0, 6))))
                for _ in range(rng.randint(2, 5))
            ]
            if rng.random() < 0.3:
                # one element of some part also joins another part
                x = draw() if not any(parts) else rng.choice(rng.choice([p for p in parts if p]))
                dst = rng.choice(parts)
                if x not in dst:
                    dst.append(x)
            rep = family_sumset_disjointness(FakeValueParts(parts))
            assert tuple(rep) == brute_disjointness(parts), parts
        # one part has no two part sumsets to compare
        with pytest.raises(ParameterError, match="two or more parts"):
            family_sumset_disjointness(FakeValueParts([[draw() for _ in range(3)]]))

    def test_matches_brute_force_on_the_residue_path(self):
        # W(3, 40) has 741 elements, 274,911 pair sums: above
        # FULL_MAP_PAIR_LIMIT. Adding a part that shares elements with two
        # others makes the same union fail.
        parts = build_w(3, 40).part_values()
        assert analyze._pair_total(741, "sum") > analyze.FULL_MAP_PAIR_LIMIT
        for family in (parts, parts + [parts[0][100:103] + parts[2][7:9]]):
            rep = family_sumset_disjointness(FakeValueParts(family))
            assert tuple(rep) == brute_disjointness(family)
        assert not rep.passed

    def test_memory_is_the_kernels(self):
        # no per-part-pair sumset: the parent's sets peaked at 29.7 MB
        import numpy  # noqa: F401  (loaded before tracing)

        family = build_w(3, 40)
        tracemalloc.start()
        try:
            assert family_sumset_disjointness(family).passed
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20


class TestCensus:
    def test_w_sum_census_predicted(self):
        w = build_w(3, 10)
        census = collision_census(w, "sum")
        assert census.anomalies == 0
        assert census.predicted == len(census.records) > 0
        # the collision pinned by tuples (3,5,7) and (4,5,6) agreeing on
        # their middle coordinate: both sums equal 2 * 5^17
        rec = next(r for r in census.records if r.value == 2 * 5**17)
        assert rec.classification == "PREDICTED"
        assert rec.pattern == "diagonal"
        assert rec.part_pair == (1, 2)
        tuples = {rep[0].point.coords for rep in rec.reps}
        assert tuples == {(3, 5, 7), (4, 5, 6)}

    def test_w_circ_diff_census_predicted(self):
        wc = build_w_circ(5, 16)
        census = collision_census(wc, "diff")
        assert census.anomalies == 0
        patterns = {r.pattern for r in census.records}
        assert patterns <= {"diagonal", "agreement"}

    def test_w_diff_census_swaps(self):
        census = collision_census(build_w(3, 12), "diff")
        assert census.anomalies == 0
        assert {r.pattern for r in census.records} == {"swap"}

    def test_w_circ_sum_census_swaps(self):
        census = collision_census(build_w_circ(5, 14), "sum")
        assert census.anomalies == 0
        assert {r.pattern for r in census.records} <= {"swap"}

    def test_census_rejects_other_families(self):
        with pytest.raises(ParameterError):
            collision_census(_toy_family([[1, 2]]), "sum")

    @pytest.mark.parametrize(
        "k, n, mode, count, values",
        [
            (3, 12, "diff", 72, [94451914062500, 95977773437500]),
            (3, 12, "sum", 18, [19531250, 2441406250]),
            (2, 10, "diff", 90, [12000, 13000]),
            (2, 10, "sum", 1, [0]),
        ],
    )
    def test_star_family_anomalies(self, k, n, mode, count, values):
        # below k = 5 the star code leaves the pattern claim: every repeated
        # difference is a swap and every repeated sum a diagonal, so each
        # collision is an ANOMALY in the mode that does not admit it
        family = build_w_circ(k, n)
        assert family.warnings
        census = collision_census(family, mode)
        assert (len(census.records), census.anomalies, census.predicted) == (count, count, 0)
        assert [r.value for r in census.records[: len(values)]] == values
        assert {(r.classification, r.pattern, r.part_pair) for r in census.records} == {
            ("ANOMALY", "unmatched", None)
        }

    @staticmethod
    def _labelled(family, pattern):
        """The family's elements by (tuple, part), the tuples of the first
        collision of ``pattern`` in the family's own mode, and its parts
        followed by the others."""
        census = collision_census(family, _family_mode(family))
        rec = next(r for r in census.records if r.pattern == pattern)
        points = list(dict.fromkeys(e.point for rep in rec.reps for e in rep))
        parts = list(rec.part_pair)
        parts += [j for j in range(1, len(family.parts) + 1) if j not in parts]
        return {(e.point, e.vector_index): e for e in family.union_elements()}, points, parts

    @staticmethod
    def _patterns(family, mode, pattern):
        """Every classification pattern a test's inputs must reach."""
        own = mode == _family_mode(family)
        return {"unmatched"} | ({"diagonal", pattern} if own else {"swap"})

    @pytest.mark.parametrize(
        "family, pattern",
        [(build_w(3, 10), "diagonal"), (build_w_circ(5, 14), "agreement")],
        ids=["W", "Wcirc"],
    )
    def test_classifier_matches_reference_on_all_pairs_of_reps(self, family, pattern):
        # every input of two representations over 3 tuples x 3 parts, the
        # tuples and parts of a predicted collision among them
        labelled, points, parts = self._labelled(family, pattern)
        points += [p for p, _ in labelled if p not in points]
        elems = [labelled[p, j] for p in points[:3] for j in parts[:3]]
        reps = list(itertools.product(elems, repeat=2))
        for mode in ("sum", "diff"):
            seen = Counter()
            for first, second in itertools.product(reps, repeat=2):
                got = analyze._classify_collision((first, second), family, mode)
                assert got == reference_classify_collision((first, second), family, mode)
                seen[got[1]] += 1
            assert sum(seen.values()) == 6561
            assert set(seen) == self._patterns(family, mode, pattern)

    @pytest.mark.parametrize(
        "family, pattern",
        [
            (build_w(3, 10), "diagonal"),
            (build_w(4, 12), "diagonal"),
            (build_w_circ(5, 18), "agreement"),
            (build_w_circ(6, 18), "agreement"),
        ],
        ids=["W3", "W4", "Wcirc5", "Wcirc6"],
    )
    def test_classifier_matches_reference_on_random_reps(self, family, pattern):
        # 1-4 representations over a few tuples; half the later ones swap
        # the first one's tuples, in one of its parts or a random one
        labelled, points, _ = self._labelled(family, pattern)
        points += [p for p, _ in labelled if p not in points][:2]
        elems = [e for (p, _), e in labelled.items() if p in points]
        rng = random.Random(12)

        def part(a, b):
            return rng.choice((a.vector_index, b.vector_index, rng.randint(1, len(family.parts))))

        for mode in ("sum", "diff"):
            seen = Counter()
            for _ in range(3000):
                a, b = rng.sample(elems, 2)
                reps = [(a, b)]
                for _ in range(rng.randint(0, 3)):
                    if rng.random() < 0.5:
                        reps.append((labelled[b.point, part(a, b)], labelled[a.point, part(a, b)]))
                    else:
                        reps.append(tuple(rng.sample(elems, 2)))
                got = analyze._classify_collision(tuple(reps), family, mode)
                assert got == reference_classify_collision(tuple(reps), family, mode)
                seen[got[1]] += 1
            assert set(seen) == self._patterns(family, mode, pattern)

    @pytest.mark.parametrize(
        "build, k, n",
        [
            (build_w, 2, 8),
            (build_w, 3, 12),
            (build_w, 4, 12),
            (build_w, 5, 32),
            (build_w, 6, 32),
            (build_w_circ, 2, 10),
            (build_w_circ, 3, 12),
            (build_w_circ, 4, 14),
            (build_w_circ, 5, 18),
            (build_w_circ, 6, 18),
        ],
    )
    @pytest.mark.parametrize("mode", ["sum", "diff"])
    def test_census_matches_reference_classifier(self, build, k, n, mode):
        # Wcirc(4, n) repeats no sum or difference at any n measured (<= 198)
        family = build(k, n)
        for rec in collision_census(family, mode).records:
            expected = reference_classify_collision(rec.reps, family, mode)
            assert (rec.classification, rec.pattern, rec.part_pair) == expected


# the keyword defaults of the audit, which the brute-force replay needs in full
AUDIT_DEFAULTS = {
    name: p.default
    for name, p in inspect.signature(subset_doubling_audit).parameters.items()
    if p.kind is p.KEYWORD_ONLY
}


class TestAudit:
    def test_ap_ratio(self):
        ap = list(range(8))
        res = subset_doubling_audit(ap, "exhaustive", min_size=8)
        assert res.min_sum_ratio == Fraction(15, 64)  # (2m-1) / m^2
        assert res.subsets_examined == 1

    def test_exhaustive_small(self):
        vals = [0, 1, 2, 4, 8, 13]
        res = subset_doubling_audit(vals, "exhaustive", min_size=2)
        assert res.subsets_examined == 2**6 - 1 - 6
        # verify the reported minimum against a direct scan of one subset
        sub = res.argmin_sum
        assert Fraction(len(sumset(sub)), len(sub) ** 2) == res.min_sum_ratio

    def test_sampled_deterministic(self):
        vals = list(range(0, 60, 3))
        p = dict(min_size=4, trials=50, seed=9)
        a = subset_doubling_audit(vals, "sample", **p)
        b = subset_doubling_audit(vals, "sample", **p)
        assert a.min_sum_ratio == b.min_sum_ratio
        assert a.argmin_sum == b.argmin_sum

    @pytest.mark.parametrize("trials", [0, -5])
    def test_sampled_audit_needs_a_trial(self, trials):
        # no draw leaves no minimum to report; the exhaustive walk ignores trials
        vals = list(range(8))
        with pytest.raises(ParameterError):
            subset_doubling_audit(vals, "sample", trials=trials)
        res = subset_doubling_audit(vals, "exhaustive", min_size=7, trials=trials)
        assert res.subsets_examined == 9
        argv = ["analyze", "--values", "0,1,2,3,4,5,6,7", "--check", "audit"]
        assert main([*argv, "--trials", str(trials)]) == 2

    def test_exhaustive_cap(self):
        with pytest.raises(ResourceCap):
            subset_doubling_audit(list(range(25)), "exhaustive")

    def test_b2circ2_subsets_bound(self):
        # any subset of a set whose nonzero differences repeat at most
        # twice has doubling ratio at least 1/3
        w = build_w(3, 10)
        vals = w.union_values()[:12]
        res = subset_doubling_audit(vals, "exhaustive", min_size=4)
        assert res.min_sum_ratio >= Fraction(1, 3)
        assert res.min_diff_ratio >= Fraction(1, 3)

    @pytest.mark.parametrize(
        "elements, mode, params",
        [
            (build_w(3, 30).union_values()[:12], "exhaustive", dict(min_size=4)),
            (build_w_circ(5, 14).union_values()[::2][:12], "exhaustive", dict(min_size=3)),
            (list(range(10)), "exhaustive", dict(min_size=2)),
            (list(range(10)), "exhaustive", dict(min_size=10)),
            (list(range(-7, 40, 4)), "exhaustive", dict(min_size=2)),
            (random.Random(3).sample(range(14), 11), "exhaustive", dict(min_size=3)),
            (random.Random(8).sample(range(-9, 9), 9), "exhaustive", dict(min_size=9)),
            ([(x, y) for x in range(3) for y in range(3)], "exhaustive", dict(min_size=2)),
            (random.Random(5).sample([(x, y) for x in range(-3, 4) for y in range(4)], 10),
             "exhaustive", dict(min_size=4)),
            # unsorted inputs whose depth-first order differs from mask order
            # at a tie
            ([-4, 13, 10, 15, -9, 12, 4, 2], "exhaustive", dict(min_size=4)),
            ([(1, 1), (1, 3), (1, 0), (3, 3), (3, 0), (3, 1), (0, 0), (0, 1)],
             "exhaustive", dict(min_size=4)),
            (build_product(3, 6).union_values(), "sample", dict(trials=150, seed=5)),
            # many 3-term APs among the draws: the first one drawn wins
            (list(range(12)), "sample", dict(min_size=3, max_size=3, trials=40, seed=2)),
        ],
        ids=[
            "W30-slice", "Wcirc14-slice", "range10-min2", "range10-min10", "ap12",
            "dense11", "dense9-min9", "grid3x3", "points10", "unsorted8", "points8",
            "product36-sample", "range12-sample-ties",
        ],
    )
    def test_matches_brute_force(self, elements, mode, params):
        # ties abound in APs, dense sets and grids: the argmin must be the
        # first minimum in mask (or draw) order, as the definition scans
        expected = brute_audit(elements, mode, **{**AUDIT_DEFAULTS, **params})
        assert subset_doubling_audit(elements, mode, **params) == AuditResult(
            mode=mode, n_elements=len(elements), **expected
        )

    def test_equal_ratios_of_two_sizes_go_to_the_smaller_mask(self):
        # 3/4 at size 2 on elements {2, 3} and 12/16 at size 4 on {0, 1, 2, 3}
        ratio, argmin = analyze._first_minimum(iter([(3, 4, 0b1100), (12, 16, 0b1111)]))
        assert (ratio, argmin) == (Fraction(3, 4), [2, 3])
        ratio, argmin = analyze._first_minimum(iter([(3, 4, 0b110000), (12, 16, 0b1111)]))
        assert (ratio, argmin) == (Fraction(3, 4), [0, 1, 2, 3])

    def test_sampled_memory_is_per_draw(self):
        # no table over all 600 points: the draws hold at most 48 points
        elements = build_product(5, 19).union_values()
        params = dict(min_size=4, trials=50, seed=11, max_size=48)
        tracemalloc.start()
        try:
            subset_doubling_audit(elements, "sample", **params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("k, n", [(3, 5), (5, 19)], ids=["product35", "product519"])
    def test_sampled_audit_matches_exact_draws(self, k, n, seed):
        # each draw is counted once, exactly: the minimum, its draw and the
        # draw order of ties agree with a plain recount of every draw
        elements = build_product(k, n).union_values()
        params = dict(min_size=4, max_size=48, trials=2000, seed=seed)
        expected = exact_sampled_audit(elements, **params)
        assert subset_doubling_audit(elements, "sample", **params) == AuditResult(
            mode="sample", n_elements=len(elements), **expected
        )

    @pytest.mark.parametrize(
        "elements",
        [
            random.Random(1).sample(range(-10**6, 10**6), 40),
            random.Random(2).sample(range(50), 40),
            _random_keys(30, seed=3, bits=200),
            _dilated(random.Random(4).sample(range(-500, 500), 40), 2**30 - 35),
            # Q * x + (x mod 2), Q = 2^30 - 35: all even, and one step off a dilation
            [(2**30 - 35) * x + x % 2 for x in random.Random(5).sample(range(1, 10**4), 40)],
        ],
        ids=["sparse", "dense-ties", "wide", "dilated", "near-dilated"],
    )
    def test_sampled_audit_on_ints_matches_exact_draws(self, elements):
        params = dict(min_size=3, max_size=25, trials=400, seed=7)
        expected = exact_sampled_audit(elements, **params)
        assert subset_doubling_audit(elements, "sample", **params) == AuditResult(
            mode="sample", n_elements=len(elements), **expected
        )

    def test_exhaustive_at_the_limit(self):
        vals = build_w(3, 30).union_values()[: analyze.EXHAUSTIVE_AUDIT_LIMIT]
        res = subset_doubling_audit(vals, "exhaustive", min_size=4)
        n = len(vals)
        assert res.subsets_examined == sum(math.comb(n, s) for s in range(4, n + 1))
        ints = [int(v) for v in res.argmin_sum]
        assert Fraction(len(sumset(ints)), len(ints) ** 2) == res.min_sum_ratio
        ints = [int(v) for v in res.argmin_diff]
        assert Fraction(len(diffset(ints)), len(ints) ** 2) == res.min_diff_ratio


@pytest.mark.parametrize(
    "call",
    [
        lambda xs: rep_profile(xs, "sum"),
        lambda xs: rep_profile(xs, "diff"),
        additive_energy,
        lambda xs: subset_doubling_audit(xs, "exhaustive", min_size=3),
        lambda xs: subset_doubling_audit(xs, "sample", min_size=3, trials=20),
        lambda xs: exact_min_union(xs, 1, "sum"),
        lambda xs: greedy_union(xs, 1, "diff"),
    ],
    ids=["profile-sum", "profile-diff", "energy", "audit", "audit-sample", "exact", "greedy"],
)
def test_one_shot_iterables_are_read_once(call):
    values = [0, 1, 3, 7, 12, 20]
    assert call(v for v in values) == call(values)
