import random

import pytest

from b2sets.analyze import canonical_keys
from b2sets.codes import reduced_vandermonde
from b2sets.construct import (
    build_family,
    build_meyer,
    build_product,
    build_proposition,
    build_w,
    build_w_circ,
    dyadic_pack,
    f2_embed,
    lattice_points,
    translate,
)
from b2sets.digitnum import DigitVector
from b2sets.errors import EmptyConstruction, ParameterError, ResourceCap

from oracles import brute_is_b2, brute_relations_preserved, decode_element, pair_partitions_agree


class TestLattice:
    def test_d3_n10(self):
        m = reduced_vandermonde(3)
        pts = lattice_points(m, 10)
        assert len(pts) == 12
        coords = {p.coords for p in pts}
        assert (2, 3, 4) in coords  # y = (1, 1)
        assert (8, 9, 10) in coords  # y = (7, 1)
        by_pre = {p.preimage: p.coords for p in pts}
        assert by_pre[(1, 1)] == (2, 3, 4)
        assert by_pre[(7, 1)] == (8, 9, 10)

    def test_d3_n3_empty(self):
        # smallest achievable coordinate tuple is (2, 3, 4)
        assert lattice_points(reduced_vandermonde(3), 3) == ()

    def test_matches_exhaustive_filter(self):
        m = reduced_vandermonde(5)
        n = 18
        expected = set()
        for y1 in range(1, n + 1):
            for y2 in range(1, n + 1):
                for y3 in range(1, n + 1):
                    coords = tuple(
                        sum(row[c] * y for c, y in enumerate((y1, y2, y3)))
                        for row in m.rows
                    )
                    if all(c <= n for c in coords):
                        expected.add((y1, y2, y3))
        assert {p.preimage for p in lattice_points(m, n)} == expected

    @pytest.mark.parametrize("d,n", [(3, 25), (3, 40), (5, 20)])
    def test_count_lower_bound(self, d, n):
        m = reduced_vandermonde(d)
        bound = (n // (2 * d * m.m)) ** m.m
        count = len(lattice_points(m, n))
        if bound >= 1:
            assert count >= bound

    def test_monotone_in_n(self):
        m = reduced_vandermonde(3)
        counts = [len(lattice_points(m, n)) for n in range(4, 30)]
        assert counts == sorted(counts)

    def test_lex_order(self):
        pts = lattice_points(reduced_vandermonde(3), 20)
        pres = [p.preimage for p in pts]
        assert pres == sorted(pres)


class TestBuildW:
    def test_k3_n10_shape(self):
        w = build_w(3, 10)
        assert w.size() == 36
        assert len(w.parts) == 3
        assert w.params["d"] == 3 and w.params["m"] == 2 and w.params["prime"] == 5

    def test_element_exponents(self):
        w = build_w(3, 10)
        elem = next(
            e for e in w.parts[0].elements if e.point.coords == (2, 3, 4)
        )
        assert elem.vector_index == 1
        assert elem.value == DigitVector.from_map({7: 1, 11: 1, 15: 1})

    def test_k2_degenerate(self):
        w = build_w(2, 5)
        assert [e.value.to_integer() for e in w.parts[0].elements] == [
            5 ** (i + 1) for i in range(1, 6)
        ]
        assert [e.value.to_integer() for e in w.parts[1].elements] == [
            -(5 ** (i + 1)) for i in range(1, 6)
        ]

    def test_parts_disjoint(self):
        for fam in (build_w(3, 15), build_w_circ(5, 14)):
            values = fam.union_values()
            assert len({v.to_integer() for v in values}) == len(values)
            assert fam.size() == sum(len(p.elements) for p in fam.parts)

    def test_empty(self):
        with pytest.raises(EmptyConstruction):
            build_w(3, 3)
        with pytest.raises(ParameterError):
            build_w(1, 10)


class TestBuildWCirc:
    def test_k5_structure(self):
        wc = build_w_circ(5, 30)
        assert wc.params["d"] == 5 and wc.params["m"] == 3 and wc.params["prime"] == 7
        assert not wc.warnings
        # every element has exactly d digits whose signs match its vector
        for part, vec in zip(wc.parts, wc.code.vectors):
            for e in part.elements[:10]:
                assert len(e.value.digits) == 5
                signs = [0] * 5
                for exp, c in e.value.digits:
                    col = exp % 5 or 5
                    signs[col - 1] = c
                assert tuple(signs) == vec

    def test_small_k_warning_propagates(self):
        wc = build_w_circ(3, 30)
        assert wc.warnings

    def test_empty(self):
        with pytest.raises(EmptyConstruction):
            build_w_circ(5, 9)  # largest coordinate of the first point is 10


class TestProduct:
    def test_sizes(self):
        p = build_product(5, 19)
        assert p.ambient == 2
        left, right = p.factors
        assert p.size() == left.size() * right.size()
        firsts = {e.value[0] for e in p.parts[0].elements}
        assert firsts == set(left.union_values())

    def test_componentwise_sum(self):
        # planar values are added as int keys and decoded componentwise
        p = build_product(5, 19)
        values = p.union_values()
        keys, decode = canonical_keys(values)
        a, b = values[0], values[1]
        assert decode(keys[0] + keys[1], "sum") == tuple(
            x.to_integer() + y.to_integer() for x, y in zip(a, b)
        )
        assert decode(keys[0] - keys[1], "diff") == tuple(
            x.to_integer() - y.to_integer() for x, y in zip(a, b)
        )

    def test_cap(self):
        with pytest.raises(ResourceCap):
            build_product(5, 19, element_cap=10)


@pytest.mark.parametrize(
    "kind,recipe,size",
    [
        ("W", {"k": 3, "n": 10}, 36),
        ("Wcirc", {"k": 5, "n": 14}, 30),
        ("meyer", {"n_max": 4}, 10),
        ("proposition", {"k": 2, "n": 2}, 16),
        ("product", {"k": 3, "n": 6}, 81),
    ],
)
def test_element_cap_holds_for_every_kind(kind, recipe, size):
    assert build_family(kind, element_cap=size, **recipe).size() == size
    with pytest.raises(ResourceCap):
        build_family(kind, element_cap=size - 1, **recipe)


def test_element_cap_bounds_k_before_building():
    with pytest.raises(ResourceCap):
        build_w(10**6, 10, element_cap=36)
    with pytest.raises(ResourceCap):
        build_proposition(10**6, 2, element_cap=16)


class TestMeyer:
    def test_small(self):
        m = build_meyer(2)
        assert sorted(e.value.to_integer() for e in m.parts[0].elements) == [4, 20, 24]

    def test_count_and_positive(self):
        m = build_meyer(9)
        assert m.size() == 45
        assert all(e.value.to_integer() > 0 for e in m.parts[0].elements)
        assert all(
            e.value == DigitVector.from_map({e.hi: 1, e.lo: -1})
            for e in m.parts[0].elements
        )


class TestProposition:
    def test_k2_n2(self):
        p = build_proposition(2, 2)
        assert len(p.parts) == 4
        assert all(len(part.elements) == 4 for part in p.parts)

    def test_exponent_formula(self):
        p = build_proposition(2, 2)
        all_ones = next(
            part
            for part in p.parts
            if part.elements[0].signs == (1, 1)
        )
        vals = {e.value.to_integer() for e in all_ones.elements}
        assert 5**3 + 5**4 in vals  # indices (1, 1)

    def test_k1_n3(self):
        p = build_proposition(1, 3)
        assert [
            [e.value.to_integer() for e in part.elements] for part in p.parts
        ] == [[25, 125, 625], [-25, -125, -625]]


class TestDecode:
    @pytest.mark.parametrize("builder,args", [(build_w, (3, 12)), (build_w_circ, (5, 14))])
    def test_round_trip_everywhere(self, builder, args):
        fam = builder(*args)
        for e in fam.union_elements():
            coords, j = decode_element(fam, e.value)
            assert coords == e.point.coords
            assert j == e.vector_index


def _embed(points):
    """f2_embed, with every relation checked by pair partitions."""
    emb = f2_embed(points)
    assert pair_partitions_agree(emb.points, list(emb.image))
    return emb


class TestEmbedding:
    def test_example(self):
        emb = _embed([(1, 0), (0, 1), (2, 3)])
        assert emb.base == 15
        assert set(emb.image) == {15, 225, 705}

    def test_singleton(self):
        emb = _embed([(7,)])
        assert emb.base == 35
        assert emb.image == (245,)

    def test_relation_check_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(10):
            pts = list(
                {(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(6)}
            )
            emb = _embed(pts)
            assert brute_relations_preserved(emb.points, list(emb.image))

    def test_fast_check_rejects_bad_maps(self):
        # a collapsing map and one that breaks 0 + 2 = 1 + 1 fail the pair
        # partition check, as they fail the literal quadruple scan
        pts = [(0,), (1,), (2,)]
        for image, preserved in (([0, 1, 1], False), ([0, 1, 3], False), ([0, 10, 20], True)):
            assert pair_partitions_agree(pts, image) is preserved
            assert brute_relations_preserved(pts, image) is preserved

    def test_translate_then_embed_consistent(self):
        pts = [(1, 2), (3, 4), (0, 7), (5, 5)]
        moved = translate(pts, (10, -3))
        emb_a = _embed(moved)
        emb_b = _embed(pts)
        shifted = translate(list(emb_b.image), 1000)
        assert brute_relations_preserved(emb_a.points, list(emb_a.image))
        assert brute_relations_preserved([(v,) for v in emb_b.image], shifted)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_decode_inverts_images_and_their_sums_and_differences(self, dim):
        rng = random.Random(dim)
        for _ in range(20):
            span = rng.choice([1, 3, 50, 10**30])
            pts = list({
                tuple(rng.randint(-span, span) for _ in range(dim))
                for _ in range(rng.randint(1, 12))
            })
            emb = _embed(pts)
            for i, (p, x) in enumerate(zip(emb.points, emb.image)):
                assert emb.decode(x) == p
                for q, y in zip(emb.points[i:], emb.image[i:]):
                    assert emb.decode(x + y) == tuple(a + b for a, b in zip(p, q))
                    assert emb.decode(x - y) == tuple(a - b for a, b in zip(p, q))
                    assert emb.decode(y - x) == tuple(b - a for a, b in zip(p, q))

    def test_decode_lone_origin(self):
        emb = _embed([(0, 0, 0)])
        assert emb.base == 0
        assert emb.decode(emb.image[0]) == (0, 0, 0)
        assert emb.decode(2 * emb.image[0]) == (0, 0, 0)

    def test_rejects(self):
        with pytest.raises(ParameterError):
            f2_embed([])
        with pytest.raises(ParameterError):
            f2_embed([(1, 2), (3,)])
        with pytest.raises(ParameterError):
            f2_embed([(1,), (1,)])


class TestTranslate:
    def test_ints(self):
        assert translate([1, 2, 5], 10) == [11, 12, 15]
        assert translate([1, 2, 5], 0) == [1, 2, 5]

    def test_b2_preserved(self):
        sidon = [1, 2, 5, 11]
        assert brute_is_b2(sidon, 1)
        assert brute_is_b2(translate(sidon, 97), 1)

    def test_digitvectors_become_ints(self):
        vals = [DigitVector.from_map({2: 1}), DigitVector.from_map({3: 1})]
        assert translate(vals, 1) == [26, 126]


class TestDyadicPack:
    def test_example(self):
        packed = dyadic_pack([{0, 1}, {0, 1, 2, 3}])
        assert [(b.psi, b.elements) for b in packed.blocks] == [
            (1, (2, 3)),
            (2, (4, 5, 6, 7)),
        ]

    def test_rejects(self):
        with pytest.raises(ParameterError):
            dyadic_pack([{1}, set()])
        with pytest.raises(ParameterError):
            dyadic_pack([[3, 3]])
        with pytest.raises(ParameterError):
            dyadic_pack([{1, 2.5}])

    def test_singletons_consecutive(self):
        packed = dyadic_pack([{42}, {-7}, {100}])
        assert [b.psi for b in packed.blocks] == [0, 1, 2]
        assert packed.union() == [1, 2, 4]

    def test_blocks_disjoint_and_b2_preserved(self):
        sets = [[1, 2, 5, 11], [0, 3, 7], [2, 4]]
        packed = dyadic_pack(sets)
        union = packed.union()
        assert len(set(union)) == len(union)
        for blk, original in zip(packed.blocks, sets):
            lo, hi = 1 << blk.psi, 1 << (blk.psi + 1)
            assert all(lo <= v < hi for v in blk.elements)
            assert brute_is_b2(blk.elements, 1) == brute_is_b2(original, 1)
