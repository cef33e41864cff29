import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import b2sets
from b2sets.analyze import canonical_keys, is_b2, is_b2_circ
from b2sets.cli import main
from b2sets.construct import build_meyer, build_product, build_w, build_w_circ
from b2sets.decompose import (
    counting_certificate,
    exact_min_union,
    greedy_union,
    meyer_extract,
    mixed_certificate,
    no_large_bsubset_certificate,
    pair_collision_values,
)
from b2sets.errors import EmptyConstruction, ParameterError

import oracles
from oracles import (
    brute_min_union,
    collision_values_by_formula,
    fail_first_order,
    reference_greedy,
    reference_min_union,
)


class TestExactMinUnion:
    def test_signed_powers_need_two_parts(self):
        vals = [5**i for i in range(1, 9)] + [-(5**i) for i in range(1, 9)]
        rep = exact_min_union(vals, g=7, kind="sum")
        assert rep.minimum == 2
        assert rep.results[1].status == "UNSAT"
        assert rep.results[2].status == "SAT"

    def test_sidon_single_part(self):
        rep = exact_min_union([1, 2, 5, 11], g=1, kind="sum")
        assert rep.minimum == 1

    def test_four_term_ap(self):
        rep = exact_min_union([0, 1, 2, 3], g=1, kind="sum")
        assert rep.minimum == 2

    def test_sat_parts_reverify(self):
        vals = [0, 1, 2, 3, 4, 5, 6]
        rep = exact_min_union(vals, g=1, kind="sum")
        deco = rep.results[rep.minimum].decomposition
        for part in deco.parts(vals):
            if part:
                assert is_b2(part, 1).passed

    def test_diff_kind(self):
        rep = exact_min_union([0, 1, 2, 3], g=1, kind="diff")
        assert rep.minimum == brute_min_union([0, 1, 2, 3], 1, "diff", 4)

    def test_budget_timeout(self):
        vals = list(range(14))
        rep = exact_min_union(vals, g=1, kind="sum", max_parts=2, budget=5)
        assert rep.results[2].status == "TIMEOUT"
        assert rep.minimum is None

    def test_max_parts_below_one_is_rejected(self):
        # no part count would be searched, so no run may pass on it
        with pytest.raises(ParameterError):
            exact_min_union([0, 1, 3], g=1, kind="sum", max_parts=0)
        argv = ["decompose", "--values", "0,1,3", "--g", "1", "--kind", "sum"]
        assert main([*argv, "--max-parts", "0"]) == 2
        assert main([*argv, "--max-parts", "1"]) == 0

    def test_timeout_below_blocks_minimum_claim(self):
        # a later SAT after an earlier timeout must not be called minimal
        vals = list(range(10))
        rep = exact_min_union(vals, g=1, kind="sum", max_parts=4, budget=40)
        if any(r.status == "TIMEOUT" for r in rep.results.values()):
            sat_after_timeout = any(
                r.status == "SAT"
                and any(
                    rep.results[t].status == "TIMEOUT"
                    for t in rep.results
                    if t < r.parts
                )
                for r in rep.results.values()
            )
            if sat_after_timeout:
                assert rep.minimum is None

    def test_oracle_agreement_battery(self):
        rng = random.Random(20)
        cases = [
            list(range(6)),
            [0, 1, 3, 7, 12, 20],
            [1, 2, 4, 8, 16, 32],
            [0, 2, 4, 6, 8],
        ]
        for _ in range(10):
            size = rng.randint(4, 9)
            cases.append(sorted(rng.sample(range(25), size)))
        for vals in cases:
            for kind in ("sum", "diff"):
                for g in (1, 2):
                    rep = exact_min_union(vals, g=g, kind=kind, max_parts=4)
                    expected = brute_min_union(vals, g, kind, 4)
                    assert rep.minimum == expected, (vals, kind, g)


class TestDepth:
    # An Erdos-Turan Sidon set, 2pk + (k^2 mod p) for k < p = 1201: one
    # part holds it at g = 1, so the search descends 1,201 elements deep,
    # past the interpreter's default recursion limit of 1,000.
    SIDON = [2 * 1201 * k + k * k % 1201 for k in range(1201)]

    def test_exact_search(self):
        rep = exact_min_union(self.SIDON, g=1, kind="sum", max_parts=1)
        assert rep.results[1].status == "SAT"
        assert rep.minimum == 1

    def test_greedy(self):
        assert greedy_union(self.SIDON, g=1, kind="sum").parts_used == 1

    def test_cli(self):
        values = ",".join(map(str, self.SIDON))
        argv = ["decompose", "--values", values, "--g", "1", "--kind", "sum", "--max-parts", "1"]
        assert main(argv) == 0

    def test_powers_of_two(self):
        # 1,200 powers of two are a Sidon set whose pair sums share few
        # hash classes and few residues mod 2^61 - 1; a search that counts
        # every pair value as an int takes minutes on them. The child's
        # timeout turns such a regression into a failure, not a hang.
        code = (
            "from b2sets.decompose import exact_min_union, greedy_union\n"
            "powers = [2**i for i in range(1200)]\n"
            "rep = exact_min_union(powers, g=1, kind='sum', max_parts=1)\n"
            "print(rep.minimum, greedy_union(powers, g=1, kind='sum').parts_used)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(b2sets.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "1"]


def _int_set(rng):
    return rng.sample(range(-20, 40), rng.randint(1, 14))


def _planar_set(rng):
    box = [(x, y) for x in range(-4, 5) for y in range(-4, 5)]
    return rng.sample(box, rng.randint(1, 12))


def _has_middle_placed_last(elements, order, assignment):
    """Whether some part holds a 3-term progression whose middle term the
    search placed after both ends, so that it formed the same difference
    with two members of that part."""
    rank = {e: pos for pos, e in enumerate(order)}
    index = {x: i for i, x in enumerate(elements)}
    for i, x in enumerate(elements):
        for a in elements:
            b = 2 * x - a
            if a < x and b in index and assignment[index[a]] == assignment[index[b]] == assignment[i]:
                if rank[i] > max(rank[index[a]], rank[index[b]]):
                    return True
    return False


class TestReferenceSearch:
    """The search must take the steps of the dict-based reference search
    in ``oracles``: the same status, node count and assignment at every
    t, and the same greedy assignment."""

    def _check(self, elements, g, kind, budget):
        keys, _ = canonical_keys(elements)
        rep = exact_min_union(elements, g, kind, budget=budget)
        expected = reference_min_union(keys, g, kind, len(keys), budget)
        assert rep.order == fail_first_order(keys, kind)
        got = {
            t: (r.status, r.nodes_explored, r.decomposition and r.decomposition.assignment)
            for t, r in rep.results.items()
        }
        assert got == expected, (elements, g, kind, budget)
        assert greedy_union(elements, g, kind).assignment == reference_greedy(keys, g, kind)
        return rep

    @pytest.mark.parametrize("kind", ["sum", "diff"])
    @pytest.mark.parametrize("make", [_int_set, _planar_set], ids=["int", "planar"])
    def test_random_sets(self, make, kind):
        rng = random.Random(f"{make.__name__}-{kind}")
        statuses = set()
        for _ in range(60):
            g = rng.randint(1, 3)
            budget = rng.choice([10, 100, 1000, 10**4])
            rep = self._check(make(rng), g, kind, budget)
            statuses.update(r.status for r in rep.results.values())
        assert set(statuses) == {"SAT", "UNSAT", "TIMEOUT"}, statuses

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_diff_sets_with_three_term_progressions(self, g):
        # Dense sets hold many 3-term progressions; with g >= 2 a part may
        # keep one whose middle term joins last, counting one difference
        # twice in a single node, and with g = 1 that node must fail.
        rng = random.Random(g)
        middles_last = 0
        for _ in range(40):
            elements = rng.sample(range(14), rng.randint(5, 11))
            rep = self._check(elements, g, "diff", 10**5)
            sat = rep.results[max(rep.results)]
            if sat.status == "SAT":
                middles_last += _has_middle_placed_last(
                    elements, rep.order, sat.decomposition.assignment
                )
        assert (middles_last > 0) == (g > 1)


class TestGreedy:
    def test_four_term_ap_trace(self):
        # first-fit: 0 and 1 fit part 1; 2 collides there (0+2 = 1+1) and
        # opens part 2; 3 fits part 1 again ({0,1,3} repeats no sum)
        deco = greedy_union([0, 1, 2, 3], g=1, kind="sum")
        assert deco.parts_used == 2
        assert deco.assignment == [0, 0, 1, 0]

    def test_b2_set_single_part(self):
        assert greedy_union([1, 2, 5, 11], 1, "sum").parts_used == 1

    def test_upper_bounds_minimum(self):
        rng = random.Random(4)
        for _ in range(8):
            vals = sorted(rng.sample(range(30), 8))
            greedy = greedy_union(vals, 1, "sum").parts_used
            exact = exact_min_union(vals, 1, "sum").minimum
            assert greedy >= exact


class TestCountingCertificate:
    def test_k3_n40_exact_counts(self):
        cert = counting_certificate(build_w(3, 40), g=1, parts=2)
        assert cert.lhs == 247
        assert cert.collision_value_count == 111
        assert cert.per_pair_counts == {(1, 2): 37, (1, 3): 37, (2, 3): 37}
        assert cert.capacity == 222
        assert cert.verdict
        assert cert.formula_lower_bound == (40 // 12) ** 2 == 9

    def test_k3_n10_no_verdict(self):
        cert = counting_certificate(build_w(3, 10), g=1, parts=2)
        assert cert.lhs == 12
        assert not cert.verdict

    def test_monotone_in_g_and_t(self):
        w = build_w(3, 40)
        assert counting_certificate(w, 1, 2).verdict
        base = counting_certificate(w, 1, 2)
        assert counting_certificate(w, 1, 1).capacity < base.capacity
        assert counting_certificate(w, 1, 1).verdict
        # capacity grows with g and t, so verdicts can only weaken
        assert counting_certificate(w, 2, 2).capacity == 2 * base.capacity

    def test_value_sets_match_census_values(self):
        w = build_w(3, 10)
        sets = pair_collision_values(w)
        # d=3 supports are single coordinates; values are  +-2 * 5^(i*3+c)
        assert all(len(s) == 7 for s in sets.values())

    @pytest.mark.parametrize(
        "family",
        [
            build_w(2, 8),
            build_w(3, 10),
            build_w(3, 40),
            build_w(6, 30),
            build_w_circ(3, 12),
            build_w_circ(4, 16),
            build_w_circ(5, 14),
            build_w_circ(6, 30),
            *build_product(5, 19).factors,
        ],
        ids=lambda f: f"{f.kind}({f.params['k']},{f.params['n']})",
    )
    def test_element_pairs_match_the_formula(self, family):
        assert pair_collision_values(family) == collision_values_by_formula(family)

    def test_diff_kind_for_star(self):
        wc = build_w_circ(5, 14)
        cert = counting_certificate(wc, g=1, parts=4)
        assert cert.kind == "diff"
        assert cert.lhs == wc.params["lattice_size"]

    def test_search_consistency_k2(self):
        # tractable spot check: the k=2 family has one collision value (0),
        # so lhs > t*g*V pins the certificate at small scale
        w = build_w(2, 8)
        cert = counting_certificate(w, g=7, parts=1)
        assert cert.collision_value_count == 1
        assert cert.lhs == 8
        assert cert.verdict  # 8 > 1*7*1
        rep = exact_min_union(w.union_values(), g=7, kind="sum", max_parts=2)
        assert rep.results[1].status == "UNSAT"
        assert rep.minimum == 2

    def test_certificate_false_when_capacity_suffices(self):
        w = build_w(2, 7)
        cert = counting_certificate(w, g=7, parts=1)
        assert not cert.verdict  # 7 > 7 fails
        rep = exact_min_union(w.union_values(), g=7, kind="sum", max_parts=1)
        assert rep.results[1].status == "SAT"


SWEEP_N = (10, 20, 40, 60)
SWEEP_FAMILIES = [("W", k, n) for k in (2, 3, 4) for n in SWEEP_N] + [
    ("Wcirc", k, n) for k in (3, 4, 5, 6) for n in SWEEP_N
]


@pytest.mark.parametrize("kind,k,n", SWEEP_FAMILIES, ids=lambda x: str(x))
def test_counting_certificate_never_refutes_the_own_parts(kind, k, n):
    # A second method that shares no code with the certificate: the
    # family's own k parts are each B2[1] (W, sums) or B°2[1] (Wcirc,
    # differences), so they are a t-part decomposition for every t >= k,
    # and no certificate at such t may PASS.
    family = (build_w if kind == "W" else build_w_circ)(k, n)
    check = is_b2 if kind == "W" else is_b2_circ
    assert all(check(values, 1).passed for values in family.part_values())
    for t in range(1, k + 2):
        cert = counting_certificate(family, g=1, parts=t)
        assert cert.applicable == (t < k)
        assert not (cert.verdict and t >= k), (kind, k, n, t)


# n = 60 is left out: greedy_union takes 1-1.5 s per g on W(3, 60) and W(4, 60)
GREEDY_SWEEP = [
    (g, kind, k, n) for g in (1, 2, 3) for kind, k, n in SWEEP_FAMILIES if n <= 40
]


@pytest.mark.parametrize("g,kind,k,n", GREEDY_SWEEP, ids=lambda x: str(x))
def test_counting_certificate_never_refutes_a_greedy_decomposition(g, kind, k, n):
    # Two constructive witnesses at every g: first-fit greedy_union, and
    # the family's own k parts (B2[1], hence B2[g]). Neither shares code
    # with the certificate, so no PASS at (g, t) may coexist with either
    # decomposition into at most t parts. Only a PASS can be contradicted,
    # so the greedy search (seconds on Wcirc(5, 40)) runs only under one.
    family = (build_w if kind == "W" else build_w_circ)(k, n)
    mode = "sum" if kind == "W" else "diff"
    passes = [t for t in range(1, k + 2) if counting_certificate(family, g=g, parts=t).verdict]
    if passes:
        greedy = greedy_union(family.union_values(), g, mode)
        assert max(passes) < min(k, greedy.parts_used), (passes, greedy.parts_used)


class TestMixedCertificate:
    def test_not_applicable_above_k_third(self):
        prod = build_product(6, 30)
        cert = mixed_certificate(prod, g=1, parts=6)
        assert not cert.applicable
        assert not cert.verdict

    def test_exact_branch_counts_k6_n30(self):
        prod = build_product(6, 30)
        cert = mixed_certificate(prod, g=1, parts=1)
        assert cert.applicable
        assert cert.threshold == 2
        left, right = prod.factors
        n_left = left.params["lattice_size"]
        n_right = right.params["lattice_size"]
        # with a full half row, the group pigeonhole guarantees ceil(2N/5)
        assert cert.sum_branch["guaranteed_groups"] == -(-2 * n_right // 5)
        assert cert.diff_branch["guaranteed_groups"] == -(-2 * n_left // 5)
        # the integer pigeonhole is at least the quarter-mass bound
        assert cert.sum_branch["guaranteed_groups"] * 4 >= n_right
        assert cert.diff_branch["guaranteed_groups"] * 4 >= n_left

    def test_rejects_non_product(self):
        with pytest.raises(ParameterError):
            mixed_certificate(build_w(3, 10), g=1, parts=1)


class TestNoLargeSubsetCertificate:
    def test_gamma_formula(self):
        # delta' = 1/2 needs k >= 8 to satisfy delta'*k/2 >= 2
        prod = build_product(8, 24)
        cert = no_large_bsubset_certificate(prod, g=1, delta_prime=Fraction(1, 2))
        assert cert.gamma == Fraction(1, 3)
        assert cert.threshold == 2  # ceil((1/2)*8/2)

    def test_parameter_error_small_delta(self):
        prod = build_product(6, 30)
        with pytest.raises(ParameterError):
            no_large_bsubset_certificate(prod, g=1, delta_prime=Fraction(1, 2))

    def test_delta_one_consistency_with_direct_checks(self):
        # on product(5,19) neither branch's forced pairs overflow its
        # capacity, so the certificate's FAIL is inconclusive; the direct
        # checks show the union is neither kind of bounded-repetition set,
        # so no check contradicts it
        prod = build_product(5, 19)
        cert = no_large_bsubset_certificate(prod, g=1, delta_prime=1)
        assert cert.verdict is False
        assert (cert.sum_branch["pair_mass"], cert.sum_branch["capacity"]) == (3, 10)
        assert (cert.diff_branch["pair_mass"], cert.diff_branch["capacity"]) == (72, 213)
        vals = prod.union_values()
        assert is_b2(vals, 1).max_count == 4
        assert is_b2_circ(vals, 1).max_count == 120

    def test_branch_counts_exact(self):
        prod = build_product(6, 30)
        cert = no_large_bsubset_certificate(prod, g=1, delta_prime=1)
        left, right = prod.factors
        assert cert.threshold == 3
        assert cert.sum_branch["guaranteed_groups"] == right.params["lattice_size"]
        assert cert.sum_branch["pairs_per_group"] == 3
        assert cert.diff_branch["guaranteed_groups"] == left.params["lattice_size"]


CERTIFICATE_FIELDS = (
    "applicable", "threshold", "gamma", "delta_prime", "sum_branch", "diff_branch", "verdict",
)
# (certificate, its reference, parts or delta')
CERTIFICATE_CALLS = [
    *((mixed_certificate, oracles.mixed_certificate, t) for t in range(1, 5)),
    *(
        (no_large_bsubset_certificate, oracles.no_large_bsubset_certificate, delta)
        for delta in (1, Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5))
    ),
]


def _certificate_outcome(certify, *args):
    """The report fields of a product certificate, or the error class it raises."""
    try:
        cert = certify(*args)
    except ParameterError as exc:
        return type(exc)
    return {name: getattr(cert, name) for name in CERTIFICATE_FIELDS if hasattr(cert, name)}


@pytest.mark.parametrize("k", range(3, 9))
def test_product_certificates_match_the_reference(k):
    # every product(k, n) that builds with n <= 30, against the per-branch
    # certificates kept in ``oracles``: the same fields, or the same error
    built = 0
    for n in range(1, 31):
        try:
            prod = build_product(k, n)
        except EmptyConstruction:
            continue
        built += 1
        for g in (1, 2, 3):
            for certify, reference, x in CERTIFICATE_CALLS:
                assert _certificate_outcome(certify, prod, g, x) == _certificate_outcome(
                    reference, prod, g, x
                ), (n, g, x)
    assert built


@pytest.mark.parametrize(
    "k, certify, reference, x",
    [
        (3, mixed_certificate, oracles.mixed_certificate, 1),
        (4, no_large_bsubset_certificate, oracles.no_large_bsubset_certificate, 1),
    ],
    ids=["mixed", "no-large"],
)
def test_product_certificate_branch_at_capacity(k, certify, reference, x):
    # the only branches with k <= 8, n <= 60 and g = 1..3 whose forced
    # count equals the capacity exactly: equality must not exceed it
    prod = build_product(k, 36)
    branch = certify(prod, 1, x).sum_branch
    assert branch["guaranteed_groups"] * branch.get("pairs_per_group", 1) == branch["capacity"]
    assert not branch["exceeds"]
    assert _certificate_outcome(certify, prod, 1, x) == _certificate_outcome(reference, prod, 1, x)


class TestMeyerExtract:
    def test_mean_and_validity(self):
        fam = build_meyer(9)
        ext = meyer_extract(fam, seed=7, trials=1000)
        assert Fraction(1, 5) <= ext.mean_ratio <= Fraction(3, 10)
        assert ext.all_pass

    def test_deterministic(self):
        fam = build_meyer(6)
        a = meyer_extract(fam, seed=3, trials=100)
        b = meyer_extract(fam, seed=3, trials=100)
        assert a.sizes == b.sizes
        assert a.best_upper == b.best_upper

    def test_extreme_colorings(self):
        # all indices upper (or all lower) leaves nothing: crossing pairs
        # need the high index upper and the low index lower
        fam = build_meyer(5)
        elems = fam.parts[0].elements
        all_upper = [e for e in elems if e.hi in range(6) and e.lo not in range(6)]
        assert all_upper == []

    def test_every_subset_passes_b2_2(self):
        fam = build_meyer(7)
        ext = meyer_extract(fam, seed=1, trials=50)
        assert ext.all_pass
        best_vals = [e.value for e in ext.best_elements]
        if best_vals:
            assert is_b2(best_vals, 2).passed

    def test_standard_error_halves_with_quadruple_trials(self):
        fam = build_meyer(9)
        small = meyer_extract(fam, seed=13, trials=250)
        big = meyer_extract(fam, seed=14, trials=1000)
        se_small = statistics.stdev(small.sizes) / (len(small.sizes) ** 0.5)
        se_big = statistics.stdev(big.sizes) / (len(big.sizes) ** 0.5)
        # quadrupling the trials should halve the standard error, loosely
        assert se_big < se_small * 0.75
