"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Every numeric assertion is exact (integers and
Fractions); runtime limits are asserted from the criteria.
"""

import contextlib
import io
import json
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from b2sets.analyze import (
    additive_energy,
    collision_census,
    family_sumset_disjointness,
    is_b2,
    is_b2_circ,
    rep_profile,
    subset_doubling_audit,
)
from b2sets.cli import main as cli_main
from b2sets.codes import hadamard_code_vectors, int_det, reduced_vandermonde
from b2sets.construct import (
    build_meyer,
    build_product,
    build_proposition,
    build_w,
    build_w_circ,
    f2_embed,
)
from b2sets.decompose import counting_certificate, exact_min_union, meyer_extract

from oracles import (
    brute_min_union,
    brute_relations_preserved,
    decode_element,
    greedy_sidon,
    pair_partitions_agree,
)


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _report(number, passed, elapsed, limit, detail):
    state = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {state} ({elapsed:.1f}s / limit {limit:.0f}s) {detail}")
    assert passed, f"criterion {number}: {detail}"
    assert elapsed < limit, f"criterion {number} exceeded {limit}s ({elapsed:.1f}s)"


@pytest.fixture(scope="module")
def family_w():
    return build_w(3, 30)


@pytest.fixture(scope="module")
def family_wcirc():
    return build_w_circ(5, 35)


@pytest.fixture(scope="module")
def family_product():
    return build_product(5, 19)


@pytest.fixture(scope="module")
def family_meyer():
    return build_meyer(9)


def interleaved_slice(family, size):
    """Deterministic slice mixing lattice points across all parts."""
    out = []
    idx = 0
    while len(out) < size:
        for part in family.parts:
            out.append(part.elements[idx].value)
            if len(out) == size:
                break
        idx += 1
    return out


def test_criterion_01_code_invariants():
    with _Timer() as t:
        ok = True
        for k in range(1, 65):
            cf = hadamard_code_vectors(k)  # re-checks the Walsh characters internally
            seen = set()
            for i in range(k):
                for j in range(i, k):
                    s = tuple(a + b for a, b in zip(cf.vectors[i], cf.vectors[j]))
                    ok = ok and s not in seen
                    seen.add(s)
                    if i != j:
                        ok = ok and 2 * sum(1 for x in s if x == 0) > cf.d
        for d in range(1, 14):
            rv = reduced_vandermonde(d)
            for pick in combinations(range(d), rv.m):
                ok = ok and int_det([rv.rows[r] for r in pick]) != 0
    _report(1, ok, t.elapsed, 10, "hadamard k<=64 exhaustive; vandermonde d<=13 all minors nonzero")


def test_criterion_02_main_family(family_w):
    with _Timer() as t:
        parts_ok = all(is_b2(vals, 1).passed for vals in family_w.part_values())
        union_ok = is_b2_circ(family_w.union_values(), 2).passed
        disjoint_ok = family_sumset_disjointness(family_w).passed
        census = collision_census(family_w, "sum")
        census_ok = census.anomalies == 0
        ok = parts_ok and union_ok and disjoint_ok and census_ok
    _report(
        2,
        ok,
        t.elapsed,
        60,
        f"W(3,30) |union|={family_w.size()}: parts B2[1], union B2o[2], "
        f"disjoint sumsets, census {len(census.records)} collisions 0 anomalies",
    )


def test_criterion_03_star_family(family_wcirc):
    with _Timer() as t:
        size_ok = 10**3 <= family_wcirc.size() <= 10**4
        union_ok = is_b2(family_wcirc.union_values(), 2).passed
        parts_ok = all(
            is_b2_circ(vals, 1).passed for vals in family_wcirc.part_values()
        )
        census = collision_census(family_wcirc, "diff")
        census_ok = census.anomalies == 0
        ok = size_ok and union_ok and parts_ok and census_ok
    _report(
        3,
        ok,
        t.elapsed,
        300,
        f"Wcirc(5,35) |union|={family_wcirc.size()}: union B2[2], parts B2o[1], "
        f"diff census {len(census.records)} collisions 0 anomalies",
    )


def test_criterion_04_unique_decoding(family_w, family_wcirc):
    with _Timer() as t:
        ok = True
        for fam in (family_w, family_wcirc):
            for e in fam.union_elements():
                coords, j = decode_element(fam, e.value)
                ok = ok and coords == e.point.coords and j == e.vector_index
    _report(4, ok, t.elapsed, 60, "decode round-trip identity on 100% of both families")


def test_criterion_05_energy_identities(
    family_w, family_wcirc, family_product, family_meyer
):
    with _Timer() as t:
        ok = True
        rng = random.Random(20250809)
        checked = 0
        for _ in range(200):
            n = rng.randint(1, 300)
            span = rng.choice([2 * n + 4, 10 * n, 10**9])
            vals = list({rng.randint(-span, span) for _ in range(n)})
            rep = additive_energy(vals)  # internal exact assertions
            ok = ok and rep.e_plus == rep.e_minus
            checked += 1
        families = [
            family_w.union_values(),
            family_wcirc.union_values(),
            family_product.union_values(),
            family_meyer.union_values(),
            build_proposition(2, 4).union_values(),
        ]
        for vals in families:
            rep = additive_energy(vals)
            ok = ok and rep.e_plus == rep.e_minus
        # the product is a full grid, counted per axis: it must agree with
        # the pair-by-pair count of its embedded ints
        product = family_product.union_values()
        ok = ok and additive_energy(product) == additive_energy(list(f2_embed(product).image))
        # fourth-moment caps for the verified families
        n_w = family_w.size()
        ok = ok and additive_energy(family_w.union_values()).e_plus <= 3 * n_w * n_w
        n_wc = family_wcirc.size()
        ok = ok and additive_energy(family_wcirc.union_values()).e_plus <= 4 * n_wc * n_wc
    _report(
        5,
        ok,
        t.elapsed,
        300,
        f"{checked} random sets + 5 families: E+ = E-, Cauchy-Schwarz bounds, "
        "product per axis = enumerated, B2o[2] cap 3|A|^2 and B2[2] cap 4|A|^2",
    )


def test_criterion_06_subset_doubling(family_w, family_wcirc, family_product):
    with _Timer() as t:
        w_slice = interleaved_slice(family_w, 16)
        res_w = subset_doubling_audit(w_slice, "exhaustive", min_size=4)
        ok = res_w.min_sum_ratio >= Fraction(1, 3)
        ok = ok and res_w.min_diff_ratio >= Fraction(1, 3)
        wc_slice = interleaved_slice(family_wcirc, 16)
        res_wc = subset_doubling_audit(wc_slice, "exhaustive", min_size=4)
        ok = ok and res_wc.min_sum_ratio >= Fraction(1, 4)
        ok = ok and res_wc.min_diff_ratio >= Fraction(1, 4)
        res_p = subset_doubling_audit(
            family_product.union_values(),
            "sample",
            min_size=4,
            trials=10**4,
            seed=11,
            max_size=48,
        )
        ok = ok and res_p.min_sum_ratio >= Fraction(1, 20)
        ok = ok and res_p.min_diff_ratio >= Fraction(1, 20)
    _report(
        6,
        ok,
        t.elapsed,
        300,
        f"W slice mins {res_w.min_sum_ratio},{res_w.min_diff_ratio} >= 1/3; "
        f"Wcirc slice mins {res_wc.min_sum_ratio},{res_wc.min_diff_ratio} >= 1/4; "
        f"product sampled mins {res_p.min_sum_ratio},{res_p.min_diff_ratio} >= 1/20",
    )


def test_criterion_07_counting_certificate():
    with _Timer() as t:
        first_true = None
        ok = True
        for n in range(4, 61):
            w = build_w(3, n)
            cert = counting_certificate(w, g=1, parts=2)
            ok = ok and cert.formula_lower_bound <= cert.lhs
            if cert.verdict and first_true is None:
                first_true = n
        ok = ok and first_true is not None
    _report(
        7,
        ok,
        t.elapsed,
        120,
        f"k=3 g=1 t=2: first certified n = {first_true} <= 60; "
        "closed-form lattice bound held at every n",
    )


def test_criterion_08_search_soundness():
    with _Timer() as t:
        vals = [5**i for i in range(1, 9)] + [-(5**i) for i in range(1, 9)]
        ok = exact_min_union(vals, g=7, kind="sum").minimum == 2
        rng = random.Random(404)
        for _ in range(50):
            sidon = greedy_sidon(rng, 200, 12)
            ok = ok and exact_min_union(sidon, g=1, kind="sum").minimum == 1
        battery = [
            list(range(6)),
            list(range(9)),
            [0, 1, 3, 7, 12, 20],
            [1, 2, 4, 8, 16, 32, 64],
            [0, 2, 4, 6, 8, 10],
        ]
        rng = random.Random(808)
        while len(battery) < 15:
            size = rng.randint(5, 12)
            battery.append(sorted(rng.sample(range(28), size)))
        for inst in battery:
            for kind in ("sum", "diff"):
                for g in (1, 2):
                    got = exact_min_union(inst, g=g, kind=kind, max_parts=3).minimum
                    want = brute_min_union(inst, g, kind, 3)
                    ok = ok and got == want
    _report(
        8,
        ok,
        t.elapsed,
        120,
        "signed powers need 2 parts at g=7; 50 seeded difference-free sets "
        "solve in 1; backtracking agrees with the all-assignments oracle on "
        "every |A| <= 12 instance",
    )


def test_criterion_09_meyer_extraction(family_meyer):
    with _Timer() as t:
        ext = meyer_extract(family_meyer, seed=7, trials=1000)
        ok = Fraction(1, 5) <= ext.mean_ratio <= Fraction(3, 10)
        ok = ok and ext.all_pass
    _report(
        9,
        ok,
        t.elapsed,
        30,
        f"n_max=9, 1000 trials, seed 7: mean ratio {float(ext.mean_ratio):.4f} "
        "in [0.20, 0.30]; every extracted subset repeats no sum more than twice",
    )


def test_criterion_10_embedding_fidelity():
    with _Timer() as t:
        ok = True
        point_sets = []
        families = [
            build_w(2, 8),
            build_w(3, 13),
            build_w_circ(5, 12),
            build_product(3, 5),
            build_meyer(9),
            build_proposition(2, 3),
        ]
        for fam in families:
            assert fam.size() <= 100
            point_sets.append([v for v in fam.union_values()])
        rng = random.Random(1234)
        for _ in range(50):
            size = rng.randint(3, 25)
            pts = list({(rng.randint(-50, 50), rng.randint(-50, 50)) for _ in range(size)})
            point_sets.append(pts)
        for pts in point_sets:
            emb = f2_embed(pts)
            ok = ok and pair_partitions_agree(emb.points, list(emb.image))
            if len(pts) <= 12:
                ok = ok and brute_relations_preserved(emb.points, list(emb.image))
            image = list(emb.image)
            for g in (1, 2):
                ok = ok and is_b2(pts, g).passed == is_b2(image, g).passed
                ok = ok and is_b2_circ(pts, g).passed == is_b2_circ(image, g).passed
    _report(
        10,
        ok,
        t.elapsed,
        180,
        f"{len(point_sets)} point sets (6 families + 50 random planar): all "
        "sum/difference quadruple relations preserved, bounded-repetition "
        "verdicts identical before and after embedding",
    )


def test_criterion_11_proposition_instance():
    with _Timer() as t:
        fam = build_proposition(2, 4)
        parts_ok = all(is_b2(vals, 2).passed for vals in fam.part_values())
        tight = False
        for vals in fam.part_values():
            prof = rep_profile(vals, "sum")
            if prof.max_count == 2:
                tight = True
                break
        ok = parts_ok and tight
    _report(
        11,
        ok,
        t.elapsed,
        60,
        "proposition k=2 n=4: all 4 parts pass B2[2]; a value with exactly "
        "two unordered representations witnesses tightness",
    )


def test_criterion_12_reproducibility(tmp_path):
    with _Timer() as t:
        w30 = tmp_path / "w30.json"
        w40 = tmp_path / "w40.json"
        cli_main(["build", "--kind", "W", "--k", "3", "--n", "30", "--out", str(w30)])
        cli_main(["build", "--kind", "W", "--k", "3", "--n", "40", "--out", str(w40)])
        signed_powers = ",".join(
            [str(5**i) for i in range(1, 9)] + [str(-(5**i)) for i in range(1, 9)]
        )
        commands = [
            ["build", "--kind", "W", "--k", "3", "--n", "30"],
            ["build", "--kind", "Wcirc", "--k", "5", "--n", "14"],
            ["build", "--kind", "meyer", "--nmax", "9"],
            ["build", "--kind", "proposition", "--k", "2", "--n", "4"],
            ["analyze", str(w30), "--check", "b2circ", "--g", "2"],
            ["analyze", str(w30), "--check", "census", "--mode", "sum"],
            ["analyze", str(w30), "--check", "energy"],
            ["analyze", str(w30), "--check", "audit", "--trials", "100", "--seed", "11"],
            ["certify", str(w40), "--g", "1", "--parts", "2"],
            ["decompose", "--values", signed_powers, "--g", "7", "--kind", "sum"],
            ["meyer", "--nmax", "9", "--trials", "1000", "--seed", "7"],
            ["embed", "--values", "5,25,125,625"],
        ]
        ok = True
        for idx, argv in enumerate(commands):
            a = tmp_path / f"rep_{idx}_a.json"
            b = tmp_path / f"rep_{idx}_b.json"
            with contextlib.redirect_stdout(io.StringIO()):
                cli_main(argv + ["--out", str(a)])
                cli_main(argv + ["--out", str(b)])
            ok = ok and a.read_bytes() == b.read_bytes()
            ok = ok and json.loads(a.read_text()) is not None
    _report(
        12,
        ok,
        t.elapsed,
        120,
        f"{len(commands)} commands rerun with identical config and seed: "
        "byte-identical JSON reports",
    )
