"""Metamorphic checks: every property b2sets counts is invariant under
Freiman isomorphisms, so a set and its image under a translation, a
negation or a dilation must give the same verdicts, counts, energies and
minima. Under the increasing maps every witness, repeated value, argmin
and decomposition maps to its image as well; under negation each witness
value is the image of a value with the same count. A family moved by an
increasing map keeps its census and its disjointness verdict, labels and
all, with every reported value mapped.
"""

import functools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import b2sets
from b2sets.analyze import (
    additive_energy,
    collision_census,
    family_sumset_disjointness,
    is_b2,
    is_b2_circ,
    rep_profile,
    subset_doubling_audit,
)
from b2sets.construct import Part, build_product, build_w, build_w_circ
from b2sets.decompose import exact_min_union, greedy_union
from b2sets.digitnum import as_int

INPUTS = {
    "sparse": lambda: random.Random(1).sample(range(-10**9, 10**9), 40),
    "dense": lambda: random.Random(2).sample(range(45), 30),
    "w310": lambda: [as_int(v) for v in build_w(3, 10).union_values()],
    "product35": lambda: [tuple(map(as_int, p)) for p in build_product(3, 5).union_values()],
}

# x -> a * x + b, per coordinate for points
MAPS = {
    "translate": (1, 10**18 + 7),
    "negate": (-1, 0),
    "dilate-2^61-1": (2**61 - 1, 0),
    "dilate-2^31-19": (2**31 - 19, 0),
    "dilate-2^40": (2**40, 0),
}

SEARCH_BUDGET = 20_000

# the increasing maps a family's element values are moved by
FAMILY_MAPS = {
    "translate": (1, 10**30 + 7),
    "dilate-2^61-1": (2**61 - 1, 0),
    "dilate-2^31-19": (2**31 - 19, 0),
    "dilate-2^40": (2**40, 0),
}


def _with_shared_part(family):
    """The family and one more part made of elements of parts 1 and 3, so
    its part sumsets meet."""
    first, _, third = family.parts[:3]
    return family._replace(
        parts=family.parts + (Part("shared", first.elements[:3] + third.elements[:2]),)
    )


FAMILIES = {
    "w310": lambda: build_w(3, 10),
    "wc514": lambda: build_w_circ(5, 14),
    "w310-shared": lambda: _with_shared_part(build_w(3, 10)),
}


def _apply(x, a, b):
    if isinstance(x, tuple):
        return tuple(a * c + b for c in x)
    return a * x + b


def _map_value(v, mode, a, b):
    """The image of a pair value: a * v + 2b for a sum, a * v for a
    difference, which is then taken in positive orientation."""
    image = _apply(v, a, 2 * b if mode == "sum" else 0)
    if mode == "diff":
        zero = tuple(0 for _ in v) if isinstance(v, tuple) else 0
        if image < zero:
            image = _apply(image, -1, 0)
    return image


def _checks(elements):
    out = {}
    for check in (is_b2, is_b2_circ):
        for g in (1, 2):
            out[check.__name__, g] = check(elements, g)
    for mode in ("sum", "diff"):
        out["profile", mode] = rep_profile(elements, mode)
    out["energy"] = additive_energy(elements)
    out["exhaustive"] = subset_doubling_audit(elements[:12], "exhaustive", min_size=3)
    out["sample"] = subset_doubling_audit(
        elements, "sample", min_size=3, max_size=20, trials=100, seed=5
    )
    for kind in ("sum", "diff"):
        out["exact", kind] = exact_min_union(elements, 1, kind, budget=SEARCH_BUDGET)
        out["greedy", kind] = greedy_union(elements, 1, kind)
    return out


@functools.lru_cache(maxsize=None)
def _original(name):
    elements = INPUTS[name]()
    return elements, _checks(elements)


@pytest.mark.parametrize("image", list(MAPS))
@pytest.mark.parametrize("name", list(INPUTS))
def test_checks_commute_with_freiman_isomorphisms(name, image):
    elements, want = _original(name)
    a, b = MAPS[image]
    mapped = [_apply(x, a, b) for x in elements]
    got = _checks(mapped)
    increasing = a > 0

    def element(x):
        return _apply(x, a, b)

    for check, g in [k for k in want if k[0] in ("is_b2", "is_b2_circ")]:
        mode = "sum" if check == "is_b2" else "diff"
        w, v = want[check, g], got[check, g]
        assert (v.passed, v.max_count) == (w.passed, w.max_count)
        assert (v.witness is None) == (w.witness is None)
        if w.witness is None:
            continue
        if increasing:
            assert v.witness.value == _map_value(w.witness.value, mode, a, b)
            assert v.witness.pairs == tuple((element(x), element(y)) for x, y in w.witness.pairs)
        counts = {
            _map_value(u, mode, a, b): len(pairs)
            for u, pairs in want["profile", mode].repeated.items()
        }
        assert counts[v.witness.value] == v.witness.count == w.witness.count

    for mode in ("sum", "diff"):
        w, v = want["profile", mode], got["profile", mode]
        assert (v.n_elements, v.total_pairs, v.distinct_values, v.max_count) == (
            w.n_elements, w.total_pairs, w.distinct_values, w.max_count,
        )
        counts = {_map_value(u, mode, a, b): len(pairs) for u, pairs in w.repeated.items()}
        assert {u: len(pairs) for u, pairs in v.repeated.items()} == counts
        for witness in v.witnesses:
            assert counts[witness.value] == witness.count == v.max_count
        if increasing:
            assert list(v.repeated.items()) == [
                (_map_value(u, mode, a, b), pairs) for u, pairs in w.repeated.items()
            ]
            assert [x.value for x in v.witnesses] == [
                _map_value(x.value, mode, a, b) for x in w.witnesses
            ]
            assert [x.pairs for x in v.witnesses] == [
                tuple((element(p), element(q)) for p, q in x.pairs) for x in w.witnesses
            ]

    assert got["energy"] == want["energy"]

    for audit in ("exhaustive", "sample"):
        w, v = want[audit], got[audit]
        assert v._replace(argmin_sum=None, argmin_diff=None) == w._replace(
            argmin_sum=None, argmin_diff=None
        )
        if increasing:
            assert v.argmin_sum == list(map(element, w.argmin_sum))
            assert v.argmin_diff == list(map(element, w.argmin_diff))

    for kind in ("sum", "diff"):
        w, v = want["exact", kind], got["exact", kind]
        assert v.minimum == w.minimum
        assert [(r.status, r.parts) for r in v.results.values()] == [
            (r.status, r.parts) for r in w.results.values()
        ]
        if increasing:
            assert v == w
        w, v = want["greedy", kind], got["greedy", kind]
        assert v.parts_used == w.parts_used
        if increasing:
            assert v == w


def test_dilated_sets_cost_what_the_set_costs():
    # 200 random keys below 10^12 times 2^61 - 1 count as the keys
    # themselves; unnormalised, is_b2 took 5 s, additive_energy 13 s and
    # the sampled audit 9.5 s. 25 * range(1000) is range(1000) to every
    # engine, so it takes the dense product and never the kernel.
    code = (
        "import random, time\n"
        "from b2sets import analyze\n"
        "from b2sets.decompose import greedy_union\n"
        "keys = [(2**61 - 1) * k for k in random.Random(1).sample(range(10**12), 200)]\n"
        "calls = {\n"
        "    'is_b2': lambda: analyze.is_b2(keys, 1),\n"
        "    'rep_profile': lambda: analyze.rep_profile(keys, 'sum'),\n"
        "    'additive_energy': lambda: analyze.additive_energy(keys),\n"
        "    'sampled audit': lambda: analyze.subset_doubling_audit(keys, 'sample', trials=300),\n"
        "    'greedy_union': lambda: greedy_union(keys[:120], 1, 'sum'),\n"
        "}\n"
        "for name, call in calls.items():\n"
        "    start = time.perf_counter()\n"
        "    call()\n"
        "    print(name, time.perf_counter() - start)\n"
        "def no_kernel(*args):\n"
        "    raise AssertionError('25 * range(1000) reached _count_values')\n"
        "analyze._count_values = no_kernel\n"
        "dilated = [25 * x for x in range(1000)]\n"
        "analyze.is_b2(dilated, 1), analyze.is_b2_circ(dilated, 1), analyze.additive_energy(dilated)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(b2sets.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=30
        )
    except subprocess.TimeoutExpired as exc:
        pytest.fail(f"dilated keys took over 30 s; finished: {exc.stdout!r}")
    assert proc.returncode == 0, proc.stderr
    times = {name: float(t) for name, t in (line.rsplit(" ", 1) for line in proc.stdout.splitlines())}
    assert len(times) == 5
    assert all(t < 2 for t in times.values()), times


def _moved(family, a, b):
    """The family with every element value x moved to a * x + b and every
    label kept."""
    return family._replace(
        parts=tuple(
            part._replace(
                elements=tuple(e._replace(value=a * as_int(e.value) + b) for e in part.elements)
            )
            for part in family.parts
        )
    )


def _labels(record):
    """Everything a census record holds but its value: the labels of each
    representation, the part pair and the classification."""
    reps = [tuple((e.point, e.vector_index) for e in rep) for rep in record.reps]
    return reps, record.part_pair, record.classification, record.pattern


@pytest.mark.parametrize("image", list(FAMILY_MAPS))
@pytest.mark.parametrize("mode", ["sum", "diff"])
@pytest.mark.parametrize("name", ["w310", "wc514"])
def test_census_commutes_with_freiman_isomorphisms(name, mode, image):
    family = FAMILIES[name]()
    a, b = FAMILY_MAPS[image]
    want = collision_census(family, mode)
    got = collision_census(_moved(family, a, b), mode)
    assert want.records
    assert (got.n_elements, len(got.records), got.predicted, got.anomalies) == (
        want.n_elements, len(want.records), want.predicted, want.anomalies,
    )
    assert list(map(_labels, got.records)) == list(map(_labels, want.records))
    assert [r.value for r in got.records] == [
        _map_value(r.value, mode, a, b) for r in want.records
    ]


@pytest.mark.parametrize("image", list(FAMILY_MAPS))
@pytest.mark.parametrize("name", ["w310", "wc514", "w310-shared"])
def test_disjointness_commutes_with_freiman_isomorphisms(name, image):
    family = FAMILIES[name]()
    a, b = FAMILY_MAPS[image]
    want = family_sumset_disjointness(family)
    got = family_sumset_disjointness(_moved(family, a, b))
    assert want.passed == (name != "w310-shared")
    if not want.passed:
        want = want._replace(witness_value=_map_value(want.witness_value, "sum", a, b))
    assert got == want
