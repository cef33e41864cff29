"""Derive ``expected.json``: the checked report fields of every fixed-input
operation, computed from the built family files by ``oracle.py`` alone.

    python3 perfbench/derive_expected.py

Takes a minute or two; run it again only when a workload's operations
change. Expected values of seeded random inputs are
derived during each run instead.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations

import oracle
import run
from run import ROOT, WORK, Proc, cli_argv


def build(key: str, args) -> str:
    path = WORK / "derive" / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    rc, _, err = Proc(cli_argv(["build", *args, "--out", str(path)])).finish()
    if rc != 0:
        raise SystemExit(f"build {key} failed: {err}")
    return str(path)


def fraction_fields(path: str, value: Fraction) -> dict:
    """Report fields of an exact fraction, which reports encode as strings."""
    return {f"{path}.num": str(value.numerator), f"{path}.den": str(value.denominator)}


def union(path):
    return [v for part in oracle.family_parts(path) for v in part]


def max_count_check(values, kind, g=2) -> dict:
    top = oracle.pair_stats(values, kind)["max"]
    return {"rc": 0 if top <= g else 1, "results.max_count": top}


def census_check(values, mode) -> dict:
    repeated = oracle.pair_stats(values, mode)["repeated"]
    if mode == "diff":
        repeated //= 2  # v and -v are one class
    # The constructions admit no unexplained collision, so zero anomalies.
    return {"rc": 0, "results.census.collisions": repeated, "results.census.anomalies": 0}


def energy_check(values) -> dict:
    e_plus = oracle.pair_stats(values, "osum")["square_sum"]
    e_minus = oracle.pair_stats(values, "odiff")["square_sum"]
    if e_plus != e_minus:
        raise SystemExit("oracle energies disagree")
    return {"rc": 0, "results.energy.e_plus": e_plus, "results.energy.e_minus": e_minus}


def disjoint_check(path) -> dict:
    parts = oracle.family_parts(path)
    if not oracle.parts_sumsets_disjoint(parts):
        raise SystemExit(f"{path}: part sumsets meet")
    k = len(parts)
    return {"rc": 0, "results.pair_count": k * (k + 1) // 2}


def counting_check(path, g, t) -> dict:
    lhs = len(oracle.family_parts(path)[0])  # one element per lattice tuple in each part
    values = oracle.collision_value_count(path, "sum")
    capacity = t * g * values
    return {
        "rc": 0 if lhs > capacity else 1,
        "results.lhs": lhs,
        "results.collision_value_count": values,
        "results.capacity": capacity,
    }


def meyer_check(n_max: int, seed: int, trials: int) -> dict:
    """Replays the documented coloring: one bit per index per trial."""
    rng = random.Random(seed)
    pairs = list(combinations(range(n_max + 1), 2))  # (lo, hi)
    total = 0
    for _ in range(trials):
        upper = {i for i in range(n_max + 1) if rng.getrandbits(1)}
        total += sum(1 for lo, hi in pairs if hi in upper and lo not in upper)
    ratio = Fraction(total, trials * len(pairs))
    return {"rc": 0, "results.n_elements": len(pairs), **fraction_fields("results.mean_ratio", ratio)}


def audit_check(values, subsets) -> dict:
    count, best_sum, best_diff = oracle.doubling_ratios(values, subsets)
    return {
        "rc": 0,
        "results.audit.subsets_examined": count,
        **fraction_fields("results.audit.min_sum_ratio", best_sum),
        **fraction_fields("results.audit.min_diff_ratio", best_diff),
    }


def sampled_subsets(n, trials, seed, min_size, max_size):
    """The sampled audit's draws: a uniform size, then a uniform subset."""
    rng = random.Random(seed)
    for _ in range(trials):
        size = rng.randint(min_size, min(max_size, n))
        yield sorted(rng.sample(range(n), size))


def flatten_plane(points):
    """(x, y) -> x + m*y with m > 4 max|x|: injective on sums and differences."""
    m = 4 * max(abs(x) for x, _ in points) + 1
    return [x + m * y for x, y in points]


def main() -> None:
    paths = {key: build(key, args) for key, args in {**run.VERIFY_BUILDS, **run.SCALE_BUILDS}.items()}
    w30, wc35 = union(paths["w30"]), union(paths["wc35"])
    p519 = oracle.product_values(paths["p519"])
    verify = {
        "b2circ-w30": max_count_check(w30, "diff"),
        "b2-wc35": max_count_check(wc35, "sum"),
        "census-sum-w30": census_check(w30, "sum"),
        "census-diff-wc35": census_check(wc35, "diff"),
        "energy-w30": energy_check(w30),
        "energy-wc35": energy_check(wc35),
        "energy-p519": energy_check(p519),
        "disjoint-w30": disjoint_check(paths["w30"]),
        "certify-w40": counting_check(paths["w40"], 1, 2),
        # mixed certificates need t <= k//3 - 1 parts; t = 1 at k = 5 is a FAIL verdict
        "certify-p519": {"rc": 1, "results.applicable": False},
        "meyer-9": meyer_check(9, seed=0, trials=1000),
    }
    scale = {
        "b2circ-w60": max_count_check(union(paths["w60"]), "diff"),
        "b2-wc45": max_count_check(union(paths["wc45"]), "sum"),
    }
    slice_w30 = run.interleaved_slice(paths["w30"], run.AUDIT_SLICE)
    slice_wc35 = run.interleaved_slice(paths["wc35"], run.AUDIT_SLICE)
    search_audit = {
        "audit-w30-slice": audit_check(slice_w30, oracle.all_subsets(run.AUDIT_SLICE, 4)),
        "audit-wc35-slice": audit_check(slice_wc35, oracle.all_subsets(run.AUDIT_SLICE, 4)),
        "audit-p519-sampled": audit_check(
            flatten_plane(p519), sampled_subsets(len(p519), 10_000, 11, 4, 48)
        ),
    }
    expected = {"verify": verify, "scale": scale, "search-audit": search_audit}
    (run.HERE / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"wrote {(run.HERE / 'expected.json').relative_to(ROOT)}")


if __name__ == "__main__":
    main()
