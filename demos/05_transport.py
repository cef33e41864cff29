#!/usr/bin/env python3
"""Moving sets around without touching their additive structure.

Three tools transport a finite set while preserving every relation
a+b = c+d and a-b = c-d in both directions: translation, embedding of
d-dimensional points into the integers by a base large enough that
coordinate sums never interact, and packing a list of sets into disjoint
dyadic blocks. Bounded-repetition verdicts are invariant under all three.
"""

from b2sets import (
    build_product,
    dyadic_pack,
    f2_embed,
    is_b2,
    is_b2_circ,
    subset_doubling_audit,
    translate,
)

print("== embedding planar points into the integers ==")
points = [(1, 0), (0, 1), (2, 3)]
emb = f2_embed(points)
print(f"base = {emb.base}, image = {emb.image}")

prod = build_product(3, 5)
pairs = prod.union_values()
emb = f2_embed(pairs)
print(f"\nembedded the {len(pairs)}-element planar product; base has"
      f" {len(str(emb.base))} digits")
for g in (1, 2):
    before = is_b2(pairs, g).passed
    after = is_b2(list(emb.image), g).passed
    print(f"  B2[{g}] before/after: {before}/{after}")
    before = is_b2_circ(pairs, g).passed
    after = is_b2_circ(list(emb.image), g).passed
    print(f"  B2o[{g}] before/after: {before}/{after}")

print("\n== subsets of the product keep large doubling ==")
audit = subset_doubling_audit(pairs, "sample", min_size=4, trials=2000, seed=3)
print(f"min |A'+A'|/|A'|^2 over {audit.subsets_examined} sampled subsets:"
      f" {audit.min_sum_ratio} (never below 1/20)")

print("\n== translation ==")
sidon = [1, 2, 5, 11]
moved = translate(sidon, 1000)
print(f"{sidon} + 1000 = {moved}; B2[1] preserved:"
      f" {is_b2(sidon, 1).passed} -> {is_b2(moved, 1).passed}")

print("\n== dyadic packing ==")
packed = dyadic_pack([[0, 1], [0, 1, 2, 3], [5, 9]])
for blk in packed.blocks:
    lo, hi = 1 << blk.psi, 1 << (blk.psi + 1)
    print(f"  set {blk.index} -> block [{lo}, {hi}): {blk.elements}")
print(f"union: {packed.union()}")
