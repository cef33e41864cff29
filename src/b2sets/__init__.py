"""b2sets: exact construction and verification of integer set families
with controlled repeated sums and differences.

The library builds explicit families that are unions of k parts with
perfectly understood pair sums, verifies every claimed property by exact
enumeration (bounded-repetition checks, additive energy, sumset
disjointness, collision censuses), searches for minimum decompositions,
and produces finite pigeonhole certificates that rule decompositions out.
"""

from .analyze import (
    additive_energy,
    collision_census,
    family_sumset_disjointness,
    is_b2,
    is_b2_circ,
    rep_profile,
    subset_doubling_audit,
)
from .codes import (
    CodeFamily,
    ReducedVandermonde,
    hadamard_code_vectors,
    reduced_vandermonde,
    star_code_vectors,
    walsh_rows,
)
from .construct import (
    F2Embedding,
    SetFamily,
    build_meyer,
    build_product,
    build_proposition,
    build_w,
    build_w_circ,
    decode_element,
    dyadic_pack,
    f2_embed,
    lattice_points,
    translate,
)
from .decompose import (
    counting_certificate,
    exact_min_union,
    greedy_union,
    meyer_extract,
    mixed_certificate,
    no_large_bsubset_certificate,
)
from .digitnum import DigitVector
from .errors import (
    B2SetsError,
    EmptyConstruction,
    InternalVerificationFailure,
    ParameterError,
    ResourceCap,
)

__version__ = "0.1.0"
