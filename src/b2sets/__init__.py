"""b2sets: exact construction and verification of integer set families
with controlled repeated sums and differences.

The library builds explicit families that are unions of k parts with
perfectly understood pair sums, verifies every claimed property by exact
enumeration (bounded-repetition checks, additive energy, sumset
disjointness, collision censuses), searches for minimum decompositions,
and produces finite pigeonhole certificates that rule decompositions out.

A module is imported the first time one of its names is used (PEP 562),
so ``from b2sets import is_b2`` loads the analysis engine alone.
"""

__version__ = "0.1.0"

# public name -> the module that defines it
_MODULES = {
    name: module
    for module, names in {
        "analyze": "additive_energy collision_census family_sumset_disjointness is_b2 "
        "is_b2_circ rep_profile subset_doubling_audit",
        "codes": "CodeFamily ReducedVandermonde hadamard_code_vectors reduced_vandermonde "
        "star_code_vectors walsh_rows",
        "construct": "F2Embedding SetFamily build_meyer build_product build_proposition build_w "
        "build_w_circ dyadic_pack f2_embed lattice_points translate",
        "decompose": "counting_certificate exact_min_union greedy_union meyer_extract "
        "mixed_certificate no_large_bsubset_certificate",
        "digitnum": "DigitVector",
        "errors": "B2SetsError EmptyConstruction InternalVerificationFailure ParameterError "
        "ResourceCap",
    }.items()
    for name in names.split()
}

__all__ = list(_MODULES)


def __getattr__(name):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{_MODULES[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
