"""Command-line front end.

Subcommands build the set families, run the exact analyses and searches,
and emit reports with full provenance. Reports are canonical JSON
(sorted keys, fixed indentation): identical configuration and seed give
byte-identical output. Wall-clock timing goes to stderr only, never into
the report.

Exit codes: 0 pass, 1 verdict failure, 2 configuration error (an edited
family file, malformed element text, an empty set, or an element file
that cannot be read included), 3 resource cap exceeded or out of memory,
4 search timeout, 5 internal failure (a check of the tool's own work
failed, or an unexpected exception, whose traceback goes to stderr).

``main`` starts numpy with one BLAS thread unless OPENBLAS_NUM_THREADS is set.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .analyze import (
    additive_energy,
    collision_census,
    family_sumset_disjointness,
    is_b2,
    is_b2_circ,
    rep_profile,
    subset_doubling_audit,
)
from .construct import ELEMENT_CAP, build_family, build_meyer, f2_embed
from .decompose import (
    DEFAULT_NODE_BUDGET,
    counting_certificate,
    exact_min_union,
    greedy_union,
    meyer_extract,
    mixed_certificate,
    no_large_bsubset_certificate,
)
from .errors import (
    EmptyConstruction,
    InternalVerificationFailure,
    ParameterError,
    ResourceCap,
)
from .io import (
    FAMILY_SCHEMA,
    REPORT_SCHEMA,
    canonical_json,
    elements_from_dict,
    family_from_dict,
    family_to_dict,
    parse_element,
    read_json,
    save_family,
)

EXIT_PASS = 0
EXIT_VERDICT_FAIL = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_TIMEOUT = 4
EXIT_INTERNAL = 5


def _encode(value):
    """Render report values as JSON-safe data: exact fractions become
    {num, den, approx}, big integers become decimal strings."""
    if isinstance(value, Fraction):
        return {
            "num": str(value.numerator),
            "den": str(value.denominator),
            "approx": float(value),
        }
    if value is None or isinstance(value, (bool, float, str)):
        return value
    if isinstance(value, int):
        return value if abs(value) < 2**53 else str(value)
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return str(value)


def _verdict(check: str, passed: bool, detail: str = "") -> dict:
    return {"check": check, "pass": passed, "detail": detail}


def _fields(obj, *names, **extra) -> dict:
    """The named attributes of ``obj`` as a report dict, plus ``extra``."""
    return {**{name: getattr(obj, name) for name in names}, **extra}


def _finish(args, command: str, config: dict, results: dict, verdicts: list, code=None) -> int:
    """Write the canonical report to ``--out``, render it on stdout as
    ``--format`` asks, and return ``code``, by default pass unless a
    verdict failed."""
    report = {
        "schema": REPORT_SCHEMA,
        "tool": {"name": "b2sets", "version": __version__},
        "command": command,
        "config": _encode(config),
        "results": _encode(results),
        "verdicts": _encode(verdicts),
        "summary": {
            "checks": len(verdicts),
            "passed": sum(1 for v in verdicts if v["pass"]),
        },
    }
    text = canonical_json(report)
    if args.out:
        Path(args.out).write_text(text)
    if args.format == "json":
        sys.stdout.write(text)
    else:
        print(f"b2sets {command} report")
        for v in verdicts:
            print(f"  [{'PASS' if v['pass'] else 'FAIL'}] {v['check']}: {v['detail']}")
        if not verdicts:
            print("  (no verdict checks; results recorded)")
    if code is None:
        code = EXIT_PASS if all(v["pass"] for v in verdicts) else EXIT_VERDICT_FAIL
    return code


def _add_common(p):
    p.add_argument("--out", help="write the canonical JSON report to this path")
    p.add_argument(
        "--format",
        choices=("json", "text"),
        default="text",
        help="stdout rendering (the --out file is always canonical JSON)",
    )


def cmd_build(args) -> int:
    family = build_family(args.kind, args.k, args.n, args.nmax, args.element_cap)
    if args.out:
        save_family(family, args.out)
        print(f"wrote {args.out}: {family.describe()}", file=sys.stderr)
    else:
        sys.stdout.write(canonical_json(family_to_dict(family)))
    for w in family.warnings:
        print(f"warning: {w}", file=sys.stderr)
    return EXIT_PASS


def _load_set(args, needed_by=None):
    """The elements named by ``--values`` or the set file, and the family
    the file holds (None for a plain element list). ``needed_by`` names
    what requires a family file, which is then an error to go without."""
    family = None
    if getattr(args, "values", None):
        elements = [parse_element(v) for v in args.values.split(",")]
    elif not args.setfile:
        raise ParameterError("provide a set file or --values")
    else:
        data = read_json(args.setfile)
        if isinstance(data, dict) and data.get("schema") == FAMILY_SCHEMA:
            family = family_from_dict(data)
            elements = family.union_values()
        else:
            elements = elements_from_dict(data)
    if needed_by and family is None:
        raise ParameterError(f"{needed_by} needs a set family file")
    return elements, family


def _witness(w) -> dict:
    return {"value": str(w.value), "count": w.count}


def cmd_analyze(args) -> int:
    check = args.check
    needed_by = {"disjoint": "disjointness", "census": "census"}.get(check)
    elements, family = _load_set(args, needed_by)
    config = _fields(
        args, "check", "g", "mode", "seed", "trials", "min_size", "max_size", "setfile",
    )
    results: dict = {"n_elements": len(elements)}
    verdicts: list = []
    if family is not None:
        results["provenance"] = _fields(family, "kind", "params", "warnings")
    if check in ("b2", "b2circ"):
        v = (is_b2 if check == "b2" else is_b2_circ)(elements, args.g)
        results["max_count"] = v.max_count
        if v.witness:
            results["witness"] = _witness(v.witness)
        verdicts.append(_verdict(f"{check}[g={args.g}]", v.passed, f"max_count={v.max_count}"))
    elif check == "profile":
        prof = rep_profile(elements, args.mode)
        results["profile"] = _fields(
            prof, "mode", "total_pairs", "distinct_values", "max_count",
            witnesses=[_witness(w) for w in prof.witnesses],
        )
    elif check == "energy":
        rep = additive_energy(elements)
        results["energy"] = _fields(
            rep, "e_plus", "e_minus", "sumset_size", "diffset_size",
            "doubling_ratio_sum", "doubling_ratio_diff", "energy_lower_bound",
        )
        verdicts.append(_verdict("energy-identity", rep.e_plus == rep.e_minus, f"E+={rep.e_plus}"))
    elif check == "disjoint":
        rep = family_sumset_disjointness(family)
        results["pair_count"] = rep.pair_count
        if not rep.passed:
            results["witness"] = {
                "value": str(rep.witness_value),
                "pairs": rep.witness_pairs,
            }
        verdicts.append(_verdict("sumset-disjointness", rep.passed))
    elif check == "census":
        rep = collision_census(family, args.mode)
        patterns = {r.pattern for r in rep.records if r.classification == "PREDICTED"}
        results["census"] = _fields(
            rep, "mode", "predicted", "anomalies",
            collisions=len(rep.records), patterns=sorted(patterns),
        )
        verdicts.append(
            _verdict(
                f"census[{args.mode}]",
                rep.anomalies == 0,
                f"{len(rep.records)} collisions, {rep.anomalies} anomalies",
            )
        )
    elif check == "audit":
        rep = subset_doubling_audit(
            elements, args.audit_mode, **_fields(args, "min_size", "trials", "seed", "max_size")
        )
        results["audit"] = _fields(
            rep, "mode", "subsets_examined", "min_sum_ratio", "min_diff_ratio"
        )
    else:
        raise ParameterError(f"unknown check {check!r}")
    return _finish(args, "analyze", config, results, verdicts)


def _counting_sketch(cert, parts: int, g: int, k: int) -> str:
    if not cert.applicable:
        return (
            f"not applicable (t >= k): the {k} elements of a lattice tuple can "
            f"lie in {parts} distinct parts, so no same-part pair is forced"
        )
    word = "sum" if cert.kind == "sum" else "difference"
    conclusion = (
        f"{cert.lhs} > {cert.capacity} rules the decomposition out"
        if cert.verdict
        else f"{cert.lhs} <= {cert.capacity} yields no conclusion"
    )
    return (
        f"each of the {cert.lhs} lattice tuples forces one same-part pair among "
        f"its {k} elements, giving a repeated {word} value; only "
        f"{cert.collision_value_count} such values exist and each of the {parts} "
        f"parts can repeat a value at most {g} times, so at most {cert.capacity} "
        f"tuples can be absorbed; {conclusion}"
    )


def cmd_certify(args) -> int:
    _elements, family = _load_set(args, "certify")
    config = _fields(args, "g", "parts", "delta_prime", "setfile")
    if args.delta_prime is None and args.parts is None:
        raise ParameterError("--parts is required")
    if args.delta_prime is not None:
        cert = no_large_bsubset_certificate(family, args.g, args.delta_prime)
        results = _fields(
            cert, "delta_prime", "gamma", "threshold", "sum_branch", "diff_branch",
            certificate="no-large-subset",
        )
        verdict = _verdict(
            f"no-large-subset[g={args.g}, delta'={args.delta_prime}]",
            cert.verdict,
            "both branches exceed capacity" if cert.verdict else "capacity not exceeded",
        )
    elif family.kind == "product":
        cert = mixed_certificate(family, args.g, args.parts)
        results = _fields(
            cert, "applicable", "threshold", "sum_branch", "diff_branch",
            certificate="mixed-union",
        )
        verdict = _verdict(
            f"mixed-certificate[g={args.g}, t={args.parts}]",
            cert.verdict,
            f"applicable={cert.applicable}",
        )
    else:
        cert = counting_certificate(family, args.g, args.parts)
        results = _fields(
            cert, "kind", "lhs", "collision_value_count", "capacity", "formula_lower_bound",
            certificate="counting",
            per_pair_counts={f"{i},{j}": c for (i, j), c in cert.per_pair_counts.items()},
            sketch=_counting_sketch(cert, args.parts, args.g, family.params["k"]),
        )
        verdict = _verdict(
            f"counting-certificate[g={args.g}, t={args.parts}]",
            cert.verdict,
            f"lhs={cert.lhs} capacity={cert.capacity}"
            + ("" if cert.applicable else "; not applicable (t >= k)"),
        )
    return _finish(args, "certify", config, results, [verdict])


def cmd_decompose(args) -> int:
    elements, _family = _load_set(args)
    config = _fields(args, "g", "kind", "max_parts", "budget", "setfile", "values")
    if args.greedy:
        deco = greedy_union(elements, args.g, args.kind)
        return _finish(args, "decompose", config, {"greedy_parts": deco.parts_used}, [])
    rep = exact_min_union(
        elements, args.g, args.kind, max_parts=args.max_parts, budget=args.budget
    )
    results = {
        "minimum": rep.minimum,
        "per_parts": {
            str(t): {"status": r.status, "nodes": r.nodes_explored}
            for t, r in rep.results.items()
        },
        "search": {
            "order": "fail-first: descending collision degree, ties by input position",
            "symmetry_breaking": "first element pinned to part 1; a new part may "
            "only be opened as the next unused index",
        },
    }
    timed_out = any(r.status == "TIMEOUT" for r in rep.results.values())
    code = EXIT_TIMEOUT if timed_out else EXIT_PASS
    return _finish(args, "decompose", config, results, [], code)


def cmd_embed(args) -> int:
    elements, _family = _load_set(args)
    config = _fields(args, "setfile")
    emb = f2_embed(elements)
    results = _fields(
        emb, "base",
        dimension=len(emb.points[0]),
        n_points=len(emb.points),
        image=[str(v) for v in emb.image],
    )
    verdict = _verdict("structure-preserving-embedding", True, "certified")
    return _finish(args, "embed", config, results, [verdict])


def cmd_meyer(args) -> int:
    family = build_meyer(args.nmax)
    config = _fields(args, "nmax", "trials", "seed")
    ext = meyer_extract(family, seed=args.seed, trials=args.trials)
    results = _fields(
        ext, "n_elements", "mean_ratio", "best_size", "best_upper",
        rng="random.Random(seed), one bit per index per trial",
    )
    verdict = _verdict(
        "extracted-subsets-B2sum[g=2]", ext.all_pass, f"mean={float(ext.mean_ratio):.4f}"
    )
    return _finish(args, "meyer", config, results, [verdict])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="b2sets",
        description="build and exactly verify set families with controlled repeated sums",
    )
    parser.add_argument("--version", action="version", version=f"b2sets {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="construct a set family and write its JSON form")
    p.add_argument("--kind", required=True, choices=("W", "Wcirc", "product", "meyer", "proposition"))
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--nmax", type=int, default=None, help="index bound for kind meyer")
    p.add_argument("--element-cap", type=int, default=ELEMENT_CAP)
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("analyze", help="run exact checks against a set file")
    p.add_argument("setfile", nargs="?")
    p.add_argument("--values", help="comma-separated decimal or sparse elements")
    p.add_argument(
        "--check",
        required=True,
        choices=("b2", "b2circ", "profile", "energy", "disjoint", "census", "audit"),
    )
    p.add_argument("--g", type=int, default=1)
    p.add_argument("--mode", choices=("sum", "diff"), default="sum")
    p.add_argument("--audit-mode", choices=("exhaustive", "sample"), default="sample")
    p.add_argument("--min-size", type=int, default=4)
    p.add_argument("--max-size", type=int, default=None)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("certify", help="finite pigeonhole certificates")
    p.add_argument("setfile")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--parts", type=int, default=None)
    p.add_argument("--delta-prime", default=None, help="density for the no-large-subset certificate, e.g. 1/2")
    _add_common(p)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("decompose", help="exact minimum union decomposition search")
    p.add_argument("setfile", nargs="?")
    p.add_argument("--values", help="comma-separated decimal or sparse elements")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--kind", choices=("sum", "diff"), required=True)
    p.add_argument("--max-parts", type=int, default=None)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--greedy", action="store_true", help="first-fit upper bound only")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("embed", help="embed a finite point set into the integers")
    p.add_argument("setfile", nargs="?")
    p.add_argument("--values", help="comma-separated decimal or sparse elements")
    _add_common(p)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("meyer", help="random partition extraction from the difference family")
    p.add_argument("--nmax", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(func=cmd_meyer)

    return parser


def main(argv=None) -> int:
    # No b2sets path calls BLAS (the residue kernel only sorts, searches,
    # repeats and sums), but OpenBLAS starts a worker pool when numpy loads,
    # which about doubles the cost of the import. A caller's setting wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        code = args.func(args)
    except ResourceCap as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ParameterError, EmptyConstruction, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InternalVerificationFailure as exc:
        print(f"internal failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception as exc:
        import traceback  # loaded only on this path, off the startup cost

        traceback.print_exc()
        return EXIT_RESOURCE if isinstance(exc, MemoryError) else EXIT_INTERNAL
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
