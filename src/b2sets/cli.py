"""Command-line front end.

Subcommands build the set families, run the exact analyses and searches,
and emit reports with full provenance. Reports are canonical JSON
(sorted keys, fixed indentation): identical configuration and seed give
byte-identical output. Wall-clock timing goes to stderr only, never into
the report.

Exit codes: 0 pass, 1 verdict failure, 2 configuration error (an edited
family file included), 3 resource cap exceeded, 4 search timeout, 5
internal failure (a check of the tool's own work failed).
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__
from .analyze import (
    AuditParams,
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
    counting_certificate,
    exact_min_union,
    greedy_union,
    meyer_extract,
    mixed_certificate,
    no_large_bsubset_certificate,
)
from .errors import (
    B2SetsError,
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
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value if abs(value) < 2**53 else str(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    return str(value)


def _report(command: str, config: dict, results: dict, verdicts: list) -> dict:
    return {
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


def _emit(report: dict, args) -> None:
    text = canonical_json(report)
    if args.out:
        Path(args.out).write_text(text)
    if args.format == "json" or not args.out:
        sys.stdout.write(text if args.format == "json" else "")
    if args.format == "text":
        _print_text(report)


def _print_text(report: dict) -> None:
    print(f"b2sets {report['command']} report")
    for v in report["verdicts"]:
        state = "PASS" if v["pass"] else "FAIL"
        print(f"  [{state}] {v['check']}: {v.get('detail', '')}")
    if not report["verdicts"]:
        print("  (no verdict checks; results recorded)")


def _exit_code(verdicts: list) -> int:
    return EXIT_PASS if all(v["pass"] for v in verdicts) else EXIT_VERDICT_FAIL


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
    payload = family_to_dict(family)
    text = canonical_json(payload)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out}: {family.describe()}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    if family.warnings:
        for w in family.warnings:
            print(f"warning: {w}", file=sys.stderr)
    return EXIT_PASS


def _load_set(args):
    if getattr(args, "values", None):
        return [parse_element(v) for v in args.values.split(",")], None
    if not args.setfile:
        raise ParameterError("provide a set file or --values")
    data = read_json(args.setfile)
    if isinstance(data, dict) and data.get("schema") == FAMILY_SCHEMA:
        family = family_from_dict(data)
        return family.union_values(), family
    return elements_from_dict(data), None


def cmd_analyze(args) -> int:
    elements, family = _load_set(args)
    config = {
        "check": args.check,
        "g": args.g,
        "mode": args.mode,
        "seed": args.seed,
        "trials": args.trials,
        "min_size": args.min_size,
        "max_size": args.max_size,
        "setfile": args.setfile,
    }
    results: dict = {"n_elements": len(elements)}
    verdicts: list = []
    if family is not None:
        results["provenance"] = {
            "kind": family.kind,
            "params": family.params,
            "warnings": list(family.warnings),
        }
    check = args.check
    if check in ("b2", "b2circ"):
        fn = is_b2 if check == "b2" else is_b2_circ
        v = fn(elements, args.g)
        results["max_count"] = v.max_count
        if v.witness:
            results["witness"] = {
                "value": str(v.witness.value),
                "count": v.witness.count,
            }
        verdicts.append(
            {
                "check": f"{check}[g={args.g}]",
                "pass": v.passed,
                "detail": f"max_count={v.max_count}",
            }
        )
    elif check == "profile":
        prof = rep_profile(elements, args.mode)
        results["profile"] = {
            "mode": prof.mode,
            "total_pairs": prof.total_pairs,
            "distinct_values": prof.distinct_values,
            "max_count": prof.max_count,
            "witnesses": [
                {"value": str(w.value), "count": w.count} for w in prof.witnesses
            ],
        }
    elif check == "energy":
        rep = additive_energy(elements)
        results["energy"] = {
            "e_plus": rep.e_plus,
            "e_minus": rep.e_minus,
            "sumset_size": rep.sumset_size,
            "diffset_size": rep.diffset_size,
            "doubling_ratio_sum": rep.doubling_ratio_sum,
            "doubling_ratio_diff": rep.doubling_ratio_diff,
            "energy_lower_bound": rep.energy_lower_bound,
        }
        verdicts.append(
            {
                "check": "energy-identity",
                "pass": rep.e_plus == rep.e_minus,
                "detail": f"E+={rep.e_plus}",
            }
        )
    elif check == "disjoint":
        if family is None:
            raise ParameterError("disjointness needs a set family file")
        rep = family_sumset_disjointness(family)
        results["pair_count"] = rep.pair_count
        if not rep.passed:
            results["witness"] = {
                "value": str(rep.witness_value),
                "pairs": list(map(list, rep.witness_pairs)),
            }
        verdicts.append(
            {"check": "sumset-disjointness", "pass": rep.passed, "detail": ""}
        )
    elif check == "census":
        if family is None:
            raise ParameterError("census needs a set family file")
        rep = collision_census(family, args.mode)
        results["census"] = {
            "mode": rep.mode,
            "collisions": len(rep.records),
            "predicted": rep.predicted,
            "anomalies": rep.anomalies,
            "patterns": sorted(
                {r.pattern for r in rep.records if r.classification == "PREDICTED"}
            ),
        }
        verdicts.append(
            {
                "check": f"census[{args.mode}]",
                "pass": rep.anomalies == 0,
                "detail": f"{len(rep.records)} collisions, {rep.anomalies} anomalies",
            }
        )
    elif check == "audit":
        params = AuditParams(
            min_size=args.min_size,
            trials=args.trials,
            seed=args.seed,
            max_size=args.max_size,
        )
        rep = subset_doubling_audit(elements, args.audit_mode, params)
        results["audit"] = {
            "mode": rep.mode,
            "subsets_examined": rep.subsets_examined,
            "min_sum_ratio": rep.min_sum_ratio,
            "min_diff_ratio": rep.min_diff_ratio,
        }
    else:
        raise ParameterError(f"unknown check {check!r}")
    report = _report("analyze", config, results, verdicts)
    _emit(report, args)
    return _exit_code(verdicts)


def cmd_certify(args) -> int:
    elements, family = _load_set(args)
    if family is None:
        raise ParameterError("certify needs a set family file")
    config = {
        "g": args.g,
        "parts": args.parts,
        "delta_prime": args.delta_prime,
        "setfile": args.setfile,
    }
    verdicts: list = []
    if args.delta_prime is not None:
        cert = no_large_bsubset_certificate(
            family, args.g, Fraction(args.delta_prime)
        )
        results = {
            "certificate": "no-large-subset",
            "delta_prime": cert.delta_prime,
            "gamma": cert.gamma,
            "threshold": cert.threshold,
            "sum_branch": cert.sum_branch,
            "diff_branch": cert.diff_branch,
        }
        verdicts.append(
            {
                "check": f"no-large-subset[g={args.g}, delta'={args.delta_prime}]",
                "pass": cert.verdict,
                "detail": "both branches exceed capacity" if cert.verdict else "capacity not exceeded",
            }
        )
    elif family.kind == "product":
        if args.parts is None:
            raise ParameterError("--parts is required")
        cert = mixed_certificate(family, args.g, args.parts)
        results = {
            "certificate": "mixed-union",
            "applicable": cert.applicable,
            "threshold": cert.threshold,
            "sum_branch": cert.sum_branch,
            "diff_branch": cert.diff_branch,
        }
        verdicts.append(
            {
                "check": f"mixed-certificate[g={args.g}, t={args.parts}]",
                "pass": cert.verdict,
                "detail": f"applicable={cert.applicable}",
            }
        )
    else:
        if args.parts is None:
            raise ParameterError("--parts is required")
        cert = counting_certificate(family, args.g, args.parts)
        word = "sums" if cert.kind == "sum" else "differences"
        results = {
            "certificate": "counting",
            "kind": cert.kind,
            "lhs": cert.lhs,
            "collision_value_count": cert.collision_value_count,
            "capacity": cert.capacity,
            "formula_lower_bound": cert.formula_lower_bound,
            "per_pair_counts": {
                f"{i},{j}": c for (i, j), c in cert.per_pair_counts.items()
            },
            "sketch": (
                f"each of the {cert.lhs} lattice tuples forces one same-part "
                f"pair among its {cert.params['k']} elements, giving a repeated "
                f"{word[:-1]} value; only {cert.collision_value_count} such "
                f"values exist and each of the {args.parts} parts can repeat a "
                f"value at most {args.g} times, so at most {cert.capacity} "
                f"tuples can be absorbed"
                + (
                    f"; {cert.lhs} > {cert.capacity} rules the decomposition out"
                    if cert.verdict
                    else f"; {cert.lhs} <= {cert.capacity} yields no conclusion"
                )
                if cert.applicable
                else f"not applicable (t >= k): the {cert.params['k']} elements "
                f"of a lattice tuple can lie in {args.parts} distinct parts, so no "
                f"same-part pair is forced"
            ),
        }
        verdicts.append(
            {
                "check": f"counting-certificate[g={args.g}, t={args.parts}]",
                "pass": cert.verdict,
                "detail": f"lhs={cert.lhs} capacity={cert.capacity}"
                + ("" if cert.applicable else "; not applicable (t >= k)"),
            }
        )
    report = _report("certify", config, results, verdicts)
    _emit(report, args)
    return _exit_code(verdicts)


def cmd_decompose(args) -> int:
    elements, _family = _load_set(args)
    config = {
        "g": args.g,
        "kind": args.kind,
        "max_parts": args.max_parts,
        "budget": args.budget,
        "setfile": args.setfile,
        "values": args.values,
    }
    if args.greedy:
        deco = greedy_union(elements, args.g, args.kind)
        results = {"greedy_parts": deco.parts_used}
        report = _report("decompose", config, results, [])
        _emit(report, args)
        return EXIT_PASS
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
    report = _report("decompose", config, results, [])
    _emit(report, args)
    if any(r.status == "TIMEOUT" for r in rep.results.values()):
        return EXIT_TIMEOUT
    return EXIT_PASS


def cmd_embed(args) -> int:
    elements, _family = _load_set(args)
    config = {"setfile": args.setfile, "threshold": args.threshold}
    emb = f2_embed(elements, verify_threshold=args.threshold)
    results = {
        "base": emb.base,
        "dimension": len(emb.points[0]),
        "n_points": len(emb.points),
        "verification": emb.verification,
        "image": [str(v) for v in emb.image],
    }
    verdicts = [
        {
            "check": "structure-preserving-embedding",
            "pass": True,
            "detail": emb.verification,
        }
    ]
    report = _report("embed", config, results, verdicts)
    _emit(report, args)
    return EXIT_PASS


def cmd_meyer(args) -> int:
    family = build_meyer(args.nmax)
    config = {"nmax": args.nmax, "trials": args.trials, "seed": args.seed}
    ext = meyer_extract(family, seed=args.seed, trials=args.trials)
    results = {
        "n_elements": ext.n_elements,
        "mean_ratio": ext.mean_ratio,
        "best_size": ext.best_size,
        "best_upper": list(ext.best_upper),
        "rng": "random.Random(seed), one bit per index per trial",
    }
    verdicts = [
        {
            "check": "extracted-subsets-B2sum[g=2]",
            "pass": ext.all_pass,
            "detail": f"mean={float(ext.mean_ratio):.4f}",
        }
    ]
    report = _report("meyer", config, results, verdicts)
    _emit(report, args)
    return _exit_code(verdicts)


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
    p.add_argument("--budget", type=int, default=2_000_000)
    p.add_argument("--greedy", action="store_true", help="first-fit upper bound only")
    _add_common(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("embed", help="embed a finite point set into the integers")
    p.add_argument("setfile", nargs="?")
    p.add_argument("--values", help="comma-separated decimal or sparse elements")
    p.add_argument("--threshold", type=int, default=100)
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
    except B2SetsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"elapsed: {time.perf_counter() - started:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
