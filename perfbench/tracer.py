"""Span tracer that times b2sets layers from outside the package.

``Tracer.install`` replaces the functions listed in ``LAYERS`` with
wrappers, in every loaded b2sets module that holds them, so calls from
inside the package are timed too; the source is not edited. Each call
records a span (name, operation id, parent span, start and end time, peak
RSS before and after, work counters taken from its arguments and result).
Peak RSS is the process's own high-water mark (VmHWM); the kernel's
ru_maxrss would start at the parent's peak.
Spans stay in memory and are written once, by ``dump``.

Run as a script, it executes one traced b2sets command:

    python3 perfbench/tracer.py SPANS_FILE OP_ID <b2sets CLI arguments>
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager

# span name -> (module, attribute) of every function it covers. Per-pair
# helpers (kadd, ksub, ...) are left alone: wrapping them would time the
# wrapper, not the work.
LAYERS = {
    "analyze.profile": [("b2sets.analyze", "rep_profile")],
    "analyze.energy": [("b2sets.analyze", "additive_energy")],
    "analyze.census": [("b2sets.analyze", "collision_census")],
    "analyze.disjoint": [("b2sets.analyze", "family_sumset_disjointness")],
    "analyze.canon": [("b2sets.analyze", "canonical_keys"), ("b2sets.analyze", "canonical_key")],
    "analyze.audit": [("b2sets.analyze", "subset_doubling_audit")],
    "decompose.search": [("b2sets.decompose", "exact_min_union"), ("b2sets.decompose", "greedy_union")],
    "decompose.cert": [
        ("b2sets.decompose", name)
        for name in (
            "counting_certificate",
            "mixed_certificate",
            "no_large_bsubset_certificate",
            "pair_collision_values",
        )
    ],
    "decompose.extract": [("b2sets.decompose", "meyer_extract")],
    "io.read": [
        ("b2sets.io", "load_family"),
        ("b2sets.io", "load_elements"),
        ("b2sets.io", "family_from_dict"),
        ("pathlib", "Path.read_text"),
    ],
    "io.write": [
        ("b2sets.io", "family_to_dict"),
        ("b2sets.io", "canonical_json"),
        ("b2sets.io", "save_family"),
        ("b2sets.io", "save_elements"),
        ("pathlib", "Path.write_text"),
    ],
    "construct.build": [
        ("b2sets.construct", name)
        for name in ("build_w", "build_w_circ", "build_product", "build_meyer", "build_proposition", "lattice_points")
    ],
    "codes": [
        ("b2sets.codes", name)
        for name in ("hadamard_code_vectors", "star_code_vectors", "reduced_vandermonde", "int_det", "walsh_rows")
    ],
    "digitnum.decode": [
        ("b2sets.digitnum", "DigitVector." + name)
        for name in ("parse", "from_integer", "from_map", "to_integer", "to_sparse")
    ],
}


def _pairs_of_family(family) -> int:
    sizes = [len(p.elements) for p in family.parts]
    return sum(s * (s + 1) // 2 for s in sizes) + sum(
        a * b for i, a in enumerate(sizes) for b in sizes[i + 1 :]
    )


def _census_pairs(r) -> int:
    n = r.n_elements
    return n * (n + 1) // 2 if r.mode == "sum" else n * (n - 1) // 2


# attribute -> counters taken from (args, result) of one call
COUNTERS = {
    "rep_profile": lambda a, r: {
        "analyze.pairs": r.total_pairs,
        "analyze.value_pairs": r.total_pairs,
        "analyze.distinct_values": r.distinct_values,
    },
    "additive_energy": lambda a, r: {
        "analyze.pairs": r.n_elements**2,
        "analyze.value_pairs": r.n_elements**2,
        "analyze.distinct_values": r.sumset_size + (r.diffset_size - 1) // 2,
    },
    "collision_census": lambda a, r: {
        "analyze.pairs": _census_pairs(r),
        "analyze.census_collisions": len(r.records),
        "analyze.census_anomalies": r.anomalies,
    },
    "family_sumset_disjointness": lambda a, r: {"analyze.pairs": _pairs_of_family(a[0])},
    "subset_doubling_audit": lambda a, r: {"analyze.subsets": r.subsets_examined},
    "exact_min_union": lambda a, r: {
        "decompose.search_nodes": sum(x.nodes_explored for x in r.results.values())
    },
    "counting_certificate": lambda a, r: {"decompose.collision_values": r.collision_value_count},
    "mixed_certificate": lambda a, r: {
        "decompose.collision_values": r.sum_branch["collision_value_count"]
        + r.diff_branch["collision_value_count"]
    },
    "no_large_bsubset_certificate": lambda a, r: {
        "decompose.collision_values": r.sum_branch["collision_value_count"]
        + r.diff_branch["collision_value_count"]
    },
    **{
        name: (lambda a, r: {"construct.elements": r.size()})
        for name in ("build_w", "build_w_circ", "build_product", "build_meyer", "build_proposition")
    },
    "int_det": lambda a, r: {"codes.minors_checked": 1},
    "Path.read_text": lambda a, r: {"io.read_bytes": len(r)},
    "Path.write_text": lambda a, r: {"io.write_bytes": len(a[1])},
    **{
        "DigitVector." + name: (lambda a, r: {"digitnum.decodes": 1})
        for name in ("parse", "from_integer", "from_map", "to_integer", "to_sparse")
    },
}


# Called once per element; reading /proc on each call would cost more than
# the call. Their memory counts toward the enclosing span.
HOT = {"analyze.canon", "digitnum.decode"}


def _peak_rss_kb() -> int:
    with open("/proc/self/status", "rb") as f:
        status = f.read()
    start = status.index(b"VmHWM:") + 6
    return int(status[start : status.index(b"kB", start)])


class Tracer:
    """In-memory span recorder. ``op`` tags every span that starts while it
    is set, so the spans of one operation share an id."""

    def __init__(self, op: str = ""):
        self.op = op
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        rss = 0 if name in HOT else _peak_rss_kb()
        span = [name, self.op, parent, time.perf_counter(), 0.0, rss, rss, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span):
        span[4] = time.perf_counter()
        if span[0] not in HOT:
            span[6] = _peak_rss_kb()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        s = self._open(name)
        try:
            yield
        finally:
            self._close(s)

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if count is not None:
                s[7] = count(args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every LAYERS function wherever a loaded b2sets module binds it."""
        holders = [m for n, m in sys.modules.items() if n == "b2sets" or n.startswith("b2sets.")]
        for name, targets in LAYERS.items():
            for module_name, attr in targets:
                module = importlib.import_module(module_name)
                count = COUNTERS.get(attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        setattr(cls, meth, classmethod(self.wrap(name, raw.__func__, count)))
                    else:
                        setattr(cls, meth, self.wrap(name, raw, count))
                    continue
                original = getattr(module, attr)
                wrapped = self.wrap(name, original, count)
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


def run_cli(argv) -> int:
    """Run one b2sets command with tracing; spans go to argv[0]."""
    spans_path, op, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(op)
    try:
        with tracer.span("cli.import"):
            import b2sets.cli
        tracer.install()
        main = tracer.wrap("cli", b2sets.cli.main)
        return main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(run_cli(sys.argv[1:]))
