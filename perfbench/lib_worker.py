"""In-process b2sets library calls for the small-sets workload.

Protocol on stdin/stdout, one JSON document per line. The worker prints
{"ready": true} once b2sets is imported, then answers each request
{"op": ID, "sets": [[int, ...], ...]} with {"wall_s": ..., "calls":
[[set index, name, seconds, result], ...]}, three calls per set, and stops at a
line holding null.

    python3 perfbench/lib_worker.py [SPANS_FILE]

With SPANS_FILE the b2sets layers are traced and the spans written there
on exit.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time


def main(argv) -> int:
    spans_path = argv[0] if argv else None
    tracer = None
    if spans_path:
        from tracer import Tracer

        tracer = Tracer()
    with tracer.span("cli.import") if tracer else contextlib.nullcontext():
        from b2sets import analyze
    if tracer:
        tracer.install()

    # Module attributes are looked up per call, so traced wrappers apply.
    calls = (
        ("energy", lambda v: _energy(analyze.additive_energy(v))),
        ("b2", lambda v: _verdict(analyze.is_b2(v, 2))),
        ("b2circ", lambda v: _verdict(analyze.is_b2_circ(v, 2))),
    )
    print(json.dumps({"ready": True}), flush=True)
    try:
        for line in sys.stdin:
            request = json.loads(line)
            if request is None:
                break
            out = []
            batch_start = time.perf_counter()
            for i, values in enumerate(request["sets"]):
                for name, call in calls:
                    if tracer:
                        tracer.op = f"{request['op']}/{i}/{name}"
                    t0 = time.perf_counter()
                    result = call(values)
                    out.append([i, name, time.perf_counter() - t0, result])
            wall = time.perf_counter() - batch_start
            print(json.dumps({"wall_s": wall, "calls": out}), flush=True)
    finally:
        if tracer:
            tracer.dump(spans_path)
    return 0


def _energy(report):
    return [report.e_plus, report.e_minus]


def _verdict(verdict):
    return [verdict.max_count, verdict.passed]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
