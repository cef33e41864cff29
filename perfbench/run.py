"""b2sets benchmark: closed-loop workloads through the CLI and the library.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

Run from the repository root; b2sets is imported from ``src/``. One client
issues one command (or library call) at a time and waits for it, so at most
one b2sets process is alive. A run sets up the workload's inputs several
times (``setup_s`` is the median), then cycles through the workload's
operations until ``--seconds`` have elapsed and each has run at least once. Every operation's exit code
and report fields are checked against values derived independently
(``oracle.py``); a mismatch counts as a failed operation.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
named in BENCHMARK.json. With ``--trace 1`` the run makes one untraced pass
and then traced passes (``tracer.py`` wraps b2sets functions from outside),
each also rebuilding the families, and reports the per-layer metrics
instead; work counters must repeat exactly between traced passes. Spans
and run records are written under ``.perfbench_out/``. perfbench/README.md
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 1
HELDOUT_SEED = 20261017  # for checking a claimed gain; never used while tuning
SETUP_REPEATS = 5
RSS_SAMPLE_S = 0.5
PROCESS_TIMEOUT_S = 120  # a b2sets process (or library request) running longer is killed
PAGE_KB = os.sysconf("SC_PAGE_SIZE") // 1024
ENV = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0"}
JSON_OUT = ["--format", "json"]

VERIFY_BUILDS = {
    "w30": ["--kind", "W", "--k", "3", "--n", "30"],
    "wc35": ["--kind", "Wcirc", "--k", "5", "--n", "35"],
    "p519": ["--kind", "product", "--k", "5", "--n", "19"],
    "w40": ["--kind", "W", "--k", "3", "--n", "40"],
}
VERIFY_OPS = {
    "b2circ-w30": ["analyze", "{w30}", "--check", "b2circ", "--g", "2"],
    "b2-wc35": ["analyze", "{wc35}", "--check", "b2", "--g", "2"],
    "census-sum-w30": ["analyze", "{w30}", "--check", "census", "--mode", "sum"],
    "census-diff-wc35": ["analyze", "{wc35}", "--check", "census", "--mode", "diff"],
    "energy-w30": ["analyze", "{w30}", "--check", "energy"],
    "energy-wc35": ["analyze", "{wc35}", "--check", "energy"],
    "energy-p519": ["analyze", "{p519}", "--check", "energy"],
    "disjoint-w30": ["analyze", "{w30}", "--check", "disjoint"],
    "certify-w40": ["certify", "{w40}", "--g", "1", "--parts", "2"],
    "certify-p519": ["certify", "{p519}", "--g", "1", "--parts", "1"],
    "meyer-9": ["meyer", "--nmax", "9"],
}
SCALE_BUILDS = {
    "w60": ["--kind", "W", "--k", "3", "--n", "60"],
    "wc45": ["--kind", "Wcirc", "--k", "5", "--n", "45"],
}
SCALE_OPS = {
    "b2circ-w60": ["analyze", "{w60}", "--check", "b2circ", "--g", "2"],
    "b2-wc45": ["analyze", "{wc45}", "--check", "b2", "--g", "2"],
}
AUDIT_BUILDS = {k: VERIFY_BUILDS[k] for k in ("w30", "wc35", "p519")}
AUDIT_SLICE = 16
AUDIT_OPS = {
    "audit-w30-slice": ["analyze", "--values", "{w30-slice}", "--check", "audit",
                        "--audit-mode", "exhaustive", "--min-size", "4"],
    "audit-wc35-slice": ["analyze", "--values", "{wc35-slice}", "--check", "audit",
                         "--audit-mode", "exhaustive", "--min-size", "4"],
    "audit-p519-sampled": ["analyze", "{p519}", "--check", "audit", "--trials", "10000",
                           "--seed", "11", "--min-size", "4", "--max-size", "48"],
}
# Dense random sets whose minimum union (g=1) is 4, so t=3 is refuted by
# exhausting the search tree. At this density the cost of one set has a
# standard deviation of about half its mean, so 24 sets cost nearly the
# same for every seed; sparser sets mix minima 3 and 4 and vary several-fold.
DECOMPOSE_SETS = 24
DECOMPOSE_SIZE = 20
DECOMPOSE_RANGE = 26

# small-sets: the criterion-5 generator, n in [1, 300], span in
# {2n+4, 10n, 10^9}, stratified so every seed carries the same mix: one set
# per band of 5 sizes, spans taking turns. The top band (n > 295) always
# gets span 10^9, whose pair count then always crosses the same dict-size
# step, so peak memory does not depend on the seed.
SMALL_N_STRATA = 60
SMALL_N_MAX = 300
SMALL_SPANS = (lambda n: 2 * n + 4, lambda n: 10 * n, lambda n: 10**9)


def fail(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# -- processes ---------------------------------------------------------------


def tree_rss_kb(root: int) -> int:
    """Resident memory of ``root`` and all its descendants, from /proc."""
    children = defaultdict(list)
    for entry in os.scandir("/proc"):
        if entry.name.isdigit():
            try:
                stat = Path(entry.path, "stat").read_text()
            except OSError:
                continue
            children[int(stat.rsplit(")", 1)[1].split()[1])].append(int(entry.name))
    total, todo = 0, [root]
    while todo:
        pid = todo.pop()
        try:
            total += int(Path(f"/proc/{pid}/statm").read_text().split()[1]) * PAGE_KB
        except OSError:
            pass
        todo.extend(children[pid])
    return total


class Proc:
    """One b2sets process. Its peak memory is the larger of the kernel's
    high-water mark (which covers reaped descendants one at a time) and
    the sampled sum over its live process tree (which covers concurrent
    workers)."""

    def __init__(self, argv, stdin=None):
        self.err = tempfile.TemporaryFile("w+", dir=WORK)
        self.started = time.perf_counter()
        self.popen = subprocess.Popen(
            argv, cwd=ROOT, env=ENV, stdin=stdin, stdout=subprocess.PIPE,
            stderr=self.err, text=True,
        )
        self.sampled_kb = 0
        self._done = threading.Event()
        self._sampler = threading.Thread(target=self._sample, daemon=True)
        self._sampler.start()
        self._killer = None
        self.arm()

    def arm(self):
        """(Re)start the timer that kills a hung process."""
        if self._killer:
            self._killer.cancel()
        self._killer = threading.Timer(PROCESS_TIMEOUT_S, self.popen.kill)
        self._killer.daemon = True
        self._killer.start()

    def _sample(self):
        while not self._done.wait(RSS_SAMPLE_S):
            self.sampled_kb = max(self.sampled_kb, tree_rss_kb(self.popen.pid))

    def finish(self) -> tuple[int, str, str]:
        """Drain output, reap, and return (exit code, stdout, stderr)."""
        out = self.popen.stdout.read()
        _, status, usage = os.wait4(self.popen.pid, 0)
        self.wall = time.perf_counter() - self.started
        self._killer.cancel()
        self._done.set()
        self._sampler.join()
        self.popen.returncode = os.waitstatus_to_exitcode(status)
        self.err.seek(0)
        err = self.err.read()
        self.err.close()
        self.popen.stdout.close()
        if self.popen.stdin:
            self.popen.stdin.close()
        self.peak_kb = max(usage.ru_maxrss, self.sampled_kb)
        return self.popen.returncode, out, err


def cli_argv(args, spans=None, op=None) -> list[str]:
    if spans is None:
        return [sys.executable, "-m", "b2sets.cli", *args]
    return [sys.executable, str(HERE / "tracer.py"), str(spans), op, *args]


# -- checks ----------------------------------------------------------------------


def check_report(expect: dict, rc: int, stdout: str) -> list[str]:
    """Mismatches between a CLI result and its expected exit code and
    report fields (dotted paths into the JSON report)."""
    bad = [] if rc == expect["rc"] else [f"exit {rc}, expected {expect['rc']}"]
    if len(expect) == 1:
        return bad
    try:
        report = json.loads(stdout)
    except ValueError:
        return bad + ["no JSON report"]
    for path, want in expect.items():
        if path == "rc":
            continue
        got = report
        for key in path.split("."):
            got = got.get(key) if isinstance(got, dict) else None
        if got != want:
            bad.append(f"{path} = {got!r}, expected {want!r}")
    return bad


def oracle(request: dict) -> dict:
    """Expected values from oracle.py, computed in its own process so the
    harness stays small (see oracle.py)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "oracle.py")], input=json.dumps(request),
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        fail(f"oracle failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def interleaved_slice(path, size: int) -> list[int]:
    """The first ``size`` elements of a family file, round-robin over its parts."""
    parts = [[int(e["decimal"]) for e in p["elements"]] for p in json.loads(Path(path).read_text())["parts"]]
    return [part[i] for i in range(max(map(len, parts))) for part in parts if i < len(part)][:size]


# -- workloads -------------------------------------------------------------------


@dataclass
class OpResult:
    name: str
    wall: float = 0.0
    calls: dict = field(default_factory=dict)  # call key -> latency in seconds
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    spans: list = field(default_factory=list)  # one span list per traced process


class CliWorkload:
    """Operations run as one ``b2sets`` process each."""

    builds: dict = {}
    ops: dict = {}

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.dir = WORK / name
        (self.dir / "spans").mkdir(parents=True, exist_ok=True)
        self.paths = {key: str((self.dir / f"{key}.json").relative_to(ROOT)) for key in self.builds}
        self.peak_kb = 0

    def setup(self) -> float:
        """Run the build commands SETUP_REPEATS times; median total wall."""
        totals = []
        for _ in range(SETUP_REPEATS):
            total = 0.0
            for key, args in self.builds.items():
                proc = Proc(cli_argv(["build", *args, "--out", self.paths[key]]))
                rc, _, err = proc.finish()
                if rc != 0:
                    fail(f"set-up build {key} exited {rc}: {err.strip()}")
                total += proc.wall
            totals.append(total)
        self.plan = self.make_plan()
        return statistics.median(totals)

    def make_plan(self) -> list[tuple[str, list[str], dict]]:
        """(name, CLI arguments, expectation) of each operation, in pass order."""
        expected = json.loads((HERE / "expected.json").read_text())[self.name]
        return [(name, self.fill(args), expected[name]) for name, args in self.ops.items()]

    @property
    def trace_plan(self):
        """Traced passes also rebuild the families, so the build layers show."""
        builds = [
            (f"build-{key}", ["build", *args, "--out", self.paths[key]], {"rc": 0})
            for key, args in self.builds.items()
        ]
        return builds + self.plan

    def fill(self, args):
        return [self.paths.get(a[1:-1], a) if a.startswith("{") else a for a in args]

    def run_op(self, entry, pass_id: str, traced: bool) -> OpResult:
        name, args, expect = entry
        spans = self.dir / "spans" / f"{pass_id}-{name}.json" if traced else None
        if traced:
            spans.unlink(missing_ok=True)
        proc = Proc(cli_argv([*args, *JSON_OUT], spans, f"{pass_id}/{name}"))
        rc, out, _ = proc.finish()
        self.peak_kb = max(self.peak_kb, proc.peak_kb)
        bad = check_report(expect, rc, out)
        result = OpResult(name, proc.wall, {name: proc.wall}, 1, int(bool(bad)), [f"{name}: {m}" for m in bad])
        if traced and spans.exists():
            result.spans.append(json.loads(spans.read_text()))
        elif traced:
            result.failed, result.failures = 1, result.failures + [f"{name}: no spans written"]
        return result

    def close(self):
        pass


class Verify(CliWorkload):
    builds = VERIFY_BUILDS
    ops = VERIFY_OPS


class Scale(CliWorkload):
    builds = SCALE_BUILDS
    ops = SCALE_OPS


class SearchAudit(CliWorkload):
    builds = AUDIT_BUILDS
    ops = AUDIT_OPS

    def make_plan(self):
        for key in ("w30", "wc35"):
            values = interleaved_slice(ROOT / self.paths[key], AUDIT_SLICE)
            self.paths[f"{key}-slice"] = ",".join(map(str, values))
        plan = super().make_plan()
        rng = random.Random(self.seed)
        instances = [
            (sorted(rng.sample(range(DECOMPOSE_RANGE), DECOMPOSE_SIZE)), 1, ("sum", "diff")[i % 2])
            for i in range(DECOMPOSE_SETS)
        ]
        minima = oracle({"min_union": instances})["min_union"]
        for i, ((values, g, kind), minimum) in enumerate(zip(instances, minima)):
            if minimum is None:
                fail(f"decompose set {i}: minimum beyond what oracle.min_union decides")
            expect = {"rc": 0, "results.minimum": minimum}
            for t in range(1, minimum + 2):
                status = "UNSAT" if t < minimum else "SAT" if t == minimum else None
                expect[f"results.per_parts.{t}.status"] = status
            args = ["decompose", "--values", ",".join(map(str, values)), "--g", str(g), "--kind", kind]
            plan.append((f"decompose-{i}-{kind}", args, expect))
        return plan


class SmallSets:
    """In-process library calls on random integer sets, one worker process."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.seed = seed
        self.dir = WORK / name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.spans_path = self.dir / "spans.json"
        self.worker = None
        self.traced = False
        self.peak_kb = 0
        self.spans = []
        self.plan = self.trace_plan = [("batch", None, None)]  # one request: every set, three calls each

    def _start(self, traced: bool) -> float:
        self._stop()
        argv = [sys.executable, str(HERE / "lib_worker.py")]
        if traced:
            argv.append(str(self.spans_path))
        started = time.perf_counter()
        self.worker = Proc(argv, stdin=subprocess.PIPE)
        self.traced = traced
        if not self.worker.popen.stdout.readline():
            self.worker.popen.kill()
            _, _, err = self.worker.finish()
            fail(f"library worker did not start: {err.strip()}")
        return time.perf_counter() - started

    def _stop(self):
        if self.worker is None:
            return
        self.worker.popen.stdin.write("null\n")
        self.worker.popen.stdin.flush()
        rc, _, err = self.worker.finish()
        self.peak_kb = max(self.peak_kb, self.worker.peak_kb)
        self.worker = None
        if rc != 0:
            fail(f"library worker exited {rc}: {err.strip()}")
        if self.traced:
            self.spans.append(json.loads(self.spans_path.read_text()))

    def setup(self) -> float:
        """Median time to start a worker and import b2sets in it."""
        times = [self._start(False) for _ in range(SETUP_REPEATS)]
        self.sets, self.expected = self.make_sets()
        return statistics.median(times)

    def make_sets(self):
        rng = random.Random(self.seed)
        width = SMALL_N_MAX // SMALL_N_STRATA
        sets = []
        for stratum in range(SMALL_N_STRATA):
            n = rng.randint(stratum * width + 1, (stratum + 1) * width)
            span = SMALL_SPANS[stratum % len(SMALL_SPANS)](n)
            sets.append(sorted({rng.randint(-span, span) for _ in range(n)}))
        rng.shuffle(sets)
        expected = []
        for c in oracle({"small_sets": sets})["small_sets"]:
            if c["energy"] != c["energy_diff"]:
                fail("oracle sum and difference energies disagree")
            expected.append(
                {"energy": [c["energy"], c["energy"]], "b2": [c["max_sum"], c["max_sum"] <= 2],
                 "b2circ": [c["max_diff"], c["max_diff"] <= 2]}
            )
        return sets, expected

    def run_op(self, entry, pass_id: str, traced: bool) -> OpResult:
        if self.worker is None or self.traced != traced:
            self._start(traced)
        stdin, stdout = self.worker.popen.stdin, self.worker.popen.stdout
        self.worker.arm()
        stdin.write(json.dumps({"op": pass_id, "sets": self.sets}) + "\n")
        stdin.flush()
        line = stdout.readline()
        if not line:
            fail("library worker stopped")
        reply = json.loads(line)
        result = OpResult("batch", reply["wall_s"])
        for i, name, seconds, got in reply["calls"]:
            result.calls[f"{i}/{name}"] = seconds
            result.attempted += 1
            want = self.expected[i][name]
            if got != want:
                result.failed += 1
                result.failures.append(f"set {i} {name}: {got}, expected {want}")
        return result

    def close(self):
        self._stop()


WORKLOADS = {"verify": Verify, "scale": Scale, "small-sets": SmallSets, "search-audit": SearchAudit}


# -- trace aggregation -----------------------------------------------------------


def time_metric(span_name: str) -> str:
    return {"cli": "cli.self_s", "codes": "codes.s"}.get(span_name, span_name + "_s")


def layer_totals(spans) -> dict[str, Counter]:
    """Per-pass totals of one process's spans: self time and self RSS
    growth by layer, plus work counters."""
    child_s = [0.0] * len(spans)
    child_kb = [0] * len(spans)
    for name, op, parent, t0, t1, kb0, kb1, counts in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
            child_kb[parent] += kb1 - kb0
    totals = defaultdict(Counter)
    for i, (name, op, parent, t0, t1, kb0, kb1, counts) in enumerate(spans):
        tot = totals[op.split("/")[0]]
        tot[time_metric(name)] += (t1 - t0) - child_s[i]
        tot[name.split(".")[0] + ".rss_growth_mb"] += ((kb1 - kb0) - child_kb[i]) / 1024
        nested_build = parent >= 0 and spans[parent][0] == "construct.build"
        for key, value in (counts or {}).items():
            if not (key == "construct.elements" and nested_build):
                tot["#" + key] += value
    return totals


def layer_metrics(processes, per_layer, untraced_wall, traced_walls) -> tuple[dict, list[str]]:
    """Per-layer metrics (medians over traced passes) and the work
    counters that differ between passes."""
    passes = defaultdict(Counter)
    shared = Counter()  # spans outside any pass, such as a library worker's import
    for spans in processes:
        for pass_id, tot in layer_totals(spans).items():
            (passes[pass_id] if pass_id else shared).update(tot)
    runs = []
    for pass_id in sorted(passes):
        passes[pass_id].update(shared)
        runs.append(passes[pass_id])
    counters = sorted({k for r in runs for k in r if k.startswith("#")})
    mismatches = [
        f"counter {key[1:]} differs between traced passes: {sorted({r[key] for r in runs})}"
        for key in counters
        if len({r[key] for r in runs}) > 1
    ]
    metrics = {}
    for name, unit in per_layer:
        if name == "analyze.distinct_per_pair":
            value = runs[0]["#analyze.distinct_values"] / max(runs[0]["#analyze.value_pairs"], 1)
        elif name == "decompose.nodes_per_s":
            value = statistics.median(
                r["#decompose.search_nodes"] / r["decompose.search_s"] if r["decompose.search_s"] else 0.0
                for r in runs
            )
        elif name == "bench.trace_overhead_s":
            value = statistics.median(traced_walls) - untraced_wall
        elif unit in ("count", "B"):
            value = runs[0]["#" + name]
        else:
            value = statistics.median(r[name] for r in runs)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, mismatches


# -- reporting -------------------------------------------------------------------


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timing_summary(values) -> dict:
    """Median and the highest whole percentile with at least ten samples
    above it, with the sample count."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values)}
    if n > 10:
        q = int(100 * (n - 10) / n)
        out[f"p{q}"] = percentile(values, q)
    return out


def probe_s() -> float:
    """A fixed pure-Python loop, reported beside the metrics so host speed
    drift is visible; never used to normalise them."""

    def once():
        started = time.perf_counter()
        x = 0
        for i in range(300_000):
            x = (x * 31 + i) % 1_000_003
        return time.perf_counter() - started

    return statistics.median(once() for _ in range(5))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=DEFAULT_SEED,
        help=f"workload seed (default {DEFAULT_SEED}; {HELDOUT_SEED} is held out for checking claims)",
    )
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "b2sets" / "cli.py").is_file():
        fail(f"no b2sets source under {SRC}")
    spec = json.loads(SPEC.read_text())

    host = {"python": sys.version.split()[0], "nproc": os.cpu_count(), "probe_s": probe_s()}
    workload = WORKLOADS[args.workload](args.workload, args.seed)
    setup_s = workload.setup()

    plan = workload.trace_plan if args.trace else workload.plan
    untraced, traced = [], []  # OpResults; traced ones in whole passes
    deadline = time.perf_counter() + args.seconds
    try:
        if args.trace:
            untraced = [workload.run_op(e, "u0", False) for e in plan]
            while len(traced) < 2 * len(plan) or time.perf_counter() < deadline:
                pass_id = f"t{len(traced) // len(plan)}"
                traced += [workload.run_op(e, pass_id, True) for e in plan]
        else:
            # Cycle through the operations until time is up, after at least one whole pass.
            while len(untraced) < len(plan) or time.perf_counter() < deadline:
                i = len(untraced)
                untraced.append(workload.run_op(plan[i % len(plan)], f"u{i // len(plan)}", False))
    finally:
        workload.close()

    done = untraced + traced
    attempted = sum(r.attempted for r in done)
    failures = [f for r in done for f in r.failures]
    failed_ops = sum(r.failed for r in done)
    op_walls, call_walls = defaultdict(list), defaultdict(list)
    for r in untraced:
        op_walls[r.name].append(r.wall)
        for key, seconds in r.calls.items():
            call_walls[key].append(seconds)
    # Latency percentiles over the distinct calls, each at its median, so
    # calls that happened to run once more near the deadline weigh no more.
    latencies_ms = [statistics.median(w) * 1000 for w in call_walls.values()]
    # One pass's wall time, from each operation's median.
    wall_s = sum(statistics.median(w) for w in op_walls.values())

    if args.trace:
        processes = [s for r in traced for s in r.spans] + getattr(workload, "spans", [])
        per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        traced_walls = [
            sum(r.wall for r in traced[k : k + len(plan)]) for k in range(0, len(traced), len(plan))
        ]
        metrics, mismatches = layer_metrics(processes, per_layer, wall_s, traced_walls)
        failures += mismatches
        failed_ops += bool(mismatches)
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps(processes))
    else:
        values = {
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": workload.peak_kb / 1024,
            "call_p50_ms": percentile(latencies_ms, 50),
            "call_p95_ms": percentile(latencies_ms, 95),
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}

    # Each child's peak RSS starts at the harness's peak at spawn time.
    host["harness_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "host": host,
        "operations": len(done),
        "timings": {
            "op_wall_s": {name: timing_summary(w) for name, w in op_walls.items()},
            "call_ms": timing_summary(latencies_ms),
        },
        "fail_ratio": failed_ops / attempted,
        "failures": failures[:20],
    }
    with open(WORK / "records.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"python={host['python']} nproc={host['nproc']} probe_s={host['probe_s']:.4f}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'fail_ratio':28s} {failed_ops}/{attempted} = {failed_ops / attempted:.4g}")
    for f in failures[:20]:
        print(f"  FAIL {f}")
    print("record " + json.dumps(record))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed_ops, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
