#!/usr/bin/env python3
"""Closed-loop benchmark of proofbench: one client, one thread, one process.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table
    python3 perfbench/run.py --workload refute --record   # re-record answers

Run from anywhere; the program is imported from ``src/`` next to this
directory. The run chooses its inputs from the seed once, untimed, then
sets them up five times (the median, plus the median import time, is
``setup_s``), runs whole cycles of operations until ``--seconds`` have
passed, checks every output, and prints one line per metric followed by a
JSON object on the last line. Times are scaled to the reference host speed
(see HostSpeed). ``--trace 1`` runs half the time untraced and
then the same cycles with every module's public functions wrapped, and
reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
SETUP_REPEATS = 5

TAIL_Q = 75  # each plan's min_cycles leaves at least ten samples beyond it

# The host is shared, and its speed drifts by 10-40% over seconds to minutes,
# alike for the program and for other Python code. After each operation (and
# each set-up) the run times a fixed reference kernel for REFERENCE_SHARE of
# the time that operation took, so the kernel's samples are spread over the
# run as the operations are. Every reported time is scaled by REFERENCE_S over
# the kernel's mean time in that phase: seconds at the reference speed.
REFERENCE_SHARE = 0.05
REFERENCE_S = 0.002  # about the kernel's mean time on a shared 2-vCPU Xeon VM, Python 3.11


def spec(key: str):
    """An entry of BENCHMARK.json, next to this directory, which names the
    workloads and the metrics with their units.
    """
    return json.loads((ROOT / "BENCHMARK.json").read_text())[key]


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    return {m["name"]: m["unit"] for m in spec(kind)}


def import_program() -> None:
    """Import proofbench from this checkout's ``src``."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import proofbench.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import proofbench from {src}: {exc}")
    if Path(proofbench.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"perfbench: imported proofbench from outside {src}")


IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import proofbench.cli; print(time.perf_counter() - t)"
)


def import_seconds(speed: HostSpeed) -> float:
    """Median time to import proofbench in a fresh interpreter, over
    SETUP_REPEATS interpreters run one after another.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER, str(ROOT / "src")],
            stdout=subprocess.PIPE, text=True, check=True,
        )
        times.append(float(proc.stdout))
        speed.after(times[-1])
    return statistics.median(times)


def fresh_workdir(name: str) -> Path:
    work = WORK_ROOT / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    return work


def remove_workdir(name: str) -> None:
    shutil.rmtree(WORK_ROOT / name, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:  # another run still has its directory there
        pass


# --- host speed ------------------------------------------------------------------


def reference_kernel(rounds: int = 2000) -> int:
    """Fixed pure-Python work of the kinds proofbench does: dict updates,
    tuples, comprehensions and bit operations on 1024-bit integers.
    """
    table: dict[int, int] = {}
    items = []
    mask = (1 << 1024) - 1
    acc = 0
    for i in range(rounds):
        key = (i * 7919) % 257
        table[key] = table.get(key, 0) + 1
        items.append((key, i & 7))
        acc ^= (mask >> (i & 63)) & ~(1 << (i % 1000))
        if i % 3 == 0:
            acc = acc.bit_count() + len({k: v for k, v in items[-8:]})
    return acc + len(table)


class HostSpeed:
    """Samples the reference kernel after each timed piece of work, for
    REFERENCE_SHARE of that work's time.
    """

    def __init__(self):
        self.times: list[float] = []
        self._owed = 0.0

    def after(self, busy: float) -> None:
        self._owed += REFERENCE_SHARE * busy
        while self._owed > 0:
            start = perf_counter()
            reference_kernel()
            took = perf_counter() - start
            self.times.append(took)
            self._owed -= took

    def scale(self) -> float:
        """Factor that turns seconds of this phase into reference seconds."""
        return REFERENCE_S / statistics.fmean(self.times)


# --- running operations ----------------------------------------------------------


class Runner:
    """Runs operations, times them, and checks every answer."""

    def __init__(self, expected: dict | None):
        self.expected = expected
        self.tracer = None
        self.speed: HostSpeed | None = None
        self.op_count = 0

    def run(self, op) -> tuple[float, list[str]]:
        self.op_count += 1
        start = perf_counter()
        try:
            if self.tracer is None:
                fields = op.run()
            else:
                with self.tracer.root("bench.op", self.op_count):
                    fields = op.run()
        except Exception:  # a traceback is a failed operation, not a crash
            return perf_counter() - start, [traceback.format_exc(limit=-3)]
        latency = perf_counter() - start
        try:
            problems = op.check(fields)
        except Exception:  # an answer missing the checked fields
            problems = [traceback.format_exc(limit=-2)]
        if self.expected is not None:
            want = self.expected.get(op.key)
            if want is None:
                problems.append(f"no recorded answer for {op.key}")
            else:
                problems += [
                    f"{k}: got {fields.get(k)!r}, recorded {v!r}"
                    for k, v in want.items()
                    if fields.get(k) != v
                ]
        return latency, [f"{op.kind} {op.key}: {p}" for p in problems]

    def cycles(self, plan, seconds: float, min_cycles: int = 1, max_cycles: int | None = None):
        """Run whole cycles until ``seconds`` have passed and at least
        ``min_cycles`` are done, or until ``max_cycles`` are done.
        Returns (ops, latencies, problems, failed ops, cycles run).
        """
        ops, latencies, problems = [], [], []
        failed = done = 0
        start = perf_counter()
        while done != max_cycles:
            for op in plan.cycles[done % len(plan.cycles)]:
                latency, found = self.run(op)
                if self.speed is not None:
                    self.speed.after(latency)
                ops.append(op)
                latencies.append(latency)
                problems += found
                failed += bool(found)
            done += 1
            if max_cycles is None and done >= min_cycles and perf_counter() - start >= seconds:
                break
        return ops, latencies, problems, failed, done


def setup(workload: str, seed: int, chosen, runner: Runner | None):
    """One set-up of the inputs ``chosen`` from the seed: writing them,
    oracle confirmation, and warm-up unless ``runner`` is None.
    """
    import workloads

    work = fresh_workdir(f"{workload}-{seed}")
    start = perf_counter()
    plan = workloads.WORKLOADS[workload][1](chosen, work)
    problems = []
    for op in plan.warmup if runner else ():
        problems += runner.run(op)[1]
    return plan, perf_counter() - start, problems


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of quantile ``p``: the mean of all order
    statistics weighted by the Beta(p(n+1), (1-p)(n+1)) mass over each one's
    share of [0, 1]. It moves far less from run to run than one order
    statistic does on a host this noisy.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    steps = 100  # midpoint rule, per order statistic
    weights = [0.0] * n
    for k in range(steps * n):
        x = (k + 0.5) / (steps * n)
        weights[k // steps] += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def beyond(values: list[float], q: int) -> int:
    """Samples above the nearest rank of percentile ``q``."""
    return len(values) - max(1, math.ceil(q / 100 * len(values)))


# --- per-layer metrics -----------------------------------------------------------


def layer_metrics(tracer, ops, traced_rate: float, plain_rate: float) -> dict:
    """Per-layer values: ``<layer>.self_ms`` and ``<layer>.calls`` per traced
    operation, from spans inside operations; ``<layer>.setup_ms`` from the
    spans of the one traced set-up.
    """
    own = tracer.self_times()
    ms: dict = defaultdict(float)
    setup_ms: dict = defaultdict(float)
    calls: Counter = Counter(tracer.counts)
    for (name, _, _, _, op_id), t in zip(tracer.spans, own):
        if op_id == "setup":
            setup_ms[name] += 1000 * t
        else:
            ms[name] += 1000 * t
            calls[name] += 1
    count = len(ops)
    # Instance builds inside operations that build every instance per pass.
    full_ops = {i for i, op in enumerate(ops, start=1) if op.instances}
    builds = sum(
        1
        for name, _, _, _, op_id in tracer.spans
        if op_id in full_ops
        and name in ("cspsat.accepting_instance", "cspsat.rejecting_instance")
    )
    distinct = sum(op.instances for op in ops if op.instances)
    totals = tracer.totals

    def ratio(a, b):
        return a / b if b else 0.0

    special = {
        "cspsat.instances_per_distinct": ratio(builds, distinct),
        "circuit.gates_per_line": ratio(totals["gates"], totals["lines"]),
        "protocol.good_ratio": ratio(totals["good"], totals["histories"]),
        "cpproof.refutation_lines": ratio(
            totals["refutation_lines"], calls["cpproof.resolution_refutation_from_dpll"]
        ),
        "randomcnf.heavy_partition_search.trials": ratio(
            totals["trials"], calls["randomcnf.heavy_partition_search"]
        ),
        "bench.self_ms": ms["bench.op"] / count,
        "bench.trace_overhead": ratio(traced_rate, plain_rate),
    }
    out = {}
    for name, unit in metric_units("per_layer").items():
        layer, _, kind = name.rpartition(".")
        if name in special:
            value = special[name]
        elif kind == "self_ms":
            value = ms[layer] / count
        elif kind == "setup_ms":
            value = setup_ms[layer]
        else:
            value = calls[layer] / count
        out[name] = {"value": value, "unit": unit}
    return out


# --- one workload ------------------------------------------------------------------


def load_expected(workload: str, seed: int) -> dict | None:
    path = HERE / "expected" / f"{workload}.json"
    if not path.exists():
        return None
    recorded = json.loads(path.read_text())
    return recorded["answers"] if recorded["seed"] == seed else None


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import_program()
    setup_speed = HostSpeed()
    import_s = import_seconds(setup_speed)
    import tracing
    import workloads

    runner = Runner(load_expected(workload, seed))
    problems: list[str] = []
    setups = []
    chosen = workloads.WORKLOADS[workload][0](seed)  # untimed: its work depends on the seed
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            plan, took, found = setup(workload, seed, chosen, runner)
            setup_speed.after(took)
            setups.append(took)
            problems += found
        if trace:
            ops, lat, found, failed, done = runner.cycles(plan, seconds / 2)
        else:
            runner.speed = HostSpeed()
            ops, lat, found, failed, done = runner.cycles(plan, seconds, plan.min_cycles)
        problems += found
        attempted = len(ops)
        rate = len(ops) / sum(lat)
        if trace:
            tracer = tracing.Tracer()
            tracer.install()
            runner.tracer = tracer
            try:
                with tracer.root("bench.setup", "setup"):
                    plan = setup(workload, seed, chosen, None)[0]
                tracer.counts.clear()  # counts cover the operations only
                tracer.totals.clear()
                runner.op_count = 0
                ops, lat, found, failed_traced, _ = runner.cycles(plan, 0, max_cycles=done)
            finally:
                tracer.uninstall()
                runner.tracer = None
            latencies = dict(enumerate(lat, start=1))  # operation ids count from 1
            problems += found + tracer.check("bench.op", latencies)
            attempted += len(ops)
            failed += failed_traced
            metrics = layer_metrics(tracer, ops, len(ops) / sum(lat), rate)
        else:
            k = runner.speed.scale()
            values = {
                "ops_per_s": rate / k,
                "op_p50_ms": 1000 * k * quantile(lat, 0.5),
                "op_tail_ms": 1000 * k * quantile(lat, TAIL_Q / 100),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": setup_speed.scale() * (import_s + statistics.median(setups)),
            }
            metrics = {
                n: {"value": values[n], "unit": u} for n, u in metric_units("end_to_end").items()
            }
    finally:
        remove_workdir(f"{workload}-{seed}")
    for p in problems:
        print(f"FAIL {p}", file=sys.stderr)
    mode = "traced" if trace else "untraced"
    print(f"workload {workload}  seed {seed}  {mode}  cycles {done}  operations {len(ops)}")
    for name, m in metrics.items():
        note = (
            f"  (p{TAIL_Q}, {beyond(lat, TAIL_Q)} of {len(ops)} beyond it)"
            if name == "op_tail_ms"
            else ""
        )
        print(f"  {name:48s} {m['value']:14.4f} {m['unit']}{note}")
    print(f"  {'fail_share':48s} {failed / attempted:14.4f} ratio  ({failed} of {attempted})")
    by_kind = defaultdict(list)
    for op, t in zip(ops, lat):
        by_kind[op.kind].append(t)
    for kind, times in by_kind.items():
        print(f"  {kind:20s} {len(times):4d} ops  median {1000 * statistics.median(times):10.1f} ms wall")
    if runner.speed is not None:
        times = runner.speed.times
        print(
            f"  reference kernel: {len(times)} samples, mean {1000 * statistics.fmean(times):.3f} ms"
            f" against {1000 * REFERENCE_S:.3f} ms; times above scaled by {runner.speed.scale():.4f}"
        )
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def record(workload: str) -> int:
    """Run every distinct operation of the default seed's plan once and write
    its answer fields to ``expected/<workload>.json``.
    """
    import_program()
    import workloads

    chosen = workloads.WORKLOADS[workload][0](DEFAULT_SEED)
    plan, _, problems = setup(workload, DEFAULT_SEED, chosen, Runner(None))
    answers = {}
    try:
        for op in plan.warmup + [op for cycle in plan.cycles for op in cycle]:
            if op.key in answers:
                continue
            fields = op.run()
            problems += [f"{op.key}: {p}" for p in op.check(fields)]
            answers[op.key] = fields
    finally:
        remove_workdir(f"{workload}-{DEFAULT_SEED}")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    out = HERE / "expected" / f"{workload}.json"
    out.parent.mkdir(exist_ok=True)
    rows = ",\n".join(  # one answer per line keeps diffs of re-recordings readable
        f"  {json.dumps(key)}: {json.dumps(fields, sort_keys=True)}"
        for key, fields in sorted(answers.items())
    )
    out.write_text(f'{{"seed": {DEFAULT_SEED}, "answers": {{\n{rows}\n}}}}\n')
    print(f"recorded {len(answers)} answers in {out.relative_to(ROOT)}")
    return 0


def run_all(names: list[str], seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak_rss_mb is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in names:
        argv = [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
        ]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    names = [w["name"] for w in spec("workloads")]
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec("run_seconds"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record", action="store_true",
        help=f"write the answers of seed {DEFAULT_SEED} as the expected answers",
    )
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.record:
        return max(record(w) for w in (names if args.workload == "all" else [args.workload]))
    if args.workload == "all":
        return run_all(names, args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
