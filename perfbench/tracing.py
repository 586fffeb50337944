"""Outside-in tracing of proofbench: wrappers on module functions record spans.

Every wrapped function gets a span (name, start, end, parent span, operation
id) kept in memory; hot tiny methods are only counted. A wrapper replaces
every binding of the function in every loaded ``proofbench`` module, so a
name imported with ``from .x import f`` is traced too. ``uninstall`` puts
the originals back.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (metric prefix, module, attribute path): functions that get a span.
TIMED = [
    ("cspsat.accepting_instance", "cspsat", "accepting_instance"),
    ("cspsat.rejecting_instance", "cspsat", "rejecting_instance"),
    ("circuit.verify_separation", "circuit", "verify_separation"),
    ("circuit.extract_cc2_refutation", "circuit", "extract_cc2_refutation"),
    ("circuit.eval_gates", "circuit", "eval_gates"),
    ("circuit.compile_cc_refutation", "circuit", "compile_cc_refutation"),
    ("circuit.parse_circuit", "circuit", "parse_circuit"),
    ("circuit.serialize_circuit", "circuit", "serialize_circuit"),
    ("circuit.cc_lines_from_cp_proof", "circuit", "cc_lines_from_cp_proof"),
    ("circuit.cc_lines_from_resolution", "circuit", "cc_lines_from_resolution"),
    ("semantics.SemanticLine.from_inequality", "semantics", "SemanticLine.from_inequality"),
    ("semantics.SemanticLine.from_literals", "semantics", "SemanticLine.from_literals"),
    ("semantics.falsifying_mask", "semantics", "falsifying_mask"),
    ("protocol.inequality_protocol", "protocol", "inequality_protocol"),
    ("protocol.clause_protocol", "protocol", "clause_protocol"),
    ("protocol.full_history_masks", "protocol", "full_history_masks"),
    ("protocol.good_from_masks", "protocol", "good_from_masks"),
    ("cnf.brute_force_sat", "cnf", "brute_force_sat"),
    ("cnf.parse_dimacs", "cnf", "parse_dimacs"),
    ("cpproof.resolution_refutation_from_dpll", "cpproof", "resolution_refutation_from_dpll"),
    ("cpproof.parse_cp_lines", "cpproof", "parse_cp_lines"),
    ("cpproof.check_cp_proof", "cpproof", "check_cp_proof"),
    ("randomcnf.profile_distinctness", "randomcnf", "profile_distinctness"),
    ("randomcnf.expansion_report", "randomcnf", "expansion_report"),
    ("randomcnf.heavy_partition_search", "randomcnf", "heavy_partition_search"),
    ("randomcnf.heavy_sat_fraction", "randomcnf", "heavy_sat_fraction"),
    ("randomcnf.sample_f", "randomcnf", "sample_f"),
    ("randomcnf.sample_tensor", "randomcnf", "sample_tensor"),
    ("cli.main", "cli", "main"),
]

# Hot tiny methods: counted, never timed, so tracing does not swamp them.
COUNTED = [
    ("semantics.SemanticLine.row", "semantics", "SemanticLine.row"),
    ("cnf.VariablePartition.x_assignment", "cnf", "VariablePartition.x_assignment"),
    ("cnf.VariablePartition.y_assignment", "cnf", "VariablePartition.y_assignment"),
    ("linear.LinearInequality.plus", "linear", "LinearInequality.plus"),
    ("linear.LinearInequality.divided_by", "linear", "LinearInequality.divided_by"),
]


def _tally(totals: Counter, name: str, args, result) -> None:
    """Work counts read off arguments and return values, for ratio metrics."""
    if name == "circuit.compile_cc_refutation":
        totals["gates"] += result.report.gate_count
        totals["lines"] += result.report.line_count
    elif name == "protocol.good_from_masks":
        totals["histories"] += len(args[0])
        totals["good"] += len(result)
    elif name == "cpproof.resolution_refutation_from_dpll":
        totals["refutation_lines"] += result.length
    elif name == "randomcnf.heavy_partition_search":
        totals["trials"] += result.trials_used


# The trace self-check's limits, per operation: how far the span self-times
# may sum from the latency timed outside the trace, and how much of that
# latency the benchmark's own span may keep: a share, or a fixed allowance
# for short operations. The benchmark's own work (a report file removed and
# read back) takes about 0.3 ms; more means a wrapper missed a call.
CLOCK_SLACK_S = 0.002
MAX_BENCH_SHARE = 0.05
BENCH_ALLOWANCE_S = 0.001


class Tracer:
    def __init__(self, timed=TIMED):
        self.timed = timed  # the negative test of the self-check leaves one out
        # Each span is [name, start, end, parent index or -1, operation id].
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.totals: Counter = Counter()
        self.op = None
        self._stack: list[int] = []
        self._undo: list = []

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name: str, op):
        """The benchmark's own span around one operation."""
        self.op = op
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)
            self.op = None

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            _tally(self.totals, name, args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every function in ``timed`` and COUNTED at all its bindings."""
        modules = [
            m
            for key, m in sys.modules.items()
            if key == "proofbench" or key.startswith("proofbench.")
        ]
        for entries, make in ((self.timed, self._timed), (COUNTED, self._counted)):
            for name, module, path in entries:
                owner = sys.modules[f"proofbench.{module}"]
                if "." in path:
                    cls_name, attr = path.split(".")
                    cls = getattr(owner, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        new = classmethod(make(name, raw.__func__))
                    else:
                        new = make(name, raw)
                    setattr(cls, attr, new)
                    self._undo.append((cls, attr, raw))
                    continue
                original = getattr(owner, path)
                wrapped = make(name, original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapped)
                            self._undo.append((mod, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # --- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [0.0 if end is None else end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0 and end is not None:
                own[parent] -= end - start
        return own

    def check(self, root: str, latencies: dict) -> list[str]:
        """Trace self-check of each operation against ``latencies``, its
        latency timed outside the trace: the self-times of its spans,
        ``root``'s own included, add up to that latency, and ``root``'s own
        time stays within MAX_BENCH_SHARE of it or BENCH_ALLOWANCE_S. A call
        the operation makes that no wrapper caught (a binding left unwrapped,
        a function held in a table) lands in ``root``'s self time and fails
        the second test; one missed deeper down lands in its caller's self
        time, which no clock can tell apart.
        """
        problems = []
        own = self.self_times()
        per_op: dict = defaultdict(float)
        bench: dict = defaultdict(float)
        for (name, _, end, parent, op), t in zip(self.spans, own):
            if end is None:
                problems.append(f"span {name} of operation {op} never ended")
            per_op[op] += t
            if name == root and parent < 0:
                bench[op] += t
        for op, latency in latencies.items():
            if abs(per_op[op] - latency) > CLOCK_SLACK_S:
                problems.append(
                    f"operation {op}: self-times {per_op[op]:.6f} s, latency {latency:.6f} s"
                )
            if bench[op] > max(MAX_BENCH_SHARE * latency, BENCH_ALLOWANCE_S):
                problems.append(
                    f"operation {op}: {bench[op] / latency:.0%} of its time is in no traced layer"
                )
        return problems
