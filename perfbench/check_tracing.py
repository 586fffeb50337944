#!/usr/bin/env python3
"""Shows that the trace self-check can fail.

    python3 perfbench/check_tracing.py

Traces one cycle of ``refute`` operations twice: with every wrapper, when
the self-check must pass, and with ``cnf.brute_force_sat`` left unwrapped,
when its time lands in the benchmark's own span and the self-check must
report it. Exits 0 when both hold.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

LEFT_OUT = "cnf.brute_force_sat"


def traced_problems(ops, tracer) -> list[str]:
    runner = run.Runner(None)
    runner.tracer = tracer
    tracer.install()
    try:
        latencies = {}
        for op_id, op in enumerate(ops, start=1):
            latency, problems = runner.run(op)
            if problems:
                raise SystemExit(f"check_tracing: operation failed: {problems}")
            latencies[op_id] = latency
    finally:
        tracer.uninstall()
    return tracer.check("bench.op", latencies)


def main() -> int:
    run.import_program()
    import tracing
    import workloads

    name = "check-tracing"
    work = run.fresh_workdir(name)
    try:
        plan = workloads.setup_refute(workloads.choose_refute(run.DEFAULT_SEED), work)
        ops = plan.cycles[0]
        full = traced_problems(ops, tracing.Tracer())
        partial = traced_problems(
            ops, tracing.Tracer(timed=[t for t in tracing.TIMED if t[0] != LEFT_OUT])
        )
    finally:
        run.remove_workdir(name)
    ok = not full and len(partial) == len(ops)
    print(f"every wrapper: {len(full)} problems (want 0)")
    print(f"{LEFT_OUT} unwrapped: {len(partial)} problems (want {len(ops)})")
    for p in full + partial:
        print(f"  {p}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
