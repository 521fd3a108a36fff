"""Run one benchmark workload and print its result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload many-scopes --seed 1 --seconds 45 --trace 0

Workloads: ``shared-scope``, ``many-scopes``, ``serve-open-loop`` (see
``perfbench/README.md``).  ``--trace 0`` measures the end-to-end metrics
with the program untouched; ``--trace 1`` adds one run with the
outside-in tracer and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
-- machine, source revision, seed, workload parameters and details --
is printed just before it and written under ``.perfbench/results/``.
Span traces go to ``.perfbench/traces/``.  Exits non-zero, printing no
result, when the checkout has no ``src/repro`` to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _import_program() -> None:
    """Make the checkout's own ``src/repro`` importable, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _log(f"error: no program to measure: {SRC}/repro is missing")
        sys.exit(2)
    sys.path[:0] = [SRC, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        _log(f"error: imported repro from {repro.__file__}, not {SRC}")
        sys.exit(2)


def _keep_temporaries_in(directory: str) -> None:
    """Point ``tempfile`` (and so the process-mode queue manager's socket
    directory) inside the checkout.  A Unix socket path must stay under
    108 bytes, so a checkout too deep for that keeps the system default."""
    if len(directory) + 40 > 100:
        _log(f"note: {directory} is too long for socket paths; using {tempfile.gettempdir()}")
        return
    os.makedirs(directory, exist_ok=True)
    tempfile.tempdir = directory


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    from perfbench import catalogue
    from perfbench.machine import provenance

    known = {**catalogue.WORKLOADS, **catalogue.UNGATED_WORKLOADS}
    if args.workload not in known:
        _log(f"error: unknown workload {args.workload!r}; known: {', '.join(known)}")
        return 2
    if args.seconds <= 0:
        _log("error: --seconds must be > 0")
        return 2
    workdir = os.path.join(ROOT, ".perfbench")
    os.makedirs(workdir, exist_ok=True)
    _keep_temporaries_in(os.path.join(workdir, "tmp"))
    load_before = os.getloadavg()
    started = time.perf_counter()
    if args.workload == "serve-open-loop":
        from perfbench.serve import SERVE_SPEC as spec
        from perfbench.serve import run_serve as runner
    else:
        from perfbench.replay import MANY_SCOPES, SHARED_SCOPE, run_replay as runner

        spec = SHARED_SCOPE if args.workload == "shared-scope" else MANY_SCOPES
    outcome = runner(spec, args.seed, args.seconds, bool(args.trace), workdir, _log)
    gate = outcome["gate"]
    correct = gate.ok
    if args.trace:
        trace_gate = outcome["trace_gate"]
        if not trace_gate.ok:
            _log(f"traced run changed decisions: {trace_gate.first_mismatch}")
        correct = correct and trace_gate.ok
        metrics = {
            m.name: {"value": float(outcome["layers"].get(m.name, 0.0)), "unit": m.unit}
            for m in catalogue.PER_LAYER
        }
        trace_dir = os.path.join(workdir, "traces")
        for part, tracer in outcome["spans"].items():
            tracer.dump(
                os.path.join(
                    trace_dir, f"{args.workload}-seed{args.seed}-{part}.jsonl"
                )
            )
    else:
        metrics = {
            m.name: {"value": float(outcome["e2e"][m.name]), "unit": m.unit}
            for m in catalogue.END_TO_END
        }
    if not gate.ok:
        _log(f"correctness gate failed: {gate.first_mismatch}")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "parameters": spec.as_record(),
        "machine": provenance(ROOT),
        "load_average_before": list(load_before),
        "load_average_after": list(os.getloadavg()),
        "elapsed_s": time.perf_counter() - started,
        "detail": outcome["detail"],
        "metrics": metrics,
    }
    results = os.path.join(workdir, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    print(json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(gate.attempted),
                "failed": int(gate.failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
