"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload h2h-read --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --write-manifest     # regenerate BENCHMARK.json

``--trace 0`` prints the end-to-end metrics of one untraced pass.
``--trace 1`` runs the workload twice with the same seed, untraced and
then with the timing shims installed, and prints the per-layer metrics;
the two passes must repeat every exact count.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).  The exit code is 0
only when every checked answer matched Dijkstra and no operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def measure(workload, seed: int, seconds: float, trace: bool, knobs) -> Tuple[dict, List[str]]:
    """Run *workload*; returns the result line and the lines printed before it."""
    # Imported here: they need repro, which main() puts on sys.path only
    # after checking that the checkout has it.
    import numpy

    from perfbench import report, shims, spec
    from perfbench.workloads import SETUP_REPS, SETUP_SECONDS, run_pass, workers

    lines: List[str] = []
    if trace:
        plain, _ = run_pass(workload, seed, seconds, knobs, count=True)
        tracer = shims.Tracer()
        traced, facts = run_pass(workload, seed, seconds, knobs, tracer=tracer, count=True)
        passes = [plain, traced]
        metrics = report.per_layer(traced, plain, facts)
        declared = spec.PER_LAYER
        notes = {name: f"moves {moves} on {where}"
                 for name, (moves, where) in spec.LAYER_TARGETS.items()}
        problems = report.counts_repeat(plain, traced)
        if traced.publish_self_s and min(traced.publish_self_s) < 0:
            problems.append("a publish's timed children exceed its wall time")
    else:
        result, facts = run_pass(workload, seed, seconds, knobs, setup_reps=SETUP_REPS,
                                 setup_seconds=SETUP_SECONDS)
        passes = [result]
        metrics = report.end_to_end(result)
        declared = spec.END_TO_END
        notes = report.samples(result)
        problems = []

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wrong = sum(p.wrong for p in passes)
    checked = sum(p.checked for p in passes)
    env = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": workers(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "oracle.backend": facts["oracle.backend"],
        "REPRO_BACKEND": os.environ.get("REPRO_BACKEND"),
        "graph": f"{workload.dataset} n={facts['n']} m={facts['m']}",
        "host_time_over_ref": report.host_speed(passes[0]),
    }
    lines.append("# env " + json.dumps(env))
    if trace:
        lines.append(f"# shims missing: {tracer.missing or 'none'}")
        lines.append(f"# exact counts: {'repeat' if not problems else 'DIFFER'}")
    printed = declared if trace else declared + [spec.UPDATES_PER_S]
    for m in printed:
        lines.append(f"{m.name:36s} {metrics[m.name]:14.6g} {m.unit:6s} {notes.get(m.name, '')}")
    share = failed / attempted if attempted else 0.0
    lines.append(
        f"{spec.FAILED_OP_SHARE.name:36s} {share:14.6g} {spec.FAILED_OP_SHARE.unit:6s} "
        f"{failed} of {attempted} ops; {checked} answers checked against Dijkstra, "
        f"{wrong} wrong"
    )
    lines.extend(f"# FAILED: {problem}" for problem in problems)
    line = {
        "correct": failed == 0 and wrong == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit} for m in declared},
    }
    return line, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from perfbench/spec.py and exit")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT))
    from perfbench import spec

    if args.write_manifest:
        (ROOT / "BENCHMARK.json").write_text(spec.manifest_text())
        return 0
    if args.workload not in spec.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(spec.WORKLOADS)}")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench.workloads import Knobs

    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds
    line, lines = measure(spec.WORKLOADS[args.workload], args.seed, seconds,
                          bool(args.trace), Knobs())
    print("\n".join(lines))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
