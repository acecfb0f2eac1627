"""structconv benchmark: one workload per process, closed loop, one caller.

    python3 perfbench/run.py --workload infer-mv2b --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; it benchmarks the structconv package
under src/ of that checkout. Inputs are generated from --seed. The last line
of stdout is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. The line before it records the environment, set-up times, sample
counts and, with --trace 1, the traced-run summary. A traced run also writes
its spans as JSONL under perfbench/out/.

Exit codes: 0 when every checked operation was correct, 1 when one was not
(the result line is still printed), 2 when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")


def _parse(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "structconv", "__init__.py")):
        print(f"error: no structconv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness
    import structconv

    if os.path.dirname(os.path.abspath(structconv.__file__)) != os.path.join(SRC, "structconv"):
        print(f"error: imported structconv from {structconv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in harness.workloads.WORKLOADS:
        names = ", ".join(harness.workloads.WORKLOADS)
        print(f"error: unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    workdir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    try:
        result, report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except harness.workloads.CountMismatch as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    tracer = report.pop("tracer", None)
    if tracer is not None:
        path = os.path.join(OUT, f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.write_jsonl(path)
        report["trace_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
