"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

From the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` measures the per-layer metrics
(and the tracing overhead) in a separate run.  Every metric is printed
by name with its unit, then the last line of standard output is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  The
exit code is 0 only when every output was checked correct.

The workloads, metrics and units are declared in ``BENCHMARK.json``;
the full result, with the machine's provenance and the load average
around the run, is also written under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

from common import (ROOT, SRC, STATE_DIR, load_average, make_workdir,
                    program_present, provenance, write_json)

#: ``--smoke`` shrinks every workload so the benchmark's own tests can
#: run all four in about a minute; its numbers are not comparable.
SMOKE = {"scale": "tiny", "unique_hostnames": 20_000,
         "closed_requests": 200, "ladder_step_s": 0.25}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not program_present():
        print("perfbench: no program sources at %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, Settings

    workdir = make_workdir("%s-%d" % (args.workload, args.seed))
    tempfile.tempdir = os.path.join(workdir, "tmp")
    os.environ["TMPDIR"] = tempfile.tempdir
    settings = Settings(seed=args.seed, seconds=args.seconds,
                        trace=bool(args.trace), workdir=workdir,
                        **(SMOKE if args.smoke else {}))
    load_before = load_average()
    started = time.perf_counter()
    try:
        result = WORKLOADS[args.workload](settings)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in result.metrics]
    if missing and not args.trace:
        # A layer the workload never enters reads 0 in a traced run; an
        # end-to-end metric is measured on every workload.
        result.notes.append("metrics not measured: %s" % ", ".join(missing))
        result.count(1, 1, "incomplete measurement")
    metrics = {m["name"]: {"value": float(result.metrics.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in declared}
    document = {"correct": result.failed == 0,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics}
    write_json(os.path.join(STATE_DIR, "results", "%s-%d-trace%d.json"
                            % (args.workload, args.seed, args.trace)),
               dict(document, workload=args.workload, seed=args.seed,
                    seconds=args.seconds, smoke=args.smoke,
                    wall_s=time.perf_counter() - started,
                    provenance=provenance(), load_before=load_before,
                    load_after=load_average(), notes=result.notes,
                    details=result.details))
    for note in result.notes:
        print("# %s" % note.splitlines()[0] if note else "#",
              file=sys.stderr)
    for name, metric in metrics.items():
        print("%-40s %16.6f %s" % (name, metric["value"], metric["unit"]))
    print("# failed_fraction %.6f (%d of %d operations failed)"
          % (result.failed / max(1, result.attempted), result.failed,
             result.attempted))
    print(json.dumps(document, sort_keys=True))
    return 0 if document["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
