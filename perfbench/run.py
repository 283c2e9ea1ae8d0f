#!/usr/bin/env python3
"""entwatch benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload corpus_mixed --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped; ``--trace
1`` runs the workload once with every layer wrapped and reports per-layer
metrics. Either way the outputs are checked, a run record (machine, seed,
sample counts, quality figures) is printed, and the last line of standard
output is the result object. See perfbench/README.md for the workloads and
the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import shutil
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import ROOT, SRC, emit, machine  # noqa: E402
from speed import pin_to_one_cpu  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_DIR = ROOT / ".perfbench_work"
OUT_DIR = ROOT / ".perfbench_out"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    if not (SRC / "entwatch" / "cli.py").is_file():
        print(f"perfbench: no entwatch sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # A terminated run still stops its children and removes its scratch files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    pin_to_one_cpu()
    workload = WORKLOADS[args.workload]
    work = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.perf_counter()
    try:
        if args.trace:
            import traced

            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl"
            record, correct, attempted, failed, metrics = traced.run(
                workload, args.seed, work, spans)
        else:
            import untraced

            record, correct, attempted, failed, metrics = untraced.run(
                workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, run_wall_s=time.perf_counter() - started,
                  machine=machine())
    emit(record, correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
