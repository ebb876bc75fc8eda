"""One pass of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--trace] [--smoke] [--setup-only]

Imports the library from the checkout's ``src``, builds the seeded inputs, warms up,
then runs every operation once and prints one JSON line: when set-up
finished, each operation's start, end and verdict, peak resident memory,
and in traced mode the spans and counts.  Times are ``time.perf_counter``
readings, the system-wide monotonic clock, so the parent can set them
against its own clock and the speed probe's.  A fresh interpreter per
pass means every ``functools.cache`` in the library starts empty.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / 'src'


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument('--workload', required=True)
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--trace', action='store_true')
    parser.add_argument('--smoke', action='store_true')
    parser.add_argument('--setup-only', action='store_true', dest='setup_only')
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    # The cli workload's children import the same sources.
    os.environ['PYTHONPATH'] = str(SRC)
    import qpartition
    if Path(qpartition.__file__).resolve().parent != SRC / 'qpartition':
        raise SystemExit(f'imported qpartition from {qpartition.__file__}, not {SRC}')
    from tracing import Tracer
    from workloads import WORKLOADS

    warm_up, ops = WORKLOADS[args.workload](random.Random(args.seed), args.smoke)
    warm_up()
    ready_at = perf_counter()
    if args.setup_only:
        print(json.dumps({'ready_at': ready_at}))
        return 0

    tracer = Tracer(args.trace)
    results = []
    for op_id, (label, fn) in enumerate(ops):
        error = None
        start = perf_counter()
        try:
            with tracer.op(op_id):
                ok = bool(fn(tracer))
        except Exception:
            ok = False
            error = traceback.format_exc(limit=-3)
        results.append((label, start, perf_counter(), ok, error))

    # The cli workload's work happens in its children: report the largest.
    who = resource.RUSAGE_CHILDREN if args.workload == 'cli' else resource.RUSAGE_SELF
    print(json.dumps({
        'ready_at': ready_at,
        'ops': results,
        'peak_rss_mb': resource.getrusage(who).ru_maxrss / 1024,
        'spans': tracer.spans,
        'counts': tracer.counts,
    }))
    return 0


if __name__ == '__main__':
    sys.exit(main())
