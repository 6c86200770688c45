"""End-to-end benchmark of the encrypted XML database, with a per-layer trace.

Run from the root of a checkout; the benchmark measures the ``src/`` found
there::

    python3 benchmarks/e2e/run.py --workload paper_mix_598 --seed 1 --seconds 15 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it holds informational values (backend, the tail percentile,
the machine's measured speed, wall-clock throughput and latencies, peak
RSS, write latencies, the result digest, the first problems found).  A
traced run also writes the spans of its first traced pass to
``<out>/<workload>.spans.jsonl``.  See ``README.md`` for the metrics.

Linux only: the run pins itself to one CPU and reads a hardware
instruction counter through ``perf_event_open(2)``.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_args(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time on the reference machine: fixes the number of passes "
                             "(at least two on paper_mix_10918, about 30 s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="smoke size: one pass, or ten writes, and one build")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for span files and fleet tables")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    source = Path.cwd() / "src"
    if not (source / "repro").is_dir():
        print("error: run from the root of a checkout; no src/repro under %s" % Path.cwd(),
              file=sys.stderr)
        return 2
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))
    args = parse_args(argv)
    import workloads

    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    # The fleet saves its tables through tempfile: keep them in the checkout.
    scratch = args.out / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    saved_tempdir, tempfile.tempdir = tempfile.tempdir, str(scratch)
    try:
        info, result = workloads.run(
            args.workload, args.seed, args.seconds, bool(args.trace),
            quick=args.quick, out_dir=args.out, golden=golden,
        )
    finally:
        tempfile.tempdir = saved_tempdir
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
