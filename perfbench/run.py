"""Wall-clock request benchmark for the agent-based recommendation platform.

Usage, from the repository root::

    python3 perfbench/run.py --workload browse --seed 1 --seconds 15 --trace 0

One run builds the platform from ``src/`` in this process and drives seeded
days of gateway sessions (``perfbench/workloads.py``) through
``PlatformGateway.submit`` and the ``SessionScheduler``, single-threaded.
A request is one ``SessionScheduler.step()`` call, timed from outside.

``--seconds`` fixes how much work a run does:
``max(1, round(seconds / (2 * day_seconds)))`` days (``day_seconds`` is the
workload's), each with its own seed derived from ``--seed`` and each
drained twice, set up fresh every time.  The work, and so every simulated
figure, depends only on the arguments; on a 2-core host a run drains about
``--seconds`` of requests.  Timed figures are scaled to a reference host
speed (``perfbench/hostspeed.py``) and each request counts with the faster
of its two drains.

- ``--trace 0`` prints the end-to-end metrics.
- ``--trace 1`` drains each day twice on identical inputs: untraced, and
  with every layer wrapped by ``perfbench/tracer.py``.  It
  prints the per-layer metrics and the tracing overhead, and writes the
  spans to ``perfbench/out/``.

A day that fails the correctness gate (``perfbench/gate.py``) fails the
run: the problems go to stderr, the result reads ``"correct": false`` and
the exit status is 1.  The last line of standard output is the JSON result.
"""

import argparse
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "repro").is_dir():
        print(f"cannot find the program's sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    return bench.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
