"""Command-line entry point: ``python -m repro.queueing``.

Runs the excess-tail-latency-vs-offered-load sweep and prints the
table -- the quick interactive view of the ``latency_curves``
experiment.  To persist the artifact (``results/latency_curves.json``)
and regenerate EXPERIMENTS.md, use ``python -m repro.reports run
--experiments latency_curves`` / ``render`` instead.
"""

from __future__ import annotations

import argparse
import time
from typing import List, Optional

from repro.experiments import ExperimentConfig
from repro.experiments.latency import (
    DEFAULT_UTILIZATIONS,
    LATENCY_SCHEMES,
    format_latency,
    run_latency,
)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.queueing",
        description="Excess p99/p999 latency vs offered load per scheme.",
    )
    parser.add_argument(
        "--schemes",
        nargs="+",
        default=list(LATENCY_SCHEMES),
        help="partitioner spec strings to sweep (default: %(default)s)",
    )
    parser.add_argument(
        "--utilizations",
        nargs="+",
        type=float,
        default=list(DEFAULT_UTILIZATIONS),
        metavar="RHO",
        help="offered loads in (0, 1) (default: %(default)s)",
    )
    parser.add_argument(
        "--dataset",
        default="WP",
        help="Table I dataset symbol for the key stream (default: WP)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="message-count multiplier (default 1.0 = 200k per cell)",
    )
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: REPRO_PARALLEL or cpu count; "
        "results are identical at any job count)",
    )
    args = parser.parse_args(argv)

    for rho in args.utilizations:
        if not 0.0 < rho < 1.0:
            parser.error(f"utilizations must be in (0, 1), got {rho}")

    config = ExperimentConfig(scale=args.scale, seed=args.seed, jobs=args.jobs)
    # wall-clock here times the sweep for the human at the terminal; no
    # simulated quantity depends on it.
    start = time.time()  # repro: noqa[REPRO002]
    rows = run_latency(
        config,
        utilizations=tuple(args.utilizations),
        schemes=tuple(args.schemes),
        dataset=args.dataset,
    )
    print(format_latency(rows))
    print(f"[latency sweep completed in {time.time() - start:.1f}s]")  # repro: noqa[REPRO002]
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
