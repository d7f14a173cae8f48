#!/usr/bin/env python3
"""Run the full neighborhood verification sweep and report per-rank totals.

The sweep re-checks, for every case (n, k, i, u) up to --n-max, that the
degree-d curve neighborhood of the rotated bottom variety and X^u has
exactly the fixed points of the predicted translated Schubert variety,
plus the flag-chain and single-term product cross-checks.

    python scripts/run_sweep.py --n-max 8 --jobs 4 --out sweep8.json
"""

import argparse
import json
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qseidel.cli import dumps_json
from qseidel.neighborhoods import sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=8)
    parser.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    parser.add_argument("--sample-size", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--out", type=str, default=None, help="write the JSON report here")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        report = sweep(
            args.n_max,
            mode=args.mode,
            sample_size=args.sample_size,
            seed=args.seed,
            jobs=args.jobs,
        )
    except ValueError as err:
        parser.error(str(err))
    elapsed = time.perf_counter() - start

    per_rank = Counter((c.n, c.k) for c in report.cases)
    fail_rank = Counter((c.n, c.k) for c in report.failures)
    degrees = Counter(c.d for c in report.cases)

    print(f"{'n':>3} {'k':>3} {'cases':>7} {'fail':>5}")
    for (n, k), total in sorted(per_rank.items()):
        print(f"{n:>3} {k:>3} {total:>7} {fail_rank.get((n, k), 0):>5}")
    print()
    print("degree histogram:", dict(sorted(degrees.items())))
    verdict = "all passed" if report.all_passed else f"{len(report.failures)} FAILED"
    print(f"{report.total} cases in {elapsed:.2f}s: {verdict}")

    for case in report.failures[:10]:
        print(json.dumps(case.record()))

    if args.out:
        Path(args.out).write_text(dumps_json(report.record()))
        print(f"report written to {args.out}")
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
