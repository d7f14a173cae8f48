#!/usr/bin/env python3
"""Summarize a sweep report: per-(n, k) totals, degree histogram, failures.

Reads the JSON report of ``qseidel verify --n-max N --format json`` on
stdin.  Exit code 0 means every case passed, 1 that some case failed, 2
that stdin is not a sweep report.

    qseidel verify --n-max 8 --format json | tee sweep8.json | python scripts/sweep_table.py
"""

import argparse
import json
import sys
from collections import Counter


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    try:
        cases = json.load(sys.stdin)["cases"]
        failures = [c for c in cases if not c["pass"]]
        ranks = sorted(Counter((c["n"], c["k"]) for c in cases).items())
        fail_rank = Counter((c["n"], c["k"]) for c in failures)
        degrees = dict(sorted(Counter(c["d"] for c in cases).items()))
    except (ValueError, LookupError, TypeError) as err:
        print(f"error: stdin is not a sweep report ({type(err).__name__}: {err})", file=sys.stderr)
        return 2

    print(f"{'n':>3} {'k':>3} {'cases':>7} {'fail':>5}")
    for (n, k), total in ranks:
        print(f"{n:>3} {k:>3} {total:>7} {fail_rank[n, k]:>5}")
    print()
    print("degree histogram:", degrees)
    verdict = f"{len(failures)} FAILED" if failures else "all passed"
    print(f"{len(cases)} cases: {verdict}")
    for case in failures[:10]:
        print(json.dumps(case))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
