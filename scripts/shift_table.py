#!/usr/bin/env python3
"""Tabulate the quantum shift on one Grassmannian.

For each cocharacter index i and each class of Gr(k,n), print the single
term q^d [target] of the product with the i-th rectangle class, next to
the degree read off the partition diagram.  The two columns agreeing for
every row is the point.

    python scripts/shift_table.py --n 5 --k 2
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from qseidel.grassmann import box_partitions, fmt_partition, partition_to_perm
from qseidel.quantum import seidel_product_check


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, required=True)
    parser.add_argument("--k", type=int, required=True)
    args = parser.parse_args(argv)
    try:
        parts = box_partitions(args.k, args.n)
    except ValueError as err:
        parser.error(str(err))
    width = max(len(fmt_partition(p)) for p in parts) + 2
    clean = True
    for i in range(args.n):
        print(f"shift by index {i}:")
        for lam in parts:
            u = partition_to_perm(lam, args.k, args.n)
            chk = seidel_product_check(u, i, args.k, args.n)
            clean = clean and chk.passed
            frame = "dual" if chk.frame.dualized else "direct"
            print(
                f"  [{fmt_partition(lam):<{width}}] -> q^{chk.frame.d} "
                f"[{fmt_partition(chk.target):<{width}}] "
                f"({frame}, single_term={'yes' if chk.passed else 'NO'})"
            )
    print()
    print("all rows single-term" if clean else "SOME ROWS FAILED")
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
