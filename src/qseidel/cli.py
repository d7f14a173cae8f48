"""Command-line front end.

Subcommands: verify (theorem sweep or a single case), product, degree,
neighborhood, join.  Exit code 0 means every requested check passed, 1
means some case failed, 2 means the request itself was malformed and no
computation ran.  Output is byte-stable: reports are rendered from
canonically ordered records, so the worker count never changes a byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Optional

from . import grassmann, neighborhoods, perms, quantum

FORMATS = ("text", "json", "csv")


def dumps_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def fmt_term(partition: str, q: int, coeff: int) -> str:
    return f"q^{q} * [({partition})] x{coeff}"


def render_qclass_text(c: quantum.QClass) -> str:
    if c.is_zero():
        return "0\n"
    lines = [fmt_term(t["partition"], t["q"], t["coeff"]) for t in quantum.qclass_records(c)]
    return "\n".join(lines) + "\n"


def render_case_text(rec: dict) -> str:
    head = (
        f"case n={rec['n']} k={rec['k']} i={rec['i']} u={rec['u']} "
        f"beta={'-' if rec['beta'] is None else rec['beta']} "
        f"dualized={fmt_bool(rec['dualized'])} d={rec['d']} pass={fmt_bool(rec['pass'])}"
    )
    checks = " ".join(f"{name}={fmt_bool(val)}" for name, val in sorted(rec["checks"].items()))
    lines = [head, f"  checks {checks}"]
    detail = rec.get("counterexample_detail")
    if detail:
        for key in ("gamma", "target", "gamma_minus_target", "target_minus_gamma"):
            lines.append(f"  {key}: " + (" | ".join(detail[key]) if detail[key] else "-"))
        lines.append(
            f"  v_partition={detail['v_partition']} target_partition={detail['target_partition']} "
            f"length_v={detail['length_v']} length_target={detail['length_target']}"
        )
        terms = "; ".join(
            fmt_term(t["partition"], t["q"], t["coeff"]) for t in detail["product_terms"]
        )
        lines.append(f"  product: {terms if terms else '0'}")
    return "\n".join(lines) + "\n"


def render_sweep_text(rep: neighborhoods.SweepReport) -> str:
    failures = rep.failures
    out = [render_case_text(rec) for rec in failures]
    sampled = f" sample_size={rep.sample_size} seed={rep.seed}" if rep.mode == "sampled" else ""
    out.append(
        f"sweep n_max={rep.n_max} mode={rep.mode}{sampled} "
        f"cases={rep.total} pass={rep.total - len(failures)} fail={len(failures)}\n"
    )
    return "".join(out)


CSV_COLUMNS = ("n", "k", "i", "u", "beta", "dualized", "d", "pass") + neighborhoods.CHECK_NAMES


def render_cases_csv(records: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        row = [
            rec["n"],
            rec["k"],
            rec["i"],
            rec["u"],
            "" if rec["beta"] is None else rec["beta"],
            fmt_bool(rec["dualized"]),
            rec["d"],
            fmt_bool(rec["pass"]),
        ]
        row.extend(fmt_bool(rec["checks"][name]) for name in neighborhoods.CHECK_NAMES)
        writer.writerow(row)
    return buf.getvalue()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qseidel",
        description="Curve-neighborhood and quantum-product checks for Grassmannian Schubert classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="verify the neighborhood theorem on a sweep or one case")
    pv.add_argument("--n-max", type=int, help="sweep all cases with 2 <= n <= n-max")
    pv.add_argument("--n", type=int, help="single case: ambient rank")
    pv.add_argument("--k", type=int, help="single case: subspace dimension")
    pv.add_argument("--root", type=int, help="single case: cocharacter index i, 0 <= i <= n-1")
    pv.add_argument("--u", type=str, help='single case: permutation, e.g. "1,3,2,4"')
    pv.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    pv.add_argument("--sample-size", type=int, help="number of sampled cases (sampled mode)")
    pv.add_argument("--seed", type=int, default=None, help="sample seed (default 0)")
    pv.add_argument("--jobs", type=int, default=None, help="worker processes for the sweep")
    pv.add_argument("--format", choices=FORMATS, default="text")

    pp = sub.add_parser("product", help="quantum product of two Schubert classes")
    pp.add_argument("--n", type=int, required=True)
    pp.add_argument("--k", type=int, required=True)
    pp.add_argument("--lhs", type=str, required=True, help='left partition, e.g. "2,1" ("" = empty)')
    pp.add_argument("--rhs", type=str, required=True, help="right partition")
    pp.add_argument("--format", choices=("text", "json"), default="text")

    pd = sub.add_parser("degree", help="smallest quantum degree of a cocharacter product")
    pd.add_argument("--n", type=int, required=True)
    pd.add_argument("--k", type=int, required=True)
    pd.add_argument("--lambda", dest="lam", type=str, required=True, help="codimension partition")
    pd.add_argument("--root", type=int, required=True, help="cocharacter index, 0 <= root <= n-1")
    pd.add_argument("--format", choices=("text", "json"), default="text")

    pn = sub.add_parser("neighborhood", help="fixed points of a degree-d curve neighborhood")
    pn.add_argument("--n", type=int, required=True)
    pn.add_argument("--k", type=int, required=True)
    pn.add_argument("--d", type=int, required=True)
    pn.add_argument(
        "--lambda-b", dest="lam_b", type=str, required=True,
        help='dimension partition of the B-stable side ("" = empty)',
    )
    pn.add_argument("--mu", type=str, required=True, help="codimension partition of the opposite side")
    pn.add_argument("--format", choices=("text", "json"), default="text")

    pj = sub.add_parser("join", help="join of the two parabolic projections of w")
    pj.add_argument("--n", type=int, required=True)
    pj.add_argument("--w", type=str, required=True, help="permutation in one-line notation")
    pj.add_argument("--roots-y", type=str, required=True, help='first parabolic set, e.g. "2,3"')
    pj.add_argument("--roots-z", type=str, required=True, help="second parabolic set")
    pj.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def cmd_verify(args: argparse.Namespace) -> tuple[str, int]:
    single = args.n is not None or args.k is not None or args.root is not None or args.u is not None
    if args.n_max is not None and single:
        raise ValueError("give either --n-max or a single case (--n --k --root --u), not both")
    if args.n_max is None and not single:
        raise ValueError("give --n-max for a sweep or --n --k --root --u for one case")
    if args.n_max is not None:
        rep = neighborhoods.sweep(
            args.n_max,
            mode=args.mode,
            sample_size=args.sample_size,
            seed=args.seed,
            jobs=args.jobs,
        )
        code = 0 if rep.all_passed else 1
        if args.format == "json":
            return dumps_json(rep.record()), code
        if args.format == "csv":
            return render_cases_csv(rep.cases), code
        return render_sweep_text(rep), code
    if args.n is None or args.k is None or args.root is None or args.u is None:
        raise ValueError("a single case needs all of --n --k --root --u")
    sweep_only = (args.sample_size, args.seed, args.jobs)
    if args.mode == "sampled" or any(opt is not None for opt in sweep_only):
        raise ValueError("--mode sampled, --sample-size, --seed and --jobs apply only to --n-max")
    report = neighborhoods.verify_case(args.n, args.k, args.root, perms.parse_perm(args.u))
    code = 0 if report.passed else 1
    rec = report.record()
    if args.format == "json":
        return dumps_json(rec), code
    if args.format == "csv":
        return render_cases_csv([rec]), code
    return render_case_text(rec), code


def cmd_product(args: argparse.Namespace) -> tuple[str, int]:
    lhs = grassmann.parse_partition(args.lhs)
    rhs = grassmann.parse_partition(args.rhs)
    prod = quantum.quantum_product(lhs, rhs, args.k, args.n)
    if args.format == "json":
        obj = {
            "n": args.n,
            "k": args.k,
            "lhs": grassmann.fmt_partition(lhs),
            "rhs": grassmann.fmt_partition(rhs),
            "terms": quantum.qclass_records(prod),
        }
        return dumps_json(obj), 0
    return render_qclass_text(prod), 0


def cmd_degree(args: argparse.Namespace) -> tuple[str, int]:
    lam = grassmann.parse_partition(args.lam)
    frame = quantum.resolve_frame(lam, args.root, args.k, args.n)
    if args.format == "json":
        obj = {
            "n": args.n,
            "k": args.k,
            "root": args.root,
            "lambda": grassmann.fmt_partition(lam),
            "beta": frame.beta,
            "dualized": frame.dualized,
            "d": frame.d,
        }
        return dumps_json(obj), 0
    return f"{frame.d}\n", 0


def cmd_neighborhood(args: argparse.Namespace) -> tuple[str, int]:
    lam_b = grassmann.parse_partition(args.lam_b)
    mu = grassmann.parse_partition(args.mu)
    gamma = neighborhoods.gamma_fp(lam_b, mu, args.d, args.k, args.n)
    subsets = grassmann.fmt_subsets(gamma)
    if args.format == "json":
        obj = {
            "n": args.n,
            "k": args.k,
            "d": args.d,
            "lambda_b": grassmann.fmt_partition(lam_b),
            "mu": grassmann.fmt_partition(mu),
            "gamma": subsets,
        }
        return dumps_json(obj), 0
    return "".join(s + "\n" for s in subsets), 0


def cmd_join(args: argparse.Namespace) -> tuple[str, int]:
    w = perms.check_perm(perms.parse_perm(args.w), args.n)
    ry = perms.parse_roots(args.roots_y, args.n)
    rz = perms.parse_roots(args.roots_z, args.n)
    rx = ry & rz
    uy = perms.min_coset_rep(w, ry)
    uz = perms.min_coset_rep(w, rz)
    result = perms.join(uy, uz, rx)
    if args.format == "json":
        obj = {
            "n": args.n,
            "w": perms.fmt_perm(w),
            "roots_y": perms.fmt_roots(ry),
            "roots_z": perms.fmt_roots(rz),
            "roots_meet": perms.fmt_roots(rx),
            "u_y": perms.fmt_perm(uy),
            "u_z": perms.fmt_perm(uz),
            "join": None if result is None else perms.fmt_perm(result),
        }
        return dumps_json(obj), 0
    return ("NoJoin" if result is None else perms.fmt_perm(result)) + "\n", 0


HANDLERS = {
    "verify": cmd_verify,
    "product": cmd_product,
    "degree": cmd_degree,
    "neighborhood": cmd_neighborhood,
    "join": cmd_join,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, code = HANDLERS[args.command](args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
