"""Command-line front end.

Subcommands: verify (theorem sweep or a single case), product, degree,
neighborhood, join.  Exit code 0 means every requested check passed, 1
means some case failed, 2 means the request itself was malformed and no
computation ran.  Each subcommand builds one record, the object that
``--format json`` prints; the text and CSV outputs are views of it.
Output is byte-stable: records are canonically ordered, so the worker
count never changes a byte.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
from typing import Optional

from . import grassmann, neighborhoods, perms, quantum

FORMATS = ("text", "json", "csv")


def dumps_json(obj) -> str:
    """Sorted, indented JSON and a newline, joined in batches: no list of every chunk is held."""
    chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(obj)
    batches = []
    while batch := "".join(itertools.islice(chunks, 8192)):
        batches.append(batch)
    batches.append("\n")
    return "".join(batches)


def fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def fmt_term(partition: str, q: int, coeff: int) -> str:
    return f"q^{q} * [({partition})] x{coeff}"


def render_terms_text(terms: list[dict]) -> str:
    lines = [fmt_term(t["partition"], t["q"], t["coeff"]) for t in terms]
    return "\n".join(lines or ["0"]) + "\n"


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


def render_verify_text(rec: dict) -> str:
    """A case record as its block; a sweep record as the blocks of its
    failing cases and a summary line."""
    if "cases" not in rec:
        return render_case_text(rec)
    out = [render_case_text(case) for case in rec["cases"] if not case["pass"]]
    sampled = f" sample_size={rec['sample_size']} seed={rec['seed']}" if rec["mode"] == "sampled" else ""
    out.append(
        f"sweep n_max={rec['n_max']} mode={rec['mode']}{sampled} "
        f"cases={rec['total']} pass={rec['pass']} fail={rec['fail']}\n"
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


def cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
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
        return rep.record(), 0 if rep.all_passed else 1
    if args.n is None or args.k is None or args.root is None or args.u is None:
        raise ValueError("a single case needs all of --n --k --root --u")
    sweep_only = (args.sample_size, args.seed, args.jobs)
    if args.mode == "sampled" or any(opt is not None for opt in sweep_only):
        raise ValueError("--mode sampled, --sample-size, --seed and --jobs apply only to --n-max")
    rec = neighborhoods.verify_case(args.n, args.k, args.root, perms.parse_perm(args.u))
    return rec, 0 if rec["pass"] else 1


def cmd_product(args: argparse.Namespace) -> tuple[dict, int]:
    lhs = grassmann.parse_partition(args.lhs)
    rhs = grassmann.parse_partition(args.rhs)
    prod = quantum.quantum_product(lhs, rhs, args.k, args.n)
    return {
        "n": args.n,
        "k": args.k,
        "lhs": grassmann.fmt_partition(lhs),
        "rhs": grassmann.fmt_partition(rhs),
        "terms": quantum.term_records(prod),
    }, 0


def cmd_degree(args: argparse.Namespace) -> tuple[dict, int]:
    lam = grassmann.parse_partition(args.lam)
    frame = quantum.resolve_frame(lam, args.root, args.k, args.n)
    return {
        "n": args.n,
        "k": args.k,
        "root": args.root,
        "lambda": grassmann.fmt_partition(lam),
        "beta": frame.beta,
        "dualized": frame.dualized,
        "d": frame.d,
    }, 0


def cmd_neighborhood(args: argparse.Namespace) -> tuple[dict, int]:
    lam_b = grassmann.parse_partition(args.lam_b)
    mu = grassmann.parse_partition(args.mu)
    gamma = neighborhoods.gamma_fp(lam_b, mu, args.d, args.k, args.n)
    return {
        "n": args.n,
        "k": args.k,
        "d": args.d,
        "lambda_b": grassmann.fmt_partition(lam_b),
        "mu": grassmann.fmt_partition(mu),
        "gamma": grassmann.fmt_subsets(gamma),
    }, 0


def cmd_join(args: argparse.Namespace) -> tuple[dict, int]:
    w = perms.check_perm(perms.parse_ints(args.w, "permutation"), args.n)
    ry = perms.parse_roots(args.roots_y, args.n)
    rz = perms.parse_roots(args.roots_z, args.n)
    rx = ry & rz
    uy = perms.min_coset_rep(w, ry)
    uz = perms.min_coset_rep(w, rz)
    result = perms.join(uy, uz, rx)
    return {
        "n": args.n,
        "w": perms.fmt_perm(w),
        "roots_y": perms.fmt_roots(ry),
        "roots_z": perms.fmt_roots(rz),
        "roots_meet": perms.fmt_roots(rx),
        "u_y": perms.fmt_perm(uy),
        "u_z": perms.fmt_perm(uz),
        "join": None if result is None else perms.fmt_perm(result),
    }, 0


# subcommand -> (handler returning its record and exit code, text view of the record)
COMMANDS = {
    "verify": (cmd_verify, render_verify_text),
    "product": (cmd_product, lambda rec: render_terms_text(rec["terms"])),
    "degree": (cmd_degree, lambda rec: f"{rec['d']}\n"),
    "neighborhood": (cmd_neighborhood, lambda rec: "".join(s + "\n" for s in rec["gamma"])),
    "join": (cmd_join, lambda rec: ("NoJoin" if rec["join"] is None else rec["join"]) + "\n"),
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler, text_view = COMMANDS[args.command]
    try:
        rec, code = handler(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if args.format == "json":
        sys.stdout.write(dumps_json(rec))
    elif args.format == "csv":  # offered by verify only
        sys.stdout.write(render_cases_csv(rec["cases"] if "cases" in rec else [rec]))
    else:
        sys.stdout.write(text_view(rec))
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
