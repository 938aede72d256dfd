"""The ``hyperind`` command line tool.

Subcommands: gen (write an instance), check (structural audit), schedule
(print round parameters), solve (run one solver, emit a certificate),
experiment (run a config), diff (compare two reports).  Exit codes: 0 on
success, 1 when a check/diff finds differences or a verification fails,
2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .core import check_integer, read_file, write_file
from .errors import HyperindError
from .harness import ExperimentConfig, diff_reports, run_experiment
from .rng import stream
from .schedule import build_schedule
from .solvers import GENERATORS, SOLVERS, checked_params
from .structure import (
    check_bouquet,
    find_clean_four_cycles,
    find_linear_three_cycles,
    list_two_cycles,
)

STRICT_HELP = (
    "reject (exit 2) a schedule outside (log N)^3 <= T <= N^(1/4k); with a round that needs"
    " N of about 10^49.4 at k=2 (10^82 at k=3), so at desk scale it exits 2 whenever"
    " the run would have a round"
)


def _cmd_gen(args) -> int:
    params = checked_params(GENERATORS, args.kind, vars(args), flags=True)
    H, info = GENERATORS[args.kind].run(params, stream(args.seed, "gen", args.kind))
    write_file(H, args.out)
    sizes = {i: c for i, c in H.layer_sizes().items() if c}
    print(f"wrote {args.out}: n={H.n} k={H.k} edges={H.num_edges()} layers={sizes}")
    for key in ("alpha_exact", "final_n", "achieved", "stalled_layers"):
        if key in info and info[key] not in ({}, []):
            print(f"  {key}: {info[key]}")
    return 0


def _cmd_check(args) -> int:
    check_integer("--limit", args.limit, least=1)
    H = read_file(args.path)
    report = check_bouquet(H)
    two = list_two_cycles(H, limit=args.limit)
    three = find_linear_three_cycles(H, limit=args.limit)
    four = find_clean_four_cycles(H, limit=args.limit)
    if args.json:
        print(
            json.dumps(
                {
                    **report.to_dict(),
                    "two_cycles_seen": [w.to_dict() for w in two],
                    "linear_three_seen": [w.to_dict() for w in three],
                    "clean_four_seen": [w.to_dict() for w in four],
                },
                indent=2,
            )
        )
    else:
        print(f"{args.path}: n={H.n} k={H.k} edges={H.num_edges()}")
        cap = f" (first {args.limit})"
        print(f"  two-cycles{cap}: {len(two)}")
        print(f"  linear three-cycles{cap}: {len(three)}")
        print(f"  clean four-cycles{cap}: {len(four)}")
        if report.holds:
            print("  structural conditions: all hold")
        else:
            for prop, w in report.violations:
                print(f"  violated {prop}: {w.kind} via edges {w.edges}")
    return 0 if report.holds else 1


def _cmd_schedule(args) -> int:
    sched = build_schedule(args.n, args.T, args.k, strict=args.strict)
    if args.json:
        print(json.dumps(sched.to_dict(), indent=2))
        return 0
    print(
        f"N={sched.N} T={sched.T:g} k={sched.k} eps={sched.epsilon:.6f} "
        f"rounds M={sched.M}"
    )
    for w in sched.warnings:
        print(f"  warning: {w}")
    header = "m alpha gamma t p n_lo n_hi " + " ".join(
        f"cap(1,{i})" for i in range(2, sched.k + 1)
    )
    print(header)
    for m in range(sched.M + 1):
        caps = " ".join(
            str(sched.vertex_cap(m, i)) for i in range(2, sched.k + 1)
        )
        gamma = f"{sched.gamma_at(m):.6f}" if m >= 1 else "-"
        p = f"{sched.p_at(m):.6g}" if m >= 1 else "-"
        print(
            f"{m} {sched.alpha[m]:.6f} {gamma} {sched.t[m]:.4f} {p} "
            f"{sched.n_lo[m]:.1f} {sched.n_hi[m]:.1f} {caps}"
        )
    return 0


def _cmd_solve(args) -> int:
    H = read_file(args.path)
    params = checked_params(SOLVERS, args.algorithm, vars(args), flags=True)
    cert = SOLVERS[args.algorithm].run(H, params, args.seed)
    picked, algorithm = cert.independent_set, cert.algorithm
    if not cert.verified:  # every runner verifies its set against H
        witness = H.is_independent(picked)[1]
        print(f"verification failed, spanned edge {witness}", file=sys.stderr)
        return 1
    print(f"{algorithm}: found {len(picked)} of {H.n} vertices, verified")
    for w in cert.warnings:
        print(f"  warning: {w}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(
                f"# algorithm={algorithm} n={H.n} k={H.k} "
                f"size={len(picked)} verified=true\n"
            )
            for v in picked:
                fh.write(f"{v}\n")
        print(f"certificate written to {args.out}")
    return 0


def _cmd_experiment(args) -> int:
    cfg = ExperimentConfig.from_json(args.config)
    report = run_experiment(cfg, args.out_dir)
    bad = [r for r in report["rows"] if not r["verified"]]
    for algorithm, agg in sorted(report["aggregates"].items()):
        print(
            f"{algorithm}: {agg['runs']} runs, sizes {agg['min_size']}.."
            f"{agg['max_size']}, median ratio {agg['median_ratio']}"
        )
    out = Path(args.out_dir) / cfg.name
    print(f"report: {out}.json, table: {out}.csv")
    if bad:
        print(f"{len(bad)} rows failed verification", file=sys.stderr)
        return 1
    return 0


def _cmd_diff(args) -> int:
    diffs = diff_reports(args.left, args.right)
    for line in diffs:
        print(line)
    if diffs:
        print(f"{len(diffs)} differences")
        return 1
    print("reports match (runtimes ignored)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperind",
        description="independent sets in layered hypergraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--kind", required=True, choices=tuple(GENERATORS))
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--k", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--p", type=float, help="edge probability (gnp)")
    g.add_argument("--t", type=float, help="degree scale (girth5)")
    g.add_argument("--s", type=int, help="block size (cliques)")
    g.add_argument("--counts", help="JSON {layer: edges} (bouquet)")
    g.add_argument("--vertex-caps", help="JSON {layer: cap} (bouquet)")
    g.add_argument("--out", required=True)
    g.set_defaults(func=_cmd_gen)

    c = sub.add_parser("check", help="audit an instance file")
    c.add_argument("path")
    c.add_argument("--limit", type=int, default=10, help="witnesses to list per kind, at least 1")
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=_cmd_check)

    s = sub.add_parser("schedule", help="print round parameters")
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--T", type=float, required=True)
    s.add_argument("--k", type=int, required=True)
    s.add_argument("--strict", action="store_true", help=STRICT_HELP)
    s.add_argument("--json", action="store_true")
    s.set_defaults(func=_cmd_schedule)

    so = sub.add_parser("solve", help="run one solver on an instance file")
    so.add_argument("path")
    so.add_argument("--algorithm", required=True, choices=tuple(SOLVERS))
    so.add_argument("--seed", type=int, default=0)
    so.add_argument("--out", help="certificate file to write")
    so.add_argument("--order", default="mindegree", choices=("mindegree", "random"))
    so.add_argument("--samples", type=int, default=20)
    so.add_argument("--retries", type=int, default=16)
    so.add_argument("--T", type=float, help="rounds parameter (akpss)")
    so.add_argument("--d", type=float, help="degree bound (pkm2, appA)")
    so.add_argument("--t", type=float, help="degree scale (appB)")
    so.add_argument("--epsilon", type=float, help="gap parameter (appA case 1, appB)")
    so.add_argument("--case", type=int, default=1, choices=(1, 2), help="appA case")
    so.add_argument("--strict", action="store_true", help=STRICT_HELP)
    so.add_argument(
        "--trust", dest="trust_preconditions", action="store_true", help="skip input checks"
    )
    so.set_defaults(func=_cmd_solve)

    e = sub.add_parser("experiment", help="run an experiment config")
    e.add_argument("config")
    e.add_argument("--out-dir", default=".")
    e.set_defaults(func=_cmd_experiment)

    d = sub.add_parser("diff", help="compare two experiment reports")
    d.add_argument("left")
    d.add_argument("right")
    d.set_defaults(func=_cmd_diff)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # OverflowError: parameters too large for float arithmetic
    except (HyperindError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
