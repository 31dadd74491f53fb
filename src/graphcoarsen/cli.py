"""Command-line interface.

Subcommands mirror the pipeline stages: ``generate`` a problem, then
``partition`` / ``cluster`` / ``prolong`` / ``solve`` on files, ``run`` for
a full config-driven sweep, and ``report`` to pivot a results CSV into a
readable table.
"""

from __future__ import annotations

import argparse
import sys
import textwrap

from . import fileio
from .clustering import cluster_partition
from .coarsesolve import errors, galerkin_coarse, solve_fine, solve_steady
from .experiments import (METHODS, PROBLEM_KEYS, Problem, build_problem,
                          build_prolongation, emit_summary, parse_config,
                          problem_params, run_experiments)
from .partition import OVERSAMPLE_MODES, oversample, partition_balanced

#: generate's flags: the keys of each family but file, less label (no file holds it)
GENERATE_KEYS = tuple(dict.fromkeys(
    key for family, keys in PROBLEM_KEYS.items() if family != "file"
    for key in keys if key != "label"))


def _show(value) -> str:
    return f"{value:g}" if isinstance(value, float) else str(value) or '""'


def _problem_help() -> str:
    return "\n".join([
        f"[problem]   family = {' | '.join(PROBLEM_KEYS)} (default "
        f"{problem_params({})['family']}); key=default:",
        *(textwrap.fill(", ".join(key if value is None else f"{key}={_show(value)}"
                                  for key, value in keys.items() if key != "family"),
                        width=79, initial_indent=f"{'':12}{family + ':':7}",
                        subsequent_indent=" " * 19)
          for family, keys in PROBLEM_KEYS.items()),
        '            holes = "cx,cy,r;..."; background = iso | rotated (rotated',
        "            reads d1, d2 and theta); operator is a Matrix Market file"])


def _cmd_generate(args) -> int:
    problem = build_problem({key: value for key, value in vars(args).items()
                             if key in GENERATE_KEYS and value is not None})
    fileio.write_graph(problem.graph, args.out)
    if args.operator:
        fileio.write_operator(problem.operator, args.operator)
    if args.rhs:
        fileio.write_vector(problem.rhs, args.rhs)
    print(f"wrote {args.out}: n = {problem.graph.n_vertices}, "
          f"edges = {problem.graph.n_edges}")
    return 0


def _load_problem(args) -> Problem:
    return build_problem({"family": "file", "graph": args.graph,
                          "operator": args.operator, "rhs": args.rhs})


def _cmd_partition(args) -> int:
    graph = fileio.read_graph(args.graph)
    part = partition_balanced(graph, args.n, seed=args.seed)
    fileio.write_partition(part, args.out)
    lo, hi, mean = part.balance
    print(f"wrote {args.out}: {args.n} subdomains, sizes [{lo}, {hi}], mean {mean:.1f}")
    return 0


def _cmd_cluster(args) -> int:
    graph = fileio.read_graph(args.graph)
    part = fileio.read_partition(args.partition, graph.n_vertices)
    clusters = cluster_partition(graph, part, args.m, seed=args.seed)
    fileio.write_clusters(clusters, args.out)
    print(f"wrote {args.out}: {clusters.n_coarse} aggregates")
    return 0


def _cmd_prolong(args) -> int:
    problem = _load_problem(args)
    graph = problem.graph
    part = fileio.read_partition(args.partition, graph.n_vertices)
    if args.delta_h is not None:
        part = oversample(graph, part, args.delta_h, mode=args.mode)
    clusters = fileio.read_clusters(args.clusters, graph.n_vertices)
    P = build_prolongation(args.method, problem, clusters, part)
    fileio.write_prolongation(P, args.out)
    print(f"wrote {args.out}: {P.n} x {P.n_coarse} ({P.kind})")
    return 0


def _cmd_solve(args) -> int:
    problem = _load_problem(args)
    A, f = problem.operator, problem.rhs
    u = solve_fine(A, f)
    if args.out_u:
        fileio.write_vector(u, args.out_u)
    if args.prolongation:
        P = fileio.read_prolongation(args.prolongation)
        model = galerkin_coarse(A, f, P)
        _, u_ms = solve_steady(model)
        if args.out_ums:
            fileio.write_vector(u_ms, args.out_ums)
        e1, e2 = errors(u, u_ms, A)
        print(f"e1 = {e1:.4f} %  e2 = {e2:.4f} %  "
              f"(n = {A.shape[0]}, n_c = {model.n_coarse})")
    else:
        print(f"solved fine system, n = {A.shape[0]}")
    return 0


def _cmd_run(args) -> int:
    config = parse_config(args.config)
    if args.outdir:
        from dataclasses import replace

        config = replace(config, outdir=args.outdir)
    rows = run_experiments(config)
    bad = [r for r in rows if r["status"] != "ok"]
    print(f"{len(rows)} rows -> {config.outdir}/results.csv "
          f"({len(bad)} failed)")
    for r in bad:
        print(f"  {r['test']} {r['method']} N={r['N_omega']} M={r['M']}: {r['status']}")
    return 1 if bad else 0


def _cmd_report(args) -> int:
    table = emit_summary(args.csv)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table + "\n")
    print(table)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="graphcoarsen",
        description="Two-level coarsening of weighted diffusion graphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="generate a test problem", epilog=_problem_help(),
                       description="each problem flag is a [problem] key, _ written as -",
                       formatter_class=argparse.RawDescriptionHelpFormatter)
    g.add_argument("--family", choices=[f for f in PROBLEM_KEYS if f != "file"])
    for key in GENERATE_KEYS[1:]:  # after family
        g.add_argument("--" + key.replace("_", "-"))
    g.add_argument("--out", required=True)
    g.add_argument("--operator", help="write the operator (Matrix Market)")
    g.add_argument("--rhs", help="write the right-hand side")
    g.set_defaults(func=_cmd_generate)

    p = sub.add_parser("partition", help="balanced subdomains")
    p.add_argument("--graph", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_partition)

    c = sub.add_parser("cluster", help="spectral aggregates per subdomain")
    c.add_argument("--graph", required=True)
    c.add_argument("--partition", required=True)
    c.add_argument("--m", type=int, required=True)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_cluster)

    pr = sub.add_parser("prolong", help="build a prolongation operator")
    pr.add_argument("--graph", required=True)
    pr.add_argument("--operator")
    pr.add_argument("--rhs")
    pr.add_argument("--partition", required=True)
    pr.add_argument("--clusters", required=True)
    pr.add_argument("--method", choices=METHODS, required=True)
    pr.add_argument("--delta-h", dest="delta_h", type=float, default=None,
                    help="oversampling radius; a whole BFS hop count on a graph "
                         "without coordinates")
    pr.add_argument("--mode", choices=OVERSAMPLE_MODES, default=OVERSAMPLE_MODES[0])
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=_cmd_prolong)

    s = sub.add_parser("solve", help="fine solve, optionally coarse-compare")
    s.add_argument("--graph", required=True)
    s.add_argument("--operator")
    s.add_argument("--rhs")
    s.add_argument("--prolongation")
    s.add_argument("--out-u", dest="out_u")
    s.add_argument("--out-ums", dest="out_ums")
    s.set_defaults(func=_cmd_solve)

    r = sub.add_parser(
        "run", help="full sweep from a config file",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=f"""\
config file sections (key = value):

{_problem_help()}
[sweep]     n_subdomains, m, delta_h = space-separated lists; methods from
            {{{', '.join(METHODS)}}}; seed (0);
            oversample_mode = {' | '.join(OVERSAMPLE_MODES)} ({OVERSAMPLE_MODES[0]});
            delta_h is a Euclidean radius, or a whole BFS hop count on a
            graph without coordinates
[transient] optional: tau, steps  (backward Euler, errors at final time)
[output]    dir (out), solutions = true | false (true),
            trajectories = true | false (false; per-row step,time,vertex,value CSV)

an unknown key in any section is an error; in [problem], any key its family does not read.

writes results.csv (with timings), errors.csv (timing-free, byte-reproducible),
reports/ (one convergence report per row) and solutions/ (u, u_ms vectors).""")
    r.add_argument("--config", required=True)
    r.add_argument("--outdir")
    r.set_defaults(func=_cmd_run)

    rp = sub.add_parser("report", help="pivot a results CSV into a table")
    rp.add_argument("--csv", required=True)
    rp.add_argument("--out")
    rp.set_defaults(func=_cmd_report)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface a readable one-liner, nonzero exit
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
