"""One benchmark sweep, run in a fresh process by ``run.py``.

It calls the public pipeline functions in the order
``experiments.run_experiments`` does, without the CSV, report and solution
writes, and prints one JSON object: the stage times, each row's e1/e2 and
status, the process's peak RSS and, when traced, the spans and the
structural counts.  With ``--until T`` the rows then run again on the same
set-up while one more fits before ``T``, a ``time.monotonic()`` reading.

    python3 perfbench/sweep.py --workload NAME --workload-seed S [--trace] [--rows cf,mc]
                               [--until T]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from graphcoarsen.analysis import verify_bound  # noqa: E402
from graphcoarsen.clustering import cluster_partition  # noqa: E402
from graphcoarsen.coarsesolve import (TransientConfig, errors,  # noqa: E402
                                      galerkin_coarse, solve_fine,
                                      solve_parabolic, solve_steady)
from graphcoarsen.experiments import build_problem, build_prolongation  # noqa: E402
from graphcoarsen.partition import oversample, partition_balanced  # noqa: E402

from run import THREAD_VARS  # noqa: E402
from spans import NullTracer, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def environment() -> dict:
    """Core count, thread settings and library versions of this process."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas}


def set_up(w, seed: int, tracer) -> dict:
    """Problem, reference solution, partition, regions and clusters."""
    with tracer.span("problems.build"):
        problem = build_problem(w.problem(seed))
    A, f = problem.operator, problem.rhs
    with tracer.span("coarsesolve.reference"):
        if w.tau is not None:
            cfg = TransientConfig(tau=w.tau, n_steps=w.n_steps)
            u_ref = solve_parabolic(problem.capacity, A, f, cfg).states[-1]
        else:
            u_ref = solve_fine(A, f)
    with tracer.span("partition.partition_balanced"):
        part0 = partition_balanced(problem.graph, w.n_subdomains, seed=seed)
    with tracer.span("partition.oversample"):
        parts = {dh: oversample(problem.graph, part0, dh) for dh in w.delta_h}
    with tracer.span("clustering.cluster_partition"):
        clusters = cluster_partition(problem.graph, part0, w.m, seed=seed)
    return {"problem": problem, "u_ref": u_ref, "part0": part0,
            "parts": parts, "clusters": clusters}


def run_row(w, method: str, s: dict, tracer, keep_P: bool = False) -> dict:
    """One error-table row: prolongation, coarse model, errors, report."""
    problem, clusters = s["problem"], s["clusters"]
    A, f, u_ref = problem.operator, problem.rhs, s["u_ref"]
    fam = method.split("-")[0]
    # run_experiments pairs localized methods with the (single) radius
    part = s["part0"] if method.endswith("-glo") else s["parts"][w.delta_h[0]]
    row = {"method": method, "family": fam, "status": "ok", "e1": None, "e2": None,
           "nnz_P": None, "nnz_Ac": None, "P": None}
    t0 = time.perf_counter()
    try:
        with tracer.span("interpolation.build", fam):
            P = build_prolongation(method, problem, clusters, part)
        row["nnz_P"] = P.matrix.nnz
        if w.tau is not None:
            cfg = TransientConfig(tau=w.tau, n_steps=w.n_steps)
            with tracer.span("coarsesolve.solve", fam):
                u_ms = solve_parabolic(problem.capacity, A, f, cfg, P=P).states[-1]
            if keep_P:  # for the Galerkin probe after the sweep
                row["P"] = P
        else:
            with tracer.span("coarsesolve.galerkin_coarse", fam):
                model = galerkin_coarse(A, f, P)
            row["nnz_Ac"] = model.operator.nnz
            with tracer.span("coarsesolve.solve", fam):
                _, u_ms = solve_steady(model)
        row["model_s"] = time.perf_counter() - t0
        with tracer.span("coarsesolve.errors", fam):
            row["e1"], row["e2"] = errors(u_ref, u_ms, A)
        with tracer.span("analysis.verify_bound", fam):
            verify_bound(problem.graph, clusters, P, A, f, u_ref, u_ms,
                         partition=part)
    except Exception as exc:  # recorded as a failed row, the sweep goes on
        row["status"] = f"error: {type(exc).__name__}: {exc}"
    row["row_s"] = time.perf_counter() - t0
    return row


def repeat_rows(w, s: dict, rows: list[dict], until: float) -> list[dict]:
    """Rows again on the same set-up while one more fits before ``until``:
    the method with the fewest rows first, then the cheapest.  A method whose
    row failed is not repeated."""
    last = {r["method"]: r["row_s"] for r in rows if r["status"] == "ok"}
    count = Counter(r["method"] for r in rows)
    extra = []
    while True:
        left = until - time.monotonic()
        fits = [m for m in last if last[m] <= left]
        if not fits:
            return extra
        method = min(fits, key=lambda m: (count[m], last[m]))
        row = run_row(w, method, s, NullTracer())
        extra.append(row)
        count[method] += 1
        if row["status"] == "ok":
            last[method] = row["row_s"]
        else:
            del last[method]


def structure(s: dict) -> dict:
    """Structural counts from the public return values of the set-up."""
    graph, part0 = s["problem"].graph, s["part0"]
    a = part0.assignment
    ij = graph.edge_index
    cut = a[ij[:, 0]] != a[ij[:, 1]]
    # without oversampling the regions are the subdomains themselves
    regions = next(iter(s["parts"].values())).oversampled if s["parts"] \
        else part0.subdomains
    sizes = np.array([len(r) for r in regions])
    cover = np.bincount(np.concatenate([r.ids for r in regions]),
                        minlength=graph.n_vertices)
    return {"problems.n": graph.n_vertices,
            "partition.edge_cut": float(np.abs(graph.edge_weight[cut]).sum()),
            "partition.region_size_max": int(sizes.max()),
            "partition.region_size_mean": float(sizes.mean()),
            "partition.overlap_max": int(cover.max()),
            "clustering.n_coarse": s["clusters"].n_coarse}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--workload-seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--rows", default="cf,mc",
                    help="families whose rows to run after the set-up ('' for none)")
    ap.add_argument("--until", type=float,
                    help="repeat the rows until this time.monotonic() reading")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    run_id = f"{w.name}-s{args.workload_seed}-{os.getpid()}"
    tracer = Tracer(run_id) if args.trace else NullTracer()

    out = {"workload": w.name, "workload_seed": args.workload_seed,
           "traced": args.trace, "run_id": run_id, "env": environment()}
    with tracer.span("sweep"):
        t0 = time.perf_counter()
        s = set_up(w, args.workload_seed, tracer)
        out["setup_s"] = time.perf_counter() - t0
        rows = [run_row(w, m, s, tracer, keep_P=args.trace) for m in w.methods
                if m.split("-")[0] in args.rows.split(",")]
        out["sweep_s"] = time.perf_counter() - t0
    # the sweep's own peak, before any repeated row
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.until is not None:
        rows += repeat_rows(w, s, rows, args.until)
    out["run_s"] = time.perf_counter() - t0

    if args.trace:
        for row in rows:
            if row["P"] is not None:  # Galerkin call made inside solve_parabolic
                with tracer.span("coarsesolve.galerkin_coarse", row["family"]):
                    model = galerkin_coarse(s["problem"].operator, s["problem"].rhs,
                                            row["P"], capacity=s["problem"].capacity)
                row["nnz_Ac"] = model.operator.nnz
        out["counts"] = structure(s)
        out["spans"] = tracer.spans
    for row in rows:
        del row["P"]
    out["rows"] = rows
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # the parent reports a run without a result as failed
        traceback.print_exc()
        sys.exit(1)
