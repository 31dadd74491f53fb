"""Pipeline benchmark: times set-up, the error-table sweep and each coarse
model on fixed workloads, and gates every row's e1/e2 against recorded
reference values.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-reference --workload NAME

Each sweep runs in a fresh process (``sweep.py``) with one BLAS/OpenMP
thread, so ``peak_rss_mb`` is that sweep's own peak.  With ``--trace 0``
sweeps repeat until ``--seconds`` is spent, each process running its rows
again on its set-up while its share of the time lasts, and the end-to-end
metrics are medians over them; set-up processes fill what is left, so that
``setup_s`` is a median of several set-ups.  With ``--trace 1`` one
untraced and one traced sweep run, the spans go to
``perfbench/traces/<run id>.jsonl`` and the per-layer metrics are printed.
The last line of standard output is one JSON object; the exit code is
nonzero when a row raised or missed its reference.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import HELD_OUT, ROTATION, WORKLOADS  # noqa: E402

THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_TIMEOUT_S = 120
# e1/e2 must agree with the recorded values to 10 significant digits
REL_TOL = 1e-10
MIN_COVERAGE = 0.95
FAMILIES = ("cf", "mc")

END_TO_END = {"setup_s": "s", "sweep_s": "s", "model_cf_s": "s",
              "model_mc_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric -> unit.  Span "layer.op" (family tag t) gives "layer.op_s[.t]".
PER_LAYER = {
    "problems.build_s": "s", "problems.n": "vertices",
    "partition.partition_balanced_s": "s", "partition.oversample_s": "s",
    "partition.edge_cut": "weight", "partition.region_size_max": "vertices",
    "partition.region_size_mean": "vertices", "partition.overlap_max": "count",
    "clustering.cluster_partition_s": "s", "clustering.n_coarse": "count",
    "coarsesolve.reference_s": "s",
    **{f"{name}.{fam}": unit for fam in FAMILIES for name, unit in (
        ("interpolation.build_s", "s"), ("interpolation.nnz_P", "count"),
        ("coarsesolve.galerkin_coarse_s", "s"), ("coarsesolve.solve_s", "s"),
        ("coarsesolve.errors_s", "s"), ("coarsesolve.nnz_Ac", "count"),
        ("analysis.verify_bound_s", "s"), ("interpolation.repair_warnings", "count"))},
    **{f"{layer}.repair_warnings": "count" for layer in (
        "problems", "partition", "clustering", "coarsesolve", "analysis")},
    "trace.overhead_s": "s", "trace.coverage": "ratio", "rows_failed_ratio": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no package, no reference)."""


def reference_path(workload: str) -> Path:
    return HERE / "reference" / f"{workload}.json"


def load_reference(workload: str) -> dict:
    path = reference_path(workload)
    if not path.is_file():
        raise BenchError(f"no reference values at {path}")
    with open(path) as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({v: THREADS for v in THREAD_VARS})
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(workload: str, seed: int, trace: bool = False,
              rows: tuple[str, ...] = FAMILIES, until: float | None = None) -> dict:
    """One sweep (or set-up plus some rows) in a fresh interpreter; with
    ``until`` (a ``time.monotonic()`` reading) its rows then repeat."""
    cmd = [sys.executable, str(HERE / "sweep.py"), "--workload", workload,
           "--workload-seed", str(seed), "--rows", ",".join(rows)]
    cmd += ["--trace"] * trace
    cmd += ["--until", repr(until)] if until is not None else []
    t = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, text=True)
    if proc.returncode != 0:
        raise BenchError(f"sweep process exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.perf_counter() - t
    return out


def gate(rows: list[dict], expected: dict | None) -> dict[str, str]:
    """Failure reason per method; empty when every row matches its reference."""
    if expected is None:
        return {r["method"]: "no reference value for this workload seed" for r in rows}
    failed = {}
    for row in rows:
        ref = expected.get(row["method"])
        if row["status"] != "ok":
            failed[row["method"]] = row["status"]
        elif ref is None:
            failed[row["method"]] = "no reference value for this method"
        else:
            for key in ("e1", "e2"):
                if not abs(row[key] - ref[key]) <= REL_TOL * abs(ref[key]):
                    failed[row["method"]] = (f"{key} = {row[key]!r} differs from the "
                                             f"reference {ref[key]!r}")
    for method in set(expected) - {r["method"] for r in rows}:
        failed[method] = "row missing"
    return failed


def describe_env(env: dict) -> str:
    threads = ",".join(f"{k}={v}" for k, v in env["threads"].items())
    return (f"env: nproc={env['nproc']} {threads} python {env['python']} "
            f"numpy {env['numpy']} scipy {env['scipy']} blas {env['blas']}")


def family_value(child: dict, family: str, key: str):
    return next((r.get(key) for r in child["rows"] if r["family"] == family), None)


def measure(w, seed: int, seconds: float, expected) -> tuple[dict, list, dict]:
    """Untraced processes within ``seconds``.

    While a full sweep still fits, a process runs one with an equal share of
    the time left and then repeats its rows on the same set-up until that
    share is spent; the first process takes half of ``seconds``.  Then one
    process runs the set-up plus whichever rows still fit, cheapest first,
    and repeats them until the end (the set-up alone while it fits).
    """
    deadline = time.monotonic() + seconds
    children, failed = [], {}

    def run(rows, until):
        child = run_child(w.name, seed, rows=rows, until=until)
        child["full"] = set(rows) == set(FAMILIES)
        children.append(child)
        wanted = expected and {m: v for m, v in expected.items()
                               if m.split("-")[0] in rows}
        failed.update({f"process {len(children)} {m}": why
                       for m, why in gate(child["rows"], wanted).items()})
        print(f"process {len(children)}: set-up {child['setup_s']:.3f} s, "
              + ", ".join(f"{r['method']} {r['row_s']:.3f} s {r['status']}"
                          for r in child["rows"])
              + f", rss {child['peak_rss_mb']:.1f} MB")
        return child

    first = run(FAMILIES, time.monotonic() + seconds / 2)
    row_s = {r["family"]: r["row_s"] for r in first["rows"][:len(FAMILIES)]}
    overhead = first["wall_s"] - first["run_s"]  # interpreter start and exit
    sweep_wall = overhead + first["sweep_s"]
    setup_wall = overhead + first["setup_s"]
    while True:
        now = time.monotonic()
        left = deadline - now
        if left >= sweep_wall:
            run(FAMILIES, now + left / int(left // sweep_wall) - overhead)
            continue
        left -= setup_wall
        if left < 0:
            break
        rows = []
        for fam in sorted(row_s, key=row_s.get):
            if row_s[fam] <= left:
                rows.append(fam)
                left -= row_s[fam]
        run(tuple(rows), deadline - overhead)

    sweeps = [c for c in children if c["full"]]
    med = statistics.median
    metrics = {"setup_s": med(c["setup_s"] for c in children),
               "sweep_s": med(c["sweep_s"] for c in sweeps),
               "peak_rss_mb": med(c["peak_rss_mb"] for c in sweeps)}
    for fam in FAMILIES:
        # a failed row (the run then fails) counts its time up to the failure
        metrics[f"model_{fam}_s"] = med(r.get("model_s", r["row_s"]) for c in children
                                        for r in c["rows"] if r["family"] == fam)
    n_rows = {fam: sum(r["family"] == fam for c in children for r in c["rows"])
              for fam in FAMILIES}
    print(f"{len(sweeps)} full sweep(s), {len(children)} processes, rows "
          + ", ".join(f"{fam} x{n}" for fam, n in n_rows.items()))
    return {k: metrics[k] for k in END_TO_END}, children, failed


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Children of one span never overlap (the pipeline is sequential), so
    their durations add.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def trace_metrics(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics from the spans and counts of a traced sweep."""
    spans = traced["spans"]
    own = self_times(spans)
    m = {name: 0 for name in PER_LAYER}
    for s, t in zip(spans, own):
        if s["name"] == "sweep":
            continue
        layer, op = s["name"].split(".")
        tag = f".{s['tag']}" if s["tag"] else ""
        m[f"{layer}.{op}_s{tag}"] += t
        m[f"{layer}.repair_warnings" + (tag if layer == "interpolation" else "")] += \
            sum(s["repair_warnings"].values())
    m.update(traced["counts"])
    for fam in FAMILIES:
        # a row that failed before its matrix existed counts 0 (the run fails)
        m[f"interpolation.nnz_P.{fam}"] = family_value(traced, fam, "nnz_P") or 0
        m[f"coarsesolve.nnz_Ac.{fam}"] = family_value(traced, fam, "nnz_Ac") or 0
    root = next(s for s in spans if s["name"] == "sweep")
    m["trace.overhead_s"] = traced["sweep_s"] - untraced["sweep_s"]
    m["trace.coverage"] = 1.0 - own[root["id"]] / (root["end"] - root["start"])
    return m


def write_trace(traced: dict, metrics: dict) -> Path:
    """All spans of the run, written once at its end."""
    out = HERE / "traces"
    out.mkdir(exist_ok=True)
    path = out / f"{traced['run_id']}.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps({"run": traced["run_id"], "env": traced["env"],
                             "metrics": metrics}) + "\n")
        for s in traced["spans"]:
            fh.write(json.dumps(s) + "\n")
    return path


def bench(args) -> int:
    if not (ROOT / "src" / "graphcoarsen" / "__init__.py").is_file():
        raise BenchError(f"no graphcoarsen package under {ROOT / 'src'}")
    w = WORKLOADS[args.workload]
    seed = HELD_OUT if args.held_out else ROTATION[args.seed % len(ROTATION)]
    expected = load_reference(w.name).get(str(seed))
    print(f"perfbench {w.name}: --seed {args.seed} -> workload seed {seed}, "
          f"trace {args.trace}, {args.seconds} s")

    checks = []  # failures that are not rows: a run without a usable trace
    if args.trace:
        # the machine drifts over minutes: alternate which sweep goes first
        order = (False, True) if args.seed % 2 == 0 else (True, False)
        runs = {t: run_child(w.name, seed, trace=t) for t in order}
        untraced, traced = runs[False], runs[True]
        children = [untraced, traced]
        failed = {f"{c['run_id']} {m}": why for c in children
                  for m, why in gate(c["rows"], expected).items()}
        metrics = trace_metrics(traced, untraced)
        if metrics["trace.coverage"] < MIN_COVERAGE:
            checks.append(f"layer spans cover {metrics['trace.coverage']:.4f} of the "
                          f"traced sweep, below {MIN_COVERAGE}")
        for s in traced["spans"]:
            for kind, count in s["repair_warnings"].items():
                print(f"RepairWarning in {s['name']}"
                      f"{'.' + s['tag'] if s['tag'] else ''}: {count} x '{kind}'")
        units = PER_LAYER
    else:
        metrics, children, failed = measure(w, seed, args.seconds, expected)
        units = END_TO_END

    attempted = sum(len(c["rows"]) for c in children)
    ratio = len(failed) / attempted
    if args.trace:
        metrics["rows_failed_ratio"] = ratio
        print(f"spans written to {write_trace(traced, metrics).relative_to(ROOT)}")
    print(describe_env(children[0]["env"]))
    for why in [f"{k}: {v}" for k, v in sorted(failed.items())] + checks:
        print(f"FAILED {why}")
    for name, value in metrics.items():
        print(f"{name} = {value} {units[name]}")
    if not args.trace:
        print(f"rows_failed_ratio = {ratio} ratio")
    print(f"rows: {attempted} attempted, {len(failed)} failed")
    correct = not failed and not checks
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failed),
                      "metrics": {k: {"value": metrics[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0 if correct else 1


def record(args) -> int:
    """Run each seed once and store its rows' e1/e2 as the reference."""
    w = WORKLOADS[args.workload]
    ref = {}
    for seed in (*ROTATION, HELD_OUT):
        child = run_child(w.name, seed)
        bad = [r for r in child["rows"] if r["status"] != "ok"]
        if bad:
            raise BenchError(f"seed {seed}: {bad}")
        ref[str(seed)] = {r["method"]: {"e1": r["e1"], "e2": r["e2"]}
                          for r in child["rows"]}
        print(f"seed {seed}: {ref[str(seed)]}", flush=True)
    path = reference_path(w.name)
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


def self_test() -> int:
    """The gate passes the recorded values and trips on a tampered one."""
    name, seed = "pore-transient-64", str(ROTATION[0])
    expected = load_reference(name)[seed]
    exact = [{"method": m, "status": "ok", **v} for m, v in expected.items()]
    close = [{**r, "e1": r["e1"] * (1 + 1e-12)} for r in exact]
    method = exact[0]["method"]
    tampered = {**expected, method: {**expected[method],
                                     "e2": expected[method]["e2"] * (1 + 1e-9)}}
    child = run_child(name, int(seed))
    checks = {
        "recorded values pass": not gate(exact, expected),
        "a change in the 12th digit passes": not gate(close, expected),
        "a tampered reference (9th digit) trips the gate": bool(gate(exact, tampered)),
        "a failed row trips the gate": bool(gate(
            [{**exact[0], "status": "error: X"}] + exact[1:], expected)),
        "a missing row trips the gate": bool(gate(exact[1:], expected)),
        "a live sweep matches its reference": not gate(child["rows"], expected),
        "a live sweep against the tampered reference trips the gate":
            set(gate(child["rows"], tampered)) == {method},
    }
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    checks["BENCHMARK.json lists the workloads and metrics printed here"] = (
        {x["name"]: x["why"] for x in spec["workloads"]}
        == {w.name: w.why for w in WORKLOADS.values()}
        and {x["name"]: x["unit"] for x in spec["end_to_end"]} == END_TO_END
        and {x["name"]: x["unit"] for x in spec["per_layer"]} == PER_LAYER)
    for what, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}: {what}")
    return 0 if all(checks.values()) else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true",
                    help="run the held-out workload seed instead of --seed")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        return record(args) if args.record_reference else bench(args)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
