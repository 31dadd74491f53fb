"""Experiment harness: build a test problem, sweep coarsening parameters,
and emit error tables.

A sweep is described by a key = value config file (see
:func:`parse_config`); every (subdomain count, basis count, method, radius)
combination appends one CSV row.  Two CSV files are written: the full
record including wall-clock timings, and a timing-free table whose bytes
are reproducible run to run.
"""

from __future__ import annotations

import configparser
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fileio
from .analysis import verify_bound
from .clustering import ClusterSet, cluster_partition
from .coarsesolve import (TransientConfig, errors, galerkin_coarse,
                          solve_fine, solve_parabolic, solve_steady)
from .graph import (WeightedGraph, apply_boundary, assemble_signed_laplacian,
                    eliminate_dirichlet, subgraph)
from .interpolation import (Prolongation, cf_ideal_global, cf_ideal_local,
                            mc_global, mc_local)
from .partition import OVERSAMPLE_MODES, oversample, partition_balanced
from .problems import (PoreNetworkSpec, TensorField, box_boundary_vertices,
                       channel_endpoints, channel_field, gen_aniso_heat,
                       gen_fem_grid, gen_pore_network)

__all__ = [
    "Problem",
    "ExperimentConfig",
    "parse_config",
    "build_problem",
    "run_experiments",
    "emit_summary",
    "METHODS",
    "RESULT_FIELDS",
]

METHODS = ("cf-glo", "cf-loc", "mc-glo", "mc-loc")

RESULT_FIELDS = ("test", "method", "scope", "N_omega", "M", "delta_H",
                 "e1", "e2", "n", "n_c", "runtime_ms", "status")

#: Keys accepted in each fixed-schema config section.
CONFIG_KEYS = {
    "sweep": {"n_subdomains", "m", "delta_h", "methods", "seed", "oversample_mode"},
    "transient": {"tau", "steps"},
    "output": {"dir", "solutions", "trajectories"},
}

#: The ``[problem]`` keys of each family, with their defaults: the one
#: declaration of the problem schema.  The file family's paths have none.
PROBLEM_KEYS = {family: {"family": family, "label": family, **keys} for family, keys in {
    "fem": {"nx": 40, "ny": 40, "source": 1.0, "holes": "", "contrast": 1e4,
            "band_lo": 0.45, "band_hi": 0.55, "background": "iso", "d1": 1.0,
            "d2": 1e-4, "theta": np.pi / 3},
    "aniso": {"nx": 40, "ny": 40, "source": 1.0, "theta": np.pi / 6, "k_par": 1.0,
              "k_perp": 1e-3},
    "pore": {"nx": 64, "ny": 64, "source": 1.0, "robin_alpha": 1.0, "network_seed": 0},
    "file": {"graph": None, "operator": None, "rhs": None},
}.items()}


def problem_params(p: dict) -> dict:
    """Lay a ``[problem]`` section over its family's defaults, each value given
    converted to its default's type; an unknown family or key is an error."""
    family = p.get("family", "fem")
    if family not in PROBLEM_KEYS:
        raise ValueError(f"unknown problem family '{family}'")
    defaults = PROBLEM_KEYS[family]
    unknown = sorted(set(p) - set(defaults))
    if unknown:
        raise ValueError(f"[problem]: unknown key(s) {', '.join(unknown)} "
                         f"for family '{family}'")
    params = dict(defaults)
    for key, value in p.items():
        try:
            params[key] = value if defaults[key] is None else type(defaults[key])(value)
        except (TypeError, ValueError):
            raise ValueError(f"[problem]: {key} = {value!r} is not of type "
                             f"{type(defaults[key]).__name__}") from None
    return params


@dataclass(frozen=True)
class Problem:
    """A ready-to-coarsen system: graph aligned with the operator."""

    label: str
    graph: WeightedGraph
    operator: object
    rhs: np.ndarray
    capacity: np.ndarray | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    problem: dict
    n_subdomains: tuple[int, ...]
    m_values: tuple[int, ...]
    delta_h: tuple[float, ...]
    methods: tuple[str, ...]
    seed: int = 0
    oversample_mode: str = "vertex"
    transient: TransientConfig | None = None
    outdir: Path = Path("out")
    export_solutions: bool = True
    export_trajectories: bool = False

    def __post_init__(self):
        if not self.n_subdomains or not self.m_values or not self.methods:
            raise ValueError("subdomain, basis and method lists must be nonempty")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method '{m}' (choose from {METHODS})")
        for key, values in (("n_subdomains", self.n_subdomains), ("m", self.m_values),
                            ("delta_h", self.delta_h), ("methods", self.methods)):
            if len(set(values)) != len(values):
                raise ValueError(f"{key}: repeated entry in {' '.join(map(str, values))}")
        if min(self.n_subdomains + self.m_values) < 1:
            raise ValueError("n_subdomains and m take values >= 1")
        if self.seed < 0:
            raise ValueError(f"seed takes values >= 0, got {self.seed}")
        if not all(0 <= dh < np.inf for dh in self.delta_h):
            raise ValueError(f"delta_h takes finite values >= 0, got {self.delta_h}")
        if self.oversample_mode not in OVERSAMPLE_MODES:
            raise ValueError(f"unknown oversample mode '{self.oversample_mode}' "
                             f"(choose from {OVERSAMPLE_MODES})")
        # the label is a CSV field and a part of every report and solution
        # file name
        label = problem_params(self.problem)["label"]
        if any(c in label for c in ",/\\\n\r"):
            raise ValueError(f"problem label {label!r} holds a comma, a slash, "
                             "a backslash or a line break")
        if any(m.endswith("-loc") for m in self.methods) and not self.delta_h:
            raise ValueError("localized methods need at least one delta_h value")
        object.__setattr__(self, "outdir", Path(self.outdir))


def parse_config(path) -> ExperimentConfig:
    """Read the key = value sections of an experiment config file."""
    cp = configparser.ConfigParser(converters={
        "ints": lambda text: tuple(int(x) for x in text.split()),
        "floats": lambda text: tuple(float(x) for x in text.split())})
    with open(path) as fh:
        cp.read_file(fh)
    if "problem" not in cp or "sweep" not in cp:
        raise ValueError("config needs [problem] and [sweep] sections")
    for section, allowed in CONFIG_KEYS.items():
        if section in cp:
            unknown = sorted(set(cp[section]) - allowed - set(cp.defaults()))
            if unknown:
                raise ValueError(f"[{section}]: unknown key(s) {', '.join(unknown)}")
    # a DEFAULT key reaches every section; [problem] keeps those its family reads
    family = cp["problem"].get("family", "fem")
    problem = {key: value for key, value in cp["problem"].items()
               if key not in cp.defaults() or key in PROBLEM_KEYS.get(family, ())}

    def get(read, section, key, **fallback):
        # one of configparser's getters, naming the key it misses or the
        # value it rejects
        try:
            return read(section, key, **fallback)
        except configparser.NoOptionError:
            raise ValueError(f"[{section}]: missing key {key}") from None
        except ValueError as exc:
            raise ValueError(f"[{section}]: {key} = {cp.get(section, key)!r}: {exc}") from None

    sweep = cp["sweep"]
    transient = None
    if "transient" in cp:
        transient = TransientConfig(tau=get(cp.getfloat, "transient", "tau"),
                                    n_steps=get(cp.getint, "transient", "steps"))
    return ExperimentConfig(
        problem=problem,
        n_subdomains=get(cp.getints, "sweep", "n_subdomains", fallback=()),
        m_values=get(cp.getints, "sweep", "m", fallback=()),
        delta_h=get(cp.getfloats, "sweep", "delta_h", fallback=()),
        methods=tuple(sweep.get("methods", "").split()),
        seed=get(cp.getint, "sweep", "seed", fallback=ExperimentConfig.seed),
        oversample_mode=sweep.get("oversample_mode", ExperimentConfig.oversample_mode),
        transient=transient,
        outdir=Path(cp.get("output", "dir", fallback=ExperimentConfig.outdir)),
        export_solutions=get(cp.getboolean, "output", "solutions",
                             fallback=ExperimentConfig.export_solutions),
        export_trajectories=get(cp.getboolean, "output", "trajectories",
                                fallback=ExperimentConfig.export_trajectories),
    )


def _fem_field(p: dict):
    contrast, band = p["contrast"], (p["band_lo"], p["band_hi"])
    if p["background"] == "iso":
        return channel_field(1.0, contrast, band)
    if p["background"] == "rotated":
        base = TensorField.rotated(p["d1"], p["d2"], p["theta"])

        def f(points):
            K = base(points)
            in_band = (points[:, 1] >= band[0]) & (points[:, 1] <= band[1])
            K[in_band] = contrast * np.eye(2)
            return K

        return f
    raise ValueError(f"unknown background '{p['background']}'")


def _parse_holes(spec: str):
    holes = []
    for part in spec.split(";"):
        part = part.strip()
        if part:
            cx, cy, r = (float(x) for x in part.split(","))
            holes.append((cx, cy, r))
    return holes


def build_problem(p: dict) -> Problem:
    """Construct the fine system for a problem section."""
    p = problem_params(p)
    family, label = p["family"], p["label"]
    if family in ("fem", "aniso"):
        if family == "fem":
            graph, A, f = gen_fem_grid(p["nx"], p["ny"], _fem_field(p),
                                       source=p["source"], holes=_parse_holes(p["holes"]))
        else:
            b = (np.cos(p["theta"]), np.sin(p["theta"]))
            graph, A, f = gen_aniso_heat(p["nx"], p["ny"], p["k_par"], p["k_perp"], b,
                                         source=p["source"])
        dirichlet = [(int(v), 0.0) for v in box_boundary_vertices(graph.coords)]
        A_int, f_int, reduction = eliminate_dirichlet(A, f, dirichlet)
        g_int, _ = subgraph(graph, reduction.free.ids)
        return Problem(label, g_int, A_int, f_int)

    if family == "pore":
        spec = PoreNetworkSpec(nx=p["nx"], ny=p["ny"], robin_alpha=p["robin_alpha"])
        graph = gen_pore_network(spec, seed=p["network_seed"])
        L = assemble_signed_laplacian(graph)
        A, f = apply_boundary(L, graph)
        left, _ = channel_endpoints(spec)
        f = f.copy()
        f[left] += p["source"]
        return Problem(label, graph, A, f, capacity=graph.capacity)

    if p["graph"] is None:
        raise ValueError("[problem]: family 'file' needs graph = path")
    graph = fileio.read_graph(p["graph"])
    if p["operator"] is None:
        if p["rhs"] is not None:
            raise ValueError(f"{p['rhs']}: an rhs file needs an operator file; without "
                             f"one the rhs is assembled from graph {p['graph']}")
        A, f = apply_boundary(assemble_signed_laplacian(graph), graph)
        if graph.dirichlet:
            A, f, reduction = eliminate_dirichlet(A, f, graph.dirichlet)
            graph, _ = subgraph(graph, reduction.free.ids)
    else:
        A = fileio.read_operator(p["operator"])
        n, m = graph.n_vertices, A.shape[0]
        if m != n:
            raise ValueError(f"{p['operator']}: operator is {m} x {m}, "
                             f"but graph {p['graph']} has {n} vertices")
        f = fileio.read_vector(p["rhs"]) if p["rhs"] is not None else np.zeros(n)
        if f.shape != (n,):
            raise ValueError(f"{p['rhs']}: rhs has {f.size} entries, "
                             f"but operator {p['operator']} is {n} x {n}")
    return Problem(label, graph, A, f, capacity=graph.capacity)


def build_prolongation(method: str, problem: Problem, clusters: ClusterSet,
                       part) -> Prolongation:
    A = problem.operator
    if method == "cf-glo":
        return cf_ideal_global(A, clusters)
    if method == "cf-loc":
        return cf_ideal_local(A, clusters, part)
    if method == "mc-glo":
        return mc_global(A, clusters)
    if method == "mc-loc":
        return mc_local(A, clusters, part)
    raise ValueError(f"unknown method '{method}'")


def _fmt(x) -> str:
    if x is None or x == "":
        return ""
    if isinstance(x, float):
        return f"{x:.10g}"
    return str(x)


def _row_key(row: dict) -> str:
    key = f"{row['test']}_{row['method']}_N{row['N_omega']}_M{row['M']}"
    if row["delta_H"] != "":
        key += f"_dh{row['delta_H']}"
    return key


def run_experiments(config: ExperimentConfig) -> list[dict]:
    """Run the sweep; returns the result rows and writes all artifacts.

    Per-row failures are recorded in the status column and do not stop the
    sweep.  ``results.csv`` carries timings; ``errors.csv`` carries the
    same rows without the timing column and reproduces byte-identically.
    """
    problem = build_problem(config.problem)
    graph, A, f = problem.graph, problem.operator, problem.rhs
    n = graph.n_vertices

    if config.transient is not None:
        if problem.capacity is None:
            raise ValueError("transient runs need per-vertex capacities")
        # a copy, so that the fine trajectory is freed before the rows run
        u_ref = solve_parabolic(problem.capacity, A, f, config.transient).states[-1].copy()
    else:
        u_ref = solve_fine(A, f)

    # only a sweep that can run leaves an output folder
    outdir = config.outdir
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "reports").mkdir(exist_ok=True)
    if config.export_solutions:
        (outdir / "solutions").mkdir(exist_ok=True)

    rows: list[dict] = []
    for N in config.n_subdomains:
        part0 = partition_balanced(graph, N, seed=config.seed)
        parts = {dh: oversample(graph, part0, dh, mode=config.oversample_mode)
                 for dh in config.delta_h}
        for M in config.m_values:
            clusters = cluster_partition(graph, part0, M, seed=config.seed)
            for method in config.methods:
                scopes = [None] if method.endswith("-glo") else list(config.delta_h)
                for dh in scopes:
                    row = {
                        "test": problem.label, "method": method,
                        "scope": "glo" if dh is None else "loc",
                        "N_omega": N, "M": M,
                        "delta_H": "" if dh is None else dh,
                        "e1": "", "e2": "", "n": n, "n_c": clusters.n_coarse,
                        "runtime_ms": 0.0, "status": "ok",
                    }
                    t0 = time.perf_counter()
                    try:
                        part = part0 if dh is None else parts[dh]
                        P = build_prolongation(method, problem, clusters, part)
                        if config.transient is not None:
                            res = solve_parabolic(problem.capacity, A, f,
                                                  config.transient, P=P)
                            u_ms = res.states[-1]
                            if config.export_trajectories:
                                fileio.write_trajectory(
                                    res.times, res.states,
                                    outdir / (_row_key(row) + "_traj.csv"))
                        else:
                            model = galerkin_coarse(A, f, P)
                            _, u_ms = solve_steady(model)
                        e1, e2 = errors(u_ref, u_ms, A)
                        row["e1"], row["e2"] = e1, e2
                        if graph.coords is not None:  # reports need geometry
                            report = verify_bound(graph, clusters, P, A, f,
                                                  u_ref, u_ms, partition=part)
                            report.to_csv(outdir / "reports" / (_row_key(row) + ".csv"))
                        if config.export_solutions:
                            base = outdir / "solutions" / _row_key(row)
                            fileio.write_vector(u_ref, str(base) + "_u.txt")
                            fileio.write_vector(u_ms, str(base) + "_ums.txt")
                    except Exception as exc:  # recorded, sweep continues
                        row["status"] = (
                            f"error: {type(exc).__name__}: {exc}".replace(",", ";")
                        )
                    row["runtime_ms"] = 1000.0 * (time.perf_counter() - t0)
                    rows.append(row)

    _write_csv(rows, outdir / "results.csv", RESULT_FIELDS)
    deterministic = tuple(c for c in RESULT_FIELDS if c != "runtime_ms")
    _write_csv(rows, outdir / "errors.csv", deterministic)
    return rows


def _write_csv(rows, path, fields) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(fields) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in fields) + "\n")


def _read_csv(path) -> list[dict]:
    with open(path) as fh:
        lines = [(i, ln.rstrip("\n").split(",")) for i, ln in enumerate(fh, 1) if ln.strip()]
    if not lines:
        return []
    header = lines[0][1]
    for i, fields in lines[1:]:
        if len(fields) != len(header):
            raise ValueError(f"{path}, line {i}: {len(fields)} fields, the header "
                             f"{len(header)}")
    return [dict(zip(header, fields)) for _, fields in lines[1:]]


def emit_summary(csv_path) -> str:
    """Pivot a results CSV into per-(test, N) tables: rows (M, scope),
    columns method x norm.  Duplicate keys are an error."""
    rows = _read_csv(csv_path)
    if not rows:
        return ""
    cells: dict = {}
    groups: dict = {}
    for row in rows:
        scope = row["scope"] + (f"({row['delta_H']})" if row["delta_H"] else "")
        kind = row["method"].split("-")[0]
        key = (row["test"], row["N_omega"], row["M"], scope, kind)
        if key in cells:
            raise ValueError(f"duplicate result row for {key}")
        cells[key] = row
        groups.setdefault((row["test"], row["N_omega"]), []).append((row["M"], scope))

    out = []
    for (test, N), labels in groups.items():
        seen = []
        for lab in labels:
            if lab not in seen:
                seen.append(lab)
        out.append(f"test={test}  N_omega={N}")
        header = f"{'M':>4} {'scope':>10} | {'CF e1':>10} {'CF e2':>10} | {'MC e1':>10} {'MC e2':>10}"
        out.append(header)
        out.append("-" * len(header))
        for M, scope in seen:
            vals = []
            for kind in ("cf", "mc"):
                row = cells.get((test, N, M, scope, kind))
                if row is None:
                    vals += ["-", "-"]
                elif row["status"] != "ok":
                    vals += ["err", "err"]
                else:
                    vals += [f"{float(row['e1']):.2f}", f"{float(row['e2']):.2f}"]
            out.append(f"{M:>4} {scope:>10} | {vals[0]:>10} {vals[1]:>10} "
                       f"| {vals[2]:>10} {vals[3]:>10}")
        out.append("")
    return "\n".join(out)
