import re

import numpy as np
import pytest

from graphcoarsen import RepairWarning, WeightedGraph, fileio, oversample
from graphcoarsen.cli import main
from graphcoarsen.coarsesolve import errors
from graphcoarsen.experiments import (ExperimentConfig, build_problem, emit_summary,
                                      parse_config, run_experiments)

TINY_CONFIG = """\
[problem]
family = fem
nx = 10
ny = 10
contrast = 1e4

[sweep]
n_subdomains = 4
m = 1 2
delta_h = 0.25
methods = cf-glo cf-loc mc-glo mc-loc
seed = 0

[output]
dir = {outdir}
"""


def write_config(tmp_path, text=TINY_CONFIG, name="cfg.ini", outdir="out"):
    path = tmp_path / name
    path.write_text(text.format(outdir=tmp_path / outdir))
    return path


class TestConfig:
    def test_parse_roundtrip(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        assert cfg.problem["family"] == "fem"
        assert cfg.n_subdomains == (4,)
        assert cfg.m_values == (1, 2)
        assert cfg.delta_h == (0.25,)
        assert cfg.methods == ("cf-glo", "cf-loc", "mc-glo", "mc-loc")

    def test_empty_methods_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            ExperimentConfig(problem={"family": "fem"}, n_subdomains=(2,),
                             m_values=(1,), delta_h=(), methods=())

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            ExperimentConfig(problem={"family": "fem"}, n_subdomains=(2,),
                             m_values=(1,), delta_h=(), methods=("xyz",))

    @pytest.mark.parametrize("old, new", [("n_subdomains = 4", "n_subdomains = 0"),
                                          ("m = 1 2", "m = 0 2")])
    def test_count_below_one_rejected_at_parse(self, tmp_path, old, new):
        text = TINY_CONFIG.replace(old, new)
        with pytest.raises(ValueError, match="n_subdomains and m take values >= 1"):
            parse_config(write_config(tmp_path, text=text))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("radius", ["-0.1", "inf", "nan"])
    def test_bad_radius_rejected_at_parse(self, tmp_path, radius):
        text = TINY_CONFIG.replace("delta_h = 0.25", f"delta_h = 0.25 {radius}")
        with pytest.raises(ValueError, match="delta_h takes finite values >= 0"):
            parse_config(write_config(tmp_path, text=text))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("old, new", [
        ("n_subdomains = 4", "n_subdomains = 4 4"),
        ("m = 1 2", "m = 1 2 1"),
        ("delta_h = 0.25", "delta_h = 0.25 0.250"),
        ("methods = cf-glo cf-loc mc-glo mc-loc", "methods = cf-glo cf-loc cf-loc"),
    ])
    def test_repeated_entry_rejected_at_parse(self, tmp_path, old, new):
        """A repeated entry would write every file of its rows twice."""
        text = TINY_CONFIG.replace(old, new)
        key = old.split(" = ")[0]
        with pytest.raises(ValueError, match=f"{key}: repeated entry"):
            parse_config(write_config(tmp_path, text=text))
        assert not (tmp_path / "out").exists()

    def test_unknown_oversample_mode_rejected_at_parse(self, tmp_path):
        text = TINY_CONFIG.replace("seed = 0\n", "seed = 0\noversample_mode = closed\n")
        with pytest.raises(ValueError, match="unknown oversample mode 'closed'"):
            parse_config(write_config(tmp_path, text=text))
        assert not (tmp_path / "out").exists()

    def test_negative_seed_rejected_at_parse(self, tmp_path):
        text = TINY_CONFIG.replace("seed = 0\n", "seed = -1\n")
        with pytest.raises(ValueError, match="seed takes values >= 0, got -1"):
            parse_config(write_config(tmp_path, text=text))
        assert not (tmp_path / "out").exists()

    def test_bad_problem_value_rejected_at_parse(self, tmp_path):
        text = TINY_CONFIG.replace("nx = 10", "nx = forty")
        with pytest.raises(ValueError, match=r"\[problem\]: nx = 'forty' is not of type int"):
            parse_config(write_config(tmp_path, text=text))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["tau", "steps"])
    def test_missing_transient_key_named(self, tmp_path, key):
        transient = "\n[transient]\ntau = 0.1\nsteps = 2\n"
        text = TINY_CONFIG + transient.replace(f"{key} = ", "# ")
        with pytest.raises(ValueError, match=rf"^\[transient\]: missing key {key}$"):
            parse_config(write_config(tmp_path, text=text))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("section, old, new", [
        ("sweep", "seed = 0", "seed = x"),
        ("sweep", "n_subdomains = 4", "n_subdomains = 4 four"),
        ("sweep", "m = 1 2", "m = 1 2.5"),
        ("sweep", "delta_h = 0.25", "delta_h = 0.25 quarter"),
        ("output", "dir = {outdir}", "dir = {outdir}\nsolutions = maybe"),
        ("output", "dir = {outdir}", "dir = {outdir}\ntrajectories = 2"),
    ])
    def test_malformed_value_named(self, tmp_path, section, old, new):
        text = TINY_CONFIG.replace(old, new)
        key = new.split("\n")[-1].split(" = ")[0]
        value = new.split(" = ")[-1]
        with pytest.raises(ValueError, match=rf"^\[{section}\]: {key} = '{value}': "):
            parse_config(write_config(tmp_path, text=text))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["solutions", "trajectories"])
    @pytest.mark.parametrize("word, value", [("yes", True), ("no", False), ("on", True),
                                             ("off", False), ("1", True), ("0", False),
                                             ("true", True), ("false", False),
                                             ("maybe", None)])
    def test_output_booleans(self, tmp_path, key, word, value):
        path = write_config(tmp_path, text=TINY_CONFIG + f"{key} = {word}\n")
        if value is None:
            with pytest.raises(ValueError, match="Not a boolean: maybe"):
                parse_config(path)
        else:
            assert getattr(parse_config(path), f"export_{key}") is value

    @pytest.mark.parametrize("label", ["chan,1e4", "chan/1e4", "chan\\1e4",
                                       "chan\n    1e4"])
    def test_label_breaking_a_file_rejected_at_parse(self, tmp_path, label):
        """A label is a CSV field and part of each row's file names."""
        text = TINY_CONFIG.replace("family = fem\n", f"family = fem\nlabel = {label}\n")
        with pytest.raises(ValueError, match="problem label"):
            parse_config(write_config(tmp_path, text=text))
        assert not (tmp_path / "out").exists()

    # in [problem], a misspelled key or one of another family would leave
    # the sweep on the family's defaults
    @pytest.mark.parametrize("section, key", [("sweep", "oversample_mod"),
                                              ("sweep", "partial_mode"),
                                              ("transient", "step"),
                                              ("output", "directory"),
                                              ("problem", "contrats"),
                                              ("problem", "k_perp"),
                                              ("problem", "network_seed"),
                                              ("problem", "graph")])
    def test_unknown_key_rejected(self, tmp_path, section, key):
        text = TINY_CONFIG + "\n[transient]\ntau = 0.1\nsteps = 2\n"
        text = text.replace(f"[{section}]\n", f"[{section}]\n{key} = x\n")
        with pytest.raises(ValueError, match=rf"\[{section}\].*{key}"):
            parse_config(write_config(tmp_path, text=text))
        assert not (tmp_path / "out").exists()

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown problem family 'femm'"):
            ExperimentConfig(problem={"family": "femm"}, n_subdomains=(2,),
                             m_values=(1,), delta_h=(), methods=("cf-glo",))

    def test_default_keys_excepted_in_problem(self, tmp_path):
        text = "[DEFAULT]\nnetwork_seed = 2\nsource = 2.0\n\n" + TINY_CONFIG
        cfg = parse_config(write_config(tmp_path, text=text))
        assert cfg.problem["source"] == "2.0"
        assert "network_seed" not in cfg.problem

    def test_rotated_background_parses_and_builds(self, tmp_path):
        text = TINY_CONFIG.replace("contrast = 1e4\n", "contrast = 1e4\nbackground = rotated\n"
                                   "d1 = 1.0\nd2 = 1e-2\ntheta = 0.5\n")
        cfg = parse_config(write_config(tmp_path, text=text))
        rotated = build_problem(cfg.problem)
        for other in ({"background": "iso"}, {"theta": "1.0"}, {"d2": "1e-3"}):
            A = build_problem({**cfg.problem, **other}).operator
            assert A.shape == rotated.operator.shape == (81, 81)
            assert abs(A - rotated.operator).max() > 0, other

    def test_local_methods_need_radius(self):
        with pytest.raises(ValueError, match="delta_h"):
            ExperimentConfig(problem={"family": "fem"}, n_subdomains=(2,),
                             m_values=(1,), delta_h=(), methods=("cf-loc",))


class TestBuildProblem:
    @staticmethod
    def _files(d, graph_side, operator_side, n_rhs):
        from graphcoarsen import assemble_signed_laplacian
        from graphcoarsen.problems import lattice_graph

        fileio.write_graph(lattice_graph(graph_side, graph_side), d / "g.txt")
        fileio.write_operator(
            assemble_signed_laplacian(lattice_graph(operator_side, operator_side)),
            d / "A.mtx")
        fileio.write_vector(np.ones(n_rhs), d / "f.txt")
        return {"family": "file", "graph": str(d / "g.txt"),
                "operator": str(d / "A.mtx"), "rhs": str(d / "f.txt")}

    def test_file_family_matching_sizes(self, tmp_path):
        problem = build_problem(self._files(tmp_path, 8, 8, 64))
        assert problem.operator.shape == (64, 64) and problem.rhs.shape == (64,)

    def test_file_operator_must_match_graph(self, tmp_path):
        with pytest.raises(ValueError, match=r"A\.mtx: operator is 49 x 49, but graph "
                                             r".*g\.txt has 64 vertices"):
            build_problem(self._files(tmp_path, 8, 7, 49))

    def test_file_rhs_must_match_operator(self, tmp_path):
        with pytest.raises(ValueError, match=r"f\.txt: rhs has 10 entries, but operator "
                                             r".*A\.mtx is 64 x 64"):
            build_problem(self._files(tmp_path, 8, 8, 10))

    @pytest.mark.parametrize("key", ["operator", "rhs"])
    def test_file_non_finite_entry_rejected(self, tmp_path, key):
        spec = self._files(tmp_path, 8, 8, 64)
        path = tmp_path / ("A.mtx" if key == "operator" else "f.txt")
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(" ", 1)[0] + " nan" if key == "operator" else "nan"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"{path.name}: .* non-finite entry"):
            build_problem(spec)

    def test_file_rhs_needs_operator(self, tmp_path):
        spec = self._files(tmp_path, 8, 8, 10)
        del spec["operator"]
        with pytest.raises(ValueError, match=r"f\.txt: an rhs file needs an operator file"):
            build_problem(spec)


class TestRun:
    def test_sweep_completes_and_is_deterministic(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        rows = run_experiments(cfg)
        assert len(rows) == 1 * 2 * 4  # N x M x methods (one radius)
        assert all(r["status"] == "ok" for r in rows)

        from dataclasses import replace

        rows2 = run_experiments(replace(cfg, outdir=tmp_path / "out2"))
        first = (tmp_path / "out" / "errors.csv").read_bytes()
        second = (tmp_path / "out2" / "errors.csv").read_bytes()
        assert first == second
        # full results agree except the timing column
        r1 = (tmp_path / "out" / "results.csv").read_text().splitlines()
        r2 = (tmp_path / "out2" / "results.csv").read_text().splitlines()
        strip = lambda ln: ",".join(
            v for c, v in zip(r1[0].split(","), ln.split(",")) if c != "runtime_ms")
        assert [strip(a) for a in r1[1:]] == [strip(b) for b in r2[1:]]

    def test_unbuildable_problem_leaves_no_output(self, tmp_path, capsys):
        """A sweep that cannot build its problem makes no output folder."""
        cfg_path = write_config(tmp_path, text=TINY_CONFIG.replace("nx = 10", "nx = 1"))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "need nx, ny >= 2" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_errors_recomputable_from_exported_vectors(self, tmp_path):
        cfg = parse_config(write_config(tmp_path))
        rows = run_experiments(cfg)
        prob = build_problem(cfg.problem)
        for row in rows[:3]:
            key = f"{row['test']}_{row['method']}_N{row['N_omega']}_M{row['M']}"
            if row["delta_H"] != "":
                key += f"_dh{row['delta_H']}"
            base = tmp_path / "out" / "solutions" / key
            u = fileio.read_vector(str(base) + "_u.txt")
            u_ms = fileio.read_vector(str(base) + "_ums.txt")
            e1, e2 = errors(u, u_ms, prob.operator)
            assert e1 == pytest.approx(float(row["e1"]), rel=1e-6)
            assert e2 == pytest.approx(float(row["e2"]), rel=1e-6)

    def test_full_rank_coarse_space_is_exact(self, tmp_path):
        cfg = ExperimentConfig(
            problem={"family": "fem", "nx": "6", "ny": "6", "contrast": "1e2"},
            n_subdomains=(4,), m_values=(9,), delta_h=(), methods=("cf-glo",),
            outdir=tmp_path / "out", export_solutions=False)
        rows = run_experiments(cfg)
        assert rows[0]["status"] == "ok"
        assert rows[0]["e1"] <= 1e-7 and rows[0]["e2"] <= 1e-7

    def test_row_failure_recorded_not_raised(self, tmp_path):
        # delta_h = 0 strands boundary-ring aggregates: mc-loc rows fail,
        # the sweep keeps going
        cfg = ExperimentConfig(
            problem={"family": "fem", "nx": "8", "ny": "8", "contrast": "1"},
            n_subdomains=(4,), m_values=(4,), delta_h=(0.0,),
            methods=("mc-loc", "cf-glo"), outdir=tmp_path / "out",
            export_solutions=False)
        rows = run_experiments(cfg)
        by_method = {r["method"]: r for r in rows}
        assert by_method["cf-glo"]["status"] == "ok"
        assert by_method["mc-loc"]["status"].startswith("error:")
        assert "," not in by_method["mc-loc"]["status"]

    def test_operator_only_workflow(self, tmp_path):
        # coordinate-free ingestion: bisection on spectral coordinates,
        # hop-based oversampling, embedding-medoid centroids
        import scipy.sparse as sp

        from graphcoarsen import WeightedGraph, apply_boundary, assemble_signed_laplacian
        from graphcoarsen.problems import lattice_graph

        base = lattice_graph(8, 8)
        g = WeightedGraph(base.n_vertices, base.edge_index, base.edge_weight,
                          robin=[(0, 1.0, 1.0), (63, 1.0, 0.0)])
        A, f = apply_boundary(assemble_signed_laplacian(g), g)
        fileio.write_graph(WeightedGraph(g.n_vertices, g.edge_index, g.edge_weight),
                           tmp_path / "g.txt")
        fileio.write_operator(A, tmp_path / "A.mtx")
        fileio.write_vector(f, tmp_path / "f.txt")

        cfg = ExperimentConfig(
            problem={"family": "file", "graph": str(tmp_path / "g.txt"),
                     "operator": str(tmp_path / "A.mtx"),
                     "rhs": str(tmp_path / "f.txt")},
            n_subdomains=(4,), m_values=(2,), delta_h=(2.0,),
            methods=("cf-glo", "mc-loc"), outdir=tmp_path / "out",
            export_solutions=False)
        rows = run_experiments(cfg)
        assert all(r["status"] == "ok" for r in rows)
        assert all(0 <= r["e1"] <= 100 for r in rows)

    def test_transient_family(self, tmp_path):
        from graphcoarsen.coarsesolve import TransientConfig

        cfg = ExperimentConfig(
            problem={"family": "pore", "nx": "12", "ny": "12"},
            n_subdomains=(4,), m_values=(2,), delta_h=(),
            methods=("mc-glo",), transient=TransientConfig(tau=5.0, n_steps=4),
            outdir=tmp_path / "out", export_solutions=False,
            export_trajectories=True)
        rows = run_experiments(cfg)
        assert rows[0]["status"] == "ok"
        assert 0 <= rows[0]["e1"] <= 100.0
        traj = (tmp_path / "out" / "pore_mc-glo_N4_M2_traj.csv").read_text()
        assert traj.splitlines()[0] == "step,time,vertex,value"
        assert len(traj.splitlines()) == 1 + 5 * 144  # header + steps x vertices


    def test_transient_reference_keeps_last_state_only(self, tmp_path, monkeypatch):
        """The fine trajectory of the reference run is freed before the first
        row is built: only its last state is kept."""
        import weakref

        from graphcoarsen import experiments
        from graphcoarsen.coarsesolve import TransientConfig

        fine, alive = [], []
        real_solve, real_build = experiments.solve_parabolic, experiments.build_prolongation

        def solve(*args, P=None):
            res = real_solve(*args, P=P)
            if P is None:
                fine.append(weakref.ref(res.states))
            return res

        def build(*args):
            alive.append(fine[0]() is not None)
            return real_build(*args)

        monkeypatch.setattr(experiments, "solve_parabolic", solve)
        monkeypatch.setattr(experiments, "build_prolongation", build)
        cfg = ExperimentConfig(
            problem={"family": "pore", "nx": "8", "ny": "8"},
            n_subdomains=(4,), m_values=(2,), delta_h=(), methods=("cf-glo", "mc-glo"),
            transient=TransientConfig(tau=5.0, n_steps=4), outdir=tmp_path / "out",
            export_solutions=False)
        rows = run_experiments(cfg)
        assert [r["status"] for r in rows] == ["ok", "ok"]
        assert len(fine) == 1 and alive == [False, False]


class TestSummary:
    def test_empty_csv(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("")
        assert emit_summary(path) == ""

    def test_single_row_table(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(
            "test,method,scope,N_omega,M,delta_H,e1,e2,n,n_c,status\n"
            "fem,cf-glo,glo,4,1,,10.5,20.25,100,4,ok\n")
        table = emit_summary(path)
        assert "test=fem" in table and "10.50" in table and "20.25" in table

    def test_duplicate_rows_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        row = "fem,cf-glo,glo,4,1,,10.0,20.0,100,4,ok\n"
        path.write_text(
            "test,method,scope,N_omega,M,delta_H,e1,e2,n,n_c,status\n" + row + row)
        with pytest.raises(ValueError, match="duplicate"):
            emit_summary(path)


    def test_field_count_mismatch_rejected(self, tmp_path):
        path = tmp_path / "errors.csv"
        path.write_text(
            "test,method,scope,N_omega,M,delta_H,e1,e2,n,n_c,status\n"
            "fem,cf-glo,glo,4,1,,10.0,20.0,100,4,ok\n\n"
            "chan,1e4,cf-glo,glo,4,1,,10.0,20.0,100,4,ok\n")
        with pytest.raises(ValueError, match=r"errors\.csv, line 4: 12 fields, the header 11"):
            emit_summary(path)


# The [problem] keys of each family that `generate` builds, but label: one
# flag each.
GENERATE_FLAGS = {
    "fem": {"nx", "ny", "source", "holes", "contrast", "band_lo", "band_hi",
            "background", "d1", "d2", "theta"},
    "aniso": {"nx", "ny", "source", "theta", "k_par", "k_perp"},
    "pore": {"nx", "ny", "source", "robin_alpha", "network_seed"},
}
FLAG_VALUES = {"nx": "6", "ny": "6", "holes": "0.5,0.5,0.1", "background": "rotated",
               "network_seed": "3"}


class TestCli:
    def test_generate_flags_are_problem_keys(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "--help"])
        flags = set(re.findall(r"--([\w-]+)", capsys.readouterr().out))
        keys = {key.replace("_", "-") for key in set().union(*GENERATE_FLAGS.values())}
        assert flags == keys | {"help", "family", "out", "operator", "rhs"}

    @pytest.mark.parametrize("key", sorted(set().union(*GENERATE_FLAGS.values())))
    def test_generate_flag_checked_against_family(self, tmp_path, capsys, key):
        size = [] if key in ("nx", "ny") else ["--nx", "6", "--ny", "6"]
        flag = ["--" + key.replace("_", "-"), FLAG_VALUES.get(key, "0.5")]
        for family, keys in GENERATE_FLAGS.items():
            code = main(["generate", "--family", family, "--out", str(tmp_path / "g.txt")]
                        + size + flag)
            err = capsys.readouterr().err
            if key in keys:
                assert code == 0, err
            else:
                assert code == 2
                assert f"unknown key(s) {key} for family '{family}'" in err

    def test_generate_rotated_tensor_flags(self, tmp_path):
        rotated = ["generate", "--family", "fem", "--nx", "8", "--ny", "8",
                   "--background", "rotated", "--out", str(tmp_path / "g.txt")]
        assert main(rotated + ["--operator", str(tmp_path / "A0.mtx")]) == 0
        assert main(rotated + ["--d1", "2", "--d2", "1e-3",
                               "--operator", str(tmp_path / "A1.mtx")]) == 0
        A0 = fileio.read_operator(tmp_path / "A0.mtx")
        A1 = fileio.read_operator(tmp_path / "A1.mtx")
        assert A0.shape == A1.shape and abs(A1 - A0).max() > 0
        expected = build_problem({"family": "fem", "nx": "8", "ny": "8",
                                  "background": "rotated", "d1": "2", "d2": "1e-3"})
        assert abs(A1 - expected.operator).max() <= 1e-14 * abs(expected.operator).max()

    def test_generate_pore_default_size(self, tmp_path):
        assert main(["generate", "--family", "pore", "--out", str(tmp_path / "g.txt")]) == 0
        graph = fileio.read_graph(tmp_path / "g.txt")
        expected = build_problem({"family": "pore"}).graph
        assert graph.n_vertices == expected.n_vertices == 64 * 64
        np.testing.assert_array_equal(graph.edge_index, expected.edge_index)

    @pytest.mark.parametrize("flag", [["--delta-h", "1"], ["--mode", "closure"]])
    def test_partition_takes_no_radius(self, tmp_path, capsys, flag):
        """The stored partition file holds only the assignment, so regions
        computed here would be discarded."""
        with pytest.raises(SystemExit) as exc:
            main(["partition", "--graph", str(tmp_path / "g.txt"), "--n", "4",
                  "--out", str(tmp_path / "part.txt")] + flag)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_pipeline_subcommands(self, tmp_path):
        d = tmp_path
        assert main(["generate", "--family", "fem", "--nx", "8", "--ny", "8",
                     "--contrast", "100", "--out", str(d / "g.txt"),
                     "--operator", str(d / "A.mtx"), "--rhs", str(d / "f.txt")]) == 0
        assert main(["partition", "--graph", str(d / "g.txt"), "--n", "4",
                     "--out", str(d / "part.txt")]) == 0
        assert main(["cluster", "--graph", str(d / "g.txt"),
                     "--partition", str(d / "part.txt"), "--m", "2",
                     "--out", str(d / "cl.txt")]) == 0
        assert main(["prolong", "--graph", str(d / "g.txt"),
                     "--operator", str(d / "A.mtx"), "--rhs", str(d / "f.txt"),
                     "--partition", str(d / "part.txt"),
                     "--clusters", str(d / "cl.txt"), "--method", "mc-glo",
                     "--out", str(d / "P.mtx")]) == 0
        assert main(["solve", "--graph", str(d / "g.txt"),
                     "--operator", str(d / "A.mtx"), "--rhs", str(d / "f.txt"),
                     "--prolongation", str(d / "P.mtx"),
                     "--out-u", str(d / "u.txt"),
                     "--out-ums", str(d / "ums.txt")]) == 0
        u = fileio.read_vector(d / "u.txt")
        ums = fileio.read_vector(d / "ums.txt")
        assert u.shape == ums.shape

    def test_run_and_report(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path)
        assert main(["run", "--config", str(cfg_path)]) == 0
        out = capsys.readouterr().out
        assert "8 rows" in out
        assert main(["report", "--csv", str(tmp_path / "out" / "errors.csv"),
                     "--out", str(tmp_path / "table.txt")]) == 0
        assert "test=fem" in (tmp_path / "table.txt").read_text()

    def test_run_exit_code_on_row_failure(self, tmp_path):
        text = TINY_CONFIG.replace("delta_h = 0.25", "delta_h = 0.0")
        cfg_path = write_config(tmp_path, text=text)
        assert main(["run", "--config", str(cfg_path)]) == 1

    def test_run_rejects_unknown_problem_key(self, tmp_path, capsys):
        text = TINY_CONFIG.replace("contrast = 1e4\n", "contrats = 1e2\nk_perp = 5\n")
        cfg_path = write_config(tmp_path, text=text)
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "unknown key(s) contrats, k_perp for family 'fem'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_run_help_names_every_key(self, capsys):
        from graphcoarsen.experiments import CONFIG_KEYS, PROBLEM_KEYS

        with pytest.raises(SystemExit):
            main(["run", "--help"])
        words = set(re.findall(r"\w+", capsys.readouterr().out))
        for keys in (*CONFIG_KEYS.values(), *PROBLEM_KEYS.values()):
            assert set(keys) <= words, sorted(set(keys) - words)

    def test_bad_input_exit_code(self, tmp_path):
        assert main(["report", "--csv", str(tmp_path / "missing.csv")]) == 2

    def test_rhs_without_operator_exit_code(self, tmp_path, capsys):
        d = tmp_path
        assert main(["generate", "--family", "pore", "--nx", "2", "--ny", "2",
                     "--out", str(d / "pore.txt")]) == 0
        fileio.write_vector(np.ones(10), d / "f.txt")
        assert main(["solve", "--graph", str(d / "pore.txt"), "--rhs", str(d / "f.txt")]) == 2
        assert "f.txt: an rhs file needs an operator file" in capsys.readouterr().err

    def test_pore_generate_roundtrip(self, tmp_path):
        d = tmp_path
        assert main(["generate", "--family", "pore", "--nx", "10", "--ny", "10",
                     "--out", str(d / "pore.txt")]) == 0
        g = fileio.read_graph(d / "pore.txt")
        assert g.capacity is not None and g.robin
        # operator-free solve path assembles boundary-augmented system
        assert main(["solve", "--graph", str(d / "pore.txt"),
                     "--out-u", str(d / "u.txt")]) == 0

    @pytest.mark.parametrize("side, n_sub", [(8, 4), (12, 9)])
    def test_localized_prolong_on_coordinate_free_graph(self, tmp_path, capsys, side,
                                                        n_sub):
        d = tmp_path
        assert main(["generate", "--family", "pore", "--nx", str(side), "--ny", str(side),
                     "--out", str(d / "pore.txt")]) == 0
        g = fileio.read_graph(d / "pore.txt")
        bare = WeightedGraph(g.n_vertices, g.edge_index, g.edge_weight,
                             capacity=g.capacity, robin=g.robin)
        fileio.write_graph(bare, d / "bare.txt")
        assert main(["partition", "--graph", str(d / "bare.txt"), "--n", str(n_sub),
                     "--out", str(d / "part.txt")]) == 0
        with pytest.warns(RepairWarning, match="embedding medoid"):
            assert main(["cluster", "--graph", str(d / "bare.txt"),
                         "--partition", str(d / "part.txt"), "--m", "2",
                         "--out", str(d / "cl.txt")]) == 0
        prolong = ["prolong", "--graph", str(d / "bare.txt"),
                   "--partition", str(d / "part.txt"), "--clusters", str(d / "cl.txt"),
                   "--method", "mc-loc", "--out", str(d / "P.mtx")]
        assert main(prolong + ["--delta-h", "1"]) == 0
        P = fileio.read_prolongation(d / "P.mtx").matrix.tocsc()
        clusters = fileio.read_clusters(d / "cl.txt", bare.n_vertices)
        part = oversample(bare, fileio.read_partition(d / "part.txt", bare.n_vertices), 1)
        assert P.shape == (bare.n_vertices, clusters.n_coarse)
        for c, (k, _) in enumerate(clusters.columns):
            rows = P.indices[P.indptr[c]:P.indptr[c + 1]]
            assert rows.size and np.all(np.isin(rows, part.oversampled[k].ids))
        capsys.readouterr()
        assert main(prolong + ["--delta-h", "1.5"]) == 2
        assert "delta_h = 1.5 is not a hop count" in capsys.readouterr().err
