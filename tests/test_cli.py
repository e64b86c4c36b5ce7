import json
import os

import numpy as np
import pytest

from jointspec.cli import _atomic_write, main
from jointspec.clifford import build_clifford
from jointspec.composites import clifford_gap, quadratic_gap
from jointspec.models import build_chern2d, build_ssh, write_matrix_file
from jointspec.sweep import GridSpec, sweep_grid


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 2


def test_unknown_subcommand(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 2


def test_examples_listing(capsys):
    code, out, _ = run(capsys, "examples")
    assert code == 0
    for name in ("pauli_pair", "ssh", "chern2d"):
        assert name in out
    code, out, _ = run(capsys, "examples", "--json")
    names = {entry["name"] for entry in json.loads(out)}
    assert "class_d_7" in names


def test_gap_command_values(capsys):
    code, out, _ = run(capsys, "gap", "--model", "pauli_pair",
                       "--lambda", "0,0")
    assert code == 0
    assert "mu_q=1.41421356237" in out
    assert "mu_c=0" in out
    assert "commutator_bound=2" in out


def test_gap_command_checks_the_commutator_bound(capsys, monkeypatch):
    import jointspec.composites as composites

    monkeypatch.setattr(composites, "commutator_bound", lambda t: 0.0)
    code, _, err = run(capsys, "gap", "--model", "ssh", "--lambda", "3,0.2")
    assert code == 3
    assert "commutator bound violated" in err


@pytest.mark.parametrize("params", [
    ["nX=6", "ny=6"],           # unknown name
    ["nx=6", "ny=6", "A=nan"],  # not finite
    ["nx=6", "ny=six"],         # not a number
])
def test_gap_rejects_bad_params(capsys, params):
    argv = ["gap", "--model", "chern2d", "--lambda", "0,0,0"]
    for p in params:
        argv += ["--param", p]
    code, _, err = run(capsys, *argv)
    assert code == 2 and "error:" in err


def test_gap_rejects_params_of_an_example(capsys):
    code, _, err = run(capsys, "gap", "--model", "pauli_pair",
                       "--param", "v=3", "--lambda", "0,0")
    assert code == 2
    assert "unexpected parameters" in err


def test_gap_with_params_prints_the_known_line(capsys):
    code, out, _ = run(capsys, "gap", "--model", "chern2d", "--param", "nx=6",
                       "--param", "ny=6", "--lambda", "0,0,0")
    assert code == 0
    assert out.startswith("gap lambda=(0,0,0) mu_q=1.67320051014 "
                          "mu_c=0.561659359864 commutator_bound=3.74514119732 ")


def test_gap_single_kind_json(capsys, tmp_path):
    out_path = tmp_path / "gap.json"
    code, _, _ = run(capsys, "gap", "--model", "ssh", "--lambda", "4,0",
                     "--kind", "quadratic", "--json-out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert "mu_q" in doc and "mu_c" not in doc
    assert doc["mu_q"] > 0


def test_bad_model_exit_code(capsys):
    code, _, err = run(capsys, "gap", "--model", "nonsense", "--lambda", "0,0")
    assert code == 2
    assert "unknown model kind" in err


def test_bad_probe_exit_code(capsys):
    code, _, _ = run(capsys, "gap", "--model", "pauli_pair",
                     "--lambda", "zero,zero")
    assert code == 2


def test_sweep_rejects_y_on_a_model_without_a_y_axis(capsys):
    # SSH's second coordinate is E: y must not sweep it
    code, _, err = run(capsys, "sweep", "--model", "ssh",
                       "--grid", "x=0:9:4,y=-1:1:3")
    assert code == 2
    assert "unknown grid axis 'y'" in err


def test_sweep_rejects_e_on_a_model_without_an_e_axis(capsys):
    # pauli_pair's axes are x and y: E must not sweep y
    code, _, err = run(capsys, "sweep", "--model", "pauli_pair",
                       "--grid", "x=-1:1:3,E=-1:1:3", "--kind", "quadratic")
    assert code == 2
    assert "unknown grid axis 'E'" in err


def explicit_pair_config(tmp_path):
    write_matrix_file(tmp_path / "x.txt", np.diag([1.0, -1.0]))
    write_matrix_file(tmp_path / "y.txt", np.array([[0, 1.0], [1.0, 0]]))
    cfg = tmp_path / "model.txt"
    cfg.write_text(f"kind = explicit\nmatrix_file = {tmp_path / 'x.txt'}\n"
                   f"matrix_file = {tmp_path / 'y.txt'}\n")
    return ["--model-config", str(cfg)]


@pytest.mark.parametrize("model,grid,label", [
    (["--model", "ssh"], "x=0:9:3,E=-1:1:3", "x=0:9:3;E=-1:1:3"),
    (["--model", "chern2d", "--param", "nx=4", "--param", "ny=4"],
     "x=-1:1:3,y=-1:1:3", "x=-1:1:3;y=-1:1:3"),
    (["--model", "chern2d", "--param", "nx=4", "--param", "ny=4"],
     "x=-1:1:3,E=-1:1:3", "x=-1:1:3;E=-1:1:3"),
    (None, "x=-1:1:3,y=-1:1:3", "x1=-1:1:3;x2=-1:1:3"),
])
def test_sweep_grid_names_follow_the_model_axes(capsys, tmp_path, model,
                                                grid, label):
    csv = tmp_path / "g.csv"
    model = model or explicit_pair_config(tmp_path)
    code, _, _ = run(capsys, "sweep", *model, "--grid", grid,
                     "--kind", "quadratic", "--csv-out", str(csv))
    assert code == 0
    assert csv.read_text().splitlines()[0].split(",")[1] == label


def test_sweep_json_out(capsys, tmp_path):
    out_json = tmp_path / "g.json"
    code, _, _ = run(capsys, "sweep", "--model", "ssh", "--grid",
                     "x=0:9:4,E=-1:1:3", "--kind", "clifford", "--json-out",
                     str(out_json))
    assert code == 0
    doc = json.loads(out_json.read_text())
    ref = sweep_grid(build_ssh(), GridSpec(axes=((0.0, 9.0, 4),
                                                 (-1.0, 1.0, 3))), "clifford")
    assert doc["axis_names"] == ["x", "E"]
    assert doc["values"] == ref.values.tolist()


def test_atomic_write_cleans_up_when_the_writer_raises(tmp_path):
    target = tmp_path / "g.csv"

    def writer(path):
        with open(path, "w") as fh:
            fh.write("partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _atomic_write(str(target), writer)
    assert list(tmp_path.iterdir()) == []


def test_sweep_outputs_and_determinism(capsys, tmp_path):
    args = ["sweep", "--model", "ssh", "--grid", "x=0:9:11,E=-3:3:11",
            "--kind", "clifford"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code1, out, _ = run(capsys, *args, "--csv-out", str(a), "--workers", "1")
    code2, _, _ = run(capsys, *args, "--csv-out", str(b), "--workers", "3")
    assert code1 == code2 == 0
    assert a.read_bytes() == b.read_bytes()
    assert "min=" in out and "argmin=" in out


def test_sweep_pgm_and_epsilon(capsys, tmp_path):
    pgm = tmp_path / "map.pgm"
    code, out, _ = run(capsys, "sweep", "--model", "pauli_pair",
                       "--grid", "x=-2:2:9,y=-2:2:9", "--kind", "quadratic",
                       "--epsilon", "1.05", "--pgm-out", str(pgm))
    assert code == 0
    assert pgm.read_text().startswith("P2\n")
    assert "sublevel epsilon=1.05" in out


def test_pgm_of_a_1d_grid_is_refused_before_any_cell(capsys, tmp_path,
                                                      monkeypatch):
    from jointspec import sweep

    calls = []
    monkeypatch.setattr(sweep, "gap_values",
                        lambda *args, **kwargs: calls.append(args))
    code, out, err = run(capsys, "sweep", "--model", "ssh", "--grid",
                         "x=0:9:5", "--kind", "quadratic",
                         "--csv-out", str(tmp_path / "a.csv"),
                         "--pgm-out", str(tmp_path / "a.pgm"))
    assert code == 2 and "PGM preview requires a 2D grid" in err
    assert out == "" and calls == [] and list(tmp_path.iterdir()) == []


def test_outputs_honour_the_umask(capsys, tmp_path):
    old = os.umask(0o022)
    try:
        code, _, _ = run(capsys, "sweep", "--model", "pauli_pair", "--grid",
                         "x=-1:1:3,y=-1:1:3", "--csv-out",
                         str(tmp_path / "g.csv"), "--pgm-out",
                         str(tmp_path / "g.pgm"))
    finally:
        os.umask(old)
    assert code == 0
    assert {p.name: p.stat().st_mode & 0o777 for p in tmp_path.iterdir()} == {
        "g.csv": 0o644, "g.pgm": 0o644}


def test_flow_command(capsys, tmp_path):
    csv = tmp_path / "flow.csv"
    code, out, _ = run(capsys, "flow", "--model", "ssh-path",
                       "--lambda", "4,0", "--operator", "reduced",
                       "--samples", "11", "--csv-out", str(csv))
    assert code == 0
    assert csv.read_text().startswith("t,eig_1")
    assert "reduced_localizer" in out


def test_states_command(capsys, tmp_path):
    out_json = tmp_path / "state.json"
    code, out, _ = run(capsys, "states", "--model", "ssh", "--lambda", "1,0",
                       "--json-out", str(out_json))
    assert code == 0
    assert "mu_q=" in out
    assert json.loads(out_json.read_text())["kappa"] == 1.0


def test_truncate_command(capsys):
    code, out, _ = run(capsys, "truncate", "--model", "chern2d",
                       "--lambda", "0,0,0", "--rho", "8", "--full")
    assert code == 0
    assert "full mu_q=" in out and "truncated rho=8" in out


def test_model_config_file(capsys, tmp_path):
    cfg = tmp_path / "model.txt"
    cfg.write_text("kind = ssh\nn_cells = 2\nv = 1.0\nw = 1.0\n")
    code, out, _ = run(capsys, "gap", "--model-config", str(cfg),
                       "--lambda", "2,0", "--kind", "quadratic")
    assert code == 0
    assert "mu_q=" in out


def test_json_model_config_with_unknown_key_exits_2(capsys, tmp_path):
    cfg = tmp_path / "model.json"
    cfg.write_text(json.dumps({"kind": "ssh", "parameter": {"n_cells": 2}}))
    code, _, err = run(capsys, "gap", "--model-config", str(cfg),
                       "--lambda", "2,0", "--kind", "quadratic")
    assert code == 2 and "'parameter'" in err


def test_explicit_model_from_matrix_files(capsys, tmp_path):
    write_matrix_file(tmp_path / "x.txt", np.diag([1.0, -1.0]))
    write_matrix_file(tmp_path / "y.txt", np.array([[0, 1.0], [1.0, 0]]))
    cfg = tmp_path / "model.txt"
    cfg.write_text(f"kind = explicit\nmatrix_file = {tmp_path / 'x.txt'}\n"
                   f"matrix_file = {tmp_path / 'y.txt'}\n")
    code, out, _ = run(capsys, "gap", "--model-config", str(cfg),
                       "--lambda", "0,0", "--kind", "quadratic")
    assert code == 0
    assert "mu_q=1.41421" in out


def test_matrix_file_with_a_repeated_entry_exits_2(capsys, tmp_path):
    # (0, 0) twice and (0, 1) missing: the later value must not displace
    # the earlier one and leave (0, 1) to read 0
    (tmp_path / "x.txt").write_text("2\n0 0 1 0\n0 0 2 0\n1 0 0 0\n1 1 3 0\n")
    cfg = tmp_path / "model.txt"
    cfg.write_text(f"kind = explicit\nmatrix_file = {tmp_path / 'x.txt'}\n")
    code, out, err = run(capsys, "gap", "--model-config", str(cfg),
                         "--lambda", "0", "--kind", "quadratic")
    assert code == 2 and not out
    assert "entry (0,0) given twice" in err


def test_run_recipe(capsys, tmp_path):
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps({
        "command": "sweep",
        "arguments": {"model": "ssh", "grid": "x=0:9:5,E=-3:3:5",
                      "kind": "quadratic",
                      "csv_out": str(tmp_path / "out.csv")}}))
    code, out, _ = run(capsys, "run", str(recipe))
    assert code == 0
    assert (tmp_path / "out.csv").exists()


def test_run_recipe_bad_command(capsys, tmp_path):
    recipe = tmp_path / "recipe.json"
    recipe.write_text(json.dumps({"command": "launch_missiles"}))
    code, _, _ = run(capsys, "run", str(recipe))
    assert code == 2


def test_shipped_recipes_are_wellformed():
    here = os.path.join(os.path.dirname(__file__), "..", "recipes")
    names = sorted(os.listdir(here))
    assert len(names) >= 8
    for name in names:
        with open(os.path.join(here, name)) as fh:
            doc = json.load(fh)
        assert doc["command"] in ("gap", "sweep", "flow", "states", "truncate")
        assert "description" in doc


def test_atomic_write_leaves_no_temp(tmp_path, capsys):
    target = tmp_path / "g.csv"
    code, _, _ = run(capsys, "sweep", "--model", "pauli_pair",
                     "--grid", "x=-1:1:3,y=-1:1:3", "--kind", "quadratic",
                     "--csv-out", str(target))
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv"]


def test_sweep_with_no_finite_cell_is_numerical_failure(capsys, monkeypatch):
    def failing(stack):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    code, _, err = run(capsys, "sweep", "--model", "ssh",
                       "--grid", "x=0:9:4,E=-1:1:3")
    assert code == 3
    assert "numerical failure" in err


@pytest.mark.parametrize("ladder", [[], ["--kappas", "0.5,1"]])
def test_states_builds_the_model_once(capsys, monkeypatch, ladder):
    from jointspec.models import LatticeModelSpec

    builds = []
    build = LatticeModelSpec.build

    def counting(self):
        builds.append(self.kind)
        return build(self)

    monkeypatch.setattr(LatticeModelSpec, "build", counting)
    code, out, _ = run(capsys, "states", "--model", "ssh", "--lambda", "1,0",
                       *ladder)
    assert code == 0 and out.count("mu_q=") == max(1, len(ladder))
    assert builds == ["ssh"]


def test_states_ladder_overrides_kappa(capsys):
    args = ("states", "--model", "ssh", "--lambda", "3,0", "--kappas", "1")
    code, plain, _ = run(capsys, *args)
    assert code == 0 and "kappa=1 " in plain
    code, with_kappa, _ = run(capsys, *args, "--kappa", "2")
    assert code == 0 and with_kappa == plain


def test_kappa_probe_units_of_gap_and_states(capsys, tmp_path):
    # gap reads --lambda in kappa-scaled units and states unscaled: at
    # kappa = 0.5 the probe 1.5 of gap is the probe 3 of states
    model = ("--model", "chern2d", "--param", "nx=12", "--param", "ny=12",
             "--kappa", "0.5")
    gap, state = tmp_path / "gap.json", tmp_path / "state.json"
    code, _, _ = run(capsys, "gap", *model, "--lambda", "1.5,0,0",
                     "--kind", "quadratic", "--json-out", str(gap))
    assert code == 0
    code, _, _ = run(capsys, "states", *model, "--lambda", "3,0,0",
                     "--json-out", str(state))
    assert code == 0
    assert json.loads(state.read_text())["mu_q"] == pytest.approx(
        json.loads(gap.read_text())["mu_q"], rel=1e-12, abs=0)


def test_gap_clifford_kind_json(capsys, tmp_path):
    out_path = tmp_path / "gap.json"
    code, out, _ = run(capsys, "gap", "--model", "ssh", "--lambda", "3,0.2",
                       "--kind", "clifford", "--json-out", str(out_path))
    assert code == 0 and "mu_c=" in out and "mu_q=" not in out
    doc = json.loads(out_path.read_text())
    assert "mu_q" not in doc
    assert doc["mu_c"] == clifford_gap(build_ssh(), [3.0, 0.2],
                                       build_clifford(2))


def test_sweep_fixed_coordinates(capsys, tmp_path):
    csv = tmp_path / "slice.csv"
    code, _, _ = run(capsys, "sweep", "--model", "chern2d", "--param", "nx=4",
                     "--param", "ny=4", "--grid", "x=-1:1:3,y=-1:1:3",
                     "--fixed", "2=0.3", "--kind", "quadratic",
                     "--csv-out", str(csv))
    assert code == 0
    spec = GridSpec(axes=((-1.0, 1.0, 3), (-1.0, 1.0, 3)),
                    fixed_coords={2: 0.3})
    ref = sweep_grid(build_chern2d(4, 4), spec, "quadratic")
    rows = csv.read_text().splitlines()[1:]
    assert [float(r.rsplit(",", 1)[1]) for r in rows] == ref.values.ravel().tolist()


def test_states_ladder_json_per_kappa_and_sites_csv(capsys, tmp_path):
    out_json, sites = tmp_path / "state.json", tmp_path / "sites.csv"
    code, _, _ = run(capsys, "states", "--model", "chern2d", "--param", "nx=6",
                     "--param", "ny=5", "--lambda", "2.5,0,0",
                     "--kappas", "0.5,0.25", "--json-out", str(out_json),
                     "--sites-csv-out", str(sites))
    assert code == 0 and not out_json.exists()
    docs = [json.loads((tmp_path / f"state_kappa{k}.json").read_text())
            for k in ("0.5", "0.25")]
    assert [doc["kappa"] for doc in docs] == [0.5, 0.25]
    lines = sites.read_text().splitlines()
    assert lines[0] == "# site_probability,kappa=0.25"
    probs = np.array(docs[1]["site_probabilities"]).reshape(5, 6)
    assert lines[1:] == [f"{ix},{iy},{probs[iy, ix]:.17g}"
                         for iy in range(5) for ix in range(6)]


@pytest.mark.parametrize("full", [True, False])
def test_run_recipe_list_and_bool_arguments(capsys, tmp_path, full):
    out_json, recipe = tmp_path / "ladder.json", tmp_path / "recipe.json"
    recipe.write_text(json.dumps({
        "command": "truncate",
        "arguments": {"model": "ssh", "param": ["n_cells=30", "w=1.4"],
                      "lambda": "30.3,0", "rho": "3,6", "full": full,
                      "json_out": str(out_json)}}))
    code, out, _ = run(capsys, "run", str(recipe))
    assert code == 0 and ("full mu_q=" in out) == full
    doc = json.loads(out_json.read_text())
    mu_full = quadratic_gap(build_ssh(30), [30.3, 0.0]) if full else None
    assert doc["mu_full"] == mu_full
    assert [rung["rho"] for rung in doc["ladder"]] == [3.0, 6.0]


@pytest.mark.parametrize("kappa", ["nan", "inf", "0", "-1"])
def test_kappa_must_be_positive_and_finite(capsys, kappa):
    for argv in (["gap", "--model", "ssh", "--lambda", "3,0", "--kappa",
                  kappa],
                 ["states", "--model", "ssh", "--lambda", "3,0", "--kappas",
                  kappa]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "kappa must be positive and finite" in err


CHERN4 = ["--model", "chern2d", "--param", "nx=4", "--param", "ny=4"]


@pytest.mark.parametrize("model,keys", [
    (CHERN4, ["E", "2"]),
    (None, ["x2", "y", "1"]),
])
def test_sweep_fixed_by_name_alias_or_index(capsys, tmp_path, model, keys):
    model = model or explicit_pair_config(tmp_path)
    grid = "x=-1:1:3,y=-1:1:3" if model is CHERN4 else "x=-1:1:5"
    written = []
    for n, key in enumerate(keys):
        csv = tmp_path / f"f{n}.csv"
        code, _, _ = run(capsys, "sweep", *model, "--grid", grid,
                         "--fixed", f"{key}=0.5", "--kind", "quadratic",
                         "--csv-out", str(csv))
        assert code == 0
        written.append(csv.read_bytes())
    assert written == [written[0]] * len(keys)
    if model is CHERN4:
        spec = GridSpec(axes=((-1.0, 1.0, 3), (-1.0, 1.0, 3)),
                        fixed_coords={2: 0.5})
        ref = sweep_grid(build_chern2d(4, 4), spec, "quadratic")
        rows = written[0].decode().splitlines()[1:]
        assert ([float(r.rsplit(",", 1)[1]) for r in rows]
                == ref.values.ravel().tolist())


@pytest.mark.parametrize("grid,fixed,message", [
    ("x=-1:1:3,x=-1:1:3", None, "coordinate 'x' is given twice"),
    ("x=-1:1:3,0=-1:1:3", None, "coordinate 'x' is given twice"),
    ("x=-1:1:3", "E=0.1,2=0.2", "coordinate 'E' is given twice"),
    ("x=-1:1:3,y=-1:1:3", "y=0.5", "coordinate 'y' is both swept and fixed"),
    # index 0 is x: it must not quietly sweep y in x's place
    ("x=-1:1:3,E=-1:1:3", "0=0.5", "coordinate 'x' is both swept and fixed"),
    # the positional min:max:count form is gone
    ("0.5:1:3,-1:1:3", None, "unknown grid axis '0.5:1:3'"),
])
def test_sweep_refuses_coordinates_it_cannot_place(capsys, grid, fixed,
                                                   message):
    argv = ["sweep", *CHERN4, "--grid", grid, "--kind", "quadratic"]
    code, _, err = run(capsys, *argv, *(["--fixed", fixed] if fixed else []))
    assert code == 2 and message in err


@pytest.mark.parametrize("grid,fixed,message", [
    ("x=0:9:3", "E", "bad --fixed entry 'E'; expected name=value"),
    ("x", None, "bad --grid entry 'x'; expected name=min:max:count"),
])
def test_sweep_entry_without_value_names_flag_and_entry(capsys, tmp_path,
                                                        grid, fixed, message):
    argv = ["sweep", "--model", "ssh", "--grid", grid, "--kind", "quadratic",
            "--csv-out", str(tmp_path / "out.csv")]
    code, _, err = run(capsys, *argv, *(["--fixed", fixed] if fixed else []))
    assert code == 2 and message in err
    assert not (tmp_path / "out.csv").exists()


def test_states_refuses_a_tuple_that_is_not_positions_then_h(capsys, tmp_path):
    for name, m in (("x", np.diag([1.0, 2.0, 3.0])),
                    ("y", np.array([[0, 1.0, 0], [1.0, 0, 1.0], [0, 1.0, 0]])),
                    ("h", np.diag([0.5, -0.5, 0.2]))):
        write_matrix_file(tmp_path / f"{name}.txt", m)
    cfg = tmp_path / "model.txt"
    cfg.write_text("kind = explicit\ncommuting_prefix = 1\n" + "".join(
        f"matrix_file = {tmp_path / name}.txt\n" for name in "xyh"))
    code, _, err = run(capsys, "states", "--model-config", str(cfg),
                       "--lambda", "1,0,0")
    assert code == 2 and "followed by one Hamiltonian" in err


RECIPES = os.path.join(os.path.dirname(__file__), "..", "recipes")


@pytest.mark.parametrize("name", [
    "ssh_clifford_map", "ssh_quadratic_map", "pauli_pair_maps",
    "ssh_path_localizer_flow", "ssh_path_quadratic_flow",
    "ssh_path_reduced_flow", "chern_edge_state_kappas"])
def test_fast_recipe_runs_end_to_end(capsys, tmp_path, monkeypatch, name):
    recipe = os.path.abspath(os.path.join(RECIPES, f"{name}.json"))
    with open(recipe) as fh:
        args = json.load(fh)["arguments"]
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(capsys, "run", recipe)
    assert code == 0
    declared = [v for k, v in args.items() if k.endswith("_out")]
    kappas = args.get("kappas", "").split(",")
    if len(kappas) > 1:  # a ladder writes one JSON per kappa
        base, ext = os.path.splitext(args["json_out"])
        declared = [f"{base}_kappa{k}{ext}" for k in kappas]
    assert sorted(os.listdir(tmp_path)) == sorted(declared)
    for path in declared:
        assert os.path.getsize(path) > 0
