import json
import os

import numpy as np
import pytest

from jointspec.cli import main
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
