"""One constructor per model input, and the thresholds that read a sweep or
a ball: the example table, the shared config reader, the kappa = 1 scaled
tuple, an epsilon-set above its pruning threshold and NaN thresholds."""

import json

import numpy as np
import pytest

from jointspec import composites
from jointspec.cli import main
from jointspec.composites import gap_values
from jointspec.errors import (DimensionMismatch, ModelConfigError,
                              ParameterOutOfRange)
from jointspec.models import (EXAMPLE_NAMES, LatticeModelSpec, ScaledTuple,
                              build_chern2d, build_example, build_ssh,
                              write_matrix_file)
from jointspec.states import extract_state
from jointspec.sweep import GridSpec, epsilon_mask, model_fingerprint, sweep_grid
from jointspec.truncation import compress_to_ball, shift_to_origin

SSH = build_ssh(4, 0.7, 1.4)
SSH_SPEC = GridSpec(axes=((0.0, 9.0, 31), (-2.0, 2.0, 31)))

#: sha256 model fingerprints and meta of the example pairs, as they were
#: before the examples became one table
EXAMPLE_PINS = {
    "pauli_pair": ("6449a9fae634967bdc58a727457034cb3b81e7b5c9408e5f06b5b2446da1794e",
                   {"kind": "pauli_pair", "axis_names": ("x", "y")}),
    "pair_3x3": ("908e477fcbeb4b09d7896d5334006852165e4fa5791544152b31f05b18cbfc60",
                 {"kind": "pair_3x3", "axis_names": ("x", "y")}),
    "pair_4x4": ("5883af47fbb89d11d3953ace9138205aaf8c4da18834caf686a1dbdbae8fbead",
                 {"kind": "pair_4x4", "axis_names": ("x", "y")}),
    "class_d_7": ("3ddd0f2878b0bd3859da0b626c037713ff4a196cdf62753332d605a75b58aa91",
                  {"kind": "class_d_7", "axis_names": ("x", "E")}),
}


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


# ---------------------------------------------------------------------------
# the example table


@pytest.mark.parametrize("name", EXAMPLE_NAMES)
def test_example_fingerprint_and_meta_are_pinned(name):
    # pins: the table builds the bytes the four builders built
    t = build_example(name)
    fingerprint, meta = EXAMPLE_PINS[name]
    assert model_fingerprint(t) == fingerprint
    assert t.meta == meta
    assert t.commuting_prefix == 1


def test_examples_do_not_share_storage_with_the_table():
    # pins: a built example owns its matrices
    a = build_example("pair_4x4")
    a.ops[0].mat[0, 0] = 99.0
    assert model_fingerprint(build_example("pair_4x4")) == EXAMPLE_PINS["pair_4x4"][0]


# ---------------------------------------------------------------------------
# one config reader


@pytest.fixture
def matrix_files(tmp_path):
    paths = [tmp_path / "x.txt", tmp_path / "y.txt"]
    write_matrix_file(paths[0], np.diag([1.0, -1.0]))
    write_matrix_file(paths[1], np.array([[0, 1.0], [1.0, 0]]))
    return [str(p) for p in paths]


def _configs(matrix_files):
    """(text, JSON) configs that give an explicit-only key to a built-in kind."""
    files = "".join(f"matrix_file = {f}\n" for f in matrix_files)
    return [
        (f"kind = ssh\n{files}", {"kind": "ssh", "matrix_files": matrix_files}),
        ("kind = chern2d\nnx = 4\nny = 4\ncommuting_prefix = 2\n",
         {"kind": "chern2d", "parameters": {"nx": 4, "ny": 4},
          "commuting_prefix": 2}),
        ("kind = ssh\ncommuting_prefix = 1\n",
         {"kind": "ssh", "commuting_prefix": 1}),
    ]


def test_explicit_only_keys_are_refused_on_built_in_kinds(matrix_files):
    for text, doc in _configs(matrix_files):
        with pytest.raises(ModelConfigError, match="explicit models only"):
            LatticeModelSpec.from_text(text)
        with pytest.raises(ModelConfigError, match="explicit models only"):
            LatticeModelSpec.from_json(json.dumps(doc))


@pytest.mark.parametrize("case", range(3))
@pytest.mark.parametrize("fmt", ["txt", "json"])
def test_cli_refuses_explicit_only_keys_on_built_in_kinds(capsys, tmp_path,
                                                          matrix_files, case, fmt):
    text, doc = _configs(matrix_files)[case]
    cfg = tmp_path / f"model.{fmt}"
    cfg.write_text(text if fmt == "txt" else json.dumps(doc))
    out = tmp_path / "gap.json"
    lam = "1,0" if doc["kind"] == "ssh" else "1,0,0"
    code, err = run(capsys, "gap", "--model-config", str(cfg), "--lambda", lam,
                    "--json-out", str(out))
    assert code == 2
    assert "explicit models only" in err
    assert not out.exists()


def test_text_and_json_configs_build_the_same_explicit_model(matrix_files):
    # pins: both formats reach one reader
    text = "kind = explicit\ncommuting_prefix = 1\n" + "".join(
        f"matrix_file = {f}\n" for f in matrix_files)
    doc = {"kind": "explicit", "matrix_files": matrix_files, "commuting_prefix": 1}
    a = LatticeModelSpec.from_text(text).build()
    b = LatticeModelSpec.from_json(json.dumps(doc)).build()
    assert model_fingerprint(a) == model_fingerprint(b)
    assert a.meta == b.meta == {"kind": "explicit", "axis_names": ("x1", "x2")}


def test_a_json_config_without_a_kind_is_refused():
    with pytest.raises(ModelConfigError, match="missing a 'kind'"):
        LatticeModelSpec.from_json(json.dumps({"parameters": {"v": 0.7}}))


#: config documents of the wrong shape, with the word each refusal names
WRONG_SHAPES = [
    (5, "object"),
    (None, "object"),
    ({"kind": ["ssh"]}, "'kind'"),
    ({"kind": "ssh", "parameters": 5}, "'parameters'"),
    ({"kind": "ssh", "parameters": "v"}, "'parameters'"),
    ({"kind": "explicit", "matrix_files": 5}, "'matrix_files'"),
    ({"kind": "explicit", "matrix_files": [5]}, "'matrix_files'"),
    ({"kind": "explicit", "commuting_prefix": None}, "'commuting_prefix'"),
    ({"kind": "explicit", "commuting_prefix": [1]}, "'commuting_prefix'"),
    ({"kind": "explicit", "commuting_prefix": 1.7}, "'commuting_prefix'"),
    ({"kind": "explicit", "commuting_prefix": True}, "'commuting_prefix'"),
]


@pytest.mark.parametrize("doc,word", WRONG_SHAPES)
def test_a_config_of_the_wrong_shape_is_refused(capsys, tmp_path, doc, word):
    with pytest.raises(ModelConfigError, match=word):
        LatticeModelSpec.from_json(json.dumps(doc))
    cfg = tmp_path / "n.json"
    cfg.write_text(json.dumps(doc))
    code, err = run(capsys, "gap", "--model-config", str(cfg), "--lambda", "1,0")
    assert code == 2
    assert word in err


def test_a_text_config_with_a_non_integer_prefix_is_refused():
    with pytest.raises(ModelConfigError, match="'commuting_prefix'"):
        LatticeModelSpec.from_text("kind = explicit\ncommuting_prefix = 1.7\n")


# ---------------------------------------------------------------------------
# kappa = 1 is the base tuple


def test_unit_scale_builds_the_base_tuple():
    t = build_chern2d(4, 4)
    assert ScaledTuple(t, 1.0).build() is t
    assert ScaledTuple(t, 0.5).build() is not t


def test_extract_state_reads_a_plain_tuple_as_unit_scale(monkeypatch, tmp_path):
    builds = []
    build = composites._quadratic_pencil

    def spy(*args, **kwargs):
        builds.append(1)
        return build(*args, **kwargs)

    monkeypatch.setattr(composites, "_quadratic_pencil", spy)
    t = build_chern2d(12, 12)
    lam = [3.5, 0.0, 0.2]
    plain = extract_state(t, lam)
    wrapped = extract_state(ScaledTuple(t, 1.0), lam)
    assert len(builds) == 1
    plain.to_json(tmp_path / "plain.json")
    wrapped.to_json(tmp_path / "wrapped.json")
    assert (tmp_path / "plain.json").read_bytes() == \
        (tmp_path / "wrapped.json").read_bytes()
    assert plain.mu_q == wrapped.mu_q and plain.kappa == wrapped.kappa == 1.0


# ---------------------------------------------------------------------------
# thresholds


def test_epsilon_above_the_pruning_threshold_is_refused():
    grid = sweep_grid(SSH, SSH_SPEC, "clifford", pruning=0.1)
    assert grid.skipped_mask.any()
    with pytest.raises(ParameterOutOfRange, match="pruning threshold"):
        epsilon_mask(grid, 0.5)


def test_epsilon_at_the_pruning_threshold_equals_the_unpruned_mask():
    # pins: an epsilon equal to the threshold was and stays exact
    full = sweep_grid(SSH, SSH_SPEC, "clifford")
    for eps in (0.1, 0.5):
        pruned = sweep_grid(SSH, SSH_SPEC, "clifford", pruning=eps)
        assert np.array_equal(epsilon_mask(pruned, eps), epsilon_mask(full, eps))
        assert np.array_equal(epsilon_mask(pruned, eps / 2),
                              epsilon_mask(full, eps / 2))


def test_nan_thresholds_are_refused():
    spec = GridSpec(axes=((0.0, 9.0, 5), (-1.0, 1.0, 5)))
    with pytest.raises(ParameterOutOfRange, match="pruning threshold must be >= 0"):
        sweep_grid(SSH, spec, "clifford", pruning=float("nan"))
    grid = sweep_grid(SSH, spec, "clifford")
    with pytest.raises(ParameterOutOfRange, match="epsilon must be >= 0"):
        epsilon_mask(grid, float("nan"))
    shifted = shift_to_origin(SSH, [4.0, 0.0])
    with pytest.raises(ParameterOutOfRange, match="rho must be positive"):
        compress_to_ball(shifted, float("nan"))


@pytest.mark.parametrize("argv", [
    ["--prune", "0.1", "--epsilon", "0.5"],
    ["--prune", "nan"],
    ["--prune", "nan", "--epsilon", "0.3"],
    ["--epsilon", "nan"],
])
def test_sweep_cli_refuses_a_bad_threshold(capsys, tmp_path, argv):
    out = tmp_path / "out.csv"
    code, err = run(capsys, "sweep", "--model", "ssh", "--grid",
                    "x=0:9:5,E=-1:1:5", *argv, "--csv-out", str(out))
    assert code == 2
    assert "error:" in err
    assert not out.exists()


def test_sweep_cli_keeps_an_epsilon_at_the_pruning_threshold(capsys, tmp_path):
    # pins: the benchmark's eps-set runs at --prune 0.3 --epsilon 0.3
    out = tmp_path / "out.csv"
    code = main(["sweep", "--model", "ssh", "--grid", "x=0:9:31,E=-2:2:31",
                 "--prune", "0.3", "--epsilon", "0.3", "--csv-out", str(out)])
    pruned = capsys.readouterr().out.splitlines()[-1]
    assert code == 0 and out.exists()
    main(["sweep", "--model", "ssh", "--grid", "x=0:9:31,E=-2:2:31",
          "--epsilon", "0.3"])
    assert pruned == capsys.readouterr().out.splitlines()[-1]


def test_truncate_cli_refuses_a_nan_radius(capsys, tmp_path):
    out = tmp_path / "trunc.json"
    code, err = run(capsys, "truncate", "--model", "ssh", "--lambda", "4,0",
                    "--rho", "nan", "--json-out", str(out))
    assert code == 2
    assert "rho must be positive" in err
    assert not out.exists()


def test_gap_values_refuses_a_zero_dimensional_probe():
    with pytest.raises(DimensionMismatch) as info:
        gap_values(SSH, 5.0, "quadratic")
    assert str(info.value) == "probe has 1 coordinates for a 2-tuple"


@pytest.mark.parametrize("argv", [
    ["--prune", "0.1", "--epsilon", "0.5"],
    ["--epsilon", "nan"],
    ["--prune", "0.1", "--epsilon", "nan"],
])
def test_sweep_cli_refuses_a_bad_epsilon_before_any_cell(capsys, monkeypatch,
                                                         argv):
    from jointspec import sweep

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return gap_values(*args, **kwargs)

    monkeypatch.setattr(sweep, "gap_values", counted)
    code = main(["sweep", "--model", "ssh", "--grid", "x=0:9:5,E=-1:1:5", *argv])
    out, err = capsys.readouterr()
    assert code == 2 and "epsilon" in err
    assert out == "" and calls == []
