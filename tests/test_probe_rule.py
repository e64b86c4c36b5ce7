"""One probe rule and one accuracy rule: every path that takes a probe or a
solver accuracy refuses a bad one before anything is factored or solved."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from jointspec import operators
from jointspec.cli import main
from jointspec.clifford import build_clifford
from jointspec.composites import (clifford_gap, gap_pair_with_bound,
                                  gap_values, quadratic_gap)
from jointspec.errors import (DimensionMismatch, InvalidOperator,
                              ParameterOutOfRange)
from jointspec.models import (ScaledTuple, build_chern2d, build_ssh,
                              build_ssh_path, scale_positions)
from jointspec.states import extract_state
from jointspec.sweep import GridSpec, spectral_flow, sweep_grid

SSH = build_ssh(4, 0.7, 1.4)
CHERN = scale_positions(build_chern2d(20, 20), 0.5)
CHERN_ARGS = ["--model", "chern2d", "--param", "nx=20", "--param", "ny=20",
              "--kappa", "0.5"]


@pytest.fixture
def no_solves(monkeypatch):
    """Fail the test on any factorization or dense eigensolve."""
    def forbidden(*args, **kwargs):
        raise AssertionError("a solver ran on a refused input")

    for module, name in ((spla, "splu"), (spla, "spilu"),
                         (np.linalg, "eigvalsh"), (np.linalg, "eigh")):
        monkeypatch.setattr(module, name, forbidden)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("kind", ["quadratic", "clifford"])
@pytest.mark.parametrize("t", [SSH, CHERN], ids=["ssh", "chern20"])
def test_gap_values_refuses_a_non_finite_row(t, kind, bad, no_solves):
    lams = np.zeros((3, t.d_total))
    lams[1, 0] = bad
    with pytest.raises(InvalidOperator, match="probe coordinates must be finite"):
        gap_values(t, lams, kind)


@pytest.mark.parametrize("t", [SSH, CHERN], ids=["ssh", "chern20"])
def test_gap_values_refuses_a_batch_of_the_wrong_width(t):
    d = t.d_total
    with pytest.raises(DimensionMismatch) as info:
        gap_values(t, np.zeros((2, d + 1)), "quadratic")
    assert str(info.value) == f"probe has {d + 1} coordinates for a {d}-tuple"


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("kind", ["quadratic", "clifford"])
def test_sweep_grid_refuses_a_non_finite_fixed_coordinate(kind, bad, no_solves):
    spec = GridSpec(axes=((-1.0, 1.0, 3),), fixed_coords={1: bad, 2: 0.0})
    with pytest.raises(InvalidOperator):
        sweep_grid(CHERN, spec, kind, rep=build_clifford(3))


def test_sweep_grid_refuses_a_non_finite_fixed_coordinate_when_pruning(no_solves):
    spec = GridSpec(axes=((0.0, 9.0, 3),), fixed_coords={1: np.nan})
    with pytest.raises(InvalidOperator):
        sweep_grid(SSH, spec, "clifford", pruning=0.1)


@pytest.mark.parametrize("t, fixed", [(SSH, {-1: 0.0}),
                                      (build_chern2d(4, 4), {2: 0.0, 7: 0.0})],
                         ids=["ssh-1", "chern7"])
def test_grid_spec_refuses_a_fixed_index_outside_the_tuple(t, fixed):
    axes = ((0.0, 1.0, 3),) * (t.d_total - len(fixed) + 1)
    spec = GridSpec(axes=axes, fixed_coords=fixed)
    with pytest.raises(DimensionMismatch):
        spec.swept_indices(t.d_total)
    with pytest.raises(DimensionMismatch):
        sweep_grid(t, spec, "quadratic")


@pytest.mark.parametrize("axis", [(0.0, np.inf, 3), (-np.inf, 0.0, 3),
                                  (np.nan, 1.0, 3), (0.0, np.nan, 3)])
def test_grid_spec_refuses_a_non_finite_axis(axis):
    with pytest.raises(ParameterOutOfRange):
        GridSpec(axes=(axis,))


def test_reduced_flow_refuses_a_probe_of_the_wrong_length():
    ts = np.linspace(0.0, 1.0, 3)
    for kind in ("quadratic_sqrt", "localizer", "reduced_localizer"):
        with pytest.raises(DimensionMismatch):
            spectral_flow(build_ssh_path, [4.0, 0.0, 7.0], ts, kind)
    with pytest.raises(InvalidOperator):
        spectral_flow(build_ssh_path, [4.0, np.nan], ts, "reduced_localizer")


def test_single_probe_paths_share_the_rule(no_solves):
    rep = build_clifford(2)
    for lam in ([np.nan, 0.0], [4.0, np.inf]):
        for call in (lambda: quadratic_gap(SSH, lam),
                     lambda: clifford_gap(SSH, lam, rep),
                     lambda: gap_pair_with_bound(SSH, lam, rep),
                     lambda: extract_state(ScaledTuple(SSH, 0.5), lam)):
            with pytest.raises(InvalidOperator):
                call()
    with pytest.raises(DimensionMismatch):
        gap_pair_with_bound(SSH, [4.0, 0.0, 1.0], rep)


def test_extract_state_checks_the_unscaled_probe():
    with pytest.raises(DimensionMismatch):
        extract_state(ScaledTuple(SSH, 0.5), [4.0])
    report = extract_state(ScaledTuple(SSH, 0.5), [4.0, 0.0])
    np.testing.assert_array_equal(report.lam.coords, [4.0, 0.0])


@pytest.mark.parametrize("accuracy", [2.0, 0.0, -1.0, np.nan, 0.1, np.inf])
def test_accuracy_outside_the_range_is_refused(accuracy, no_solves):
    with pytest.raises(ParameterOutOfRange):
        operators.eigenpair_nearest_zero(np.eye(3), accuracy)
    for t in (SSH, CHERN):  # dense cells never reach the solver
        with pytest.raises(ParameterOutOfRange):
            gap_values(t, np.zeros((1, t.d_total)), "clifford", accuracy=accuracy)
    with pytest.raises(ParameterOutOfRange):
        quadratic_gap(CHERN, [0.3, 0.1, 0.0], accuracy=accuracy)


@pytest.mark.parametrize("accuracy", [1e-2, 1e-10])
def test_accuracy_inside_the_range_is_accepted(accuracy):
    w, _ = operators.eigenpair_nearest_zero(np.diag([3.0, -0.5, 2.0]), accuracy)
    assert w[0] == -0.5
    lam = [0.3, 0.1, 0.0]
    assert quadratic_gap(CHERN, lam, accuracy) == pytest.approx(
        quadratic_gap(CHERN, lam), rel=1e-3)


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--grid", "x=0:9:3", "--fixed", "E=nan"],
    ["--grid", "x=0:inf:3"],
    ["--grid", "x=0:9:3", "--fixed", "E=-inf"],
])
def test_sweep_cli_refuses_non_finite_probes(capsys, tmp_path, no_solves, argv):
    out = tmp_path / "out.csv"
    code, _ = run(capsys, "sweep", "--model", "ssh", *argv, "--csv-out", str(out))
    assert code == 2
    assert not out.exists()


def test_chern_sweep_cli_refuses_a_nan_fixed_coordinate_before_solving(
        capsys, tmp_path, no_solves):
    out = tmp_path / "out.csv"
    code, err = run(capsys, "sweep", *CHERN_ARGS, "--grid", "x=-4:4:5",
                    "--fixed", "y=nan", "--csv-out", str(out))
    assert code == 2
    assert "probe coordinates must be finite" in err
    assert not out.exists()


@pytest.mark.parametrize("accuracy", ["2", "0", "-1", "nan", "0.1"])
def test_gap_cli_refuses_an_accuracy_outside_the_range(capsys, tmp_path,
                                                       accuracy):
    out = tmp_path / "gap.json"
    code, err = run(capsys, "--accuracy", accuracy, "gap", *CHERN_ARGS,
                    "--lambda", "0.3,0.1,0", "--json-out", str(out))
    assert code == 2
    assert "accuracy" in err
    assert not out.exists()


def test_flow_cli_refuses_a_probe_of_the_wrong_length(capsys):
    code, err = run(capsys, "flow", "--lambda", "4,0,7", "--operator", "reduced",
                    "--samples", "3")
    assert code == 2
    assert "coordinates" in err


def test_states_cli_refuses_an_accuracy_before_ordering(capsys, tmp_path,
                                                        no_solves):
    out = tmp_path / "state.json"
    code, err = run(capsys, "--accuracy", "2", "states", *CHERN_ARGS,
                    "--lambda", "9,0,0", "--json-out", str(out))
    assert code == 2
    assert "accuracy" in err
    assert not out.exists()
