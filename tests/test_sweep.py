import json

import numpy as np
import pytest

from jointspec.composites import ObservableTuple
from jointspec.errors import (ChiralSymmetryViolation, DimensionMismatch,
                              NumericalFailure, ParameterOutOfRange)
from jointspec.models import build_example, build_ssh, build_ssh_path
from jointspec.sweep import (GapGrid, GridSpec, epsilon_mask,
                             model_fingerprint, spectral_flow, sweep_grid)

PAULI = build_example("pauli_pair")
SSH = build_ssh(4, 0.7, 1.4)


def small_ssh_grid(kind, **kw):
    spec = GridSpec(axes=((0.0, 9.0, 21), (-3.0, 3.0, 21)))
    return sweep_grid(SSH, spec, kind, **kw)


def test_grid_spec_validation():
    with pytest.raises(ParameterOutOfRange):
        GridSpec(axes=((0.0, 1.0, 1),))
    with pytest.raises(ParameterOutOfRange):
        GridSpec(axes=((2.0, 1.0, 5),))


def test_grid_spec_fixed_coords():
    spec = GridSpec(axes=((0.0, 1.0, 3), (0.0, 2.0, 5)), fixed_coords={2: 0.5})
    lam = spec.probe(3, (2, 4))
    np.testing.assert_allclose(lam.coords, [1.0, 2.0, 0.5])
    with pytest.raises(DimensionMismatch):
        spec.probe(4, (0, 0))


def test_sweep_matches_closed_form():
    spec = GridSpec(axes=((-2.0, 2.0, 17), (-2.0, 2.0, 17)))
    grid = sweep_grid(PAULI, spec, "quadratic")
    xs = spec.points(0)
    ys = spec.points(1)
    r = np.sqrt(xs[:, None] ** 2 + ys[None, :] ** 2)
    exact = np.sqrt(r ** 2 + 2 - 2 * r)
    np.testing.assert_allclose(grid.values, exact, atol=1e-8)


def test_sweep_deterministic_across_workers():
    spec = GridSpec(axes=((-1.0, 1.0, 9), (-1.0, 1.0, 9)))
    a = sweep_grid(PAULI, spec, "clifford", workers=1)
    b = sweep_grid(PAULI, spec, "clifford", workers=4)
    assert np.array_equal(a.values, b.values)
    assert a.model_fingerprint == b.model_fingerprint


def test_pruning_sound_and_bitwise_equal():
    full = small_ssh_grid("clifford")
    pruned = small_ssh_grid("clifford", pruning=0.3)
    assert pruned.skipped_mask.any()
    evaluated = ~pruned.skipped_mask
    assert np.array_equal(full.values[evaluated], pruned.values[evaluated])
    # no cell of the sublevel set may be skipped
    full_mask = epsilon_mask(full, 0.3)
    pruned_mask = epsilon_mask(pruned, 0.3)
    assert np.array_equal(full_mask, pruned_mask)
    assert not (full_mask & pruned.skipped_mask).any()


def test_discrete_lipschitz_between_adjacent_cells():
    grid = small_ssh_grid("clifford")
    dx = 9.0 / 20
    dE = 6.0 / 20
    v = grid.values
    assert np.max(np.abs(np.diff(v, axis=0))) <= dx + 1e-8
    assert np.max(np.abs(np.diff(v, axis=1))) <= dE + 1e-8


def test_ssh_grid_symmetries():
    # even in energy (chiral witness) and mirror-symmetric about x = 4.5
    for kind in ("quadratic", "clifford"):
        v = small_ssh_grid(kind).values
        np.testing.assert_allclose(v, v[:, ::-1], atol=1e-8)
        np.testing.assert_allclose(v, v[::-1, :], atol=1e-8)


def test_epsilon_mask_edges():
    grid = small_ssh_grid("quadratic")
    assert not epsilon_mask(grid, 0.0).any()
    assert epsilon_mask(grid, grid.values.max() + 1).all()
    with pytest.raises(ParameterOutOfRange):
        epsilon_mask(grid, -0.1)


def test_fingerprint_distinguishes_models():
    assert model_fingerprint(SSH) != model_fingerprint(build_ssh(4, 0.8, 1.4))
    assert model_fingerprint(SSH) == model_fingerprint(build_ssh(4, 0.7, 1.4))


def test_csv_serialization(tmp_path):
    spec = GridSpec(axes=((0.0, 1.0, 2), (0.0, 1.0, 3)))
    grid = sweep_grid(PAULI, spec, "quadratic")
    path = tmp_path / "g.csv"
    grid.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# quadratic,")
    assert lines[0].endswith(grid.model_fingerprint)
    assert len(lines) == 1 + 6
    x, y, val = lines[1].split(",")
    assert float(x) == 0.0 and float(y) == 0.0
    assert np.isclose(float(val), grid.values[0, 0])


def test_pgm_serialization(tmp_path):
    spec = GridSpec(axes=((0.0, 1.0, 4), (0.0, 1.0, 5)))
    grid = sweep_grid(PAULI, spec, "quadratic")
    path = tmp_path / "g.pgm"
    grid.to_pgm(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "P2"
    assert lines[2] == "4 5"
    assert lines[3] == "65535"
    pixels = [int(p) for row in lines[4:] for p in row.split()]
    assert len(pixels) == 20
    assert min(pixels) == 0 and max(pixels) == 65535


def test_json_serialization(tmp_path):
    spec = GridSpec(axes=((0.0, 1.0, 2), (0.0, 1.0, 2)))
    grid = sweep_grid(PAULI, spec, "clifford")
    path = tmp_path / "g.json"
    grid.to_json(path)
    doc = json.loads(path.read_text())
    assert doc["kind"] == "clifford"
    assert doc["model_fingerprint"] == grid.model_fingerprint
    assert not doc["partial"]
    np.testing.assert_allclose(doc["values"], grid.values)


def test_spectral_flow_quadratic_sqrt():
    table = spectral_flow(build_ssh_path, [4.0, 0.0], np.linspace(0, 1, 5),
                          "quadratic_sqrt")
    for spec in table.spectra:
        assert np.all(spec >= 0)
        assert np.all(np.diff(spec) >= -1e-12)


def test_spectral_flow_localizer_symmetric():
    table = spectral_flow(build_ssh_path, [4.0, 0.0], [0.0, 0.5, 1.0],
                          "localizer")
    for spec in table.spectra:
        np.testing.assert_allclose(spec, -spec[::-1], atol=1e-9)


def test_spectral_flow_reduced_real_and_csv(tmp_path):
    ts = np.linspace(0, 1, 7)
    table = spectral_flow(build_ssh_path, [4.0, 0.0], ts, "reduced_localizer")
    assert all(s.dtype.kind == "f" for s in table.spectra)
    path = tmp_path / "flow.csv"
    table.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t," + ",".join(f"eig_{i}" for i in range(1, 9))
    assert len(lines) == 8


def test_spectral_flow_reduced_at_nonzero_energy():
    # H - E breaks the chiral symmetry of the SSH path ...
    with pytest.raises(ChiralSymmetryViolation):
        spectral_flow(build_ssh_path, [4.0, 0.5], [0.0], "reduced_localizer")

    # ... unless the path's H carries +E, which the probe's E removes
    def lifted(tv):
        x, h = build_ssh_path(tv).ops
        return ObservableTuple([x, h.dense() + 0.5 * np.eye(h.dim)],
                               commuting_prefix=1)

    ts = [0.0, 0.5, 1.0]
    flow = spectral_flow(lifted, [4.0, 0.5], ts, "reduced_localizer")
    ref = spectral_flow(build_ssh_path, [4.0, 0.0], ts, "reduced_localizer")
    for a, b in zip(flow.spectra, ref.spectra):
        assert np.array_equal(a, b)


def test_spectral_flow_bad_kind():
    with pytest.raises(ParameterOutOfRange):
        spectral_flow(build_ssh_path, [4.0, 0.0], [0.0], "bogus")


def test_failures_sorted_by_index(monkeypatch):
    def failing(stack):
        raise np.linalg.LinAlgError("eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    # pruned sweeps visit odd rows right to left
    grid = small_ssh_grid("clifford", pruning=0.3)
    indices = [f["index"] for f in grid.failures]
    assert len(indices) == grid.values.size
    assert indices == sorted(indices)
    assert np.isnan(grid.values).all()


def test_pruned_1d_sweep_and_csv(tmp_path):
    # a 1D grid takes _serpentine's 1D branch and to_csv's `x,value` rows
    spec = GridSpec(axes=((0.0, 9.0, 37),), fixed_coords={1: 0.0})
    full = sweep_grid(SSH, spec, "clifford")
    pruned = sweep_grid(SSH, spec, "clifford", pruning=0.2)
    assert pruned.skipped_mask.any()
    evaluated = ~pruned.skipped_mask
    assert np.array_equal(full.values[evaluated], pruned.values[evaluated])
    assert np.array_equal(epsilon_mask(full, 0.2), epsilon_mask(pruned, 0.2))
    path = tmp_path / "line.csv"
    full.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# clifford,x=0:9:37,{full.model_fingerprint}"
    assert lines[1:] == [f"{x:.17g},{v:.17g}"
                         for x, v in zip(spec.points(0), full.values)]


def test_spectral_flow_refuses_empty_samples(capsys):
    from jointspec.cli import main

    with pytest.raises(ParameterOutOfRange, match="t_samples is empty"):
        spectral_flow(build_ssh_path, [4.0, 0.0], [], "localizer")
    assert main(["flow", "--lambda", "4,0", "--samples", "0"]) == 2
    assert "t_samples is empty" in capsys.readouterr().err
