import json

import numpy as np
import pytest

from jointspec.errors import ModelConfigError, ParameterOutOfRange
from jointspec.models import (EXAMPLE_NAMES, LatticeModelSpec, ScaledTuple,
                              build_chern2d, build_example, build_ssh,
                              build_ssh_path, read_matrix_file,
                              scale_positions, ssh_grading, write_json,
                              write_matrix_file)


def test_ssh_matches_displayed_matrices():
    t = build_ssh(4, 0.7, 1.4)
    x, h = t.ops
    np.testing.assert_allclose(x.dense(), np.diag(np.arange(1, 9)))
    expected = np.zeros((8, 8))
    hops = [0.7, 1.4, 0.7, 1.4, 0.7, 1.4, 0.7]
    for i, v in enumerate(hops):
        expected[i, i + 1] = expected[i + 1, i] = v
    np.testing.assert_allclose(h.dense().real, expected)
    assert t.commuting_prefix == 1


def test_ssh_single_cell():
    t = build_ssh(1, 0.3, 9.9)
    np.testing.assert_allclose(t.ops[1].dense().real, [[0, 0.3], [0.3, 0]])
    np.testing.assert_allclose(t.ops[0].diagonal().real, [1, 2])


def test_ssh_chiral_symmetry_exact():
    h = build_ssh(4, 0.7, 1.4).ops[1].dense()
    g = ssh_grading(8).dense()
    assert np.max(np.abs(h @ g + g @ h)) == 0.0


def test_ssh_path_endpoints_and_range():
    t0 = build_ssh_path(0.0)
    t1 = build_ssh_path(1.0)
    assert np.isclose(t0.ops[1].dense()[0, 1].real, 0.7)
    assert np.isclose(t0.ops[1].dense()[1, 2].real, 1.4)
    assert np.isclose(t1.ops[1].dense()[0, 1].real, 1.4)
    mid = build_ssh_path(0.5).ops[1].dense()
    assert np.isclose(mid[0, 1].real, mid[1, 2].real)
    with pytest.raises(ParameterOutOfRange):
        build_ssh_path(1.5)


def test_pauli_pair_nilpotent_sum():
    t = build_example("pauli_pair")
    a = t.ops[0].dense() + 1j * t.ops[1].dense()
    np.testing.assert_allclose(a, [[0, 2], [0, 0]], atol=1e-15)


def test_pair_3x3_sum_eigenvalues():
    t = build_example("pair_3x3")
    a = t.ops[0].dense() + 1j * t.ops[1].dense()
    eigs = np.linalg.eigvals(a)
    eigs = eigs[np.argsort(eigs.real)]
    assert abs(eigs[1]) < 1e-12
    assert np.isclose(eigs[2], 1.272 + 0.786j, atol=5e-4)
    assert np.isclose(eigs[0], -(1.272 + 0.786j), atol=5e-4)


def test_pair_4x4_structure():
    t = build_example("pair_4x4")
    x, y = t.ops
    assert np.max(np.abs(x.dense().imag)) == 0.0
    assert np.max(np.abs(y.dense().real)) == 0.0
    a = x.dense() + 1j * y.dense()
    assert np.max(np.abs(a.imag)) == 0.0


def test_class_d_7_structure():
    t = build_example("class_d_7")
    x, h = t.ops
    np.testing.assert_allclose(x.diagonal().real, np.linspace(-3.5, 3.5, 7))
    assert np.max(np.abs(h.dense().real)) == 0.0
    a = x.dense() + 1j * h.dense()
    assert np.max(np.abs(a.imag)) == 0.0


def test_unknown_example():
    with pytest.raises(ModelConfigError):
        build_example("no_such_model")
    assert set(EXAMPLE_NAMES) == {"pauli_pair", "pair_3x3", "pair_4x4",
                                  "class_d_7"}


def test_chern2d_small_construction():
    t = build_chern2d(2, 2)
    assert t.dim == 8
    assert t.commuting_prefix == 2
    h = t.ops[2].dense()
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_chern2d_position_centering():
    t = build_chern2d(20, 20, lattice_constant=0.5)
    xs = t.ops[0].diagonal().real
    assert np.isclose(xs.min(), -4.75)
    assert np.isclose(xs.max(), 4.75)


def test_chern2d_bloch_bands_in_bulk_window():
    # periodic Bloch symbol assembled from the same hop matrices must give
    # bands inside +-[1, 6] for the default parameters
    t = build_chern2d(2, 2)
    h = t.ops[2].dense()
    onsite = h[:2, :2]
    east = h[:2, 2:4]
    north = h[:2, 4:6]
    ks = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    for kx in ks:
        for ky in ks:
            hk = (onsite + east * np.exp(1j * kx)
                  + east.conj().T * np.exp(-1j * kx)
                  + north * np.exp(1j * ky)
                  + north.conj().T * np.exp(-1j * ky))
            e = np.abs(np.linalg.eigvalsh(hk))
            assert e.min() >= 1.0 - 1e-9 and e.max() <= 6.0 + 1e-9


def test_chern2d_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        build_chern2d(1, 5)
    with pytest.raises(ParameterOutOfRange):
        build_chern2d(4, 4, lattice_constant=0.0)


def test_scale_positions():
    t = build_ssh(2, 1.0, 1.0)
    s = scale_positions(t, 0.5)
    np.testing.assert_allclose(s.ops[0].diagonal().real,
                               0.5 * np.arange(1, 5))
    np.testing.assert_allclose(s.ops[1].dense(), t.ops[1].dense())
    with pytest.raises(ParameterOutOfRange):
        scale_positions(t, -1.0)


def test_scaled_tuple():
    t = build_ssh(2, 1.0, 1.0)
    st = ScaledTuple(t, 0.25)
    np.testing.assert_allclose(st.scale_probe([4.0, 1.0]), [1.0, 1.0])
    built = st.build()
    np.testing.assert_allclose(built.ops[0].diagonal().real,
                               0.25 * np.arange(1, 5))
    with pytest.raises(ParameterOutOfRange):
        ScaledTuple(t, 0.0)


def test_model_spec_from_text():
    spec = LatticeModelSpec.from_text("""
    # dimerized chain
    kind = ssh
    n_cells = 3
    v = 0.5
    w = 1.5
    """)
    t = spec.build()
    assert t.dim == 6
    assert np.isclose(t.ops[1].dense()[0, 1].real, 0.5)


def test_model_spec_from_json():
    doc = {"kind": "chern2d", "parameters": {"nx": 4, "ny": 4, "M": -2.0}}
    t = LatticeModelSpec.from_json(json.dumps(doc)).build()
    assert t.dim == 32


def test_model_spec_from_json_refuses_unknown_keys():
    # a misspelled key would otherwise build the default 8-site chain
    doc = {"kind": "ssh", "parameter": {"n_cells": 2}}
    with pytest.raises(ModelConfigError, match="'parameter'"):
        LatticeModelSpec.from_json(json.dumps(doc))


def test_model_spec_errors():
    with pytest.raises(ModelConfigError):
        LatticeModelSpec.from_text("v = 0.7\n")  # no kind
    with pytest.raises(ModelConfigError):
        LatticeModelSpec.from_text("kind = ssh\nbogus_knob = 3\n")
    with pytest.raises(ModelConfigError):
        LatticeModelSpec.from_json("{bad json")
    with pytest.raises(ModelConfigError):
        LatticeModelSpec(kind="warp_drive")
    with pytest.raises(ModelConfigError):
        LatticeModelSpec(kind="example:pauli_pair", parameters={"v": 3})
    with pytest.raises(ModelConfigError):
        LatticeModelSpec(kind="explicit", parameters={"v": 1.0})
    with pytest.raises(ModelConfigError):
        LatticeModelSpec.from_text("kind = ssh\nv = fast\n")
    with pytest.raises(ModelConfigError):
        LatticeModelSpec(kind="chern2d", parameters={"A": float("nan")})


def test_model_spec_converts_raw_values():
    spec = LatticeModelSpec(kind="chern2d", parameters={"nx": "6", "A": "0.5"})
    assert spec.parameters == {"nx": 6, "A": 0.5}
    assert type(spec.parameters["nx"]) is int


@pytest.mark.parametrize("kind,builder", [
    ("ssh", build_ssh),
    ("ssh_path", build_ssh_path),
    ("chern2d", build_chern2d),
    ("example:pair_4x4", lambda: build_example("pair_4x4")),
])
def test_model_spec_defaults_are_the_builders(kind, builder):
    t, ref = LatticeModelSpec(kind=kind).build(), builder()
    assert t.meta == ref.meta
    for a, b in zip(t.ops, ref.ops):
        assert np.array_equal(a.dense(), b.dense())


def test_write_json_refuses_non_finite_numbers(tmp_path):
    path = tmp_path / "doc.json"
    write_json({"a": [1.5, None]}, path)
    assert path.read_text() == '{\n "a": [\n  1.5,\n  null\n ]\n}\n'
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            write_json({"a": bad}, path)


def test_matrix_file_roundtrip(tmp_path):
    m = np.array([[1.0, 2 - 3j], [2 + 3j, -4.0]])
    path = tmp_path / "m.txt"
    write_matrix_file(path, m)
    back = read_matrix_file(path)
    np.testing.assert_allclose(back, m)


def test_matrix_file_validation(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("2\n0 0 1 0\n")
    with pytest.raises(ModelConfigError):
        read_matrix_file(path)


def test_explicit_model_from_files(tmp_path):
    x = np.diag([1.0, 2.0])
    y = np.array([[0, 1.0], [1.0, 0]])
    write_matrix_file(tmp_path / "x.txt", x)
    write_matrix_file(tmp_path / "y.txt", y)
    text = (f"kind = explicit\nmatrix_file = {tmp_path / 'x.txt'}\n"
            f"matrix_file = {tmp_path / 'y.txt'}\ncommuting_prefix = 1\n")
    t = LatticeModelSpec.from_text(text).build()
    assert t.d_total == 2 and t.dim == 2
