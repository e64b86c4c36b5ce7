"""Observable-tuple constructors: SSH chains, small example pairs, and the
HgTe-like Chern insulator, plus position-scaling and config/file loading.

Conventions fixed for reproducible serialization:

* SSH sites are numbered 1..2n (X = diag(1, ..., 2n)), hoppings alternate
  v, w, v, ... starting with v.
* 2D lattices are row-major with x fastest and the orbital index innermost;
  position operators are site indices recentred symmetrically about 0 and
  multiplied by the lattice constant.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .clifford import PAULI_X, PAULI_Y, PAULI_Z
from .composites import ObservableTuple
from .errors import ModelConfigError, ParameterOutOfRange
from .operators import HermitianOperator

__all__ = [
    "LatticeModelSpec",
    "ScaledTuple",
    "build_ssh",
    "build_ssh_path",
    "build_example",
    "build_chern2d",
    "scale_positions",
    "ssh_grading",
    "EXAMPLE_NAMES",
    "read_matrix_file",
    "write_matrix_file",
    "write_json",
    "write_csv",
]


def build_ssh(n_cells: int = 4, v: float = 0.7, w: float = 1.4) -> ObservableTuple:
    """Finite SSH chain of 2*n_cells sites: position X and Hamiltonian H.

    H is tridiagonal with hoppings alternating v, w; X = diag(1, ..., 2n).
    """
    if n_cells < 1:
        raise ParameterOutOfRange("n_cells must be >= 1")
    n = 2 * n_cells
    hop = np.array([v if i % 2 == 0 else w for i in range(n - 1)], dtype=float)
    h = np.diag(hop, 1) + np.diag(hop, -1)
    x = np.diag(np.arange(1, n + 1, dtype=float))
    meta = {"kind": "ssh", "axis_names": ("x", "E"), "orbitals": 1}
    return ObservableTuple([HermitianOperator(x), HermitianOperator(h)],
                           commuting_prefix=1, meta=meta)


def build_ssh_path(t: float = 0.0) -> ObservableTuple:
    """SSH interpolation: v = 0.7(1-t) + 1.4t, w = 1.4(1-t) + 0.7t, 4 cells.

    t=0 is the trivial-dimerization endpoint, t=1 swaps the hoppings.
    """
    if not 0.0 <= t <= 1.0:
        raise ParameterOutOfRange(f"path parameter t={t} outside [0, 1]")
    v = 0.7 * (1 - t) + 1.4 * t
    w = 1.4 * (1 - t) + 0.7 * t
    return build_ssh(4, v, w)


def ssh_grading(n_sites: int) -> HermitianOperator:
    """Sublattice grading diag(1, -1, 1, ...): anticommutes with the SSH H."""
    return HermitianOperator(np.diag([1.0 if i % 2 == 0 else -1.0
                                      for i in range(n_sites)]).astype(complex))


# ---------------------------------------------------------------------------
# small example pairs


_HOP_7 = np.array([1.4, 0.7, 0.7, 1.4, 0.7, 1.4]) * 1j
#: name -> (position X, second observable, its axis name)
_EXAMPLES = {
    "pauli_pair": (PAULI_X, PAULI_Y, "y"),
    "pair_3x3": (np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex),
                 np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex), "y"),
    "pair_4x4": (np.diag([-2.0, 2.0, 0.0, 1.0]).astype(complex),
                 np.array([[0, 1j, 0, 0],
                           [-1j, 0, 1j, 0],
                           [0, -1j, 0, 1j],
                           [0, 0, -1j, 0]], dtype=complex), "y"),
    # seven equally spaced sites spanning [-3.5, 3.5], imaginary hoppings
    "class_d_7": (np.diag(np.linspace(-3.5, 3.5, 7)).astype(complex),
                  np.diag(_HOP_7, 1) + np.diag(_HOP_7.conj(), -1), "E"),
}

EXAMPLE_NAMES = tuple(_EXAMPLES)


def build_example(name: str) -> ObservableTuple:
    """One of the built-in small pairs: pauli_pair, pair_3x3, pair_4x4, class_d_7."""
    try:
        x, y, axis = _EXAMPLES[name]
    except KeyError:
        raise ModelConfigError(
            f"unknown example {name!r}; choose from {', '.join(_EXAMPLES)}") from None
    return ObservableTuple([x, y], commuting_prefix=1,
                           meta={"kind": name, "axis_names": ("x", axis)})


# ---------------------------------------------------------------------------
# 2D Chern insulator (single spin sector of the HgTe model)


def build_chern2d(nx: int = 20, ny: int = 20, A: float = 1.0, B: float = -1.0,
                  C: float = 0.0, D: float = 0.0, M: float = -2.0,
                  lattice_constant: float = 1.0) -> ObservableTuple:
    """Square-lattice Chern insulator with open boundaries: (X, Y, H).

    Two orbitals per site.  On-site term (C-4D) I + (M-4B) sz; hopping east
    (D I + B sz - (iA/2) sx) and north (D I + B sz + (iA/2) sy), conjugates in
    the remaining directions, so the Bloch Hamiltonian carries
    A (sin kx sx + sin ky sy) + ((M-4B) + 2B (cos kx + cos ky)) sz.  With
    (A, B, C, D, M) = (1, -1, 0, 0, -2) the bulk bands fill +-[1, 6] and the
    lower band has Chern number -1.

    Position operators are diagonal, recentred so coordinates span a
    symmetric range, in units of ``lattice_constant``.  All three are
    sparse at every size.
    """
    if nx < 2 or ny < 2:
        raise ParameterOutOfRange("nx and ny must both be >= 2")
    if lattice_constant <= 0:
        raise ParameterOutOfRange("lattice_constant must be positive")
    eye2 = np.eye(2, dtype=complex)
    onsite = (C - 4 * D) * eye2 + (M - 4 * B) * PAULI_Z
    east = D * eye2 + B * PAULI_Z - 0.5j * A * PAULI_X
    north = D * eye2 + B * PAULI_Z + 0.5j * A * PAULI_Y
    shift_x = sp.diags(np.ones(nx - 1), 1)
    shift_y = sp.diags(np.ones(ny - 1), 1)
    ix, iy = sp.identity(nx), sp.identity(ny)
    hop_e = sp.kron(sp.kron(iy, shift_x), east)
    hop_n = sp.kron(sp.kron(shift_y, ix), north)
    h = (sp.kron(sp.kron(iy, ix), onsite)
         + hop_e + hop_e.conj().T + hop_n + hop_n.conj().T)
    xs = (np.arange(nx) - (nx - 1) / 2.0) * lattice_constant
    ys = (np.arange(ny) - (ny - 1) / 2.0) * lattice_constant
    x = sp.kron(sp.kron(iy, sp.diags(xs)), sp.identity(2))
    y = sp.kron(sp.kron(sp.diags(ys), ix), sp.identity(2))
    meta = {"kind": "chern2d", "axis_names": ("x", "y", "E"), "orbitals": 2,
            "shape": (nx, ny)}
    return ObservableTuple([x, y, h], commuting_prefix=2, meta=meta)


@dataclass(frozen=True)
class ScaledTuple:
    """An observable tuple together with the unit-conversion scale kappa.

    The probe is specified in unscaled position units; ``build()`` returns the
    tuple whose position block is multiplied by kappa, and ``scale_probe``
    maps a raw (x..., E) probe to the matching scaled coordinates.
    """

    base: ObservableTuple
    kappa: float

    def __post_init__(self):
        if not (np.isfinite(self.kappa) and self.kappa > 0):
            raise ParameterOutOfRange(
                f"kappa must be positive and finite, got {self.kappa!r}")

    def build(self) -> ObservableTuple:
        """The scaled tuple; at kappa = 1, the base tuple and its pencils."""
        t = self.base
        if self.kappa == 1.0:
            return t
        ops = [HermitianOperator(self.kappa * o.mat) for o in t.positions]
        return ObservableTuple(ops + [t.hamiltonian],
                               commuting_prefix=t.commuting_prefix, meta=t.meta)

    def scale_probe(self, lam) -> np.ndarray:
        lam = np.atleast_1d(np.asarray(lam, dtype=float)).copy()
        lam[:self.base.commuting_prefix] *= self.kappa
        return lam


def scale_positions(t: ObservableTuple, kappa: float) -> ObservableTuple:
    """Multiply the commuting position block by kappa; H is untouched."""
    return ScaledTuple(t, kappa).build()


# ---------------------------------------------------------------------------
# model specification / config parsing


#: kind -> (builder, {parameter: int or float}); the builders hold the defaults
_KINDS = {
    "ssh": (build_ssh, {"n_cells": int, "v": float, "w": float}),
    "ssh_path": (build_ssh_path, {"t": float}),
    "chern2d": (build_chern2d, {"nx": int, "ny": int, "A": float, "B": float,
                                "C": float, "D": float, "M": float,
                                "lattice_constant": float}),
    "explicit": (None, {}),
    **{f"example:{name}": (functools.partial(build_example, name), {})
       for name in EXAMPLE_NAMES},
}


@dataclass
class LatticeModelSpec:
    """Declarative model description, loadable from key=value text or JSON."""

    kind: str
    parameters: dict = field(default_factory=dict)
    explicit_matrices: Optional[list] = None
    commuting_prefix: int = 1

    def __post_init__(self):
        """Check the kind and parameter names, and convert each parameter
        (a number or its text) to an int or a finite float."""
        if self.kind not in _KINDS:
            raise ModelConfigError(f"unknown model kind {self.kind!r}")
        types = _KINDS[self.kind][1]
        extra = set(self.parameters) - set(types)
        if extra:
            raise ModelConfigError(
                f"unexpected parameters for {self.kind}: {sorted(extra)}")
        params = {}
        for k, val in self.parameters.items():
            try:
                params[k] = types[k](val)
            except (TypeError, ValueError, OverflowError):
                raise ModelConfigError(
                    f"parameter {k}={val!r} is not a number") from None
            if not np.isfinite(params[k]):
                raise ModelConfigError(f"parameter {k} is not finite")
        self.parameters = params

    def build(self) -> ObservableTuple:
        builder = _KINDS[self.kind][0]
        if builder is not None:
            return builder(**self.parameters)
        if not self.explicit_matrices:
            raise ModelConfigError("explicit model has no matrices")
        return ObservableTuple(
            [HermitianOperator(m) for m in self.explicit_matrices],
            commuting_prefix=self.commuting_prefix,
            meta={"kind": "explicit",
                  "axis_names": tuple(f"x{j+1}"
                                      for j in range(len(self.explicit_matrices)))})

    @classmethod
    def from_text(cls, text: str) -> "LatticeModelSpec":
        """Parse a plain key=value config (one pair per line, # comments) into
        the document ``from_json`` reads, one ``matrix_file`` line per file."""
        doc = {"parameters": {}}
        for ln, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ModelConfigError(f"line {ln}: expected key=value, got {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            if key == "matrix_file":
                doc.setdefault("matrix_files", []).append(val)
            elif key in ("kind", "commuting_prefix"):
                doc[key] = val
            else:
                doc["parameters"][key] = val
        return cls._from_doc(doc)

    @classmethod
    def from_json(cls, text: str) -> "LatticeModelSpec":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ModelConfigError(f"bad JSON model config: {exc}") from exc
        return cls._from_doc(doc)

    @classmethod
    def _from_doc(cls, doc: dict) -> "LatticeModelSpec":
        """The spec of a config document, with its matrix files read.  Only
        an explicit model takes ``matrix_files`` or ``commuting_prefix``."""
        if not isinstance(doc, dict):
            raise ModelConfigError(f"config must be an object, got {doc!r}")
        extra = set(doc) - {"kind", "parameters", "matrix_files",
                            "commuting_prefix"}
        if extra:
            raise ModelConfigError(f"unexpected JSON config keys: {sorted(extra)}")
        if "kind" not in doc:
            raise ModelConfigError("config is missing a 'kind' entry")
        if not isinstance(doc["kind"], str):
            raise ModelConfigError(f"'kind' must be a string, got {doc['kind']!r}")
        if not isinstance(doc.get("parameters", {}), dict):
            raise ModelConfigError(
                f"'parameters' must be an object, got {doc['parameters']!r}")
        files = doc.get("matrix_files", [])
        if not isinstance(files, list) or not all(isinstance(f, str) for f in files):
            raise ModelConfigError(
                f"'matrix_files' must be a list of file names, got {files!r}")
        explicit_only = sorted({"matrix_files", "commuting_prefix"} & set(doc))
        if explicit_only and doc["kind"] != "explicit":
            raise ModelConfigError(
                f"{explicit_only} apply to explicit models only, not {doc['kind']!r}")
        prefix = doc.get("commuting_prefix", 1)
        if isinstance(prefix, str) and prefix.isdecimal():  # from a text config
            prefix = int(prefix)
        if not isinstance(prefix, int) or isinstance(prefix, bool):
            raise ModelConfigError(
                f"'commuting_prefix' must be an integer, got {prefix!r}")
        matrices = [read_matrix_file(f) for f in files] or None
        return cls(kind=doc["kind"], parameters=doc.get("parameters", {}),
                   explicit_matrices=matrices, commuting_prefix=prefix)


# ---------------------------------------------------------------------------
# output files: JSON documents, CSV tables, and the dense complex matrix
# interchange format (header `n`, then n^2 lines `row col re im`, 0-based
# indices)


def write_json(doc, path) -> None:
    """``doc`` as indented JSON; NaN and infinities raise ValueError."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)
        fh.write("\n")


def write_csv(path, header: str, rows) -> None:
    """The header line, then each row's numbers to 17 significant digits."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{header}\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


def read_matrix_file(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ModelConfigError(f"{path}: empty matrix file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ModelConfigError(f"{path}: header must be the dimension") from None
    if len(lines) - 1 != n * n:
        raise ModelConfigError(f"{path}: expected {n * n} entries, got {len(lines) - 1}")
    m, seen = np.zeros((n, n), dtype=complex), set()
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 4:
            raise ModelConfigError(f"{path}: bad entry line {ln!r}")
        r, c = int(parts[0]), int(parts[1])
        if not (0 <= r < n and 0 <= c < n):
            raise ModelConfigError(f"{path}: index ({r},{c}) out of range")
        if (r, c) in seen:
            raise ModelConfigError(f"{path}: entry ({r},{c}) given twice")
        seen.add((r, c))
        m[r, c] = float(parts[2]) + 1j * float(parts[3])
    return m


def write_matrix_file(path, m) -> None:
    m = np.asarray(m, dtype=complex)
    n = m.shape[0]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{n}\n")
        for r, c in np.ndindex(n, n):
            fh.write(f"{r} {c} {m[r, c].real:.17g} {m[r, c].imag:.17g}\n")
