"""Grid sweeps of the gap functions, spectral flow along model paths, and
epsilon-level masks, with CSV / PGM / JSON serialization.

Determinism contract: a sweep runs in one thread and every cell's value
comes from the model's composite pencil with a fixed solver start, so a cell
has the same bytes in any sweep and in a standalone gap call.  Dense
composites are solved one grid row at a time by a stacked ``eigvalsh``.
With Lipschitz pruning enabled the sweep runs in serpentine order and skips
a cell only when an already-established lower bound proves its value exceeds
the threshold, so every cell of the epsilon-set is still evaluated exactly.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .clifford import CliffordRep, build_clifford
from .composites import (ObservableTuple, ProbePoint, _checked_probe,
                         gap_values, localizer, quadratic_operator,
                         reduced_localizer, shifted_observables)
from .errors import (ChiralSymmetryViolation, DimensionMismatch,
                     NumericalFailure, ParameterOutOfRange)
from .models import ssh_grading, write_csv, write_json
from .operators import HermitianOperator

__all__ = [
    "GridSpec",
    "GapGrid",
    "SpectralFlowTable",
    "model_fingerprint",
    "sweep_grid",
    "spectral_flow",
    "epsilon_mask",
]

FLOW_KINDS = ("quadratic_sqrt", "localizer", "reduced_localizer")


def model_fingerprint(t: ObservableTuple) -> str:
    """Stable sha256 over the observable entries and structural metadata."""
    h = hashlib.sha256()
    h.update(f"d={t.d_total};n={t.dim};prefix={t.commuting_prefix};".encode())
    h.update(repr(t.meta.get("kind", "")).encode())
    for o in t.ops:
        if o.is_sparse:
            c = o.mat.tocoo()
            order = np.lexsort((c.col, c.row))
            for arr in (c.row[order], c.col[order], c.data[order]):
                h.update(np.ascontiguousarray(arr).tobytes())
        else:
            h.update(np.ascontiguousarray(o.mat).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class GridSpec:
    """Rectangular probe grid: swept axes plus fixed coordinates for slicing.

    ``axes`` holds (min, max, count) per swept axis; ``fixed_coords`` maps
    probe-coordinate index -> value for the axes held constant.  Swept axes
    fill the remaining coordinate indices in increasing order.
    """

    axes: tuple
    fixed_coords: dict = field(default_factory=dict)

    def __post_init__(self):
        axes = tuple((float(a), float(b), int(c)) for a, b, c in self.axes)
        if not axes:
            raise ParameterOutOfRange("need at least one swept axis")
        for lo, hi, count in axes:
            if count < 2:
                raise ParameterOutOfRange("each swept axis needs count >= 2")
            if not -math.inf < lo < hi < math.inf:
                raise ParameterOutOfRange(f"axis [{lo}, {hi}] is not a finite range")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "fixed_coords",
                           {int(k): float(v) for k, v in self.fixed_coords.items()})

    @property
    def shape(self) -> tuple:
        return tuple(c for _, _, c in self.axes)

    def points(self, axis: int) -> np.ndarray:
        lo, hi, count = self.axes[axis]
        return np.linspace(lo, hi, count)

    def swept_indices(self, d_total: int) -> tuple:
        swept = tuple(j for j in range(d_total) if j not in self.fixed_coords)
        if not len(swept) == len(self.axes) == d_total - len(self.fixed_coords):
            raise DimensionMismatch(
                f"{len(self.axes)} swept axes and the fixed coordinates "
                f"{sorted(self.fixed_coords)} do not index a {d_total}-tuple")
        return swept

    def probe(self, d_total: int, index: tuple) -> ProbePoint:
        return ProbePoint(self.probe_coords(d_total, [index])[0])

    def probe_coords(self, d_total: int, indices) -> np.ndarray:
        """(k, d_total) probe coordinates of k cells."""
        coords = np.empty((len(indices), d_total))
        for k, v in self.fixed_coords.items():
            coords[:, k] = v
        idx = np.asarray(indices).reshape(len(indices), -1)
        for ax, j in enumerate(self.swept_indices(d_total)):
            coords[:, j] = self.points(ax)[idx[:, ax]]
        return coords


@dataclass
class GapGrid:
    """Computed gap values over a GridSpec, with provenance and failure marks."""

    spec: GridSpec
    values: np.ndarray
    kind: str
    model_fingerprint: str
    skipped_mask: np.ndarray
    axis_names: tuple = ()
    failures: list = field(default_factory=list)

    @property
    def partial(self) -> bool:
        return bool(self.failures)

    # -- serialization ----------------------------------------------------

    def _axes_label(self) -> str:
        names = self.axis_names or tuple(f"axis{i}" for i in range(len(self.spec.axes)))
        return ";".join(f"{n}={lo:g}:{hi:g}:{c}"
                        for n, (lo, hi, c) in zip(names, self.spec.axes))

    def to_csv(self, path) -> None:
        """Rows `x[,y],value` in row-major order, 17 significant digits."""
        points = [self.spec.points(ax) for ax in range(len(self.spec.axes))]
        write_csv(path, f"# {self.kind},{self._axes_label()},{self.model_fingerprint}",
                  ([*(p[i] for p, i in zip(points, index)), self.values[index]]
                   for index in np.ndindex(self.values.shape)))

    def to_pgm(self, path) -> None:
        """16-bit P2 preview; rows run top-to-bottom by decreasing second axis."""
        if len(self.spec.axes) != 2:
            raise ParameterOutOfRange("PGM preview requires a 2D grid")
        v = np.array(self.values, dtype=float)
        finite = np.isfinite(v)
        lo = v[finite].min() if finite.any() else 0.0
        hi = v[finite].max() if finite.any() else 1.0
        span = hi - lo
        scaled = np.zeros_like(v)
        if span > 0:
            scaled[finite] = (v[finite] - lo) / span
        pix = np.rint(scaled * 65535).astype(int)
        nx, ny = v.shape
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(f"P2\n# {self.kind} {self._axes_label()}\n{nx} {ny}\n65535\n")
            for j in range(ny - 1, -1, -1):
                fh.write(" ".join(str(pix[i, j]) for i in range(nx)) + "\n")

    def to_json(self, path) -> None:
        write_json({
            "kind": self.kind,
            "axes": [list(a) for a in self.spec.axes],
            "axis_names": list(self.axis_names),
            "fixed_coords": {str(k): v for k, v in self.spec.fixed_coords.items()},
            "model_fingerprint": self.model_fingerprint,
            "partial": self.partial,
            "failures": self.failures,
            "values": [[None if not np.isfinite(x) else x for x in row]
                       for row in np.atleast_2d(self.values)],
            "skipped_mask": np.atleast_2d(self.skipped_mask).astype(int).tolist(),
        }, path)


@dataclass
class SpectralFlowTable:
    """Full sorted spectrum of a composite operator along a parameter path."""

    path_parameter: np.ndarray
    spectra: list
    operator_kind: str

    def to_csv(self, path) -> None:
        k = len(self.spectra[0])
        write_csv(path, "t," + ",".join(f"eig_{i + 1}" for i in range(k)),
                  ([t, *spec] for t, spec in zip(self.path_parameter, self.spectra)))


# ---------------------------------------------------------------------------
# sweeps


def _serpentine(shape):
    """Row-major order with every other row reversed, with the previously
    visited in-row neighbor's index (or None at row starts)."""
    if len(shape) == 1:
        for i in range(shape[0]):
            yield (i,), ((i - 1,) if i else None), None
        return
    nx, ny = shape
    for i in range(nx):
        cols = range(ny) if i % 2 == 0 else range(ny - 1, -1, -1)
        for pos, j in enumerate(cols):
            prev = (i, j - 1 if i % 2 == 0 else j + 1) if pos else None
            above = (i - 1, j) if i else None
            yield (i, j), prev, above


def sweep_grid(t: ObservableTuple, spec: GridSpec, kind: str,
               rep: Optional[CliffordRep] = None,
               pruning: Optional[float] = None,
               accuracy: float = 1e-9, workers: int = 1) -> GapGrid:
    """Evaluate one gap function over the grid, in one thread.

    Dense composites are solved a grid row at a time by one stacked
    ``eigvalsh``; sparse ones by shift-invert cell by cell.  ``workers`` is
    accepted for compatibility and starts no threads: threads lost to a
    single one on every measured model.

    ``pruning`` activates Lipschitz skipping at the given epsilon: both gap
    functions are 1-Lipschitz in the probe, so a neighbor value v at distance
    s certifies the cell value is at least v - s; cells proven above epsilon
    are skipped (mask set, value left NaN) and can never belong to the
    epsilon-set.
    """
    d = t.d_total
    swept = spec.swept_indices(d)
    shape = spec.shape
    if len(shape) > 2:
        raise ParameterOutOfRange("sweeps support 1D and 2D grids")
    values = np.full(shape, np.nan)
    skipped = np.zeros(shape, dtype=bool)
    failures: list = []
    fingerprint = model_fingerprint(t)
    all_names = tuple(t.meta.get("axis_names", [f"axis{i}" for i in range(d)]))
    axis_names = tuple(all_names[j] for j in swept)

    def evaluate(indices):
        coords = spec.probe_coords(d, indices)
        out = gap_values(t, coords, kind, rep, accuracy)
        for index, lam, val in zip(indices, coords, out):
            if isinstance(val, NumericalFailure):
                failures.append({"index": list(index), "lam": lam.tolist(),
                                 "error": str(val)})
                val = np.nan
            values[index] = val

    if pruning is None:
        for row in np.ndindex(*shape[:-1]):
            evaluate([row + (j,) for j in range(shape[-1])])
    else:
        eps = float(pruning)
        if eps < 0:
            raise ParameterOutOfRange("pruning threshold must be >= 0")
        steps = [(hi - lo) / (c - 1) for lo, hi, c in spec.axes]
        # lower bounds on the true cell values, exact where evaluated
        bound = np.full(shape, -np.inf)
        for index, prev, above in _serpentine(shape):
            cand = -math.inf
            for nb, ax in ((prev, len(shape) - 1), (above, 0)):
                if nb is not None and np.isfinite(bound[nb]):
                    cand = max(cand, bound[nb] - steps[ax])
            if cand > eps:
                skipped[index] = True
                bound[index] = cand
            else:
                evaluate([index])
                if np.isfinite(values[index]):
                    bound[index] = values[index]
    failures.sort(key=lambda f: f["index"])
    return GapGrid(spec=spec, values=values, kind=kind,
                   model_fingerprint=fingerprint, skipped_mask=skipped,
                   axis_names=axis_names, failures=failures)


def epsilon_mask(grid: GapGrid, epsilon: float) -> np.ndarray:
    """Boolean mask of the epsilon-sublevel set; skipped/failed cells are False."""
    if epsilon < 0:
        raise ParameterOutOfRange("epsilon must be >= 0")
    return (grid.values <= epsilon) & ~grid.skipped_mask


# ---------------------------------------------------------------------------
# spectral flow


def spectral_flow(path: Callable[[float], ObservableTuple], lam,
                  t_samples, operator_kind: str,
                  rep: Optional[CliffordRep] = None,
                  grading: Optional[HermitianOperator] = None) -> SpectralFlowTable:
    """Full sorted spectrum of the chosen composite at each path sample.

    ``quadratic_sqrt`` reports the square roots of the (clamped nonnegative)
    eigenvalues of Q; ``localizer`` the localizer eigenvalues; and
    ``reduced_localizer`` the verified-real spectrum of ((X - x) + i(H - E))G
    for chiral two-observable models, where G defaults to the alternating
    sublattice grading.
    """
    if operator_kind not in FLOW_KINDS:
        raise ParameterOutOfRange(f"operator_kind must be one of {FLOW_KINDS}")
    ts = np.atleast_1d(np.asarray(t_samples, dtype=float))
    spectra = []
    for tv in ts:
        model = path(float(tv))
        if operator_kind == "quadratic_sqrt":
            q = quadratic_operator(model, lam)
            eigs = np.linalg.eigvalsh(q.dense())
            spectra.append(np.sqrt(np.clip(eigs, 0.0, None)))
        elif operator_kind == "localizer":
            use_rep = rep or build_clifford(model.d_total)
            ell = localizer(model, lam, use_rep)
            spectra.append(np.sort(np.linalg.eigvalsh(ell.dense())))
        else:
            if model.d_total != 2:
                raise ChiralSymmetryViolation(
                    "reduced localizer needs a two-observable chiral model")
            lam_x, lam_e = _checked_probe(model, lam).coords
            x, h = shifted_observables(model, [0.0, lam_e])
            g = grading if grading is not None else ssh_grading(model.dim)
            red = reduced_localizer(x, h, float(lam_x), g)
            eigs = np.linalg.eigvals(red)
            scale = max(1.0, float(np.abs(eigs).max()))
            if float(np.abs(eigs.imag).max()) > 1e-9 * scale:
                raise NumericalFailure(
                    "reduced-localizer spectrum is not real",
                    details={"max_imag": float(np.abs(eigs.imag).max())})
            spectra.append(np.sort(eigs.real))
    return SpectralFlowTable(path_parameter=ts, spectra=spectra,
                             operator_kind=operator_kind)
