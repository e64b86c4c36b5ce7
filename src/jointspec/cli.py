"""Command-line front end.

Subcommands: gap, sweep, flow, states, truncate, examples, run.  Outputs are
written atomically (temp file + rename) so partial files never appear under
the declared names.  Exit codes: 0 success, 2 invalid input/config, 3
numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import tempfile
import time

import numpy as np

from .clifford import build_clifford
from .composites import clifford_gap, gap_pair_with_bound, quadratic_gap
from .errors import JointSpecError, NumericalFailure
from .models import (EXAMPLE_NAMES, LatticeModelSpec, build_ssh_path,
                     scale_positions, write_csv, write_json)
from .states import kappa_sweep
from .sweep import (GridSpec, _check_epsilon, epsilon_mask, model_fingerprint,
                    spectral_flow, sweep_grid)
from .truncation import _check_rho, shift_to_origin, truncated_gap

_MODEL_DESCRIPTIONS = [
    ("pauli_pair", "2x2 Pauli pair (sigma_x, sigma_y); closed-form gaps"),
    ("pair_3x3", "3x3 pair whose sum X+iY has a nontrivial Jordan block"),
    ("pair_4x4", "4x4 real-diagonal X with purely imaginary Y; Z/2 sign index"),
    ("class_d_7", "7-site chain, real X and imaginary H; det(X+iH) sign index"),
    ("ssh", "dimerized hopping chain (v, w) with position X = diag(1..2n)"),
    ("ssh-path", "hopping interpolation v(t), w(t) swapping dimerization"),
    ("chern2d", "two-orbital Chern insulator on an open square lattice"),
]


def _atomic_write(path, writer):
    """Run `writer(tmp_path)` then rename over `path`."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.umask(umask := os.umask(0))  # read the umask: mkstemp's file is 0600
    os.fchmod(fd, 0o666 & ~umask)
    os.close(fd)
    try:
        writer(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _parse_lambda(text: str) -> np.ndarray:
    try:
        return np.array([float(x) for x in text.split(",")])
    except ValueError:
        raise JointSpecError(f"bad probe point {text!r}; expected e.g. 4,0") from None


def _parse_grid(args, t) -> GridSpec:
    """`--grid name=min:max:count,...` and `--fixed name=value,...` -> GridSpec.

    Both flags name a coordinate by the model's axis name, by its index, or,
    on an explicit model (axes x1, x2, ...), by x or y for x1 or x2.  Every
    coordinate neither swept nor fixed is held at 0.
    """
    names = t.meta["axis_names"]
    table = {name: j for j, name in enumerate(names)}
    table.update({alias: table[name] for alias, name in
                  (("x", "x1"), ("y", "x2")) if name in table})
    table.update({str(j): j for j in range(t.d_total)})
    given = {}
    for flag, text, form in (("grid", args.grid, "min:max:count"),
                             ("fixed", args.fixed or "", "value")):
        for part in filter(None, text.split(",")):
            key, eq, val = (s.strip() for s in part.partition("="))
            j = table.get(key)
            if j is None:
                raise JointSpecError(f"unknown {flag} axis {key!r}")
            if not (eq and val):
                raise JointSpecError(f"bad --{flag} entry {part!r}; "
                                     f"expected name={form}")
            if j in given:
                twice = "given twice" if given[j][0] == flag else "both swept and fixed"
                raise JointSpecError(f"coordinate {names[j]!r} is {twice}")
            given[j] = (flag, val)
    axes, fixed = [], {}
    for j in range(t.d_total):
        flag, val = given.get(j, ("fixed", "0"))
        if flag == "fixed":
            fixed[j] = float(val)
            continue
        pieces = val.split(":")
        if len(pieces) != 3:
            raise JointSpecError(f"bad axis range {val!r}; expected min:max:count")
        axes.append((float(pieces[0]), float(pieces[1]), int(pieces[2])))
    return GridSpec(axes=tuple(axes), fixed_coords=fixed)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="jointspec",
        description="Joint approximate spectra of non-commuting observables: "
                    "quadratic-composite and localizer gap computations.")
    p.add_argument("--accuracy", type=float, default=1e-9,
                   help="target accuracy for iterative eigensolvers")
    sub = p.add_subparsers(dest="command")

    def add_model_args(sp):
        sp.add_argument("--model", default=None,
                        help="built-in model name (see `examples`)")
        sp.add_argument("--model-config", default=None,
                        help="model config file (key=value text or .json)")
        sp.add_argument("--kappa", type=float, default=1.0,
                        help="position-block scale; probes are in scaled "
                             "units, but states reads --lambda unscaled")
        sp.add_argument("--param", action="append", default=[],
                        metavar="KEY=VAL", help="model parameter override")

    g = sub.add_parser("gap", help="both gap values at one probe point")
    add_model_args(g)
    g.add_argument("--lambda", dest="lam", required=True,
                   help="probe coordinates, comma separated")
    g.add_argument("--kind", choices=["quadratic", "clifford"], default=None,
                   help="compute a single gap flavor")
    g.add_argument("--json-out", default=None)

    s = sub.add_parser("sweep", help="gap values over a probe grid")
    add_model_args(s)
    s.add_argument("--grid", required=True,
                   help="axes as name=min:max:count, comma separated")
    s.add_argument("--kind", choices=["quadratic", "clifford"],
                   default="clifford")
    s.add_argument("--fixed", default=None,
                   help="fixed coordinates name=value, comma separated (default 0)")
    s.add_argument("--prune", type=float, default=None,
                   help="skip cells provably above this gap threshold")
    s.add_argument("--epsilon", type=float, default=None,
                   help="also report the sublevel-set cell count")
    s.add_argument("--workers", type=int, default=os.cpu_count() or 1,
                   help="accepted for compatibility; sweeps run in one thread")
    s.add_argument("--csv-out", default=None)
    s.add_argument("--pgm-out", default=None)
    s.add_argument("--json-out", default=None)

    f = sub.add_parser("flow", help="composite spectrum along the hopping path")
    f.add_argument("--model", default="ssh-path",
                   help="only the built-in interpolation path is supported")
    f.add_argument("--lambda", dest="lam", required=True)
    f.add_argument("--operator", dest="operator_kind", default="localizer",
                   choices=["quadratic", "quadratic_sqrt", "localizer",
                            "reduced", "reduced_localizer"])
    f.add_argument("--samples", type=int, default=101)
    f.add_argument("--csv-out", default=None)

    st = sub.add_parser("states", help="extract and profile a localized state")
    add_model_args(st)
    st.add_argument("--lambda", dest="lam", required=True)
    st.add_argument("--kappas", default=None,
                    help="comma-separated ladder; overrides --kappa")
    st.add_argument("--json-out", default=None)
    st.add_argument("--sites-csv-out", default=None,
                    help="site probabilities as a grid CSV (2D models)")

    tr = sub.add_parser("truncate", help="ball-truncated gap with certificate")
    add_model_args(tr)
    tr.add_argument("--lambda", dest="lam", required=True)
    tr.add_argument("--rho", required=True,
                    help="ball radius, or comma-separated ladder")
    tr.add_argument("--full", action="store_true",
                    help="also compute the untruncated reference gap")
    tr.add_argument("--json-out", default=None)

    ex = sub.add_parser("examples", help="list built-in models")
    ex.add_argument("--json", action="store_true", help="machine readable")

    r = sub.add_parser("run", help="execute a JSON run-config (recipe)")
    r.add_argument("config", help="path to a recipe JSON file")
    return p


def _resolve_model(args) -> LatticeModelSpec:
    """The --model or --model-config model with the --param overrides, which
    the spec converts and validates like any other parameter."""
    config = getattr(args, "model_config", None)
    if config:
        with open(config, "r", encoding="utf-8") as fh:
            text = fh.read()
        spec = (LatticeModelSpec.from_json(text) if config.endswith(".json")
                else LatticeModelSpec.from_text(text))
    else:
        name = (args.model or "").replace("-", "_")
        spec = LatticeModelSpec(
            kind=f"example:{name}" if name in EXAMPLE_NAMES else name)
    overrides = {}
    for override in getattr(args, "param", []):
        key, eq, val = override.partition("=")
        if not eq:
            raise JointSpecError(f"bad --param {override!r}; expected KEY=VAL")
        overrides[key] = val
    return dataclasses.replace(spec, parameters={**spec.parameters,
                                                 **overrides})


def _built_tuple(args):
    return scale_positions(_resolve_model(args).build(), args.kappa)


def _cmd_gap(args) -> int:
    t = _built_tuple(args)
    lam = _parse_lambda(args.lam)
    out = {"lambda": lam.tolist(), "model_fingerprint": model_fingerprint(t)}
    rep = build_clifford(t.d_total)
    start = time.monotonic()
    if args.kind == "quadratic":
        out["mu_q"] = quadratic_gap(t, lam, accuracy=args.accuracy)
    elif args.kind == "clifford":
        out["mu_c"] = clifford_gap(t, lam, rep, accuracy=args.accuracy)
    else:
        res = gap_pair_with_bound(t, lam, rep, accuracy=args.accuracy)
        out.update(mu_q=res.mu_q, mu_c=res.mu_c,
                   commutator_bound=res.commutator_bound)
    parts = [f"{k}={out[k]:.12g}" for k in ("mu_q", "mu_c", "commutator_bound")
             if k in out]
    print(f"gap lambda=({args.lam}) " + " ".join(parts)
          + f" time={round(time.monotonic() - start, 3)}s")
    if args.json_out:
        _atomic_write(args.json_out, lambda p: write_json(out, p))
    return 0


def _cmd_sweep(args) -> int:
    t = _built_tuple(args)
    spec = _parse_grid(args, t)
    if args.epsilon is not None:
        _check_epsilon(args.epsilon, args.prune)
    if args.pgm_out and len(spec.axes) != 2:
        raise JointSpecError("PGM preview requires a 2D grid")
    start = time.monotonic()
    grid = sweep_grid(t, spec, args.kind, pruning=args.prune,
                      accuracy=args.accuracy, workers=args.workers)
    wall = time.monotonic() - start
    finite = np.isfinite(grid.values)
    if not finite.any():
        raise NumericalFailure(
            f"no cell of the sweep has a value ({len(grid.failures)} failed, "
            f"{int(grid.skipped_mask.sum())} skipped)")
    argmin = np.unravel_index(np.nanargmin(np.where(finite, grid.values, np.inf)),
                              grid.values.shape)
    lam_min = spec.probe(t.d_total, argmin)
    print(f"sweep kind={args.kind} min={np.nanmin(grid.values):.6g} "
          f"argmin=({','.join(f'{c:g}' for c in lam_min.coords)}) "
          f"cells={grid.values.size} skipped={int(grid.skipped_mask.sum())} "
          f"time={wall:.1f}s")
    if args.epsilon is not None:
        count = int(epsilon_mask(grid, args.epsilon).sum())
        print(f"sublevel epsilon={args.epsilon:g} cells={count}")
    if grid.partial:
        print(f"warning: {len(grid.failures)} cells failed", file=sys.stderr)
    if args.csv_out:
        _atomic_write(args.csv_out, grid.to_csv)
    if args.pgm_out:
        _atomic_write(args.pgm_out, grid.to_pgm)
    if args.json_out:
        _atomic_write(args.json_out, grid.to_json)
    return 0


def _cmd_flow(args) -> int:
    if args.model.replace("-", "_") != "ssh_path":
        raise JointSpecError("flow currently supports --model ssh-path")
    lam = _parse_lambda(args.lam)
    kind = {"quadratic": "quadratic_sqrt", "reduced": "reduced_localizer"}.get(
        args.operator_kind, args.operator_kind)
    ts = np.linspace(0.0, 1.0, args.samples)
    table = spectral_flow(build_ssh_path, lam, ts, kind)
    mins = [min(abs(e) for e in spec) for spec in table.spectra]
    print(f"flow operator={kind} samples={args.samples} "
          f"min|eig|={min(mins):.6g}")
    if args.csv_out:
        _atomic_write(args.csv_out, table.to_csv)
    return 0


def _cmd_states(args) -> int:
    lam = _parse_lambda(args.lam)
    t = _resolve_model(args).build()  # unscaled: a ladder replaces --kappa
    if args.sites_csv_out and not t.meta.get("shape"):
        raise JointSpecError("site CSV output needs a 2D lattice model")
    kappas = ([float(x) for x in args.kappas.split(",")] if args.kappas
              else [args.kappa])
    reports = kappa_sweep(t, lam, kappas, accuracy=args.accuracy)
    for rep in reports:
        pos = ",".join(f"{x:.4g}" for x in rep.position_expectations)
        print(f"state kappa={rep.kappa:g} mu_q={rep.mu_q:.6g} "
              f"pos=({pos}) var_pos={rep.position_variances.sum():.4g} "
              f"E={rep.energy_expectation:.4g} var_E={rep.energy_variance:.4g}"
              + (" degenerate" if rep.degenerate else ""))
    if args.json_out:
        if len(reports) == 1:
            _atomic_write(args.json_out, reports[0].to_json)
        else:
            base, ext = os.path.splitext(args.json_out)
            for rep in reports:
                _atomic_write(f"{base}_kappa{rep.kappa:g}{ext}", rep.to_json)
    if args.sites_csv_out:
        rep = reports[-1]
        nx, ny = rep.site_shape
        probs = rep.site_probabilities.reshape(ny, nx)
        _atomic_write(args.sites_csv_out, lambda p: write_csv(
            p, f"# site_probability,kappa={rep.kappa:g}",
            ((ix, iy, probs[iy, ix]) for iy, ix in np.ndindex(ny, nx))))
    return 0


def _cmd_truncate(args) -> int:
    t = _built_tuple(args)
    lam = _parse_lambda(args.lam)
    rhos = [_check_rho(float(x)) for x in args.rho.split(",")]
    shifted = shift_to_origin(t, lam)
    mu_full = None
    if args.full:
        mu_full = quadratic_gap(t, lam, accuracy=args.accuracy)
        print(f"full mu_q={mu_full:.12g}")
    results = []
    for rho in rhos:
        value, cert = truncated_gap(shifted, rho, accuracy=args.accuracy,
                                    mu_full=mu_full)
        lo, hi = cert.full_gap_interval()
        results.append({"rho": rho, "value": value, "C": cert.C,
                        "valid": cert.valid, "interval_low": lo,
                        "interval_high": None if np.isinf(hi) else hi})
        print(f"truncated rho={rho:g} mu={value:.10g} C={cert.C:.4g} "
              f"interval=[{lo:.10g}, {hi:.10g}]"
              + ("" if cert.valid else " (C >= 1: upper bound vacuous)"))
    if args.json_out:
        _atomic_write(args.json_out, lambda p: write_json(
            {"lambda": lam.tolist(), "mu_full": mu_full,
             "ladder": results}, p))
    return 0


def _cmd_examples(args) -> int:
    if args.json:
        print(json.dumps([{"name": n, "description": d}
                          for n, d in _MODEL_DESCRIPTIONS], indent=1))
    else:
        for name, desc in _MODEL_DESCRIPTIONS:
            print(f"{name:12s} {desc}")
    return 0


def _cmd_run(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    command = doc.get("command")
    if command not in ("gap", "sweep", "flow", "states", "truncate"):
        raise JointSpecError(f"recipe has unknown command {command!r}")
    argv = [command]
    for key, val in doc.get("arguments", {}).items():
        flag = "--" + key.replace("_", "-")
        if isinstance(val, bool):
            if val:
                argv.append(flag)
        elif isinstance(val, list):
            for item in val:
                argv.extend([flag, str(item)])
        else:
            argv.extend([flag, str(val)])
    return main(argv)


_HANDLERS = {
    "gap": _cmd_gap,
    "sweep": _cmd_sweep,
    "flow": _cmd_flow,
    "states": _cmd_states,
    "truncate": _cmd_truncate,
    "examples": _cmd_examples,
    "run": _cmd_run,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    try:
        return _HANDLERS[args.command](args)
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (JointSpecError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
