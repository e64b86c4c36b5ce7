"""The workloads (`sweeps`, `chern_certify`) and the three parts of
`sweeps`.  Each is a closed loop: the next call into `jointspec` is issued
only after the previous one returned.

A workload draws all of its inputs from the seed when it is created
(sub-cell offsets of its grids, probe samples, oracle samples; seed 0 keeps
the recipe grids exactly), builds its model in `setup()`, repeats identical
passes with `run_pass()`, and verifies one pass with `check()` outside the
timed region; `check()` returns how many planted faults its self-test fed
into the checks and how many were caught.  `run_pass()` returns the seconds
spent inside the library, the number of operations issued, the values, the
named figures of the pass, and under "bytes" the outputs that
`sweep.nonrepeat_cells` compares between two identical passes (the Chern
row's cells and probes on `sweeps`, every value on `chern_certify`).
"""

from __future__ import annotations

import contextlib
import io
import os
import time

import numpy as np

import oracle

ACCURACY = 1e-9  # the library's and the CLI's default accuracy
NPROC = os.cpu_count() or 1


def _offset_axis(rng, seed, lo, hi, count):
    """Shift an axis by a seeded fraction of its step (none for seed 0)."""
    if seed == 0:
        return lo, hi, count
    shift = (rng.random() - 0.5) * (hi - lo) / (count - 1)
    return lo + shift, hi + shift, count


def _axis_arg(name, lo, hi, count):
    return f"{name}={lo!r}:{hi!r}:{count}"


def _read_csv(path):
    """Values column of a grid CSV and its raw rows."""
    with open(path, encoding="ascii") as fh:
        rows = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
    return np.array([float(r.rsplit(",", 1)[1]) for r in rows]), rows


def _cli(js, argv):
    """jointspec's CLI in this process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = js.cli.main(argv)
    return rc, out.getvalue()


class Workload:
    name = ""

    def __init__(self, js, seed, workdir):
        self.js = js
        self.workdir = workdir
        self.rng = np.random.default_rng(seed)

    def setup(self):
        raise NotImplementedError

    def run_pass(self):
        raise NotImplementedError

    def check(self, out, checks):
        raise NotImplementedError

    def traced_extra(self):
        """Extra work run only in the traced run (per-layer metrics)."""

    def _timed(self, fn, *args, **kwargs):
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        return result, time.perf_counter() - start


class SshMaps(Workload):
    name = "ssh_maps"

    KINDS = ("clifford", "quadratic")
    CELLS = 51  # per axis: every other point of the recipes' 101

    def __init__(self, js, seed, workdir):
        super().__init__(js, seed, workdir)
        self.x_axis = _offset_axis(self.rng, seed, 0.0, 9.0, self.CELLS)
        self.e_axis = _offset_axis(self.rng, seed, -3.0, 3.0, self.CELLS)
        self.sample = self.rng.choice(self.CELLS ** 2, size=12, replace=False)

    def setup(self):
        spec = self.js.LatticeModelSpec(kind="ssh")
        self.t = spec.build()
        self.js.model_fingerprint(self.t)

    def argv(self, kind, workers=None):
        base = os.path.join(self.workdir, f"ssh_{kind}")
        argv = ["sweep", "--model", "ssh", "--grid",
                _axis_arg("x", *self.x_axis) + "," + _axis_arg("E", *self.e_axis),
                "--kind", kind, "--csv-out", base + ".csv",
                "--pgm-out", base + ".pgm"]
        if workers is not None:
            argv += ["--workers", str(workers)]
        return argv

    def run_pass(self, workers=None):
        secs, values, failed = 0.0, {}, 0
        for kind in self.KINDS:
            (rc, _), dt = self._timed(_cli, self.js, self.argv(kind, workers))
            secs += dt
            failed += rc != 0
            values[kind] = _read_csv(
                os.path.join(self.workdir, f"ssh_{kind}.csv"))[0]
        cells = 2 * self.CELLS ** 2
        failed += sum(int(np.isnan(v).sum()) for v in values.values())
        return {"seconds": secs, "ops": cells, "failed": failed,
                "values": values,
                "named": {"cells_per_s": (cells / secs, "1/s")}}

    def check(self, out, checks):
        ops = oracle.ssh_ops()
        xs = np.linspace(*self.x_axis)
        es = np.linspace(*self.e_axis)
        lams = [(xs[i // self.CELLS], es[i % self.CELLS]) for i in self.sample]
        for kind in self.KINDS:
            for i, lam in zip(self.sample, lams):
                checks.gap(kind, out["values"][kind][i], ops, lam,
                           f"ssh {kind} cell {i}")
        bound = oracle.commutator_norm(ops[0], ops[1])
        checks.pair_bound(out["values"]["quadratic"], out["values"]["clifford"],
                          bound, "ssh maps")
        i = self.sample[0]
        vals = out["values"]["clifford"]
        return oracle.self_test(ACCURACY, ops, lams[0], "clifford", vals[i],
                                values=vals, eps=float(np.median(vals)))

    def traced_extra(self):
        """Both maps again with one worker, for sweep.parallel_speedup."""
        self.run_pass(workers=1)


class ChernSlice(Workload):
    name = "chern_slice"

    NX = 20
    KAPPA = 0.5
    CELLS = 21  # every other point of the recipe's 41-point x axis
    PROBES = 50  # two passes, the fewest a run makes, hold ten beyond p90

    def __init__(self, js, seed, workdir):
        super().__init__(js, seed, workdir)
        self.x_axis = _offset_axis(self.rng, seed, -4.75, 4.75, self.CELLS)
        # the recipe's middle row, y = 0, offset like the rest of its grid
        self.y_row = _offset_axis(self.rng, seed, -4.75, 4.75, 41)[0] + 4.75
        self.probes = [np.array([x, y, 0.0]) for x, y in
                       self.rng.uniform(-4.75, 4.75, size=(self.PROBES, 2))]
        self.cell_sample = self.rng.choice(self.CELLS, size=2, replace=False)
        self.probe_sample = self.rng.choice(self.PROBES, size=1, replace=False)

    def setup(self):
        js = self.js
        self.t = js.scale_positions(js.build_chern2d(self.NX, self.NX), self.KAPPA)
        js.model_fingerprint(self.t)
        self.rep = js.build_clifford(3)

    def band(self):
        return self.js.GridSpec(axes=(self.x_axis,),
                                fixed_coords={1: self.y_row, 2: 0.0})

    def run_pass(self):
        js = self.js
        spec = self.band()
        values, rows, sweep_s = {}, [], 0.0
        for kind in ("clifford", "quadratic"):
            path = os.path.join(self.workdir, f"band_{kind}.csv")
            start = time.perf_counter()
            grid = js.sweep_grid(self.t, spec, kind, rep=self.rep,
                                 accuracy=ACCURACY, workers=NPROC)
            grid.to_csv(path)
            sweep_s += time.perf_counter() - start
            values[kind] = grid.values.copy()
            rows += _read_csv(path)[1]
        probe_ms, pq, pc = [], [], []
        for lam in self.probes:
            start = time.perf_counter()
            pq.append(js.quadratic_gap(self.t, lam, accuracy=ACCURACY))
            pc.append(js.clifford_gap(self.t, lam, self.rep, accuracy=ACCURACY))
            probe_ms.append(1e3 * (time.perf_counter() - start))
        values["probe_q"], values["probe_c"] = np.array(pq), np.array(pc)
        rows += [f"{q!r},{c!r}" for q, c in zip(pq, pc)]
        cells = 2 * spec.shape[0]
        failed = sum(int(np.isnan(v).sum()) for v in values.values())
        return {"seconds": sweep_s + 1e-3 * sum(probe_ms),
                "ops": cells + 2 * len(self.probes), "failed": failed,
                "bytes": rows, "values": values, "probe_ms": probe_ms,
                "named": {"cells_per_s": (cells / sweep_s, "1/s")}}

    def check(self, out, checks):
        ops = oracle.chern_ops(self.NX, self.NX, self.KAPPA)
        xs = np.linspace(*self.x_axis)
        v = out["values"]
        for kind in ("clifford", "quadratic"):
            for i in self.cell_sample:
                checks.gap(kind, v[kind][i], ops, (xs[i], self.y_row, 0.0),
                           f"chern_slice {kind} cell {i}")
        for i in self.probe_sample:
            checks.gap("quadratic", v["probe_q"][i], ops, self.probes[i],
                       f"chern_slice probe {i}")
            checks.gap("clifford", v["probe_c"][i], ops, self.probes[i],
                       f"chern_slice probe {i}")
        bound = oracle.bound_2d(ops)
        checks.pair_bound(v["quadratic"], v["clifford"], bound, "chern_slice band")
        checks.pair_bound(v["probe_q"], v["probe_c"], bound, "chern_slice probes")
        i = self.cell_sample[0]
        return oracle.self_test(ACCURACY, ops, (xs[i], self.y_row, 0.0),
                                "clifford", v["clifford"][i],
                                values=v["clifford"],
                                eps=float(np.median(v["clifford"])))

    def traced_extra(self):
        """The band once more with one worker, for sweep.parallel_speedup."""
        for kind in ("clifford", "quadratic"):
            self.js.sweep_grid(self.t, self.band(), kind, rep=self.rep,
                               accuracy=ACCURACY, workers=1)


class ChernEpsSet(Workload):
    name = "chern_eps_set"

    NX = 12
    KAPPA = 0.5
    EPS = 0.3
    CELLS = 25  # per axis; the oracle evaluates every skipped cell

    def __init__(self, js, seed, workdir):
        super().__init__(js, seed, workdir)
        self.x_axis = _offset_axis(self.rng, seed, -3.25, 3.25, self.CELLS)
        self.y_axis = _offset_axis(self.rng, seed, -3.25, 3.25, self.CELLS)
        self.sample = self.rng.choice(self.CELLS ** 2, size=4, replace=False)
        self.json = os.path.join(self.workdir, "eps_set.json")

    def setup(self):
        js = self.js
        spec = js.LatticeModelSpec(kind="chern2d",
                                   parameters={"nx": self.NX, "ny": self.NX})
        js.model_fingerprint(js.scale_positions(spec.build(), self.KAPPA))

    def run_pass(self):
        import json
        argv = ["sweep", "--model", "chern2d", "--param", f"nx={self.NX}",
                "--param", f"ny={self.NX}", "--kappa", str(self.KAPPA),
                "--grid", _axis_arg("x", *self.x_axis) + ","
                + _axis_arg("y", *self.y_axis),
                "--kind", "clifford", "--prune", str(self.EPS),
                "--epsilon", str(self.EPS), "--json-out", self.json]
        (rc, text), secs = self._timed(_cli, self.js, argv)
        with open(self.json, encoding="ascii") as fh:
            doc = json.load(fh)
        values = np.array([[np.nan if x is None else x for x in row]
                           for row in doc["values"]], dtype=float)
        skipped = np.array(doc["skipped_mask"], dtype=bool)
        reported = [ln for ln in text.splitlines() if ln.startswith("sublevel")]
        cells = values.size
        failed = (rc != 0) + int((np.isnan(values) & ~skipped).sum())
        return {"seconds": secs, "ops": cells, "failed": failed,
                "values": values, "skipped": skipped,
                "reported": reported,
                "named": {"cells_per_s": (cells / secs, "1/s")}}

    def check(self, out, checks):
        ops = oracle.chern_ops(self.NX, self.NX, self.KAPPA)
        xs, ys = np.linspace(*self.x_axis), np.linspace(*self.y_axis)
        values, skipped = out["values"], out["skipped"]
        lam = lambda i, j: (xs[i], ys[j], 0.0)  # noqa: E731
        evaluated = np.flatnonzero(~skipped.ravel())
        for flat in self.sample:
            flat = evaluated[flat % evaluated.size]
            i, j = divmod(int(flat), self.CELLS)
            checks.gap("clifford", values[i, j], ops, lam(i, j),
                       f"eps_set cell {(i, j)}")
        # the unpruned reference: the evaluated cells' values, and the
        # reference gap at every skipped cell
        reference = values.copy()
        for i, j in zip(*np.nonzero(skipped)):
            reference[i, j] = oracle.mu_c(ops, lam(i, j))[0]
        checks.epsilon_set(values, skipped, reference, self.EPS, "eps_set")
        count = int(((values <= self.EPS) & ~skipped).sum())
        checks.expect(out["reported"] == [f"sublevel epsilon={self.EPS:g} "
                                          f"cells={count}"],
                      f"eps_set: CLI reported {out['reported']}, mask has {count}")
        i, j = divmod(int(evaluated[self.sample[0] % evaluated.size]), self.CELLS)
        return oracle.self_test(ACCURACY, ops, lam(i, j), "clifford",
                                values[i, j], values=reference, eps=self.EPS)


class ChernCertify(Workload):
    name = "chern_certify"

    NX = 70
    PROBES = 3  # averages out how a probe's offset changes the solver's work
    RHOS = (5.0, 10.0, 15.0, 20.0)
    STATE_KAPPA = 0.5

    def __init__(self, js, seed, workdir):
        super().__init__(js, seed, workdir)
        # the recipe's probe, the origin, offset by the seed within +-0.25
        offsets = self.rng.uniform(-0.25, 0.25, (self.PROBES, 2))
        if seed == 0:
            offsets[0] = 0.0
        self.lams = [np.array([x, y, 0.0]) for x, y in offsets]
        edge = (self.NX - 1) / 2.0 - 0.5
        self.state_lam = np.array([edge, 0.0, 0.0])

    def setup(self):
        js = self.js
        self.t = js.build_chern2d(self.NX, self.NX)
        js.model_fingerprint(self.t)
        self.rep = js.build_clifford(3)

    def run_pass(self):
        js, t = self.js, self.t
        pair_s = ladder_s = 0.0
        probes = []
        start = time.perf_counter()
        for lam in self.lams:
            t0 = time.perf_counter()
            mq = js.quadratic_gap(t, lam, accuracy=ACCURACY)
            mc = js.clifford_gap(t, lam, self.rep, accuracy=ACCURACY)
            t1 = time.perf_counter()
            shifted = js.shift_to_origin(t, lam)
            ladder = [js.truncated_gap(shifted, rho, accuracy=ACCURACY,
                                       mu_full=mq) for rho in self.RHOS]
            pair_s += t1 - t0
            ladder_s += time.perf_counter() - t1
            probes.append((mq, mc, ladder))
        t2 = time.perf_counter()
        bound = js.commutator_bound_2d(t)
        t3 = time.perf_counter()
        report = js.extract_state(js.ScaledTuple(t, self.STATE_KAPPA),
                                  self.state_lam, accuracy=ACCURACY)
        t4 = time.perf_counter()
        values = np.array([bound, report.mu_q] + [
            x for mq, mc, ladder in probes for x in [mq, mc] + [v for v, _ in ladder]])
        k = len(self.lams)
        return {"seconds": t4 - start, "ops": 2 + k * (2 + len(self.RHOS)),
                "failed": int(np.isnan(values).sum()),
                "bytes": [x.tobytes() for x in values]
                         + [x.tobytes() for x in report.state.vec],
                "values": values, "probes": probes, "bound": bound,
                "report": report,
                "named": {"gap_pair_s": (pair_s / k, "s"),
                          "bound_s": (t3 - t2, "s"),
                          "ladder_s": (ladder_s / k, "s"),
                          "state_s": (t4 - t3, "s")}}

    def check(self, out, checks):
        from jointspec.states import check_identity
        from jointspec.errors import NumericalFailure
        ops = oracle.chern_ops(self.NX, self.NX)
        bound = out["bound"]
        ref_bound = oracle.bound_2d(ops)
        checks.expect(abs(bound - ref_bound) <= 1e-6 * ref_bound,
                      f"certify: bound {bound!r} vs reference {ref_bound!r}")
        for i, (lam, (mq, mc, ladder)) in enumerate(zip(self.lams, out["probes"])):
            if i == 0:  # the independent shift-invert costs ~1.5 s a probe
                checks.gap("quadratic", mq, ops, lam, "certify mu_q")
                checks.gap("clifford", mc, ops, lam, "certify mu_c")
            checks.pair_bound(mq, mc, bound, f"certify probe {i}")
            for rho, (value, cert) in zip(self.RHOS, ladder):
                lo, hi = cert.full_gap_interval()
                checks.interval(lo, hi, mq, f"certify probe {i} rho={rho:g}")
                if rho <= 10:
                    ref, scale = oracle.truncated_mu(ops, lam, rho)
                    checks.expect(abs(value * value - ref * ref)
                                  <= checks.tol_sq(ref * ref, scale),
                                  f"certify probe {i} rung rho={rho:g}: "
                                  f"{value!r} vs {ref!r}")
        try:
            check_identity(out["report"])
            ok = True
        except NumericalFailure:
            ok = False
        checks.expect(ok, "certify: extracted-state identity violated")
        mq, _, ladder = out["probes"][0]
        lo, hi = ladder[-1][1].full_gap_interval()
        return oracle.self_test(ACCURACY, ops, self.lams[0], "quadratic", mq,
                                interval=(lo, hi, mq))


class Sweeps(Workload):
    """SshMaps, ChernSlice and ChernEpsSet as the three parts of one pass."""

    name = "sweeps"
    PARTS = (SshMaps, ChernSlice, ChernEpsSet)

    def __init__(self, js, seed, workdir):
        super().__init__(js, seed, workdir)
        self.parts = [part(js, seed, workdir) for part in self.PARTS]

    def setup(self):
        for part in self.parts:
            part.setup()

    def run_pass(self):
        out = {"seconds": 0.0, "ops": 0, "failed": 0,
               "values": {}, "named": {}, "parts": {}}
        for part in self.parts:
            res = part.run_pass()
            out["parts"][part.name] = res
            for key in ("seconds", "ops", "failed"):
                out[key] += res[key]
            out["values"][part.name] = res["values"]
            for key, val in res["named"].items():
                out["named"][f"{part.name}.{key}"] = val
            if part.name == "chern_slice":
                # its band cells and probes, for sweep.nonrepeat_cells
                out["bytes"] = res["bytes"]
                out["probe_ms"] = res["probe_ms"]
        return out

    def check(self, out, checks):
        planted = caught = 0
        for part in self.parts:
            p, c = part.check(out["parts"][part.name], checks)
            planted, caught = planted + p, caught + c
        return planted, caught

    def traced_extra(self):
        for part in self.parts:
            part.traced_extra()


WORKLOADS = {w.name: w for w in (Sweeps, ChernCertify)}
