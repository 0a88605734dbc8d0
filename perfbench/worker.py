"""Benchmark worker: runs one workload's operations against flatpoly.

Started by run.py in a fresh interpreter per workload, with the generated
inputs as its only input (for plan_solve, the list of model files run.py
wrote into DIR):

    python3 perfbench/worker.py --inputs IN.json --workdir DIR --seconds S
        --trace 0|1 [--setup-only]

--setup-only stops after the first (warm-up) operation and prints the
process's CPU time so far and the speed probe's time; run.py takes setup_s
from such processes.  Otherwise the worker repeats whole passes over the
inputs (one closed loop, or one solve of every model file) until --seconds
have passed, and writes DIR/result.json; with --trace 1 it spends half the
time untraced and half traced, and also writes DIR/spans.json.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import resource
import sys
import time
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from flatpoly import cli, pmsm_sim  # noqa: E402

from spans import SpanRecorder  # noqa: E402

#: Ops and spans are timed in this thread's CPU time.  The worker is single
#: threaded, so on a dedicated core this equals wall time; on a shared
#: machine it leaves out the time other tenants' processes held the core.
CLOCK = time.thread_time

# Module-level names that pmsm_sim and cli look up at call time, mapped to
# the layer they belong to.  Wrapping them times each call from outside.
PMSM_NAMES = {
    "pmsm_linearize": "pmsm_sim.pmsm_linearize",
    "pmsm_cost": "pmsm_sim.pmsm_cost",
    "pmsm_constraints": "pmsm_sim.pmsm_constraints",
    "step_plant": "pmsm_sim.step_plant",
    "pi_speed_controller": "pmsm_sim.pi_speed_controller",
    "LtiSystem": "flat.lti_build",
    "QuadraticCostSpec": "flat.spec_build",
    "LinearConstraintSpec": "flat.spec_build",
    "flat_transform": "flat.flat_transform",
    "parameterize_outputs": "polybasis.parameterize_outputs",
    "parameterize_states_inputs": "polybasis.parameterize_states_inputs",
    "condition_cost": "costcond.condition_cost",
    "least_distance_transform": "costcond.least_distance_transform",
    "condition_constraints": "polyconstraint.condition_constraints",
    "compute_delta": "polyconstraint.compute_delta",
    "solve_qp": "solver.solve_qp",
    "solve_lp": "solver.solve_lp",
}
CLI_NAMES = {
    name: layer for name, layer in PMSM_NAMES.items()
    if not layer.startswith("pmsm_sim.")
}
CLI_NAMES["suboptimality_report"] = "cli.suboptimality_report"

#: Exit code recorded for a solve that raised instead of returning.
EXIT_RAISED = -1

#: Repetitions of the speed probe's body, about 0.25 ms of CPU in all.
PROBE_REPS = 10
#: Probes a --setup-only worker runs after its first op; it reports their
#: median.
SETUP_PROBES = 31


class SpeedProbe:
    """Times a fixed mix of small numpy calls and Python object work, the
    kind of work a planning step does, without touching flatpoly.

    Run right before every timed op, it tells how fast the machine is at
    that moment; run.py scales op times by it.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.A = rng.standard_normal((8, 8)) + 8.0 * np.eye(8)
        self.times = []

    def __call__(self):
        A = self.A
        t0 = CLOCK()
        acc = 0.0
        for i in range(PROBE_REPS):
            M = np.array([[float(i), 1.0], [0.5, 2.0]])
            B = A @ A.T
            x = np.linalg.solve(A, B[:, 0])
            acc += float(np.einsum("ij,ij->", B, B)) + float(x @ x)
            rows = [(k, float(k) * 0.5) for k in range(20)]
            acc += sum(v for _, v in rows) + M[0, 0]
        self.times.append(CLOCK() - t0)
        return acc


def _rows_attrs(args, kwargs, acs):
    return {"rows": int(acs.G.shape[0])}


def _solve_attrs(args, kwargs, res):
    ldp = args[0] if args else kwargs["ldp"]
    warm = kwargs.get("warm_start", args[2] if len(args) > 2 else None)
    return {"iters": int(res.iterations), "rows_in": int(ldp.G.shape[0]),
            "optimal": res.status == "optimal", "warm": warm is not None}


ATTRS = {
    "condition_constraints": _rows_attrs,
    "solve_qp": _solve_attrs,
    "solve_lp": _solve_attrs,
}


@contextlib.contextmanager
def patched(module, replacements):
    """Temporarily replace module-level names; restore them on exit."""
    saved = {name: getattr(module, name) for name in replacements}
    try:
        for name, fn in replacements.items():
            setattr(module, name, fn)
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def _traced_names(module, names, rec):
    return {name: rec.wrap(layer, getattr(module, name), ATTRS.get(name))
            for name, layer in names.items()}


class PmsmRunner:
    """One op is one control step; one pass is one closed loop."""

    def __init__(self, doc):
        self.scenario = pmsm_sim.Scenario(**doc["scenario"])
        self.params = pmsm_sim.PmsmParams(**doc["machine"])
        self.kind = doc["solver"]

    def warm_up(self):
        one_step = dataclasses.replace(self.scenario,
                                       duration=self.scenario.dt)
        pmsm_sim.run_closed_loop(one_step, self.kind, self.params)

    def _loop(self):
        return pmsm_sim.run_closed_loop(self.scenario, self.kind, self.params)

    def run_pass(self, rec=None, probe=None):
        """Returns (latencies_s, output digest, outputs).

        Untraced, each step is timed from its first call into the loop body
        (pi_speed_controller) to the next step's; the probe runs in between,
        outside both.
        """
        pi = pmsm_sim.pi_speed_controller
        if rec is None:
            starts, ends = [], []

            def stamped(*args, **kwargs):
                if starts:
                    ends.append(CLOCK())
                probe()
                starts.append(CLOCK())
                return pi(*args, **kwargs)

            with patched(pmsm_sim, {"pi_speed_controller": stamped}):
                trace = self._loop()
            ends.append(CLOCK())
            lat = [b - a for a, b in zip(starts, ends)]
        else:
            names = _traced_names(pmsm_sim, PMSM_NAMES, rec)
            traced_pi = names["pi_speed_controller"]

            def step_start(*args, **kwargs):
                rec.begin_op("pmsm_sim.step")
                return traced_pi(*args, **kwargs)

            names["pi_speed_controller"] = step_start
            first = len(rec.spans)
            with patched(pmsm_sim, names):
                trace = self._loop()
            rec.end_op()
            lat = [s[2] - s[1] for s in rec.spans[first:]
                   if s[0] == "pmsm_sim.step"]
        rows = [[r.t, r.i_d, r.i_q, r.v_d, r.v_q, r.omega, r.tau, r.tau_ref,
                 r.J, r.iterations, r.status] for r in trace]
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        return lat, digest, {"trace": rows}


class PlanRunner:
    """One op is one `flatpoly solve --solver both`; one pass solves all."""

    def __init__(self, doc, workdir):
        self.models = [str(workdir / name) for name in doc["model_files"]]
        self.outs = [workdir / f"solution-{i:04d}.json"
                     for i in range(len(self.models))]

    def _solve(self, i):
        argv = ["solve", "--model", self.models[i], "--solver", "both",
                "--out", str(self.outs[i])]
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                return cli.main(argv)
        except Exception:  # an op that raises counts as failed, not fatal
            return EXIT_RAISED

    def warm_up(self):
        self._solve(0)

    def run_pass(self, rec=None, probe=None):
        lat, codes = [], []
        h = hashlib.sha256()
        names = {} if rec is None else _traced_names(cli, CLI_NAMES, rec)
        with patched(cli, names):
            for i in range(len(self.models)):
                if rec is None:
                    probe()
                else:
                    rec.begin_op("cli.main")
                t0 = CLOCK()
                code = self._solve(i)
                lat.append(CLOCK() - t0)
                if rec is not None:
                    rec.end_op()
                codes.append(code)
                h.update(f"{i}:{code}\n".encode())
                if code in (cli.EXIT_OK, cli.EXIT_SOLVE_FAILED):
                    h.update(self.outs[i].read_bytes())
                if code == cli.EXIT_OK:
                    h.update(self.outs[i].with_suffix(".csv").read_bytes())
        return lat, h.hexdigest(), {"codes": codes}


def measure(runner, seconds, rec=None):
    """Whole passes until `seconds` have elapsed (at least one).

    Every pass runs the same ops in the same order, so latencies_s[p][i]
    is op i of pass p.  Untraced, probe_s[p][i] is the speed probe run
    right before it.  Each pass's wall time is kept too.
    """
    lat, probes, walls, digests, outputs = [], [], [], [], None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        probe = SpeedProbe()
        pass_lat, digest, out = runner.run_pass(rec, probe)
        walls.append(time.perf_counter() - t0)
        lat.append(pass_lat)
        probes.append(probe.times)
        digests.append(digest)
        outputs = outputs or out
        if time.perf_counter() - start >= seconds:
            break
    return {"latencies_s": lat, "probe_s": probes, "pass_wall_s": walls,
            "digests": digests, "passes": len(digests), "outputs": outputs}


def main(argv=None):
    ap = argparse.ArgumentParser(description="flatpoly benchmark worker")
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    # flatpoly warns once per call site about high-degree bases; the
    # benchmark keeps that output off the timed path on every pass alike.
    warnings.simplefilter("ignore")

    workdir = Path(args.workdir)
    with open(args.inputs, encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc["workload"] == "plan_solve":
        runner = PlanRunner(doc, workdir)
    else:
        runner = PmsmRunner(doc)
    runner.warm_up()
    if args.setup_only:
        setup_cpu_s = time.process_time()
        probe = SpeedProbe()
        for _ in range(SETUP_PROBES):
            probe()
        print(json.dumps({"setup_cpu_s": setup_cpu_s,
                          "probe_s": sorted(probe.times)[SETUP_PROBES // 2]}))
        return 0

    budget = args.seconds / 2 if args.trace else args.seconds
    result = {"untraced": measure(runner, budget)}
    if args.trace:
        rec = SpanRecorder(CLOCK)
        traced = measure(runner, budget, rec)
        del traced["outputs"]
        result["traced"] = traced
        with open(workdir / "spans.json", "w", encoding="utf-8") as fh:
            json.dump(rec.spans, fh)
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    with open(workdir / "result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
