"""flatpoly benchmark: one command per workload run.

    python3 perfbench/run.py --workload pmsm_qp|pmsm_lp|plan_solve
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The launcher generates the workload's
inputs from the seed (gen.py, numpy only), times fresh worker processes up
to their first operation for setup_s, runs one worker process for the
measurement, checks its outputs (checks.py), prints a readable report and,
as the last line of standard output, one JSON object with the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1).

Workers run single-threaded: BLAS and OpenMP pools are pinned to one thread.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

#: Fresh worker processes timed up to their first operation; setup_s is
#: their median.
SETUP_RUNS = 5

#: Times are scaled to a machine on which the worker's speed probe takes
#: this long (its median on a 2.1 GHz Xeon VM).  Op times are scaled by the
#: median probe time of their block of consecutive ops.
PROBE_NOMINAL_S = 2.5e-4
PROBE_BLOCK = 50

#: Workers that have not finished after this long are stopped, so that a
#: run ends within three minutes.
SETUP_TIMEOUT_S = 8.0
MEASURE_TIMEOUT_S = 130.0

END_TO_END = {
    "latency_ms_p50": "ms",
    "latency_ms_p95": "ms",
    "throughput_ops_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "solved_frac": "share",
    "sound_frac": "share",
}

#: Timed layers: span name -> per-layer metric.
LAYER_TIMES = {
    "pmsm_sim.pmsm_linearize": "pmsm_sim.pmsm_linearize_us",
    "pmsm_sim.pmsm_cost": "pmsm_sim.pmsm_cost_us",
    "pmsm_sim.pmsm_constraints": "pmsm_sim.pmsm_constraints_us",
    "pmsm_sim.step_plant": "pmsm_sim.step_plant_us",
    "flat.lti_build": "flat.lti_build_us",
    "flat.spec_build": "flat.spec_build_us",
    "flat.flat_transform": "flat.flat_transform_us",
    "polybasis.parameterize_outputs": "polybasis.parameterize_outputs_us",
    "polybasis.parameterize_states_inputs":
        "polybasis.parameterize_states_inputs_us",
    "costcond.condition_cost": "costcond.condition_cost_us",
    "costcond.least_distance_transform":
        "costcond.least_distance_transform_us",
    "polyconstraint.condition_constraints":
        "polyconstraint.condition_constraints_us",
    "polyconstraint.compute_delta": "polyconstraint.compute_delta_us",
    "solver.solve_qp": "solver.solve_qp_us",
    "solver.solve_lp": "solver.solve_lp_us",
    "cli.suboptimality_report": "cli.suboptimality_report_us",
}
#: Self time of each operation span, outside all its child spans.
OP_SELF = {"pmsm_sim.step": "pmsm_sim.plan_self_us",
           "cli.main": "cli.self_us"}
PER_LAYER_COUNTS = {
    "polyconstraint.rows": "count",
    "solver.qp_iters_mean": "count",
    "solver.qp_iters_max": "count",
    "solver.qp_warm_zero_frac": "share",
    "solver.lp_iters_mean": "count",
    "solver.lp_iters_max": "count",
    "solver.rows_in": "count",
    "solver.nonoptimal": "count",
    "trace.overhead_ops_s": "1/s",
}


def _worker(args, env, timeout):
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    return subprocess.run(cmd, env=env, cwd=ROOT, timeout=timeout,
                          capture_output=True, text=True)


def _setup_seconds(base_args, env):
    """Per fresh worker, from its start through its first operation: the
    scaled CPU seconds, the raw CPU seconds and the wall seconds to exit."""
    scaled, cpu, wall = [], [], []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = _worker(base_args + ["--setup-only"], env, SETUP_TIMEOUT_S)
        wall.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup worker failed:\n{proc.stderr}")
        out = json.loads(proc.stdout)
        cpu.append(out["setup_cpu_s"])
        scaled.append(out["setup_cpu_s"] * PROBE_NOMINAL_S / out["probe_s"])
    return scaled, cpu, wall


def _worker_inputs(doc, workdir):
    """The worker's input document.  plan_solve models go to files of their
    own, as `flatpoly solve` reads them, so that setup_s does not include
    writing them."""
    if doc["workload"] != "plan_solve":
        return doc
    names = []
    for i, inst in enumerate(doc["instances"]):
        names.append(f"model-{i:04d}.json")
        (workdir / names[-1]).write_text(json.dumps(inst["model"]))
    return {"workload": doc["workload"], "model_files": names}


def _scaled(latencies, probes):
    """One pass's op times scaled to the nominal machine speed."""
    out = []
    for k in range(0, len(latencies), PROBE_BLOCK):
        factor = PROBE_NOMINAL_S / statistics.median(
            probes[k:k + PROBE_BLOCK])
        out += [x * factor for x in latencies[k:k + PROBE_BLOCK]]
    return out


def _latency_metrics(phase):
    """Percentiles over ops of each op's median scaled latency across
    passes, and the median over passes of ops per scaled CPU second.

    Every pass repeats the same ops, so taking each op's median first
    keeps a burst of load from other processes, which hits one pass, out
    of the percentiles.  Raw CPU and wall throughput are diagnostics; the
    traced phase has no probes and only those.
    """
    raw = phase["latencies_s"]
    out = {
        "samples": sum(map(len, raw)),
        "throughput_raw_ops_s": statistics.median(len(p) / sum(p)
                                                  for p in raw),
        "throughput_wall_ops_s": statistics.median(
            len(p) / w for p, w in zip(raw, phase["pass_wall_s"])),
    }
    if not phase["probe_s"][0]:
        return out
    passes = [_scaled(p, q) for p, q in zip(raw, phase["probe_s"])]
    lat = [statistics.median(op) * 1e3 for op in zip(*passes)]
    pct = statistics.quantiles(lat, n=100, method="inclusive")
    out.update({
        "latency_ms_p50": pct[49],
        "latency_ms_p95": pct[94],
        "latency_ms_p99": pct[98],
        "latency_ms_max": max(lat),
        "throughput_ops_s": statistics.median(len(p) / sum(p)
                                              for p in passes),
        "probe_ms": statistics.median(
            x for q in phase["probe_s"] for x in q) * 1e3,
    })
    return out


def evaluate_pmsm(doc, outputs, passes):
    """(attempted, failed, gated metrics, diagnostics, problems) of a
    closed-loop run; one op is one step."""
    import checks

    steps, problems, rms = checks.check_pmsm(
        outputs["trace"], doc["scenario"], doc["machine"])
    n = len(steps)
    solved = [not any(p.startswith("fallback") for p in ps) for ps in steps]
    sound = [ok and not ps for ok, ps in zip(solved, steps)]
    failed = sum(bool(ps) for ps in steps)
    for i, ps in [(i, ps) for i, ps in enumerate(steps) if ps][:5]:
        print(f"  failed step {i}: {'; '.join(ps)}")
    gated = {"solved_frac": sum(solved) / n,
             "sound_frac": sum(sound) / max(1, sum(solved))}
    diagnostics = {
        "unsound_frac": (1.0 - gated["sound_frac"],
                         f"share of {sum(solved)} solved steps"),
        "torque_rms_err": (rms, "N.m"),
    }
    return n * passes, failed * passes, gated, diagnostics, problems


def evaluate_plan(doc, outputs, passes, workdir):
    """(attempted, failed, gated metrics, diagnostics, problems) of a
    plan_solve run; one op is one solve."""
    import checks

    sys.path.insert(0, str(ROOT / "src"))
    kinds, n_unsound, reasons = [], 0, {}
    for i, (inst, code) in enumerate(zip(doc["instances"], outputs["codes"])):
        sol_path = workdir / f"solution-{i:04d}.json"
        sol = json.loads(sol_path.read_text()) if code in (0, 1) else {}
        csv_text = (sol_path.with_suffix(".csv").read_text()
                    if code == 0 else "")
        decoder = None
        if code == 0:
            with warnings.catch_warnings():  # high-degree basis notices
                warnings.simplefilter("ignore")
                decoder = checks.flatpoly_decoder(inst["model"])
        kind, detail, is_unsound = checks.plan_outcome(
            inst["model"], code, sol, csv_text, decoder)
        kinds.append(kind)
        n_unsound += bool(is_unsound)
        if kind == "failed":
            label = detail.split(":")[0]
            reasons.setdefault(label, []).append(inst["meta"])
    n = len(kinds)
    solved = kinds.count("solved")
    failed = kinds.count("failed")
    print(f"  outcomes per pass: solved={solved} infeasible="
          f"{kinds.count('infeasible')} failed={failed} of {n}")
    for label, metas in sorted(reasons.items()):
        degrees = sorted({m["N"] for m in metas})
        slices = sorted({m["slice"] for m in metas})
        print(f"    failed {label}: {len(metas)} (N in {degrees}; "
              f"{', '.join(slices)})")
    unsound_frac = n_unsound / solved if solved else 0.0
    gated = {"solved_frac": solved / n, "sound_frac": 1.0 - unsound_frac}
    diagnostics = {"unsound_frac": (unsound_frac,
                                    f"share of {solved} solved ops")}
    return n * passes, failed * passes, gated, diagnostics, []


def _span_summary(spans, passes, overhead_ops_s):
    """Per-layer metrics from the traced run's spans."""
    from spans import self_times

    def med_us(values):
        return statistics.median(values) * 1e6 if values else 0.0

    by_name = {}
    for s in spans:
        by_name.setdefault(s[0], []).append(s)
    out = {}
    for name, metric in LAYER_TIMES.items():
        out[metric] = med_us([s[2] - s[1] for s in by_name.get(name, [])])
    selfs = self_times(spans)
    for name, metric in OP_SELF.items():
        out[metric] = med_us([selfs[i] for i, s in enumerate(spans)
                              if s[0] == name])
    n_ops = sum(len(by_name.get(name, [])) for name in OP_SELF)
    rows = [s[5].get("rows", 0) for s in
            by_name.get("polyconstraint.condition_constraints", [])]
    out["polyconstraint.rows"] = sum(rows) / n_ops if n_ops else 0.0
    attrs = {kind: [s[5] for s in by_name.get(f"solver.solve_{kind}", [])
                    if s[5]] for kind in ("qp", "lp")}
    for kind, calls in attrs.items():
        iters = [a["iters"] for a in calls]
        out[f"solver.{kind}_iters_mean"] = (
            sum(iters) / len(iters) if iters else 0.0)
        out[f"solver.{kind}_iters_max"] = max(iters, default=0)
    solves = attrs["qp"] + attrs["lp"]
    warm = [a for a in attrs["qp"] if a["warm"]]
    out["solver.qp_warm_zero_frac"] = (
        sum(a["iters"] == 0 for a in warm) / len(warm) if warm else 0.0)
    out["solver.rows_in"] = (
        sum(a["rows_in"] for a in solves) / len(solves) if solves else 0.0)
    out["solver.nonoptimal"] = (
        sum(not a["optimal"] for a in solves) // passes)
    out["trace.overhead_ops_s"] = overhead_ops_s
    return out


def _degree_table(spans, doc):
    """Median us per layer and degree over the traced plan_solve ops."""
    n_inst = len(doc["instances"])
    degree = [inst["meta"]["N"] for inst in doc["instances"]]
    cells = {}
    for s in spans:
        if s[0] in LAYER_TIMES or s[0] == "cli.main":
            N = degree[s[4] % n_inst]
            cells.setdefault((s[0], N), []).append(s[2] - s[1])
    names = [n for n in ["cli.main"] + list(LAYER_TIMES)
             if any((n, N) in cells for N in set(degree))]
    degrees = sorted(set(degree))
    lines = ["  per-degree median us (diagnostic, not gated):",
             "    " + f"{'layer':38s}" + "".join(f"{'N=' + str(N):>9s}"
                                                for N in degrees)]
    for name in names:
        row = "".join(
            f"{statistics.median(cells[(name, N)]) * 1e6:9.0f}"
            if (name, N) in cells else f"{'-':>9s}" for N in degrees)
        lines.append(f"    {name:38s}{row}")
    return "\n".join(lines)


def main(argv=None):
    # A stop request unwinds like an error: the running worker is killed
    # and waited for, and the run directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    os.environ.update(THREAD_ENV)  # before numpy is imported
    os.environ.pop("FLATPOLY_LOG", None)
    sys.path.insert(0, str(HERE))
    import gen

    ap = argparse.ArgumentParser(description="flatpoly benchmark")
    ap.add_argument("--workload", choices=gen.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "flatpoly" / "__init__.py").is_file():
        print(f"error: no flatpoly sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    run_name = f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir = ROOT / ".perfbench" / run_name
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        doc = gen.generate(args.workload, args.seed)
        print(gen.summary(doc))
        inputs = workdir / "inputs.json"
        inputs.write_text(json.dumps(_worker_inputs(doc, workdir)))
        base = ["--inputs", str(inputs), "--workdir", str(workdir)]
        setup, setup_cpu, setup_wall = _setup_seconds(base, dict(os.environ))
        proc = _worker(base + ["--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                       dict(os.environ), MEASURE_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"error: worker failed:\n{proc.stderr}", file=sys.stderr)
            return 1
        result = json.loads((workdir / "result.json").read_text())
        phase = result["untraced"]
        outputs = phase["outputs"]
        if args.workload == "plan_solve":
            attempted, failed, gated, diagnostics, problems = evaluate_plan(
                doc, outputs, phase["passes"], workdir)
        else:
            attempted, failed, gated, diagnostics, problems = evaluate_pmsm(
                doc, outputs, phase["passes"])
        digests = set(phase["digests"])
        if args.trace:
            digests |= set(result["traced"]["digests"])
            spans = json.loads((workdir / "spans.json").read_text())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # kept while other runs use it
            workdir.parent.rmdir()

    if len(digests) != 1:
        problems.append(f"outputs differ between passes: {sorted(digests)}")
    lat = _latency_metrics(phase)
    print(f"outputs sha256={sorted(digests)[0]} passes={phase['passes']}")
    print(f"ops failed/attempted: {failed}/{attempted}")
    for p in problems:
        print(f"  check failed: {p}")

    end_to_end = {
        "latency_ms_p50": lat["latency_ms_p50"],
        "latency_ms_p95": lat["latency_ms_p95"],
        "throughput_ops_s": lat["throughput_ops_s"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
        **gated,
    }
    diagnostics.update({
        "latency_ms_p99": (lat["latency_ms_p99"], "ms"),
        "latency_ms_max": (lat["latency_ms_max"], "ms"),
        "throughput_raw_ops_s": (lat["throughput_raw_ops_s"], "1/s (CPU)"),
        "throughput_wall_ops_s": (lat["throughput_wall_ops_s"], "1/s"),
        "setup_raw_s": (statistics.median(setup_cpu), "s (CPU)"),
        "setup_wall_s": (statistics.median(setup_wall), "s"),
        "probe_ms": (lat["probe_ms"], f"ms (nominal {PROBE_NOMINAL_S * 1e3})"),
    })
    if args.workload.startswith("pmsm"):
        diagnostics["ratio_to_dt"] = (
            1.0 / (lat["throughput_ops_s"] * doc["scenario"]["dt"]), "")
    print(f"end-to-end ({args.workload}; {lat['samples']} op timings, "
          f"median of {phase['passes']} passes per op; "
          f"{SETUP_RUNS} setups):")
    for name, value in end_to_end.items():
        print(f"  {name:30s} {value:14.6f} {END_TO_END[name]}")
    print("diagnostics (not gated):")
    for name, (value, unit) in diagnostics.items():
        print(f"  {name:30s} {value:14.6f} {unit}")

    if args.trace:
        traced = _latency_metrics(result["traced"])
        layers = _span_summary(
            spans, result["traced"]["passes"],
            lat["throughput_raw_ops_s"] - traced["throughput_raw_ops_s"])
        print(f"per-layer ({len(spans)} spans, "
              f"{traced['samples']} traced ops):")
        for name, value in layers.items():
            unit = PER_LAYER_COUNTS.get(name, "us")
            print(f"  {name:42s} {value:14.3f} {unit}")
        if args.workload == "plan_solve":
            print(_degree_table(spans, doc))
        metrics = {name: {"value": value,
                          "unit": PER_LAYER_COUNTS.get(name, "us")}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in end_to_end.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
