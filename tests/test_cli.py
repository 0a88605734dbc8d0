import csv
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import flatpoly
import flatpoly.costcond as costcond_module
import flatpoly.flat as flat_module
from flatpoly import cli, pmsm_sim
from flatpoly.flat import flat_transform
from flatpoly.pmsm_sim import (
    PmsmParams, Scenario, TraceRow, pmsm_constraints, run_closed_loop,
)
from flatpoly.polybasis import parameterize_outputs, parameterize_states_inputs


def model_doc(constraints=None, zero_cost=False):
    doc = {
        "system": {"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]]},
        "cost": {
            "Q": [[0.0, 0.0], [0.0, 0.0]] if zero_cost else
                 [[1.0, 0.0], [0.0, 1.0]],
            "R": [[0.0]] if zero_cost else [[1.0]],
            "P": [[0.0, 0.0], [0.0, 0.0]] if zero_cost else
                 [[1.0, 0.0], [0.0, 1.0]],
            "x_star": [0.0, 0.0],
            "T": 1.0,
        },
        "basis": {"N": 5},
        "initial_state": [1.0, 0.0],
    }
    if constraints is not None:
        doc["constraints"] = constraints
    return doc


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def test_delta_prints_table(capsys):
    assert cli.main(["delta"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 15
    assert lines[0] == "1, 0.0000"
    assert lines[1] == "2, 0.1250"
    assert lines[2] == "3, 0.0642"
    assert lines[9] == "10, 0.0118"


def test_delta_max_n_limits(capsys):
    assert cli.main(["delta", "--max-n", "3"]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 3
    for bad in ("0", "16", "20"):
        with pytest.raises(SystemExit) as exc_info:
            cli.main(["delta", "--max-n", bad])
        assert exc_info.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["--version"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out.strip() == cli.__version__


def test_solve_writes_solution_and_trajectory(tmp_path):
    model = write_json(tmp_path / "model.json", model_doc())
    out = tmp_path / "sol.json"
    assert cli.main(["solve", "--model", model, "--solver", "both",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"qp", "lp", "suboptimality"}
    assert doc["qp"]["status"] == "optimal"
    assert doc["suboptimality"]["holds"] is True
    # unconstrained: both solvers sit at the cost center
    np.testing.assert_allclose(doc["qp"]["alpha"], doc["lp"]["alpha"],
                               atol=1e-8)
    csv_lines = (tmp_path / "sol.csv").read_text().splitlines()
    assert csv_lines[0] == "t,x1,x2,u1"
    assert len(csv_lines) == 1 + cli.TRAJECTORY_SAMPLES
    first = csv_lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == pytest.approx(1.0)  # x1(0) = x0
    assert float(csv_lines[-1].split(",")[0]) == pytest.approx(1.0)


def test_solve_computes_controllability_svd_once(tmp_path, monkeypatch):
    # LtiSystem keeps the rank and singular values of its controllability
    # matrix, and flat_transform's chain selection reuses them.
    calls = []
    raw = flat_module.controllability_matrix_raw

    def counted(A, B):
        calls.append(A.shape)
        return raw(A, B)

    monkeypatch.setattr(flat_module, "controllability_matrix_raw", counted)
    model = write_json(tmp_path / "model.json", model_doc())
    assert cli.main(["solve", "--model", model, "--solver", "both",
                     "--out", str(tmp_path / "sol.json")]) == 0
    assert calls == [(2, 2)]


def test_solve_both_factors_cost_once(tmp_path, monkeypatch):
    # The least-distance problem owns the Cholesky factor of K, the
    # unconstrained optimum and J there; the suboptimality report reads
    # J0 from it instead of factoring K again.
    calls, ldps = [], []
    cholesky = costcond_module._cholesky
    transform = cli.least_distance_transform

    def counted(K):
        calls.append(K.shape)
        return cholesky(K)

    def kept(*args):
        ldps.append(transform(*args))
        return ldps[-1]

    monkeypatch.setattr(costcond_module, "_cholesky", counted)
    monkeypatch.setattr(cli, "least_distance_transform", kept)
    constraints = {"G_x": [[0.0, 0.0]], "G_u": [[1.0]], "g0": [-0.8]}
    model = write_json(tmp_path / "model.json", model_doc(constraints))
    out = tmp_path / "sol.json"
    assert cli.main(["solve", "--model", model, "--solver", "both",
                     "--out", str(out)]) == 0
    assert len(calls) == 1
    doc = json.loads(out.read_text())
    assert doc["suboptimality"]["j_unconstrained"] == ldps[0].c


def test_solve_all_rows_vacuous_matches_unconstrained(tmp_path):
    # Every row is dropped as vacuous, which leaves an unconstrained
    # problem: the same solution and trajectory bytes as no constraints.
    outputs = []
    for name, constraints in (
        ("none", None),
        ("vacuous", {"G_x": [[0, 0]], "G_u": [[0]], "g0": [-1]}),
    ):
        model = write_json(tmp_path / f"{name}.json", model_doc(constraints))
        out = tmp_path / f"{name}-sol.json"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(["solve", "--model", model, "--solver", "both",
                             "--out", str(out)]) == 0
        assert [str(w.message) for w in caught] == (
            [] if constraints is None
            else ["dropping 1 vacuous constraint row(s)"])
        outputs.append((out.read_bytes(),
                        (tmp_path / f"{name}-sol.csv").read_bytes()))
    assert outputs[0] == outputs[1]


def test_solve_qp_only_output(tmp_path):
    model = write_json(tmp_path / "model.json", model_doc())
    out = tmp_path / "sol.json"
    assert cli.main(["solve", "--model", model, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"qp"}


def test_solve_infeasible_exits_one(tmp_path, capsys):
    constraints = {"G_x": [[0.0, 0.0]], "G_u": [[0.0]], "g0": [1.0]}
    model = write_json(tmp_path / "model.json", model_doc(constraints))
    out = tmp_path / "sol.json"
    assert cli.main(["solve", "--model", model, "--out", str(out)]) == 1
    assert "infeasible" in capsys.readouterr().err
    doc = json.loads(out.read_text())
    assert doc["qp"]["status"] == "infeasible"
    assert doc["qp"]["alpha"] is None
    assert not (tmp_path / "sol.csv").exists()


def test_solve_large_scale_double_integrator_both_optimal(tmp_path):
    # The README model with a large initial state, then a large state weight.
    constraints = {"G_x": [[0.0, 0.0]], "G_u": [[1.0]], "g0": [-0.8]}
    large_x0 = model_doc(constraints)
    large_x0["initial_state"] = [1e7, 0.0]
    large_q = model_doc(constraints)
    large_q["cost"]["Q"][0][0] = 1e12
    for name, doc in (("large_x0", large_x0), ("large_q", large_q)):
        model = write_json(tmp_path / f"{name}.json", doc)
        out = tmp_path / f"{name}-sol.json"
        assert cli.main(["solve", "--model", model, "--solver", "both",
                         "--out", str(out)]) == 0, name
        sol = json.loads(out.read_text())
        assert sol["qp"]["status"] == sol["lp"]["status"] == "optimal", name


def test_solve_missing_file_exits_two(tmp_path, capsys):
    out = tmp_path / "sol.json"
    rc = cli.main(["solve", "--model", str(tmp_path / "nope.json"),
                   "--out", str(out)])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_solve_bad_json_exits_two(tmp_path, capsys):
    null_horizon = model_doc()
    null_horizon["cost"]["T"] = None
    fractional_degree = model_doc()
    fractional_degree["basis"]["N"] = 5.9
    # A misspelled or extra key, or a null, would otherwise change the
    # problem without a word: these constraint rows bound |u| by 0.1.
    rows = {"G_x": [[0.0, 0.0], [0.0, 0.0]], "G_u": [[1.0], [-1.0]],
            "g0": [-0.1, -0.1]}
    misspelled_constraints = model_doc()
    misspelled_constraints["constraint"] = rows
    misspelled_reference = model_doc(rows)
    misspelled_reference["cost"]["x_reff"] = [1.0, 0.0]
    extra_basis_key = model_doc(rows)
    extra_basis_key["basis"]["degree"] = 7
    null_drift = model_doc(rows)
    null_drift["system"]["d"] = None
    string_horizon = model_doc()
    string_horizon["cost"]["T"] = "1.0"
    string_matrix = model_doc()
    string_matrix["system"]["A"] = [["0", "1"], ["0", "0"]]
    # numpy would read a boolean among numbers as 0 or 1.
    boolean_state = model_doc()
    boolean_state["initial_state"] = [True, 0]
    ragged_matrix = model_doc()
    ragged_matrix["system"]["B"] = [[0], [1, 2]]
    bad = tmp_path / "model.json"
    for text in ("{not json", "[]", json.dumps(null_horizon),
                 json.dumps(fractional_degree),
                 json.dumps(misspelled_constraints),
                 json.dumps(misspelled_reference),
                 json.dumps(extra_basis_key), json.dumps(null_drift),
                 json.dumps(string_horizon), json.dumps(string_matrix),
                 json.dumps(boolean_state), json.dumps(ragged_matrix)):
        bad.write_text(text)
        rc = cli.main(["solve", "--model", str(bad),
                       "--out", str(tmp_path / "sol.json")])
        assert rc == 2, text
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        if text == json.dumps(ragged_matrix):
            assert "'B'" in err[0], err


def test_solve_shape_error_exits_two(tmp_path, capsys):
    doc = model_doc()
    doc["system"]["A"] = [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]
    model = write_json(tmp_path / "model.json", doc)
    rc = cli.main(["solve", "--model", model,
                   "--out", str(tmp_path / "sol.json")])
    assert rc == 2


def test_solve_missing_key_exits_two(tmp_path, capsys):
    rows = {"G_x": [[0.0, 0.0]], "G_u": [[1.0]], "g0": [-0.8]}
    for obj, key in ((None, "cost"), ("system", "A"), ("cost", "T"),
                     ("basis", "N"), ("constraints", "g0")):
        doc = model_doc(rows)
        del (doc if obj is None else doc[obj])[key]
        model = write_json(tmp_path / "model.json", doc)
        rc = cli.main(["solve", "--model", model,
                       "--out", str(tmp_path / "sol.json")])
        assert rc == 2, (obj, key)
        assert capsys.readouterr().err.splitlines() == [
            f"error: missing required {obj or 'model'} key: {key!r}"]


def test_solve_zero_cost_exits_three(tmp_path, capsys):
    model = write_json(tmp_path / "model.json", model_doc(zero_cost=True))
    rc = cli.main(["solve", "--model", model,
                   "--out", str(tmp_path / "sol.json")])
    assert rc == 3
    assert "not convex" in capsys.readouterr().err


def test_simulate_pmsm_short_run(tmp_path, capsys):
    scenario = write_json(tmp_path / "scn.json", {"duration": 0.004})
    prefix = tmp_path / "trace"
    rc = cli.main(["simulate-pmsm", "--scenario", scenario,
                   "--out", str(prefix)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "qp: steps=40" in out
    assert "lp: steps=40" in out
    assert "violations=0" in out
    for kind in ("qp", "lp"):
        lines = (tmp_path / f"trace-{kind}.csv").read_text().splitlines()
        assert lines[0] == ("t,id,iq,vd,vq,omega,tau,tau_ref,J,iters,status")
        assert len(lines) == 1 + 40
        assert lines[1].split(",")[-1] == "optimal"


def test_simulate_pmsm_zero_duration(tmp_path, capsys):
    scenario = write_json(tmp_path / "scn.json", {"duration": 0.0})
    prefix = tmp_path / "trace"
    rc = cli.main(["simulate-pmsm", "--scenario", scenario, "--solver",
                   "qp", "--out", str(prefix)])
    assert rc == 0
    assert "qp: steps=0" in capsys.readouterr().out
    lines = (tmp_path / "trace-qp.csv").read_text().splitlines()
    assert len(lines) == 1  # header only


def test_simulate_pmsm_unknown_key_exits_two(tmp_path, capsys):
    scenario = write_json(tmp_path / "scn.json", {"durationn": 0.004})
    rc = cli.main(["simulate-pmsm", "--scenario", scenario,
                   "--out", str(tmp_path / "trace")])
    assert rc == 2
    assert "unknown scenario key" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    pytest.param([1, 2], id="not-an-object"),
    pytest.param({"speed_setpoints": 420.0}, id="schedule-not-a-list"),
    pytest.param({"speed_setpoints": []}, id="empty-schedule"),
    pytest.param({"current_margin": 0.05}, id="removed-current-margin"),
    pytest.param({"machine": [8.0]}, id="machine-not-an-object"),
    pytest.param({"machine": {"I_maxx": 8.0}}, id="unknown-machine-key"),
    pytest.param({"duration": float("inf")}, id="infinite-duration"),
    pytest.param({"speed_setpoints": [[0.0, 1e999]]}, id="infinite-setpoint"),
    pytest.param({"load_torque": [[0.0, 0.0], [0.07, float("nan")]]},
                 id="nan-load-torque"),
    pytest.param({"N": 5.5}, id="non-integral-degree"),
    pytest.param({"N": 5, "degree": 7}, id="degree-given-twice"),
    pytest.param({"machine": {"n_p": 2.5}}, id="non-integral-pole-pairs"),
    pytest.param({"duration": None}, id="null-duration"),
    pytest.param({"duration": True}, id="boolean-duration"),
    pytest.param({"machine": None}, id="null-machine"),
    pytest.param({"speed_setpoints": [[0.0, "420"]]}, id="string-setpoint"),
    pytest.param({"load_torque": [[0.0, 0.0], [True, 8.0]]},
                 id="boolean-schedule-time"),
])
def test_simulate_pmsm_malformed_scenario_exits_two(tmp_path, capsys, doc):
    scenario = write_json(tmp_path / "scn.json", doc)
    rc = cli.main(["simulate-pmsm", "--scenario", scenario,
                   "--out", str(tmp_path / "trace")])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    if "N" in doc:  # the message names the file's own key
        assert "'N'" in err[0]


def test_simulate_pmsm_machine_override(tmp_path, capsys):
    scenario = write_json(
        tmp_path / "scn.json",
        {"duration": 0.002, "machine": {"I_max": 8.0}},
    )
    rc = cli.main(["simulate-pmsm", "--scenario", scenario, "--solver",
                   "qp", "--out", str(tmp_path / "trace")])
    assert rc == 0


def test_simulate_pmsm_outputs_are_deterministic(tmp_path, capsys):
    scenario = write_json(tmp_path / "scn.json", {"duration": 0.003})
    a = tmp_path / "a"
    b = tmp_path / "b"
    for prefix in (a, b):
        assert cli.main(["simulate-pmsm", "--scenario", scenario,
                         "--solver", "lp", "--out", str(prefix)]) == 0
    assert (tmp_path / "a-lp.csv").read_bytes() == (
        tmp_path / "b-lp.csv"
    ).read_bytes()


@pytest.mark.skipif(shutil.which("flatpoly") is None,
                    reason="the flatpoly console script is not on PATH; "
                           "it exists only after installing the package")
def test_console_script_installed(tmp_path):
    exe = shutil.which("flatpoly")
    assert exe is not None, "console script not on PATH"
    proc = subprocess.run([exe, "delta", "--max-n", "2"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == ["1, 0.0000", "2, 0.1250"]
    assert proc.stderr == ""


def child_env():
    """The environment for a child process that imports this flatpoly."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(flatpoly.__file__)))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_log_env_routed_to_stderr(tmp_path):
    # Run the entry point of the imported package in a child process, so
    # the test needs no installed console script.
    exe = [sys.executable, "-m", "flatpoly.cli"]
    env = child_env()
    proc = subprocess.run([*exe, "delta", "--max-n", "1"],
                          capture_output=True, text=True,
                          env={**env, "FLATPOLY_LOG": "bogus"})
    assert proc.returncode == 0
    assert "unknown FLATPOLY_LOG" in proc.stderr
    model = write_json(tmp_path / "model.json", model_doc())
    proc2 = subprocess.run(
        [*exe, "solve", "--model", model,
         "--out", str(tmp_path / "sol.json")],
        capture_output=True, text=True,
        env={**env, "FLATPOLY_LOG": "info"},
    )
    assert proc2.returncode == 0
    assert "solution written" in proc2.stderr


def test_import_leaves_scipy_optimize_unloaded(tmp_path):
    # A child process, because other test modules import scipy.optimize
    # and scipy.linalg.  Neither import nor a constrained solve with both
    # solvers loads scipy.linalg: flatpoly calls its LAPACK module only.
    constraints = {"G_x": [[0.0, 0.0]], "G_u": [[1.0]], "g0": [-0.8]}
    model = write_json(tmp_path / "model.json", model_doc(constraints))
    solve = ["solve", "--model", model, "--solver", "both",
             "--out", str(tmp_path / "sol.json")]
    code = ("import sys, flatpoly, flatpoly.cli; "
            "assert 'scipy.optimize' not in sys.modules, 'loaded at import'; "
            "assert 'scipy.linalg' not in sys.modules, 'loaded at import'; "
            f"assert flatpoly.cli.main({solve!r}) == 0; "
            "assert 'scipy.linalg' not in sys.modules, 'loaded by solve'; "
            "print(flatpoly.compute_delta(2))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0.125"


@pytest.mark.parametrize("imports", ["flatpoly, scipy.linalg.lapack",
                                     "scipy.linalg.lapack, flatpoly"])
def test_lapack_routines_are_scipys(imports):
    # Whichever is imported first, flatpoly calls the very routine objects
    # of scipy.linalg.lapack, so its results are scipy's to the bit.
    code = (f"import {imports}, scipy.linalg.lapack as sl; "
            "from flatpoly._lapack import lapack; "
            "names = 'dpotrf dtrtrs dgeqrf dormqr dgetrf dgetrs'.split(); "
            "assert all(getattr(lapack, n) is getattr(sl, n) "
            "for n in names), names")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr


def test_missing_lapack_module_names_the_searched_path(tmp_path):
    # A scipy without scipy/linalg/_flapack*: the import fails and says
    # where it looked, rather than falling back to another LAPACK.
    (tmp_path / "scipy" / "linalg").mkdir(parents=True)
    (tmp_path / "scipy" / "__init__.py").write_text("")
    env = child_env()
    env["PYTHONPATH"] = os.pathsep.join([str(tmp_path), env["PYTHONPATH"]])
    proc = subprocess.run([sys.executable, "-c", "import flatpoly"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1
    assert "ImportError: no scipy LAPACK module _flapack in " + str(
        tmp_path / "scipy" / "linalg") in proc.stderr


def reference_csv(header, rows):
    """The CSV rule the files follow: csv.writer, floats as '.10g'."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format(float(x), ".10g") if isinstance(x, float)
                         else x for x in row])
    return buf.getvalue().encode("utf-8")


def test_csv_format_is_pinned(tmp_path):
    constraints = {"G_x": [[0.0, 0.0]], "G_u": [[1.0]], "g0": [-0.8]}
    model = write_json(tmp_path / "model.json", model_doc(constraints))
    out = tmp_path / "sol.json"
    assert cli.main(["solve", "--model", model, "--out", str(out)]) == 0
    alpha = np.array(json.loads(out.read_text())["qp"]["alpha"])
    config = cli.ModelConfig.from_file(model)
    fm = flat_transform(config.system)
    _, y = parameterize_outputs(fm, config.x0, config.degree, config.cost.T)
    x_poly, u_poly = parameterize_states_inputs(y, fm)
    t = np.linspace(0.0, config.cost.T, cli.TRAJECTORY_SAMPLES)
    rows = [[float(v) for v in col] for col in
            zip(t, *x_poly(alpha, t), *u_poly(alpha, t))]
    assert (tmp_path / "sol.csv").read_bytes() == reference_csv(
        ["t", "x1", "x2", "u1"], rows)

    scenario = write_json(tmp_path / "scn.json", {"duration": 0.003})
    assert cli.main(["simulate-pmsm", "--scenario", scenario,
                     "--solver", "lp", "--out", str(tmp_path / "tr")]) == 0
    trace = run_closed_loop(Scenario(duration=0.003), "lp")
    assert (tmp_path / "tr-lp.csv").read_bytes() == reference_csv(
        ["t", "id", "iq", "vd", "vq", "omega", "tau", "tau_ref", "J",
         "iters", "status"],
        [[r.t, r.i_d, r.i_q, r.v_d, r.v_q, r.omega, r.tau, r.tau_ref, r.J,
          r.iterations, r.status] for r in trace])

    rows = [[-0.0, 1e-300, 1e20, 7, "optimal"],
            [1 / 3, -2.5e-7, float("inf"), -12, "fallback:infeasible"],
            [float("nan"), 123456789.0123, -1e20, 0, "iteration_limit"]]
    path = tmp_path / "direct.csv"
    cli._write_csv(path, ["a", "b", "c", "n", "s"], rows,
                   ["%.10g"] * 3 + ["%d", "%s"])
    assert path.read_bytes() == reference_csv(["a", "b", "c", "n", "s"], rows)


def test_reused_parser_keeps_no_state(tmp_path):
    model = write_json(tmp_path / "model.json", model_doc())
    for solver in ("both", "lp", "qp"):
        out = tmp_path / f"{solver}.json"
        argv = ["solve", "--model", model, "--out", str(out)]
        if solver != "qp":  # qp is the default
            argv[1:1] = ["--solver", solver]
        assert cli.main(argv) == 0
        keys = set(json.loads(out.read_text()))
        assert keys - {"suboptimality"} == (
            {"qp", "lp"} if solver == "both" else {solver})


def test_polytope_violations_counts_rows():
    params = PmsmParams()
    spec = pmsm_constraints(params)
    rng = np.random.default_rng(3)
    trace = [TraceRow(t=0.0, i_d=i_d, i_q=i_q, v_d=v_d, v_q=v_q, omega=0.0,
                      tau=0.0, tau_ref=0.0, J=0.0, iterations=0,
                      solver="qp", status="optimal")
             for i_d, i_q, v_d, v_q in rng.uniform(
                 -1.2, 1.2, (300, 4)) * [params.I_max, params.I_max,
                                         params.V_max, params.V_max]]
    expected = sum(
        bool(np.any(spec.G_x @ [r.i_d, r.i_q] + spec.G_u @ [r.v_d, r.v_q]
                    + spec.g0 > 1e-6)) for r in trace)
    assert 0 < expected < len(trace)
    assert cli._polytope_violations(trace, params) == expected


def test_traced_benchmark_wrappers_keep_outputs(tmp_path, monkeypatch):
    # A traced benchmark run replaces every name that perfbench/worker.py
    # lists on cli and pmsm_sim with a plain timing wrapper.  The solve and
    # the closed loop must then write the same bytes as without them, and
    # call the spec classes through those names.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]
                                    / "perfbench"))
    import worker
    from spans import SpanRecorder

    constraints = {"G_x": [[0.0, 0.0], [0.0, 0.0]], "G_u": [[1.0], [-1.0]],
                   "g0": [-0.3, -0.3]}
    model = write_json(tmp_path / "model.json", model_doc(constraints))
    scenario = Scenario(duration=0.002)

    def run(out):
        assert cli.main(["solve", "--model", model, "--solver", "both",
                         "--out", str(out)]) == 0
        traces = [repr(run_closed_loop(scenario, kind))
                  for kind in ("qp", "lp")]
        return out.read_bytes(), out.with_suffix(".csv").read_bytes(), traces

    plain = run(tmp_path / "plain.json")
    cli_rec, pmsm_rec = SpanRecorder(), SpanRecorder()
    with worker.patched(cli, worker._traced_names(
            cli, worker.CLI_NAMES, cli_rec)), \
            worker.patched(pmsm_sim, worker._traced_names(
                pmsm_sim, worker.PMSM_NAMES, pmsm_rec)):
        traced = run(tmp_path / "traced.json")
    assert traced == plain
    assert json.loads(plain[0])["lp"]["active_rows"]  # the rows bind
    assert {"flat.lti_build", "flat.spec_build", "solver.solve_qp",
            "solver.solve_lp"} <= {span[0] for span in cli_rec.spans}
    assert {"pmsm_sim.step_plant", "solver.solve_qp", "solver.solve_lp"} <= {
        span[0] for span in pmsm_rec.spans}
