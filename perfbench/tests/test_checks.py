"""Each output check accepts a real output and rejects a tampered one."""

import copy
import json
import warnings

import pytest

import checks
import gen
from flatpoly import cli, pmsm_sim


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """(model, solution doc, csv text) of the first solved instance."""
    out_dir = tmp_path_factory.mktemp("solve")
    for i, (meta, model) in enumerate(gen.plan_instances(0)):
        if meta["slice"] != "base" or meta["N"] > 8:
            continue
        model_path = out_dir / f"model-{i}.json"
        model_path.write_text(json.dumps(model))
        out = out_dir / f"solution-{i}.json"
        with warnings.catch_warnings():  # high-degree basis notices
            warnings.simplefilter("ignore")
            code = cli.main(["solve", "--model", str(model_path), "--solver",
                             "both", "--out", str(out)])
        if code != 0:
            continue
        sol = json.loads(out.read_text())
        csv_text = out.with_suffix(".csv").read_text()
        kind, _, _ = checks.plan_outcome(model, code, sol, csv_text,
                                         checks.flatpoly_decoder(model))
        if kind == "solved":
            return model, sol, csv_text
    pytest.fail("no generated instance solved")


def _outcome(model, sol, csv_text, code=0):
    return checks.plan_outcome(model, code, sol, csv_text,
                               checks.flatpoly_decoder(model))


def test_untampered_solution_passes(solved):
    model, sol, csv_text = solved
    kind, detail, _ = _outcome(model, sol, csv_text)
    assert kind == "solved", detail


def test_flipped_status_is_rejected(solved):
    model, sol, csv_text = solved
    bad = copy.deepcopy(sol)
    bad["qp"]["status"] = "infeasible"
    kind, detail, _ = _outcome(model, bad, csv_text)
    assert kind == "failed" and detail.startswith("status")
    # Exit 1 with one solver infeasible and the other optimal.
    kind, detail, _ = _outcome(model, bad, "", code=1)
    assert kind == "failed" and detail.startswith("disagree")


def test_iteration_limit_and_not_convex_are_failures(solved):
    model, sol, _ = solved
    bad = copy.deepcopy(sol)
    bad["qp"]["status"] = "iteration_limit"
    assert _outcome(model, bad, "", code=1)[0] == "failed"
    assert _outcome(model, {}, "", code=3)[0] == "failed"
    both = copy.deepcopy(sol)
    both["qp"]["status"] = both["lp"]["status"] = "infeasible"
    assert _outcome(model, both, "", code=1)[0] == "infeasible"


@pytest.mark.parametrize("solver,label", [("qp", "qp_alpha"),
                                          ("lp", "lp_alpha")])
def test_perturbed_alpha_is_rejected(solved, solver, label):
    model, sol, csv_text = solved
    bad = copy.deepcopy(sol)
    bad[solver]["alpha"][0] += 1e-3 * max(1.0, abs(bad[solver]["alpha"][0]))
    kind, detail, _ = _outcome(model, bad, csv_text)
    assert kind == "failed" and label in detail


def test_wrong_quadratic_cost_is_rejected(solved):
    model, sol, csv_text = solved
    bad = copy.deepcopy(sol)
    bad["qp"]["quadratic_cost"] *= 1.0 + 1e-4
    kind, detail, _ = _outcome(model, bad, csv_text)
    assert kind == "failed" and "qp_cost" in detail


def test_lp_cost_below_qp_cost_is_rejected(solved):
    model, sol, csv_text = solved
    bad = copy.deepcopy(sol)
    bad["lp"]["quadratic_cost"] = 0.5 * bad["qp"]["quadratic_cost"]
    kind, detail, _ = _outcome(model, bad, csv_text)
    assert kind == "failed" and "lp_cost" in detail


def test_broken_dynamics_and_initial_state_are_rejected(solved):
    model, sol, csv_text = solved
    header, rows = checks.parse_csv(csv_text)
    moved = copy.deepcopy(model)
    moved["initial_state"][0] += 0.5
    assert any(p.startswith("x0") for p in
               checks.check_solution(moved, sol, header, rows))
    other = copy.deepcopy(model)
    other["system"]["A"][0][0] += 1.0
    assert any(p.startswith("dynamics") for p in
               checks.check_solution(other, sol, header, rows))


def test_injected_constraint_violation_is_unsound(solved):
    model, _, csv_text = solved
    _, rows = checks.parse_csv(csv_text)
    n = len(model["initial_state"])
    con = model["constraints"]
    row = next(k for k, g in enumerate(con["G_u"]) if any(g))
    j = next(j for j, g in enumerate(con["G_u"][row]) if g)
    bad = rows.copy()
    # Push one input sample past the bound of that row.
    bad[100, 1 + n + j] = (-con["g0"][row] + 1.0) / con["G_u"][row][j]
    assert checks.unsound(model, bad)


@pytest.fixture(scope="module")
def pmsm_trace():
    doc = gen.generate("pmsm_qp", 0)
    scenario = pmsm_sim.Scenario(**{**doc["scenario"], "duration": 0.003})
    trace = pmsm_sim.run_closed_loop(scenario, "qp",
                                     pmsm_sim.PmsmParams(**doc["machine"]))
    rows = [[r.t, r.i_d, r.i_q, r.v_d, r.v_q, r.omega, r.tau, r.tau_ref,
             r.J, r.iterations, r.status] for r in trace]
    return doc, rows


def test_pmsm_trace_passes(pmsm_trace):
    doc, rows = pmsm_trace
    steps, loop, rms = checks.check_pmsm(rows, doc["scenario"], doc["machine"])
    assert not any(steps) and not loop
    assert rms > 0


def test_pmsm_polytope_violation_is_rejected(pmsm_trace):
    doc, rows = pmsm_trace
    bad = copy.deepcopy(rows)
    bad[5][3] = 0.6 * doc["machine"]["V_max"]  # v_d past V_max / 2
    steps, _, _ = checks.check_pmsm(bad, doc["scenario"], doc["machine"])
    assert [i for i, p in enumerate(steps) if p] == [5]
    assert "polytope" in steps[5][0]


def test_pmsm_fallback_step_is_rejected(pmsm_trace):
    doc, rows = pmsm_trace
    bad = copy.deepcopy(rows)
    bad[7][10] = "fallback:infeasible"
    steps, _, _ = checks.check_pmsm(bad, doc["scenario"], doc["machine"])
    assert [i for i, p in enumerate(steps) if p] == [7]


def test_pmsm_speed_off_setpoint_before_load_step_is_rejected():
    scenario = {"speed_setpoints": [[0.0, 100.0]],
                "load_torque": [[0.0, 0.0], [0.002, 1.0]]}
    machine = gen.MACHINE
    rows = [[k * 1e-4, 0.0, 0.0, 0.0, 0.0, 100.0, 0.0, 0.0, 0.0, 0, "optimal"]
            for k in range(40)]
    assert checks.check_pmsm(rows, scenario, machine)[1] == []
    rows[19][5] = 97.0  # last sample before t = 0.002
    assert len(checks.check_pmsm(rows, scenario, machine)[1]) == 1
