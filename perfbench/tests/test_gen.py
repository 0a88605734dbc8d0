import json
import subprocess
import sys
from collections import Counter

import pytest

import gen
from conftest import BENCH


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert gen.digest(gen.generate(workload, 7)) == gen.digest(
        gen.generate(workload, 7))


def test_plan_inputs_change_with_seed():
    assert gen.digest(gen.generate("plan_solve", 7)) != gen.digest(
        gen.generate("plan_solve", 8))


def test_closed_loop_runs_the_stock_scenario_on_every_seed():
    for workload in ("pmsm_qp", "pmsm_lp"):
        for seed in (0, 1, 9):
            doc = gen.generate(workload, seed)
            assert doc["scenario"] == gen.STOCK_SCENARIO
            assert doc["solver"] == workload[-2:]


def test_plan_mix_keeps_every_degree_and_the_large_slices():
    doc = gen.generate("plan_solve", 3)
    metas = [inst["meta"] for inst in doc["instances"]]
    assert Counter(m["N"] for m in metas) == {
        N: gen.PER_DEGREE for N in gen.DEGREES}
    assert metas[0] == {"N": gen.WARMUP_DEGREE, "slice": "base"}
    by_slice = Counter(m["slice"] for m in metas)
    assert by_slice["large_x0"] == by_slice["large_q"] == (
        gen.LARGE_PER_DEGREE * len(gen.DEGREES))
    for inst in doc["instances"]:
        model = inst["model"]
        assert model["basis"]["N"] == inst["meta"]["N"]
        if inst["meta"]["slice"] == "large_x0":
            assert max(map(abs, model["initial_state"])) > 1e3


def test_generator_never_imports_flatpoly():
    code = ("import sys; import gen; gen.generate('plan_solve', 1); "
            "gen.generate('pmsm_qp', 1); "
            "print(any(m.startswith('flatpoly') for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], cwd=BENCH,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_summary_prints_digest_and_shares():
    doc = gen.generate("plan_solve", 2)
    text = gen.summary(doc)
    assert gen.digest(doc) in text
    assert "N15=" in text and "large_x0=" in text
    json.dumps(doc)  # the document is plain JSON
