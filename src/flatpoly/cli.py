"""Command-line front end.

Three subcommands:

* ``delta``: print the degree-dependent nonpositivity margins.
* ``solve``: run the full pipeline (flat transform, polynomial
  parameterization, cost/constraint conditioning, QP and/or LP solve) on a
  JSON model file; write a solution JSON and a sampled trajectory CSV.
* ``simulate-pmsm``: run the closed-loop motor scenario and write trace CSVs.

Every CSV cell is a float as format(x, ".10g") writes it, an integer or a
status word, comma separated with no quoting, one row per line.  The
argument parser is built once per process, so in-process callers (tests,
library use, the benchmark) pay for it once.

Exit codes: 0 success; 1 infeasible or non-optimal solve; 2 argument,
parse, or shape errors; 3 the Cholesky factorization of the conditioned
cost's K failed.  K is convex by construction (Q, R and P are PSD), so
that means K is singular or too ill-conditioned for the power basis's
factorization; the message still says "not convex".  The environment
variable FLATPOLY_LOG (off | info | debug) routes diagnostics to standard
error; standard output carries only data.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import dataclass, fields
from functools import cache
from itertools import chain

import numpy as np

from . import __version__
from .errors import (
    DegreeOutOfRange,
    DegreeTooLow,
    DimensionMismatch,
    NotPositiveDefinite,
    UncontrollableSystem,
)
from .flat import LinearConstraintSpec, LtiSystem, QuadraticCostSpec, flat_transform
from .polybasis import MAX_DEGREE, parameterize_outputs, parameterize_states_inputs
from .costcond import condition_cost, least_distance_transform
# compute_delta stays importable here: perfbench/worker.py wraps it by name.
from .polyconstraint import compute_delta, condition_constraints, delta_table
from .pmsm_sim import PmsmParams, Scenario, pmsm_constraints, run_closed_loop
from .solver import solve_lp, solve_qp, suboptimality_report

log = logging.getLogger(__name__)

#: Number of CSV sample points on [0, T] for `solve` trajectories.
TRAJECTORY_SAMPLES = 200

EXIT_OK = 0
EXIT_SOLVE_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NOT_CONVEX = 3


def _object(doc, name):
    """doc itself if it is a JSON object; anything else is bad input."""
    if not isinstance(doc, dict):
        raise DimensionMismatch(f"{name} is not a JSON object")
    return doc


def _field(doc, key, convert):
    """convert(doc[key]), with a null, a boolean, a string or another
    value of the wrong JSON type as bad input."""
    value = doc[key]
    try:
        if value is None or isinstance(value, (bool, str)):
            raise TypeError(f"got {json.dumps(value)}")
        return convert(value)
    except TypeError as exc:
        raise DimensionMismatch(f"{key!r} has the wrong type: {exc}") from exc


def _floats(value):
    """value as a float array, for a number or nested lists of numbers.

    Ragged nesting and a boolean entry, which numpy would read as 0 or 1,
    raise TypeError like any other value of the wrong type."""
    try:
        array = np.asarray(value)
    except ValueError as exc:  # ragged nesting
        raise TypeError(str(exc)) from None
    leaves = [value]
    for _ in range(array.ndim):
        leaves = chain.from_iterable(leaves)
    if array.dtype.kind not in "iuf" or bool in map(type, leaves):
        raise TypeError("not a number or an array of numbers")
    return array.astype(float, copy=False)


def _integer(value):
    """int(value) for a number without a fractional part."""
    if not float(value).is_integer():
        raise TypeError(f"{value!r} is not an integer")
    return int(value)


def _read(doc, name, converters, optional=()):
    """The values of the JSON object doc, each converted by its key's
    converter.  Only the optional keys may be left out, and take the
    caller's defaults; an unknown key is bad input."""
    for key in _object(doc, name):
        if key not in converters:
            raise DimensionMismatch(f"unknown {name} key: {key!r}")
    for key in converters:
        if key not in doc and key not in optional:
            raise DimensionMismatch(f"missing required {name} key: {key!r}")
    return {key: _field(doc, key, converters[key]) for key in doc}


#: Converters for the annotated field types of Scenario and PmsmParams.
_CONVERTERS = {"float": float, "int": _integer,
               "tuple": lambda v: tuple((float(t), float(x))
                                        for t, x in _floats(v))}
_MACHINE = {f.name: _CONVERTERS[f.type] for f in fields(PmsmParams)}
_SCENARIO = {f.name: _CONVERTERS[f.type] for f in fields(Scenario)}
_SCENARIO.update(N=_integer, machine=lambda doc: PmsmParams(
    **_read(doc, "machine", _MACHINE, _MACHINE)))

# The model file's objects.  The spec classes are called through this
# module's names when a file is read, and never inspected, so wrappers put
# in their place (as a traced benchmark run does) see every call.
_MODEL = {
    "system": lambda doc: LtiSystem(**_read(
        doc, "system", {"A": _floats, "B": _floats, "d": _floats}, ("d",))),
    "cost": lambda doc: QuadraticCostSpec(**_read(
        doc, "cost", {"Q": _floats, "R": _floats, "P": _floats,
                      "x_star": _floats, "x_ref": _floats, "T": float},
        ("x_ref",))),
    "constraints": lambda doc: LinearConstraintSpec(**_read(
        doc, "constraints", {"G_x": _floats, "G_u": _floats, "g0": _floats})),
    "basis": lambda doc: _read(doc, "basis", {"N": _integer})["N"],
    "initial_state": _floats,
}


@dataclass
class ModelConfig:
    """One planning problem, loadable from a JSON document.

    Layout::

        {
          "system":      {"A": [[..]], "B": [[..]], "d": [..]},
          "cost":        {"Q": [[..]], "R": [[..]], "P": [[..]],
                          "x_star": [..], "x_ref": [..], "T": 1.0},
          "constraints": {"G_x": [[..]], "G_u": [[..]], "g0": [..]},
          "basis":       {"N": 5},
          "initial_state": [..]
        }

    "d", "x_ref" and the whole "constraints" object may be left out; any
    other key, or a null, is bad input.
    """

    system: LtiSystem
    cost: QuadraticCostSpec
    constraints: LinearConstraintSpec
    degree: int
    x0: np.ndarray

    @classmethod
    def from_dict(cls, doc):
        model = _read(doc, "model", _MODEL, ("constraints",))
        system, x0 = model["system"], model["initial_state"]
        if x0.shape != (system.n,):
            raise DimensionMismatch(
                f"initial_state has shape {x0.shape}, expected ({system.n},)"
            )
        return cls(system, model["cost"], model.get("constraints"),
                   model["basis"], x0)

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


def _write_csv(path, header, rows, formats):
    """Write a CSV file: the header, then one line per row in one call.

    formats holds one printf-style format per column.  '%.10g' % x is the
    text of format(x, '.10g') for every float, and no cell needs quoting,
    so this writes what csv.writer would, in one formatting pass.
    """
    line = ",".join(formats) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n"
                 + "".join([line % tuple(row) for row in rows]))


def cmd_delta(args):
    """Print N, Delta(N) rows up to --max-n."""
    table = delta_table(args.max_n)
    for N, value in table.items():
        print(f"{N}, {value:.4f}")
    return EXIT_OK


def _result_to_doc(result):
    return {
        "status": result.status,
        "solver": result.solver,
        "alpha": None if result.alpha is None else result.alpha.tolist(),
        "quadratic_cost": None if not np.isfinite(result.quadratic_cost)
        else result.quadratic_cost,
        "iterations": result.iterations,
        "active_rows": list(result.active_rows),
    }


def cmd_solve(args):
    """Solve one model file and write solution JSON plus trajectory CSV."""
    config = ModelConfig.from_file(args.model)
    fm = flat_transform(config.system)
    basis, y = parameterize_outputs(fm, config.x0, config.degree, config.cost.T)
    x_poly, u_poly = parameterize_states_inputs(y, fm)
    pc = condition_cost(x_poly, u_poly, config.cost)
    acs = None
    if config.constraints is not None:
        acs = condition_constraints(x_poly, u_poly, config.constraints)
    ldp = least_distance_transform(pc, acs)

    results = {}
    if args.solver in ("qp", "both"):
        results["qp"] = solve_qp(ldp)
    if args.solver in ("lp", "both"):
        results["lp"] = solve_lp(ldp)

    doc = {name: _result_to_doc(res) for name, res in results.items()}
    if args.solver == "both" and all(
        r.status == "optimal" for r in results.values()
    ):
        rep = suboptimality_report(results["qp"], results["lp"], ldp)
        doc["suboptimality"] = {
            "j_lp": rep.j_lp,
            "j_unconstrained": rep.j0,
            "j_constraint": rep.j_c,
            "bound": rep.bound,
            "holds": rep.holds,
        }

    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    log.info("solution written to %s", args.out)

    failed = [n for n, r in results.items() if r.status != "optimal"]
    if failed:
        for name in failed:
            print(f"error: {name} solve ended with status "
                  f"{results[name].status}", file=sys.stderr)
        return EXIT_SOLVE_FAILED

    csv_path = os.path.splitext(args.out)[0] + ".csv"
    primary = results["qp"] if "qp" in results else results["lp"]
    t_grid = np.linspace(0.0, config.cost.T, TRAJECTORY_SAMPLES)
    table = np.vstack([t_grid, x_poly(primary.alpha, t_grid),
                       u_poly(primary.alpha, t_grid)]).T
    _write_csv(
        csv_path,
        ["t"] + [f"x{i + 1}" for i in range(fm.n)]
        + [f"u{j + 1}" for j in range(fm.m)],
        table.tolist(), ["%.10g"] * table.shape[1],
    )
    log.info("trajectory written to %s", csv_path)
    return EXIT_OK


def _scenario_from_file(path):
    if path is None:
        return Scenario(), PmsmParams()
    with open(path, "r", encoding="utf-8") as fh:
        scenario = _read(json.load(fh), "scenario", _SCENARIO, _SCENARIO)
    params = scenario.pop("machine", PmsmParams())
    if "N" in scenario:
        if "degree" in scenario:
            raise DimensionMismatch("scenario gives both 'N' and 'degree'")
        scenario["degree"] = scenario.pop("N")
    return Scenario(**scenario), params


def _write_trace(path, trace):
    _write_csv(
        path,
        ["t", "id", "iq", "vd", "vq", "omega", "tau", "tau_ref", "J",
         "iters", "status"],
        [(row.t, row.i_d, row.i_q, row.v_d, row.v_q, row.omega, row.tau,
          row.tau_ref, row.J, row.iterations, row.status) for row in trace],
        ["%.10g"] * 9 + ["%d", "%s"],
    )


def _polytope_violations(trace, params, tol=1e-6):
    """Number of trace rows whose currents and voltages leave the polytope."""
    spec = pmsm_constraints(params)
    xu = np.array([(row.i_d, row.i_q, row.v_d, row.v_q) for row in trace])
    vals = xu[:, :2] @ spec.G_x.T + xu[:, 2:] @ spec.G_u.T + spec.g0
    return int(np.count_nonzero((vals > tol).any(axis=1)))


def cmd_simulate_pmsm(args):
    """Run the closed-loop scenario and write one CSV per solver."""
    scenario, params = _scenario_from_file(args.scenario)
    solvers = ["qp", "lp"] if args.solver == "both" else [args.solver]
    for kind in solvers:
        trace = run_closed_loop(scenario, kind, params)
        path = f"{args.out}-{kind}.csv"
        _write_trace(path, trace)
        if trace:
            worst = max(row.iterations for row in trace)
            violations = _polytope_violations(trace, params)
            peak_id = max(abs(row.i_d) for row in trace)
            print(f"{kind}: steps={len(trace)} worst_iterations={worst} "
                  f"violations={violations} peak_abs_id={peak_id:.4f}")
        else:
            print(f"{kind}: steps=0")
        log.info("trace written to %s", path)
    return EXIT_OK


@cache
def build_parser():
    """The argparse parser for all three subcommands, built once."""
    parser = argparse.ArgumentParser(
        prog="flatpoly",
        description="Polynomial trajectory optimization for constrained "
                    "linear systems",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_delta = sub.add_parser(
        "delta", help="print the nonpositivity margin table"
    )
    p_delta.add_argument("--max-n", type=int, default=MAX_DEGREE,
                         help=f"largest degree to print (1..{MAX_DEGREE})")
    p_delta.set_defaults(func=cmd_delta)

    p_solve = sub.add_parser("solve", help="solve one model file")
    p_solve.add_argument("--model", required=True, help="model JSON path")
    p_solve.add_argument("--solver", choices=["qp", "lp", "both"],
                         default="qp")
    p_solve.add_argument("--out", required=True,
                         help="solution JSON path (CSV written alongside)")
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate-pmsm",
                           help="closed-loop motor scenario")
    p_sim.add_argument("--scenario", default=None,
                       help="scenario JSON path (defaults used if omitted)")
    p_sim.add_argument("--solver", choices=["qp", "lp", "both"],
                       default="both")
    p_sim.add_argument("--out", required=True, help="output CSV prefix")
    p_sim.set_defaults(func=cmd_simulate_pmsm)
    return parser


def _configure_logging():
    level_name = os.environ.get("FLATPOLY_LOG", "off").lower()
    levels = {"off": logging.CRITICAL + 10, "info": logging.INFO,
              "debug": logging.DEBUG}
    level = levels.get(level_name)
    if level is None:
        print(f"warning: unknown FLATPOLY_LOG value {level_name!r}; "
              "using 'off'", file=sys.stderr)
        level = levels["off"]
    logging.basicConfig(
        stream=sys.stderr, level=level,
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv=None):
    _configure_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "delta" and not 1 <= args.max_n <= MAX_DEGREE:
        parser.error(f"--max-n must be in 1..{MAX_DEGREE}, got {args.max_n}")
    try:
        return args.func(args)
    except NotPositiveDefinite as exc:
        print(f"error: conditioned cost is not convex: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVEX
    except (DimensionMismatch, DegreeOutOfRange, DegreeTooLow,
            UncontrollableSystem, KeyError, ValueError,
            json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
