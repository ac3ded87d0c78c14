"""Command-line front end.

Subcommands: ``generate`` (synthetic dataset in svmlight format plus a JSON
sidecar), ``run`` (one descent, trace CSV plus JSON summary), ``sweep``
(cross-product of rules / oracles / epsilons / seeds / inits, each
distinct run once, in parallel), ``hardcase`` (adversarial quadratic
verification) and ``ratio-sim`` (active-set equilibrium simulator).

Every output is a deterministic function of the flags and seeds; per-step
wall times are only collected under ``--time`` since they are the one
nondeterministic quantity.  A JSON file passed with ``--config`` supplies
defaults for any long flag (dashes become underscores); explicit flags win.
The output directory defaults to the ``ASCD_OUT`` environment variable.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

import numpy as np

from . import hardcase as hc_mod
from .data import SynthConfig, generate_synthetic, load_svmlight, \
    save_svmlight, take_columns, write_csv
from .driver import (INITS, PICKS, RULES, UPDATES, RunConfig, UpdateRule,
                     allocate_trace, run, write_trace_csv)
from .oracles import ORACLE_KINDS, OracleSpec
from .problem import CompositeProblem, Regularizer
from .ratiosim import (REENTRY_MODES, RatioSimConfig, rho_infinity,
                       simulate_rho)

SCHEMA_VERSION = 7

HARDCASE_STARTS = ("worst", "ones")  # hardcase --start; the first is default

# JSON summary schemas (field names are part of the CLI contract)
_COMMON = {"schema_version": {"type": "integer"},
           "kind": {"type": "string"}}


def _summary_schema(properties: dict, optional=()) -> dict:
    """Every listed field is required unless named in ``optional``."""
    return {"type": "object", "properties": properties,
            "required": [k for k in properties if k not in optional]}


RUN_SUMMARY_SCHEMA = _summary_schema({
    **_COMMON,
    "data": {"type": "string"},
    "n_rows": {"type": "integer"},
    "n_cols": {"type": "integer"},
    "rule": {"enum": list(RULES)},
    "oracle": {"type": ["object", "null"]},
    "l1": {"type": "number"},
    "l2": {"type": "number"},
    "steps": {"type": "integer"},
    "epochs": {"type": "number"},
    "seed": {"type": "integer"},
    "init": {"enum": list(INITS)},
    "pick": {"enum": list(PICKS)},
    "final_f": {"type": "number"},
    "mean_active_size": {"type": "number"},
    "mean_pick_pool": {"type": "number"},
    "min_active_size": {"type": "integer"},
    "max_active_size": {"type": "integer"},
    "distinct_picks": {"type": "integer"},
    "useful_steps": {"type": "integer"},
    "oracle_rows": {"type": "integer"},
    "violations": {"type": "object"},
    "trace_csv": {"type": "string"},
    "wall_time_s": {"type": "number"},
}, optional=("wall_time_s",))

HARDCASE_SUMMARY_SCHEMA = _summary_schema({
    **_COMMON,
    "n": {"type": "integer"},
    "alpha": {"type": "number"},
    "c_alpha": {"type": "number"},
    "steps": {"type": "integer"},
    "start": {"enum": list(HARDCASE_STARTS)},
    "cycling_checked": {"type": "boolean"},
    "cycling_ok": {"type": ["boolean", "null"]},
    "first_failure": {"type": ["integer", "null"]},
    "omega_max": {"type": "number"},
    "trace_csv": {"type": "string"},
}, optional=("first_failure",))

RATIO_SUMMARY_SCHEMA = _summary_schema({
    **_COMMON,
    "n": {"type": "integer"},
    "s": {"type": "integer"},
    "c": {"type": "number"},
    "t_inf": {"type": "number"},
    "steps": {"type": "integer"},
    "seed": {"type": "integer"},
    "reentry": {"enum": list(REENTRY_MODES)},
    "designated": {"type": "integer"},
    "rho_closed_form": {"type": "number"},
    "rho_simple_bound": {"type": "number"},
    "rho_empirical_mean": {"type": "number"},
    "exits": {"type": "integer"},
    "entries": {"type": "integer"},
    "trace_csv": {"type": "string"},
})

GENERATE_SUMMARY_SCHEMA = _summary_schema({
    **_COMMON,
    "n_rows": {"type": "integer"},
    "n_cols": {"type": "integer"},
    "seed": {"type": "integer"},
    "column_scale_factor": {"type": "number"},
    "sparsity_factor": {"type": "number"},
    "support_frac": {"type": "number"},
    "noise_sigma": {"type": "number"},
    "keep_probability": {"type": "number"},
    "nnz": {"type": "integer"},
    "density": {"type": "number"},
    "svmlight": {"type": "string"},
})

SWEEP_SUMMARY_SCHEMA = _summary_schema({
    **_COMMON,
    "cells": {"type": "integer"},
    "failed": {"type": "array"},
    "summary_csv": {"type": "string"},
})


def _write_json(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _out_dir(args) -> str:
    out = args.out or os.environ.get("ASCD_OUT") or "."
    os.makedirs(out, exist_ok=True)
    return out


def _parse_steps(text: str, n: int) -> int:
    """Either a positive count or a positive multiple of the dimension,
    e.g. ``10n``, that the trace's 64-bit step index can count; a
    rejection names ``--steps``, and a value that is neither form echoes
    as typed."""
    value = text.strip().lower()
    multiple = value.endswith("n")
    try:
        number = float(value[:-1] or "1") if multiple else int(value)
    except ValueError:
        if not (value.isascii() and value.isdecimal()):
            raise ValueError(f"--steps {text!r}: expected a positive integer "
                             "or a multiple of n such as 10n") from None
        # int() refuses more than 4300 digits: a count beyond int64
        number = np.inf
    steps = number
    if multiple:
        count = number * n
        if not (np.isfinite(count) and count > 0):
            raise ValueError(f"--steps {value}: the step count is not "
                             "positive and finite")
        steps = max(1, int(round(count)))
    if steps < 1:
        raise ValueError(f"--steps {value}: need at least one step")
    if steps > np.iinfo(np.int64).max:
        raise ValueError(f"--steps {value}: more steps than a 64-bit "
                         "index counts")
    return steps


def _named(flags: dict, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a rejection names the flags, not the
    fields, that ``flags`` maps."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(re.sub(r"\w+", lambda m: flags.get(m[0], m[0]),
                                str(exc))) from exc


def _config_value(action: argparse.Action, value):
    """A ``--config`` value, converted as the command line converts the
    flag's text; a rejection says what the flag takes."""
    if action.nargs == 0 or isinstance(value, bool):
        if action.nargs == 0 and isinstance(value, bool):
            return value  # only on/off flags take booleans
    elif value is None and action.default is None:
        return None
    elif isinstance(value, (str, int, float)):
        with contextlib.suppress(ValueError):
            converted = (action.type or str)(str(value))
            if action.choices is None or converted in action.choices:
                return converted
    raise ValueError("expected " + (
        "true or false" if action.nargs == 0 else
        "one of " + ", ".join(action.choices) if action.choices else
        (action.type or str).__name__))


def _apply_config_defaults(parser: argparse.ArgumentParser, argv) -> None:
    """Pre-scan for --config and install its contents as defaults of the
    subcommand that ``argv`` names.  argparse converts only string
    defaults, so each value goes through its flag's type and choices
    first; keys that name no flag of the subcommand are ignored, so none
    can replace the parser's own defaults such as ``func``.
    """
    sub = parser.sub_parsers.get(argv[0]) if argv else None
    if sub is None:
        return  # parse_args reports the missing or unknown subcommand
    actions = {action.dest: action for action in sub._actions}
    for k, tok in enumerate(argv):
        if tok == "--config" and k + 1 < len(argv):
            path = argv[k + 1]
        elif tok.startswith("--config="):
            path = tok.split("=", 1)[1]
        else:
            continue
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ValueError(f"--config {path}: {exc}") from None
        if not isinstance(loaded, dict):
            raise ValueError(f"--config {path}: expected a JSON object")
        defaults = {}
        for key in [name for name in loaded if name in actions]:
            try:
                defaults[key] = _config_value(actions[key], loaded[key])
            except ValueError as exc:
                raise ValueError(f"--config {path}: {key} "
                                 f"{json.dumps(loaded[key])}: {exc}") from None
        sub.set_defaults(**defaults)


# ---------------------------------------------------------------------------
# run / sweep
# ---------------------------------------------------------------------------


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--data", default=None, help="svmlight input file")
    p.add_argument("--binarize", action="store_true",
                   help="set all stored values to 1 on load")
    p.add_argument("--take-cols", type=int, default=None,
                   help="keep only this many randomly chosen columns")
    p.add_argument("--take-seed", type=int, default=0)
    p.add_argument("--l2", type=float, default=0.0, help="ridge weight")
    p.add_argument("--l1", type=float, default=0.0, help="lasso weight")
    # defaults and choices are the library's; --update hyphenates its one
    # kind, which argparse checks and nothing reads
    p.add_argument("--rule", default=RunConfig.rule, choices=RULES)
    p.add_argument("--oracle", default=OracleSpec.kind, choices=ORACLE_KINDS)
    p.add_argument("--epsilon", type=float, default=OracleSpec.epsilon,
                   help="g2 relative error level")
    p.add_argument("--update", default=UpdateRule.kind.replace("_", "-"),
                   choices=[kind.replace("_", "-") for kind in UPDATES])
    p.add_argument("--steps", default=None,
                   help="step budget; accepts multiples of n like '10n'")
    p.add_argument("--init", default=RunConfig.init, choices=INITS)
    p.add_argument("--pick", default=RunConfig.pick, choices=PICKS,
                   help="how the active coordinate is drawn from the set")
    p.add_argument("--diag-every", type=int, default=None,
                   help="true-gradient diagnostics cadence (default n)")
    p.add_argument("--time", action="store_true",
                   help="collect wall times (nondeterministic fields)")
    p.add_argument("--tag", default="run", help="output file basename")


def _build_problem(flags: dict) -> tuple[CompositeProblem, int]:
    """The problem and the step budget, which every sweep cell shares."""
    matrix, target = load_svmlight(flags["data"], binarize=flags["binarize"])
    if flags["take_cols"] is not None:
        matrix = _named({"k": "--take-cols", "seed": "--take-seed"},
                        take_columns, matrix, flags["take_cols"],
                        flags["take_seed"])
    if flags["l1"] and flags["l2"]:
        raise ValueError("choose one of --l1/--l2")
    kind = "l1" if flags["l1"] else "l2" if flags["l2"] else "none"
    reg = _named({"lambda": f"--{kind}"}, Regularizer, kind,
                 flags.get(kind, 0.0))
    problem = CompositeProblem(matrix, target, reg)
    return problem, _parse_steps(str(flags["steps"]), problem.n)


# run-time fields that rejections name, and the flags that set them
_RUN_FLAGS = {"seed": "--seed", "diag_every": "--diag-every",
              "steps": "--steps"}


def _run_config(flags: dict, problem: CompositeProblem,
                steps: int) -> RunConfig:
    """The run that ``flags`` ask for; a rejection names the flag."""
    spec = _named({"seed": "--seed", "epsilon": "--epsilon"}, OracleSpec,
                  flags["oracle"], epsilon=flags["epsilon"],
                  seed=flags["seed"])
    return _named(
        _RUN_FLAGS, RunConfig,
        problem=problem,
        steps=steps,
        rule=flags["rule"],
        oracle=spec,
        seed=flags["seed"],
        init=flags["init"],
        pick=flags["pick"],
        diag_every=flags["diag_every"],
        time_steps=flags["time"],
    )


def _execute_run(flags: dict, problem: CompositeProblem, steps: int,
                 out_dir: str) -> dict:
    config = _run_config(flags, problem, steps)
    result = _named(_RUN_FLAGS, run, config)
    _, oracle, init, pick = config.resolved()
    trace_path = os.path.join(out_dir, flags["tag"] + ".csv")
    write_trace_csv(result, trace_path)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "kind": "run",
        "data": str(flags["data"]),
        "n_rows": problem.d,
        "n_cols": problem.n,
        "rule": flags["rule"],
        "oracle": asdict(oracle) if oracle else None,
        "l1": flags["l1"],
        "l2": flags["l2"],
        "steps": steps,
        "epochs": steps / problem.n,
        "seed": flags["seed"],
        "init": init,
        "pick": pick,
        "final_f": result.final_f,
        "mean_active_size": result.mean_active_size,
        "mean_pick_pool": result.mean_pick_pool,
        **result.counters(),
        "violations": {"soundness": result.soundness_violations,
                       "containment": result.containment_violations,
                       "sandwich": result.sandwich_violations},
        "trace_csv": os.path.basename(trace_path),
    }
    if flags["time"]:
        summary["wall_time_s"] = result.wall_time_s
    _write_json(summary, os.path.join(out_dir, flags["tag"] + ".json"))
    return summary


def cmd_run(args) -> int:
    flags = vars(args)
    _execute_run(flags, *_build_problem(flags), _out_dir(args))
    return 0


def _sweep_worker(payload) -> tuple[str, dict | None, str | None]:
    tag, flags, problem, steps, out_dir = payload
    try:
        return tag, _execute_run(flags, problem, steps, out_dir), None
    except Exception as exc:  # reported per cell, sweep keeps going
        return tag, None, f"{type(exc).__name__}: {exc}"


def _split(flag: str, text: str, convert=str) -> list:
    """Comma-list flag value; a token ``convert`` rejects names the flag."""
    try:
        return [convert(tok) for tok in text.split(",") if tok != ""]
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from exc


def cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise ValueError(f"--jobs {args.jobs}: need at least one worker")
    axes = (_split("--rules", args.rules) or [args.rule],
            _split("--oracles", args.oracles) or [args.oracle],
            _split("--epsilons", args.epsilons, float) or [args.epsilon],
            _split("--seeds", args.seeds, int) or [args.seed],
            _split("--inits", args.inits) or [args.init])
    # every cell shares the problem and the step budget, so a bad shared
    # flag is rejected once, before any cell runs or any file is written,
    # as is a budget whose trace does not fit
    problem, steps = _build_problem(vars(args))
    _named(_RUN_FLAGS, allocate_trace, steps)
    requested = list(itertools.product(*axes))
    if len(requested) > args.max_cells:
        raise ValueError(f"{len(requested)} cells exceed "
                         f"--max-cells={args.max_cells}")
    out_dir = _out_dir(args)
    # a cell runs once per seed and resolved (rule, oracle, init, pick),
    # under the first tag in product order; rejected flags fail alone
    cells = {}
    for rule, oracle, eps, seed, init in requested:
        tag = f"{args.tag}_{rule}_{oracle}_eps{eps:g}_seed{seed}_{init}"
        flags = dict(vars(args), rule=rule, oracle=oracle, epsilon=eps,
                     seed=seed, init=init, tag=tag)
        try:
            key = (seed, _run_config(flags, problem, steps).resolved())
        except ValueError:
            key = tag
        cells.setdefault(key, (tag, flags, problem, steps, out_dir))
    cells = list(cells.values())

    if args.jobs > 1 and len(cells) > 1:
        with ProcessPoolExecutor(max_workers=min(args.jobs,
                                                 len(cells))) as pool:
            outcomes = list(pool.map(_sweep_worker, cells))
    else:
        outcomes = [_sweep_worker(c) for c in cells]

    cell_cols = ("tag", "rule", "oracle", "epsilon", "seed", "init")
    summary_cols = ("final_f", "mean_active_size", "epochs")
    rows, failed = [], []
    for (tag, *_), (_, summary, err) in zip(cells, outcomes):
        if err is None:
            # what the cell ran, not its flags: scd fixes its oracle and
            # init, ucd reads neither, and only g2 reads epsilon
            oracle = summary["oracle"] or {"kind": "", "epsilon": np.nan}
            rows.append([tag, summary["rule"], oracle["kind"],
                         oracle["epsilon"], summary["seed"], summary["init"]]
                        + [summary[k] for k in summary_cols])
        else:
            failed.append({"tag": tag, "error": err})
    summary_csv = os.path.join(out_dir, args.tag + "_summary.csv")
    write_csv(summary_csv, ",".join(cell_cols + summary_cols), zip(*rows))
    _write_json({
        "schema_version": SCHEMA_VERSION,
        "kind": "sweep",
        "cells": len(cells),
        "failed": failed,
        "summary_csv": os.path.basename(summary_csv),
    }, os.path.join(out_dir, args.tag + "_sweep.json"))
    if failed:
        for item in failed:
            print(f"failed cell {item['tag']}: {item['error']}",
                  file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# generate / hardcase / ratio-sim
# ---------------------------------------------------------------------------


_GENERATE_FLAGS = {"n_rows": "--rows", "n_cols": "--cols", "seed": "--seed",
                   "column_scale_factor": "--scale-factor",
                   "sparsity_factor": "--sparsity-factor",
                   "support_frac": "--support-frac",
                   "noise_sigma": "--noise-sigma"}


def cmd_generate(args) -> int:
    config = _named(_GENERATE_FLAGS, SynthConfig, **{
        field: getattr(args, flag[2:].replace("-", "_"))
        for field, flag in _GENERATE_FLAGS.items()})
    matrix, target = _named(_GENERATE_FLAGS, generate_synthetic, config)
    out_dir = _out_dir(args)
    svm_path = os.path.join(out_dir, args.tag + ".svm")
    save_svmlight(matrix, target, svm_path)
    _write_json({
        "schema_version": SCHEMA_VERSION,
        "kind": "generate",
        **asdict(config),
        "keep_probability": config.keep_probability,
        "nnz": matrix.nnz,
        "density": matrix.nnz / (matrix.n_rows * matrix.n_cols),
        "svmlight": os.path.basename(svm_path),
    }, os.path.join(out_dir, args.tag + ".json"))
    return 0


def cmd_hardcase(args) -> int:
    # the worst start is verified over at least one full sweep
    min_steps = args.n if args.start == "worst" else 1
    if args.steps < min_steps:
        raise ValueError(f"--steps must be at least {min_steps} with "
                         f"--start {args.start}")
    hc = _named({"n": "--n", "alpha": "--alpha"}, hc_mod.HardCase.build,
                args.alpha, args.n)
    out_dir = _out_dir(args)
    steps_flag = {"steps": "--steps"}
    if args.start == "worst":
        report = _named(steps_flag, hc_mod.verify_cycling, hc, args.steps)
        picks, omega, grad_inf = report.picks, report.omega, report.grad_inf
        cycling_ok, first_failure = report.ok, report.first_failure
    else:
        picks, omega, grad_inf, _, _ = _named(
            steps_flag, hc_mod.scd_trace, hc, np.ones(args.n), args.steps)
        cycling_ok, first_failure = None, None

    trace_path = os.path.join(out_dir, args.tag + ".csv")
    write_csv(trace_path, "t,i,omega,grad_inf",
              (np.arange(args.steps), picks, omega, grad_inf))
    _write_json({
        "schema_version": SCHEMA_VERSION,
        "kind": "hardcase",
        "n": args.n,
        "alpha": args.alpha,
        "c_alpha": hc.c_alpha,
        "steps": args.steps,
        "start": args.start,
        "cycling_checked": args.start == "worst",
        "cycling_ok": cycling_ok,
        "first_failure": first_failure,
        "omega_max": float(np.max(omega)),
        "trace_csv": os.path.basename(trace_path),
    }, os.path.join(out_dir, args.tag + ".json"))
    if args.start == "worst" and not cycling_ok:
        print(f"cycling verification failed at step {first_failure}",
              file=sys.stderr)
        return 1
    return 0


def cmd_ratio_sim(args) -> int:
    flags = {"n": "--n", "s": "--s", "c": "--c", "t_inf": "--t-inf",
             "steps": "--steps", "seed": "--seed"}
    config = _named(flags, RatioSimConfig, n=args.n, s=args.s, c=args.c,
                    t_inf=args.t_inf, steps=args.steps, seed=args.seed,
                    reentry=args.reentry)
    limit = rho_infinity(args.n, args.s, args.c, args.t_inf)
    out_dir = _out_dir(args)
    trace = _named(flags, simulate_rho, config)
    trace_path = os.path.join(out_dir, args.tag + ".csv")
    write_csv(trace_path, "t,rho,active_size",
              (np.arange(config.steps), trace.rho, trace.active_size))
    tail = trace.rho[3 * config.steps // 4:]
    _write_json({
        "schema_version": SCHEMA_VERSION,
        "kind": "ratio-sim",
        **asdict(config),
        "designated": trace.designated,
        "rho_closed_form": limit.value,
        "rho_simple_bound": limit.simple_bound,
        "rho_empirical_mean": float(tail.mean()),
        "exits": trace.exits,
        "entries": trace.entries,
        "trace_csv": os.path.basename(trace_path),
    }, os.path.join(out_dir, args.tag + ".json"))
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` whose rejections raise ``ValueError``, which
    ``main`` reports as one ``error:`` line with exit code 2; its
    subparsers are of this class too.  ``--help`` still prints and exits
    0."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ascd",
        description="Coordinate descent with uniform, steepest and "
                    "approximate-steepest selection.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=True):
        p.add_argument("--config", default=None,
                       help="JSON file with flag defaults")
        p.add_argument("--out", default=None,
                       help="output directory (default $ASCD_OUT or .)")
        if seeded:  # hardcase draws nothing
            p.add_argument("--seed", type=int, default=0)

    g = sub.add_parser("generate", help="write a synthetic dataset")
    common(g)
    g.add_argument("--rows", type=int, default=None)
    g.add_argument("--cols", type=int, default=None)
    for field in ("column_scale_factor", "sparsity_factor", "support_frac",
                  "noise_sigma"):
        g.add_argument(_GENERATE_FLAGS[field], type=float,
                       default=getattr(SynthConfig, field))
    g.add_argument("--tag", default="synthetic")
    g.set_defaults(func=cmd_generate)

    r = sub.add_parser("run", help="one descent run")
    common(r)
    _add_run_flags(r)
    r.set_defaults(func=cmd_run)

    s = sub.add_parser("sweep", help="cross-product of runs")
    common(s)
    _add_run_flags(s)
    s.add_argument("--rules", default="", help="comma list of rules")
    s.add_argument("--oracles", default="", help="comma list of oracle kinds")
    s.add_argument("--epsilons", default="", help="comma list of g2 errors")
    s.add_argument("--seeds", default="", help="comma list of run seeds")
    s.add_argument("--inits", default="", help="comma list of init modes")
    s.add_argument("--jobs", type=int, default=1)
    s.add_argument("--max-cells", type=int, default=256)
    s.set_defaults(func=cmd_sweep)

    h = sub.add_parser("hardcase", help="adversarial quadratic verification")
    common(h, seeded=False)
    h.add_argument("--n", type=int, default=None)
    h.add_argument("--alpha", type=float, default=0.01)
    h.add_argument("--steps", type=int, default=None)
    h.add_argument("--start", default=HARDCASE_STARTS[0],
                   choices=HARDCASE_STARTS)
    h.add_argument("--tag", default="hardcase")
    h.set_defaults(func=cmd_hardcase)

    q = sub.add_parser("ratio-sim", help="active-set equilibrium simulator")
    common(q)
    q.add_argument("--n", type=int, default=None)
    q.add_argument("--s", type=int, default=None)
    q.add_argument("--c", type=float, default=RatioSimConfig.c)
    q.add_argument("--t-inf", type=float, default=None)
    q.add_argument("--steps", type=int, default=None)
    q.add_argument("--reentry", default=RatioSimConfig.reentry,
                   choices=REENTRY_MODES)
    q.add_argument("--tag", default="ratio")
    q.set_defaults(func=cmd_ratio_sim)

    parser.sub_parsers = sub.choices
    return parser


_REQUIRED = {
    "generate": ("rows", "cols"),
    "run": ("data", "steps"),
    "sweep": ("data", "steps"),
    "hardcase": ("n", "steps"),
    "ratio-sim": ("n", "s", "t_inf", "steps"),
}


def main(argv=None) -> int:
    """Run the subcommand named in ``argv``; return the exit code.

    Rejected input (argparse, or ``ValueError``/``OSError`` raised by the
    command) gives 2 and one ``error:`` line; 1 is a failed outcome.
    """
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        _apply_config_defaults(parser, argv)
        args = parser.parse_args(argv)
        for dest in _REQUIRED[args.command]:
            if getattr(args, dest) is None:
                parser.error(f"--{dest.replace('_', '-')} is required "
                             "(flag or --config entry)")
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
