import json
import os
import subprocess
import sys
import warnings
from dataclasses import asdict
from unittest import mock

import jsonschema
import numpy as np
import pytest

import ascd.cli
import ascd.data
import ascd.hardcase
import reference_synthetic
from ascd.cli import (GENERATE_SUMMARY_SCHEMA, HARDCASE_SUMMARY_SCHEMA,
                      RATIO_SUMMARY_SCHEMA, RUN_SUMMARY_SCHEMA,
                      SWEEP_SUMMARY_SCHEMA, build_parser, main)
from ascd.data import SynthConfig, load_svmlight
from ascd.driver import (INITS, PICKS, RULES, TRACE_COLUMNS, TRACE_HEADER,
                         UPDATES, RunConfig, UpdateRule)
from ascd.oracles import ORACLE_KINDS, OracleSpec
from ascd.problem import CompositeProblem, Regularizer
from ascd.ratiosim import REENTRY_MODES, RatioSimConfig
from reference_scd import steepest_descent


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# numpy's allocators and the positions of the arguments that give the
# length of the array they make
ALLOCATORS = {"empty": (0,), "zeros": (0,), "ones": (0,), "full": (0,),
              "arange": (0, 1)}


def refuse_trace_length(monkeypatch, steps):
    """Make every numpy allocation of ``steps`` entries raise
    ``MemoryError``, whichever allocator makes it and in whatever order;
    return the list the refused allocators' names are appended to."""
    refused = []

    def refusing(name, alloc, positions):
        def refuse(*args, **kwargs):
            lengths = [args[k] for k in positions if k < len(args)]
            lengths += [kwargs[k] for k in ("shape", "stop") if k in kwargs]
            if any(isinstance(n, (int, np.integer)) and n == steps
                   or isinstance(n, tuple) and n == (steps,)
                   for n in lengths):
                refused.append(name)
                raise MemoryError("patched allocation")
            return alloc(*args, **kwargs)
        return refuse

    for name, positions in ALLOCATORS.items():
        monkeypatch.setattr(np, name,
                            refusing(name, getattr(np, name), positions))
    return refused


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    rc = main(["generate", "--rows", "60", "--cols", "40", "--seed", "7",
               "--out", str(out), "--tag", "syn"])
    assert rc == 0
    return out / "syn.svm"


class TestGenerate:
    def test_sidecar_schema(self, dataset):
        summary = read_json(dataset.parent / "syn.json")
        jsonschema.validate(summary, GENERATE_SUMMARY_SCHEMA)
        assert summary["n_rows"] == 60 and summary["n_cols"] == 40

    def test_sidecar_schema_checks_types(self, dataset):
        # every field is typed: a number given as text, or text given as a
        # number, fails
        summary = read_json(dataset.parent / "syn.json")
        properties = GENERATE_SUMMARY_SCHEMA["properties"]
        assert set(properties) == set(summary)
        for name, rule in properties.items():
            wrong = 1 if rule["type"] == "string" else str(summary[name])
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate({**summary, name: wrong},
                                    GENERATE_SUMMARY_SCHEMA)

    def test_reproducible_bytes(self, tmp_path, dataset):
        rc = main(["generate", "--rows", "60", "--cols", "40", "--seed", "7",
                   "--out", str(tmp_path), "--tag", "syn"])
        assert rc == 0
        assert (tmp_path / "syn.svm").read_bytes() == dataset.read_bytes()

    def test_writes_the_twin(self, dataset):
        # the run that follows loads the twin, not the text
        with mock.patch.object(ascd.data, "_parse_svmlight") as parse:
            matrix, _ = load_svmlight(dataset)
        assert not parse.called
        assert matrix.shape == (60, 40)

    def test_tiny_keep_probability_finishes(self, tmp_path):
        # almost every column keeps no entry of its one draw
        src = os.path.dirname(os.path.dirname(ascd.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "ascd.cli", "generate", "--rows", "5",
             "--cols", "10", "--sparsity-factor", "1e-9",
             "--out", str(tmp_path)],
            env={**os.environ, "PYTHONPATH": src}, timeout=60)
        assert proc.returncode == 0
        matrix, _ = load_svmlight(tmp_path / "synthetic.svm")
        assert matrix.n_cols == 10
        assert np.all(np.diff(matrix.indptr) > 0)

    def test_same_bytes_as_reference_generator(self, tmp_path, monkeypatch):
        # chunks of 162 columns, the last one partial, and about one
        # column in twenty keeping no entry of its draws
        argv = ["generate", "--rows", "100", "--cols", "400", "--seed", "3",
                "--sparsity-factor", "2", "--tag", "syn"]
        assert main([*argv, "--out", str(tmp_path / "chunked")]) == 0
        monkeypatch.setattr(ascd.cli, "generate_synthetic",
                            reference_synthetic.generate_synthetic)
        assert main([*argv, "--out", str(tmp_path / "reference")]) == 0
        for name in ("syn.svm", "syn.json"):
            assert ((tmp_path / "chunked" / name).read_bytes()
                    == (tmp_path / "reference" / name).read_bytes())


class TestRun:
    def test_trace_and_summary(self, dataset, tmp_path):
        rc = main(["run", "--data", str(dataset), "--l2", "0.1",
                   "--rule", "ascd", "--oracle", "g4", "--steps", "10n",
                   "--seed", "1", "--init", "true-gradient",
                   "--out", str(tmp_path), "--tag", "r"])
        assert rc == 0
        lines = (tmp_path / "r.csv").read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 1 + 10 * 40
        summary = read_json(tmp_path / "r.json")
        jsonschema.validate(summary, RUN_SUMMARY_SCHEMA)
        assert summary["epochs"] == pytest.approx(10.0)
        assert "wall_time_s" not in summary

    @pytest.mark.parametrize("rule", ["ascd", "ucd", "scd"])
    def test_summary_counters_match_trace(self, dataset, tmp_path, rule):
        rc = main(["run", "--data", str(dataset), "--l1", "0.5",
                   "--rule", rule, "--oracle", "g1", "--update",
                   "line-search", "--steps", "3n", "--seed", "2", "--init",
                   "true-gradient", "--out", str(tmp_path), "--tag", "c"])
        assert rc == 0
        summary = read_json(tmp_path / "c.json")
        trace = np.genfromtxt(tmp_path / "c.csv", delimiter=",",
                              names=True)
        assert summary["schema_version"] == 7
        assert summary["distinct_picks"] == np.unique(trace["i"]).size
        # ucd draws from all n; argmax-lower, which scd runs, from the
        # set's tied maximisers
        if rule == "ucd":
            assert summary["mean_pick_pool"] == summary["n_cols"]
        else:
            assert 1 <= summary["mean_pick_pool"] <= summary[
                "mean_active_size"]
        assert summary["min_active_size"] == trace["active_size"].min()
        assert summary["max_active_size"] == trace["active_size"].max()
        assert 0 < summary["useful_steps"] <= summary["steps"]
        # a row is fetched for every useful step of a tracked rule only
        assert summary["oracle_rows"] == (
            0 if rule == "ucd" else summary["useful_steps"])
        # ucd reads no oracle and no init, and draws uniformly from all n
        assert (summary["oracle"] is None) == (rule == "ucd")
        if rule == "ucd":
            assert (summary["init"], summary["pick"]) == ("none",
                                                          "uniform-set")

    def test_byte_determinism(self, dataset, tmp_path):
        args = ["run", "--data", str(dataset), "--l1", "2.0", "--rule",
                "ascd-gss", "--oracle", "g2",
                "--epsilon", "0.5", "--steps", "3n", "--seed", "3"]
        rc = main(args + ["--out", str(tmp_path / "a"), "--tag", "x"])
        rc2 = main(args + ["--out", str(tmp_path / "b"), "--tag", "x"])
        assert rc == 0 and rc2 == 0
        assert (tmp_path / "a/x.csv").read_bytes() == \
            (tmp_path / "b/x.csv").read_bytes()
        assert (tmp_path / "a/x.json").read_bytes() == \
            (tmp_path / "b/x.json").read_bytes()

    def test_same_bytes_with_and_without_the_twin(self, dataset, tmp_path):
        # generate wrote the twin; a run without it parses the text and
        # writes it back
        data = tmp_path / "syn.svm"
        data.write_bytes(dataset.read_bytes())
        twin = tmp_path / ("syn.svm" + ascd.data.TWIN_SUFFIX)
        twin.write_bytes(
            (dataset.parent / twin.name).read_bytes())
        args = ["run", "--data", str(data), "--l2", "0.5", "--steps", "3n",
                "--seed", "4", "--tag", "x"]
        assert main(args + ["--out", str(tmp_path / "twin")]) == 0
        twin.unlink()
        assert main(args + ["--out", str(tmp_path / "text")]) == 0
        assert twin.exists()
        for name in ("x.csv", "x.json"):
            assert (tmp_path / "twin" / name).read_bytes() == \
                (tmp_path / "text" / name).read_bytes()

    def test_epsilon_reported_only_where_read(self, dataset, tmp_path):
        # only g2 reads epsilon: g4 runs the same at 0.5 as at 0 and
        # reports the 0 it read, while g2 reports its own
        for oracle, eps in [("g4", "0"), ("g4", "0.5"), ("g2", "0.5")]:
            assert main(["run", "--data", str(dataset), "--l2", "1",
                         "--steps", "2n", "--oracle", oracle, "--epsilon",
                         eps, "--out", str(tmp_path),
                         "--tag", f"{oracle}_{eps}"]) == 0
        assert (tmp_path / "g4_0.csv").read_bytes() == \
            (tmp_path / "g4_0.5.csv").read_bytes()
        assert read_json(tmp_path / "g4_0.5.json")["oracle"]["epsilon"] == 0.0
        assert read_json(tmp_path / "g2_0.5.json")["oracle"]["epsilon"] == 0.5

    def test_collapse_matches_scd_column(self, dataset, tmp_path):
        # scd's trace column holds the brute-force steepest picks, whatever
        # --oracle, --init and --pick say
        assert main(["run", "--data", str(dataset), "--l2", "0.5",
                     "--steps", "5n", "--seed", "2", "--rule", "scd",
                     "--oracle", "g4", "--pick", "uniform-set",
                     "--out", str(tmp_path), "--tag", "scd"]) == 0
        lines = (tmp_path / "scd.csv").read_text().splitlines()[1:]
        picks = [int(row.split(",")[1]) for row in lines]
        matrix, target = load_svmlight(dataset)
        prob = CompositeProblem(matrix, target, Regularizer("l2", 0.5))
        want, _ = steepest_descent(prob, 5 * prob.n)
        assert picks == want.tolist()
        # the summary records what ran
        summary = read_json(tmp_path / "scd.json")
        assert summary["oracle"] == {"kind": "g1", "epsilon": 0.0, "seed": 0}
        assert (summary["init"], summary["pick"]) == ("true-gradient",
                                                      "argmax-lower")

    def test_default_run_does_not_stall(self, tmp_path):
        # the default (ascd, g3, init none, argmax-lower) ends this ridge at
        # f = 98.98 after picking all 100 coordinates, as ucd does: with no
        # start every lower bound is 0, so its picks are ucd's.  No stall,
        # but no gain over ucd either
        assert main(["generate", "--rows", "200", "--cols", "100",
                     "--out", str(tmp_path), "--tag", "syn"]) == 0
        finals = {}
        for tag, extra in (("default", []), ("ucd", ["--rule", "ucd"])):
            assert main(["run", "--data", str(tmp_path / "syn.svm"),
                         "--l2", "1", "--steps", "10n", "--seed", "0",
                         *extra, "--out", str(tmp_path), "--tag", tag]) == 0
            finals[tag] = read_json(tmp_path / f"{tag}.json")
        assert finals["default"]["distinct_picks"] > 1
        assert finals["default"]["final_f"] <= 2 * finals["ucd"]["final_f"]

    def test_no_init_starts_full_and_shrinks(self, dataset, tmp_path):
        rc = main(["run", "--data", str(dataset), "--l2", "0.1",
                   "--rule", "ascd", "--oracle", "g2", "--epsilon", "0.001",
                   "--update", "line-search", "--pick", "uniform-set",
                   "--steps", "12n", "--seed", "4", "--init", "none",
                   "--out", str(tmp_path), "--tag", "ni"])
        assert rc == 0
        rows = (tmp_path / "ni.csv").read_text().splitlines()[1:]
        sizes = np.array([int(r.split(",")[5]) for r in rows])
        # the set starts at all 40 and is below 40 on most steps (85.6% of
        # them, down to 1); the last step's set need not be
        assert sizes[0] == 40
        assert np.mean(sizes < 40) > 0.5

    def test_wall_times_flag(self, dataset, tmp_path):
        rc = main(["run", "--data", str(dataset), "--steps", "5",
                   "--time", "--out", str(tmp_path), "--tag", "t"])
        assert rc == 0
        summary = read_json(tmp_path / "t.json")
        assert summary["wall_time_s"] > 0
        first = (tmp_path / "t.csv").read_text().splitlines()[1]
        assert first.split(",")[TRACE_COLUMNS.index("wall_ns")] != ""

    def test_take_cols_and_binarize(self, dataset, tmp_path):
        rc = main(["run", "--data", str(dataset), "--binarize",
                   "--take-cols", "11", "--take-seed", "5", "--steps", "2n",
                   "--out", str(tmp_path), "--tag", "sub"])
        assert rc == 0
        summary = read_json(tmp_path / "sub.json")
        assert summary["n_cols"] == 11
        assert summary["steps"] == 22

    def test_bad_data_path(self, tmp_path):
        rc = main(["run", "--data", str(tmp_path / "nope.svm"),
                   "--steps", "5", "--out", str(tmp_path)])
        assert rc == 2

    def test_non_finite_data_rejected(self, tmp_path, capsys):
        path = tmp_path / "nan.svm"
        path.write_text("1 1:1.0 2:0.5\n2 1:nan 2:1.0\n3 1:2.0 2:1.0\n")
        rc = main(["run", "--data", str(path), "--steps", "5",
                   "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and "nan.svm:2" in err
        assert "Traceback" not in err

    def test_overflowing_column_norm_rejected(self, tmp_path, capsys):
        # every squared column norm overflows: each L_i would be inf and
        # every step zero
        path = tmp_path / "huge.svm"
        path.write_text("1 1:1e308 2:1e308\n2 1:1e308 2:-1e308\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["run", "--data", str(path), "--steps", "10",
                       "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: column 0 ") and "float range" in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_l2_weight_near_the_float_limit(self, tmp_path):
        # every L_i is above DBL_MAX / 2: 2 L_i overflowed in the tau
        # diagnostics, which read 0.0 where g^2 / (2 L_i) is about 1e-302
        assert main(["generate", "--rows", "30", "--cols", "20", "--seed",
                     "0", "--out", str(tmp_path), "--tag", "h"]) == 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rc = main(["run", "--data", str(tmp_path / "h.svm"), "--l2",
                       "1e308", "--steps", "2n", "--out", str(tmp_path),
                       "--tag", "r"])
        assert rc == 0
        trace = np.genfromtxt(tmp_path / "r.csv", delimiter=",",
                              names=True)
        for column in ("tau_ucd", "tau_ascd", "tau_scd"):
            tau = trace[column][~np.isnan(trace[column])]
            assert tau.size == 2 and np.all(tau > 0.0), column

    def test_both_penalties_rejected(self, dataset, tmp_path):
        rc = main(["run", "--data", str(dataset), "--l1", "1", "--l2", "1",
                   "--steps", "5", "--out", str(tmp_path)])
        assert rc == 2

    def test_env_var_out_dir(self, dataset, tmp_path, monkeypatch):
        monkeypatch.setenv("ASCD_OUT", str(tmp_path / "env"))
        rc = main(["run", "--data", str(dataset), "--steps", "5",
                   "--tag", "e"])
        assert rc == 0
        assert (tmp_path / "env" / "e.json").exists()

    def test_config_file_defaults(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": "2n", "rule": "scd",
                                   "l2": 0.25}))
        rc = main(["run", "--config", str(cfg), "--data", str(dataset),
                   "--out", str(tmp_path), "--tag", "c"])
        assert rc == 0
        summary = read_json(tmp_path / "c.json")
        assert summary["rule"] == "scd"
        assert summary["steps"] == 80
        assert summary["l2"] == 0.25

    def test_config_values_take_flag_types(self, dataset, tmp_path):
        # a number for a float flag, a boolean for a switch and null for a
        # flag whose default is unset pass; each lands as the flag's type
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"steps": 80, "l2": 1, "binarize": True,
                                   "take_cols": None, "seed": "4"}))
        rc = main(["run", "--config", str(cfg), "--data", str(dataset),
                   "--out", str(tmp_path), "--tag", "c"])
        assert rc == 0
        summary = read_json(tmp_path / "c.json")
        assert summary["steps"] == 80 and summary["n_cols"] == 40
        assert summary["l2"] == 1.0 and isinstance(summary["l2"], float)
        assert summary["seed"] == 4

    @pytest.mark.parametrize("content", [{"func": 1},
                                         {"command": "sweep"}],
                             ids=["func", "command"])
    def test_config_ignores_non_flag_keys(self, dataset, tmp_path,
                                          content):
        # a key that names no flag used to replace the parser's own
        # default: "func" ended in a TypeError, "command" was accepted
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        args = ["run", "--data", str(dataset), "--steps", "5", "--tag", "c"]
        assert main([*args, "--config", str(cfg),
                     "--out", str(tmp_path / "a")]) == 0
        assert main([*args, "--out", str(tmp_path / "b")]) == 0
        for name in ("c.csv", "c.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_missing_required_flag(self, dataset, capsys):
        assert main(["run", "--data", str(dataset)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --steps ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["run", "--help"]],
                             ids=["top", "run"])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage: ascd" in capsys.readouterr().out


class TestLibraryDefaults:
    """A flag that sets a library field carries the library's default and
    choice list, so the CLI runs what the library runs unless told
    otherwise."""

    # (flag dest, the class owning its default, the field, the choices)
    RUN_FLAGS = [
        ("rule", RunConfig, "rule", RULES),
        ("oracle", OracleSpec, "kind", ORACLE_KINDS),
        ("epsilon", OracleSpec, "epsilon", None),
        # the flag spells the one update kind with a hyphen
        ("update", UpdateRule, "kind",
         [kind.replace("_", "-") for kind in UPDATES]),
        ("init", RunConfig, "init", INITS),
        ("pick", RunConfig, "pick", PICKS),
    ]
    FLAGS = [
        *[("run", *flag) for flag in RUN_FLAGS],
        *[("sweep", *flag) for flag in RUN_FLAGS],
        ("generate", "scale_factor", SynthConfig, "column_scale_factor",
         None),
        ("generate", "sparsity_factor", SynthConfig, "sparsity_factor", None),
        ("generate", "support_frac", SynthConfig, "support_frac", None),
        ("generate", "noise_sigma", SynthConfig, "noise_sigma", None),
        ("ratio-sim", "c", RatioSimConfig, "c", None),
        ("ratio-sim", "reentry", RatioSimConfig, "reentry", REENTRY_MODES),
    ]

    @pytest.mark.parametrize("command,dest,owner,field,choices", FLAGS,
                             ids=[f"{row[0]}-{row[1]}" for row in FLAGS])
    def test_flag_reads_library_default(self, monkeypatch, command, dest,
                                        owner, field, choices):
        # a default moved in the library moves the flag's: the parser
        # keeps no copy of it
        monkeypatch.setattr(owner, field, "moved")
        action, = [action for action in
                   build_parser().sub_parsers[command]._actions
                   if action.dest == dest]
        assert action.default == "moved"
        assert (None if action.choices is None else list(action.choices)) \
            == (None if choices is None else list(choices))

    def test_default_run_is_the_library_default(self, dataset, tmp_path):
        assert main(["run", "--data", str(dataset), "--steps", "5",
                     "--out", str(tmp_path), "--tag", "d"]) == 0
        summary = read_json(tmp_path / "d.json")
        problem = CompositeProblem(*load_svmlight(str(dataset)))
        rule, oracle, init, pick = RunConfig(problem=problem,
                                             steps=5).resolved()
        assert summary["schema_version"] == 7 and "update" not in summary
        assert [summary[key] for key in ("rule", "oracle", "init", "pick")] \
            == [rule, asdict(oracle), init, pick]


class TestSweep:
    def test_epsilon_axis(self, dataset, tmp_path):
        rc = main(["sweep", "--data", str(dataset), "--l2", "0.1",
                   "--oracle", "g2", "--steps", "2n", "--init",
                   "true-gradient", "--epsilons", "0,0.1,0.5,1.0",
                   "--jobs", "2", "--out", str(tmp_path), "--tag", "s"])
        assert rc == 0
        summary = read_json(tmp_path / "s_sweep.json")
        jsonschema.validate(summary, SWEEP_SUMMARY_SCHEMA)
        assert summary["cells"] == 4 and summary["failed"] == []
        rows = (tmp_path / "s_summary.csv").read_text().splitlines()
        assert len(rows) == 5
        cells = [read_json(tmp_path / f)
                 for f in sorted(os.listdir(tmp_path)) if
                 f.startswith("s_ascd") and f.endswith(".json")]
        assert len(cells) == 4
        for cell in cells:
            jsonschema.validate(cell, RUN_SUMMARY_SCHEMA)

    def test_epsilon_axis_folds_where_unread(self, dataset, tmp_path):
        # g3 and g4 read no epsilon: one cell each, reporting 0
        rc = main(["sweep", "--data", str(dataset), "--l2", "1",
                   "--oracles", "g3,g4", "--epsilons", "0,0.5",
                   "--steps", "2n", "--out", str(tmp_path), "--tag", "fe"])
        assert rc == 0
        assert read_json(tmp_path / "fe_sweep.json")["cells"] == 2
        rows = (tmp_path / "fe_summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[:4] for row in rows] == [
            ["fe_ascd_g3_eps0_seed0_none", "ascd", "g3", "0.0"],
            ["fe_ascd_g4_eps0_seed0_none", "ascd", "g4", "0.0"]]

    def test_empty_axes_single_cell_matches_run(self, dataset, tmp_path):
        shared = ["--data", str(dataset), "--l2", "0.3", "--steps", "2n",
                  "--seed", "6", "--rule", "ascd", "--oracle", "g3"]
        assert main(["sweep", *shared, "--out", str(tmp_path / "sw"),
                     "--tag", "one"]) == 0
        assert main(["run", *shared, "--out", str(tmp_path / "run"),
                     "--tag", "one"]) == 0
        sweep_csvs = [f for f in os.listdir(tmp_path / "sw")
                      if f.endswith(".csv") and "summary" not in f]
        assert len(sweep_csvs) == 1
        assert (tmp_path / "sw" / sweep_csvs[0]).read_bytes() == \
            (tmp_path / "run" / "one.csv").read_bytes()

    def test_seed_axis_headers(self, dataset, tmp_path):
        rc = main(["sweep", "--data", str(dataset), "--steps", "1n",
                   "--seeds", ",".join(str(s) for s in range(1, 11)),
                   "--out", str(tmp_path), "--tag", "m"])
        assert rc == 0
        csvs = [f for f in os.listdir(tmp_path)
                if f.endswith(".csv") and "summary" not in f]
        assert len(csvs) == 10
        for f in csvs:
            head = (tmp_path / f).read_text().splitlines()[0]
            assert head == TRACE_HEADER

    def test_jobs_capped_by_cells(self, dataset, tmp_path, monkeypatch):
        seen = []

        class InlinePool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("ascd.cli.ProcessPoolExecutor", InlinePool)
        rc = main(["sweep", "--data", str(dataset), "--steps", "1n",
                   "--seeds", "1,2", "--jobs", "64",
                   "--out", str(tmp_path), "--tag", "j"])
        assert rc == 0
        assert seen == [2]

    def test_summary_names_what_each_cell_ran(self, dataset, tmp_path):
        # scd runs g1 from a true-gradient start whatever its flags say,
        # and ucd reads no oracle and no init: each runs once, under the
        # first tag in product order
        rc = main(["sweep", "--data", str(dataset), "--steps", "1n",
                   "--rules", "scd,ucd", "--oracles", "g1,g4",
                   "--epsilons", "0.5", "--inits", "none,true-gradient",
                   "--out", str(tmp_path), "--tag", "rc"])
        assert rc == 0
        head, *rows = (tmp_path / "rc_summary.csv").read_text().splitlines()
        assert head.split(",")[:6] == ["tag", "rule", "oracle", "epsilon",
                                       "seed", "init"]
        ran = [tuple(row.split(",")[:6]) for row in rows]
        assert ran == [
            ("rc_scd_g1_eps0.5_seed0_none", "scd", "g1", "0.0", "0",
             "true-gradient"),
            ("rc_ucd_g1_eps0.5_seed0_none", "ucd", "", "", "0", "none")]
        assert read_json(tmp_path / "rc_sweep.json")["cells"] == 2
        for tag, *_, init in ran:
            cell = read_json(tmp_path / f"{tag}.json")
            assert cell["init"] == init
        assert sorted(p.name for p in tmp_path.glob("rc_*.csv")) == [
            "rc_scd_g1_eps0.5_seed0_none.csv", "rc_summary.csv",
            "rc_ucd_g1_eps0.5_seed0_none.csv"]

    def test_distinct_cells_per_seed(self, dataset, tmp_path):
        # the seed keeps cells apart even where nothing else does
        rc = main(["sweep", "--data", str(dataset), "--steps", "1n",
                   "--rules", "ucd", "--oracles", "g1,g3",
                   "--seeds", "4,5", "--out", str(tmp_path), "--tag", "ds"])
        assert rc == 0
        rows = (tmp_path / "ds_summary.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [
            "ds_ucd_g1_eps0_seed4_none", "ds_ucd_g1_eps0_seed5_none"]

    # (--rules, --oracles, the cells that fail, the cells that run)
    REJECTED_CELLS = [
        ("ucd,scd", "g3,g9",
         ["ucd_g9_eps0_seed0_none", "scd_g9_eps0_seed0_none"],
         ["ucd_g3_eps0_seed0_none", "scd_g3_eps0_seed0_none"]),
        # a deleted rule
        ("ascd-gss,ascd-gsq", "g3", ["ascd-gsq_g3_eps0_seed0_none"],
         ["ascd-gss_g3_eps0_seed0_none"]),
    ]

    def test_rejected_cells_fail_alone(self, dataset, tmp_path):
        # a cell whose flags are rejected is never folded into another
        for k, (rules, oracles, failed, ran) in enumerate(
                self.REJECTED_CELLS):
            tag = f"rj{k}"
            rc = main(["sweep", "--data", str(dataset), "--steps", "1n",
                       "--rules", rules, "--oracles", oracles,
                       "--out", str(tmp_path), "--tag", tag])
            assert rc == 1
            summary = read_json(tmp_path / f"{tag}_sweep.json")
            assert summary["cells"] == len(failed) + len(ran)
            assert [item["tag"] for item in summary["failed"]] == [
                f"{tag}_{cell}" for cell in failed]
            rows = (tmp_path / f"{tag}_summary.csv").read_text()
            assert [row.split(",")[0] for row in rows.splitlines()[1:]] == [
                f"{tag}_{cell}" for cell in ran]

    def test_cell_cap(self, dataset, tmp_path):
        rc = main(["sweep", "--data", str(dataset), "--steps", "1n",
                   "--seeds", "1,2,3", "--epsilons", "0,1", "--max-cells",
                   "5", "--out", str(tmp_path), "--tag", "cap"])
        assert rc == 2
        # six requested cells, three distinct: the cap reads the request
        rc = main(["sweep", "--data", str(dataset), "--steps", "1n",
                   "--rules", "ucd", "--oracles", "g1,g3",
                   "--seeds", "1,2,3", "--max-cells", "5",
                   "--out", str(tmp_path), "--tag", "cap"])
        assert rc == 2
        assert not list(tmp_path.glob("cap*"))

    def test_partial_failure_reported(self, dataset, tmp_path):
        rc = main(["sweep", "--data", str(dataset), "--l2", "0.1",
                   "--steps", "1n", "--oracles", "g3,g9",
                   "--out", str(tmp_path), "--tag", "pf"])
        assert rc == 1
        summary = read_json(tmp_path / "pf_sweep.json")
        assert len(summary["failed"]) == 1
        assert "g9" in summary["failed"][0]["tag"]
        ok_rows = (tmp_path / "pf_summary.csv").read_text().splitlines()
        assert len(ok_rows) == 2  # header plus the healthy cell


class TestHardcase:
    def test_worst_start_verifies(self, tmp_path):
        rc = main(["hardcase", "--n", "20", "--alpha", "0.01", "--steps",
                   "100", "--start", "worst", "--out", str(tmp_path)])
        assert rc == 0
        summary = read_json(tmp_path / "hardcase.json")
        jsonschema.validate(summary, HARDCASE_SUMMARY_SCHEMA)
        assert summary["cycling_ok"] is True
        assert summary["omega_max"] <= 4.0
        rows = (tmp_path / "hardcase.csv").read_text().splitlines()
        assert rows[0] == "t,i,omega,grad_inf"
        assert len(rows) == 101

    def test_ones_start_no_verification(self, tmp_path):
        rc = main(["hardcase", "--n", "12", "--alpha", "0.1", "--steps",
                   "60", "--start", "ones", "--out", str(tmp_path),
                   "--tag", "ones"])
        assert rc == 0
        summary = read_json(tmp_path / "ones.json")
        assert summary["cycling_checked"] is False

    def test_failed_verification_exits_1(self, tmp_path, capsys,
                                         monkeypatch):
        real = ascd.hardcase.verify_cycling
        # a negative tolerance fails every shrink check
        monkeypatch.setattr(ascd.hardcase, "verify_cycling",
                            lambda hc, steps: real(hc, steps, rel_tol=-1.0))
        rc = main(["hardcase", "--n", "10", "--steps", "10",
                   "--out", str(tmp_path)])
        assert rc == 1
        assert read_json(tmp_path / "hardcase.json")["cycling_ok"] is False
        assert capsys.readouterr().err.startswith(
            "cycling verification failed at step 0")

    def test_alpha_out_of_range(self, tmp_path):
        rc = main(["hardcase", "--n", "10", "--alpha", "0.6", "--steps",
                   "10", "--out", str(tmp_path)])
        assert rc == 2

    @pytest.mark.parametrize("flags", [["--steps", "5"],
                                       ["--start", "ones", "--steps", "0"]])
    def test_too_few_steps(self, tmp_path, capsys, flags):
        rc = main(["hardcase", "--n", "10", *flags, "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --steps")

    def test_byte_determinism(self, tmp_path):
        args = ["hardcase", "--n", "15", "--alpha", "0.05", "--steps", "45"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("hardcase.csv", "hardcase.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestRatioSim:
    def test_summary_against_closed_form(self, tmp_path):
        rc = main(["ratio-sim", "--n", "100", "--s", "10", "--c", "1",
                   "--t-inf", "400", "--steps", "20000",
                   "--out", str(tmp_path)])
        assert rc == 0
        summary = read_json(tmp_path / "ratio.json")
        jsonschema.validate(summary, RATIO_SUMMARY_SCHEMA)
        assert summary["rho_closed_form"] == pytest.approx(0.782, abs=5e-4)
        assert abs(summary["rho_empirical_mean"]
                   - summary["rho_closed_form"]) < 0.05
        rows = (tmp_path / "ratio.csv").read_text().splitlines()
        assert rows[0] == "t,rho,active_size"
        assert len(rows) == 20001

    def test_invalid_parameters(self, tmp_path):
        rc = main(["ratio-sim", "--n", "10", "--s", "20", "--t-inf", "50",
                   "--steps", "100", "--out", str(tmp_path)])
        assert rc == 2

    def test_byte_determinism(self, tmp_path):
        args = ["ratio-sim", "--n", "40", "--s", "5", "--t-inf", "60",
                "--steps", "500", "--seed", "3", "--reentry", "fixed"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("ratio.csv", "ratio.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestRejectedInput:
    """Every subcommand turns rejected input into exit 2 and one line."""

    # --config files of the rows below: values of the wrong type, and a
    # JSON value that is not an object
    CONFIGS = {"seed-float.json": {"seed": 1.5}, "l2-list.json": {"l2": [1]},
               "binarize-string.json": {"binarize": "yes"},
               "list.json": [1]}
    # input files of the rows below, as raw bytes
    FILES = {"latin1.svm": b"1 1:1\n2 2:\xff\n",
             "labels-only.svm": b"1\n2\n",
             "zero-features.svm": b"1 1:0\n2 2:0\n",
             "wide-index.svm": b"1 1:1 100000000000000000000000000000:2\n",
             "not-json.json": b"{not json"}

    @pytest.mark.parametrize("argv,named", [
        pytest.param(["generate", "--rows", "0", "--cols", "10"], "--rows",
                     id="generate-rows"),
        pytest.param(["generate", "--rows", "10", "--cols", "10",
                      "--support-frac", "2"], "--support-frac",
                     id="generate-support-frac"),
        # the squared column norms underflow although no value does
        pytest.param(["generate", "--rows", "20", "--cols", "10",
                      "--scale-factor", "1e-200"], "--scale-factor",
                     id="generate-underflow"),
        pytest.param(["generate", "--rows", "10", "--cols", "10",
                      "--noise-sigma", "nan"], "--noise-sigma",
                     id="generate-noise-nan"),
        # each of these three used to write its dataset: the first two
        # recorded the negative value, and a zero fraction planted one
        # coordinate
        pytest.param(["generate", "--rows", "10", "--cols", "10",
                      "--support-frac", "-1"], "--support-frac",
                     id="generate-support-frac-negative"),
        pytest.param(["generate", "--rows", "10", "--cols", "10",
                      "--support-frac", "0"], "--support-frac",
                     id="generate-support-frac-zero"),
        pytest.param(["generate", "--rows", "10", "--cols", "10",
                      "--noise-sigma", "-0.5"], "--noise-sigma",
                     id="generate-noise-negative"),
        # numpy's rejection named no flag
        pytest.param(["generate", "--rows", "10", "--cols", "10",
                      "--seed", "-1"], "--seed", id="generate-seed-negative"),
        pytest.param(["sweep", "--data", "{data}", "--steps", "1n",
                      "--seeds", "x"], "--seeds", id="sweep-seeds"),
        pytest.param(["sweep", "--data", "{data}", "--steps", "1n",
                      "--seeds", "1,2,3", "--epsilons", "0,1",
                      "--max-cells", "5"], "--max-cells",
                     id="sweep-max-cells"),
        # a flag every cell shares used to fail each cell with exit 1
        pytest.param(["sweep", "--data", "{data}", "--steps=-3n",
                      "--seeds", "1,2"], "--steps",
                     id="sweep-steps-negative-multiple"),
        pytest.param(["sweep", "--data", "{data}", "--steps", "1n",
                      "--seeds", "1,2", "--l2", "nan"], "--l2",
                     id="sweep-l2-nan"),
        pytest.param(["run", "--data", "{tmp}/nope.svm", "--steps", "5"],
                     None, id="run-missing-data"),
        pytest.param(["run", "--data", "{tmp}/latin1.svm", "--steps", "5"],
                     "latin1.svm:2", id="run-data-not-utf8"),
        # files that store no feature used to fail in a reduction over an
        # empty matrix
        pytest.param(["run", "--data", "{tmp}/labels-only.svm", "--steps",
                      "5"], "labels-only.svm", id="run-data-labels-only"),
        pytest.param(["run", "--data", "{tmp}/zero-features.svm",
                      "--steps", "5"], "zero-features.svm",
                     id="run-data-zero-features"),
        # an index beyond int64 used to load after a warning about
        # 99999999999999999999999999998 empty columns
        pytest.param(["run", "--data", "{tmp}/wide-index.svm", "--steps",
                      "5"], "wide-index.svm:1: feature index",
                     id="run-data-index-beyond-int64"),
        pytest.param(["run", "--data", "{data}", "--steps", "infn"],
                     "--steps", id="run-steps-inf"),
        # a multiple of n that is not positive used to run one step
        pytest.param(["run", "--data", "{data}", "--steps=-3n"],
                     "--steps", id="run-steps-negative-multiple"),
        pytest.param(["run", "--data", "{data}", "--steps=-0.5n"],
                     "--steps", id="run-steps-negative-fraction"),
        pytest.param(["run", "--data", "{data}", "--steps", "0n"],
                     "--steps", id="run-steps-zero-multiple"),
        pytest.param(["run", "--data", "{data}", "--steps", "0"],
                     "--steps", id="run-steps-zero"),
        pytest.param(["run", "--data", "{data}", "--steps", "x"],
                     "--steps", id="run-steps-not-a-number"),
        # a finite multiple whose step count overflows to inf
        pytest.param(["run", "--data", "{data}", "--steps", "1e308n"],
                     "--steps", id="run-steps-overflow"),
        # counts beyond a 64-bit index used to fail in numpy's allocation
        # with a message that named no flag
        pytest.param(["run", "--data", "{data}", "--steps",
                      "100000000000000000000"], "--steps",
                     id="run-steps-beyond-int64"),
        pytest.param(["run", "--data", "{data}", "--steps", "1e30n"],
                     "--steps", id="run-steps-multiple-beyond-int64"),
        # int() refuses counts of more than 4300 digits
        pytest.param(["run", "--data", "{data}", "--steps", "9" * 5000],
                     "more steps than a 64-bit index counts",
                     id="run-steps-beyond-int-digits"),
        # a worker count below one used to run serially
        pytest.param(["sweep", "--data", "{data}", "--steps", "1n",
                      "--jobs", "0"], "--jobs", id="sweep-jobs-zero"),
        pytest.param(["sweep", "--data", "{data}", "--steps", "1n",
                      "--jobs", "-4"], "--jobs", id="sweep-jobs-negative"),
        pytest.param(["run", "--data", "{data}", "--steps", "5",
                      "--l2", "nan"], "--l2", id="run-l2-nan"),
        pytest.param(["run", "--data", "{data}", "--steps", "5",
                      "--l2", "inf"], "--l2", id="run-l2-inf"),
        pytest.param(["run", "--data", "{data}", "--steps", "5",
                      "--l1", "nan"], "--l1", id="run-l1-nan"),
        pytest.param(["run", "--data", "{data}", "--steps", "5",
                      "--oracle", "g2", "--epsilon", "nan"], "--epsilon",
                     id="run-epsilon-nan"),
        pytest.param(["run", "--data", "{data}", "--steps", "5",
                      "--seed", "-1"], "--seed", id="run-seed-negative"),
        # a deleted rule
        pytest.param(["run", "--data", "{data}", "--steps", "5",
                      "--rule", "ascd-gsq"], "--rule", id="run-rule-ascd-gsq"),
        pytest.param(["run", "--data", "{data}", "--steps", "5",
                      "--diag-every", "-1"], "--diag-every",
                     id="run-diag-every-negative"),
        pytest.param(["run", "--data", "{data}", "--steps", "5",
                      "--take-cols", "0"], "--take-cols",
                     id="run-take-cols-zero"),
        pytest.param(["run", "--data", "{data}", "--steps", "5",
                      "--take-cols", "5", "--take-seed", "-1"], "--take-seed",
                     id="run-take-seed-negative"),
        pytest.param(["hardcase", "--n", "10", "--alpha", "0.6",
                      "--steps", "10"], "--alpha", id="hardcase-alpha"),
        pytest.param(["hardcase", "--n", "2", "--steps", "2"], "--n > 2",
                     id="hardcase-n-2"),
        # the cycling ratio cannot be resolved in float64 at this size
        pytest.param(["hardcase", "--n", "500000000000000", "--steps", "1",
                      "--start", "ones"], "--n 500000000000000",
                     id="hardcase-n-unresolvable"),
        # these two printed a MemoryError traceback: 728 TiB and 4 EiB lie
        # beyond a 47-bit address space, so the allocation fails before
        # any memory is touched
        pytest.param(["hardcase", "--n", "100000000000000", "--steps", "1",
                      "--start", "ones"], "--n 100000000000000",
                     id="hardcase-n-beyond-memory"),
        pytest.param(["ratio-sim", "--n", "4611686018427387904", "--s", "10",
                      "--t-inf", "5", "--steps", "10"],
                     "--n 4611686018427387904",
                     id="ratio-sim-n-beyond-memory"),
        pytest.param(["ratio-sim", "--n", "10", "--s", "20", "--t-inf", "50",
                      "--steps", "100"], None, id="ratio-sim-s"),
        pytest.param(["ratio-sim", "--n", "10", "--s", "2", "--t-inf", "inf",
                      "--steps", "100"], "--t-inf", id="ratio-sim-t-inf-inf"),
        # a removed coordinate waits at least one step, so no mode
        # realises a mean below 1
        pytest.param(["ratio-sim", "--n", "10", "--s", "2", "--t-inf", "0.5",
                      "--steps", "100"], "--t-inf",
                     id="ratio-sim-t-inf-below-one"),
        pytest.param(["ratio-sim", "--n", "10", "--s", "2", "--t-inf", "0.5",
                      "--steps", "100", "--reentry", "fixed"], "--t-inf",
                     id="ratio-sim-fixed-t-inf-below-one"),
        # a fixed delay simulated round(t_inf) and reported the closed
        # form of t_inf
        pytest.param(["ratio-sim", "--n", "100", "--s", "10", "--t-inf",
                      "2.5", "--steps", "100", "--reentry", "fixed"],
                     "--reentry fixed needs a whole --t-inf",
                     id="ratio-sim-fixed-t-inf-fractional"),
        pytest.param(["ratio-sim", "--n", "10", "--s", "2", "--t-inf", "50",
                      "--steps", "100", "--seed", "-1"], "--seed",
                     id="ratio-sim-seed-negative"),
        # argparse converts only string defaults, so each of these reached
        # run: a TypeError, a TypeError, and a silently accepted switch
        pytest.param(["run", "--data", "{data}", "--steps", "5", "--config",
                      "{tmp}/seed-float.json"], "seed 1.5",
                     id="run-config-seed-float"),
        pytest.param(["run", "--data", "{data}", "--steps", "5", "--config",
                      "{tmp}/l2-list.json"], "l2 [1]",
                     id="run-config-l2-list"),
        pytest.param(["run", "--data", "{data}", "--steps", "5", "--config",
                      "{tmp}/binarize-string.json"], "binarize \"yes\"",
                     id="run-config-binarize-string"),
        # these three printed an argparse usage line before the error
        pytest.param(["run", "--data", "{data}", "--steps", "5", "--config",
                      "{tmp}/nope.json"], "--config", id="run-config-missing"),
        pytest.param(["run", "--data", "{data}", "--steps", "5", "--config",
                      "{tmp}/not-json.json"], "--config",
                     id="run-config-not-json"),
        pytest.param(["run", "--data", "{data}", "--steps", "5", "--config",
                      "{tmp}/list.json"], "--config",
                     id="run-config-not-object"),
    ])
    def test_exit_2_single_error_line(self, dataset, tmp_path, capsys, argv,
                                      named):
        out = tmp_path / "out"
        for name, content in self.FILES.items():
            (tmp_path / name).write_bytes(content)
        for name, content in self.CONFIGS.items():
            (tmp_path / name).write_text(json.dumps(content))
        argv = [a.format(data=dataset, tmp=tmp_path) for a in argv]
        rc = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        # the message names the flag or field to fix
        if named is not None:
            assert named in err
        written = os.listdir(out) if out.exists() else []
        assert not [f for f in written if f.endswith((".csv", ".json",
                                                      ".svm", ".npz"))]

    # each printed Python's conversion error: "nan" lost its last letter
    # to the multiple's suffix, the others failed int()
    @pytest.mark.parametrize("command,value", [
        ("run", "nan"), ("run", "NaN"), ("run", "1e3"), ("run", "inf"),
        ("run", "-inf"), ("run", "1.5"), ("run", "ten"), ("run", "n10"),
        ("run", ""), ("sweep", "nan"), ("sweep", "1e3")])
    def test_steps_not_a_count(self, dataset, tmp_path, capsys, command,
                               value):
        out = tmp_path / "out"
        extra = ["--seeds", "1,2"] if command == "sweep" else []
        rc = main([command, "--data", str(dataset), f"--steps={value}",
                   *extra, "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err == (f"error: --steps {value!r}: expected a positive "
                       "integer or a multiple of n such as 10n\n")
        assert not out.exists() or not os.listdir(out)

    def test_steps_beyond_memory(self, dataset, tmp_path, capsys,
                                 monkeypatch):
        # a count below the 64-bit limit whose trace cannot be allocated;
        # the patched allocations raise, so the OS is asked for nothing
        # (2**62 rows also exceed numpy's largest array, should the patch
        # miss)
        steps = 2 ** 62
        refused = refuse_trace_length(monkeypatch, steps)
        out = tmp_path / "out"
        rc = main(["run", "--data", str(dataset), "--steps", str(steps),
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and refused
        assert err.startswith("error: --steps ") and err.count("\n") == 1
        assert not [f for f in os.listdir(out)
                    if f.endswith((".csv", ".json", ".npz"))]

    @pytest.mark.parametrize("argv", [
        pytest.param(["sweep", "--data", "{data}", "--steps", "{steps}",
                      "--seeds", "1,2"], id="sweep"),
        pytest.param(["hardcase", "--n", "10", "--steps", "{steps}"],
                     id="hardcase-worst"),
        pytest.param(["hardcase", "--n", "10", "--steps", "{steps}",
                      "--start", "ones"], id="hardcase-ones"),
        pytest.param(["ratio-sim", "--n", "10", "--s", "2", "--t-inf", "50",
                      "--steps", "{steps}"], id="ratio-sim"),
    ])
    def test_steps_beyond_memory_every_subcommand(self, dataset, tmp_path,
                                                  capsys, monkeypatch, argv):
        # as above: the patched allocations refuse the trace's length, so
        # the OS is asked for nothing.  A sweep checks the length once,
        # before any cell runs
        steps = 2 ** 62
        refused = refuse_trace_length(monkeypatch, steps)
        out = tmp_path / "out"
        rc = main([*(a.format(data=dataset, steps=steps) for a in argv),
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and len(refused) == 1
        assert err == (f"error: --steps {steps}: a trace that long does not "
                       "fit in memory\n")
        written = os.listdir(out) if out.exists() else []
        assert not [f for f in written
                    if f.endswith((".csv", ".json", ".npz"))]

    @pytest.mark.parametrize("rows,cols,flag", [
        (2, 2 ** 50, "--cols"),
        (2 ** 50, 2, "--rows"),
        (2 ** 63 - 1, 2, "--rows"),
    ], ids=["cols-2**50", "rows-2**50", "rows-int64-max"])
    def test_generate_shape_beyond_memory(self, tmp_path, capsys, rows, cols,
                                          flag):
        # the first looped until killed, the second died in a traceback
        # and the third named no flag.  At 2**50 and beyond no allocation
        # the generator makes before its first draw can succeed
        rc = main(["generate", "--rows", str(rows), "--cols", str(cols),
                   "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1
        assert "fit in memory" in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv", [
        ["hardcase", "--n", "10"],
        ["ratio-sim", "--n", "10", "--s", "2", "--t-inf", "50"],
    ], ids=["hardcase", "ratio-sim"])
    def test_steps_beyond_numpy_dimension(self, tmp_path, capsys, argv):
        # numpy rejects this length before it allocates anything; it
        # printed "Maximum allowed dimension exceeded"
        rc = main([*argv, "--steps", str(10 ** 20), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: --steps ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    # each of these names was removed
    @pytest.mark.parametrize("argv,flag", [
        (["--update", "prox"], "--update"),
        (["--update", "fixed"], "--update"),
        (["--rule", "l-ascd"], "--rule"),
        (["--rule", "u-ascd"], "--rule"),
        (["--rule", "a-ascd"], "--rule"),
        (["--oracle", "bh"], "--oracle"),
        (["--hessian-bound", "1"], "--hessian-bound"),
        (["--per-coordinate"], "--per-coordinate"),
        (["--rho-support", "4"], "--rho-support"),
        (["--step-scale", "inf"], "--step-scale"),
        (["--oracle-seed", "-1"], "--oracle-seed"),
        (["hardcase", "--n", "10", "--steps", "10", "--seed", "1"],
         "--seed"),
    ], ids=["update-prox", "update-fixed", "rule-l-ascd", "rule-u-ascd",
            "rule-a-ascd", "oracle-bh", "hessian-bound", "per-coordinate",
            "rho-support", "run-step-scale-inf", "run-oracle-seed-negative",
            "hardcase-seed"])
    def test_prox_update_rejected(self, dataset, capsys, argv, flag):
        # rows that name no subcommand are run flags
        if argv[0].startswith("--"):
            argv = ["run", "--data", str(dataset), "--steps", "5", *argv]
        assert main(argv) == 2
        # one error line, with no usage text, names the flag
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err

    @pytest.mark.parametrize("overrides", [
        {"n_cols": 1}, {"sparsity_factor": 0.0}, {"sparsity_factor": -1.0},
        {"column_scale_factor": 0.0}, {"support_frac": 2.0}])
    def test_synth_config_rejects_hanging_inputs(self, overrides):
        # each of these made generate_synthetic loop forever or crash
        with pytest.raises(ValueError):
            SynthConfig(**{"n_rows": 5, "n_cols": 10, **overrides})
