import csv
import dataclasses
import hashlib
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import equivar.cli
import equivar.dirichlet
import equivar.homogeneity
import equivar.simulation
from equivar import BootstrapConfig, ExperimentConfig, GroupedSample, NumericError, run_all, two_group_null_grid
from equivar.cli import _config_from_json, main

GOOD_CSV = "group,value\n" + "".join(
    f"a,{v}\n" for v in [0.1, -0.3, 0.5, 1.2, -0.9, 0.7, -0.4, 0.2, 1.1, -0.6]
) + "".join(f"b,{v}\n" for v in [0.4, 0.0, -0.2, 0.8, -1.1, 0.3, -0.7, 0.9, -0.5, 0.6])


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(GOOD_CSV)
    return str(path)


# One-cell grids whose CSV must not depend on the thread count: each cell, the thread counts it runs at,
# and the sha256 of its CSV.
ONE_CELL_PINS = {
    # a one-cell grid runs ranges of its resample batches on threads (here two replications per batch, in
    # one chunk of 20)
    "cell": ({"distribution": "laplace", "sizes": [40, 40, 40, 40], "variances": [1.0, 2.0, 3.0, 4.0],
              "replications": 20, "seed": 7},
             ("1", "2"), "0a5e8b9c4f94f8e2f7c116ac7cb76f636fa75f426e8b126eb1f406afc537379c"),
    # groups of fewer than 8 sum rows by whole columns at every stack size; resample batches are 218 wide,
    # so serially each chunk, of 105, 105 and 15 replications, is one batch (5250 box rows, by columns; the
    # last 750, by rows); on 2 threads the ranges 0-217 and 218-224 end in chunks of 8 and 7
    "short": ({"distribution": "uniform", "sizes": [3, 5, 7], "variances": [1.0, 1.0, 1.0], "replications": 225,
               "bootstrap_b": 50, "seed": 8},
              ("1", "2"), "a6d587f99b3949322d0e04e9c5c2e56fa14d976f152d8d93adf9c03b872a1a7a"),
    # groups of 8 and 15, one chunk of 75 replications in resample batches of 71 and 4: box stacks of 7100
    # rows take the kernels by columns, and the last batch's 400 rows by rows
    "columns": ({"distribution": "laplace", "sizes": [8, 15], "variances": [1.0, 1.0], "replications": 75,
                 "bootstrap_b": 100, "seed": 11},
                ("1", "2"), "fd307194cf35e6b46bfeca9c7a11a4a186632c7c7dd7bf6c48fa07cdbb46d7ea"),
    # bootstrap Levene only, null and unsmoothed: a replication stops resampling once its decision is
    # settled, and one that goes on draws its remaining indices in a second call; batches of 9
    "decide": ({"distribution": "normal", "sizes": [12, 12, 12], "variances": [1.0, 1.0, 1.0], "replications": 120,
                "seed": 10, "tests": ["bootstrap_levene"]},
               ("1", "2"), "eda6fcf6264d07f8b516ac9acd05b0e8b4c7e920becdabbc1cae772b4187464a"),
    # box only, with redraw rounds: serially, chunks of 105 and 95 replications resampled in batches of 81
    "redraw": ({"distribution": "normal", "sizes": [2, 2], "variances": [1.0, 1.0], "replications": 200,
                "bootstrap_b": 500, "seed": 9, "tests": ["box"]},
               ("1", "2", "3"), "6cbfb841b7c98c0a8c29c994e863f1978f60b9f54bf085c17cce65f46971487b"),
    # resamples beyond the cap: a replication's 2000 resamples of 400 values are drawn in slices of rows,
    # each box group in slices of 819 and bootstrap Levene's pooled rows in slices of 409, reduced as they
    # land; a variance ratio of 1.5 makes both tests reject some replications and accept others
    "slices": ({"distribution": "normal", "sizes": [200, 200], "variances": [1.0, 1.5], "replications": 4,
                "bootstrap_b": 2000, "seed": 14, "tests": ["box", "bootstrap_levene"]},
               ("1", "2"), "8aa0a7560fc2dc20362c3c952abf3b54b20005594d195d64871ac134e252f6c3"),
}


class TestTestCommand:
    def test_table_output(self, data_csv, capsys):
        assert main(["test", data_csv, "--seed", "3", "--bootstrap-b", "60"]) == 0
        out = capsys.readouterr().out
        for name in ("levene", "shoemaker", "bootstrap_levene", "box"):
            assert name in out

    def test_json_round_trip(self, data_csv, capsys):
        assert main(["test", data_csv, "--seed", "3", "--bootstrap-b", "60", "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        _, data = None, GroupedSample([
            [float(line.split(",")[1]) for line in GOOD_CSV.splitlines()[1:11]],
            [float(line.split(",")[1]) for line in GOOD_CSV.splitlines()[11:]],
        ])
        expected, errors = run_all(data, 0.05, BootstrapConfig.from_seed(3, b=60))
        assert errors == {}
        assert parsed == [r.as_dict() for r in expected]

    def test_csv_output(self, data_csv, capsys):
        assert main(["test", data_csv, "--seed", "3", "--bootstrap-b", "40", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "method,statistic,critical_value,p_value,reject"
        assert len(lines) == 5

    def test_identical_groups_accept(self, tmp_path, capsys):
        rows = "group,value\n" + "".join(f"a,{v}\nb,{v}\n" for v in [1.0, 2.0, 3.0, 4.0, 5.0])
        path = tmp_path / "same.csv"
        path.write_text(rows)
        assert main(["test", str(path), "--seed", "1", "--bootstrap-b", "40", "--format", "json"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert all(not r["reject"] for r in parsed)

    def test_single_observation_group_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("group,value\na,1.0\na,2.0\nb,3.0\n")
        assert main(["test", str(path)]) == 2
        assert f"{path}: group 'b' has 1 observation(s)" in capsys.readouterr().err

    def test_single_group_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("group,value\na,1.0\na,2.0\n")
        assert main(["test", str(path)]) == 2
        assert f"{path}: need at least two groups, got 1" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["test", "/nonexistent/nope.csv"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_header_exits_2(self, tmp_path, capsys):
        path = tmp_path / "head.csv"
        path.write_text("grp,val\na,1\n")
        assert main(["test", str(path)]) == 2
        assert "group,value" in capsys.readouterr().err

    def test_non_numeric_value_exits_2(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("group,value\na,1.0\na,x\nb,1.0\nb,2.0\n")
        assert main(["test", str(path)]) == 2
        err = capsys.readouterr().err
        assert "'x'" in err and ":3" in err

    def test_row_with_wrong_field_count_exits_2(self, tmp_path, capsys):
        path = tmp_path / "wide.csv"
        path.write_text("group,value\na,1.0\na,2.0,3.0\nb,1.0\nb,2.0\n")
        assert main(["test", str(path)]) == 2
        assert f"error: {path}:3: expected 2 fields, got 3" in capsys.readouterr().err

    def test_line_numbers_count_lines_inside_quoted_fields(self, tmp_path, capsys):
        path = tmp_path / "multiline.csv"
        path.write_text('group,value\n"a\nb",1\n"a\nb",2\nc,1\nc,x\n')
        assert main(["test", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:7: value 'x' is not a number\n"

    def test_field_over_the_csv_limit_exits_2(self, tmp_path, capsys):
        limit = csv.field_size_limit()
        path = tmp_path / "long.csv"
        path.write_text(f"group,value\na,1.0\na,{'1' * (limit + 1)}\nb,1.0\nb,2.0\n")
        assert main(["test", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}:3: field larger than field limit ({limit})\n"

    @pytest.mark.parametrize(
        "content, byte",
        [(b"\xffgroup,value\n", "0xff"), (b"group,value\na,1.0\na,2.0\nb\xe9,1.0\nb\xe9,2.0\n", "0xe9")],
        ids=["header", "label"],
    )
    def test_undecodable_file_exits_2_naming_it(self, tmp_path, capsys, content, byte):
        path = tmp_path / "latin1.csv"
        path.write_bytes(content)
        assert main(["test", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: 'utf-8' codec can't decode byte {byte} in position ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_value_exits_2(self, tmp_path, capsys, value):
        path = tmp_path / "inf.csv"
        path.write_text(f"group,value\na,1.0\na,2.0\nb,1.0\nb,{value}\n")
        assert main(["test", str(path)]) == 2
        assert f"error: {path}:5: value '{value}' is not finite" in capsys.readouterr().err

    def test_blank_lines_skipped(self, tmp_path, capsys):
        lines = GOOD_CSV.splitlines(keepends=True)
        path = tmp_path / "blank.csv"
        path.write_text("".join(lines[:3]) + "\n   \n" + "".join(lines[3:]) + "\n")
        plain = tmp_path / "plain.csv"
        plain.write_text(GOOD_CSV)
        assert main(["test", str(path), "--seed", "3", "--bootstrap-b", "40", "--format", "json"]) == 0
        with_blanks = capsys.readouterr().out
        assert main(["test", str(plain), "--seed", "3", "--bootstrap-b", "40", "--format", "json"]) == 0
        assert with_blanks == capsys.readouterr().out

    def test_no_test_could_run_exits_2(self, tmp_path, capsys):
        # a constant group, and a group whose absolute deviations from its median are all equal
        path = tmp_path / "none.csv"
        path.write_text("group,value\n" + "a,5\n" * 4 + "b,-2\nb,2\n" * 2)
        assert main(["test", str(path), "--bootstrap-b", "30"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        for name in ("levene", "shoemaker", "bootstrap_levene", "box"):
            assert f"note: {name} not computed: " in captured.err
        assert captured.err.endswith("error: no test could run on this data\n")

    def test_alpha_whose_level_rounds_to_one_exits_2(self, data_csv, capsys):
        assert main(["test", data_csv, "--alpha", "1e-17"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: alpha must leave 1 - alpha below 1.0 in floating point, got 1e-17\n"

    def test_utf8_bom_before_header_accepted(self, tmp_path, capsys):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + GOOD_CSV.encode("utf-8"))
        plain = tmp_path / "plain.csv"
        plain.write_text(GOOD_CSV, encoding="utf-8")
        assert main(["test", str(path), "--seed", "3", "--bootstrap-b", "40", "--format", "json"]) == 0
        with_bom = capsys.readouterr().out
        assert main(["test", str(plain), "--seed", "3", "--bootstrap-b", "40", "--format", "json"]) == 0
        assert with_bom == capsys.readouterr().out

    def test_data_outside_the_supported_scales_exits_2(self, tmp_path, capsys):
        groups = {"a": [1, 2, 3, 4, 6], "b": [1, 5, 9, 2, 14], "c": [3, 3.5, 7, 1, 2]}
        cases = [{g: [scale * v for v in values] for g, values in groups.items()} for scale in (1e80, 1e-80)]
        cases.append({"a": [1e-200, 2e-200, 3e-200], "b": [1e-200, 5e-200, 9e-200]})
        for case in cases:
            path = tmp_path / "scaled.csv"
            path.write_text("group,value\n" + "".join(f"{g},{v!r}\n" for g, vs in case.items() for v in vs))
            assert main(["test", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"error: {path}: group 'a' deviates from its mean" in captured.err
            assert "Traceback" not in captured.err

    def test_resamples_with_undefined_t_are_redrawn(self, tmp_path, capsys):
        # some box resamples of group a have s^2 = 0 after rounding (see test_homogeneity)
        path = tmp_path / "tiny.csv"
        path.write_text("group,value\na,0.0\na,2.7e-162\na,1e-71\nb,1.0\nb,2.0\nb,3.5\n")
        assert main(["test", str(path), "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert [r["method"] for r in json.loads(captured.out)] == ["levene", "shoemaker", "bootstrap_levene", "box"]
        assert captured.err == ""

    def test_partial_degeneracy_reports_notes(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("group,value\n" + "".join("a,5.0\n" for _ in range(5))
                        + "".join(f"b,{v}\n" for v in [1.0, 2.0, 3.0, 4.0, 5.0]))
        assert main(["test", str(path), "--seed", "2", "--bootstrap-b", "30"]) == 0
        captured = capsys.readouterr()
        assert "shoemaker not computed" in captured.err
        assert "levene" in captured.out


class TestSimulateCommand:
    def _config(self, tmp_path, **overrides):
        cfg = {
            "distribution": "normal",
            "sizes": [5, 5],
            "variances": [1.0, 1.0],
            "replications": 30,
            "bootstrap_b": 20,
            "seed": 9,
        }
        cfg.update(overrides)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_csv_to_stdout(self, tmp_path, capsys):
        assert main(["simulate", self._config(tmp_path)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "distribution,sizes,variances,test,rate,se,errors,seed"
        assert len(lines) == 5
        assert lines[1].startswith("normal,5;5,1.0;1.0,levene,")

    def test_deterministic_across_threads(self, tmp_path):
        grids = [
            [  # two cells: one per worker process
                {"distribution": "normal", "sizes": [5, 5], "variances": [1.0, 1.0],
                 "replications": 25, "bootstrap_b": 15, "seed": 4},
                {"distribution": "uniform", "sizes": [5, 10], "variances": [1.0, 4.0],
                 "replications": 25, "bootstrap_b": 15, "seed": 5},
            ],
            [  # one cell of one chunk, five resample batches of width 6: batch ranges on threads
                {"distribution": "laplace", "sizes": [10, 10], "variances": [1.0, 3.0],
                 "replications": 25, "bootstrap_b": 500, "seed": 6},
            ],
        ]
        for i, cfgs in enumerate(grids):
            path = tmp_path / f"grid{i}.json"
            path.write_text(json.dumps(cfgs))
            out1, out2 = tmp_path / f"{i}a.csv", tmp_path / f"{i}b.csv"
            assert main(["simulate", str(path), "--out", str(out1), "--threads", "1"]) == 0
            assert main(["simulate", str(path), "--out", str(out2), "--threads", "2"]) == 0
            assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_distribution_exits_2(self, tmp_path, capsys):
        assert main(["simulate", self._config(tmp_path, distribution="cauchy")]) == 2
        assert "cauchy" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        assert main(["simulate", self._config(tmp_path, burnin=10)]) == 2
        assert "burnin" in capsys.readouterr().err

    def test_pivot_markdown(self, tmp_path, capsys):
        assert main(["simulate", self._config(tmp_path, tests=["levene", "shoemaker"]), "--pivot"]) == 0
        out = capsys.readouterr().out
        assert "| test | normal |" in out
        assert "| levene |" in out

    def test_pivot_refuses_cells_it_would_merge(self, tmp_path, capsys, monkeypatch):
        # the pivot keys a table cell by distribution, sizes and variances; alpha is not shown
        cell = {"distribution": "normal", "sizes": [5, 5], "variances": [1.0, 1.0],
                "replications": 3, "bootstrap_b": 10, "seed": 1}
        other = {**cell, "distribution": "uniform"}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps([cell, other, {**cell, "alpha": 0.5}]))
        monkeypatch.setattr(equivar.cli, "run_grid", lambda *a, **k: pytest.fail("the grid ran"))
        assert main(["simulate", str(path), "--pivot"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "experiments 0 and 2 share distribution, sizes and variances; --pivot would show one of them" in captured.err

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"sizes": [5.7, 5]}, "sizes must hold integers"),
            ({"sizes": 5}, "sizes must be a sequence"),
            ({"replications": "3"}, "replications must be an integer"),
            ({"bootstrap_b": 20.0}, "bootstrap_b must be an integer"),
            ({"seed": True}, "master_seed must be an integer"),
            ({"seed": -1}, "master_seed must be an integer of at least 0, got -1"),
            ({"alpha": True}, "alpha must be a finite real number"),
            ({"alpha": "0.05"}, "alpha must be a finite real number"),
            ({"variances": [1, "nan"]}, "variances must hold finite real numbers"),
            ({"variances": [1, float("nan")]}, "variances must hold finite real numbers"),
            ({"tests": "levene"}, "tests must be a sequence of test names"),
            ({"tests": None}, "tests must be a sequence of test names"),
            ({"distribution": "cauchy"}, "unknown distribution 'cauchy'; choose from"),
            ({"variances": [1, 1e101]}, "variances must be positive, from 1e-100 to 1e100"),
            ({"replications": 2**32 + 1}, "replications must be an integer of at least 1 and at most 4294967296, got 4294967297"),
            ({"tests": ["box", "box"]}, "duplicate tests: box"),
            ({"alpha": 1e-17}, "alpha must leave 1 - alpha below 1.0 in floating point, got 1e-17"),
        ],
    )
    def test_malformed_config_exits_2_naming_the_experiment(self, tmp_path, capsys, overrides, message):
        good = {"distribution": "normal", "sizes": [5, 5], "variances": [1.0, 1.0],
                "replications": 3, "bootstrap_b": 10, "seed": 1}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps([good, {**good, **overrides}]))
        assert main(["simulate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert f"experiment 1: {message}" in captured.err

    def test_required_keys_only_take_the_library_defaults(self):
        obj = {"distribution": "normal", "sizes": [5, 5], "variances": [1, 1]}
        assert _config_from_json(obj, 0) == ExperimentConfig("normal", (5, 5), (1.0, 1.0))

    def test_missing_required_keys_named(self):
        with pytest.raises(ValueError, match=r"experiment 3: missing required key\(s\) \['sizes', 'variances'\]"):
            _config_from_json({"distribution": "normal"}, 3)

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(ExperimentConfig)])
    def test_each_config_field_is_a_json_key(self, field):
        # a field added to ExperimentConfig needs a row here, and becomes a JSON key
        value = {"distribution": "laplace", "sizes": [4, 6], "variances": [1.0, 2.0], "alpha": 0.1,
                 "replications": 7, "bootstrap_b": 9, "master_seed": 3, "tests": ["box"]}[field]
        base = {"distribution": "normal", "sizes": [5, 5], "variances": [1.0, 1.0]}
        key = "seed" if field == "master_seed" else field
        cfg = _config_from_json({**base, key: value}, 0)
        assert cfg == ExperimentConfig(**{**base, field: value})
        assert cfg != ExperimentConfig(**base)

    def test_master_seed_is_not_a_json_key(self):
        obj = {"distribution": "normal", "sizes": [5, 5], "variances": [1, 1], "master_seed": 3}
        with pytest.raises(ValueError, match=r"unknown key\(s\) \['master_seed'\]"):
            _config_from_json(obj, 0)

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_demo_grid_output_is_pinned(self, tmp_path, threads):
        # the reproducibility contract: the demo grid keeps this digest at every thread count
        out = tmp_path / "grid.csv"
        grid = Path(__file__).resolve().parent.parent / "demos" / "grid.json"
        assert main(["simulate", str(grid), "--out", str(out), "--threads", threads]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "da951e9a8415b1a8144c85400d1179501233b04f98c1470c6628d3f5ddadb454"

    def test_null_grid_output_is_pinned(self, tmp_path):
        # the 36-cell null grid at seed 1: one chunk of 60 replications per cell, resampled in batches
        # whose box stacks of B=100 resamples hold from 200 rows (a last batch of 2) to 6000, on both
        # sides of the kernels' shape rule, for groups of 5, 7, 10 and 15
        cells = [
            {"distribution": c.distribution.value, "sizes": list(c.sizes), "variances": list(c.variances),
             "replications": 60, "bootstrap_b": 100, "seed": c.master_seed}
            for c in two_group_null_grid(1)
        ]
        grid, out = tmp_path / "null.json", tmp_path / "null.csv"
        grid.write_text(json.dumps(cells))
        assert main(["simulate", str(grid), "--out", str(out)]) == 0
        digest = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digest == "db5ac861ec793669a2c3191d2afb2de05d4ec399dc55770e41475417e80351fe"

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize(
        "cell, expected",
        [
            ({"distribution": "exponential", "sizes": [5, 6, 7, 8, 9, 10, 11, 12, 13], "variances": [1] * 9,
              "replications": 150, "bootstrap_b": 200, "seed": 12},
             "054b84608e8038d1ca5fa9d038d251c74f2aad6f1d6e9ad227f4097a6c9ba855"),
            ({"distribution": "laplace", "sizes": [4] * 17, "variances": [1] * 16 + [2],
              "replications": 120, "bootstrap_b": 100, "seed": 13},
             "ce6c214ecb1570625ae0f5ef8ac9084380b8f7de985c8da828163ea58bf9db2e"),
        ],
        ids=["9_groups", "17_groups"],
    )
    def test_many_group_output_is_pinned(self, tmp_path, cell, expected, threads):
        # sums across 8 to 15 groups take numpy's pairwise order, and across 16 or more numpy's own sum;
        # both hold at every thread count
        grid, out = tmp_path / "cell.json", tmp_path / "cell.csv"
        grid.write_text(json.dumps(cell))
        assert main(["simulate", str(grid), "--out", str(out), "--threads", threads]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_smoothed_cell_past_the_cap_is_pinned(self, tmp_path, threads):
        # a group of 6 with one of 400: b = 1000 resamples of 406 values are drawn in slices of 403 rows,
        # the smoothed blocks landing whole and the unsmoothed ones as their Levene parts; each test rejects 3 of 12
        cell = {"distribution": "normal", "sizes": [6, 400], "variances": [4.0, 1.0], "replications": 12,
                "bootstrap_b": 1000, "seed": 15, "tests": ["box", "bootstrap_levene"]}
        grid, out = tmp_path / "cell.json", tmp_path / "cell.csv"
        grid.write_text(json.dumps(cell))
        assert main(["simulate", str(grid), "--out", str(out), "--threads", threads]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e58e1c842b37ac292b1c24dc4f71897ab0e9158ace73b5fec6d008b65a470e73"
        )

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "name, threads", [(name, t) for name, (_, counts, _) in ONE_CELL_PINS.items() for t in counts],
        ids=str,
    )
    def test_one_cell_output_is_pinned_at_each_thread_count(self, tmp_path, monkeypatch, name, threads):
        # a CPU per worker, as on a 4-CPU machine, so that 3 threads run 3 ranges
        monkeypatch.setattr(equivar.simulation.os, "cpu_count", lambda: 4)
        cell, _, expected = ONE_CELL_PINS[name]
        grid, out = tmp_path / "cell.json", tmp_path / "cell.csv"
        grid.write_text(json.dumps(cell))
        assert main(["simulate", str(grid), "--out", str(out), "--threads", threads]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([], "config file contains no experiments"),
            ([1], "experiment 0: expected a JSON object"),
            (["normal"], "experiment 0: expected a JSON object"),
        ],
        ids=["empty", "number", "string"],
    )
    def test_grid_without_experiment_objects_exits_2(self, tmp_path, capsys, grid, message):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(grid))
        assert main(["simulate", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_threads_below_one_exits_2(self, tmp_path, capsys):
        assert main(["simulate", self._config(tmp_path), "--threads", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: threads must be an integer of at least 1, got 0\n"

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["simulate", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: Expecting property name")

    @pytest.mark.parametrize("where", ["missing/x.csv", "."], ids=["no_directory", "a_directory"])
    def test_unwritable_out_exits_2_before_the_grid_runs(self, tmp_path, capsys, monkeypatch, where):
        monkeypatch.setattr(equivar.cli, "run_grid", lambda *a, **k: pytest.fail("the grid ran"))
        out = tmp_path / where
        assert main(["simulate", self._config(tmp_path), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(out) in captured.err

    def test_failed_run_leaves_out_as_it_was(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise ValueError("cell failed")

        monkeypatch.setattr(equivar.cli, "run_grid", fail)
        existing, new = tmp_path / "old.csv", tmp_path / "new.csv"
        existing.write_text("old results\n")
        for out in (existing, new):
            assert main(["simulate", self._config(tmp_path), "--out", str(out)]) == 2
            assert capsys.readouterr().err == "error: cell failed\n"
        assert existing.read_text() == "old results\n"
        assert not new.exists()

    def test_pivot_shows_a_nan_rate_as_a_dash(self, tmp_path, capsys):
        # in groups of two, |x - median| is the same for both points: every Levene replication is degenerate
        config = self._config(tmp_path, sizes=[2, 2], replications=5, tests=["levene", "box"])
        assert main(["simulate", config, "--pivot"]) == 0
        out = capsys.readouterr().out
        assert "| levene | - |" in out
        assert re.search(r"\| box \| \d\.\d\d \|", out)


class TestCriticalCommand:
    def test_symmetric_sizes(self, capsys):
        assert main(["critical", "--sizes", "10,10", "--draws", "20000", "--seed", "8"]) == 0
        out = capsys.readouterr().out
        assert "half-width" in out and "coverage" in out
        lines = [l for l in out.splitlines() if l.strip().startswith(("1 ", "2 "))]
        means = [float(l.split()[1]) for l in lines]
        assert all(abs(m) < 0.05 for m in means)
        coverage = float(out.rsplit(":", 1)[1])
        assert 0.95 <= coverage <= 0.95 + 1.0 / 20000

    def test_invalid_sizes_exit_2(self, capsys):
        assert main(["critical", "--sizes", "10,1"]) == 2
        assert main(["critical", "--sizes", "10,x"]) == 2
        capsys.readouterr()
        # one size names the sizes, not the shape parameters they become
        assert main(["critical", "--sizes", "10"]) == 2
        assert capsys.readouterr() == ("", "error: need at least two group sizes, got [10]\n")
        # refused before its shape (n - 1) / 2 overflows the float conversion
        assert main(["critical", "--sizes", f"{10**400},5", "--draws", "1000"]) == 2
        assert capsys.readouterr() == ("", f"error: group size {10**400} is beyond the float range\n")

    def test_overflowed_gamma_totals_exit_3(self, capsys):
        # sizes of 10**308 give shapes of 5e307, whose gamma variates sum past the float maximum
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["critical", "--sizes", ",".join([str(10**308)] * 4), "--draws", "1000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numeric failure: the gamma variates of a Dirichlet row overflowed their float sum "
            "at shapes (5e+307, 5e+307, 5e+307, 5e+307)\n"
        )

    @pytest.mark.parametrize(
        "alpha, message",
        [
            ("1.5", "alpha must lie in (0, 1], got 1.5"),
            ("0", "alpha must lie in (0, 1], got 0.0"),
            ("nan", "alpha must be a finite real number, got nan"),
        ],
    )
    def test_alpha_out_of_range_exits_2(self, capsys, alpha, message):
        assert main(["critical", "--sizes", "10,10", "--alpha", alpha, "--draws", "2000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_alpha_below_one_draw_exits_2(self, capsys):
        # the box would be the largest draw, printed with "se 0.000000" and "coverage 1.000000"; an alpha
        # whose 1 - alpha rounds to 1.0 fails the level rule before the rank is taken
        assert main(["critical", "--sizes", "3,3", "--alpha", "1e-17", "--draws", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: alpha must leave 1 - alpha below 1.0 in floating point, got 1e-17\n"

    @pytest.mark.parametrize("alpha", ["1e-4", "1"])
    def test_alpha_without_a_box_exits_2(self, capsys, alpha):
        # at 1e-4 the box would be the largest of 1000 draws, covering every draw; at 1 it would cover none
        assert main(["critical", "--sizes", "3,3", "--alpha", alpha, "--draws", "1000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: alpha {float(alpha)} leaves no box among 1000 draws: the box would cover every draw or none; "
            "use an alpha below 1, and more draws for a smaller one\n"
        )

    def test_gate_output_is_pinned(self, capsys):
        # the reproducibility contract for the calibration: a fixed seed keeps this digest
        assert main(["critical", "--sizes", "10,10", "--draws", "200000", "--seed", "1"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "01dfc84cd3f0c7f1004b0895cac2dbce02297aff4d5e290258948f42caa32ca1"

    @pytest.mark.parametrize(
        "sizes, draws, expected",
        [
            ("5,10,15", "200000", "af78cff9f52316b363485a15f4d2e44b424c6c7614f2235ab8dd29b5be586d85"),
            ("20,20,20,20", "200000", "9bc7f310e68d29d506c993875256e191b203b7e4f731de13b0e4b3f9c84d8d03"),
            ("5,6,7,8,9,10,11,12,13", "20000", "8e9ac54d9da02db2f393cd2c8b205300f4be4f46d8cb107efee64899e170e21e"),
            (",".join(["4"] * 17), "20000", "248edde51c4aaebfe884dfb628e2b4faf5eb520219b08ccdd6fb24f420d90472"),
        ],
        ids=["unequal shapes", "four equal shapes", "nine groups", "seventeen groups"],
    )
    def test_gate_output_is_pinned_for_more_groups(self, capsys, sizes, draws, expected):
        # the same contract for unequal shapes (broadcast gamma draws), for four groups, and for rows
        # summed in numpy's 8-value pairwise order (nine groups) and by numpy itself (seventeen)
        assert main(["critical", "--sizes", sizes, "--draws", draws, "--seed", "1"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == expected

    def test_two_seeds_agree_within_three_se(self, capsys):
        halves = []
        ses = []
        for seed in ("21", "22"):
            assert main(["critical", "--sizes", "7,12", "--draws", "50000", "--seed", seed]) == 0
            out = capsys.readouterr().out
            line = next(l for l in out.splitlines() if l.startswith("half-width"))
            halves.append(float(line.split(":")[1].split()[0]))
            ses.append(float(line.rsplit("(se", 1)[1].rstrip(")\n ")))
        assert abs(halves[0] - halves[1]) < 3.0 * float(np.hypot(*ses))


@pytest.mark.parametrize(
    "target, argv",
    [
        ("run_all", lambda csv: ["test", csv]),
        ("calibrate_box", lambda csv: ["critical", "--sizes", "10,10", "--draws", "2000"]),
    ],
    ids=["test", "critical"],
)
def test_out_of_memory_exits_3(target, argv, data_csv, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.45 GiB")

    monkeypatch.setattr(f"equivar.cli.{target}", exhausted)
    assert main(argv(data_csv)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory: Unable to allocate 7.45 GiB\n"


def test_numeric_failure_exits_3(data_csv, monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise NumericError("a bootstrap replicate stayed degenerate after 100 redraws")

    monkeypatch.setattr(equivar.cli, "run_all", failing)
    assert main(["test", data_csv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "numeric failure: a bootstrap replicate stayed degenerate after 100 redraws\n"


def test_bootstrap_b_below_one_exits_2_naming_the_option(data_csv, capsys):
    assert main(["test", data_csv, "--bootstrap-b", "0"]) == 2
    assert capsys.readouterr() == (
        "", "error: --bootstrap-b must be an integer of at least 1 and at most 214748364, got 0\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["test", "data.csv", "--seed", "-1"],
        ["test", "data.csv", "--seed", "x"],
        ["critical", "--sizes", "10,10", "--seed", "-1"],
    ],
)
def test_bad_seed_exits_2_naming_the_option(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --seed: expected a nonnegative integer" in err and "Traceback" not in err


class TestOversizedWork:
    """Work beyond ``errors.MAX_VALUES`` values is refused with exit 2, naming it, before anything is drawn."""

    GOOD = {"distribution": "normal", "sizes": [5, 5], "variances": [1.0, 1.0], "replications": 3,
            "bootstrap_b": 10, "seed": 1}

    @pytest.fixture(autouse=True)
    def no_draws(self, monkeypatch):
        def reached(*args, **kwargs):
            raise AssertionError("the work was drawn")

        monkeypatch.setattr(equivar.simulation, "sample_standardized", reached)
        monkeypatch.setattr(equivar.dirichlet, "_dirichlet_rows", reached)
        for name in ("slices", "_resample"):
            monkeypatch.setattr(equivar.homogeneity, name, reached)

    @pytest.mark.parametrize(
        "cell, message",
        [
            # a data chunk of min(105, replications) * sum(sizes) values; numpy called this "array is too big"
            ({"sizes": [4611686018427387904, 5]},
             "sum(sizes) must be an integer of at least 4 and at most 1431655765, got 4611686018427387909"),
            ({"sizes": [2**40, 5], "replications": 105},
             "sum(sizes) must be an integer of at least 4 and at most 40904450, got 1099511627781"),
            # b resamples of sum(sizes) values each: bootstrap Levene would have listed 26843546 slices
            ({"sizes": [10, 10], "bootstrap_b": 2**40},
             "bootstrap_b must be an integer of at least 1 and at most 214748364, got 1099511627776"),
        ],
        ids=["sizes_2**62", "sizes_2**40", "bootstrap_b_2**40"],
    )
    def test_oversized_cell_exits_2_before_the_grid_runs(self, tmp_path, capsys, cell, message):
        path = tmp_path / "grid.json"
        path.write_text(json.dumps([self.GOOD, {**self.GOOD, **cell}]))
        assert main(["simulate", str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: experiment 1: {message}\n")

    def test_oversized_bootstrap_b_exits_2_before_any_draw(self, data_csv, capsys):
        # two groups of 10 values: at most 2**32 // 20 resamples
        assert main(["test", data_csv, "--bootstrap-b", str(2**40)]) == 2
        assert capsys.readouterr() == (
            "", "error: --bootstrap-b must be an integer of at least 1 and at most 214748364, got 1099511627776\n"
        )

    def test_oversized_draws_exit_2(self, capsys):
        assert main(["critical", "--sizes", "10,10", "--draws", str(2**40)]) == 2
        assert capsys.readouterr() == (
            "", "error: draws must be an integer of at least 1000 and at most 2147483648, got 1099511627776\n"
        )


class TestParserReuse:
    """``main`` builds its parser once per process; no call may see state left by another."""

    def test_parser_is_built_once(self):
        assert equivar.cli._build_parser() is equivar.cli._build_parser()

    def test_calls_match_calls_on_a_fresh_parser(self, data_csv, capsys):
        test = ["test", data_csv, "--seed", "3", "--bootstrap-b", "40"]
        sequence = [
            test,
            test + ["--format", "csv"],
            test + ["--format", "json", "--pivot-variant"],
            ["critical", "--sizes", "5,10", "--draws", "2000", "--seed", "4"],
            ["test", data_csv, "--seed", "-1"],
            ["test", "--help"],
            test,
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        reused = [run(argv) for argv in sequence]
        fresh = []
        for argv in sequence:
            equivar.cli._build_parser.cache_clear()
            fresh.append(run(argv))
        assert [code for code, _, _ in reused] == [0, 0, 0, 0, 2, 0, 0]
        assert reused == fresh
        assert reused[-1] == reused[0]
