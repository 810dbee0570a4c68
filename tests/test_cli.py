import dataclasses
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import equivar.cli
from equivar import BootstrapConfig, ExperimentConfig, GroupedSample, NumericError, run_all
from equivar.cli import _config_from_json, main

GOOD_CSV = "group,value\n" + "".join(
    f"a,{v}\n" for v in [0.1, -0.3, 0.5, 1.2, -0.9, 0.7, -0.4, 0.2, 1.1, -0.6]
) + "".join(f"b,{v}\n" for v in [0.4, 0.0, -0.2, 0.8, -1.1, 0.3, -0.7, 0.9, -0.5, 0.6])


@pytest.fixture
def data_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(GOOD_CSV)
    return str(path)


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
            ({"seed": -1}, "master_seed must be nonnegative"),
            ({"alpha": True}, "alpha must be a finite real number"),
            ({"alpha": "0.05"}, "alpha must be a finite real number"),
            ({"variances": [1, "nan"]}, "variances must hold finite real numbers"),
            ({"variances": [1, float("nan")]}, "variances must hold finite real numbers"),
            ({"tests": "levene"}, "tests must be a sequence of test names"),
            ({"tests": None}, "tests must be a sequence of test names"),
            ({"distribution": "cauchy"}, "unknown distribution 'cauchy'; choose from"),
            ({"variances": [1, 1e101]}, "variances must be positive, from 1e-100 to 1e100"),
            ({"replications": 2**32 + 1}, "replications must be at most 2**32"),
            ({"tests": ["box", "box"]}, "duplicate tests: box"),
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
        assert captured.err == "error: threads must be an integer >= 1, got 0\n"

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

    @pytest.mark.parametrize(
        "alpha, message",
        [
            ("1.5", "alpha must lie in (0, 1), got 1.5"),
            ("0", "alpha must lie in (0, 1), got 0.0"),
            ("nan", "alpha must be a finite real number, got nan"),
        ],
    )
    def test_alpha_out_of_range_exits_2(self, capsys, alpha, message):
        assert main(["critical", "--sizes", "10,10", "--alpha", alpha, "--draws", "2000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_gate_output_is_pinned(self, capsys):
        # the reproducibility contract for the calibration: a fixed seed keeps this digest
        assert main(["critical", "--sizes", "10,10", "--draws", "200000", "--seed", "1"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "01dfc84cd3f0c7f1004b0895cac2dbce02297aff4d5e290258948f42caa32ca1"

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
