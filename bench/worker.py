"""One benchmark workload in one fresh process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only

Imports equivar from ``src/`` of the checkout, builds the workload's
inputs from the seed, times calls into equivar's public API, checks the
outputs and prints one JSON line.  ``bench/run.py`` starts this script,
measures set-up from outside and prints the report.  ``--setup-only``
stops once the inputs are built and prints the CLOCK_MONOTONIC time at
which the first timed call would start, with the factor that scales
times to reference speed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import special

from spans import CLI_MAIN, RUN_GRID, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

WORKLOADS = ("null_grid", "wide_cell", "cli")
B = 500                  # bootstrap resamples per resampling test
NULL_GRID_REPS = 200     # replications in one null_grid round, which runs one cell of the grid
WIDE_CELL_REPS = 100     # replications in one wide_cell round
GENERATED_DATASETS = 27  # cli: generated CSVs, besides demos/data.csv
CRITICAL_SIZES = ("10,10", "5,10,15", "20,20,20,20")  # cli: `critical --sizes`
CRITICAL_DRAWS = 200_000
MAX_THREADS = 8
FORMATS = ("table", "csv", "json")
CRITICAL_REL_TOL = 1e-12
# Typical time of reference_ms() on the machine the benchmark was defined on
# (2-core Xeon, Python 3.11.7, numpy 2.4.6, scipy 1.17.1).
REFERENCE_MS = 40.0

# Per-layer metrics of the traced run: (metric, span name, what is reported).
LAYER_METRICS = (
    ("rng.stream.calls", "rng.stream", "calls"),
    ("rng.stream.self_us", "rng.stream", "us"),
    ("special.f_quantile.calls", "special.f_quantile", "calls"),
    ("special.f_quantile.self_us", "special.f_quantile", "us"),
    ("special.chi2_quantile.calls", "special.chi2_quantile", "calls"),
    ("special.chi2_quantile.self_us", "special.chi2_quantile", "us"),
    ("homogeneity.levene.self_us", "homogeneity.levene", "us"),
    ("homogeneity.shoemaker.self_us", "homogeneity.shoemaker", "us"),
    ("homogeneity.bootstrap_levene.self_us", "homogeneity.bootstrap_levene", "us"),
    ("homogeneity.box_test.self_us", "homogeneity.box_test", "us"),
    ("homogeneity.run_all.self_us", "homogeneity.run_all", "us"),
    ("bootstrap.center.self_us", "bootstrap.center", "us"),
    ("bootstrap.search_critical.self_us", "bootstrap.search_critical", "us"),
    ("descriptive.GroupedSample.self_us", "descriptive.GroupedSample", "us"),
    ("descriptive.estimate_moments.self_us", "descriptive.estimate_moments", "us"),
    ("descriptive.log_variance_contrasts.self_us", "descriptive.log_variance_contrasts", "us"),
    ("distributions.sample_standardized.self_us", "distributions.sample_standardized", "us"),
    ("simulation.run_cell.self_us", "simulation.run_cell", "us"),
    ("dirichlet.sample_dirichlet.self_ms", "dirichlet.sample_dirichlet", "ms"),
    ("dirichlet.log_contrast.self_ms", "dirichlet.log_contrast", "ms"),
    ("dirichlet.calibrate_box.self_ms", "dirichlet.calibrate_box", "ms"),
    ("cli.main.self_ms", CLI_MAIN, "ms"),
)
_SCALE = {"calls": (1.0, "count"), "us": (1e-3, "us"), "ms": (1e-6, "ms")}


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def parallel_threads() -> int:
    """The many-process setting: nproc capped at MAX_THREADS, and at least 2."""
    return max(2, min(nproc(), MAX_THREADS))


def derived_seed(workload: str, seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def import_equivar():
    if not (SRC / "equivar" / "__init__.py").is_file():
        raise SystemExit(f"error: no equivar sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import equivar
    import equivar.cli

    if Path(equivar.__file__).resolve().parent != (SRC / "equivar").resolve():
        raise SystemExit(f"error: imported equivar from {equivar.__file__}, not from {SRC}")
    return equivar


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest of its reaped children."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def reference_ms() -> float:
    """Wall time in ms of a fixed computation on the numpy and scipy primitives equivar uses.

    It runs no equivar code, so only the machine's current speed moves it.
    The machine this benchmark was defined on drifts by 20% and more in
    speed over minutes, process CPU time drifting with wall time; every
    timed call is therefore bracketed by runs of this reference, and its
    wall time is reported at reference speed: wall x REFERENCE_MS /
    reference.  Scaled times compare only while this function and
    REFERENCE_MS stay unchanged.
    """
    start = time.perf_counter()
    acc = 0.0
    for i in range(40):
        rng = np.random.Generator(np.random.MT19937(np.random.SeedSequence(i, spawn_key=(i, 0))))
        x = rng.standard_normal(20)
        draws = x[rng.integers(0, 20, size=(500, 20))]
        dev = np.abs(draws - np.median(draws, axis=1, keepdims=True))
        acc += float(np.sort(dev, axis=None)[-1]) + float(dev.mean(axis=1).sum())
        acc += sum(float(special.betainc(0.5, 9.0, 0.01 * j)) for j in range(1, 21))
    gamma = np.log(rng.standard_gamma(np.full((50_000, 2), 4.5)))
    acc += float(np.sort(np.abs(gamma - gamma.mean(axis=0)).max(axis=1))[-1])
    if not math.isfinite(acc):
        raise ArithmeticError("reference computation is not finite")
    return 1000.0 * (time.perf_counter() - start)


def at_reference_speed(walls: list[float], refs: list[float]) -> list[float]:
    """Scale wall time i by the mean of the reference runs just before and after it."""
    return [w * REFERENCE_MS / ((a + b) / 2.0) for w, a, b in zip(walls, refs, refs[1:])]


def p50_p90(values: list[float]) -> tuple[float, float]:
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden(workload: str, seed: int):
    return json.loads(GOLDEN.read_text())[workload].get(str(seed))


class Problems(list):
    """Failed output checks; an empty list means the outputs are correct."""

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.append(message)


# --------------------------------------------------------------------------
# null_grid and wide_cell: rounds of replications through run_grid


def grid_csv(estimates) -> str:
    """Rows in the format of `equivar simulate`."""
    lines = ["distribution,sizes,variances,test,rate,se,errors,seed"]
    for est in estimates:
        c = est.config
        sizes = ";".join(str(s) for s in c.sizes)
        variances = ";".join(repr(v) for v in c.variances)
        for t in c.tests:
            lines.append(
                f"{c.distribution.value},{sizes},{variances},{t},"
                f"{est.rates[t]!r},{est.standard_errors[t]!r},{est.error_counts[t]},{c.master_seed}"
            )
    return "\n".join(lines) + "\n"


class Simulation:
    """A round is one run_grid call on one cell; a replication is one dataset through all four tests.

    null_grid takes the 36 cells of the two-group null grid in turn, one
    per round, at NULL_GRID_REPS replications each; wide_cell runs its one
    cell in every round.  Each round has its own master seed.
    """

    def __init__(self, eq, name: str, seed: int):
        self.eq = eq
        self.name = name
        self.seed = seed
        self.threads = 1 if name == "null_grid" else parallel_threads()
        self.cell_count = len(self.cells_of(0))
        self.golden = load_golden(name, seed) or []
        self.first_cells = self.cells(0)

    def cells_of(self, index: int):
        """Every cell of the workload, with round ``index``'s seed."""
        seed = derived_seed(self.name, self.seed, index)
        if self.name == "null_grid":
            return self.eq.two_group_null_grid(seed, replications=NULL_GRID_REPS, bootstrap_b=B)
        return [
            self.eq.ExperimentConfig(
                distribution="laplace",
                sizes=(40, 40, 40, 40),
                variances=(1.0, 2.0, 3.0, 4.0),
                replications=WIDE_CELL_REPS,
                bootstrap_b=B,
                master_seed=seed,
            )
        ]

    def cells(self, index: int):
        """The one cell that round ``index`` runs."""
        return [self.cells_of(index)[index % self.cell_count]]

    def run(self, cells, threads: int):
        start = time.perf_counter()
        estimates = self.eq.run_grid(cells, threads=threads)
        return time.perf_counter() - start, estimates

    def run_traced(self, cells, tracer: Tracer, unit: str):
        """One serial pass with every wrapped name traced."""
        tracer.begin_unit(unit)
        with tracer.installed():
            start = time.perf_counter()
            estimates = tracer.call(RUN_GRID, self.eq.run_grid, cells, threads=1)
            return time.perf_counter() - start, estimates

    def rounds(self):
        """Yield (index, cells), building each round's inputs before it is timed."""
        index, cells = 0, self.first_cells
        while True:
            yield index, cells
            index += 1
            cells = self.cells(index)

    def check_round(self, index: int, estimates, problems: Problems) -> tuple[int, int]:
        """Check one round's outputs; returns (attempted, errored) (replication, test) pairs.

        Every rate lies in [0, 1], and the CSV matches the digest recorded
        for this seed and round, where one exists.
        """
        text = grid_csv(estimates)
        if index < len(self.golden):
            problems.expect(sha256(text) == self.golden[index], f"round {index} CSV differs from the one recorded for seed {self.seed}")
        attempted = errored = 0
        for est in estimates:
            cfg = est.config
            attempted += cfg.replications * len(cfg.tests)
            errored += sum(est.error_counts.values())
            for t, rate in est.rates.items():
                problems.expect(0.0 <= rate <= 1.0, f"rate {rate!r} of {t} outside [0, 1] at seed {cfg.master_seed}")
        return attempted, errored

    def check_threads(self, first_round, problems: Problems) -> None:
        """Rounds 0 and 1 as one two-cell grid: the same CSV at threads=1 and threads=nproc.

        With two cells run_grid takes its process-pool path, so this holds
        also while it runs a single cell serially whatever ``threads`` is.
        The serial CSV must also start with round 0's rows as timed.
        """
        cells = self.cells(0) + self.cells(1)
        _, serial = self.run(cells, 1)
        _, parallel = self.run(cells, parallel_threads())
        problems.expect(
            grid_csv(parallel) == grid_csv(serial),
            f"rounds 0 and 1 give different CSVs at threads=1 and threads={parallel_threads()}",
        )
        problems.expect(grid_csv(serial[:1]) == grid_csv(first_round), "round 0 CSV differs when run in a grid")


def replications(cells) -> int:
    return sum(c.replications for c in cells)


def measure_simulation(sim: Simulation, seconds: float, problems: Problems) -> dict:
    walls: list[float] = []
    refs = [reference_ms()]
    reps: list[int] = []
    outputs = []
    for index, cells in sim.rounds():
        wall, estimates = sim.run(cells, sim.threads)
        refs.append(reference_ms())
        walls.append(wall)
        reps.append(replications(cells))
        outputs.append(estimates)
        if sum(walls) >= seconds:
            break
    rss = peak_rss_mb()
    attempted = errored = 0
    for index, estimates in enumerate(outputs):
        a, e = sim.check_round(index, estimates, problems)
        attempted += a
        errored += e
    sim.check_threads(outputs[0], problems)

    def summarise(times: list[float]) -> dict:
        """reps_per_s weights every cell equally, as a pass over the whole grid would."""
        per_round = [1000.0 * t / r for t, r in zip(times, reps)]
        per_cell: dict[int, list[float]] = {}
        for index, ms in enumerate(per_round):
            per_cell.setdefault(index % sim.cell_count, []).append(ms)
        cell_ms = [statistics.fmean(v) for v in per_cell.values()]
        p50, p90 = p50_p90(cell_ms if sim.cell_count > 1 else per_round)
        reps_per_s = 1000.0 / statistics.fmean(cell_ms)
        return {"reps_per_s": reps_per_s, "test_ms_p50": p50, "test_ms_p90": p90,
                "critical_draws_per_s": 2 * B * reps_per_s}, len(per_cell)

    scaled, cells_seen = summarise(at_reference_speed(walls, refs))
    raw, _ = summarise(walls)
    over = f"the {cells_seen} cells" if sim.cell_count > 1 else f"{len(walls)} rounds"
    note = f"{sum(reps)} replications in {len(walls)} rounds of {reps[0]}"
    return {
        "metrics": {
            "reps_per_s": (scaled["reps_per_s"], "1/s", f"{note}; {raw['reps_per_s']:.6g} raw"),
            "test_ms_p50": (scaled["test_ms_p50"], "ms", f"per replication, median over {over}; {raw['test_ms_p50']:.6g} raw"),
            "test_ms_p90": (scaled["test_ms_p90"], "ms", f"per replication, p90 over {over}; {raw['test_ms_p90']:.6g} raw"),
            "critical_draws_per_s": (scaled["critical_draws_per_s"], "1/s", f"bootstrap resamples, {2 * B} per replication"),
            "peak_rss_mb": (rss, "MB", "self plus children, at the end of the timed section"),
        },
        "raw": raw,
        "attempted": attempted,
        "failed": errored,
        "failed_what": "(replication, test) pairs",
        "reference_ms": refs,
    }


def trace_simulation(sim: Simulation, seconds: float, problems: Problems, tracer: Tracer) -> dict:
    """Untraced and traced passes over the same rounds, alternating which runs first.

    cpu_util comes from the untraced passes at the workload's thread count;
    the tracing overhead compares traced and untraced passes at threads=1.
    On wide_cell the untraced pass at threads=1 repeats the one at
    threads=nproc for as long as run_grid runs a single cell serially.
    """
    untraced = serial = traced = cpu = 0.0
    traced_reps = attempted = errored = 0
    first_round = None
    start = time.perf_counter()
    for index, cells in sim.rounds():
        passes = ["plain", "traced"] + (["serial"] if sim.threads != 1 else [])
        if index % 2:
            passes.reverse()
        done = {}
        for kind in passes:
            if kind == "traced":
                done[kind] = sim.run_traced(cells, tracer, f"round{index}")
            else:
                cpu0 = cpu_seconds()
                done[kind] = sim.run(cells, sim.threads if kind == "plain" else 1)
                if kind == "plain":
                    cpu += cpu_seconds() - cpu0
        wall, estimates = done["plain"]
        if index == 0:
            first_round = estimates
        untraced += wall
        serial += done.get("serial", done["plain"])[0]
        traced += done["traced"][0]
        traced_reps += replications(cells)
        problems.expect(grid_csv(done["traced"][1]) == grid_csv(estimates), f"round {index} CSV differs when traced")
        a, e = sim.check_round(index, estimates, problems)
        attempted += a
        errored += e
        if time.perf_counter() - start >= seconds:
            break
    sim.check_threads(first_round, problems)
    return {
        "units": traced_reps,
        "unit_name": "replication",
        "cpu_util": cpu / (untraced * sim.threads),
        "overhead_frac": traced / serial - 1.0,
        "attempted": attempted,
        "failed": errored,
    }


# --------------------------------------------------------------------------
# cli: in-process `equivar test` and `equivar critical` calls


@dataclass
class Entry:
    kind: str          # "test" or "critical"
    argv: list[str]
    fmt: str = "table"
    draws: int = 0


def write_dataset(path: Path, sizes: list[int], rng: random.Random) -> None:
    rows = ["group,value"]
    for g, size in enumerate(sizes):
        mean = rng.uniform(-5.0, 5.0)
        sd = rng.uniform(0.5, 3.0)
        rows.extend(f"g{g},{rng.gauss(mean, sd):.4f}" for _ in range(size))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def dataset_sizes(i: int) -> list[int]:
    """Group sizes of generated dataset i: 2 to 6 groups of 5 to 50, the same for every seed."""
    return [5 + (11 * i + 17 * g) % 46 for g in range(2 + i % 5)]


class Cli:
    """A cycle is a fixed schedule of `test` calls with `critical` calls spread among them."""

    def __init__(self, eq, seed: int, workdir: Path):
        self.main = eq.cli.main
        self.seed = seed
        rng = random.Random(seed)
        tests: list[Entry] = []
        for i in range(GENERATED_DATASETS):
            path = workdir / f"data{i}.csv"
            write_dataset(path, dataset_sizes(i), rng)
            tests.append(self._test(str(path), FORMATS[i % 3], pivot=i % 4 == 3, rng=rng))
        demo = str(ROOT / "demos" / "data.csv")
        tests.extend(self._test(demo, fmt, pivot=fmt == "json", rng=rng) for fmt in FORMATS)
        critical = []
        for sizes in CRITICAL_SIZES:
            argv = ["critical", "--sizes", sizes, "--draws", str(CRITICAL_DRAWS), "--seed", str(rng.randrange(2**31))]
            critical.append(Entry("critical", argv, draws=CRITICAL_DRAWS))
        step = len(tests) // len(critical)
        self.schedule: list[Entry] = []
        for j, crit in enumerate(critical):
            self.schedule.extend(tests[j * step:(j + 1) * step])
            self.schedule.append(crit)
        self.schedule.extend(tests[len(critical) * step:])

    @staticmethod
    def _test(path: str, fmt: str, pivot: bool, rng: random.Random) -> Entry:
        argv = ["test", path, "--bootstrap-b", str(B), "--seed", str(rng.randrange(2**31)), "--format", fmt]
        if pivot:
            argv.append("--pivot-variant")
        return Entry("test", argv, fmt=fmt)

    def call(self, entry: Entry, tracer: Tracer | None = None) -> tuple[float, int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.main(entry.argv)
                else:
                    code = tracer.call(CLI_MAIN, self.main, entry.argv)
            except SystemExit as exc:  # argparse rejects its arguments this way
                code = exc.code if isinstance(exc.code, int) else 1
            wall = time.perf_counter() - start
        return wall, code, out.getvalue()

    def run_cycle(self, tracer: Tracer | None = None, first: int = 0):
        """Run the schedule once; returns one (entry, wall, exit code, stdout) per call."""
        if tracer is None:
            return [(entry, *self.call(entry)) for entry in self.schedule]
        results = []
        with tracer.installed():
            for i, entry in enumerate(self.schedule):
                tracer.begin_unit(f"call{first + i}")
                results.append((entry, *self.call(entry, tracer)))
        return results

    def check_first_cycle(self, outputs: list[str], problems: Problems) -> None:
        golden = load_golden("cli", self.seed)
        for i, (entry, out) in enumerate(zip(self.schedule, outputs)):
            what = f"call {i} ({' '.join(entry.argv[:1] + entry.argv[2:])})"
            try:
                fingerprint = self.fingerprint(entry, out)
            except (ValueError, KeyError, IndexError) as exc:
                problems.append(f"{what}: unreadable output: {exc}")
                continue
            if entry.fmt == "json" and entry.kind == "test":
                problems.expect(json.dumps(json.loads(out), indent=2) + "\n" == out, f"{what}: JSON does not round-trip")
            if golden is not None:
                problems.expect(fingerprint["exact"] == golden[i]["exact"], f"{what}: output differs from the one recorded for seed {self.seed}")
                problems.expect(
                    same_critical(fingerprint["critical"], golden[i]["critical"]),
                    f"{what}: critical values differ from the recorded ones beyond {CRITICAL_REL_TOL:g}",
                )

    @staticmethod
    def fingerprint(entry: Entry, out: str) -> dict:
        """Digest of the exactly-compared fields plus the critical values, compared to a tolerance."""
        if entry.kind == "critical":
            coverage = float(out.split("coverage     :")[1].split()[0])
            half_width = float(out.split("half-width c :")[1].split()[0])
            if not (math.isfinite(half_width) and coverage >= 0.95):
                raise ValueError(f"implausible calibration: c={half_width}, coverage={coverage}")
            return {"exact": sha256(out), "critical": []}
        records = parse_test_output(entry.fmt, out)
        if [r["method"] for r in records] != ["levene", "shoemaker", "bootstrap_levene", "box"]:
            raise ValueError(f"unexpected methods {[r['method'] for r in records]}")
        exact = [[r["method"], r["statistic"], r["reject"], r["p_value"]] for r in records]
        return {"exact": sha256(json.dumps(exact)), "critical": [r["critical_value"] for r in records]}


def parse_test_output(fmt: str, text: str) -> list[dict]:
    """Records of `equivar test` output; table cells stay text, as printed."""
    if fmt == "json":
        keys = ("method", "statistic", "reject", "p_value", "critical_value")
        return [{k: r[k] for k in keys} for r in json.loads(text)]
    records = []
    if fmt == "csv":
        for row in csv.DictReader(io.StringIO(text)):
            stat = [float(v) for v in row["statistic"].split(";")]
            records.append({
                "method": row["method"],
                "statistic": stat if len(stat) > 1 else stat[0],
                "reject": {"true": True, "false": False}[row["reject"]],
                "p_value": float(row["p_value"]) if row["p_value"] else None,
                "critical_value": float(row["critical_value"]) if row["critical_value"] else None,
            })
        return records
    for line in text.splitlines()[1:]:
        method, stat, crit, p, reject = line.split()
        records.append({
            "method": method,
            "statistic": stat,
            "reject": {"yes": True, "no": False}[reject],
            "p_value": None if p == "-" else p,
            "critical_value": None if crit == "-" else crit,
        })
    return records


def same_critical(found: list, recorded: list) -> bool:
    if len(found) != len(recorded):
        return False
    for a, b in zip(found, recorded):
        if isinstance(a, float) and isinstance(b, float):
            if abs(a - b) > CRITICAL_REL_TOL * abs(b):
                return False
        elif a != b:
            return False
    return True


def measure_cli(cli: Cli, seconds: float, problems: Problems) -> dict:
    test_ms: list[float] = []      # at reference speed
    raw_test_ms: list[float] = []
    critical_s = raw_critical_s = busy = 0.0
    draws = calls = failed = 0
    first: list[str] = []
    refs = [reference_ms()]
    while busy < seconds:
        results = cli.run_cycle()
        refs.append(reference_ms())
        [scale] = at_reference_speed([1.0], refs[-2:])
        for i, (entry, wall, code, out) in enumerate(results):
            busy += wall
            calls += 1
            failed += code != 0
            if entry.kind == "test":
                test_ms.append(1000.0 * wall * scale)
                raw_test_ms.append(1000.0 * wall)
            else:
                critical_s += wall * scale
                raw_critical_s += wall
                draws += entry.draws
            if len(first) < len(cli.schedule):
                first.append(out)
            elif out != first[i]:
                problems.append(f"call {i} printed different output on a repeat")
    rss = peak_rss_mb()
    cli.check_first_cycle(first, problems)

    def summarise(ms: list[float], crit_s: float) -> dict:
        p50, p90 = p50_p90(ms)
        return {"reps_per_s": 1000.0 * len(ms) / sum(ms), "test_ms_p50": p50, "test_ms_p90": p90,
                "critical_draws_per_s": draws / crit_s}

    scaled, raw = summarise(test_ms, critical_s), summarise(raw_test_ms, raw_critical_s)
    cycles = calls // len(cli.schedule)
    n = len(test_ms)
    return {
        "metrics": {
            "reps_per_s": (scaled["reps_per_s"], "1/s", f"{n} test calls, one dataset each; {raw['reps_per_s']:.6g} raw"),
            "test_ms_p50": (scaled["test_ms_p50"], "ms", f"median of {n} test calls; {raw['test_ms_p50']:.6g} raw"),
            "test_ms_p90": (scaled["test_ms_p90"], "ms", f"p90 of {n} test calls; {raw['test_ms_p90']:.6g} raw"),
            "critical_draws_per_s": (
                scaled["critical_draws_per_s"], "1/s",
                f"{draws} Dirichlet draws in {cycles * len(CRITICAL_SIZES)} critical calls; "
                f"{raw['critical_draws_per_s']:.6g} raw",
            ),
            "peak_rss_mb": (rss, "MB", "self plus children, at the end of the timed section"),
        },
        "raw": raw,
        "attempted": calls,
        "failed": failed,
        "failed_what": "cli calls with nonzero exit",
        "reference_ms": refs,
    }


def trace_cli(cli: Cli, seconds: float, problems: Problems, tracer: Tracer) -> dict:
    """Untraced and traced cycles of the same calls, alternating which runs first."""
    untraced = traced = 0.0
    calls = failed = 0
    start = time.perf_counter()
    first: list[str] | None = None
    for index in itertools.count():
        if index % 2:
            traced_results = cli.run_cycle(tracer, first=calls)
            plain = cli.run_cycle()
        else:
            plain = cli.run_cycle()
            traced_results = cli.run_cycle(tracer, first=calls)
        outputs = [out for _, _, _, out in plain]
        problems.expect(outputs == [out for _, _, _, out in traced_results], "cli output differs when traced")
        if first is None:
            first = outputs
            cli.check_first_cycle(first, problems)
        untraced += sum(wall for _, wall, _, _ in plain)
        traced += sum(wall for _, wall, _, _ in traced_results)
        calls += len(traced_results)
        failed += sum(code != 0 for _, _, code, _ in traced_results)
        if time.perf_counter() - start >= seconds:
            break
    return {
        "units": calls,
        "unit_name": "call",
        "cpu_util": 0.0,  # no run_grid call on this workload
        "overhead_frac": traced / untraced - 1.0,
        "attempted": calls,
        "failed": failed,
    }


def layer_metrics(tracer: Tracer, summary: dict) -> dict:
    totals = tracer.totals()
    units = summary["units"]
    per = f"per {summary['unit_name']}, {units} traced"
    metrics = {}
    for metric, span, kind in LAYER_METRICS:
        calls, self_ns = totals.get(span, (0, 0))
        scale, unit = _SCALE[kind]
        value = (calls if kind == "calls" else self_ns * scale) / units
        metrics[metric] = (value, unit, per)
    metrics["simulation.run_grid.cpu_util"] = (summary["cpu_util"], "ratio", "untraced rounds, CPU / (wall x threads)")
    metrics["trace.overhead_frac"] = (summary["overhead_frac"], "ratio", "traced / untraced wall - 1")
    return metrics


# --------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--machine", default="{}", help="machine record (JSON) for the trace file")
    args = parser.parse_args(argv)

    eq = import_equivar()
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{args.workload}-") as tmp:
        if args.workload == "cli":
            workload = Cli(eq, args.seed, Path(tmp))
        else:
            workload = Simulation(eq, args.workload, args.seed)
        if args.setup_only:
            ready = time.monotonic()
            reference_ms()  # the first run in a process pays one-off costs
            ref = reference_ms()
            print(json.dumps({"ready": ready, "reference_ms": ref, "scale": REFERENCE_MS / ref}), flush=True)
            return 0

        problems = Problems()
        if args.trace:
            tracer = Tracer(args.workload)
            run = trace_cli if args.workload == "cli" else trace_simulation
            summary = run(workload, args.seconds, problems, tracer)
            tracer.write(OUT / f"trace-{args.workload}.json", json.loads(args.machine))
            result = {
                "metrics": layer_metrics(tracer, summary),
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "failed_what": "cli calls with nonzero exit" if args.workload == "cli" else "(replication, test) pairs",
                "absent": tracer.absent,
            }
        else:
            run = measure_cli if args.workload == "cli" else measure_simulation
            result = run(workload, args.seconds, problems)
    result["problems"] = problems
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
