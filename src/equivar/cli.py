"""Command line interface: run tests on CSV data, simulate grids, calibrate boxes.

Exit codes: 0 success, 2 input/data error, 3 numeric failure or out of memory.
A data CSV that cannot be parsed is reported by its path, and by ``path:line``
where a line is at fault, as a byte that is not UTF-8 always is (with its
offset in the file).  The argument parser is built on the first ``main`` call
and reused by every later call in the process; parsing keeps no state.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from functools import cache
from pathlib import Path

from .descriptive import GroupedSample
from .dirichlet import DirichletParams, calibrate_box
from .errors import MAX_VALUES, DegenerateDataError, NumericError, count
from .homogeneity import BootstrapConfig, run_all
from .rng import stream
from .simulation import CellEstimate, ExperimentConfig, run_grid

__all__ = ["main"]

# The JSON key of each ExperimentConfig field: its name, but for master_seed.
_CONFIG_FIELDS = {("seed" if f.name == "master_seed" else f.name): f for f in dataclasses.fields(ExperimentConfig)}


def _read_grouped_csv(path: str) -> GroupedSample:
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        # exc.start is the byte's offset in the file; bytes.splitlines ends lines where csv does, at \n, \r\n, \r
        raise ValueError(f"{path}:{len(raw[: exc.start + 1].splitlines())}: {exc}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    values: dict[str, list[float]] = {}
    try:
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["group", "value"]:
            raise ValueError(f"{path}: expected header 'group,value', got {header}")
        for row in reader:
            # line_num is the physical line a record ends on, quoted newlines included
            lineno = reader.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            label = row[0].strip()
            try:
                value = float(row[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: value {row[1]!r} is not a number") from None
            if not math.isfinite(value):
                raise ValueError(f"{path}:{lineno}: value {row[1]!r} is not finite")
            values.setdefault(label, []).append(value)
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    try:
        return GroupedSample(values)
    except DegenerateDataError as exc:
        raise DegenerateDataError(f"{path}: {exc}") from None


_SHOWN = ("method", "statistic", "critical_value", "p_value", "reject")  # the as_dict fields the text formats show
# Per text format: its header, how it writes a number, and its text for a missing value and for each decision.
_TEXT_FORMATS = {
    "table": (("method", "statistic", "critical", "p-value", "reject"), "{:.6g}".format,
              {None: "-", True: "yes", False: "no"}),
    "csv": (_SHOWN, repr, {None: "", True: "true", False: "false"}),
}


def _text_rows(shown: list[dict], fmt: str) -> list[tuple | list]:
    """The header and one row of cells per ``as_dict()`` in ``shown``, written as ``fmt`` writes them."""
    header, number, words = _TEXT_FORMATS[fmt]

    def cell(v) -> str:
        if isinstance(v, list):  # the box test's t vector
            return ";".join(map(number, v))
        # a float before the words, which would take 1.0 for True; a method name is its own text
        return number(v) if isinstance(v, float) else words.get(v, v)

    return [header] + [[cell(d[f]) for f in _SHOWN] for d in shown]


def _cmd_test(args) -> int:
    data = _read_grouped_csv(args.data)
    b = count("--bootstrap-b", args.bootstrap_b, 1, MAX_VALUES // sum(data.sizes))  # refused under its own name
    cfg = BootstrapConfig.from_seed(args.seed, b=b, pivot_variant=args.pivot_variant)
    results, errors = run_all(data, args.alpha, cfg)
    for name, msg in errors.items():
        print(f"note: {name} not computed: {msg}", file=sys.stderr)
    if not results:
        raise ValueError(f"{args.data}: no test could run on this data")
    shown = [r.as_dict() for r in results]
    if args.format == "json":
        print(json.dumps(shown, indent=2))
    elif args.format == "csv":
        csv.writer(sys.stdout, lineterminator="\n").writerows(_text_rows(shown, "csv"))
    else:
        rows = _text_rows(shown, "table")
        widths = [max(map(len, column)) for column in zip(*rows)]
        for row in rows:
            print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


def _config_from_json(obj, index: int) -> ExperimentConfig:
    where = f"experiment {index}"
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected a JSON object")
    unknown = sorted(set(obj) - set(_CONFIG_FIELDS))
    if unknown:
        raise ValueError(f"{where}: unknown key(s) {unknown}")
    missing = [k for k, f in _CONFIG_FIELDS.items() if f.default is dataclasses.MISSING and k not in obj]
    if missing:
        raise ValueError(f"{where}: missing required key(s) {missing}")
    try:
        # keys left out take the ExperimentConfig defaults
        return ExperimentConfig(**{_CONFIG_FIELDS[k].name: v for k, v in obj.items()})
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def _load_configs(path: str) -> list[ExperimentConfig]:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
    items = raw if isinstance(raw, list) else [raw]
    if not items:
        raise ValueError(f"{path}: config file contains no experiments")
    return [_config_from_json(obj, i) for i, obj in enumerate(items)]


def _grid_csv(estimates: list[CellEstimate]) -> str:
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


def _pivot_markdown(estimates: list[CellEstimate]) -> str:
    blocks: dict[tuple, list[CellEstimate]] = {}
    for est in estimates:
        blocks.setdefault((est.config.sizes, est.config.variances), []).append(est)
    out: list[str] = []
    for (sizes, variances), ests in blocks.items():
        by_dist = {e.config.distribution.value: e for e in ests}
        tests = dict.fromkeys(t for e in ests for t in e.config.tests)
        out.append(
            f"**n = {', '.join(map(str, sizes))}; variances = {', '.join(f'{v:g}' for v in variances)}**"
        )
        out.append("")
        out.append("| test | " + " | ".join(by_dist) + " |")
        out.append("|" + "---|" * (len(by_dist) + 1))
        for t in tests:
            cells = []
            for e in by_dist.values():
                if t in e.rates and not math.isnan(e.rates[t]):
                    cells.append(f"{e.rates[t]:.2f}")
                else:
                    cells.append("-")
            out.append(f"| {t} | " + " | ".join(cells) + " |")
        out.append("")
    return "\n".join(out) + "\n"


def _check_pivot(configs: list[ExperimentConfig]) -> None:
    """Refuse a grid whose pivot would put two experiments in one table cell."""
    first: dict[tuple, int] = {}
    for j, c in enumerate(configs):
        i = first.setdefault((c.distribution, c.sizes, c.variances), j)
        if i != j:
            raise ValueError(
                f"experiments {i} and {j} share distribution, sizes and variances; --pivot would show one of them"
            )


def _check_writable(path: Path) -> None:
    """Raise the OSError that writing ``path`` would raise, leaving what is there as it was."""
    try:
        path.open("x").close()
    except FileExistsError:
        path.open("a").close()
    else:
        path.unlink()


def _cmd_simulate(args) -> int:
    configs = _load_configs(args.config)
    if args.pivot:
        _check_pivot(configs)
    if args.out:
        _check_writable(Path(args.out))
    estimates = run_grid(configs, threads=args.threads)
    text = _grid_csv(estimates)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    if args.pivot:
        sys.stdout.write(_pivot_markdown(estimates))
    elif not args.out:
        sys.stdout.write(text)
    return 0


def _parse_sizes(text: str) -> list[int]:
    sizes = []
    for token in text.split(","):
        token = token.strip()
        try:
            sizes.append(int(token))
        except ValueError:
            raise ValueError(f"--sizes: {token!r} is not an integer") from None
    return sizes


def _cmd_critical(args) -> int:
    params = DirichletParams.from_group_sizes(_parse_sizes(args.sizes))
    box = calibrate_box(params, args.alpha, args.draws, stream(args.seed))
    print(f"group sizes : {', '.join(str(int(2 * v + 1)) for v in params.nu)}")
    print(f"shapes      : {', '.join(f'{v:g}' for v in params.nu)}")
    print(f"alpha       : {args.alpha:g}")
    print(f"draws       : {args.draws}")
    print()
    print("coordinate        mean          sd        shape offset")
    for i, (m, s, o) in enumerate(zip(box.mean, box.sd, box.shape_offset), start=1):
        print(f"{i:>10}  {m:>+12.6f}  {s:>10.6f}  {o:>+18.6f}")
    print()
    print(f"half-width c : {box.half_width:.6f}  (se {box.half_width_se:.6f})")
    print(f"coverage     : {box.coverage:.6f}")
    return 0


def _seed(text: str) -> int:
    """A --seed value: a nonnegative integer, as ``stream`` requires."""
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``equivar`` parser, built once per process on first use, not at import.

    Building it costs about ten times what parsing one argv with it does,
    which in-process callers of ``main`` would otherwise pay on every call.
    """
    parser = argparse.ArgumentParser(
        prog="equivar",
        description="Tests for homogeneity of variances and a Monte Carlo study harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("test", help="run the four variance tests on a CSV of grouped data")
    t.add_argument("data", help="CSV file with header 'group,value'")
    t.add_argument("--alpha", type=float, default=0.05, help="test level (default 0.05)")
    t.add_argument("--bootstrap-b", dest="bootstrap_b", type=int, default=500,
                   help="bootstrap replicates for the resampling tests (default 500)")
    t.add_argument("--seed", type=_seed, default=0, help="master seed (default 0)")
    t.add_argument("--pivot-variant", action="store_true",
                   help="center box-test replicates at the observed statistics")
    t.add_argument("--format", choices=("table", "csv", "json"), default="table")
    t.set_defaults(func=_cmd_test)

    s = sub.add_parser("simulate", help="estimate size/power over a JSON-configured grid")
    s.add_argument("config", help="JSON experiment object or array of objects")
    s.add_argument("--out", "-o", help="write the long-format CSV here (default: stdout)")
    s.add_argument("--threads", type=int, default=1,
                   help="degree of parallelism: each cell is split into ranges of its resample "
                        "batches, run on threads for one cell and on processes for several (default 1)")
    s.add_argument("--pivot", action="store_true",
                   help="print markdown tables pivoted by distribution instead of CSV")
    s.set_defaults(func=_cmd_simulate)

    c = sub.add_parser("critical", help="calibrate the exact-normal acceptance box half-width")
    c.add_argument("--sizes", required=True, help="comma-separated group sizes, e.g. 10,10")
    c.add_argument("--alpha", type=float, default=0.05)
    c.add_argument("--draws", type=int, default=200_000)
    c.add_argument("--seed", type=_seed, default=0)
    c.set_defaults(func=_cmd_critical)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
