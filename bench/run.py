"""Benchmark of equivar: one workload per invocation, end to end or traced.

    python3 bench/run.py --workload {null_grid,wide_cell,cli} --seed N --seconds S --trace {0,1}

Workloads, metrics and bounds are listed in BENCHMARK.json; bench/README.md
says what each metric means and which layer metric should move it.

With ``--trace 0`` the run measures set-up time from outside: it starts a
fresh interpreter several times, lets it import equivar and build the
workload's inputs, and takes the median of the times to the first timed
call.  Time metrics are scaled to reference speed (see ``reference_ms`` in
bench/worker.py).  Then it starts one more fresh worker (bench/worker.py) that times
the workload for ``--seconds`` and checks the outputs.  With ``--trace 1``
the worker alternates untraced and traced passes and reports per-layer
metrics, writing the spans to ``.bench_out/trace-<workload>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only if every output check passed.  Nothing is printed on that line, and
the exit code is 2, when the checkout holds no equivar sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".bench_out"
WORKLOADS = ("null_grid", "wide_cell", "cli")
SETUP_RUNS = 5
DEADLINE_S = 170.0  # the whole run, set-up included, stays under 180 s


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        **versions,
        "loadavg_1m_at_start": os.getloadavg()[0],
    }


def worker(args, *extra: str, timeout: float) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed), *extra]
    return subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("worker printed nothing")
    return json.loads(lines[-1])


def setup_seconds(args, deadline: float) -> tuple[list[float], list[dict]]:
    """Times from starting a fresh interpreter to its first timed call, at reference speed.

    Also returns each probe's raw time and the reference time it was scaled by.
    """
    samples, raw = [], []
    for _ in range(SETUP_RUNS):
        start = time.monotonic()
        probe = last_json(worker(args, "--setup-only", timeout=deadline - start))
        samples.append((probe["ready"] - start) * probe["scale"])
        raw.append({"setup_s": probe["ready"] - start, "reference_ms": probe["reference_ms"]})
    return samples, raw


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="equivar benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "equivar" / "__init__.py").is_file():
        print(f"error: no equivar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    info = machine()
    try:
        setup, setup_raw = ([], []) if args.trace else setup_seconds(args, deadline)
        result = last_json(
            worker(
                args, "--seconds", str(args.seconds), "--trace", str(args.trace), "--machine", json.dumps(info),
                timeout=deadline - time.monotonic(),
            )
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"error: {args.workload} run failed: {exc}", file=sys.stderr)
        return 1

    if "reference_ms" in result:
        info["reference_ms_median"] = statistics.median(result["reference_ms"])
    metrics = {}
    if setup:
        metrics["setup_s"] = [statistics.median(setup), "s", f"median of {len(setup)} fresh set-ups, at reference speed"]
    metrics.update(result["metrics"])
    attempted, failed = result["attempted"], result["failed"]
    metrics["failed_frac"] = [failed / attempted, "ratio", f"{failed} of {attempted} {result['failed_what']}"]
    problems = result["problems"]

    print(f"machine: {json.dumps(info)}")
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    for name, (value, unit, note) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<6} {note}")
    for name in result.get("absent", []):
        print(f"  absent: {name} (its metrics read 0)")
    for problem in problems:
        print(f"  check failed: {problem}")
    print(f"  output check: {'passed' if not problems else 'FAILED'}")

    OUT.mkdir(exist_ok=True)
    record = {"args": vars(args), "machine": info, "metrics": metrics, "problems": problems,
              "absent": result.get("absent", [])}
    if not args.trace:
        # Unscaled figures, and the reference times the scaled ones were divided by.
        record["raw"] = {**result["raw"], "setup": setup_raw, "reference_ms": result["reference_ms"]}
    (OUT / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")

    del metrics["failed_frac"]  # 0 on these workloads; carried by `failed` / `attempted` instead
    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(line), flush=True)
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
