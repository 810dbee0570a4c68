"""Record the reference outputs that the benchmark's output check compares against.

    python3 bench/record_golden.py > bench/golden.json

For each seed below: the sha256 of the CSV of each of the first ROUNDS
rounds of null_grid (one pass over its 36 cells) and of wide_cell, and
for cli, per call of one schedule cycle, a digest of the exactly compared
fields plus the critical values.  Run it only when a change to equivar is meant to change results.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import worker

SEEDS = range(10)
ROUNDS = {"null_grid": 36, "wide_cell": 16}  # simulation rounds recorded per seed


def main() -> None:
    eq = worker.import_equivar()
    worker.OUT.mkdir(exist_ok=True)
    golden = {"null_grid": {}, "wide_cell": {}, "cli": {}}
    for seed in SEEDS:
        for name in ("null_grid", "wide_cell"):
            sim = worker.Simulation(eq, name, seed)
            golden[name][str(seed)] = [
                worker.sha256(worker.grid_csv(sim.run(cells, 1)[1]))
                for (_, cells), _ in zip(sim.rounds(), range(ROUNDS[name]))
            ]
        with tempfile.TemporaryDirectory(dir=worker.OUT) as tmp:
            cli = worker.Cli(eq, seed, Path(tmp))
            golden["cli"][str(seed)] = [cli.fingerprint(entry, out) for entry, _, code, out in cli.run_cycle()]
    print(json.dumps(golden, indent=1))


if __name__ == "__main__":
    main()
