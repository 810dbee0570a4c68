"""Spans around equivar's module boundaries, recorded from outside the package.

The tracer rebinds public names in the modules that call them (for
example ``stream`` as bound in ``equivar.simulation``) to wrappers that
time each call.  Nothing under ``src/`` changes.  A name that no longer
exists is listed as absent instead of failing the run.

Spans stay in memory; ``write`` dumps them as JSON when the run ends.
A layer's self time is its span's duration minus the time covered by its
child spans.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

# (module the name is bound in, attribute, span name).  The span name is
# "<layer>.<function>", where the layer is the module that defines it.
WRAPPED = (
    ("equivar.simulation", "run_cell", "simulation.run_cell"),
    ("equivar.simulation", "stream", "rng.stream"),
    ("equivar.simulation", "GroupedSample", "descriptive.GroupedSample"),
    ("equivar.simulation", "sample_standardized", "distributions.sample_standardized"),
    ("equivar.simulation", "levene", "homogeneity.levene"),
    ("equivar.simulation", "shoemaker", "homogeneity.shoemaker"),
    ("equivar.simulation", "bootstrap_levene", "homogeneity.bootstrap_levene"),
    ("equivar.simulation", "box_test", "homogeneity.box_test"),
    ("equivar.homogeneity", "levene", "homogeneity.levene"),
    ("equivar.homogeneity", "shoemaker", "homogeneity.shoemaker"),
    ("equivar.homogeneity", "bootstrap_levene", "homogeneity.bootstrap_levene"),
    ("equivar.homogeneity", "box_test", "homogeneity.box_test"),
    ("equivar.homogeneity", "stream", "rng.stream"),
    ("equivar.homogeneity", "f_quantile", "special.f_quantile"),
    ("equivar.homogeneity", "chi2_quantile", "special.chi2_quantile"),
    ("equivar.homogeneity", "center", "bootstrap.center"),
    ("equivar.homogeneity", "search_critical", "bootstrap.search_critical"),
    ("equivar.homogeneity", "estimate_moments", "descriptive.estimate_moments"),
    ("equivar.homogeneity", "log_variance_contrasts", "descriptive.log_variance_contrasts"),
    ("equivar.descriptive", "estimate_moments", "descriptive.estimate_moments"),
    ("equivar.cli", "run_all", "homogeneity.run_all"),
    ("equivar.cli", "stream", "rng.stream"),
    ("equivar.cli", "GroupedSample", "descriptive.GroupedSample"),
    ("equivar.cli", "calibrate_box", "dirichlet.calibrate_box"),
    ("equivar.dirichlet", "sample_dirichlet", "dirichlet.sample_dirichlet"),
    ("equivar.dirichlet", "log_contrast", "dirichlet.log_contrast"),
)

# Spans the benchmark opens itself, around its own calls into equivar.
RUN_GRID = "simulation.run_grid"
CLI_MAIN = "cli.main"

# Data stream slot of a replication: stream(master_seed, r, 0) starts replication r.
_DATA_SLOT = 0


class Tracer:
    """Collects spans while installed; one instance per traced run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list = []      # per span: (name, start_ns, end_ns, parent id, unit id)
        self.absent: list[str] = []
        self.unit = None           # replication or call id stamped on new spans
        self._stack: list[int] = []
        self._saved: list = []
        self._unit_prefix = ""
        self._cell = 0

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED for the duration of the block."""
        absent = []
        for module_name, attr, span_name in WRAPPED:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(span_name, original))
        self.absent = absent
        try:
            yield self
        finally:
            for module, attr, original in reversed(self._saved):
                setattr(module, attr, original)
            self._saved.clear()

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        if name == "simulation.run_cell":
            self._cell += 1
            self.unit = f"{self._unit_prefix}/cell{self._cell}"
        elif name == "rng.stream" and len(args) == 3 and args[2] == _DATA_SLOT and self._cell:
            self.unit = f"{self._unit_prefix}/cell{self._cell}/rep{args[1]}"
        unit = self.unit
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, unit)

    def begin_unit(self, unit: str) -> None:
        """Name the round or call that the next spans belong to."""
        self._unit_prefix = unit
        self._cell = 0
        self.unit = unit

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def totals(self) -> dict[str, tuple[int, int]]:
        """Per span name: (calls, self time in ns)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out: dict[str, tuple[int, int]] = {}
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            calls, self_ns = out.get(name, (0, 0))
            out[name] = (calls + 1, self_ns + (end - start) - child_ns[sid])
        return out

    def write(self, path, machine: dict) -> None:
        records = [
            {"id": sid, "name": name, "start_ns": start, "end_ns": end, "parent": parent,
             "workload": self.workload, "unit": unit}
            for sid, (name, start, end, parent, unit) in enumerate(self.spans)
        ]
        doc = {"workload": self.workload, "machine": machine, "absent": self.absent, "spans": records}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
