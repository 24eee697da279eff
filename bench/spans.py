"""Span tracing for the benchmark's traced runs.

A `Tracer` wraps the public functions named in `TRACED`. Each wrapper is
installed from the benchmark, over every `moric` module attribute that holds
the original function, so calls made between layers (for example
`harness.run_loso` calling `classifier.train`) are traced as well; no code
under `src/moric` changes. A span records its name, start, end, parent span
and a few work counts; spans stay in memory until the run ends. The stack of
open spans assumes one thread, which holds because the benchmark runs
`build_feature_table` with `threads=1`.
"""

from __future__ import annotations

import inspect
import json
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

from moric import features

from checks import parse_bank

# module -> traced public functions; every per-layer metric derives from these
TRACED = {
    "simulator": ("synthesize_csi",),
    "core": ("write_csit", "read_csit"),
    "sanitize": ("compensate_phase", "sanitize_frame"),
    "delay_doppler": ("extract_velocity_set",),
    "features": ("apply_batch",),
    "classifier": ("train", "predict", "calibrate"),
    "harness": (
        "build_feature_table",
        "velocity_set_for_frame",
        "featurize_velocity_set",
        "evaluate_samples",
        "run_loso",
        "run_calibration_sweep",
    ),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "counts")

    def __init__(self, name: str, start: float, parent: Optional[int]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.counts: Dict[str, float] = {}

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            **self.counts,
        }


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        self._bank_kernels: Dict[int, tuple] = {}  # id -> (bank kept alive, kernels)

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        s = Span(name, 0.0, self._open[-1] if self._open else None)
        self.spans.append(s)
        self._open.append(len(self.spans) - 1)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        signature = inspect.signature(fn)
        count = self._counters().get(name)

        def traced(*args, **kwargs):
            with self.span(name) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.counts.update(count(signature.bind(*args, **kwargs).arguments, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def _counters(self) -> Dict[str, Callable[[dict, Any], dict]]:
        """Work counts per traced function, from its arguments and result;
        taken after the span has ended."""
        return {
            "features.apply_batch": lambda args, _: {"mmac": self._mmac(args["bank"], args["x"])},
            "harness.featurize_velocity_set": lambda _, fs: {
                "rows": fs.n_rows,
                "kept": int((~fs.gated).sum()),
            },
            # the benchmark sets patience to the epoch cap, so every epoch runs
            "classifier.train": lambda args, _: {
                "set_epochs": len(args["train_set"]) * args["cfg"].max_epochs
            },
            "harness.build_feature_table": lambda args, _: {
                "captures": len(args["manifest"].entries)
            },
        }

    def _mmac(self, bank, x) -> float:
        """Multiply-accumulates of the dilated convolutions, in millions,
        computed from the bank and the input shape."""
        if id(bank) not in self._bank_kernels:
            self._bank_kernels[id(bank)] = (bank, parse_bank(features.serialize_bank(bank)))
        kernels = self._bank_kernels[id(bank)][1]
        n_rows, n_time = x.shape
        return n_rows * sum(len(k.weights) * k.output_length(n_time) for k in kernels) / 1e6

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Replace every reference to a traced function in the loaded `moric`
        modules by its wrapper, and restore the originals on exit."""
        patched = []
        for module_name, names in TRACED.items():
            module = sys.modules[f"moric.{module_name}"]
            for fn_name in names:
                original = getattr(module, fn_name)
                wrapper = self.wrap(f"{module_name}.{fn_name}", original)
                for mod in [m for k, m in sys.modules.items() if k.split(".")[0] == "moric"]:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patched.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        try:
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)

    # per-layer metrics ----------------------------------------------------------

    def _of(self, name: str) -> List[Span]:
        spans = [s for s in self.spans if s.name == name]
        if not spans:
            raise RuntimeError(f"no span named {name} was recorded")
        return spans

    def _median_ms(self, name: str) -> float:
        return 1e3 * statistics.median(s.seconds for s in self._of(name))

    def _sum(self, name: str, key: str) -> float:
        return sum(s.counts[key] for s in self._of(name))

    def per_layer_metrics(self) -> Dict[str, Dict[str, Any]]:
        featurize = self._of("harness.featurize_velocity_set")
        apply_s = sum(s.seconds for s in self._of("features.apply_batch"))
        train_s = [s.seconds for s in self._of("classifier.train")]
        table_s = sum(s.seconds for s in self._of("harness.build_feature_table"))
        values = {
            "simulator.synthesize_csi_ms": (self._median_ms("simulator.synthesize_csi"), "ms"),
            "core.write_csit_ms": (self._median_ms("core.write_csit"), "ms"),
            "core.read_csit_ms": (self._median_ms("core.read_csit"), "ms"),
            "sanitize.compensate_phase_ms": (self._median_ms("sanitize.compensate_phase"), "ms"),
            "sanitize.sanitize_frame_ms": (self._median_ms("sanitize.sanitize_frame"), "ms"),
            "delay_doppler.extract_velocity_set_ms": (
                self._median_ms("delay_doppler.extract_velocity_set"),
                "ms",
            ),
            "delay_doppler.rows": (statistics.median(s.counts["rows"] for s in featurize), "count"),
            "delay_doppler.kept_ratio": (
                self._sum("harness.featurize_velocity_set", "kept")
                / self._sum("harness.featurize_velocity_set", "rows"),
                "ratio",
            ),
            "features.apply_batch_ms": (self._median_ms("features.apply_batch"), "ms"),
            "features.mmac": (
                statistics.median(s.counts["mmac"] for s in self._of("features.apply_batch")),
                "Mmac-computed",
            ),
            "features.mmac_per_s": (
                self._sum("features.apply_batch", "mmac") / apply_s,
                "Mmac/s-computed",
            ),
            "classifier.predict_ms": (self._median_ms("classifier.predict"), "ms"),
            "classifier.train_s": (statistics.median(train_s), "s"),
            "classifier.set_epochs_per_s": (
                self._sum("classifier.train", "set_epochs") / sum(train_s),
                "set-epochs/s",
            ),
            "classifier.calibrate_ms": (self._median_ms("classifier.calibrate"), "ms"),
            "harness.build_feature_table_ms": (
                1e3 * table_s / self._sum("harness.build_feature_table", "captures"),
                "ms",
            ),
            "harness.evaluate_samples_ms": (self._median_ms("harness.evaluate_samples"), "ms"),
        }
        return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {**extra, "spans": [s.to_dict() for s in self.spans]}
        path.write_text(json.dumps(doc))
