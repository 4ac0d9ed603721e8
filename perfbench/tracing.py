"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of the ``flic`` modules, and
``numpy.linalg.eigh``, from outside the package. A wrapper records one
span per call: its name, the span that was open when it was called, its
start and its end. The wrapper is rebound in every ``flic`` module
namespace that holds the original function object, so calls made
through names imported with ``from .x import f`` are traced too. A
layer's self time is its span's duration minus the durations of its
child spans. Spans stay in memory and are written out once, at the end.

A wrapped name that a later version of the package no longer has is
reported as absent, and its counters read zero.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# Public functions wrapped, as "<flic module>.<function>"; numpy names
# are given in full.
WRAPPED = (
    "datagen.generate",
    "datagen.load_clients",
    "experiment.build_federation",
    "federation.client_local_round",
    "federation.local_objective_grads",
    "federation.aggregate_alpha",
    "anchors.barycenter_average",
    "federation.evaluate",
    "nets.alignment_loss_grad",
    "nets.forward",
    "nets.backward",
    "nets.cross_entropy",
    "nets.adam_step",
    "gaussian.bures_sq",
    "gaussian.bures_sq_grad_cov",
    "gaussian.matrix_sqrt_psd",
    "gaussian.empirical_gaussian",
    "gaussian.grad_bures_wrt_factor",
    "numpy.linalg.eigh",
    "anchors.sample_anchor",
    "anchors.local_anchor_update",
    "theory.make_instance",
    "theory.phi_hat",
    "theory.solve_head",
    "theory.fedrep_linear_round",
    "theory.principal_angle_dist",
    "reporting.save_checkpoint",
    "reporting.write_metrics",
)

# Class slices handed to the alignment loss; its first argument maps each
# class to its slice of embedded points.
ALIGNMENT_CLASSES = "nets.alignment_classes"
_ALIGNMENT = "nets.alignment_loss_grad"


def _module_name(name: str) -> str:
    module = name.rsplit(".", 1)[0]
    return module if module.startswith("numpy") else f"flic.{module}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        # [name index, parent span index or -1, start, end, child seconds]
        self.spans: list[list] = []
        self.counts = {ALIGNMENT_CLASSES: 0}
        self.absent: list[str] = []
        self._open: list[int] = []  # indices of the open spans; runs use one thread

    def install(self) -> None:
        """Wrap every name in WRAPPED; import ``flic`` first."""
        flic_modules = [
            m for n, m in list(sys.modules.items()) if n == "flic" or n.startswith("flic.")
        ]
        for name in WRAPPED:
            attr = name.rsplit(".", 1)[1]
            try:
                module = importlib.import_module(_module_name(name))
            except ImportError:
                self.absent.append(name)
                continue
            original = getattr(module, attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for m in [module, *flic_modules]:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapper)

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, counts = self.spans, self._open, self.counts
        counts_classes = name == _ALIGNMENT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts_classes and args:
                counts[ALIGNMENT_CLASSES] += len(args[0])
            span = [name_id, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
                if span[1] >= 0:
                    spans[span[1]][4] += span[3] - span[2]

        return wrapper

    def summary(self) -> dict:
        """Calls and self seconds per wrapped name, counts, absent names."""
        layers = {name: {"calls": 0, "self_s": 0.0} for name in WRAPPED}
        for name_id, _, start, end, child_s in self.spans:
            entry = layers[self.names[name_id]]
            entry["calls"] += 1
            entry["self_s"] += end - start - child_s
        return {"layers": layers, "counts": dict(self.counts), "absent": list(self.absent)}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)
