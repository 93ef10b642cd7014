"""In-memory span recording for the traced benchmark run.

Wrappers replace module globals of the program, so the program's own code
looks them up and records a span on every call.  Each span holds its name,
start, end, parent span and the round (request) it belongs to.  Spans stay
in memory until the run ends; the per-layer metrics are folded from them.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np


class Tracer:
    """The spans of one traced run and the wrappers that record them."""

    def __init__(self):
        self.spans = []  # [name, parent, start, end, request, attrs]
        self.request = -1
        self._stack = []
        self._installed = []

    def span(self, name, fn, args=(), kwargs=None, attrs=None):
        record = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0,
                  self.request, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[2] = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()
        if attrs is not None:
            record[5] = attrs(args, result)
        return result

    def wrap(self, module, attr, name, attrs=None):
        """Replace module.attr with a recording wrapper; a missing name is an error."""
        original = module.__dict__.get(attr)
        if original is None:
            raise LookupError(
                f"{module.__name__}.{attr} is missing, so its layer cannot be traced"
            )

        def wrapper(*args, **kwargs):
            return self.span(name, original, args, kwargs, attrs)

        setattr(module, attr, wrapper)
        self._installed.append((module, attr, original))

    def uninstall(self):
        while self._installed:
            module, attr, original = self._installed.pop()
            setattr(module, attr, original)

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for name, parent, start, end, request, attrs in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "start": start, "end": end,
                                     "request": request, "attrs": attrs}) + "\n")


def _elements(args, result):
    return {"elements": int(np.size(args[0]))}


def _nbytes(args, result):
    # Computed from the array the call returned, not measured traffic.
    return {"bytes": int(result.nbytes)}


def _file_size(args, result):
    return {"bytes": int(os.path.getsize(args[0]))}


ESTIMATORS = {
    "F": "estimate_R_F",
    "G": "estimate_R_G",
    "H": "estimate_R_H",
    "LOGLIK_PART1": "estimate_R_loglik_part1",
    "T": "estimate_R_T",
    "CD1_LOGZ": "estimate_R_cd1_logZ",
    "FINITE_T": "estimate_R_finite_T",
}


def install(tracer):
    """Wrap the module globals whose calls make up each layer."""
    from rbmrad import bounds, cd1, cli, fileio, rademacher, rbm

    for attr in ("sigmoid", "softplus"):
        tracer.wrap(rademacher, attr, "rbm.activation", _elements)
    tracer.wrap(cd1, "cd1_gradient_step", "cd1.step")
    tracer.wrap(cd1, "RbmParams", "rbm.validate")
    tracer.wrap(cd1, "BinaryDataset", "rbm.validate")
    tracer.wrap(cd1, "dataset_log_likelihoods", "cd1.audit")
    tracer.wrap(rbm, "enumerate_configs", "rbm.enumerate", _nbytes)
    tracer.wrap(rbm, "logsumexp", "rbm.logsumexp")
    tracer.wrap(rbm, "softplus", "rbm.softplus")
    tracer.wrap(rbm, "log_partition_factorized", "rbm.logz")
    for attr in sorted(vars(fileio)):
        if attr.startswith("write_"):
            tracer.wrap(fileio, attr, "fileio", _file_size)
        elif attr.startswith("read_"):
            tracer.wrap(fileio, attr, "fileio")
    for attr in sorted(vars(bounds)):
        if attr.startswith(("bound_", "sauer_shelah")):
            tracer.wrap(bounds, attr, "bounds")
    for class_name, attr in ESTIMATORS.items():
        tracer.wrap(cli, attr, f"rademacher.estimate.{class_name}")


TRACED_CLASSES = ("H", "LOGLIK_PART1", "CD1_LOGZ", "T")


def layer_metrics(spans):
    """Fold spans into per-layer counts, busy times and self times."""
    durations = [end - start for _, _, start, end, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, parent, *_rest) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += durations[i]

    calls, busy, self_s, extra = {}, {}, {}, {}
    for i, (name, parent, _, _, _, attrs) in enumerate(spans):
        if parent >= 0 and spans[parent][0] == name:
            continue  # nested call inside the same layer, already covered
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + durations[i]
        self_s[name] = self_s.get(name, 0.0) + durations[i] - child_time[i]
        for key, value in (attrs or {}).items():
            extra[(name, key)] = extra.get((name, key), 0) + value

    def estimators(table):
        return sum(v for k, v in table.items() if k.startswith("rademacher.estimate."))

    out = {
        "rbm.activation.calls": calls.get("rbm.activation", 0),
        "rbm.activation.elements": extra.get(("rbm.activation", "elements"), 0),
        "rbm.activation.s": busy.get("rbm.activation", 0.0),
    }
    for cls in TRACED_CLASSES:
        out[f"rademacher.estimate_s.{cls}"] = busy.get(f"rademacher.estimate.{cls}", 0.0)
    out.update({
        "rademacher.self_s": estimators(self_s),
        "rbm.validate.calls": calls.get("rbm.validate", 0),
        "rbm.validate.s": busy.get("rbm.validate", 0.0),
        "cd1.step.calls": calls.get("cd1.step", 0),
        "cd1.step.self_s": self_s.get("cd1.step", 0.0),
        "cd1.audit.calls": calls.get("cd1.audit", 0),
        "cd1.audit.s": busy.get("cd1.audit", 0.0),
        "rbm.enumerate.s": busy.get("rbm.enumerate", 0.0),
        "rbm.enumerate.bytes": extra.get(("rbm.enumerate", "bytes"), 0),
        "rbm.logsumexp.s": busy.get("rbm.logsumexp", 0.0),
        "rbm.softplus.s": busy.get("rbm.softplus", 0.0),
        "rbm.logz.calls": calls.get("rbm.logz", 0),
        "rbm.logz.s": busy.get("rbm.logz", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "fileio.calls": calls.get("fileio", 0),
        "fileio.bytes_written": extra.get(("fileio", "bytes"), 0),
        "fileio.s": busy.get("fileio", 0.0),
        "bounds.s": busy.get("bounds", 0.0),
        "trace.spans": len(spans),
    })
    return out
