"""The four benchmark workloads.

Each workload builds its inputs from the workload seed, runs numbered
rounds of timed operations against the program's public functions, and
checks every round's outputs once the timed loop is over.  Round r draws its
inputs from (seed, r) alone, so the first rounds of a run are the same
whatever the program's speed; the reported estimate means and final
log-likelihoods are taken over the first `fixed_rounds` rounds only.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os

import numpy as np

import rbmrad
from rbmrad import cli, rbm

VC_VALUES = (1, 2, 5, 10)


class Failure(Exception):
    """A CLI stage exited with a non-zero code."""


# Closed-form bounds, written out here so the checks do not trust the
# program's own bounds module.
def _massart(radius, ln_card, n):
    return radius * math.sqrt(2.0 * ln_card / n)


def bound_h(B, W, k, n):
    return _massart(B, math.log(k), n) + _massart(W, math.log(k), n)


def bound_theorem1(B, W, k, m, n):
    return m * bound_h(B, W, k, n)


def bound_corollary1(W, k, m, n, vc):
    return m * _massart(W, math.log(k), n) + k * _massart(W, vc * math.log(n + 1), n)


def csv_rows(data: bytes):
    return list(csv.DictReader(io.StringIO(data.decode())))


def _close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(1.0, abs(b))


def reference_log_partition(W, b, c, chunk_bits=14):
    """ln Z by plain enumeration in chunks of 2^chunk_bits visible states."""
    k = W.shape[0]
    shifts = np.arange(k)
    partials = []
    size = 1 << min(chunk_bits, k)
    for start in range(0, 1 << k, size):
        ids = np.arange(start, start + size, dtype=np.int64)
        X = ((ids[:, None] >> shifts) & 1).astype(float)
        values = X @ b + np.logaddexp(0.0, X @ W + c).sum(axis=1)
        top = values.max()
        partials.append(top + math.log(np.exp(values - top).sum()))
    partials = np.array(partials)
    top = partials.max()
    return float(top + math.log(np.exp(partials - top).sum()))


class Workload:
    """Base: subclasses define setup, round and check."""

    fixed_rounds = 1
    slots = ()  # (op name, per-op metric name, unit word) for ops_per_s.a, .b

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        """Build inputs; return a list of failure messages from set-up checks."""
        return []

    def ops_in_round(self):
        """Operations a round attempts, by the name failures are charged to."""
        raise NotImplementedError

    def quality(self, outputs):
        """Named quality values over the first fixed_rounds round outputs."""
        return {}


class CliAscent(Workload):
    """In-process CLI chain: gen-data, bounds, then per round two
    `estimate` calls on fresh sigma vectors and a `compare`."""

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.configs = {}

    def _config(self, cls, num_sigma):
        path = os.path.join(self.workdir, f"{cls}.cfg")
        lines = [f"{key} = {value}" for key, value in self.sizes.items()]
        lines += [f"num_sigma = {num_sigma}", f"seed = {self.seed}",
                  "data_source = bernoulli-half", f"output_dir = {self.workdir}"]
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return path

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            raise Failure(f"rbmrad {' '.join(argv[:2])} exited {code}: {err.getvalue().strip()}")

    def setup(self):
        os.makedirs(self.workdir, exist_ok=True)
        for cls, num_sigma in self.classes:
            self.configs[cls] = self._config(cls, num_sigma)
        first = self.configs[self.classes[0][0]]
        self._cli(["gen-data", "--config", first])
        self._cli(["bounds", "--config", first])
        return self._check_bounds_csv()

    def _check_bounds_csv(self):
        s = self.sizes
        B, W, k, m, n = s["B_radius"], s["W_radius"], s["k"], s["m"], s["n"]
        expected = {
            ("LEMMA1", None): _massart(B, math.log(k), n),
            ("REMARK2", None): _massart(W, math.log(k), n),
            ("THEOREM1", None): bound_theorem1(B, W, k, m, n),
            **{("COROLLARY1", vc): bound_corollary1(W, k, m, n, vc) for vc in VC_VALUES},
        }
        with open(os.path.join(self.workdir, "bounds.csv"), "rb") as fh:
            rows = csv_rows(fh.read())
        found = {}
        for row in rows:
            key = (row["bound_name"], int(row["vc"]) if row["vc"] else None)
            found[key] = float(row["value"])
        return [f"bounds.csv {name} vc={vc}: {found.get((name, vc))} != {value!r}"
                for (name, vc), value in expected.items()
                if (name, vc) not in found or not _close(found[(name, vc)], value)]

    def ops_in_round(self):
        return dict(self.classes)

    def round(self, run, r):
        sigma_seed = str(self.seed * 1000 + r)
        outputs = {}
        for cls, num_sigma in self.classes:
            argv = ["estimate", cls, "--config", self.configs[cls], "--seed", sigma_seed]
            run.timed(cls, num_sigma, self._cli, argv, span="cli")
        first = self.configs[self.classes[0][0]]
        run.call("cli", self._cli, ["compare", "--config", first])
        for name in [f"estimate_{cls}.csv" for cls, _ in self.classes] + ["comparison.csv"]:
            with open(os.path.join(self.workdir, name), "rb") as fh:
                outputs[name] = fh.read()
        return outputs

    def check(self, r, outputs):
        """Map each class to the failure messages of this round."""
        failures = {cls: [] for cls, _ in self.classes}
        comparison = csv_rows(outputs["comparison.csv"])
        for cls, num_sigma in self.classes:
            rows = csv_rows(outputs[f"estimate_{cls}.csv"])
            bad = failures[cls]
            if len(rows) != 1:
                bad.append(f"{cls}: expected one estimate row, got {len(rows)}")
                continue
            row = rows[0]
            mean, stderr = float(row["mean"]), float(row["stderr"])
            if int(row["num_sigma"]) != num_sigma:
                bad.append(f"{cls}: {row['num_sigma']} of {num_sigma} sigma vectors kept")
            if int(row["seed"]) != self.seed * 1000 + r:
                bad.append(f"{cls}: estimate seed {row['seed']} is not the round's")
            if not math.isfinite(mean) or (num_sigma > 1 and not math.isfinite(stderr)):
                bad.append(f"{cls}: non-finite mean {mean} or stderr {stderr}")
                continue
            for limit, label in self.limits(cls, stderr):
                if not mean <= limit:
                    bad.append(f"{cls}: mean {mean!r} above {label} {limit!r}")
            if cls == "T" and mean < 0.0:
                bad.append(f"T: mean {mean!r} below the zero-point value 0")
            mine = [row for row in comparison if row["class_name"] == cls]
            if len(mine) != self.comparison_rows.get(cls, 0):
                bad.append(f"{cls}: {len(mine)} comparison rows, expected "
                           f"{self.comparison_rows.get(cls, 0)}")
            bad.extend(f"{cls}: comparison against {row['bound_name']} not satisfied"
                       for row in mine if row["satisfied"] != "true")
        return failures

    def quality(self, outputs):
        means = {}
        for cls, _ in self.classes:
            values = [float(csv_rows(out[f"estimate_{cls}.csv"])[0]["mean"])
                      for out in outputs[:self.fixed_rounds]]
            means[f"estimate_mean.{cls}"] = float(np.mean(values))
        return means


class Part1Ascent(CliAscent):
    """Analytic-gradient ascent: H (m=1 case) and LOGLIK_PART1 (m=4)."""

    name = "part1_ascent"
    sizes = {"k": 10, "m": 4, "n": 50, "B_radius": 1.0, "W_radius": 1.0,
             "restarts": 8, "iterations": 500}
    classes = (("H", 20), ("LOGLIK_PART1", 8))
    comparison_rows = {"H": 1, "LOGLIK_PART1": 1}
    fixed_rounds = 6
    slots = (("H", "sigma_per_s.H", "sigma"),
             ("LOGLIK_PART1", "sigma_per_s.LOGLIK_PART1", "sigma"))

    def limits(self, cls, stderr):
        s = self.sizes
        B, W, k, m, n = s["B_radius"], s["W_radius"], s["k"], s["m"], s["n"]
        if cls == "H":
            return [(bound_h(B, W, k, n) + 3.0 * stderr, "LEMMA1+REMARK2 + 3se")]
        return [(bound_theorem1(B, W, k, m, n) + 3.0 * stderr, "THEOREM1 + 3se")]


class FdAscent(CliAscent):
    """Finite-difference ascent: CD1_LOGZ and T at the criterion 15 sizes."""

    name = "fd_ascent"
    sizes = {"k": 6, "m": 3, "n": 50, "B_radius": 0.0, "W_radius": 1.0,
             "restarts": 8, "iterations": 200}
    # T has no closed-form comparator, so one sigma vector (no stderr) is
    # enough; CD1_LOGZ needs two for the compare stage's 3se margin.
    classes = (("CD1_LOGZ", 3), ("T", 1))
    comparison_rows = {"CD1_LOGZ": len(VC_VALUES)}
    fixed_rounds = 1
    slots = (("CD1_LOGZ", "sigma_per_s.CD1_LOGZ", "sigma"),
             ("T", "sigma_per_s.T", "sigma"))

    def limits(self, cls, stderr):
        s = self.sizes
        W, k, m, n = s["W_radius"], s["k"], s["m"], s["n"]
        if cls == "T":
            return [(W, "W (|t| <= W)")]
        return [(bound_corollary1(W, k, m, n, vc) + 3.0 * stderr, f"COROLLARY1(vc={vc}) + 3se")
                for vc in VC_VALUES]


class Cd1Train(Workload):
    """CD-1 training on data drawn from a seeded ground-truth RBM."""

    name = "cd1_train"
    k, m, n = 6, 3, 5000
    learning_rate = 0.05
    # (epochs, audit_every): sparse audits, then one exact audit per epoch.
    runs = {"train": (100, 50), "audited": (20, 1)}
    fixed_rounds = 5
    slots = (("train", "epochs_per_s", "epoch"),
             ("audited", "audited_epochs_per_s", "epoch"))

    def setup(self):
        rng = np.random.default_rng([self.seed, 777])
        truth = rbmrad.RbmParams(
            W=rng.uniform(-3.0, 3.0, size=(self.k, self.m)),
            b=np.zeros(self.k), c=np.zeros(self.m))
        self.data = rbm.sample_dataset(truth, self.n, self.seed)
        return []

    def ops_in_round(self):
        return {op: 1 for op in self.runs}

    def round(self, run, r):
        outputs = {}
        for op, (epochs, audit_every) in self.runs.items():
            rng = np.random.default_rng([self.seed, 999, r])
            init = rbmrad.RbmParams(W=rng.uniform(-0.1, 0.1, size=(self.k, self.m)),
                                    b=np.zeros(self.k), c=np.zeros(self.m))
            trace = run.timed(op, epochs, rbmrad.train_cd1, init, self.data,
                              epochs, self.learning_rate, r, audit_every)
            outputs[op] = tuple((t.epoch, t.mean_exact_loglik) for t in trace)
        return outputs

    def check(self, r, outputs):
        failures = {}
        for op, (epochs, audit_every) in self.runs.items():
            bad = failures[op] = []
            audited = [epoch for epoch, _ in outputs[op]]
            if audited != list(range(0, epochs + 1, audit_every)):
                bad.append(f"{op}: audited epochs {audited}")
            bad.extend(f"{op}: epoch {epoch} mean exact log-likelihood {ll!r}"
                       for epoch, ll in outputs[op]
                       if not (math.isfinite(ll) and ll <= 0.0))
        return failures

    def quality(self, outputs):
        finals = [out["train"][-1][1] for out in outputs[:self.fixed_rounds]]
        return {"final_loglik": float(np.mean(finals))}


class ExactLogZ(Workload):
    """ln Z, exact distribution and sampling at k = m = 20."""

    name = "exact_logz"
    k = m = 20
    sample_n = 1000
    fixed_rounds = 2
    slots = (("logz", "logz_per_s", "call"),
             ("sample", "samples_per_s", "call"))

    def ops_in_round(self):
        return {"logz": 1, "sample": 1}

    def _params(self, r):
        rng = np.random.default_rng([self.seed, r])
        return (rng.normal(0.0, 0.25, size=(self.k, self.m)),
                rng.normal(0.0, 0.25, size=self.k), rng.normal(0.0, 0.25, size=self.m))

    def _op(self, run, r, op, fn, *args):
        # The first k=20 calls of a process run about a third slower than
        # later ones (fresh huge pages), so round 0 only warms up.
        if r == 0:
            return run.call(f"op.{op}", fn, *args)
        return run.timed(op, 1, fn, *args)

    def round(self, run, r):
        params = rbmrad.RbmParams(*self._params(r))
        log_z = self._op(run, r, "logz", rbm.log_partition_factorized, params)
        data = self._op(run, r, "sample", rbm.sample_dataset, params, self.sample_n,
                        self.seed * 1000 + r)
        return {"log_z": log_z,
                "samples": hashlib.sha256(data.samples.tobytes()).hexdigest(),
                "shape": data.samples.shape}

    def check(self, r, outputs):
        bad = []
        ref = reference_log_partition(*self._params(r))
        log_z = outputs["log_z"]
        if not (math.isfinite(log_z) and _close(log_z, ref, 1e-10)):
            bad.append(f"ln Z {log_z!r} differs from chunked enumeration {ref!r}")
        samples = []
        if outputs["shape"] != (self.sample_n, self.k):
            samples.append(f"sample shape {outputs['shape']}")
        return {"logz": bad, "sample": samples}


WORKLOADS = {cls.name: cls for cls in (Part1Ascent, FdAscent, Cd1Train, ExactLogZ)}
