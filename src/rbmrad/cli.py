"""Command-line experiment harness.

Subcommands: gen-data, bounds, estimate, compare, train, verify.  Exit
codes: 0 success, 2 configuration error, 3 verification-suite failure,
4 I/O error.  The argument parser is built once per process, so repeated
in-process main() calls share it; each parse returns a fresh namespace.

estimate and compare read each class from rademacher.CLASSES.  estimate
passes the class's estimator what its signature names, in that order,
and reads the members file only for an estimator that takes members.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import math
import os
import sys

import numpy as np

from . import bounds as bc
from . import fileio
from .cd1 import train_cd1
from .config import ConfigError, ExperimentConfig, load_config
# cmd_estimate calls each estimator through its global here, so a wrapper
# set on that global sees every `estimate` call.
from .rademacher import (
    CLASS_NAMES,
    CLASSES,
    ConstraintSpec,
    OptimizerSettings,
    estimate_R_cd1_logZ,
    estimate_R_F,
    estimate_R_finite_T,
    estimate_R_G,
    estimate_R_H,
    estimate_R_loglik_part1,
    estimate_R_T,
    finite_t_inputs,
    sample_sigma_batch,
)
from .rbm import BinaryDataset, RbmParams, sample_dataset

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SUITE = 3
EXIT_IO = 4


def _resolve_config(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.output_dir = args.out
    cfg.validate()
    return cfg


def _path(cfg: ExperimentConfig, name: str) -> str:
    return os.path.join(cfg.output_dir, name)


def cmd_gen_data(cfg: ExperimentConfig) -> int:
    os.makedirs(cfg.output_dir, exist_ok=True)
    if cfg.data_source == "bernoulli-half":
        rng = np.random.default_rng(cfg.seed)
        samples = rng.integers(0, 2, size=(cfg.n, cfg.k)).astype(float)
        data = BinaryDataset(samples)
    else:
        rng = np.random.default_rng([cfg.seed, 0])
        W = rng.uniform(-1.0, 1.0, size=(cfg.k, cfg.m))
        for j in range(cfg.m):
            norm = np.abs(W[:, j]).sum()
            if norm > cfg.W_radius and norm > 0.0:
                W[:, j] *= cfg.W_radius / norm
        params = RbmParams(W=W, b=np.zeros(cfg.k), c=np.zeros(cfg.m))
        # Sample before writing, so a failed draw leaves no unpaired params.txt.
        data = sample_dataset(params, cfg.n, cfg.seed)
        fileio.write_params(_path(cfg, "params.txt"), params)
        print(f"wrote {_path(cfg, 'params.txt')}")
    fileio.write_dataset(_path(cfg, "dataset.txt"), data)
    print(f"wrote {_path(cfg, 'dataset.txt')}")
    return EXIT_OK


def cmd_bounds(cfg: ExperimentConfig) -> int:
    os.makedirs(cfg.output_dir, exist_ok=True)
    rows, skipped = [], []

    def skip(name, reason):
        skipped.append(name)
        print(f"skipping {name}: {reason}", file=sys.stderr)

    def add(name, bound, **inputs):
        # Each bound's parameters are named after its inputs.
        try:
            rows.append({"bound_name": name, **inputs, "value": bound(**inputs)})
        except ValueError as exc:
            skip(name, exc)

    B, W, k, m, n = cfg.B_radius, cfg.W_radius, cfg.k, cfg.m, cfg.n
    add("LEMMA1", bc.bound_lemma1, B=B, d=k, n=n)
    add("REMARK2", bc.bound_remark2, W=W, d=k, n=n)
    add("THEOREM1", bc.bound_theorem1, B=B, W=W, k=k, m=m, n=n)
    try:
        t_max, ln_card_T = finite_t_inputs(_members(cfg))
    except FileNotFoundError as exc:
        skip("LEMMA4_FINITE", f"no members file {exc.filename}")
    else:
        add("LEMMA4_FINITE", bc.bound_lemma4_finite, W=t_max, ln_card_T=ln_card_T, n=n)
    for vc in cfg.vc_values:
        add("SAUER_SHELAH", bc.sauer_shelah_ln_card, vc=vc, n=n)
        add("COROLLARY1", bc.bound_corollary1, W=W, k=k, m=m, n=n, vc=vc)
    fileio.write_bounds_csv(_path(cfg, "bounds.csv"), rows)
    print(f"wrote {_path(cfg, 'bounds.csv')}")
    if skipped:
        print(f"skipped {len(skipped)} row(s)", file=sys.stderr)
    return EXIT_OK


def _members(cfg: ExperimentConfig) -> list:
    members = fileio.read_members(cfg.members_file or _path(cfg, "members.txt"))
    k = len(members[0][0])  # one members file holds one k
    if k != cfg.k:
        raise ConfigError(f"members are built for k={k}, config has k={cfg.k}")
    return members


# bounds.csv inputs whose estimate CSV column has another name.
_ESTIMATE_COLUMN = {"B": "B_radius", "W": "W_radius", "d": "k"}
_ESTIMATE_COLUMNS = set(fileio.ESTIMATE_HEADER.split(","))


def cmd_estimate(cfg: ExperimentConfig, class_name: str) -> int:
    if class_name not in CLASSES:
        raise ConfigError(f"unknown class name {class_name!r}")
    estimator = CLASSES[class_name].estimator
    data = fileio.read_dataset(_path(cfg, "dataset.txt"))
    supplied = {
        "data": data,
        "spec": ConstraintSpec(B_radius=cfg.B_radius, W_radius=cfg.W_radius),
        "m": cfg.m,
        "batch": sample_sigma_batch(data.n, cfg.num_sigma, cfg.seed),
        "opt": OptimizerSettings(restarts=cfg.restarts, iterations=cfg.iterations),
    }
    names = inspect.signature(estimator).parameters
    if "members" in names:
        supplied["members"] = _members(cfg)
    report = globals()[estimator.__name__](*(supplied[name] for name in names))
    out = _path(cfg, f"estimate_{class_name}.csv")
    fileio.write_estimate_csv(out, [fileio.estimate_row(report)])
    print(f"wrote {out}")
    return EXIT_OK


def _match(bound_rows, name, est):
    # A row matches when every input it records equals the estimate's column
    # for it.  An input with no estimate column (vc) is free, so COROLLARY1
    # gives one comparison per vc.
    def agrees(key, value):
        col = _ESTIMATE_COLUMN.get(key, key)
        return value is None or col not in _ESTIMATE_COLUMNS or est.get(col) == value

    return [
        row
        for row in bound_rows
        if row["bound_name"] == name and all(agrees(*item) for item in row.items())
    ]


def _comparison(est, bound_name, bound_value) -> dict:
    # One sigma vector leaves the stderr nan: the mean then gets no margin.
    stderr = est["stderr"]
    margin = 3.0 * stderr if math.isfinite(stderr) else 0.0
    return {
        "class_name": est["class_name"],
        "estimate_mean": est["mean"],
        "estimate_stderr": stderr,
        "bound_name": bound_name,
        "bound_value": bound_value,
        "satisfied": est["mean"] <= bound_value + margin,
    }


def cmd_compare(cfg: ExperimentConfig) -> int:
    bound_rows = fileio.read_csv(_path(cfg, "bounds.csv"))
    estimates = []
    for class_name in CLASS_NAMES:
        path = _path(cfg, f"estimate_{class_name}.csv")
        if os.path.exists(path):
            estimates.extend(fileio.read_csv(path))

    rows = []
    for est in estimates:
        cls = CLASSES.get(est["class_name"])
        if cls is None or not cls.bounds:
            print(
                f"{est['class_name']}: no closed-form comparator; row skipped",
                file=sys.stderr,
            )
            continue
        choices = []
        for name in cls.bounds:
            found = _match(bound_rows, name, est)
            if not found:
                print(
                    f"{est['class_name']}: no {name} bound row with matching inputs",
                    file=sys.stderr,
                )
            choices.append(found)
        for combo in itertools.product(*choices):
            bound_value = sum(hit["value"] for hit in combo)
            rows.append(_comparison(est, "+".join(cls.bounds), bound_value))

    fileio.write_comparison_csv(_path(cfg, "comparison.csv"), rows)
    print(f"wrote {_path(cfg, 'comparison.csv')}")
    return EXIT_OK


def cmd_train(cfg: ExperimentConfig) -> int:
    data = fileio.read_dataset(_path(cfg, "dataset.txt"))
    if cfg.init_params_file:
        init = fileio.read_params(cfg.init_params_file)
        if init.m != cfg.m:
            raise ConfigError(f"params are built for m={init.m}, config has m={cfg.m}")
    else:
        rng = np.random.default_rng([cfg.seed, 999])
        init = RbmParams(
            W=rng.uniform(-0.1, 0.1, size=(data.k, cfg.m)),
            b=np.zeros(data.k),
            c=np.zeros(cfg.m),
        )
    trace = train_cd1(
        init, data, cfg.epochs, cfg.learning_rate, cfg.seed, cfg.audit_every
    )
    fileio.write_trace_csv(_path(cfg, "trace.csv"), trace)
    print(f"wrote {_path(cfg, 'trace.csv')}")
    print(
        f"mean exact log-likelihood: initial {trace[0].mean_exact_loglik:.6f} "
        f"final {trace[-1].mean_exact_loglik:.6f}"
    )
    return EXIT_OK


def cmd_verify(cfg: ExperimentConfig) -> int:
    from . import verify  # only this command needs it

    results = verify.run_all(cfg.seed)
    failed = [r for r in results if not r.passed]
    for result in results:
        status = "ok" if result.passed else "FAILED"
        print(
            f"suite {result.name}: {result.checks - result.failures}/"
            f"{result.checks} checks passed [{status}]"
        )
    if failed:
        print("failed suites: " + ", ".join(r.name for r in failed))
        return EXIT_SUITE
    print("all suites passed")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbmrad",
        description="RBM Rademacher-complexity experiments",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="experiment config file")
    common.add_argument("--seed", type=int, help="override the config seed")
    common.add_argument("--out", help="override the output directory")

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("gen-data", parents=[common], help="write a dataset file")
    sub.add_parser("bounds", parents=[common], help="tabulate closed-form bounds")
    est = sub.add_parser("estimate", parents=[common], help="run one estimator")
    est.add_argument("class_name", choices=CLASS_NAMES)
    sub.add_parser("compare", parents=[common], help="join estimates to bounds")
    sub.add_parser("train", parents=[common], help="run a CD-1 training audit")
    sub.add_parser("verify", parents=[common], help="run verification suites")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "estimate":
            return cmd_estimate(cfg, args.class_name)
        commands = {"gen-data": cmd_gen_data, "bounds": cmd_bounds,
                    "compare": cmd_compare, "train": cmd_train, "verify": cmd_verify}
        return commands[args.command](cfg)
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
