"""Plain-text file formats: datasets, parameters, T members, CSV reports.

All real numbers are written with 17 significant digits so that every file
round-trips to the exact float64 value and reruns with identical inputs
produce byte-identical output.  Every write goes to a temporary file first
and is renamed into place, so an interrupted run leaves the previous file
or none, never a truncated one.
"""

from __future__ import annotations

import os
import re
from dataclasses import asdict

import numpy as np

from .cd1 import TrainingTrace
from .rademacher import EstimateReport
from .rbm import BinaryDataset, RbmParams

BOUNDS_HEADER = "bound_name,B,W,k,m,n,d,ln_card_T,vc,value"
ESTIMATE_HEADER = (
    "class_name,n,k,m,B_radius,W_radius,ln_card_T,num_sigma,restarts,"
    "inner_sup_kind,mean,stderr,seed"
)
COMPARISON_HEADER = (
    "class_name,estimate_mean,estimate_stderr,bound_name,bound_value,satisfied"
)
TRACE_HEADER = "epoch,mean_exact_loglik,learning_rate,seed"

# Type of every numeric column across the CSV headers; any other is a string.
_COLUMN_TYPES = {
    **dict.fromkeys(("k", "m", "n", "d", "vc", "num_sigma", "restarts", "seed",
                     "epoch"), int),
    **dict.fromkeys(("B", "W", "ln_card_T", "value", "B_radius", "W_radius", "mean",
                     "stderr", "estimate_mean", "estimate_stderr", "bound_value",
                     "mean_exact_loglik", "learning_rate"), float),
}


def fmt_real(x) -> str:
    return format(float(x), ".17g")


def _fmt_field(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, str):
        return value
    return fmt_real(value)


def _write_lines(path, lines) -> None:
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", newline="") as fh:
            fh.write("\n".join(lines) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _read_nonblank(path, what: str) -> list[str]:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines:
        raise ValueError(f"empty {what} file")
    return lines


def _tagged(line: str, *tags: str) -> list[int]:
    """The ints of a `tag=<int> ...` line with exactly these tags, in order."""
    match = re.fullmatch(r"\s+".join(rf"{tag}=(-?\d+)" for tag in tags), line)
    if match is None:
        form = " ".join(f"{tag}=<int>" for tag in tags)
        raise ValueError(f"expected '{form}', got {line!r}")
    return [int(value) for value in match.groups()]


def write_dataset(path, data: BinaryDataset) -> None:
    lines = [f"k={data.k} n={data.n}"]
    for row in data.samples:
        lines.append(" ".join("1" if v else "0" for v in row))
    _write_lines(path, lines)


def read_dataset(path) -> BinaryDataset:
    lines = _read_nonblank(path, "dataset")
    k, n = _tagged(lines[0], "k", "n")
    if len(lines) != n + 1:
        raise ValueError(f"expected {n} sample lines, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        bits = ln.split()
        if len(bits) != k or any(b not in ("0", "1") for b in bits):
            raise ValueError(f"malformed sample line {ln!r}")
        rows.append([float(b) for b in bits])
    return BinaryDataset(np.array(rows))


def write_params(path, params: RbmParams) -> None:
    lines = [f"k={params.k} m={params.m}"]
    for row in params.W:
        lines.append(" ".join(fmt_real(v) for v in row))
    lines.append(" ".join(fmt_real(v) for v in params.b))
    lines.append(" ".join(fmt_real(v) for v in params.c))
    _write_lines(path, lines)


def read_params(path) -> RbmParams:
    lines = _read_nonblank(path, "parameters")
    k, m = _tagged(lines[0], "k", "m")
    if len(lines) != k + 3:
        raise ValueError(f"expected {k} weight rows plus b and c lines")
    W = np.array([[float(v) for v in lines[1 + i].split()] for i in range(k)])
    if W.shape != (k, m):
        raise ValueError(f"malformed weight block: expected {k} rows of {m} weights")
    b = np.array([float(v) for v in lines[k + 1].split()])
    c = np.array([float(v) for v in lines[k + 2].split()])
    return RbmParams(W=W, b=b, c=c)


def write_members(path, members) -> None:
    members = list(members)
    if not members:
        raise ValueError("members must be nonempty")
    k, m = np.asarray(members[0][0]).shape
    lines = [f"k={k} m={m} count={len(members)}"]
    for W, u, j in members:
        W = np.asarray(W, dtype=float)
        if W.shape != (k, m):
            raise ValueError("all member matrices must share one shape")
        if not np.isfinite(W).all():
            raise ValueError("member weights must be finite")
        lines.append(f"u={u} j={j}")
        for row in W:
            lines.append(" ".join(fmt_real(v) for v in row))
    _write_lines(path, lines)


def read_members(path) -> list:
    lines = _read_nonblank(path, "members")
    k, m, count = _tagged(lines[0], "k", "m", "count")
    if count < 1:
        raise ValueError(f"members file {path} lists count={count}; it needs a member")
    expected = 1 + count * (k + 1)
    if len(lines) != expected:
        raise ValueError(f"expected {expected} lines, found {len(lines)}")
    members = []
    pos = 1
    for _ in range(count):
        u, j = _tagged(lines[pos], "u", "j")
        if not (0 <= u < k and 0 <= j < m):
            raise ValueError(f"member index u={u} j={j} outside k={k} m={m}")
        W = np.array(
            [[float(v) for v in lines[pos + 1 + i].split()] for i in range(k)]
        )
        if W.shape != (k, m) or not np.isfinite(W).all():
            raise ValueError("malformed member weight block")
        members.append((W, u, j))
        pos += k + 1
    return members


def _write_csv(path, header: str, rows) -> None:
    lines = [header]
    columns = header.split(",")
    for row in rows:
        unknown = sorted(row.keys() - columns)
        if unknown:
            raise ValueError(f"no CSV column for {', '.join(unknown)}")
        lines.append(",".join(_fmt_field(row.get(col)) for col in columns))
    _write_lines(path, lines)


def read_csv(path) -> list[dict]:
    """Rows as dicts; empty fields are None, the rest typed by column name."""
    lines = _read_nonblank(path, "CSV")
    columns = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != len(columns):
            raise ValueError(f"malformed CSV line {ln!r}")
        rows.append({
            col: None if val == "" else _COLUMN_TYPES.get(col, str)(val)
            for col, val in zip(columns, parts)
        })
    return rows


def write_bounds_csv(path, rows) -> None:
    _write_csv(path, BOUNDS_HEADER, rows)


def estimate_row(report: EstimateReport) -> dict:
    """One estimate CSV row: the report and the inputs it ran on, by column."""
    return {
        **report.inputs,
        "class_name": report.class_name,
        "num_sigma": report.num_sigma,
        "restarts": report.optimizer_restarts,
        "inner_sup_kind": report.inner_sup_kind,
        "mean": report.mean,
        "stderr": report.stderr,
        "seed": report.seed,
    }


def write_estimate_csv(path, rows) -> None:
    _write_csv(path, ESTIMATE_HEADER, rows)


def write_comparison_csv(path, rows) -> None:
    _write_csv(path, COMPARISON_HEADER, rows)


def write_trace_csv(path, traces) -> None:
    _write_csv(path, TRACE_HEADER, [asdict(t) for t in traces])


def read_trace_csv(path) -> list[TrainingTrace]:
    return [TrainingTrace(**row) for row in read_csv(path)]
