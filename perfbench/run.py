"""rbmrad benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload part1_ascent --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  One closed-loop caller in this process runs numbered rounds of the
workload until the next round would pass `--seconds`, then checks every
round's outputs.  With `--trace 0` the last stdout line carries the
end-to-end metrics; with `--trace 1` the fixed rounds run once untraced and
once with span-recording wrappers installed, and the last line carries the
per-layer metrics.  The line before it is a fuller report (named metrics,
tails, sample counts, estimate means, environment), also written with the
spans under `.perfbench_out/`.  perfbench/README.md describes the
workloads, metrics and checks.
"""

from __future__ import annotations

import os
import sys

# BLAS and OpenMP pools are fixed at one thread (at most nproc on any box)
# before numpy loads; one thread was also the faster setting for these
# small matrices.
BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
SETUP_PROBES = 4
HARD_STOP_S = 150.0

QUALITY_NAMES = ("estimate_mean.H", "estimate_mean.LOGLIK_PART1",
                 "estimate_mean.CD1_LOGZ", "estimate_mean.T", "final_loglik")


class Calibration:
    """A fixed numpy kernel whose time tracks how fast the host runs now.

    Shared hosts swing between fast and slow phases lasting seconds (on a
    2-vCPU Intel Xeon container the same kernel took 160 to 290 ms within
    one minute, with no steal time), which moves every timing with it.  The kernel is timed before, after and every
    SAMPLE_EVERY_S during each operation (from a timer signal, its own time
    taken out of the operation's), and the operation's time is scaled by the
    mean of REFERENCE_S over the kernel times.  That removes most of the
    swing from the reported rates.
    """

    REFERENCE_S = 0.003
    SAMPLE_EVERY_S = 0.25

    def __init__(self):
        import numpy as np
        from scipy.special import expit

        rng = np.random.default_rng(0)
        self._a = rng.normal(size=(64, 50, 10))
        self._w = rng.normal(size=(64, 10, 4))
        self._np, self._expit = np, expit

    def measure(self):
        np = self._np
        start = time.perf_counter()
        for _ in range(2):
            act = self._expit(np.einsum("rnk,rkm->rnm", self._a, self._w))
            np.logaddexp(0.0, act).sum()
        return time.perf_counter() - start

    def time(self, fn, args):
        """Run fn(*args); return its result, net seconds and scaled seconds."""
        kernel = [self.measure()]
        stolen = 0.0

        def sample(signum, frame):
            nonlocal stolen
            start = time.perf_counter()
            kernel.append(self.measure())
            stolen += time.perf_counter() - start

        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, self.SAMPLE_EVERY_S, self.SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            wall = time.perf_counter() - start
            signal.signal(signal.SIGALRM, previous)
        kernel.append(self.measure())
        net = wall - stolen
        speed = statistics.fmean(self.REFERENCE_S / k for k in kernel)
        return result, net, net * speed


class Run:
    """Times operations per unit of work; traced inside spans, or scaled by
    the calibration kernel sampled during each operation."""

    def __init__(self, tracer=None, calibration=None):
        self.tracer = tracer
        self.calibration = calibration
        self.samples = {}
        self.scaled = {}

    def call(self, span, fn, *args):
        """An untimed call, recorded as a span when tracing."""
        if self.tracer is None:
            return fn(*args)
        return self.tracer.span(span, fn, args)

    def timed(self, op, units, fn, *args, span=None):
        if self.calibration is not None:
            result, net, scaled = self.calibration.time(fn, args)
            self.samples.setdefault(op, []).append(net / units)
            self.scaled.setdefault(op, []).append(scaled / units)
            return result
        start = time.perf_counter()
        result = self.call(span or f"op.{op}", fn, *args)
        self.samples.setdefault(op, []).append((time.perf_counter() - start) / units)
        return result


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def charge(self, ops, failures):
        for op, count in ops.items():
            self.attempted += count
            if failures.get(op):
                self.failed += count
                self.messages.extend(failures[op][:3])


def run_round(workload, run, r):
    """One round's outputs, or None when it raised (the error is printed)."""
    try:
        return workload.round(run, r)
    except Exception:  # keep measuring; check_rounds counts the failure
        traceback.print_exc()
        return None


def check_rounds(workload, outputs, tally):
    """Check every round's outputs, after the timed loop."""
    for r, out in enumerate(outputs):
        ops = workload.ops_in_round()
        if out is None:
            failures = {op: [f"round {r} raised"] for op in ops}
        else:
            try:
                failures = workload.check(r, out)
            except Exception as exc:  # a malformed output fails its round
                failures = {op: [f"round {r}: check raised {exc!r}"] for op in ops}
        tally.charge(ops, failures)


def timing_summary(scaled, raw, unit):
    """Median rate at reference speed, plus the slowest percentile with ten
    samples beyond it and the unscaled median."""
    ordered = sorted(scaled)
    median = statistics.median(ordered)
    summary = {"value": 1.0 / median, "unit": f"{unit}/s",
               "median_s_per_unit": median, "samples": len(ordered),
               "unscaled_value": 1.0 / statistics.median(raw),
               "scaled_s_per_unit": scaled, "unscaled_s_per_unit": raw}
    if len(ordered) > 10:
        index = len(ordered) - 11
        summary["tail"] = {"percentile": 100.0 * (index + 1) / len(ordered),
                           "s_per_unit": ordered[index]}
    return summary


def environment():
    import numpy
    import scipy

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except Exception:  # older builds have no dict form
            return None

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "git_sha": git_sha(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(BLAS_THREADS),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
    }


def git_sha():
    """The checked-out commit, or None outside a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def make_workload(name, seed):
    from workloads import WORKLOADS

    workdir = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    return WORKLOADS[name](seed, workdir)


def setup_probe(args):
    """Time imports plus set-up in this fresh interpreter; print the seconds
    scaled to reference speed by the calibration kernel run right after."""
    start = time.perf_counter()
    workload = make_workload(args.workload, args.seed)
    try:
        workload.setup()
        elapsed = time.perf_counter() - start
        print(scale_setup(elapsed))
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)
    return 0


def scale_setup(seconds):
    """Set-up seconds at reference speed, by the median of a few kernel runs."""
    calibration = Calibration()
    kernel = statistics.median(calibration.measure() for _ in range(5))
    return seconds * Calibration.REFERENCE_S / kernel


def probe_setups(args):
    """Set-up times from fresh interpreters, one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--trace", "0",
             "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def timed_run(workload, args, tally):
    run = Run(calibration=Calibration())
    outputs = []
    start = time.perf_counter()
    r = 0
    while True:
        round_start = time.perf_counter()
        outputs.append(run_round(workload, run, r))
        r += 1
        now = time.perf_counter()
        if r >= workload.fixed_rounds and (
            now - start + (now - round_start) > args.seconds
            or now - start > HARD_STOP_S
        ):
            break
    check_rounds(workload, outputs, tally)
    named, metrics = {}, {}
    for slot, (op, name, unit) in zip(("a", "b"), workload.slots):
        if op not in run.samples:
            raise RuntimeError(f"no {op} operation completed")
        named[name] = timing_summary(run.scaled[op], run.samples[op], unit)
        metrics[f"ops_per_s.{slot}"] = named[name]["value"]
    return outputs, named, metrics, r


def traced_run(workload, tally):
    import spans

    plain = Run()
    start = time.perf_counter()
    plain_out = [run_round(workload, plain, r) for r in range(workload.fixed_rounds)]
    plain_wall = time.perf_counter() - start

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        # Set-up again, traced, so its gen-data and bounds stages show.
        tally.charge({"setup": 1}, {"setup": workload.setup()})
        traced = Run(tracer)
        start = time.perf_counter()
        traced_out = []
        for r in range(workload.fixed_rounds):
            tracer.request = r
            traced_out.append(run_round(workload, traced, r))
        traced_wall = time.perf_counter() - start
    finally:
        tracer.uninstall()

    check_rounds(workload, plain_out, tally)
    for r, (a, b) in enumerate(zip(plain_out, traced_out)):
        if a != b:
            tally.failed += 1
            tally.messages.append(f"round {r}: traced outputs differ from untraced")
    tally.attempted += 1  # the traced-versus-untraced comparison itself
    metrics = spans.layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return plain_out, metrics, tracer, plain_wall, traced_wall


def declared_metrics(key):
    """Metric names and units as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("part1_ascent", "fd_ascent", "cd1_train", "exact_logz"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "rbmrad", "__init__.py")):
        print(f"perfbench: no rbmrad package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_probe:
        return setup_probe(args)

    probes = [] if args.trace else probe_setups(args)
    start = time.perf_counter()
    workload = make_workload(args.workload, args.seed)
    tally = Tally()
    try:
        setup_failures = workload.setup()
        probes.append(scale_setup(time.perf_counter() - start))
        tally.charge({"setup": 1}, {"setup": setup_failures})
        if args.trace:
            outputs, metrics, tracer, plain_wall, traced_wall = traced_run(workload, tally)
            rounds = workload.fixed_rounds
            named = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall}
        else:
            outputs, named, metrics, rounds = timed_run(workload, args, tally)
            metrics["setup_s"] = statistics.median(probes)
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            named["setup_s"] = {"value": metrics["setup_s"], "unit": "s",
                                "samples": len(probes), "all": probes}
            named["peak_rss_mb"] = {"value": metrics["peak_rss_mb"], "unit": "MB"}
        fixed = outputs[:workload.fixed_rounds]
        quality = workload.quality(fixed) if all(o is not None for o in fixed) else {}
    finally:
        shutil.rmtree(workload.workdir, ignore_errors=True)

    if args.trace:
        for name in QUALITY_NAMES:
            metrics[name] = quality.get(name, 0.0)
    units = declared_metrics("per_layer" if args.trace else "end_to_end")
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"declared metrics not measured: {missing}")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "fixed_rounds": workload.fixed_rounds,
        "error_rate": tally.failed / max(1, tally.attempted),
        "metrics": named, "quality": quality, "failures": tally.messages[:20],
        "environment": environment(),
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        json.dump(report, fh, indent=1)
    if args.trace:
        tracer.write(stem + ".spans.jsonl")
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(units)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
