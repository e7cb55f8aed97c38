"""augq benchmark: corpus sweep time per workload, plus a per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload dense-specs --seed 1 --seconds 55 --trace 0

Every sweep is one child process running the unchanged program,
``python -m augq.cli corpus <generated corpus> --max-n N --window 5``, one
at a time (a closed loop with one client).  Sweeps repeat until
``--seconds`` would be exceeded; every sweep's CSV is checked against
bench/refs.json.  The last line of stdout is one JSON object:

* ``--trace 0``: ``sweep_s`` (median wall time of a sweep child, spawn to
  exit), ``setup_s`` (median wall time of the same command on an empty
  corpus), ``peak_rss_mib`` (median ``ru_maxrss`` of the sweep children).
* ``--trace 1``: per-layer metrics from sweeps run in a child that calls
  ``augq.cli.main`` in process under bench/tracer.py, alternated with
  untraced sweeps of the same child so the tracing overhead is measured.

``attempted``/``failed`` count rings; a ring fails when its row is not
``ok``, differs from the reference, or is lost to the per-sweep time cap.
The lines above the JSON give each metric's quartiles and ``fail_ratio``
(failed / attempted).  The program is built from ``src/`` in place; the run
exits non-zero without a result if it cannot run it.  The benchmark's own
tests run with ``python3 -m pytest bench -q``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

from tracer import (
    SELF_TIME_METRICS,
    TracerError,
    attribute_rings,
    layer_metrics,
    reported_metrics,
)
from workloads import (
    BENCH_DIR,
    REFS_PATH,
    WINDOW,
    WORKLOADS,
    check_rows,
    load_json,
    write_inputs,
)

ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(BENCH_DIR, "_work")
TRACER = os.path.join(BENCH_DIR, "tracer.py")

SETUP_REPEATS = 11
# A sweep still running after this long is killed and its rings count as
# failed ("timeout"); the deadline keeps a whole run under three minutes.
SWEEP_CAP_S = 60.0
RUN_DEADLINE_S = 150.0


class BenchError(Exception):
    """The program could not be run at all; no result is printed."""


def child_env():
    """The caller's environment, with src/ importable and bytecode caching
    on, as an installed package has it; the first start of a run fills the
    cache."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + old if old else "")
    return env


def run_child(argv, out_path, cap):
    """Runs one child; returns (wall s, peak RSS MiB, exit code or None).

    The exit code is None when the child hit ``cap`` and was killed.  The
    wall time runs from just before spawn to the return of ``wait4``.
    """
    reaped = {}
    with open(out_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv,
            cwd=ROOT,
            env=child_env(),
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=subprocess.DEVNULL,
        )

        def reap():
            reaped["wait4"] = os.wait4(proc.pid, 0)
            reaped["end"] = time.perf_counter()

        waiter = threading.Thread(target=reap)
        waiter.start()
        waiter.join(max(cap, 0.0))
        timed_out = waiter.is_alive()
        if timed_out:
            os.kill(proc.pid, signal.SIGKILL)
            waiter.join()
    _, status, usage = reaped["wait4"]
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if timed_out else proc.returncode
    return reaped["end"] - start, usage.ru_maxrss / 1024.0, code


def corpus_args(corpus, max_n):
    return ["corpus", corpus, "--max-n", str(max_n), "--window", str(WINDOW)]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def describe(name, values, unit):
    q1, q3 = quartiles(values)
    return (
        f"{name}: median {statistics.median(values):.4f} {unit}, "
        f"quartiles {q1:.4f}..{q3:.4f}, n={len(values)}"
    )


class Run:
    """One benchmark run: inputs in a private work directory, counts."""

    def __init__(self, workload, seed, seconds):
        self.workload = workload
        self.max_n = WORKLOADS[workload]["max_n"]
        self.seconds = seconds
        self.started = time.perf_counter()
        self.workdir = os.path.join(WORK_DIR, f"{workload}-{seed}-{os.getpid()}")
        os.makedirs(self.workdir)
        self.corpus, self.expected = write_inputs(
            workload, seed, self.workdir, load_json(REFS_PATH)
        )
        self.out = os.path.join(self.workdir, "out.csv")
        self.attempted = 0
        self.failed = 0
        self.timeouts = 0

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)

    def cap(self):
        left = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        return min(SWEEP_CAP_S, left)

    def record(self, code, csv_text):
        """Counts one sweep's rings; a timeout (code None) loses them all."""
        self.attempted += len(self.expected)
        if code is None:
            self.timeouts += 1
            self.failed += len(self.expected)
            return
        failed = check_rows(csv_text, self.expected)
        if code != 0:
            failed = max(failed, 1)
        self.failed += failed

    def read_out(self):
        with open(self.out, encoding="utf-8") as fh:
            return fh.read()

    def keep_going(self, loop_start, durations):
        elapsed = time.perf_counter() - loop_start
        return elapsed + statistics.median(durations) <= self.seconds

    def summary(self, sweeps):
        ratio = self.failed / self.attempted
        print(
            f"{self.workload}: {sweeps} sweeps, fail_ratio {ratio:.4f} "
            f"({self.failed} of {self.attempted} rings failed, "
            f"{self.timeouts} sweeps timed out)"
        )


def measure_end_to_end(run):
    empty = os.path.join(run.workdir, "empty.txt")
    open(empty, "w").close()
    setup_argv = [sys.executable, "-m", "augq.cli"] + corpus_args(empty, run.max_n)
    setup = []
    # The first start may fill the bytecode cache, which users pay once.
    for i in range(SETUP_REPEATS + 1):
        wall, _, code = run_child(setup_argv, run.out, run.cap())
        if code != 0 or not run.read_out().startswith("ring_id,status,"):
            raise BenchError(f"augq corpus on an empty corpus exited {code}")
        if i:
            setup.append(wall)

    argv = [sys.executable, "-m", "augq.cli"] + corpus_args(run.corpus, run.max_n)
    walls, rss = [], []
    loop_start = time.perf_counter()
    while True:
        wall, peak, code = run_child(argv, run.out, run.cap())
        walls.append(wall)
        rss.append(peak)
        run.record(code, run.read_out() if code is not None else "")
        if not run.keep_going(loop_start, walls) or run.cap() <= 0:
            break
    run.summary(len(walls))
    print(describe("sweep_s", walls, "s"))
    print(describe("setup_s", setup, "s"))
    print(describe("peak_rss_mib", rss, "MiB"))
    return {
        "sweep_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mib": (statistics.median(rss), "MiB"),
    }


UNITS = {
    "intlinalg.echelon_step_max_s": "s",
    "intlinalg.basis_bits_max": "bits",
    "intlinalg.useful_generator_ratio": "ratio",
    "augring.generators": "count",
    "augring.chain_steps": "count",
    "constructors.subgroup_classes": "count",
    "trace.spans": "count",
    "trace.sweep_s": "s",
    "trace.untraced_sweep_s": "s",
    "trace.overhead_s": "s",
    "rings.build_s": "s",
}
UNITS.update((name, "s") for name in SELF_TIME_METRICS)


def traced_sweep(run, mode):
    """One in-process sweep in a tracer child; its spans are None when the
    sweep hit the time cap."""
    dump = os.path.join(run.workdir, f"{mode}.json")
    argv = [sys.executable, TRACER, dump, mode]
    argv += corpus_args(run.corpus, run.max_n) + ["--out", run.out]
    wall, _, code = run_child(argv, os.devnull, run.cap())
    if code is None:
        run.record(None, "")
        return {"wall": wall, "spans": None}
    data = load_json(dump) if os.path.exists(dump) else {}
    if code != 0 or "error" in data:
        raise BenchError(data.get("error", f"tracer child exited {code}"))
    os.remove(dump)
    run.record(data["code"], run.read_out())
    return data


def measure_trace(run, spans_path):
    per_sweep, traced_walls, untraced_walls, kept = [], [], [], []
    loop_start = time.perf_counter()
    pair_times = []
    while True:
        pair_start = time.perf_counter()
        # Alternate which side runs first, so drift hits both alike.
        order = ("untraced", "traced") if len(pair_times) % 2 == 0 else (
            "traced", "untraced")
        for mode in order:
            data = traced_sweep(run, mode)
            if mode == "untraced":
                untraced_walls.append(data["wall"])
                continue
            traced_walls.append(data["wall"])
            spans = data["spans"]
            if spans is None:
                continue
            attribute_rings(spans)
            try:
                metrics = layer_metrics(spans)
            except TracerError as exc:
                raise BenchError(str(exc))
            self_sum = sum(metrics[name] for name in SELF_TIME_METRICS)
            if abs(self_sum - data["wall"]) > 1e-3 + 1e-3 * data["wall"]:
                raise BenchError(
                    f"self times add up to {self_sum:.6f} s but the traced "
                    f"sweep took {data['wall']:.6f} s"
                )
            per_sweep.append(metrics)
            kept.append(spans)
        pair_times.append(time.perf_counter() - pair_start)
        if not run.keep_going(loop_start, pair_times) or run.cap() <= 0:
            break
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": run.workload, "sweeps": kept}, fh)
    run.summary(len(traced_walls))
    if not per_sweep:
        raise BenchError("every traced sweep timed out")
    metrics = {
        name: statistics.median(m[name] for m in per_sweep) for name in per_sweep[0]
    }
    metrics["trace.sweep_s"] = statistics.median(traced_walls)
    metrics["trace.untraced_sweep_s"] = statistics.median(untraced_walls)
    metrics["trace.overhead_s"] = (
        metrics["trace.sweep_s"] - metrics["trace.untraced_sweep_s"]
    )
    print(describe("trace.sweep_s", traced_walls, "s"))
    print(describe("trace.untraced_sweep_s", untraced_walls, "s"))
    self_sum = sum(metrics[name] for name in SELF_TIME_METRICS)
    print(
        f"median self times sum to {self_sum:.4f} s, median traced sweep "
        f"{metrics['trace.sweep_s']:.4f} s (each traced sweep's self times "
        f"add up to its wall time); tracing overhead "
        f"{metrics['trace.overhead_s']:.4f} s (traced - untraced median)"
    )
    for name in SELF_TIME_METRICS:
        share = metrics[name] / self_sum if self_sum else 0.0
        print(f"  {name}: {metrics[name]:.4f} s ({100 * share:.1f} %)")
    print(f"spans written to {os.path.relpath(spans_path, ROOT)}")
    return {
        name: (value, UNITS[name])
        for name, value in sorted(reported_metrics(metrics).items())
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "augq", "cli.py")):
        print(f"bench: no augq sources under {SRC}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds)
    try:
        if args.trace:
            spans_path = os.path.join(
                WORK_DIR, f"spans-{args.workload}-{args.seed}.json"
            )
            metrics = measure_trace(run, spans_path)
        else:
            metrics = measure_end_to_end(run)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
