#!/usr/bin/env python3
"""Run one workload of the coendo benchmark and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 35 --trace 0

The program is imported from ``src/`` of the checkout this file sits in and
driven through ``coendo.cli.main(argv)`` in this one process, by a single
closed-loop client: jobs run back to back, and a pass runs every job of the
workload once.  Passes repeat while the next one is expected to end within
``--seconds`` (at least one pass runs).  Every report is compared with its
committed golden digest (``golden.json``); a job fails on a nonzero exit
code or a differing report.

Times are scaled to a fixed machine speed.  The benchmark runs on shared
hosts whose speed for pure-Python work changes by half, from second to
second and over minutes.  So a timer signal times a short fixed loop
(``reference()``) every ``SAMPLE_EVERY_S`` seconds, also while a job runs;
a job's time, less the time spent in these samples, is divided by the
mean of the samples taken from ``WINDOW_S`` before it started until it
ended and multiplied by ``REFERENCE_S``.  A scaled time reads as seconds
on a machine where the loop takes ``REFERENCE_S``.  The program never
runs the loop, so a change to the program moves scaled times as it moves
real ones.

With ``--trace 0`` the end-to-end metrics are printed: the set-up time
(interpreter start plus ``import coendo.cli``, median of several fresh
processes), the pass time as the sum of each job's median over passes, the
slowest job (largest of those medians), peak RSS and the share of jobs
verified.  With ``--trace 1`` passes run in untraced/traced pairs
(see ``tracing.py``), and the per-layer metrics are printed: counts from the
first traced pass, self times as medians over traced passes (unscaled, and
including the samples taken inside them, about 1%), and the tracing
overhead as traced minus untraced pass time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the machine and the median reference-loop time of the run.  The
exit code is 0 when every job verified.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import jobs
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_LAUNCHES = 7
# Nominal seconds of one reference() call: about its median time on the
# 2-vCPU VM the benchmark was tuned on (Python 3.11).
REFERENCE_S = 0.001
# One sample takes about 1% of the time.
SAMPLE_EVERY_S = 0.1
# A job shorter than this is scaled by samples taken just before it.
WINDOW_S = 0.5


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import coendo from this checkout's src/, never from elsewhere."""
    if not (SRC / "coendo" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import coendo
    import coendo.cli

    if Path(coendo.__file__).resolve().parent != SRC / "coendo":
        raise SystemExit(f"benchmark: imported coendo from {coendo.__file__}")
    return coendo


def pin_to_one_cpu() -> None:
    """Keep this process and the ones it starts on one CPU.

    The CPUs of a shared host are slowed by different co-tenants; on one
    CPU the reference loop and the jobs it scales see the same ones.
    """
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def reference() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's speed now."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(4000):
        key = i * 7919 % 1021
        acc = (acc + key * i) % 1000003
        table[key] = acc
    return time.perf_counter() - start


class Scaler:
    """Samples reference() from a timer signal and scales step times by it.

    A context manager: the timer runs while it is entered.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, seconds)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, signum=None, frame=None):
        self.samples.append((time.perf_counter(), reference()))

    def time(self, step) -> float:
        """Run step and return its seconds scaled to REFERENCE_S."""
        first = len(self.samples)
        start = time.perf_counter()
        step()
        took = time.perf_counter() - start
        took -= sum(seconds for _, seconds in self.samples[first:])
        window = []
        for when, seconds in reversed(self.samples):
            if when < start - WINDOW_S:
                break
            window.append(seconds)
        if not window:
            self._sample()
            window.append(self.samples[-1][1])
        return took * REFERENCE_S / statistics.fmean(window)

    def median(self) -> float:
        return statistics.median(seconds for _, seconds in self.samples)


def measure_setup(scaler: Scaler) -> float:
    """Median scaled time of fresh interpreters that import coendo.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    times = []
    for _ in range(SETUP_LAUNCHES):
        times.append(scaler.time(lambda: subprocess.run(
            [sys.executable, "-c", "import coendo.cli"],
            env=env, cwd=ROOT, check=True)))
    return statistics.median(times)


def machine(coendo) -> dict:
    import sympy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "kernel_backend": coendo.KERNEL_BACKEND,
        "platform": platform.platform(),
    }


def clear_caches() -> None:
    """Empty functools caches in the program, as a fresh CLI process has."""
    for module in tracing.coendo_modules():
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()


class Client:
    """Runs the workload's jobs back to back and checks every report."""

    def __init__(self, main, workload_jobs, workdir: Path, scaler: Scaler):
        self.main = main
        self.jobs = [(job, job.bind(workdir)) for job in workload_jobs]
        self.scaler = scaler
        self.golden = jobs.load_golden()
        self.attempted = 0
        self.failed = 0

    def run_job(self, job, argv) -> None:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.main(argv)
        except (Exception, SystemExit):
            traceback.print_exc()
            code = None
        self.attempted += 1
        digest = jobs.report_digest(out.getvalue())
        if code != 0 or digest is None or digest != self.golden.get(job.key):
            self.failed += 1
            reason = "report differs from golden" if code == 0 else (
                f"exit {code}, stderr {err.getvalue().strip()!r}")
            print(f"benchmark: job {job.key!r} failed: {reason}",
                  file=sys.stderr)

    def run_pass(self) -> list[float]:
        """One pass over every job: the scaled seconds of each job."""
        clear_caches()
        return [self.scaler.time(lambda: self.run_job(job, argv))
                for job, argv in self.jobs]


def repeat(seconds: float, step) -> list:
    """Call step while the next call is expected to end within seconds."""
    start = time.perf_counter()
    results = []
    while True:
        t0 = time.perf_counter()
        results.append(step())
        took = time.perf_counter() - t0
        if time.perf_counter() - start + took > seconds:
            return results


def end_to_end(client: Client, seconds: float) -> dict[str, float]:
    setup_s = measure_setup(client.scaler)
    passes = repeat(seconds, client.run_pass)
    # Each job's median over passes.  Their sum estimates a pass: a
    # co-tenant burst that slows part of one pass is dropped from the jobs
    # it hit, where a median of whole passes would keep it whenever most
    # passes were hit somewhere.
    job_medians = [statistics.median(times) for times in zip(*passes)]
    return {
        "setup_s": setup_s,
        "wall_s": sum(job_medians),
        "max_job_s": max(job_medians),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verified_ratio": (client.attempted - client.failed) / client.attempted,
    }


def per_layer(client: Client, seconds: float) -> dict[str, float]:
    done = 0

    def traced_pair():
        # Alternate which pass of the pair runs first, so that a slower
        # first pass in the process does not bias the overhead.
        nonlocal done
        walls = {}
        for traced in ((False, True) if done % 2 == 0 else (True, False)):
            if traced:
                with tracing.Tracer() as tracer:
                    walls[traced] = sum(client.run_pass())
            else:
                walls[traced] = sum(client.run_pass())
        done += 1
        return walls[False], walls[True], tracer.metrics()

    pairs = repeat(seconds, traced_pair)
    out = dict(pairs[0][2])
    for name in out:
        if name.endswith("_s"):
            out[name] = statistics.median(p[2][name] for p in pairs)
    untraced = statistics.median(p[0] for p in pairs)
    traced = statistics.median(p[1] for p in pairs)
    out["bench.untraced_wall_s"] = untraced
    out["bench.traced_wall_s"] = traced
    out["bench.trace_overhead_s"] = traced - untraced
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    pin_to_one_cpu()
    coendo = import_program()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    with Scaler() as scaler, jobs.workdir() as workdir:
        client = Client(coendo.cli.main,
                        jobs.jobs_for(args.workload, args.seed), workdir,
                        scaler)
        measure = per_layer if args.trace else end_to_end
        values = measure(client, args.seconds)
    if set(values) != {m["name"] for m in declared}:
        raise SystemExit("benchmark: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(values) ^ {m['name'] for m in declared})}")
    print(json.dumps({"machine": machine(coendo), "workload": args.workload,
                      "seed": args.seed, "trace": args.trace,
                      "reference_s": scaler.median()}))
    correct = client.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
