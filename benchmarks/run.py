"""casmkit benchmark: one workload per run, timed, checked and reported.

    python3 benchmarks/run.py --workload runtime-traffic --seed 1 \
        --seconds 40 --trace 0

Run from the root of a source tree; casmkit is imported from ``src/``
there, never from an installed copy.  ``--workload all`` runs the three
workloads one after another, each in its own process.

With ``--trace 0`` the run measures for ``--seconds`` seconds in passes
over the workload's cases and reports the end-to-end metrics.  With
``--trace 1`` it runs two untraced passes, then wraps every layer's entry
points, runs one traced set-up and one traced pass (plus the cases too
slow to time in a normal run), and reports the per-layer metrics; the
spans are written to ``benchmarks/out/``.

Every line before the last is a comment for people (environment, job
figures, per-case sample statistics).  The last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set-ups run after passes: at least SETUPS in a run, and more while they
# take under SETUP_SHARE of it.  setup_s is the fastest.
SETUPS = 7
SETUP_SHARE = 0.1
WORKLOAD_NAMES = ("runtime-traffic", "protect-ring", "verify-ring")

# (name, unit): every workload reports all of them with --trace 0
END_TO_END = (("setup_s", "s"), ("job_s", "s"), ("contrast_s", "s"),
              ("peak_rss_mb", "MB"))


def fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def import_casmkit():
    """Import casmkit from this tree's ``src/`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "casmkit", "__init__.py")):
        fail(f"no casmkit sources under {SRC}")
    sys.path[:0] = [SRC, HERE]
    import casmkit
    if not os.path.abspath(casmkit.__file__).startswith(SRC + os.sep):
        fail(f"casmkit was imported from {casmkit.__file__}, not {SRC}")
    from casmkit import symexec
    if symexec.ORACLE_CHECK:
        fail("symexec.ORACLE_CHECK is on; the shipped default is off")


def git_commit() -> str:
    """HEAD of the tree's git checkout, read from the files, or
    'unknown' outside one."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.isfile(ref_file):
            with open(ref_file, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    from casmkit import symexec
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "commit": git_commit(),
            "seed": seed, "oracle_check": symexec.ORACLE_CHECK}


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

class CaseTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CaseTimeout()


def fastest(samples: list[float]) -> float:
    """The value a run reports for a timing: its fastest sample.

    This host's speed switches between two levels about 1.7x apart,
    each lasting 5-30 s, so a run's median moves with the share of the
    run that fell on the slow level.  The fastest of many short samples
    reads the fast level whenever any part of the run did (README.md has
    the measurements)."""
    return min(samples)


class Runner:
    """Runs cases, times them, checks them and counts failures."""

    def __init__(self, workload):
        self.workload = workload
        self.samples: dict[str, list[float]] = {}
        self.setup_times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.dead: set[str] = set()    # cases that hit their time cap

    def attempt(self, label: str, fn, check, cap_s: float):
        """Run ``fn`` under a time cap, time it, then check its result;
        returns (seconds, result), with result None when it failed."""
        self.attempted += 1
        result = None
        start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        try:
            result = fn()
        except CaseTimeout:
            self.dead.add(label)
            self._record_failure(label, f"hit its {cap_s:.0f}s time cap")
        except Exception as exc:  # any error is a failed operation
            self._record_failure(label, f"{type(exc).__name__}: {exc}")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
        if result is not None:
            try:
                check(result)
            except Exception as exc:
                self._record_failure(label, f"{type(exc).__name__}: {exc}")
                result = None
        return seconds, result

    def _record_failure(self, label: str, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {message}")

    def setup(self):
        seconds, ctx = self.attempt("setup", self.workload.setup,
                                    self.workload.check_setup, cap_s=120.0)
        self.setup_times.append(seconds)
        return ctx

    def run_pass(self, cases, repeat: bool = True) -> None:
        for case in cases:
            for _ in range(case.repeat if repeat else 1):
                if case.name in self.dead:
                    break
                seconds, _ = self.attempt(case.name, case.run, case.check,
                                          case.cap_s)
                self.samples.setdefault(case.name, []).append(seconds)

    def q(self, case_name: str) -> float:
        return fastest(self.samples[case_name])


def measure(runner: Runner, seconds: float):
    """Set up, then run passes until the next one would end after
    ``seconds``, with more set-ups between passes.  Returns the cases,
    or None when the first set-up failed."""
    start = time.perf_counter()
    ctx = runner.setup()
    if ctx is None:
        return None
    cases = runner.workload.cases(ctx)
    cpus = sorted(os.sched_getaffinity(0))
    passes = 0
    while True:
        # alternate CPUs: their slow phases come and go independently
        os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
        runner.run_pass(cases)
        passes += 1
        elapsed = time.perf_counter() - start
        if len(runner.setup_times) < SETUPS \
                or sum(runner.setup_times) < SETUP_SHARE * elapsed:
            runner.setup()
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    while len(runner.setup_times) < SETUPS:
        runner.setup()
    os.sched_setaffinity(0, cpus)
    return cases


def end_to_end(runner: Runner, cases) -> dict[str, float]:
    def group(name):
        return sum(runner.q(c.name) for c in cases if c.group == name)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"setup_s": fastest(runner.setup_times),
            "job_s": group("job"), "contrast_s": group("contrast"),
            "peak_rss_mb": rss_kb / 1024.0}


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    import_casmkit()
    import layers
    import tracing
    import workloads

    signal.signal(signal.SIGALRM, _on_alarm)
    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[name](seed, workdir)
        runner = Runner(workload)
        print("# env " + json.dumps(environment(seed), sort_keys=True))
        if not trace:
            cases = measure(runner, seconds)
            metrics = {}
            if cases is not None:
                values = end_to_end(runner, cases)
                metrics = {m: {"value": values[m], "unit": unit}
                           for m, unit in END_TO_END}
                report_cases(runner, cases)
                figures = workload.figures(runner.q)
                figures["error_rate"] = runner.failed / runner.attempted
                print("# figures " + json.dumps(figures, sort_keys=True))
        else:
            metrics = traced_run(runner, workload, layers, tracing, out_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in runner.failures:
        print(f"# FAILED {line}")
    print(json.dumps({"correct": runner.failed == 0 and bool(metrics),
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


def report_cases(runner: Runner, cases) -> None:
    """Per case: sample count, the reported fastest sample, the median,
    and the highest sample with ten slower ones beyond it."""
    for case in cases:
        s = sorted(runner.samples.get(case.name, []))
        if not s:
            continue
        high = f" high={s[-11]:.6f}s" if len(s) > 10 else ""
        print(f"# case {case.name!r} group={case.group} n={len(s)} "
              f"min={s[0]:.6f}s median={statistics.median(s):.6f}s{high}")


def traced_run(runner: Runner, workload, layers, tracing, out_dir) -> dict:
    """Two untraced passes, then one traced set-up and one traced pass.
    The tracing overhead compares the traced pass with the faster of the
    untraced runs of each case."""
    ctx = runner.setup()
    if ctx is None:
        return {}
    cases = workload.cases(ctx)
    runner.run_pass(cases, repeat=False)
    runner.run_pass(cases, repeat=False)
    untraced = sum(runner.q(c.name) for c in cases)

    tracer = tracing.Tracer()
    workload.tracer = tracer
    layers.install(tracer)
    try:
        gc.collect()
        with tracer.span("setup"):
            traced_ctx = runner.setup()
        if traced_ctx is None:
            return {}
        traced = 0.0
        for case in workload.cases(traced_ctx):
            with tracer.span(case.name):
                runner.run_pass([case], repeat=False)
            traced += runner.samples[case.name][-1]
        for case in workload.traced_only(traced_ctx):
            with tracer.span(case.name):
                runner.run_pass([case], repeat=False)
    finally:
        tracer.unwrap_all()
        workload.tracer = None
    overhead = (traced - untraced) / untraced * 100.0
    values = layers.metrics(tracer, overhead)
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(os.path.join(
        out_dir, f"spans-{workload.name}-seed{workload.seed}.tsv.gz"))
    return {m: {"value": values[m], "unit": layers.UNITS[m]} for m in values}


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"# [{name}] {line.lstrip('# ')}")
        if proc.returncode != 0 or not lines:
            fail(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
