"""Run one benchmark workload against the qitbench sources in this checkout.

    python3 perfbench/run.py --workload cli_mix --seed 1 --seconds 10 --trace 0

One process, one thread, a closed loop with a single client: each job
is a CLI command run in-process through ``qitbench.cli.main(argv)`` with
its output captured and checked against ``reference.py``, and the next
job starts when it ends.  Passes over the workload's jobs repeat while
the next one is expected to end within ``--seconds``; the first pass
always runs, so a workload whose single pass is longer than
``--seconds`` runs one pass.

The host this was tuned on runs at full or about half speed from one
moment to the next, as other tenants come and go, and can stay slow for
minutes.  So each job's latency is the fastest of its repeats in the
run.  And where every job is shorter than CAL_EVERY_S (cli_mix), the
times are also scaled to the host's speed: about once a second, between
jobs, the run times a fixed arithmetic kernel, and multiplies each time
by CAL_REF_S over the kernel's fastest time in the run.  Longer jobs are
left unscaled, because the kernel cannot be timed while they run and
its timings before and after them were found to add noise.  wall_s is
the sum of the latencies over one pass; op_p50_ms and op_p90_ms are
percentiles over the pass's jobs.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
same passes untraced, then as many again traced (see ``tracing.py``),
and prints the per-layer metrics.  The last line of stdout is the
result as JSON.  Without ``src/qitbench`` beside this directory the run
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import Optional

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 7  # set-ups before the passes, and again after; setup_s is the median
DEADLINE_S = 165.0  # no job starts, or runs on, past this point of a run
CAL_REF_S = 0.001  # the kernel's fastest time on an unloaded 2.1 GHz Xeon vCPU
CAL_EVERY_S = 1.0  # job time between two samplings of the kernel
CAL_SAMPLES = 20
COMMANDS = ("check", "elaborate", "enum", "eq", "fold", "elim", "construct", "examples")


class JobTimeout(BaseException):
    """Raised into a job that overran its cap; a BaseException so that no
    handler in the program can swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def fresh_cli():
    """Import qitbench from scratch, as a new process would."""
    for name in [m for m in sys.modules if m == "qitbench" or m.startswith("qitbench.")]:
        del sys.modules[name]
    return importlib.import_module("qitbench.cli")


def run_cli(cli, argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
    return rc, out.getvalue()


def run_job(cli, job: workloads.Job, cap: float, tracer: Optional[tracing.Tracer]):
    """(seconds inside the command, None or why the job failed)."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, cap)
        try:
            with tracer.span(f"cli.{job.command}") if tracer else contextlib.nullcontext():
                rc, out = run_cli(cli, job.argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except JobTimeout:
        return time.perf_counter() - t0, f"exceeded its {cap:.3g} s cap"
    except Exception as e:  # a raising job is a failed job, the run goes on
        return time.perf_counter() - t0, f"raised {type(e).__name__}: {e}"
    dt = time.perf_counter() - t0
    try:
        return dt, job.check(rc, out)
    except (ValueError, IndexError) as e:
        return dt, f"output unreadable: {e}"


def _kernel() -> int:
    """Fixed interpreter work that allocates nothing the collector tracks,
    so the program's heap cannot change how long it takes."""
    s = 0
    for i in range(20000):
        s += i * i
    return s


class Loop:
    """Closed-loop passes over one workload's jobs."""

    def __init__(self, cli, jobs, cap: float, deadline: float):
        self.cli, self.jobs, self.cap, self.deadline = cli, jobs, cap, deadline
        self.pass_s: list[float] = []
        self.best = [math.inf] * len(jobs)  # fastest repeat of each job
        self.kernel_s = math.inf  # fastest timing of _kernel
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, seconds: float, max_passes: Optional[int] = None,
            tracer: Optional[tracing.Tracer] = None) -> None:
        start = time.perf_counter()
        self.time_kernel()
        since_kernel = 0.0
        while max_passes is None or len(self.pass_s) < max_passes:
            # another pass must be expected to end in time
            end = time.perf_counter() + (self.pass_s[-1] if self.pass_s else 0.0)
            if self.pass_s and (end > self.deadline
                                or max_passes is None and end - start > seconds):
                return
            total = 0.0
            for n, job in enumerate(self.jobs):
                left = self.deadline - time.perf_counter()
                if left <= 0:
                    return
                if tracer:
                    tracer.job = len(self.pass_s) * len(self.jobs) + n
                dt, why = run_job(self.cli, job, min(self.cap, left), tracer)
                self.attempted += 1
                total += dt
                self.best[n] = min(self.best[n], dt)
                since_kernel += dt
                if since_kernel >= CAL_EVERY_S:
                    self.time_kernel()
                    since_kernel = 0.0
                if why is not None:
                    self.failures.append(f"{' '.join(job.argv)}: {why}")
            self.pass_s.append(total)

    def time_kernel(self) -> None:
        for _ in range(CAL_SAMPLES):
            t0 = time.perf_counter()
            _kernel()
            self.kernel_s = min(self.kernel_s, time.perf_counter() - t0)

    @property
    def scale(self) -> float:
        """Factor that takes this run's times to an unloaded host, or 1
        where some job is too long for the kernel to bracket it."""
        return CAL_REF_S / self.kernel_s if max(self.best) < CAL_EVERY_S else 1.0


def percentile(values: list[float], p: float) -> float:
    """Linear interpolation between the two nearest ranks, so that on a
    workload of few jobs a percentile averages neighbours."""
    s = sorted(values)
    x = (len(s) - 1) * p / 100
    i = math.floor(x)
    return s[i] + (s[min(i + 1, len(s) - 1)] - s[i]) * (x - i)


def set_up(workload: str, seed: int):
    """Import qitbench and build the workload's jobs: (cli, jobs, seconds)."""
    t0 = time.perf_counter()
    cli = fresh_cli()
    jobs = workloads.build(workload, ROOT, seed, lambda argv: run_cli(cli, argv))
    return cli, jobs, time.perf_counter() - t0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (SRC / "qitbench" / "cli.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"no qitbench sources under {ROOT}: expected src/qitbench and fixtures/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    setup_s = []
    for _ in range(SETUPS):
        cli, jobs, dt = set_up(args.workload, args.seed)
        setup_s.append(dt)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"qitbench imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    loop = Loop(cli, jobs, workloads.CAP_S[args.workload], deadline)
    loop.run(args.seconds)
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace == 0:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        # set up as often again after the passes, at another moment of the
        # host's load; the passes are over, so no job sees the new import
        setup_s += [set_up(args.workload, args.seed)[2] for _ in range(SETUPS)]
        metrics = end_to_end(loop, statistics.median(setup_s), rss_mb)
    elif loop.pass_s:
        tracer = tracing.Tracer()
        traced = Loop(cli, jobs, loop.cap, deadline)
        with tracing.installed(tracer) as missing:
            traced.run(args.seconds, max_passes=len(loop.pass_s), tracer=tracer)
        for target in missing:
            print(f"note: {target} is gone; its spans read 0", file=sys.stderr)
        tracer.write(ROOT / ".perfbench_traces" / f"{args.workload}-seed{args.seed}.jsonl")
        metrics = per_layer(loop, traced, tracer)
        loop.attempted += traced.attempted
        loop.failures += traced.failures

    failed = len(loop.failures)
    complete = bool(metrics) and all(math.isfinite(v) for v, _ in metrics.values())
    for why in loop.failures[:20]:
        print(f"FAIL {why}")
    print(f"{args.workload} seed {args.seed}: {len(loop.pass_s)} passes, "
          f"{loop.attempted} jobs, {failed} failed, times scaled by {loop.scale:.4g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'fail_ratio':40s} {failed / max(loop.attempted, 1):14.6g} ratio")
    result = {
        "correct": failed == 0 and complete,
        "attempted": max(loop.attempted, 1),
        "failed": failed if loop.attempted else 1,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def end_to_end(loop: Loop, setup_s: float, rss_mb: float) -> dict[str, tuple[float, str]]:
    if not loop.pass_s:
        return {}
    f = loop.scale
    ms = [dt * 1000 * f for dt in loop.best]
    return {
        "setup_s": (setup_s * f, "s"),
        "wall_s": (sum(loop.best) * f, "s"),
        "op_p50_ms": (percentile(ms, 50), "ms"),
        "op_p90_ms": (percentile(ms, 90), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(loop: Loop, traced: Loop, tracer: tracing.Tracer) -> dict[str, tuple[float, str]]:
    if not traced.pass_s:
        return {}
    out = {name: (v * traced.scale if unit == "s" else v, unit)
           for name, (v, unit) in tracing.layer_metrics(tracer, len(traced.pass_s)).items()}
    for cmd in COMMANDS:
        ms = [dt * 1000 * loop.scale for job, dt in zip(loop.jobs, loop.best) if job.command == cmd]
        out[f"cli.{cmd}_ms"] = (statistics.median(ms) if ms else 0.0, "ms")
    out["trace.overhead_ratio"] = (
        sum(traced.best) * traced.scale / (sum(loop.best) * loop.scale) - 1, "ratio")
    return out


if __name__ == "__main__":
    sys.exit(main())
