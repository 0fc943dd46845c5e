"""Alternating benchmark pairs: a git revision against the working tree.

Run from the repository root:

    python3 tests/ab_pairs.py --rev HEAD~1 [--pairs 10] [--seed 101]
        [--seconds 20] [--workload bag_h5 ...]

It checks the revision out with git worktree add into a temporary
directory, and then, per workload, runs perfbench/run.py --trace 0 in
that checkout and in the working tree for each of --pairs seeds (seed,
seed + 1, ...), alternating which side runs first.  Each run is a fresh
process.  For each end-to-end metric of BENCHMARK.json it prints, per
side, the median [quartiles] and the worst run, and how many pairs the
working tree wins (ties count for neither); then each side's failed jobs
over the jobs attempted.  The worktree is removed at the end, also when
a run fails.  The working tree's perfbench/ runs against its own src/,
and the revision's against its own, so pass a revision whose benchmark
matches the working tree's.  pytest does not collect this file: its
name does not start with test_.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One run of perfbench/run.py in checkout: its result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, encoding="utf-8")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def summary(name: str, unit: str, lower: bool, base: list[float], change: list[float]) -> str:
    def side(xs: list[float]) -> str:
        q1, q2, q3 = quartiles(xs)
        worst = max(xs) if lower else min(xs)
        return f"{q2:.4g} [{q1:.4g}, {q3:.4g}] worst {worst:.4g}"

    wins = sum((c < b) if lower else (c > b) for b, c in zip(base, change))
    b, c = statistics.median(base), statistics.median(change)
    delta = f"{(c - b) / b:+.1%}" if b else "n/a"
    return (f"  {name} ({unit}): {side(base)} -> {side(change)}, median {delta}, "
            f"wins {wins}/{len(base)}")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--rev", required=True, help="the git revision to compare against")
    p.add_argument("--pairs", type=int, default=10, help="seeds per workload (default %(default)s)")
    p.add_argument("--seed", type=int, default=101, help="the first seed (default %(default)s)")
    p.add_argument("--seconds", type=float, default=bench["run_seconds"],
                   help="--seconds of each run (default %(default)s)")
    p.add_argument("--workload", action="append", choices=[w["name"] for w in bench["workloads"]],
                   help="a workload to run, repeatable (default: all of BENCHMARK.json's)")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    names = args.workload or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    tmp = Path(tempfile.mkdtemp(prefix="ab_pairs_"))
    base = tmp / "rev"
    subprocess.run(["git", "worktree", "add", "--detach", str(base), args.rev], cwd=ROOT,
                   check=True, capture_output=True)
    try:
        for name in names:
            results: dict[str, list[dict]] = {"rev": [], "tree": []}
            for k in range(args.pairs):
                seed = args.seed + k
                order = [("rev", base), ("tree", ROOT)]
                for side, checkout in order if k % 2 == 0 else order[::-1]:
                    results[side].append(run(checkout, name, seed, args.seconds))
            print(f"{name}: {args.rev} -> working tree, {args.pairs} alternating pairs, "
                  f"seeds {args.seed}-{args.seed + args.pairs - 1}, {args.seconds:g} s runs")
            for m in metrics:
                got = {side: [r["metrics"][m["name"]]["value"] for r in rs]
                       for side, rs in results.items()}
                print(summary(m["name"], m["unit"], m["better"] == "lower", got["rev"], got["tree"]))
            for side, rs in results.items():
                failed, attempted = sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)
                print(f"  fail_ratio {side}: {failed}/{attempted}")
    finally:
        subprocess.run(["git", "worktree", "remove", "--force", str(base)], cwd=ROOT,
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
