"""The benchmark's workloads: seeded lists of CLI jobs with their checkers.

Every job is one ``qitbench`` command line.  A pass runs a workload's
jobs once, in order; a run repeats passes.  The seed fixes the job order
and, on cli_mix, the ``eq`` pairs and the example tables shown, but
never how many jobs of each kind a pass holds, so the work per pass is
the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

# Most time one job may take before it counts as failed, per workload.
CAP_S = {"binary_h3": 90.0, "bag_h5": 150.0, "cli_mix": 10.0}


@dataclass(frozen=True)
class Job:
    command: str
    argv: tuple[str, ...]
    check: ref.Checker


RunCli = Callable[[list[str]], tuple[int, str]]


def _job(argv: list, check: ref.Checker) -> Job:
    return Job(argv[0], tuple(str(a) for a in argv), check)


def binary_h3(root: Path, rng: random.Random, run_cli: RunCli) -> list[Job]:
    inputs = root / "perfbench" / "inputs"
    ct, cm = inputs / "commtree.qit", inputs / "cmon.qit"
    jobs = [
        _job(["construct", ct, "--X", "a,b,c", "-d", "3", "--compare-oracle"],
             ref.expect_construct("commtree", "abc", 3, 3, True)),
        _job(["fold", ct, "--X", "a,b,c", "-d", "3", "--algebra", inputs / "commtree_leaves.json"],
             ref.expect_fold("commtree", "abc", 3, "commtree_leaves")),
        _job(["construct", cm, "--X", "a", "-d", "3", "--compare-oracle"],
             ref.expect_construct("cmon", "a", 3, 3, True)),
        _job(["fold", cm, "--X", "a", "-d", "3", "--algebra", inputs / "cmon_size.json"],
             ref.expect_fold("cmon", "a", 3, "cmon_size")),
    ]
    rng.shuffle(jobs)
    return jobs


def bag_h5(root: Path, rng: random.Random, run_cli: RunCli) -> list[Job]:
    bag = root / "fixtures" / "bag.qit"
    return [
        _job(["construct", bag, "--X", "a,b", "-d", "2", "--size-height", "5", "--compare-oracle"],
             ref.expect_construct("bag", "ab", 2, 5, True)),
    ]


def _eq_jobs(decl: str, path: Path, flags: list[str], n: int, rng: random.Random,
             run_cli: RunCli) -> list[Job]:
    """n eq jobs on terms drawn from the printed universe; every other
    pair is drawn from one reference class, so verdicts are mixed."""
    rc, out = run_cli(["enum", str(path), *flags])
    if rc != 0:
        raise RuntimeError(f"enum {path.name} exited {rc} while drawing eq pairs")
    printed = out.splitlines()
    canon = ref.MODELS[decl].canon
    keys = {t: canon(ref.read_term(t)) for t in printed}
    jobs = []
    for i in range(n):
        lhs = rng.choice(printed)
        pool = [t for t in printed if keys[t] == keys[lhs]] if i % 2 == 0 else printed
        rhs = rng.choice(pool)
        jobs.append(_job(["eq", path, lhs, rhs, *flags], ref.expect_eq(decl, lhs, rhs)))
    return jobs


def cli_mix(root: Path, rng: random.Random, run_cli: RunCli) -> list[Job]:
    """100 jobs a pass, so op_p90_ms has ten jobs beyond it.  70 take
    3-8 ms, 25 are constructs of 12-15 ms and 5 are tree eq jobs of about
    40 ms.  Ten of the constructs are the slowest kind (Bag with
    --compare-oracle), so op_p90_ms falls in the middle of that block and
    op_p50_ms among the small commands, never on the edge between two
    kinds of job."""
    fx = root / "fixtures"
    inputs = root / "perfbench" / "inputs"
    decls = {"bag": fx / "bag.qit", "commvec": fx / "commvec.qit",
             "inftree": fx / "inftree.qit", "commtree": inputs / "commtree.qit"}
    ab = ["--X", "a,b"]
    vec = ["--X", "a,b", "--prefix", "2"]
    tables = fx / "tables"
    checks = [_job(["check", decls[name]], ref.expect_check(name))
              for name in ("bag", "commvec", "inftree", "commtree")]
    checks += [_job(["check", fx / f"{name}.qit"], ref.expect_check(name))
               for name in ref.REJECTIONS]
    elaborates = [
        _job(["elaborate", decls["bag"], *ab], ref.expect_elaborate("bag", "ab")),
        _job(["elaborate", decls["commvec"], *vec], ref.expect_elaborate("commvec", "ab", 2)),
        _job(["elaborate", decls["inftree"], "--X", "a"], ref.expect_elaborate("inftree", "a")),
        _job(["elaborate", decls["commtree"], *ab], ref.expect_elaborate("commtree", "ab")),
    ]
    enums = [
        _job(["enum", decls["bag"], *ab], ref.expect_enum("bag", "ab", 3)),
        _job(["enum", decls["commvec"], *vec], ref.expect_enum("commvec", "ab", 3, 2)),
    ]
    examples = [_job(["examples"], ref.expect_examples(tables, None))] * 2
    examples += [_job(["examples", name], ref.expect_examples(tables, name))
                 for name in rng.choices(ref.EXAMPLES, k=4)]
    elims = [
        _job(["elim", decls["bag"], *ab, "--steps", fx / "bag_parity_steps.json"],
             ref.expect_bag_parity("ab", 3)),
        _job(["elim", decls["bag"], *ab], ref.expect_bag_parity("ab", 3)),
    ]
    fold = _job(["fold", decls["bag"], *ab, "--algebra", fx / "bag_length.json"],
                ref.expect_fold("bag", "ab", 3, "bag_length"))
    constructs = [
        _job(["construct", decls["bag"], *ab], ref.expect_construct("bag", "ab", 3, 3, False)),
        _job(["construct", decls["commvec"], *vec],
             ref.expect_construct("commvec", "ab", 3, 3, False, 2)),
        _job(["construct", decls["commvec"], *vec, "--compare-oracle"],
             ref.expect_construct("commvec", "ab", 3, 3, True, 2)),
    ]
    bag_oracle = _job(["construct", decls["bag"], *ab, "--compare-oracle"],
                      ref.expect_construct("bag", "ab", 3, 3, True))
    jobs = (checks * 2 + elaborates * 2 + enums * 3 + examples + elims * 3 + [fold] * 4
            + _eq_jobs("bag", decls["bag"], ab, 12, rng, run_cli)
            + _eq_jobs("commvec", decls["commvec"], vec, 12, rng, run_cli)
            + constructs * 5 + [bag_oracle] * 10
            + _eq_jobs("commtree", decls["commtree"], ab, 5, rng, run_cli))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {"binary_h3": binary_h3, "bag_h5": bag_h5, "cli_mix": cli_mix}


def build(workload: str, root: Path, seed: int, run_cli: RunCli) -> list[Job]:
    return WORKLOADS[workload](root, random.Random(seed), run_cli)
