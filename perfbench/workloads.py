"""The benchmark's workloads: seeded job lists with the verdict each must reach.

A workload is a fixed list of synthesis jobs; one pass runs them in order.
Only `tiny-stream` depends on the seed.  `expected` is the verdict a job must
reach; `None` means it is computed by the brute-force reference synthesizer.
"""

from __future__ import annotations

import hashlib
import pathlib
import random
from dataclasses import dataclass
from typing import Optional

from glycanrules.core import Dataset, Molecule, MonomerAlphabet
from glycanrules.driver import (
    NO_RULES,
    SYNTHESIZED,
    Budgets,
    Limits,
    SynthesisJob,
    enumerate_trees,
)
from glycanrules.encoder import Variants
from glycanrules.grammar import parse_dataset, serialize_dataset

# a regression shows as Inconclusive (a failed job), not as a hang
GUARD = Limits(max_iterations=200, wall_clock_s=120)


@dataclass
class BenchJob:
    name: str
    job: SynthesisJob
    expected: Optional[str]


def _dataset(root: pathlib.Path, name: str) -> Dataset:
    return parse_dataset((root / "datasets" / f"{name}.gly").read_text())


def datasets_jobs(root: pathlib.Path) -> list[BenchJob]:
    """The six bundled configurations and two refutations of the test suite."""
    mot = _dataset(root, "motivating")
    rep = _dataset(root, "repeats_chain")
    specs = [
        ("motivating-r7d3", mot, Budgets(7, 3), Variants(), SYNTHESIZED),
        ("motivating-r2d3", mot, Budgets(2, 3), Variants(), NO_RULES),
        ("compartments-k2-r3d2", _dataset(root, "compartments_pair"),
         Budgets(3, 2, compartments=2), Variants(), SYNTHESIZED),
        ("repeats-r5d3", rep, Budgets(5, 3), Variants(repeat=(1, 5)), SYNTHESIZED),
        ("hardends-r2d2", _dataset(root, "hardends_gate"), Budgets(2, 2),
         Variants(hard_ends=True), SYNTHESIZED),
        ("fastslow-r2d2", _dataset(root, "fastslow_pair"), Budgets(2, 2),
         Variants(fast_slow=True), SYNTHESIZED),
        ("motivating-k2-r6d2", mot, Budgets(6, 2, compartments=2), Variants(), NO_RULES),
        ("repeats-norepeat-r5d3", rep, Budgets(5, 3), Variants(), NO_RULES),
    ]
    return [
        BenchJob(name, SynthesisJob(data, budgets, variants=variants, limits=GUARD),
                 expected)
        for name, data, budgets, variants, expected in specs
    ]


def tall_jobs(root: pathlib.Path) -> list[BenchJob]:
    """Motivating r7/d3 on molecule templates of 63 and 127 positions."""
    mot = _dataset(root, "motivating")
    return [
        BenchJob(f"motivating-r7d3-h{h}",
                 SynthesisJob(mot, Budgets(7, 3, height=h), limits=GUARD), SYNTHESIZED)
        for h in (5, 6)
    ]


# Job shapes for tiny-stream come from one fixed draw, made as criterion 5 of
# the acceptance tests makes them: each job draws its molecules independently
# from the trees of height <= 2, and every (B arity, molecule count, rule
# budget) stratum gets the same number of jobs, as a uniform draw would give
# on average.  How long a tiny job takes depends on which molecules it gets,
# and 48 jobs drawn afresh per seed vary by about 20% in total time from seed
# to seed, more than a useful regression bound.  So the draw uses criterion
# 5's own seed, and the benchmark's seed picks the monomer names and the order
# of the jobs and of each job's molecules.
TINY_SHAPES_SEED = 4242
TINY_PER_STRATUM = 4
TINY_NAMES = ("A", "B", "C", "Fuc", "Gal", "GalNAc", "Glc", "GlcNAc", "Man",
              "Neu5Ac", "Rha", "Xyl")


def tiny_jobs(seed: int) -> list[BenchJob]:
    """48 criterion-5-style jobs: alphabet A/1 plus B/0 or B/1, one to three
    molecules of height <= 2, rules 1-2, depth 2; four per stratum."""
    shapes = random.Random(TINY_SHAPES_SEED)
    rng = random.Random(seed)
    first, second = rng.sample(TINY_NAMES, 2)
    jobs = []
    for arity in (0, 1):
        alphabet = MonomerAlphabet([(first, 1), (second, arity)])
        universe = [Molecule(t) for t in enumerate_trees(alphabet, 2, 1)]
        for count in (1, 2, 3):
            for rules in (1, 2):
                for _ in range(TINY_PER_STRATUM):
                    molecules = shapes.sample(universe, count)
                    rng.shuffle(molecules)
                    job = SynthesisJob(
                        Dataset(alphabet, tuple(molecules)),
                        Budgets(rules=rules, depth=2),
                        limits=Limits(max_iterations=150, wall_clock_s=60),
                    )
                    jobs.append(job)
    rng.shuffle(jobs)
    return [BenchJob(f"tiny-{i}", job, None) for i, job in enumerate(jobs)]


def build(workload: str, seed: int, root: pathlib.Path) -> list[BenchJob]:
    if workload == "datasets":
        return datasets_jobs(root)
    if workload == "tall-templates":
        return tall_jobs(root)
    if workload == "tiny-stream":
        return tiny_jobs(seed)
    raise ValueError(f"unknown workload {workload!r}")


def fingerprint(jobs: list[BenchJob]) -> str:
    """Hash of every job's data set, budgets, variants and limits."""
    h = hashlib.sha256()
    for b in jobs:
        j = b.job
        h.update(f"{b.name}\n{serialize_dataset(j.dataset)}{j.budgets!r}\n"
                 f"{j.variants!r}\n{j.limits!r}\n{j.mode} {j.symmetry}\n".encode())
    return h.hexdigest()
