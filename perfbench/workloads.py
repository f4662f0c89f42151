"""The benchmark's workloads: fixed job lists whose seeds come from --seed.

A job is one fresh interpreter running either a `hyptile` CLI command or
a pipeline from pipelines.py.  Only the stochastic inputs (the `--seed`
of `hullcheck`/`cocycle`, the sampler seed and the group elements of the
invariance pipeline) depend on the benchmark seed; sizes and job order
never do, so every run does the same amount of work.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

SPECS = {
    "tm": {"type": "substitution", "rules": {"1": "12", "2": "21"}},
    "pd": {"type": "substitution", "rules": {"1": "12", "2": "11"}},
    "fib": {"type": "substitution", "rules": {"1": "12", "2": "1"}},
    "per5": {"type": "periodic", "word": "11212"},
    "s4": {"type": "substitution",
           "rules": {"1": "1234", "2": "2143", "3": "3412", "4": "4321"}},
    "ab": {"type": "periodic", "word": "ab"},
}

# `render`/`patch` of a periodic word over letters decodes the letters
# with int(); the job exits 1 with this message until that is fixed.
LETTER_FAULT = "invalid literal for int() with base 10: 'b'"
# For the periodic word 11212 the coinvariant chain certifies its N=1
# group as stable (K1 = Z^2), while the orbit's group is Z; the check
# against the circulant presentation reports this phrase.
PERIODIC_FAULT = "differs from the periodic orbit's group"

GROUP_ELEMENTS = 48


@dataclass(frozen=True)
class Job:
    name: str
    kind: str  # "cli", "tiling" or "invariance"
    command: str  # CLI command, or the pipeline's name
    spec: str  # key into SPECS
    params: dict = field(default_factory=dict)
    out: bool = False  # write through --out instead of stdout
    known_fault: str | None = None

    def cli_args(self, spec_path: str, out_path: str | None) -> list[str]:
        args = [self.command, "--spec", spec_path]
        for key in ("radius", "nmax", "samples", "seed"):
            if key in self.params:
                args += [f"--{key}", str(self.params[key])]
        if out_path is not None:
            args += ["--out", out_path]
        return args


def _job_seed(seed: int, name: str) -> int:
    return random.Random(f"{seed}:{name}").randrange(2 ** 31)


def _group_elements(seed: int, name: str) -> list[list[float]]:
    rng = random.Random(f"{seed}:{name}:g")
    return [[2.0 ** rng.uniform(-1.5, 1.5), rng.uniform(-3.0, 3.0)]
            for _ in range(GROUP_ELEMENTS)]


def _groups(seed: int) -> list[Job]:
    return [
        Job("kgroups-tm", "cli", "kgroups", "tm"),
        Job("cech-tm", "cli", "cech", "tm"),
        Job("measures-tm", "cli", "measures", "tm"),
        Job("kgroups-pd", "cli", "kgroups", "pd"),
        Job("cech-fib", "cli", "cech", "fib"),
        Job("gaplabels-fib", "cli", "gaplabels", "fib"),
        Job("kgroups-per5", "cli", "kgroups", "per5",
            known_fault=PERIODIC_FAULT),
        Job("kgroups-s4", "cli", "kgroups", "s4", {"nmax": 6}),
    ]


def _tiling(seed: int) -> list[Job]:
    return [
        Job("render-tm-r5", "cli", "render", "tm", {"radius": 5}),
        Job("patch-fib-r5", "cli", "patch", "fib", {"radius": 5}),
        Job("pipeline-tm-r5", "tiling", "tiling", "tm", {"radius": 5}),
    ]


def _stochastic(seed: int, name: str, cmd: str, spec: str, samples: int,
                out: bool = False) -> Job:
    return Job(name, "cli", cmd, spec,
               {"samples": samples, "seed": _job_seed(seed, name)}, out)


def _hull(seed: int) -> list[Job]:
    name = "invariance-fib"
    return [
        _stochastic(seed, "hullcheck-tm", "hullcheck", "tm", 100_000),
        _stochastic(seed, "hullcheck-fib", "hullcheck", "fib", 100_000),
        _stochastic(seed, "cocycle-fib", "cocycle", "fib", 130_000),
        Job(name, "invariance", "invariance", "fib",
            {"samples": 70_000, "seed": _job_seed(seed, name),
             "elements": _group_elements(seed, name)}),
    ]


def _quick(seed: int) -> list[Job]:
    return [
        Job("render-tm-r2", "cli", "render", "tm", {"radius": 2}, True),
        Job("patch-fib-r2", "cli", "patch", "fib", {"radius": 2}, True),
        Job("kgroups-per5", "cli", "kgroups", "per5", {}, True,
            PERIODIC_FAULT),
        Job("cech-tm", "cli", "cech", "tm", {"nmax": 4}, True),
        Job("gaplabels-per5", "cli", "gaplabels", "per5", {}, True),
        Job("measures-tm", "cli", "measures", "tm", {"nmax": 3}, True),
        _stochastic(seed, "hullcheck-tm", "hullcheck", "tm", 20_000, True),
        _stochastic(seed, "cocycle-fib", "cocycle", "fib", 20_000, True),
        Job("render-ab-r2", "cli", "render", "ab", {"radius": 2}, True,
            LETTER_FAULT),
        Job("patch-ab-r2", "cli", "patch", "ab", {"radius": 2}, True,
            LETTER_FAULT),
    ]


WORKLOADS = {"groups": _groups, "tiling": _tiling, "hull": _hull,
             "quick": _quick}
# Nominal seconds per round on the reference machine (2 vCPUs); a 28 s
# run does 2 rounds of groups and quick, 4 of hull and 6 of tiling.
ROUND_SECONDS = {"groups": 12, "tiling": 4.5, "hull": 7, "quick": 10}


def jobs_for(workload: str, seed: int) -> list[Job]:
    return WORKLOADS[workload](seed)
