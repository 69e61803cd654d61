"""The fixed input catalogs every workload draws its seeded inputs from.

The offline workloads select from committed catalogs so that every
(config, benchmark) miss count a run produces can be checked against the
oracle counts in ``perfbench/expected/``.  The serving workload
generates its tenant streams from the seed and is checked against an
offline ``simulate`` of the same streams instead.

``work`` is ``--seconds / 10``: it picks the (fixed) amount of work a run
does, sized so that one run measures about ``--seconds`` on a 2-vCPU
host.  Nothing here depends on how fast the host happens to be.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

# -- sweep --------------------------------------------------------------------

#: fig16-style practical grid: associativity x table size x path length.
SWEEP_ASSOCS: Tuple[object, ...] = ("tagless", 2, 4)
SWEEP_SIZES: Tuple[int, ...] = (256, 1024, 4096, 16384)
SWEEP_PATHS: Tuple[int, ...] = tuple(range(0, 12))


def sweep_label(assoc: object, size: int, path: int) -> str:
    return f"{assoc}/{size}/p{path}"


def sweep_catalog() -> List[Tuple[object, int, int]]:
    """Every (assoc, size, path) point with committed oracle counts."""
    return [(assoc, size, path) for assoc in SWEEP_ASSOCS
            for size in SWEEP_SIZES for path in SWEEP_PATHS]


def sweep_plan(seed: int, work: float) -> List[Tuple[object, int, int]]:
    """The grid a sweep run simulates, in seeded dispatch order.

    Every seed simulates the same points, so every run does the same
    work and every miss count has an oracle; the seed only shuffles the
    order in which the points reach the worker pool.  ``work`` below 1.5
    takes fewer table sizes per (associativity, path length) cell.
    """
    rng = random.Random(seed)
    per_cell = max(1, min(len(SWEEP_SIZES), round(2.7 * work)))
    plan = [(assoc, size, path) for assoc in SWEEP_ASSOCS
            for path in SWEEP_PATHS for size in SWEEP_SIZES[:per_cell]]
    rng.shuffle(plan)
    return plan


# -- long-trace ---------------------------------------------------------------

#: Trace length multiplier over each benchmark's default length.
LONG_SCALE = 20.0

#: Benchmarks a long-trace run takes, in this order of preference: all
#: are 30k events by default (600k at LONG_SCALE).  A fixed set keeps the
#: work, and the memory it needs, the same on every seed.
LONG_BENCHMARKS: Tuple[str, ...] = ("gcc", "m88ksim", "self", "perl",
                                    "troff", "eqn")

#: The two kernel configs every long trace is simulated with:
#: ``kernel`` runs on the vectorized batch kernel (and is also the
#: attribution config), ``event`` on the per-event oracle loop.
LONG_CONFIGS: Dict[str, Tuple[object, int, int]] = {
    "kernel": (4, 1024, 3),
    "event": ("tagless", 4096, 6),
}


def long_plan(seed: int, work: float) -> List[str]:
    """The benchmarks a long-trace run generates, in seeded order."""
    count = max(1, min(len(LONG_BENCHMARKS), round(4 * work)))
    plan = list(LONG_BENCHMARKS[:count])
    random.Random(seed).shuffle(plan)
    return plan


# -- serving ------------------------------------------------------------------

#: The paper's practical two-level predictor, served to every tenant.
SERVE_SPEC = "twolevel:p=3,entries=1024,assoc=4"
SERVE_SHARDS = 2


def shard_tenants(seed: int, per_shard: int, shards: int = SERVE_SHARDS
                  ) -> List[List[str]]:
    """``per_shard`` tenant names routed to each shard, seed-named.

    Names are drawn in order and kept when their shard still has room,
    so every shard owns exactly ``per_shard`` tenants.
    """
    from repro.service.protocol import shard_for

    owned: List[List[str]] = [[] for _ in range(shards)]
    index = 0
    while any(len(names) < per_shard for names in owned):
        name = f"s{seed}-t{index:03d}"
        index += 1
        shard = shard_for(name, shards)
        if len(owned[shard]) < per_shard:
            owned[shard].append(name)
    return owned
