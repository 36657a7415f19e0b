"""Workload definitions shared by the benchmark driver and its child processes.

Standard library only: the timed child imports this module, and anything it
pulls in before ``import zen`` would be missing from the measured set-up time.
"""

from __future__ import annotations

from dataclasses import dataclass


# The paper's protocol
K = 5                   # labeled nodes per class, for training and for validation
GRID_DENOMINATOR = 9    # 55 lattice points

# The diagnostics suite
PROBES = 512            # Hutchinson sign probes
WALK_STARTS = 64        # walk start nodes, drawn from the seed among non-isolated ones
WALK_TRIALS = 100_000
WALK_LENGTH = 2
CHECKED_NODES = 2000    # nodes whose Hutchinson estimate is checked against its bound


@dataclass(frozen=True)
class Instance:
    """Parameters of a planted-partition hypergraph with class-conditional features.

    Each node switches on about ``active_per_node`` binary features, each one
    drawn from its class's topic block with probability ``p_topic``.
    """

    nodes: int
    class_sizes: tuple[int, ...]
    edges: int
    max_size: int           # edges have 2..max_size members before degenerate ones are added
    features: int
    active_per_node: float
    p_topic: float

    @property
    def classes(self) -> int:
        return len(self.class_sizes)


@dataclass(frozen=True)
class Workload:
    name: str
    instance: Instance
    protocol: bool          # grid search (True) or the diagnostics suite
    # Split seeds per round. Rounds cycle through the groups, one group each,
    # and one group is run twice so two RunResults can be compared.
    seed_groups: tuple[tuple[int, ...], ...] = ((),)


# Cora's class sizes; the features have Cora's width and density.
CORA = Instance(
    nodes=2708,
    class_sizes=(818, 426, 418, 351, 298, 217, 180),
    edges=1600,
    max_size=6,
    features=1433,
    active_per_node=18.0,
    p_topic=0.3,
)

WIDE = Instance(
    nodes=10_000,
    class_sizes=(3000, 2500, 2000, 1500, 1000),
    edges=3000,
    max_size=20,
    features=64,
    active_per_node=6.0,
    p_topic=0.2,
)

WORKLOADS = {
    w.name: w
    for w in (
        # The paper's ten split seeds, one per round: ten-seed rounds of about
        # 25 s left two samples per run, and their mean spread 16% across runs.
        Workload("cora-protocol", CORA, protocol=True,
                 seed_groups=tuple((s,) for s in range(10))),
        Workload("wide-edges", WIDE, protocol=True, seed_groups=((0, 1),)),
        Workload("diagnostics", WIDE, protocol=False),
    )
}
