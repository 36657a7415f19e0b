"""Seeded generator of planted hypergraph datasets for the benchmark.

The same (workload, seed) always gives the same files. Classes are planted:
most hyperedges draw their members from one class and most of a node's
active features come from its class's topic block, so the two-hop mixing
search has real signal to find. A few degenerate cases are built in on
purpose: nodes kept out of every edge (isolated), size-1 edges, and verbatim
duplicate edges.

Usage: python3 bench/gen.py --workload wide-edges --seed 3 --out DIR
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass

import numpy as np

from workloads import WORKLOADS, Instance

P_WITHIN = 0.8            # chance that an edge member comes from the edge's class
RESERVED_ISOLATED = 8     # nodes kept out of every edge
DEGENERATE_SHARE = 0.01   # extra size-1 edges, and verbatim repeats, per base edge


@dataclass(frozen=True)
class Planted:
    num_nodes: int
    edges: list[tuple[int, ...]]    # sorted, duplicate-free members, file order
    labels: np.ndarray              # (n,) class ids
    features: np.ndarray | None     # (n, d) 0/1 uint8, or None


def generate(inst: Instance, seed: int, with_features: bool = True) -> Planted:
    rng = np.random.Generator(np.random.Philox(key=seed))
    n, c = inst.nodes, inst.classes
    labels = rng.permutation(np.repeat(np.arange(c), inst.class_sizes))

    isolated = rng.choice(n, size=RESERVED_ISOLATED, replace=False)
    active = np.setdiff1d(np.arange(n), isolated)
    by_class = [active[labels[active] == cls] for cls in range(c)]
    shares = np.asarray(inst.class_sizes, dtype=np.float64) / n

    edges = []
    for _ in range(inst.edges):
        cls = rng.choice(c, p=shares)
        size = int(rng.integers(2, inst.max_size + 1))
        inside = rng.random(size) < P_WITHIN
        members = np.where(inside, rng.choice(by_class[cls], size),
                           rng.choice(active, size))
        edges.append(tuple(sorted(set(members.tolist()))))
    extra = max(1, round(DEGENERATE_SHARE * inst.edges))
    singles = rng.choice(active, size=extra)
    edges.extend((int(v),) for v in singles)
    repeats = rng.choice(inst.edges, size=extra)
    edges.extend(edges[int(i)] for i in repeats)
    edges = [edges[int(i)] for i in rng.permutation(len(edges))]

    X = None
    if with_features:
        d = inst.features
        topic = [np.flatnonzero(np.arange(d) % c == cls) for cls in range(c)]
        X = np.zeros((n, d), dtype=np.uint8)
        counts = 1 + rng.poisson(inst.active_per_node - 1, size=n)
        for i in range(n):
            m = int(counts[i])
            on_topic = rng.random(m) < inst.p_topic
            cols = np.where(on_topic, rng.choice(topic[labels[i]], m), rng.integers(0, d, m))
            X[i, cols] = 1
    return Planted(num_nodes=n, edges=edges, labels=labels, features=X)


def write(data: Planted, out_dir: str) -> None:
    """Write edges.hg always; features.csv and labels.csv when features exist."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "edges.hg"), "w", encoding="utf-8") as fh:
        fh.write(f"%nodes {data.num_nodes}\n")
        fh.writelines(" ".join(map(str, e)) + "\n" for e in data.edges)
    if data.features is None:
        return
    X = data.features
    n, d = X.shape
    # one digit per value, commas between, newline at the end of each row
    buf = np.full((n, 2 * d), ord(","), dtype=np.uint8)
    buf[:, 0::2] = X + ord("0")
    buf[:, -1] = ord("\n")
    with open(os.path.join(out_dir, "features.csv"), "wb") as fh:
        fh.write(buf.tobytes())
    with open(os.path.join(out_dir, "labels.csv"), "w", encoding="utf-8") as fh:
        fh.write("node_id,label\n")
        fh.writelines(f"{i},{int(y)}\n" for i, y in enumerate(data.labels))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    w = WORKLOADS[args.workload]
    write(generate(w.instance, args.seed, with_features=w.protocol), args.out)


if __name__ == "__main__":
    main()
