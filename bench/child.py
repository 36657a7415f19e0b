"""One benchmark process: set up, run one round of a workload, report.

bench/run.py starts this in a fresh interpreter, with BLAS and OpenMP pinned
to one thread through the environment and the package on PYTHONPATH:

    python3 bench/child.py MODE WORKDIR OUT [SEEDS]

MODE is ``round`` (set up, then the timed run) or ``trace`` (the round again
with a span around every call into the package, then extra calls that split
the work into layers). WORKDIR holds the generated inputs and params.json;
SEEDS is the comma-separated list of split seeds a protocol round searches.
The report is written to OUT as JSON. Nothing numeric is imported before ``import zen``, so its cost stays in the
measured set-up time.
"""

import os
import sys
import time

from spans import NullTracer, Tracer


def main() -> None:
    mode, workdir, out = sys.argv[1:4]
    seeds = [int(v) for v in sys.argv[4].split(",")] if len(sys.argv) > 4 else []
    tracer = Tracer() if mode == "trace" else NullTracer()
    span = tracer.span
    edges = os.path.join(workdir, "edges.hg")
    features = os.path.join(workdir, "features.csv")
    labels = os.path.join(workdir, "labels.csv")
    protocol = os.path.exists(features)

    t0 = time.perf_counter()
    with span("setup"):
        with span("cli.import"):
            import zen
            import zen.cli  # noqa: F401  (what the zen command loads)
        if protocol:
            with span("harness.load_dataset"):
                data = zen.load_dataset(edges, features, labels, name="bench")
        else:
            with span("hypergraph.load_hypergraph"):
                data = zen.load_hypergraph(edges)
    setup_s = time.perf_counter() - t0

    import json
    import resource

    import workloads as wl

    with open(os.path.join(workdir, "params.json"), encoding="utf-8") as fh:
        params = json.load(fh)
    params["split_seeds"] = seeds
    if tracer.enabled:
        zero_rows = _LogCounter()
        import logging
        logging.getLogger("zen.classifier").addFilter(zero_rows)

    run = _run_protocol if protocol else _run_diagnostics
    t1 = time.perf_counter()
    with span("run"):
        attempted, failed, outputs = run(zen, wl, data, params, workdir, tracer)
    run_s = time.perf_counter() - t1
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    report = dict(setup_s=setup_s, run_s=run_s, peak_rss_mib=rss_mib,
                  attempted=attempted, failed=failed, outputs=outputs)
    if protocol and not failed:
        report["splits"] = _splits(zen, wl, data, seeds)
    if tracer.enabled:
        with span("layers"):
            absent = _layers(zen, wl, data, protocol, seeds, (edges, features, labels), tracer)
        tracer.count("classifier.zero_row_warnings", zero_rows.records)
        report.update(spans=tracer.spans, counts=tracer.counts, absent=sorted(set(absent)))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)


def _run_protocol(zen, wl, ds, params, workdir, tracer):
    """grid_search over the split seeds, then RunResult.to_json to a file, as `zen run` does."""
    span = tracer.span
    seeds = params["split_seeds"]
    path = os.path.join(workdir, f"result-{os.getpid()}.json")
    try:
        with span("harness.grid_search"):
            result = zen.grid_search(ds, zen.simplex_grid(wl.GRID_DENOMINATOR), wl.K, seeds)
        with span("harness.to_json"):
            text = result.to_json()
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except zen.ZenError as exc:
        print(f"grid_search failed: {exc!r}", file=sys.stderr)
        return len(seeds), len(seeds), {}
    return len(seeds), 0, {"result_path": path}


def _run_diagnostics(zen, wl, hg, params, workdir, tracer):
    """Closed-form diagonals, the Hutchinson two-hop estimate and walk return probabilities."""
    import numpy as np

    span = tracer.span
    probes, walks = wl.PROBES, params["walk_starts"]
    tracer.count("rsi_approx.probes", probes)
    tracer.count("rsi_approx.walk_steps", len(walks) * wl.WALK_TRIALS * wl.WALK_LENGTH)
    attempted = 2 + probes + len(walks)
    failed = 0
    outputs = {}
    try:
        with span("propagation.rsi_diag_1"):
            outputs["rsi1"] = zen.rsi_diag_1(hg).tolist()
    except zen.ZenError as exc:
        print(f"rsi_diag_1 failed: {exc!r}", file=sys.stderr)
        failed += 1
    try:
        with span("propagation.build_A1_star"):
            a1 = zen.build_A1_star(hg)
        tracer.count("propagation.A1_nnz", a1.nnz)
        with span("propagation.rsi_diag_2"):
            outputs["rsi2"] = zen.rsi_diag_2(hg, a1_star=a1).tolist()
        with span("hypergraph.degrees"):
            d = zen.degrees(hg).node_degrees.astype(np.float64)
        mid = np.zeros_like(d)
        np.divide(d, d - 1.0, out=mid, where=d >= 2)
        with span("rsi_approx.hutchinson_diag"):
            est = zen.hutchinson_diag(lambda z: a1 @ (mid * (a1 @ z)), hg.num_nodes,
                                      zen.HutchinsonParams(probes, params["est_seed"]))
        outputs["hutchinson"] = est.tolist()
    except zen.ZenError as exc:
        print(f"two-hop diagonal failed: {exc!r}", file=sys.stderr)
        failed += probes if "rsi2" in outputs else 1 + probes
    values = []
    for i, node in enumerate(walks):
        wp = zen.WalkParams(wl.WALK_LENGTH, wl.WALK_TRIALS, params["est_seed"] + i)
        try:
            with span("rsi_approx.random_walk_return_prob"):
                values.append(zen.random_walk_return_prob(hg, node, wp))
        except zen.ZenError as exc:
            print(f"walk from node {node} failed: {exc!r}", file=sys.stderr)
            failed += 1
            values.append(None)
    outputs["walks"] = values
    return attempted, failed, outputs


def _splits(zen, wl, ds, seeds):
    """The k-shot splits grid_search drew, as index lists, for the checks."""
    out = {}
    for seed in seeds:
        s = zen.make_kshot_split(ds.labels, wl.K, seed)
        out[str(seed)] = {"train": s.train_mask.nonzero()[0].tolist(),
                          "val": s.val_mask.nonzero()[0].tolist()}
    return out


def _layers(zen, wl, data, protocol, seeds, paths, tracer):
    """Calls that split the round's work into the layers beneath it.

    A function the package no longer exports is skipped, and so is a call
    whose input an absent function should have made; the names of the absent
    functions are returned.
    """
    count = tracer.count
    absent = []

    def call(module, name, *args, peak=False):
        fn = getattr(zen, name, None)
        if fn is None:
            absent.append(f"{module}.{name}")
        if fn is None or any(a is None for a in args):
            return None
        with tracer.span(f"{module}.{name}", peak=peak):
            return fn(*args)

    hg = data.hypergraph if protocol else data
    if protocol:
        edges, features, labels = paths
        call("hypergraph", "load_hypergraph", edges)
        call("hypergraph", "load_features", features)
        call("hypergraph", "load_labels", labels, hg.num_nodes)
    H = call("hypergraph", "incidence_matrix", hg)
    if H is not None:
        count("hypergraph.H_nnz", H.nnz)
    call("hypergraph", "degrees", hg)
    if not protocol:
        return absent
    a1 = call("propagation", "build_A1_star", hg)
    if a1 is not None:
        count("propagation.A1_nnz", a1.nnz)
    a2 = call("propagation", "build_A2_star", hg, zen.NormalizationKind.SYMMETRIC, a1,
              peak=True)
    if a2 is not None:
        count("propagation.A2_nnz", a2.nnz)
        # CSR storage computed from nnz: float64 values, int32 indices and indptr
        count("propagation.A2_bytes", 12 * a2.nnz + 4 * (a2.shape[0] + 1))
    del a2

    splits = [call("harness", "make_kshot_split", data.labels, wl.K, s) for s in seeds]
    third = (1 / 3, 1 / 3, 1 / 3)
    call("harness", "run_config", data, zen.PropagationConfig(third), splits[0], peak=True)
    grid = zen.simplex_grid(wl.GRID_DENOMINATOR)
    count("harness.evals", len(grid) * len(splits))

    # One seed's 55 configurations on the benchmark's own basis, so the
    # classifier's calls can be timed one by one.
    import reference

    basis = reference.operators(hg.num_nodes, hg.hyperedges).basis(data.features)
    split = splits[0]
    for alphas in grid:
        mixed = alphas[0] * basis[0] + alphas[1] * basis[1] + alphas[2] * basis[2]
        Z = call("classifier", "normalize_rows", mixed)
        W = call("classifier", "tcs_weights", Z, split, data.labels)
        pred = call("classifier", "predict", Z, W)
        for mask in (split.val_mask, split.test_mask):
            call("harness", "evaluate_accuracy", pred, mask, data.labels)
    return absent


class _LogCounter:
    """Logging filter that counts records and lets every one through."""

    def __init__(self):
        self.records = 0

    def filter(self, record):
        self.records += 1
        return True


if __name__ == "__main__":
    main()
