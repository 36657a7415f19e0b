"""Benchmark of the zen pipeline: set-up time, run time and peak memory.

Run from the repository root:

    python3 bench/run.py --workload cora-protocol --seed 0 --seconds 20 --trace 0

It generates the workload's inputs from the seed into .bench_work/, then
starts fresh interpreters (bench/child.py) one after another, each one
setting up and running one round, until --seconds of rounds have passed
and every round kind has run (see workloads.py). With --trace 1 a last,
traced process splits a round into per-layer spans. Every output is
checked against bench/reference.py and the method's own invariants. The
last line of stdout is one JSON object: correct, attempted, failed and the
metrics (end-to-end ones with --trace 0, per-layer ones with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

# One BLAS/OpenMP thread, here and in every child, which inherits this
# environment. zen's --threads flag sets these only after numpy has loaded,
# so it has no effect; the benchmark pins them before any process starts.
os.environ.update(dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
     "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"), "1"))

import numpy as np  # noqa: E402  (after the thread pinning)

import gen  # noqa: E402
import reference  # noqa: E402
from spans import self_times  # noqa: E402
import workloads as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 170.0      # the whole run, every child included
DELTA = 1e-9            # allowed chance that a correct estimator misses its bound

PER_LAYER = (
    ("cli.import_s", "s"),
    ("hypergraph.load_hypergraph_s", "s"),
    ("hypergraph.load_features_s", "s"),
    ("hypergraph.load_labels_s", "s"),
    ("harness.load_dataset_s", "s"),
    ("hypergraph.incidence_matrix_s", "s"),
    ("hypergraph.degrees_s", "s"),
    ("hypergraph.H_nnz", "count"),
    ("propagation.build_A1_star_s", "s"),
    ("propagation.A1_nnz", "count"),
    ("propagation.build_A2_star_s", "s"),
    ("propagation.A2_nnz", "count"),
    ("propagation.A2_bytes", "B"),
    ("propagation.build_A2_star_peak_mib", "MiB"),
    ("propagation.rsi_diag_1_s", "s"),
    ("propagation.rsi_diag_2_s", "s"),
    ("harness.run_config_s", "s"),
    ("harness.run_config_peak_mib", "MiB"),
    ("harness.grid_search_s", "s"),
    ("harness.evals", "count"),
    ("harness.eval_ms", "ms"),
    ("harness.make_kshot_split_s", "s"),
    ("harness.evaluate_accuracy_s", "s"),
    ("harness.to_json_s", "s"),
    ("classifier.normalize_rows_s", "s"),
    ("classifier.tcs_weights_s", "s"),
    ("classifier.predict_s", "s"),
    ("classifier.zero_row_warnings", "count"),
    ("rsi_approx.hutchinson_diag_s", "s"),
    ("rsi_approx.probes", "count"),
    ("rsi_approx.random_walk_return_prob_s", "s"),
    ("rsi_approx.walk_steps", "count"),
    ("trace.overhead_s", "s"),
)


class BenchError(Exception):
    """The benchmark could not produce a result."""


def main() -> int:
    parser = argparse.ArgumentParser(description="zen pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        result = run(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def run(args) -> dict:
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "zen", "__init__.py")):
        raise BenchError(f"no package source at {src}/zen; run from the repository root")
    w = wl.WORKLOADS[args.workload]
    work = os.path.join(root, ".bench_work", w.name)   # replaced by every run
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    deadline = time.monotonic() + DEADLINE_S

    data = gen.generate(w.instance, args.seed, with_features=w.protocol)
    gen.write(data, work)
    params = _params(w, data, args.seed)
    with open(os.path.join(work, "params.json"), "w", encoding="utf-8") as fh:
        json.dump(params, fh)

    env = dict(os.environ, PYTHONPATH=src)

    def child(mode: str, index: int, seeds: tuple[int, ...]) -> dict:
        out = os.path.join(work, f"{mode}-{index}.json")
        cmd = [sys.executable, os.path.join(HERE, "child.py"), mode, work, out]
        if seeds:
            cmd.append(",".join(map(str, seeds)))
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time")
        try:
            proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} process {index} ran out of time") from None
        if proc.returncode != 0:
            raise BenchError(f"{mode} process {index} exited with {proc.returncode}")
        with open(out, encoding="utf-8") as fh:
            return dict(json.load(fh), seeds=list(seeds))

    # Rounds cycle through the seed groups until --seconds have passed; the
    # first group runs twice so two RunResults can be compared byte for
    # byte. A traced process repeats the first group itself.
    groups = w.seed_groups
    min_rounds = len(groups) + (0 if args.trace else 1)
    rounds, spent = [], 0.0
    while len(rounds) < min_rounds or spent < args.seconds:
        t = time.monotonic()
        rounds.append(child("round", len(rounds), groups[len(rounds) % len(groups)]))
        spent += time.monotonic() - t
    traced = child("trace", 0, groups[0]) if args.trace else None

    runs = rounds + ([traced] if traced else [])
    failures = (_check_protocol if w.protocol else _check_diagnostics)(w, data, params, runs)
    for msg in failures:
        print(f"bench: check failed: {msg}", file=sys.stderr)

    run_s = statistics.median(r["run_s"] for r in rounds)
    if traced:
        metrics = _per_layer(traced, run_s, os.path.join(work, "trace.json"))
    else:
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in rounds),
                        "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mib": {"value": statistics.median(r["peak_rss_mib"] for r in rounds),
                             "unit": "MiB"},
        }
    print(f"bench: {w.name} seed {args.seed}: {len(rounds)} rounds", file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }


def _params(w, data, seed: int) -> dict:
    """Seed-derived choices the child and the checks share."""
    if w.protocol:
        return {}
    rng = np.random.Generator(np.random.Philox(key=seed))
    touched = np.unique(np.fromiter((v for e in data.edges for v in e), dtype=np.int64))
    return {
        "est_seed": seed,
        # walks cannot start at isolated nodes, so start only where edges are
        "walk_starts": sorted(rng.choice(touched, wl.WALK_STARTS, replace=False).tolist()),
        "checked_nodes": sorted(rng.choice(data.num_nodes, wl.CHECKED_NODES,
                                           replace=False).tolist()),
    }


def _check_protocol(w, data, params, runs) -> list[str]:
    if any(r["failed"] for r in runs):
        return ["grid_search failed"]
    fails, first = [], {}
    for r in runs:
        with open(r["outputs"]["result_path"], "rb") as fh:
            text = fh.read()
        seen = first.setdefault(tuple(r["seeds"]), (text, r["splits"]))
        if seen != (text, r["splits"]):
            fails.append(f"seeds {r['seeds']}: two runs differ in RunResult.to_json "
                         "or in their splits")

    y, c, k = data.labels, w.instance.classes, wl.K
    basis = reference.operators(data.num_nodes, data.edges).basis(
        data.features.astype(np.float64))
    grid = reference.lattice(wl.GRID_DENOMINATOR)
    tests = []
    for seeds, (text, splits) in first.items():
        res = json.loads(text)
        if (res["k"], tuple(res["seeds"]), res["grid_denominator"]) \
                != (k, seeds, wl.GRID_DENOMINATOR) \
                or tuple(e["seed"] for e in res["per_seed"]) != seeds:
            fails.append(f"seeds {list(seeds)}: RunResult does not describe the protocol run")
            continue
        group_tests = [e["test_acc"] for e in res["per_seed"]]
        if abs(res["mean_test"] - float(np.mean(group_tests))) > 1e-12:
            fails.append(f"seeds {list(seeds)}: mean_test is not the mean of the seeds")
        tests += group_tests
        for entry in res["per_seed"]:
            fails += _check_seed(entry, splits[str(entry["seed"])], basis, y, c, k, grid)
    chance = max(w.instance.class_sizes) / data.num_nodes
    if np.mean(tests) < chance + 0.25:
        fails.append(f"mean test accuracy {np.mean(tests):.3f} is within 0.25 of "
                     f"the majority-class share {chance:.3f}")
    return fails


def _check_seed(entry, split, basis, y, c, k, grid) -> list[str]:
    """One seed's split and selection against the reference."""
    s, fails = entry["seed"], []
    train, val = np.asarray(split["train"]), np.asarray(split["val"])
    if np.intersect1d(train, val).size:
        fails.append(f"seed {s}: train and validation masks overlap")
    for name, idx in (("train", train), ("validation", val)):
        if not np.array_equal(np.bincount(y[idx], minlength=c), np.full(c, k)):
            fails.append(f"seed {s}: {name} set is not {k} nodes per class")
    alphas = tuple(entry["selected_alphas"])
    if alphas not in grid:
        return fails + [f"seed {s}: selected alphas {alphas} are off the lattice"]
    best = reference.val_accuracies(basis, y, c, train, val, grid).max()
    if abs(entry["val_acc"] - best) > 1.0 / val.size + 1e-12:
        fails.append(f"seed {s}: validation accuracy {entry['val_acc']} "
                     f"but the lattice maximum is {best}")
    test = np.setdiff1d(np.arange(y.size), np.concatenate([train, val]))
    ref_test = reference.test_accuracy(basis, y, c, train, test, alphas)
    if abs(entry["test_acc"] - ref_test) > 1.0 / test.size + 1e-12:
        fails.append(f"seed {s}: test accuracy {entry['test_acc']}, reference {ref_test}")
    return fails


def _check_diagnostics(w, data, params, runs) -> list[str]:
    fails = []
    for key in ("rsi1", "rsi2", "hutchinson", "walks"):
        if any(key not in r["outputs"] for r in runs):
            return [f"no {key} output"]
        if any(r["outputs"][key] != runs[0]["outputs"][key] for r in runs[1:]):
            fails.append(f"{key} differs between runs")
    out = {k: np.asarray(v, dtype=np.float64) for k, v in runs[0]["outputs"].items()}
    ops = reference.operators(data.num_nodes, data.edges)
    for key, exact in (("rsi1", ops.rsi1), ("rsi2", ops.rsi2)):
        err = float(np.max(np.abs(out[key] - exact)))
        if err > 1e-10:
            fails.append(f"{key} is {err:.3g} from the reference")

    # A row with no off-diagonal mass is estimated exactly; elsewhere the
    # sign-probe error is sub-Gaussian with scale sigma_i / sqrt(probes).
    est, rsi2 = out["hutchinson"], ops.rsi2
    lonely = np.diff(ops.a1.indptr) == 0
    if np.any(est[lonely] != rsi2[lonely]):
        fails.append("Hutchinson is not exact on rows with no off-diagonal mass")
    nodes = np.asarray(params["checked_nodes"])
    sigma = ops.two_hop_offdiag_norm(nodes)
    tol = sigma * math.sqrt(2.0 * math.log(2.0 * nodes.size / DELTA) / wl.PROBES)
    miss = np.flatnonzero(np.abs(est[nodes] - rsi2[nodes]) > tol + 1e-12)
    if miss.size:
        fails.append(f"Hutchinson estimate outside its bound at {miss.size} node(s)")

    starts = np.asarray(params["walk_starts"])
    exact = ops.walk_return_2()[starts]
    tol = math.sqrt(math.log(2.0 * starts.size / DELTA) / (2.0 * wl.WALK_TRIALS))
    miss = np.flatnonzero(np.abs(out["walks"] - exact) > tol)
    if miss.size:
        fails.append(f"walk return probability outside its bound at {miss.size} start(s)")
    return fails


def _per_layer(traced: dict, run_s: float, trace_path: str) -> dict:
    spans = traced["spans"]
    selfs = self_times(spans)
    total, own, calls, peak = defaultdict(float), defaultdict(float), defaultdict(int), {}
    for s, self_s in zip(spans, selfs):
        total[s["name"]] += s["end"] - s["start"]
        own[s["name"]] += self_s
        calls[s["name"]] += 1
        if "peak_bytes" in s:
            peak[s["name"]] = max(peak.get(s["name"], 0), s["peak_bytes"])
    run_span = next(s for s in spans if s["name"] == "run")
    overhead = (run_span["end"] - run_span["start"]) - run_s

    values = {f"{name}_s": t for name, t in total.items()}
    values.update(traced["counts"])
    values.update({f"{name}_peak_mib": b / 2**20 for name, b in peak.items()})
    evals = values.get("harness.evals", 0)
    values["harness.eval_ms"] = 1e3 * values.get("harness.grid_search_s", 0.0) / evals \
        if evals else 0.0
    values["trace.overhead_s"] = overhead

    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": [dict(s, self_s=v) for s, v in zip(spans, selfs)],
                   "counts": traced["counts"], "absent": traced["absent"],
                   "untraced_run_s": run_s, "overhead_s": overhead}, fh, indent=1)
    print(f"{'span':44} {'calls':>6} {'total s':>10} {'self s':>10}", file=sys.stderr)
    for name in total:
        print(f"{name:44} {calls[name]:6d} {total[name]:10.4f} {own[name]:10.4f}",
              file=sys.stderr)
    print(f"tracing overhead {overhead:.4f} s on an untraced run of {run_s:.4f} s; "
          f"absent: {', '.join(traced['absent']) or 'none'}; spans in {trace_path}",
          file=sys.stderr)
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
