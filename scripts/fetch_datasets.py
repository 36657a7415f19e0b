#!/usr/bin/env python3
"""Convert downloaded benchmark dumps into the on-disk dataset layout.

This is a maintenance utility, not part of the library API. It takes a file
you have already downloaded and writes the three files the CLI consumes
(``edges.hg``, ``features.csv``, ``labels.csv``) into an output directory,
ready for ``zen run`` or the ``ZEN_DATA_DIR`` benchmark checks.

Two input formats are recognized:

* ``.json``: an object with keys ``edges`` (list of node-id lists),
  ``labels`` (list, integers or strings), optional ``n`` (node count),
  ``features`` (row-major list of lists), and ``feature_names``.
* ``.pickle`` / ``.pkl``: a dict in the layout common to public hypergraph
  benchmark releases: ``hypergraph`` (mapping of edge name to node list),
  ``features`` (dense array or scipy sparse matrix), ``labels`` (array).

Usage:
    python3 scripts/fetch_datasets.py cora.json      datasets/cora
    python3 scripts/fetch_datasets.py citeseer.pkl   datasets/citeseer
"""

import argparse
import json
import math
import os
import pickle
import sys

import numpy as np

from zen import Hypergraph


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    edges = [tuple(int(v) for v in e) for e in payload["edges"]]
    labels = payload["labels"]
    n = int(payload.get("n", max(max(e) for e in edges) + 1))
    features = payload.get("features")
    X = None if features is None else np.asarray(features, dtype=np.float64)
    names = payload.get("feature_names")
    return n, edges, labels, X, names


def _load_pickle(path):
    with open(path, "rb") as fh:
        payload = pickle.load(fh)
    raw_edges = payload["hypergraph"]
    if isinstance(raw_edges, dict):
        raw_edges = raw_edges.values()
    edges = [tuple(int(v) for v in e) for e in raw_edges]
    X = payload.get("features")
    if X is not None and hasattr(X, "toarray"):
        X = X.toarray()
    X = None if X is None else np.asarray(X, dtype=np.float64)
    labels = np.asarray(payload["labels"]).ravel().tolist()
    n = X.shape[0] if X is not None else max(max(e) for e in edges) + 1
    return n, edges, labels, X, None


def _feature_text(v: float) -> str:
    """``v`` as CSV text that reads back as the same float64.

    Integral values below 1e16 are written as integers (``0``, ``1``, ``3``),
    so 0/1, one-hot and identity features load as a digit grid; repr would
    print the same digits plus ``.0``. ``-0.0`` and every other value keep
    their repr.
    """
    if v.is_integer() and abs(v) < 1e16 and not (v == 0 and math.copysign(1.0, v) < 0):
        return str(int(v))
    return repr(v)


def _csv_fields(what: str, values) -> list[str]:
    """``values`` as the CSV fields they are written as. The files are written
    unquoted, so a value holding ``,`` or a line break is refused."""
    fields = [str(v) for v in values]
    for text in fields:
        if any(c in text for c in ",\n\r"):
            raise SystemExit(f"{what} {text!r} holds ',' or a line break; "
                             "the CSV files are written unquoted")
    return fields


def convert(in_path: str, out_dir: str) -> None:
    ext = os.path.splitext(in_path)[1].lower()
    if ext == ".json":
        n, edges, labels, X, names = _load_json(in_path)
    elif ext in (".pickle", ".pkl"):
        n, edges, labels, X, names = _load_pickle(in_path)
    else:
        raise SystemExit(f"unsupported input extension {ext!r}; use .json or .pickle")

    if len(labels) != n:
        raise SystemExit(f"{len(labels)} labels for {n} nodes")
    if X is None:
        # featureless dumps still run: identity rows let the propagation
        # structure carry all the signal
        X = np.eye(n)
        names = None
    if X.shape[0] != n:
        raise SystemExit(f"feature matrix has {X.shape[0]} rows for {n} nodes")
    header = None if names is None else _csv_fields("feature name", names)
    label_fields = _csv_fields("label", labels)

    os.makedirs(out_dir, exist_ok=True)
    hg = Hypergraph(n, tuple(edges))
    with open(os.path.join(out_dir, "edges.hg"), "w", encoding="utf-8") as fh:
        # the %nodes header keeps trailing isolated nodes
        fh.write(f"%nodes {n}\n")
        for e in hg.hyperedges:
            fh.write(" ".join(map(str, e)) + "\n")
    with open(os.path.join(out_dir, "features.csv"), "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in X.tolist():
            fh.write(",".join(map(_feature_text, row)) + "\n")
    with open(os.path.join(out_dir, "labels.csv"), "w", encoding="utf-8") as fh:
        fh.write("node_id,label\n")
        for i, lab in enumerate(label_fields):
            fh.write(f"{i},{lab}\n")
    print(f"wrote {out_dir}/edges.hg ({hg.num_edges} edges, {n} nodes), "
          f"features.csv ({X.shape[1]} columns), labels.csv")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("input", help="downloaded .json or .pickle dump")
    parser.add_argument("out_dir", help="directory for edges.hg/features.csv/labels.csv")
    args = parser.parse_args(argv)
    convert(args.input, args.out_dir)
    return 0


if __name__ == "__main__":
    sys.exit(main())
