"""Command-line interface.

Subcommands: ``run`` (grid-search experiment), ``rsi`` (diagonal diagnostics,
exact or estimated), ``explain`` (feature-importance CSV for the
best-validation configuration), ``errbound`` (closed-form vs exact weight gap
in the idealized geometry).

Exit codes: 0 success, 1 computation error, 2 usage or I/O error. The
package loads its exports lazily and the handlers do their heavy imports
themselves, so numpy is not loaded until a handler runs and ``--threads``
pins the BLAS pool size through the environment before it is.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .errors import ConfigError, DatasetError, HypergraphParseError, ZenError

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def parse_seeds(spec: str) -> list[int]:
    """Seed list syntax: comma-separated integers and/or inclusive a..b ranges."""
    seeds: list[int] = []
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if ".." in token:
            lo_s, _, hi_s = token.partition("..")
            try:
                lo, hi = int(lo_s), int(hi_s)
            except ValueError:
                raise ConfigError(f"bad seed range {token!r}") from None
            if hi < lo:
                raise ConfigError(f"empty seed range {token!r}")
            seeds.extend(range(lo, hi + 1))
        else:
            try:
                seeds.append(int(token))
            except ValueError:
                raise ConfigError(f"bad seed {token!r}") from None
    if not seeds:
        raise ConfigError(f"no seeds in {spec!r}")
    return seeds


def _positive_int(text: str, minimum: int = 1) -> int:
    """An argparse type for integers >= ``minimum``; the usage error names the flag."""
    try:
        value = int(text)
    except ValueError:
        value = minimum - 1
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {text!r}")
    return value


def _nonnegative_int(text: str) -> int:
    return _positive_int(text, minimum=0)


def _positive_float(text: str) -> float:
    """An argparse type for finite floats > 0; the usage error names the flag."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _add_dataset_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--edges", required=True, help="hyperedge text file")
    p.add_argument("--features", required=True, help="per-node feature CSV")
    p.add_argument("--labels", required=True, help="node_id,label CSV")
    p.add_argument("--name", default=None, help="dataset name for reports "
                   "(default: edges file stem)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zen",
        description="Parameter-free linear hypergraph node classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="k-shot grid-search experiment")
    _add_dataset_flags(run)
    run.add_argument("--k", type=_positive_int, default=5,
                     help="labeled nodes per class (default 5)")
    run.add_argument("--seeds", default="0..9",
                     help="comma list and/or a..b ranges (default 0..9)")
    run.add_argument("--grid-denominator", type=_positive_int, default=9,
                     help="simplex lattice denominator (default 9, 55 configs)")
    run.add_argument("--variant", default="full",
                     choices=["full", "no_rap", "no_tcs", "no_both", "linearized_hgnn"],
                     help="ablation variant (default full)")
    run.add_argument("--norm", default="sym", choices=["sym", "row"],
                     help="degree normalization (default sym); linearized_hgnn "
                          "ignores it, its propagation is always sym")
    run.add_argument("--threads", type=_positive_int, default=None,
                     help="BLAS/OpenMP thread cap (default: machine parallelism)")
    run.add_argument("--format", default="table", choices=["json", "table"],
                     help="stdout format (default table)")
    run.add_argument("--out", default=None, help="write RunResult JSON here")
    run.add_argument("--timing", action="store_true",
                     help="include wall-clock timings in the JSON (off by default "
                          "so identical runs serialize identically)")
    run.add_argument("--lr", type=_positive_float, default=None,
                     help="step size for gradient-descent variants")
    run.add_argument("--epochs", type=_positive_int, default=None,
                     help="iterations for gradient-descent variants (default 500)")
    run.set_defaults(func=_cmd_run)

    rsi = sub.add_parser("rsi", help="self-information diagonal diagnostics")
    rsi.add_argument("--edges", required=True, help="hyperedge text file")
    rsi.add_argument("--node", type=int, required=True, help="node id")
    rsi.add_argument("--hops", type=_nonnegative_int, default=1,
                     help="walk length / hop count")
    rsi.add_argument("--method", default="exact",
                     choices=["exact", "walk", "hutchinson"])
    rsi.add_argument("--trials", type=_positive_int, default=100_000,
                     help="walk trials (default 1e5)")
    rsi.add_argument("--probes", type=_positive_int, default=64,
                     help="sign-probe count (default 64)")
    rsi.add_argument("--seed", type=_nonnegative_int, default=0, help="estimator seed")
    rsi.add_argument("--format", default="json", choices=["json", "table"])
    rsi.set_defaults(func=_cmd_rsi)

    explain = sub.add_parser("explain", help="feature-importance report")
    _add_dataset_flags(explain)
    explain.add_argument("--k", type=_positive_int, default=3,
                         help="shots per class (default 3)")
    explain.add_argument("--seed", type=_nonnegative_int, default=0,
                         help="split seed (default 0)")
    explain.add_argument("--grid-denominator", type=_positive_int, default=9)
    explain.add_argument("--variant", default="full", choices=["full", "no_rap"],
                         help="closed-form variants only (default full)")
    explain.add_argument("--norm", default="sym", choices=["sym", "row"])
    explain.add_argument("--format", default="csv", choices=["csv", "json"])
    explain.add_argument("--out", default=None, help="write the report here")
    explain.set_defaults(func=_cmd_explain)

    errbound = sub.add_parser(
        "errbound", help="closed-form vs exact weight gap (percent)"
    )
    errbound.add_argument("--epsilon", type=float, required=True,
                          help="inter-class dot product, in (0, 0.5)")
    errbound.add_argument("--k", type=_positive_int, required=True, help="shots per class")
    errbound.add_argument("--c", type=_positive_int, required=True, help="class count")
    errbound.add_argument("--format", default="table", choices=["json", "table"])
    errbound.set_defaults(func=_cmd_errbound)

    return parser


def _check_out(path) -> None:
    """Fail at once on an ``--out`` that cannot be written, before any input
    is read. It is opened to append, so an existing file keeps its bytes
    until the command writes its result; a missing one is created empty."""
    if path:
        open(path, "a", encoding="utf-8").close()


def _cmd_run(args) -> int:
    from .classifier import TrainingParams
    from .harness import _VARIANTS, grid_search, load_dataset, simplex_grid
    from .propagation import NormalizationKind

    training = None
    if _VARIANTS[args.variant].descent:
        training = TrainingParams(lr=args.lr, epochs=args.epochs or TrainingParams.epochs)
    else:
        for flag, value in (("--lr", args.lr), ("--epochs", args.epochs)):
            if value is not None:
                raise ConfigError(
                    f"{flag} applies to gradient-descent variants only; "
                    f"--variant {args.variant} has closed-form weights"
                )
    _check_out(args.out)
    dataset = load_dataset(args.edges, args.features, args.labels, name=args.name)
    result = grid_search(
        dataset,
        simplex_grid(args.grid_denominator),
        args.k,
        parse_seeds(args.seeds),
        variant=args.variant,
        normalization=NormalizationKind.from_string(args.norm),
        training=training,
    )
    text = result.to_json(include_timing=args.timing)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.format == "json":
        sys.stdout.write(text)
    else:
        print(
            f"{result.dataset}  k={result.k}  variant={result.variant}  "
            f"test {100 * result.mean_test:.1f} ± {100 * result.std_test:.1f} "
            f"({len(result.seeds)} seed{'s' if len(result.seeds) != 1 else ''})"
        )
    return 0


def _cmd_rsi(args) -> int:
    import json as _json

    from .hypergraph import load_hypergraph
    from .propagation import NormalizationKind, _factored_hops, _Hop, rsi_diag_1, rsi_diag_2
    from .rsi_approx import (
        HutchinsonParams,
        WalkParams,
        dense_diag_oracle,
        hutchinson_diag,
        random_walk_return_prob,
    )
    from .sparsetools import dense_guard

    hg = load_hypergraph(args.edges)
    if not (0 <= args.node < hg.num_nodes):
        raise ConfigError(f"node {args.node} outside [0, {hg.num_nodes})")
    if args.method == "walk" and args.hops < 1:
        raise ConfigError(f"--method walk needs --hops of at least 1, got {args.hops}")
    node, l = args.node, args.hops
    # exact values have closed forms for hops 0..2 and Hutchinson probes the
    # symmetric rap hops at 1..2 (rsi_1 and rsi_2 are the same for both kinds);
    # every other target is the row-stochastic walk matrix W = D_v^{-1} H D_e^{-1} H^T
    rap_hop = ((args.method == "exact" and l <= 2)
               or (args.method == "hutchinson" and l in (1, 2)))
    target = "rap-hop" if rap_hop else "walk"
    fits_guard = hg.num_nodes <= dense_guard()

    def oracle(family):
        if not fits_guard:
            return None
        return float(dense_diag_oracle(hg, l=l, family=family)[node])

    if args.method == "exact":
        if l == 0:
            value = 1.0
        elif l == 1:
            value = float(rsi_diag_1(hg)[node])
        elif l == 2:
            value = float(rsi_diag_2(hg)[node])
        else:
            value = float(dense_diag_oracle(hg, l=l, family="walk")[node])
    elif args.method == "walk":
        value = random_walk_return_prob(
            hg, node, WalkParams(walk_length=l, trials=args.trials, rng_seed=args.seed)
        )
    else:
        params = HutchinsonParams(num_probes=args.probes, rng_seed=args.seed)
        # the hops go through H as in propagated_basis, so no hop matrix is
        # built: A1^ is the rap hop with its diagonal kept, the two-hop
        # composition is A1* (m * A1* z), and W is the plain row hop, applied
        # l times
        if l in (1, 2):
            hop, hop2 = _factored_hops(hg, NormalizationKind.SYMMETRIC, rap=True)
            matvec = _Hop(hop.left, hop.right) if l == 1 else lambda z: hop2(hop(z))
        else:
            walk, _ = _factored_hops(hg, NormalizationKind.ROW, rap=False)

            def matvec(z):
                for _ in range(l):
                    z = walk(z)
                return z

        value = float(hutchinson_diag(matvec, hg.num_nodes, params)[node])
    # an exact long-horizon value is the walk oracle itself
    exact = value if args.method == "exact" and l > 2 else oracle("rap" if rap_hop else "walk")

    payload = {
        "node": node,
        "l": l,
        "method": args.method,
        "target": target,
        "value": value,
        "exact": exact,
    }
    if args.format == "json":
        print(_json.dumps(payload, indent=2))
    else:
        for key, val in payload.items():
            print(f"{key}: {val}")
    return 0


def _cmd_explain(args) -> int:
    from .harness import (
        _Run,
        _select_config,
        explain_weights,
        load_dataset,
        make_kshot_split,
        simplex_grid,
    )
    from .propagation import NormalizationKind

    _check_out(args.out)
    dataset = load_dataset(args.edges, args.features, args.labels, name=args.name)
    run = _Run.prepare(dataset, args.variant, NormalizationKind.from_string(args.norm),
                       simplex_grid(args.grid_denominator).alphas)
    split = make_kshot_split(dataset.labels, args.k, args.seed)
    _, _, W = _select_config(run, split)
    report = explain_weights(W, dataset.feature_names, dataset.labels.class_names)
    text = report.to_csv() if args.format == "csv" else report.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_errbound(args) -> int:
    import json as _json

    from .classifier import tcs_error_bound

    value = tcs_error_bound(args.epsilon, args.k, args.c)
    if args.format == "json":
        print(_json.dumps({
            "epsilon": args.epsilon,
            "k": args.k,
            "c": args.c,
            "relative_error_percent": value,
        }, indent=2))
    else:
        print(f"{value:.2f}%")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else int(exc.code)
    if getattr(args, "threads", None) is not None:
        for var in _THREAD_ENV_VARS:
            os.environ[var] = str(args.threads)
    try:
        return args.func(args)
    except (OSError, HypergraphParseError, DatasetError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZenError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
