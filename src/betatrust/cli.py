"""Command-line surface: fuse, decide, simulate, reproduce-table1.

Exit codes: 0 for success and accepted decisions, 2 for a declined
decision, 1 for usage and math errors and for a simulation in which more
than half of the edges that reached C failed.  Diagnostics go to stderr.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import documents, netsim
from .decision import COMBINERS, RiskAppetite, evaluate_request
from .errors import TrustError
from .fusion import (
    DEFAULT_VARIANCE,
    TrustEstimate,
    _checked_posterior,
    _checked_source,
    _fusion_weights,
    _shape_mean,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_DECLINE = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betatrust",
        description="Trust and risk assessment via Beta-distribution evidence fusion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sources = argparse.ArgumentParser(add_help=False)
    sources.add_argument("--a", type=float, required=True, help="direct trust mean")
    sources.add_argument("--b", type=float, required=True, help="indirect trust mean")
    sources.add_argument("--var", type=float, default=DEFAULT_VARIANCE,
                         help="variance for both sources (default %(default)s)")
    method = argparse.ArgumentParser(add_help=False)
    method.add_argument("--method", choices=sorted(COMBINERS), default="beta",
                        help="combiner for the C step (default beta)")

    fuse = sub.add_parser("fuse", parents=[sources],
                          help="fuse a direct and an indirect trust value")
    fuse.add_argument("--var-a", type=float, default=None, help="direct variance override")
    fuse.add_argument("--var-b", type=float, default=None, help="indirect variance override")

    decide = sub.add_parser("decide", parents=[sources],
                            help="run the A -> B -> C acceptance chain")
    decide.add_argument("--t", type=float, required=True, help="required trust")
    decide.add_argument("--appetite", type=float, default=0.0,
                        help="maximum acceptable risk (default 0)")

    simulate = sub.add_parser("simulate", parents=[method],
                              help="assess a seeded random network")
    simulate.add_argument("--nodes", type=int, required=True, help="node count")
    simulate.add_argument("--seed", type=int, default=0, help="scenario seed")
    simulate.add_argument("--edge-prob", type=float, default=0.3,
                          help="edge probability (default 0.3)")
    simulate.add_argument("--var", type=float, default=DEFAULT_VARIANCE,
                          help="variance for all estimates (default %(default)s)")
    simulate.add_argument("--appetite", type=float, default=0.0,
                          help="per-node maximum acceptable risk (default 0)")
    simulate.add_argument("--out", type=Path, required=True, help="output directory")

    sub.add_parser("reproduce-table1", parents=[method],
                   help="print the bundled three-node reference assessment")
    return parser


def _estimate(mean: float, variance: float, label: str) -> TrustEstimate:
    try:
        return TrustEstimate(mean, variance)
    except TrustError as exc:
        raise TrustError(f"{label}: {exc}") from exc


def _cmd_fuse(args: argparse.Namespace) -> int:
    direct = _estimate(args.a, args.var if args.var_a is None else args.var_a, "--a")
    indirect = _estimate(args.b, args.var if args.var_b is None else args.var_b, "--b")
    shapes = []
    for estimate, side in ((direct, "direct"), (indirect, "indirect")):
        try:
            shapes += _checked_source(estimate.mean, estimate.variance)
        except TrustError as exc:
            raise TrustError(f"moment inversion of the {side} estimate failed: {exc}") from exc
    combined = _shape_mean(*_checked_posterior(*shapes))
    names = ("alpha_a", "beta_a", "alpha_b", "beta_b", "k", "w_a", "w_b", "combined")
    for name, value in zip(names, (*shapes, *_fusion_weights(*shapes), combined)):
        print(f"{name} {value:.6f}")
    return EXIT_OK


def _cmd_decide(args: argparse.Namespace) -> int:
    record = evaluate_request(
        args.t,
        _estimate(args.a, args.var, "--a"),
        _estimate(args.b, args.var, "--b"),
        RiskAppetite(args.appetite),
    )
    combined = "-" if record.combined is None else f"{record.combined:.6f}"
    print(f"decision {record.decision.value}")
    print(f"combined {combined}")
    print(f"risk {record.risk:.6f}")
    return EXIT_OK if record.decision.accepted else EXIT_DECLINE


def _cmd_simulate(args: argparse.Namespace) -> int:
    config = netsim.ScenarioConfig(
        seed=args.seed,
        node_count=args.nodes,
        edge_probability=args.edge_prob,
        variance_direct=args.var,
        variance_indirect=args.var,
        max_acceptable_risk=args.appetite,
    )
    network = netsim.generate_network(config)
    result = netsim.run_assessment(network, COMBINERS[args.method])

    # made only now, so a run that fails above leaves no directory; an unusable
    # --out fails here, before any edge is reported
    args.out.mkdir(parents=True, exist_ok=True)
    sys.stderr.writelines(
        f"edge {error.from_node}->{error.to_node}: {error.kind}: {error.message}\n"
        for error in result.errors)
    matrices_path = args.out / "matrices.csv"
    series_path = args.out / "risk_series.csv"
    documents.write_matrices(matrices_path, result, comments=[f"combiner: {args.method}"])
    documents.write_risk_table(series_path, result)

    tally = result.decision_tally()
    print(f"nodes {network.node_count}")
    print(f"edges {len(network.src)}")
    for name, count in tally.items():
        print(f"{name} {count}")
    print(f"errors {len(result.errors)}")
    print(f"wrote {matrices_path}")
    print(f"wrote {series_path}")
    # the edges that reached C, the only ones that can fail
    reached = len(network.src) - tally["AcceptDirect"] - tally["AcceptIndirect"]
    if 2 * len(result.errors) > reached:
        print(f"betatrust simulate: {len(result.errors)} of {reached} edges that reached C failed",
              file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def _cmd_reproduce_table1(args: argparse.Namespace) -> int:
    network = documents.load_bundled_three_node()
    result = netsim.run_assessment(network, COMBINERS[args.method])
    comments = [f"combiner: {args.method}"]
    if args.method == "beta":
        comments.append(
            f"variance assumption: direct={DEFAULT_VARIANCE}, indirect={DEFAULT_VARIANCE}"
        )
    labels = list(range(1, network.node_count + 1))
    sys.stdout.write(documents.render_matrices(labels, result.as_matrix_dict(), comments))
    return EXIT_OK


_COMMANDS = {
    "fuse": _cmd_fuse,
    "decide": _cmd_decide,
    "simulate": _cmd_simulate,
    "reproduce-table1": _cmd_reproduce_table1,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is reserved for declines here
        return EXIT_OK if exc.code in (0, None) else EXIT_ERROR
    try:
        return _COMMANDS[args.command](args)
    except (TrustError, OSError, MemoryError) as exc:
        print(f"betatrust {args.command}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
