"""One benchmark run in a fresh interpreter.

Usage: child.py MODE WORKLOAD SEED OUT_DIR TRACE

MODE is "setup" (import the package and build the in-memory inputs,
then stop), "run" (the requests workload: set up, do the timed work,
then gate the results), "check" (a cli workload: gate the CLI's
matrices.csv in OUT_DIR/cli against the library's result) or "replay"
(a cli workload: call the public functions in the order `betatrust
simulate` calls them, then gate the results).  TRACE 1 records spans
around every call into the package.  The last stdout line is a JSON
report; its t_ready is time.monotonic() when set-up ended, which on
Linux reads the same clock as the parent.
"""
import sys
import time

mode, workload, seed, out_dir, trace = sys.argv[1:6]

import betatrust  # noqa: E402  (the import is part of the set-up being timed)

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
if Path(betatrust.__file__).resolve().parent != ROOT / "src" / "betatrust":
    sys.exit(f"betatrust was imported from {betatrust.__file__}, not from {ROOT / 'src'}")

import inputs  # noqa: E402

seed = int(seed)
spec = inputs.WORKLOADS[workload]
requests = None
if spec["kind"] == "requests":
    from betatrust import RiskAppetite, TrustEstimate

    requests = [
        (t, TrustEstimate(a), TrustEstimate(b), RiskAppetite(appetite))
        for t, a, b, appetite in zip(*inputs.request_columns(seed, spec["count"]))
    ]
t_ready = time.monotonic()

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from time import perf_counter_ns  # noqa: E402

from betatrust import (  # noqa: E402
    DEFAULT_VARIANCE,
    Decision,
    DegeneratePosteriorError,
    InvalidVarianceError,
    ScenarioConfig,
    combined_trust,
    evaluate_request,
    generate_network,
    parse_matrices,
    render_matrices,
    render_risk_table,
    run_assessment,
)

import gate  # noqa: E402
from spans import LAYERS, ROOT as ROOT_SPAN, Tracer  # noqa: E402

SHORT_CIRCUIT = {Decision.ACCEPT_DIRECT, Decision.ACCEPT_INDIRECT}
FUSION_ERRORS = (InvalidVarianceError, DegeneratePosteriorError)
# Operations of the run, filled in as soon as they are known, so that a
# run that raises can still count all of them as failed.
known = {}


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def percentile_us(latencies_ns: list[int], index: int) -> float:
    return statistics.quantiles(latencies_ns, n=100)[index] / 1e3


def decision_counts(decisions, errors: int) -> dict[str, int]:
    """Calls per branch of the A -> B -> C chain; errored calls reached C."""
    counts = {"decision.calls.direct": 0, "decision.calls.indirect": 0,
              "decision.calls.combined": errors}
    for value in decisions:
        if value == "AcceptDirect":
            counts["decision.calls.direct"] += 1
        elif value == "AcceptIndirect":
            counts["decision.calls.indirect"] += 1
        else:
            counts["decision.calls.combined"] += 1
    return counts


def error_counts(kinds) -> dict[str, int]:
    counts = {"InvalidVarianceError": 0, "DegeneratePosteriorError": 0}
    for kind in kinds:
        counts[kind] = counts.get(kind, 0) + 1
    return counts


def fusion_layers(tracer: Tracer) -> dict[str, float]:
    calls = tracer.durations("fusion.combined_trust")
    total = sum(calls)
    return {"fusion.calls": len(calls), "fusion.s": total,
            "fusion.us_per_call": total / len(calls) * 1e6 if calls else 0.0}


def assessment_layers(tracer: Tracer, network) -> dict[str, float]:
    n = network.node_count
    assess = tracer.total("netsim.run_assessment")
    layers = fusion_layers(tracer)
    layers.update({
        "netsim.edges": len(network.edges),
        "netsim.assess.s": assess,
        "netsim.assess.self_s": assess - layers["fusion.s"],
        "netsim.assess.us_per_edge": assess / max(len(network.edges), 1) * 1e6,
        "netsim.result_matrix_bytes": 5 * n * n * 8,
    })
    return layers


def assessment_facts(network, result) -> dict:
    kinds = [error.kind for error in result.errors]
    return {
        "ops": len(network.edges),
        "tally": result.decision_tally(),
        "edge_errors": error_counts(kinds),
        "decisions": decision_counts((d.value for d in result.decisions.values()), len(kinds)),
        "results_sha256": gate.results_digest(gate.assessment_lines(result)),
    }


def scenario() -> ScenarioConfig:
    """The config `betatrust simulate` builds from the workload's arguments."""
    return ScenarioConfig(
        seed=seed, node_count=spec["nodes"], edge_probability=spec["edge_prob"],
        variance_direct=DEFAULT_VARIANCE, variance_indirect=DEFAULT_VARIANCE,
        max_acceptable_risk=0.0,
    )


def check_cli(out: Path) -> dict:
    """Gate the CLI's matrices.csv against the library's result for the scenario."""
    network = generate_network(scenario())
    known["ops"] = len(network.edges)
    result = run_assessment(network)
    report = assessment_facts(network, result)
    report["problems"] = gate.check_assessment(network, result) + gate.check_matrices_text(
        (out / "matrices.csv").read_text(encoding="utf-8"), network.node_count,
        result.as_matrix_dict(), parse_matrices)
    return report


def replay(tracer, out: Path) -> dict:
    """The library calls of `betatrust simulate`, in its order, with its defaults."""
    span = tracer.span if tracer else lambda name: nullcontext()
    combiner = tracer.wrap(combined_trust, "fusion.combined_trust") if tracer else combined_trust
    start = time.perf_counter()
    with span(ROOT_SPAN):
        with span("netsim.generate_network"):
            network = generate_network(scenario())
            known["ops"] = len(network.edges)
        with span("netsim.run_assessment"):
            result = run_assessment(network, combiner)
        with span("cli.print_errors"):
            for error in result.errors:
                print(f"edge {error.from_node}->{error.to_node}: {error.kind}: {error.message}",
                      file=sys.stderr)
        out.mkdir(parents=True, exist_ok=True)
        labels = list(range(1, network.node_count + 1))
        matrices_path = out / "matrices.csv"
        series_path = out / "risk_series.csv"
        with span("documents.render_matrices"):
            matrices = render_matrices(labels, result.as_matrix_dict(), comments=["combiner: beta"])
        with span("documents.write"):
            matrices_path.write_text(matrices, encoding="utf-8")
        with span("documents.render_risk_table"):
            series = render_risk_table(labels, result.r_matrix)
        with span("documents.write"):
            series_path.write_text(series, encoding="utf-8")
        with span("cli.print_summary"):
            print(f"nodes {network.node_count}")
            print(f"edges {len(network.edges)}")
            for name, count in result.decision_tally().items():
                print(f"{name} {count}")
            print(f"errors {len(result.errors)}")
            print(f"wrote {matrices_path}")
            print(f"wrote {series_path}", flush=True)
    report = {"wall_s": time.perf_counter() - start}
    report.update(assessment_facts(network, result))
    report["hashes"] = {"matrices.csv": sha256_file(matrices_path),
                        "risk_series.csv": sha256_file(series_path)}
    report["problems"] = gate.check_assessment(network, result) + gate.check_matrices_text(
        matrices, network.node_count, result.as_matrix_dict(), parse_matrices)
    if not tracer:
        return report
    n = network.node_count
    render = tracer.total("documents.render_matrices") + tracer.total("documents.render_risk_table")
    generate = tracer.total("netsim.generate_network")
    draws = n * (n - 1) + 3 * len(network.edges)
    report["layers"] = assessment_layers(tracer, network)
    report["layers"].update({
        "netsim.generate.s": generate,
        "netsim.generate.draws": draws,
        "netsim.generate.us_per_draw": generate / draws * 1e6,
        "documents.render_matrices.s": tracer.total("documents.render_matrices"),
        "documents.render_risk_table.s": tracer.total("documents.render_risk_table"),
        "documents.render.us_per_cell": render / (6 * n * n) * 1e6,
        "documents.render.bytes": len(matrices.encode()) + len(series.encode()),
        "documents.write.s": tracer.total("documents.write"),
    })
    return report


def outcome_row(outcome) -> tuple:
    """(outcome, combined, risk) of a TrustRecord, or of a fusion error's kind."""
    if isinstance(outcome, str):
        return outcome, None, None
    return outcome.decision.value, outcome.combined, outcome.risk


def run_requests(tracer) -> dict:
    """Closed loop, one client: each evaluate_request call is timed alone."""
    evaluate, combiner = evaluate_request, combined_trust
    if tracer:
        evaluate = tracer.wrap(evaluate_request, "decision.evaluate_request")
        combiner = tracer.wrap(combined_trust, "fusion.combined_trust")
    outcomes = []
    latencies = []
    clock = perf_counter_ns
    start = time.perf_counter()
    with tracer.span(ROOT_SPAN) if tracer else nullcontext():
        for required, direct, indirect, appetite in requests:
            began = clock()
            try:
                outcome = evaluate(required, direct, indirect, appetite, combiner)
            except FUSION_ERRORS as exc:
                outcome = type(exc).__name__
            except ValueError:
                outcome = None
            latencies.append(clock() - began)
            outcomes.append(outcome)
    report = {"wall_s": time.perf_counter() - start}
    records = [o for o in outcomes if o is not None and not isinstance(o, str)]
    kinds = [o for o in outcomes if isinstance(o, str)]
    values = [record.decision.value for record in records]
    report.update({
        "ops": len(requests),
        "crashed_ops": outcomes.count(None),
        "tally": {d.value: values.count(d.value) for d in Decision},
        "edge_errors": error_counts(kinds),
        "decisions": decision_counts(values, len(kinds) + outcomes.count(None)),
        "request_p50_us": percentile_us(latencies, 49),
        "request_p99_us": percentile_us(latencies, 98),
    })
    report["rss_before_gate_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["results_sha256"] = gate.results_digest(
        f"{index},{o}" if isinstance(o, str) or o is None
        else f"{index},{o.decision.value},{o.combined!r},{o.risk!r}"
        for index, o in enumerate(outcomes)
    )
    report["problems"] = gate.check_outcomes(
        (required, direct, indirect, appetite.max_acceptable_risk, *outcome_row(o))
        for (required, direct, indirect, appetite), o in zip(requests, outcomes) if o is not None)
    if tracer:
        calls = tracer.durations("decision.evaluate_request")
        short_circuit = [getattr(o, "decision", None) in SHORT_CIRCUIT for o in outcomes]
        short = [d for d, is_short in zip(calls, short_circuit) if is_short]
        fused = [d for d, is_short in zip(calls, short_circuit) if not is_short]
        report["layers"] = fusion_layers(tracer)
        report["layers"].update({
            "decision.short_circuit_p50_us": statistics.median(short) * 1e6 if short else 0.0,
            "decision.fused_p50_us": statistics.median(fused) * 1e6 if fused else 0.0,
        })
    return report


def run(report: dict) -> None:
    out = Path(out_dir)
    tracer = Tracer(f"{workload}-seed{seed}-pid{os.getpid()}") if trace == "1" else None
    if mode == "check":
        report.update(check_cli(out / "cli"))
    elif mode == "replay":
        report.update(replay(tracer, out / "replay"))
    else:
        report.update(run_requests(tracer))
    if tracer:
        layers = report["layers"]
        layers.update(report["decisions"])
        layers.update({f"netsim.edge_errors.{kind}": count
                       for kind, count in report["edge_errors"].items()})
        self_times = tracer.self_times()
        layers.update({f"{layer}.self_s": self_times[layer] for layer in LAYERS})
        layers["trace.unattributed_s"] = self_times[ROOT_SPAN]
        report["trace_file"] = str(out / f"spans-{workload}-seed{seed}.csv")
        tracer.write(Path(report["trace_file"]))


def main() -> None:
    report = {"t_ready": t_ready}
    if mode != "setup":
        try:
            run(report)
        except Exception:
            # The run as a whole failed: report it, and all of its operations
            # as failed, instead of a timing.
            report.update(crashed=traceback.format_exc(), ops=known.get("ops"))
    print(json.dumps(report))


main()
