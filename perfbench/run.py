"""Benchmark of betatrust, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  BENCHMARK.json at the root lists the
workloads and metrics; WORKLOADS in inputs.py gives their sizes.  Every
run is a fresh child process, one at a time and single-threaded, with
the checkout's src/ first on PYTHONPATH.  Runs repeat until --seconds
have passed; each metric is the median over the runs, and its quartiles
go to the record file.

    setup_s         fresh interpreter to `import betatrust` and build the
                    in-memory inputs; the cli workloads time the import in
                    set-up children of their own
    wall_s          one run, from its start to its result being on disk
                    (cli: spawn to exit; library: first call to last return)
    peak_rss_mb     peak resident memory of the run's child: os.wait4 for
                    the cli, the child's own high-water mark read before
                    its gate for library runs
    failed_ratio    failed operations / attempted; an operation is an edge
                    or a request, a fusion error is a failure, and a run that
                    raises or fails the gate fails all of its operations
    requests_per_s  operations completed per second of wall_s
    request_p50_us, request_p99_us
                    single-requests: per-call latency of evaluate_request in
                    a closed loop with one client; batch workloads: every
                    edge's result lands when its run does, so the latency of
                    a request is its run's wall time

Every run is gated (gate.py): the cli runs against a library run of the
same scenario, the library runs in-process.  With --trace 1 the runs are
followed by one traced library run whose spans give the per-layer
metrics; layers a workload bypasses read 0.  The last stdout line is the
JSON result; the full record (run conditions, samples, quartiles, output
SHA-256, tallies, error counts) goes to .perfbench/results/.  The exit
status is 1 when a correctness check failed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".perfbench"
SETUP_RUNS = 5
DEADLINE_S = 170


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "BETATRUST_VARIANCE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def spawn(argv: list[str], out: Path, name: str) -> dict:
    """Run one child to completion; its exit, wall time, peak RSS and output."""
    stdout_path, stderr_path = out / f"{name}.stdout", out / f"{name}.stderr"
    with stdout_path.open("wb") as stdout, stderr_path.open("wb") as stderr:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr,
                                env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        t_exit = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr_lines = stderr_path.read_text().splitlines()
    return {"t_spawn": t_spawn, "wall_s": t_exit - t_spawn, "exit": proc.returncode,
            "peak_rss_mb": usage.ru_maxrss / 1024, "stdout": stdout_path.read_text(),
            "stderr_lines": len(stderr_lines),
            "failure": f"exit {proc.returncode}: {(stderr_lines or [''])[-1]}"}


def library_child(mode: str, name: str, seed: int, out: Path, trace: int, label: str) -> dict:
    """A child.py run; its JSON report is merged into the spawn record."""
    run = spawn([sys.executable, str(CHILD), mode, name, str(seed), str(out), str(trace)],
                out, label)
    lines = run.pop("stdout").strip().splitlines()
    report = json.loads(lines[-1]) if run["exit"] == 0 and lines else {"crashed": run["failure"]}
    report["setup_s"] = report["t_ready"] - run["t_spawn"] if "t_ready" in report else None
    # The gate runs after the timed work in the same process, so the run's
    # peak is the high-water mark the child read before gating, when it has one.
    report["peak_rss_mb"] = report.get("rss_before_gate_mb", run["peak_rss_mb"])
    report["process_peak_rss_mb"] = run["peak_rss_mb"]
    report.setdefault("wall_s", run["wall_s"])
    report.setdefault("problems", [])
    return report


def cli_child(spec: dict, seed: int, out: Path, index: int) -> dict:
    """One `betatrust simulate` run; its summary lines and output files."""
    cli_out = out / "cli"
    argv = [sys.executable, "-m", "betatrust", "simulate", "--nodes", str(spec["nodes"]),
            "--edge-prob", str(spec["edge_prob"]), "--seed", str(seed), "--out", str(cli_out)]
    run = spawn(argv, out, f"cli-{index}")
    stdout = run.pop("stdout")
    run["problems"] = []
    if run["exit"] != 0:
        run["crashed"] = run["failure"]
        return run
    fields = dict(line.split(" ", 1) for line in stdout.splitlines())
    run["ops"] = int(fields.pop("edges"))
    run["errors"] = int(fields.pop("errors"))
    run["tally"] = {key: int(value) for key, value in fields.items()
                    if key not in ("nodes", "wrote")}
    run["hashes"] = {path.name: sha256(path) for path in
                     (cli_out / "matrices.csv", cli_out / "risk_series.csv")}
    return run


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "n": len(values)}


def p99(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[98]


def gate_cli_runs(runs: list[dict], replay: dict) -> None:
    """A cli run passes when its output agrees with the gated library result."""
    expected_errors = sum(replay.get("edge_errors", {}).values())
    for run in runs:
        run.setdefault("problems", [])
        if "crashed" in run:
            run["ops"] = replay.get("ops") or 1
            continue
        if "hashes" in replay and run["hashes"] != replay["hashes"]:
            run["problems"].append("CLI output differs from the gated library replay")
        if run["tally"] != replay.get("tally") or run["errors"] != expected_errors:
            run["problems"].append("CLI tally differs from the gated library replay")
        run["problems"] += replay["problems"]
        run["edge_errors"] = replay.get("edge_errors", {})


def gate_repeats(runs: list[dict]) -> None:
    """Runs on one seed must agree byte for byte on outputs and counts."""
    keys = ("hashes", "results_sha256", "tally", "edge_errors")
    done = [run for run in runs if "crashed" not in run]
    for run in done[1:]:
        if any(run.get(key) != done[0].get(key) for key in keys):
            run["problems"].append("outputs differ from the first run on the same seed")


def collect(name: str, spec: dict, seed: int, out: Path, seconds: float, trace: int):
    """Runs of the workload until `seconds` have passed, and the set-up times."""
    # The cli workloads time set-up in children of their own, interleaved
    # with the runs so that both sample the same stretch of time.
    cli_setup = spec["kind"] == "cli" and not trace
    runs: list[dict] = []
    setup: list[float] = []
    stop = time.monotonic() + seconds
    while not runs or time.monotonic() < stop:
        if cli_setup:
            setup.append(library_child("setup", name, seed, out, 0, "setup")["setup_s"])
        if spec["kind"] == "cli":
            runs.append(cli_child(spec, seed, out, len(runs)))
        else:
            runs.append(library_child("run", name, seed, out, 0, f"run-{len(runs)}"))
    while cli_setup and len(setup) < SETUP_RUNS:
        setup.append(library_child("setup", name, seed, out, 0, "setup")["setup_s"])
    if not cli_setup:
        setup = [run.get("setup_s") for run in runs]
    return runs, [value for value in setup if value is not None]


def check(name: str, spec: dict, seed: int, out: Path, runs: list[dict], trace: int):
    """Gate the runs against a reference run of the library on the same seed.

    Returns the reference, the traced run (None unless trace) and the
    untraced wall times that the tracing overhead is measured against.
    """
    gate_repeats(runs)
    if spec["kind"] == "cli":
        reference = library_child("replay" if trace else "check", name, seed, out, 0, "reference")
        gate_cli_runs(runs, reference)
        untraced = [reference]
    else:
        reference = next((run for run in runs if "crashed" not in run), runs[0])
        untraced = runs
    traced = None
    if trace:
        traced = library_child("replay" if spec["kind"] == "cli" else "run", name, seed, out, 1,
                               "traced")
        gate_repeats([reference, traced])
    return reference, traced, [run["wall_s"] for run in untraced if "crashed" not in run]


def measure(name: str, seed: int, seconds: float, trace: int) -> dict:
    """All runs of one workload on one seed; returns the record."""
    spec = inputs.WORKLOADS[name]
    out = WORK / name / f"seed{seed}"
    out.mkdir(parents=True, exist_ok=True)
    expected_ops = spec.get("count")
    runs, setup = collect(name, spec, seed, out, seconds, trace)
    for run in runs:
        if expected_ops is not None and run.get("ops") is None:
            run["ops"] = expected_ops
    reference, traced, untraced_walls = check(name, spec, seed, out, runs, trace)
    checked = list({id(run): run for run in (*runs, reference, traced) if run}.values())

    problems = sorted({p for run in checked for p in run.get("problems", [])})
    good = [run for run in runs if "crashed" not in run and not run["problems"]]
    attempted = sum(run.get("ops") or 1 for run in runs)
    failed_ops = (sum(run.get("ops") or 1 for run in runs if "crashed" in run or run["problems"])
                  + sum(run.get("crashed_ops", 0) for run in good))
    fusion_errors = sum(sum(run.get("edge_errors", {}).values()) for run in good)
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "conditions": conditions(),
        "run_count": len(runs),
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed_ops,
        "crashes": [run["crashed"] for run in checked if "crashed" in run],
        "outputs": {"hashes": (good or runs)[0].get("hashes"),
                    **{key: reference.get(key) for key in
                       ("ops", "results_sha256", "tally", "edge_errors")}},
        "samples": [{key: run.get(key) for key in
                     ("wall_s", "peak_rss_mb", "setup_s", "ops", "request_p50_us",
                      "request_p99_us", "stderr_lines", "process_peak_rss_mb")} for run in runs],
        "setup_samples_s": setup,
    }
    # Runs that failed the gate are never timed; when every run raised, the
    # time to the failure is all there is to report.
    timed = good or [run for run in runs if not run["problems"]]
    if not timed:
        return record
    walls = [run["wall_s"] for run in timed]
    spread = {
        "setup_s": setup,
        "wall_s": walls,
        "peak_rss_mb": [run["peak_rss_mb"] for run in timed],
        "failed_ratio": [(fusion_errors + failed_ops) / attempted],
        "requests_per_s": [run["ops"] / run["wall_s"] for run in timed],
    }
    if spec["kind"] == "requests" and good:
        spread["request_p50_us"] = [run["request_p50_us"] for run in good]
        spread["request_p99_us"] = [run["request_p99_us"] for run in good]
    else:
        spread["request_p50_us"] = [wall * 1e6 for wall in walls]
        spread["request_p99_us"] = [p99(walls) * 1e6]
    record["end_to_end"] = {key: quartiles(values) for key, values in spread.items() if values}
    if traced is not None:
        layers = dict(traced.get("layers", {}))
        layers["cli.stderr_lines"] = timed[0]["stderr_lines"] if spec["kind"] == "cli" else 0
        if "crashed" not in traced and untraced_walls:
            layers["trace.overhead_s"] = traced["wall_s"] - statistics.median(untraced_walls)
        record["per_layer"] = layers
        record["trace_file"] = traced.get("trace_file")
    return record


def conditions() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True).stdout.strip() or None
        except OSError:
            pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "commit": commit}


def result_line(record: dict, bench: dict) -> dict:
    """The contract's JSON: every end_to_end (or per_layer) metric with its unit."""
    if record["trace"]:
        section, values = "per_layer", record["per_layer"]
    else:
        section = "end_to_end"
        values = {key: q["median"] for key, q in record["end_to_end"].items()}
    metrics = {}
    for metric in bench[section]:
        # a layer the workload bypasses did no work
        value = values.get(metric["name"], 0 if record["trace"] else None)
        if value is None:
            raise SystemExit(f"{record['workload']}: no value for metric {metric['name']}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"], "metrics": metrics}


def print_record(record: dict, bench: dict) -> None:
    name = record["workload"]
    section = "per_layer" if record["trace"] else "end_to_end"
    units = {metric["name"]: metric["unit"] for metric in bench[section]}
    if record["trace"]:
        for key, unit in units.items():
            print(f"{name:22s} {key:42s} {record.get('per_layer', {}).get(key, 0):>14.6g} {unit}")
    else:
        for key, unit in units.items():
            q = record["end_to_end"][key]
            print(f"{name:22s} {key:16s} {q['median']:>14.6g} {unit:6s} "
                  f"[q1 {q['q1']:.6g}, q3 {q['q3']:.6g}; n={q['n']}]")
    print(f"{name:22s} runs {record['run_count']}, attempted {record['attempted']}, "
          f"failed {record['failed']}, correct {record['correct']}")
    for problem in record["problems"]:
        print(f"{name:22s} CHECK FAILED: {problem}")
    for crash in record["crashes"]:
        print(f"{name:22s} run raised: {crash.strip().splitlines()[-1]}")


def on_alarm(signum, frame):
    raise TimeoutError(f"no result within {DEADLINE_S} s")


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*inputs.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "betatrust" / "__init__.py").is_file():
        print(f"no betatrust sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = ([workload["name"] for workload in bench["workloads"]] if args.workload == "all"
             else [args.workload])
    signal.signal(signal.SIGALRM, on_alarm)
    records = []
    for name in names:
        signal.alarm(DEADLINE_S)
        try:
            record = measure(name, args.seed, args.seconds, args.trace)
        finally:
            signal.alarm(0)
        results = WORK / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1))
        if "end_to_end" not in record:
            for problem in record["problems"]:
                print(f"{name}: CHECK FAILED: {problem}", file=sys.stderr)
            print(f"{name}: no run passed its checks; see {results}", file=sys.stderr)
            return 1
        print_record(record, bench)
        records.append(record)
    if len(records) == 1:
        print(json.dumps(result_line(records[0], bench)))
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":
    sys.exit(main())
