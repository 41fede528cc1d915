#!/usr/bin/env python3
"""Compare two google-benchmark JSON result files.

Usage:
    tools/compare_benchmarks.py BASELINE.json CANDIDATE.json
        [--threshold PCT] [--filter REGEX] [--metric METRIC]
    tools/compare_benchmarks.py
        {--service-report|--prob-report|--bound-report} RESULTS.json
        [--min-speedup X]

Pairs benchmark records by name (e.g. "BM_ZbddReplicated/6/4") and prints
one line per pair with the baseline time, the candidate time and the
relative change. Exits 1 when any matched benchmark regressed by more than
--threshold percent (default 20), 0 otherwise; benchmarks present in only
one file are listed but never fail the comparison, and two files with no
benchmark in common compare clean with a warning (a new suite simply has
no baseline yet).

--service-report, --prob-report and --bound-report each read ONE results
file (bench_results/BENCH_service.json, BENCH_prob.json, BENCH_bound.json)
and evaluate that report's rows of the GATES table below: every gate is a
numerator, a denominator, a minimum ratio and a minimum core count. Exits 1
when an evaluated gate misses its bar or names a record the file lacks. A
gate whose core count exceeds the recording's num_cpus is not evaluated,
and says so on stdout and stderr. --min-speedup X is the bar of the gates
that take it from the command line (the headline speed-up of each report;
0, the default, makes them report-only).

Results are only meaningful between files produced the same way (same
machine class, Release build -- see tools/run_benchmarks.sh). The files in
bench_results/ are the committed baselines for exactly this purpose:

    tools/run_benchmarks.sh bench_cutsets
    tools/compare_benchmarks.py bench_results/BENCH_cutsets.json \
        /tmp/new_cutsets.json --threshold 20
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass


def load_benchmarks(path: str, metric: str) -> dict[str, float]:
    """Returns {benchmark name: metric value}; aggregates keep only means."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    out: dict[str, float] = {}
    for record in data.get("benchmarks", []):
        # With repetitions google-benchmark emits per-repetition records plus
        # _mean/_median/_stddev aggregates; compare the mean when present.
        run_type = record.get("run_type", "iteration")
        if run_type == "aggregate" and record.get("aggregate_name") != "mean":
            continue
        name = record["name"]
        if run_type == "aggregate":
            name = name.rsplit("_", 1)[0]
        if metric not in record:
            continue
        out[name] = float(record[metric])
    return out


@dataclass(frozen=True)
class Gate:
    """`numerator / denominator` must reach `min_ratio`.

    An operand is a benchmark name (its time in the chosen --metric), a
    `name:counter` reference (a user counter of that record) or a plain
    number. `min_ratio` None takes the bar from --min-speedup (0 there
    makes the gate report-only); 0 is always report-only. `cores` is the
    least `num_cpus` a recording needs for the ratio to mean anything.
    """

    label: str
    numerator: str | float
    denominator: str | float
    min_ratio: float | None = None
    cores: int = 1


# One table per report. Each report reads ONE results file.
GATES: dict[str, list[Gate]] = {
    # bench/bench_service.cpp: the warm daemon against a cold process per
    # request (CI bar: 5x); the disk-cache cold start is shown, not gated.
    "service": [
        Gate("BbwAnalyse cold/warm", "BM_ServiceBbwAnalyseColdProcess",
             "BM_ServiceBbwAnalyseWarmDaemon"),
        Gate("BbwAnalyse cold+disk/warm",
             "BM_ServiceBbwAnalyseColdWithDiskCache",
             "BM_ServiceBbwAnalyseWarmDaemon", 0.0),
        Gate("BbwFmea cold/warm", "BM_ServiceBbwFmeaColdProcess",
             "BM_ServiceBbwFmeaWarmDaemon"),
    ],
    # bench/bench_prob.cpp: cut-set path against diagram path on the
    # truncated fixture, where extraction dominates; BBW is the honesty
    # axis (a clean run costs the same in both modes), report-only.
    "prob": [
        Gate("truncated cutsets/diagram", "BM_AnalyseCutsets",
             "BM_AnalyseDiagram"),
        Gate("Bbw cutsets/diagram (honesty axis, ~1x)",
             "BM_AnalyseBbwCutsets", "BM_AnalyseBbwDiagram", 0.0),
    ],
    # bench/bench_bound.cpp: every epsilon point converges to a width of
    # at most 1e-3 inside 2000 ms; the ZBDD run, given ten times the node
    # budget, still truncates (if it ever completes, the fixture no longer
    # shows the gap and needs regrowing); the tightest point beats it by
    # --min-speedup.
    "bound": [
        *(
            gate
            for e in (2, 4, 6)
            for gate in (
                Gate(f"/{e} converged",
                     f"BM_BoundFrontierConverge/{e}:converged", 1.0, 1.0),
                Gate(f"/{e} width <= 1e-3", 1e-3,
                     f"BM_BoundFrontierConverge/{e}:width", 1.0),
                Gate(f"/{e} time <= 2000 ms", 2000.0,
                     f"BM_BoundFrontierConverge/{e}", 1.0),
            )
        ),
        Gate("zbdd at 10x node budget truncates",
             "BM_ZbddTenXNodeBudget:truncated", 1.0, 1.0),
        Gate("truncated zbdd / tightest bound", "BM_ZbddTenXNodeBudget",
             "BM_BoundFrontierConverge/6"),
    ],
}


def load_records(path: str) -> tuple[dict[str, dict], int]:
    """Returns ({name: record}, num_cpus) for the per-iteration records."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    records = {
        record["name"]: record
        for record in data.get("benchmarks", [])
        if record.get("run_type", "iteration") != "aggregate"
    }
    return records, int(data.get("context", {}).get("num_cpus", 0))


MS_PER_UNIT = {"ns": 1e-6, "us": 1e-3, "ms": 1.0, "s": 1e3}


def operand(records: dict[str, dict], ref: str | float, metric: str) -> float:
    """A gate operand's value; benchmark times are in milliseconds."""
    if not isinstance(ref, str):
        return float(ref)
    name, _, counter = ref.partition(":")
    if name not in records:
        raise KeyError(name)
    record = records[name]
    if counter:
        return float(record[counter])
    return float(record[metric]) * MS_PER_UNIT[record.get("time_unit", "ns")]


def gate_report(report: str, path: str, metric: str, min_speedup: float) -> int:
    """Evaluates GATES[report] against one results file."""
    records, num_cpus = load_records(path)
    failures = []
    skipped = []
    width = max(len(gate.label) for gate in GATES[report])
    print(f"{'gate':<{width}}  {'ratio':>10}  {'bar':>6}  verdict")
    for gate in GATES[report]:
        bar = min_speedup if gate.min_ratio is None else gate.min_ratio
        if gate.cores > num_cpus:
            skipped.append(f"{gate.label}: not evaluated: needs {gate.cores} "
                           f"cores, recorded on {num_cpus}")
            print(f"{gate.label:<{width}}  NOT EVALUATED: needs {gate.cores} "
                  f"cores, recorded on {num_cpus}")
            continue
        try:
            top = operand(records, gate.numerator, metric)
            bottom = operand(records, gate.denominator, metric)
        except KeyError as missing:
            failures.append(f"{gate.label}: no {missing} record in {path}")
            continue
        ratio = top / bottom if bottom > 0 else float("inf")
        verdict = "report only" if bar <= 0 else (
            "ok" if ratio >= bar else "FAILED")
        print(f"{gate.label:<{width}}  {ratio:>10.3g}  {bar:>6.3g}  {verdict}")
        if verdict == "FAILED":
            failures.append(f"{gate.label}: {ratio:.3g} below {bar:.3g}")
    for line in skipped:
        print(f"WARNING: {line}", file=sys.stderr)
    if failures:
        print(f"\n{len(failures)} {report} gate(s) failed:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\nok: every evaluated {report} gate passed"
          + (f" ({len(skipped)} not evaluated)" if skipped else ""))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Diff two google-benchmark JSON files."
    )
    parser.add_argument(
        "baseline", nargs="?", help="committed reference JSON"
    )
    parser.add_argument(
        "candidate", nargs="?", help="freshly measured JSON"
    )
    parser.add_argument(
        "--service-report",
        metavar="RESULTS",
        help="report daemon warm-vs-cold latency from one "
        "BENCH_service.json instead of diffing two files",
    )
    parser.add_argument(
        "--prob-report",
        metavar="RESULTS",
        help="report cut-set-path vs diagram-path analyse latency from one "
        "BENCH_prob.json instead of diffing two files",
    )
    parser.add_argument(
        "--bound-report",
        metavar="RESULTS",
        help="report anytime-bound convergence vs the truncated ZBDD run "
        "from one BENCH_bound.json instead of diffing two files",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        metavar="X",
        help="with --service-report (--prob-report, --bound-report): fail "
        "when any workload's cold/warm (cutsets/diagram, zbdd/bound) ratio "
        "is below X (default: report only)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=20.0,
        metavar="PCT",
        help="fail when a benchmark slows down by more than PCT%% "
        "(default: %(default)s)",
    )
    parser.add_argument(
        "--filter",
        default="",
        metavar="REGEX",
        help="only compare benchmarks whose name matches REGEX",
    )
    parser.add_argument(
        "--metric",
        default="real_time",
        choices=["real_time", "cpu_time"],
        help="which per-iteration time to compare (default: %(default)s)",
    )
    args = parser.parse_args()

    for report in GATES:
        path = getattr(args, f"{report}_report")
        if path:
            return gate_report(report, path, args.metric, args.min_speedup)
    if args.baseline is None or args.candidate is None:
        parser.error(
            "BASELINE and CANDIDATE are required unless "
            "--service-report/--prob-report/--bound-report"
        )

    baseline = load_benchmarks(args.baseline, args.metric)
    candidate = load_benchmarks(args.candidate, args.metric)
    if args.filter:
        pattern = re.compile(args.filter)
        baseline = {k: v for k, v in baseline.items() if pattern.search(k)}
        candidate = {k: v for k, v in candidate.items() if pattern.search(k)}

    shared = sorted(set(baseline) & set(candidate))
    if not shared:
        # A brand-new benchmark suite has no committed baseline yet (and a
        # retired one no candidate). That is routine, not an error: warn,
        # list the one-sided names, and let the comparison pass so adding a
        # bench_*.cpp never breaks CI by itself.
        print(
            "warning: no benchmarks in common; nothing to compare",
            file=sys.stderr,
        )
        for name in sorted(set(baseline) | set(candidate)):
            side = "baseline" if name in baseline else "candidate"
            print(f"  {name}: only in {side} (skipped)", file=sys.stderr)
        return 0

    width = max(len(name) for name in shared)
    regressions = []
    print(f"{'benchmark':<{width}}  {'baseline':>12}  {'candidate':>12}  change")
    for name in shared:
        base = baseline[name]
        cand = candidate[name]
        change = (cand / base - 1.0) * 100.0 if base > 0 else 0.0
        flag = ""
        if change > args.threshold:
            flag = "  REGRESSED"
            regressions.append((name, change))
        print(
            f"{name:<{width}}  {base:>12.1f}  {cand:>12.1f}  "
            f"{change:+7.1f}%{flag}"
        )

    for name in sorted(set(baseline) ^ set(candidate)):
        side = "baseline" if name in baseline else "candidate"
        print(f"{name}: only in {side} (skipped)")

    if regressions:
        print(
            f"\n{len(regressions)} benchmark(s) regressed beyond "
            f"{args.threshold:.0f}%:",
            file=sys.stderr,
        )
        for name, change in regressions:
            print(f"  {name}: {change:+.1f}%", file=sys.stderr)
        return 1
    print(f"\nok: no regression beyond {args.threshold:.0f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
