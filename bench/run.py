#!/usr/bin/env python3
"""Benchmark of the sftreturns command line: set-up, analyze, simulate, validate.

    python3 bench/run.py --workload random-spectral --seed 1 --seconds 55 --trace 0

One run generates the workload's configs from ``--seed``, then repeats
whole rounds for about ``--seconds`` seconds.  A round times the set-up
(``cli.load_config`` plus ``cli.build_bundle``) of every config, then runs
``analyze``, ``simulate`` and ``validate`` on each config in-process through
``cli.main``.  Outputs of the first round are checked against independent
reference values (``checks.py``); later rounds must reproduce them byte for
byte.  A timing is the median over rounds of the round's sum over configs,
in host-speed-normalised seconds (``Timer``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
program's public functions in spans (``tracing.py``) and prints per-layer
metrics instead.  The last line of standard output is one JSON object.
``--workload all`` runs every workload untraced and traced, each in its own
process, and prints a summary with the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

import numpy as np  # noqa: E402

import checks  # noqa: E402  (the benchmark directory is on sys.path as the script's own)
import tracing  # noqa: E402
import workloads  # noqa: E402

# Invocations per config in one round: (set-up, analyze, simulate, validate).
# Short steps repeat so that each has many samples in a run; the set-up is a
# few milliseconds.
REPEATS = {
    "random-spectral": (10, 1, 1, 1),
    "tail-full2": (40, 10, 3, 2),
}


# The speed probe's time on the 2-CPU host the README's figures come from.
REFERENCE_PROBE_S = 0.006
PROBE_MATRIX = np.random.default_rng(0).random((9, 9)) + 0.1


def speed_probe() -> float:
    """Wall time of a fixed piece of interpreter and small-array work, about 6 ms.

    Its mix is the program's: Python integer and dict operations, and numpy
    calls on 9-vectors.  Run next to a timed step, it reads how fast the host
    is running this process at that moment.
    """
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(20_000):
        acc += (i * 7919) % 13
        table[i & 255] = acc
    v = np.ones(9)
    for _ in range(400):
        v = PROBE_MATRIX @ v
        v = v / v.sum()
    return time.perf_counter() - start


class Timer:
    """Times steps in host-speed-normalised seconds.

    A step's wall time is scaled by REFERENCE_PROBE_S over the mean of the
    speed probes run just before and just after it, so it reads as the wall
    time on the reference host.  On a shared host the speed of this process
    changes by up to 35% from one minute to the next and by more between
    seconds (other tenants contend for the cores and caches); the probe slows
    with it.  Over six 55 s runs of random-spectral, the quartile spread of
    analyze_s and validate_s was 0.115 and 0.158 of the median in wall time,
    and 0.019 and 0.054 normalised.  Each sample also keeps its wall time.
    """

    def __init__(self):
        self.last_probe = speed_probe()

    def time(self, step):
        """((normalised seconds, wall seconds), return value) of ``step()``."""
        before = self.last_probe
        start = time.perf_counter()
        value = step()
        wall = time.perf_counter() - start
        self.last_probe = speed_probe()
        return (wall * REFERENCE_PROBE_S / (0.5 * (before + self.last_probe)), wall), value


@dataclass
class Round:
    # samples are (normalised seconds, wall seconds)
    setup_s: dict[str, list[tuple[float, float]]]                 # per case
    command_s: dict[tuple[str, str], list[tuple[float, float]]]   # per (case, command)
    outcomes: list[tuple[str, str, int, str]]
    spans: list = field(default_factory=list)


def median_round_sum(rounds, attr: str, select=lambda key: True, wall=False) -> float:
    """Median over the run's rounds of the round's total, a step repeated in a round counting its median.

    Normalised seconds unless ``wall``.  The medians drop samples and rounds
    that a spell of contention slowed more than the probes next to them.
    """
    keys = [k for k in getattr(rounds[0], attr) if select(k)]
    return statistics.median(sum(statistics.median(x[wall] for x in getattr(r, attr)[k]) for k in keys)
                             for r in rounds)


def load_program():
    """Import sftreturns from the checkout's ``src``; exit 2 when it is absent."""
    if not (SRC / "sftreturns" / "__init__.py").is_file():
        print(f"bench: no sftreturns sources under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import sftreturns
    import sftreturns.cli

    if Path(sftreturns.__file__).resolve().parent != (SRC / "sftreturns").resolve():
        print(f"bench: imported sftreturns from {sftreturns.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return sftreturns


def invoke(cli, command: str, config: Path, out: Path) -> tuple[int, str]:
    """Exit code and last stderr line of one ``sftreturns`` command."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main([command, "--config", str(config), "--out", str(out), "--clip-grid"])
    except Exception:  # a crash is a failed invocation, reported with its traceback
        code = -1
        err.write(traceback.format_exc())
    lines = err.getvalue().strip().splitlines()
    return code, lines[-1] if lines else ""


def run_round(cli, cases, paths, repeats, tracer) -> Round:
    first_span = len(tracer.spans) if tracer else 0
    timer = Timer()
    setup_repeats, *command_repeats = repeats
    setup_s = {}
    for case, path in zip(cases, paths):
        setup_s[case.name] = []
        for _ in range(setup_repeats):
            sample, _ = timer.time(lambda: cli.build_bundle(cli.load_config(path, None, None)))
            setup_s[case.name].append(sample)
    command_s = {}
    outcomes = []
    for case, path in zip(cases, paths):
        for command, count in zip(workloads.COMMANDS, command_repeats):
            command_s[case.name, command] = []
            for _ in range(count):
                sample, (code, message) = timer.time(lambda: invoke(cli, command, path, path.parent / command))
                command_s[case.name, command].append(sample)
                outcomes.append((case.name, command, code, message))
    return Round(setup_s, command_s, outcomes, tracer.spans[first_span:] if tracer else [])


def snapshot(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


def verify_first_round(cases, paths, outcomes, expected) -> list[str]:
    problems = []
    checked = set()
    for name, command, code, message in outcomes:
        case = next(c for c in cases if c.name == name)
        want_code, want_message = case.expected(command)
        if (code, message) != (want_code, want_message):
            problems.append(f"{name} {command}: exit {code} {message!r}, "
                            f"expected exit {want_code} {want_message!r}")
        elif code == 0 and (name, command) not in checked:
            checked.add((name, command))
            out = paths[cases.index(case)].parent / command
            problems += [f"{name} {command}: {p}" for p in checks.check_output(command, out, expected[name])]
    return problems


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer figures of one round's spans (counts exact, times in seconds)."""
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    own = tracing.self_times(spans)

    def total(name):
        return sum(s.duration for s in by_name.get(name, []))

    def self_s(layer):
        return sum(own[s.id] for s in spans if s.name.split(".", 1)[0] == layer)

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name.get(name, []) if s.attrs)

    rate_points = len(by_name.get("deviations.rate_function", []))
    under_rate = tracing.has_ancestor(spans, "deviations.rate_function")
    evals = by_name.get("return_op.ReturnOperator.eval", [])
    laws = by_name.get("oracle.first_return_law", [])
    returns_s = total("montecarlo.sample_return_times")
    visits_s = total("montecarlo.visit_counts")
    return {
        "perron.solves": len(by_name.get("perron.perron_eigendata", [])),
        "perron.iterations": attr_sum("perron.perron_eigendata", "iterations"),
        "perron.solve_s": total("perron.perron_eigendata"),
        "return_op.builds": len(by_name.get("return_op.ReturnOperator.__init__", [])),
        "return_op.evals": len(evals),
        "return_op.eval_s": total("return_op.ReturnOperator.eval"),
        "return_op.derivative_calls": len(by_name.get("return_op.ReturnOperator.eval_with_derivative", [])),
        "return_op.derivative_s": total("return_op.ReturnOperator.eval_with_derivative"),
        "deviations.rate_points": rate_points,
        "deviations.evals_per_rate_point": sum(s.id in under_rate for s in evals) / max(rate_points, 1),
        "deviations.rate_s": total("deviations.rate_function"),
        "deviations.variance_reports": len(by_name.get("deviations.variance_report", [])),
        "deviations.variance_report_s": total("deviations.variance_report"),
        "thermo.gibbs_chains": len(by_name.get("thermo.gibbs_chain", [])),
        "thermo.restricted_spectra": len(by_name.get("thermo.restricted_spectrum", [])),
        "thermo.self_s": self_s("thermo"),
        "oracle.laws": len(laws),
        "oracle.law_t_max": max((s.attrs["t_max"] for s in laws if s.attrs), default=0),
        "oracle.law_kernel_bytes": attr_sum("oracle.first_return_law", "kernel_bytes"),
        "oracle.self_s": self_s("oracle"),
        "montecarlo.return_samples_per_s": attr_sum("montecarlo.sample_return_times", "samples") / returns_s,
        "montecarlo.return_msteps_per_s": attr_sum("montecarlo.sample_return_times", "steps") / returns_s / 1e6,
        "montecarlo.visit_msteps_per_s": attr_sum("montecarlo.visit_counts", "steps") / visits_s / 1e6,
        "system.recode_s": total("system.recode_higher_block"),
        "cli.self_s": self_s("cli"),
        "trace.spans": len(spans),
    }


COUNTS = {
    "perron.solves", "perron.iterations", "return_op.builds", "return_op.evals",
    "return_op.derivative_calls", "deviations.rate_points", "deviations.evals_per_rate_point",
    "deviations.variance_reports", "thermo.gibbs_chains", "thermo.restricted_spectra",
    "oracle.laws", "oracle.law_t_max", "oracle.law_kernel_bytes", "trace.spans",
}


def unit(name: str) -> str:
    if name in COUNTS:
        return "bytes" if name.endswith("_bytes") else "count"
    if name.endswith("_per_s"):
        return "1/s" if "samples" in name else "Msteps/s"
    return "s"


def run_workload(args) -> int:
    package = load_program()
    cli = package.cli
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(package)
    cases = workloads.WORKLOADS[args.workload](args.seed)
    workdir = OUT / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    paths = []
    for case in cases:
        path = workdir / case.name / "config.json"
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(case.config, indent=1), encoding="utf-8")
        paths.append(path)
    expected = {c.name: checks.Expected(c.config, closed_form=args.workload == "tail-full2") for c in cases}

    repeats = REPEATS[args.workload]
    start = time.perf_counter()
    rounds = [run_round(cli, cases, paths, repeats, tracer)]
    measured = time.perf_counter() - start
    problems = verify_first_round(cases, paths, rounds[0].outcomes, expected)
    reference_outputs = snapshot(workdir)
    # start another whole round while it should end less than half a round past --seconds
    while measured + 0.5 * measured / len(rounds) < args.seconds:
        start = time.perf_counter()
        rounds.append(run_round(cli, cases, paths, repeats, tracer))
        measured += time.perf_counter() - start
        if rounds[-1].outcomes != rounds[0].outcomes:
            problems.append(f"round {len(rounds)} outcomes differ from round 1")
        if snapshot(workdir) != reference_outputs:
            problems.append(f"round {len(rounds)} outputs differ from round 1")
    attempted = sum(len(r.outcomes) for r in rounds)
    failed = sum(code != 0 for r in rounds for _, _, code, _ in r.outcomes)

    for c in workloads.COMMANDS:
        wall = median_round_sum(rounds, "command_s", lambda key, c=c: key[1] == c, wall=True)
        print(f"{args.workload} {c} wall time = {wall:.6g} s (not normalised)")
    if tracer is None:
        metrics = {
            "setup_s": median_round_sum(rounds, "setup_s"),
            **{f"{c}_s": median_round_sum(rounds, "command_s", lambda key, c=c: key[1] == c) for c in workloads.COMMANDS},
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {name: ("MiB" if name == "peak_rss_mib" else "s") for name in metrics}
    else:
        layers = [layer_metrics(r.spans) for r in rounds]
        for k, layer in enumerate(layers[1:], start=2):
            drift = [n for n in COUNTS if layer[n] != layers[0][n]]
            if drift:
                problems.append(f"round {k} counts differ from round 1: {drift}")
        metrics = {n: (layers[0][n] if n in COUNTS else statistics.median(x[n] for x in layers)) for n in layers[0]}
        metrics["trace.command_s"] = median_round_sum(rounds, "command_s")
        units = {n: unit(n) for n in metrics}
        tracer.write(workdir / "spans.csv")

    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} rounds = {len(rounds)}, invocations attempted = {attempted}, failed = {failed}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload untraced and traced, one process each, with the tracing overhead."""
    load_program()
    summary = {}
    for name in workloads.WORKLOADS:
        results = []
        for traced in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(traced)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
            sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        plain, traced_run = results
        untraced = sum(plain["metrics"][f"{c}_s"]["value"] for c in workloads.COMMANDS)
        overhead = traced_run["metrics"]["trace.command_s"]["value"] / untraced - 1.0
        print(f"{name} tracing overhead = {100.0 * overhead:.1f} % of command time")
        summary[name] = {"untraced": plain, "traced": traced_run, "tracing_overhead": overhead}
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
