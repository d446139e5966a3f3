#!/usr/bin/env python3
"""Benchmark of the `pompeiu` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--runs K] [--seed N] ...

Run from the root of a source checkout; `src/pompeiu` is imported from it.
Each command of a workload is one `pompeiu.cli.main(argv)` call in this
process, run one after another in a closed loop at width 1. Whole rounds of
the workload's commands run until `--seconds` have passed, and every output
is checked (see checks.py). The last line printed is one JSON object:
correct, attempted, failed and the metrics, which are the end-to-end
metrics with `--trace 0` and the per-layer metrics of a traced run with
`--trace 1`. A traced run first runs one round untraced, then traced rounds
whose outputs must be byte-identical to it. `--workload all` runs every
workload in fresh processes and prints medians and quartiles.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 4            # extra set-ups in fresh processes, for the median
PROBE_REFERENCE_S = 0.0045  # host-probe time of the host that times are scaled to
SAMPLE_PERIOD_S = 0.1       # host-probe period while a command runs
WORKLOAD_NAMES = ["finite-sweep-suite", "finite-check-pairs",
                  "euclid-polytope-scan", "euclid-radial-witnesses"]


class SetupError(RuntimeError):
    """The checkout has no `pompeiu` sources to benchmark."""


class HostProbe:
    """Times a fixed mix of rational arithmetic in pure Python and complex
    elementwise numpy math, the two kinds of work the program does.

    The host's speed moves by up to half within a minute, for all code
    alike (a fixed loop ran 64 ms, then 95 ms, on an idle machine). Timed
    before and after every command, and every SAMPLE_PERIOD_S while one
    runs, the probe tracks that speed, and times scaled by
    PROBE_REFERENCE_S / probe time compare across it."""

    def __init__(self):
        import numpy as np
        self._np = np
        self._z = np.linspace(0.1, 30.0, 20_000).astype(complex)
        self()                  # the first call pays for numpy's lazy set-up

    def __call__(self) -> float:
        t0 = time.perf_counter()
        total = Fraction(0)
        for i in range(1, 600):
            total += Fraction(1, i % 97 + 1)
        self._np.abs(self._np.sin(self._z) / self._z).sum()
        return time.perf_counter() - t0

    def timed(self, fn, sample: bool = True):
        """Run fn(); return (its result, its seconds without the probes,
        the probe times taken while it ran). With sample false no probe
        runs during fn, as in traced rounds, whose spans it would lengthen."""
        samples = []

        def on_alarm(signum, frame):
            samples.append(self())

        if sample:
            previous = signal.signal(signal.SIGALRM, on_alarm)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        try:
            t0 = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - t0
        finally:
            if sample:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        return result, seconds - sum(samples), samples

    def median(self, calls: int = 5) -> float:
        return statistics.median(self() for _ in range(calls))


def setup(workload: str, seed: int, workdir: Path):
    """Import `pompeiu.cli` from the checkout and write the workload's spec
    files. Returns (cli module, commands, seconds taken)."""
    t0 = time.perf_counter()
    if not (SRC / "pompeiu" / "cli.py").is_file():
        raise SetupError(f"no pompeiu sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import pompeiu.cli as cli
    if Path(cli.__file__).resolve().parent != SRC / "pompeiu":
        raise SetupError(f"pompeiu imported from {cli.__file__}, not {SRC}")
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    workdir.mkdir(parents=True, exist_ok=True)
    commands = WORKLOADS[workload].build(seed, workdir)
    return cli, commands, time.perf_counter() - t0


def setup_in_fresh_process(workload: str, seed: int) -> tuple[float, float]:
    """(set-up seconds, host-probe seconds) of a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SetupError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
    seconds, probe = proc.stdout.split()
    return float(seconds), float(probe)


def machine() -> dict:
    import numpy
    import scipy
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


class Runner:
    """Runs rounds of commands and keeps the counts and timings."""

    def __init__(self, cli, commands, probe: HostProbe):
        self.cli = cli
        self.commands = commands
        self.probe = probe
        self.probe_s: list[float] = []
        self.probe_total_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = 0              # outputs that failed their check
        self.problems: list[str] = []
        self.work = 0               # of the commands that succeeded
        self.command_s = 0.0        # their time
        self.scaled_s = 0.0         # their time scaled by the host probe
        self.by_label: dict[str, float] = {}

    def _main(self, argv):
        try:
            return self.cli.main(argv)
        except Exception as exc:    # a crash fails the command, not the run
            return f"{type(exc).__name__}: {exc}"

    def round(self, tracer=None, reference=None) -> tuple[float, list]:
        """One round; returns its command time scaled by the host probe and
        each command's output bytes. With a reference, outputs must equal it
        byte for byte. The probe runs before and after every command and,
        except in traced rounds, while it runs."""
        from checks import CheckError, file_digest
        round_s, digests = 0.0, []
        before = self.probe()
        self.probe_total_s += before
        for i, cmd in enumerate(self.commands):
            if tracer is not None:
                tracer.command += 1
            self.attempted += 1
            code, dt, during = self.probe.timed(lambda: self._main(cmd.argv),
                                                sample=tracer is None)
            after = self.probe()
            probes = [before, *during, after]
            self.probe_s.extend(probes[1:])
            self.probe_total_s += sum(probes[1:])
            scaled = dt * PROBE_REFERENCE_S / statistics.fmean(probes)
            before = after
            round_s += scaled
            self.by_label[cmd.label] = self.by_label.get(cmd.label, 0.0) + dt
            if code != 0:
                self.failed += 1
                self.problems.append(f"{cmd.label}: exit {code}")
                digests.append(None)
                continue
            try:
                cmd.check()
                digests.append(file_digest(cmd.outputs))
                if reference is not None and digests[-1] != reference[i]:
                    raise CheckError("traced output differs from the untraced run")
            except CheckError as exc:
                self.failed += 1
                self.wrong += 1
                self.problems.append(f"{cmd.label}: {exc}")
                continue
            self.work += cmd.work
            self.command_s += dt
            self.scaled_s += scaled
        return round_s, digests


def run_workload(args) -> tuple[dict, dict]:
    os.environ.pop("POMPEIU_THREADS", None)
    RESULTS.mkdir(exist_ok=True)
    samples = [setup_in_fresh_process(args.workload, args.seed)
               for _ in range(SETUP_PROBES)]
    workdir = RESULTS / f"work-{args.workload}-{os.getpid()}"
    try:
        cli, commands, own_setup = setup(args.workload, args.seed, workdir)
        probe = HostProbe()
        samples.append((own_setup, probe.median()))
        runner = Runner(cli, commands, probe)
        t_start = time.perf_counter()
        rounds = 0
        trace = tracer = None
        if not args.trace:
            while rounds == 0 or time.perf_counter() - t_start < args.seconds:
                runner.round()
                rounds += 1
            metrics = {
                "work_per_s": {"value": runner.work / runner.scaled_s
                               if runner.scaled_s else 0.0, "unit": "items/s"},
                "setup_s": {"value": statistics.median(
                    s * PROBE_REFERENCE_S / p for s, p in samples), "unit": "s"},
                "peak_rss_mb": {"value": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
            }
        else:
            from tracer import Tracer
            untraced_s, reference = runner.round()
            tracer = Tracer()
            tracer.install()
            traced_s, wall_s = 0.0, runner.probe_total_s
            try:
                while rounds == 0 or time.perf_counter() - t_start < args.seconds:
                    t0 = time.perf_counter()
                    traced_s += runner.round(tracer, reference)[0]
                    wall_s += time.perf_counter() - t0
                    rounds += 1
            finally:
                tracer.uninstall()
            wall_s -= runner.probe_total_s      # net of the probes, run outside spans
            metrics = tracer.metrics(rounds)
            in_spans = tracer.top_level_seconds()
            trace = {"untraced_round_s": untraced_s, "traced_round_s": traced_s / rounds,
                     "overhead_share": traced_s / rounds / untraced_s - 1.0,
                     "wall_s": wall_s, "span_share": in_spans / wall_s,
                     "layer_share": (in_spans - tracer.self_time["cli"]) / wall_s,
                     "spans": len(tracer.start)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": runner.wrong == 0, "attempted": runner.attempted,
              "failed": runner.failed, "metrics": metrics}
    from workloads import WORKLOADS
    record = dict(
        result, workload=args.workload, seed=args.seed, seconds=args.seconds,
        rounds=rounds, commands_per_round=len(commands),
        work_per_round=sum(c.work for c in commands),
        unit_of_work=WORKLOADS[args.workload].unit,
        unscaled_work_per_s=runner.work / runner.command_s if runner.command_s else 0.0,
        setup_samples_s=[s for s, _ in samples],
        host_probe_median_s=statistics.median(
            runner.probe_s + [p for _, p in samples]),
        command_seconds=runner.by_label, problems=runner.problems[:20],
        machine=machine(), trace=trace)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write_spans(stem.with_suffix(".spans.jsonl.gz"))
    return result, record


def report(result: dict, record: dict) -> None:
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{record['rounds']} rounds, attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    for name, m in result["metrics"].items():
        print(f"  {name:45s} {m['value']:14.6g} {m['unit']}")
    print(f"  unscaled work_per_s {record['unscaled_work_per_s']:.6g} items/s, "
          f"host probe median {record['host_probe_median_s']:.4f} s")
    if record["trace"]:
        t = record["trace"]
        print(f"  scaled untraced round {t['untraced_round_s']:.3f} s, traced round "
              f"{t['traced_round_s']:.3f} s (overhead {t['overhead_share']:+.1%}); "
              f"{t['span_share']:.1%} of traced wall time in spans, "
              f"{t['layer_share']:.1%} below cli")
    m = record["machine"]
    print(f"  machine: nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}")


def run_all(args) -> int:
    """Every workload, each run in a fresh process, `--runs` seeds each."""
    summary, status = {}, 0
    for name in WORKLOAD_NAMES:
        values: dict[str, list] = {}
        units: dict[str, str] = {}
        attempted = failed = 0
        for seed in range(args.seed, args.seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            attempted += res["attempted"]
            failed += res["failed"]
            status |= 0 if res["correct"] else 1
            for metric, m in res["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
                units[metric] = m["unit"]
        print(f"{name}: {args.runs} runs, attempted {attempted}, failed {failed}")
        summary[name] = {"attempted": attempted, "failed": failed, "metrics": {}}
        for metric, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else 0.0
            summary[name]["metrics"][metric] = {
                "median": med, "q1": q1, "q3": q3, "iqr_share": spread,
                "unit": units[metric]}
            print(f"  {metric:40s} median {med:11.5g}  q1 {q1:11.5g}  q3 {q3:11.5g} "
                  f"{units[metric]:12s} iqr/median {spread:.3f}")
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="with --workload all: runs per workload, seeds "
                             "SEED, SEED+1, ...")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_probe:
            workdir = RESULTS / f"probe-{os.getpid()}"
            try:
                seconds = setup(args.workload, args.seed, workdir)[2]
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(seconds, HostProbe().median())
            return 0
        if args.workload == "all":
            return run_all(args)
        result, record = run_workload(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
