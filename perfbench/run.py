#!/usr/bin/env python3
"""Benchmark of the ``discretefdr`` command line: analyze, simulate, tune.

Run from the root of a checkout::

    python3 perfbench/run.py --workload analyze-bin --seed 1 --seconds 20 --trace 0

The benchmark writes the workload's inputs from ``--seed`` (see
``workloads.py``), then drives ``discretefdr.cli.main(argv)`` in a
closed loop: one client, one command after another, single-threaded, on
the package's numpy path. Threaded runs (``--workers > 1``) are left
out: on a small shared machine they measure the scheduler.

``--trace 0`` reports the end-to-end metrics:

* ``work_per_s``: work completed per second, from the median time of
  the commands run after one warm-up run. The work is features for the
  analyze workloads (printed as ``features_per_s``), replications for
  simulate (``replications_per_s``) and grid points x B bootstrap
  resamples for tune (``resamples_per_s``).
* ``setup_s``: median time, over several fresh interpreters, to
  ``import discretefdr`` and run ``warm_up()``.
* ``peak_rss_mb``: peak resident memory of a fresh interpreter running
  the workload's command once.

Both times are stated at a nominal machine speed (``calibrate.py``),
because the wall clock of a shared host drifts too much to compare runs
minutes apart; the wall-clock figures are printed and recorded as well.

``--trace 1`` alternates plain and traced runs of the command and
reports the per-layer metrics of ``tracing.py`` (medians over the traced
runs for times; counts, which must repeat exactly, from the warm-up).

Every command run is checked (``checks.py``); a failed check, a nonzero
exit or an ``error:`` line counts the run as failed. Runs of one seed
must write byte-identical data outputs. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a fuller record (samples, quartiles, input properties,
output digests, machine) is written to ``--results``, by default
``.perfbench/results``, for ``compare.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from calibrate import at_nominal_speed, calibration_s
from checks import check_outputs, check_run, digests, load_outputs
from tracing import SELF_TIMES, Tracer
from workloads import WORKLOADS, write_inputs

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 60
WORK_NAMES = {
    "features": "features_per_s",
    "replications": "replications_per_s",
    "resamples": "resamples_per_s",
}


def quartiles(values: list[float]) -> dict:
    """Median, first and third quartile (``statistics.quantiles``) and n."""
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


class Runner:
    """Runs one workload's command and keeps the tally of failures."""

    def __init__(self, package, workload, argv: list[str], work_dir: str):
        self.package = package
        self.workload = workload
        self.argv = argv
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict[str, str] | None = None
        self.digests_failed = False
        self.outputs: dict = {}
        self.output_bytes = 0

    def _record(self, problems: list[str], out_dir: str) -> bool:
        """Check one finished run's outputs; True when it passed."""
        if not problems:
            found = digests(out_dir)
            if self.digests is None:
                problems = check_outputs(self.workload.command, out_dir)
                self.digests = found
                self.digests_failed = bool(problems)
                self.outputs = {} if problems else load_outputs(out_dir)
                self.output_bytes = sum(
                    os.path.getsize(os.path.join(out_dir, name))
                    for name in os.listdir(out_dir)
                )
            elif found != self.digests:
                problems = ["data outputs differ between runs of one seed"]
            elif self.digests_failed:
                self.failed += 1  # the same outputs as the run whose check failed
                return False
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return not problems

    def command(self, tracer: Tracer | None = None) -> float | None:
        """Run the command in this process; its wall time, None if it failed."""
        out_dir = os.path.join(self.work_dir, "out")
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = self.argv + ["--out", out_dir]
        cli = self.package.cli
        stderr = io.StringIO()
        self.attempted += 1
        elapsed = None
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                if tracer is None:
                    start = time.perf_counter()
                    code = cli.main(argv)
                    elapsed = time.perf_counter() - start
                else:
                    with tracer.installed(self.package):
                        code = tracer.run(cli.main, argv)
                    elapsed = tracer.command_s()
            problems = check_run(code, stderr.getvalue())
        except Exception:  # a crashing command is a failed run, not a crashed benchmark
            problems = [traceback.format_exc(limit=3)]
        return elapsed if self._record(problems, out_dir) else None

    def probe(self, with_command: bool) -> dict | None:
        """Run ``child.py`` in a fresh interpreter; its report, None on failure."""
        out_dir = os.path.join(self.work_dir, "child-out")
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = self.argv + ["--out", out_dir] if with_command else []
        env = dict(os.environ, PYTHONPATH=os.path.dirname(self.package.__path__[0]))
        if with_command:
            self.attempted += 1
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "child.py"), *argv],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, env=env,
            )
            report = json.loads(proc.stdout.splitlines()[-1])
            problems = check_run(proc.returncode, proc.stderr)
        except (subprocess.TimeoutExpired, ValueError, IndexError) as exc:
            report, problems = None, [f"probe failed: {exc!r}"]
        if with_command:
            if report is not None:
                problems += check_run(report["exit_code"], proc.stderr)
            if not self._record(problems, out_dir):
                return None
        elif problems:
            self.problems.extend(problems)
            return None
        return report


def timed_run(runner: Runner, seconds: float, metrics_out: dict, record: dict) -> None:
    warm = Tracer()
    if runner.command(warm) is not None:
        record["input"] = warm.input_properties()
    record["absent"] = warm.absent
    work = runner.workload.work(runner.outputs) if runner.outputs else 0

    wall_setup, setup, rss_mb = [], [], 0.0
    before = calibration_s()
    for i in range(SETUP_PROBES):
        report = runner.probe(with_command=i == 0)
        after = calibration_s()
        if report is not None:
            wall_setup.append(report["setup_s"])
            setup.append(at_nominal_speed(report["setup_s"], (before + after) / 2))
            if i == 0:
                rss_mb = report["peak_rss_kb"] / 1024.0
        before = after

    wall, samples = [], []
    before = calibration_s()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        elapsed = runner.command()
        after = calibration_s()
        if elapsed is not None:
            wall.append(elapsed)
            samples.append(at_nominal_speed(elapsed, (before + after) / 2))
        before = after

    record["work"] = {"unit": runner.workload.unit, "per_command": work}
    record["samples"] = {
        "command_s": samples, "wall_command_s": wall,
        "setup_s": setup, "wall_setup_s": wall_setup,
    }
    record["summary"] = {
        name: quartiles(values) if values else None
        for name, values in (
            ("work_per_s", [work / s for s in samples]),
            ("wall_work_per_s", [work / s for s in wall]),
            ("setup_s", setup),
            ("wall_setup_s", wall_setup),
        )
    }
    metrics_out["work_per_s"] = work / statistics.median(samples) if samples else 0.0
    metrics_out["setup_s"] = statistics.median(setup) if setup else 0.0
    metrics_out["peak_rss_mb"] = rss_mb


def traced_run(runner: Runner, seconds: float, metrics_out: dict, record: dict) -> list:
    warm = Tracer()
    if runner.command(warm) is None:
        return []
    record["input"] = warm.input_properties()
    record["absent"] = warm.absent
    counts = warm.counts()

    plain, tracers = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        elapsed = runner.command()
        if elapsed is not None:
            plain.append(elapsed)
        tracer = Tracer()
        if runner.command(tracer) is not None:
            tracers.append(tracer)
    if not tracers:
        return []

    gaps = []
    for tracer in tracers:
        if tracer.counts() != counts:
            runner.problems.append("trace counts differ between runs of one seed")
        gaps.append(abs(sum(tracer.self_times().values()) - tracer.command_s()))
        if gaps[-1] > 1e-6 * tracer.command_s():
            runner.problems.append(f"layer self times miss the command time by {gaps[-1]:.3g} s")
    record["partition_gap_s"] = max(gaps)

    per_run = [t.self_times() for t in tracers]
    for name in SELF_TIMES:
        metrics_out[name] = statistics.median(r[name] for r in per_run)
    metrics_out.update(counts)
    metrics_out["cli.output_bytes"] = runner.output_bytes
    metrics_out["sim.recompute_s"] = statistics.median(t.recompute_s() for t in tracers)
    traced_s = [t.command_s() for t in tracers]
    metrics_out["trace.command_s"] = statistics.median(traced_s)
    metrics_out["trace.overhead_s"] = (
        statistics.median(traced_s) - statistics.median(plain) if plain else 0.0
    )
    record["samples"] = {"plain_command_s": plain, "traced_command_s": traced_s}
    record["summary"] = {
        name: quartiles([r[name] for r in per_run]) for name in SELF_TIMES
    }
    return [s.as_list() for s in tracers[-1].spans]


def machine(package) -> dict:
    sha = None
    if os.path.isdir(".git"):
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True
        ).stdout.strip() or None
    import numpy
    import scipy

    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "numba": importlib.util.find_spec("numba") is not None,
        "numba_path_used": package.using_numba(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def print_report(record: dict, spec: dict, metrics: dict) -> None:
    w = record["workload"]
    print(f"workload {w}, seed {record['seed']}, trace {record['trace']}: "
          "closed loop, 1 client, single-threaded, numpy path")
    if "input" in record:
        print("inputs: " + ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                                     for k, v in record["input"].items()))
    summary = record.get("summary", {})
    for entry in spec:
        name, unit = entry["name"], entry["unit"]
        label = WORK_NAMES[record["work"]["unit"]] if name == "work_per_s" else name
        line = f"  {label:28s} {metrics[name]:14.6g} {unit}"
        q = summary.get(name)
        if q:
            line += f"   median of {q['n']}, q1 {q['q1']:.6g}, q3 {q['q3']:.6g}"
        print(line)
    for name, unit in (("wall_work_per_s", "1/s"), ("wall_setup_s", "s")):
        q = summary.get(name)
        if q:
            label = "wall_" + WORK_NAMES[record["work"]["unit"]] if unit == "1/s" else name
            print(f"  {label:28s} {q['median']:14.6g} {unit:3s}  median of {q['n']}, "
                  f"q1 {q['q1']:.6g}, q3 {q['q3']:.6g} (wall clock, not at nominal speed)")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'failed_frac':28s} {failed / attempted:14.6g} (of {attempted} command runs)")
    if "partition_gap_s" in record:
        print(f"  in each of {len(record['samples']['traced_command_s'])} traced runs the "
              f"layer self times sum to the command time (largest gap "
              f"{record['partition_gap_s']:.3g} s)")
    if record.get("absent"):
        print("  absent names (their metrics read 0): " + ", ".join(record["absent"]))
    for problem in record["problems"][:10]:
        print(f"  FAILED: {problem.strip()}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(".perfbench", "results"),
                        help="directory for the full result record")
    args = parser.parse_args()

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "discretefdr", "__init__.py")):
        print("error: src/discretefdr not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    sys.path.insert(0, src)
    import discretefdr
    import discretefdr.cli  # noqa: F401  (the benchmark drives cli.main)

    workload = WORKLOADS[args.workload]
    work_dir = os.path.abspath(os.path.join(".perfbench", f"run-{os.getpid()}"))
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(discretefdr)}
    metrics: dict = {}
    spans = None
    try:
        argv = write_inputs(workload, os.path.join(work_dir, "inputs"), args.seed)
        runner = Runner(discretefdr, workload, argv, work_dir)
        if args.trace:
            spans = traced_run(runner, args.seconds, metrics, record)
        else:
            timed_run(runner, args.seconds, metrics, record)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    spec = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {e["name"]: metrics.get(e["name"], 0.0) for e in spec}
    record.update(
        correct=not runner.problems, attempted=runner.attempted, failed=runner.failed,
        problems=runner.problems, digests=runner.digests, metrics=metrics,
    )
    record.setdefault("work", {"unit": workload.unit})
    print_report(record, spec, metrics)

    os.makedirs(args.results, exist_ok=True)
    stem = os.path.join(args.results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if spans:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "parent", "name", "start", "end"],
                       "spans": spans}, fh)

    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
