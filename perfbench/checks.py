"""Output checks: any problem found marks the command run as failed.

The checks read the files a command wrote, not the package's objects, so
they hold whatever the code behind the command becomes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

# Defaults of ``discretefdr tune``: 20 lambdas by 5 epsilons.
TUNE_GRID = {
    (round(0.05 * i, 2), e) for i in range(20) for e in (0.0, 0.25, 0.5, 0.75, 1.0)
}
FDR_SLACK = 1e-12


def digests(out_dir: str) -> dict[str, str]:
    """SHA-256 of every data output; ``manifest.json`` holds a timestamp."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name != "manifest.json":
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _check_features(path: str) -> list[str]:
    problems = []
    for row in _rows(path):
        support = row["support"].split(";")
        p = float(row["pvalue"])
        if not 0.0 < p <= 1.0:
            problems.append(f"{row['id']}: p-value {row['pvalue']} outside (0, 1]")
        if row["pvalue"] not in support:
            problems.append(f"{row['id']}: p-value {row['pvalue']} not in its support")
        if float(support[-1]) != 1.0:
            problems.append(f"{row['id']}: support ends at {support[-1]}, not 1")
        if len(problems) >= 10:
            break
    return problems


def _check_table(path: str) -> list[str]:
    problems = []
    for row in _rows(path):
        if row["method"] not in ("generalized", "storey"):
            continue
        alpha = float(row["alpha"])
        if not float(row["fdr_at_threshold"]) <= alpha + FDR_SLACK:
            problems.append(
                f"{row['method']} at alpha {row['alpha']}: "
                f"fdr_at_threshold {row['fdr_at_threshold']} exceeds alpha"
            )
    return problems


def _check_fdp(path: str) -> list[str]:
    bad = [r for r in _rows(path) if not 0.0 <= float(r["fdp"]) <= 1.0]
    return [
        f"rep {r['rep']} {r['procedure']} alpha {r['alpha']}: fdp {r['fdp']} outside [0, 1]"
        for r in bad[:10]
    ]


def _check_tuning(path: str) -> list[str]:
    with open(path, encoding="utf-8") as fh:
        tuning = json.load(fh)
    problems = []
    chosen = tuning["chosen"]
    if (chosen["lambda"], chosen["epsilon"]) not in TUNE_GRID:
        problems.append(f"tuned pair {chosen} is not on the grid")
    points = {(row["lambda"], row["epsilon"]) for row in tuning["mse"]}
    if points != TUNE_GRID:
        problems.append("the MSE table does not cover the grid")
    for row in tuning["mse"]:
        if not (isinstance(row["mse"], float) and math.isfinite(row["mse"])):
            problems.append(f"MSE {row['mse']!r} at {row['lambda']}, {row['epsilon']} is not finite")
    return problems


def check_outputs(command: str, out_dir: str) -> list[str]:
    """Problems in the data outputs of one ``command`` run; [] if none."""
    try:
        return _check_outputs(command, out_dir)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return [f"outputs missing or malformed: {exc!r}"]


def _check_outputs(command: str, out_dir: str) -> list[str]:
    if command == "analyze":
        return _check_features(os.path.join(out_dir, "features.csv")) + _check_table(
            os.path.join(out_dir, "table.csv")
        )
    if command == "simulate":
        return _check_fdp(os.path.join(out_dir, "mtp_replications.csv"))
    return _check_tuning(os.path.join(out_dir, "tuning.json"))


def check_run(code, stderr: str) -> list[str]:
    """Problems with how a command ended: nonzero exit or an error line."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    problems += [line for line in stderr.splitlines() if line.startswith("error:")]
    return problems


def load_outputs(out_dir: str) -> dict:
    """The JSON outputs of a run, by file name (for counting work)."""
    out = {}
    for name in os.listdir(out_dir):
        if name.endswith(".json") and name != "manifest.json":
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                out[name] = json.load(fh)
    return out
