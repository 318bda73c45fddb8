"""Command-line interface: reproducible analyze / simulate / tune runs.

Every run writes its outputs plus a ``manifest.json`` recording the
command, all resolved parameters, the seed (null for ``analyze``, which
draws nothing at random), SHA-256 digests of the input files, the
package version, and a timestamp. Re-running with
``--from-manifest manifest.json`` (plus a fresh ``--out``) reproduces
the data outputs byte-for-byte; input files are re-verified against
the recorded digests first.

Errors are reported as a single machine-parsable line on stderr,
``error:<category>: <message>``, with a nonzero exit code. Categories:
``usage`` (bad flags or values), ``io`` (unreadable or missing
files), ``parse`` (malformed input tables and manifests), ``config``
(bad simulation configs, missing or mistyped settings, digest
mismatches, empty analyses).

All floating-point output is printed with 9 significant digits.

CSV outputs are written column by column: each float column is
formatted in one ``%.9g`` pass (NaN and missing cells print as ``NA``),
each distinct p-value and support cell of ``features.csv`` is formatted
once, and the rows are joined and written a fixed number at a time, so
the text of a whole file is never held in memory. Cells are quoted as
``csv.writer`` quotes them by default: a cell holding a comma, a double
quote or a line break is enclosed in double quotes, with each double
quote doubled. A carriage return counts as a line break, so that no CSV
reader splits its row.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import typing
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .discrete_tests import (
    CONVENTIONS,
    IngestSchema,
    ingest_counts,
    test_count_table,
)
from .estimators import Study
from .sim import (
    PI0_METHODS,
    DEFAULT_PI0_METHODS,
    DEFAULT_PROCEDURES,
    ScenarioSpec,
    evaluate_study,
    run_replications,
)
from .tuning import TuningGrid, bootstrap_tune

_EXIT_CODES = {"usage": 2, "io": 1, "parse": 1, "config": 1}


class CliError(Exception):
    """An error with a machine-parsable category."""

    def __init__(self, category: str, message: str) -> None:
        super().__init__(message)
        self.category = category
        self.message = message


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError("usage", message)


# ---------------------------------------------------------------------------
# formatting helpers
# ---------------------------------------------------------------------------


def _jsonify(obj):
    """Round floats to 9 significant digits; map non-finite to JSON-safe."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "Infinity" if obj > 0 else "-Infinity"
        return float(f"{obj:.9g}")
    if isinstance(obj, (np.floating,)):
        return _jsonify(float(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_jsonify(payload), fh, indent=2)
        fh.write("\n")


#: Rows formatted and written at a time.
_CHUNK_ROWS = 1 << 14

#: Characters that make a cell quoted.
_QUOTED = (",", '"', "\r", "\n")


def _text_cells(cells) -> list[str]:
    """Text cells, quoted where ``csv.writer`` would quote them."""
    cells = list(cells)
    joined = "".join(cells)
    if not any(q in joined for q in _QUOTED):
        return cells
    return [
        '"' + c.replace('"', '""') + '"' if any(q in c for q in _QUOTED) else c
        for c in cells
    ]


def _float_cells(values) -> list[str]:
    """Float cells at 9 significant digits (the bytes of ``f"{x:.9g}"``,
    ``inf`` and ``-0`` included); NaN and None print as ``NA``."""
    x = np.asarray(values, dtype=np.float64)
    cells = list(map("%.9g".__mod__, x.tolist()))
    for i in np.flatnonzero(np.isnan(x)).tolist():
        cells[i] = "NA"
    return cells


def _cells(column, rows: slice) -> list[str]:
    if isinstance(column, tuple):
        distinct, index = column
        return list(map(distinct.__getitem__, index[rows].tolist()))
    if isinstance(column, list):
        return _text_cells(column[rows])
    if column.dtype.kind == "f":
        return _float_cells(column[rows])
    return list(map(str, column[rows].tolist()))


def _write_csv(path: str, header: list[str], columns: list) -> None:
    """Write equal-length ``columns`` under ``header``, column-wise.

    A column is a float array, an integer array, a list of text cells,
    or a pair ``(cells, index)`` of distinct text cells and each row's
    index into them, so that each distinct cell is quoted once. Rows
    are formatted, joined and written ``_CHUNK_ROWS`` at a time.
    """
    columns = [
        (_text_cells(c[0]), np.asarray(c[1])) if isinstance(c, tuple) else c
        for c in columns
    ]
    m = len(columns[0][1] if isinstance(columns[0], tuple) else columns[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(_text_cells(header)) + "\n")
        for a in range(0, m, _CHUNK_ROWS):
            rows = slice(a, a + _CHUNK_ROWS)
            cells = [_cells(c, rows) for c in columns]
            fh.write("\n".join(map(",".join, zip(*cells))))
            fh.write("\n")


def _support_cells(study: Study) -> list[str]:
    """One cell per distinct support: its points at 9 significant
    digits, joined by ``;``.

    Every point is formatted once, in one ``%`` pass over
    ``support_flat``; each cell is then cut out of that text by the
    character offsets of the separators.
    """
    flat = study.support_flat
    text = ("%.9g;" * flat.shape[0]) % tuple(flat.tolist())
    ends = np.flatnonzero(
        np.frombuffer(text.encode("ascii"), dtype=np.uint8) == ord(";")
    )
    begin = np.concatenate(([0], ends + 1))
    lo = begin[study.support_start]
    hi = begin[study.support_start + study.support_len] - 1
    return [text[a:b] for a, b in zip(lo.tolist(), hi.tolist())]


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError("io", f"cannot read {path}: {exc.strerror}") from exc


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _ensure_out_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise CliError(
            "io", f"cannot create output directory {path}: {exc.strerror}"
        ) from exc


def _write_manifest(
    out_dir: str, command: str, settings: dict, inputs: dict[str, dict]
) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "seed": settings.get("seed"),
        "arguments": settings,
        "inputs": inputs,
    }
    # Arguments must round-trip exactly for byte-identical replays, so
    # the manifest is written without the 9-significant-digit rounding
    # applied to reported results.
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _load_manifest(path: str, command: str) -> dict:
    data = _read_bytes(path)
    try:
        manifest = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError("parse", f"malformed manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CliError("parse", f"manifest {path} is not a JSON object")
    if manifest.get("command") != command:
        raise CliError(
            "usage",
            f"manifest {path} records a "
            f"{manifest.get('command')!r} run, not {command!r}",
        )
    if not isinstance(manifest.get("arguments"), dict):
        raise CliError("parse", f"manifest {path} has no arguments record")
    inputs = manifest.get("inputs", {})
    records = inputs.values() if isinstance(inputs, dict) else [None]
    if not all(isinstance(record, dict) for record in records):
        raise CliError("parse", f"manifest {path} has a malformed inputs record")
    return manifest


def _verify_digest(manifest: dict, role: str, path: str, data: bytes) -> None:
    recorded = manifest.get("inputs", {}).get(role)
    if recorded is None:
        return
    if _sha256(data) != recorded.get("sha256"):
        raise CliError(
            "config",
            f"input {path} changed since the manifest was recorded "
            "(sha256 mismatch)",
        )


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _build_schema(settings: dict) -> IngestSchema:
    try:
        return IngestSchema(
            kind=settings["test"],
            trials=settings.get("trials"),
            size=settings.get("size"),
            reps=settings.get("reps", 1),
            min_total=settings["min_total"],
            max_total=settings["max_total"],
        )
    except ValueError as exc:
        raise CliError("usage", str(exc)) from exc


def _ingest_study(settings: dict, manifest: dict | None):
    path = settings["counts"]
    data = _read_bytes(path)
    if manifest is not None:
        _verify_digest(manifest, "counts", path, data)
    schema = _build_schema(settings)
    try:
        table = ingest_counts(io.BytesIO(data), schema)
    except ValueError as exc:
        raise CliError("parse", f"{path}: {exc}") from exc
    if len(table) == 0:
        raise CliError(
            "config",
            "no features remain after filtering (m = 0); "
            "relax --min-total/--max-total",
        )
    try:
        study = Study.from_distinct(*test_count_table(table, settings["convention"]))
    except ValueError as exc:
        raise CliError("usage", str(exc)) from exc
    return table, study, {"counts": {"path": path, "sha256": _sha256(data)}}


def _write_features(path: str, table, study: Study) -> None:
    """``features.csv``: each feature's id, p-value and support.

    Features that share a null law share p-values as well as a support,
    so each distinct p-value, like each distinct support, is formatted
    once.
    """
    pvalues, pvalue_index = np.unique(study.pvalues, return_inverse=True)
    _write_csv(
        path,
        ["id", "pvalue", "support"],
        [
            table.ids,
            (_float_cells(pvalues), pvalue_index),
            (_support_cells(study), study.support_index),
        ],
    )


def cmd_analyze(settings: dict, out_dir: str, manifest: dict | None = None) -> int:
    """Test a count table, estimate the true-null proportion, threshold."""
    table, study, inputs = _ingest_study(settings, manifest)
    lam, eps, alphas = settings["lambda"], settings["epsilon"], settings["alphas"]
    if not alphas:
        raise CliError("config", "setting 'alphas' is empty")
    try:
        estimates, outcomes = evaluate_study(
            study, PI0_METHODS, DEFAULT_PROCEDURES, alphas, lam, eps
        )
    except ValueError as exc:
        raise CliError("usage", str(exc)) from exc
    defined = [(n, o) for n, o in zip(DEFAULT_PROCEDURES, outcomes) if o is not None]
    rows = [
        (name, *cells, alpha, res.t_alpha, res.fdr_at_t, res.rejections)
        for a, alpha in enumerate(alphas)
        for name, (cells, results) in defined
        for res in [results[a]]
    ]
    # bh runs at every level, so there is at least one row
    methods, *floats, rejections = zip(*rows)

    _ensure_out_dir(out_dir)
    _write_features(os.path.join(out_dir, "features.csv"), table, study)

    _write_json(
        os.path.join(out_dir, "estimates.json"),
        {
            "m": study.m,
            "dropped": table.dropped,
            "convention": settings["convention"],
            "lambda": lam,
            "epsilon": eps,
            "estimates": {
                name: (est.to_json_dict() if est is not None else None)
                for name, est in estimates.items()
            },
        },
    )

    _write_csv(
        os.path.join(out_dir, "table.csv"),
        [
            "method",
            "lambda",
            "epsilon",
            "pi0",
            "alpha",
            "threshold",
            "fdr_at_threshold",
            "rejections",
        ],
        [
            list(methods),
            *(np.array(c, dtype=np.float64) for c in floats),
            np.array(rejections, dtype=np.int64),
        ],
    )
    _write_manifest(out_dir, "analyze", settings, inputs)
    print(f"analyze: m = {study.m}, outputs in {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_SPEC_KEYS = tuple(f.name for f in dataclasses.fields(ScenarioSpec))
#: Settings a simulate config may leave out, with their defaults.
_SIM_DEFAULTS = {
    "lambda": 0.5,
    "epsilon": 1.0,
    "pi0_methods": list(DEFAULT_PI0_METHODS),
    "procedures": list(DEFAULT_PROCEDURES),
    "seed": 0,
    "reps": 50,
    "alpha_levels": [0.05, 0.1],
}
#: Keys accepted for older configs and manifests, and ignored: ``workers``
#: once sized the thread pools over simulate's replications and tune's
#: grid points, which pooled kernel calls and shared resamples replaced.
_IGNORED_KEYS = ("workers",)


def _load_sim_settings(args) -> dict:
    if not args.config:
        raise CliError("usage", "a config path is required")
    data = _read_bytes(args.config)
    try:
        raw = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError(
            "parse", f"malformed config {args.config}: {exc}"
        ) from exc
    if not isinstance(raw, dict):
        raise CliError("config", "config must be a JSON object")
    for key in raw:
        if key not in (*_SPEC_KEYS, *_SIM_DEFAULTS, *_IGNORED_KEYS):
            raise CliError("config", f"unknown config key {key!r}")
    settings = {k: v for k, v in raw.items() if k not in _IGNORED_KEYS}
    for key, value in _SIM_DEFAULTS.items():
        settings.setdefault(key, value)
    # command-line overrides
    if args.seed is not None:
        settings["seed"] = args.seed
    if args.reps is not None:
        settings["reps"] = args.reps
    if args.alpha:
        settings["alpha_levels"] = args.alpha
    settings["config_path"] = args.config
    settings["config_sha256"] = _sha256(data)
    return settings


def _scenario_from_settings(settings: dict) -> ScenarioSpec:
    kwargs = {k: settings[k] for k in _SPEC_KEYS if k in settings}
    kwargs["alpha_levels"] = tuple(float(a) for a in settings["alpha_levels"])
    try:
        return ScenarioSpec(**kwargs)
    except ValueError as exc:
        raise CliError("config", str(exc)) from exc


def cmd_simulate(settings: dict, out_dir: str, manifest: dict | None = None) -> int:
    """Run a simulation scenario and write tidy per-replication files."""
    spec = _scenario_from_settings(settings)
    inputs: dict[str, dict] = {}
    if settings.get("config_path"):
        inputs["config"] = {
            "path": settings["config_path"],
            "sha256": settings.get("config_sha256"),
        }
    mean_data = None
    if spec.mean_file is not None:
        mean_data = _read_bytes(spec.mean_file)
        if manifest is not None:
            _verify_digest(manifest, "mean_file", spec.mean_file, mean_data)
        inputs["mean_file"] = {
            "path": spec.mean_file,
            "sha256": _sha256(mean_data),
        }

    try:
        summary = run_replications(
            spec,
            pi0_methods=settings["pi0_methods"],
            procedures=settings["procedures"],
            lam=settings["lambda"],
            epsilon=settings["epsilon"],
            mean_data=mean_data,
        )
    except ValueError as exc:
        raise CliError("config", str(exc)) from exc

    _ensure_out_dir(out_dir)
    reps = np.arange(spec.reps)
    n_methods = len(summary.pi0_methods)
    _write_csv(
        os.path.join(out_dir, "pi0_replications.csv"),
        ["rep", "method", "estimate", "excess"],
        [
            np.repeat(reps, n_methods),
            (list(summary.pi0_methods), np.tile(np.arange(n_methods), spec.reps)),
            summary.pi0_estimates.reshape(-1),
            summary.excess.reshape(-1),
        ],
    )
    n_procs, n_alphas = len(summary.procedures), len(spec.alpha_levels)
    _write_csv(
        os.path.join(out_dir, "mtp_replications.csv"),
        ["rep", "procedure", "alpha", "threshold", "rejections", "fdp"],
        [
            np.repeat(reps, n_procs * n_alphas),
            (
                list(summary.procedures),
                np.tile(np.repeat(np.arange(n_procs), n_alphas), spec.reps),
            ),
            np.tile(np.array(spec.alpha_levels), spec.reps * n_procs),
            summary.thresholds.reshape(-1),
            summary.rejections.reshape(-1),
            summary.fdp.reshape(-1),
        ],
    )
    agg = summary.aggregate()
    agg["lambda"] = settings["lambda"]
    agg["epsilon"] = settings["epsilon"]
    _write_json(os.path.join(out_dir, "aggregate.json"), agg)
    _write_manifest(out_dir, "simulate", settings, inputs)
    print(
        f"simulate: kind = {spec.kind}, reps = {spec.reps}, "
        f"outputs in {out_dir}"
    )
    return 0


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------


def _parse_grid(settings: dict) -> TuningGrid:
    def parse_csv_floats(text: str, what: str) -> list[float]:
        try:
            values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
        except ValueError as exc:
            raise CliError(
                "usage", f"malformed {what} list {text!r}: {exc}"
            ) from exc
        if not values:
            raise CliError("usage", f"empty {what} list")
        return values

    points: list[tuple[float, float]] = []
    if settings.get("points"):
        for token in settings["points"]:
            pieces = token.split(",")
            if len(pieces) != 2:
                raise CliError(
                    "usage",
                    f"malformed grid point {token!r}; expected LAMBDA,EPSILON",
                )
            try:
                points.append((float(pieces[0]), float(pieces[1])))
            except ValueError as exc:
                raise CliError(
                    "usage", f"malformed grid point {token!r}: {exc}"
                ) from exc
    else:
        lams = parse_csv_floats(settings["lambdas"], "lambda")
        epss = parse_csv_floats(settings["epsilons"], "epsilon")
        points = [(lam, eps) for lam in lams for eps in epss]
    try:
        return TuningGrid(points, B=settings["B"], seed=settings["seed"])
    except ValueError as exc:
        raise CliError("usage", str(exc)) from exc


def cmd_tune(settings: dict, out_dir: str, manifest: dict | None = None) -> int:
    """Bootstrap-select a tuning pair on a count table."""
    _, study, inputs = _ingest_study(settings, manifest)
    grid = _parse_grid(settings)
    try:
        result = bootstrap_tune(study, grid)
    except ValueError as exc:
        raise CliError("config", str(exc)) from exc

    _ensure_out_dir(out_dir)
    payload = result.to_json_dict()
    for row, (lam, eps) in zip(payload["mse"], grid.points):
        row["lambda"] = lam
        row["epsilon"] = eps
    payload.update(
        {"m": study.m, "B": grid.B, "seed": grid.seed}
    )
    _write_json(os.path.join(out_dir, "tuning.json"), payload)
    _write_manifest(out_dir, "tune", settings, inputs)
    chosen = payload["chosen"]
    print(
        f"tune: chose lambda = {chosen['lambda']:.9g}, "
        f"epsilon = {chosen['epsilon']:.9g}, outputs in {out_dir}"
    )
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_ingest_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("counts", nargs="?", help="count table (CSV or TSV)")
    sub.add_argument(
        "--test",
        choices=("bin", "fet", "ent"),
        help="exact test family matching the table",
    )
    sub.add_argument(
        "--trials",
        type=int,
        default=None,
        help="constant per-group trial count for 3-column fet tables",
    )
    sub.add_argument(
        "--size",
        type=float,
        default=None,
        help="per-sample shape parameter for ent tables",
    )
    sub.add_argument(
        "--reps",
        type=int,
        default=1,
        help="samples per group represented by an ent table (default 1)",
    )
    sub.add_argument(
        "--min-total",
        type=int,
        default=1,
        help="drop features with a per-group total below this (default 1)",
    )
    sub.add_argument(
        "--max-total",
        type=int,
        default=None,
        help="drop features with a per-group total above this",
    )
    sub.add_argument(
        "--convention",
        choices=CONVENTIONS,
        default="minlik",
        help="two-sided p-value convention (default minlik)",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="discretefdr",
        description=(
            "Exact tests for count data, true-null-proportion estimation, "
            "and FDR thresholding with full p-value supports."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subs = parser.add_subparsers(dest="command", metavar="{analyze,simulate,tune}")

    an = subs.add_parser(
        "analyze", help="test a count table and threshold the p-values"
    )
    _add_ingest_flags(an)
    an.add_argument("--lambda", dest="lambda", type=float, default=0.5)
    an.add_argument("--epsilon", type=float, default=1.0)
    an.add_argument(
        "--alpha",
        dest="alphas",
        type=float,
        action="append",
        help="nominal FDR level; repeatable (default 0.05)",
    )
    an.add_argument("--out", help="output directory")
    an.add_argument("--from-manifest", dest="from_manifest")
    an.set_defaults(command="analyze")

    si = subs.add_parser("simulate", help="run a seeded simulation scenario")
    si.add_argument("config", nargs="?", help="scenario config (JSON)")
    si.add_argument("--seed", type=int, default=None)
    si.add_argument("--reps", type=int, default=None)
    si.add_argument(
        "--alpha", type=float, action="append", help="overrides alpha_levels"
    )
    si.add_argument("--out", help="output directory")
    si.add_argument("--from-manifest", dest="from_manifest")
    si.set_defaults(command="simulate")

    tu = subs.add_parser(
        "tune", help="bootstrap-select the estimator tuning pair"
    )
    _add_ingest_flags(tu)
    tu.add_argument(
        "--lambdas",
        default="0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5,"
        "0.55,0.6,0.65,0.7,0.75,0.8,0.85,0.9,0.95",
        help="comma-separated lambda grid",
    )
    tu.add_argument(
        "--epsilons",
        default="0,0.25,0.5,0.75,1",
        help="comma-separated epsilon grid",
    )
    tu.add_argument(
        "--point",
        dest="points",
        action="append",
        help="explicit LAMBDA,EPSILON grid point; repeatable, "
        "overrides --lambdas/--epsilons",
    )
    tu.add_argument("--B", type=int, default=100, help="bootstrap resamples")
    tu.add_argument("--seed", type=int, default=0)
    tu.add_argument("--out", help="output directory")
    tu.add_argument("--from-manifest", dest="from_manifest")
    tu.set_defaults(command="tune")

    return parser


#: The type of every setting a run records. ``float`` admits any real
#: number, no type admits a bool, and a JSON array is a ``list``.
_SETTING_TYPES = {
    **typing.get_type_hints(ScenarioSpec),
    **dict.fromkeys(("alpha_levels", "alphas"), list[float]),
    **dict.fromkeys(("lambda", "epsilon"), float),
    **dict.fromkeys(("pi0_methods", "procedures"), list[str]),
    **dict.fromkeys(("config_path", "config_sha256", "counts", "test"), str),
    **dict.fromkeys(("convention", "lambdas", "epsilons"), str),
    **dict.fromkeys(("trials", "max_total"), int | None),
    **{"size": float | None, "min_total": int, "points": list[str] | None, "B": int},
}


def _has_type(value, kind) -> bool:
    args = typing.get_args(kind)
    if type(None) in args:
        return value is None or _has_type(value, args[0])
    if typing.get_origin(kind) is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    wanted = (int, float) if kind is float else kind
    return isinstance(value, wanted) and not isinstance(value, bool)


def _check_settings(settings: dict, required) -> None:
    """A missing or mistyped setting is a config error naming its key."""
    for key in (*required, *settings):
        if key not in settings:
            raise CliError("config", f"missing setting {key!r}")
        kind, value = _SETTING_TYPES.get(key), settings[key]
        if kind is not None and not _has_type(value, kind):
            name = kind.__name__ if type(kind) is type else kind
            raise CliError("config", f"setting {key!r} must be {name}, not {value!r}")


#: Flags that direct a run; every other flag is one of its settings.
_RUN_FLAGS = ("command", "out", "from_manifest")

_COMMANDS = {"analyze": cmd_analyze, "simulate": cmd_simulate, "tune": cmd_tune}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            raise CliError(
                "usage", "a subcommand is required: analyze | simulate | tune"
            )
        if not args.out:
            raise CliError("usage", "--out is required")
        # a manifest records every setting a fresh run has; a simulate
        # config may leave out those with defaults
        settings = {k: v for k, v in vars(args).items() if k not in _RUN_FLAGS}
        required = tuple(settings)
        if args.command == "simulate":
            required = ("kind", "m", "pi0", *_SIM_DEFAULTS)
        manifest = None
        if args.from_manifest:
            manifest = _load_manifest(args.from_manifest, args.command)
            arguments = manifest["arguments"].items()
            settings = {k: v for k, v in arguments if k not in _IGNORED_KEYS}
        elif args.command == "simulate":
            settings = _load_sim_settings(args)
        elif not args.counts:
            raise CliError("usage", "a count table path is required")
        elif not args.test:
            raise CliError("usage", "--test is required")
        elif args.command == "analyze":
            settings["alphas"] = args.alphas or [0.05]
        _check_settings(settings, required)
        return _COMMANDS[args.command](settings, args.out, manifest)
    except CliError as exc:
        print(f"error:{exc.category}: {exc.message}", file=sys.stderr)
        return _EXIT_CODES.get(exc.category, 1)


if __name__ == "__main__":
    sys.exit(main())
