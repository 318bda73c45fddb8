"""End-to-end CLI behavior: outputs, reproducibility, error contract."""

import csv
import hashlib
import importlib.util
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from discretefdr import (
    IngestSchema,
    ScenarioSpec,
    Study,
    benjamini_pi0,
    cli,
    generalized_pi0,
    ingest_counts,
    pounds_hat_pi0,
    pounds_tilde_pi0,
    storey_pi0,
)
from discretefdr import test_count_table as run_count_table
from discretefdr.cli import main
from discretefdr.sim import PI0_METHODS, PROCEDURES, run_replications

import oracles

BIN_COUNTS = """id,g1,g2
f1,3,9
f2,0,12
f3,5,5
f4,2,2
f5,0,0
"""

FET_COUNTS = """id,x1,n1,x2,n2
f1,1,10,8,12
f2,4,9,5,11
f3,0,0,0,9
"""

ENT_COUNTS = """id,a1,a2,b1,b2
f1,1,2,5,6
f2,3,3,2,2
f3,0,1,4,3
"""


def run(argv, capsys):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture
def bin_file(tmp_path):
    path = tmp_path / "counts.csv"
    path.write_text(BIN_COUNTS)
    return str(path)


@pytest.fixture
def ent_file(tmp_path):
    path = tmp_path / "ent.csv"
    path.write_text(ENT_COUNTS)
    return str(path)


@pytest.fixture
def sim_config(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "kind": "poisson_bin",
                "m": 25,
                "pi0": 0.6,
                "reps": 3,
                "seed": 4,
                "alpha_levels": [0.05, 0.1],
            }
        )
    )
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def data_bytes(out_dir, names):
    return {n: Path(out_dir, n).read_bytes() for n in names}


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------


def test_analyze_happy_path(bin_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    code, stdout, stderr = run(
        ["analyze", bin_file, "--test", "bin", "--out", out], capsys
    )
    assert code == 0 and stderr == ""
    assert "analyze: m = 3" in stdout

    est = json.loads(Path(out, "estimates.json").read_text())
    assert est["m"] == 3
    # f2 has a zero group-1 total, f5 has two zero totals
    assert est["dropped"] == 2
    assert est["convention"] == "minlik"
    assert set(est["estimates"]) == {
        "storey", "generalized", "pounds_tilde", "pounds_hat", "benjamini",
    }
    for item in est["estimates"].values():
        assert item is not None and 0.0 <= item["value"] <= 1.0

    rows = read_rows(Path(out, "features.csv"))
    assert rows[0] == ["id", "pvalue", "support"]
    assert [r[0] for r in rows[1:]] == ["f1", "f3", "f4"]
    for r in rows[1:]:
        support = [float(v) for v in r[2].split(";")]
        assert support[-1] == 1.0
        assert float(r[1]) in support

    table = read_rows(Path(out, "table.csv"))
    assert table[0] == [
        "method", "lambda", "epsilon", "pi0", "alpha",
        "threshold", "fdr_at_threshold", "rejections",
    ]
    assert [r[0] for r in table[1:]] == [
        "generalized", "storey", "bh", "adaptive_bh",
    ]
    bh_row = table[3]
    assert bh_row[1] == "NA" and bh_row[2] == "NA" and bh_row[6] == "NA"
    assert bh_row[3] == "1"

    manifest = json.loads(Path(out, "manifest.json").read_text())
    assert manifest["command"] == "analyze"
    assert manifest["version"]
    assert manifest["timestamp"]
    assert manifest["arguments"]["counts"] == bin_file
    digest = hashlib.sha256(Path(bin_file).read_bytes()).hexdigest()
    assert manifest["inputs"]["counts"]["sha256"] == digest


def test_analyze_epsilon_zero_rows_coincide(bin_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    code, _, _ = run(
        ["analyze", bin_file, "--test", "bin", "--epsilon", "0", "--out", out],
        capsys,
    )
    assert code == 0
    table = read_rows(Path(out, "table.csv"))
    gen = table[1]
    sto = table[2]
    # identical pi0, threshold, estimator value and rejections when the
    # adjustment is switched off and the exceedance estimate is below 1
    if float(sto[3]) <= 1.0:
        assert gen[3:] == sto[3:]


def test_analyze_reruns_and_replays_byte_identically(bin_file, tmp_path, capsys):
    names = ["features.csv", "estimates.json", "table.csv"]
    out1, out2, out3 = (str(tmp_path / d) for d in ("a", "b", "c"))
    base = ["analyze", bin_file, "--test", "bin", "--alpha", "0.05",
            "--alpha", "0.1"]
    assert run(base + ["--out", out1], capsys)[0] == 0
    assert run(base + ["--out", out2], capsys)[0] == 0
    assert data_bytes(out1, names) == data_bytes(out2, names)

    manifest = str(Path(out1, "manifest.json"))
    code, _, stderr = run(
        ["analyze", "--from-manifest", manifest, "--out", out3], capsys
    )
    assert code == 0, stderr
    assert data_bytes(out1, names) == data_bytes(out3, names)


def test_analyze_has_no_seed_and_replays_manifests_with_one(
    bin_file, tmp_path, capsys
):
    """analyze draws nothing at random: --seed is a usage error, and a
    manifest that records a seed replays to the same data outputs."""
    names = ["features.csv", "estimates.json", "table.csv"]
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    code, _, stderr = run(
        ["analyze", bin_file, "--test", "bin", "--seed", "0",
         "--out", str(tmp_path / "c")],
        capsys,
    )
    assert code == 2 and stderr.startswith("error:usage:")

    assert run(["analyze", bin_file, "--test", "bin", "--out", out1], capsys)[0] == 0
    path = Path(out1, "manifest.json")
    manifest = json.loads(path.read_text())
    assert manifest["seed"] is None and "seed" not in manifest["arguments"]
    manifest["seed"] = 0
    manifest["arguments"]["seed"] = 0
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    code, _, stderr = run(
        ["analyze", "--from-manifest", str(path), "--out", out2], capsys
    )
    assert code == 0, stderr
    assert data_bytes(out1, names) == data_bytes(out2, names)


def test_analyze_replay_detects_changed_input(bin_file, tmp_path, capsys):
    out1 = str(tmp_path / "a")
    assert run(["analyze", bin_file, "--test", "bin", "--out", out1], capsys)[0] == 0
    Path(bin_file).write_text(BIN_COUNTS.replace("f1,3,9", "f1,4,9"))
    code, _, stderr = run(
        ["analyze", "--from-manifest", str(Path(out1, "manifest.json")),
         "--out", str(tmp_path / "b")],
        capsys,
    )
    assert code == 1
    assert stderr.startswith("error:config:")
    assert "sha256" in stderr


def test_analyze_replay_refuses_manifest_without_input_digest(
    bin_file, tmp_path, capsys
):
    """Deleting the inputs record must not switch verification off: the
    replay names the unverifiable input instead of reading a changed one."""
    out1 = tmp_path / "a"
    assert run(["analyze", bin_file, "--test", "bin", "--out", str(out1)], capsys)[0] == 0
    path = out1 / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["inputs"]
    path.write_text(json.dumps(manifest, indent=2) + "\n")
    Path(bin_file).write_text(BIN_COUNTS.replace("f1,3,9", "f1,4,9"))
    out2 = tmp_path / "b"
    code, stdout, stderr = run(
        ["analyze", "--from-manifest", str(path), "--out", str(out2)], capsys
    )
    assert code == 1
    assert stderr.startswith("error:config:") and "counts" in stderr
    assert stderr.count("\n") == 1 and stdout == ""
    assert not out2.exists()


def test_analyze_alpha_is_repeatable(bin_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    code, _, _ = run(
        ["analyze", bin_file, "--test", "bin", "--alpha", "0.05",
         "--alpha", "0.1", "--out", out],
        capsys,
    )
    assert code == 0
    table = read_rows(Path(out, "table.csv"))
    assert len(table) == 1 + 8
    assert {r[4] for r in table[1:]} == {"0.05", "0.1"}


def test_analyze_floats_use_nine_significant_digits(bin_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    run(["analyze", bin_file, "--test", "bin", "--out", out], capsys)
    for path in ("features.csv", "table.csv"):
        for row in read_rows(Path(out, path))[1:]:
            for cell in row:
                for piece in cell.split(";"):
                    try:
                        value = float(piece)
                    except ValueError:
                        continue
                    if piece not in ("NA",) and "." in piece or "e" in piece:
                        assert piece == f"{value:.9g}"


def test_analyze_writes_an_infinite_raw_estimate_as_text(tmp_path, capsys):
    """Equal counts give p-values of 1, where the median estimator's raw
    value is infinite; JSON has no infinity, so it is written as text."""
    path = tmp_path / "counts.csv"
    path.write_text("id,a,b\nf1,3,3\nf2,5,5\n")
    out = tmp_path / "out"
    code, _, stderr = run(
        ["analyze", str(path), "--test", "bin", "--out", str(out)], capsys
    )
    assert code == 0, stderr
    est = json.loads((out / "estimates.json").read_text())
    assert est["estimates"]["benjamini"]["raw"] == "Infinity"
    assert est["estimates"]["benjamini"]["value"] == 1.0


def test_analyze_fet_five_column_table(tmp_path, capsys):
    path = tmp_path / "fet.csv"
    path.write_text(FET_COUNTS)
    out = str(tmp_path / "out")
    code, stdout, stderr = run(
        ["analyze", str(path), "--test", "fet", "--out", out], capsys
    )
    assert code == 0, stderr
    assert "m = 2" in stdout  # f3 has a zero group-1 trial count


def test_analyze_ent_replicate_columns(tmp_path, capsys):
    path = tmp_path / "ent.tsv"
    path.write_text(ENT_COUNTS.replace(",", "\t"))
    out = str(tmp_path / "out")
    code, stdout, stderr = run(
        ["analyze", str(path), "--test", "ent", "--size", "1.0",
         "--reps", "2", "--out", out],
        capsys,
    )
    assert code == 0, stderr
    assert "m = 3" in stdout


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_happy_path_workers_and_replay(sim_config, tmp_path, capsys):
    names = ["pi0_replications.csv", "mtp_replications.csv", "aggregate.json"]
    out1, out2, out3 = (str(tmp_path / d) for d in ("s1", "s2", "s3"))
    code, stdout, stderr = run(["simulate", sim_config, "--out", out1], capsys)
    assert code == 0, stderr
    assert "simulate: kind = poisson_bin" in stdout

    pi0_rows = read_rows(Path(out1, "pi0_replications.csv"))
    assert pi0_rows[0] == ["rep", "method", "estimate", "excess"]
    assert len(pi0_rows) == 1 + 3 * 4
    mtp_rows = read_rows(Path(out1, "mtp_replications.csv"))
    assert mtp_rows[0] == [
        "rep", "procedure", "alpha", "threshold", "rejections", "fdp",
    ]
    assert len(mtp_rows) == 1 + 3 * 4 * 2

    agg = json.loads(Path(out1, "aggregate.json").read_text())
    assert agg["kind"] == "poisson_bin"
    assert agg["reps"] == 3
    assert agg["lambda"] == 0.5
    assert set(agg["procedures"]["generalized"]) == {"0.05", "0.1"}

    # simulate has no thread pool; a config's workers key is ignored
    config = json.loads(Path(sim_config).read_text())
    with_workers = tmp_path / "with_workers.json"
    with_workers.write_text(json.dumps({**config, "workers": 4}))
    code, _, stderr = run(["simulate", str(with_workers), "--out", out2], capsys)
    assert code == 0, stderr
    assert data_bytes(out1, names) == data_bytes(out2, names)
    manifest = json.loads(Path(out2, "manifest.json").read_text())
    assert "workers" not in manifest["arguments"]

    # so is a parent manifest's
    manifest = json.loads(Path(out1, "manifest.json").read_text())
    manifest["arguments"]["workers"] = 4
    parent = tmp_path / "parent_manifest.json"
    parent.write_text(json.dumps(manifest))
    code, _, stderr = run(
        ["simulate", "--from-manifest", str(parent), "--out", out3], capsys
    )
    assert code == 0, stderr
    assert data_bytes(out1, names) == data_bytes(out3, names)

    code, _, stderr = run(
        ["simulate", sim_config, "--workers", "4", "--out", out3], capsys
    )
    assert code == 2
    assert stderr.startswith("error:usage: unrecognized arguments: --workers")


def test_simulate_cli_overrides(sim_config, tmp_path, capsys):
    out = str(tmp_path / "out")
    code, _, _ = run(
        ["simulate", sim_config, "--reps", "2", "--alpha", "0.2",
         "--seed", "9", "--out", out],
        capsys,
    )
    assert code == 0
    agg = json.loads(Path(out, "aggregate.json").read_text())
    assert agg["reps"] == 2
    assert agg["seed"] == 9
    assert set(agg["procedures"]["bh"]) == {"0.2"}


@pytest.mark.parametrize("transform", ["odds", "cap"])
@pytest.mark.parametrize("rho", [None, 0.0], ids=["rho-default", "rho-0"])
def test_simulate_takes_success_probability_one(
    transform, rho, sim_config, tmp_path, capsys, recwarn
):
    """Group-1 probabilities of exactly 1 run under both transforms,
    with no warning: the false nulls' group-2 probability is the
    transform's limit there."""
    effect = {} if rho is None else {"rho_low": rho, "rho_high": rho}
    path = Path(sim_config)
    path.write_text(json.dumps({
        **json.loads(path.read_text()), "kind": "binomial_fet", "theta_low": 1.0,
        "theta_high": 1.0, "theta2_transform": transform, **effect,
    }))
    argv = ["simulate", sim_config, "--out", str(tmp_path / "out")]
    code, _, stderr = run(argv, capsys)
    assert code == 0 and stderr == ""
    assert [str(w.message) for w in recwarn] == []


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------


def test_tune_happy_path_and_replay(bin_file, tmp_path, capsys):
    out1, out2 = str(tmp_path / "t1"), str(tmp_path / "t2")
    argv = ["tune", bin_file, "--test", "bin", "--point", "0.5,1",
            "--point", "0.2,0", "--B", "20", "--seed", "3"]
    code, stdout, stderr = run(argv + ["--out", out1], capsys)
    assert code == 0, stderr
    assert stdout.startswith("tune: chose lambda =")

    payload = json.loads(Path(out1, "tuning.json").read_text())
    assert set(payload["chosen"]) == {"lambda", "epsilon"}
    assert payload["m"] == 3
    assert payload["B"] == 20
    assert payload["seed"] == 3
    assert [(r["lambda"], r["epsilon"]) for r in payload["mse"]] == [
        (0.5, 1.0), (0.2, 0.0),
    ]
    for row in payload["mse"]:
        assert row["mse"] >= 0.0
        assert 0.0 <= row["full_sample"] <= 1.0

    code, _, stderr = run(
        ["tune", "--from-manifest", str(Path(out1, "manifest.json")),
         "--out", out2],
        capsys,
    )
    assert code == 0, stderr
    assert Path(out1, "tuning.json").read_bytes() == Path(
        out2, "tuning.json"
    ).read_bytes()

    # tune has no thread pool; an older manifest's workers key is ignored
    manifest = json.loads(Path(out1, "manifest.json").read_text())
    assert "workers" not in manifest["arguments"]
    manifest["arguments"]["workers"] = 2
    parent = tmp_path / "parent_manifest.json"
    parent.write_text(json.dumps(manifest))
    out3 = str(tmp_path / "t3")
    code, _, stderr = run(
        ["tune", "--from-manifest", str(parent), "--out", out3], capsys
    )
    assert code == 0, stderr
    assert Path(out1, "tuning.json").read_bytes() == Path(
        out3, "tuning.json"
    ).read_bytes()
    replayed = json.loads(Path(out3, "manifest.json").read_text())
    assert "workers" not in replayed["arguments"]

    code, _, stderr = run(argv + ["--workers", "2", "--out", out3], capsys)
    assert code == 2
    assert stderr.startswith("error:usage: unrecognized arguments: --workers")


def test_tune_grid_flags_build_cross_product(bin_file, tmp_path, capsys):
    out = str(tmp_path / "out")
    code, _, _ = run(
        ["tune", bin_file, "--test", "bin", "--lambdas", "0,0.5",
         "--epsilons", "0,1", "--B", "5", "--out", out],
        capsys,
    )
    assert code == 0
    payload = json.loads(Path(out, "tuning.json").read_text())
    assert len(payload["mse"]) == 4


# ---------------------------------------------------------------------------
# error contract
# ---------------------------------------------------------------------------


def test_usage_errors_exit_2(bin_file, tmp_path, capsys):
    cases = [
        [],
        ["analyze", "--out", str(tmp_path / "o1")],
        ["analyze", bin_file, "--test", "bin"],
        ["analyze", bin_file, "--test", "nope", "--out", str(tmp_path / "o2")],
        ["simulate", "--out", str(tmp_path / "o3")],
        ["tune", bin_file, "--test", "bin", "--point", "0.5",
         "--out", str(tmp_path / "o4")],
        ["analyze", bin_file, "--test", "bin", "--bogus-flag",
         "--out", str(tmp_path / "o5")],
    ]
    for argv in cases:
        code, _, stderr = run(argv, capsys)
        assert code == 2, argv
        assert stderr.startswith("error:usage:"), argv


def test_io_error_missing_file(tmp_path, capsys):
    code, _, stderr = run(
        ["analyze", str(tmp_path / "absent.csv"), "--test", "bin",
         "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == 1
    assert stderr.startswith("error:io:")


def test_parse_error_names_the_line(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,g1,g2\nf1,3,9\nf2,x,4\n")
    code, _, stderr = run(
        ["analyze", str(bad), "--test", "bin", "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == 1
    assert stderr.startswith("error:parse:")
    assert "line 3" in stderr


def test_parse_error_malformed_config(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code, _, stderr = run(
        ["simulate", str(cfg), "--out", str(tmp_path / "out")], capsys
    )
    assert code == 1
    assert stderr.startswith("error:parse:")


def test_parse_error_malformed_manifest(tmp_path, capsys):
    mani = tmp_path / "manifest.json"
    mani.write_text("{]")
    code, _, stderr = run(
        ["analyze", "--from-manifest", str(mani), "--out", str(tmp_path / "o")],
        capsys,
    )
    assert code == 1
    assert stderr.startswith("error:parse:")


def test_config_error_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "poisson_bin", "m": 5, "pi0": 0.5,
                               "turbo": True}))
    code, _, stderr = run(
        ["simulate", str(cfg), "--out", str(tmp_path / "out")], capsys
    )
    assert code == 1
    assert stderr.startswith("error:config:")
    assert "turbo" in stderr


def test_config_error_missing_key_and_bad_kind(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"kind": "poisson_bin", "m": 5}))
    code, _, stderr = run(
        ["simulate", str(cfg), "--out", str(tmp_path / "out")], capsys
    )
    assert code == 1
    assert stderr.startswith("error:config:") and "pi0" in stderr

    cfg.write_text(json.dumps({"kind": "gaussian", "m": 5, "pi0": 0.5}))
    code, _, stderr = run(
        ["simulate", str(cfg), "--out", str(tmp_path / "out2")], capsys
    )
    assert code == 1
    assert stderr.startswith("error:config:")
    assert "poisson_bin" in stderr  # the valid kinds are listed


@pytest.mark.parametrize(
    "command, config, flags, category, named",
    [
        ("simulate", {"m": 1}, [], "config", "benjamini"),
        ("simulate", {"lambda": 1.5}, [], "config", "lambda"),
        ("simulate", {"epsilon": 2}, [], "config", "epsilon"),
        ("simulate", {"pi0_methods": [], "procedures": []}, [], "config", "roster"),
        ("simulate", {}, ["--alpha", "2"], "config", "alpha"),
        ("analyze", {}, ["--alpha", "2"], "usage", "alpha"),
        # malformed config values, checked where the config enters
        ("simulate", {"m": 2.5}, [], "config", "'m'"),
        ("simulate", {"lambda": "x"}, [], "config", "'lambda'"),
        ("simulate", {"kind": "negbinom_ent", "dispersion": 0}, [], "config",
         "dispersion"),
        ("simulate", {"pi0_methods": "storey"}, [], "config", "'pi0_methods'"),
        ("simulate", {"reps": "2"}, [], "config", "'reps'"),
        ("simulate", {"kind": "negbinom_ent", "reps_per_group": 0}, [], "config",
         "reps_per_group"),
        ("simulate", {"m": True}, [], "config", "'m'"),
        # aggregate.json keys each level by its 9-significant-digit text
        ("simulate", {"alpha_levels": []}, [], "config", "alpha_levels"),
        ("simulate", {"alpha_levels": [0.05, 0.05]}, [], "config", "alpha_levels"),
        ("simulate", {}, ["--alpha", "0.05", "--alpha", "0.05000000001"], "config",
         "alpha_levels"),
        # a negative-binomial shape reps * size or reps_per_group / dispersion
        # beyond the float range
        ("analyze-ent", {}, ["--size", "inf"], "usage", "size"),
        ("analyze-ent", {}, ["--size", "1e308"], "usage", "size"),
        # ingest settings the schema refuses
        ("analyze", {}, ["--reps", "0"], "usage", "reps must be at least 1"),
        ("analyze-ent", {}, [], "usage", "ent ingestion requires size"),
        ("simulate", {"kind": "negbinom_ent", "dispersion": float("inf")}, [],
         "config", "dispersion"),
        ("simulate", {"kind": "negbinom_ent", "dispersion": 1e-320}, [], "config",
         "dispersion"),
        # a finite positive shape that numpy's negative-binomial sampler
        # refuses with the scenario's means
        ("simulate", {"kind": "negbinom_ent", "dispersion": 1e308}, [], "config",
         "dispersion"),
        ("simulate", {"kind": "negbinom_ent", "dispersion": 1e40}, [], "config",
         "dispersion"),
        # negative or non-finite negbinom_ent means, named before any draw
        ("simulate", {"kind": "negbinom_ent", "mean_low": -3, "mean_high": -1},
         [], "config", "mean_low -3"),
        ("simulate", {"kind": "negbinom_ent", "mean_high": float("inf")}, [],
         "config", "mean_high inf"),
        ("simulate", {"kind": "negbinom_ent", "m": 4, "mean_file": [1.5, 2, -1, 4]},
         [], "config", "value -1.0 on line 3"),
        # finite means so large that an effect size overflows the group-2
        # mean, or that numpy's sampler refuses them: named, without a warning
        ("simulate", {"kind": "negbinom_ent", "mean_low": 1e308, "mean_high": 1e308},
         [], "config", "group mean 1e+308 times effect size"),
        ("simulate", {"kind": "negbinom_ent", "mean_low": 1e300, "mean_high": 1e300},
         [], "config", "largest group mean 1e+300"),
        ("simulate", {"pareto_location": 1e308}, [], "config",
         "pareto_location 1e+308 gives a group mean beyond the float range"),
        ("simulate", {"pareto_location": 1e300}, [], "config",
         "largest group mean 5.34166e+300 is too large"),
        # the adaptive step-up procedure refuses a level above 1 like the rest
        ("simulate", {"kind": "negbinom_ent", "procedures": ["adaptive_bh"],
                      "alpha_levels": [1.5]}, [], "config", "alpha must lie in"),
        # family parameters out of range, named by their keys before any
        # draw refuses them in numpy's terms (p, a, n, lam)
        ("simulate", {"kind": "binomial_fet", "theta_high": 1.5}, [], "config",
         "theta_high 1.5"),
        ("simulate", {"pareto_shape": 0}, [], "config", "pareto_shape 0"),
        ("simulate", {"kind": "binomial_fet", "trials_size": 0}, [], "config",
         "trials_size 0"),
        ("simulate", {"rho_low": -3}, [], "config", "rho_low -3"),
        ("simulate", {"kind": "negbinom_ent", "rho_location": -1}, [], "config",
         "rho_location -1"),
        ("simulate", {"kind": "binomial_fet", "trials_offset": -5}, [], "config",
         "trials_offset -5"),
        ("simulate", {"kind": "binomial_fet", "trials_mean": -1}, [], "config",
         "trials_mean -1"),
        ("simulate", {"rho_high": float("inf")}, [], "config", "rho_high inf"),
        ("simulate", {"rho_low": 6}, [], "config", "rho_low 6 exceeds rho_high 5.0"),
    ],
    ids=[
        "m-1", "lambda", "epsilon", "empty-roster", "sim-alpha", "analyze-alpha",
        "m-float", "lambda-text", "dispersion-0", "roster-text", "reps-text",
        "reps-per-group-0", "m-bool", "alphas-empty", "alphas-repeated",
        "sim-alpha-repeated", "size-inf", "size-huge", "reps-0", "ent-no-size",
        "dispersion-inf",
        "dispersion-tiny", "dispersion-1e308", "dispersion-1e40",
        "mean-negative", "mean-inf", "mean-file-negative", "mean-1e308",
        "mean-1e300", "pareto-location-1e308", "pareto-location-1e300",
        "adaptive-bh-alpha", "theta-high-1.5", "pareto-shape-0",
        "trials-size-0", "rho-low-negative", "rho-location-negative",
        "trials-offset-negative", "trials-mean-negative", "rho-high-inf",
        "rho-low-above-high",
    ],
)
def test_library_errors_print_one_error_line(
    command, config, flags, category, named, sim_config, bin_file, ent_file,
    tmp_path, capsys, recwarn
):
    """Values the library or the config check rejects give one error line
    that names what is wrong, no warning and no output."""
    if command == "simulate":
        if "mean_file" in config:
            means = tmp_path / "means.txt"
            means.write_text("".join(f"{v}\n" for v in config["mean_file"]))
            config = {**config, "mean_file": str(means)}
        path = Path(sim_config)
        path.write_text(json.dumps({**json.loads(path.read_text()), **config}))
        argv = ["simulate", sim_config]
    elif command == "analyze-ent":
        argv = ["analyze", ent_file, "--test", "ent", "--reps", "2"]
    else:
        argv = ["analyze", bin_file, "--test", "bin"]
    out = tmp_path / "out"
    code, stdout, stderr = run(argv + flags + ["--out", str(out)], capsys)
    assert code == (2 if category == "usage" else 1)
    assert stderr.startswith(f"error:{category}:") and named in stderr
    assert stderr.count("\n") == 1 and stdout == ""
    assert [str(w.message) for w in recwarn] == []
    assert not out.exists()  # the error comes before any output


def _without(key):
    def tamper(manifest):
        del manifest["arguments"][key]
        return manifest

    return tamper


def _with(**arguments):
    def tamper(manifest):
        manifest["arguments"].update(arguments)
        return manifest

    return tamper


@pytest.mark.parametrize(
    "command, tamper, category, named",
    [
        ("analyze", lambda manifest: [1], "parse", "not a JSON object"),
        ("analyze", _without("test"), "config", "'test'"),
        ("analyze", _with(**{"lambda": "0.5"}), "config", "'lambda'"),
        ("analyze", _with(alphas=0.05), "config", "'alphas'"),
        ("analyze", _with(alphas=[]), "config", "'alphas'"),
        ("analyze", _with(min_total="1"), "config", "'min_total'"),
        ("analyze", lambda manifest: {**manifest, "inputs": [1]}, "parse", "inputs"),
        ("simulate", _without("alpha_levels"), "config", "'alpha_levels'"),
        ("tune", lambda manifest: {"command": "tune", "arguments": {}}, "config",
         "'counts'"),
        ("analyze", lambda manifest: {**manifest, "arguments": None}, "parse",
         "has no arguments record"),
        ("analyze", lambda manifest: {**manifest, "command": "tune"}, "usage",
         "records a 'tune' run, not 'analyze'"),
    ],
    ids=[
        "not-object", "no-test", "lambda-text", "alphas-number", "alphas-empty",
        "min-total-text", "inputs-list", "no-alpha-levels", "tune-empty",
        "no-arguments", "other-command",
    ],
)
def test_tampered_manifest_prints_one_error_line(
    command, tamper, category, named, sim_config, bin_file, tmp_path, capsys
):
    """A manifest that is not an object is a parse error; a missing or
    mistyped argument is a config error naming it, and another command's
    manifest a usage error. No output is written."""
    if command == "simulate":
        argv = ["simulate", sim_config]
    else:
        argv = [command, bin_file, "--test", "bin"]
    first = tmp_path / "first"
    assert run(argv + ["--out", str(first)], capsys)[0] == 0
    path = first / "manifest.json"
    path.write_text(json.dumps(tamper(json.loads(path.read_text()))))
    out = tmp_path / "out"
    code, stdout, stderr = run(
        [command, "--from-manifest", str(path), "--out", str(out)], capsys
    )
    assert code == (2 if category == "usage" else 1)
    assert stderr.startswith(f"error:{category}:") and named in stderr
    assert stderr.count("\n") == 1 and stdout == ""
    assert not out.exists()


def test_manifest_with_an_unknown_test_kind_prints_one_error_line(
    bin_file, tmp_path, capsys
):
    """``--test`` lists its choices, so only a replayed manifest reaches
    the schema's refusal of an unknown test kind."""
    first = tmp_path / "first"
    argv = ["analyze", bin_file, "--test", "bin", "--out", str(first)]
    assert run(argv, capsys)[0] == 0
    path = first / "manifest.json"
    path.write_text(json.dumps(_with(test="xyz")(json.loads(path.read_text()))))
    out = tmp_path / "out"
    code, stdout, stderr = run(
        ["analyze", "--from-manifest", str(path), "--out", str(out)], capsys
    )
    assert code == 2
    assert stderr == (
        "error:usage: unknown test kind 'xyz'; choose from bin, fet, ent\n"
    )
    assert stdout == "" and not out.exists()


def test_out_dir_under_a_regular_file_is_an_io_error(bin_file, tmp_path, capsys):
    out = Path(bin_file) / "out"
    code, stdout, stderr = run(
        ["analyze", bin_file, "--test", "bin", "--out", str(out)], capsys
    )
    assert code == 1
    assert stderr.startswith(f"error:io: cannot create output directory {out}: ")
    assert stderr.count("\n") == 1 and stdout == ""


@pytest.mark.parametrize(
    "argv, code, named",
    [
        (["analyze", "{bin}"], 2, "error:usage: --test is required\n"),
        # a bad flag is named as a flag, not blamed on the file
        (["analyze", "{fet3}", "--test", "fet", "--trials", "-1"], 2,
         "error:usage: trials must be at least 0\n"),
        (["simulate", "{list}"], 1, "error:config: config must be a JSON object\n"),
        (["tune", "{one}", "--test", "bin"], 1,
         "error:config: bootstrap tuning needs at least two profiles\n"),
        (["tune", "{bin}", "--test", "bin", "--lambdas", "0.1,x"], 2,
         "error:usage: malformed lambda list '0.1,x': "),
        (["tune", "{bin}", "--test", "bin", "--lambdas", ","], 2,
         "error:usage: empty lambda list\n"),
        (["tune", "{bin}", "--test", "bin", "--point", "0.5,x"], 2,
         "error:usage: malformed grid point '0.5,x': "),
        (["tune", "{bin}", "--test", "bin", "--lambdas", "1.5"], 2,
         "error:usage: grid lambda must lie in [0, 1)\n"),
        (["tune", "{bin}", "--test", "bin", "--B", "0"], 2,
         "error:usage: B must be at least 1\n"),
        # a bad grid flag is named before the table is read
        (["tune", "{prose}", "--test", "bin", "--lambdas", "0.1,x"], 2,
         "error:usage: malformed lambda list '0.1,x': "),
        (["tune", "{prose}", "--test", "bin", "--B", "0"], 2,
         "error:usage: B must be at least 1\n"),
        # a negative seed is refused in the project's words, before any work
        (["tune", "{bin}", "--test", "bin", "--seed", "-1"], 2,
         "error:usage: seed must be at least 0\n"),
        (["tune", "{prose}", "--test", "bin", "--seed", "-1"], 2,
         "error:usage: seed must be at least 0\n"),
        (["simulate", "{negseed}"], 1, "error:config: seed must be at least 0\n"),
        (["simulate", "{scenario}", "--seed", "-3"], 1,
         "error:config: seed must be at least 0\n"),
    ],
    ids=[
        "no-test", "trials-negative", "config-list", "tune-one-row",
        "lambdas-malformed", "lambdas-empty", "point-malformed", "lambda-1.5",
        "B-0", "lambdas-malformed-not-a-table", "B-0-not-a-table",
        "tune-seed-negative", "tune-seed-negative-not-a-table",
        "simulate-config-seed-negative", "simulate-seed-flag-negative",
    ],
)
def test_refusals_print_one_error_line(argv, code, named, bin_file, tmp_path, capsys):
    """Each refusal exits with its category's code and one error line that
    names it, and writes no output directory."""
    files = {"bin": bin_file}
    for name, text in (("fet3", "id,x1,x2\nf1,1,2\n"),
                       ("one", "id,g1,g2\nf1,3,9\n"), ("list", "[1, 2]"),
                       ("prose", "# Notes\n\nA text file,\nnot a count table.\n"),
                       ("scenario", '{"kind": "poisson_bin", "m": 10, "pi0": 0.5}'),
                       ("negseed", '{"kind": "poisson_bin", "m": 10, "pi0": 0.5, '
                                   '"seed": -5}')):
        (tmp_path / name).write_text(text)
        files[name] = str(tmp_path / name)
    out = tmp_path / "out"
    got, stdout, stderr = run(
        [arg.format(**files) for arg in argv] + ["--out", str(out)], capsys
    )
    assert got == code
    assert stderr.startswith(named) and stderr.count("\n") == 1
    assert stdout == "" and not out.exists()


def test_simulate_writes_an_unread_nan_lambda_as_null(sim_config, tmp_path, capsys):
    """A roster that reads no lambda runs with ``"lambda": NaN``; the
    aggregate records it as ``null`` and the manifest replays it."""
    path = Path(sim_config)
    config = {**json.loads(path.read_text()), "lambda": math.nan,
              "pi0_methods": ["pounds_tilde"], "procedures": ["bh"]}
    path.write_text(json.dumps(config))
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(["simulate", sim_config, "--out", str(first)], capsys)[0] == 0
    aggregate = json.loads((first / "aggregate.json").read_text())
    assert aggregate["lambda"] is None
    manifest = str(first / "manifest.json")
    argv = ["simulate", "--from-manifest", manifest, "--out", str(second)]
    assert run(argv, capsys)[0] == 0
    names = ["aggregate.json", "pi0_replications.csv", "mtp_replications.csv"]
    assert data_bytes(first, names) == data_bytes(second, names)


def test_config_error_everything_filtered(bin_file, tmp_path, capsys):
    code, _, stderr = run(
        ["analyze", bin_file, "--test", "bin", "--min-total", "1000",
         "--out", str(tmp_path / "out")],
        capsys,
    )
    assert code == 1
    assert stderr.startswith("error:config:")
    assert "min-total" in stderr


def test_counts_beyond_int64_are_parse_errors(tmp_path, capsys):
    cases = [
        ("bin", "id,a,b\nf1,1,2\nf2,99999999999999999999999,3\n", []),
        (
            "ent",
            "id,a1,a2,b1,b2\nf1,1,2,3,4\nf2,9223372036854775807,1,0,0\n",
            ["--size", "1", "--reps", "2"],
        ),
    ]
    for kind, text, flags in cases:
        path = tmp_path / f"{kind}.csv"
        path.write_text(text)
        out = tmp_path / f"out-{kind}"
        code, stdout, stderr = run(
            ["analyze", str(path), "--test", kind, *flags, "--out", str(out)],
            capsys,
        )
        assert code == 1, kind
        assert stderr.startswith(f"error:parse: {path}: line 3: "), stderr
        assert stderr.count("\n") == 1 and stdout == ""
        assert not out.exists()


@pytest.mark.parametrize(
    "row, total",
    [("9000000000000000000,3", 9 * 10**18 + 3), (f"{2**62},{2**62}", 2**63)],
)
def test_analyze_rejects_totals_beyond_the_limit(row, total, tmp_path, capsys):
    path = tmp_path / "counts.csv"
    path.write_text(f"id,a,b\nf0,3,4\nf1,{row}\n")
    out = tmp_path / "out"
    code, stdout, stderr = run(
        ["analyze", str(path), "--test", "bin", "--out", str(out)], capsys
    )
    assert code == 1
    assert stderr == (
        f"error:parse: {path}: line 3: total {total} exceeds the largest "
        "supported total 4194303\n"
    )
    assert stdout == "" and not out.exists()


# ---------------------------------------------------------------------------
# float cells built in numpy, against Python's own %.9g
# ---------------------------------------------------------------------------


def _assert_formats_as_percent(values):
    """``_float_cells`` and ``_format_floats`` give the bytes of
    ``"%.9g" % x`` for every value, and ``NA`` for NaN, and their
    lengths; ``_format_floats`` ends each value with the one terminator
    given, or with its own byte of a terminator array."""
    x = np.asarray(values, dtype=np.float64)
    expected = ["NA" if v != v else "%.9g" % v for v in x.tolist()]
    cells, width = cli._float_cells(x)
    assert cells == expected and width.tolist() == list(map(len, expected))
    text, length = cli._format_floats(x, ";")
    assert text == "".join(e + ";" for e in expected)
    assert length.tolist() == list(map(len, expected))
    rng = np.random.default_rng(x.shape[0])
    ends = rng.choice(np.frombuffer(b";\n,", dtype=np.uint8), x.shape[0])
    text, length = cli._format_floats(x, ends)
    assert text == "".join(e + chr(c) for e, c in zip(expected, ends.tolist()))
    assert length.tolist() == list(map(len, expected))


def test_formatter_matches_percent_on_random_values():
    rng = np.random.default_rng(17)
    _assert_formats_as_percent(1.0 - rng.random(10**6))  # uniform on (0, 1]
    _assert_formats_as_percent(10.0 ** -rng.uniform(0, 100, 10**6))


def test_formatter_matches_percent_on_exact_ties():
    # dyadic values, such as the points of binomial supports, often have
    # exactly 5 after their ninth digit, which rounds half to even
    _assert_formats_as_percent(2.0 ** -np.arange(1075))
    _assert_formats_as_percent(np.arange(4097) / 4096)
    assert cli._float_cells([2.0**-13, 2.0**-12])[0] == [
        "0.000122070312", "0.000244140625"
    ]
    # the doubles nearest nine digits and a 5, at every decimal exponent
    # down to -99: the scaled value may round either way
    rng = np.random.default_rng(3)
    digits = rng.integers(10**8, 10**9, (99, 50)).tolist()
    _assert_formats_as_percent(
        [float(f"{d}5e{-x - 9}") for x, row in enumerate(digits, 1) for d in row]
    )


def test_formatter_matches_percent_on_subnormals_and_powers_of_ten():
    from discretefdr._kernels import FLOOR

    tiny = np.finfo(np.float64).tiny
    _assert_formats_as_percent(
        [FLOOR, 2 * FLOOR, 1e-310, np.nextafter(tiny, 0), tiny, 1e-100, 1e-99]
    )
    powers = np.array([float(f"1e{k}") for k in range(-300, 1)])
    _assert_formats_as_percent(powers)
    # log10 of a power of ten's neighbours may land in the wrong decade
    _assert_formats_as_percent(np.nextafter(powers, 0))
    _assert_formats_as_percent(np.nextafter(powers[:-1], 1))


def test_formatter_matches_percent_at_every_exponent():
    """Values sampled in every decade from 1e-324 to 1, where the
    formatter reads two- and three-digit exponents and scales past 1e308
    in two steps: subnormals, ``FLOOR`` and the decades' edges too."""
    from discretefdr._kernels import FLOOR

    rng = np.random.default_rng(324)
    digits = rng.integers(10**16, 10**17, (325, 40)).tolist()
    values = [
        float(f"{d}e{x - 16}") for x, row in zip(range(-324, 1), digits) for d in row
    ]
    values += [float(f"1e{x}") for x in range(-323, 1)]
    values += [FLOOR * k for k in range(1, 200)]
    _assert_formats_as_percent(values)
    _assert_formats_as_percent(np.nextafter(values, 0))


def test_formatter_carries_into_the_next_decade():
    values = [9.9999999996e-05, 0.99999999996, 0.0999999999951, 9.999999994e-05]
    assert cli._float_cells(values)[0] == ["0.0001", "1", "0.1", "9.99999999e-05"]
    _assert_formats_as_percent(values + [9.99999999995e-100, 0.999999999])


def test_formatter_falls_back_to_percent_outside_the_unit_interval():
    values = [
        0.0, -0.0, -0.5, -1.0, -1e-300, -1.23456789e-100, math.inf, -math.inf,
        1e9, 123.456, 1.5, 1e300, math.nan,
    ]
    _assert_formats_as_percent(values)
    assert cli._float_cells([0.0, -0.0, math.inf, 1e9, 123.456, math.nan])[0] == [
        "0", "-0", "inf", "1e+09", "123.456", "NA"
    ]
    assert cli._float_cells([None])[0] == ["NA"]


@pytest.mark.parametrize("offset", [-1, 1])
def test_formatter_across_chunks(offset):
    rng = np.random.default_rng(5)
    x = rng.random(cli._CHUNK_ROWS + offset)
    # fallbacks in the first and the last chunk, one of them taking the
    # widest cell
    x[[0, 7, -1]] = [0.0, -1.23456789e-100, 2.0**-13]
    _assert_formats_as_percent(x)


def test_formatter_on_no_values():
    assert cli._float_cells([])[0] == []
    text, length = cli._format_floats(np.empty(0), ";")
    assert text == "" and length.shape == (0,)


def _fet_counts(m, rng):
    """A fet count table drawn like the analyze-fet benchmark's: trials
    NB(size 3, mean 20) + 2 per group, so most supports are distinct."""
    p = 3.0 / (3.0 + 20.0)
    r1 = rng.negative_binomial(3.0, p, m) + 2
    r2 = rng.negative_binomial(3.0, p, m) + 2
    theta = rng.uniform(0.08, 0.65, m)
    rows = np.column_stack([rng.binomial(r1, theta), r1, rng.binomial(r2, theta), r2])
    lines = ["id,x1,r1,x2,r2"] + [
        f"f{i:05d}," + ",".join(map(str, row)) for i, row in enumerate(rows.tolist())
    ]
    return ("\n".join(lines) + "\n").encode()


def test_features_write_holds_no_object_per_support_point(tmp_path):
    """The tracemalloc peak of writing ``features.csv`` for 15 000 fet
    rows (136k support points) stays within 10% of its 4.92 MB, which
    formatting the support cells sets now that the rows are written a
    few ``_WRITE_BYTES`` at a time (joining the whole file, as the
    writer did before, peaked at 9.02 MB); and the support cells alone
    stay within 10% of their own 4.92 MB: the 2.4 MB of cells and one
    run of at most ``_CHUNK_ROWS`` points being formatted. Formatting every point
    into one text before cutting the cells peaked at 6.23 MB, holding
    one Python ``str`` per point at 12.5 MB, and one float per point, as
    the ``%`` pass did, at 7.14 MB."""
    import tracemalloc

    data = _fet_counts(15_000, np.random.default_rng(2001))
    table = ingest_counts(io.BytesIO(data), IngestSchema(kind="fet", min_total=1))
    study = Study.from_distinct(*run_count_table(table))
    assert study.support_flat.shape[0] > 130_000

    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(cli._write_features, str(tmp_path / "f.csv"), table, study) < 5.41e6
    assert peak(cli._support_cells, study) < 5.41e6


@pytest.mark.parametrize("chunk_rows", [1, 3, 7, 1 << 14])
def test_support_cells_match_each_points_text_across_runs(chunk_rows, monkeypatch):
    """Each support's cell is its points' ``%.9g`` text joined by ``;``,
    whatever the runs of at most ``_CHUNK_ROWS`` points (or one longer
    support) it is formatted in; an empty support is an empty cell, at
    the start, between runs and at the end. Each point is formatted
    once. Some supports end in a point that the formatter hands to
    ``%``: an exact tie and a value whose rounding carries into the next
    decade; others in a decade's edge and ``FLOOR``."""
    from discretefdr._kernels import FLOOR

    monkeypatch.setattr(cli, "_CHUNK_ROWS", chunk_rows)
    runs = []
    format_floats = cli._format_floats

    def record(values, end):
        runs.append(len(values))
        return format_floats(values, end)

    monkeypatch.setattr(cli, "_format_floats", record)
    rng = np.random.default_rng(3)
    length = np.array([0, 1, 2, 0, 5, 11, 3, 0, 8, 1, 0])
    flat = np.concatenate([np.sort(rng.random(n)) for n in length])
    flat[[1, 4]] = [1e-300, 2.0**-13]
    # the last points of the supports of lengths 2, 5, 11 and 3
    flat[[2, 7, 18, 21]] = [2.0**-13, np.nextafter(1e-5, 0), FLOOR, 9.9999999996e-05]
    study = Study.from_distinct(
        rng.random(length.shape[0]), flat, np.cumsum(length) - length, length
    )
    cells, width = cli._support_cells(study)
    expected = [
        ";".join("%.9g" % x for x in study.support_flat[a : a + n])
        for a, n in zip(study.support_start, study.support_len)
    ]
    assert cells == expected
    assert width.tolist() == list(map(len, expected))
    assert sum(runs) == flat.shape[0]
    assert max(runs) <= max(chunk_rows, length.max())


def test_support_cells_of_a_study_of_empty_supports_are_empty(monkeypatch):
    """A study whose supports are all empty has only empty cells, one
    per stored support, and formats no point."""
    monkeypatch.setattr(cli, "_format_floats", None)
    study = Study(np.array([0.5, 1.0, 0.25]), [np.empty(0)] * 3)
    assert cli._support_cells(study)[0] == [""]
    study = Study.from_distinct(
        np.array([0.5, 1.0, 0.25]), np.array([0.5, 1.0]), np.arange(3), np.zeros(3)
    )
    cells, width = cli._support_cells(study)
    assert cells == ["", "", ""] and width.tolist() == [0, 0, 0]


def test_ingest_reads_the_benchmark_table_in_bytes():
    """``ingest_counts`` on 15 000 fet rows drawn like the benchmark's
    gives the row-wise oracle's table, and its tracemalloc peak stays
    below 4.4 MB, 1.1 times the 3.99 MB of the row parser it replaced on
    the analyze-fet benchmark input (3.97 MB on this table). The byte
    parser peaks at 3.56 MB here."""
    import tracemalloc

    data = _fet_counts(15_000, np.random.default_rng(2001))
    schema = IngestSchema(kind="fet", min_total=1)
    expected = oracles.ingest_rows(io.BytesIO(data), schema)
    ingest_counts(io.BytesIO(data), schema)
    tracemalloc.start()
    try:
        table = ingest_counts(io.BytesIO(data), schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.ids == expected.ids
    for name in ("group1", "trials1", "group2", "trials2"):
        assert np.array_equal(getattr(table, name), getattr(expected, name)), name
    assert len(table) == 15_000
    assert peak < 4.4e6


@pytest.mark.parametrize("convention", ["minlik", "doubling"])
def test_analyze_counts_with_pvalues_below_float64(convention, tmp_path, capsys):
    path = tmp_path / "counts.csv"
    path.write_text("id,a,b\nf1,2000,1\nf2,3,4\n")
    out = tmp_path / "out"
    code, _, stderr = run(
        ["analyze", str(path), "--test", "bin", "--convention", convention,
         "--out", str(out)],
        capsys,
    )
    assert code == 0, stderr
    rows = read_rows(out / "features.csv")
    assert rows[1][1] == "4.94065646e-324"
    assert rows[1][2].startswith("4.94065646e-324;")


# ---------------------------------------------------------------------------
# column-wise CSV writing against the row-wise reference
# ---------------------------------------------------------------------------

AWKWARD_IDS = ['say "hi"', "a,b", "", "naïve", "日本語", 'q""q,', "α β"]


def _record_writes(monkeypatch) -> dict:
    """Record, per path, the bytes of each write to a file that ``cli``
    opens for binary writing."""
    writes: dict = {}

    class Recorder:
        def __init__(self, fh, path):
            self.fh, self.writes = fh, writes.setdefault(str(path), [])

        def write(self, data):
            self.writes.append(bytes(data))
            return self.fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def recording_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        return Recorder(fh, path) if mode == "wb" else fh

    monkeypatch.setattr(cli, "open", recording_open, raising=False)
    return writes


def _rows_per_write(writes: list, bound: int) -> list:
    """The rows of each write after the header's, checked against the
    bound: a write holds at most ``bound`` bytes, or one row, and could
    not have taken the next write's first row. No cell may hold a line
    feed."""
    rows = [[r + b"\n" for r in w.split(b"\n")[:-1]] for w in writes[1:]]
    for k, chunk in enumerate(rows):
        assert len(chunk) == 1 or len(writes[k + 1]) <= bound
        if k + 1 < len(rows):
            assert len(writes[k + 1]) + len(rows[k + 1][0]) > bound
    return [len(chunk) for chunk in rows]


def test_writer_matches_csv_writer_cell_for_cell(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_WRITE_BYTES", 256)  # several writes, one short
    writes = _record_writes(monkeypatch)
    rng = np.random.default_rng(0)
    n = 53
    special = [
        float("nan"), None, float("inf"), float("-inf"), -0.0, 0.0, 5e-324,
        1e-300, 1e300, 123456789012.0, 0.1, 1.0, 1e-5, 0.0001,
    ]
    floats = special + [
        float(rng.choice([-1, 1]) * rng.lognormal(0, 20))
        for _ in range(n - len(special))
    ]
    texts = AWKWARD_IDS + ["line\nbreak", '"', ",", " spaced ", "t\tab"]
    text = [texts[i % len(texts)] + ("" if i < len(texts) else str(i))
            for i in range(n)]
    ints = rng.integers(-10**12, 10**12, n)
    labels = ['p"q', "r,s", "t", ""]
    index = rng.integers(0, len(labels), n)
    header = ["id", 'a,"b"', "c", "d"]
    got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
    cli._write_csv(
        str(got), header,
        [text, np.array(floats, dtype=np.float64), ints, (labels, index)],
    )
    oracles.write_csv_rows(
        str(expected), header,
        zip(text, floats, ints.tolist(), [labels[k] for k in index.tolist()]),
    )
    assert got.read_bytes() == expected.read_bytes()
    assert len(writes[str(got)]) > 4
    # csv.writer with a "\n" line terminator leaves a carriage return
    # unquoted on some Python versions; the writer always quotes it, so
    # that a CSV reader reads the cell back
    cell = "cr\rhere"
    cli._write_csv(str(got), ["a", "b"], [[cell], np.array([1.0])])
    assert got.read_bytes() == b'a,b\n"cr\rhere",1\n'
    with open(got, newline="", encoding="utf-8") as fh:
        assert list(csv.reader(fh)) == [["a", "b"], [cell, "1"]]
    # an empty table is its header alone
    cli._write_csv(str(got), header[:2], [[], np.empty(0)])
    oracles.write_csv_rows(str(expected), header[:2], [])
    assert got.read_bytes() == expected.read_bytes()


@pytest.mark.parametrize("odd", [None, 'q"', "a,b", "cr\r", "lf\n", "nul\0", "é"])
def test_text_cells_are_measured_a_group_at_a_time(odd, monkeypatch):
    """Text cells are measured in UTF-8 bytes, three to a join here; a
    cell that needs quoting or holds a NUL, in the last group, sends
    every cell to be quoted and measured on its own."""
    monkeypatch.setattr(cli, "_TEXT_CELLS", 3)
    texts = ["a", "", "é", "日本", "xxxxx", "b", "c"] + ([] if odd is None else [odd])
    expected = [
        '"' + t.replace('"', '""') + '"' if any(q in t for q in ',"\r\n') else t
        for t in texts
    ]
    cells, width = cli._text_cells(texts)
    assert cells == expected
    assert width.tolist() == [len(c.encode()) for c in expected]


@pytest.mark.parametrize("m", [5, 6, 7])
@pytest.mark.parametrize("past", [0, 131, 261])
@pytest.mark.parametrize("fill", ["x" * 245, "é" * 122 + "x"], ids=["ascii", "utf8"])
def test_writes_are_cut_at_the_byte_bound(m, past, fill, tmp_path, monkeypatch):
    """Rows of 262 bytes under a bound ``past`` bytes beyond three rows:
    at a row's end, inside the fourth row, and one byte short of its
    end. Every write holds three rows, the last one the rest, for
    tables one row short of a cut, at it and one row past it. The ids
    take 250 bytes, in ASCII or in two-byte characters, which are
    counted in bytes."""
    monkeypatch.setattr(cli, "_WRITE_BYTES", 3 * 262 + past)
    monkeypatch.setattr(cli, "_TEXT_CELLS", 2)  # ids measured two at a time
    writes = _record_writes(monkeypatch)
    floats = np.full(m, 0.5)
    ints = np.arange(100_000, 100_000 + m)
    ids = [f"r{i:04d}{fill}" for i in range(m)]
    got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
    cli._write_csv(str(got), ["p", "n", "id"], [floats, ints, ids])
    oracles.write_csv_rows(
        str(expected), ["p", "n", "id"], zip(floats.tolist(), ints.tolist(), ids)
    )
    assert got.read_bytes() == expected.read_bytes()
    assert _rows_per_write(writes[str(got)], cli._WRITE_BYTES) == [3] * (m // 3) + (
        [m % 3] if m % 3 else []
    )


@pytest.mark.parametrize("bound", [None, 1 << 14])
def test_wide_rows_among_narrow_ones_are_cut_at_the_byte_bound(
    bound, tmp_path, monkeypatch
):
    """A bin table of rows of about 150 bytes with a few rows of about
    20 kB (totals near 5 000, supports of about 1 300 points) among them,
    at the module's bound and at one that the wide rows exceed, so that
    each of them is written alone."""
    if bound is not None:
        monkeypatch.setattr(cli, "_WRITE_BYTES", bound)
    writes = _record_writes(monkeypatch)
    rng = np.random.default_rng(2503)
    m = 2_000
    counts = rng.poisson(14.0, (m, 2))
    wide = [0, 1, 700, 701, 1_400, m - 1]
    counts[wide] = rng.poisson(2_500.0, (len(wide), 2))
    lines = ["id,a,b"] + [f"f{i},{a},{b}" for i, (a, b) in enumerate(counts.tolist())]
    data = ("\n".join(lines) + "\n").encode()
    table = ingest_counts(io.BytesIO(data), IngestSchema(kind="bin", min_total=1))
    study = Study.from_distinct(*run_count_table(table))
    got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
    cli._write_features(str(got), table, study)
    oracles.write_csv_rows(
        str(expected), ["id", "pvalue", "support"],
        oracles.features_rows(table, study),
    )
    assert got.read_bytes() == expected.read_bytes()
    widths = [len(line) + 1 for line in got.read_bytes().split(b"\n")[1:-1]]
    assert max(widths) > 10_000 and np.median(widths) < 200
    per_write = _rows_per_write(writes[str(got)], cli._WRITE_BYTES)
    assert len(per_write) >= 3 and sum(per_write) == m
    if bound is not None:
        # every wide row exceeds the bound, so it is written alone
        assert min(widths[i] for i in wide) > bound
        assert per_write.count(1) >= len(wide)


def _bin_counts(m, rng):
    """A bin count table drawn like the analyze-bin benchmark's:
    Pareto(7, 7) means, so about 80 distinct totals."""
    mean = 7.0 * (1.0 + rng.pareto(7.0, m))
    rows = np.column_stack(
        [rng.poisson(mean), rng.poisson(mean * rng.uniform(1.0, 2.0, m))]
    )
    lines = ["id,count1,count2"] + [
        f"f{i:06d},{a},{b}" for i, (a, b) in enumerate(rows.tolist())
    ]
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("m", [15_000, 150_000])
def test_features_write_holds_its_distinct_cells_and_a_few_writes(m, tmp_path):
    """Writing ``features.csv`` for bin rows drawn like the benchmark's
    (2.3 and 23 MB files) peaks, under tracemalloc, at no more than
    making its distinct cells (support and p-value cells, their widths
    and each row's index) plus four ``_WRITE_BYTES``: no text of more
    than a write is held. The writer that joined 16 384 rows at a time
    peaked 4.8 MB above its cells at 15 000 rows, the whole file twice,
    and 0.9 MB above them at 150 000; this one peaks 0.31 and 0.19 MB
    above them."""
    import tracemalloc

    data = _bin_counts(m, np.random.default_rng(2501))
    table = ingest_counts(io.BytesIO(data), IngestSchema(kind="bin", min_total=1))
    study = Study.from_distinct(*run_count_table(table))

    def distinct_cells():
        supports = (*cli._support_cells(study), study.support_index)
        return [cli._distinct_cells(c) for c in (table.ids, study.pvalues, supports)]

    def peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    path = tmp_path / "features.csv"
    cells = peak(distinct_cells)
    written = peak(cli._write_features, str(path), table, study)
    assert path.stat().st_size > m * 150
    assert written <= cells + 4 * cli._WRITE_BYTES


def _random_counts(kind, m, rng):
    """Columns of a random ``kind`` table of ``m`` rows."""
    if kind == "bin":
        mean = rng.uniform(0, 40, m)
        return [rng.poisson(mean), rng.poisson(mean * rng.uniform(0.5, 3, m))]
    if kind == "fet":
        r1, r2 = rng.integers(0, 40, m), rng.integers(0, 40, m)
        return [rng.binomial(r1, 0.4), r1, rng.binomial(r2, 0.6), r2]
    return [rng.poisson(rng.uniform(0, 8, m)) for _ in range(4)]


@pytest.mark.parametrize(
    "kind, delim, flags",
    [
        ("bin", "\t", []),
        ("fet", ",", []),
        ("ent", "\t", ["--size", "0.7", "--reps", "2"]),
    ],
)
def test_analyze_csv_outputs_match_row_wise_writer(
    kind, delim, flags, tmp_path, capsys, monkeypatch
):
    monkeypatch.setattr(cli, "_WRITE_BYTES", 1 << 14)  # several writes
    writes = _record_writes(monkeypatch)
    rng = np.random.default_rng(len(kind) + len(delim))
    m = 3000
    ids = [f"g{i}" for i in range(m)]
    for k, ident in enumerate(AWKWARD_IDS):
        if delim not in ident:
            ids[k * 400] = ident
    columns = np.column_stack(_random_counts(kind, m, rng)).tolist()
    path = tmp_path / "counts.txt"
    lines = [delim.join(["id"] + [f"c{j}" for j in range(len(columns[0]))])]
    lines += [delim.join([i, *map(str, row)]) for i, row in zip(ids, columns)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "out"
    code, _, stderr = run(
        ["analyze", str(path), "--test", kind, *flags, "--alpha", "0.05",
         "--alpha", "0.2", "--out", str(out)],
        capsys,
    )
    assert code == 0, stderr

    schema = IngestSchema(
        kind=kind, size=0.7 if kind == "ent" else None,
        reps=2 if kind == "ent" else 1, min_total=1,
    )
    with open(path, "rb") as fh:
        table = ingest_counts(fh, schema)
    study = Study.from_distinct(*run_count_table(table, "minlik"))
    ref = tmp_path / "ref"
    ref.mkdir()
    oracles.write_csv_rows(
        str(ref / "features.csv"), ["id", "pvalue", "support"],
        oracles.features_rows(table, study),
    )
    oracles.write_csv_rows(
        str(ref / "table.csv"),
        ["method", "lambda", "epsilon", "pi0", "alpha", "threshold",
         "fdr_at_threshold", "rejections"],
        oracles.analyze_table_rows(study, 0.5, 1.0, [0.05, 0.2]),
    )
    for name in ("features.csv", "table.csv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    assert len(writes[str(out / "features.csv")]) > 4
    # the estimates are the one-study estimators', as JSON
    estimates = {
        "storey": storey_pi0(study, 0.5),
        "generalized": generalized_pi0(study, 0.5, 1.0),
        "pounds_tilde": pounds_tilde_pi0(study),
        "pounds_hat": pounds_hat_pi0(study),
        "benjamini": benjamini_pi0(study),
    }
    got = json.loads((out / "estimates.json").read_text(encoding="utf-8"))
    assert list(got["estimates"]) == list(PI0_METHODS)
    assert got["estimates"] == oracles.jsonify(
        {name: est.to_json_dict() for name, est in estimates.items()}
    )
    features = (out / "features.csv").read_text(encoding="utf-8")
    assert '\n"say ""hi""",' in features
    assert "\n,0" in features or "\n,1" in features  # the empty id
    if delim == "\t":
        assert '\n"a,b",' in features


def test_simulate_csv_outputs_match_row_wise_writer(tmp_path, capsys):
    config = {
        "kind": "binomial_fet", "m": 60, "pi0": 0.7, "reps": 5, "seed": 11,
        "alpha_levels": [0.05, 0.1, 0.2],
        "pi0_methods": list(PI0_METHODS), "procedures": list(PROCEDURES),
    }
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    code, _, stderr = run(["simulate", str(path), "--out", str(out)], capsys)
    assert code == 0, stderr

    spec = ScenarioSpec(
        **{k: v for k, v in config.items() if k not in ("pi0_methods", "procedures")}
        | {"alpha_levels": tuple(config["alpha_levels"])}
    )
    summary = run_replications(
        spec, pi0_methods=PI0_METHODS, procedures=PROCEDURES, lam=0.5, epsilon=1.0
    )
    ref = tmp_path / "ref"
    ref.mkdir()
    oracles.write_csv_rows(
        str(ref / "pi0_replications.csv"), ["rep", "method", "estimate", "excess"],
        oracles.pi0_replication_rows(summary),
    )
    oracles.write_csv_rows(
        str(ref / "mtp_replications.csv"),
        ["rep", "procedure", "alpha", "threshold", "rejections", "fdp"],
        oracles.mtp_replication_rows(summary),
    )
    for name in ("pi0_replications.csv", "mtp_replications.csv"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


# ---------------------------------------------------------------------------
# JSON text in one walk, and one parser for every command of a process
# ---------------------------------------------------------------------------


def _load_workloads():
    """The benchmark's workload definitions, ``perfbench/workloads.py``."""
    import sys

    name = "perfbench_workloads"
    if name not in sys.modules:
        path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location(name, path)
        # registered first: its dataclass looks its module up
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


def test_json_text_matches_json_dumps_on_awkward_values(tmp_path):
    """Every float class, every scalar type, empty and nested
    containers, tuples, and keys and strings that json escapes."""
    awkward = 'q"b\\l\nu\u2028 \u00e9 \u4e2d'
    payload = {
        "floats": [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16,
                   0.1 + 0.2, 1 / 3, -2.5e-300, 123456789.5, np.float64(0.7)],
        "scalars": [0, -7, 2**70, True, False, None],
        "empty": {"dict": {}, "list": [], "tuple": ()},
        "tuples": (1, (2.0, ("x",)), []),
        "rows": [{"a": 1.0, "b": [{}]}, {"c": None}],
        awkward: awkward,
        "": {awkward: [awkward, ""]},
    }
    path = tmp_path / "out.json"
    cli._write_json(str(path), payload)
    assert path.read_bytes() == oracles.json_text(payload).encode()
    for value in (*payload.values(), payload["floats"][0], "", 3):
        assert cli._json_text(value) + "\n" == oracles.json_text(value)


def test_json_text_writes_every_rounded_float_as_repr():
    """Floats at every decimal exponent, both signs, whole numbers, and
    values that round up into the next decade (to ``1e+09``, ``1e-05``
    and ``1``), as the rounding walk and ``json.dumps`` write them."""
    rng = np.random.default_rng(33)
    values = np.concatenate([
        10.0 ** rng.uniform(-330, 308, 4000),
        np.round(10.0 ** rng.uniform(0, 12, 1000)),
        [999999999.5, 9.999999995e-6, 0.9999999995, 99999.99995, 1e-4, 1e9, 2**-13],
    ])
    values = (values * rng.choice([-1.0, 1.0], values.shape[0])).tolist()
    assert cli._json_text(values) + "\n" == oracles.json_text(values)


@pytest.mark.parametrize("seed", [2001, 101])
@pytest.mark.parametrize(
    "workload", ["analyze-bin", "analyze-fet", "simulate-ent", "tune-ent"]
)
def test_json_outputs_of_the_benchmark_workloads_match_json_dumps(
    workload, seed, tmp_path, capsys, monkeypatch
):
    """``estimates.json``, ``aggregate.json`` and ``tuning.json`` of the
    benchmark's commands are ``json.dumps`` of the rounded payload."""
    workloads = _load_workloads()
    argv = workloads.write_inputs(workloads.WORKLOADS[workload], str(tmp_path), seed)
    payloads = {}
    write_json = cli._write_json

    def record(path, payload):
        payloads[path] = payload
        write_json(path, payload)

    monkeypatch.setattr(cli, "_write_json", record)
    code, _, stderr = run(argv + ["--out", str(tmp_path / "out")], capsys)
    assert code == 0, stderr
    assert len(payloads) == 1
    for path, payload in payloads.items():
        assert Path(path).read_bytes() == oracles.json_text(payload).encode()


def test_manifest_is_json_dumps_unrounded(bin_file, tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["analyze", bin_file, "--test", "bin", "--lambda", "0.1234567890123"]
    assert run(argv + ["--out", str(out)], capsys)[0] == 0
    text = (out / "manifest.json").read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert json.loads(text)["arguments"]["lambda"] == 0.1234567890123


#: Commands run one after another in one process; ``{bin}`` is the bin
#: table and ``{prev}`` the previous command's output directory.
SHARED_PARSER_CASES = {
    "alphas": [
        ["analyze", "{bin}", "--test", "bin", "--alpha", "0.1", "--alpha", "0.2"],
        ["analyze", "{bin}", "--test", "bin"],
    ],
    "points": [
        ["tune", "{bin}", "--test", "bin", "--point", "0.5,1", "--B", "20"],
        ["tune", "{bin}", "--test", "bin", "--B", "20"],
    ],
    "usage-error": [
        ["analyze", "{bin}", "--test", "bin", "--bogus", "1"],
        ["analyze", "{bin}", "--test", "bin"],
    ],
    "version": [["--version"], ["analyze", "{bin}", "--test", "bin"]],
    "replay": [
        ["analyze", "{bin}", "--test", "bin", "--alpha", "0.1"],
        ["analyze", "--from-manifest", "{prev}/manifest.json"],
    ],
}


def _run_in_turn(steps, out_dir: Path, bin_file, capsys) -> list:
    """Each step's exit code, stderr, data outputs and manifest arguments."""
    results = []
    for i, step in enumerate(steps):
        out = out_dir / str(i)
        argv = [a.format(bin=bin_file, prev=out_dir / str(i - 1)) for a in step]
        if argv != ["--version"]:
            argv += ["--out", str(out)]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        cap = capsys.readouterr()
        outputs = arguments = None
        if out.exists():
            outputs = {p.name: p.read_bytes() for p in sorted(out.iterdir())
                       if p.name != "manifest.json"}
            arguments = json.loads((out / "manifest.json").read_text())["arguments"]
        results.append((code, cap.err, outputs, arguments))
    return results


@pytest.mark.parametrize("case", sorted(SHARED_PARSER_CASES))
def test_the_shared_parser_keeps_no_state_between_commands(
    case, bin_file, tmp_path, capsys, monkeypatch
):
    """Commands run in turn on the one parser ``main`` keeps give what
    they give with a parser built for each command."""
    steps = SHARED_PARSER_CASES[case]
    assert cli._parser() is cli._parser()
    shared = _run_in_turn(steps, tmp_path / "shared", bin_file, capsys)
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = _run_in_turn(steps, tmp_path / "fresh", bin_file, capsys)
    assert shared == fresh
    assert [r[0] for r in shared] == [2 if case == "usage-error" else 0, 0]
    assert shared[-1][2] and all(r[2] is None for r in shared[:-1]) == (
        case in ("usage-error", "version")
    )
    if case == "alphas":
        assert [r[3]["alphas"] for r in shared] == [[0.1, 0.2], [0.05]]
    if case == "points":
        assert shared[0][3]["points"] == ["0.5,1"] and shared[1][3]["points"] is None


def test_build_parser_returns_a_fresh_parser():
    assert cli.build_parser() is not cli.build_parser()
    assert cli.build_parser() is not cli._parser()


# ---------------------------------------------------------------------------
# run-time dependencies
# ---------------------------------------------------------------------------


def test_commands_load_no_scipy_module(bin_file, ent_file, sim_config, tmp_path):
    """Import, warm-up and every command load numpy only: scipy is for
    the tests. Run in a fresh interpreter, so
    that modules this test session has imported do not count."""
    import os
    import subprocess
    import sys

    import discretefdr

    fet = tmp_path / "fet.csv"
    fet.write_text(FET_COUNTS)
    path = Path(sim_config)
    path.write_text(json.dumps({**json.loads(path.read_text()), "kind": "negbinom_ent"}))
    out = str(tmp_path / "out")
    commands = [
        ["analyze", bin_file, "--test", "bin"],
        ["analyze", str(fet), "--test", "fet"],
        ["analyze", ent_file, "--test", "ent", "--reps", "2", "--size", "1.5"],
        ["simulate", sim_config],
        ["tune", bin_file, "--test", "bin", "--point", "0.5,1", "--B", "5"],
    ]
    code = (
        "import json, sys, discretefdr\n"
        "from discretefdr import cli\n"
        "discretefdr.warm_up()\n"
        f"codes = [cli.main(argv + ['--out', {out!r}]) for argv in {commands!r}]\n"
        "loaded = sorted(n for n in sys.modules if n.split('.')[0] == 'scipy')\n"
        "print(json.dumps([codes, loaded]))\n"
    )
    src = os.path.dirname(discretefdr.__path__[0])
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    codes, loaded = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * len(commands), done.stderr
    assert loaded == []


def test_readme_library_quick_start_runs(tmp_path):
    """The README's *Library quick start*, its one python block, runs in
    a fresh interpreter as written."""
    import os
    import re
    import subprocess
    import sys

    import discretefdr

    readme = Path(__file__).resolve().parent.parent / "README.md"
    section = readme.read_text().split("## Library quick start", 1)[1].split("\n## ", 1)[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    src = os.path.dirname(discretefdr.__path__[0])
    done = subprocess.run(
        [sys.executable, "-c", block],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        )),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
