"""End-to-end CLI behavior: outputs, reproducibility, error contract."""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from discretefdr import IngestSchema, ScenarioSpec, Study, cli, ingest_counts
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
    ],
    ids=[
        "m-1", "lambda", "epsilon", "empty-roster", "sim-alpha", "analyze-alpha",
        "m-float", "lambda-text", "dispersion-0", "roster-text", "reps-text",
        "reps-per-group-0", "m-bool",
    ],
)
def test_library_errors_print_one_error_line(
    command, config, flags, category, named, sim_config, bin_file, tmp_path, capsys
):
    """Values the library or the config check rejects give one error line
    that names what is wrong, and no output."""
    if command == "simulate":
        path = Path(sim_config)
        path.write_text(json.dumps({**json.loads(path.read_text()), **config}))
        argv = ["simulate", sim_config]
    else:
        argv = ["analyze", bin_file, "--test", "bin"]
    out = tmp_path / "out"
    code, stdout, stderr = run(argv + flags + ["--out", str(out)], capsys)
    assert code == (2 if category == "usage" else 1)
    assert stderr.startswith(f"error:{category}:") and named in stderr
    assert stderr.count("\n") == 1 and stdout == ""
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
    ],
    ids=[
        "not-object", "no-test", "lambda-text", "alphas-number", "alphas-empty",
        "min-total-text", "inputs-list", "no-alpha-levels", "tune-empty",
    ],
)
def test_tampered_manifest_prints_one_error_line(
    command, tamper, category, named, sim_config, bin_file, tmp_path, capsys
):
    """A manifest that is not an object is a parse error; a missing or
    mistyped argument is a config error naming it. No output is written."""
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
    assert code == 1
    assert stderr.startswith(f"error:{category}:") and named in stderr
    assert stderr.count("\n") == 1 and stdout == ""
    assert not out.exists()


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


def test_writer_matches_csv_writer_cell_for_cell(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)  # several chunks, one short
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
    monkeypatch.setattr(cli, "_CHUNK_ROWS", 1000)  # three chunks
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
