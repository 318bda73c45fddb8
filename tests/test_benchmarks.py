"""The scripts under ``benchmarks/`` still import and name what they
use, and the benchmark's tracer still runs every command."""

import ast
import importlib.util
import types
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).parent.parent / "benchmarks").glob("*.py"))


def test_benchmark_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.stem)
def test_benchmark_script_imports_and_has_main(path):
    """Each script imports and has a ``main``, and every ``module.name``
    it reads exists, so a renamed or removed (often private) name fails
    here rather than when the script is next run."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(getattr(module, "main", None))
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            owner = getattr(module, node.value.id, None)
            if isinstance(owner, types.ModuleType):
                assert hasattr(owner, node.attr), f"{node.value.id}.{node.attr}"


def _load_tracing():
    path = Path(__file__).parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Names the tracer wraps that the package no longer has: ``cli`` runs
#: every estimator and procedure on its one study, and ``sim`` on each
#: chunk of replications, through the row-wise solvers of
#: ``sim.evaluate_block`` instead of the one-study procedures. The
#: estimator table lives in ``estimators``: ``sim`` reads it and keeps
#: no one-study estimator or ``compute_pi0``. ``sim.run_procedure`` and
#: ``tuning``'s import of ``generalized_pi0`` are gone.
ABSENT_TODAY = {
    *(
        f"cli.{name}"
        for name in (
            "adaptive_bh", "benjamini_pi0", "bh_procedure",
            "build_rejection_process", "generalized_pi0", "pounds_hat_pi0",
            "pounds_tilde_pi0", "storey_pi0", "threshold",
        )
    ),
    *(
        f"sim.{name}"
        for name in (
            "adaptive_bh", "benjamini_pi0", "bh_procedure",
            "build_rejection_process", "compute_pi0", "generalized_pi0",
            "pounds_hat_pi0", "pounds_tilde_pi0", "run_procedure", "storey_pi0",
            "threshold",
        )
    ),
    "tuning.generalized_pi0",
}


@pytest.mark.parametrize("command", ["analyze-bin", "analyze-fet", "simulate", "tune"])
def test_benchmark_tracer_runs_each_command(command, tmp_path):
    """``perfbench/tracing.py`` traces a tiny run of each command: it
    reads the kernels' results, its self times partition the command
    time as ``perfbench/run.py`` checks, and no further name it wraps
    has gone missing."""
    import discretefdr
    from discretefdr import cli

    tracing = _load_tracing()
    tables = {
        "analyze-bin": ("bin", "id,a,b\nf1,3,9\nf2,1,12\nf3,5,5\nf4,2,2\n"),
        "analyze-fet": ("fet", "id,x1,r1,x2,r2\nf1,1,10,8,12\nf2,4,9,5,11\n"),
        "tune": ("bin", "id,a,b\nf1,3,9\nf2,1,12\nf3,5,5\nf4,2,2\n"),
    }
    if command == "simulate":
        config = tmp_path / "scenario.json"
        config.write_text('{"kind": "negbinom_ent", "m": 20, "pi0": 0.6, "reps": 2}')
        argv = ["simulate", str(config)]
    else:
        kind, text = tables[command]
        counts = tmp_path / "counts.csv"
        counts.write_text(text)
        argv = [command.split("-")[0], str(counts), "--test", kind]
        if command == "tune":
            argv += ["--B", "10"]
    tracer = tracing.Tracer()
    with tracer.installed(discretefdr):
        code = tracer.run(cli.main, argv + ["--out", str(tmp_path / "out")])
    assert code == 0
    assert tracer.input_properties()["m"] > 0
    assert tracer.counts()["kernels.features"] > 0
    gap = abs(sum(tracer.self_times().values()) - tracer.command_s())
    assert gap <= 1e-6 * tracer.command_s()
    assert set(tracer.absent) == ABSENT_TODAY
