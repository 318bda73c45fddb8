#!/usr/bin/env python3
"""Benchmark the command line's fixed costs on the tune-ent command.

The input is the tune-ent benchmark workload's (``perfbench/workloads.py``)
at seed ``SEED``: 600 features of three negative-binomial samples per
group, tuned on the default 100-point grid with B = 100 under the
tail-doubling convention. The script calls the cases below in turn,
``ROUNDS`` rounds, and prints the median [quartiles] of each one's wall
time:

* ``build_parser()``, which builds the argument parser afresh;
* ``parse_args`` of the command on the parser ``cli.main`` reuses;
* ``cli._write_json`` of the command's ``tuning.json`` payload, which
  forms the text in one walk, and the reference pair of
  ``tests/oracles.py`` it replaced: a rounding walk, then ``json.dumps``
  with ``indent=2``; both write the same bytes to a file;
* the whole ``cli.main`` command, with its one parser, and with a
  parser built for the command, as every command built one before.

Run with ``python3 benchmarks/bench_cli.py``.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import tempfile

import timing
from discretefdr import cli

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "tests"))
sys.path.insert(0, os.path.join(HERE, "..", "perfbench"))
import oracles  # noqa: E402
import workloads  # noqa: E402

ROUNDS = 200
SEED = 2001


def _tuning_payload(argv: list[str]) -> dict:
    """The ``tuning.json`` payload that ``cli.cmd_tune`` returns."""
    args = vars(cli._parser().parse_args(argv))
    settings = {k: v for k, v in args.items() if k not in cli._RUN_FLAGS}
    _, [(_, _, payload)], _ = cli.cmd_tune(settings, None)
    return payload


def _write_oracle(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(oracles.json_text(payload))


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        workload = workloads.WORKLOADS["tune-ent"]
        argv = workloads.write_inputs(workload, tmp, SEED) + ["--out", tmp]
        payload = _tuning_payload(argv)
        json_path = os.path.join(tmp, "bench.json")
        parser = cli._parser()
        shared = cli._parser

        def main_fresh_parser():
            cli._parser = cli.build_parser
            try:
                cli.main(argv)
            finally:
                cli._parser = shared

        cases = {
            "build_parser()": cli.build_parser,
            "parse_args, reused parser": lambda: parser.parse_args(argv),
            "_write_json(tuning.json)": lambda: cli._write_json(json_path, payload),
            "oracle: jsonify + json.dumps": lambda: _write_oracle(json_path, payload),
            "cli.main, one parser": lambda: cli.main(argv),
            "cli.main, parser per command": main_fresh_parser,
        }
        walls = timing.interleaved(list(cases.values()), ROUNDS)
    print(f"tune-ent (seed {SEED}), {ROUNDS} rounds, cases called in turn; "
          "median [quartiles] ms")
    for name, wall in zip(cases, walls):
        print(f"{name:>30s} {timing.spread(wall):>28s}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
