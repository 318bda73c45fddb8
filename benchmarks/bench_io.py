#!/usr/bin/env python3
"""Benchmark count-table ingestion and the ``features.csv`` write.

The inputs are drawn like those of the analyze benchmark workloads, at
``SIZES`` rows each:

* ``bin``: two Poisson counts per row, Pareto(7, 7) means, so about 80
  distinct totals and few distinct supports;
* ``fet``: a count and its trials per group, trials NB(size 3, mean
  20) + 2, so most (r1, r2, s) keys, and so most supports, are
  distinct;
* ``wide``: a ``bin`` table with both means drawn from U(450, 550), at
  ``WIDE_SIZES`` rows: totals near 1 000, so a few hundred distinct
  supports of several hundred points, and rows of about 7.5 kB.

For each table the script times ``ingest_counts`` on the file's bytes;
on the same table with the first count of one row in ``SIGNED_EVERY``
written with a ``+`` sign, which ``int`` reads one cell at a time; on
the same table made not plain, with one UTF-8 id and U+2028 (LINE
SEPARATOR) line ends, which is decoded and cut into lines by
``str.splitlines``; on the same table with the counts of one row in
``DROPPED_EVERY`` set to 0, which the total filter (``min_total=1``)
drops; on the same table with one trailing blank line; and on the same
table with one comment line at its middle. The six are called in turn,
``ROUNDS`` rounds at 15 000 rows and a tenth of that at more, and the
script prints the median plain ingest and, for the other five, the
median and quartiles of each round's ratio to the plain ingest, so that
a difference of 2% can be read. Then, per table, writing
``features.csv`` (id, p-value and support cell of every row) from the
tested table and, as parts of that write, formatting the support cells
(``_support_cells``) and the distinct p-values (``_float_cells``),
called in turn for as many rounds as the table's ingest, with the
median and quartiles of each one's milliseconds; the median minor page
faults and system seconds (``resource.getrusage``) of ``REPEAT`` more
writes, and the file's size. The dyadic supports
of ``bin`` send their exact ties to the formatter's ``%`` fallback;
those of ``fet``, and the points of ``wide`` below 1e-99, take its
numpy path. Last, per table, the support floors of the tested study
(``Study.support_floor``) at one lambda, 0.5, and at ``tune``'s 20
default lambdas (``TUNE_LAMBDAS``), called in turn for as many rounds,
with the median and quartiles of each one's milliseconds. Run with
``python3 benchmarks/bench_io.py``.
"""

from __future__ import annotations

import io
import os
import statistics
import tempfile

import numpy as np

import timing
from discretefdr import IngestSchema, Study, ingest_counts, test_count_table
from discretefdr.cli import _float_cells, _support_cells, _write_features, build_parser

SIZES = (15_000, 150_000)
WIDE_SIZES = (1_500,)
REPEAT = 5
#: Interleaved ingest rounds at up to 15 000 rows; larger tables take a
#: tenth of them.
ROUNDS = 300
SEED = 0
#: One row in this many has a ``+``-signed count in the signed case.
SIGNED_EVERY = 4_096
#: One row in this many is dropped by the total filter in the dropping
#: case.
DROPPED_EVERY = 10
#: ``tune``'s default lambdas, read off its parser.
TUNE_LAMBDAS = np.array(
    build_parser().parse_args(["tune"]).lambdas.split(","), dtype=np.float64
)


def _table_bytes(kind: str, m: int, rng: np.random.Generator) -> bytes:
    if kind == "bin":
        mean = 7.0 * (1.0 + rng.pareto(7.0, m))
        columns = [rng.poisson(mean), rng.poisson(mean * rng.uniform(1.0, 2.0, m))]
        header = "id,count1,count2"
    elif kind == "wide":
        columns = [rng.poisson(rng.uniform(450.0, 550.0, m)) for _ in range(2)]
        header = "id,count1,count2"
    else:
        p = 3.0 / (3.0 + 20.0)
        r1 = rng.negative_binomial(3.0, p, m) + 2
        r2 = rng.negative_binomial(3.0, p, m) + 2
        theta = rng.uniform(0.08, 0.65, m)
        columns = [rng.binomial(r1, theta), r1, rng.binomial(r2, theta), r2]
        header = "id,x1,r1,x2,r2"
    rows = np.column_stack(columns).tolist()
    lines = [header] + [
        f"f{i:06d}," + ",".join(map(str, row)) for i, row in enumerate(rows)
    ]
    return ("\n".join(lines) + "\n").encode()


def _with_signs(data: bytes) -> bytes:
    """The same table with the first count of one data row in
    ``SIGNED_EVERY`` written as ``+count``."""
    lines = data.split(b"\n")
    for i in range(1, len(lines) - 1, SIGNED_EVERY):
        ident, rest = lines[i].split(b",", 1)
        lines[i] = ident + b",+" + rest
    return b"\n".join(lines)


def _not_plain(data: bytes) -> bytes:
    """The same table with U+2028 line ends and the first id written
    with a non-ASCII letter."""
    lines = data.decode().split("\n")
    lines[1] = "é" + lines[1]
    return "\u2028".join(lines).encode()


def _with_drops(data: bytes) -> bytes:
    """The same table with every count of one data row in
    ``DROPPED_EVERY`` written as 0, below ``min_total=1``."""
    lines = data.split(b"\n")
    for i in range(1, len(lines) - 1, DROPPED_EVERY):
        cells = lines[i].split(b",")
        lines[i] = b",".join([cells[0]] + [b"0"] * (len(cells) - 1))
    return b"\n".join(lines)


def _with_comment(data: bytes) -> bytes:
    """The same table with a comment line at the middle of its rows."""
    lines = data.split(b"\n")
    middle = len(lines) // 2
    return b"\n".join(lines[:middle] + [b"# a comment"] + lines[middle:])


def main() -> int:
    rng = np.random.default_rng(SEED)
    cases = [("bin", m) for m in SIZES] + [("fet", m) for m in SIZES]
    cases += [("wide", m) for m in WIDE_SIZES]
    print(
        "ingest: median ms of the plain table; the others as the median"
        " [quartiles] of each round's ratio to it"
    )
    names = ("signed", "not plain", "dropping", "blank end", "comment")
    print(
        f"{'table':11s} {'rounds':>6s} {'ingest':>8s}"
        + "".join(f" {name:>22s}" for name in names)
    )
    tables = []
    for kind, m in cases:
        data = _table_bytes(kind, m, rng)
        schema = IngestSchema(kind="bin" if kind == "wide" else kind, min_total=1)
        variants = [
            data, _with_signs(data), _not_plain(data), _with_drops(data),
            data + b"\n", _with_comment(data),
        ]
        read = [ingest_counts(io.BytesIO(v), schema) for v in variants]
        table = read[0]
        for other in read[1:3] + read[4:]:
            assert other.ids[1:] == table.ids[1:]
            assert np.array_equal(other.group1, table.group1)
        assert read[3].dropped >= m // DROPPED_EVERY
        rounds = ROUNDS if m <= 15_000 else ROUNDS // 10
        plain, *others = timing.interleaved(
            [lambda v=v: ingest_counts(io.BytesIO(v), schema) for v in variants], rounds
        )
        print(
            f"{kind:4s} {m:>6d} {rounds:6d} {statistics.median(plain) * 1e3:6.2f}ms"
            + "".join(
                f" {timing.spread([t / p for t, p in zip(other, plain)], 1):>22s}"
                for other in others
            )
        )
        tables.append((kind, m, rounds, table))

    print(
        "\nwrite, supports and p-values: median [quartiles] ms of the ingest's"
        f" rounds, called in turn; faults and system time: median of {REPEAT}"
        " more writes"
    )
    print(
        f"{'table':11s} {'features.csv':>26s} {'faults':>7s} {'system':>8s}"
        f" {'size':>8s} {'supports':>26s} {'p-values':>22s}  distinct supports"
    )
    studies = []
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "features.csv")
        for kind, m, rounds, table in tables:
            study = Study.from_distinct(*test_count_table(table))
            studies.append(study)
            pvalues = np.unique(study.pvalues)
            t_out, t_sup, t_p = timing.interleaved(
                [
                    lambda: _write_features(path, table, study),
                    lambda: _support_cells(study),
                    lambda: _float_cells(pvalues),
                ],
                rounds,
            )
            faults, system = timing.faults(
                _write_features, path, table, study, repeat=REPEAT
            )
            print(
                f"{kind:4s} {m:>6d} {timing.spread(t_out):>26s}"
                f" {faults:7.0f} {system * 1e3:6.1f}ms"
                f" {os.path.getsize(path) / 1e6:6.1f}MB"
                f" {timing.spread(t_sup):>26s}"
                f" {timing.spread(t_p):>22s}"
                f"  {study.support_len.shape[0]}"
            )

    print(
        f"\nsupport floors at 1 and {TUNE_LAMBDAS.shape[0]} lambdas: median"
        " [quartiles] ms of the ingest's rounds, called in turn"
    )
    print(f"{'table':11s} {'1 lambda':>22s} {'grid':>22s}  support points")
    for (kind, m, rounds, _), study in zip(tables, studies):
        t_one, t_grid = timing.interleaved(
            [
                lambda: study.support_floor(0.5),
                lambda: study.support_floor(TUNE_LAMBDAS),
            ],
            rounds,
        )
        print(
            f"{kind:4s} {m:>6d} {timing.spread(t_one):>22s}"
            f" {timing.spread(t_grid):>22s}  {study.support_flat.shape[0]}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
