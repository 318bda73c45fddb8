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
drops; on the same table with one trailing blank line, whose rows'
arrays are views; and on the same table with one comment line at its
middle, whose rows' arrays are gathered. The six are called in turn,
``ROUNDS`` rounds at 15 000 rows and a tenth of that at more, and the
script prints the median plain ingest and, for the other five, the
median and quartiles of each round's ratio to the plain ingest, so that
a difference of 2% can be read. Then, per table, the best of ``REPEAT``
runs of writing ``features.csv`` (id, p-value and support cell of every
row) from the tested table, with the median minor page faults and
system seconds (``resource.getrusage``) of one such write, and the
file's size; and, as parts of that write, formatting the support cells
(``_support_cells``) and the distinct p-values (``_float_cells``),
called in turn for as many rounds as the table's ingest, with the
median and quartiles of each one's milliseconds. The dyadic supports
of ``bin`` send their exact ties to the formatter's ``%`` fallback;
those of ``fet``, and the points of ``wide`` below 1e-99, take its
numpy path. Run with ``python3 benchmarks/bench_io.py``.
"""

from __future__ import annotations

import io
import os
import resource
import statistics
import tempfile
import time

import numpy as np

from discretefdr import IngestSchema, Study, ingest_counts, test_count_table
from discretefdr.cli import _float_cells, _support_cells, _write_features

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


def _alternating(fns, rounds: int) -> list[list[float]]:
    """The wall times of each of ``fns`` over ``rounds`` rounds, each
    round calling every one of them in turn."""
    walls = [[] for _ in fns]
    for _ in range(rounds):
        for wall, fn in zip(walls, fns):
            start = time.perf_counter()
            fn()
            wall.append(time.perf_counter() - start)
    return walls


def _spread(values: list[float]) -> str:
    """Median and quartiles of ``values``."""
    low, median, high = statistics.quantiles(values, n=4)
    return f"{median:.3f} [{low:.3f}, {high:.3f}]"


def _measured(fn, *args) -> tuple[float, float, float, object]:
    """The best wall time of ``REPEAT`` calls, the median minor page
    faults and system seconds of one call, and the last call's result."""
    walls, faults, system, out = [], [], [], None
    for _ in range(REPEAT):
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        out = fn(*args)
        walls.append(time.perf_counter() - start)
        after = resource.getrusage(resource.RUSAGE_SELF)
        faults.append(after.ru_minflt - before.ru_minflt)
        system.append(after.ru_stime - before.ru_stime)
    return min(walls), statistics.median(faults), statistics.median(system), out


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
        plain, *others = _alternating(
            [lambda v=v: ingest_counts(io.BytesIO(v), schema) for v in variants], rounds
        )
        print(
            f"{kind:4s} {m:>6d} {rounds:6d} {statistics.median(plain) * 1e3:6.2f}ms"
            + "".join(
                f" {_spread([t / p for t, p in zip(other, plain)]):>22s}"
                for other in others
            )
        )
        tables.append((kind, m, rounds, table))

    print(
        f"\nwrite: best of {REPEAT} runs; faults and system time: median of one"
        " write; supports and p-values: median [quartiles] ms of the ingest's"
        " rounds, called in turn"
    )
    print(
        f"{'table':11s} {'features.csv':>13s} {'faults':>7s} {'system':>8s}"
        f" {'size':>8s} {'supports':>26s} {'p-values':>22s}  distinct supports"
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "features.csv")
        for kind, m, rounds, table in tables:
            study = Study.from_distinct(*test_count_table(table))
            t_out, faults, system, _ = _measured(_write_features, path, table, study)
            pvalues = np.unique(study.pvalues)
            t_sup, t_p = _alternating(
                [lambda: _support_cells(study), lambda: _float_cells(pvalues)], rounds
            )
            print(
                f"{kind:4s} {m:>6d} {t_out * 1e3:11.1f}ms"
                f" {faults:7.0f} {system * 1e3:6.1f}ms"
                f" {os.path.getsize(path) / 1e6:6.1f}MB"
                f" {_spread([t * 1e3 for t in t_sup]):>26s}"
                f" {_spread([t * 1e3 for t in t_p]):>22s}"
                f"  {study.support_len.shape[0]}"
            )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
