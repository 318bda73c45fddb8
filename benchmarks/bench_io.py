#!/usr/bin/env python3
"""Benchmark count-table ingestion and the ``features.csv`` write.

The inputs are drawn like those of the analyze benchmark workloads, at
``SIZES`` rows each:

* ``bin``: two Poisson counts per row, Pareto(7, 7) means, so about 80
  distinct totals and few distinct supports;
* ``fet``: a count and its trials per group, trials NB(size 3, mean
  20) + 2, so most (r1, r2, s) keys, and so most supports, are
  distinct.

For each table the script prints the best wall time, over ``REPEAT``
runs, of ``ingest_counts`` on the file's bytes and of writing
``features.csv`` (id, p-value and support cell of every row) from the
tested table. Run with ``python3 benchmarks/bench_io.py``.
"""

from __future__ import annotations

import io
import os
import tempfile
import time

import numpy as np

from discretefdr import IngestSchema, Study, ingest_counts, test_count_table
from discretefdr.cli import _write_features

SIZES = (15_000, 150_000)
REPEAT = 5
SEED = 0


def _table_bytes(kind: str, m: int, rng: np.random.Generator) -> bytes:
    if kind == "bin":
        mean = 7.0 * (1.0 + rng.pareto(7.0, m))
        columns = [rng.poisson(mean), rng.poisson(mean * rng.uniform(1.0, 2.0, m))]
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


def _best(fn, *args) -> tuple[float, object]:
    best, out = float("inf"), None
    for _ in range(REPEAT):
        start = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - start)
    return best, out


def main() -> int:
    rng = np.random.default_rng(SEED)
    print(f"best of {REPEAT} runs")
    print(f"{'table':12s} {'ingest':>10s} {'features.csv':>13s}  distinct supports")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "features.csv")
        for kind in ("bin", "fet"):
            for m in SIZES:
                data = _table_bytes(kind, m, rng)
                schema = IngestSchema(kind=kind, min_total=1)
                t_in, table = _best(lambda: ingest_counts(io.BytesIO(data), schema))
                study = Study.from_distinct(*test_count_table(table))
                t_out, _ = _best(_write_features, path, table, study)
                print(
                    f"{kind} {m:>8d} {t_in * 1e3:8.1f}ms {t_out * 1e3:11.1f}ms"
                    f"  {study.support_len.shape[0]}"
                )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
