"""Exact two-sided discrete tests that expose their full null supports.

Three conditional tests are provided, one per count-data family:

* ``binomial_test`` for a pair of Poisson counts, conditioning on the
  total so the null law of the first count is Binomial(n, 1/2);
* ``fisher_test`` for a pair of binomial counts with known trials,
  conditioning on all margins so the null law is hypergeometric;
* ``nb_exact_test`` for a pair of negative-binomial group sums,
  conditioning on the total so the common mean cancels.

All three return a :class:`TestResult` carrying both the observed
p-value and the complete set of p-values the test can produce under
its conditional null (the support). Downstream estimators need the
support to correct for discreteness.

Two-sided convention
--------------------
The default convention is minimum likelihood: the p-value is the total
null probability of outcomes no more likely than the observed one.
This matches the convention of standard exact-test implementations and
fixes the supports. A tail-doubling alternative (twice the smaller
tail, capped at 1) is available via ``convention="doubling"``.

The module also houses delimited-text ingestion of count tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from typing import IO

import numpy as np

from . import _kernels

CONVENTIONS = ("minlik", "doubling")

#: The largest count a table may hold, per cell and per group sum.
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class TestResult:
    """Observed two-sided p-value plus the full null p-value support.

    ``support`` is strictly increasing, lies in (0, 1] and ends at 1;
    ``pvalue`` is always one of its elements.
    """

    pvalue: float
    support: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "support", np.asarray(self.support, dtype=np.float64)
        )


def _single(batch_result) -> TestResult:
    pvals, flat, start, length = batch_result
    return TestResult(float(pvals[0]), flat[start[0] : start[0] + length[0]].copy())


def _validate_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ValueError(
            f"unknown convention {convention!r}; choose from {CONVENTIONS}"
        )


def binomial_test(x1: int, x2: int, convention: str = "minlik") -> TestResult:
    """Exact symmetric test of two Poisson counts.

    Conditions on ``n = x1 + x2``; under the null of equal means the
    first count is Binomial(n, 1/2). ``n = 0`` is degenerate and gives
    p-value 1 with support {1}.
    """
    _validate_convention(convention)
    if x1 < 0 or x2 < 0:
        raise ValueError("counts must be nonnegative")
    return _single(_kernels.batch_binomial([x1], [x2], convention))


def fisher_test(
    x1: int, r1: int, x2: int, r2: int, convention: str = "minlik"
) -> TestResult:
    """Exact conditional test of two binomial proportions.

    Conditions on the margins ``(r1, r2, s = x1 + x2)``; under the null
    of equal success probabilities the first count is hypergeometric.
    Degenerate margins (``s = 0`` or ``s = r1 + r2``) give p-value 1.
    """
    _validate_convention(convention)
    if x1 < 0 or x2 < 0 or r1 < 0 or r2 < 0:
        raise ValueError("counts and trials must be nonnegative")
    if x1 > r1 or x2 > r2:
        raise ValueError("count exceeds trials")
    return _single(_kernels.batch_fisher([x1], [r1], [x2], [r2], convention))


def nb_exact_test(
    s1: int, s2: int, size: float, reps: int, convention: str = "minlik"
) -> TestResult:
    """Exact conditional test of two negative-binomial group sums.

    Each group sum is the total of ``reps`` samples with per-sample
    shape ``size``, so the group sum has shape ``reps * size``. Under
    the null of a common mean, conditioning on ``s = s1 + s2`` cancels
    the mean entirely: the weight of a split ``a`` is proportional to
    ``C(a + k - 1, a) * C(s - a + k - 1, s - a)`` with
    ``k = reps * size``. ``s = 0`` is degenerate and gives p-value 1.

    Note that ``reps * size = 1`` makes every split equally likely, so
    the p-value is 1 for any observed pair.
    """
    _validate_convention(convention)
    if s1 < 0 or s2 < 0:
        raise ValueError("counts must be nonnegative")
    if not size > 0:
        raise ValueError("size must be positive")
    if reps < 1:
        raise ValueError("reps must be at least 1")
    k = float(reps) * float(size)
    return _single(_kernels.batch_negbinom([s1], [s2], k, convention))


# ---------------------------------------------------------------------------
# count-table ingestion
# ---------------------------------------------------------------------------


@dataclass
class IngestSchema:
    """How to read a delimited count file.

    ``kind`` is one of ``bin`` (one count per group), ``fet`` (count
    and trials per group, or count only with constant ``trials``) and
    ``ent`` (group sums, or ``reps`` raw per-sample counts per group
    that are summed on ingestion). ``min_total``/``max_total`` filter
    rows on each group's total (the count for ``bin``, the trials for
    ``fet``, the group sum for ``ent``); rows outside the range are
    dropped and counted.
    """

    kind: str
    trials: int | None = None
    size: float | None = None
    reps: int = 1
    min_total: int | None = None
    max_total: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("bin", "fet", "ent"):
            raise ValueError(
                f"unknown test kind {self.kind!r}; choose from bin, fet, ent"
            )
        if self.kind == "ent" and self.size is None:
            raise ValueError("ent ingestion requires size")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if self.trials is not None and self.trials > _INT64_MAX:
            raise ValueError(f"trials must be at most {_INT64_MAX}")


@dataclass
class CountTable:
    """Parsed count table ready for per-feature testing."""

    kind: str
    ids: list[str]
    group1: np.ndarray
    group2: np.ndarray
    trials1: np.ndarray | None = None
    trials2: np.ndarray | None = None
    size: float | None = None
    reps: int = 1
    dropped: int = 0

    def __len__(self) -> int:
        return len(self.ids)


def _widths(schema: IngestSchema) -> tuple[int, ...]:
    """The column counts a data row of ``schema``'s table may have."""
    if schema.kind == "fet":
        return (5,) if schema.trials is None else (5, 3)
    if schema.kind == "ent":
        return tuple(dict.fromkeys((1 + 2 * schema.reps, 3)))
    return (3,)


#: Data rows split and converted at a time.
_CHUNK_ROWS = 1 << 12


class _Fault(Exception):
    """Some data row is malformed; the message says how, without the line."""


def _int_column(tokens: list[str]) -> np.ndarray:
    ints: list[int] = []
    try:
        ints.extend(map(int, tokens))
    except ValueError:
        # extend keeps the counts converted before the token int rejects
        raise _Fault(f"non-integer count {tokens[len(ints)].strip()!r}") from None
    try:
        values = np.array(ints, dtype=np.int64)
        if not (values < 0).any():
            return values
    except OverflowError:
        pass
    value = next(v for v in ints if not 0 <= v <= _INT64_MAX)
    if value < 0:
        raise _Fault(f"negative count {value}")
    raise _Fault(f"count {value} exceeds the largest supported count {_INT64_MAX}")


def _sum_columns(columns: list[np.ndarray]) -> np.ndarray:
    total = columns[0].copy()
    for column in columns[1:]:
        total += column
        # both addends are nonnegative, so a sum past int64 wraps below 0
        wrapped = total < 0
        if wrapped.any():
            i = int(wrapped.argmax())
            raise _Fault(
                f"group sum {sum(int(c[i]) for c in columns)} exceeds the "
                f"largest supported count {_INT64_MAX}"
            )
    return total


def _parse_block(tokens: list[str], width: int, schema: IngestSchema):
    """``(ids, x1, r1, x2, r2)`` of data rows of one width, from their
    cells in row order; ``r1``/``r2`` are None unless the kind is fet."""
    ids = list(map(str.strip, tokens[0::width]))
    values = [_int_column(tokens[j::width]) for j in range(1, width)]
    r1 = r2 = None
    if schema.kind == "fet" and width == 5:
        x1, r1, x2, r2 = values
    elif schema.kind == "fet":
        x1, x2 = values
        r1 = r2 = np.full(len(ids), schema.trials, dtype=np.int64)
    elif schema.kind == "ent" and width == 1 + 2 * schema.reps:
        x1 = _sum_columns(values[: schema.reps])
        x2 = _sum_columns(values[schema.reps :])
    else:
        x1, x2 = values
    if r1 is not None and ((x1 > r1) | (x2 > r2)).any():
        raise _Fault("count exceeds trials")
    return ids, x1, r1, x2, r2


def _parse_rows(rows: list[str], line_of, delim: str, schema: IngestSchema):
    """``(ids, x1, r1, x2, r2)`` of the data rows, parsed column-wise.

    The rows are taken ``_CHUNK_ROWS`` at a time, in file order, so that
    few cells are alive at once. Within a chunk the rows of each legal
    width are split together and each numeric column is converted with
    one pass of ``int``. A chunk with a malformed row is parsed again
    one row at a time; the first row that fails raises
    :class:`ValueError` naming its file line ``line_of[i]``. Every
    earlier chunk parsed, so that row is the first bad one.
    """
    n = len(rows)
    widths = _widths(schema)
    width = np.fromiter(map(str.count, rows, repeat(delim)), np.int64, n) + 1
    illegal = ~np.isin(width, widths)
    ids = np.empty(n, dtype=object)
    x1, x2 = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    r1 = r2 = None
    if schema.kind == "fet":
        r1, r2 = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    columns = (ids, x1, r1, x2, r2)

    def fill(lo: int, hi: int) -> None:
        chunk, chunk_width = rows[lo:hi], width[lo:hi]
        bad = chunk_width[illegal[lo:hi]]
        if bad.shape[0]:
            legal = " or ".join(map(str, widths))
            raise _Fault(f"expected {legal} columns, got {bad[0]}")
        for w in widths:
            at = np.flatnonzero(chunk_width == w)
            if at.shape[0] == 0:
                continue
            whole_chunk = at.shape[0] == len(chunk)
            block = chunk if whole_chunk else [chunk[i] for i in at.tolist()]
            parsed = _parse_block(delim.join(block).split(delim), w, schema)
            for whole, part in zip(columns, parsed):
                if whole is not None:
                    whole[lo + at] = part

    lo, step = 0, _CHUNK_ROWS
    while lo < n:
        try:
            fill(lo, lo + step)
        except _Fault as fault:
            if step == 1:
                raise ValueError(f"line {line_of[lo]}: {fault}") from None
            step = 1  # parse this chunk again, one row at a time
            continue
        lo += step
    return columns


def _check_limit(x1, r1, x2, r2, keep, line_of) -> None:
    """Raise the error of the first kept row whose conditioned total
    exceeds ``_kernels.MAX_TOTAL``: either trials count for fet
    (``r1`` given), ``x1 + x2`` otherwise, compared without forming the
    sum. Row ``i`` is file line ``line_of[i]``."""
    limit = _kernels.MAX_TOTAL
    if r1 is not None:
        over = keep & ((r1 > limit) | (r2 > limit))
    else:
        over = keep & (x2 > limit - x1)
    if not over.any():
        return
    i = int(np.argmax(over))
    if r1 is not None:
        what = f"trials {max(int(r1[i]), int(r2[i]))} exceed"
    else:
        what = f"total {int(x1[i]) + int(x2[i])} exceeds"
    raise ValueError(f"line {line_of[i]}: {what} the largest supported total {limit}")


def ingest_counts(source: IO[bytes], schema: IngestSchema) -> CountTable:
    """Parse a delimited count file into a :class:`CountTable`.

    The file must have a header row and comma or tab delimiters. The
    first column is the feature id; the remaining columns depend on
    the schema kind:

    * ``bin``: ``x1, x2``
    * ``fet``: ``x1, r1, x2, r2``, or ``x1, x2`` with constant
      ``schema.trials``
    * ``ent``: ``s1, s2`` group sums, or ``reps`` per-sample columns
      for group 1 followed by ``reps`` for group 2

    Rows of both widths a kind allows may be mixed in one table. Blank
    lines and lines starting with ``#`` are skipped, before the header
    as after it. A count is any token ``int`` accepts (``+3``, `` 4 ``,
    ``1_000``) up to the int64 range. A malformed row raises
    :class:`ValueError` naming the first bad line's number, and for a
    row of the wrong width every legal width. Once every row parses, a
    row that passes the total filters but whose conditioned total
    exceeds ``_kernels.MAX_TOTAL`` (``x1 + x2`` for bin and ent, either
    trials count for fet) raises one too.

    The table is parsed column-wise, a chunk of rows at a time, and the
    count checks and the total filters run as array operations. Only a
    chunk that holds a fault is parsed again, one row at a time and
    through the same checks, to name its first bad line.
    """
    lines = source.read().decode("utf-8").splitlines()
    # blank lines and # comments are skipped; "" and "#" are both in "#"
    is_row = [line.lstrip()[:1] not in "#" for line in lines]
    rows = list(compress(lines, is_row))
    if not rows:
        raise ValueError("line 1: empty input, header row required")
    # the file line of each data row (bytes() of the flags is one 0/1
    # byte per line); the header is the first row
    line_of = np.flatnonzero(np.frombuffer(bytes(is_row), dtype=bool))[1:] + 1
    delim = "\t" if "\t" in rows[0] else ","
    ids, x1, r1, x2, r2 = _parse_rows(rows[1:], line_of, delim, schema)

    keep = np.ones(x1.shape[0], dtype=bool)
    for total in (r1, r2) if schema.kind == "fet" else (x1, x2):
        if schema.min_total is not None:
            keep &= total >= schema.min_total
        if schema.max_total is not None:
            keep &= total <= schema.max_total
    _check_limit(x1, r1, x2, r2, keep, line_of)
    fet = schema.kind == "fet"
    return CountTable(
        kind=schema.kind,
        ids=ids[keep].tolist(),
        group1=x1[keep],
        group2=x2[keep],
        trials1=r1[keep] if fet else None,
        trials2=r2[keep] if fet else None,
        size=schema.size,
        reps=schema.reps,
        dropped=int(keep.shape[0] - keep.sum()),
    )


def test_count_table(table: CountTable, convention: str = "minlik"):
    """Run the table's test on every feature.

    Both conventions go through the batch kernels, which compute one
    null law per distinct conditioning key. Returns their layout
    ``(pvalues, support_flat, support_start, support_len)``, in which
    features that share a key share one support slice;
    ``Study.from_distinct`` takes it as is.
    """
    _validate_convention(convention)
    if table.kind == "ent" and not (table.size is not None and table.size > 0):
        raise ValueError("size must be positive")
    if table.kind == "bin":
        return _kernels.batch_binomial(table.group1, table.group2, convention)
    if table.kind == "fet":
        return _kernels.batch_fisher(
            table.group1, table.trials1, table.group2, table.trials2, convention
        )
    return _kernels.batch_negbinom(
        table.group1,
        table.group2,
        float(table.reps) * float(table.size),
        convention,
    )
