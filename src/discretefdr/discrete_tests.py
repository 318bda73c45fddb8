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

import math
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
    if reps < 1:
        raise ValueError("reps must be at least 1")
    k = _shape_total(size, reps)
    return _single(_kernels.batch_negbinom([s1], [s2], k, convention))


def _shape_total(size: float | None, reps: int) -> float:
    """The group sums' shape ``reps * size``, refused unless ``size`` is
    positive and the product finite."""
    if not (size is not None and size > 0):
        raise ValueError("size must be positive")
    k = float(reps) * float(size)
    if not math.isfinite(k):
        raise ValueError(f"size {size!r} times reps {reps} is not finite")
    return k


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
        if self.trials is not None and self.trials < 0:
            raise ValueError("trials must be at least 0")
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


def _group_columns(values: list[np.ndarray], width: int, schema: IngestSchema):
    """``(x1, r1, x2, r2)`` of data rows of one width, from their count
    columns; ``r1``/``r2`` are None unless the kind is fet."""
    r1 = r2 = None
    if schema.kind == "fet" and width == 5:
        x1, r1, x2, r2 = values
    elif schema.kind == "fet":
        x1, x2 = values
        r1 = r2 = np.full(x1.shape[0], schema.trials, dtype=np.int64)
    elif schema.kind == "ent" and width == 1 + 2 * schema.reps:
        x1 = _sum_columns(values[: schema.reps])
        x2 = _sum_columns(values[schema.reps :])
    else:
        x1, x2 = values
    if r1 is not None and ((x1 > r1) | (x2 > r2)).any():
        raise _Fault("count exceeds trials")
    return x1, r1, x2, r2


def _parse_block(tokens: list[str], width: int, schema: IngestSchema):
    """``(ids, x1, r1, x2, r2)`` of data rows of one width, from their
    cells in row order."""
    ids = list(map(str.strip, tokens[0::width]))
    values = [_int_column(tokens[j::width]) for j in range(1, width)]
    return ids, *_group_columns(values, width, schema)


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


#: What a line's first byte says of it: 0 a data row, 1 a blank line
#: or a comment, 2 a leading blank, after which the rest of the line
#: decides.
_LEAD = np.zeros(256, dtype=np.uint8)
_LEAD[[ord("#"), ord("\n"), ord("\r")]] = 1
_LEAD[[ord(" "), ord("\t")]] = 2

#: The most digits a count cell of the byte parser may have: 19-digit
#: counts are formed in uint64 and checked against ``_INT64_MAX``.
_MAX_DIGITS = 19


def _parse_text(text: str, schema: IngestSchema):
    """``(ids, x1, r1, x2, r2)`` and the file line of each data row, from
    the text's lines as ``str.splitlines`` cuts them."""
    lines = text.splitlines()
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
    return (ids.tolist(), x1, r1, x2, r2), line_of


def _find_header(data: bytes) -> tuple[int, int, str]:
    """The offset just past the header line, its line number and the
    table's delimiter. The header is the first line that is neither blank
    nor a comment."""
    pos, line = 0, 0
    while True:
        stop = data.find(b"\n", pos)
        if stop < 0:
            raise ValueError("line 1: empty input, header row required")
        header, pos, line = data[pos:stop], stop + 1, line + 1
        if header.lstrip()[:1] not in b"#":
            return pos, line, "\t" if b"\t" in header else ","


def _data_rows(r: np.ndarray, delim: str):
    """``(sep, last, start, lines, spaced)`` of the data rows in ``r``,
    the bytes after the header: the offsets of their delimiters and line
    feeds, in order; the index in ``sep`` of each row's line feed, so
    that its cells end at ``sep[last[i - 1] + 1 : last[i] + 1]``; the
    offset each row starts at; which line of ``r`` it is; and the rows
    that start with a blank other than the delimiter."""
    sep = np.flatnonzero((r == ord(delim)) | (r == 0x0A))
    last = np.flatnonzero(r[sep] == 0x0A)
    start = np.zeros_like(last)
    start[1:] = sep[last[:-1]] + 1
    lead = _LEAD[r[start]]
    spaced = []
    for j in np.flatnonzero(lead == 2).tolist():
        if r[start[j] : sep[last[j]]].tobytes().lstrip()[:1] in b"#":
            lead[j] = 1
        elif r[start[j]] != ord(delim):  # else the id is empty
            spaced.append(j)
    lines = np.flatnonzero(lead != 1)
    if lines.shape[0] < last.shape[0]:
        sep = sep[np.repeat(lead != 1, np.diff(last, prepend=-1))]
        last = np.flatnonzero(r[sep] == 0x0A)
        start = start[lines]
        spaced = np.searchsorted(lines, spaced)
    return sep, last, start, lines, spaced


def _read_counts(r: np.ndarray, sep: np.ndarray, end: np.ndarray, first: np.ndarray):
    """Each cell's count, read from its ASCII digits by positional
    arithmetic, and whether the cell is bad: empty, longer than
    ``_MAX_DIGITS``, not all digits or beyond ``_INT64_MAX``. Cell ``i``
    ends at ``end[i]`` and starts after ``sep[i - 1]``; the cells at
    ``first``, the ids, read as 0 and are never bad."""
    length = np.empty_like(sep)
    np.subtract(end[1:], sep[:-1], out=length[1:])
    length -= 1
    length[first] = 0
    digits = min(int(length.max(initial=0)), _MAX_DIGITS)
    bad = (length == 0) | (length > _MAX_DIGITS)
    bad[first] = False
    # up to 18 digits are exact in int64, and 19 in uint64
    value = np.zeros(sep.shape[0], np.uint64 if digits == _MAX_DIGITS else np.int64)
    # byte p of a cell from its end, for every cell at once; an offset
    # before the first byte wraps to the end of r, and like every byte
    # before a cell's start it is masked out
    at = end - digits
    for p in range(digits, 0, -1):
        digit = r[at] - np.uint8(0x30)
        digit *= length >= p
        bad |= digit > 9
        value *= 10
        value += digit
        at += 1
    if digits == _MAX_DIGITS:
        bad |= value > np.uint64(_INT64_MAX)
    return value.view(np.int64), bad


def _cut_ids(r: np.ndarray, start: np.ndarray, id_end: np.ndarray, delim: str):
    """Each row's bytes from ``start`` up to its first delimiter at
    ``id_end``, decoded and split at once."""
    n = start.shape[0]
    # the bytes alternate between the rest of a line, dropped, and an id
    # with the byte that ends it, kept
    size = np.empty(2 * n + 1, dtype=np.int64)
    size[0] = start[0] if n else r.shape[0]
    size[1::2] = id_end - start + 1
    size[2::2] = np.append(start[1:], r.shape[0]) - id_end - 1
    is_id = np.zeros(2 * n + 1, dtype=bool)
    is_id[1::2] = True
    cut = r[np.repeat(is_id, size)]
    # the byte after the id of a one-cell row is its line feed
    cut[np.cumsum(size[1::2]) - 1] = ord(delim)
    ids = cut.tobytes().decode("ascii").split(delim)
    ids.pop()
    return ids


def _parse_bytes(data: bytes, schema: IngestSchema):
    """:func:`_parse_text` on a plain table's bytes, or None.

    A table is plain when it is ASCII with no control byte but tab, line
    feed and a carriage return before a line feed, so that its lines are
    those ``str.splitlines`` cuts and a line's only blanks are spaces and
    tabs. Its data rows are then cut at their delimiters with numpy, each
    count cell of one to ``_MAX_DIGITS`` ASCII digits is read by
    positional arithmetic, and the ids are cut out in one decode. A row
    this does not vouch for (a width the kind does not allow, an id with a
    leading or trailing blank, a count cell that is empty, holds anything
    but digits or is too long, a count beyond ``_INT64_MAX``) sends its
    chunk of ``_CHUNK_ROWS`` rows to :func:`_parse_rows`, which gives that
    chunk's values or raises its first bad line's error. A group sum that
    overflows or a count above its trials, found when a width's columns
    are grouped, sends every chunk of that width there, up to the error.
    """
    if not data.endswith(b"\n"):
        data += b"\n"
    b = np.frombuffer(data, dtype=np.uint8)
    crs = np.count_nonzero(b == 0x0D)
    blanks = crs + np.count_nonzero(b == 0x0A) + np.count_nonzero(b == 0x09)
    if b.max() > 0x7F or np.count_nonzero(b < 0x20) != blanks:
        return None
    if crs and not (b[np.flatnonzero(b == 0x0D) + 1] == 0x0A).all():
        return None
    pos, header_line, delim = _find_header(data)
    r = b[pos:]
    sep, last, start, lines, spaced = _data_rows(r, delim)
    line_of = header_line + 1 + lines
    n = last.shape[0]
    width = np.diff(last, prepend=-1)
    first = last - width + 1
    # a row's last cell ends at its line feed, or at the CR before it
    end = sep
    if crs:
        end = sep.copy()
        end[last] -= r[sep[last] - 1] == 0x0D
    value, bad = _read_counts(r, sep, end, first)
    stop = end[last]
    id_end = sep[first]
    del sep, end

    suspect = np.ones(n, dtype=bool)
    x1, x2 = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    r1 = r2 = None
    if schema.kind == "fet":
        r1, r2 = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    value[bad] = 0
    for w in _widths(schema):
        rows = np.flatnonzero(width == w)
        suspect[rows] = False
        columns = [value[first[rows] + k] for k in range(1, w)]
        try:
            grouped = _group_columns(columns, w, schema)
        except _Fault:
            # an overflowing group sum or a count above its trials: the
            # row parser names the first
            suspect[rows] = True
            continue
        for whole, part in zip((x1, r1, x2, r2), grouped):
            if whole is not None:
                whole[rows] = part
    del value
    if bad.any():
        suspect[np.searchsorted(first, np.flatnonzero(bad), side="right") - 1] = True
    suspect[spaced] = True
    # an id that ends in a blank
    suspect[_LEAD[r[id_end - 1]] == 2] = True
    ids = _cut_ids(r, start, id_end, delim)

    chunk = _CHUNK_ROWS
    for c in np.unique(np.flatnonzero(suspect) // chunk).tolist():
        lo, hi = c * chunk, min(n, (c + 1) * chunk)
        base = int(start[lo])
        text = r[base : stop[hi - 1]].tobytes().decode("ascii")
        bounds = zip((start[lo:hi] - base).tolist(), (stop[lo:hi] - base).tolist())
        texts = [text[a:e] for a, e in bounds]
        parsed = _parse_rows(texts, line_of[lo:hi], delim, schema)
        ids[lo:hi] = parsed[0].tolist()
        for whole, part in zip((x1, r1, x2, r2), parsed[1:]):
            if whole is not None:
                whole[lo:hi] = part
    return (ids, x1, r1, x2, r2), line_of


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

    The file is read once as a byte array. A plain file (ASCII, with no
    control byte but tab, line feed and a carriage return before a line
    feed) is cut into lines, rows and cells with numpy; each count of one
    to 19 ASCII digits is read by positional arithmetic (exact in int64
    up to 18 digits; 19 are checked against the int64 range), and the ids
    are cut out in one decode and split. Any chunk of ``_CHUNK_ROWS``
    data rows with a row that path does not vouch for (a count with a
    sign, ``_``, a blank or any other non-digit, an empty or over-long
    cell, a count beyond int64, a width the kind does not allow, an id
    with a leading or trailing blank, an overflowing group sum, a count
    above its trials) is parsed by the row parser instead, and so is a
    whole file that is not plain. The row parser splits the rows of each
    legal width together and converts each count column with one pass of
    ``int``; a chunk with a fault is parsed again one row at a time, to
    name its first bad line. Either way the count checks, the total
    filters and the limit check run as array operations, so both paths
    give the same table and the same errors.
    """
    data = source.read()
    parsed = _parse_bytes(data, schema)
    if parsed is None:
        parsed = _parse_text(data.decode("utf-8"), schema)
    (ids, x1, r1, x2, r2), line_of = parsed

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
        ids=ids if keep.all() else list(compress(ids, keep.tolist())),
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
    if table.kind == "bin":
        return _kernels.batch_binomial(table.group1, table.group2, convention)
    if table.kind == "fet":
        return _kernels.batch_fisher(
            table.group1, table.trials1, table.group2, table.trials2, convention
        )
    return _kernels.batch_negbinom(
        table.group1, table.group2, _shape_total(table.size, table.reps), convention
    )
