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


class _Fault(Exception):
    """A data row is malformed; the message says how, without the line."""


def _count(token: str) -> int:
    """A count cell that is not plain digits, read by ``int``."""
    token = token.strip()
    try:
        value = int(token)
    except ValueError:
        raise _Fault(f"non-integer count {token!r}") from None
    if value < 0:
        raise _Fault(f"negative count {value}")
    if value > _INT64_MAX:
        raise _Fault(f"count {value} exceeds the largest supported count {_INT64_MAX}")
    return value


def _sum_columns(columns: list[np.ndarray]):
    """The sum of nonnegative int64 columns, and the rows where it passes
    ``_INT64_MAX``."""
    total = columns[0].copy()
    over = np.zeros(total.shape[0], dtype=bool)
    for column in columns[1:]:
        total += column
        # both addends are nonnegative, so a sum past int64 wraps below 0
        over |= total < 0
    return total, over


def _group_columns(values: list[np.ndarray], width: int, schema: IngestSchema):
    """``(x1, r1, x2, r2)`` of data rows of one width, from their count
    columns, and the rows with a group sum beyond int64 or a count above
    its trials (None if it can have neither); ``r1``/``r2`` are None
    unless the kind is fet."""
    r1 = r2 = over = None
    if schema.kind == "fet" and width == 5:
        x1, r1, x2, r2 = values
    elif schema.kind == "fet":
        x1, x2 = values
        r1 = r2 = np.full(x1.shape[0], schema.trials, dtype=np.int64)
    elif schema.kind == "ent" and width == 1 + 2 * schema.reps:
        x1, over1 = _sum_columns(values[: schema.reps])
        x2, over2 = _sum_columns(values[schema.reps :])
        over = over1 | over2
    else:
        x1, x2 = values
    if r1 is not None:
        over = (x1 > r1) | (x2 > r2)
    return (x1, r1, x2, r2), over


def _row_fault(tokens: list[str], schema: IngestSchema) -> str:
    """What is wrong with one data row, split into its cells: its width,
    else its first bad count, else a group sum beyond int64, else a count
    above its trials."""
    widths = _widths(schema)
    if len(tokens) not in widths:
        legal = " or ".join(map(str, widths))
        return f"expected {legal} columns, got {len(tokens)}"
    try:
        counts = list(map(_count, tokens[1:]))
    except _Fault as fault:
        return str(fault)
    if schema.kind == "ent" and len(counts) > 2:
        for total in (sum(counts[: schema.reps]), sum(counts[schema.reps :])):
            if total > _INT64_MAX:
                return (
                    f"group sum {total} exceeds the largest supported count "
                    f"{_INT64_MAX}"
                )
    return "count exceeds trials"


#: What a line's first byte says of it: 0 a data row, 1 a blank line
#: or a comment, 2 a blank or a byte of a non-ASCII character, after
#: which the rest of the line decides. An id that starts or ends in a
#: byte of class 2 is stripped.
_LEAD = np.zeros(256, dtype=np.uint8)
_LEAD[[ord("#"), ord("\n"), ord("\r")]] = 1
_LEAD[[ord(" "), ord("\t"), 0x1F]] = 2
_LEAD[0x80:] = 2

#: The most digits a count cell of the byte parser may have: 19-digit
#: counts are formed in uint64 and checked against ``_INT64_MAX``.
_MAX_DIGITS = 19


def _lines(data: bytes) -> tuple[bytes, bool]:
    """``data`` ending in a line feed, with the lines ``str.splitlines``
    cuts, and whether a line may end in a CR before its line feed.

    A plain file (ASCII, with no control byte but tab, line feed and a
    carriage return before a line feed) is kept as it is. Any other file
    must be UTF-8, and each of its line ends but LF and CRLF becomes a
    line feed: CR, VT, FF, FS, GS, RS, NEL (C2 85), LS (E2 80 A8) and PS
    (E2 80 A9); then CRLF does too, if there were others.
    """
    if not data.endswith(b"\n"):
        data += b"\n"
    b = np.frombuffer(data, dtype=np.uint8)
    cr = np.flatnonzero(b == 0x0D)
    blanks = cr.shape[0] + np.count_nonzero(b == 0x0A) + np.count_nonzero(b == 0x09)
    # the only control bytes are tabs, line feeds and CRs before them
    lf_only = np.count_nonzero(b < 0x20) == blanks and (b[cr + 1] == 0x0A).all()
    if b.max() <= 0x7F and lf_only:
        return data, cr.shape[0] > 0
    data.decode("utf-8")  # refuses a file that is not UTF-8
    cuts, drops = [], []
    if not lf_only:
        ends = np.flatnonzero(((b >= 0x0B) & (b <= 0x0D)) | ((b >= 0x1C) & (b <= 0x1E)))
        cuts.append(ends)
        drops.append(ends[(b[ends] == 0x0D) & (b[ends + 1] == 0x0A)])
    # C2 and E2 only ever start a character, whose next bytes follow
    nel = np.flatnonzero(b[1:] == 0x85)
    nel = nel[b[nel] == 0xC2]
    seps = np.flatnonzero(b[:-2] == 0xE2)
    seps = seps[(b[seps + 1] == 0x80) & (b[seps + 2] | 1 == 0xA9)]
    cuts += [nel + 1, seps + 2]
    drops += [nel, seps, seps + 1]
    if sum(map(len, cuts)):
        lines = b.copy()
        lines[np.concatenate(cuts)] = 0x0A
        # 0xFF, which UTF-8 never holds, marks the bytes to drop, such as
        # a blank last line the line feed appended above may have made
        lines[np.concatenate(drops)] = 0xFF
        if lines[-2] == 0x0A:
            lines[-1] = 0xFF
        data = lines.tobytes().translate(None, b"\xff")
    return data, lf_only and cr.shape[0] > 0


def _find_header(data: bytes) -> tuple[int, int, str]:
    """The offset just past the header line, its line number and the
    table's delimiter. The header is the first line that is neither blank
    nor a comment."""
    pos, line = 0, 0
    while True:
        stop = data.find(b"\n", pos)
        if stop < 0:
            raise ValueError("line 1: empty input, header row required")
        header, pos, line = data[pos:stop].decode(), stop + 1, line + 1
        if header.lstrip()[:1] not in "#":
            return pos, line, "\t" if "\t" in header else ","


def _data_rows(r: np.ndarray, delim: str):
    """``(sep, first, last, start, lines, other)`` of the data rows in
    ``r``, the bytes after the header: the offsets of every line's
    delimiters and line feeds, in order; the indices in ``sep`` of each
    data row's first cell and of its line feed, so that its cells end at
    ``sep[first[i] : last[i] + 1]``; the offset each row starts at; which
    line of ``r`` it is; and the indices in ``sep`` of the cells of the
    blank and comment lines, which are no row's.

    Those lines keep their places in ``sep``, so one of them costs a pass
    over its own cells rather than a copy of ``sep``. When they all come
    after the rows, as a trailing blank line does, the rows' arrays are
    views; gathering them took a trailing blank line from 0.7% to 2-3%
    of the plain ingest of 15 000 ``bin`` or ``fet`` rows (medians of
    1 000 paired runs)."""
    sep = np.flatnonzero((r == ord(delim)) | (r == 0x0A))
    last = np.flatnonzero(r[sep] == 0x0A)
    first = np.zeros_like(last)
    first[1:] = last[:-1] + 1
    start = np.zeros_like(last)
    start[1:] = sep[last[:-1]] + 1
    lead = _LEAD.take(r[start])
    for j in np.flatnonzero(lead == 2).tolist():
        if r[start[j] : sep[last[j]]].tobytes().decode().lstrip()[:1] in "#":
            lead[j] = 1
    row = lead != 1
    lines = np.flatnonzero(row)
    others = np.flatnonzero(~row)
    width = last[others] - first[others] + 1
    shift = np.repeat(first[others] - (np.cumsum(width) - width), width)
    other = shift + np.arange(shift.shape[0])
    if not others.shape[0] or others[0] == lines.shape[0]:
        row = slice(lines.shape[0])
    return sep, first[row], last[row], start[row], lines, other


def _read_counts(r: np.ndarray, sep: np.ndarray, end: np.ndarray, skip: np.ndarray):
    """Each cell's count, read from its ASCII digits by positional
    arithmetic, and whether the cell is bad: empty, longer than
    ``_MAX_DIGITS``, not all digits or beyond ``_INT64_MAX``. Cell ``i``
    ends at ``end[i]`` and starts after ``sep[i - 1]``; the cells at
    ``skip``, the ids and the cells of no row, read as 0 and are never
    bad."""
    length = np.empty_like(sep)
    np.subtract(end[1:], sep[:-1], out=length[1:])
    length -= 1
    length[skip] = 0
    digits = min(int(length.max(initial=0)), _MAX_DIGITS)
    bad = (length == 0) | (length > _MAX_DIGITS)
    bad[skip] = False
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
    ``id_end``, decoded and split at once; an id that starts or ends in
    a blank or a non-ASCII character is then stripped."""
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
    ids = cut.tobytes().decode().split(delim)
    ids.pop()
    # the byte before an empty id is a line feed
    blank = _LEAD.take(r[start]) == 2
    blank |= _LEAD.take(r[id_end - 1]) == 2
    for j in np.flatnonzero(blank).tolist():
        ids[j] = ids[j].strip()
    return ids


def _parse_bytes(data: bytes, schema: IngestSchema):
    """``(ids, x1, r1, x2, r2)`` of a table's data rows, and which rows
    the schema's total filters keep; only the kept rows' ids are cut
    out. Or the :class:`ValueError` of the first malformed row, else of
    the first kept row beyond ``_kernels.MAX_TOTAL``.

    The file's lines are those of :func:`_lines`. Its data rows are cut
    at their delimiters with numpy, each count cell of one to
    ``_MAX_DIGITS`` ASCII digits is read by positional arithmetic and
    every other count cell by ``int``, one at a time. Each row is flagged
    if its width is one the kind does not allow, a count cell ``int``
    refuses or beyond ``_INT64_MAX``, a group sum beyond ``_INT64_MAX``
    or a count above its trials; the first flagged row's error is then
    found from that row alone. The total filters then run on every row,
    and only the kept rows' ids are cut out, in one decode.
    """
    data, crs = _lines(data)
    pos, header_line, delim = _find_header(data)
    r = np.frombuffer(data, dtype=np.uint8)[pos:]
    sep, first, last, start, lines, other = _data_rows(r, delim)
    line_of = header_line + 1 + lines
    n = last.shape[0]
    width = last - first + 1
    # a row's last cell ends at its line feed, or at the CR before it
    end = sep
    if crs:
        end = sep.copy()
        end[last] -= r[sep[last] - 1] == 0x0D
    value, bad = _read_counts(r, sep, end, np.concatenate((first, other)))
    del other
    # every other count cell is read by int; cell 0 is an id or no row's
    # cell, never bad
    cells = np.flatnonzero(bad)
    bounds = zip((sep[cells - 1] + 1 + pos).tolist(), (end[cells] + pos).tolist())
    for c, (a, e) in zip(cells.tolist(), bounds):
        try:
            value[c] = _count(data[a:e].decode())
            bad[c] = False
        except _Fault:
            pass
    stop = end[last]
    id_end = sep[first]
    del sep, end

    fault = np.ones(n, dtype=bool)
    x1, x2 = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    r1 = r2 = None
    if schema.kind == "fet":
        r1, r2 = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    for w in _widths(schema):
        rows = np.flatnonzero(width == w)
        fault[rows] = False
        columns = [value[first[rows] + k] for k in range(1, w)]
        grouped, over = _group_columns(columns, w, schema)
        if over is not None:
            fault[rows[over]] = True
        for whole, part in zip((x1, r1, x2, r2), grouped):
            if whole is not None:
                whole[rows] = part
    # the counts are in x1, r1, x2 and r2 now
    del value, rows, columns, grouped, part
    fault[np.searchsorted(first, np.flatnonzero(bad), side="right") - 1] = True
    if fault.any():
        i = int(fault.argmax())
        row = data[pos + start[i] : pos + stop[i]].decode()
        raise ValueError(f"line {line_of[i]}: {_row_fault(row.split(delim), schema)}")
    keep = np.ones(n, dtype=bool)
    for total in (r1, r2) if schema.kind == "fet" else (x1, x2):
        if schema.min_total is not None:
            keep &= total >= schema.min_total
        if schema.max_total is not None:
            keep &= total <= schema.max_total
    _check_limit(x1, r1, x2, r2, keep, line_of)
    # the ids outlive the call, so they are cut with as few arrays alive
    # as can be: the others are freed, and the cut's own two are copied
    # only if rows are dropped (each array alive pushes the ids up the
    # heap, where they keep its top from being returned)
    del first, last, width, stop, bad, fault, lines, line_of
    if not keep.all():
        start, id_end = start[keep], id_end[keep]
    return (_cut_ids(r, start, id_end, delim), x1, r1, x2, r2), keep


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
    feed) is read as it is; any other is decoded as UTF-8 and its lines,
    cut as ``str.splitlines`` cuts them, joined with line feeds first.
    The lines, rows and cells are then cut with numpy; a blank or
    comment line keeps its place among the delimiters, so it costs a
    pass over its own cells, not over the table. Each count of one to 19
    ASCII digits is read by positional arithmetic (exact in int64 up to
    18 digits; 19 are checked against the int64 range), and every other
    count cell (a sign, ``_``, a blank, a non-ASCII digit, an over-long
    cell) by ``int``, one cell at a time. Each row is flagged if its
    width, a count, a group sum or a count above its trials is at fault,
    and the first flagged row's error is found from that row alone. The
    total filters and the limit check then run as array operations, and
    only the kept rows' ids are cut out, in one decode and split; only
    an id with a blank or a non-ASCII character at either end is
    stripped.
    """
    (ids, x1, r1, x2, r2), keep = _parse_bytes(source.read(), schema)
    # the kept counts are copied here, once the parser's arrays are
    # freed, so that they do not hold the heap's top above those arrays
    fet = schema.kind == "fet"
    return CountTable(
        kind=schema.kind,
        ids=ids,
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
