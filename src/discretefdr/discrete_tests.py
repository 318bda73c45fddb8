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
from typing import IO

import numpy as np

from . import _kernels

CONVENTIONS = ("minlik", "doubling")


@dataclass(frozen=True)
class CountPair:
    """One feature's counts for two groups, plus test parameters.

    ``r1``/``r2`` are per-group trial counts (hypergeometric test
    only); ``size`` and ``reps`` are the per-sample shape and the
    samples per group (negative-binomial test only).
    """

    x1: int
    x2: int
    r1: int | None = None
    r2: int | None = None
    size: float | None = None
    reps: int | None = None

    def __post_init__(self) -> None:
        if self.x1 < 0 or self.x2 < 0:
            raise ValueError("counts must be nonnegative")
        if self.r1 is not None and self.x1 > self.r1:
            raise ValueError("x1 exceeds r1")
        if self.r2 is not None and self.x2 > self.r2:
            raise ValueError("x2 exceeds r2")
        if self.size is not None and not self.size > 0:
            raise ValueError("size must be positive")


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


def _parse_int(token: str, lineno: int) -> int:
    token = token.strip()
    try:
        value = int(token)
    except ValueError:
        raise ValueError(f"line {lineno}: non-integer count {token!r}") from None
    if value < 0:
        raise ValueError(f"line {lineno}: negative count {value}")
    return value


def _within(total: int, schema: IngestSchema) -> bool:
    if schema.min_total is not None and total < schema.min_total:
        return False
    if schema.max_total is not None and total > schema.max_total:
        return False
    return True


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

    Blank lines and lines starting with ``#`` are skipped, before the
    header as after it. Malformed rows raise :class:`ValueError` naming
    the line number.
    """
    text = source.read().decode("utf-8")
    lines = [
        (lineno, line)
        for lineno, line in enumerate(text.splitlines(), start=1)
        if line.lstrip()[:1] not in ("", "#")
    ]
    if not lines:
        raise ValueError("line 1: empty input, header row required")
    delim = "\t" if "\t" in lines[0][1] else ","

    ids: list[str] = []
    g1: list[int] = []
    g2: list[int] = []
    t1: list[int] = []
    t2: list[int] = []
    dropped = 0

    for lineno, line in lines[1:]:
        tokens = line.split(delim)
        if schema.kind == "fet" and len(tokens) == 5:
            x1 = _parse_int(tokens[1], lineno)
            r1 = _parse_int(tokens[2], lineno)
            x2 = _parse_int(tokens[3], lineno)
            r2 = _parse_int(tokens[4], lineno)
        elif schema.kind == "fet" and schema.trials is None:
            raise ValueError(
                f"line {lineno}: expected 5 columns, got {len(tokens)}"
            )
        elif schema.kind == "ent" and len(tokens) == 1 + 2 * schema.reps:
            per = schema.reps
            vals = [_parse_int(tok, lineno) for tok in tokens[1:]]
            x1 = sum(vals[:per])
            x2 = sum(vals[per:])
            r1 = r2 = 0
        else:
            if len(tokens) != 3:
                raise ValueError(
                    f"line {lineno}: expected 3 columns, got {len(tokens)}"
                )
            x1 = _parse_int(tokens[1], lineno)
            x2 = _parse_int(tokens[2], lineno)
            if schema.kind == "fet":
                r1 = r2 = schema.trials
            else:
                r1 = r2 = 0
        if schema.kind == "fet" and (x1 > r1 or x2 > r2):
            raise ValueError(f"line {lineno}: count exceeds trials")

        if schema.kind == "fet":
            total1, total2 = r1, r2
        else:
            total1, total2 = x1, x2
        if not (_within(total1, schema) and _within(total2, schema)):
            dropped += 1
            continue

        ids.append(tokens[0].strip())
        g1.append(x1)
        g2.append(x2)
        if schema.kind == "fet":
            t1.append(r1)
            t2.append(r2)

    return CountTable(
        kind=schema.kind,
        ids=ids,
        group1=np.array(g1, dtype=np.int64),
        group2=np.array(g2, dtype=np.int64),
        trials1=np.array(t1, dtype=np.int64) if schema.kind == "fet" else None,
        trials2=np.array(t2, dtype=np.int64) if schema.kind == "fet" else None,
        size=schema.size,
        reps=schema.reps,
        dropped=dropped,
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
