"""Command-line interface: reproducible analyze / simulate / tune runs.

Each command computes and writes nothing: it returns its input records,
its outputs in write order and the text of its summary line. An output
is a file name, the function that writes it (``_write_features``,
``_write_csv`` or ``_write_json``) and that function's arguments after
the path. ``main`` alone creates ``--out``, writes the outputs, then a
``manifest.json`` recording the command, its settings, the seed (null
for ``analyze``, which draws nothing at random), SHA-256 digests of the
input files, the package version, and a timestamp, and prints
``<command>: <summary>, outputs in <out>``. The settings are the flags'
values; for ``simulate``, the config's keys with ``_SIM_DEFAULTS`` and
the flags applied, and its path and digest, but no other default of
``ScenarioSpec`` (``dispersion``, ...). Re-running with
``--from-manifest manifest.json`` and a fresh ``--out``, and no other
setting, reproduces the data outputs byte-for-byte; input files are
re-verified against the recorded digests first.

Errors are reported as a single machine-parsable line on stderr,
``error:<category>: <message>``, with a nonzero exit code. Categories:
``usage`` (bad flags or values), ``io`` (unreadable or missing
files), ``parse`` (malformed input tables and manifests), ``config``
(bad simulation configs, missing or mistyped settings, digest
mismatches, empty analyses, runs that need more memory than can be had).

All floating-point output is printed with 9 significant digits.

JSON outputs (``estimates.json``, ``aggregate.json``, ``tuning.json``)
hold the bytes ``json.dumps(..., indent=2)`` gives for the payload with
its floats rounded to 9 significant digits, NaN as ``null`` and an
infinity as the string ``"Infinity"`` or ``"-Infinity"``: two spaces of
indent per level, ``","`` and ``": "`` separators, ASCII with ``\\u``
escapes, and a closing line feed. Keys are ``str``. The text is formed
in one walk of the payload (``_json_text``). The manifest is written
by ``json.dumps`` with the same layout, its floats unrounded.

CSV outputs are written column by column. Each column becomes its
distinct cells and each row's index into them: a float column's
distinct values (told apart by their bits, so that ``-0`` stays a cell
of its own) are formatted by one numpy formatter that gives the bytes
of ``%.9g`` (``_format_floats``; NaN and missing cells print as
``NA``), and each stored support cell of ``features.csv`` is formatted
once; either text is cut into its cells by one ``str.split``. Each
distinct cell's width in bytes is known, so each row's is too, and the
rows are written in spans of at most
``_WRITE_BYTES`` bytes (a wider row alone): a span's pieces are laid
out in one list, each cell followed by a ``,`` or, after the last
column, a line feed; each column fills its slots with one
``operator.itemgetter`` gather of its cells by index, and the list is
joined once and written in one binary write, so no more than a span of
text is held at a time, however many or wide the rows. Cells are quoted as
``csv.writer`` quotes them by default: a cell holding a comma, a double
quote or a line break is enclosed in double quotes, with each double
quote doubled. A carriage return counts as a line break, so that no CSV
reader splits its row.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import sys
import typing
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

import numpy as np

from . import __version__
from .discrete_tests import (
    CONVENTIONS,
    IngestSchema,
    ingest_counts,
    test_count_table,
)
from .estimators import Study, _check_tuning, _one
from .fdr import _check_levels
from .sim import (
    PI0_METHODS,
    DEFAULT_PI0_METHODS,
    DEFAULT_PROCEDURES,
    ReplicationSummary,
    ScenarioSpec,
    evaluate_block,
    run_replications,
)
from .tuning import TuningGrid, bootstrap_tune

_EXIT_CODES = {"usage": 2, "io": 1, "parse": 1, "config": 1}


class CliError(Exception):
    """An error with a machine-parsable category."""

    def __init__(self, category: str, message: str) -> None:
        super().__init__(message)
        self.category = category
        self.message = message


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise CliError("usage", message)


# ---------------------------------------------------------------------------
# formatting helpers
# ---------------------------------------------------------------------------


def _json_text(obj, pad: str = "\n") -> str:
    """The JSON text of ``obj`` at nesting ``pad`` (a line feed and the
    indent of its line), floats rounded to 9 significant digits: NaN is
    ``null`` and an infinity the string ``"Infinity"`` or
    ``"-Infinity"``. One walk gives the bytes of ``json.dumps`` with
    ``indent=2`` of the rounded payload (``tests/oracles.py``), without
    json's pure-Python indenting encoder: strings and ``str`` keys by
    json's C ``encode_basestring_ascii``, rounded floats as ``repr``
    writes them, and ints, bools and ``None`` by ``json.dumps``.

    A rounded float's ``%.9g`` text without an exponent is already its
    ``repr``, with ``.0`` added when it has no ``.``: two decimals of at
    most 9 significant digits never round to one float, so ``repr``'s
    shortest digits are the text's, and both write fixed notation for
    decimal exponents from -4 to 8. Only a text with an exponent is
    parsed and written again by ``repr``."""
    if isinstance(obj, float):
        if math.isnan(obj):
            return "null"
        if math.isinf(obj):
            return '"Infinity"' if obj > 0 else '"-Infinity"'
        text = "%.9g" % obj
        if "e" in text:
            return repr(float(text))
        return text if "." in text else text + ".0"
    if isinstance(obj, str):
        return _quote(obj)
    inner = pad + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [_quote(k) + ": " + _json_text(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(obj)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_json_text(payload) + "\n")


#: Floats formatted at a time by ``_format_floats``, and support points
#: at a time by ``_support_cells``. It bounds their working arrays and
#: text only; rows are written by ``_WRITE_BYTES``.
_CHUNK_ROWS = 1 << 14

#: Bytes of rows joined, encoded and written at a time by ``_write_csv``
#: (a row wider than this is written alone). The joined ``str`` and its
#: encoded copy are then small enough for glibc's allocator to keep the
#: same heap pages for every span; larger spans are handed back to the
#: system between writes and faulted in again. Sweep on a 2-vCPU shared
#: host, the ``features.csv`` write inside 40 analyze commands (median
#: minor page faults and time; the faults repeated in a second round):
#: analyze-bin 64 KiB 0 and 9.3 ms, 128 KiB 0 and 9.0, 256 KiB 0 and 8.6
#: (32 faults in two of six rounds), 512 KiB 896 and 10.8, 1 MiB 812 and
#: 10.5; 16 384 rows a write, as before, 1 034 and 10.3. analyze-fet 0,
#: 0, 0, 10 and 33 faults, 14.8-15.7 ms at every size (before: 648-926
#: faults, 15.3 ms). 1 500 ``bin`` rows of about 7.5 kB (totals near
#: 1 000; medians of 14 writes): 4 faults up to 512 KiB and 1 169 at
#: 1 MiB, 75-86 ms (before: 5 482 faults, 106 ms).
_WRITE_BYTES = 1 << 17

#: Text cells joined at a time to measure them and look for cells that
#: need quoting: ``_WRITE_BYTES`` of cells of up to 16 bytes.
_TEXT_CELLS = _WRITE_BYTES // 16

#: Characters that make a cell quoted.
_QUOTED = (",", '"', "\r", "\n")


def _lengths(cells) -> np.ndarray:
    """The length of each of ``cells``, as an array."""
    return np.fromiter(map(len, cells), dtype=np.intp, count=len(cells))


def _spans(width: np.ndarray):
    """Cut items of the given widths, in order, into spans ``(lo, hi)``:
    each span takes items while their widths add up to at most
    ``_WRITE_BYTES``, and at least one item."""
    end = np.cumsum(width)
    lo = 0
    while lo < end.shape[0]:
        base = int(end[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(end, base + _WRITE_BYTES, "right")))
        yield lo, hi
        lo = hi


def _text_cells(cells: list[str]) -> tuple[list[str], np.ndarray]:
    """Text cells, quoted where ``csv.writer`` would quote them, and the
    width of each in UTF-8 bytes.

    The cells are joined ``_TEXT_CELLS`` at a time with a NUL between
    them, and encoded: the offsets of the NULs give every width at once.
    A byte that needs quoting, or a NUL within a cell, sends the cells
    to be quoted and measured one by one: 7.9 against 0.43 ms on the
    15 000 ids of analyze-fet (medians of 200 interleaved calls).
    """
    width = np.empty(len(cells), dtype=np.intp)
    for lo in range(0, len(cells), _TEXT_CELLS):
        joined = "\0".join(cells[lo : lo + _TEXT_CELLS])
        data = joined.encode()
        ends = np.flatnonzero(np.frombuffer(data, dtype=np.uint8) == 0)
        hi = lo + ends.shape[0] + 1
        if hi != min(len(cells), lo + _TEXT_CELLS) or any(q in joined for q in _QUOTED):
            break
        width[lo:hi] = np.diff(ends, prepend=-1, append=len(data)) - 1
    else:
        return cells, width
    cells = [
        '"' + c.replace('"', '""') + '"' if any(q in c for q in _QUOTED) else c
        for c in cells
    ]
    return cells, _lengths([c.encode() for c in cells])


_U64 = np.uint64
_QUADS = np.arange(10_000, dtype=np.uint16)
#: ``"0000"`` to ``"9999"``, each as four ASCII bytes of a ``uint64``,
#: the first digit in the lowest byte.
_DIGITS4 = np.empty((10_000, 4), dtype=np.uint8)
for _j in range(4):
    _DIGITS4[:, _j] = _QUADS // 10 ** (3 - _j) % 10 + 0x30
_DIGITS4 = _DIGITS4.view("<u4")[:, 0].astype(_U64)
#: Trailing zeros of each four-digit group (``0000`` has four).
_ZEROS4 = sum((_QUADS % 10**_j == 0).view(np.uint8) for _j in range(1, 5))
#: The low ``8 - z`` bytes of a word, for ``z`` trailing zeros to clear.
_KEEP8 = np.array([(1 << 8 * (8 - z)) - 1 for z in range(9)], dtype=_U64)
#: 10**k, correctly rounded, for k from 0 to 308: a scale ``8 - X``
#: beyond (decimal exponent ``X`` below -300) is applied in two steps.
_POW10 = np.array([float(f"1e{k}") for k in range(309)])

# A value's decimal exponent X (that of ``%.8e``) sets its class
# c = min(-X, 5): c = 0 is 1 itself, c = 1 to 4 the fixed forms "0."
# to "0.000" and c = 5 the scientific form "d.dddddddde-XX(X)". A 16-byte
# cell holds the leading digit and the other eight, each shifted by its
# class's scalar; the other eight lose their trailing zeros first.
#: Bit offset of the leading digit, and of the other eight, per class.
_LEAD_SHIFT = np.array([0, 16, 24, 32, 40, 0], dtype=_U64)
_REST_SHIFT = np.array([8, 24, 32, 40, 48, 16], dtype=_U64)
#: Per class c and count z of trailing zeros, at ``9 * c + z``: the
#: prefix bytes (the scientific form drops its "." when no digit
#: follows it).
_PREFIX = np.repeat(
    np.array([0, 0x2E30, 0x302E30, 0x30302E30, 0x3030302E30, 0x2E00], dtype=_U64), 9
)
_PREFIX[9 * 5 + 8] = 0
#: ``"e-XX"`` in bytes 10 to 13 of the cell (2 to 5 of its second word)
#: for the scientific forms, ``-X`` from 5 to 99, and ``"e-XXX"`` in
#: bytes 10 to 14 from 100 to 325; 0 for the others.
_EXPONENT = np.concatenate((
    _DIGITS4[:100] & _U64(0xFFFF0000),
    (_DIGITS4[100:326] & _U64(0xFFFFFF00)) << _U64(8),
))
_EXPONENT = (_EXPONENT | _U64(0x2D65)) << _U64(16)
_EXPONENT[:5] = 0


def _format_floats(values, end: str | np.ndarray) -> str:
    """The ``%.9g`` text of every float in ``values`` (NaN as ``NA``),
    each followed by its terminator, as one string. ``end`` is one ASCII
    character that ends every value, or a ``uint8`` array of one
    terminator byte per value.

    The values are taken ``_CHUNK_ROWS`` at a time. A value in (0, 1],
    subnormals included, gets its exponent from ``log10`` and its nine
    digits from ``rint(x * 10**(8 - X))`` (a scale past 1e308 in two
    steps), in one try. Those digits are exact, because the scaled value
    is within about 4e-7 of its true value, unless they miss [1e8, 1e9)
    (``log10`` landed a decade off, or rounding carried into the next
    decade) or the scaled fraction lies within 1e-6 of one half (an
    exact tie, such as 2**-13, rounds half to even). Those values (3 of
    the 96 514 stored support points of analyze-fet's input at seed
    2001) and every other one (0, negatives, values above 1, non-finite
    values) are formatted by ``%`` one at a time, so every byte is that
    of ``"%.9g" % x``. Each value's bytes are laid out in a zero-padded
    cell of 16 bytes (24 when a value's text takes 16) whose last byte
    is its terminator, and the cells are compacted by dropping the zero
    bytes: 8.5 ms on those 96 514 points, against 40 ms for ``%`` and
    78 ms for ``np.strings.mod`` (medians of 30 interleaved calls,
    2-vCPU host).
    """
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    end = np.broadcast_to(np.uint8(ord(end)) if isinstance(end, str) else end, x.shape)
    return "".join(
        _format_chunk(x[a : a + _CHUNK_ROWS], end[a : a + _CHUNK_ROWS])
        for a in range(0, x.shape[0], _CHUNK_ROWS)
    )


def _format_chunk(x: np.ndarray, end: np.ndarray) -> str:
    """``_format_floats`` on at most ``_CHUNK_ROWS`` values and their
    terminator bytes."""
    inside = (x > 0) & (x <= 1)
    unit = np.where(inside, x, 1.0)
    exp = np.floor(np.log10(unit)).astype(np.intp)
    scaled = _scaled(unit, exp)
    digits = np.rint(scaled)
    exact = inside & (digits >= 1e8) & (digits < 1e9)
    exact &= np.abs(scaled - digits) < 0.5 - 1e-6

    d = digits.astype(np.intp)
    lead = d // 100_000_000
    rest = d - lead * 100_000_000
    high = rest // 10_000
    low = rest - high * 10_000
    zeros = _ZEROS4[low] + (low == 0) * _ZEROS4[high]
    rest8 = (_DIGITS4[high] | _DIGITS4[low] << _U64(32)) & _KEEP8[zeros]
    cls = np.minimum(-exp, 5)
    form = 9 * cls + zeros

    slow = np.flatnonzero(~exact)
    texts = [b"NA" if v != v else b"%.9g" % v for v in x[slow].tolist()]
    words = 2 if all(len(t) < 16 for t in texts) else 3
    # little-endian words, so that a word's lowest byte comes first
    cells = np.zeros((x.shape[0], words), dtype="<u8")
    cells[:, 0] = (
        _PREFIX[form]
        | (lead.astype(_U64) + _U64(0x30)) << _LEAD_SHIFT[cls]
        | rest8 << _REST_SHIFT[cls]
    )
    cells[:, 1] = rest8 >> _U64(64) - _REST_SHIFT[cls] | _EXPONENT[-exp]
    if texts:
        width = 8 * words
        padded = [t.ljust(width, b"\0") for t in texts]
        cells[slow] = np.array(padded, dtype=f"S{width}").view("<u8").reshape(-1, words)
    cells[:, -1] |= end.astype(_U64) << _U64(56)
    flat = cells.view(np.uint8).reshape(-1)
    return str(flat[flat != 0], "ascii")


def _scaled(unit: np.ndarray, exp: np.ndarray) -> np.ndarray:
    """``unit * 10**(8 - exp)``; below ``exp`` = -300 by 1e308 first, so
    that a subnormal ``unit`` is rounded once, into the normal range."""
    scaled = unit * _POW10[np.minimum(8 - exp, 308)]
    deep = np.flatnonzero(exp < -300)
    scaled[deep] *= _POW10[-300 - exp[deep]]
    return scaled


def _float_cells(values) -> tuple[list[str], np.ndarray]:
    """Float cells at 9 significant digits (the bytes of ``f"{x:.9g}"``,
    ``inf`` and ``-0`` included; NaN and None print as ``NA``), and the
    width of each in bytes.

    The cells are cut from ``_format_floats``'s one string at its
    line breaks."""
    cells = _format_floats(values, "\n").split("\n")[:-1]
    return cells, _lengths(cells)


def _distinct_cells(column) -> tuple[list[str], np.ndarray, np.ndarray | None]:
    """A column's distinct cells, the width of each in bytes, and each
    row's index into them; a list of text cells is its own cells, with
    no index, and a triple is taken as it is."""
    if isinstance(column, tuple) and len(column) == 3:
        return column
    if isinstance(column, tuple):
        return *_text_cells(column[0]), np.asarray(column[1])
    if isinstance(column, list):
        return *_text_cells(column), None
    if column.dtype.kind == "f":
        # on the bits, so that -0.0 and 0.0 stay two cells
        bits, index = np.unique(column.view(np.int64), return_inverse=True)
        return *_float_cells(bits.view(np.float64)), index
    values, index = np.unique(column, return_inverse=True)
    cells = list(map(str, values.tolist()))
    return cells, _lengths(cells), index


def _gather(cells: list[str], index: list[int]):
    """``[cells[i] for i in index]``, by one ``itemgetter`` call."""
    if len(index) == 1:
        return [cells[index[0]]]
    return itemgetter(*index)(cells)


def _write_csv(path: str, header: list[str], columns: list) -> None:
    """Write equal-length ``columns`` under ``header``, column-wise.

    A column is a float array, an integer array, a list of text cells,
    a pair ``(cells, index)`` of distinct text cells and each row's
    index into them, or a triple ``(cells, width, index)`` of distinct
    cells as they are to be written (quoted where need be), their widths
    in bytes and each row's index into them. Each column becomes its
    distinct cells, each quoted or formatted once, their widths in bytes
    and each row's index into them, so that each row's width in bytes
    (its cells' widths and one separator per cell) is read off by index
    and no cell is formatted twice. The rows are cut where the running
    sum of their widths would pass ``_WRITE_BYTES`` (a wider row goes
    alone). For each such span, one list holds the pieces of its rows in
    order, every cell followed by a separator piece; each column's cells
    fill their slots with one ``itemgetter`` call, and the list is
    joined once, encoded and written in one binary write. So the text
    held at a time is bounded by the span's bytes, whatever the number
    of rows or their widths.
    """
    cells = [_distinct_cells(c) for c in columns]
    separators = [None, ","] * (len(columns) - 1) + [None, "\n"]
    stride = len(separators)
    row_width = len(columns)
    for _, width, index in cells:
        row_width = row_width + (width if index is None else width[index])
    with open(path, "wb") as fh:
        fh.write((",".join(_text_cells(header)[0]) + "\n").encode())
        for lo, hi in _spans(row_width):
            parts = separators * (hi - lo)
            for j, (distinct, _, index) in enumerate(cells):
                if index is None:
                    parts[2 * j :: stride] = distinct[lo:hi]
                else:
                    parts[2 * j :: stride] = _gather(distinct, index[lo:hi].tolist())
            fh.write("".join(parts).encode())


def _support_cells(study: Study) -> tuple[list[str], np.ndarray]:
    """One cell per stored support: its points at 9 significant
    digits, joined by ``;``; and the width of each cell in bytes.

    The study stores its supports one after another by ascending
    length, so the empty ones come first, as empty cells. The others are
    taken in runs of whole supports of at most ``_CHUNK_ROWS`` points (or
    one longer support); each run is formatted by one ``_format_floats``
    call that ends a support's last point with a line feed and every
    other point with ``;``, and cut into its cells by one ``str.split``,
    so its text is held about once. The cells are ASCII and hold no
    character that needs quoting.
    """
    start = study.support_start
    end = start + study.support_len
    a = int(np.searchsorted(study.support_len, 0, side="right"))
    cells = [""] * a
    while a < start.shape[0]:
        b = max(a + 1, int(np.searchsorted(end, start[a] + _CHUNK_ROWS, side="right")))
        ends = np.full(end[b - 1] - start[a], ord(";"), dtype=np.uint8)
        ends[end[a:b] - 1 - start[a]] = ord("\n")
        text = _format_floats(study.support_flat[start[a] : end[b - 1]], ends)
        cells += text.split("\n")[:-1]
        a = b
    return cells, _lengths(cells)


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise CliError("io", f"cannot read {path}: {exc.strerror}") from exc


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _load_manifest(path: str, command: str) -> dict:
    data = _read_bytes(path)
    try:
        manifest = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError("parse", f"malformed manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise CliError("parse", f"manifest {path} is not a JSON object")
    if manifest.get("command") != command:
        raise CliError(
            "usage",
            f"manifest {path} records a "
            f"{manifest.get('command')!r} run, not {command!r}",
        )
    if not isinstance(manifest.get("arguments"), dict):
        raise CliError("parse", f"manifest {path} has no arguments record")
    inputs = manifest.get("inputs", {})
    records = inputs.values() if isinstance(inputs, dict) else [None]
    if not all(isinstance(record, dict) for record in records):
        raise CliError("parse", f"manifest {path} has a malformed inputs record")
    return manifest


def _read_input(role: str, path: str, manifest: dict | None, inputs: dict) -> bytes:
    """Read the ``role`` input at ``path`` and record its path and sha256
    in ``inputs``; a replay's ``manifest`` must record the same sha256."""
    data = _read_bytes(path)
    inputs[role] = {"path": path, "sha256": _sha256(data)}
    if manifest is None:
        return data
    recorded = manifest.get("inputs", {}).get(role, {}).get("sha256")
    if recorded is None:
        raise CliError("config", f"manifest has no sha256 for its {role} input {path}")
    if recorded != inputs[role]["sha256"]:
        raise CliError(
            "config",
            f"input {path} changed since the manifest was recorded "
            "(sha256 mismatch)",
        )
    return data


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _build_schema(settings: dict) -> IngestSchema:
    try:
        return IngestSchema(
            kind=settings["test"],
            trials=settings.get("trials"),
            size=settings.get("size"),
            reps=settings.get("reps", 1),
            min_total=settings["min_total"],
            max_total=settings["max_total"],
        )
    except ValueError as exc:
        raise CliError("usage", str(exc)) from exc


def _ingest_study(settings: dict, manifest: dict | None):
    # the schema first, so that a bad setting is refused before the table is read
    schema = _build_schema(settings)
    path, inputs = settings["counts"], {}
    data = _read_input("counts", path, manifest, inputs)
    try:
        table = ingest_counts(io.BytesIO(data), schema)
    except ValueError as exc:
        raise CliError("parse", f"{path}: {exc}") from exc
    if len(table) == 0:
        raise CliError("config", (
            "no features remain after filtering (m = 0); relax --min-total/--max-total"
            if table.dropped else f"{path}: the table has no data rows (m = 0)"
        ))
    try:
        study = Study.from_distinct(*test_count_table(table, settings["convention"]))
    except ValueError as exc:
        raise CliError("usage", str(exc)) from exc
    return table, study, inputs


def _write_features(path: str, table, study: Study) -> None:
    """``features.csv``: each feature's id, p-value and support.

    Features that share a null law share p-values as well as a support,
    so each distinct p-value, like each stored support, is formatted
    once.
    """
    _write_csv(
        path,
        ["id", "pvalue", "support"],
        [table.ids, study.pvalues, (*_support_cells(study), study.support_index)],
    )


def cmd_analyze(settings: dict, manifest: dict | None) -> tuple[dict, list, str]:
    """Test a count table, estimate the true-null proportion, threshold."""
    lam, eps, alphas = settings["lambda"], settings["epsilon"], settings["alphas"]
    if not alphas:
        raise CliError("config", "setting 'alphas' is empty")
    # the settings first, so that a bad one is refused before the table is read
    try:
        _check_tuning(("lam", "epsilon"), 0, lam, eps)
        _check_levels(alphas)
    except ValueError as exc:
        raise CliError("usage", str(exc)) from exc
    table, study, inputs = _ingest_study(settings, manifest)
    try:
        estimates, outcomes = evaluate_block(
            study, 1, PI0_METHODS, DEFAULT_PROCEDURES, alphas, lam, eps
        )
    except ValueError as exc:
        raise CliError("usage", str(exc)) from exc
    defined = [(n, o) for n, o in zip(DEFAULT_PROCEDURES, outcomes) if o is not None]
    rows = [
        (name, cell_lam, cell_eps, pi0[0], alpha, t[a, 0], fdr[a, 0], count[a, 0])
        for a, alpha in enumerate(alphas)
        for name, ((cell_lam, cell_eps, pi0), t, fdr, count) in defined
    ]
    # bh runs at every level, so there is at least one row
    methods, *floats, rejections = zip(*rows)
    payload = {
        "m": study.m,
        "dropped": table.dropped,
        "convention": settings["convention"],
        "lambda": lam,
        "epsilon": eps,
        "estimates": {
            name: None if e is None else _one(name, e[0], lam, eps).to_json_dict()
            for name, e in estimates.items()
        },
    }
    header = [
        "method",
        "lambda",
        "epsilon",
        "pi0",
        "alpha",
        "threshold",
        "fdr_at_threshold",
        "rejections",
    ]
    columns = [
        list(methods),
        *(np.array(c, dtype=np.float64) for c in floats),
        np.array(rejections, dtype=np.int64),
    ]
    outputs = [
        ("features.csv", _write_features, table, study),
        ("estimates.json", _write_json, payload),
        ("table.csv", _write_csv, header, columns),
    ]
    return inputs, outputs, f"m = {study.m}"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

_SPEC_KEYS = tuple(f.name for f in dataclasses.fields(ScenarioSpec))
#: The family parameters of ``ScenarioSpec`` that each scenario kind
#: reads; a config that gives one to any other kind is refused.
_KIND_KEYS = {
    "poisson_bin": {"pareto_location", "pareto_shape", "rho_low", "rho_high"},
    "binomial_fet": {"trials_size", "trials_mean", "trials_offset", "theta_low",
                     "theta_high", "theta2_transform", "rho_low", "rho_high"},
    "negbinom_ent": {"dispersion", "reps_per_group", "mean_low", "mean_high",
                     "mean_file", "rho_location", "rho_shape"},
}
_FAMILY_KEYS = set().union(*_KIND_KEYS.values())
#: Settings a simulate config may leave out, with their defaults.
_SIM_DEFAULTS = {
    "lambda": 0.5,
    "epsilon": 1.0,
    "pi0_methods": list(DEFAULT_PI0_METHODS),
    "procedures": list(DEFAULT_PROCEDURES),
    "seed": 0,
    "reps": 50,
    "alpha_levels": [0.05, 0.1],
}
#: Keys accepted for older configs and manifests, and ignored: ``workers``
#: once sized the thread pools over simulate's replications and tune's
#: grid points, which pooled kernel calls and shared resamples replaced.
_IGNORED_KEYS = ("workers",)


def _load_sim_settings(args) -> dict:
    if not args.config:
        raise CliError("usage", "a config path is required")
    data = _read_bytes(args.config)
    try:
        raw = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CliError(
            "parse", f"malformed config {args.config}: {exc}"
        ) from exc
    if not isinstance(raw, dict):
        raise CliError("config", "config must be a JSON object")
    for key in raw:
        if key not in (*_SPEC_KEYS, *_SIM_DEFAULTS, *_IGNORED_KEYS):
            raise CliError("config", f"unknown config key {key!r}")
    settings = {k: v for k, v in raw.items() if k not in _IGNORED_KEYS}
    for key, value in _SIM_DEFAULTS.items():
        settings.setdefault(key, value)
    # command-line overrides
    if args.seed is not None:
        settings["seed"] = args.seed
    if args.reps is not None:
        settings["reps"] = args.reps
    if args.alpha:
        settings["alpha_levels"] = args.alpha
    settings["config_path"] = args.config
    settings["config_sha256"] = _sha256(data)
    return settings


def _scenario_from_settings(settings: dict) -> ScenarioSpec:
    kind = settings["kind"]
    for key in settings:
        if key in _FAMILY_KEYS and key not in _KIND_KEYS.get(kind, _FAMILY_KEYS):
            raise CliError("config", f"config key {key!r} is not read by kind {kind!r}")
    kwargs = {k: settings[k] for k in _SPEC_KEYS if k in settings}
    kwargs["alpha_levels"] = tuple(float(a) for a in settings["alpha_levels"])
    try:
        return ScenarioSpec(**kwargs)
    except ValueError as exc:
        raise CliError("config", str(exc)) from exc


_PI0_HEADER = ["rep", "method", "estimate", "excess"]
_MTP_HEADER = ["rep", "procedure", "alpha", "threshold", "rejections", "fdp"]


def _simulate_outputs(summary: ReplicationSummary, lam: float, epsilon: float) -> list:
    """``simulate``'s outputs, in write order, from its replications run
    at ``lam`` and ``epsilon``."""
    spec = summary.spec
    reps = np.arange(spec.reps)
    n_methods = len(summary.pi0_methods)
    n_procs, n_alphas = len(summary.procedures), len(spec.alpha_levels)
    pi0_columns = [
        np.repeat(reps, n_methods),
        (list(summary.pi0_methods), np.tile(np.arange(n_methods), spec.reps)),
        summary.pi0_estimates.reshape(-1),
        summary.excess.reshape(-1),
    ]
    mtp_columns = [
        np.repeat(reps, n_procs * n_alphas),
        (
            list(summary.procedures),
            np.tile(np.repeat(np.arange(n_procs), n_alphas), spec.reps),
        ),
        np.tile(np.array(spec.alpha_levels), spec.reps * n_procs),
        summary.thresholds.reshape(-1),
        summary.rejections.reshape(-1),
        summary.fdp.reshape(-1),
    ]
    agg = summary.aggregate()
    agg["lambda"] = lam
    agg["epsilon"] = epsilon
    return [
        ("pi0_replications.csv", _write_csv, _PI0_HEADER, pi0_columns),
        ("mtp_replications.csv", _write_csv, _MTP_HEADER, mtp_columns),
        ("aggregate.json", _write_json, agg),
    ]


def cmd_simulate(settings: dict, manifest: dict | None) -> tuple[dict, list, str]:
    """Run a simulation scenario; its outputs are tidy per-replication
    files and their aggregate."""
    spec = _scenario_from_settings(settings)
    inputs: dict[str, dict] = {}
    if settings.get("config_path"):
        inputs["config"] = {
            "path": settings["config_path"],
            "sha256": settings.get("config_sha256"),
        }
    mean_data = None
    if spec.mean_file is not None:
        mean_data = _read_input("mean_file", spec.mean_file, manifest, inputs)

    try:
        summary = run_replications(
            spec,
            pi0_methods=settings["pi0_methods"],
            procedures=settings["procedures"],
            lam=settings["lambda"],
            epsilon=settings["epsilon"],
            mean_data=mean_data,
        )
    except ValueError as exc:
        raise CliError("config", str(exc)) from exc
    outputs = _simulate_outputs(summary, settings["lambda"], settings["epsilon"])
    return inputs, outputs, f"kind = {spec.kind}, reps = {spec.reps}"


# ---------------------------------------------------------------------------
# tune
# ---------------------------------------------------------------------------


def _parse_grid(settings: dict) -> TuningGrid:
    def parse_csv_floats(text: str, what: str) -> list[float]:
        try:
            values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
        except ValueError as exc:
            raise CliError(
                "usage", f"malformed {what} list {text!r}: {exc}"
            ) from exc
        if not values:
            raise CliError("usage", f"empty {what} list")
        return values

    points: list[tuple[float, float]] = []
    if settings.get("points"):
        for token in settings["points"]:
            pieces = token.split(",")
            if len(pieces) != 2:
                raise CliError(
                    "usage",
                    f"malformed grid point {token!r}; expected LAMBDA,EPSILON",
                )
            try:
                points.append((float(pieces[0]), float(pieces[1])))
            except ValueError as exc:
                raise CliError(
                    "usage", f"malformed grid point {token!r}: {exc}"
                ) from exc
    else:
        lams = parse_csv_floats(settings["lambdas"], "lambda")
        epss = parse_csv_floats(settings["epsilons"], "epsilon")
        points = [(lam, eps) for lam in lams for eps in epss]
    try:
        return TuningGrid(points, B=settings["B"], seed=settings["seed"])
    except ValueError as exc:
        raise CliError("usage", str(exc)) from exc


def cmd_tune(settings: dict, manifest: dict | None) -> tuple[dict, list, str]:
    """Bootstrap-select a tuning pair on a count table."""
    # the grid flags first, so that a bad flag is reported before the
    # table is read and tested
    grid = _parse_grid(settings)
    _, study, inputs = _ingest_study(settings, manifest)
    try:
        result = bootstrap_tune(study, grid)
    except ValueError as exc:
        raise CliError("config", str(exc)) from exc
    payload = result.to_json_dict()
    for row, (lam, eps) in zip(payload["mse"], grid.points):
        row["lambda"] = lam
        row["epsilon"] = eps
    payload.update(
        {"m": study.m, "B": grid.B, "seed": grid.seed}
    )
    lam, eps = payload["chosen"]["lambda"], payload["chosen"]["epsilon"]
    summary = f"chose lambda = {lam:.9g}, epsilon = {eps:.9g}"
    return inputs, [("tuning.json", _write_json, payload)], summary


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_ingest_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("counts", nargs="?", help="count table (CSV or TSV)")
    sub.add_argument(
        "--test",
        choices=("bin", "fet", "ent"),
        help="exact test family matching the table",
    )
    sub.add_argument(
        "--trials",
        type=int,
        default=None,
        help="constant per-group trial count for 3-column fet tables",
    )
    sub.add_argument(
        "--size",
        type=float,
        default=None,
        help="per-sample shape parameter for ent tables",
    )
    sub.add_argument(
        "--reps",
        type=int,
        default=1,
        help="samples per group represented by an ent table (default 1)",
    )
    sub.add_argument(
        "--min-total",
        type=int,
        default=1,
        help="drop features with a per-group total below this (default 1)",
    )
    sub.add_argument(
        "--max-total",
        type=int,
        default=None,
        help="drop features with a per-group total above this",
    )
    sub.add_argument(
        "--convention",
        choices=CONVENTIONS,
        default="minlik",
        help="two-sided p-value convention (default minlik)",
    )


def build_parser() -> _Parser:
    parser = _Parser(
        prog="discretefdr",
        description=(
            "Exact tests for count data, true-null-proportion estimation, "
            "and FDR thresholding with full p-value supports."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    subs = parser.add_subparsers(dest="command", metavar="{analyze,simulate,tune}")

    an = subs.add_parser(
        "analyze", help="test a count table and threshold the p-values"
    )
    _add_ingest_flags(an)
    an.add_argument("--lambda", dest="lambda", type=float, default=0.5)
    an.add_argument("--epsilon", type=float, default=1.0)
    an.add_argument(
        "--alpha",
        dest="alphas",
        type=float,
        action="append",
        help="nominal FDR level; repeatable (default 0.05)",
    )
    an.add_argument("--out", help="output directory")
    an.add_argument("--from-manifest", dest="from_manifest")

    si = subs.add_parser("simulate", help="run a seeded simulation scenario")
    si.add_argument("config", nargs="?", help="scenario config (JSON)")
    si.add_argument("--seed", type=int, default=None)
    si.add_argument("--reps", type=int, default=None)
    si.add_argument(
        "--alpha", type=float, action="append", help="overrides alpha_levels"
    )
    si.add_argument("--out", help="output directory")
    si.add_argument("--from-manifest", dest="from_manifest")

    tu = subs.add_parser(
        "tune", help="bootstrap-select the estimator tuning pair"
    )
    _add_ingest_flags(tu)
    tu.add_argument(
        "--lambdas",
        default="0,0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5,"
        "0.55,0.6,0.65,0.7,0.75,0.8,0.85,0.9,0.95",
        help="comma-separated lambda grid",
    )
    tu.add_argument(
        "--epsilons",
        default="0,0.25,0.5,0.75,1",
        help="comma-separated epsilon grid",
    )
    tu.add_argument(
        "--point",
        dest="points",
        action="append",
        help="explicit LAMBDA,EPSILON grid point; repeatable, "
        "overrides --lambdas/--epsilons",
    )
    tu.add_argument("--B", type=int, default=100, help="bootstrap resamples")
    tu.add_argument("--seed", type=int, default=0)
    tu.add_argument("--out", help="output directory")
    tu.add_argument("--from-manifest", dest="from_manifest")

    return parser


#: The parser ``main`` parses with, built on its first call: a parser
#: keeps no state between ``parse_args`` calls, so one serves every
#: command a process runs.
_parser = functools.cache(build_parser)


#: The type of every setting a run records. ``float`` admits any real
#: number, no type admits a bool, and a JSON array is a ``list``.
_SETTING_TYPES = {
    **typing.get_type_hints(ScenarioSpec),
    **dict.fromkeys(("alpha_levels", "alphas"), list[float]),
    **dict.fromkeys(("lambda", "epsilon"), float),
    **dict.fromkeys(("pi0_methods", "procedures"), list[str]),
    **dict.fromkeys(("config_path", "config_sha256", "counts", "test"), str),
    **dict.fromkeys(("convention", "lambdas", "epsilons"), str),
    **dict.fromkeys(("trials", "max_total"), int | None),
    **{"size": float | None, "min_total": int, "points": list[str] | None, "B": int},
}


def _has_type(value, kind) -> bool:
    args = typing.get_args(kind)
    if type(None) in args:
        return value is None or _has_type(value, args[0])
    if typing.get_origin(kind) is list:
        return isinstance(value, list) and all(_has_type(v, args[0]) for v in value)
    wanted = (int, float) if kind is float else kind
    return isinstance(value, wanted) and not isinstance(value, bool)


def _check_settings(settings: dict, required) -> None:
    """A missing or mistyped setting is a config error naming its key."""
    for key in (*required, *settings):
        if key not in settings:
            raise CliError("config", f"missing setting {key!r}")
        kind, value = _SETTING_TYPES.get(key), settings[key]
        if kind is not None and not _has_type(value, kind):
            name = kind.__name__ if type(kind) is type else kind
            raise CliError("config", f"setting {key!r} must be {name}, not {value!r}")


#: Flags that direct a run; every other flag is one of its settings.
_RUN_FLAGS = ("command", "out", "from_manifest")

_COMMANDS = {"analyze": cmd_analyze, "simulate": cmd_simulate, "tune": cmd_tune}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if not getattr(args, "command", None):
            raise CliError(
                "usage", "a subcommand is required: analyze | simulate | tune"
            )
        if not args.out:
            raise CliError("usage", "--out is required")
        # a manifest records every setting a fresh run has; a simulate
        # config may leave out those with defaults
        settings = {k: v for k, v in vars(args).items() if k not in _RUN_FLAGS}
        required = tuple(settings)
        if args.command == "simulate":
            required = ("kind", "m", "pi0", *_SIM_DEFAULTS)
        manifest = None
        if args.from_manifest:
            # a replay runs the recorded settings and takes none of its own
            defaults = vars(_parser().parse_args([args.command]))
            for key, value in settings.items():
                if value != defaults[key]:
                    raise CliError(
                        "usage", f"--from-manifest takes no settings; {key!r} was given"
                    )
            manifest = _load_manifest(args.from_manifest, args.command)
            arguments = manifest["arguments"].items()
            settings = {k: v for k, v in arguments if k not in _IGNORED_KEYS}
        elif args.command == "simulate":
            settings = _load_sim_settings(args)
        elif not args.counts:
            raise CliError("usage", "a count table path is required")
        elif not args.test:
            raise CliError("usage", "--test is required")
        elif args.command == "analyze":
            settings["alphas"] = args.alphas or [0.05]
        _check_settings(settings, required)
        try:
            inputs, outputs, summary = _COMMANDS[args.command](settings, manifest)
        except MemoryError as exc:
            detail = str(exc) or "an allocation failed"
            raise CliError("config", f"out of memory: {detail}") from exc
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise CliError(
                "io", f"cannot create output directory {args.out}: {exc.strerror}"
            ) from exc
        for name, write, *data in outputs:
            write(os.path.join(args.out, name), *data)
        record = {
            "command": args.command,
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "seed": settings.get("seed"),
            "arguments": settings,
            "inputs": inputs,
        }
        # Arguments must round-trip exactly for byte-identical replays, so
        # the manifest is written without the 9-significant-digit rounding
        # applied to reported results.
        path = os.path.join(args.out, "manifest.json")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(json.dumps(record, indent=2) + "\n")
        print(f"{args.command}: {summary}, outputs in {args.out}")
        return 0
    except CliError as exc:
        print(f"error:{exc.category}: {exc.message}", file=sys.stderr)
        return _EXIT_CODES.get(exc.category, 1)


if __name__ == "__main__":
    sys.exit(main())
