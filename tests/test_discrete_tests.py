"""Exact tests: frozen example values, conventions, ingestion."""

import io
import re

import numpy as np
import pytest

from discretefdr import (
    IngestSchema,
    Study,
    binomial_test,
    fisher_test,
    ingest_counts,
    nb_exact_test,
)
from discretefdr import _kernels, discrete_tests

# aliased so pytest does not collect the library function as a test
from discretefdr import test_count_table as run_count_table

import oracles


# ---------------------------------------------------------------------------
# binomial
# ---------------------------------------------------------------------------


def test_binomial_five_zero():
    res = binomial_test(5, 0)
    assert res.pvalue == pytest.approx(0.0625, abs=1e-12)
    assert res.support == pytest.approx([0.0625, 0.375, 1.0], abs=1e-12)


def test_binomial_balanced_is_modal():
    for k in (1, 2, 7, 15):
        assert binomial_test(k, k).pvalue == 1.0


def test_binomial_degenerate_total():
    res = binomial_test(0, 0)
    assert res.pvalue == 1.0
    assert res.support.tolist() == [1.0]


def test_binomial_symmetry():
    for a, b in ((0, 9), (2, 7), (3, 11)):
        fwd, rev = binomial_test(a, b), binomial_test(b, a)
        assert fwd.pvalue == rev.pvalue
        assert np.array_equal(fwd.support, rev.support)


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        binomial_test(-1, 2)


# ---------------------------------------------------------------------------
# fisher
# ---------------------------------------------------------------------------


def test_fisher_frozen_example():
    res = fisher_test(3, 4, 1, 4)
    assert res.pvalue == pytest.approx(34 / 70, abs=1e-12)
    assert res.support == pytest.approx([2 / 70, 34 / 70, 1.0], abs=1e-12)


def test_fisher_zero_margin():
    res = fisher_test(0, 4, 0, 4)
    assert res.pvalue == 1.0
    assert res.support.tolist() == [1.0]


def test_fisher_symmetric_table_is_modal():
    for a, r in ((0, 3), (2, 5), (4, 4)):
        assert fisher_test(a, r, a, r).pvalue == 1.0


def test_fisher_symmetric_margin_group_swap():
    res1 = fisher_test(3, 7, 1, 7)
    res2 = fisher_test(1, 7, 3, 7)
    assert res1.pvalue == res2.pvalue
    assert np.array_equal(res1.support, res2.support)


def test_fisher_validates_counts():
    with pytest.raises(ValueError):
        fisher_test(5, 4, 0, 4)
    with pytest.raises(ValueError):
        fisher_test(1, 4, -1, 4)


# ---------------------------------------------------------------------------
# negative binomial
# ---------------------------------------------------------------------------


def test_nb_symmetric_split_is_modal():
    for t in (0, 1, 3, 8):
        assert nb_exact_test(t, t, 2.0, 3).pvalue == 1.0


def test_nb_unit_shape_is_uniform():
    # with total shape 1 the conditional law is exchangeable-uniform,
    # so every split is modal
    res = nb_exact_test(4, 0, 1.0, 1)
    expected = oracles.negbinom_outcome_pvalues(4, 1.0)
    assert res.pvalue == pytest.approx(expected[4], abs=1e-12)
    assert res.pvalue == 1.0
    assert res.support.tolist() == [1.0]


def test_nb_degenerate_total():
    res = nb_exact_test(0, 0, 2.0, 3)
    assert res.pvalue == 1.0
    assert res.support.tolist() == [1.0]


def test_nb_frozen_shape_two_example():
    # total shape 2: weights on splits of 4 are (5,8,9,8,5)/35
    res = nb_exact_test(3, 1, 1.0, 2)
    assert res.pvalue == pytest.approx(26 / 35, abs=1e-12)
    assert res.support == pytest.approx([10 / 35, 26 / 35, 1.0], abs=1e-12)


def test_nb_matches_oracle_fractional_shape():
    for s in (1, 2, 5, 9):
        got = nb_exact_test(s, 0, 0.7, 3)
        expected = oracles.negbinom_outcome_pvalues(s, 3 * 0.7)
        assert got.pvalue == pytest.approx(expected[s], rel=1e-12)


def test_nb_validates_parameters():
    with pytest.raises(ValueError):
        nb_exact_test(1, 1, 0.0, 3)
    with pytest.raises(ValueError):
        nb_exact_test(1, 1, 1.0, 0)


@pytest.mark.parametrize("s1, s2", [(-1, 2), (2, -1)])
def test_nb_refuses_negative_counts(s1, s2):
    with pytest.raises(ValueError, match="^counts must be nonnegative$"):
        nb_exact_test(s1, s2, 1.0, 2)


# ---------------------------------------------------------------------------
# doubling convention
# ---------------------------------------------------------------------------


def test_doubling_convention_differs_on_asymmetric_law():
    # margins (2, 6), total 2: hypergeometric masses (15, 12, 1)/28
    res = fisher_test(1, 2, 1, 6, convention="doubling")
    assert res.pvalue == pytest.approx(26 / 28, abs=1e-12)
    assert res.support == pytest.approx([2 / 28, 26 / 28, 1.0], abs=1e-12)
    minlik = fisher_test(1, 2, 1, 6)
    assert minlik.pvalue == pytest.approx(13 / 28, abs=1e-12)


def test_doubling_matches_tail_oracle():
    from scipy import stats

    n = 11
    pmf = stats.binom.pmf(np.arange(n + 1), n, 0.5)
    expected = oracles.doubling_pvalues(pmf)
    for a in range(n + 1):
        got = binomial_test(a, n - a, convention="doubling")
        assert got.pvalue == pytest.approx(expected[a], abs=1e-12)


def test_unknown_convention_rejected():
    with pytest.raises(ValueError):
        binomial_test(1, 2, convention="sided")


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------


def _ingest(text: str, schema: IngestSchema):
    return ingest_counts(io.BytesIO(text.encode()), schema)


def test_ingest_two_row_roundtrip():
    table = _ingest(
        "id,x1,x2\nf1,3,4\nf2,0,2\n", IngestSchema(kind="bin")
    )
    assert len(table) == 2
    assert table.ids == ["f1", "f2"]
    assert table.group1.tolist() == [3, 0]
    assert table.group2.tolist() == [4, 2]
    assert table.dropped == 0


def test_ingest_tab_delimited():
    table = _ingest("id\tx1\tx2\nf1\t3\t4\n", IngestSchema(kind="bin"))
    assert len(table) == 1


def test_ingest_skips_comment_lines_around_the_header():
    schema = IngestSchema(kind="bin")
    table = _ingest(
        "# counts per group\n\t# indented, with a tab\nid,a,b\n"
        "# note\nf1,3,4\n  # another\nf2,0,2\n#\n",
        schema,
    )
    assert table.ids == ["f1", "f2"]
    assert table.group1.tolist() == [3, 0]
    assert table.group2.tolist() == [4, 2]
    # skipped lines still count toward the line numbers in errors
    with pytest.raises(ValueError, match="line 4"):
        _ingest("# note\nid,a,b\n# note\nf1,3,x\n", schema)
    with pytest.raises(ValueError, match="^line 6: total"):
        _ingest(f"# note\nid,a,b\n# note\nf1,3,4\n\nf2,{LIMIT},1\n", schema)
    with pytest.raises(ValueError, match="header row required"):
        _ingest("# only a comment\n\n", schema)


def test_ingest_filter_drops_and_counts():
    table = _ingest(
        "id,x1,x2\nf1,0,0\nf2,3,4\nf3,30,1\n",
        IngestSchema(kind="bin", min_total=1, max_total=25),
    )
    assert len(table) == 1
    assert table.ids == ["f2"]
    assert table.dropped == 2


def test_ingest_nonint_token_names_line():
    with pytest.raises(ValueError, match="line 3"):
        _ingest("id,x1,x2\nf1,1,2\nf2,3,x\n", IngestSchema(kind="bin"))


def test_ingest_negative_count_rejected():
    with pytest.raises(ValueError, match="line 2"):
        _ingest("id,x1,x2\nf1,-1,2\n", IngestSchema(kind="bin"))


def test_ingest_fet_five_columns_per_feature_trials():
    table = _ingest(
        "id,x1,r1,x2,r2\nf1,3,4,1,4\nf2,0,6,2,5\n",
        IngestSchema(kind="fet"),
    )
    assert len(table) == 2
    assert table.trials1.tolist() == [4, 6]
    assert table.trials2.tolist() == [4, 5]


def test_ingest_fet_three_columns_needs_constant_trials():
    schema = IngestSchema(kind="fet", trials=8)
    table = _ingest("id,x1,x2\nf1,3,1\n", schema)
    assert table.trials1.tolist() == [8]
    with pytest.raises(ValueError, match="5 columns"):
        _ingest("id,x1,x2\nf1,3,1\n", IngestSchema(kind="fet"))


def test_ingest_fet_count_exceeding_trials_rejected():
    with pytest.raises(ValueError, match="line 2"):
        _ingest("id,x1,r1,x2,r2\nf1,5,4,1,4\n", IngestSchema(kind="fet"))


def test_ingest_fet_filter_applies_to_trials():
    table = _ingest(
        "id,x1,r1,x2,r2\nf1,3,30,1,4\nf2,1,4,1,4\n",
        IngestSchema(kind="fet", min_total=1, max_total=25),
    )
    assert table.ids == ["f2"]
    assert table.dropped == 1


def test_ingest_ent_replicate_columns_summed():
    schema = IngestSchema(kind="ent", size=0.7, reps=2)
    table = _ingest(
        "id,a1,a2,b1,b2\nf1,1,2,3,4\n", schema
    )
    assert table.group1.tolist() == [3]
    assert table.group2.tolist() == [7]


def test_ingest_ent_requires_size():
    with pytest.raises(ValueError):
        IngestSchema(kind="ent", size=None)


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"kind": "xyz"}, "unknown test kind 'xyz'; choose from bin, fet, ent"),
        ({"kind": "bin", "reps": 0}, "reps must be at least 1"),
        ({"kind": "ent", "size": 0.7, "reps": -2}, "reps must be at least 1"),
        ({"kind": "ent"}, "ent ingestion requires size"),
    ],
    ids=["unknown-kind", "reps-0", "ent-reps-negative", "ent-no-size"],
)
def test_ingest_schema_refusals(settings, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        IngestSchema(**settings)


def test_ingest_blank_lines_skipped():
    table = _ingest("id,x1,x2\n\nf1,1,2\n\n", IngestSchema(kind="bin"))
    assert len(table) == 1


def test_ingest_missing_header_rejected():
    with pytest.raises(ValueError):
        _ingest("", IngestSchema(kind="bin"))


def _same_table(got, expected):
    assert got.kind == expected.kind
    assert got.ids == expected.ids
    for name in ("group1", "group2", "trials1", "trials2"):
        a, b = getattr(got, name), getattr(expected, name)
        if b is None:
            assert a is None, name
        else:
            assert a.dtype == b.dtype == np.int64, name
            assert np.array_equal(a, b), name
    for name in ("size", "reps", "dropped"):
        assert getattr(got, name) == getattr(expected, name), name


def _token(rng, value):
    """``value`` written as one of the spellings ``int`` accepts."""
    style = rng.integers(0, 5)
    if style == 1:
        return f"+{value}"
    if style == 2:
        return f" {value} "
    if style == 3:
        return format(value, "_d")
    return str(value)


def _random_text(rng, schema, m, delim, newline):
    """A count table of ``m`` data rows of every width ``schema`` allows,
    with comment and blank lines around the header and between rows."""
    names = ["x1", "r1", "x2", "r2"] if schema.kind == "fet" else ["x1", "x2"]
    lines = ["# generated", "", delim.join(["id", *names])]
    for i in range(m):
        if rng.random() < 0.05:
            lines.append(rng.choice(["", "   ", "# note", "  # indented"]))
        counts = []
        if schema.kind == "fet":
            r = rng.integers(0, 60, 2)
            x = [rng.integers(0, v + 1) for v in r]
            if schema.trials is not None and rng.random() < 0.5:
                x = [rng.integers(0, schema.trials + 1) for _ in range(2)]
                counts = [x[0], x[1]]
            else:
                counts = [x[0], r[0], x[1], r[1]]
        elif schema.kind == "ent" and schema.reps > 1 and rng.random() < 0.5:
            counts = list(rng.integers(0, 15, 2 * schema.reps))
        else:
            counts = list(rng.integers(0, 50, 2))
        ident = f" id{i} " if rng.random() < 0.1 else f"id{i}"
        lines.append(delim.join([ident, *(_token(rng, int(c)) for c in counts)]))
    return newline.join(lines) + newline


_SCHEMAS = [
    IngestSchema(kind="bin"),
    IngestSchema(kind="bin", min_total=5, max_total=40),
    IngestSchema(kind="fet"),
    IngestSchema(kind="fet", trials=30, min_total=10, max_total=50),
    IngestSchema(kind="ent", size=0.7, reps=3),
    IngestSchema(kind="ent", size=0.7, reps=1, min_total=2),
    IngestSchema(kind="ent", size=0.7, reps=2, max_total=20),
]


def _schema_id(schema):
    fields = (schema.trials, schema.reps, schema.min_total, schema.max_total)
    return "-".join(map(str, (schema.kind, *fields)))


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("schema", _SCHEMAS, ids=_schema_id)
def test_ingest_matches_row_wise_parser(schema, newline):
    rng = np.random.default_rng(len(newline) * 100 + _SCHEMAS.index(schema))
    for delim in (",", "\t"):
        data = _random_text(rng, schema, 400, delim, newline).encode()
        got = ingest_counts(io.BytesIO(data), schema)
        expected = oracles.ingest_rows(io.BytesIO(data), schema)
        _same_table(got, expected)
    assert len(got) + got.dropped == 400
    if schema.min_total is not None or schema.max_total is not None:
        assert 0 < got.dropped < 400


def test_ingest_reads_every_spelling_int_accepts():
    table = _ingest(
        "id,x1,x2\nf1,+3, 4 \nf2,1_000,007\n", IngestSchema(kind="bin")
    )
    assert table.group1.tolist() == [3, 1000]
    assert table.group2.tolist() == [4, 7]


_FAULTS = ["x", "-2", "", "3.5", "1 2", "999"]


#: A run of rows longer than every table of these tests: faults placed
#: by it land on a table's first and last data rows.
_WHOLE_TABLE = 4096


@pytest.mark.parametrize(
    "schema, chunk_rows",
    [
        pytest.param(
            schema,
            chunk_rows,
            id=_schema_id(schema)
            + ("" if chunk_rows == _WHOLE_TABLE else f"-chunk{chunk_rows}"),
        )
        for schema in _SCHEMAS
        for chunk_rows in (1, 2, 3, _WHOLE_TABLE)
    ],
)
def test_ingest_errors_match_row_wise_parser(schema, chunk_rows):
    """Two bad cells, the first on the first or last data row of a run
    of ``chunk_rows`` rows, the second anywhere: ``ingest_counts`` and
    the row-wise oracle name the same first line with the same
    message."""
    rng = np.random.default_rng(50 + _SCHEMAS.index(schema))
    for _ in range(30):
        lines = _random_text(rng, schema, 60, ",", "\n").splitlines()
        data_lines = [
            k for k, line in enumerate(lines) if line.lstrip()[:1] not in "#"
        ][1:]
        edges = [
            k
            for i, k in enumerate(data_lines)
            if i % chunk_rows in (0, chunk_rows - 1) or k == data_lines[-1]
        ]
        for k in (rng.choice(edges), rng.integers(3, len(lines))):
            tokens = lines[k].split(",")
            if len(tokens) < 2:
                continue
            if rng.random() < 0.2:
                tokens.append("9")  # a row of the wrong width
            else:
                tokens[rng.integers(1, len(tokens))] = str(rng.choice(_FAULTS))
            lines[k] = ",".join(tokens)
        data = ("\n".join(lines) + "\n").encode()
        try:
            expected = oracles.ingest_rows(io.BytesIO(data), schema)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                ingest_counts(io.BytesIO(data), schema)
            assert str(got.value) == str(exc)
        else:
            _same_table(ingest_counts(io.BytesIO(data), schema), expected)


@pytest.mark.parametrize(
    "schema, text, message",
    [
        (IngestSchema(kind="bin"), "f1,1,2,3", "expected 3 columns, got 4"),
        (IngestSchema(kind="fet"), "f1,1,2", "expected 5 columns, got 3"),
        (
            IngestSchema(kind="fet", trials=5),
            "f1,1,2,3",
            "expected 5 or 3 columns, got 4",
        ),
        (
            IngestSchema(kind="ent", size=1.0, reps=3),
            "f1,1,2,3,4,5",
            "expected 7 or 3 columns, got 6",
        ),
    ],
    ids=["bin", "fet", "fet-trials", "ent-reps"],
)
def test_ingest_width_error_names_every_legal_width(schema, text, message):
    data = f"id,a,b\n{text}\n".encode()
    expected = rf"^line 2: {message}$"
    with pytest.raises(ValueError, match=expected):
        ingest_counts(io.BytesIO(data), schema)
    with pytest.raises(ValueError, match=expected):
        oracles.ingest_rows(io.BytesIO(data), schema)


def test_ingest_names_the_earlier_of_two_bad_lines():
    # the column-wise parse meets line 4's bad first count before line
    # 3's bad second count; the error still names line 3
    with pytest.raises(ValueError, match=r"^line 3: negative count -4$"):
        _ingest("id,x1,x2\nf1,1,2\nf2,3,-4\nf3,x,2\n", IngestSchema(kind="bin"))
    with pytest.raises(ValueError, match=r"^line 2: count exceeds trials$"):
        _ingest(
            "id,x1,r1,x2,r2\nf1,1,2,7,6\nf2,x,2,1,6\n", IngestSchema(kind="fet")
        )


def test_ingest_rejects_counts_beyond_int64():
    big = str(2**63)
    with pytest.raises(ValueError, match=rf"^line 3: count {big} exceeds"):
        _ingest(f"id,x1,x2\nf1,1,2\nf2,{big},3\n", IngestSchema(kind="bin"))
    top = str(2**63 - 1)
    schema = IngestSchema(kind="ent", size=1.0, reps=2)
    # a group sum of 2^63 - 1 parses; its total is then beyond the limit
    with pytest.raises(ValueError, match=rf"^line 2: total {2**63 + 1} exceeds"):
        _ingest(f"id,a1,a2,b1,b2\nf1,{top},0,1,1\n", schema)
    with pytest.raises(ValueError, match=rf"^line 2: group sum {2**63} exceeds"):
        _ingest(f"id,a1,a2,b1,b2\nf1,{top},1,1,1\n", schema)
    with pytest.raises(ValueError, match="trials"):
        IngestSchema(kind="fet", trials=2**63)


LIMIT = _kernels.MAX_TOTAL


@pytest.mark.parametrize(
    "kind, text, message",
    [
        ("bin", "f1,9000000000000000000,3", f"total {9 * 10**18 + 3} exceeds"),
        # the int64 sum of this row wraps to -2^63
        ("bin", f"f1,{2**62},{2**62}", f"total {2**63} exceeds"),
        ("bin", f"f1,{LIMIT},1", f"total {LIMIT + 1} exceeds"),
        ("fet", f"f1,1,{LIMIT + 1},1,6", f"trials {LIMIT + 1} exceed"),
        ("fet", f"f1,1,6,1,{2**63 - 1}", f"trials {2**63 - 1} exceed"),
        ("ent", f"f1,{LIMIT},0,1,0", f"total {LIMIT + 1} exceeds"),
    ],
)
def test_ingest_rejects_totals_beyond_the_kernel_limit(kind, text, message):
    schema = IngestSchema(
        kind=kind, **({"size": 1.0, "reps": 2} if kind == "ent" else {})
    )
    header = {"bin": "id,x1,x2", "fet": "id,x1,r1,x2,r2", "ent": "id,a1,a2,b1,b2"}
    data = f"{header[kind]}\nf0,1,1{',1,1' if kind != 'bin' else ''}\n{text}\n"
    expected = rf"^line 3: {message} the largest supported total {LIMIT}$"
    with pytest.raises(ValueError, match=expected):
        _ingest(data, schema)
    with pytest.raises(ValueError, match=expected):
        oracles.ingest_rows(io.BytesIO(data.encode()), schema)


def test_rows_at_or_filtered_beyond_the_limit_stay_legal():
    table = _ingest(f"id,x1,x2\nf1,{LIMIT},0\nf2,0,{LIMIT}\n", IngestSchema(kind="bin"))
    assert table.group1.tolist() == [LIMIT, 0]
    # each group's count is filtered before the total is checked
    table = _ingest(
        f"id,x1,x2\nf1,9000000000000000000,3\nf2,{2**62},{2**62}\nf3,3,4\n",
        IngestSchema(kind="bin", max_total=100),
    )
    assert table.ids == ["f3"] and table.dropped == 2
    table = _ingest(
        f"id,x1,r1,x2,r2\nf1,1,{LIMIT + 1},1,6\nf2,1,6,1,6\n",
        IngestSchema(kind="fet", max_total=LIMIT),
    )
    assert table.ids == ["f2"] and table.dropped == 1


def test_kernels_reject_totals_beyond_the_limit():
    message = f"largest supported total {LIMIT}"
    with pytest.raises(ValueError, match=message):
        binomial_test(LIMIT, 1)
    with pytest.raises(ValueError, match=message):
        fisher_test(1, LIMIT + 1, 1, 6)
    with pytest.raises(ValueError, match=message):
        nb_exact_test(LIMIT, 1, 1.0, 2)
    # a total that wraps in int64 is caught before it is formed
    with pytest.raises(ValueError, match=message):
        _kernels.batch_binomial([2**62], [2**62])
    with pytest.raises(ValueError, match=message):
        _kernels.batch_negbinom([2**63 - 1], [1], 2.0)


# ---------------------------------------------------------------------------
# the byte parser against the row-wise oracle, on generated tables
# ---------------------------------------------------------------------------

INT64_MAX = oracles.INT64_MAX


def _count_text(rng, value):
    """``value`` in plain digits, at times zero-padded to 18 or 19."""
    text = str(value)
    if rng.random() < 0.1:
        text = text.zfill(int(rng.choice([18, 19])))
    return text


def _plain_counts(rng, schema):
    """The counts of one row of a width ``schema`` allows; one row in
    eight holds an 18- or 19-digit count."""
    big = rng.random() < 0.125
    if schema.kind == "fet":
        r = [int(rng.integers(0, 60)) for _ in range(2)]
        if big:
            r[0] = int(rng.choice([10**17, 10**18 - 1, 10**18, INT64_MAX]))
        x = [int(rng.integers(0, v + 1)) if v < 60 else v // 3 for v in r]
        if schema.trials is not None and rng.random() < 0.5:
            return [int(rng.integers(0, schema.trials + 1)) for _ in range(2)]
        return [x[0], r[0], x[1], r[1]]
    if schema.kind == "ent" and schema.reps > 1 and rng.random() < 0.5:
        counts = [int(v) for v in rng.integers(0, 15, 2 * schema.reps)]
    else:
        counts = [int(v) for v in rng.integers(0, 50, 2)]
    if big:
        # group sums stay within int64
        top = INT64_MAX // len(counts)
        counts[int(rng.integers(0, len(counts)))] = int(
            rng.choice([10**17, 10**18 - 1, min(10**18, top), top])
        )
    return counts


_BLANKS = ["", "   ", "\t", "# note", "  # indented", "\t# tabbed", "#"]
_IDS = ["g{}", "a b{}", 'q"{}"', '"{}', "{}#", ""]


def _plain_table(rng, schema, m, delim):
    """The lines of a plain table of ``m`` data rows, and the index of
    each data row among them: comment and blank lines before and after
    the header and between rows, rows of every width ``schema`` allows,
    ids with inner spaces or quotes."""
    names = ["x1", "r1", "x2", "r2"] if schema.kind == "fet" else ["x1", "x2"]
    lines = [str(rng.choice(_BLANKS)) for _ in range(rng.integers(0, 3))]
    lines.append(delim.join(["id", *names]))
    rows = []
    for i in range(m):
        if rng.random() < 0.1:
            lines.append(str(rng.choice(_BLANKS)))
        ident = str(rng.choice(_IDS)).format(i)
        counts = [_count_text(rng, v) for v in _plain_counts(rng, schema)]
        rows.append(len(lines))
        lines.append(delim.join([ident, *counts]))
    lines += [str(rng.choice(_BLANKS)) for _ in range(rng.integers(0, 3))]
    return lines, rows


def _on_count(text):
    """A fault that replaces one count cell of a row by ``text``."""

    def fault(tokens, schema):
        tokens[1] = text
        return tokens

    return fault


def _count_above_trials(tokens, schema):
    if schema.kind == "fet" and len(tokens) == 5:
        tokens[1] = str(int(tokens[2]) + 1)
    return tokens


def _group_sum_overflow(tokens, schema):
    if schema.kind == "ent" and len(tokens) > 3:
        tokens[1] = tokens[2] = str(2**62)
    return tokens


#: Faults of a count cell, an id or a row's width: the count cells that
#: are not plain digits are read by ``int``, one at a time.
_ROW_FAULTS = {
    "letter": _on_count("x"),
    "negative": _on_count("-2"),
    "empty": _on_count(""),
    "decimal": _on_count("3.5"),
    "inner-space": _on_count("1 2"),
    "plus": _on_count("+3"),
    "underscore": _on_count("1_0"),
    "leading-space": _on_count(" 4"),
    "trailing-space": _on_count("4 "),
    "nineteen-nines": _on_count("9" * 19),
    "int64-max-plus-one": _on_count(str(2**63)),
    "twenty-digits": _on_count("0" * 19 + "7"),
    "extra-cell": lambda tokens, schema: tokens + ["9"],
    "missing-cell": lambda tokens, schema: tokens[:-1],
    "id-trailing-blank": lambda tokens, schema: [tokens[0] + " ", *tokens[1:]],
    "id-leading-blank": lambda tokens, schema: [" " + tokens[0], *tokens[1:]],
    "id-leading-tab": lambda tokens, schema: ["\t" + tokens[0], *tokens[1:]],
    "count-above-trials": _count_above_trials,
    "group-sum-overflow": _group_sum_overflow,
}


def _line_end(char):
    """A fault that ends a row's line with ``char`` and puts a one-cell
    line after it: the row parses, and the new line is malformed."""

    def fault(tokens, schema):
        return [*tokens[:-1], tokens[-1] + char + "x"]

    return fault


#: Faults that make a table not plain, so that it is read as UTF-8 text
#: cut into lines by ``str.splitlines``: every line end but LF and CRLF,
#: other control bytes, and non-ASCII ids, digits and blanks.
_TEXT_FAULTS = {
    "non-ascii-id": lambda tokens, schema: ["naïve", *tokens[1:]],
    "non-ascii-digit": _on_count("٣"),
    "full-width-digit": _on_count("３"),
    "lone-cr": lambda tokens, schema: ["a\rb", *tokens[1:]],
    "form-feed": lambda tokens, schema: ["a\x0cb", *tokens[1:]],
    "vertical-tab": _line_end("\x0b"),
    "file-separator": _line_end("\x1c"),
    "group-separator": _line_end("\x1d"),
    "record-separator": _line_end("\x1e"),
    "next-line": _line_end("\x85"),
    "line-separator": _line_end("\u2028"),
    "paragraph-separator": _line_end("\u2029"),
    "unit-separator-blank": lambda tokens, schema: [
        f"\x1f{tokens[0]}\x1f", *tokens[1:]
    ],
    "nul": lambda tokens, schema: ["a\x00b", *tokens[1:]],
    "nbsp-indented-comment": lambda tokens, schema: ["\xa0#" + tokens[0], *tokens[1:]],
    "id-trailing-nbsp": lambda tokens, schema: [tokens[0] + "\xa0", *tokens[1:]],
    "bom-before-header": lambda tokens, schema: ["\ufeff" + tokens[0], *tokens[1:]],
}

#: Faults put on the header line rather than on a data row.
_HEADER_FAULTS = {"bom-before-header"}


def _check_against_oracle(data, schema):
    """``ingest_counts`` gives the row-wise oracle's table, or its error
    message."""
    try:
        expected = oracles.ingest_rows(io.BytesIO(data), schema)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            ingest_counts(io.BytesIO(data), schema)
        assert str(got.value) == str(exc)
    else:
        _same_table(ingest_counts(io.BytesIO(data), schema), expected)


_FUZZ_SCHEMAS = [
    IngestSchema(kind="bin", max_total=10**6),
    IngestSchema(kind="fet", min_total=1, max_total=10**6),
    IngestSchema(kind="fet", trials=30, max_total=10**6),
    IngestSchema(kind="ent", size=0.7, reps=3, max_total=10**6),
    IngestSchema(kind="ent", size=0.7, reps=1),
]


@pytest.mark.parametrize("newline", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("schema", _FUZZ_SCHEMAS, ids=_schema_id)
def test_plain_tables_take_the_byte_parser(schema, newline):
    """A plain table, with comments, blank lines, quotes and inner spaces
    in ids, zero-padded and 19-digit counts and mixed widths, is read as
    it is, without being decoded into lines, to the oracle's table."""
    rng = np.random.default_rng(300 + _FUZZ_SCHEMAS.index(schema) + len(newline))
    for delim in (",", "\t"):
        for m in (0, 1, 2, 150):
            lines, _ = _plain_table(rng, schema, m, delim)
            for end in (newline, ""):
                data = (newline.join(lines) + end).encode()
                assert discrete_tests._lines(data)[0] in (data, data + b"\n")
                _check_against_oracle(data, schema)


@pytest.mark.parametrize("chunk_rows", [1, 3, 8, _WHOLE_TABLE])
@pytest.mark.parametrize("schema", _FUZZ_SCHEMAS, ids=_schema_id)
def test_faults_at_chunk_edges_match_the_row_parsers(schema, chunk_rows):
    """Each fault, on the first or last data row of a run of
    ``chunk_rows`` rows and at times on a second row (or on the header,
    for a header fault), gives the row-wise oracle's table or first
    error, its message and its line."""
    rng = np.random.default_rng(400 + _FUZZ_SCHEMAS.index(schema) + chunk_rows)
    faults = {**_ROW_FAULTS, **_TEXT_FAULTS}
    for name, fault in faults.items():
        for _ in range(3):
            delim = str(rng.choice([",", "\t"]))
            newline = str(rng.choice(["\n", "\r\n"]))
            lines, rows = _plain_table(rng, schema, 40, delim)
            edges = [
                i for i in range(len(rows))
                if i % chunk_rows in (0, chunk_rows - 1) or i == len(rows) - 1
            ]
            at = {rows[int(rng.choice(edges))]}
            if rng.random() < 0.5:
                at.add(rows[int(rng.integers(0, len(rows)))])
            if name in _HEADER_FAULTS:
                # the first line that is neither blank nor a comment
                header = (
                    k for k, line in enumerate(lines) if line.lstrip()[:1] not in "#"
                )
                at = {next(header)}
            for k in at:
                lines[k] = delim.join(fault(lines[k].split(delim), schema))
            _check_against_oracle((newline.join(lines) + newline).encode(), schema)


_FILTER_SCHEMAS = [
    IngestSchema(kind="bin", min_total=10, max_total=45),
    IngestSchema(kind="bin", min_total=10),
    IngestSchema(kind="fet", min_total=5, max_total=40),
    IngestSchema(kind="fet", trials=30, min_total=8),
    IngestSchema(kind="ent", size=0.7, reps=3, min_total=3, max_total=30),
]

#: Blanks that make an id stripped: ASCII blanks and a non-ASCII one.
_ID_BLANKS = [" ", "\t", "\xa0", "\u2003"]


@pytest.mark.parametrize("schema", _FILTER_SCHEMAS, ids=_schema_id)
def test_only_the_kept_rows_ids_are_cut(schema, monkeypatch):
    """Tables whose rows the total filters drop, with ids that need
    stripping on dropped and kept rows alike, and at times a bad cell or
    a total beyond the kernels' limit on a dropped or a kept row: the
    table (ids, counts, ``dropped``) or the first error, its message and
    its line, is the oracle's, and only the kept rows' ids are cut."""
    cut = []
    cut_ids = discrete_tests._cut_ids
    monkeypatch.setattr(
        discrete_tests, "_cut_ids",
        lambda r, start, *rest: cut.append(start.shape[0]) or cut_ids(r, start, *rest),
    )
    rng = np.random.default_rng(500 + _FILTER_SCHEMAS.index(schema))
    dropped = errors = 0
    for _ in range(40):
        delim = str(rng.choice([",", "\t"]))
        # one row in eight holds a count beyond the limit: short tables
        # may hold none
        lines, rows = _plain_table(rng, schema, int(rng.integers(1, 60)), delim)
        for k in rows:
            if rng.random() < 0.3:
                tokens = lines[k].split(delim)
                lead, tail = rng.choice(_ID_BLANKS, 2)
                tokens[0] = lead * int(rng.integers(0, 2)) + tokens[0] + tail
                lines[k] = delim.join(tokens)
        if rng.random() < 0.2:
            k = rows[int(rng.integers(0, len(rows)))]
            lines[k] = delim.join(_on_count("x")(lines[k].split(delim), schema))
        data = ("\n".join(lines) + "\n").encode()
        _check_against_oracle(data, schema)
        cut.clear()
        try:
            table = ingest_counts(io.BytesIO(data), schema)
        except ValueError:
            errors += 1
            assert not cut
        else:
            dropped += table.dropped
            assert cut == [len(table)]
    assert dropped > 0 and errors > 0


@pytest.mark.parametrize("schema", _FUZZ_SCHEMAS[:3], ids=_schema_id)
def test_blank_and_comment_lines_after_rows_match_the_oracle(schema):
    """Blank and comment lines (with delimiters in them) before, among
    and after the rows, one trailing blank line alone, or a table of
    such lines only: the oracle's table or first error."""
    rng = np.random.default_rng(600 + _FUZZ_SCHEMAS.index(schema))
    extra = ["", "#", "# a,b\tc", "  # x,,", "\t", " , "]
    for delim in (",", "\t"):
        for m in (0, 1, 40):
            lines, rows = _plain_table(rng, schema, m, delim)
            for tail in ([""], extra, [str(rng.choice(extra))] * 3):
                data = ("\n".join(lines + tail) + "\n").encode()
                _check_against_oracle(data, schema)
            mixed = list(lines)
            picks = rng.choice(rows, min(m, 5), replace=False) if m else []
            for k in sorted(picks, reverse=True):
                mixed.insert(k + 1, str(rng.choice(extra)))
            _check_against_oracle(("\n".join(mixed) + "\n").encode(), schema)


# ---------------------------------------------------------------------------
# table-level testing
# ---------------------------------------------------------------------------


def test_count_table_batch_matches_scalar():
    table = _ingest(
        "id,x1,x2\nf1,5,0\nf2,3,3\nf3,12,2\n", IngestSchema(kind="bin")
    )
    study = Study.from_distinct(*run_count_table(table, "minlik"))
    pvals, supports = study.pvalues, study.supports
    for i, (a, b) in enumerate(zip(table.group1, table.group2)):
        res = binomial_test(int(a), int(b))
        assert pvals[i] == res.pvalue
        assert np.array_equal(supports[i], res.support)


def test_count_table_doubling_convention():
    table = _ingest(
        "id,x1,r1,x2,r2\nf1,1,2,1,6\n", IngestSchema(kind="fet")
    )
    pvals = run_count_table(table, "doubling")[0]
    assert pvals[0] == pytest.approx(26 / 28, abs=1e-12)
