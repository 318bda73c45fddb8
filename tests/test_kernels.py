"""Kernel-level checks: oracle agreement, determinism, structure."""

import math
import warnings

import numpy as np
import pytest

from discretefdr import _kernels as K

import oracles


def _random_batches(seed=0, n=400, hi=25):
    rng = np.random.default_rng(seed)
    x1 = rng.integers(0, hi, n)
    x2 = rng.integers(0, hi, n)
    r1 = rng.integers(1, hi, n)
    r2 = rng.integers(1, hi, n)
    a1 = np.array([rng.integers(0, r + 1) for r in r1])
    a2 = np.array([rng.integers(0, r + 1) for r in r2])
    return x1, x2, a1, r1, a2, r2


def test_outcome_pvalues_reference_matches_oracle():
    from scipy.special import gammaln

    for n in (0, 1, 2, 5, 11, 24):
        expected = oracles.binomial_outcome_pvalues(n)
        a = np.arange(n + 1)
        logw = gammaln(n + 1) - gammaln(a + 1) - gammaln(n - a + 1)
        got = oracles.outcome_pvalues(logw)
        assert np.allclose(got, expected, rtol=1e-12, atol=0)


def test_batch_layout_roundtrip():
    x1, x2, *_ = _random_batches()
    pv, flat, start, length = K.batch_binomial(x1, x2)
    assert pv.shape == (len(x1),)
    assert start.shape == length.shape == (len(x1),)
    # features that share a total share one slice of the flat array
    assert np.all(start + length <= flat.shape[0])
    assert flat.shape[0] == int(length[np.unique(start, return_index=True)[1]].sum())
    for i in range(len(x1)):
        sup = flat[start[i] : start[i] + length[i]]
        assert np.all(np.diff(sup) > 0), "support must be strictly increasing"
        assert sup[-1] == 1.0
        assert np.any(sup == pv[i]), "pvalue must be a support element"


def test_modal_pvalue_is_exactly_one():
    x1, x2, a1, r1, a2, r2 = _random_batches(seed=1)
    for pv, flat, start, length in (
        K.batch_binomial(x1, x2),
        K.batch_fisher(a1, r1, a2, r2),
        K.batch_negbinom(x1, x2, 2.5),
    ):
        for i in range(len(pv)):
            sup = flat[start[i] : start[i] + length[i]]
            assert sup[-1] == 1.0


def test_within_path_determinism_is_bitwise():
    x1, x2, *_ = _random_batches(seed=2)
    first = K.batch_binomial(x1, x2)
    second = K.batch_binomial(x1, x2)
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_env_flag_reports_path(monkeypatch):
    assert isinstance(K.using_numba(), bool)


def _heavy_reuse(rng):
    # 2000 features on 21 totals
    x1 = rng.integers(0, 11, 2000)
    x2 = rng.integers(0, 11, 2000)
    r1 = np.full(2000, 10)
    r2 = np.full(2000, 10)
    return x1, x2, x1, r1, x2, r2


def _all_unique_keys(rng):
    # margins (r1, r2, s) differ on every feature; totals too
    n = 300
    r1 = np.arange(1, n + 1)
    r2 = rng.integers(1, 40, n)
    a1 = np.array([rng.integers(0, r + 1) for r in r1])
    a2 = np.array([rng.integers(0, r + 1) for r in r2])
    x1 = np.array([rng.integers(0, 3 * i + 1) for i in range(n)])
    return x1, 3 * np.arange(n) - x1, a1, r1, a2, r2


def _single_feature(rng):
    one = lambda v: np.array([v])  # noqa: E731
    return one(7), one(3), one(2), one(9), one(5), one(6)


def _degenerate(rng):
    # zero totals; fet margins with s = 0, s = r1 + r2, r1 = 0 and r2 = 0
    x1 = np.array([0, 0, 3, 0, 5])
    x2 = np.array([0, 4, 0, 0, 0])
    a1 = np.array([0, 3, 0, 0, 2])
    r1 = np.array([4, 3, 0, 0, 2])
    a2 = np.array([0, 5, 4, 0, 0])
    r2 = np.array([5, 5, 4, 0, 0])
    return x1, x2, a1, r1, a2, r2


@pytest.mark.parametrize("convention", ["minlik", "doubling"])
@pytest.mark.parametrize(
    "make", [_heavy_reuse, _all_unique_keys, _single_feature, _degenerate]
)
def test_batch_matches_per_feature_loop(make, convention):
    """Grouping features by conditioning key changes no bit of the
    p-values, the supports or the per-feature layout."""
    x1, x2, a1, r1, a2, r2 = make(np.random.default_rng(5))
    cases = [
        ("bin", (x1, x2), K.batch_binomial),
        ("fet", (a1, r1, a2, r2), K.batch_fisher),
        ("ent", (x1, x2, 3 * 0.689), K.batch_negbinom),
    ]
    for kind, args, kernel in cases:
        got = oracles.per_feature_layout(*kernel(*args, convention=convention))
        expected = oracles.batch_loop(kind, args, convention)
        for g, e in zip(got, expected):
            assert g.dtype == e.dtype, kind
            assert np.array_equal(g, e), kind


def _swap_cases():
    """Tables ``(x1, r1, x2, r2)``: random margins, ``r1 == r2``, ``s = 0``,
    ``s = r1 + r2``, and margins of 1500 to 3000 whose tails fall below
    the float64 range."""
    rng = np.random.default_rng(17)
    r1 = np.concatenate([rng.integers(0, 60, 300), np.arange(1, 41)])
    r2 = np.concatenate([rng.integers(0, 60, 300), np.arange(1, 41)])
    x1, x2 = rng.binomial(r1, 0.4), rng.binomial(r2, 0.5)
    # s = 0, then s = r1 + r2
    edge1, edge2 = np.array([0, 7, 2, 0, 7, 2]), np.array([5, 0, 9, 5, 0, 9])
    zero = np.zeros(3, dtype=np.int64)
    # the least likely outcome a = 0 at s = min(r1, r2)
    big1, big2 = rng.integers(1500, 3001, 4), rng.integers(1500, 3001, 4)
    x1 = np.concatenate([x1, zero, edge1[3:], np.zeros(4, dtype=np.int64)])
    x2 = np.concatenate([x2, zero, edge2[3:], np.minimum(big1, big2)])
    r1 = np.concatenate([r1, edge1, big1])
    r2 = np.concatenate([r2, edge2, big2])
    return x1, r1, x2, r2


def test_swapping_the_groups_keeps_every_minlik_bit():
    """Under minimum likelihood the table ``(x2, r2, x1, r1)`` is the mirror
    of ``(x1, r1, x2, r2)``: the same log-weights, each formed as the same
    two terms in the other order. So swapping the groups changes no bit
    of a p-value or a support, and a table and its mirror share one law
    and one support slice."""
    x1, r1, x2, r2 = _swap_cases()
    assert np.any(r1 == r2) and np.any(r1 < r2) and np.any(r1 > r2)
    given = K.batch_fisher(x1, r1, x2, r2)
    swapped = K.batch_fisher(x2, r2, x1, r1)
    for a, b in zip(oracles.per_feature_layout(*given),
                    oracles.per_feature_layout(*swapped)):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert np.any(given[0] == K.FLOOR) and np.any(given[1] == K.FLOOR)
    both = K.batch_fisher(*(np.concatenate(v) for v in
                            zip((x1, r1, x2, r2), (x2, r2, x1, r1))))
    n = x1.shape[0]
    assert np.array_equal(both[2][:n], both[2][n:])
    assert np.array_equal(both[0][:n], given[0])


@pytest.mark.parametrize("convention", ["minlik", "doubling"])
@pytest.mark.parametrize("kernel", ["binomial", "fisher", "negbinom"])
def test_swapping_the_groups_changes_no_bit(kernel, convention):
    """A two-sample test does not depend on which group comes first: the
    swapped tables get every bit of the p-values and supports, under
    both conventions. Binomial and negative-binomial laws are
    palindromes bit for bit, and a hypergeometric table and its mirror
    share one law and one support slice."""
    rng = np.random.default_rng(18)
    if kernel == "fisher":
        args = _swap_cases()
        swapped = (args[2], args[3], args[0], args[1])
    else:
        # totals up to about 3400, where the tails underflow
        x1 = np.concatenate([rng.integers(0, 60, 300), rng.integers(1400, 1700, 20)])
        x2 = np.concatenate([rng.integers(0, 60, 300), rng.integers(1400, 1700, 20)])
        x1[:4], x2[:4] = [0, 7, 0, 2], [0, 0, 7, 2998]
        args, swapped = (x1, x2), (x2, x1)
        if kernel == "negbinom":
            args, swapped = args + (2.067,), swapped + (2.067,)
    run = getattr(K, f"batch_{kernel}")
    given = run(*args, convention=convention)
    for a, b in zip(oracles.per_feature_layout(*given),
                    oracles.per_feature_layout(*run(*swapped, convention=convention))):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
    # below the float64 range too, except in the heavy negative-binomial tails
    assert np.any(given[0] == K.FLOOR) == (kernel != "negbinom")
    if kernel == "fisher":
        both = run(*(np.concatenate(v) for v in zip(args, swapped)), convention)
        n = args[0].shape[0]
        assert np.array_equal(both[2][:n], both[2][n:])


@pytest.mark.parametrize("convention", ["minlik", "doubling"])
def test_fisher_keys_at_the_margin_limit(convention):
    """Margins up to ``MAX_TOTAL`` and totals up to ``2 * MAX_TOTAL`` fill
    every bit of the kernel's one int64 key per table (the rank of the
    packed margins, then ``s``). Tables whose margins or totals differ
    in their highest or lowest bits each keep their own law, so every
    bit matches the per-feature builders; these laws are short, whatever
    their margins."""
    top = K.MAX_TOTAL
    half = 2**21
    x1 = np.array([top, top, 0, 1, 2, 0, 3, 1, 1, 0, 0])
    r1 = np.array([top, top, top, top, 5, top, top - 1, half, half + 1, 1, 2])
    x2 = np.array([top, top - 1, 0, 2, 1, 1, 4, 1, 1, 0, 1])
    r2 = np.array([top, top, top, 5, top, 1, top, half + 1, half, top, top])
    got = oracles.per_feature_layout(*K.batch_fisher(x1, r1, x2, r2, convention))
    expected = oracles.batch_loop("fet", (x1, r1, x2, r2), convention)
    for g, e in zip(got, expected):
        assert np.array_equal(g, e)
    assert got[3].max() <= 8


@pytest.mark.parametrize("convention", ["minlik", "doubling"])
def test_batch_kernels_take_empty_input(convention):
    """No features build no law: four empty arrays of the usual types."""
    empty = np.zeros(0, dtype=np.int64)
    for out in (
        K.batch_binomial(empty, empty, convention),
        K.batch_fisher(empty, empty, empty, empty, convention),
        K.batch_negbinom(empty, empty, 2.0, convention),
    ):
        assert [a.shape for a in out] == [(0,)] * 4
        assert [a.dtype for a in out] == [np.float64, np.float64, np.int64, np.int64]


def _around_the_bound(kernel, past, rng, m=60):
    """The arguments of ``m`` features of ``kernel`` (binomial or
    negative binomial), many sharing a total, whose largest total is
    the last key ``_batch`` groups without a sort (``past = 0``) or the
    first it sorts (``past = 1``)."""
    totals = rng.integers(0, 40, m)
    totals[rng.choice(m, 3, replace=False)] = K._dense_keys(m) - 1 + past
    totals[:2] = 0
    x1 = rng.integers(0, totals + 1)
    return (x1, totals - x1) + ((2.07,) if kernel == "negbinom" else ())


@pytest.mark.parametrize("convention", ["minlik", "doubling"])
@pytest.mark.parametrize("kernel", ["binomial", "negbinom"])
@pytest.mark.parametrize("past", [0, 1], ids=["below-the-bound", "past-the-bound"])
def test_both_groupings_match_grouping_by_unique(kernel, past, convention, monkeypatch):
    """Keys just below ``_dense_keys(m)`` are grouped by ``unique_below``
    and keys reaching it by ``np.unique``; either way the kernel's
    4-tuple has every bit of the same laws grouped by ``np.unique``."""
    rng = np.random.default_rng(7 + past + 2 * len(kernel) + len(convention))
    args = _around_the_bound(kernel, past, rng)
    run = getattr(K, f"batch_{kernel}")
    calls = []
    unique_below = K.unique_below
    monkeypatch.setattr(
        K, "unique_below", lambda *a: calls.append(a) or unique_below(*a)
    )
    got = run(*args, convention)
    assert len(calls) == 1 - past
    monkeypatch.setattr(K, "_batch", oracles.batch_by_unique)
    expected = run(*args, convention)
    for g, e in zip(got, expected, strict=True):
        assert g.dtype == e.dtype and g.tobytes() == e.tobytes()


@pytest.mark.parametrize("kernel", ["binomial", "negbinom"])
def test_two_keys_at_the_limit_are_grouped_without_an_array_of_their_range(
    kernel, monkeypatch
):
    """Two features with totals near ``MAX_TOTAL`` are grouped in a few
    bytes: the grouping allocates nothing near one byte per key value.
    The laws are not built: the law builder stops the kernel."""
    import tracemalloc

    top = K.MAX_TOTAL
    x1 = np.array([top // 2, 5])
    x2 = np.array([top - top // 2, top - 6])
    seen = []

    class Grouped(Exception):
        pass

    def laws(distinct, *_):
        seen.append((distinct.tolist(), tracemalloc.get_traced_memory()[1]))
        raise Grouped

    monkeypatch.setattr(K, f"{kernel}_laws", laws)
    args = (x1, x2) + ((2.07,) if kernel == "negbinom" else ())
    tracemalloc.start()
    try:
        with pytest.raises(Grouped):
            getattr(K, f"batch_{kernel}")(*args)
    finally:
        tracemalloc.stop()
    [(distinct, peak)] = seen
    assert distinct == [top - 1, top]
    assert peak < top // 64


def test_unique_below_matches_unique(monkeypatch):
    """``unique_below`` gives ``np.unique``'s distinct values and
    inverse, dtypes included: with no values, with values at
    ``bound - 1`` and at a bound far above the number of values. So does
    ``group_keys``, on keys whose largest is just below ``_dense_keys``
    of their number, which it groups by ``unique_below``, and on keys
    reaching it, which it groups by ``np.unique``."""
    rng = np.random.default_rng(8)
    cases = [
        (0, 0), (0, 9), (1, 1), (40, 7), (40, 8), (40, 9), (500, 130),
        (300, 5000), (15_000, 150_000),
    ]
    for n, bound in cases:
        values = rng.integers(0, max(bound, 1), n)
        values[: min(n, 3)] = bound - 1
        got = K.unique_below(values, bound)
        expected = np.unique(values, return_inverse=True)
        for g, e in zip(got, expected, strict=True):
            assert g.dtype == e.dtype and np.array_equal(g, e)

    calls = []
    unique_below = K.unique_below
    monkeypatch.setattr(
        K, "unique_below", lambda *a: calls.append(a) or unique_below(*a)
    )
    for n in (1, 40, 500, 15_000):
        for past in (0, 1):
            values = rng.integers(0, K._dense_keys(n), n)
            values[0] = K._dense_keys(n) - 1 + past
            calls.clear()
            got = K.group_keys(values)
            assert len(calls) == 1 - past
            expected = np.unique(values, return_inverse=True)
            for g, e in zip(got, expected, strict=True):
                assert g.dtype == e.dtype and np.array_equal(g, e)


# ---------------------------------------------------------------------------
# the block builder against one law at a time
# ---------------------------------------------------------------------------


def _law_cases():
    rng = np.random.default_rng(7)
    # totals from 0 to 2000: beyond 1074 some outcome weights underflow to 0;
    # the total 3000 is wider than a block of the small block size below;
    # the total 120 starts a block that holds the total 127 too
    bin_keys = np.unique(
        np.concatenate([np.arange(0, 40), rng.integers(40, 1075, 60),
                        np.arange(1075, 2001, 23), [120, 127, 2000, 3000]])
    )
    # margins of many attainable-range lengths, so padded groups mix lengths
    r1 = rng.integers(0, 90, 400)
    r2 = rng.integers(0, 90, 400)
    s = np.array([rng.integers(0, a + b + 1) for a, b in zip(r1, r2)])
    fet_keys = np.unique(np.column_stack((r1, r2, s)), axis=0)
    # totals up to about 1100: rows far longer than a pairwise-sum block;
    # the total 127 fills a width of 128
    ent_keys = np.unique(
        np.concatenate([np.arange(0, 30), rng.integers(30, 1101, 80), [127]])
    )
    return [
        ("bin", bin_keys, K.binomial_laws(bin_keys), None),
        ("fet", fet_keys, K.fisher_laws(*fet_keys.T), None),
        ("ent", ent_keys, K.negbinom_laws(ent_keys, 3 * 0.689), 3 * 0.689),
        # equal weights in exact arithmetic: tie classes span whole laws
        ("ent", ent_keys[:60], K.negbinom_laws(ent_keys[:60], 1.0), 1.0),
    ]


@pytest.mark.parametrize("block_entries", [None, 2048, 64])
@pytest.mark.parametrize("convention", ["minlik", "doubling"])
def test_block_tables_match_per_law_builders_bitwise(
    convention, block_entries, monkeypatch
):
    if block_entries is not None:
        # many small blocks; at 64 entries every law of more than 21
        # outcomes is built alone or with one other
        monkeypatch.setattr(K, "_BLOCK_ENTRIES", block_entries)
    for kind, keys, laws, shape_total in _law_cases():
        table_flat, table_start, flat, start, length = K.tables(laws, convention)
        tables, supports = oracles.law_tables_loop(kind, keys, convention, shape_total)
        assert len(tables) == laws[0].shape[0]
        for k, (table, support) in enumerate(zip(tables, supports)):
            n = laws[0][k]
            got = table_flat[table_start[k] : table_start[k] + n]
            assert n == table.shape[0], (kind, k)
            assert np.array_equal(got, table), (kind, convention, k)
            assert np.array_equal(
                flat[start[k] : start[k] + length[k]], support
            ), (kind, convention, k)


def test_block_cases_cover_padding_underflow_and_deep_ties(monkeypatch):
    """The cases above exercise what the block builder must get right."""
    cases = _law_cases()
    lengths = {kind: laws[0] for kind, _, laws, _ in cases[:3]}
    blocks = {kind: [n[rows] for rows in K._blocks(n)] for kind, n in lengths.items()}
    # blocks hold laws of several lengths
    assert any(np.unique(b).shape[0] > 1 for b in blocks["fet"])
    # numpy sums a row pairwise: one loop below 8 entries, eight
    # accumulators up to 128 and halves beyond, so a pairwise total of a
    # padded doubling row could differ from its law's own (the tables
    # take each total from a running sum instead); the binomial and
    # negative-binomial blocks mix lengths on both sides of each edge
    for kind in ("bin", "ent"):
        for edge in (8, 128):
            assert any(
                (b < edge).any() and (b >= edge).any() for b in blocks[kind]
            ), (kind, edge)
    # and for some law a padded total differs from its own-length total
    differs = 0
    for _, _, (n, logw), _ in cases:
        for rows in K._blocks(n):
            width = n[rows].max()
            for k in rows:
                row = logw(np.array([[k]]), np.arange(n[k])[None, :])[0]
                w = np.exp(row - row.max())
                differs += w.sum() != np.concatenate([w, np.zeros(width - n[k])]).sum()
    assert differs > 0
    assert lengths["ent"].max() > 1000
    # a law wider than the small block size is built as a block of its own
    monkeypatch.setattr(K, "_BLOCK_ENTRIES", 2048)
    wide = [rows for rows in K._blocks(lengths["bin"]) if lengths["bin"][rows].max() > 2048]
    assert wide and all(rows.shape[0] == 1 for rows in wide)
    # bin totals of 1075 and more have outcome p-values that compute as
    # exactly 0.0, which the tables raise to the floor
    before = oracles.outcome_pvalues(oracles.logw_binomial(2000))
    assert np.count_nonzero(before == 0.0) > 0
    table_flat, table_start, *_ = K.tables(K.binomial_laws([2000]))
    assert np.count_nonzero(table_flat == K.FLOOR) > 0
    # flat laws need the per-row search beyond the blockwise tie depth
    logw = oracles.logw_negbinom(200, 1.0)
    sw = np.sort(np.exp(logw - logw.max()))[None, :]
    depth = K._tie_end(sw) - np.arange(sw.shape[1])
    assert depth.max() > K._MAX_TIE_DEPTH


def _length_cases():
    rng = np.random.default_rng(13)
    return {
        "empty": np.zeros(0, dtype=np.int64),
        "one": np.array([5]),
        "equal": np.full(5000, 7),
        "random": rng.integers(1, 300, 4000),
        "spread": np.unique(rng.geometric(1e-3, 3000)),
        "wide": rng.permutation(np.concatenate([rng.integers(1, 40, 500), [5000, 40_000, 3]])),
    }


def _padding(n: np.ndarray) -> int:
    """The entries past each law's length in a block of laws of lengths ``n``."""
    return int(n.shape[0] * n.max() - n.sum())


@pytest.mark.parametrize("block_entries", [None, 64, 2048])
@pytest.mark.parametrize("case", sorted(_length_cases()))
def test_blocks_take_every_law_once_in_ascending_bounded_blocks(
    case, block_entries, monkeypatch
):
    """``_blocks`` cuts the laws, in ascending length, into consecutive
    blocks of at most ``_BLOCK_ENTRIES`` entries (or one wider law),
    each spanning at most a factor two in length or holding at most
    ``_PAD_ENTRIES`` entries of padding; each block stops only where the
    next law would break one of those bounds. At a padding bound of 0,
    every block spans at most a factor two."""
    if block_entries is not None:
        monkeypatch.setattr(K, "_BLOCK_ENTRIES", block_entries)
    bound = K._BLOCK_ENTRIES
    length = _length_cases()[case]
    for pad in (K._PAD_ENTRIES, 0):
        monkeypatch.setattr(K, "_PAD_ENTRIES", pad)
        blocks = list(K._blocks(length))
        taken = np.concatenate(blocks) if blocks else np.zeros(0, dtype=np.int64)
        assert np.array_equal(np.sort(taken), np.arange(length.shape[0]))
        assert np.all(np.diff(length[taken]) >= 0)
        for b, rows in enumerate(blocks):
            n = length[rows]
            assert rows.shape[0] == 1 or rows.shape[0] * n.max() <= bound, (case, b)
            assert n.max() <= 2 * n.min() or _padding(n) <= pad, (case, b, pad)
            if b + 1 < len(blocks):
                following = length[blocks[b + 1][0]]
                wider = _padding(np.append(n, following)) > pad
                assert (following > 2 * n.min() and wider) or (
                    (rows.shape[0] + 1) * following > bound
                )
        if case == "equal":
            assert len(blocks) == -(-length.shape[0] // (bound // 7))


@pytest.mark.parametrize("convention", ["minlik", "doubling"])
def test_padding_bound_changes_no_bit_of_the_tables(convention, monkeypatch):
    """Laws of every length from 1 to 300, of each family, get the same
    tables and supports, bit for bit, from blocks cut at the padding
    bound and at 0 (where no block spans more than a factor two), and
    the bound cuts fewer blocks."""
    lengths = np.arange(300)
    families = [
        K.binomial_laws(lengths),
        K.fisher_laws(np.full(300, 300), np.full(300, 300), lengths),
        K.negbinom_laws(lengths, 3 * 0.689),
        K.negbinom_laws(lengths, 40.0),
    ]
    bound = K._PAD_ENTRIES
    for laws in families:
        assert np.array_equal(np.sort(laws[0]), np.arange(1, 301))
        built = {}
        for pad in (bound, 0):
            monkeypatch.setattr(K, "_PAD_ENTRIES", pad)
            table_flat, table_start, flat, start, length = K.tables(laws, convention)
            built[pad] = (
                len(list(K._blocks(laws[0]))),
                [table_flat[a : a + n] for a, n in zip(table_start, laws[0])],
                [flat[a : a + n] for a, n in zip(start, length)],
            )
        (wide, tables, supports), (narrow, tables0, supports0) = built.values()
        assert wide < narrow
        for k in range(300):
            assert tables[k].tobytes() == tables0[k].tobytes(), (convention, k)
            assert supports[k].tobytes() == supports0[k].tobytes(), (convention, k)


def test_doubling_tables_build_one_block_per_width(monkeypatch):
    """About 100 doubling laws of lengths 1 to about 270, as a tuned
    negative-binomial study has them, are built in no more blocks than
    there are power-of-two widths, not one block per law."""
    rng = np.random.default_rng(11)
    totals = np.unique(np.concatenate([[0, 269], rng.integers(0, 270, 150)]))
    laws = K.negbinom_laws(totals, 3 * 0.689)
    calls = []
    block = K._doubling_block

    def spy(w, *args):
        calls.append(w.shape[0])
        return block(w, *args)

    monkeypatch.setattr(K, "_doubling_block", spy)
    K.tables(laws, "doubling")
    widths = np.unique(2 ** np.ceil(np.log2(laws[0])))
    assert totals.shape[0] >= 100 and widths.shape[0] == 10
    assert len(calls) <= widths.shape[0]
    assert sum(calls) == totals.shape[0]


def test_tie_end_matches_search_per_row():
    """The tie class of every sorted weight, found blockwise, is the last
    index a per-row search finds; zero weights keep their own index."""
    rng = np.random.default_rng(8)
    values = np.concatenate([[0.0], rng.uniform(0.01, 1.0, 6)])
    rows = []
    for depth in (0, 1, 3, K._MAX_TIE_DEPTH, K._MAX_TIE_DEPTH + 1, 40):
        for _ in range(5):
            row = rng.choice(values, 48)
            row[: depth + 1] = values[rng.integers(0, values.shape[0])]
            # near-ties within the relative tolerance join the class
            row[1 : depth + 1 : 2] *= 1.0 + 0.5 * K.TIE_RTOL
            rows.append(np.sort(row))
    sw = np.array(rows)
    got = K._tie_end(sw)
    for r, row in enumerate(sw):
        found = np.searchsorted(row, row * (1.0 + K.TIE_RTOL), side="right") - 1
        expected = np.where(row == 0.0, np.arange(row.shape[0]), found)
        assert np.array_equal(got[r], expected), r


@pytest.mark.parametrize("convention", ["minlik", "doubling"])
@pytest.mark.parametrize("total", [2000, 10_000])
def test_underflowed_pvalues_are_raised_to_the_floor(total, convention):
    """Outcomes whose p-value is below the float64 range get the smallest
    positive float; every other entry keeps its bits."""
    table_flat, _, flat, start, length = K.tables(
        K.binomial_laws([total]), convention
    )
    logw = oracles.logw_binomial(total)
    before = {
        "minlik": oracles.outcome_pvalues,
        "doubling": oracles.doubling_outcome_pvalues,
    }[convention](logw)
    underflowed = before == 0.0
    assert underflowed.any()
    assert np.count_nonzero(table_flat == 0.0) == 0
    assert np.all(table_flat[underflowed] == K.FLOOR)
    assert np.array_equal(table_flat[~underflowed], before[~underflowed])
    support = flat[start[0] : start[0] + length[0]]
    assert support[0] == K.FLOOR and support[-1] == 1.0
    assert np.all(np.diff(support) > 0)
    # the observed outcomes 0 and 1 of the batch kernel lie on the floor
    pvalues, *_ = K.batch_binomial([0, 1], [total, total - 1], convention)
    assert np.all(pvalues == K.FLOOR)


_EXTREME_LAWS = [
    # margins (r1, r2, s): symmetric, and with an attainable range
    # shorter than s + 1
    ("fet", (2000, 2000, 2000)),
    ("fet", (3000, 1500, 2000)),
    # totals s at a large shape: near-binomial tails below float64
    ("ent", (2000, 1000.0)),
    ("ent", (10_000, 1000.0)),
]


@pytest.mark.parametrize("convention", ["minlik", "doubling"])
@pytest.mark.parametrize("kind, key", _EXTREME_LAWS)
def test_underflowed_fet_and_ent_pvalues_are_raised_to_the_floor(
    kind, key, convention
):
    """The hypergeometric and negative-binomial laws share the floor: no
    entry is 0, underflowed entries are the smallest positive float, and
    every other entry keeps the per-law builder's bits. From shape 13 the
    negative-binomial weights are Stirling's form, not the oracle's
    log-gamma difference, so the per-law builder takes the kernel's own
    log-weights there (``test_negbinom_laws_match_the_log_gamma_form``
    compares the two)."""
    # each law, its per-law log-weights, and the batch kernel observing
    # its least likely outcome
    if kind == "fet":
        r1, r2, s = key
        lo = max(0, s - r2)
        laws, logw = K.fisher_laws([r1], [r2], [s]), oracles.logw_fisher(*key)
        lowest = K.batch_fisher([lo], [r1], [s - lo], [r2], convention)
    else:
        s, shape_total = key
        laws = K.negbinom_laws([s], shape_total)
        logw = laws[1](np.zeros((1, 1), dtype=np.int64), np.arange(s + 1))[0]
        lowest = K.batch_negbinom([0], [s], shape_total, convention)
    table_flat, _, flat, start, length = K.tables(laws, convention)
    before = {
        "minlik": oracles.outcome_pvalues,
        "doubling": oracles.doubling_outcome_pvalues,
    }[convention](logw)
    underflowed = before == 0.0
    assert underflowed.any()
    assert np.count_nonzero(table_flat == 0.0) == 0
    assert np.all(table_flat[underflowed] == K.FLOOR)
    assert np.array_equal(table_flat[~underflowed], before[~underflowed])
    support = flat[start[0] : start[0] + length[0]]
    assert support[0] == K.FLOOR and support[-1] == 1.0
    assert np.all(np.diff(support) > 0)
    assert np.all(lowest[0] == K.FLOOR)


@pytest.mark.parametrize("shape_total", [-1.5, 0.0, float("inf"), float("nan"), 1e-320])
def test_negbinom_refuses_shapes_beyond_the_float_range(shape_total):
    """A shape that is not finite and positive, or whose reciprocal and
    so log-gamma overflow (below about 5.6e-309), is refused by name
    before any arithmetic that could warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="shape_total"):
            K.batch_negbinom([0, 3], [5, 3], shape_total)


@pytest.mark.parametrize("shape_total", [1e-300, 2.5e305, 2.6e305, 1.7e308])
def test_negbinom_takes_shapes_at_the_ends_of_the_range(shape_total):
    """Any finite shape from about 5.6e-309 up is taken; at the largest,
    the law is its Binomial(s, 1/2) limit, where the split 0 of 5 has
    p-value 2 / 32."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pvalues = K.batch_negbinom([0, 3], [5, 3], shape_total)[0]
    assert np.all((pvalues > 0.0) & (pvalues <= 1.0))
    if shape_total > 1e305:
        assert pvalues[0] == pytest.approx(0.0625, rel=1e-12) and pvalues[1] == 1.0


@pytest.mark.parametrize("shape_total", [1e12, 1e14, 1e20, 1e305])
@pytest.mark.parametrize("convention", ["minlik", "doubling"])
def test_negbinom_reaches_the_binomial_limit(shape_total, convention):
    """As the shape grows, the split of a total tends to Binomial(s, 1/2).

    At shape ``k`` the law's weights differ from the limit's by a factor
    within ``exp(+-s^2 / (2k))``, so p-values may differ by that much:
    1.99e-8 at ``k = 1e12`` and ``s = 200``, where the exact law lies
    9.95e-9 from the limit. Beyond that, the kernel agrees to 1e-9 on
    every pair with ``s <= 200``."""
    a, b = (v.ravel() for v in np.indices((201, 201)))
    a, b = a[a + b <= 200], b[a + b <= 200]
    got = K.batch_negbinom(a, b, shape_total, convention)[0]
    want = K.batch_binomial(a, b, convention)[0]
    assert np.all(np.abs(got / want - 1.0) <= 1e-9 + (a + b) ** 2 / (2 * shape_total))
    if shape_total >= 1e14:
        assert np.max(np.abs(got / want - 1.0)) <= 1e-9


@pytest.mark.parametrize("shape_total", [13.0, 13.5, 30.0, 1e3])
def test_negbinom_laws_match_the_log_gamma_form(shape_total):
    """From shape 13 the weights are Stirling's form; up to a term common
    to every split, they agree with the log-gamma difference of the
    per-law oracle, which holds at these moderate shapes."""
    for s in (0, 1, 7, 200, 2000):
        laws = K.negbinom_laws([s], shape_total)
        got = laws[1](np.zeros((1, 1), dtype=np.int64), np.arange(s + 1))[0]
        want = oracles.logw_negbinom(s, shape_total)
        diff = (got - got.max()) - (want - want.max())
        assert np.max(np.abs(diff)) <= 1e-9 * max(1.0, np.abs(want).max())


def test_negbinom_coefficient_is_continuous_across_the_switch():
    """Below shape 13 the coefficient is the log-gamma difference, from 13
    Stirling's form less ``j log k``; on both sides they give one law."""
    below, drop_below = K.log_negbinom_coefficients(500, np.nextafter(13.0, 0.0))
    above, drop_above = K.log_negbinom_coefficients(500, 13.0)
    assert drop_below == 0.0 and drop_above == math.log(13.0)
    j = np.arange(501)
    assert np.max(np.abs((below - j * math.log(13.0)) - above)) <= 1e-11


# ---------------------------------------------------------------------------
# mirror-exact log-weights and doubled tails that end at 1
# ---------------------------------------------------------------------------


def _law_entries(laws, convention):
    """Every law's table, as ``(table_flat, at, n)``: ``at[k]`` is the
    flat index of law ``k``'s first outcome, ``n`` its lengths."""
    table_flat, table_start, *_ = K.tables(laws, convention)
    return table_flat, table_start, laws[0]


def _mirror_index(n, start):
    """Flat indices of every outcome ``j`` of the laws of lengths ``n`` at
    ``start``, and of its mirror outcome ``n - 1 - j``."""
    law = np.repeat(np.arange(n.shape[0]), n)
    j = np.arange(law.shape[0]) - np.repeat(np.cumsum(n) - n, n)
    return start[law] + j, start[law] + n[law] - 1 - j


@pytest.mark.parametrize("convention", ["minlik", "doubling"])
def test_binomial_mirror_outcomes_share_every_bit(convention):
    """``p(j)`` and ``p(n - j)`` are one float at every binomial total up
    to 3000 and at sampled totals up to 2^20 + 1, and the modal outcomes'
    p-value is exactly 1: ``log C(n, j)`` sums ``log j!`` and
    ``log (n - j)!`` before subtracting, so both outcomes get the same
    weight bits."""
    totals = np.concatenate([np.arange(3001), [4097, 65_537, 100_001, 2**20 + 1]])
    table_flat, start, n = _law_entries(K.binomial_laws(totals), convention)
    at, mirror = _mirror_index(n, start)
    assert np.array_equal(table_flat[at], table_flat[mirror])
    for mode in (totals // 2, (totals + 1) // 2):
        assert np.all(table_flat[start + mode] == 1.0)


def _exact_classes(weights, keep):
    """Outcome indices grouped by equal exact weight, among ``keep``."""
    classes = {}
    for i in np.flatnonzero(keep).tolist():
        classes.setdefault(weights[i], []).append(i)
    return sorted(classes.values())


def _pvalue_classes(p, keep):
    """Outcome indices grouped by equal p-value, among ``keep``."""
    classes = {}
    for i in np.flatnonzero(keep).tolist():
        classes.setdefault(p[i], []).append(i)
    return sorted(classes.values())


def _binomial_coefficients(n):
    """``C(n, j)`` for ``j = 0..n``, exactly."""
    out = [1]
    for j in range(n):
        out.append(out[-1] * (n - j) // (j + 1))
    return out


def test_binomial_tie_classes_are_the_exact_ones():
    """Under minimum likelihood, outcomes share a p-value exactly when
    their exact probabilities are equal: at every total up to 3000 the
    p-values above the floor rise strictly up to the mode (``C(n, j)``
    does), so with the mirror pairs sharing theirs the classes are the
    mirror pairs; at sampled totals the classes are checked against the
    exact coefficients. Outcomes on the floor are left out: their
    p-values lie below the float64 range and are merged by design."""
    totals = np.arange(3001)
    table_flat, start, n = _law_entries(K.binomial_laws(totals), "minlik")
    at, _ = _mirror_index(n, start)
    law = np.repeat(totals, n)
    j = at - start[law]
    low = (j < law / 2) & (j + 1 < law / 2)
    p, following = table_flat[at], table_flat[np.minimum(at + 1, at.max())]
    assert np.all((following > p)[low & (p > K.FLOOR)])
    for total in range(0, 3001, 97):
        table = table_flat[start[total] : start[total] + total + 1]
        keep = table > K.FLOOR
        exact = _exact_classes(_binomial_coefficients(total), keep)
        assert _pvalue_classes(table, keep) == exact, total


def _fisher_weights(r1, r2, s):
    """``C(r1, a) C(r2, s - a)`` over the attainable ``a``, exactly."""
    lo, hi = max(0, s - r2), min(r1, s)
    first, second = _binomial_coefficients(r1), _binomial_coefficients(r2)
    return [first[a] * second[s - a] for a in range(lo, hi + 1)]


def test_fisher_tie_classes_are_the_exact_ones():
    """Under minimum likelihood, outcomes of a hypergeometric law share a
    p-value exactly when their exact probabilities are equal, on every
    margin pair up to 30 at every total, and at margins of 1600 to 5600
    with ``s = (r1 + r2) / 2``, where ``a`` and ``r1 - a`` are exact
    ties with ``r1 != r2``."""
    keys = [
        (r1, r2, s) for r1 in range(31) for r2 in range(31) for s in range(r1 + r2 + 1)
    ]
    keys += [
        (2000, 4000, 3000), (1600, 2400, 2000), (2400, 5600, 4000), (2400, 1600, 2000)
    ]
    table_flat, start, n = _law_entries(K.fisher_laws(*np.array(keys).T), "minlik")
    for k, key in enumerate(keys):
        table = table_flat[start[k] : start[k] + n[k]]
        keep = table > K.FLOOR
        exact = _exact_classes(_fisher_weights(*key), keep)
        assert _pvalue_classes(table, keep) == exact, key
        if key[0] > 1000:
            assert len(exact) < keep.sum()


@pytest.mark.parametrize("convention", ["minlik", "doubling"])
def test_binomial_pvalues_match_scipy_to_1e_9(convention):
    """At totals up to 4 000 000 the binomial p-values lie within 1e-9
    (relative) of ``2 * binom.cdf`` of the smaller count, at outcomes
    from the mode out to 7 standard deviations (p-values down to about
    2.5e-12)."""
    from scipy import stats

    x1, totals = [], []
    for n in (1_001, 10_007, 100_001, 1_000_000, 4_000_000):
        x = (n // 2 - np.arange(8) * math.sqrt(n) / 2).astype(np.int64)
        x1.append(np.concatenate([x, n - x]))
        totals.append(np.full(16, n))
    x1, totals = np.concatenate(x1), np.concatenate(totals)
    pvalues = K.batch_binomial(x1, totals - x1, convention)[0]
    smaller = np.minimum(x1, totals - x1)
    expected = np.minimum(1.0, 2.0 * stats.binom.cdf(smaller, totals, 0.5))
    # the modal outcomes' p-value is 1
    expected[2 * smaller >= totals - 1] = 1.0
    assert np.all(np.abs(pvalues / expected - 1.0) <= 1e-9)
    assert pvalues.min() < 1e-11


def test_doubling_supports_end_at_one():
    """Every tail-doubling support ends at exactly 1, as its median
    outcome's doubled tail is at least 1: on binomial totals up to 3000,
    negative-binomial totals below 600 at shape 3 x 0.689 and
    hypergeometric laws with margins ``(r, r)``, ``r < 60``, at every
    total. Rounding once left 191, 110 and 344 of these ending up to
    8.9e-16 below 1."""
    fisher = np.array([(r, r, s) for r in range(60) for s in range(2 * r + 1)])
    for laws in (
        K.binomial_laws(np.arange(3001)),
        K.negbinom_laws(np.arange(600), 3 * 0.689),
        K.fisher_laws(*fisher.T),
    ):
        table_flat, _, flat, start, length = K.tables(laws, "doubling")
        assert np.all(flat[start + length - 1] == 1.0)
        assert table_flat.max() == 1.0


def _exact_doubling(weights):
    """Tail-doubling p-values of integer weights, in exact arithmetic."""
    from fractions import Fraction

    total = sum(weights)
    lower = np.cumsum(np.array(weights, dtype=object))
    upper = total - lower + np.array(weights, dtype=object)
    return [
        min(Fraction(1), Fraction(2 * min(a, b), total)) for a, b in zip(lower, upper)
    ]


def test_doubling_pvalues_match_exact_rationals():
    """Each tail-doubling p-value in the normal float range lies within
    1e-12 (relative) of exact rational arithmetic on the laws' integer
    weights: binomial totals up to 200, hypergeometric margins up to 100
    and the negative-binomial laws of shape 3 up to 200."""
    rng = np.random.default_rng(19)
    r1, r2 = rng.integers(0, 101, 150), rng.integers(0, 101, 150)
    fisher = [
        (a, b, int(rng.integers(0, a + b + 1)))
        for a, b in zip(r1.tolist(), r2.tolist())
    ]
    cases = [
        (
            K.binomial_laws(np.arange(201)),
            [_binomial_coefficients(n) for n in range(201)],
        ),
        (K.fisher_laws(*np.array(fisher).T), [_fisher_weights(*key) for key in fisher]),
        (
            K.negbinom_laws(np.arange(201), 3.0),
            [
                [(a + 1) * (a + 2) * (s - a + 1) * (s - a + 2) for a in range(s + 1)]
                for s in range(201)
            ],
        ),
    ]
    for laws, weights in cases:
        table_flat, start, n = _law_entries(laws, "doubling")
        for k, w in enumerate(weights):
            got = table_flat[start[k] : start[k] + n[k]]
            want = np.array([float(v) for v in _exact_doubling(w)])
            normal = want >= np.finfo(float).tiny
            assert np.all(np.abs(got[normal] / want[normal] - 1.0) <= 1e-12)
