"""Kernel-level checks: oracle agreement, determinism, structure."""

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


# ---------------------------------------------------------------------------
# the block builder against one law at a time
# ---------------------------------------------------------------------------


def _law_cases():
    rng = np.random.default_rng(7)
    # totals from 0 to 2000: beyond 1074 some outcome weights underflow to 0;
    # the total 3000 is wider than a block of the small block size below
    bin_keys = np.unique(
        np.concatenate([np.arange(0, 40), rng.integers(40, 1075, 60),
                        np.arange(1075, 2001, 23), [2000, 3000]])
    )
    # margins of many attainable-range lengths, so padded groups mix lengths
    r1 = rng.integers(0, 90, 400)
    r2 = rng.integers(0, 90, 400)
    s = np.array([rng.integers(0, a + b + 1) for a, b in zip(r1, r2)])
    fet_keys = np.unique(np.column_stack((r1, r2, s)), axis=0)
    # totals up to about 1100: rows far longer than a pairwise-sum block
    ent_keys = np.unique(np.concatenate([np.arange(0, 30), rng.integers(30, 1101, 80)]))
    return [
        ("bin", bin_keys, K.binomial_laws(bin_keys), None),
        ("fet", fet_keys, K.fisher_laws(*fet_keys.T), None),
        ("ent", ent_keys, K.negbinom_laws(ent_keys, 3 * 0.689), 3 * 0.689),
        # equal weights in exact arithmetic: tie classes span whole laws
        ("ent", ent_keys[:60], K.negbinom_laws(ent_keys[:60], 1.0), 1.0),
    ]


@pytest.mark.parametrize("block_entries", [None, 2048])
@pytest.mark.parametrize("convention", ["minlik", "doubling"])
def test_block_tables_match_per_law_builders_bitwise(
    convention, block_entries, monkeypatch
):
    if block_entries is not None:
        # split every width's laws into many small blocks
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


def test_block_cases_cover_padding_underflow_and_deep_ties():
    """The cases above exercise what the block builder must get right."""
    lengths = {kind: laws[0] for kind, _, laws, _ in _law_cases()[:3]}
    # padded groups hold laws of several lengths, some above 128 outcomes
    width = K._widths(lengths["fet"], "minlik")
    assert any(np.unique(lengths["fet"][width == w]).shape[0] > 1 for w in width)
    assert lengths["ent"].max() > 1000
    # a law wider than the small block size is built as a block of its own
    assert lengths["bin"].max() > 2048
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
    every other entry keeps the per-law builder's bits."""
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
        logw = oracles.logw_negbinom(s, shape_total)
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
