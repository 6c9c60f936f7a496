from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from retrans.aligner import (
    EPSILON,
    NULL,
    TranslationTable,
    align_corpus,
    log_likelihood,
    table_rows,
    train_model1,
    viterbi_align,
)
from retrans.corpus import ParallelCorpus, SentencePair, read_parallel, write_lines

from oracles import NULL_MARK, em_reference, table_rows_reference, viterbi_reference

# Frozen from the flat-dict reference EM in oracles.py: 10 iterations on the
# two-pair disambiguation corpus below.
LA_MAISON_T_THE_LA = 0.9490356112177925


@pytest.fixture
def la_maison() -> ParallelCorpus:
    return read_parallel(["la maison", "la"], ["the house", "the"])


def random_corpus(rng: random.Random, max_pairs=8, vocab=6) -> ParallelCorpus:
    src_vocab = [f"s{k}" for k in range(vocab)]
    tgt_vocab = [f"t{k}" for k in range(vocab)]
    pairs = []
    for k in range(rng.randint(1, max_pairs)):
        source = tuple(rng.choice(src_vocab) for _ in range(rng.randint(1, 5)))
        target = tuple(rng.choice(tgt_vocab) for _ in range(rng.randint(1, 5)))
        pairs.append(SentencePair(k, source, target))
    return ParallelCorpus(tuple(pairs))


def zipf_corpus(rng: random.Random, pairs: int, vocab: int, max_len: int) -> ParallelCorpus:
    """Pairs of 1..max_len tokens a side, types drawn with Zipf weights, so rows differ in size."""
    weights = [1 / (k + 1) for k in range(vocab)]
    src_vocab = [f"s{k}" for k in range(vocab)]
    tgt_vocab = [f"t{k}" for k in range(vocab)]

    def side(names):
        return tuple(rng.choices(names, weights, k=rng.randint(1, max_len)))

    return tuple(SentencePair(k, side(src_vocab), side(tgt_vocab)) for k in range(pairs))


@st.composite
def small_corpora(draw, vocab: int) -> ParallelCorpus:
    """1-6 pairs, 1-5 tokens a side over a few types, so tokens repeat."""
    source = st.lists(st.sampled_from([f"s{k}" for k in range(vocab)]), min_size=1, max_size=5)
    target = st.lists(st.sampled_from([f"t{k}" for k in range(vocab)]), min_size=1, max_size=5)
    sides = draw(st.lists(st.tuples(source, target), min_size=1, max_size=6))
    return tuple(SentencePair(k, tuple(s), tuple(t)) for k, (s, t) in enumerate(sides))


def reference_probs(corpus: ParallelCorpus, iterations: int) -> dict:
    """oracles.em_reference on a package corpus, keyed like flat_probs."""
    return em_reference([(list(p.source), list(p.target)) for p in corpus], iterations)


def flat_probs(table: TranslationTable) -> dict:
    return {
        (NULL_MARK if e is NULL else e, f): p
        for e, row in table.probs.items()
        for f, p in row.items()
    }


def assert_rows_normalized(table: TranslationTable, tol=1e-6):
    for source, row in table.probs.items():
        assert all(p >= 0 for p in row.values()), source
        assert abs(sum(row.values()) - 1.0) <= tol, source


class TestTrainModel1:
    def test_disambiguation_matches_reference(self, la_maison):
        table = train_model1(la_maison, 10)
        assert table.prob("la", "the") == pytest.approx(LA_MAISON_T_THE_LA, abs=1e-9)
        assert table.prob("la", "the") > 0.9

    def test_matches_reference_em_on_random_corpora(self):
        rng = random.Random(402)
        for _ in range(25):
            corpus = random_corpus(rng)
            iterations = rng.randint(1, 6)
            table = train_model1(corpus, iterations)
            reference = em_reference(
                [(list(p.source), list(p.target)) for p in corpus], iterations
            )
            for (e, f), p in reference.items():
                source = NULL if e == NULL_MARK else e
                assert table.prob(source, f) == pytest.approx(p, abs=1e-10)

    @given(st.integers(1, 4).flatmap(small_corpora), st.integers(1, 6))
    @settings(max_examples=200, deadline=None)
    def test_equals_reference_em_exactly(self, corpus, iterations):
        # ==, not approx: the interned EM adds and divides in the oracle's order.
        table = train_model1(corpus, iterations)
        assert flat_probs(table) == reference_probs(corpus, iterations)

    @pytest.mark.parametrize("iterations", range(1, 6))
    def test_equals_reference_em_exactly_at_scale(self, iterations):
        # Thousands of cells and rows of up to 26 cells, where the oracle tests
        # above stay under 30 cells.
        corpus = zipf_corpus(random.Random(f"em-at-scale:{iterations}"), 400, 80, 25)
        assert flat_probs(train_model1(corpus, iterations)) == reference_probs(corpus, iterations)

    def test_em_peak_per_cell_reference_is_bounded(self, traced_peak):
        # A cell reference is one (target token, source token or null) of the
        # corpus; here each cell has about 4 of them, as in a 2k-pair Zipf
        # corpus. Cells as boxed ints in tuples, with lists of floats, peaked
        # at 34-41 B per reference on Python 3.10-3.13; typed arrays take 25-26 B.
        corpus = zipf_corpus(random.Random(5), 300, 300, 30)
        references = sum(len(p.target) * (len(p.source) + 1) for p in corpus)
        assert traced_peak(lambda: train_model1(corpus, 1)) < 30 * references

    def test_single_pair_single_iteration(self):
        table = train_model1(read_parallel(["a"], ["x"]), 1)
        assert table.prob("a", "x") == 1.0
        assert table.prob(NULL, "x") == 1.0

    def test_rows_sum_to_one(self):
        rng = random.Random(7)
        for _ in range(10):
            table = train_model1(random_corpus(rng), rng.randint(1, 5))
            assert_rows_normalized(table)

    def test_log_likelihood_non_decreasing(self):
        rng = random.Random(11)
        for _ in range(10):
            corpus = random_corpus(rng)
            lls = [
                log_likelihood(train_model1(corpus, k), corpus) for k in range(1, 7)
            ]
            for prev, cur in zip(lls, lls[1:]):
                assert cur >= prev - 1e-9

    def test_log_likelihood_adds_left_to_right(self):
        # The null source and ten sources, each t = 0.1, add to 1.0999999999999999
        # left to right; sum() on Python 3.12+ rounds them to 1.1 and gave -2.3025850929940455.
        sources = tuple(f"s{k}" for k in range(10))
        targets = [f"t{k}" for k in range(10)]
        table = TranslationTable({e: dict.fromkeys(targets, 0.1) for e in (NULL, *sources)})
        assert log_likelihood(table, (SentencePair(0, sources, ("t0",)),)) == -2.302585092994046

    def test_rejects_bad_iterations(self):
        with pytest.raises(ValueError):
            train_model1(read_parallel(["a"], ["x"]), 0)

    @pytest.mark.parametrize(
        "corpus",
        [(SentencePair(0, ("a",), ()), SentencePair(1, ("b", "a"), ())), ParallelCorpus(())],
        ids=["empty-targets", "no-pairs"],
    )
    def test_all_empty_targets_give_an_empty_table(self, corpus):
        # Pairs read from files always have a target; library callers may pass none, or no pair.
        assert train_model1(corpus, 3).probs == {}

    def test_deterministic(self, la_maison):
        t1 = train_model1(la_maison, 5)
        t2 = train_model1(la_maison, 5)
        assert t1.probs == t2.probs


class TestViterbiAlign:
    def test_converged_table_aligns_diagonally(self, la_maison):
        table = train_model1(la_maison, 10)
        alignment = viterbi_align(table, la_maison[0])
        assert alignment == {(1, 1), (2, 2)}

    def test_matches_reference_viterbi(self):
        rng = random.Random(23)
        for _ in range(25):
            corpus = random_corpus(rng)
            table = train_model1(corpus, 3)
            reference = em_reference(
                [(list(p.source), list(p.target)) for p in corpus], 3
            )
            for pair in corpus:
                want = viterbi_reference(reference, pair.source, pair.target)
                assert viterbi_align(table, pair) == want

    @given(st.integers(1, 4).flatmap(small_corpora), st.data())
    @settings(max_examples=200, deadline=None)
    def test_equals_reference_viterbi_exactly(self, corpus, data):
        # Held-out pairs draw from one more type than any training corpus, so
        # some of their types are unseen and fall back to the epsilon floor.
        iterations = data.draw(st.integers(1, 6))
        table = train_model1(corpus, iterations)
        reference = reference_probs(corpus, iterations)
        held_out = data.draw(small_corpora(5))
        for pair in (*corpus, *held_out):
            want = viterbi_reference(reference, pair.source, pair.target)
            assert viterbi_align(table, pair) == want

    def test_null_dominance_leaves_unaligned(self):
        table = TranslationTable(
            {NULL: {"x": 0.9, "y": 0.1}, "a": {"x": 0.1, "y": 0.9}}
        )
        pair = SentencePair(0, ("a",), ("x",))
        assert viterbi_align(table, pair) == frozenset()

    def test_tie_breaks_to_smallest_position(self):
        table = TranslationTable(
            {
                NULL: {"x": 0.1, "y": 0.9},
                "a": {"x": 0.4, "y": 0.6},
                "b": {"x": 0.4, "y": 0.6},
            }
        )
        pair = SentencePair(0, ("a", "b"), ("x",))
        assert viterbi_align(table, pair) == {(1, 1)}

    def test_null_tie_keeps_link(self):
        table = TranslationTable({NULL: {"x": 0.5, "y": 0.5}, "a": {"x": 0.5, "y": 0.5}})
        pair = SentencePair(0, ("a",), ("x",))
        assert viterbi_align(table, pair) == {(1, 1)}

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_at_most_one_link_per_target_position(self, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng)
        table = train_model1(corpus, 2)
        for pair in corpus:
            links = viterbi_align(table, pair)
            targets = [j for _, j in links]
            assert len(targets) == len(set(targets))


def test_table_rejects_unnormalized_rows():
    with pytest.raises(ValueError):
        TranslationTable({NULL: {"x": 0.9}})
    with pytest.raises(ValueError):
        TranslationTable({"a": {"x": 1.5, "y": -0.5}})


@pytest.mark.parametrize("p", [math.nan, math.inf, -0.5], ids=["nan", "inf", "negative"])
def test_table_rejects_a_non_finite_or_negative_probability(p):
    # A NaN entry, the only way to a NaN row sum, passed both checks before:
    # viterbi_align then left "x" unaligned without a word.
    with pytest.raises(ValueError, match="negative or non-finite probability in row for 'a'"):
        TranslationTable({"a": {"x": p}, NULL: {"x": 1.0}})


def test_table_rejects_a_row_sum_that_overflows():
    with pytest.raises(ValueError, match="row for 'a' does not sum to 1"):
        TranslationTable({"a": {"x": 1e308, "y": 1e308}})


def test_unseen_pairs_get_the_fixed_floor():
    table = TranslationTable({NULL: {"x": 1.0}})
    assert table.prob("a", "x") == table.prob(NULL, "y") == EPSILON == 1e-12


class TestAlignCorpus:
    def test_empty_corpus(self):
        table = TranslationTable({NULL: {"x": 1.0}})
        assert align_corpus(table, ParallelCorpus(())) == []

    def test_singleton_matches_viterbi(self, la_maison):
        table = train_model1(la_maison, 5)
        one = ParallelCorpus((la_maison[0],))
        assert align_corpus(table, one) == [viterbi_align(table, la_maison[0])]

    def test_length_and_order(self, la_maison):
        table = train_model1(la_maison, 5)
        result = align_corpus(table, la_maison)
        assert result == [viterbi_align(table, pair) for pair in la_maison]


def test_table_rows_sorted_null_first(la_maison):
    rows = table_rows(train_model1(la_maison, 2))
    names = [r[0] for r in rows]
    assert names[0] == "<NULL>"
    assert names == sorted(names, key=lambda n: (n != "<NULL>", n))


def spell_null(corpus: ParallelCorpus) -> ParallelCorpus:
    """The corpus with the real source token s0 spelled "<NULL>", as the null row is dumped."""
    return tuple(
        SentencePair(p.id, tuple("<NULL>" if e == "s0" else e for e in p.source), p.target)
        for p in corpus
    )


@st.composite
def hand_tables(draw) -> TranslationTable:
    """Rows in any order, the null row or not, and a real source token spelled "<NULL>"."""
    names = [NULL, "<NULL>", "a", "b", "A", "é", "<"]
    probs = {}
    for e in draw(st.lists(st.sampled_from(names), unique=True, max_size=6)):
        targets = draw(st.lists(st.sampled_from(["x", "y", "X", "<NULL>"]), min_size=1, unique=True))
        weights = draw(st.lists(st.integers(1, 9), min_size=len(targets), max_size=len(targets)))
        probs[e] = {f: w / sum(weights) for f, w in zip(targets, weights)}
    return TranslationTable(probs)


trained_tables = st.integers(1, 4).flatmap(small_corpora).map(spell_null).map(
    lambda corpus: train_model1(corpus, 2)
)


@given(st.one_of(trained_tables, hand_tables()))
@example(TranslationTable({"<NULL>": {"y": 0.75, "x": 0.25}, NULL: {"x": 0.5, "y": 0.5}}))
@settings(max_examples=200, deadline=None)
def test_table_rows_matches_the_one_sort_reference(table):
    rows, reference = table_rows(table), table_rows_reference(table)
    assert len(rows) == len(reference)
    assert list(rows) == reference
    assert list(rows) == reference  # each iteration walks the table again


def test_table_dump_holds_one_source_group_at_a_time(tmp_path, traced_peak):
    # 1,000 sources of 100 targets each. Made as one list, the 100,000 rows
    # added 7.8 MB above the table; made one group at a time, 0.7 MB.
    targets = [f"t{k}" for k in range(100)]
    table = TranslationTable({f"s{k}": dict.fromkeys(targets, 0.01) for k in range(1000)})
    path = tmp_path / "table.tsv"
    peak = traced_peak(
        lambda: write_lines(path, (f"{e}\t{f}\t{p:.12g}" for e, f, p in table_rows(table)))
    )
    assert path.read_bytes().count(b"\n") == 100_000
    assert peak < 1 << 20  # 4,096 written lines, the source index and one group
