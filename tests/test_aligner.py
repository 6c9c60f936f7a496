from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from retrans.aligner import (
    NULL,
    TranslationTable,
    align_corpus,
    log_likelihood,
    table_rows,
    train_model1,
    viterbi_align,
)
from retrans.corpus import ParallelCorpus, SentencePair, read_parallel

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

    def test_rejects_bad_iterations(self):
        with pytest.raises(ValueError):
            train_model1(read_parallel(["a"], ["x"]), 0)

    def test_rejects_empty_corpus(self):
        with pytest.raises(ValueError):
            train_model1(ParallelCorpus(()), 3)

    def test_all_empty_targets_give_an_empty_table(self):
        # Pairs read from files always have a target; library callers may pass none.
        corpus = (SentencePair(0, ("a",), ()), SentencePair(1, ("b", "a"), ()))
        assert train_model1(corpus, 3).probs == {}

    def test_deterministic(self, la_maison):
        t1 = train_model1(la_maison, 5)
        t2 = train_model1(la_maison, 5)
        assert t1.probs == t2.probs


class TestViterbiAlign:
    def test_converged_table_aligns_diagonally(self, la_maison):
        table = train_model1(la_maison, 10)
        alignment = viterbi_align(table, la_maison[0])
        assert alignment.links == {(1, 1), (2, 2)}

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
                assert viterbi_align(table, pair).links == want

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
            assert viterbi_align(table, pair).links == want

    def test_null_dominance_leaves_unaligned(self):
        table = TranslationTable(
            {NULL: {"x": 0.9, "y": 0.1}, "a": {"x": 0.1, "y": 0.9}}
        )
        pair = SentencePair(0, ("a",), ("x",))
        assert viterbi_align(table, pair).links == frozenset()

    def test_tie_breaks_to_smallest_position(self):
        table = TranslationTable(
            {
                NULL: {"x": 0.1, "y": 0.9},
                "a": {"x": 0.4, "y": 0.6},
                "b": {"x": 0.4, "y": 0.6},
            }
        )
        pair = SentencePair(0, ("a", "b"), ("x",))
        assert viterbi_align(table, pair).links == {(1, 1)}

    def test_null_tie_keeps_link(self):
        table = TranslationTable({NULL: {"x": 0.5, "y": 0.5}, "a": {"x": 0.5, "y": 0.5}})
        pair = SentencePair(0, ("a",), ("x",))
        assert viterbi_align(table, pair).links == {(1, 1)}

    @given(st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_at_most_one_link_per_target_position(self, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng)
        table = train_model1(corpus, 2)
        for pair in corpus:
            links = viterbi_align(table, pair).links
            targets = [j for _, j in links]
            assert len(targets) == len(set(targets))


def test_table_rejects_unnormalized_rows():
    with pytest.raises(ValueError):
        TranslationTable({NULL: {"x": 0.9}})
    with pytest.raises(ValueError):
        TranslationTable({"a": {"x": 1.5, "y": -0.5}})


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
        assert len(result) == 2
        assert result[1].src_len == 1


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
    assert table_rows(table) == table_rows_reference(table)
