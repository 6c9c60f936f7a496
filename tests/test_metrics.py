from __future__ import annotations

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from retrans import metrics
from retrans.corpus import Tokens, tokenize
from retrans.metrics import (
    CorrectionReport,
    bleu,
    corrected_words,
    correction_report,
    edit_distance,
    gleu,
    mean_gleu,
    resegment,
    wer,
)

import oracles
from oracles import (
    bleu_reference,
    gleu_reference,
    left_sum,
    levenshtein_full,
    ngram_counts,
    resegment_bruteforce,
    resegment_dp,
)

sentence_st = st.lists(
    st.text(alphabet="abcd", min_size=1, max_size=3), min_size=1, max_size=10
).map(tuple)

token_st = st.sampled_from("abcd")

long_sentence_st = st.lists(token_st, min_size=65, max_size=150).map(tuple)


@st.composite
def drifted_resegment_inputs(draw):
    """Up to 10 references and a stream of at most 60 tokens drifting from them.

    The stream starts as the references' concatenation and then loses runs,
    gains inserted runs and has tokens replaced, so the stream and reference
    lengths can differ by far more than a few tokens.
    """
    refs = draw(st.lists(st.lists(token_st, max_size=8).map(tuple), min_size=1, max_size=10))
    stream = [token for ref in refs for token in ref]
    edits = st.lists(st.sampled_from(["cut", "insert", "replace"]), min_size=1, max_size=4)
    for kind in draw(edits):
        at = draw(st.integers(0, len(stream)))
        if kind == "cut":
            del stream[at : at + draw(st.integers(1, 30))]
        elif kind == "insert":
            stream[at:at] = draw(st.lists(token_st, min_size=1, max_size=30))
        elif at < len(stream):
            stream[at] = draw(token_st)
    return tuple(stream[:60]), refs


class TestBleu:
    def test_identity_scores_one(self):
        refs = [tokenize("yo animo a todos ustedes"), tokenize("la casa es grande")]
        assert bleu(refs, refs) == 1.0

    def test_brevity_penalty_fixture(self):
        # Precisions are all 1, so the score is exactly the brevity penalty
        # exp(1 - 8/4) = e^-1.
        score = bleu([tokenize("a b c d")], [tokenize("a b c d e f g h")])
        assert score == pytest.approx(0.3679, abs=1e-4)

    def test_disjoint_corpora_score_zero(self):
        assert bleu([tokenize("a b")], [tokenize("c d")]) == 0.0

    def test_missing_higher_order_zeroes_the_score(self):
        # Unigrams overlap but no 4-gram does, and there is no smoothing.
        assert bleu([tokenize("a b c x")], [tokenize("a b c d")]) == 0.0

    def test_add_one_smoothing_rescues_small_corpora(self):
        score = bleu([tokenize("a b c x")], [tokenize("a b c d")], smooth=True)
        assert 0.0 < score < 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            bleu([tokenize("a")], [tokenize("a"), tokenize("b")])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            bleu([], [])

    def test_empty_hypothesis_sentence_scores_zero(self):
        assert bleu([()], [tokenize("a b")]) == 0.0

    @given(st.lists(sentence_st, min_size=1, max_size=5))
    @settings(max_examples=100, deadline=None)
    def test_range_and_identity(self, sentences):
        assert bleu(sentences, sentences) == 1.0
        shuffled = sentences[::-1]
        assert 0.0 <= bleu(shuffled, sentences) <= 1.0


class TestGleu:
    def test_identity(self):
        s = tokenize("yo animo a todos ustedes")
        assert gleu(s, s) == 1.0

    def test_overgeneration_fixture(self):
        # 6 matched n-grams against 18 hypothesis n-grams: precision 1/3,
        # recall 1, so min picks the precision and punishes the long output.
        score = gleu(tokenize("yo animo a todo el mundo"), tokenize("yo animo a"))
        assert score == pytest.approx(1 / 3, abs=1e-6)

    def test_disjoint_tokens(self):
        assert gleu(tokenize("a"), tokenize("b")) == 0.0

    def test_one_empty_side_scores_zero_and_two_are_rejected(self):
        assert gleu((), ("a",)) == gleu(("a",), ()) == 0.0
        with pytest.raises(ValueError, match="^gleu requires a non-empty hypothesis or reference$"):
            gleu((), ())

    def test_same_unigrams_different_order_not_perfect(self):
        score = gleu(tokenize("a b a"), tokenize("a a b"))
        assert score == pytest.approx(4 / 6)
        assert score < 1.0

    @given(sentence_st, sentence_st)
    @settings(max_examples=200, deadline=None)
    def test_range_symmetry_and_profile_identity(self, hyp, ref):
        score = gleu(hyp, ref)
        assert 0.0 <= score <= 1.0
        assert score == pytest.approx(gleu(ref, hyp))
        if score == 1.0:
            assert ngram_counts(hyp) == ngram_counts(ref)

    def test_mean_gleu_averages(self):
        hyps = [tokenize("a b"), tokenize("c")]
        refs = [tokenize("a b"), tokenize("d")]
        assert mean_gleu(hyps, refs) == pytest.approx(0.5)

    def test_mean_gleu_adds_left_to_right(self):
        # Scores 0.1, 0.2 and 0.3 add to 0.6000000000000001 left to right; sum()
        # on Python 3.12+ rounds them to 0.6, which gave 0.19999999999999998.
        hyps = [tokenize("a b c d"), tokenize("a x b y"), tokenize("a b x y")]
        refs = [tokenize("a x y z"), tokenize("a b c d"), tokenize("a b c d")]
        assert [gleu(h, r) for h, r in zip(hyps, refs)] == [0.1, 0.2, 0.3]
        assert mean_gleu(hyps, refs) == 0.20000000000000004


short_sentence_st = st.lists(st.sampled_from("abc"), max_size=7).map(tuple)


class TestScoresAgainstOracles:
    """BLEU and GLEU equal, bit for bit, the oracles written from their definitions.

    Sentences are drawn from three tokens and are often empty or shorter than
    the highest order, so clipping, skipped orders and the brevity penalty
    all come up.
    """

    @given(short_sentence_st, short_sentence_st)
    @example(("a", "a", "a", "a"), ("a", "a"))
    @example(("a", "b", "a", "b", "a", "b"), ("b", "a", "b", "c"))
    @example((), ("a",))
    @settings(max_examples=400, deadline=None)
    def test_each_order_clips_as_the_oracle(self, hyp, ref):
        expected = [
            oracles._clipped_matches(oracles._ngram_list(hyp, n), oracles._ngram_list(ref, n))
            for n in range(1, 5)
        ]
        assert metrics._clipped_matches(hyp, ref)[1:] == expected

    @given(
        st.lists(st.tuples(short_sentence_st, short_sentence_st), min_size=1, max_size=6),
        st.booleans(),
    )
    @example([((), ("a", "b"))], False)
    @example([((), ()), (("a",), ("a", "b", "c"))], True)
    @example([(("a", "b", "a"), ("a", "a", "b")), (("c",), ("c", "c"))], False)
    @settings(max_examples=400, deadline=None)
    def test_bleu_equals_oracle(self, pairs, smooth):
        hyps = [hyp for hyp, _ in pairs]
        refs = [ref for _, ref in pairs]
        assert bleu(hyps, refs, smooth=smooth) == bleu_reference(hyps, refs, smooth=smooth)

    @given(
        st.lists(
            st.tuples(short_sentence_st, short_sentence_st).filter(any),
            min_size=1,
            max_size=6,
        )
    )
    @example([(("a",), ("a", "b", "c", "a", "b"))])
    @example([((), ("a", "b")), (("c",), ())])
    @example([(("a", "b", "a"), ("a", "a", "b")), (("c", "c"), ("c",))])
    @settings(max_examples=400, deadline=None)
    def test_gleu_and_mean_gleu_equal_oracle(self, pairs):
        hyps = [hyp for hyp, _ in pairs]
        refs = [ref for _, ref in pairs]
        scores = [gleu_reference(hyp, ref) for hyp, ref in pairs]
        assert [gleu(hyp, ref) for hyp, ref in pairs] == scores
        assert mean_gleu(hyps, refs) == left_sum(scores) / len(scores)


class TestCorrectedWords:
    def test_worked_example_counts_three(self):
        prev = tokenize("yo animo a todo el mundo")
        new = tokenize("yo animo a todos ustedes")
        assert corrected_words(prev, new) == 3

    def test_pure_extension_counts_zero(self):
        assert corrected_words(tokenize("yo"), tokenize("yo animo a")) == 0

    def test_wipe_counts_everything(self):
        assert corrected_words(tokenize("a b c"), ()) == 3

    @given(sentence_st, sentence_st)
    def test_bounds_and_prefix_characterization(self, prev, new):
        changed = corrected_words(prev, new)
        assert 0 <= changed <= len(prev)
        is_prefix = new[: len(prev)] == prev
        assert (changed == 0) == is_prefix


class TestCorrectionReport:
    def test_worked_example_stream(self):
        stream = [
            tokenize("yo"),
            tokenize("yo animo a todo el mundo"),
            tokenize("yo animo a todos ustedes"),
        ]
        report = correction_report(stream)
        assert report == CorrectionReport(3, 1, 2)

    def test_extending_stream_is_free(self):
        stream = [tokenize("a"), tokenize("a b"), tokenize("a b c")]
        assert correction_report(stream) == CorrectionReport(0, 0, 2)

    def test_mixed_stream(self):
        stream = [tokenize("a b"), tokenize("c"), tokenize("c d")]
        assert correction_report(stream) == CorrectionReport(2, 1, 2)

    @pytest.mark.parametrize("stream", [[tokenize("a")], []], ids=["single", "empty"])
    def test_fewer_than_two_translations_tally_zeros(self, stream):
        assert correction_report(stream) == CorrectionReport(0, 0, 0)

    def test_reports_add(self):
        a = CorrectionReport(3, 1, 2)
        b = CorrectionReport(2, 2, 4)
        assert a + b == CorrectionReport(5, 3, 6)

    def test_lines_render_bleu_only_when_present(self):
        counts = ["word_up: 3", "mssg_up: 1", "updates_total: 2"]
        assert CorrectionReport(3, 1, 2).lines() == counts
        assert CorrectionReport(3, 1, 2, bleu=0.5).lines() == ["bleu: 0.5000"] + counts

    @given(st.lists(sentence_st, min_size=1, max_size=6))
    def test_invariants(self, stream):
        report = correction_report(stream)
        assert report.updates_total == len(stream) - 1
        assert report.messages_updated <= report.updates_total
        if report.words_updated == 0:
            assert report.messages_updated == 0

    @given(sentence_st, st.lists(st.integers(0, 3), max_size=5))
    def test_monotone_stream_is_all_zero(self, base, growths):
        stream = [base]
        for g in growths:
            stream.append(stream[-1] + tuple("x" * (k + 1) for k in range(g)))
        report = correction_report(stream)
        assert report.words_updated == 0
        assert report.messages_updated == 0


class TestWer:
    def test_identical(self):
        assert wer(tokenize("a b"), tokenize("a b")) == (0, 0.0)

    def test_substitution(self):
        edits, rate = wer(tokenize("a x c"), tokenize("a b c"))
        assert edits == 1
        assert rate == pytest.approx(1 / 3)

    def test_empty_hypothesis(self):
        assert wer((), tokenize("a b")) == (2, 1.0)

    def test_empty_reference_rejected(self):
        with pytest.raises(ValueError):
            wer(tokenize("a"), ())

    @given(sentence_st, sentence_st, sentence_st)
    @settings(max_examples=150, deadline=None)
    def test_edit_distance_is_a_metric(self, a, b, c):
        assert edit_distance(a, b) == edit_distance(b, a)
        assert edit_distance(a, a) == 0
        assert (edit_distance(a, b) == 0) == (a == b)
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(
        st.one_of(sentence_st, long_sentence_st), st.one_of(sentence_st, long_sentence_st)
    )
    @example(tuple("abcd" * 40), tuple("abdc" * 33))
    @settings(max_examples=150, deadline=None)
    def test_matches_full_matrix_oracle(self, a, b):
        # Sequences over 64 tokens make the kernel's carries cross machine words.
        assert edit_distance(a, b) == levenshtein_full(a, b)


class TestResegment:
    def test_exact_concatenation_recovers_references(self):
        refs = [tokenize("yo animo"), tokenize("a todos"), tokenize("ustedes")]
        stream = sum(refs, ())
        segments = resegment(stream, refs)
        assert segments == refs
        assert sum(edit_distance(s, r) for s, r in zip(segments, refs)) == 0

    def test_worked_example(self):
        segments = resegment(tokenize("a b c d"), [tokenize("a b"), tokenize("x d")])
        assert segments == [("a", "b"), ("c", "d")]

    def test_single_reference_takes_whole_stream(self):
        stream = tokenize("q w e")
        assert resegment(stream, [tokenize("a")]) == [stream]

    def test_empty_stream_yields_empty_segments(self):
        assert resegment((), [tokenize("a"), tokenize("b")]) == [(), ()]

    def test_no_references_rejected(self):
        with pytest.raises(ValueError):
            resegment(tokenize("a"), [])

    def test_matches_bruteforce(self):
        rng = random.Random(2024)
        for _ in range(150):
            n = rng.randint(0, 12)
            stream = tuple(rng.choice("abc") for _ in range(n))
            refs = [
                tuple(rng.choice("abc") for _ in range(rng.randint(0, 5)))
                for _ in range(rng.randint(1, 4))
            ]
            got = resegment(stream, refs)
            want, want_cost = resegment_bruteforce(stream, refs)
            assert got == [tuple(w) for w in want], (stream, refs)
            got_cost = sum(edit_distance(s, r) for s, r in zip(got, refs))
            assert got_cost == want_cost

    @given(
        st.lists(st.sampled_from("ab"), max_size=8).map(tuple),
        st.lists(
            st.lists(st.sampled_from("ab"), max_size=4).map(tuple), min_size=1, max_size=4
        ),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_bruteforce_on_tie_heavy_inputs(self, stream, refs):
        # Two symbols and empty sides make many splits tie at the optimum, so
        # this pins the lexicographically earliest tie-break as well as the cost.
        want, _ = resegment_bruteforce(stream, refs)
        assert resegment(stream, refs) == [tuple(w) for w in want]

    def test_dp_oracle_matches_bruteforce(self):
        rng = random.Random(99)
        for _ in range(200):
            stream = tuple(rng.choice("ab") for _ in range(rng.randint(0, 9)))
            refs = [
                tuple(rng.choice("ab") for _ in range(rng.randint(0, 4)))
                for _ in range(rng.randint(1, 4))
            ]
            want, want_cost = resegment_bruteforce(stream, refs)
            assert resegment_dp(stream, refs) == ([tuple(w) for w in want], want_cost)

    @given(drifted_resegment_inputs())
    @settings(max_examples=200, deadline=None)
    def test_matches_full_dp_under_drift(self, inputs):
        # Truncated streams, inserted runs and |n - R| >> 0 put the optimal
        # boundaries far from where the reference lengths alone would put them.
        stream, refs = inputs
        want, _ = resegment_dp(stream, refs)
        assert resegment(stream, refs) == want

    def test_all_empty_references_put_everything_last(self):
        stream = tokenize("a b c")
        assert resegment(stream, [(), (), ()]) == [(), (), stream]
        assert resegment((), [(), ()]) == [(), ()]

    @pytest.mark.parametrize(
        "n, ref_lengths",
        [(200, [2, 1, 3]), (150, [0, 5]), (3, [40, 30, 30]), (0, [25, 25]), (1, [0, 60])],
        ids=["n>>R", "n>>R-empty-ref", "n<<R", "empty-stream-long-refs", "n<<R-empty-ref"],
    )
    def test_extreme_length_gaps(self, n, ref_lengths):
        rng = random.Random(n * 1000 + sum(ref_lengths))
        stream = tuple(rng.choice("abc") for _ in range(n))
        refs = [tuple(rng.choice("abc") for _ in range(k)) for k in ref_lengths]
        want, _ = resegment_dp(stream, refs)
        assert resegment(stream, refs) == want

    def test_matches_full_dp_far_from_optimal(self):
        # Most tokens are replaced, a run is inserted early and another cut
        # late: the lengths agree overall, but the optimal cost is many times
        # the length gap.
        rng = random.Random(3)
        letters = "abcdefghijklmnopqrstuvwxyz"
        refs = [tuple(rng.choice(letters) for _ in range(10)) for _ in range(16)]
        stream = [t if rng.random() < 0.1 else rng.choice(letters) for r in refs for t in r]
        stream[20:20] = rng.choices(letters, k=20)
        del stream[120:140]
        stream = tuple(stream)
        want, _ = resegment_dp(stream, refs)
        assert resegment(stream, refs) == want

    @given(drifted_resegment_inputs())
    @settings(max_examples=200, deadline=None)
    def test_least_split_cost_is_distance_to_joined_references(self, inputs):
        # The identity the resegmenter rests on: an optimal split costs the
        # edit distance between the stream and all references joined.
        stream, refs = inputs
        segments = resegment(stream, refs)
        assert sum(segments, ()) == stream
        joined = sum(refs, ())
        cost = sum(edit_distance(s, r) for s, r in zip(segments, refs))
        assert cost == edit_distance(stream, joined) == levenshtein_full(stream, joined)

    def test_two_kernel_passes(self, monkeypatch):
        # One forward and one reversed pass over all references, whatever
        # their number: no kernel call per reference.
        calls = []
        kernel = metrics._columns

        def counting(stream, refs):
            calls.append(len(refs))
            return kernel(stream, refs)

        monkeypatch.setattr(metrics, "_columns", counting)
        refs = [tokenize("a b c"), tokenize("d e"), tokenize("f"), tokenize("g h i j")]
        segments = resegment(tokenize("a b x d e f g h j"), refs)
        assert segments == [("a", "b", "x"), ("d", "e"), ("f",), ("g", "h", "j")]
        assert calls == [4, 4]

    def test_beats_proportional_split(self):
        rng = random.Random(77)
        for _ in range(60):
            n = rng.randint(1, 30)
            stream = tuple(rng.choice("abcd") for _ in range(n))
            m = rng.randint(1, 5)
            refs = [
                tuple(rng.choice("abcd") for _ in range(rng.randint(1, 6)))
                for _ in range(m)
            ]
            segments = resegment(stream, refs)
            optimal = sum(edit_distance(s, r) for s, r in zip(segments, refs))
            bounds = [round(k * n / m) for k in range(m + 1)]
            naive = sum(
                edit_distance(stream[bounds[k] : bounds[k + 1]], refs[k])
                for k in range(m)
            )
            assert optimal <= naive

    def test_partition_is_exact(self):
        stream = tokenize("a b c d e")
        refs = [tokenize("a"), tokenize("b x"), tokenize("e")]
        segments = resegment(stream, refs)
        assert sum(segments, ()) == stream


@given(short_sentence_st, short_sentence_st)
def test_corrected_words_counts_past_the_common_prefix(prev, new):
    common = max(k for k in range(min(len(prev), len(new)) + 1) if prev[:k] == new[:k])
    assert corrected_words(prev, new) == len(prev) - common


def test_ngram_counts_totals():
    counts = ngram_counts(tokenize("a b a"))
    assert counts[("a",)] == 2
    assert counts[("a", "b")] == 1
    assert sum(c for g, c in counts.items() if len(g) == 2) == 2


def test_bleu_adds_its_logs_left_to_right():
    # sum() on Python 3.12+ compensates its rounding and gave 0.3535533905932738.
    hyps = [tokenize("b a a b c a a"), tokenize("b c c b b")]
    refs = [tokenize("a a b b a a b"), tokenize("c c a b a")]
    assert bleu(hyps, refs) == 0.35355339059327373


def test_bleu_bp_uses_aggregate_lengths():
    # One short and one long hypothesis: lengths aggregate before the
    # brevity penalty, 6 hyp tokens vs 8 ref tokens.
    hyps = [tokenize("a b"), tokenize("e f g h")]
    refs = [tokenize("a b c d"), tokenize("e f g h")]
    expected_bp = math.exp(1 - 8 / 6)
    p1 = 6 / 6
    p2 = (1 + 3) / 4
    p3 = 2 / 2
    p4 = 1 / 1
    expected = expected_bp * (p1 * p2 * p3 * p4) ** 0.25
    assert bleu(hyps, refs) == pytest.approx(expected, abs=1e-12)


def random_sentences(n: int, seed: int) -> list[Tokens]:
    """n sentences of 5-20 tokens over 50 types."""
    rng = random.Random(seed)
    vocab = [f"w{k}" for k in range(50)]
    return [tuple(rng.choices(vocab, k=rng.randint(5, 20))) for _ in range(n)]


def wer_edits(hyps: list[Tokens], refs: list[Tokens]) -> int:
    """The edit total that `score --metric wer` divides by the reference tokens."""
    edits = 0
    for hyp, ref in zip(hyps, refs):
        edits += wer(hyp, ref)[0]
    return edits


class TestMemory:
    @pytest.mark.parametrize("score", [bleu, mean_gleu, wer_edits], ids=["bleu", "gleu", "wer"])
    def test_score_peak_does_not_grow_with_the_sentences(self, traced_peak, score):
        # Holding each sentence's clipped matches until the end, bleu grew by
        # about 165 B a sentence; now each metric's peak, from 250 to 1,000
        # sentences, stays flat within 7 KB on Python 3.10-3.13.
        peaks = []
        for n in (250, 1_000):
            hyps, refs = random_sentences(n, 1), random_sentences(n, 2)
            peaks.append(traced_peak(lambda: score(hyps, refs)))
        assert peaks[1] - peaks[0] < 16 << 10

    def test_resegment_peak_grows_by_its_columns_alone(self, traced_peak):
        # resegment keeps four n-bit ints per reference segment, (m + 1) * n / 2
        # bytes for m segments and n stream tokens: from 50 to 200 segments the
        # peak grew by 0.58 (m + 1) * n bytes of the larger size on Python 3.10-3.13.
        peaks = []
        for m in (50, 200):
            refs = random_sentences(m, 3)
            stream = tuple(token for sentence in random_sentences(m, 4) for token in sentence)
            peaks.append(traced_peak(lambda: resegment(stream, refs)))
        assert peaks[1] - peaks[0] < (m + 1) * len(stream)  # m and n of the larger size
