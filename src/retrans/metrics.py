"""Translation quality and stability scoring.

Covers corpus BLEU, sentence GLEU (the min of n-gram precision and recall,
which punishes over-long output), rewrite counting between consecutive
displayed translations, token-level word error rate, and the repartitioning
of an unsegmented hypothesis stream against reference segments so that
segmentation mismatches do not distort BLEU.

BLEU and GLEU share one kernel, _clipped_matches: it counts the reference's
n-grams and lets each hypothesis n-gram use up one of them, so it builds no
profile of the hypothesis; n-gram totals come from the lengths.
Their float sums add left to right (sum() compensates its rounding on Python
3.12+), so a score is the same on every Python version.

Word error rate and the resegmenter share one edit-distance kernel,
_columns, which advances the whole column of the dynamic program over the
stream with a few big-integer operations per reference token.
"""

from __future__ import annotations

import math
from collections import _count_elements
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add

from .corpus import Tokens

MAX_ORDER = 4


def bleu(
    hypotheses: Sequence[Tokens],
    references: Sequence[Tokens],
    smooth: bool = False,
) -> float:
    """Corpus BLEU in [0, 1] with orders 1..4 and the brevity penalty.

    Precisions are clipped counts aggregated over the whole corpus, over
    hypothesis n-gram totals taken from the sentence lengths; the score is
    their geometric mean times exp(min(0, 1 - ref_len/hyp_len)).
    Orders for which the corpus has no hypothesis n-grams at all are skipped
    so that very short corpora still score 1.0 against themselves. Without
    smoothing the score is 0 whenever any remaining aggregate precision is 0;
    smooth=True adds one to numerator and denominator of orders above 1,
    which keeps desk-size corpora away from hard zeros.
    """
    _check_pairs(hypotheses, references)
    matched = [0] * (MAX_ORDER + 1)
    for counts in map(_clipped_matches, hypotheses, references):  # holds one sentence's at a time
        matched = list(map(add, matched, counts))
    lengths = [len(hyp) for hyp in hypotheses]
    hyp_len = sum(lengths)
    ref_len = sum(len(ref) for ref in references)
    logs = []
    for n in range(1, MAX_ORDER + 1):
        m, t = matched[n], sum(max(0, length - n + 1) for length in lengths)
        if t == 0:
            continue
        if smooth and n > 1:
            m, t = m + 1, t + 1
        if m == 0:
            return 0.0
        logs.append(math.log(m / t))
    if not logs:
        return 0.0
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return bp * math.exp(reduce(add, logs) / len(logs))


def gleu(hypothesis: Tokens, reference: Tokens) -> float:
    """Sentence reward in [0, 1]: min of n-gram precision and recall.

    Matches are summed over orders 1..4 with counts clipped per n-gram.
    Symmetric; 1.0 exactly when both n-gram profiles agree, 0.0 when one side is empty.
    """
    if not hypothesis and not reference:
        raise ValueError("gleu requires a non-empty hypothesis or reference")
    matched = sum(_clipped_matches(hypothesis, reference))
    # min(matched / h, matched / r) is matched / max(h, r), and the longer side has more n-grams.
    longer = max(len(hypothesis), len(reference))
    return matched / sum(max(0, longer - n + 1) for n in range(1, MAX_ORDER + 1))


def _clipped_matches(hypothesis: Tokens, reference: Tokens) -> list[int]:
    """Hypothesis n-grams matched in the reference, clipped per n-gram; entry n is order n.

    Each hypothesis n-gram in turn uses up one remaining occurrence of it in
    the reference, so an n-gram seen h times in the hypothesis and r times in
    the reference matches min(h, r) times. Unigrams are the tokens themselves
    and higher orders tuples, so the keys of two orders never collide.
    """
    r1, r2, r3 = reference[1:], reference[2:], reference[3:]
    left: dict = {}  # filled by the C counter that Counter.update calls
    _count_elements(left, chain(reference, zip(reference, r1), zip(reference, r1, r2), zip(reference, r1, r2, r3)))
    get = left.get
    h1, h2, h3 = hypothesis[1:], hypothesis[2:], hypothesis[3:]
    matched = [0]
    for grams in (hypothesis, zip(hypothesis, h1), zip(hypothesis, h1, h2), zip(hypothesis, h1, h2, h3)):
        m = 0
        for gram in grams:
            c = get(gram)
            if c:
                left[gram] = c - 1
                m += 1
        matched.append(m)
    return matched


def mean_gleu(hypotheses: Sequence[Tokens], references: Sequence[Tokens]) -> float:
    """Plain average of sentence scores, for corpus-level reporting."""
    _check_pairs(hypotheses, references)
    return reduce(add, map(gleu, hypotheses, references)) / len(hypotheses)


def _check_pairs(hypotheses: Sequence[Tokens], references: Sequence[Tokens]) -> None:
    """Raise ValueError unless there are as many hypotheses as references, and some."""
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypothesis/reference counts differ: {len(hypotheses)} vs {len(references)}"
        )
    if not hypotheses:
        raise ValueError("need at least one sentence pair")


def corrected_words(prev: Tokens, new: Tokens) -> int:
    """Words of the previous translation that a new one forces the user to reread.

    Counts every word of prev from the first changed position onward, i.e.
    len(prev) minus the common prefix length. Zero exactly when new extends
    prev without touching it.
    """
    for k, (x, y) in enumerate(zip(prev, new)):
        if x != y:
            return len(prev) - k
    return max(0, len(prev) - len(new))


@dataclass(frozen=True)
class CorrectionReport:
    """Rewrite totals over the displayed translations of one or more streams.

    bleu is the final-output score when references were given, else None.
    """

    words_updated: int
    messages_updated: int
    updates_total: int
    bleu: float | None = None

    def __add__(self, other: "CorrectionReport") -> "CorrectionReport":
        """Sum of the rewrite counts; the sum carries no BLEU."""
        return CorrectionReport(
            self.words_updated + other.words_updated,
            self.messages_updated + other.messages_updated,
            self.updates_total + other.updates_total,
        )

    def lines(self) -> list[str]:
        """The report as "key: value" lines, bleu first when present."""
        head = [] if self.bleu is None else [f"bleu: {self.bleu:.4f}"]
        return head + [
            f"word_up: {self.words_updated}",
            f"mssg_up: {self.messages_updated}",
            f"updates_total: {self.updates_total}",
        ]


def correction_report(translations: Sequence[Tokens]) -> CorrectionReport:
    """Tally rewrites over consecutive displayed translations of one utterance; zeros for fewer than two."""
    changed = list(map(corrected_words, translations, translations[1:]))
    return CorrectionReport(sum(changed), len(changed) - changed.count(0), len(changed))


def edit_distance(a: Sequence[str], b: Sequence[str]) -> int:
    """Levenshtein distance over tokens with unit costs."""
    return _cell(_columns(a, [b])[-1], len(b), len(a))


def wer(hyp: Tokens, ref: Tokens) -> tuple[int, float]:
    """Token edit distance and its ratio to the reference length."""
    if not ref:
        raise ValueError("wer requires a non-empty reference")
    edits = edit_distance(hyp, ref)
    return edits, edits / len(ref)


def _columns(stream: Sequence[str], refs: Sequence[Sequence[str]]) -> list[tuple[int, int]]:
    """Edit-distance columns of stream against the concatenation of refs.

    The one edit-distance kernel of this module: the dynamic program
    D[p][j] = edit_distance(stream[:p], text[:j]), text being the references
    joined, advanced one text token at a time with the bit-parallel step of
    Myers (1999) in the global form of Hyyrö (2001). Column j is a pair
    (pv, mv) of ints whose bit p - 1 is set when D[p][j] - D[p - 1][j] is +1
    (pv) or -1 (mv); _cell reads D[p][j] back from it.

    Returns the column before any reference and the column after each one.
    """
    full = (1 << len(stream)) - 1
    peq: dict[str, int] = {}
    for p, token in enumerate(stream):
        peq[token] = peq.get(token, 0) | 1 << p
    pv, mv = full, 0
    columns = [(pv, mv)]
    for ref in refs:
        for token in ref:
            eq = peq.get(token, 0)
            xv = eq | mv
            xh = (((eq & pv) + pv) ^ pv) | eq
            # Horizontal deltas; row 0 holds D[0][j] = j, so +1 enters at bit 0.
            ph = (mv | ~(xh | pv)) << 1 | 1
            mh = (pv & xh) << 1
            pv = (mh | ~(xv | ph)) & full
            mv = ph & xv & full
        columns.append((pv, mv))
    return columns


def _cell(column: tuple[int, int], j: int, p: int) -> int:
    """D[p][j] from column j of _columns: j plus the first p vertical deltas."""
    pv, mv = column
    mask = (1 << p) - 1
    return j + (pv & mask).bit_count() - (mv & mask).bit_count()


def resegment(hyp_stream: Tokens, ref_segments: Sequence[Tokens]) -> list[Tokens]:
    """Split a token stream into len(ref_segments) contiguous pieces.

    The split minimizes the summed token edit distance between piece k and
    reference k; pieces may be empty. Among minimal splits the one with the
    lexicographically earliest boundary vector is returned, which makes the
    output deterministic.

    The result is that of the full dynamic program (as in mwerSegmenter). An
    alignment path of the stream against the joined references crosses each
    reference boundary at some stream position, so the least cost of
    splitting stream[:p] against refs[:k] is F_k[p], the edit distance of the
    two joined, and that of stream[p:] against refs[k:] is B_k[p]. One
    _columns pass gives every F, one over the reversed stream and references
    every B, and boundary k may sit at p exactly when F_k[p] + B_k[p] is the
    optimum. Two optimal paths that cross share a grid point, so their lower
    envelope is optimal too: the least such p for every k, found by one scan
    that never moves back, form the earliest optimal split.
    """
    if not ref_segments:
        raise ValueError("need at least one reference segment")
    n = len(hyp_stream)
    total = sum(len(ref) for ref in ref_segments)
    before = _columns(hyp_stream, ref_segments)
    # after[k] is the column of the reversed stream against the reversed refs[k:].
    after = _columns(hyp_stream[::-1], [ref[::-1] for ref in reversed(ref_segments)])[::-1]
    best = _cell(before[-1], total, n)
    segments = []
    start = end = done = 0
    for k, ref in enumerate(ref_segments[:-1], start=1):
        done += len(ref)
        while _cell(before[k], done, end) + _cell(after[k], total - done, n - end) != best:
            end += 1
        segments.append(hyp_stream[start:end])
        start = end
    segments.append(hyp_stream[start:])
    return segments
