"""Translation quality and stability scoring.

Covers corpus BLEU, sentence GLEU (the min of n-gram precision and recall,
which punishes over-long output), rewrite counting between consecutive
displayed translations, token-level word error rate, and the repartitioning
of an unsegmented hypothesis stream against reference segments so that
segmentation mismatches do not distort BLEU.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice

from .corpus import Tokens

MAX_ORDER = 4


def ngram_counts(tokens: Sequence[str], max_order: int = MAX_ORDER) -> Counter:
    """Occurrence counts of all n-grams with 1 <= n <= max_order."""
    counts: Counter = Counter()
    for n in range(1, max_order + 1):
        for k in range(len(tokens) - n + 1):
            counts[tuple(tokens[k : k + n])] += 1
    return counts


def common_prefix_len(a: Sequence[str], b: Sequence[str]) -> int:
    """Length of the longest common prefix of two token sequences."""
    k = 0
    for x, y in zip(a, b):
        if x != y:
            break
        k += 1
    return k


def bleu(
    hypotheses: Sequence[Tokens],
    references: Sequence[Tokens],
    smooth: bool = False,
) -> float:
    """Corpus BLEU in [0, 1] with orders 1..4 and the brevity penalty.

    Precisions are clipped counts aggregated over the whole corpus; the
    score is their geometric mean times exp(min(0, 1 - ref_len/hyp_len)).
    Orders for which the corpus has no hypothesis n-grams at all are skipped
    so that very short corpora still score 1.0 against themselves. Without
    smoothing the score is 0 whenever any remaining aggregate precision is 0;
    smooth=True adds one to numerator and denominator of orders above 1,
    which keeps desk-size corpora away from hard zeros.
    """
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypothesis/reference counts differ: {len(hypotheses)} vs {len(references)}"
        )
    if not hypotheses:
        raise ValueError("need at least one sentence pair")
    matched = [0] * (MAX_ORDER + 1)
    total = [0] * (MAX_ORDER + 1)
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp_len += len(hyp)
        ref_len += len(ref)
        hyp_all = ngram_counts(hyp)
        ref_all = ngram_counts(ref)
        overlap = hyp_all & ref_all
        for gram, c in hyp_all.items():
            total[len(gram)] += c
        for gram, c in overlap.items():
            matched[len(gram)] += c
    logs = []
    for n in range(1, MAX_ORDER + 1):
        m, t = matched[n], total[n]
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
    return bp * math.exp(sum(logs) / len(logs))


def gleu(hypothesis: Tokens, reference: Tokens) -> float:
    """Sentence reward in [0, 1]: min of n-gram precision and recall.

    Matches are summed over orders 1..4 with counts clipped per n-gram.
    Symmetric in its arguments; 1.0 exactly when both n-gram profiles agree.
    """
    if not hypothesis or not reference:
        raise ValueError("gleu requires non-empty hypothesis and reference")
    hyp_counts = ngram_counts(hypothesis)
    ref_counts = ngram_counts(reference)
    matched = sum((hyp_counts & ref_counts).values())
    precision = matched / sum(hyp_counts.values())
    recall = matched / sum(ref_counts.values())
    return min(precision, recall)


def mean_gleu(hypotheses: Sequence[Tokens], references: Sequence[Tokens]) -> float:
    """Plain average of sentence scores, for corpus-level reporting."""
    if len(hypotheses) != len(references):
        raise ValueError(
            f"hypothesis/reference counts differ: {len(hypotheses)} vs {len(references)}"
        )
    if not hypotheses:
        raise ValueError("need at least one sentence pair")
    return sum(gleu(h, r) for h, r in zip(hypotheses, references)) / len(hypotheses)


def corrected_words(prev: Tokens, new: Tokens) -> int:
    """Words of the previous translation that a new one forces the user to reread.

    Counts every word of prev from the first changed position onward, i.e.
    len(prev) minus the common prefix length. Zero exactly when new extends
    prev without touching it.
    """
    return len(prev) - common_prefix_len(prev, new)


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
    """Tally rewrites over consecutive displayed translations of one utterance."""
    if not translations:
        raise ValueError("need at least one displayed translation")
    words = 0
    messages = 0
    for prev, new in zip(translations, translations[1:]):
        changed = corrected_words(prev, new)
        words += changed
        if changed > 0:
            messages += 1
    return CorrectionReport(words, messages, len(translations) - 1)


def edit_distance(a: Sequence[str], b: Sequence[str]) -> int:
    """Levenshtein distance over tokens with unit costs."""
    return _min_cost_row(list(range(len(a) + 1)), a, b, 1)[-1]


def wer(hyp: Tokens, ref: Tokens) -> tuple[int, float]:
    """Token edit distance and its ratio to the reference length."""
    if not ref:
        raise ValueError("wer requires a non-empty reference")
    edits = edit_distance(hyp, ref)
    return edits, edits / len(ref)


def _min_cost_row(
    prev: list[int], stream: Sequence[str], ref: Sequence[str], step: int
) -> list[int]:
    """new[p] = min over q <= p of prev[q] + step * edit_distance(stream[q:p], ref).

    The one edit-distance kernel of this module. With prev[q] = q * step the
    row holds the distances of every prefix of stream to ref.
    """
    n = len(stream)
    row = list(prev)
    for p in range(1, n + 1):
        if row[p - 1] + step < row[p]:
            row[p] = row[p - 1] + step
    for y in ref:
        # cell runs along new_row; diag and up are row[p - 1] and row[p].
        diag = row[0]
        cell = diag + step
        new_row = [cell]
        for token, up in zip(stream, islice(row, 1, None)):
            if up < cell:
                cell = up
            cell += step
            if token != y:
                diag += step
            if diag < cell:
                cell = diag
            new_row.append(cell)
            diag = up
        row = new_row
    return row


# Tokens of length gap that the first probe band allows beyond the
# unavoidable |n - R|.
_PROBE_SLACK = 8
# The probe band doubles while the bound it gives is at least this many times
# its budget: local drift between stream and references can keep a narrow
# band far from the optimum, while the exact pass's windows grow with the
# bound, so a wider probe pays for itself there and is skipped elsewhere.
_PROBE_WIDEN = 16


def _banded_pass(
    rev_stream: Tokens, ref_segments: Sequence[Tokens], budget: int, prune: bool
) -> tuple[int, list[tuple[int, list[int]]]]:
    """One pass over the reversed resegmentation problem, inside a length band.

    The references are run through _min_cost_row last first, each on a
    window of reversed positions only. A cell at reversed position p covers
    rev_stream[:p], the last p stream tokens, and holds cost * (n + 1) + end,
    where end is the forward position at which the current piece stops; min
    then prefers the lower cost, then the earlier end. The last piece always
    ends at n.

    Every piece costs at least the gap between its length and its
    reference's, so a split with a boundary at p before reference k, with
    `before` reference tokens ahead of it and total - before behind, costs at
    least |n - p - before| + |p - (total - before)|; boundaries where that
    exceeds budget are never computed. With prune, a boundary is also dropped
    when its exact suffix cost plus |n - p - before| exceeds budget, and each
    window stops where even the cheapest suffix cost it could reach would
    exceed budget. budget must be at least the optimal cost for the pruned
    pass to stay exact, and at least |n - total| for the band to hold a split.

    Returns the cost of the best split inside the band and, per reference in
    forward order, its end pointers as (first reversed position, window).
    """
    n = len(rev_stream)
    step = n + 1
    total = sum(len(ref) for ref in ref_segments)
    never = (n + total + 1) * step  # above every reachable cell
    before = total
    lo, row = 0, [n]
    ends = []
    for ref in reversed(ref_segments):
        before -= len(ref)
        centre = n + total - 2 * before
        hi = min(n, (centre + budget) // 2)
        if prune:
            # A piece from q to p costs at least p - q - len(ref), so a
            # boundary at p >= n - before costs at least
            # least + p - len(ref) + p - (n - before).
            least = min(cell // step - q for q, cell in enumerate(row, lo))
            hi = min(hi, (budget - least + len(ref) + n - before) // 2)
        row += [never] * (hi - lo + 1 - len(row))
        row = _min_cost_row(row, rev_stream[lo:hi], ref[::-1], step)
        first = max(lo, (centre - budget + 1) // 2)
        if prune:
            kept = [
                p
                for p, cell in enumerate(row[first - lo :], first)
                if cell // step + abs(n - p - before) <= budget
            ]
            row = row[kept[0] - lo : kept[-1] - lo + 1]
            lo = kept[0]
        else:
            row = row[first - lo :]
            lo = first
        ends.append((lo, [cell % step for cell in row]))
        row = [cell - cell % step + n - p for p, cell in enumerate(row, lo)]
    ends.reverse()
    return row[-1] // step, ends


def resegment(hyp_stream: Tokens, ref_segments: Sequence[Tokens]) -> list[Tokens]:
    """Split a token stream into len(ref_segments) contiguous pieces.

    The split minimizes the summed token edit distance between piece k and
    reference k; pieces may be empty. Among minimal splits the one with the
    lexicographically earliest boundary vector is returned, which makes the
    output deterministic.

    The result is that of the full dynamic program (as in mwerSegmenter), but
    only the cells an optimal split can pass through are filled. A probe pass
    over the narrow band of boundaries whose length gaps add up to at most
    |n - R| plus a small slack (n stream tokens, R reference tokens), widened
    while that stays cheap, yields the cost U of a feasible split. The exact
    pass then keeps only the boundaries whose exact suffix cost plus prefix
    length gap is at most U. With m references the work is about
    (U + the longest reference) * (R + m) cells instead of (n + 1) * (R + m).
    """
    if not ref_segments:
        raise ValueError("need at least one reference segment")
    n = len(hyp_stream)
    rev_stream = hyp_stream[::-1]
    budget = abs(n - sum(len(ref) for ref in ref_segments)) + _PROBE_SLACK
    bound, _ = _banded_pass(rev_stream, ref_segments, budget, prune=False)
    while _PROBE_WIDEN * budget <= bound:
        budget *= 2
        bound, _ = _banded_pass(rev_stream, ref_segments, budget, prune=False)
    _, ends = _banded_pass(rev_stream, ref_segments, bound, prune=True)

    segments = []
    cursor = 0
    for offset, window in ends:
        end = window[n - cursor - offset]
        segments.append(hyp_stream[cursor:end])
        cursor = end
    return segments
