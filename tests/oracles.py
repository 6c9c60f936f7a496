"""Independent reference implementations used to pin expected test values.

Everything here is deliberately written against the bare problem statements
(flat dictionaries, full matrices, exhaustive enumeration) and shares no code
with the package, so a bug in the package cannot hide in its own oracle.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter, defaultdict
from fractions import Fraction


class _NullSource:
    """The null source token of em_reference: not a str, so no corpus token equals it."""

    def __repr__(self) -> str:
        return "NULL_MARK"


NULL_MARK = _NullSource()


def em_reference(pairs, iterations):
    """Flat-dict expectation-maximization over (source token, target token).

    pairs: list of (source token list, target token list). Returns the flat
    probability dict {(e, f): p} with NULL_MARK standing for the null source.
    """
    probs = {}
    cooc = defaultdict(set)
    for src, tgt in pairs:
        for f in tgt:
            cooc[NULL_MARK].add(f)
            for e in src:
                cooc[e].add(f)
    for e, fs in cooc.items():
        for f in fs:
            probs[(e, f)] = 1.0 / len(fs)

    for _ in range(iterations):
        count = defaultdict(float)
        total = defaultdict(float)
        for src, tgt in pairs:
            extended = [NULL_MARK] + list(src)
            for f in tgt:
                z = 0.0
                for e in extended:
                    z += probs[(e, f)]
                for e in extended:
                    share = probs[(e, f)] / z
                    count[(e, f)] += share
                    total[e] += share
        probs = {ef: c / total[ef[0]] for ef, c in count.items()}
    return probs


def viterbi_reference(probs, src, tgt, epsilon=1e-12):
    """Per-target-position argmax over source positions, 1-based links.

    Smallest position wins ties; the null source must strictly beat every
    real position to leave a target word unaligned.
    """
    links = set()
    for j, f in enumerate(tgt, start=1):
        scored = [(probs.get((e, f), epsilon), -i) for i, e in enumerate(src, start=1)]
        best_p, neg_i = max(scored)
        if probs.get((NULL_MARK, f), epsilon) <= best_p:
            links.add((-neg_i, j))
    return links


def prefix_len_bruteforce(links, i, tgt_len):
    """Largest j such that no target position <= j links past source i."""
    for j in range(tgt_len, -1, -1):
        if all(sl <= i for sl, tl in links if tl <= j):
            return j
    raise AssertionError("unreachable: j = 0 always satisfies the condition")


def ratio_len_reference(src_len, i, tgt_len):
    """i * tgt_len / src_len rounded half up, in exact rational arithmetic."""
    return math.floor(Fraction(i * tgt_len, src_len) + Fraction(1, 2))


def table_rows_reference(table):
    """A lexical table's (source, target, probability) rows, in one stable sort.

    The null source (None) is spelled "<NULL>" and sorts first; rows equal in
    source name and target keep table order.
    """
    rows = []
    for e, row in table.probs.items():
        for f, p in row.items():
            rows.append(("<NULL>" if e is None else e, f, p))
    rows.sort(key=lambda r: (r[0] != "<NULL>", r[0], r[1]))
    return rows


def table_dump_reference(probs):
    """The `align --table-out` lines of an em_reference table, in one sort.

    Each line is source, target and probability (printf's %.12g), tab-separated.
    The null source is spelled "<NULL>" and comes first; then lines sort by
    source, then target, and the null source's line comes before that of a
    real token spelled "<NULL>".
    """
    rows = []
    for (e, f), p in probs.items():
        name = "<NULL>" if e is NULL_MARK else e
        rows.append((name != "<NULL>", name, f, e is not NULL_MARK, p))
    rows.sort()
    return ["%s\t%s\t%.12g" % (name, f, p) for _, name, f, _, p in rows]


def file_lines_reference(data):
    """The lines of UTF-8 file bytes.

    Each line ends at a "\n", which is not part of it, and so does one "\r"
    just before it. Text after the last "\n" is a last line.
    """
    lines = data.decode("utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    return [line[:-1] if line.endswith("\r") else line for line in lines]


def levenshtein_full(a, b):
    """Full-matrix edit distance over token sequences."""
    rows = len(a) + 1
    cols = len(b) + 1
    d = [[0] * cols for _ in range(rows)]
    for r in range(rows):
        d[r][0] = r
    for c in range(cols):
        d[0][c] = c
    for r in range(1, rows):
        for c in range(1, cols):
            sub = d[r - 1][c - 1] + (0 if a[r - 1] == b[c - 1] else 1)
            d[r][c] = min(sub, d[r - 1][c] + 1, d[r][c - 1] + 1)
    return d[rows - 1][cols - 1]


def resegment_bruteforce(stream, refs):
    """Exhaustive enumeration of all boundary vectors, lexicographic order.

    Returns (segments, total cost) of the first (hence lexicographically
    earliest) minimal segmentation.
    """
    n = len(stream)
    best_cost = None
    best_segments = None
    for cuts in itertools.combinations_with_replacement(range(n + 1), len(refs) - 1):
        bounds = (0,) + cuts + (n,)
        segments = [tuple(stream[bounds[k] : bounds[k + 1]]) for k in range(len(refs))]
        cost = sum(levenshtein_full(seg, ref) for seg, ref in zip(segments, refs))
        if best_cost is None or cost < best_cost:
            best_cost = cost
            best_segments = segments
    return best_segments, best_cost


def resegment_dp(stream, refs):
    """Unpruned O(m * n^2) dynamic program with the earliest-boundary tie-break.

    best[k][b] is the least cost of splitting stream[b:] against refs[k:].
    Walking forward from b = 0, each piece takes the smallest end that stays
    optimal, which yields the lexicographically earliest boundary vector.
    Returns (segments, total cost) like resegment_bruteforce.
    """
    n = len(stream)
    m = len(refs)
    inf = float("inf")
    # dist[k][b][e - b] = levenshtein(stream[b:e], refs[k]) for every b <= e.
    dist = []
    for ref in refs:
        per_start = []
        for b in range(n + 1):
            row = list(range(len(ref) + 1))
            last = [row[-1]]
            for e in range(b, n):
                new = [row[0] + 1]
                for c in range(1, len(ref) + 1):
                    sub = row[c - 1] + (0 if stream[e] == ref[c - 1] else 1)
                    new.append(min(sub, row[c] + 1, new[c - 1] + 1))
                row = new
                last.append(row[-1])
            per_start.append(last)
        dist.append(per_start)
    best = [[inf] * (n + 1) for _ in range(m + 1)]
    best[m][n] = 0
    for k in range(m - 1, -1, -1):
        for b in range(n + 1):
            best[k][b] = min(
                dist[k][b][e - b] + best[k + 1][e] for e in range(b, n + 1)
            )
    segments = []
    b = 0
    for k in range(m):
        e = next(
            e
            for e in range(b, n + 1)
            if dist[k][b][e - b] + best[k + 1][e] == best[k][b]
        )
        segments.append(tuple(stream[b:e]))
        b = e
    return segments, best[0][0]


def ngram_counts(tokens):
    """Occurrence counts of all n-grams with 1 <= n <= 4, keyed by token tuples."""
    tails = [tokens[k:] for k in range(4)]
    return Counter(itertools.chain.from_iterable(zip(*tails[:n]) for n in range(1, 5)))


def _ngram_list(tokens, n):
    """Every n-gram of tokens, in order, as a list of tuples."""
    return [tuple(tokens[k : k + n]) for k in range(len(tokens) - n + 1)]


def _clipped_matches(hyp_grams, ref_grams):
    """Hypothesis n-grams found in the reference, each counted at most as often as there."""
    return sum(min(hyp_grams.count(g), ref_grams.count(g)) for g in set(hyp_grams))


def bleu_reference(hypotheses, references, smooth=False):
    """Corpus BLEU (Papineni et al., 2002) with orders 1..4, from its definition.

    For each order n the clipped matches and the hypothesis n-grams are summed
    over the corpus; orders without hypothesis n-grams are skipped, smooth adds
    one to both sums above unigrams, and a zero precision gives 0. The result
    is the brevity penalty times the geometric mean of the precisions.
    """
    precisions = []
    for n in range(1, 5):
        matched = total = 0
        for hyp, ref in zip(hypotheses, references):
            hyp_grams = _ngram_list(hyp, n)
            matched += _clipped_matches(hyp_grams, _ngram_list(ref, n))
            total += len(hyp_grams)
        if total == 0:
            continue
        if smooth and n > 1:
            matched, total = matched + 1, total + 1
        if matched == 0:
            return 0.0
        precisions.append(matched / total)
    if not precisions:
        return 0.0
    hyp_len = sum(len(hyp) for hyp in hypotheses)
    ref_len = sum(len(ref) for ref in references)
    penalty = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return penalty * math.exp(left_sum(math.log(p) for p in precisions) / len(precisions))


def left_sum(values):
    """Floats added one at a time, left to right; sum() compensates its rounding on 3.12+."""
    total = 0.0
    for value in values:
        total += value
    return total


def gleu_reference(hypothesis, reference):
    """Sentence GLEU (Wu et al., 2016): min of n-gram precision and recall.

    Clipped matches, hypothesis n-grams and reference n-grams are each summed
    over orders 1..4. A side without n-grams matches nothing: the pair scores 0.
    """
    matched = hyp_total = ref_total = 0
    for n in range(1, 5):
        hyp_grams = _ngram_list(hypothesis, n)
        ref_grams = _ngram_list(reference, n)
        matched += _clipped_matches(hyp_grams, ref_grams)
        hyp_total += len(hyp_grams)
        ref_total += len(ref_grams)
    if not hyp_total or not ref_total:
        return 0.0
    return min(matched / hyp_total, matched / ref_total)


def event_lines(events):
    """Render update events back to JSON-lines text, one object per event."""
    return [
        json.dumps(
            {"utterance_id": e.utterance_id, "kind": e.kind, "text": e.text}, ensure_ascii=False
        )
        for e in events
    ]
