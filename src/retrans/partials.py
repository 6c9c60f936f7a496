"""Prefix-pair training data: source prefixes paired with reference prefixes.

For a source sentence of length I, every prefix length i in [1, I] yields
one training row. The target prefix length j is chosen either by length ratio
(ratio_prefix_lens) or from a word alignment (alignment_prefix_lens), for
every i of a pair at once; in both cases the target prefix for a shorter
source prefix is a prefix of the one for any longer source prefix, so a
system trained on these rows never has to retract words as input grows.

A row is a SentencePair of a source prefix of length i and a target prefix of
length j; its id is its parent pair's id, or k for read_partial's row k.
"""

from __future__ import annotations

import operator
import threading
from collections.abc import Iterable, Iterator, Sequence
from itertools import accumulate, islice

from .corpus import ParallelCorpus, SentencePair, Tokens, detokenize
from .errors import DataError, count_mismatch

METHODS = ("ratio", "alignment")


def ratio_prefix_lens(src_len: int, tgt_len: int) -> list[int]:
    """j for every i in [1, src_len]: i * tgt_len / src_len, rounded half up.

    Exact integer arithmetic, so i == src_len maps to tgt_len. As with
    alignment_prefix_lens, src_len < 1 or tgt_len < 0 raises ValueError.
    """
    if src_len < 1 or tgt_len < 0:
        raise ValueError(f"need src_len >= 1 and tgt_len >= 0, got {src_len} and {tgt_len}")
    return [(2 * i * tgt_len + src_len) // (2 * src_len) for i in range(1, src_len + 1)]


def alignment_prefix_lens(
    src_len: int, tgt_len: int, links: Iterable[tuple[int, int]], where: str = ""
) -> list[int]:
    """j for every i in [1, src_len]: the longest target prefix whose links all fall within i.

    links are 1-based (source, target) positions. A target position with a link
    past source position i blocks the prefix there; unaligned positions impose
    no constraint. j never shrinks as i grows, so one pointer walks the target
    positions. src_len < 1, tgt_len < 0 or a link outside them raises ValueError prefixed with where.
    """
    if src_len < 1 or tgt_len < 0:
        raise ValueError(f"{where}need src_len >= 1 and tgt_len >= 0, got {src_len} and {tgt_len}")
    max_link = [0] * (tgt_len + 1)
    for si, tj in links:
        if not (0 < si <= src_len and 0 < tj <= tgt_len):
            raise ValueError(f"{where}link ({si},{tj}) outside sentence lengths ({src_len},{tgt_len})")
        if si > max_link[tj]:
            max_link[tj] = si
    lens, j = [], 0
    for i in range(1, src_len + 1):
        while j < tgt_len and max_link[j + 1] <= i:
            j += 1
        lens.append(j)
    return lens


def _target_lens(
    corpus: ParallelCorpus,
    method: str,
    links: Iterable[Iterable[tuple[int, int]]] | None,
) -> Iterator[tuple[SentencePair, list[int]]]:
    """Each pair with j for every i in [1, I]; every check runs first.

    method is one of METHODS (ValueError otherwise). links: each pair's 1-based
    links, with the alignment method only (ValueError otherwise); a bad count or link raises.
    """
    if method not in METHODS:
        raise ValueError(f"method must be {' or '.join(map(repr, METHODS))}, got {method!r}")
    if (links is None) == (method == "alignment"):
        need = "needs" if links is None else "takes no"
        raise ValueError(f"the {method} method {need} alignments")
    if method == "ratio":
        lens = (ratio_prefix_lens(len(p.source), len(p.target)) for p in corpus)
    else:
        lens = [
            alignment_prefix_lens(len(p.source), len(p.target), ls, f"pair {p.id}: ")
            for p, ls in zip(corpus, links, strict=True)
        ]
    return zip(corpus, lens)


def partial_blocks(
    corpus: ParallelCorpus,
    method: str,
    links: Iterable[Iterable[tuple[int, int]]] | None = None,
) -> Iterator[tuple[str, str, str]]:
    """generate_partial's rows as (source, target, manifest) text, a pair at a time.

    Each block is the newline-terminated lines that partial_lines and
    manifest_lines give for the pair's rows, one per source prefix. method is
    "ratio" or "alignment". links go with the alignment method only
    (ValueError otherwise): each pair's 1-based links, as
    aligner.align_corpus or corpus.alignment_links give them. Every check
    runs first: an unknown method, a count other than the corpus's, or a
    link outside its pair's lengths, raises ValueError.
    """
    return (_block(pair, js, method) for pair, js in _target_lens(corpus, method, links))


def _block(pair: SentencePair, js: list[int], name: str) -> tuple[str, str, str]:
    src, tgt = _running_joins(pair.source), _running_joins(pair.target)
    return (
        "\n".join(src[1:]) + "\n",
        "\n".join([tgt[j] for j in js]) + "\n",
        "".join([f"{pair.id}\t{i}\t{j}\t{name}\n" for i, j in enumerate(js, 1)]),
    )


def _running_joins(tokens: Tokens) -> list[str]:
    """detokenize(tokens[:k]) for every k in [0, len(tokens)], by string addition."""
    return ["", *accumulate([*tokens[:1], *[" " + t for t in tokens[1:]]])]


def generate_partial(
    corpus: ParallelCorpus,
    method: str,
    links: Iterable[Iterable[tuple[int, int]]] | None = None,
) -> ParallelCorpus:
    """Emit one prefix row per pair and per source prefix length in [1, I].

    Rows whose target prefix is empty are kept: the empty translation is the
    correct label for such prefixes, and the only one for a pair with an
    empty target, by either method. Takes partial_blocks' arguments and runs
    its checks, all before any row. A row's id is its parent pair's id.
    """
    return tuple(
        SentencePair(pair.id, pair.source[:i], pair.target[:j])
        for pair, js in _target_lens(corpus, method, links)
        for i, j in enumerate(js, 1)
    )


MANIFEST_HEADER = "parent_id\ti\tj\tmethod"
"""First line of a prefix manifest; the rows' lines follow it."""


def partial_lines(partial: Sequence[SentencePair]) -> tuple[list[str], list[str]]:
    """Render prefix rows to (source lines, target lines); targets may be empty."""
    src = [detokenize(p.source) for p in partial]
    return src, [detokenize(p.target) for p in partial]


def manifest_lines(partial: Sequence[SentencePair], method: str) -> list[str]:
    """Tab-separated manifest rows: parent_id, i, j, method (one of METHODS), with header."""
    if method not in METHODS:
        raise ValueError(f"method must be {' or '.join(map(repr, METHODS))}, got {method!r}")
    return [MANIFEST_HEADER] + [f"{p.id}\t{len(p.source)}\t{len(p.target)}\t{method}" for p in partial]


class _PartialLines(Sequence[SentencePair]):
    """n prefix rows over two line streams; row k is tokenised when it is read.

    Reads walk both streams forward, so the increasing k of mixing.mix's sample
    pass each line once; a read behind the walk starts it again. what names the
    streams in errors.
    """

    def __init__(self, n: int, src: Iterable[str], tgt: Iterable[str], what: tuple[str, str]) -> None:
        self._n, self._src, self._tgt, self._what = n, src, tgt, what
        self._walk, self._next, self._lock = zip(src, tgt), 0, threading.Lock()

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index: int) -> SentencePair:
        k = range(self._n)[operator.index(index)]  # id k for a negative index too
        with self._lock:
            if k < self._next:
                self._walk, self._next = zip(self._src, self._tgt), 0
            row = next(islice(self._walk, k - self._next, None), None)
            if row is None:  # a stream read again came out shorter
                what = " or ".join(self._what)
                raise DataError(f"prefix row {k + 1} is gone: {what} changed while it was read")
            self._next = k + 1
        if not (source := tuple(row[0].split())):  # a line blanked after the first pass
            raise DataError(f"{self._what[0]} line {k + 1}: empty sentence")
        return SentencePair(k, source, tuple(row[1].split()))


def read_partial(
    src_lines: Iterable[str],
    tgt_lines: Iterable[str],
    *,
    what: tuple[str, str] = ("source", "target"),
) -> Sequence[SentencePair]:
    """Load prefix rows from parallel prefix files; row k gets id k.

    Target lines may be empty (empty translations are legal rows); source
    lines may not. A first pass checks the line counts and every source
    line; rows come from a second pass, each tokenised when it is read (an
    iterator is copied to a list first). what names the streams in errors,
    such as the paths they came from.
    """
    src, tgt = (list(s) if iter(s) is s else s for s in (src_lines, tgt_lines))
    src_count = blank = 0
    for src_count, line in enumerate(src, start=1):
        # The same test as "no tokens": str.split() splits where isspace() holds.
        if not blank and (not line or line.isspace()):
            blank = src_count
    tgt_count = sum(1 for _ in tgt)
    if src_count != tgt_count:
        raise count_mismatch(src_count, tgt_count, what)
    if blank:
        raise DataError(f"{what[0]} line {blank}: empty sentence")
    return _PartialLines(src_count, src, tgt, what)
