"""Prefix-pair training data: source prefixes paired with reference prefixes.

For a source sentence of length I, every prefix length i in [min_i, I] yields
one training row. The target prefix length j is chosen either by length ratio
(ratio_prefix_lens) or from a word alignment (alignment_prefix_lens), for
every i of a pair at once; in both cases the target prefix for a shorter
source prefix is a prefix of the one for any longer source prefix, so a
system trained on these rows never has to retract words as input grows.
"""

from __future__ import annotations

import enum
import threading
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import accumulate, islice

from .corpus import Alignment, ParallelCorpus, SentencePair, Tokens, detokenize
from .errors import CorpusMismatchError, DataError, EmptySentenceError


class Method(enum.Enum):
    """How the target prefix length is chosen for a source prefix."""

    RATIO = "ratio"
    ALIGNMENT = "alignment"


@dataclass(frozen=True)
class PartialPair:
    """A source prefix of length i with its chosen target prefix of length j.

    method is None for rows loaded back from plain prefix files, where the
    generation method is no longer known.
    """

    parent_id: int
    source_prefix: Tokens
    target_prefix: Tokens
    method: Method | None

    @property
    def i(self) -> int:
        return len(self.source_prefix)

    @property
    def j(self) -> int:
        return len(self.target_prefix)


PartialCorpus = tuple[PartialPair, ...]
"""Prefix rows, grouped by parent pair in increasing i."""


def ratio_prefix_lens(src_len: int, tgt_len: int) -> list[int]:
    """j for every i in [1, src_len]: i * tgt_len / src_len, rounded half up.

    Exact integer arithmetic, so i == src_len maps to tgt_len. Both lengths
    must be >= 1 (ValueError otherwise).
    """
    if src_len < 1 or tgt_len < 1:
        raise ValueError(f"need src_len >= 1 and tgt_len >= 1, got {src_len} and {tgt_len}")
    return [(2 * i * tgt_len + src_len) // (2 * src_len) for i in range(1, src_len + 1)]


def alignment_prefix_lens(
    src_len: int, tgt_len: int, links: Iterable[tuple[int, int]], where: str = ""
) -> list[int]:
    """j for every i in [1, src_len]: the longest target prefix whose links all fall within i.

    links are 1-based (source, target) positions. A target position with a link
    past source position i blocks the prefix there; unaligned positions impose
    no constraint. j never shrinks as i grows, so one pointer walks the target
    positions. A link outside the lengths raises ValueError prefixed with where.
    """
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
    method: Method,
    links: Iterable[Iterable[tuple[int, int]]] | None,
    min_i: int,
) -> Iterator[tuple[SentencePair, list[int]]]:
    """Pairs with rows, each with j for every i in [min_i, I]; every check runs first.

    links: each pair's 1-based links, with the alignment method only (ValueError
    otherwise); a bad count or link raises.
    """
    if min_i < 1:
        raise ValueError(f"min_i must be >= 1, got {min_i}")
    if (links is None) == (method is Method.ALIGNMENT):
        need = "needs" if links is None else "takes no"
        raise ValueError(f"the {method.value} method {need} alignments")
    if method is Method.RATIO:
        for pair in corpus:
            if not pair.target and len(pair.source) >= min_i:
                raise ValueError(f"pair {pair.id}: the ratio method needs a non-empty target")
        # An empty target got past the check only on a pair without rows.
        lens = (ratio_prefix_lens(len(p.source), len(p.target)) if p.target else [] for p in corpus)
    else:
        lens = [
            alignment_prefix_lens(len(p.source), len(p.target), ls, f"pair {p.id}: ")
            for p, ls in zip(corpus, links, strict=True)
        ]
    return ((pair, js[min_i - 1 :]) for pair, js in zip(corpus, lens) if len(js) >= min_i)


def partial_blocks(
    corpus: ParallelCorpus,
    method: Method,
    links: Iterable[Iterable[tuple[int, int]]] | None = None,
    min_i: int = 1,
) -> Iterator[tuple[int, str, str, str]]:
    """generate_partial's rows as (count, source, target, manifest) text, a pair at a time.

    Each block is the newline-terminated lines that partial_lines and
    manifest_lines give for the pair's rows. links go with the alignment
    method only (ValueError otherwise), each pair's as corpus.alignment_links
    gives them. Every check runs first.
    """
    lens = _target_lens(corpus, method, links, min_i)
    return (_block(pair, js, method.value, min_i) for pair, js in lens)


def _block(pair: SentencePair, js: list[int], name: str, min_i: int) -> tuple[int, str, str, str]:
    src, tgt = _running_joins(pair.source), _running_joins(pair.target)
    return (
        len(js),
        "\n".join(src[min_i:]) + "\n",
        "\n".join([tgt[j] for j in js]) + "\n",
        "".join([f"{pair.id}\t{i}\t{j}\t{name}\n" for i, j in enumerate(js, min_i)]),
    )


def _running_joins(tokens: Tokens) -> list[str]:
    """detokenize(tokens[:k]) for every k in [0, len(tokens)], by string addition."""
    return ["", *accumulate([*tokens[:1], *[" " + t for t in tokens[1:]]])]


def generate_partial(
    corpus: ParallelCorpus,
    method: Method,
    alignments: Sequence[Alignment] | None = None,
    min_i: int = 1,
) -> PartialCorpus:
    """Emit one prefix row per pair and per source prefix length in [min_i, I].

    Rows whose target prefix is empty are kept: the empty translation is the
    correct label for such prefixes. The ratio method requires a non-empty
    target for every pair that yields rows (ValueError otherwise). The
    alignment method, and only it, takes alignments (ValueError otherwise):
    one per pair, with the pair's sentence lengths (DataError otherwise).
    """
    links = None
    if alignments is not None:
        if len(alignments) != len(corpus):
            raise DataError(f"{len(alignments)} alignments for {len(corpus)} pairs")
        for pair, a in zip(corpus, alignments):
            if (a.src_len, a.tgt_len) != (len(pair.source), len(pair.target)):
                raise DataError(
                    f"pair {pair.id}: alignment is ({a.src_len},{a.tgt_len}),"
                    f" pair is ({len(pair.source)},{len(pair.target)})"
                )
        links = [alignment.links for alignment in alignments]
    return tuple(
        PartialPair(pair.id, pair.source[:i], pair.target[:j], method)
        for pair, js in _target_lens(corpus, method, links, min_i)
        for i, j in enumerate(js, min_i)
    )


MANIFEST_HEADER = "parent_id\ti\tj\tmethod"
"""First line of a prefix manifest; the rows' lines follow it."""


def partial_lines(partial: PartialCorpus) -> tuple[list[str], list[str]]:
    """Render prefix rows to (source lines, target lines); targets may be empty."""
    src = [detokenize(p.source_prefix) for p in partial]
    return src, [detokenize(p.target_prefix) for p in partial]


def manifest_lines(partial: PartialCorpus) -> list[str]:
    """Tab-separated manifest rows: parent_id, i, j, method (with header)."""
    return [MANIFEST_HEADER] + [
        f"{p.parent_id}\t{p.i}\t{p.j}\t{getattr(p.method, 'value', 'unknown')}" for p in partial
    ]


class _PartialLines(Sequence[PartialPair]):
    """n prefix rows over two line streams; row k is tokenised when it is read.

    Reads walk both streams forward, so the increasing k of mixing.mix's sample
    pass each line once; a read behind the walk starts it again.
    """

    def __init__(self, n: int, src: Iterable[str], tgt: Iterable[str]) -> None:
        self._n, self._src, self._tgt = n, src, tgt
        self._walk, self._next, self._lock = zip(src, tgt), 0, threading.Lock()

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index: int) -> PartialPair:
        k = range(self._n)[index]  # parent_id k for a negative index too
        with self._lock:
            if k < self._next:
                self._walk, self._next = zip(self._src, self._tgt), 0
            row = next(islice(self._walk, k - self._next, None), None)
            if row is None:  # a stream read again came out shorter
                raise DataError(f"prefix row {k + 1} is gone: a stream changed while it was read")
            self._next = k + 1
        return PartialPair(k, tuple(row[0].split()), tuple(row[1].split()), None)


def read_partial(
    src_lines: Iterable[str],
    tgt_lines: Iterable[str],
    *,
    what: tuple[str, str] = ("source", "target"),
) -> Sequence[PartialPair]:
    """Load prefix rows from parallel prefix files.

    Target lines may be empty (empty translations are legal rows); source
    lines may not. A first pass checks the line counts and every source
    line; rows come from a second pass, each tokenised when it is read (an
    iterator is copied to a list first). Provenance comes from line order
    and token counts, with method unknown. what names the streams in
    errors, such as the paths they came from.
    """
    src, tgt = (list(s) if iter(s) is s else s for s in (src_lines, tgt_lines))
    src_count = blank = 0
    for src_count, line in enumerate(src, start=1):
        # The same test as "no tokens": str.split() splits where isspace() holds.
        if not blank and (not line or line.isspace()):
            blank = src_count
    tgt_count = sum(1 for _ in tgt)
    if src_count != tgt_count:
        raise CorpusMismatchError(src_count, tgt_count, what)
    if blank:
        raise EmptySentenceError(f"{what[0]} line {blank}")
    return _PartialLines(src_count, src, tgt)
