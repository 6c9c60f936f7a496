"""Prefix-pair training data: source prefixes paired with reference prefixes.

For a source sentence of length I, every prefix length i in [min_i, I] yields
one training row. The target prefix length is chosen either by length ratio
or from a word alignment, and in both cases the target prefix for a shorter
source prefix is a prefix of the one for any longer source prefix, so a
system trained on these rows never has to retract words as input grows.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .corpus import Alignment, ParallelCorpus, Tokens, detokenize, line_tokens, paired_lines
from .errors import AlignmentMissingError, DataError


class Method(enum.Enum):
    """How the target prefix length is chosen for a source prefix."""

    RATIO = "ratio"
    ALIGNMENT = "alignment"


@dataclass(frozen=True)
class PartialPair:
    """A source prefix of length i with its chosen target prefix.

    method is None for rows loaded back from plain prefix files, where the
    generation method is no longer known.
    """

    parent_id: int
    i: int
    source_prefix: Tokens
    target_prefix: Tokens
    method: Method | None

    @property
    def j(self) -> int:
        return len(self.target_prefix)


PartialCorpus = tuple[PartialPair, ...]
"""Prefix rows, grouped by parent pair in increasing i."""


def ratio_prefix_len(src_len: int, i: int, tgt_len: int) -> int:
    """Target prefix length proportional to the source prefix length.

    Rounds half up, computed in exact integer arithmetic, so i == src_len
    always maps to the full target length.
    """
    if not 1 <= i <= src_len:
        raise ValueError(f"need 1 <= i <= src_len, got i={i}, src_len={src_len}")
    if tgt_len < 1:
        raise ValueError(f"tgt_len must be >= 1, got {tgt_len}")
    return (2 * i * tgt_len + src_len) // (2 * src_len)


def alignment_prefix_len(alignment: Alignment, i: int) -> int:
    """Longest target prefix whose aligned source words all fall within i.

    A target position blocks the prefix as soon as any of its links points
    past source position i; unaligned target positions impose no constraint.
    Returns 0 when the first target position is already blocked.
    """
    if not 1 <= i <= alignment.src_len:
        raise ValueError(
            f"need 1 <= i <= src_len, got i={i}, src_len={alignment.src_len}"
        )
    return _prefix_lens(alignment)[i - 1]


def _prefix_lens(alignment: Alignment) -> list[int]:
    """alignment_prefix_len for every i in [1, src_len], in one pass.

    The answer never shrinks as i grows, so one pointer walks the target
    positions while each source prefix length admits them.
    """
    max_link = [0] * (alignment.tgt_len + 1)
    for si, tj in alignment.links:
        if si > max_link[tj]:
            max_link[tj] = si
    lens = []
    j = 0
    for i in range(1, alignment.src_len + 1):
        while j < alignment.tgt_len and max_link[j + 1] <= i:
            j += 1
        lens.append(j)
    return lens


def generate_partial(
    corpus: ParallelCorpus,
    method: Method,
    alignments: Sequence[Alignment] | None = None,
    min_i: int = 1,
) -> PartialCorpus:
    """Emit one prefix row per pair and per source prefix length in [min_i, I].

    Rows whose target prefix is empty are kept: the empty translation is the
    correct label for such prefixes. The alignment method requires one
    alignment per pair with matching sentence lengths: a short list raises
    AlignmentMissingError for the first pair without one, a long list
    DataError.
    """
    if min_i < 1:
        raise ValueError(f"min_i must be >= 1, got {min_i}")
    if method is Method.ALIGNMENT:
        if alignments is None:
            first = corpus[0].id if len(corpus) else 0
            raise AlignmentMissingError(first, "no alignments supplied")
        if len(alignments) != len(corpus):
            counts = f"{len(alignments)} alignments for {len(corpus)} pairs"
            if len(alignments) < len(corpus):
                raise AlignmentMissingError(corpus[len(alignments)].id, counts)
            raise DataError(f"too many alignments: {counts}")
    items = []
    for idx, pair in enumerate(corpus):
        src_len, tgt_len = len(pair.source), len(pair.target)
        lens = None
        if method is Method.ALIGNMENT:
            assert alignments is not None
            alignment = alignments[idx]
            if alignment.src_len != src_len or alignment.tgt_len != tgt_len:
                raise AlignmentMissingError(
                    pair.id,
                    f"alignment is ({alignment.src_len},{alignment.tgt_len}), "
                    f"pair is ({src_len},{tgt_len})",
                )
            lens = _prefix_lens(alignment)
        for i in range(min_i, src_len + 1):
            if method is Method.RATIO:
                j = ratio_prefix_len(src_len, i, tgt_len)
            else:
                assert lens is not None
                j = lens[i - 1]
            items.append(
                PartialPair(pair.id, i, pair.source[:i], pair.target[:j], method)
            )
    return tuple(items)


def partial_lines(partial: PartialCorpus) -> tuple[list[str], list[str]]:
    """Render prefix rows to (source lines, target lines); targets may be empty."""
    return (
        [detokenize(p.source_prefix) for p in partial],
        [detokenize(p.target_prefix) for p in partial],
    )


def manifest_lines(partial: PartialCorpus) -> list[str]:
    """Tab-separated manifest rows: parent_id, i, j, method (with header)."""
    lines = ["parent_id\ti\tj\tmethod"]
    for p in partial:
        name = p.method.value if p.method is not None else "unknown"
        lines.append(f"{p.parent_id}\t{p.i}\t{p.j}\t{name}")
    return lines


def read_partial(
    src_lines: Iterable[str], tgt_lines: Iterable[str], *, what: str = "source"
) -> PartialCorpus:
    """Load prefix rows from parallel prefix files.

    Target lines may be empty (empty translations are legal rows); source
    lines may not. Provenance fields are reconstructed from line order and
    token counts, with method unknown. what names the source lines in error
    messages, such as the path they came from.
    """
    rows = []
    for k, (s, t) in paired_lines(src_lines, tgt_lines):
        source = line_tokens(s, what, k)
        rows.append(PartialPair(k, len(source), source, tuple(t.split()), None))
    return tuple(rows)
