"""Sentence and corpus data model plus plain-text parallel/alignment I/O.

Sentences are tuples of whitespace-free tokens. Token positions are 1-based
everywhere in this package; the on-disk alignment format is 0-based and is
converted at the I/O boundary only.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

from .errors import DataError, count_mismatch

Tokens = tuple[str, ...]
"""A sentence as an ordered tuple of non-empty, whitespace-free tokens."""


def tokenize(line: str) -> Tokens:
    """Split a line on runs of whitespace, ignoring leading/trailing space.

    Raises DataError ("empty sentence") if the line contains no tokens.
    """
    tokens = tuple(line.split())
    if not tokens:
        raise DataError("empty sentence")
    return tokens


def detokenize(tokens: Sequence[str]) -> str:
    """Join tokens with single spaces (inverse of tokenize for valid tokens)."""
    return " ".join(tokens)


@dataclass(frozen=True)
class SentencePair:
    """One row of a parallel corpus.

    The source side is always non-empty. The target side is non-empty for
    pairs read from corpus files, but may be empty for prefix rows (an empty
    translation is a legal label for a very short source prefix). A pair
    read from files has its line index as id; a generated prefix row has its
    parent pair's id.
    """

    id: int
    source: Tokens
    target: Tokens

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ValueError(f"pair id must be >= 0, got {self.id}")
        if not self.source:
            raise ValueError(f"pair {self.id}: source must be non-empty")


ParallelCorpus = tuple[SentencePair, ...]
"""An ordered collection of sentence pairs; read_parallel's ids match line order."""


def read_parallel(
    src_lines: Iterable[str],
    tgt_lines: Iterable[str],
    *,
    what: tuple[str, str] = ("source", "target"),
) -> ParallelCorpus:
    """Build a corpus from two aligned line streams; pair k gets id k.

    Raises DataError on unequal lengths and on blank lines (naming the
    stream and line). what names the two streams, such as the paths they
    came from. Equal tokens share one string.
    """
    src, tgt = list(src_lines), list(tgt_lines)
    if len(src) != len(tgt):
        raise count_mismatch(len(src), len(tgt), what)
    share = {}.setdefault

    def tokens(line: str, where: str, k: int) -> Tokens:
        found = line.split()
        if not found:
            raise DataError(f"{where} line {k + 1}: empty sentence")
        return tuple(map(share, found, found))

    return tuple(
        SentencePair(k, tokens(s, what[0], k), tokens(t, what[1], k))
        for k, (s, t) in enumerate(zip(src, tgt))
    )


def _links(line: str, src_len: int, tgt_len: int, where: str) -> Iterator[tuple[int, int]]:
    """The 1-based links of one line of 0-based "i-j" pairs, each checked as it is read."""
    for token in line.split():
        i, _, j = token.partition("-")
        if not (token.isascii() and i.isdigit() and j.isdigit()):
            raise DataError(f"{where}: bad alignment token {token!r}")
        try:
            i, j = int(i) + 1, int(j) + 1
        except ValueError:  # a digit run longer than int() converts is out of range too
            i = j = float("inf")
        if i > src_len or j > tgt_len:
            detail = f"index out of range for lengths ({src_len},{tgt_len})"
            raise DataError(f"{where}: bad alignment token {token!r}: {detail}")
        yield i, j


def format_alignment(links: Iterable[tuple[int, int]]) -> str:
    """Render 1-based links as sorted 0-based "i-j" pairs (inverse of parsing)."""
    return " ".join(f"{i - 1}-{j - 1}" for i, j in sorted(links))


def alignment_links(
    lines: Iterable[str],
    corpus: ParallelCorpus,
    *,
    what: tuple[str, str] = ("corpus", "alignments"),
) -> Iterator[Iterator[tuple[int, int]]]:
    """Each pair's alignment-line links, in corpus order; the line count is checked on call.

    what names the corpus and the alignment lines in errors, such as their paths.
    """
    lines = list(lines)
    if len(lines) != len(corpus):
        raise count_mismatch(len(corpus), len(lines), what)
    return (
        _links(line, len(pair.source), len(pair.target), f"{what[1]} line {no}")
        for no, (line, pair) in enumerate(zip(lines, corpus), start=1)
    )


def read_alignments(
    lines: Iterable[str],
    corpus: ParallelCorpus,
    *,
    what: tuple[str, str] = ("corpus", "alignments"),
) -> list[frozenset[tuple[int, int]]]:
    """Each pair's set of 1-based links from one line of 0-based "i-j" pairs, in corpus order.

    A blank line is a fully unaligned pair, and duplicate links collapse.
    Raises DataError, naming the line, on a malformed token or an index
    outside [0, len), and on a line count unequal to the corpus's.
    """
    return [frozenset(links) for links in alignment_links(lines, corpus, what=what)]


def _line_blocks(path: str | Path) -> Iterator[list[str]]:
    """read_lines(path), a list per block of whole lines of about 64 KiB."""
    first = 1
    with open(path, "rb") as f:
        while block := f.read(1 << 16) + f.readline():  # the read's last line, completed
            mark = block.find(b"\xef\xbb\xbf")  # no mark straddles blocks, which end at line ends
            try:  # up to a mark, so that the first fault is the one reported
                text = (block[:mark] if mark >= 0 else block).decode("utf-8")
            except UnicodeDecodeError as err:
                byte = f"invalid UTF-8 byte 0x{block[err.start]:02x}"
                raise _byte_error(path, first, block, err.start, byte, f" ({err.reason})") from None
            if mark >= 0:
                raise _byte_error(path, first, block, mark, "byte-order mark (U+FEFF)")
            lines = text.removesuffix("\n").split("\n")
            if "\r" in text:
                lines = [line[:-1] if line.endswith("\r") else line for line in lines]
            first += len(lines)
            yield lines


def _byte_error(path: str | Path, first: int, block: bytes, at: int, what: str, end: str = "") -> DataError:
    """DataError for what at block[at], naming its line and byte column; block starts at line first."""
    no, column = first + block.count(b"\n", 0, at), at - block.rfind(b"\n", 0, at)
    return DataError(f"{path} line {no}: {what} at column {column}{end}")


@dataclass(frozen=True)
class LineFile(Iterable[str]):
    """The lines of a UTF-8 text file as read_lines gives them, read again at each iteration."""

    path: str | Path

    def __iter__(self) -> Iterator[str]:
        return chain.from_iterable(_line_blocks(self.path))


def read_lines(path: str | Path) -> list[str]:
    """Read a UTF-8 text file as a list of lines without terminators.

    Lines end at "\n" only, so form feeds, U+2028 and the other characters
    str.splitlines() also breaks on stay inside their line. One "\r" that ends
    a line is dropped: before its "\n" (a CRLF file), or at the end of a last
    line with no "\n". The inverse of write_lines for lines that hold no "\n"
    or U+FEFF and do not end in "\r". Invalid UTF-8 and U+FEFF (a byte-order
    mark) raise DataError naming the path, the 1-based line and the byte column.
    """
    return list(LineFile(path))


def token_lines(path: str | Path) -> list[Tokens]:
    """Read a UTF-8 text file as one token tuple per line; blank lines give ()."""
    return [tuple(line.split()) for line in read_lines(path)]


def write_lines(path: str | Path, lines: Iterable[str]) -> None:
    """Write lines as a UTF-8 text file, each with a trailing newline, 4,096 lines per write.

    lines, any iterable, is read once while the file is written: it must not read
    that file, and one that raises partway leaves a partial file.
    """
    lines = iter(lines)
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        while chunk := list(islice(lines, 4096)):
            f.write("\n".join(chunk) + "\n")


def load_corpus(src_path: str | Path, tgt_path: str | Path) -> ParallelCorpus:
    """Read a parallel corpus from two one-sentence-per-line files."""
    return read_parallel(
        read_lines(src_path), read_lines(tgt_path), what=(str(src_path), str(tgt_path))
    )
