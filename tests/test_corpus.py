from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from retrans.corpus import (
    LineFile,
    SentencePair,
    detokenize,
    format_alignment,
    load_corpus,
    read_alignments,
    read_lines,
    read_parallel,
    tokenize,
    write_lines,
)
from retrans.errors import DataError

tokens_st = st.lists(
    st.text(alphabet="abcdefg", min_size=1, max_size=4), min_size=1, max_size=8
).map(tuple)


class TestTokenize:
    def test_basic_split(self):
        assert tokenize("yo animo a") == ("yo", "animo", "a")

    def test_run_collapsing(self):
        assert tokenize("  a   b ") == ("a", "b")

    def test_empty_line_rejected(self):
        with pytest.raises(DataError, match="^empty sentence$"):
            tokenize("")

    def test_whitespace_only_rejected(self):
        with pytest.raises(DataError, match="^empty sentence$"):
            tokenize(" \t  ")

    def test_unicode_whitespace(self):
        assert tokenize("a b\tc") == ("a", "b", "c")

    @given(tokens_st)
    def test_round_trip(self, tokens):
        assert tokenize(detokenize(tokens)) == tokens


class TestSentencePair:
    def test_negative_id_rejected(self):
        with pytest.raises(ValueError, match="^pair id must be >= 0, got -1$"):
            SentencePair(-1, ("a",), ("x",))

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError, match="^pair 3: source must be non-empty$"):
            SentencePair(3, (), ("x",))


class TestReadParallel:
    def test_single_pair(self):
        corpus = read_parallel(["a b"], ["x y z"])
        assert len(corpus) == 1
        assert corpus[0].id == 0
        assert corpus[0].source == ("a", "b")
        assert corpus[0].target == ("x", "y", "z")

    def test_equal_tokens_share_one_string(self):
        corpus = read_parallel(["house of houses", "the house"], ["house", "casa house"])
        first = corpus[0].source[0]
        others = (corpus[1].source[1], corpus[0].target[0], corpus[1].target[1])
        assert all(token is first for token in others)
        assert corpus[0].source[2] == "houses"

    def test_length_mismatch(self):
        with pytest.raises(DataError) as err:
            read_parallel(["a"], [])
        assert str(err.value) == "target has 0 lines but source has 1"

    def test_length_mismatch_names_the_streams(self):
        with pytest.raises(DataError, match="^t.txt has 2 lines but s.txt has 1$"):
            read_parallel(["a"], ["x", "y"], what=("s.txt", "t.txt"))

    def test_ids_follow_file_order(self):
        corpus = read_parallel(["a", "b"], ["x", "y"])
        assert [p.id for p in corpus] == [0, 1]

    def test_empty_line_reports_position(self):
        with pytest.raises(DataError, match="^target line 2: empty sentence$"):
            read_parallel(["a", "b"], ["x", " "])

    @given(st.lists(tokens_st, min_size=1, max_size=6))
    def test_round_trip(self, sentences):
        src = [detokenize(s) for s in sentences]
        tgt = [detokenize(s[::-1]) for s in sentences]
        corpus = read_parallel(src, tgt)
        assert [detokenize(p.source) for p in corpus] == src
        assert [detokenize(p.target) for p in corpus] == tgt


def parse_line(line: str, src_len: int, tgt_len: int) -> frozenset[tuple[int, int]]:
    """One alignment line as read_alignments reads it for a pair of the given lengths."""
    return read_alignments([line], (SentencePair(0, ("s",) * src_len, ("t",) * tgt_len),))[0]


class TestAlignmentParsing:
    def test_basic_links(self):
        assert parse_line("0-0 1-1", 2, 2) == {(1, 1), (2, 2)}

    def test_blank_line_is_unaligned(self):
        assert parse_line("", 3, 2) == frozenset()

    def test_out_of_range(self):
        with pytest.raises(DataError) as err:
            parse_line("5-0", 2, 2)
        assert str(err.value) == (
            "alignments line 1: bad alignment token '5-0': index out of range for lengths (2,2)"
        )

    @pytest.mark.parametrize("bad", ["1:2", "x-0", "0-", "-1-0", "0--1", "²-0"])
    def test_malformed_tokens(self, bad):
        with pytest.raises(DataError) as err:
            parse_line(bad, 9, 9)
        assert str(err.value) == f"alignments line 1: bad alignment token {bad!r}"

    # Digits outside ASCII (Arabic-Indic, fullwidth, superscript) and dashes
    # that leave a side empty or signed; the old regex rejected all of them.
    @pytest.mark.parametrize("bad", ["١-٢", "１-２", "²-0", "1--2", "+1-2", "1-", "-"])
    def test_rejects_the_token_by_name(self, bad):
        with pytest.raises(DataError) as err:
            parse_line(f"0-0 {bad} 1-1", 9, 9)
        assert str(err.value) == f"alignments line 1: bad alignment token {bad!r}"

    def test_leading_zeros_are_read_as_numbers(self):
        assert parse_line("00-01 002-0", 3, 2) == {(1, 2), (3, 1)}

    def test_duplicates_collapse(self):
        assert parse_line("0-0 0-0", 1, 1) == {(1, 1)}

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=10),
        st.data(),
    )
    def test_round_trip(self, src_len, tgt_len, data):
        links = data.draw(
            st.frozensets(
                st.tuples(
                    st.integers(1, src_len),
                    st.integers(1, tgt_len),
                ),
                max_size=src_len * tgt_len,
            )
        )
        assert parse_line(format_alignment(links), src_len, tgt_len) == links


def test_read_alignments_matches_corpus_order():
    corpus = read_parallel(["a b", "c"], ["x", "y z"])
    alignments = read_alignments(["1-0", "0-1"], corpus)
    assert alignments == [{(2, 1)}, {(1, 2)}]


def test_read_alignments_count_mismatch():
    corpus = read_parallel(["a"], ["x"])
    with pytest.raises(DataError, match="^a.txt has 2 lines but s.txt has 1$"):
        read_alignments(["", ""], corpus, what=("s.txt", "a.txt"))


class TestLineIO:
    # Any text UTF-8 can encode, without "\n" or U+FEFF and not ending in "\r":
    # form feeds, U+2028 and the like included.
    line_st = st.text(
        st.characters(exclude_categories=("Cs",), exclude_characters="\n\ufeff")
    ).filter(lambda line: not line.endswith("\r"))

    @given(st.lists(line_st))
    def test_round_trip(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "lines.txt"
            write_lines(path, lines)
            assert read_lines(path) == lines

    @pytest.mark.parametrize("form", [list, iter], ids=["list", "generator"])
    @pytest.mark.parametrize(
        "lines",
        [[], [""], ["", ""], *([f"línea {k}" for k in range(n)] for n in (4095, 4096, 4097))],
        ids=["none", "one-empty", "two-empty", "4095", "4096", "4097"],
    )
    def test_writes_the_bytes_of_one_join(self, tmp_path, lines, form):
        path = tmp_path / "lines.txt"
        write_lines(path, form(lines))
        assert path.read_bytes() == ("\n".join(lines) + "\n" if lines else "").encode()

    def test_generated_lines_are_not_held(self, tmp_path, traced_peak):
        path = tmp_path / "many.txt"
        lines = (f"line {k} of a long generated file" for k in range(200_000))
        peak = traced_peak(lambda: write_lines(path, lines))
        assert path.read_bytes().count(b"\n") == 200_000
        assert peak < 3 << 20  # a list of all 200,000 lines alone is about 18 MB

    def test_a_source_that_raises_leaves_the_chunks_before_it(self, tmp_path):
        def lines():
            yield from map(str, range(5000))
            raise RuntimeError("source failed")

        path = tmp_path / "partial.txt"
        with pytest.raises(RuntimeError, match="source failed"):
            write_lines(path, lines())
        assert read_lines(path) == [str(k) for k in range(4096)]

    def test_crlf_file(self, tmp_path):
        path = tmp_path / "crlf.txt"
        path.write_bytes(b"a b\r\n\r\nc\r\r\n")
        assert read_lines(path) == ["a b", "", "c\r"]

    def test_last_line_without_newline(self, tmp_path):
        path = tmp_path / "open.txt"
        path.write_bytes(b"a\nb")
        assert read_lines(path) == ["a", "b"]

    @pytest.mark.parametrize(
        "data, where",
        [
            (b"\xffa\n", "line 1: invalid UTF-8 byte 0xff at column 1 (invalid start byte)"),
            (b"a\r\nb \xc3(\n", "line 2: invalid UTF-8 byte 0xc3 at column 3"),
            (b"\xe2\x82\xac\na\nb\xe2\x82", "line 3: invalid UTF-8 byte 0xe2 at column 2"),
        ],
        ids=["first-byte", "crlf-second-line", "truncated-at-end"],
    )
    def test_invalid_utf8_names_path_and_line(self, tmp_path, data, where):
        path = tmp_path / "text.txt"
        path.write_bytes(data)
        with pytest.raises(DataError) as err:
            read_lines(path)
        assert str(err.value).startswith(f"{path} {where}")

    def test_lines_across_blocks(self, tmp_path):
        # Files are read in blocks of about 64 KiB: lines must not be split,
        # joined or renumbered at a block's edge, and a line may be longer
        # than a block.
        lines = [f"line {k} " + "é" * (k % 97) for k in range(6000)]
        lines[2500] = "x" * 200_000
        path = tmp_path / "big.txt"
        path.write_bytes("".join(line + "\r\n" for line in lines).encode("utf-8"))
        assert read_lines(path) == lines
        assert list(LineFile(path)) == lines == list(LineFile(path))

    @pytest.mark.parametrize("bad_line", [1, 2501, 5999])
    def test_invalid_utf8_in_a_later_block_names_its_line(self, tmp_path, bad_line):
        lines = [f"line {k} ".encode() + b"\xc3\xa9" * (k % 97) for k in range(6000)]
        lines[2500] = b"x" * 200_000
        lines[bad_line - 1] += b" \xff"
        column = len(lines[bad_line - 1])
        path = tmp_path / "big.txt"
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        for read in (read_lines, lambda path: list(LineFile(path))):
            with pytest.raises(DataError) as err:
                read(path)
            assert str(err.value) == (
                f"{path} line {bad_line}: invalid UTF-8 byte 0xff at column {column} "
                "(invalid start byte)"
            )

    @pytest.mark.parametrize(
        "data, where",
        [
            (b"\xef\xbb\xbfhello world\n", "line 1: byte-order mark (U+FEFF) at column 1"),
            # Two files joined by cat, the second saved with a mark.
            (b"a b\r\n\xef\xbb\xbfc d\n", "line 2: byte-order mark (U+FEFF) at column 1"),
            ("\xe9\n\na\ufeffb".encode(), "line 3: byte-order mark (U+FEFF) at column 2"),
            # The first fault of a block is the one reported.
            (b"\xff\n\xef\xbb\xbf\n", "line 1: invalid UTF-8 byte 0xff at column 1 (invalid start byte)"),
            (b"\xef\xbb\xbf\n\xff\n", "line 1: byte-order mark (U+FEFF) at column 1"),
        ],
        ids=["file-start", "later-line", "inside-a-line", "invalid-byte-first", "mark-first"],
    )
    def test_byte_order_mark_names_path_line_and_column(self, tmp_path, data, where):
        path = tmp_path / "text.txt"
        path.write_bytes(data)
        with pytest.raises(DataError) as err:
            read_lines(path)
        assert str(err.value) == f"{path} {where}"

    @pytest.mark.parametrize("bad_line", [1, 2501, 5999])
    def test_byte_order_mark_in_a_later_block_names_its_line(self, tmp_path, bad_line):
        lines = [f"line {k} ".encode() + b"\xc3\xa9" * (k % 97) for k in range(6000)]
        lines[2500] = b"x" * 200_000
        column = len(lines[bad_line - 1]) + 1
        lines[bad_line - 1] += "\ufeff".encode()
        path = tmp_path / "big.txt"
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        with pytest.raises(DataError) as err:
            list(LineFile(path))
        assert str(err.value) == f"{path} line {bad_line}: byte-order mark (U+FEFF) at column {column}"

    def test_line_separator_keeps_pairs_aligned(self, tmp_path):
        src = tmp_path / "corpus.src"
        tgt = tmp_path / "corpus.tgt"
        src.write_text("uno\u2028dos\x85tres\ncuatro\n", encoding="utf-8")
        tgt.write_text("one two three\nfour\n", encoding="utf-8")
        corpus = load_corpus(src, tgt)
        assert [(p.source, p.target) for p in corpus] == [
            (("uno", "dos", "tres"), ("one", "two", "three")),
            (("cuatro",), ("four",)),
        ]
