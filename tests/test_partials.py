from __future__ import annotations

import contextlib
import io
import random
import tempfile
import threading
from collections.abc import Iterator
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrans.cli import main
from retrans.corpus import (
    LineFile,
    ParallelCorpus,
    SentencePair,
    alignment_links,
    format_alignment,
    read_alignments,
    read_parallel,
    write_lines,
)
from retrans.errors import DataError
from retrans.mixing import mix
from retrans.partials import (
    alignment_prefix_lens,
    generate_partial,
    manifest_lines,
    partial_blocks,
    partial_lines,
    ratio_prefix_lens,
    read_partial,
)

from oracles import prefix_len_bruteforce, ratio_len_reference

# The running worked example: source "I encourage all of you" against target
# "yo animo a todos ustedes" with links (source, target) 1-based.
EXAMPLE_LINKS = frozenset({(1, 1), (2, 2), (2, 3), (3, 4), (5, 5)})


def random_alignment(rng: random.Random, max_len=12) -> tuple[int, int, frozenset[tuple[int, int]]]:
    """Random sentence lengths and a set of links within them."""
    src_len = rng.randint(1, max_len)
    tgt_len = rng.randint(1, max_len)
    n_links = rng.randint(0, src_len * tgt_len // 2)
    links = frozenset(
        (rng.randint(1, src_len), rng.randint(1, tgt_len)) for _ in range(n_links)
    )
    return src_len, tgt_len, links


class TestRatioPrefixLen:
    def test_full_prefix_maps_to_full_reference(self):
        assert ratio_prefix_lens(5, 6)[-1] == 6

    def test_round_half_up_down_case(self):
        assert ratio_prefix_lens(5, 6) == [1, 2, 4, 5, 6]  # 1.2, 2.4 round down; 3.6, 4.8 up

    def test_exact_value(self):
        assert ratio_prefix_lens(4, 8) == [2, 4, 6, 8]  # exactly 2.0, 4.0, 6.0

    def test_half_rounds_up(self):
        assert ratio_prefix_lens(2, 5) == [3, 5]  # 2.5 rounds up

    def test_zero_possible_for_short_targets(self):
        assert ratio_prefix_lens(3, 1) == [0, 1, 1]  # 0.33 rounds down, 0.67 up
        assert ratio_prefix_lens(3, 0) == [0, 0, 0]  # an empty target, as alignment_prefix_lens allows

    @pytest.mark.parametrize("src_len,tgt_len", [(0, 2), (3, -1), (0, 0)])
    def test_preconditions(self, src_len, tgt_len):
        message = f"^need src_len >= 1 and tgt_len >= 0, got {src_len} and {tgt_len}$"
        with pytest.raises(ValueError, match=message):
            ratio_prefix_lens(src_len, tgt_len)

    @given(st.integers(1, 40), st.integers(0, 40))
    def test_monotone_and_complete(self, src_len, tgt_len):
        lens = ratio_prefix_lens(src_len, tgt_len)
        assert len(lens) == src_len
        assert all(0 <= j <= tgt_len for j in lens)
        assert lens == sorted(lens)
        assert lens[-1] == tgt_len

    @given(st.integers(1, 40), st.integers(0, 40))
    @settings(max_examples=300)
    def test_one_list_matches_the_rule_at_every_i(self, src_len, tgt_len):
        assert ratio_prefix_lens(src_len, tgt_len) == [
            ratio_len_reference(src_len, i, tgt_len) for i in range(1, src_len + 1)
        ]


class TestAlignmentPrefixLen:
    def test_worked_example_blocks_last_word(self):
        # At i = 4 the link (5, 5) still blocks "ustedes".
        assert alignment_prefix_lens(5, 5, EXAMPLE_LINKS) == [1, 3, 4, 4, 5]

    def test_full_source_admits_full_target(self):
        rng = random.Random(5)
        for _ in range(20):
            src_len, tgt_len, links = random_alignment(rng)
            assert alignment_prefix_lens(src_len, tgt_len, links)[-1] == tgt_len

    def test_blocked_first_position_gives_empty_prefix(self):
        assert alignment_prefix_lens(2, 1, {(2, 1)}) == [0, 1]

    def test_unaligned_positions_impose_no_constraint(self):
        assert alignment_prefix_lens(3, 3, frozenset()) == [3, 3, 3]

    def test_precondition(self):
        for si, tj in [(3, 1), (0, 1), (1, 3)]:
            message = f"^pair 7: link \\({si},{tj}\\) outside sentence lengths \\(2,2\\)$"
            with pytest.raises(ValueError, match=message):
                alignment_prefix_lens(2, 2, [(1, 1), (si, tj)], "pair 7: ")
        for src_len, tgt_len in [(2, -1), (-3, 2), (0, 0)]:
            message = f"^pair 7: need src_len >= 1 and tgt_len >= 0, got {src_len} and {tgt_len}$"
            with pytest.raises(ValueError, match=message):
                alignment_prefix_lens(src_len, tgt_len, [], "pair 7: ")
        assert alignment_prefix_lens(2, 0, []) == [0, 0]  # an empty target stays legal

    def test_matches_bruteforce_on_random_instances(self):
        rng = random.Random(314)
        for _ in range(500):
            src_len, tgt_len, links = random_alignment(rng)
            i = rng.randint(1, src_len)
            lens = alignment_prefix_lens(src_len, tgt_len, links)
            assert lens[i - 1] == prefix_len_bruteforce(links, i, tgt_len)

    @given(st.integers(1, 8), st.integers(1, 8), st.data())
    @settings(max_examples=300)
    def test_one_pass_matches_bruteforce_at_every_i(self, src_len, tgt_len, data):
        # Many-to-many links, unaligned positions and empty link sets included.
        cells = st.tuples(st.integers(1, src_len), st.integers(1, tgt_len))
        links = data.draw(st.frozensets(cells))
        assert alignment_prefix_lens(src_len, tgt_len, links) == [
            prefix_len_bruteforce(links, i, tgt_len) for i in range(1, src_len + 1)
        ]


@st.composite
def aligned_pair_st(draw) -> tuple[int, int, str]:
    """Sentence lengths and an alignment line: leading zeros, repeated links, or none."""
    src_len, tgt_len = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    links = draw(st.lists(st.tuples(st.integers(0, src_len - 1), st.integers(0, tgt_len - 1))))
    links += draw(st.lists(st.sampled_from(links))) if links else []
    zeros = st.integers(0, 2).map(lambda n: "0" * n)
    tokens = [f"{draw(zeros)}{i}-{draw(zeros)}{j}" for i, j in links]
    return src_len, tgt_len, draw(st.sampled_from([" ", "\t", "  "])).join(tokens)


@given(st.lists(aligned_pair_st(), min_size=1, max_size=6))
@settings(max_examples=200, deadline=None)
def test_scanned_prefix_lens_match_the_parsed_alignment(pairs):
    corpus = ParallelCorpus(
        SentencePair(k, ("s",) * src_len, ("t",) * tgt_len)
        for k, (src_len, tgt_len, _) in enumerate(pairs)
    )
    lines = [line for _, _, line in pairs]
    blocks = partial_blocks(corpus, "alignment", alignment_links(lines, corpus))
    manifest = "".join(block[2] for block in blocks)
    expected = "".join(
        f"{pair.id}\t{i}\t{j}\talignment\n"
        for pair, links in zip(corpus, read_alignments(lines, corpus))
        for i, j in enumerate(alignment_prefix_lens(len(pair.source), len(pair.target), links), 1)
    )
    assert manifest == expected


def corpus_of(src: str, tgt: str) -> ParallelCorpus:
    return read_parallel([src], [tgt])


class TestGeneratePartial:
    def test_one_row_per_prefix_length(self):
        partial = generate_partial(corpus_of("a b c", "x y"), "ratio")
        assert [len(p.source) for p in partial] == [1, 2, 3]
        assert partial[2].source == ("a", "b", "c")
        assert partial[2].target == ("x", "y")

    def test_worked_example_target_lengths(self):
        corpus = corpus_of("I encourage all of you", "yo animo a todos ustedes")
        partial = generate_partial(corpus, "alignment", [EXAMPLE_LINKS])
        assert [len(p.target) for p in partial] == [1, 3, 4, 4, 5]
        assert partial[1].target == ("yo", "animo", "a")

    def test_empty_target_prefixes_are_kept(self):
        links = {(2, 1), (2, 2)}
        partial = generate_partial(corpus_of("a b", "x y"), "alignment", [links])
        assert partial[0].target == ()
        assert partial[1].target == ("x", "y")

    def test_missing_alignments(self):
        with pytest.raises(ValueError, match="^the alignment method needs alignments$"):
            generate_partial(corpus_of("a b", "x"), "alignment", None)

    @pytest.mark.parametrize("alignments", [[], [frozenset()]])
    def test_ratio_method_refuses_alignments(self, alignments):
        corpus = read_parallel(["a"], ["x"])[: len(alignments)]
        for entry in (generate_partial, partial_blocks):
            with pytest.raises(ValueError, match="^the ratio method takes no alignments$"):
                entry(corpus, "ratio", alignments)


def both_entry_points(names: str, cases: dict[str, tuple]):
    """Parametrize entry over partial_blocks and generate_partial, which take the same arguments.

    partial_blocks' cases keep their ids; generate_partial's get a "generate_partial-" prefix.
    """
    return pytest.mark.parametrize(f"entry,{names}", [
        pytest.param(entry, *case, id=prefix + name)
        for entry, prefix in ((partial_blocks, ""), (generate_partial, "generate_partial-"))
        for name, case in cases.items()
    ])


class TestPartialRows:
    """Every check runs when generate_partial or partial_blocks is called, before any row."""

    @pytest.mark.parametrize(
        "links",
        [[], [frozenset()] * 3, [frozenset(), {(2, 1)}], None],
        ids=["short-list", "long-list", "length-mismatch", "no-list"],
    )
    def test_bad_alignments_raise_on_call(self, links):
        corpus = read_parallel(["a", "b"], ["x", "y"])
        with pytest.raises(ValueError):
            generate_partial(corpus, "alignment", links)

    @pytest.mark.parametrize(
        "lines,error,message",
        [
            (["0-0"], DataError, "a.txt has 1 lines but s.txt has 2"),
            (["0-0", "0-0 1-0"], DataError,
             "a.txt line 2: bad alignment token '1-0': index out of range for lengths (1,1)"),
        ],
        ids=["count", "last-line-token"],
    )
    def test_alignment_blocks_checks_every_line_on_call(self, lines, error, message):
        corpus = read_parallel(["a", "b"], ["x", "y"])
        with pytest.raises(error) as err:
            links = alignment_links(lines, corpus, what=("s.txt", "a.txt"))
            partial_blocks(corpus, "alignment", links)
        assert str(err.value) == message

    def test_rows_come_one_at_a_time(self):
        blocks = partial_blocks(read_parallel(["a b c", "d"], ["x y", "z"]), "ratio")
        assert isinstance(blocks, Iterator)
        manifest = "0\t1\t1\tratio\n0\t2\t1\tratio\n0\t3\t2\tratio\n"
        assert next(blocks) == ("a\na b\na b c\n", "x\nx\nx y\n", manifest)
        assert next(blocks) == ("d\n", "z\n", "1\t1\t1\tratio\n")
        assert next(blocks, None) is None

    @both_entry_points(
        "corpus,method,lines,error,message",
        {
            "no-list": (corpus_of("a", "x"), "alignment", None,
                        ValueError, "the alignment method needs alignments"),
            "unknown-method": (corpus_of("a", "x"), "rat", None,
                               ValueError, "method must be 'ratio' or 'alignment', got 'rat'"),
            "no-method": (corpus_of("a", "x"), None, None,
                          ValueError, "method must be 'ratio' or 'alignment', got None"),
            # An alignment line made for longer sentences than its pair's.
            "length-mismatch": (corpus_of("a", "x"), "alignment", ["1-0"],
                                DataError, "alignments line 1: bad alignment token"
                                " '1-0': index out of range for lengths (1,1)"),
        },
    )
    def test_partial_blocks_runs_the_same_checks_on_call(
        self, entry, corpus, method, lines, error, message
    ):
        links = None if lines is None else alignment_links(lines, corpus)
        with pytest.raises(error) as err:
            entry(corpus, method, links)
        assert str(err.value) == message

    @both_entry_points(
        "corpus",
        {"ratio-empty-target": ((SentencePair(0, ("a",), ()),),),
         "empty-targets": ((SentencePair(0, ("a", "b"), ()), SentencePair(4, ("c",), ("z",)),
                            SentencePair(5, ("d",), ())),)},
    )
    def test_an_empty_target_gives_the_same_rows_by_either_method(self, entry, corpus):
        # Under both rules every prefix of an empty target is empty: the pair gives I empty targets.
        ratio = list(entry(corpus, "ratio"))
        alignment = list(entry(corpus, "alignment", [frozenset()] * len(corpus)))
        if entry is partial_blocks:  # its manifest names the method
            ratio = [(s, t, m.replace("\tratio\n", "\talignment\n")) for s, t, m in ratio]
        assert ratio == alignment
        if entry is partial_blocks:
            assert ratio[0][1] == "\n" * len(corpus[0].source)
        else:
            assert ratio[0].target == ()

    @both_entry_points(
        "link",
        {"source-past-end": ((3, 1),), "position-zero": ((0, 0),), "target-past-end": ((1, 5),),
         "target-position-zero": ((1, 0),)},
    )
    def test_partial_blocks_rejects_a_link_outside_its_pair(self, entry, link):
        corpus = read_parallel(["c", "a b"], ["z", "x y"])
        message = f"^pair 1: link \\({link[0]},{link[1]}\\) outside sentence lengths \\(2,2\\)$"
        with pytest.raises(ValueError, match=message):
            entry(corpus, "alignment", [[(1, 1)], [(1, 1), link]])

    @both_entry_points(
        "form,count",
        {f"{form.__name__}-one-{way}": (form, count)
         for form in (list, iter) for way, count in (("short", 1), ("long", 3))},
    )
    def test_partial_blocks_never_truncates_a_links_list(self, entry, form, count):
        # A surplus link set means the list belongs to another corpus: it is not cut off.
        corpus = read_parallel(["a b", "c"], ["x", "y"])
        links = form([[(1, 1)]] * count)
        with pytest.raises(ValueError, match="^zip\\(\\) argument 2 is (shorter|longer) than"):
            entry(corpus, "alignment", links)


sentence_st = st.lists(
    st.text(alphabet="abc", min_size=1, max_size=3), min_size=1, max_size=10
).map(tuple)


@given(sentence_st, sentence_st, st.data())
@settings(max_examples=200, deadline=None)
def test_prefix_monotonicity_both_methods(source, target, data):
    corpus = ParallelCorpus((SentencePair(0, source, target),))
    links = data.draw(
        st.frozensets(
            st.tuples(
                st.integers(1, len(source)),
                st.integers(1, len(target)),
            ),
            max_size=len(source) * len(target),
        )
    )
    for method, alignments in (("ratio", None), ("alignment", [links])):
        partial = generate_partial(corpus, method, alignments)
        rows = list(partial)
        for shorter, longer in zip(rows, rows[1:]):
            assert longer.target[: len(shorter.target)] == shorter.target
        assert rows[-1].target == target


def test_partial_lines_round_trip():
    corpus = corpus_of("a b c", "x y")
    generated = generate_partial(corpus, "ratio")
    src_lines, tgt_lines = partial_lines(generated)
    loaded = read_partial(src_lines, tgt_lines)
    assert [p.source for p in loaded] == [p.source for p in generated]
    assert [p.target for p in loaded] == [p.target for p in generated]
    assert [p.id for p in generated] == [0, 0, 0]  # the parent pair's id
    assert [p.id for p in loaded] == [0, 1, 2]  # the line index


def test_manifest_lines_layout():
    corpus = corpus_of("a b", "x y")
    lines = manifest_lines(generate_partial(corpus, "ratio"), "ratio")
    assert lines[0] == "parent_id\ti\tj\tmethod"
    assert lines[1] == "0\t1\t1\tratio"
    assert lines[2] == "0\t2\t2\tratio"


@pytest.mark.parametrize(
    "method", ["rat", None, b"ratio", "Ratio"], ids=["unknown-method", "no-method", "bytes", "case"]
)
def test_manifest_lines_refuses_a_method_that_is_not_a_name(method):
    # The same refusal as generate_partial's and partial_blocks' unknown-method cases.
    with pytest.raises(ValueError) as err:
        manifest_lines(generate_partial(corpus_of("a b", "x y"), "ratio"), method)
    assert str(err.value) == f"method must be 'ratio' or 'alignment', got {method!r}"


# Lines with every kind of blank that str.split() splits on, and the
# characters that only look like line ends ("\n" never occurs in a line).
blank_line_st = st.text(
    alphabet=st.sampled_from(
        [" ", "\t", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "\x85",
         "\u2028", "\u2029", "\u3000", "\xa0", "\u200b", "a", "b", "é"]
    ),
    max_size=6,
)


@given(st.lists(st.tuples(blank_line_st, blank_line_st), max_size=8))
@settings(max_examples=300, deadline=None)
def test_lazy_read_partial_matches_eager_tokenisation(pairs):
    src = [s for s, _ in pairs]
    tgt = [t for _, t in pairs]
    empty = next((k for k, s in enumerate(src) if not s.split()), None)
    if empty is not None:
        with pytest.raises(DataError) as err:
            read_partial(src, tgt, what=("p.src", "p.tgt"))
        assert str(err.value) == f"p.src line {empty + 1}: empty sentence"
        return
    rows = read_partial(src, tgt, what=("p.src", "p.tgt"))
    assert not isinstance(rows, Iterator)
    assert len(rows) == len(pairs)
    expected = [
        SentencePair(k, tuple(s.split()), tuple(t.split())) for k, (s, t) in enumerate(pairs)
    ]
    assert [rows[k] for k in range(len(rows))] == expected
    assert list(rows) == expected
    assert [rows[k] for k in range(-len(rows), 0)] == expected
    with pytest.raises(IndexError):
        rows[len(rows)]


def test_read_partial_count_mismatch_names_both_files():
    with pytest.raises(DataError, match="^p.tgt has 1 lines but p.src has 2$"):
        read_partial(["a", "b"], ["x"], what=("p.src", "p.tgt"))


def test_read_partial_copies_one_shot_iterators_first():
    # Both passes, and mix's picks, would otherwise find the iterators spent.
    src, tgt = ["a b", "c", "d e f", "g"], ["x", "", "y z", "w"]
    rows = read_partial(iter(src), iter(tgt))
    assert list(rows) == list(read_partial(src, tgt))
    full = read_parallel(["h i", "j"], ["u", "v t"])
    assert mix(full, rows, 5) == mix(full, tuple(rows), 5)


def test_read_partial_rows_take_an_integer_index_only():
    rows = read_partial(["a b", "c"], ["x", ""])
    with pytest.raises(TypeError, match="^'slice' object cannot be interpreted as an integer$"):
        rows[0:1]
    assert rows[1] == SentencePair(1, ("c",), ())


def line_files(tmp_path: Path, src: list[str], tgt: list[str]) -> tuple[LineFile, LineFile]:
    write_lines(tmp_path / "p.src", src)
    write_lines(tmp_path / "p.tgt", tgt)
    return LineFile(tmp_path / "p.src"), LineFile(tmp_path / "p.tgt")


def test_read_partial_names_both_files_when_a_row_is_gone(tmp_path):
    src, tgt = line_files(tmp_path, ["a", "b", "c"], ["x", "y", "z"])
    rows = read_partial(src, tgt, what=("p.src", "p.tgt"))
    assert rows[1] == SentencePair(1, ("b",), ("y",))
    write_lines(src.path, ["a"])
    assert rows[0] == SentencePair(0, ("a",), ("x",))  # behind the walk: it starts again
    with pytest.raises(DataError) as err:
        rows[2]
    assert str(err.value) == "prefix row 3 is gone: p.src or p.tgt changed while it was read"


def test_read_partial_names_the_line_of_a_source_blanked_after_the_check(tmp_path):
    src, tgt = line_files(tmp_path, ["a", "b"], ["x", "y"])
    rows = read_partial(src, tgt, what=("p.src", "p.tgt"))
    write_lines(src.path, ["a", " "])
    with pytest.raises(DataError) as err:
        rows[1]
    assert str(err.value) == "p.src line 2: empty sentence"


class _PausingLines:
    """Lines that, once armed, stop before line 3 of a pass until resumed."""

    def __init__(self, lines: list[str]) -> None:
        self.lines, self.armed = lines, False
        self.paused, self.resume = threading.Event(), threading.Event()

    def __iter__(self) -> Iterator[str]:
        for no, line in enumerate(self.lines, start=1):
            if no == 3 and self.armed:
                self.armed = False
                self.paused.set()
                assert self.resume.wait(5)
            yield line


def test_read_partial_rows_may_be_read_from_two_threads():
    # A reads row 5 and stops in the walk at line 3; B then reads row 1, which
    # is behind the walk. Unlocked, B restarts the walk under A, and row 6
    # comes back as line 2 once A is done; locked, B waits for A.
    src = _PausingLines([f"s{k}" for k in range(1, 9)])
    rows = read_partial(src, [f"t{k}" for k in range(1, 9)])
    assert rows[0].source == ("s1",)
    src.armed = True
    got = {}
    a = threading.Thread(target=lambda: got.setdefault("a", rows[4]))
    b = threading.Thread(target=lambda: got.setdefault("b", rows[0]))
    a.start()
    assert src.paused.wait(5)
    b.start()
    b.join(timeout=0.5)  # unlocked, B is done by now; locked, it waits on A
    src.resume.set()
    a.join()
    b.join()
    assert (got["a"].source, got["b"].source) == (("s5",), ("s1",))
    assert rows[5] == SentencePair(5, ("s6",), ("t6",))


# Corpus lines with runs of tabs, spaces, U+3000 and U+00A0 between tokens and
# at either end: the written rows must come from the tokens, re-joined by
# single spaces, never from the raw line.
blank_run_st = st.text(alphabet=" \t\u3000\xa0", min_size=1, max_size=3)
edge_st = st.one_of(st.just(""), blank_run_st)


@st.composite
def corpus_line_st(draw) -> str:
    words = draw(st.lists(st.sampled_from(["a", "b", "c", "dé"]), min_size=1, max_size=7))
    line = words[0] + "".join(draw(blank_run_st) + w for w in words[1:])
    return draw(edge_st) + line + draw(edge_st)


@given(
    st.lists(st.tuples(corpus_line_st(), corpus_line_st()), min_size=1, max_size=6),
    st.sampled_from(["ratio", "alignment"]),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_gen_partial_writes_the_library_rows_byte_for_byte(pairs, method, rng):
    corpus = read_parallel([s for s, _ in pairs], [t for _, t in pairs])
    alignments = [
        frozenset(
            (rng.randint(1, len(p.source)), rng.randint(1, len(p.target)))
            for _ in range(rng.randint(0, 4))
        )
        for p in corpus
    ]
    aligned = method == "alignment"
    partial = generate_partial(corpus, method, alignments if aligned else None)
    src_lines, tgt_lines = partial_lines(partial)
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        write_lines(d / "c.src", [s for s, _ in pairs])
        write_lines(d / "c.tgt", [t for _, t in pairs])
        write_lines(d / "c.align", [format_alignment(a) for a in alignments])
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main([
                "gen-partial", "--src", str(d / "c.src"), "--tgt", str(d / "c.tgt"),
                "--method", method,
                *(["--alignments", str(d / "c.align")] if aligned else []),
                "--out-prefix", str(d / "p"), "-v",
            ])
        assert code == 0
        for suffix, lines in (
            ("src", src_lines), ("tgt", tgt_lines), ("manifest.tsv", manifest_lines(partial, method))
        ):
            written = (d / f"p.{suffix}").read_bytes()
            assert written == "".join(line + "\n" for line in lines).encode("utf-8")
    assert stderr.getvalue().splitlines()[-1] == (
        f"generated {len(partial)} prefix rows from {len(corpus)} pairs"
    )


def random_pairs(n: int) -> tuple[ParallelCorpus, list[str]]:
    """n pairs of 5-20 tokens a side, and an alignment line linking a third of each grid."""
    rng = random.Random(n)
    vocab = [f"w{k}" for k in range(50)]
    lines = [" ".join(rng.choices(vocab, k=rng.randint(5, 20))) for _ in range(2 * n)]
    corpus = read_parallel(lines[:n], lines[n:])
    links = [
        " ".join(
            f"{i}-{j}"
            for i in range(len(p.source))
            for j in range(len(p.target))
            if (i + j) % 3 == 0
        )
        for p in corpus
    ]
    return corpus, links


def render_peak(traced_peak, directory: Path, n: int, method: str) -> tuple[int, int]:
    """Traced peak of rendering n pairs' prefix rows to a file, and the pairs' source tokens."""
    corpus, lines = random_pairs(n)

    def render() -> None:
        links = alignment_links(lines, corpus) if method == "alignment" else None
        with open(directory / "rows.txt", "w", encoding="utf-8") as out:
            for source, target, manifest in partial_blocks(corpus, method, links):
                out.write(source + target + manifest)

    return traced_peak(render), sum(len(p.source) for p in corpus)


class TestRenderMemory:
    # From 300 to 1,200 pairs the rows' text grows by 0.77 MB (51 B per source
    # token). The ratio method's peak grew by under 9 KB on Python 3.10-3.13. The
    # alignment method keeps every pair's prefix lengths, so that every link is
    # checked before the first row is written, and grew by 15-16 B per source token.
    def test_ratio_peak_does_not_grow_with_the_corpus(self, tmp_path, traced_peak):
        small, _ = render_peak(traced_peak, tmp_path, 300, "ratio")
        large, _ = render_peak(traced_peak, tmp_path, 1_200, "ratio")
        assert large - small < 16 << 10

    def test_alignment_peak_grows_by_the_prefix_lengths_alone(self, tmp_path, traced_peak):
        small, small_tokens = render_peak(traced_peak, tmp_path, 300, "alignment")
        large, large_tokens = render_peak(traced_peak, tmp_path, 1_200, "alignment")
        assert large - small < 24 * (large_tokens - small_tokens)
