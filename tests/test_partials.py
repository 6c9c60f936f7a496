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
    Alignment,
    ParallelCorpus,
    SentencePair,
    alignment_links,
    format_alignment,
    read_alignment_line,
    read_parallel,
    write_lines,
)
from retrans.errors import (
    AlignmentMissingError,
    AlignmentParseError,
    CorpusMismatchError,
    DataError,
    EmptySentenceError,
)
from retrans.partials import (
    Method,
    PartialPair,
    _prefix_lens,
    _ratio_lens,
    alignment_prefix_len,
    generate_partial,
    manifest_lines,
    partial_blocks,
    partial_lines,
    ratio_prefix_len,
    read_partial,
)

from oracles import prefix_len_bruteforce, ratio_len_reference

# The running worked example: source "I encourage all of you" against target
# "yo animo a todos ustedes" with links (source, target) 1-based.
EXAMPLE_LINKS = frozenset({(1, 1), (2, 2), (2, 3), (3, 4), (5, 5)})
EXAMPLE_ALIGNMENT = Alignment(5, 5, EXAMPLE_LINKS)


def random_alignment(rng: random.Random, max_len=12) -> Alignment:
    src_len = rng.randint(1, max_len)
    tgt_len = rng.randint(1, max_len)
    n_links = rng.randint(0, src_len * tgt_len // 2)
    links = frozenset(
        (rng.randint(1, src_len), rng.randint(1, tgt_len)) for _ in range(n_links)
    )
    return Alignment(src_len, tgt_len, links)


class TestRatioPrefixLen:
    def test_full_prefix_maps_to_full_reference(self):
        assert ratio_prefix_len(5, 5, 6) == 6

    def test_round_half_up_down_case(self):
        assert ratio_prefix_len(5, 2, 6) == 2  # 2.4 rounds down

    def test_exact_value(self):
        assert ratio_prefix_len(4, 1, 8) == 2  # exactly 2.0

    def test_half_rounds_up(self):
        assert ratio_prefix_len(2, 1, 5) == 3  # 2.5 rounds up

    def test_zero_possible_for_short_targets(self):
        assert ratio_prefix_len(3, 1, 1) == 0  # 0.33 rounds down

    @pytest.mark.parametrize("src_len,i,tgt_len", [(3, 0, 2), (3, 4, 2), (3, 1, 0)])
    def test_preconditions(self, src_len, i, tgt_len):
        with pytest.raises(ValueError):
            ratio_prefix_len(src_len, i, tgt_len)

    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.data(),
    )
    def test_monotone_and_complete(self, src_len, tgt_len, data):
        i = data.draw(st.integers(1, src_len))
        j = ratio_prefix_len(src_len, i, tgt_len)
        assert 0 <= j <= tgt_len
        if i < src_len:
            assert j <= ratio_prefix_len(src_len, i + 1, tgt_len)
        assert ratio_prefix_len(src_len, src_len, tgt_len) == tgt_len

    @given(st.integers(1, 40), st.integers(1, 40))
    @settings(max_examples=300)
    def test_one_list_matches_the_rule_at_every_i(self, src_len, tgt_len):
        lens = _ratio_lens(src_len, tgt_len)
        assert lens == [ratio_prefix_len(src_len, i, tgt_len) for i in range(1, src_len + 1)]
        assert lens == [
            ratio_len_reference(src_len, i, tgt_len) for i in range(1, src_len + 1)
        ]


class TestAlignmentPrefixLen:
    def test_worked_example_blocks_last_word(self):
        assert alignment_prefix_len(EXAMPLE_ALIGNMENT, 4) == 4

    def test_full_source_admits_full_target(self):
        rng = random.Random(5)
        for _ in range(20):
            a = random_alignment(rng)
            assert alignment_prefix_len(a, a.src_len) == a.tgt_len

    def test_blocked_first_position_gives_empty_prefix(self):
        a = Alignment(2, 1, frozenset({(2, 1)}))
        assert alignment_prefix_len(a, 1) == 0

    def test_unaligned_positions_impose_no_constraint(self):
        a = Alignment(3, 3, frozenset())
        assert alignment_prefix_len(a, 1) == 3

    def test_precondition(self):
        with pytest.raises(ValueError):
            alignment_prefix_len(EXAMPLE_ALIGNMENT, 0)

    def test_matches_bruteforce_on_random_instances(self):
        rng = random.Random(314)
        for _ in range(500):
            a = random_alignment(rng)
            i = rng.randint(1, a.src_len)
            assert alignment_prefix_len(a, i) == prefix_len_bruteforce(a.links, i, a.tgt_len)

    @given(st.integers(1, 8), st.integers(1, 8), st.data())
    @settings(max_examples=300)
    def test_one_pass_matches_bruteforce_at_every_i(self, src_len, tgt_len, data):
        # Many-to-many links, unaligned positions and empty link sets included.
        cells = st.tuples(st.integers(1, src_len), st.integers(1, tgt_len))
        a = Alignment(src_len, tgt_len, data.draw(st.frozensets(cells)))
        assert _prefix_lens(src_len, tgt_len, a.links) == [
            prefix_len_bruteforce(a.links, i, tgt_len) for i in range(1, src_len + 1)
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


@given(st.lists(aligned_pair_st(), min_size=1, max_size=6), st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_scanned_prefix_lens_match_the_parsed_alignment(pairs, min_i):
    corpus = ParallelCorpus(
        SentencePair(k, ("s",) * src_len, ("t",) * tgt_len)
        for k, (src_len, tgt_len, _) in enumerate(pairs)
    )
    lines = [line for _, _, line in pairs]
    blocks = partial_blocks(corpus, Method.ALIGNMENT, alignment_links(lines, corpus), min_i)
    manifest = "".join(block[3] for block in blocks)
    expected = "".join(
        f"{k}\t{i}\t{alignment_prefix_len(read_alignment_line(line, src_len, tgt_len), i)}"
        "\talignment\n"
        for k, (src_len, tgt_len, line) in enumerate(pairs)
        for i in range(min_i, src_len + 1)
    )
    assert manifest == expected


def corpus_of(src: str, tgt: str) -> ParallelCorpus:
    return read_parallel([src], [tgt])


class TestGeneratePartial:
    def test_one_row_per_prefix_length(self):
        partial = generate_partial(corpus_of("a b c", "x y"), Method.RATIO)
        assert [p.i for p in partial] == [1, 2, 3]
        assert partial[2].source_prefix == ("a", "b", "c")
        assert partial[2].target_prefix == ("x", "y")

    def test_worked_example_target_lengths(self):
        corpus = corpus_of("I encourage all of you", "yo animo a todos ustedes")
        partial = generate_partial(corpus, Method.ALIGNMENT, [EXAMPLE_ALIGNMENT])
        assert [p.j for p in partial] == [1, 3, 4, 4, 5]
        assert partial[1].target_prefix == ("yo", "animo", "a")

    def test_min_i_skips_short_prefixes(self):
        partial = generate_partial(corpus_of("a b c", "x y"), Method.RATIO, min_i=2)
        assert [p.i for p in partial] == [2, 3]

    def test_empty_target_prefixes_are_kept(self):
        a = Alignment(2, 2, frozenset({(2, 1), (2, 2)}))
        partial = generate_partial(corpus_of("a b", "x y"), Method.ALIGNMENT, [a])
        assert partial[0].target_prefix == ()
        assert partial[1].target_prefix == ("x", "y")

    def test_missing_alignments(self):
        with pytest.raises(AlignmentMissingError):
            generate_partial(corpus_of("a b", "x"), Method.ALIGNMENT, None)

    def test_alignment_list_too_short(self):
        corpus = read_parallel(["a", "b"], ["x", "y"])
        with pytest.raises(AlignmentMissingError) as err:
            generate_partial(corpus, Method.ALIGNMENT, [Alignment(1, 1, frozenset())])
        assert err.value.pair_id == 1

    def test_alignment_list_too_long(self):
        # A surplus alignment means the list belongs to another corpus; it is
        # not cut off silently.
        corpus = read_parallel(["a"], ["x"])
        alignment = Alignment(1, 1, frozenset({(1, 1)}))
        with pytest.raises(DataError, match="^too many alignments: 2 alignments for 1 pairs$"):
            generate_partial(corpus, Method.ALIGNMENT, [alignment, alignment])

    def test_alignment_dimension_mismatch(self):
        with pytest.raises(AlignmentMissingError):
            generate_partial(
                corpus_of("a b", "x"), Method.ALIGNMENT, [Alignment(9, 9, frozenset())]
            )

    def test_bad_min_i(self):
        with pytest.raises(ValueError):
            generate_partial(corpus_of("a", "x"), Method.RATIO, min_i=0)

    def test_ratio_needs_a_target_only_where_rows_are_made(self):
        corpus = (SentencePair(0, ("a", "b"), ()),)
        with pytest.raises(ValueError, match="^pair 0: the ratio method needs a non-empty target$"):
            partial_blocks(corpus, Method.RATIO)
        assert generate_partial(corpus, Method.RATIO, min_i=3) == ()


class TestPartialRows:
    """Every check runs when generate_partial or partial_blocks is called, before any row."""

    @pytest.mark.parametrize(
        "alignments,error",
        [
            ([], AlignmentMissingError),
            ([Alignment(1, 1, frozenset())] * 3, DataError),
            ([Alignment(1, 1, frozenset()), Alignment(2, 1, frozenset())], AlignmentMissingError),
            (None, AlignmentMissingError),
        ],
        ids=["short-list", "long-list", "length-mismatch", "no-list"],
    )
    def test_bad_alignments_raise_on_call(self, alignments, error):
        corpus = read_parallel(["a", "b"], ["x", "y"])
        with pytest.raises(error):
            generate_partial(corpus, Method.ALIGNMENT, alignments)

    def test_length_mismatch_after_good_pairs_raises_on_call(self):
        corpus = read_parallel(["a b", "c"], ["x", "y"])
        alignments = [Alignment(2, 1, frozenset()), Alignment(1, 2, frozenset())]
        with pytest.raises(AlignmentMissingError) as err:
            generate_partial(corpus, Method.ALIGNMENT, alignments)
        assert err.value.pair_id == 1

    @pytest.mark.parametrize("method", list(Method))
    def test_bad_min_i_raises_on_call(self, method):
        with pytest.raises(ValueError, match="min_i"):
            partial_blocks(corpus_of("a", "x"), method, [[(1, 1)]], min_i=0)

    @pytest.mark.parametrize(
        "lines,min_i,error,message",
        [
            (["0-0", "0-0"], 0, ValueError, "min_i must be >= 1, got 0"),
            (["0-0"], 1, CorpusMismatchError, "a.txt has 1 lines but s.txt has 2"),
            (["0-0", "0-0 1-0"], 1, AlignmentParseError,
             "a.txt line 2: bad alignment token '1-0': index out of range for lengths (1,1)"),
        ],
        ids=["min-i", "count", "last-line-token"],
    )
    def test_alignment_blocks_checks_every_line_on_call(self, lines, min_i, error, message):
        corpus = read_parallel(["a", "b"], ["x", "y"])
        with pytest.raises(error) as err:
            links = alignment_links(lines, corpus, what=("s.txt", "a.txt"))
            partial_blocks(corpus, Method.ALIGNMENT, links, min_i)
        assert str(err.value) == message

    def test_rows_come_one_at_a_time(self):
        blocks = partial_blocks(read_parallel(["a b c", "d"], ["x y", "z"]), Method.RATIO)
        assert isinstance(blocks, Iterator)
        manifest = "0\t1\t1\tratio\n0\t2\t1\tratio\n0\t3\t2\tratio\n"
        assert next(blocks) == (3, "a\na b\na b c\n", "x\nx\nx y\n", manifest)
        assert next(blocks) == (1, "d\n", "z\n", "1\t1\t1\tratio\n")
        assert next(blocks, None) is None

    @pytest.mark.parametrize(
        "corpus,method,lines,min_i,error",
        [
            ((SentencePair(0, ("a",), ()),), Method.RATIO, None, 1, ValueError),
            (corpus_of("a", "x"), Method.RATIO, None, 0, ValueError),
            (corpus_of("a", "x"), Method.ALIGNMENT, None, 1, AlignmentMissingError),
            # An alignment line made for longer sentences than its pair's.
            (corpus_of("a", "x"), Method.ALIGNMENT, ["1-0"], 1, AlignmentParseError),
        ],
        ids=["ratio-empty-target", "min-i", "no-list", "length-mismatch"],
    )
    def test_partial_blocks_runs_the_same_checks_on_call(self, corpus, method, lines, min_i, error):
        links = None if lines is None else alignment_links(lines, corpus)
        with pytest.raises(error):
            partial_blocks(corpus, method, links, min_i)

    @pytest.mark.parametrize(
        "link",
        [(3, 1), (0, 0), (1, 5)],
        ids=["source-past-end", "position-zero", "target-past-end"],
    )
    def test_partial_blocks_rejects_a_link_outside_its_pair(self, link):
        corpus = read_parallel(["c", "a b"], ["z", "x y"])
        message = f"^pair 1: link \\({link[0]},{link[1]}\\) outside sentence lengths \\(2,2\\)$"
        with pytest.raises(ValueError, match=message):
            partial_blocks(corpus, Method.ALIGNMENT, [[(1, 1)], [(1, 1), link]])

    @pytest.mark.parametrize("count", [1, 3], ids=["one-short", "one-long"])
    @pytest.mark.parametrize("form", [list, iter])
    def test_partial_blocks_never_truncates_a_links_list(self, count, form):
        corpus = read_parallel(["a b", "c"], ["x", "y"])
        links = form([[(1, 1)]] * count)
        with pytest.raises(ValueError, match="^zip\\(\\) argument 2 is (shorter|longer) than"):
            partial_blocks(corpus, Method.ALIGNMENT, links)


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
    alignment = Alignment(len(source), len(target), links)
    for method, alignments in ((Method.RATIO, None), (Method.ALIGNMENT, [alignment])):
        partial = generate_partial(corpus, method, alignments)
        rows = list(partial)
        for shorter, longer in zip(rows, rows[1:]):
            assert longer.target_prefix[: shorter.j] == shorter.target_prefix
        assert rows[-1].target_prefix == target


def test_partial_lines_round_trip():
    corpus = corpus_of("a b c", "x y")
    generated = generate_partial(corpus, Method.RATIO)
    src_lines, tgt_lines = partial_lines(generated)
    loaded = read_partial(src_lines, tgt_lines)
    assert [p.source_prefix for p in loaded] == [p.source_prefix for p in generated]
    assert [p.target_prefix for p in loaded] == [p.target_prefix for p in generated]
    assert all(p.method is None for p in loaded)


def test_manifest_lines_layout():
    corpus = corpus_of("a b", "x y")
    lines = manifest_lines(generate_partial(corpus, Method.RATIO))
    assert lines[0] == "parent_id\ti\tj\tmethod"
    assert lines[1] == "0\t1\t1\tratio"
    assert lines[2] == "0\t2\t2\tratio"


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
        with pytest.raises(EmptySentenceError) as err:
            read_partial(src, tgt, what=("p.src", "p.tgt"))
        assert str(err.value) == f"p.src line {empty + 1}: empty sentence"
        return
    rows = read_partial(src, tgt, what=("p.src", "p.tgt"))
    assert not isinstance(rows, Iterator)
    assert len(rows) == len(pairs)
    expected = [
        PartialPair(k, len(s.split()), tuple(s.split()), tuple(t.split()), None)
        for k, (s, t) in enumerate(pairs)
    ]
    assert [rows[k] for k in range(len(rows))] == expected
    assert list(rows) == expected
    assert [rows[k] for k in range(-len(rows), 0)] == expected
    with pytest.raises(IndexError):
        rows[len(rows)]


def test_read_partial_count_mismatch_names_both_files():
    with pytest.raises(CorpusMismatchError, match="^p.tgt has 1 lines but p.src has 2$"):
        read_partial(["a", "b"], ["x"], what=("p.src", "p.tgt"))


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
    assert rows[0].source_prefix == ("s1",)
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
    assert (got["a"].source_prefix, got["b"].source_prefix) == (("s5",), ("s1",))
    assert rows[5] == PartialPair(5, 1, ("s6",), ("t6",), None)


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
    st.sampled_from(list(Method)),
    st.integers(1, 4),
    st.randoms(use_true_random=False),
)
@settings(max_examples=60, deadline=None)
def test_gen_partial_writes_the_library_rows_byte_for_byte(pairs, method, min_i, rng):
    corpus = read_parallel([s for s, _ in pairs], [t for _, t in pairs])
    alignments = [
        Alignment(len(p.source), len(p.target), frozenset(
            (rng.randint(1, len(p.source)), rng.randint(1, len(p.target)))
            for _ in range(rng.randint(0, 4))
        ))
        for p in corpus
    ]
    partial = generate_partial(corpus, method, alignments, min_i)
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
                "--method", method.value, "--alignments", str(d / "c.align"),
                "--min-i", str(min_i), "--out-prefix", str(d / "p"), "-v",
            ])
        assert code == 0
        for suffix, lines in (
            ("src", src_lines), ("tgt", tgt_lines), ("manifest.tsv", manifest_lines(partial))
        ):
            written = (d / f"p.{suffix}").read_bytes()
            assert written == "".join(line + "\n" for line in lines).encode("utf-8")
    assert stderr.getvalue().splitlines()[-1] == (
        f"generated {len(partial)} prefix rows from {len(corpus)} pairs"
    )
