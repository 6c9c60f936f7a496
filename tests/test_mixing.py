from __future__ import annotations

import contextlib
import io
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from retrans.cli import main
from retrans.corpus import ParallelCorpus, SentencePair
from retrans.mixing import MixManifest, mix, subsample
from retrans.partials import PartialCorpus, PartialPair, read_partial


def full_corpus(n: int) -> ParallelCorpus:
    return ParallelCorpus(
        tuple(SentencePair(k, (f"s{k}",), (f"t{k}",)) for k in range(n))
    )


def partial_corpus(n: int) -> PartialCorpus:
    return PartialCorpus(
        tuple(PartialPair(k, 1, (f"p{k}",), (f"q{k}",), None) for k in range(n))
    )


class TestSubsample:
    def test_identity_when_n_covers_all(self):
        partial = partial_corpus(5)
        assert subsample(partial, 5, seed=1) is partial
        assert subsample(partial, 99, seed=1) is partial

    def test_empty_sample(self):
        assert len(subsample(partial_corpus(5), 0, seed=1)) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            subsample(partial_corpus(2), -1, seed=1)

    def test_deterministic(self):
        partial = partial_corpus(1000)
        a = subsample(partial, 300, seed=42)
        b = subsample(partial, 300, seed=42)
        assert a == b
        assert len(a) == 300

    def test_preserves_relative_order(self):
        partial = partial_corpus(200)
        sample = subsample(partial, 50, seed=3)
        ids = [p.parent_id for p in sample]
        assert ids == sorted(ids)

    def test_sample_is_subset_without_replacement(self):
        partial = partial_corpus(100)
        sample = subsample(partial, 60, seed=9)
        counts = Counter(p.parent_id for p in sample)
        assert all(v == 1 for v in counts.values())


class TestMix:
    def test_doubles_the_full_corpus(self):
        mixed, manifest = mix(full_corpus(10), partial_corpus(200), seed=0)
        assert len(mixed) == 20
        assert manifest == MixManifest(10, 200, 10, 0)
        assert manifest.output_size == 20

    def test_empty_partial_gives_permutation_of_full(self):
        full = full_corpus(8)
        mixed, manifest = mix(full, partial_corpus(0), seed=5)
        assert Counter((p.source, p.target) for p in mixed) == Counter(
            (p.source, p.target) for p in full
        )
        assert manifest.partial_sampled == 0

    def test_empty_full_gives_empty_output(self):
        mixed, manifest = mix(full_corpus(0), partial_corpus(50), seed=5)
        assert len(mixed) == 0
        assert manifest.partial_sampled == 0

    def test_rows_renumbered_in_output_order(self):
        mixed, _ = mix(full_corpus(4), partial_corpus(9), seed=2)
        assert [p.id for p in mixed] == list(range(8))

    def test_multiset_identity(self):
        full = full_corpus(7)
        partial = partial_corpus(5)  # smaller than full: all of it is used
        mixed, manifest = mix(full, partial, seed=11)
        assert manifest.partial_sampled == 5
        expected = Counter((p.source, p.target) for p in full)
        expected += Counter((q.source_prefix, q.target_prefix) for q in partial)
        assert Counter((p.source, p.target) for p in mixed) == expected

    def test_seed_determinism(self):
        a, _ = mix(full_corpus(30), partial_corpus(90), seed=17)
        b, _ = mix(full_corpus(30), partial_corpus(90), seed=17)
        assert a == b

    def test_different_seeds_differ(self):
        a, _ = mix(full_corpus(30), partial_corpus(90), seed=17)
        b, _ = mix(full_corpus(30), partial_corpus(90), seed=18)
        assert a != b  # astronomically unlikely to collide

    @given(st.integers(0, 40), st.integers(0, 120), st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_size_law(self, n_full, n_partial, seed):
        mixed, manifest = mix(full_corpus(n_full), partial_corpus(n_partial), seed)
        assert manifest.partial_sampled == min(n_full, n_partial)
        assert len(mixed) == manifest.output_size
        assert len(mixed) == n_full + min(n_full, n_partial)
        full_rows = Counter((f"s{k}",) for k in range(n_full))
        out_full = Counter(p.source for p in mixed if p.source[0].startswith("s"))
        assert out_full == full_rows
        out_partial = Counter(p.source for p in mixed if p.source[0].startswith("p"))
        partial_rows = Counter((f"p{k}",) for k in range(n_partial))
        assert all(out_partial[row] <= partial_rows[row] for row in out_partial)


def prefix_lines(n: int) -> tuple[list[str], list[str]]:
    """n prefix rows as read_partial's input; every fifth target is empty."""
    return [f"p{k} r{k % 3}" for k in range(n)], ["" if k % 5 == 0 else f"q{k}" for k in range(n)]


class TestMixOverLazyRows:
    def test_tokenises_only_the_sampled_rows(self, monkeypatch):
        rows = read_partial(*prefix_lines(10_000))
        read = []
        lazy_getitem = type(rows).__getitem__

        def counting_getitem(self, index):
            read.append(index)
            return lazy_getitem(self, index)

        monkeypatch.setattr(type(rows), "__getitem__", counting_getitem)
        mixed, manifest = mix(full_corpus(10), rows, seed=3)
        assert manifest == MixManifest(10, 10_000, 10, 3)
        assert len(mixed) == 20
        assert 0 < len(read) <= 10

    @given(st.integers(0, 30), st.integers(0, 60), st.integers(0, 2**31))
    @settings(max_examples=100, deadline=None)
    def test_same_output_as_over_a_tuple(self, n_full, n_partial, seed):
        rows = read_partial(*prefix_lines(n_partial))
        assert mix(full_corpus(n_full), rows, seed) == mix(full_corpus(n_full), tuple(rows), seed)
        assert tuple(subsample(rows, n_full, seed)) == subsample(tuple(rows), n_full, seed)


# The growth in the traced peak of `mix` from 20,000 to 80,000 prefix rows
# (test_peak_does_not_grow_with_the_prefix_files), measured once with the
# eager reader that held every prefix line, on Python 3.11.
EAGER_PEAK_GROWTH = 8_030_597


def traced_mix_peak(directory, n_partial: int) -> int:
    """Peak traced bytes of one `mix` run over a 500-pair corpus and n_partial prefix rows."""
    src, tgt = prefix_lines(n_partial)
    files = {
        "f.src": [f"s{k} a b" for k in range(500)], "f.tgt": [f"t{k} c" for k in range(500)],
        "p.src": src, "p.tgt": tgt,
    }
    for name, lines in files.items():
        (directory / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    argv = ["mix", "--out-prefix", str(directory / "m")]
    for flag, name in (("--full-src", "f.src"), ("--full-tgt", "f.tgt"),
                       ("--partial-src", "p.src"), ("--partial-tgt", "p.tgt")):
        argv += [flag, str(directory / name)]
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


class TestMixMemory:
    def test_peak_does_not_grow_with_the_prefix_files(self, tmp_path):
        growth = traced_mix_peak(tmp_path, 80_000) - traced_mix_peak(tmp_path, 20_000)
        assert growth < EAGER_PEAK_GROWTH / 2
