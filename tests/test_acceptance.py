"""Acceptance suite: one test per release criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Every tolerance is pinned here; a failure prints through pytest
as usual.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from pathlib import Path

import pytest

from retrans.aligner import log_likelihood, train_model1
from retrans.cli import main
from retrans.corpus import (
    Alignment,
    ParallelCorpus,
    SentencePair,
    read_lines,
    read_parallel,
    tokenize,
)
from retrans.metrics import bleu, correction_report, edit_distance, gleu, resegment
from retrans.mixing import mix
from retrans.partials import Method, PartialCorpus, PartialPair, alignment_prefix_len, generate_partial
from retrans.session import (
    UpdateEvent,
    dictionary_translator,
    evaluate_sessions,
    read_events,
    run_session,
    scripted_translator,
)

from oracles import prefix_len_bruteforce, resegment_bruteforce
from run_pipeline import steps


def verdict(number: int, description: str) -> None:
    print(f"PASS criterion {number}: {description}")


def test_criterion_1_worked_example_session(fixtures):
    started = time.perf_counter()
    script = {
        "i": "yo",
        "i encourage all of": "yo animo a todo el mundo",
        "i encourage all of you": "yo animo a todos ustedes",
    }
    events = [
        UpdateEvent(0, "replace", "i"),
        UpdateEvent(0, "replace", "i encourage all of"),
        UpdateEvent(0, "replace", "i encourage all of you"),
    ]
    logs = run_session(events, scripted_translator(script))
    report = evaluate_sessions(logs, [tokenize("yo animo a todos ustedes")])
    assert report.words_updated == 3
    assert report.messages_updated == 1
    assert report.bleu == 1.0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    verdict(1, f"scripted session gives Word Up 3, Mssg Up 1, BLEU 1.0 ({elapsed:.3f}s)")


def test_criterion_2_replay_regression(fixtures):
    started = time.perf_counter()
    events = read_events(read_lines(fixtures / "replay.events.jsonl"))
    per_utterance = {}
    for name in ("baseline", "multitask"):
        script = {}
        for line in read_lines(fixtures / f"replay.{name}.tsv"):
            key, value = line.split("\t")
            script[key] = value
        logs = run_session(events, scripted_translator(script))
        per_utterance[name] = [
            correction_report(log.translations).words_updated for log in logs
        ]
    for base, multi in zip(per_utterance["baseline"], per_utterance["multitask"]):
        assert base > multi
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    verdict(
        2,
        f"baseline rewrites {per_utterance['baseline']} exceed multi-task "
        f"{per_utterance['multitask']} on both utterances ({elapsed:.3f}s)",
    )


def test_criterion_3_prefix_length_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20240)
    disagreements = 0
    for _ in range(10_000):
        src_len = rng.randint(1, 12)
        tgt_len = rng.randint(1, 12)
        links = frozenset(
            (rng.randint(1, src_len), rng.randint(1, tgt_len))
            for _ in range(rng.randint(0, src_len * tgt_len // 2))
        )
        alignment = Alignment(src_len, tgt_len, links)
        i = rng.randint(1, src_len)
        if alignment_prefix_len(alignment, i) != prefix_len_bruteforce(links, i, tgt_len):
            disagreements += 1
    elapsed = time.perf_counter() - started
    assert disagreements == 0
    assert elapsed < 10.0
    verdict(3, f"10000 random instances, 0 disagreements with brute force ({elapsed:.2f}s)")


def test_criterion_4_prefix_monotonicity():
    rng = random.Random(555)
    vocab = [f"w{k}" for k in range(9)]
    violations = 0
    for _ in range(10_000):
        src_len = rng.randint(1, 12)
        tgt_len = rng.randint(1, 12)
        source = tuple(rng.choice(vocab) for _ in range(src_len))
        target = tuple(rng.choice(vocab) for _ in range(tgt_len))
        corpus = ParallelCorpus((SentencePair(0, source, target),))
        links = frozenset(
            (rng.randint(1, src_len), rng.randint(1, tgt_len))
            for _ in range(rng.randint(0, src_len * tgt_len // 2))
        )
        alignments = [Alignment(src_len, tgt_len, links)]
        for method, supplied in ((Method.RATIO, None), (Method.ALIGNMENT, alignments)):
            rows = list(generate_partial(corpus, method, supplied))
            for shorter, longer in zip(rows, rows[1:]):
                if longer.target_prefix[: shorter.j] != shorter.target_prefix:
                    violations += 1
            if rows[-1].target_prefix != target:
                violations += 1
    assert violations == 0
    verdict(4, "10000 random rows, both methods: prefixes nest and complete at i=I")


def test_criterion_5_mixer_size_law():
    rng = random.Random(61)
    for _ in range(200):
        n_full = rng.randint(1, 40)
        n_partial = rng.randint(n_full, n_full + 160)
        full = ParallelCorpus(
            tuple(SentencePair(k, (f"s{k}",), (f"t{k}",)) for k in range(n_full))
        )
        partial = PartialCorpus(
            tuple(
                PartialPair(k, 1, (f"p{k}",), (f"q{k}",), None)
                for k in range(n_partial)
            )
        )
        seed = rng.randint(0, 2**32)
        mixed, manifest = mix(full, partial, seed)
        assert len(mixed) == 2 * n_full
        assert manifest.partial_sampled == n_full
        out_rows = Counter((p.source, p.target) for p in mixed)
        in_rows = Counter((p.source, p.target) for p in full)
        in_rows += Counter((q.source_prefix, q.target_prefix) for q in partial)
        assert all(out_rows[row] <= in_rows[row] for row in out_rows)
        assert sum(out_rows.values()) == 2 * n_full
        again, _ = mix(full, partial, seed)
        assert again == mixed
    verdict(5, "200 random sizes: output is 2x full, a multiset-subset, and seed-stable")


def test_criterion_6_em_ascent():
    rng = random.Random(90125)
    for _ in range(100):
        n_pairs = rng.randint(1, 20)
        src_vocab = [f"s{k}" for k in range(rng.randint(1, 10))]
        tgt_vocab = [f"t{k}" for k in range(rng.randint(1, 10))]
        pairs = tuple(
            SentencePair(
                k,
                tuple(rng.choice(src_vocab) for _ in range(rng.randint(1, 5))),
                tuple(rng.choice(tgt_vocab) for _ in range(rng.randint(1, 5))),
            )
            for k in range(n_pairs)
        )
        corpus = ParallelCorpus(pairs)
        previous = None
        for iterations in range(1, 11):
            table = train_model1(corpus, iterations)
            for row in table.probs.values():
                assert abs(sum(row.values()) - 1.0) <= 1e-6
            ll = log_likelihood(table, corpus)
            if previous is not None:
                assert ll >= previous - 1e-9
            previous = ll
    fixture = read_parallel(["la maison", "la"], ["the house", "the"])
    assert train_model1(fixture, 10).prob("la", "the") > 0.9
    verdict(6, "100 random corpora: likelihood ascends, rows normalized; t(the|la) > 0.9")


def test_criterion_7_metric_oracles():
    score = bleu([tokenize("a b c d")], [tokenize("a b c d e f g h")])
    assert score == pytest.approx(0.3679, abs=1e-4)
    reward = gleu(tokenize("yo animo a todo el mundo"), tokenize("yo animo a"))
    assert reward == pytest.approx(1 / 3, abs=1e-6)
    rng = random.Random(40)
    for _ in range(300):
        n = rng.randint(0, 12)
        stream = tuple(rng.choice("abc") for _ in range(n))
        refs = [
            tuple(rng.choice("abc") for _ in range(rng.randint(0, 5)))
            for _ in range(rng.randint(1, 4))
        ]
        got = resegment(stream, refs)
        want, want_cost = resegment_bruteforce(stream, refs)
        assert got == [tuple(w) for w in want]
        assert sum(edit_distance(s, r) for s, r in zip(got, refs)) == want_cost
    verdict(
        7,
        "BLEU 0.3679 +/- 1e-4, GLEU 1/3 +/- 1e-6, resegment = exhaustive "
        "enumeration on 300 bounded instances",
    )


def test_criterion_8_prefix_stable_translator_never_corrects():
    rng = random.Random(8132)
    vocab = [f"w{k}" for k in range(12)]
    lexicon = {w: w.upper() for w in vocab[:6]}
    translate = dictionary_translator(lexicon)
    total_words = 0
    total_messages = 0
    for utterance in range(1000):
        events = [
            UpdateEvent(
                utterance,
                "replace",
                " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 4))),
            )
        ]
        for _ in range(rng.randint(1, 6)):
            events.append(
                UpdateEvent(
                    utterance,
                    "extend",
                    " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 4))),
                )
            )
        logs = run_session(events, translate)
        report = evaluate_sessions(logs, [("x",)])
        total_words += report.words_updated
        total_messages += report.messages_updated
    assert total_words == 0
    assert total_messages == 0
    verdict(8, "1000 extend-only streams under a prefix-stable translator: 0 rewrites")


def run_pipeline(workdir: Path, fixtures: Path) -> list[bytes]:
    """Drive every subcommand over the bundled corpus; returns artifact bytes."""
    import contextlib
    import io

    workdir.mkdir(parents=True, exist_ok=True)
    captured = io.StringIO()
    for argv in steps(fixtures, workdir, 17):
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        assert code == 0, argv
    artifacts = [
        (workdir / name).read_bytes()
        for name in sorted(p.name for p in workdir.iterdir())
    ]
    artifacts.append(captured.getvalue().encode("utf-8"))
    return artifacts


def test_criterion_9_pipeline_determinism(tmp_path, fixtures):
    started = time.perf_counter()
    first = run_pipeline(tmp_path / "run1", fixtures)
    second = run_pipeline(tmp_path / "run2", fixtures)
    elapsed = time.perf_counter() - started
    assert first == second
    assert elapsed < 30.0
    verdict(9, f"two full pipeline runs are byte-identical ({elapsed:.2f}s)")


# sha256 of every fixture-pipeline artifact, by file name, plus the captured
# stdout. Recorded before the resegmenter, report and corpus types were
# consolidated; a change that alters any output byte fails here.
GOLDEN_DIGESTS = {
    "mixed.manifest.txt": "27b5862c30f4ade26c29b0d82a063c20834eea01e240bf7dbec56a24073a9181",
    "mixed.src": "269733cf41875399c0ddef659a40827b26d975bd52fd322cd4e4da2ae20ec5cc",
    "mixed.tgt": "90afdf664fe3aebd96acc4de60741a05c984ec2786b2d96c0157465b4c324af4",
    "partial.manifest.tsv": "8149b144ec1caa1bf53f5c714a0f6230cfe9684d8cffa237c0f544db9a543f0f",
    "partial.src": "9e7404a9887608cbbdea5c88cba5d286065511093e9949f07a903245a2f9ba5d",
    "partial.tgt": "9909e9e87408a99800e9e98c01c0cd223698e692ff1ef0bc825fd38500b1c331",
    "report.txt": "c87c037f98ed283994556d6b45ae72b9ebbd41d4321824a8382ab7c031e5e66d",
    "resegmented.txt": "df9ddd5c53ede13058da71d9fc7689729559fb31d6224250f75e47675709a210",
    "session.jsonl": "f9424b7b12774a1f2a2f1bf396651cf9d29cf091666ab844049fd6fe0b37cdb0",
    "table.tsv": "7b68b19958de5a97a22805ec3e5142e16e929e18f7bba67d412f4006a5236ac2",
    "tiny.align": "b1149b1e0d0b676c8aaf1543dc12317ce6d6f68fa9ec3106fa1a42e9d8cc265e",
    "<stdout>": "4a03dfb889e25f7552fde04d79e9f8d2ec11642f2a61cf1b5019b3b73da75207",
}


def test_criterion_9_pipeline_golden_digests(tmp_path, fixtures):
    workdir = tmp_path / "run"
    artifacts = run_pipeline(workdir, fixtures)
    names = sorted(p.name for p in workdir.iterdir()) + ["<stdout>"]
    got = {name: hashlib.sha256(data).hexdigest() for name, data in zip(names, artifacts)}
    assert got == GOLDEN_DIGESTS
    verdict(9, f"all {len(got)} pipeline outputs match their recorded sha256 digests")
