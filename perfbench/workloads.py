"""Seeded inputs, command lists and output checks for the benchmark workloads.

Every workload is a list of ``retrans`` CLI invocations over files generated
from one seed. Sizes come from fixed multisets of sentence lengths that the
seed only shuffles, so the amount of work is the same for every seed and only
the content changes; run-to-run spread then reflects the program, not the
draw.
"""

from __future__ import annotations

import hashlib
import json
import random
import shlex
import sys
import zlib
from collections import defaultdict
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

HERE = Path(__file__).resolve().parent
TRANSLATOR = HERE / "translator.py"

DEFAULT_SEED = 1
"""Seed whose output digests are recorded in baseline.json."""

VOCAB = 3000
ZIPF_S = 1.1
EM_ITERATIONS = 5
NOISE_WORDS = 200

WHY = {
    "align-corpus": "EM alignment of a 2k-pair Zipf corpus, then prefix rows and mixing; "
    "EM does most of the work, so this exposes the aligner",
    "prefix-data": "prefix rows by both methods and mixing on 8k pairs with an external "
    "alignment file; no EM, so I/O, the prefix rule and mixing dominate and memory peaks",
    "talk-eval": "a 120-segment talk replayed through a child-process translator, then with a "
    "dictionary and refs, resegmented, and bleu, gleu, wer on 3k sentences; resegmenter and "
    "scoring dominate",
}


@dataclass(frozen=True)
class Command:
    """One CLI invocation: a metric label and its argv."""

    label: str
    argv: list[str]


# ---------------------------------------------------------------- generation


class _Lang:
    """Zipf-distributed source vocabulary with a noisy word-for-word target side."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.weights = [1.0 / (r ** ZIPF_S) for r in range(1, VOCAB + 1)]
        self.cum = list(accumulate(self.weights))
        self.ranks = list(range(VOCAB))

    def words(self, n: int, side: str = "s") -> list[str]:
        """n independent Zipf draws."""
        return [f"{side}{r}" for r in self.rng.choices(self.ranks, cum_weights=self.cum, k=n)]

    def sentences(self, lengths: list[int]) -> list[list[str]]:
        """Sentences of the given lengths dealt from one shuffled bag of tokens.

        The bag holds each word as often as its Zipf share of the total
        (largest remainder rounding), so the vocabulary and its frequencies,
        and with them table sizes and memory, are the same for every seed.
        """
        total = sum(lengths)
        shares = [total * w / self.cum[-1] for w in self.weights]
        counts = [int(x) for x in shares]
        by_remainder = sorted(self.ranks, key=lambda r: counts[r] - shares[r])
        for r in by_remainder[: total - sum(counts)]:
            counts[r] += 1
        bag = [f"s{r}" for r in self.ranks for _ in range(counts[r])]
        self.rng.shuffle(bag)
        starts = [0, *accumulate(lengths)]
        return [bag[a:b] for a, b in zip(starts, starts[1:])]

    def pair(self, source: list[str]) -> tuple[list[str], list[str], list[tuple[int, int]]]:
        """The source, its target and 0-based (i, j) links.

        The target drops len // 6 source words, inserts len // 10 unaligned
        function words and swaps some adjacent words, so its length is a
        fixed function of the source length.
        """
        rng = self.rng
        length = len(source)
        dropped = set(rng.sample(range(length), length // 6))
        target = [(f"t{w[1:]}", i) for i, w in enumerate(source) if i not in dropped]
        for _ in range(length // 10):
            target.insert(rng.randrange(len(target) + 1), (f"t{rng.randrange(10)}", None))
        for j in range(len(target) - 1):
            if rng.random() < 0.15:
                target[j], target[j + 1] = target[j + 1], target[j]
        links = sorted((i, j) for j, (_, i) in enumerate(target) if i is not None)
        return source, [w for w, _ in target], links


def _lengths(n: int, low: int, high: int, rng: random.Random) -> list[int]:
    """A fixed multiset of n lengths cycling through [low, high], shuffled."""
    lengths = [low + k % (high - low + 1) for k in range(n)]
    rng.shuffle(lengths)
    return lengths


def _noisy(words: list[str], lang: _Lang, rate: float) -> list[str]:
    """Substitute, delete or insert about ``rate`` of the words each."""
    out = []
    for w in words:
        x = lang.rng.random()
        if x < rate:
            out.append(lang.words(1, "t")[0])
        elif x < 2 * rate:
            continue
        else:
            out.append(w)
        if lang.rng.random() < rate:
            out.append(lang.words(1, "t")[0])
    return out


def _events(utterances: list[list[str]], rng: random.Random) -> list[str]:
    """JSON-lines update events streaming each utterance in 1-3 word steps.

    About 15% of the events are ASR revisions: a ``replace`` whose last word
    is wrong, always followed by a ``replace`` that corrects it, so the final
    source of every utterance is its true text.
    """
    lines = []

    def emit(uid: int, kind: str, words: list[str]) -> None:
        record = {"utterance_id": uid, "kind": kind, "text": " ".join(words)}
        lines.append(json.dumps(record))

    for uid, words in enumerate(utterances):
        k = 0
        wrong = False
        while k < len(words):
            new_k = min(len(words), k + rng.randint(1, 3))
            if wrong:
                emit(uid, "replace", words[:new_k])
                wrong = False
            elif k and rng.random() < 0.08:
                emit(uid, "replace", words[: new_k - 1] + [f"s{VOCAB + rng.randrange(NOISE_WORDS)}"])
                wrong = True
            else:
                emit(uid, "extend", words[k:new_k])
            k = new_k
        if wrong:
            emit(uid, "replace", words)
    return lines


def _write(path: Path, lines: list[str]) -> str:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def _scaled(n: int, scale: float) -> int:
    return max(3, round(n * scale))


def generate(workload: str, seed: int, scale: float, inputs: Path) -> dict:
    """Write the workload's inputs into ``inputs``; return their description.

    The description holds the input paths plus the facts the output checks
    need (pair counts, the unsegmented stream, and so on).
    """
    inputs.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    lang = _Lang(rng)
    spec: dict = {"workload": workload, "seed": seed, "scale": scale}
    if workload in ("align-corpus", "prefix-data"):
        n = _scaled(2000 if workload == "align-corpus" else 8000, scale)
        pairs = [lang.pair(s) for s in lang.sentences(_lengths(n, 5, 30, rng))]
        spec["src"] = _write(inputs / "corpus.src", [" ".join(s) for s, _, _ in pairs])
        spec["tgt"] = _write(inputs / "corpus.tgt", [" ".join(t) for _, t, _ in pairs])
        spec["pairs"] = n
        if workload == "prefix-data":
            spec["alignments"] = _write(
                inputs / "corpus.align",
                [" ".join(f"{i}-{j}" for i, j in links) for _, _, links in pairs],
            )
    elif workload == "talk-eval":
        talk = [lang.pair(s) for s in lang.sentences(_lengths(_scaled(120, scale), 5, 30, rng))]
        sources = [s for s, _, _ in talk]
        refs = [t for _, t, _ in talk]
        vocab = sorted({w for s in sources for w in s})
        lexicon = [f"{w}\tt{w[1:]}" for w in vocab if zlib.crc32(w.encode()) % 10]
        stream = _noisy([w for r in refs for w in r], lang, 0.05)
        cuts = [0]
        while cuts[-1] < len(stream):
            cuts.append(min(len(stream), cuts[-1] + rng.randint(5, 40)))
        test = [lang.pair(s)[1] for s in lang.sentences(_lengths(_scaled(3000, scale), 5, 30, rng))]
        spec["events"] = _write(inputs / "talk.jsonl", _events(sources, rng))
        spec["translator"] = f"cmd:{shlex.quote(sys.executable)} {shlex.quote(str(TRANSLATOR))}"
        spec["lexicon"] = _write(inputs / "lexicon.tsv", lexicon)
        spec["refs"] = _write(inputs / "refs.txt", [" ".join(r) for r in refs])
        spec["hyp_stream"] = _write(
            inputs / "stream.txt", [" ".join(stream[a:b]) for a, b in zip(cuts, cuts[1:])]
        )
        spec["segments"] = len(refs)
        spec["utterances"] = len(sources)
        spec["test_ref"] = _write(inputs / "test.ref", [" ".join(r) for r in test])
        spec["test_hyp"] = _write(
            inputs / "test.hyp", [" ".join(_noisy(r, lang, 0.08) or r[:1]) for r in test]
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return spec


# ------------------------------------------------------------------ commands


def commands(spec: dict, out: Path) -> list[Command]:
    """The CLI invocations of one measured iteration, writing into ``out``."""
    workload, seed = spec["workload"], str(spec["seed"])
    o = lambda name: str(out / name)  # noqa: E731
    if workload == "align-corpus":
        corpus = ["--src", spec["src"], "--tgt", spec["tgt"]]
        return [
            Command("align", ["align", *corpus, "--iterations", str(EM_ITERATIONS),
                              "--out", o("corpus.align"), "--table-out", o("table.tsv")]),
            Command("gen-partial", ["gen-partial", *corpus, "--method", "alignment",
                                    "--alignments", o("corpus.align"), "--out-prefix", o("alignment")]),
            _mix(spec, o, "alignment", seed),
        ]
    if workload == "prefix-data":
        corpus = ["--src", spec["src"], "--tgt", spec["tgt"]]
        return [
            Command("gen-partial", ["gen-partial", *corpus, "--method", "ratio",
                                    "--out-prefix", o("ratio")]),
            Command("gen-partial", ["gen-partial", *corpus, "--method", "alignment",
                                    "--alignments", spec["alignments"], "--out-prefix", o("alignment")]),
            _mix(spec, o, "alignment", seed),
        ]
    if workload == "talk-eval":
        score = ["score", "--hyp", spec["test_hyp"], "--ref", spec["test_ref"], "--metric"]
        return [
            Command("simulate", ["simulate", "--events", spec["events"],
                                 "--translator", spec["translator"],
                                 "--log-out", o("live.jsonl"), "--report-out", o("live.txt")]),
            Command("simulate", ["simulate", "--events", spec["events"],
                                 "--translator", f"dict:{spec['lexicon']}", "--refs", spec["refs"],
                                 "--log-out", o("session.jsonl"), "--report-out", o("report.txt")]),
            Command("reseg", ["reseg", "--hyp-stream", spec["hyp_stream"], "--refs", spec["refs"],
                              "--out", o("resegmented.txt")]),
            Command("score", [*score, "bleu"]),
            Command("score", [*score, "gleu"]),
            Command("score", [*score, "wer"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def _mix(spec: dict, o, prefix: str, seed: str) -> Command:
    return Command("mix", ["mix", "--full-src", spec["src"], "--full-tgt", spec["tgt"],
                           "--partial-src", o(f"{prefix}.src"), "--partial-tgt", o(f"{prefix}.tgt"),
                           "--out-prefix", o("mixed"), "--seed", seed])


def fixture_commands(fixtures: Path, out: Path, seed: int = 17) -> list[Command]:
    """The fixture walk of scripts/run_pipeline.py, as benchmark commands."""
    src, tgt = str(fixtures / "tiny.en"), str(fixtures / "tiny.es")
    o = lambda name: str(out / name)  # noqa: E731
    return [
        Command("align", ["align", "--src", src, "--tgt", tgt, "--iterations", "5",
                          "--out", o("tiny.align"), "--table-out", o("table.tsv")]),
        Command("gen-partial", ["gen-partial", "--src", src, "--tgt", tgt, "--method", "alignment",
                                "--alignments", o("tiny.align"), "--out-prefix", o("partial")]),
        Command("mix", ["mix", "--full-src", src, "--full-tgt", tgt,
                        "--partial-src", o("partial.src"), "--partial-tgt", o("partial.tgt"),
                        "--out-prefix", o("mixed"), "--seed", str(seed)]),
        Command("simulate", ["simulate", "--events", str(fixtures / "tiny.events.jsonl"),
                             "--translator", f"dict:{fixtures / 'tiny.lexicon.tsv'}",
                             "--refs", str(fixtures / "tiny.refs.txt"),
                             "--log-out", o("session.jsonl"), "--report-out", o("report.txt")]),
        Command("reseg", ["reseg", "--hyp-stream", str(fixtures / "tiny.hyp.es"), "--refs", tgt,
                          "--out", o("resegmented.txt")]),
        Command("score", ["score", "--hyp", o("resegmented.txt"), "--ref", tgt, "--metric", "bleu"]),
    ]


# -------------------------------------------------------------------- checks


def _lines(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").split("\n")[:-1]


def _report(text: str) -> dict[str, float]:
    values = {}
    for line in text.splitlines():
        key, sep, value = line.replace(":", "\t", 1).partition("\t")
        if sep:
            values[key.strip()] = float(value)
    return values


def digest(out: Path, stdouts: list[str]) -> str:
    """sha256 over every output file (by name) and every command's stdout."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    for text in stdouts:
        h.update(text.encode() + b"\0")
    return h.hexdigest()


def check(spec: dict, out: Path, stdouts: list[str]) -> list[str]:
    """Invariants that hold for every seed; returns the violated ones."""
    problems: list[str] = []
    workload = spec["workload"]

    def need(ok: bool, what: str) -> None:
        if not ok:
            problems.append(f"{workload}: {what}")

    if workload == "align-corpus":
        need(len(_lines(out / "corpus.align")) == spec["pairs"], "one alignment line per pair")
    if workload in ("align-corpus", "prefix-data"):
        methods = ["alignment"] + (["ratio"] if workload == "prefix-data" else [])
        for method in methods:
            need(_prefixes_nest(out, method), f"{method} prefix targets nest within each parent")
        full = spec["pairs"]
        total = len(_lines(out / "alignment.src"))
        mixed = _report((out / "mixed.manifest.txt").read_text(encoding="utf-8"))
        size = full + min(full, total)
        need(
            mixed.get("output_size") == size
            and len(_lines(out / "mixed.src")) == size
            and len(_lines(out / "mixed.tgt")) == size,
            "mix size law full + min(full, partial)",
        )
    if workload == "talk-eval":
        for k, log in enumerate(("live.jsonl", "session.jsonl")):
            reported = _report(stdouts[k])
            recount = _recount(out / log)
            for key in ("word_up", "mssg_up", "updates_total"):
                need(reported.get(key) == recount[key], f"{key} equals the recount from {log}")
            need(recount["utterances"] == spec["utterances"], f"one {log} entry per utterance")
        need(0.0 <= _report(stdouts[1]).get("bleu", -1) <= 1.0, "session bleu in [0, 1]")
        pieces = _lines(out / "resegmented.txt")
        stream = [w for line in _lines(Path(spec["hyp_stream"])) for w in line.split()]
        need(len(pieces) == spec["segments"], "one resegmented piece per reference")
        need([w for p in pieces for w in p.split()] == stream, "pieces concatenate to the stream")
        need(0.0 <= _report(stdouts[3]).get("bleu", -1) <= 1.0, "bleu in [0, 1]")
        need(0.0 <= _report(stdouts[4]).get("gleu", -1) <= 1.0, "gleu in [0, 1]")
        need(_report(stdouts[5]).get("wer", -1) >= 0.0, "wer >= 0")
    return problems


def _prefixes_nest(out: Path, method: str) -> bool:
    """Within each parent, each prefix row's target extends the previous one."""
    rows = _lines(out / f"{method}.manifest.tsv")[1:]
    targets = _lines(out / f"{method}.tgt")
    if len(rows) != len(targets):
        return False
    last: dict[str, list[str]] = {}
    for row, target in zip(rows, targets):
        parent = row.split("\t", 1)[0]
        words = target.split()
        previous = last.get(parent, [])
        if words[: len(previous)] != previous:
            return False
        last[parent] = words
    return True


def _recount(log: Path) -> dict[str, int]:
    """word_up, mssg_up and updates_total recomputed from a --log-out file."""
    by_utterance: dict[int, list[list[str]]] = defaultdict(list)
    for line in _lines(log):
        record = json.loads(line)
        by_utterance[record["utterance_id"]].append(record["translation"].split())
    words = messages = updates = 0
    for translations in by_utterance.values():
        for prev, new in zip(translations, translations[1:]):
            common = 0
            for a, b in zip(prev, new):
                if a != b:
                    break
                common += 1
            changed = len(prev) - common
            words += changed
            messages += changed > 0
            updates += 1
    return {"word_up": words, "mssg_up": messages, "updates_total": updates,
            "utterances": len(by_utterance)}
