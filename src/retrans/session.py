"""Retranslation session simulation against a pluggable translator.

A session replays an ordered stream of source updates (replacements of or
extensions to the current source), retranslates the whole source after each
update, and records every displayed translation, so rewrite metrics and
final-output quality can be measured exactly as a live captioning interface
would experience them.
"""

from __future__ import annotations

import contextlib
import json
import queue
import shlex
import subprocess
import threading
import warnings
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, replace
from itertools import groupby
from operator import attrgetter

from .corpus import Tokens, detokenize, tokenize
from .errors import (
    DataError,
    EventOrderError,
    EventParseError,
    NoOpEventWarning,
    TranslatorError,
)
from .metrics import CorrectionReport, bleu, correction_report, resegment

Translator = Callable[[Tokens], Tokens]
"""Total deterministic function from a (possibly partial) source to a translation."""

KINDS = ("replace", "extend")


@dataclass(frozen=True)
class UpdateEvent:
    """One source update: replace the current source or append to it."""

    utterance_id: int
    kind: str
    text: str

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class SessionLog:
    """Every (source, translation) step of one utterance, in update order."""

    utterance_id: int
    steps: tuple[tuple[Tokens, Tokens], ...]

    @property
    def final_translation(self) -> Tokens:
        return self.steps[-1][1] if self.steps else ()

    @property
    def translations(self) -> list[Tokens]:
        return [translation for _, translation in self.steps]


def apply_event(current: Tokens, event: UpdateEvent) -> Tokens:
    """Fold one update into the current source.

    An extend event with no tokens is reported as a no-op warning and leaves
    the state unchanged.
    """
    if event.kind == "replace":
        return tokenize(event.text)
    if not event.text.split():
        warnings.warn(
            f"extend event with empty text on utterance {event.utterance_id}",
            NoOpEventWarning,
            stacklevel=2,
        )
        return current
    return current + tokenize(event.text)


def run_session(events: Sequence[UpdateEvent], translator: Translator) -> list[SessionLog]:
    """Replay update events through a translator, one log per utterance.

    Events must arrive grouped by utterance id. Each event produces exactly
    one step; a translator exception aborts with the utterance id and step
    index that failed.
    """
    logs: list[SessionLog] = []
    seen: set[int] = set()
    for utterance_id, group in groupby(events, key=attrgetter("utterance_id")):
        if utterance_id in seen:
            raise EventOrderError(f"utterance {utterance_id} reappears after other events")
        seen.add(utterance_id)
        current: Tokens = ()
        steps: list[tuple[Tokens, Tokens]] = []
        for event in group:
            current = apply_event(current, event)
            try:
                translation = tuple(translator(current))
            except Exception as exc:
                raise TranslatorError(utterance_id, len(steps), str(exc)) from exc
            steps.append((current, translation))
        logs.append(SessionLog(utterance_id, tuple(steps)))
    return logs


def evaluate_sessions(
    logs: Sequence[SessionLog], ref_segments: Sequence[Tokens] | None = None
) -> CorrectionReport:
    """Sum the rewrite counts of a batch of session logs, and score them.

    Without references only the counts are returned (bleu is None). With
    references the final translations are concatenated into one stream,
    re-split against the references to undo any segmentation mismatch, and
    scored with corpus BLEU; that needs at least one log.
    """
    totals = sum(
        (correction_report(log.translations) for log in logs), CorrectionReport(0, 0, 0)
    )
    if ref_segments is None:
        return totals
    if not logs:
        raise ValueError("need at least one session log")
    stream = tuple(token for log in logs for token in log.final_translation)
    segments = resegment(stream, ref_segments)
    return replace(totals, bleu=bleu(segments, ref_segments))


def identity_translator(source: Tokens) -> Tokens:
    """Copy the source through unchanged."""
    return source


def dictionary_translator(lexicon: Mapping[str, str]) -> Translator:
    """Word-by-word lookup; out-of-vocabulary tokens are copied through.

    Monotone by construction, so extending the source only ever extends the
    translation.
    """

    def translate(source: Tokens) -> Tokens:
        return tuple(lexicon.get(token, token) for token in source)

    return translate


def scripted_translator(script: Mapping[str, str]) -> Translator:
    """Exact-match replay of recorded outputs, keyed by detokenized source.

    Unscripted sources fall back to the identity translation.
    """

    def translate(source: Tokens) -> Tokens:
        line = script.get(detokenize(source))
        if line is None:
            return source
        return tokenize(line)

    return translate


class CommandTranslator:
    """Adapter for an external translator child process.

    Protocol: one detokenized source per line on stdin, one translation per
    line on stdout, flushed per line. Replies are UTF-8 lines that end at
    "\n" only, as in corpus.read_lines, so a lone "\r" never splits a reply;
    invalid UTF-8 raises at once. A per-line timeout guards against a hung
    child. After a timeout, a closed output or a reply line nobody asked for,
    every later call raises at once: a stray reply would otherwise be taken
    for the next source's. Close (or use as a context manager) to terminate
    the child and close its input; the reader closes the output once it
    ends, which a grandchild holding the pipe may delay but never blocks
    close().
    """

    def __init__(self, command: str | Sequence[str], timeout: float = 30.0) -> None:
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        self.timeout = timeout
        self._proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self._lines: queue.Queue[bytes | None] = queue.Queue()
        self._broken: str | None = None
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        assert self._proc.stdout is not None
        # The reader closes stdout itself: a close from another thread would
        # wait for this read, which a grandchild holding the pipe keeps open.
        with self._proc.stdout as stdout:
            for line in stdout:
                self._lines.put(line)
        self._lines.put(None)

    def __call__(self, source: Tokens) -> Tokens:
        if self._broken is None and not self._lines.empty():
            extra = self._lines.get()
            self._broken = (
                "its process closed its output" if extra is None
                else f"it printed an extra line {extra!r}"
            )
        if self._broken is not None:
            raise RuntimeError(f"translator is out of step since {self._broken}")
        assert self._proc.stdin is not None
        self._proc.stdin.write(detokenize(source).encode("utf-8") + b"\n")
        self._proc.stdin.flush()
        try:
            line = self._lines.get(timeout=self.timeout)
        except queue.Empty:
            message = f"translator produced no output within {self.timeout}s"
            self._broken = f"an earlier call timed out ({message})"
            raise TimeoutError(message) from None
        if line is None:
            self._broken = "its process closed its output"
            raise RuntimeError("translator process closed its output")
        # str.split() drops the "\n" and a "\r" before it with the other blanks.
        return tuple(line.decode("utf-8").split())

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        assert self._proc.stdin is not None
        with contextlib.suppress(BrokenPipeError):
            self._proc.stdin.close()

    def __enter__(self) -> "CommandTranslator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_events(lines: Iterable[str], *, what: str = "events") -> list[UpdateEvent]:
    """Parse update events from JSON-lines text; blank lines are skipped.

    A replace event must carry at least one token, since it becomes the
    whole source. what names the lines in error messages, such as the path
    they came from.
    """
    events = []
    for no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise EventParseError(f"{what} line {no}: invalid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise EventParseError(f"{what} line {no}: expected an object")
        try:
            utterance_id = record["utterance_id"]
            kind = record["kind"]
            text = record["text"]
        except KeyError as exc:
            raise EventParseError(f"{what} line {no}: missing key {exc}") from None
        if not isinstance(utterance_id, int) or isinstance(utterance_id, bool):
            raise EventParseError(f"{what} line {no}: utterance_id must be an integer")
        if kind not in KINDS or not isinstance(text, str):
            raise EventParseError(f"{what} line {no}: bad kind or text")
        if kind == "replace" and not text.split():
            raise EventParseError(
                f"{what} line {no}: replace event for utterance {utterance_id} has no tokens"
            )
        events.append(UpdateEvent(utterance_id, kind, text))
    return events


def load_tsv_map(lines: Iterable[str], *, what: str) -> dict[str, str]:
    """Load a two-column tab-separated mapping (lexicon or replay script).

    Keys are whitespace-normalised as input lines are tokenised, so a key
    with inner runs of spaces matches the detokenized source. what names the
    lines in error messages, such as the path they came from.
    """
    mapping: dict[str, str] = {}
    for no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        left, sep, right = line.partition("\t")
        if not sep or not left.strip() or not right.strip():
            raise DataError(f"{what} line {no}: expected 'source<TAB>target'")
        mapping[" ".join(left.split())] = right.strip()
    return mapping
