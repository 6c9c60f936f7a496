"""Retranslation session simulation against a pluggable translator.

A session replays an ordered stream of source updates (replacements of or
extensions to the current source), retranslates the whole source after each
update, and records every displayed translation, so rewrite metrics and
final-output quality can be measured exactly as a live captioning interface
would experience them.
"""

from __future__ import annotations

import json
import queue
import shlex
import subprocess
import threading
import warnings
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, replace

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
    current_id: int | None = None
    current: Tokens = ()
    steps: list[tuple[Tokens, Tokens]] = []

    def close_current() -> None:
        if current_id is not None:
            logs.append(SessionLog(current_id, tuple(steps)))

    for event in events:
        if event.utterance_id != current_id:
            if event.utterance_id in seen:
                raise EventOrderError(
                    f"utterance {event.utterance_id} reappears after other events"
                )
            close_current()
            seen.add(event.utterance_id)
            current_id = event.utterance_id
            current = ()
            steps = []
        current = apply_event(current, event)
        try:
            translation = tuple(translator(current))
        except Exception as exc:
            raise TranslatorError(event.utterance_id, len(steps), str(exc)) from exc
        steps.append((current, translation))
    close_current()
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
    line on stdout, flushed per line. A per-line timeout guards against a
    hung child. After a timeout every later call raises at once: a reply
    that arrives late would otherwise be taken for the next source's.
    Close (or use as a context manager) to terminate the child.
    """

    def __init__(self, command: str | Sequence[str], timeout: float = 30.0) -> None:
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        self.timeout = timeout
        self._proc = subprocess.Popen(
            argv,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            encoding="utf-8",
            bufsize=1,
        )
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._timed_out: str | None = None
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        assert self._proc.stdout is not None
        for line in self._proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def __call__(self, source: Tokens) -> Tokens:
        if self._timed_out is not None:
            raise RuntimeError(
                f"translator is out of step since an earlier call timed out "
                f"({self._timed_out})"
            )
        assert self._proc.stdin is not None
        self._proc.stdin.write(detokenize(source) + "\n")
        self._proc.stdin.flush()
        try:
            line = self._lines.get(timeout=self.timeout)
        except queue.Empty:
            self._timed_out = f"translator produced no output within {self.timeout}s"
            raise TimeoutError(self._timed_out) from None
        if line is None:
            raise RuntimeError("translator process closed its output")
        return tuple(line.split())

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
            try:
                self._proc.wait(timeout=5)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()

    def __enter__(self) -> "CommandTranslator":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_events(lines: Iterable[str]) -> list[UpdateEvent]:
    """Parse update events from JSON-lines text; blank lines are skipped."""
    events = []
    for no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise EventParseError(f"line {no}: invalid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise EventParseError(f"line {no}: expected an object")
        try:
            utterance_id = record["utterance_id"]
            kind = record["kind"]
            text = record["text"]
        except KeyError as exc:
            raise EventParseError(f"line {no}: missing key {exc}") from None
        if not isinstance(utterance_id, int) or isinstance(utterance_id, bool):
            raise EventParseError(f"line {no}: utterance_id must be an integer")
        if kind not in KINDS or not isinstance(text, str):
            raise EventParseError(f"line {no}: bad kind or text")
        events.append(UpdateEvent(utterance_id, kind, text))
    return events


def event_lines(events: Sequence[UpdateEvent]) -> list[str]:
    """Render events back to JSON-lines text."""
    return [
        json.dumps(
            {"utterance_id": e.utterance_id, "kind": e.kind, "text": e.text},
            ensure_ascii=False,
        )
        for e in events
    ]


def load_tsv_map(lines: Iterable[str], *, what: str) -> dict[str, str]:
    """Load a two-column tab-separated mapping (lexicon or replay script)."""
    mapping: dict[str, str] = {}
    for no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        left, sep, right = line.partition("\t")
        if not sep or not left.strip() or not right.strip():
            raise DataError(f"{what} line {no}: expected 'source<TAB>target'")
        mapping[left.strip()] = right.strip()
    return mapping
