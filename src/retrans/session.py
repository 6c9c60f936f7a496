"""Retranslation session simulation against a pluggable translator.

A session replays an ordered stream of source updates (replacements of or
extensions to the current source), retranslates the whole source after each
update, and records every displayed translation, so rewrite metrics and
final-output quality can be measured exactly as a live captioning interface
would experience them.
"""

from __future__ import annotations

import codecs
import contextlib
import json
import os
import selectors
import shlex
import subprocess
import sys
import time
import warnings
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
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


def run_session(
    events: Sequence[UpdateEvent], translator: Translator | CommandTranslator
) -> list[SessionLog]:
    """Replay update events through a translator, one log per utterance.

    Events must arrive grouped by utterance id, which is checked, with every
    source built, before the first translation. A CommandTranslator gets the
    sources as one stream, so it serves one session; any other translator is
    called once per source. Each event produces exactly one step; a
    translator exception aborts with the utterance id and step that failed.
    """
    sources: list[Tokens] = []
    positions: list[tuple[int, int]] = []  # (utterance id, step) of each source
    seen: set[int] = set()
    for utterance_id, group in groupby(events, key=attrgetter("utterance_id")):
        if utterance_id in seen:
            raise EventOrderError(f"utterance {utterance_id} reappears after other events")
        seen.add(utterance_id)
        current: Tokens = ()
        for step, event in enumerate(group):
            current = apply_event(current, event)
            sources.append(current)
            positions.append((utterance_id, step))
    if not sources:
        return []
    if isinstance(translator, CommandTranslator):
        replies: Iterable[Tokens] = translator.stream(sources)
    else:
        replies = map(translator, sources)
    translations: list[Tokens] = []
    try:
        # Pulled to its end: a stream checks for extra output after its last reply.
        for translation in replies:
            translations.append(tuple(translation))
    except Exception as exc:
        utterance_id, step = positions[min(len(translations), len(positions) - 1)]
        raise TranslatorError(utterance_id, step, str(exc)) from exc
    rows = groupby(zip(positions, sources, translations), key=lambda row: row[0][0])
    return [SessionLog(u, tuple((s, t) for _, s, t in group)) for u, group in rows]


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
    """Adapter for an external translator child process (POSIX only).

    Protocol: one detokenized source per line on stdin, one translation per
    line on stdout, as UTF-8 lines that end at "\n" only (corpus.read_lines'
    rule). stream() serves one session, and a second call raises at once.
    One selector loop writes every source ahead of the replies, closes the
    input after the last, and reads the output and the stderr; after the
    last reply any byte of output is extra. The timeout bounds the wait for
    each reply line and for the output's end. The child's stderr is passed
    through, and its last 2 KiB end every failure.
    """

    def __init__(self, command: str | Sequence[str], timeout: float = 30.0) -> None:
        argv = shlex.split(command) if isinstance(command, str) else list(command)
        self.timeout = timeout
        pipe = subprocess.PIPE
        self._proc = proc = subprocess.Popen(argv, stdin=pipe, stdout=pipe, stderr=pipe)
        os.set_blocking(proc.stdin.fileno(), False)
        self._poller = selectors.DefaultSelector()
        self._poller.register(proc.stdout, selectors.EVENT_READ)
        self._poller.register(proc.stderr, selectors.EVENT_READ)
        self._unsent, self._streamed = memoryview(b""), False
        self._replies, self._ended = bytearray(), False  # unread output; whether it ended
        self._tail, self._echo = b"", codecs.getincrementaldecoder("utf-8")("replace")

    def _poll(self, timeout: float) -> None:
        """Wait up to timeout for the pipes, then write and read what is ready.

        Once the child has exited, a read that finds no output ends the output,
        even while a grandchild still holds the pipe.
        """
        exited = self._proc.poll() is not None
        ready = self._poller.select(0 if exited else timeout)
        self._ended |= exited and all(key.fileobj is not self._proc.stdout for key, _ in ready)
        for key, _ in ready:
            if key.fileobj is self._proc.stdin:
                try:
                    self._unsent = self._unsent[os.write(key.fd, self._unsent) :]
                except BrokenPipeError:  # the child is gone; what it wrote is still read
                    self._unsent = self._unsent[:0]
                if not self._unsent:
                    self._poller.unregister(self._proc.stdin)
                    self._proc.stdin.close()
            elif not (chunk := os.read(key.fd, 65536)):
                self._poller.unregister(key.fileobj)
                self._ended |= key.fileobj is self._proc.stdout
            elif key.fileobj is self._proc.stdout:
                self._replies += chunk
            else:
                self._tail = (self._tail + chunk)[-2048:]
                sys.stderr.write(self._echo.decode(chunk))

    def _fail(self, exc: Exception) -> Exception:
        """End exc's message with the stderr tail."""
        self._poll(0)
        if self._tail:
            tail = f"; its stderr ends {self._tail.decode('utf-8', 'replace')!r}"
            if isinstance(exc, UnicodeDecodeError):
                exc.reason += tail
            else:
                exc.args = (f"{exc}{tail}",)
        return exc

    def _line(self, wait: str) -> bytearray:
        """The next output line, or the rest at the output's end; a timeout raises, naming wait."""
        deadline = time.monotonic() + self.timeout
        while (end := self._replies.find(b"\n") + 1) == 0 and not self._ended:
            if (left := deadline - time.monotonic()) <= 0:
                raise self._fail(TimeoutError("translator " + wait.format(self.timeout)))
            self._poll(min(left, 0.05))  # short waits notice an exited child
        line = self._replies[: end or len(self._replies)]
        del self._replies[: len(line)]
        return line

    def stream(self, sources: Sequence[Tokens]) -> Iterator[Tokens]:
        """Translate sources in order, once; the output must end after the last reply."""
        if self._streamed:
            raise RuntimeError("translator has served its one stream; start a new one")
        self._streamed = True
        self._unsent = memoryview("".join(f"{detokenize(s)}\n" for s in sources).encode("utf-8"))
        self._poller.register(self._proc.stdin, selectors.EVENT_WRITE)
        return self._read(len(sources))

    def _read(self, n: int) -> Iterator[Tokens]:
        for _ in range(n):
            if not (line := self._line("produced no output within {}s")):
                raise self._fail(RuntimeError("translator process closed its output"))
            try:
                reply = line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise self._fail(exc) from None
            yield tuple(reply.split())  # drops the "\n" and a "\r" before it with the blanks
        if extra := self._line("output did not end within {}s of its input closing"):
            message = f"translator output ran past the last reply: {bytes(extra[:80])!r}"
            raise self._fail(RuntimeError(message))

    def close(self) -> None:
        """Close the pipes and end the child; one never streamed to gets 5 s to exit."""
        self._poller.close()
        for pipe in (self._proc.stdin, self._proc.stdout, self._proc.stderr):
            pipe.close()
        with contextlib.suppress(subprocess.TimeoutExpired):
            self._proc.wait(timeout=0 if self._streamed else 5)
        self._proc.terminate()  # this and kill() do nothing once the child is reaped
        with contextlib.suppress(subprocess.TimeoutExpired):
            self._proc.wait(timeout=5)
        self._proc.kill()
        self._proc.wait()

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
