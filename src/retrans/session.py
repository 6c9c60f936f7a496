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
from .errors import DataError, NoOpEventWarning, TranslatorError
from .metrics import CorrectionReport, bleu, correction_report, resegment

Translator = Callable[[Sequence[Tokens]], Iterable[Tokens]]
"""Deterministic map from a session's sources, in order, to one translation each."""


@dataclass(frozen=True)
class UpdateEvent:
    """One source update: replace the current source or append to it.

    Construction checks every rule (ValueError); a replace needs a token, as it becomes the source.
    """

    utterance_id: int
    kind: str
    text: str

    def __post_init__(self) -> None:
        if not isinstance(self.utterance_id, int) or isinstance(self.utterance_id, bool):
            raise ValueError("utterance_id must be an integer")
        if self.kind not in ("replace", "extend") or not isinstance(self.text, str):
            raise ValueError("bad kind or text")
        if self.kind == "replace" and not self.text.split():
            raise ValueError(f"replace event for utterance {self.utterance_id} has no tokens")


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
    """Fold one update into the current source; a blank extend returns current, without a warning."""
    if event.kind == "replace":
        return tokenize(event.text)
    return current + tuple(event.text.split())


def run_session(events: Sequence[UpdateEvent], translator: Translator) -> list[SessionLog]:
    """Replay update events through a translator, one log per utterance.

    Events must arrive grouped by utterance id, which is checked, with every
    source built, before the first translation. The translator is called
    once, with every source, and must yield exactly one translation each, so
    each event produces exactly one step. A translator exception, or a
    translation too few or too many, aborts with the utterance id and step
    that failed.
    """
    sources: list[Tokens] = []
    positions: list[tuple[int, int]] = []  # (utterance id, step) of each source
    seen: set[int] = set()
    for utterance_id, group in groupby(events, key=attrgetter("utterance_id")):
        if utterance_id in seen:
            raise DataError(f"utterance {utterance_id} reappears after other events")
        seen.add(utterance_id)
        current: Tokens = ()
        for step, event in enumerate(group):
            current = apply_event(current, event)
            sources.append(current)
            positions.append((utterance_id, step))
    if not sources:
        return []
    translations: list[Tokens] = []
    try:
        # Pulled to its end: a cmd: child checks for extra output after its last reply.
        for _, translation in zip(sources, translator(sources), strict=True):
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


def log_lines(logs: Iterable[SessionLog]) -> Iterator[str]:
    """The step log of simulate --log-out: one JSON object per step, in log order."""
    for log in logs:
        for step, (source, translation) in enumerate(log.steps):
            record = {"utterance_id": log.utterance_id, "step": step,
                      "source": detokenize(source), "translation": detokenize(translation)}
            yield json.dumps(record, ensure_ascii=False)


def dictionary_translator(lexicon: Mapping[str, str]) -> Translator:
    """Word-by-word lookup; out-of-vocabulary tokens are copied through.

    Monotone by construction, so extending the source only ever extends the
    translation. Raises ValueError unless each key and value is one token.
    """
    for key, value in lexicon.items():
        if key.split() != [key] or value.split() != [value]:
            raise ValueError(f"lexicon entry {key!r} -> {value!r} is not word-to-word")

    def translate(sources: Sequence[Tokens]) -> Iterator[Tokens]:
        return (tuple(lexicon.get(token, token) for token in source) for source in sources)

    return translate


def scripted_translator(script: Mapping[str, str]) -> Translator:
    """Exact-match replay of recorded outputs, keyed by detokenized source.

    Unscripted sources are copied through.
    """

    def translate(sources: Sequence[Tokens]) -> Iterator[Tokens]:
        for source in sources:
            line = script.get(detokenize(source))
            yield source if line is None else tokenize(line)

    return translate


class CommandTranslator:
    """Adapter for an external translator child process (POSIX only).

    Protocol: one detokenized source per line on stdin, one translation per
    line on stdout, as UTF-8 lines that end at "\n" only (corpus.read_lines'
    rule). Each call runs a child of its own for the sources it is given. The
    child starts when the first reply is asked for, and the call's replies
    end it, whether they end, fail or are abandoned; its exit status is not
    read. One selector loop writes every source ahead of the replies, closes
    the input after the last, and reads the output and the stderr; after the
    last reply any byte of output is extra. The timeout bounds the wait for
    each reply line and for the output's end. The child's stderr is passed
    through, and its last 2 KiB end every failure.
    """

    def __init__(self, command: str | Sequence[str], timeout: float = 30.0) -> None:
        self._argv = shlex.split(command) if isinstance(command, str) else list(command)
        if not self._argv:
            raise ValueError("translator command is empty")
        if not 0 < timeout < float("inf"):
            raise ValueError(f"timeout must be a finite number > 0, got {timeout!r}")
        self.timeout = timeout

    def __call__(self, sources: Sequence[Tokens]) -> Iterator[Tokens]:
        """Translate sources in order; the output must end after the last reply."""
        unsent = memoryview("".join(f"{detokenize(s)}\n" for s in sources).encode("utf-8"))
        replies, ended = bytearray(), False  # unread output; whether it ended
        tail, echo = b"", codecs.getincrementaldecoder("utf-8")("replace")
        # poll, fail and read_line work on the child and selector that the with below opens.

        def poll(timeout: float) -> None:
            """Wait up to timeout for the pipes, then write and read what is ready.

            Once the child has exited, a read that finds no output ends the
            output, even while a grandchild still holds the pipe.
            """
            nonlocal unsent, ended, tail
            exited = proc.poll() is not None
            ready = poller.select(0 if exited else timeout)
            ended |= exited and all(key.fileobj is not proc.stdout for key, _ in ready)
            for key, _ in ready:
                if key.fileobj is proc.stdin:
                    try:
                        unsent = unsent[os.write(key.fd, unsent) :]
                    except BrokenPipeError:  # the child is gone; what it wrote is still read
                        unsent = unsent[:0]
                    if not unsent:
                        poller.unregister(proc.stdin)
                        proc.stdin.close()
                elif not (chunk := os.read(key.fd, 65536)):
                    poller.unregister(key.fileobj)
                    ended |= key.fileobj is proc.stdout
                elif key.fileobj is proc.stdout:
                    replies.extend(chunk)
                else:
                    tail = (tail + chunk)[-2048:]
                    sys.stderr.write(echo.decode(chunk))

        def fail(exc: Exception) -> Exception:
            """End exc's message with the stderr tail."""
            poll(0)
            if tail:
                message = f"; its stderr ends {tail.decode('utf-8', 'replace')!r}"
                if isinstance(exc, UnicodeDecodeError):
                    exc.reason += message
                else:
                    exc.args = (f"{exc}{message}",)
            return exc

        def read_line(wait: str) -> bytearray:
            """The next output line, or the rest at the output's end; a timeout raises, naming wait."""
            deadline = time.monotonic() + self.timeout
            while (end := replies.find(b"\n") + 1) == 0 and not ended:
                if (left := deadline - time.monotonic()) <= 0:
                    raise fail(TimeoutError("translator " + wait.format(self.timeout)))
                poll(min(left, 0.05))  # short waits notice an exited child
            line = replies[: end or len(replies)]
            del replies[: len(line)]
            return line

        pipe = subprocess.PIPE
        with (
            selectors.DefaultSelector() as poller,
            subprocess.Popen(self._argv, stdin=pipe, stdout=pipe, stderr=pipe) as proc,
        ):  # leaving closes the pipes and reaps the child
            try:
                os.set_blocking(proc.stdin.fileno(), False)
                poller.register(proc.stdin, selectors.EVENT_WRITE)
                poller.register(proc.stdout, selectors.EVENT_READ)
                poller.register(proc.stderr, selectors.EVENT_READ)
                for _ in sources:
                    if not (line := read_line("produced no output within {}s")):
                        raise fail(RuntimeError("translator process closed its output"))
                    try:
                        reply = line.decode("utf-8")
                    except UnicodeDecodeError as exc:
                        raise fail(exc) from None
                    yield tuple(reply.split())  # drops the "\n" and a "\r" before it with the blanks
                if extra := read_line("output did not end within {}s of its input closing"):
                    message = f"translator output ran past the last reply: {bytes(extra[:80])!r}"
                    raise fail(RuntimeError(message))
            finally:
                proc.terminate()  # this and kill() do nothing once the child is reaped
                with contextlib.suppress(subprocess.TimeoutExpired):
                    proc.wait(timeout=5)
                proc.kill()


def read_events(lines: Iterable[str], *, what: str = "events") -> list[UpdateEvent]:
    """Parse update events from JSON-lines text; blank lines are skipped.

    Each line must be a JSON object with the three keys; UpdateEvent checks
    the rest. Every refusal is a DataError naming line K of what (say, a path).
    A blank extend event is kept, with a NoOpEventWarning that names line K.
    """
    events = []
    for no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError as exc:  # a JSONDecodeError, or a digit run past int()'s limit
            raise DataError(f"{what} line {no}: invalid JSON: {exc}") from None
        if not isinstance(record, dict):
            raise DataError(f"{what} line {no}: expected an object")
        try:
            event = UpdateEvent(record["utterance_id"], record["kind"], record["text"])
        except KeyError as exc:
            raise DataError(f"{what} line {no}: missing key {exc}") from None
        except ValueError as exc:
            raise DataError(f"{what} line {no}: {exc}") from None
        if event.kind == "extend" and not event.text.split():
            message = f"extend event with empty text on utterance {event.utterance_id}"
            warnings.warn_explicit(message, NoOpEventWarning, what, no)
        events.append(event)
    return events


def load_tsv_map(lines: Iterable[str], *, what: str) -> dict[str, str]:
    """Load a two-column tab-separated mapping (lexicon or replay script).

    Keys are whitespace-normalised as input lines are tokenised, so a key
    with inner runs of spaces matches the detokenized source; two lines whose
    keys normalise alike raise DataError. what names the lines in error
    messages, such as the path they came from.
    """
    mapping: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        left, sep, right = line.partition("\t")
        if not sep or not left.strip() or not right.strip():
            raise DataError(f"{what} line {no}: expected 'source<TAB>target'")
        key = " ".join(left.split())
        if (seen := first_line.setdefault(key, no)) != no:
            raise DataError(f"{what} line {no}: duplicate source {key!r} (first on line {seen})")
        mapping[key] = right.strip()
    return mapping
