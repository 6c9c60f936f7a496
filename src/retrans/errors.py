"""Shared exception and warning types."""

from __future__ import annotations


class DataError(Exception):
    """Base class for malformed or inconsistent input data."""


class EmptySentenceError(DataError):
    """A sentence line was empty or whitespace-only.

    where names the line, such as "PATH line K", and leads the message.
    """

    def __init__(self, where: str = "") -> None:
        self.where = where
        super().__init__(f"{f'{where}: ' if where else ''}empty sentence")


class CorpusMismatchError(DataError):
    """Two parallel line streams had different lengths.

    what names the two streams, such as the paths they came from. The
    message names the second stream first, as the one checked against the
    first: "a.txt has 1 lines but s.txt has 2".
    """

    def __init__(
        self, src_count: int, tgt_count: int, what: tuple[str, str] = ("source", "target")
    ) -> None:
        self.src_count = src_count
        self.tgt_count = tgt_count
        src_what, tgt_what = what
        super().__init__(f"{tgt_what} has {tgt_count} lines but {src_what} has {src_count}")


class AlignmentParseError(DataError):
    """An alignment line contained a malformed or out-of-range link token.

    where names the line, such as "PATH line K", and leads the message.
    """

    def __init__(self, token: str, detail: str = "", where: str = "") -> None:
        self.token = token
        self.detail = detail
        super().__init__(
            f"{f'{where}: ' if where else ''}bad alignment token {token!r}"
            f"{f': {detail}' if detail else ''}"
        )


class AlignmentMissingError(DataError):
    """No usable alignment was supplied for a sentence pair."""

    def __init__(self, pair_id: int, detail: str = "") -> None:
        self.pair_id = pair_id
        super().__init__(
            f"missing or mismatched alignment for pair {pair_id}"
            f"{f': {detail}' if detail else ''}"
        )


class EventParseError(DataError):
    """An event line was not a valid update record."""


class EventOrderError(DataError):
    """Events for one utterance were interleaved with another utterance."""


class TranslatorError(RuntimeError):
    """The translator failed while a session was being simulated."""

    def __init__(self, utterance_id: int, step: int, detail: str = "") -> None:
        self.utterance_id = utterance_id
        self.step = step
        super().__init__(
            f"translator failed on utterance {utterance_id}, step {step}"
            f"{f': {detail}' if detail else ''}"
        )


class NoOpEventWarning(UserWarning):
    """An update event had no effect on the source state."""
