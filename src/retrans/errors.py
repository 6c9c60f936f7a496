"""Shared exception and warning types."""

from __future__ import annotations


class DataError(Exception):
    """Malformed or inconsistent input data; the message names the file and line where known."""


def count_mismatch(src_count: int, tgt_count: int, what: tuple[str, str]) -> DataError:
    """DataError for two parallel line streams of unequal lengths, for the caller to raise.

    what names the two streams, such as their paths; the message names the second first,
    as the one checked against the first: "a.txt has 1 lines but s.txt has 2".
    """
    return DataError(f"{what[1]} has {tgt_count} lines but {what[0]} has {src_count}")


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
