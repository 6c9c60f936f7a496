"""Multi-task training set construction: full sentences plus sampled prefixes.

The prefix corpus is subsampled without replacement down to the size of the
full-sentence corpus, so both tasks carry equal weight, and the union is
shuffled once into a static training file. All randomness flows from one seed.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass

from .corpus import ParallelCorpus, SentencePair


@dataclass(frozen=True)
class MixManifest:
    """Counts describing one mixing run."""

    full_count: int
    partial_total: int
    partial_sampled: int
    seed: int

    @property
    def output_size(self) -> int:
        return self.full_count + self.partial_sampled


def mix(
    full: Sequence[SentencePair], partial: Sequence[SentencePair], seed: int
) -> tuple[ParallelCorpus, MixManifest]:
    """Union of the full corpus with an equal-size prefix subsample, shuffled.

    Rows are renumbered 0..N-1 in output order. The same seed drives both
    the subsample and the shuffle, so equal inputs and seed give identical
    output byte for byte; a seed that is not an int, or is a bool, raises ValueError.
    """
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    rng = random.Random(seed)
    sampled = partial
    if len(full) < len(partial):
        # The draw needs only the count; picks read in increasing order walk a lazy partial once.
        sampled = tuple(partial[k] for k in sorted(rng.sample(range(len(partial)), len(full))))
    rows = [*full, *sampled]
    rng.shuffle(rows)
    pairs = tuple(SentencePair(k, p.source, p.target) for k, p in enumerate(rows))
    manifest = MixManifest(len(full), len(partial), len(sampled), seed)
    return pairs, manifest
