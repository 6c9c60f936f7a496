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
from .partials import PartialPair


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


def _sample(
    partial: Sequence[PartialPair], n: int, rng: random.Random
) -> Sequence[PartialPair]:
    # The draw needs only the count; picks read in increasing order walk a lazy partial once.
    if n >= len(partial):
        return partial
    picked = sorted(rng.sample(range(len(partial)), n))
    return tuple(partial[k] for k in picked)


def subsample(partial: Sequence[PartialPair], n: int, seed: int) -> Sequence[PartialPair]:
    """Uniform sample of min(n, size) rows without replacement, order kept."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return _sample(partial, n, random.Random(seed))


def mix(
    full: ParallelCorpus, partial: Sequence[PartialPair], seed: int
) -> tuple[ParallelCorpus, MixManifest]:
    """Union of the full corpus with an equal-size prefix subsample, shuffled.

    Rows are renumbered 0..N-1 in output order. The same seed drives both
    the subsample and the shuffle, so equal inputs and seed give identical
    output byte for byte.
    """
    rng = random.Random(seed)
    sampled = _sample(partial, len(full), rng)
    rows = [(p.source, p.target) for p in full]
    rows += [(q.source_prefix, q.target_prefix) for q in sampled]
    rng.shuffle(rows)
    pairs = tuple(SentencePair(k, s, t) for k, (s, t) in enumerate(rows))
    manifest = MixManifest(len(full), len(partial), len(sampled), seed)
    return pairs, manifest
