"""Lexical translation probabilities by EM and one-best alignment extraction.

This is the classic model where every target token is generated independently
from one source token (or from a null token, so that function words can stay
unaligned). Training is plain expectation-maximization on co-occurrence
expected counts: no distortion model, no randomness, bit-reproducible for a
fixed corpus.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import reduce
from itertools import chain
from operator import add, itemgetter, truediv

from .corpus import Alignment, ParallelCorpus, SentencePair

NULL = None
"""Distinguished null source token; kept distinct from every real token."""

DEFAULT_EPSILON = 1e-12


@dataclass(frozen=True)
class TranslationTable:
    """Lexical probabilities t(target | source), source vocabulary plus null.

    Each source row sums to 1 over its co-occurring target tokens (checked on
    construction, as is that every probability is finite and non-negative).
    Lookups of unseen (source, target) pairs return the epsilon floor, a
    finite positive number, so that held-out pairs never divide by zero.
    """

    probs: dict[str | None, dict[str, float]]
    epsilon: float = DEFAULT_EPSILON

    def __post_init__(self) -> None:
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
        for source, row in self.probs.items():
            # Written so that NaN fails each test: every comparison with it is false.
            if not all(0 <= p < math.inf for p in row.values()):
                raise ValueError(f"negative or non-finite probability in row for {source!r}")
            if not abs(sum(row.values()) - 1.0) <= 1e-6:
                raise ValueError(f"row for {source!r} does not sum to 1")

    def prob(self, source: str | None, target: str) -> float:
        row = self.probs.get(source)
        if row is None:
            return self.epsilon
        return row.get(target, self.epsilon)


def train_model1(
    corpus: ParallelCorpus,
    iterations: int,
    epsilon: float = DEFAULT_EPSILON,
) -> TranslationTable:
    """Run EM for the given number of iterations and return the table.

    Probabilities start uniform over co-occurring pairs. Each iteration
    distributes one unit of count per target token over the source tokens of
    its pair (null included) proportionally to the current probabilities,
    then renormalizes each source row. Corpus log-likelihood is non-decreasing
    across iterations.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if not len(corpus):
        raise ValueError("cannot train on an empty corpus")

    # Intern each co-occurring (source, target) type pair as a cell index, in
    # first-visit order of the E-step loop, with NULL as source row 0. A pair's
    # cells sit flat, target token k at [k*m, (k+1)*m) in (NULL, *source) order
    # with m = len(rows), so the sums and divisions below run in the order of
    # the plain dict-of-dicts EM and every float comes out bit-equal. Sums add
    # strictly left to right: sum() compensates its rounding on Python 3.12+.
    row_of: dict[str | None, int] = {NULL: 0}
    column: dict[str, dict[int, int]] = {}
    cell_row: list[int] = []
    cell_target: list[str] = []
    plan: list[tuple[tuple[int, ...], array[int]]] = []
    for pair in corpus:
        rows = (0, *(row_of.setdefault(e, len(row_of)) for e in pair.source))
        cells = array("I")
        for f in pair.target:
            col = column.setdefault(f, {})
            for r in rows:
                c = col.get(r)
                if c is None:
                    c = col[r] = len(cell_row)
                    cell_row.append(r)
                    cell_target.append(f)
                cells.append(c)
        plan.append((rows, cells))
    del column

    # Uniform init over the target types each source token co-occurs with.
    row_size = Counter(cell_row)
    probs = array("d", (1.0 / row_size[r] for r in cell_row))

    for _ in range(iterations):
        counts = array("d", [0.0]) * len(cell_row)
        totals = [0.0] * len(row_of)
        for rows, cells in plan:
            for token in zip(*[iter(cells)] * len(rows)):  # one tuple per target token
                ps = [probs[c] for c in token]
                denom = reduce(add, ps)
                for c, r, p in zip(token, rows, ps):
                    w = p / denom
                    counts[c] += w
                    totals[r] += w
        del probs  # the old and new tables alive together would set the EM peak
        probs = array("d", map(truediv, counts, map(totals.__getitem__, cell_row)))
        del counts
    del plan

    names = list(row_of)
    table: dict[str | None, dict[str, float]] = {}
    for r, f, p in zip(cell_row, cell_target, probs):
        table.setdefault(names[r], {})[f] = p
    return TranslationTable(table, epsilon)


def log_likelihood(table: TranslationTable, corpus: ParallelCorpus) -> float:
    """Corpus log-likelihood under uniform alignment choice per target token."""
    ll = 0.0
    for pair in corpus:
        sources = (NULL, *pair.source)
        for f in pair.target:
            ll += math.log(sum(table.prob(e, f) for e in sources) / len(sources))
    return ll


def viterbi_align(table: TranslationTable, pair: SentencePair) -> Alignment:
    """Link each target position to its most probable source position.

    Ties between source positions break toward the smallest position. A
    target position is left unaligned only when the null token strictly
    beats every source position.
    """
    eps = table.epsilon
    null_row = table.probs.get(NULL, {})
    rows = [table.probs.get(e, {}) for e in pair.source]
    links = set()
    for j, f in enumerate(pair.target, start=1):
        best_i = 0
        best_p = -1.0
        for i, row in enumerate(rows, start=1):
            p = row.get(f, eps)
            if p > best_p:
                best_p = p
                best_i = i
        if null_row.get(f, eps) <= best_p:
            links.add((best_i, j))
    return Alignment(len(pair.source), len(pair.target), frozenset(links))


def align_corpus(table: TranslationTable, corpus: ParallelCorpus) -> list[Alignment]:
    """Viterbi-align every pair, preserving corpus order."""
    return [viterbi_align(table, pair) for pair in corpus]


@dataclass(frozen=True)
class TableRows(Iterable[tuple[str, str, float]]):
    """What table_rows returns: len() counts the rows, each iteration sorts them afresh."""

    table: TranslationTable

    def __len__(self) -> int:
        return sum(map(len, self.table.probs.values()))

    def __iter__(self) -> Iterator[tuple[str, str, float]]:
        groups: dict[str, list[dict[str, float]]] = {}
        for e, row in self.table.probs.items():
            groups.setdefault("<NULL>" if e is NULL else e, []).append(row)
        for name in sorted(groups, key=lambda n: (n != "<NULL>", n)):
            items = chain.from_iterable(row.items() for row in groups[name])
            yield from ((name, f, p) for f, p in sorted(items, key=itemgetter(0)))


def table_rows(table: TranslationTable) -> TableRows:
    """The table's (source, target, probability) rows sorted by source, then target.

    A sized view, not a list: len() counts the rows without making them, and each
    iteration walks the table again, holding one source group's rows at a time.
    The null source token is spelled "<NULL>" and sorts before all real tokens.
    Rows equal in both keys keep table order.
    """
    return TableRows(table)
