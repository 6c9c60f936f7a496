"""Span tracer that wraps retrans's public functions from outside the package.

``Tracer.install`` rebinds each traced function in every ``retrans`` module
namespace that holds it (so ``cli``'s ``from .corpus import load_corpus`` and
``session``'s ``from .metrics import resegment`` are both caught), plus the
external translator's call. A span records name, start, end and parent; spans stay
in memory until the iteration ends. Self time is a span's duration minus the
time its child spans cover and minus the tracer's own counting work.
"""

from __future__ import annotations

import inspect
import json
import os
import statistics
import sys
from collections import defaultdict
from collections.abc import Iterator
from pathlib import Path
from time import perf_counter


def _ngrams(sentences) -> int:
    return sum(max(0, len(s) - n + 1) for s in sentences for n in range(1, 5))


def _gen_partial_name(b) -> str:
    return f"partials.generate_partial.{getattr(b['method'], 'value', b['method'])}"


def _cli_name(b) -> str:
    argv = b["argv"] if b["argv"] is not None else sys.argv[1:]
    return f"cli.{argv[0] if argv else '-'}"


def _cells(corpus) -> int:
    return sum(len(p.target) * (len(p.source) + 1) for p in corpus)


# (module, attribute, span name or name function, counter)
# Name functions and counters get the call's arguments bound to the
# function's parameter names (defaults applied); a counter also gets the
# result and returns {quantity: amount}. A counter must never consume a lazy
# value: a result that is an iterator, or an unsized argument (len() raises
# TypeError), is not counted but tallied in trace.uncounted.
TARGETS = [
    ("corpus", "read_lines", "corpus.read_lines",
     lambda b, r: {"lines": len(r), "bytes": os.path.getsize(b["path"])}),
    ("corpus", "write_lines", "corpus.write_lines",
     lambda b, r: {"lines": Path(b["path"]).read_bytes().count(b"\n")}),
    ("corpus", "load_corpus", "corpus.load_corpus", lambda b, r: {"pairs": len(r)}),
    ("corpus", "read_alignments", "corpus.read_alignments",
     lambda b, r: {"links": sum(len(x.links) for x in r)}),
    ("aligner", "train_model1", "aligner.train_model1",
     lambda b, r: {"em_cells": b["iterations"] * _cells(b["corpus"])}),
    ("aligner", "align_corpus", "aligner.align_corpus", lambda b, r: {"cells": _cells(b["corpus"])}),
    ("aligner", "table_rows", "aligner.table_rows", lambda b, r: {"rows": len(r)}),
    ("partials", "generate_partial", _gen_partial_name,
     lambda b, r: {"rows": len(r),
                   "tokens": sum(len(p.source_prefix) + len(p.target_prefix) for p in r)}),
    ("partials", "partial_lines", "partials.partial_lines", None),
    ("partials", "manifest_lines", "partials.manifest_lines", None),
    ("partials", "read_partial", "partials.read_partial", lambda b, r: {"rows": len(r)}),
    ("mixing", "mix", "mixing.mix",
     lambda b, r: {"rows_in": len(b["full"]) + len(b["partial"]), "rows_out": len(r[0])}),
    ("session", "read_events", "session.read_events", lambda b, r: {"events": len(r)}),
    ("session", "run_session", "session.run_session",
     lambda b, r: {"updates": sum(len(log.steps) for log in r)}),
    ("session", "evaluate_sessions", "session.evaluate_sessions", None),
    ("session", "load_tsv_map", "session.load_tsv_map", None),
    ("metrics", "correction_report", "metrics.correction_report", lambda b, r: {"calls": 1}),
    ("metrics", "resegment", "metrics.resegment",
     lambda b, r: {"calls": 1,
                   "dp_cells": (len(b["hyp_stream"]) + 1) * sum(len(x) + 1 for x in b["ref_segments"])}),
    ("metrics", "bleu", "metrics.bleu",
     lambda b, r: {"ngrams": _ngrams(b["hypotheses"]) + _ngrams(b["references"])}),
    ("metrics", "mean_gleu", "metrics.mean_gleu", None),
    ("metrics", "wer", "metrics.wer", lambda b, r: {"calls": 1, "cells": len(b["hyp"]) * len(b["ref"])}),
    # The whole command: argument parsing, the config echo and the cmd_* body.
    ("cli", "main", _cli_name, None),
]


class Tracer:
    """In-memory spans for one process; install once, read with ``metrics``."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        # Each span: [name, start, end, parent index, hidden seconds, counts, failed]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.uncounted: dict[str, int] = defaultdict(int)

    def wrap(self, name, fn, counter=None):
        spans, stack, uncounted = self.spans, self._stack, self.uncounted
        signature = inspect.signature(fn)

        def bind(args, kwargs) -> dict:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return bound.arguments

        def traced(*args, **kwargs):
            label = name(bind(args, kwargs)) if callable(name) else name
            parent = stack[-1] if stack else -1
            span = [label, 0.0, 0.0, parent, 0.0, None, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[6] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                try:
                    if isinstance(result, Iterator):
                        raise TypeError("lazy result")
                    span[5] = counter(bind(args, kwargs), result)
                except TypeError:  # a lazy value: leave it unconsumed, report it as uncounted
                    uncounted[label] += 1
                if parent >= 0:
                    spans[parent][4] += perf_counter() - span[2]
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in all loaded retrans modules, and the translators."""
        import retrans.cli  # noqa: F401  (loads every submodule)
        from retrans import session

        modules = [m for n, m in sys.modules.items() if n == "retrans" or n.startswith("retrans.")]
        for module_name, attr, name, counter in TARGETS:
            original = getattr(sys.modules[f"retrans.{module_name}"], attr)
            traced = self.wrap(name, original, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

        # The external translator; in-process ones stay inside run_session's self time.
        session.CommandTranslator.__call__ = self.wrap(
            "session.translator", session.CommandTranslator.__call__
        )

    def self_times(self) -> list[float]:
        own = [s[2] - s[1] - s[4] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def metrics(self) -> dict[str, float]:
        """Aggregate spans into ``<module>.<function>.<quantity>`` values."""
        out: dict[str, float] = defaultdict(float)
        translator_us = []
        for span, own in zip(self.spans, self.self_times()):
            name = span[0]
            out[f"{name}.self_s"] += own
            for key, value in (span[5] or {}).items():
                out[f"{name}.{key}"] += value
            if name == "session.translator":
                translator_us.append((span[2] - span[1]) * 1e6)
                out[f"{name}.failed"] += span[6]
        if translator_us:
            translator_us.sort()
            out["session.translator.calls"] = len(translator_us)
            out["session.translator.samples"] = len(translator_us)
            out["session.translator.p50_us"] = statistics.median(translator_us)
            out["session.translator.p99_us"] = translator_us[int(0.99 * (len(translator_us) - 1))]
        for name, work in (("aligner.train_model1", "em_cells"), ("metrics.resegment", "dp_cells")):
            if out.get(f"{name}.self_s"):
                out[f"{name}.cells_per_s"] = out[f"{name}.{work}"] / out[f"{name}.self_s"]
        out["trace.spans"] = len(self.spans)
        out["trace.uncounted"] = sum(self.uncounted.values())
        for name, calls in sorted(self.uncounted.items()):
            print(f"trace: {calls} call(s) of {name} returned or took a lazy value; "
                  f"its counts are missing", file=sys.stderr)
        return dict(out)

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, workload."""
        with open(path, "w", encoding="utf-8") as f:
            for k, (name, start, end, parent, _, counts, failed) in enumerate(self.spans):
                f.write(json.dumps({"id": k, "name": name, "start": start, "end": end,
                                    "parent": parent, "workload": self.workload,
                                    "counts": counts, "failed": failed}) + "\n")
