from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import retrans

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"

# The public names as of release 0.1.0, less the retired SessionReport,
# identity_translator, read_alignment_line and subsample, and with the two
# prefix rules' one-position functions replaced by the every-i
# ratio_prefix_lens and alignment_prefix_lens.
EXPORTED = {
    "Alignment",
    "CommandTranslator",
    "CorrectionReport",
    "Method",
    "MixManifest",
    "NULL",
    "ParallelCorpus",
    "PartialCorpus",
    "PartialPair",
    "SentencePair",
    "SessionLog",
    "Tokens",
    "TranslationTable",
    "Translator",
    "UpdateEvent",
    "align_corpus",
    "alignment_prefix_lens",
    "apply_event",
    "bleu",
    "corrected_words",
    "correction_report",
    "detokenize",
    "dictionary_translator",
    "edit_distance",
    "evaluate_sessions",
    "format_alignment",
    "generate_partial",
    "gleu",
    "log_likelihood",
    "mean_gleu",
    "mix",
    "ratio_prefix_lens",
    "read_alignments",
    "read_events",
    "read_parallel",
    "resegment",
    "run_session",
    "scripted_translator",
    "tokenize",
    "train_model1",
    "viterbi_align",
    "wer",
}


def test_exported_names_are_pinned():
    assert retrans.__all__ == sorted(EXPORTED)


def test_each_name_is_its_home_module_object():
    for name in retrans.__all__:
        home = importlib.import_module(f"retrans.{retrans._HOME[name]}")
        assert getattr(retrans, name) is getattr(home, name), name


def test_every_traced_name_is_a_callable_of_retrans():
    # perfbench/tracing.py rebinds (module, attribute) pairs listed in TARGETS;
    # read from its source, as the tracer is not imported by the tests.
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    targets = next(
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    )
    pairs = [(entry.elts[0].value, entry.elts[1].value) for entry in targets.elts]
    assert pairs
    for module, attr in pairs:
        home = importlib.import_module(f"retrans.{module}")
        assert callable(getattr(home, attr, None)), f"retrans.{module}.{attr}"


def test_star_import_and_dir_list_every_name():
    namespace: dict = {}
    exec("from retrans import *", namespace)
    assert set(retrans.__all__) <= namespace.keys()
    assert set(retrans.__all__) <= set(dir(retrans))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'retrans' has no attribute 'no_such_name'"):
        retrans.no_such_name  # noqa: B018


_THREADED_LOOKUP = """
import random, threading
import retrans

names = retrans.__all__
barrier = threading.Barrier(16)
seen = [None] * 16

def resolve(k):
    order = random.Random(k).sample(names, len(names))
    barrier.wait()
    seen[k] = {name: getattr(retrans, name) for name in order}

threads = [threading.Thread(target=resolve, args=(k,)) for k in range(16)]
for t in threads:
    t.start()
for t in threads:
    t.join()
serial = {name: getattr(retrans, name) for name in names}
assert all(s is not None and all(s[n] is serial[n] for n in names) for s in seen), seen
print("ok")
"""


def test_concurrent_first_lookups_agree_with_a_serial_one(fresh_python):
    proc = fresh_python("-c", _THREADED_LOOKUP)
    assert (proc.returncode, proc.stdout) == (0, "ok\n"), proc.stderr


@pytest.mark.parametrize(
    "module", ["", "aligner", "corpus", "errors", "metrics", "mixing", "partials", "session"]
)
def test_plain_imports_leave_no_lazy_placeholder(module, fresh_python):
    target = f"retrans.{module}" if module else "retrans"
    proc = fresh_python(
        "-c",
        f"import sys, types\nimport {target}\nimport retrans\nretrans.bleu\n"
        "print(*sorted(n for n, m in sys.modules.items()\n"
        "              if n.startswith('retrans') and type(m) is not types.ModuleType))\n",
    )
    assert (proc.returncode, proc.stdout) == (0, "\n"), proc.stderr
