from __future__ import annotations

import importlib

import pytest

import retrans

# The public names as of release 0.1.0, less the retired SessionReport,
# identity_translator, read_alignment_line and subsample.
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
    "alignment_prefix_len",
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
    "ratio_prefix_len",
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
