"""Toolkit for partial-sentence translation data and retranslation evaluation.

Covers prefix-pair generation by length ratio or word alignment (one entry
point each: ratio_prefix_lens, alignment_prefix_lens), EM lexical alignment,
multi-task dataset mixing, session simulation against pluggable translators,
and quality/stability scoring (BLEU, GLEU, rewrites, WER-minimizing resegmentation).

Each exported name is imported from its home submodule on first use (PEP 562).
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_HOMES = {
    "aligner": "NULL TranslationTable align_corpus log_likelihood train_model1 viterbi_align",
    "corpus": "ParallelCorpus SentencePair Tokens detokenize format_alignment read_alignments"
    " read_parallel tokenize",
    "metrics": "CorrectionReport bleu corrected_words correction_report edit_distance gleu"
    " mean_gleu resegment wer",
    "mixing": "MixManifest mix",
    "partials": "alignment_prefix_lens generate_partial ratio_prefix_lens",
    "session": "CommandTranslator SessionLog Translator UpdateEvent apply_event"
    " dictionary_translator evaluate_sessions read_events run_session scripted_translator",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module holds the import lock, so concurrent first lookups are safe.
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
