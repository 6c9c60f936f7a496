from __future__ import annotations

import retrans

# The public names as of release 0.1.0, less the retired SessionReport.
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
    "identity_translator",
    "log_likelihood",
    "mean_gleu",
    "mix",
    "ratio_prefix_len",
    "read_alignment_line",
    "read_alignments",
    "read_events",
    "read_parallel",
    "resegment",
    "run_session",
    "scripted_translator",
    "subsample",
    "tokenize",
    "train_model1",
    "viterbi_align",
    "wer",
}


def test_exported_names_are_pinned():
    assert retrans.__all__ == sorted(EXPORTED)
