"""Toolkit for partial-sentence translation data and retranslation evaluation.

Covers prefix-pair corpus generation (length-ratio and alignment-based),
lexical alignment training by EM, multi-task dataset mixing, incremental
session simulation against pluggable translators, and quality/stability
scoring (BLEU, GLEU, rewrite counts, WER-minimizing resegmentation).
"""

from types import ModuleType as _ModuleType

from .aligner import (
    NULL,
    TranslationTable,
    align_corpus,
    log_likelihood,
    train_model1,
    viterbi_align,
)
from .corpus import (
    Alignment,
    ParallelCorpus,
    SentencePair,
    Tokens,
    detokenize,
    format_alignment,
    read_alignment_line,
    read_alignments,
    read_parallel,
    tokenize,
)
from .metrics import (
    CorrectionReport,
    bleu,
    corrected_words,
    correction_report,
    edit_distance,
    gleu,
    mean_gleu,
    resegment,
    wer,
)
from .mixing import MixManifest, mix, subsample
from .partials import (
    Method,
    PartialCorpus,
    PartialPair,
    alignment_prefix_len,
    generate_partial,
    ratio_prefix_len,
)
from .session import (
    CommandTranslator,
    SessionLog,
    Translator,
    UpdateEvent,
    apply_event,
    dictionary_translator,
    evaluate_sessions,
    identity_translator,
    read_events,
    run_session,
    scripted_translator,
)

__version__ = "0.1.0"

# Every imported public name; the submodules bound by the imports are not exports.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
