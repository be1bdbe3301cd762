"""Constrained span-infill decoding for translation suggestion.

Fill a masked span of a target sequence under hard prefix and suffix
constraints with prefix-suffix guided decoding (PSGD), compare against a
dynamic-beam-allocation baseline and a brute-force oracle, and benchmark
everything on deterministic synthetic sequence models.
"""

from .core import (
    DecodeStats,
    ResultRow,
    Suggestion,
    TokenSeq,
    TsError,
    TsTask,
    Vocab,
    validate_task,
)
from .decode import (
    BeamSearchResult,
    ConstraintsUnsatisfiable,
    DbaParams,
    InvalidParams,
    PsgdParams,
    beam_search,
    dba_decode,
    dba_suggest,
    psgd,
    psgd_two_pass,
    psgd_with_trace,
)
from .scoring import SCORING_MEAN_LOGPROB, SCORING_PROB_OVER_LENGTH, filled_score
from .lm import (
    ForcedPassResult,
    NgramGenModel,
    SequenceModel,
    StepDistribution,
    TableModel,
    UniformModel,
    seq_logprob,
)
from .metrics import BleuScore, corpus_bleu, sentence_bleu_smoothed
from .oracle import OracleResult, exhaustive_best_prefix, exhaustive_best_span

__version__ = "0.1.0"

__all__ = [
    "BeamSearchResult",
    "BleuScore",
    "ConstraintsUnsatisfiable",
    "DbaParams",
    "DecodeStats",
    "ForcedPassResult",
    "InvalidParams",
    "NgramGenModel",
    "OracleResult",
    "PsgdParams",
    "ResultRow",
    "SCORING_MEAN_LOGPROB",
    "SCORING_PROB_OVER_LENGTH",
    "SequenceModel",
    "StepDistribution",
    "Suggestion",
    "TableModel",
    "TokenSeq",
    "TsError",
    "TsTask",
    "UniformModel",
    "Vocab",
    "beam_search",
    "corpus_bleu",
    "dba_decode",
    "dba_suggest",
    "exhaustive_best_prefix",
    "exhaustive_best_span",
    "filled_score",
    "psgd",
    "psgd_two_pass",
    "psgd_with_trace",
    "seq_logprob",
    "sentence_bleu_smoothed",
    "validate_task",
]
