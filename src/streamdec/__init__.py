"""Streaming incremental decoding for encoder-decoder sequence models.

Chunk-based inference with irreversible partial commits, pluggable commit
strategies, encoder-state reuse for causal encoders, partial-input
adaptation training, and accuracy-latency measurement.
"""

from .core import (
    BOS_TOKEN,
    EOS_TOKEN,
    PAD_TOKEN,
    Chunk,
    ChunkOutput,
    CommitLog,
    ConfigError,
    ContractViolation,
    TimedToken,
    UndefinedMetric,
    Utterance,
    Vocab,
    chunk_stream,
    eval_tokens,
    output_time,
)
from .data import SyntheticTaskSpec, gen_dataset, make_partial_pair
from .decoder import (
    BUFFERED_STATE,
    FORCED_REDECODE,
    BeamConfig,
    BeamHypothesis,
    Session,
    beam_search,
    run_session,
    step_chunk,
)
from .harness import SweepSpec, TradeoffRow, compare_modes, sweep
from .io import load_model, save_model
from .metrics import (
    LatencyReport,
    WerBreakdown,
    corpus_wer,
    latency_delta,
    mean_output_time,
    score_logs,
    wer,
)
from .model import EncoderStates, SequenceModel, SyntheticAlignedModel
from .strategies import (
    HoldN,
    LocalAgreement,
    Offline,
    StrategyConfig,
    WaitK,
    parse_strategy,
    select_prefix,
)
from .training import (
    Adam,
    TrainConfig,
    adapt,
    token_error_rate,
    train,
)
from .transformer import BIDIRECTIONAL, UNIDIRECTIONAL, TinyTransformer, TransformerConfig

__version__ = "0.1.0"

__all__ = [
    "BOS_TOKEN",
    "EOS_TOKEN",
    "PAD_TOKEN",
    "BIDIRECTIONAL",
    "UNIDIRECTIONAL",
    "BUFFERED_STATE",
    "FORCED_REDECODE",
    "Adam",
    "BeamConfig",
    "BeamHypothesis",
    "Chunk",
    "ChunkOutput",
    "CommitLog",
    "ConfigError",
    "ContractViolation",
    "EncoderStates",
    "HoldN",
    "LatencyReport",
    "LocalAgreement",
    "Offline",
    "SequenceModel",
    "Session",
    "StrategyConfig",
    "SweepSpec",
    "SyntheticAlignedModel",
    "SyntheticTaskSpec",
    "TimedToken",
    "TinyTransformer",
    "TradeoffRow",
    "TrainConfig",
    "TransformerConfig",
    "UndefinedMetric",
    "Utterance",
    "Vocab",
    "WaitK",
    "WerBreakdown",
    "adapt",
    "beam_search",
    "chunk_stream",
    "compare_modes",
    "corpus_wer",
    "eval_tokens",
    "gen_dataset",
    "latency_delta",
    "load_model",
    "make_partial_pair",
    "mean_output_time",
    "output_time",
    "parse_strategy",
    "run_session",
    "save_model",
    "score_logs",
    "select_prefix",
    "step_chunk",
    "sweep",
    "token_error_rate",
    "train",
    "wer",
]
