"""Token-pair link tagging for joint extraction of overlapping relation triples.

A sentence's relation triples are written as 2N+1 flattened tag sequences
over the upper-triangle token pairs (one shared entity sequence plus a
head-pair and a tail-pair sequence per relation); :mod:`pairlink.codec` and
:mod:`pairlink.decoding` map between the two representations losslessly,
:mod:`pairlink.model` and :mod:`pairlink.train` learn the sequences from
annotated sentences, and :mod:`pairlink.data` / :mod:`pairlink.evaluate`
handle corpora and scoring.  ``pairlink --help`` exposes the same operations
on the command line.
"""

from .codec import (
    EncodeConflict,
    EncodeConflictError,
    IndexMap,
    detect_conflicts,
    dump_tagging_line,
    encode,
    encode_with_conflicts,
    index_map,
    parse_tagging_line,
    phantom_triples,
    seq_index,
)
from .core import (
    HandshakingTagging,
    InvalidIndex,
    InvalidInput,
    PairLinkError,
    RelationSchema,
    SentenceAnnotation,
    TokenSpan,
    Triple,
    seq_length,
)
from .data import (
    AlignmentError,
    OverlapPattern,
    align_mention,
    classify_overlap,
    dataset_stats,
    load_dataset,
    load_schema,
    tokenize,
)
from .decoding import decode, decode_oracle
from .evaluate import (
    EvalReport,
    MicroScores,
    micro_prf,
    subset_report,
)
from .model import (
    EncoderParams,
    KernelParams,
    MixerParams,
    ModelParams,
    NumericError,
    ShapeError,
    TaggerParams,
    build_vocab,
    encode_tokens,
    gradient,
    handshaking_kernel,
    infer,
    infer_batch,
    init_model,
    load_checkpoint,
    save_checkpoint,
    tag_distribution,
)
from .train import TrainConfig, TrainResult, check_gradients, train

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "EncodeConflict",
    "EncodeConflictError",
    "EncoderParams",
    "EvalReport",
    "HandshakingTagging",
    "IndexMap",
    "InvalidIndex",
    "InvalidInput",
    "KernelParams",
    "MicroScores",
    "MixerParams",
    "ModelParams",
    "NumericError",
    "OverlapPattern",
    "PairLinkError",
    "RelationSchema",
    "SentenceAnnotation",
    "ShapeError",
    "TaggerParams",
    "TokenSpan",
    "TrainConfig",
    "TrainResult",
    "Triple",
    "align_mention",
    "build_vocab",
    "check_gradients",
    "classify_overlap",
    "dataset_stats",
    "decode",
    "decode_oracle",
    "detect_conflicts",
    "dump_tagging_line",
    "encode",
    "encode_tokens",
    "encode_with_conflicts",
    "gradient",
    "handshaking_kernel",
    "index_map",
    "infer",
    "infer_batch",
    "init_model",
    "load_checkpoint",
    "load_dataset",
    "load_schema",
    "micro_prf",
    "parse_tagging_line",
    "phantom_triples",
    "save_checkpoint",
    "seq_index",
    "seq_length",
    "subset_report",
    "tag_distribution",
    "tokenize",
    "train",
]
