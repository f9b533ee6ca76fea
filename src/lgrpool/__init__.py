"""Hierarchical graph pooling aligned with personalized-PageRank
propagation, trained by alternating expectation and maximization phases.
"""
from .data import (
    Graph,
    GraphDataset,
    SplitSpec,
    build_normalized_adjacency,
    parse_tu_dataset,
    split_dataset,
)
from .errors import (
    DoubleBackward,
    EmptySplit,
    LabelOutOfRange,
    LgrPoolError,
    NonDeterministic,
    NonFinite,
    NotScalar,
    ParseError,
    ShapeMismatch,
)
from .model import ParameterSet, init_parameters
from .sparse import SparseMatrix
from .training import (
    RunMetrics,
    TrainingConfig,
    em_train,
    evaluate,
    lr_schedule,
)

__all__ = [
    "Graph",
    "GraphDataset",
    "SplitSpec",
    "build_normalized_adjacency",
    "parse_tu_dataset",
    "split_dataset",
    "DoubleBackward",
    "EmptySplit",
    "LabelOutOfRange",
    "LgrPoolError",
    "NonDeterministic",
    "NonFinite",
    "NotScalar",
    "ParseError",
    "ShapeMismatch",
    "ParameterSet",
    "init_parameters",
    "SparseMatrix",
    "RunMetrics",
    "TrainingConfig",
    "em_train",
    "evaluate",
    "lr_schedule",
]

__version__ = "0.1.0"
