"""The paper's primary contribution: AST paths and their machinery."""

from .abstractions import ABSTRACTIONS, ABSTRACTION_LADDER, get_abstraction
from .ast_model import Ast, Node, lowest_common_ancestor
from .extraction import (
    ExtractionConfig,
    PathExtractor,
    PathTable,
    ast_digest,
    ast_fingerprint,
    extract_path_contexts,
)
from .interning import (
    ContextVocab,
    FeatureSpace,
    FrozenVocabError,
    OverlayVocab,
    PathVocab,
    Vocab,
)
from .path_context import PathContext
from .paths import DOWN, UP, AstPath, path_between
from .service import ExtractionService, ExtractionStats

__all__ = [
    "ABSTRACTIONS",
    "ABSTRACTION_LADDER",
    "Ast",
    "AstPath",
    "ContextVocab",
    "DOWN",
    "ExtractionConfig",
    "ExtractionService",
    "ExtractionStats",
    "FeatureSpace",
    "FrozenVocabError",
    "OverlayVocab",
    "Node",
    "PathContext",
    "PathExtractor",
    "PathTable",
    "PathVocab",
    "UP",
    "Vocab",
    "ast_digest",
    "ast_fingerprint",
    "extract_path_contexts",
    "get_abstraction",
    "lowest_common_ancestor",
    "path_between",
]
