"""The paper's primary contribution: AST paths and their machinery."""

from .abstractions import ABSTRACTIONS, ABSTRACTION_LADDER, get_abstraction
from .ast_model import Ast, Node, lowest_common_ancestor
from .extraction import (
    ExtractedPath,
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
from .path_context import PathContext, make_path_context
from .paths import DOWN, UP, AstPath, NWisePath, path_between, semi_path
from .service import CorpusExtraction, ExtractionService, ExtractionStats

__all__ = [
    "ABSTRACTIONS",
    "ABSTRACTION_LADDER",
    "Ast",
    "AstPath",
    "ContextVocab",
    "CorpusExtraction",
    "DOWN",
    "ExtractedPath",
    "ExtractionConfig",
    "ExtractionService",
    "ExtractionStats",
    "FeatureSpace",
    "FrozenVocabError",
    "NWisePath",
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
    "make_path_context",
    "path_between",
    "semi_path",
]
