"""Baselines the paper compares against (Sec. 5.3).

==================  =====================================================
``no_paths``        the no-path extractor behind the ``no-paths``
                    representation (Table 2 "no-paths" rows; Table 3
                    "path-neighbours, no-paths" with word2vec)
``ngram_crf``       CRFs + token n-grams (Java variable naming)
``rule_based``      pattern/type heuristics for Java variable naming
``unuglify``        UnuglifyJS-style single-statement relations
``token_context``   linear token-stream contexts for word2vec
``naive_type``      always predicts java.lang.String
``conv_attention``  convolutional attention for method names
==================  =====================================================
"""

from .no_paths import no_paths_extractor
from .ngram_crf import build_ngram_graph
from .rule_based import rule_based_predictions
from .unuglify import build_unuglify_graph
from .token_context import token_stream_contexts
from .naive_type import NAIVE_TYPE, naive_type_predictions

__all__ = [
    "no_paths_extractor",
    "build_ngram_graph",
    "rule_based_predictions",
    "build_unuglify_graph",
    "token_stream_contexts",
    "NAIVE_TYPE",
    "naive_type_predictions",
]
