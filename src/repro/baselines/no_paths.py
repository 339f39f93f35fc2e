"""The "no-paths" baseline (Sec. 5.3).

Same nodes, but every relation collapses to a single symbol: the model
sees *which* identifiers are near an element but not *how* they are
syntactically related -- a "bag of near identifiers".  Implemented as an
extractor under the ``no-path`` abstraction, which the registered
``no-paths`` representation (:mod:`repro.api.representations`) drives
for every task and learner: with the CRF it gives Table 2's no-paths
rows, with word2vec Table 3's "path-neighbours, no-paths" row.
"""

from __future__ import annotations

from ..core.extraction import ExtractionConfig, PathExtractor


def no_paths_extractor(
    max_length: int = 7, max_width: int = 3, space=None, **overrides
) -> PathExtractor:
    """An extractor whose abstraction hides the path entirely."""
    return PathExtractor(
        ExtractionConfig(
            max_length=max_length,
            max_width=max_width,
            abstraction="no-path",
            **overrides,
        ),
        space=space,
    )
