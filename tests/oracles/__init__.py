"""Bit-identity oracles: the slow, simple spellings of the product's fast paths.

Nothing under ``src/`` imports these.  They exist so the tests (and the
extraction/inference benchmarks) can hold the optimised code to an exact
reference:

* :mod:`oracles.crf` -- the scalar CRF scorer and its string-based ICM
  sweep; the compiled engine must reproduce its assignments, scores,
  tie-breaks and fallbacks float-for-float;
* :mod:`oracles.candidates` -- the candidate index as ``Counter`` objects:
  the one-node-at-a-time pass 0, the ``most_common`` table layout and
  the list-based pruner, which the count columns must match exactly;
* :mod:`oracles.extraction` -- the all-pairs path extractor, whose path
  set and order the single-pass engine must emit exactly, and the
  per-path variable-naming view builders, whose decoded views the path
  table's direct builders must reproduce.
"""
