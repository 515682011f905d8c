"""Classic heavy-hitter baselines (extension beyond the paper).

Misra–Gries, Space-Saving, Count-Min and Sample-and-Hold, plus adapters
that run them per slot so their volatility can be compared against the
paper's latent-heat elephants. The scalar classes are the reference
semantics; :mod:`repro.sketches.array_tables` carries the vectorized
batch-update counterpart of each, which the aggregation hot path runs
on.
"""

from repro.sketches.array_tables import (
    ArrayCountMin,
    ArrayMisraGries,
    ArraySampleHold,
    ArraySpaceSaving,
    BatchUpdate,
)
from repro.sketches.bloom import (
    BloomGatedTable,
    CountingBloom,
    gated_table,
)
from repro.sketches.count_min import CountMinCandidates, CountMinSketch
from repro.sketches.misra_gries import MisraGries
from repro.sketches.sample_hold import SampleAndHold
from repro.sketches.space_saving import SpaceSaving
from repro.sketches.streaming_eval import (
    COMPARISON_COLUMNS,
    BackendComparison,
    BackendRun,
    SketchRun,
    evaluate_backends,
    exact_top_k_per_slot,
    mask_agreement,
    run_backend,
    score_against,
    space_saving_per_slot,
)

__all__ = [
    "ArrayCountMin",
    "ArrayMisraGries",
    "ArraySampleHold",
    "ArraySpaceSaving",
    "BackendComparison",
    "BackendRun",
    "BatchUpdate",
    "BloomGatedTable",
    "COMPARISON_COLUMNS",
    "CountMinCandidates",
    "CountMinSketch",
    "CountingBloom",
    "gated_table",
    "MisraGries",
    "SampleAndHold",
    "SketchRun",
    "SpaceSaving",
    "evaluate_backends",
    "exact_top_k_per_slot",
    "mask_agreement",
    "run_backend",
    "score_against",
    "space_saving_per_slot",
]
