"""Classic heavy-hitter baselines (extension beyond the paper).

Misra–Gries, Space-Saving, Count-Min and Sample-and-Hold, plus adapters
that run them per slot so their volatility can be compared against the
paper's latent-heat elephants. The scalar classes are the reference
semantics; :mod:`repro.sketches.array_tables` carries the vectorized
batch-update counterpart of each, which the aggregation hot path runs
on.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "array_tables": (
            "ArrayCountMin",
            "ArrayMisraGries",
            "ArraySampleHold",
            "ArraySpaceSaving",
            "BatchUpdate",
        ),
        "bloom": ("BloomGate", "CountingBloom", "gated_table"),
        "count_min": ("CountMinCandidates", "CountMinSketch"),
        "misra_gries": ("MisraGries",),
        "sample_hold": ("SampleAndHold",),
        "space_saving": ("SpaceSaving",),
        "streaming_eval": (
            "COMPARISON_COLUMNS",
            "BackendComparison",
            "BackendRun",
            "SketchRun",
            "evaluate_backends",
            "exact_top_k_per_slot",
            "mask_agreement",
            "run_backend",
            "score_against",
            "space_saving_per_slot",
        ),
    },
)
