"""The bounded flow tables a sketch backend runs (beyond the paper).

The array Space-Saving candidate table, the Bloom admission gate, and
the scorer of a backend's elephants against the exact run's.
"""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "array_tables": ("ArraySpaceSaving", "BatchUpdate"),
        "bloom": ("BloomGate", "CountingBloom", "gated_table"),
        "streaming_eval": (
            "COMPARISON_COLUMNS",
            "BackendComparison",
            "BackendRun",
            "evaluate_backends",
            "run_backend",
            "score_against",
        ),
    },
)
