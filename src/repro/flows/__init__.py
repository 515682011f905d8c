"""Flow accounting: time axes, rate matrices, packet aggregation."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "aggregate": ("AggregationStats", "FlowAggregator", "aggregate_pcap"),
        "granularity": (
            "AsAggregation",
            "aggregate_fixed_length",
            "aggregate_origin_as",
            "granularity_sweep",
        ),
        "interchange": (
            "FLOW_INFO_COLUMNS",
            "FlowInfoRecord",
            "FlowRecordSource",
            "read_flow_records",
            "slot_flow_records",
            "write_flow_records",
        ),
        "matrix": ("RateMatrix",),
        "records": ("DEFAULT_SLOT_SECONDS", "FlowRecord", "TimeAxis"),
    },
)
