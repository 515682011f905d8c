"""Per-prefix flow accounting: time axes, rate matrices, aggregation."""

from repro._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "aggregate": ("AggregationStats", "FlowAggregator", "aggregate_pcap"),
        "interchange": (
            "FLOW_INFO_COLUMNS",
            "FlowInfoRecord",
            "FlowRecordSource",
            "read_flow_records",
            "slot_flow_records",
            "write_flow_records",
        ),
        "matrix": ("RateMatrix",),
        "records": ("DEFAULT_SLOT_SECONDS", "TimeAxis"),
    },
)
