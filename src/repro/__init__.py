"""repro — a reproduction of *A Pragmatic Definition of Elephants in
Internet Backbone Traffic* (Papagiannaki et al., IMC 2002).

The package implements the paper's two elephant-classification schemes
("aest" and "β-constant-load" thresholds, EWMA-smoothed) with both
decision rules (single-feature volume and two-feature "latent heat"),
plus every substrate the evaluation needs: a BGP RIB with array-compiled
longest-prefix match, a classic-pcap packet pipeline, the Crovella–Taqqu
aest tail estimator, and a calibrated synthetic backbone workload
standing in for the proprietary Sprint traces.

Quickstart::

    from repro import (
        ClassificationEngine, Feature, Scheme, west_coast_link,
    )

    link = west_coast_link(scale=0.25)       # synthetic OC-12 workload
    engine = ClassificationEngine(link.matrix)
    result = engine.run(Scheme.AEST, Feature.LATENT_HEAT)
    print(result.elephants_per_slot().mean())

See ``DESIGN.md`` for the architecture and ``EXPERIMENTS.md`` for the
paper-vs-measured record.
"""

from repro._lazy import attach

__version__ = "1.0.0"

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "core": (
            "AestThreshold",
            "ClassificationEngine",
            "ClassificationResult",
            "ConstantLoadThreshold",
            "Feature",
            "LatentHeatClassifier",
            "Scheme",
            "SingleFeatureClassifier",
            "ThresholdTracker",
        ),
        "errors": ("ReproError",),
        "flows": (
            "FlowAggregator",
            "RateMatrix",
            "TimeAxis",
            "aggregate_pcap",
        ),
        "net": ("Prefix",),
        "pipeline": (
            "MatrixSlotSource",
            "PcapPacketSource",
            "StreamingAggregator",
            "StreamingPipeline",
        ),
        "routing": ("CompiledLpm", "RoutingTable", "generate_rib"),
        "stats": ("aest",),
        "traffic": (
            "LinkWorkload",
            "east_coast_link",
            "simulate_link",
            "west_coast_link",
            "write_pcap",
        ),
        # export nothing up here; listed so that ``repro.analysis`` is
        # an attribute of ``repro`` whether or not anyone imported it
        "analysis": (),
        "distributed": (),
        "experiments": (),
        "pcap": (),
        "sketches": (),
    },
)
__all__ += ["__version__"]
