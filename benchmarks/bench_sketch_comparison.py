"""Extension: per-slot heavy hitters vs latent-heat elephants.

The OSS heavy-hitter toolbox (Space-Saving et al.) answers "who is big
*now*" per interval. This bench quantifies the paper's thesis against
that toolbox: even an exact per-slot top-k oracle churns its member
set, while latent-heat elephants persist.
"""

from repro.analysis.report import format_table
from repro.core.engine import Feature, Scheme
from repro.core.states import HoldingTimeSummary, transition_counts
from repro.sketches.streaming_eval import (
    exact_top_k_per_slot,
    mask_agreement,
    space_saving_per_slot,
)


def run_comparison(matrix, latent_result):
    k = max(1, int(latent_result.elephants_per_slot().mean()))
    oracle = exact_top_k_per_slot(matrix, top_k=k)
    sketched = space_saving_per_slot(matrix, capacity=max(4 * k, 64),
                                     top_k=k)
    rows = []
    for name, mask in [
        ("latent-heat", latent_result.elephant_mask),
        (oracle.name, oracle.mask),
        (sketched.name, sketched.mask),
    ]:
        summary = HoldingTimeSummary.from_mask(mask)
        rows.append({
            "name": name,
            "holding": summary.mean_holding_slots,
            "one_slot": summary.single_slot_flows,
            "transitions": int(transition_counts(mask).sum()),
        })
    agreement = mask_agreement(oracle.mask, sketched.mask)
    return rows, agreement


def test_sketch_comparison(benchmark, paper_run, report_writer):
    matrix = paper_run.workloads["west-coast"].matrix
    latent = paper_run.result("west-coast", Scheme.CONSTANT_LOAD,
                              Feature.LATENT_HEAT)
    rows, agreement = benchmark.pedantic(
        run_comparison, args=(matrix, latent), rounds=1, iterations=1,
    )

    table = format_table(
        ["method", "mean holding (slots)", "one-slot flows",
         "total transitions"],
        [[r["name"], f"{r['holding']:.1f}", r["one_slot"],
          r["transitions"]] for r in rows],
        title=("Per-slot heavy hitters vs latent-heat elephants "
               f"(Space-Saving/oracle top-k agreement: {agreement:.2f})"),
    )
    report_writer("sketch_comparison", table)

    by_name = {r["name"]: r for r in rows}
    latent_row = by_name["latent-heat"]
    for name, row in by_name.items():
        if name == "latent-heat":
            continue
        assert latent_row["holding"] > 1.5 * row["holding"], name
        assert latent_row["transitions"] < row["transitions"], name
    # Space-Saving approximates the oracle's member set well.
    assert agreement > 0.6
