"""The result envelope every ``--json`` answer shares, and its rows.

``repro stream``, ``repro merge``, ``repro offload`` and the live
service's ``repro query`` replies all serialize a classified slot
through :func:`elephant_entries` and wrap the slots in
:func:`result_envelope`, so any consumer reads one schema whichever
command answered. The module needs nothing but the two integer columns
of a frame's population: a single-process ``repro stream --json``
imports it without the merge, summary or collector machinery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.net.prefix import PrefixColumns

if TYPE_CHECKING:
    from repro.core.streaming import SlotVerdict
    from repro.pipeline.sources import SlotFrame


#: Version tag carried by every JSON result envelope. Bump when the
#: envelope's field contract changes shape (adding fields is not a
#: bump; renaming or re-typing them is).
RESULT_SCHEMA = "repro.result/1"


def result_envelope(
    command: str,
    spec: dict[str, object],
    slot_entries: Sequence[list[dict[str, object]]],
    counts: Sequence[int] | None = None,
    below_table: Sequence[int] = (),
) -> dict[str, object]:
    """The versioned result envelope every ``--json`` surface shares.

    ``repro stream --json``, ``repro merge --json``, ``repro query
    --json`` (via the live service's reports) and ``repro offload
    --json`` all embed this same structure, built from the same
    :func:`elephant_entries` rows, so any consumer reads one schema
    regardless of which command produced the answer — the contract the
    cross-command regression test locks field for field.

    ``spec`` is the producing command's configuration facts (e.g.
    :meth:`~repro.pipeline.spec.PipelineSpec.describe` output);
    ``slot_entries`` is the per-slot :func:`elephant_entries` lists in
    slot order. The derived ``series`` block is computed here from the
    entries alone, so every producer agrees on it by construction.

    ``counts`` are the per-slot entry counts a caller kept as it went
    (the live service, which keeps each slot as JSON text and puts
    the elephant lists in itself): ``series`` is computed from them
    then, so that nothing here walks the history.

    ``below_table`` (the pipeline's ``below_table_slots``) goes into
    ``series`` as ``cut_below_table`` when it lists a slot.
    """
    if counts is None:
        counts = [len(slot) for slot in slot_entries]
    series: dict[str, object] = {
        "num_slots": len(counts),
        "elephants_per_slot": list(counts),
        "mean_elephants_per_slot": (
            sum(counts) / len(counts) if counts else 0.0
        ),
    }
    if below_table:
        series["cut_below_table"] = list(below_table)
    return {
        "schema": RESULT_SCHEMA,
        "command": command,
        "spec": dict(spec),
        "elephants": list(slot_entries[-1]) if slot_entries else [],
        "elephants_by_slot": [list(slot) for slot in slot_entries],
        "series": series,
    }


def elephant_entries(
    frame: SlotFrame, verdict: SlotVerdict
) -> list[dict[str, object]]:
    """The canonical serialized elephant set for one classified slot.

    One ``{"prefix": ..., "rate_bps": ...}`` entry per elephant,
    ordered by descending rate then prefix text. This is the single
    serialization point shared by ``repro merge --json`` and the live
    service's ``repro query`` replies, so the two paths answer "which
    flows are elephants right now" with byte-identical JSON for the
    same summaries — the contract the regression tests lock down.

    Rates are rounded to micro-bit/s here, at the one serialization
    point: producers that reach the same slot through different float
    summation orders (a sharded ingest, a merge of per-monitor
    summaries) differ at ~1e-9 relative, and the envelope promises
    field-for-field equality, not equality-up-to-noise.
    """
    rows = verdict.elephants()
    rows = rows[rows != frame.residual_row]
    names = PrefixColumns.take(frame.population, rows).texts()
    entries = [
        {"prefix": name, "rate_bps": round(rate, 6)}
        for name, rate in zip(names, frame.rates[rows].tolist())
    ]
    entries.sort(key=lambda entry: (-entry["rate_bps"], entry["prefix"]))
    return entries


__all__ = ["RESULT_SCHEMA", "elephant_entries", "result_envelope"]
