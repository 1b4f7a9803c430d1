"""Digests of simulated outputs and the correctness gate built on them.

A simulation's outputs are its latency summary, its cycle count and, for
closed-loop runs, its drain metrics.  A sweep also reports rows.  Each is
hashed from canonical JSON, so two runs agree exactly when every reported
number is bit-identical.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Mapping, Optional

__all__ = ["failed_operations", "outputs_digest", "rows_text", "simulation_outputs"]


def simulation_outputs(result) -> Dict[str, object]:
    """The simulated outputs of one ``SimulationResult`` (config excluded,
    so results of the flat and object cores compare directly)."""
    return {
        "summary": result.summary.as_dict(),
        "cycles": result.cycles,
        "drain": result.drain,
    }


def outputs_digest(outputs: object) -> str:
    """SHA-256 of the canonical JSON rendering of ``outputs``."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def rows_text(study_result) -> str:
    """The report rows and Markdown of a study, as the bytes a user sees."""
    rows = json.dumps(study_result.rows, sort_keys=True)
    return rows + "\n" + study_result.to_markdown()


def failed_operations(report: Mapping[str, object], reference: Mapping[str, object]) -> int:
    """Operations of one iteration that fail the gate.

    A simulation fails when its digest differs from the reference at the
    same position or when it ran out of cycle budget.  A wrong number of
    simulations, differing report rows or a warm rerun that simulated
    anything or changed a byte of the rows fails every operation.
    """
    expected = list(reference["digests"])
    digests = list(report["digests"])
    drained = list(report["drained"])
    if len(digests) != len(expected):
        return max(len(digests), len(expected))
    rows_digest: Optional[str] = reference.get("rows_digest")
    if report.get("rows_digest") != rows_digest or report.get("warm_ok") is False:
        return len(digests)
    return sum(
        1
        for digest, want, done in zip(digests, expected, drained)
        if digest != want or not done
    )
