"""The one regression gate for the committed ``BENCH_*.json`` baselines.

``scripts/bench.py <suite> --baseline FILE`` gates CI through
:func:`check_baseline`.  The comparison rules live here, once:

* wall-clock keys are gated only above a noise floor (tiny timings
  are scheduler noise, not signal),
* speedup-ratio keys are always gated — ratios compare two paths
  within one run, so they normalize away the recording machine,
* a run regresses when a timing grows, or a ratio shrinks, by more
  than ``max_regression`` x; keys absent on either side are skipped.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from typing import Dict, List, Optional, Sequence

#: Baseline timings below this are dominated by scheduler noise and
#: are not gated by the wall-clock regression check.
GATE_FLOOR_SECONDS = 0.05

#: :func:`check_baseline` exit codes.  An unmatched config gets its own
#: code so a CI step whose flags drifted from the recorded config reads
#: differently from a real regression.
GATE_OK, GATE_REGRESSED, GATE_NO_BASELINE = 0, 1, 2


def host_metadata() -> dict:
    """Host facts recorded beside every BENCH trajectory entry.

    Kept out of ``config`` (baseline matching is on the
    machine-independent workload shape) but always stored, so points
    from different machines stay distinguishable in the trajectory.
    """
    return {
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
    }


def find_baseline_entry(
    history, config: dict
) -> Optional[dict]:
    """The newest committed entry whose ``config`` matches, if any."""
    if isinstance(history, dict):
        history = [history]
    matches = [
        entry for entry in history if entry.get("config") == config
    ]
    return matches[-1] if matches else None


def compare_results(
    base: Dict[str, float],
    current: Dict[str, float],
    gated_keys: Sequence[str],
    gated_ratios: Sequence[str],
    max_regression: float,
    floor: float = GATE_FLOOR_SECONDS,
    label: str = "",
) -> List[str]:
    """Failure lines for every gated regression of ``current`` vs ``base``.

    ``label`` prefixes each line (e.g. ``"r=200 "`` for per-point
    build results).  Keys missing on either side are skipped, so old
    baselines keep gating new runs that add keys.
    """
    failures: List[str] = []
    for key in gated_keys:
        if key not in base or key not in current:
            continue
        if base[key] < floor:
            continue  # noise-dominated at this scale
        if current[key] > base[key] * max_regression:
            failures.append(
                f"{label}{key}: {current[key]:.4f}s vs baseline "
                f"{base[key]:.4f}s (> {max_regression}x)"
            )
    for key in gated_ratios:
        if key not in base or key not in current:
            continue
        if current[key] * max_regression < base[key]:
            failures.append(
                f"{label}{key}: {current[key]:.2f}x vs baseline "
                f"{base[key]:.2f}x (lost > {max_regression}x)"
            )
    return failures


def check_baseline(
    report: dict, history, suite, max_regression: float = 2.0
) -> int:
    """Gate ``report`` on its committed baseline; the process exit code.

    ``history`` is a loaded ``BENCH_<suite>.json`` list; the newest
    entry with the run's ``config`` is the baseline (none is a failure,
    not a skip) and points pair up by ``label``.  ``suite`` is read for
    ``gated_keys`` / ``gated_ratios``.  Failure lines go to stderr.
    """
    baseline = find_baseline_entry(history, report["config"])
    if baseline is None:
        recorded = "\n  ".join(
            json.dumps(entry.get("config"), sort_keys=True)
            for entry in history
        )
        print(
            "NO BASELINE: no committed entry has this run's config "
            f"{json.dumps(report['config'], sort_keys=True)}; "
            f"recorded:\n  {recorded}",
            file=sys.stderr,
        )
        return GATE_NO_BASELINE
    base_points = {point["label"]: point for point in baseline["results"]}
    failures: List[str] = []
    for point in report["results"]:
        if point["label"] in base_points:
            failures += compare_results(
                base_points[point["label"]], point,
                suite.gated_keys, suite.gated_ratios, max_regression,
                label=f"{point['label']} ",
            )
    for line in failures:
        print(f"REGRESSION: {line}", file=sys.stderr)
    return GATE_REGRESSED if failures else GATE_OK
