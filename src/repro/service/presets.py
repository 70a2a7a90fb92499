"""Named campaign presets: every paper figure as a submittable campaign.

Each preset compiles to exactly the sweep the corresponding experiment
module runs from the command line — same point function, same grid, same
row order — so a preset campaign's rendered table is bit-identical to
``python -m repro.experiments.<module>`` (locked in by
``tests/test_service.py``).
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence, Tuple

from repro.experiments.runner import DEFAULT_TARGET_ACCESSES, WORKLOADS
from repro.service.spec import DEFAULT_SEED, Campaign

#: preset name -> (experiment module, default workloads, default trace size,
#: extra shared kwargs).
_PRESETS: Dict[str, Tuple[str, Optional[Tuple[str, ...]], int, Tuple[Tuple[str, Any], ...]]] = {
    "fig06": ("repro.experiments.fig06_correlation", None, DEFAULT_TARGET_ACCESSES, ()),
    "fig07": ("repro.experiments.fig07_compared_streams", None, DEFAULT_TARGET_ACCESSES, ()),
    "fig08": ("repro.experiments.fig08_lookahead", None, DEFAULT_TARGET_ACCESSES, ()),
    "fig09": ("repro.experiments.fig09_svb", None, DEFAULT_TARGET_ACCESSES, ()),
    "fig10": ("repro.experiments.fig10_cmob", None, DEFAULT_TARGET_ACCESSES, ()),
    "fig11": ("repro.experiments.fig11_bandwidth", None, DEFAULT_TARGET_ACCESSES, ()),
    "fig12": ("repro.experiments.fig12_comparison", None, DEFAULT_TARGET_ACCESSES, ()),
    "fig13": ("repro.experiments.fig13_stream_length", None, DEFAULT_TARGET_ACCESSES, ()),
    "fig14": ("repro.experiments.fig14_performance", None, DEFAULT_TARGET_ACCESSES, ()),
    "table3": ("repro.experiments.table3_timeliness", None, DEFAULT_TARGET_ACCESSES, ()),
    "warm_state": ("repro.experiments.warm_state", None, 80_000, ()),
}


def preset_names() -> Tuple[str, ...]:
    return tuple(sorted(_PRESETS))


def campaign(
    preset: str,
    workloads: Optional[Sequence[str]] = None,
    target_accesses: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    priority: int = 0,
    shared: Tuple[Tuple[str, Any], ...] = (),
) -> Campaign:
    """Build the campaign for a named preset, with optional overrides."""
    if preset not in _PRESETS:
        raise KeyError(
            f"unknown preset {preset!r}; available: {', '.join(preset_names())}"
        )
    experiment, default_workloads, default_accesses, preset_shared = _PRESETS[preset]
    if default_workloads is None:
        if preset == "warm_state":
            from repro.workloads.base import SCIENTIFIC_WORKLOADS

            default_workloads = tuple(SCIENTIFIC_WORKLOADS)
        else:
            default_workloads = tuple(WORKLOADS)
    merged_shared = dict(preset_shared)
    merged_shared.update(dict(shared))
    return Campaign(
        name=preset,
        experiment=experiment,
        workloads=tuple(workloads) if workloads is not None else default_workloads,
        seeds=(seed,),
        trace_sizes=(
            target_accesses if target_accesses is not None else default_accesses,
        ),
        shared=tuple(sorted(merged_shared.items())),
        priority=priority,
    )
