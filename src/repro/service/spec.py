"""Campaign specifications: declarative sweeps that compile to job lists.

A :class:`Campaign` names an experiment (any module with a module-level
:class:`~repro.experiments.runner.SweepSpec`) and the sweep grid to evaluate
it over — workloads x configs x seeds x trace sizes.  ``Campaign.jobs()``
compiles the grid into a deterministic, ordered list of :class:`Job`\\ s; a
job's :attr:`Job.key` is the canonical text of its full sweep-point domain
(experiment, workload, config cell, trace size, seed, nodes, shared
kwargs), rendered through the same
:func:`repro.experiments.cache.key_text` canonicalization the in-process
cache uses for its run keys.  The key is the persistent store's primary
key — two campaigns that contain the same point share one stored result.

Campaigns round-trip through JSON (:meth:`Campaign.to_dict` /
:meth:`Campaign.from_dict`) so the store can persist them for crash-resume
and the HTTP API can accept them; the round trip is normalizing (lists
become tuples, ``TSEConfig`` cells are tagged dicts), so a reloaded
campaign compiles to byte-identical job keys.

Every job runs the exact replay plane.  Records written by earlier builds
carry a ``"mode"`` field; :func:`check_mode` accepts ``"exact"`` there and
refuses anything else.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.common.config import DEFAULT_WARMUP_FRACTION, TSEConfig
from repro.experiments.cache import key_text
from repro.experiments.runner import DEFAULT_TARGET_ACCESSES, SweepSpec

#: Default seed every experiment module uses.
DEFAULT_SEED = 42

#: :class:`Job` fields canonicalized into :attr:`Job.key`, in key order.
#: RL001 (``repro.lint``) checks that every Job dataclass field appears in
#: exactly one of this tuple and :data:`JOB_NON_KEY_FIELDS`, and that every
#: name listed here is actually read inside the ``key`` property — deleting
#: a field from the key body without delisting it here (or vice versa) is a
#: lint error, not a silent cache-poisoning bug.
JOB_KEY_FIELDS: Tuple[str, ...] = (
    "experiment",
    "workload",
    "config",
    "target_accesses",
    "seed",
    "num_nodes",
    "shared",
)

#: Job fields deliberately *excluded* from the key (none: every field of a
#: job can affect its result).
JOB_NON_KEY_FIELDS: Tuple[str, ...] = ()


def check_mode(data: Dict[str, Any]) -> None:
    """Refuse a campaign spec, preset body or stored record whose ``"mode"``
    names anything but the exact plane (an absent mode is exact)."""
    mode = data.get("mode", "exact")
    if mode != "exact":
        raise ValueError(
            f"campaign mode {mode!r} is not supported: campaigns run the exact "
            f"plane only, because the fast plane leaves its validation bands "
            f"on held-out seeds"
        )


def _freeze(value: Any) -> Any:
    """Normalize a value to the canonical hashable form job keys use.

    Applied both to JSON-decoded campaigns and at ``Campaign`` construction,
    so a campaign built with Python lists compiles byte-identical job keys
    before and after a ``to_dict``/``from_dict`` round trip.
    """
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    if isinstance(value, dict):
        if set(value) == {"__tse_config__"}:
            return TSEConfig(**value["__tse_config__"])
        return {key: _freeze(item) for key, item in value.items()}
    return value


def _thaw(value: Any) -> Any:
    """Make a (possibly nested) config/shared value JSON-serializable."""
    if isinstance(value, TSEConfig):
        return {"__tse_config__": asdict(value)}
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    if isinstance(value, list):
        return [_thaw(item) for item in value]
    return value


def spec_for(experiment: str) -> SweepSpec:
    """Resolve an experiment module path to its module-level ``SPEC``.

    Only this repository's experiment modules are importable: campaign
    specs arrive over HTTP, and resolving an arbitrary caller-supplied
    module path would be an import primitive.
    """
    if not experiment.startswith("repro."):
        raise ValueError(f"experiment must be a repro module, got {experiment!r}")
    try:
        module = importlib.import_module(experiment)
    except ImportError as exc:
        raise ValueError(f"cannot import experiment {experiment!r}: {exc}") from exc
    spec = getattr(module, "SPEC", None)
    if not isinstance(spec, SweepSpec):
        raise ValueError(f"{experiment} does not define a SweepSpec SPEC")
    return spec


@dataclass(frozen=True)
class Job:
    """One sweep point of a campaign: fully self-describing and picklable."""

    experiment: str
    workload: str
    config: Any
    target_accesses: int
    seed: int
    num_nodes: int = 16
    shared: Tuple[Tuple[str, Any], ...] = ()

    @property
    def key(self) -> str:
        """Canonical determinism-key text (the persistent store's primary key).

        The shared warm-up fraction is included explicitly: the point
        functions bake it in implicitly via ``DEFAULT_WARMUP_FRACTION``, and
        persisted results must not survive a change to it as false cache
        hits.  The literal ``("mode", "exact")`` tail keeps every key
        persisted since the fast plane existed byte-identical.
        """
        return key_text((
            self.experiment, self.workload, self.config, self.target_accesses,
            self.seed, self.num_nodes, self.shared,
            ("warmup", DEFAULT_WARMUP_FRACTION),
            ("mode", "exact"),
        ))

    @property
    def job_id(self) -> str:
        """Short stable id for URLs and logs (prefix of the key's SHA-256)."""
        return hashlib.sha256(self.key.encode()).hexdigest()[:16]

    def summary(self) -> Dict[str, str]:
        """Small wire-safe identity payload for telemetry events.

        Deliberately tiny (key, short id, workload): event payloads are
        observational and must stay cheap to append per job — anything
        else a consumer needs, it looks up by key or ``job_id``.
        """
        return {
            "key": self.key,
            "job_id": self.job_id,
            "workload": self.workload,
        }

    def to_wire(self) -> Dict[str, Any]:
        """JSON-serializable form for the worker lease protocol."""
        return {
            "experiment": self.experiment,
            "workload": self.workload,
            "config": _thaw(self.config),
            "target_accesses": self.target_accesses,
            "seed": self.seed,
            "num_nodes": self.num_nodes,
            "shared": _thaw([list(pair) for pair in self.shared]),
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "Job":
        """Rebuild a leased job; compiles a byte-identical :attr:`key` to
        the scheduler's copy (the `_freeze` normalization both sides
        share), which is what lets the worker's results post land on the
        right store row."""
        return cls(
            experiment=str(data["experiment"]),
            workload=str(data["workload"]),
            config=_freeze(data["config"]),
            target_accesses=int(data["target_accesses"]),
            seed=int(data["seed"]),
            num_nodes=int(data["num_nodes"]),
            shared=tuple(
                (str(name), _freeze(value)) for name, value in data["shared"]
            ),
        )

    def execute(self) -> List[Dict[str, object]]:
        """Run this point through its experiment's ``SPEC.point`` function."""
        result = spec_for(self.experiment).point(
            self.workload, self.config,
            target_accesses=self.target_accesses, seed=self.seed,
            **dict(self.shared),
        )
        return result if isinstance(result, list) else [result]


@dataclass(frozen=True)
class Campaign:
    """A declarative sweep over workloads x configs x seeds x trace sizes.

    Attributes:
        name: Human-readable label (preset name for preset campaigns).
        experiment: Module path of the experiment (must define ``SPEC``).
        workloads: Outer sweep dimension.
        configs: Inner sweep cells; ``None`` uses the experiment spec's
            default configs.
        seeds: Trace RNG seeds (one full grid per seed).
        trace_sizes: ``target_accesses`` values (one full grid per size).
        num_nodes: Machine size (the experiments are calibrated for 16).
        shared: Extra fixed point kwargs, overriding the spec's defaults.
        priority: Scheduler priority; higher runs first.
    """

    name: str
    experiment: str
    workloads: Tuple[str, ...]
    configs: Optional[Tuple[Any, ...]] = None
    seeds: Tuple[int, ...] = (DEFAULT_SEED,)
    trace_sizes: Tuple[int, ...] = (DEFAULT_TARGET_ACCESSES,)
    num_nodes: int = 16
    shared: Tuple[Tuple[str, Any], ...] = ()
    priority: int = 0

    def __post_init__(self) -> None:
        # Normalize to the canonical hashable forms at construction, so a
        # campaign built with Python lists and its JSON round trip compile
        # byte-identical job keys (crash-resume dedupe depends on this).
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(self, "seeds", tuple(self.seeds))
        object.__setattr__(self, "trace_sizes", tuple(self.trace_sizes))
        if self.configs is not None:
            object.__setattr__(self, "configs", _freeze(tuple(self.configs)))
        object.__setattr__(
            self,
            "shared",
            tuple((str(name), _freeze(value)) for name, value in self.shared),
        )
        if not self.workloads:
            raise ValueError("campaign needs at least one workload")
        from repro.workloads import available_workloads

        valid = set(available_workloads())
        unknown = [name for name in self.workloads if name not in valid]
        if unknown:
            # Catches typos and the classic workloads="db2" (a string, which
            # tuple() explodes into characters) before anything is persisted.
            raise ValueError(
                f"unknown workloads {unknown}; available: {sorted(valid)}"
            )
        if not self.seeds or not self.trace_sizes:
            raise ValueError("campaign needs at least one seed and trace size")
        if self.num_nodes != 16:
            # The experiment point functions run the paper's 16-node machine
            # unconditionally; accepting another value here would persist
            # 16-node results under a mislabeled key.  The field exists (and
            # is part of the job key) so a future multi-size backend can
            # relax this without a store migration.
            raise ValueError("campaigns currently support num_nodes=16 only")

    def spec(self) -> SweepSpec:
        return spec_for(self.experiment)

    def resolved_configs(self) -> Tuple[Any, ...]:
        return self.configs if self.configs is not None else self.spec().configs

    def resolved_shared(self) -> Tuple[Tuple[str, Any], ...]:
        merged = dict(self.spec().shared)
        merged.update(dict(self.shared))
        return tuple(sorted(merged.items()))

    def jobs(self) -> List[Job]:
        """The deterministic job list: sizes, then seeds, then the
        ``run_parallel`` order (workloads major, configs minor) — so a
        single-size single-seed campaign's rows line up row-for-row with
        the experiment module's direct ``run()`` output."""
        shared = self.resolved_shared()
        configs = self.resolved_configs()
        return [
            Job(
                experiment=self.experiment,
                workload=workload,
                config=config,
                target_accesses=target_accesses,
                seed=seed,
                num_nodes=self.num_nodes,
                shared=shared,
            )
            for target_accesses in self.trace_sizes
            for seed in self.seeds
            for workload in self.workloads
            for config in configs
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "experiment": self.experiment,
            "workloads": list(self.workloads),
            "configs": None if self.configs is None else _thaw(list(self.configs)),
            "seeds": list(self.seeds),
            "trace_sizes": list(self.trace_sizes),
            "num_nodes": self.num_nodes,
            "shared": _thaw([list(pair) for pair in self.shared]),
            "priority": self.priority,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "Campaign":
        unknown = set(data) - {f.name for f in fields(cls)} - {"mode"}
        if unknown:
            raise ValueError(f"unknown campaign fields: {sorted(unknown)}")
        check_mode(data)
        configs = data.get("configs")
        return cls(
            name=str(data["name"]),
            experiment=str(data["experiment"]),
            workloads=tuple(data["workloads"]),
            configs=None if configs is None else _freeze(list(configs)),
            seeds=tuple(data.get("seeds", (DEFAULT_SEED,))),
            trace_sizes=tuple(data.get("trace_sizes", (DEFAULT_TARGET_ACCESSES,))),
            num_nodes=int(data.get("num_nodes", 16)),
            shared=tuple(
                (str(name), _freeze(value))
                for name, value in data.get("shared", ())
            ),
            priority=int(data.get("priority", 0)),
        )

    def finalize_rows(self, rows: List[Dict[str, object]]) -> List[Dict[str, object]]:
        """Apply the spec's whole-table hook (e.g. Figure 10's
        fraction-of-peak annotation) to merged job rows.  Hooks must be
        idempotent: they recompute derived columns from the base columns."""
        spec = self.spec()
        return spec.finalize(rows) if spec.finalize is not None else rows

    def render(self, rows: List[Dict[str, object]]) -> str:
        """Format merged job rows exactly as the experiment CLI prints them
        (title + aligned table, finalize hook applied)."""
        from repro.experiments.runner import format_table

        spec = self.spec()
        return spec.title + "\n" + format_table(self.finalize_rows(rows), spec.columns)
