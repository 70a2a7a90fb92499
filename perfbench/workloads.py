"""The benchmark's three workloads: ``sweep``, ``figures`` and ``campaign``.

Each is closed loop with one client, this process.  ``setup()`` does what a
fresh run pays before its first result (imports, trace generation, store
open).  ``operation()`` runs one timed operation that starts cold in every
memo layer: the experiment caches are cleared first, trace objects are
rebuilt from their packed columns so no label cache or object view
survives, and each campaign operation gets a new store file.  Correctness
checks run after the timed part and are not counted in ``op_s``.

With ``reference=True`` (the traced run) an operation adds the steps that
measure a layer from outside, recorded as harness spans: direct
classification through ``CoherenceProtocol.read_ints`` / ``write_ints``, the
plain replay beside the traffic-accounted one, a warm ``compare`` after the
cold one, and the campaign's points called directly through ``run_sweep``.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List

from spans import Span, Tracer, total

SWEEP_ACCESSES = 80_000
FIGURES_ACCESSES = 40_000
CAMPAIGN_ACCESSES = 1_000
CAMPAIGN_SEEDS = 60
#: Store-served resubmissions timed per campaign operation (~40 ms each).
RESUBMITS = 10

TRACE_WORKLOADS = ("em3d", "db2", "apache")
PREFETCH_WORKLOADS = ("em3d", "db2")
CAMPAIGN_WORKLOADS = ("apache", "db2", "oracle", "zeus", "jbb")

#: EXPERIMENTS.md calibration (16 nodes, seed 42, 80k accesses, paper
#: lookahead): (measured trace coverage, the paper's Table 3 value).
CALIBRATION = {"em3d": (0.824, 1.00), "db2": (0.508, 0.60), "apache": (0.537, 0.43)}


def derive_seeds(seed: int, count: int) -> List[int]:
    """Trace seeds for one benchmark seed; never 42, the calibration seed."""
    return random.Random(seed).sample(range(1_000, 1_000_000), count)


def digest(payload: object) -> str:
    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def stats_record(stats) -> Dict[str, object]:
    """Every simulated statistic of one TSE run."""
    return {**stats.as_dict(),
            "stream_lengths": sorted(stats.stream_length_hist.buckets().items())}


@dataclass
class Outcome:
    #: Time of the user-facing steps at reference host speed (harness
    #: steps excluded).
    op_s: float
    #: Workload-specific end-to-end rates, name -> value.
    rates: Dict[str, float]
    #: Per-layer counts and derived times for the traced report.  Its
    #: "layers" entry splits the operation's time among the layers; where
    #: one call does two layers' work (the traffic-on replay is a plain
    #: replay plus accounting), the split uses the reference steps.
    layer: Dict[str, float] = field(default_factory=dict)
    digest: str = ""
    errors: List[str] = field(default_factory=list)
    #: Id of the operation's spans in the tracer.
    op_id: str = ""


def op_seconds(spans: List[Span], op: Span) -> float:
    """The operation's time minus the harness steps it contains."""
    return op.scaled - sum(s.scaled for s in spans if s.harness)


class Workload:
    name = ""
    #: Workload-specific end-to-end rates: name -> (unit, description).
    rates: Dict[str, tuple] = {}

    def __init__(self, seed: int, tracer: Tracer, scratch: Path) -> None:
        self.seed = seed
        self.tracer = tracer
        self.scratch = scratch
        self.count = 0

    def setup(self) -> None:
        raise NotImplementedError

    def operation(self, reference: bool) -> Outcome:
        raise NotImplementedError

    def context(self) -> List[str]:
        """Accuracy context lines for the report."""
        return []

    def setup_layer(self) -> Dict[str, float]:
        """Per-layer values measured during set-up."""
        return {}

    def _begin(self) -> str:
        self.count += 1
        self.tracer.op = f"op{self.count}"
        return self.tracer.op


class TraceWorkload(Workload):
    """Shared set-up of ``sweep`` and ``figures``: one trace per workload."""

    accesses = 0

    def setup(self) -> None:
        from repro.workloads import get_workload
        from repro.workloads.base import WorkloadParams

        params = WorkloadParams(num_nodes=16, seed=derive_seeds(self.seed, 1)[0],
                                target_accesses=self.accesses)
        self.payloads = {}
        self.generated = 0
        for name in TRACE_WORKLOADS:
            with self.tracer.span("workloads.generate"):
                trace = get_workload(name, params).generate_chunked()
            self.payloads[name] = trace.to_payload()
            self.generated += len(trace)

    def setup_layer(self) -> Dict[str, float]:
        return {"workloads.generate_s": total(self.tracer.of_op("setup"),
                                              "workloads.generate"),
                "workloads.accesses": self.generated}

    def fresh(self, name: str):
        from repro.common.chunk import ChunkedTrace

        return ChunkedTrace.from_payload(self.payloads[name])


def classify(trace) -> Dict[str, int]:
    """Drive a trace's columns through ``read_ints`` / ``write_ints`` alone."""
    from repro.coherence.protocol import READ_COHERENT, READ_COLD, CoherenceProtocol
    from repro.common.types import TYPE_IS_WRITE, TYPE_SPIN_READ

    protocol = CoherenceProtocol(trace.num_nodes)
    read, write = protocol.read_ints, protocol.write_ints
    consumptions = cold = writes = 0
    for chunk in trace.chunks():
        for node, block, code in zip(chunk.nodes, chunk.blocks, chunk.types):
            if TYPE_IS_WRITE[code]:
                write(node, block)
                writes += 1
                continue
            outcome = read(node, block, code == TYPE_SPIN_READ)
            if outcome == READ_COHERENT:
                consumptions += 1
            elif outcome == READ_COLD:
                cold += 1
    return {"consumptions": consumptions, "cold_misses": cold, "writes": writes}


def tse_counts(stats_list) -> Dict[str, float]:
    hits = sum(s.svb_hits for s in stats_list)
    fetched = sum(s.blocks_fetched for s in stats_list)
    return {
        "tse.svb_hits": hits,
        "tse.blocks_fetched": fetched,
        "tse.discarded_blocks": sum(s.discarded_blocks for s in stats_list),
        "tse.accuracy": hits / fetched if fetched else 0.0,
    }


class Sweep(TraceWorkload):
    """Fig. 9 sensitivity sweep: 4 SVB sizes x {exact, fast} per trace."""

    name = "sweep"
    accesses = SWEEP_ACCESSES
    rates = {
        "exact_acc_per_s": ("acc/s", "accesses replayed per host second, exact plane"),
        "fast_acc_per_s": ("acc/s", "accesses replayed per host second, fast plane"),
    }

    def operation(self, reference: bool) -> Outcome:
        from repro.common.config import TSEConfig
        from repro.experiments.cache import clear_cache
        from repro.experiments.fig09_svb import SVB_SIZES
        from repro.tse.simulator import run_tse_on_trace

        t = self.tracer
        op_id = self._begin()
        results = {}
        classified = {}
        replayed = 0
        with t.span("bench.op") as op:
            with t.span("experiments.clear_cache"):
                clear_cache()
            for name in TRACE_WORKLOADS:
                with t.span("chunk.rebuild"):
                    trace = self.fresh(name)
                if reference:
                    with t.span("coherence.classify", harness=True):
                        classified[name] = classify(trace)
                for label, entries in SVB_SIZES:
                    config = TSEConfig.paper_default(lookahead=8).with_(svb_entries=entries)
                    for mode in ("exact", "fast"):
                        with t.span(f"tse.replay_{mode}"):
                            results[name, label, mode] = run_tse_on_trace(
                                trace, config, mode=mode)
                    replayed += len(trace)
        spans = t.of_op(op_id)
        exact_s = total(spans, "tse.replay_exact")
        fast_s = total(spans, "tse.replay_fast")
        outcome = Outcome(
            op_s=op_seconds(spans, op),
            rates={"exact_acc_per_s": replayed / exact_s,
                   "fast_acc_per_s": replayed / fast_s},
            digest=digest({f"{n}/{l}/{m}": stats_record(s)
                           for (n, l, m), s in sorted(results.items())}),
            errors=self._check(results),
        )
        self.coverage = {name: results[name, "2k", "exact"].coverage
                         for name in TRACE_WORKLOADS}
        if reference:
            classify_s = total(spans, "coherence.classify")
            outcome.layer = {
                "coherence.classify_s": classify_s,
                **{f"coherence.{k}": sum(c[k] for c in classified.values())
                   for k in ("consumptions", "cold_misses", "writes")},
                "tse.replay_exact_s": exact_s,
                "tse.replay_fast_s": fast_s,
                "tse.self_exact_s": exact_s - len(SVB_SIZES) * classify_s,
                **tse_counts([s for (_, _, m), s in results.items() if m == "exact"]),
            }
            outcome.layer["layers"] = {
                "chunk": total(spans, "chunk.rebuild"),
                "experiments": total(spans, "experiments.clear_cache"),
                "coherence": len(SVB_SIZES) * classify_s,
                "tse": exact_s + fast_s - len(SVB_SIZES) * classify_s,
            }
        return outcome

    def _check(self, results) -> List[str]:
        """Fast-plane aggregates stay within validate_fast_mode.BANDS.

        The bands are the fast plane's contract at the paper-default
        configuration, which is the 2 KB point, and only coverage and
        discards stay inside them there on every seed: the mean stream
        length leaves its 15% band on some seeds (db2 by up to ~22%), and
        the 512 B point leaves the discard band.  Those deltas are reported
        in the context lines instead of failing the operation.
        """
        from validate_fast_mode import BANDS, _unpack_band, check_metric

        errors = []
        self.off_band = []
        for (name, label, mode), fast in results.items():
            if mode != "fast":
                continue
            exact = results[name, label, "exact"]
            pairs = {
                "coverage": (exact.coverage, fast.coverage),
                "discard_rate": (exact.discard_rate, fast.discard_rate),
                "mean_stream_length": (exact.stream_length_hist.mean,
                                       fast.stream_length_hist.mean),
            }
            for metric, (want, got) in pairs.items():
                kind, width, floor = _unpack_band(BANDS[metric])
                if check_metric(kind, width, want, got, floor)[1]:
                    continue
                text = (f"{name} {label}: fast {metric} {got:.4f} outside its band "
                        f"around exact {want:.4f}")
                held = label == "2k" and metric != "mean_stream_length"
                (errors if held else self.off_band).append(text)
        return errors

    def context(self) -> List[str]:
        lines = ["simulated coverage (Fig. 9 point: 2 KB SVB, lookahead 8, exact) "
                 "vs EXPERIMENTS.md calibration (seed 42, paper lookahead):"]
        for name in TRACE_WORKLOADS:
            measured, paper = CALIBRATION[name]
            lines.append(f"  {name:7s} coverage {self.coverage[name]:.3f}   "
                         f"calibrated {measured:.3f}   paper {paper:.2f}")
        lines += [f"fast plane off its validate_fast_mode band: {text}"
                  for text in self.off_band]
        return lines


class Figures(TraceWorkload):
    """Figs. 11, 14 and 12: traffic-accounted replay plus bandwidth, the
    timing model's base-vs-TSE ``compare``, and the baseline prefetchers."""

    name = "figures"
    accesses = FIGURES_ACCESSES
    rates = {
        "traffic_acc_per_s": ("acc/s", "accesses per host second through "
                              "traffic-accounted replay"),
        "timing_acc_per_s": ("acc/s", "accesses per host second through cold "
                             "base+TSE compare"),
    }

    def operation(self, reference: bool) -> Outcome:
        from repro.analysis.bandwidth import bandwidth_overhead
        from repro.common.config import PAPER_LOOKAHEAD, SystemConfig, TSEConfig
        from repro.experiments.cache import clear_cache
        from repro.prefetch import GHBPrefetcher, StridePrefetcher, evaluate_prefetcher
        from repro.system.timing import TimingSimulator
        from repro.tse.simulator import run_tse_on_trace

        t = self.tracer
        op_id = self._begin()
        system = SystemConfig.isca2005()
        traces, configs, record = {}, {}, {}
        traffic, plain, compared = {}, {}, {}
        with t.span("bench.op") as op:
            with t.span("experiments.clear_cache"):
                clear_cache()
            for name in TRACE_WORKLOADS:
                config = configs[name] = TSEConfig.paper_default(
                    lookahead=PAPER_LOOKAHEAD.get(name, 8))
                with t.span("chunk.rebuild"):
                    trace = traces[name] = self.fresh(name)
                with t.span("chunk.materialize"):
                    trace.accesses
                if reference:
                    with t.span("tse.replay_plain", harness=True):
                        plain[name] = run_tse_on_trace(trace, config, mode="exact")
                with t.span("tse.replay_traffic"):
                    stats = traffic[name] = run_tse_on_trace(
                        trace, config, account_traffic=True,
                        interconnect_config=system.interconnect, mode="exact")
                with t.span("analysis.bandwidth"):
                    bandwidth = bandwidth_overhead(stats, trace, system)
                simulator = TimingSimulator(system, config)
                with t.span("system.compare"):
                    comparison = compared[name] = simulator.compare(trace)
                if reference:
                    with t.span("node.walk", harness=True):
                        simulator.compare(trace)
                record[name] = {
                    "traffic": stats_record(stats),
                    "bandwidth": asdict(bandwidth),
                    "timing": comparison.table3_row(),
                    "breakdowns": comparison.normalized_breakdowns(),
                }
                if name in PREFETCH_WORKLOADS:
                    for label, factory in (
                        ("stride", lambda: StridePrefetcher(degree=8)),
                        ("ghb", lambda: GHBPrefetcher(mode="G/DC", history_entries=512,
                                                      degree=8)),
                    ):
                        with t.span(f"prefetch.{label}"):
                            result = evaluate_prefetcher(trace, factory, buffer_entries=32)
                        record[name][label] = result.as_dict()
        spans = t.of_op(op_id)
        accesses = sum(len(trace) for trace in traces.values())
        outcome = Outcome(
            op_s=op_seconds(spans, op),
            rates={"traffic_acc_per_s": accesses / total(spans, "tse.replay_traffic"),
                   "timing_acc_per_s": accesses / total(spans, "system.compare")},
            digest=digest(record),
        )
        # Checks, untimed: traffic accounting leaves the TSE counters alone,
        # and the timing model's functional run is the plain exact replay.
        for name, trace in traces.items():
            if name not in plain:
                plain[name] = run_tse_on_trace(trace, configs[name], mode="exact")
            counted = {k: v for k, v in stats_record(traffic[name]).items()
                       if not k.startswith("traffic.")}
            if counted != stats_record(plain[name]):
                outcome.errors.append(f"{name}: traffic accounting changed TSE stats")
            functional = run_tse_on_trace(trace, configs[name], warmup_fraction=0.0,
                                          mode="exact")
            if stats_record(compared[name].functional) != stats_record(functional):
                outcome.errors.append(f"{name}: compare().functional differs from "
                                      "the exact replay")
        self.coverage = {name: traffic[name].coverage for name in TRACE_WORKLOADS}
        self.speedup = {name: compared[name].speedup for name in TRACE_WORKLOADS}
        if reference:
            plain_s = total(spans, "tse.replay_plain")
            traffic_s = total(spans, "tse.replay_traffic")
            cold_s = total(spans, "system.compare")
            warm_s = total(spans, "node.walk")
            volumes = [traffic[name].traffic for name in TRACE_WORKLOADS]
            outcome.layer = {
                "chunk.materialize_s": total(spans, "chunk.materialize"),
                "interconnect.account_s": traffic_s - plain_s,
                "interconnect.bytes": sum(v["baseline.total_bytes"]
                                          + v["overhead.total_bytes"] for v in volumes),
                "interconnect.overhead_bytes": sum(v["overhead.total_bytes"]
                                                   for v in volumes),
                "analysis.bandwidth_s": total(spans, "analysis.bandwidth"),
                "system.label_s": cold_s - warm_s,
                "node.walk_s": warm_s,
                "prefetch.stride_s": total(spans, "prefetch.stride"),
                "prefetch.ghb_s": total(spans, "prefetch.ghb"),
                **tse_counts(list(traffic.values())),
            }
            outcome.layer["layers"] = {
                "chunk": total(spans, "chunk.rebuild") + total(spans, "chunk.materialize"),
                "experiments": total(spans, "experiments.clear_cache"),
                "tse": plain_s,
                "interconnect": traffic_s - plain_s,
                "analysis": total(spans, "analysis.bandwidth"),
                "system": cold_s - warm_s,
                "node": warm_s,
                "prefetch": total(spans, "prefetch.stride") + total(spans, "prefetch.ghb"),
            }
        return outcome

    def context(self) -> List[str]:
        lines = ["simulated coverage (Fig. 11 replay: paper lookahead, 40k accesses) "
                 "vs EXPERIMENTS.md calibration (seed 42, 80k accesses):"]
        for name in TRACE_WORKLOADS:
            measured, paper = CALIBRATION[name]
            lines.append(f"  {name:7s} coverage {self.coverage[name]:.3f}   "
                         f"calibrated {measured:.3f}   paper {paper:.2f}   "
                         f"Fig. 14 speedup {self.speedup[name]:.3f}")
        lines.append("  The Fig. 14 speedups are unvalidated: the repository holds "
                     "no hardware reference to measure their error against.")
        return lines


class Campaign(Workload):
    """1200 fig09 jobs (5 workloads x 60 seeds x 4 SVB sizes, 1000 accesses
    each) through ``Service(max_workers=1)`` on a fresh store."""

    name = "campaign"
    rates = {
        "jobs_per_s": ("jobs/s", "jobs per second, first submission "
                       "(computed and stored)"),
        "resubmit_jobs_per_s": ("jobs/s", "jobs per second, store-served "
                                "resubmission"),
    }

    def setup(self) -> None:
        from repro.service import Campaign as Spec, Service

        self.seeds = tuple(derive_seeds(self.seed, CAMPAIGN_SEEDS))
        self.spec = Spec(
            name="perfbench", experiment="repro.experiments.fig09_svb",
            workloads=CAMPAIGN_WORKLOADS, seeds=self.seeds,
            trace_sizes=(CAMPAIGN_ACCESSES,),
        )
        with self.tracer.span("service.open"):
            Service(store_path=self._store("setup"), max_workers=1).close()

    def _store(self, tag: str) -> Path:
        return self.scratch / f"store-{tag}.sqlite"

    def operation(self, reference: bool) -> Outcome:
        from repro.experiments import fig09_svb
        from repro.experiments.cache import cache_info, clear_cache
        from repro.experiments.runner import run_sweep
        from repro.service import Service
        from repro.service.events import EventLog
        from repro.workloads import get_workload
        from repro.workloads.base import WorkloadParams

        t = self.tracer
        op_id = self._begin()
        errors = []
        with t.span("bench.op") as op:
            with t.span("experiments.clear_cache"):
                clear_cache()
            with t.span("service.open"):
                service = Service(store_path=self._store(op_id), max_workers=1,
                                  events_enabled=True)
            try:
                with t.span("service.submit"):
                    run = service.submit(self.spec)
                with t.span("service.wait"):
                    service.wait(run)
                for _ in range(RESUBMITS):
                    with t.span("service.resubmit"):
                        again = service.submit(self.spec, wait=True)
                    if again.computed or again.cached != again.total:
                        errors.append(f"resubmission computed {again.computed} jobs")
                with t.span("service.results"):
                    rows = service.results(run)
            finally:
                with t.span("service.close"):
                    service.close()
            if reference:
                generated = 0
                for seed in self.seeds:
                    for name in CAMPAIGN_WORKLOADS:
                        params = WorkloadParams(num_nodes=16, seed=seed,
                                                target_accesses=CAMPAIGN_ACCESSES)
                        with t.span("workloads.generate", harness=True):
                            generated += len(get_workload(name, params).generate_chunked())
                with t.span("experiments.direct", harness=True):
                    clear_cache()
                    direct = []
                    for seed in self.seeds:
                        direct += run_sweep(fig09_svb.SPEC, workloads=CAMPAIGN_WORKLOADS,
                                            target_accesses=CAMPAIGN_ACCESSES, seed=seed)
                cache = cache_info()
        spans = t.of_op(op_id)
        jobs = run.total
        if run.computed != jobs or run.failed:
            errors.append(f"computed {run.computed} of {jobs} jobs, {run.failed} failed")
        if len(rows) != jobs:
            errors.append(f"{len(rows)} result rows for {jobs} jobs")
        resubmits = [s.scaled for s in spans if s.name == "service.resubmit"]
        outcome = Outcome(
            op_s=op_seconds(spans, op),
            rates={"jobs_per_s": jobs / (total(spans, "service.submit")
                                         + total(spans, "service.wait")),
                   "resubmit_jobs_per_s": jobs / statistics.median(resubmits)},
            digest=digest(rows),
            errors=errors,
        )
        if reference:
            if json.loads(json.dumps(direct)) != rows:
                errors.append("service rows differ from the direct run_sweep rows")
            events = EventLog(self._store(op_id)).after(run.id, 0, limit=1_000_000)
            outcome.layer = self._service_layer(spans, run, events, cache, generated,
                                                op.factor)
        return outcome

    @staticmethod
    def _service_layer(spans, run, events, cache, generated, factor) -> Dict[str, float]:
        queued = {e.data["key"]: e.created for e in events if e.type == "job.queued"}
        waits = [e.created - queued[e.data["key"]]
                 for e in events if e.type == "job.started" and e.data["key"] in queued]
        direct_s = total(spans, "experiments.direct")
        generate_s = total(spans, "workloads.generate")
        wait_s = total(spans, "service.wait")
        service_s = sum(total(spans, f"service.{step}") for step in
                        ("open", "submit", "resubmit", "results", "close"))
        return {
            "workloads.generate_s": generate_s,
            "workloads.accesses": generated,
            "experiments.direct_s": direct_s,
            "experiments.cache_hits": cache["hits"],
            "experiments.cache_misses": cache["misses"],
            "service.submit_s": total(spans, "service.submit"),
            "service.wait_s": wait_s,
            "service.overhead_s": wait_s - direct_s,
            # Event stamps are wall clock; scaled like the operation.
            "service.queue_wait_p50_s": statistics.median(waits) * factor,
            "service.resubmit_s": statistics.median(
                s.scaled for s in spans if s.name == "service.resubmit"),
            "service.results_s": total(spans, "service.results"),
            "service.events": len(events),
            "service.jobs_computed": run.computed,
            "service.jobs_failed": run.failed,
            "service.jobs_retried": sum(e.type == "job.retried" for e in events),
            "layers": {
                "experiments": total(spans, "experiments.clear_cache")
                + direct_s - generate_s,
                "workloads": generate_s,
                "service": service_s + wait_s - direct_s,
            },
        }


WORKLOADS = {cls.name: cls for cls in (Sweep, Figures, Campaign)}
