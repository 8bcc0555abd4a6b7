"""``batch_fleet``: one operation is one checkpointed fleet-day.

The timed operation ingests the day's events shard by shard into a
spilling events table and runs ``DailyCdiJob.run_checkpointed`` over
fine shards, so the whole batch path runs: ingest/spill, column scan,
resolve, kernel, checkpoint, output write.  A round is ``CLEAN_DAYS``
seeded days plus one poisoned day whose inputs do not depend on the
seed.
"""

from __future__ import annotations

import time
from types import SimpleNamespace

import repro.pipeline.daily as daily_module
from repro.core.events import Event, Severity
from repro.core.indicator import ServicePeriod
from repro.engine.dataset import EngineContext
from repro.engine.executor import TaskFailedError
from repro.engine.trace import RunTrace
from repro.pipeline.checkpoint import JobCheckpoint
from repro.pipeline.daily import DailyCdiJob
from repro.pipeline.tables import (
    EVENT_CDI_TABLE,
    EVENTS_TABLE,
    VM_CDI_TABLE,
    event_cdi_schema,
    events_schema,
    vm_cdi_schema,
)
from repro.storage import SpillTable
from repro.storage.configdb import ConfigDB
from repro.storage.table import Table, TableStore

from harness import NULL_TRACER, TimedPhase, parallelism
from inputs import (
    DAY,
    POISON_SEED,
    Generator,
    columns,
    day_seed,
    report_errors,
    table_errors,
    vm_ids,
)

VMS = 500
#: Fine shards: the checkpoint rewrites the staging store after every
#: shard, so it does most of a day's work, as it does at scale today.
SHARDS = 32
#: In-memory budget per events partition before it spills to disk.  A
#: shard holds about 24 events a day (9 to 39 over seeds 0-4) and eight
#: cross the budget, so every shard spills.
SPILL_BYTES = 2 << 10
CLEAN_DAYS = 5
#: Position of the poisoned day within a round.
POISON_SLOT = 2
#: The poisoned event: a negative-duration vm_down on the first VM.
POISON_VM_INDEX = 0


class Day:
    def __init__(self, label: str, shards: list, poisoned: bool) -> None:
        self.label = label
        self.shards = shards
        self.poisoned = poisoned


def setup(seed: int, hooks=None):
    """Generate one round of days (in memory)."""
    gen = Generator(vm_ids(VMS))
    days = [Day(f"day{d:02d}", gen.day(day_seed(seed, d), SHARDS), False)
            for d in range(CLEAN_DAYS)]
    poisoned = gen.day(POISON_SEED, SHARDS)
    target = gen.vms[POISON_VM_INDEX]
    unit, events = poisoned[0]
    bad = Event(name="vm_down", time=3600.0, target=target,
                expire_interval=600.0, level=Severity.FATAL,
                attributes={"duration": -60.0})
    poisoned[0] = (unit, [bad] + events)
    days.insert(POISON_SLOT, Day("poisoned", poisoned, True))
    return SimpleNamespace(gen=gen, days=days)


def oracles(gen: Generator, days: list, services: dict) -> dict:
    """Oracle tables per day, over its clean events only."""
    out = {}
    for day in days:
        events = [e for _, evs in day.shards for e in evs
                  if e.attributes["duration"] >= 0.0]
        out[day.label] = gen.oracle(events, services)
    return out


class Hooks:
    """Traced-mode layer timing around the program's public calls."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        hooks = self

        class TracedEvents(SpillTable):
            def columns(self, *args, **kwargs):
                with tracer.span("storage.scan"):
                    return super().columns(*args, **kwargs)

        class TracedOutput(Table):
            def overwrite_partition_columns(self, *args, **kwargs):
                with tracer.span("storage.output_write"):
                    return super().overwrite_partition_columns(*args,
                                                               **kwargs)

        class TracedCheckpoint(JobCheckpoint):
            def begin(self, *args, **kwargs):
                hooks._saved(self, super().begin, *args, **kwargs)

            def record_shard(self, *args, **kwargs):
                hooks._saved(self, super().record_shard, *args, **kwargs)

            def mark_finalized(self):
                hooks._saved(self, super().mark_finalized)

            def merged_columns(self, *args, **kwargs):
                with tracer.span("pipeline.checkpoint"):
                    return super().merged_columns(*args, **kwargs)

        self.events_table = TracedEvents
        self.output_table = TracedOutput
        self.checkpoint = TracedCheckpoint
        self._kernel = daily_module.fleet_cdi_columns_columnar

        def kernel(*args, **kwargs):
            with tracer.span("core.kernel"):
                return hooks._kernel(*args, **kwargs)

        daily_module.fleet_cdi_columns_columnar = kernel

    def _saved(self, checkpoint, method, *args, **kwargs) -> None:
        with self.tracer.span("pipeline.checkpoint"):
            method(*args, **kwargs)
        self.tracer.count("pipeline.checkpoint_saves")
        self.tracer.count("pipeline.checkpoint_bytes",
                          checkpoint.path.stat().st_size)

    def close(self) -> None:
        daily_module.fleet_cdi_columns_columnar = self._kernel


def run(seconds: float, state, tmp, hooks) -> dict:
    gen, days = state.gen, state.days
    tracer = hooks.tracer if hooks else NULL_TRACER
    services = {vm: ServicePeriod(0.0, DAY) for vm in gen.vms}
    expected = oracles(gen, days, services)
    spool = tmp / "spool"
    store = TableStore()
    events_cls = hooks.events_table if hooks else SpillTable
    store.add(events_cls(EVENTS_TABLE, events_schema(), spool_dir=spool,
                         spill_bytes=SPILL_BYTES))
    if hooks:
        store.add(hooks.output_table(VM_CDI_TABLE, vm_cdi_schema()))
        store.add(hooks.output_table(EVENT_CDI_TABLE, event_cdi_schema()))
    context = EngineContext(parallelism=parallelism(), backend="thread")
    job = DailyCdiJob(context, store, ConfigDB(), gen.catalog)
    job.store_weights(gen.weights)
    checkpoint_cls = hooks.checkpoint if hooks else JobCheckpoint

    errors: list[str] = []
    attempted = failed = 0
    phase = TimedPhase()
    try:
        while phase.elapsed() < seconds:
            for day in days:
                attempted += 1
                checkpoint = checkpoint_cls(tmp / f"checkpoint-{attempted}.json")
                run_trace = RunTrace() if hooks else None
                outcome = None
                started = time.perf_counter()
                try:
                    with tracer.operation(attempted):
                        with tracer.span("pipeline.ingest"):
                            ingested = sum(
                                job.ingest_events(events, day.label,
                                                  unit=unit)
                                for unit, events in day.shards
                            )
                        with tracer.span("pipeline.compute"):
                            outcome = job.run_checkpointed(
                                day.label, services, checkpoint=checkpoint,
                                shards=SHARDS, sharded_events=True,
                                trace=run_trace,
                            )
                    phase.record(started, time.perf_counter())
                except TaskFailedError as error:
                    failed += 1
                    if not (day.poisoned and error.cause_type == "ValueError"):
                        errors.append(f"{day.label} failed: {error}")
                with phase.untimed():
                    if outcome is not None:
                        errors += [f"{day.label}: {e}" for e in check_day(
                            job, day, outcome, ingested, expected[day.label])]
                    if hooks:
                        count_layers(tracer, run_trace, spool)
                    for unit, _ in day.shards:
                        store.get(EVENTS_TABLE).drop_partition(
                            f"{day.label}@{unit}")
                    checkpoint.discard()
        phase.stop()
    finally:
        store.get(EVENTS_TABLE).close()
    return {"phase": phase,
            "attempted": attempted, "failed": failed, "errors": errors}


def check_day(job, day: Day, outcome, ingested: int, oracle) -> list[str]:
    errors = []
    if outcome.vm_count != len(oracle.vms):
        errors.append(f"vm_count {outcome.vm_count}")
    # A poisoned day that succeeds may have set its bad event aside.
    counts = {ingested, ingested - 1} if day.poisoned else {ingested}
    if outcome.event_count not in counts or oracle.event_count not in counts:
        errors.append(f"event_count {outcome.event_count}, "
                      f"ingested {ingested}")
    errors += report_errors(outcome.fleet_report, oracle.fleet(),
                            "fleet report")
    errors += table_errors(columns(job.tables.get(VM_CDI_TABLE), day.label),
                           columns(job.tables.get(EVENT_CDI_TABLE), day.label),
                           oracle)
    return errors


def count_layers(tracer, run_trace, spool) -> None:
    """Engine and spill counts of the operation just finished."""
    attempts = [a for a in run_trace.attempts if not a.speculative]
    tracer.count("engine.tasks",
                 len({(a.job, a.node_name, a.partition) for a in attempts}))
    tracer.count("engine.retry_attempts",
                 sum(1 for a in attempts if a.attempt > 1))
    tracer.count("storage.spill_bytes",
                 sum(p.stat().st_size for p in spool.glob("*.spool.jsonl")))
