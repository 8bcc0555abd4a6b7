"""``stream_replay``: one operation is one streaming tick.

A fleet-day's events arrive shuffled, each lagging its event time by
less than the allowed lateness, and are appended to a ``LogStore`` in
fixed batches.  Each batch is followed by ``StreamingCdiPipeline.tick``
with a ``StreamCheckpoint``; the day ends with ``flush`` (also counted
as a tick).  A round replays ``DAYS`` seeded days, each on a fresh
pipeline.
"""

from __future__ import annotations

import gc
import time
from types import SimpleNamespace

import numpy as np
from repro.core.indicator import ServicePeriod
from repro.pipeline.daily import WEIGHTS_CONFIG_KEY
from repro.pipeline.tables import EVENT_CDI_TABLE, VM_CDI_TABLE
from repro.storage.configdb import ConfigDB
from repro.storage.logstore import LogStore
from repro.storage.table import TableStore
from repro.streaming.extract import StreamingExtractor, event_record
from repro.streaming.persist import StreamCheckpoint
from repro.streaming.pipeline import StreamingCdiPipeline

from harness import NULL_TRACER, TimedPhase
from inputs import DAY, Generator, columns, day_seed, table_errors, vm_ids

VMS = 2000
#: Records appended between two ticks.
TICK_RECORDS = 50
ALLOWED_LATENESS = 600.0
#: Arrival lags are drawn below this share of the allowed lateness, so
#: no record is ever late.
MAX_LAG_SHARE = 0.9
PARTITION = "day"
#: Days replayed in a round.  The slowest ticks are each day's last
#: few, and how slow they are depends on the day: over seeds 0-9, a run
#: replaying one day had tail_ms from 16.9 to 22.4 ms, the same seed
#: reading alike in two sets.  A round of several days averages that.
DAYS = 5


def setup(seed: int, hooks=None):
    """Each day's records in arrival order, cut into tick batches."""
    gen = Generator(vm_ids(VMS))
    days = []
    for d in range(DAYS):
        events = [e for _, evs in gen.day(day_seed(seed, 2 * d))
                  for e in evs]
        rng = np.random.default_rng(day_seed(seed, 2 * d + 1))
        arrivals = np.array([e.time for e in events]) + rng.uniform(
            0.0, MAX_LAG_SHARE * ALLOWED_LATENESS, len(events))
        order = np.argsort(arrivals, kind="stable")
        records = [(events[i].time, event_record(events[i])) for i in order]
        batches = [records[i:i + TICK_RECORDS]
                   for i in range(0, len(records), TICK_RECORDS)]
        days.append(SimpleNamespace(events=events, batches=batches))
    return SimpleNamespace(gen=gen, days=days)


class Hooks:
    """Traced-mode layer timing around the program's public calls.

    Poll and extract are timed around their calls; apply is the
    interval from the end of extraction to the start of the checkpoint
    save, and publish (refresh, snapshot and table writes) the interval
    from the end of the save to the return of the tick.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.extract_end = 0.0
        self.save_end = 0.0
        hooks = self

        class TracedExtractor(StreamingExtractor):
            def events_from_entries(self, entries):
                with tracer.span("streaming.extract"):
                    events = super().events_from_entries(entries)
                hooks.extract_end = time.perf_counter()
                return events

        class TracedCheckpoint(StreamCheckpoint):
            def save(self, snapshot):
                started = time.perf_counter()
                tracer.add("streaming.apply", hooks.extract_end, started)
                with tracer.span("streaming.checkpoint"):
                    super().save(snapshot)
                hooks.save_end = time.perf_counter()
                tracer.count("streaming.checkpoint_bytes",
                             self.path.stat().st_size)

        self.extractor = TracedExtractor
        self.checkpoint = TracedCheckpoint

    def attach(self, pipeline) -> None:
        tailer = pipeline.tailer
        for name in ("poll", "flush"):
            method = getattr(tailer, name)

            def timed(method=method):
                with self.tracer.span("streaming.poll"):
                    return method()

            setattr(tailer, name, timed)

    def ticked(self, ended: float, applied: int) -> None:
        self.tracer.add("streaming.publish", self.save_end, ended)
        self.tracer.count("streaming.events_applied", applied)

    def close(self) -> None:
        pass


def run(seconds: float, state, tmp, hooks) -> dict:
    gen = state.gen
    tracer = hooks.tracer if hooks else NULL_TRACER
    services = {vm: ServicePeriod(0.0, DAY) for vm in gen.vms}
    oracles = [gen.oracle(day.events, services) for day in state.days]
    # Move everything that exists now (imported modules, the inputs, the
    # oracles) out of the collector's view.  Left in it, with a single
    # day's inputs and oracle, every full collection in the timed phase
    # spent 24-32 ms scanning them, and the ticks it landed in made up
    # the run's tail;
    # frozen, the full collections that the pipelines' own allocations
    # trigger still run in the timed phase, over the program's objects
    # only, at about 1 ms each.  batch_fleet and serve_dashboard trigger
    # no full collection in their timed phase and freeze nothing.
    gc.freeze()
    config_db = ConfigDB()
    config_db.put(WEIGHTS_CONFIG_KEY, gen.weights.to_dict())

    errors: list[str] = []
    attempted = 0
    rounds = 0
    phase = TimedPhase()
    while phase.elapsed() < seconds:
        rounds += 1
        for number, (day, oracle) in enumerate(zip(state.days, oracles)):
            label = f"round {rounds} day {number}"
            path = tmp / f"stream-{rounds}-{number}.ckpt"
            tables = TableStore()
            store = LogStore()
            pipeline = StreamingCdiPipeline(
                store, tables, config_db, gen.catalog, services, PARTITION,
                allowed_lateness=ALLOWED_LATENESS,
                checkpoint=(hooks.checkpoint if hooks
                            else StreamCheckpoint)(path),
                extractor=(hooks.extractor if hooks
                           else StreamingExtractor)(),
            )
            if hooks:
                hooks.attach(pipeline)
            applied = appended = late = 0
            for index in range(len(day.batches) + 1):
                if index < len(day.batches):
                    for when, fields in day.batches[index]:
                        store.append(when, **fields)
                    appended += len(day.batches[index])
                    step = pipeline.tick
                else:
                    step = pipeline.flush
                attempted += 1
                with tracer.operation(attempted):
                    started = time.perf_counter()
                    result = step()
                    ended = time.perf_counter()
                    if hooks:
                        hooks.ticked(ended, result.applied)
                phase.record(started, ended)
                phase.probe_if_due()
                applied += result.applied
                late = result.late_dropped
            with phase.untimed():
                if pipeline.tailer.consumed != appended or late != 0:
                    errors.append(f"{label}: consumed "
                                  f"{pipeline.tailer.consumed} of "
                                  f"{appended}, {late} late")
                if applied != len(day.events):
                    errors.append(f"{label}: applied {applied} of "
                                  f"{len(day.events)} events")
                errors += table_errors(
                    columns(tables.get(VM_CDI_TABLE), PARTITION),
                    columns(tables.get(EVENT_CDI_TABLE), PARTITION), oracle)
                path.unlink(missing_ok=True)
    phase.stop()
    return {"phase": phase,
            "attempted": attempted, "failed": 0, "errors": errors}
