"""``serve_dashboard``: one operation is one query over one TCP connection.

Set-up builds a multi-day store with the batch job and starts
``ServerThread``.  Each round publishes the latest day with
``overwrite_partition_columns``, alternating between two precomputed
versions of it, then sends ``PUBLISH_EVERY`` queries that repeat a
dashboard mix.  Each answer is checked against the oracle for the
version in place when the query was sent, so a stale cached answer
fails.
"""

from __future__ import annotations

import json
import socket
import time

import repro.serving.rollups as rollups_module
from repro.core.indicator import ServicePeriod
from repro.engine.dataset import EngineContext
from repro.pipeline.daily import DailyCdiJob
from repro.pipeline.tables import EVENT_CDI_TABLE, EVENTS_TABLE, VM_CDI_TABLE
from repro.serving.listener import ServerThread
from repro.serving.service import QueryService
from repro.storage.configdb import ConfigDB
from repro.storage.table import TableStore

from harness import NULL_TRACER, TimedPhase, parallelism
from inputs import DAY, Generator, close, columns, day_seed, vm_ids
from oracle import CATEGORIES

VMS = 4000
DAYS = 7
TODAY = f"day{DAYS - 1:02d}"
YESTERDAY = f"day{DAYS - 2:02d}"
REGIONS = 4
#: Queries per publish.  A run then holds about sixty publishes, so the
#: tail percentile falls among the queries that rebuild a rollup after a
#: publish rather than on one-off stalls.
PUBLISH_EVERY = 10000
#: One dashboard refresh; a round repeats it up to PUBLISH_EVERY queries.
MIX = (
    {"kind": "fleet", "day": TODAY},
    {"kind": "top-events", "day": TODAY, "k": 5},
    {"kind": "group-by", "day": TODAY, "dimension": "region"},
    {"kind": "top-vms", "day": TODAY, "category": "unavailability", "k": 5},
    {"kind": "top-vms", "day": TODAY, "category": "performance", "k": 5},
    {"kind": "range", "start": "day00", "end": TODAY},
    {"kind": "trend", "category": "performance"},
    {"kind": "fleet", "day": YESTERDAY},
    {"kind": "top-vms", "day": YESTERDAY, "category": "control_plane",
     "k": 5},
    {"kind": "trend", "category": "unavailability"},
)
#: The mix as wire lines, encoded once.
REQUESTS = tuple((json.dumps(query) + "\n").encode() for query in MIX)
#: Failure kinds counted as failed operations (the server shed the query).
SHED = ("unavailable", "overloaded", "rate_limited")


class RawClient:
    """One TCP connection: send a request line, read the response line.

    Latency covers the round trip only; the response is decoded and
    checked afterwards, outside the timed phase.
    """

    def __init__(self, address: tuple) -> None:
        self._sock = socket.create_connection(address, timeout=30.0)
        self._file = self._sock.makefile("rwb")

    def request(self, line: bytes) -> bytes:
        self._file.write(line)
        self._file.flush()
        raw = self._file.readline()
        if not raw:
            raise ConnectionError("server closed the connection")
        return raw

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()


def region_of(vm: str) -> dict:
    return {"region": f"region-{int(vm[3:]) % REGIONS}"}


class Serving:
    """Set-up state: the store, both versions of today, server and client."""

    def __init__(self, seed: int, service_cls) -> None:
        gen = Generator(vm_ids(VMS))
        self.gen = gen
        self.services = {vm: ServicePeriod(0.0, DAY) for vm in gen.vms}
        self.events = {}
        self.job = self._job()
        for d in range(DAYS):
            label = f"day{d:02d}"
            self.events[label] = self._compute(self.job, label,
                                               day_seed(seed, d))
        other = self._job()
        self.events["alt"] = self._compute(other, TODAY,
                                           day_seed(seed, DAYS))
        store = self.job.tables
        self.versions = [
            (columns(store.get(VM_CDI_TABLE), TODAY),
             columns(store.get(EVENT_CDI_TABLE), TODAY)),
            (columns(other.tables.get(VM_CDI_TABLE), TODAY),
             columns(other.tables.get(EVENT_CDI_TABLE), TODAY)),
        ]
        self.version = 0
        self.service = service_cls(store, resolver=region_of)
        self.server = ServerThread(self.service).__enter__()
        self.client = RawClient(self.server.address)
        for line in REQUESTS:
            self.client.request(line)

    def _job(self) -> DailyCdiJob:
        context = EngineContext(parallelism=parallelism(), backend="thread")
        job = DailyCdiJob(context, TableStore(), ConfigDB(), self.gen.catalog)
        job.store_weights(self.gen.weights)
        return job

    def _compute(self, job: DailyCdiJob, label: str, seed: int) -> list:
        events = [e for _, evs in self.gen.day(seed) for e in evs]
        job.ingest_events(events, label)
        job.run(label, self.services)
        job.tables.get(EVENTS_TABLE).drop_partition(label)
        return events

    def publish(self) -> None:
        """Swap today's partition to the other version."""
        self.version = 1 - self.version
        vm_cols, event_cols = self.versions[self.version]
        tables = self.job.tables
        tables.get(VM_CDI_TABLE).overwrite_partition_columns(vm_cols, TODAY)
        tables.get(EVENT_CDI_TABLE).overwrite_partition_columns(event_cols,
                                                                TODAY)

    def close(self) -> None:
        self.client.close()
        self.server.__exit__(None, None, None)
        self.service.close()


def setup(seed: int, hooks=None) -> Serving:
    return Serving(seed, hooks.service if hooks else QueryService)


def expected_answers(state: Serving) -> list:
    """Per version, the oracle's answer to each query of the mix."""
    gen = state.gen
    days = {label: gen.oracle(events, state.services)
            for label, events in state.events.items() if label != "alt"}
    out = []
    for today in (days[TODAY], gen.oracle(state.events["alt"],
                                          state.services)):
        by_day = dict(days, **{TODAY: today})
        out.append([answer(query, by_day) for query in MIX])
    return out


def report(values: tuple) -> dict:
    return dict(zip(CATEGORIES + ("service_time",), values))


def answer(query: dict, days: dict):
    """The oracle's wire result for one query."""
    kind = query["kind"]
    labels = sorted(days)
    if kind == "fleet":
        return report(days[query["day"]].fleet())
    if kind == "range":
        return [dict(day=d, **report(days[d].fleet())) for d in labels
                if query["start"] <= d <= query["end"]]
    if kind == "trend":
        i = CATEGORIES.index(query["category"])
        return [{"day": d, "value": days[d].fleet()[i]} for d in labels]
    oracle = days[query["day"]]
    if kind == "group-by":
        groups: dict = {}
        for vm in oracle.vms:
            groups.setdefault(region_of(vm)["region"], []).append(vm)
        return {key: report(oracle.group_fleet(vms))
                for key, vms in sorted(groups.items())}
    if kind == "top-vms":
        i = CATEGORIES.index(query["category"])
        ranked = sorted(((vm, values[i]) for vm, values
                         in oracle.vm_values.items() if values[i] > 0),
                        key=lambda pair: (-pair[1], pair[0]))
        return [{"vm": vm, "value": v} for vm, v in ranked[:query["k"]]]
    if kind == "top-events":
        ranked = sorted(oracle.event_fleet().items(),
                        key=lambda pair: (-pair[1], pair[0]))
        return [{"event": name, "value": v}
                for name, v in ranked[:query["k"]] if v > 0]
    raise ValueError(f"no oracle for query kind {kind!r}")


def matches(got, want) -> bool:
    """Structural equality with float tolerance."""
    if isinstance(want, float):
        return isinstance(got, (int, float)) and close(got, want)
    if isinstance(want, dict):
        return (isinstance(got, dict) and got.keys() == want.keys()
                and all(matches(got[k], want[k]) for k in want))
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(matches(g, w) for g, w in zip(got, want)))
    return got == want


class Hooks:
    """Traced-mode layer timing around the program's public calls."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self._rollup = rollups_module.PartitionRollup

        class TracedService(QueryService):
            def execute(self, query):
                tracer.count("serving.execute_calls")
                with tracer.span("serving.execute"):
                    return super().execute(query)

        class TracedRollup(self._rollup):
            def __init__(self, *args, **kwargs):
                tracer.count("serving.rollup_builds")
                with tracer.span("serving.rollup_build"):
                    super().__init__(*args, **kwargs)

        self.service = TracedService
        rollups_module.PartitionRollup = TracedRollup

    def close(self) -> None:
        rollups_module.PartitionRollup = self._rollup


def run(seconds: float, state: Serving, tmp, hooks) -> dict:
    tracer = hooks.tracer if hooks else NULL_TRACER
    expected = expected_answers(state)
    service, client = state.service, state.client
    stats_before = service.cache_stats

    errors: list[str] = []
    verified: set = set()
    attempted = failed = 0
    phase = TimedPhase()
    while phase.elapsed() < seconds:
        # Every round starts with a publish, so all rounds do the same work.
        with tracer.span("serving.publish"):
            state.publish()
        for index in range(PUBLISH_EVERY):
            slot = index % len(MIX)
            attempted += 1
            with tracer.operation(attempted):
                started = time.perf_counter()
                raw = client.request(REQUESTS[slot])
                ended = time.perf_counter()
            with phase.untimed():
                # A response already checked for this query and version
                # (a repeat served from the wire cache) is not decoded
                # again.
                key = (state.version, slot, raw)
                if key in verified:
                    phase.record(started, ended)
                    continue
                response = json.loads(raw)
                if response.get("ok") is True:
                    phase.record(started, ended)
                    if matches(response["result"],
                               expected[state.version][slot]):
                        verified.add(key)
                    else:
                        errors.append(f"query {MIX[slot]} under version "
                                      f"{state.version}: "
                                      f"{response['result']}")
                else:
                    failed += 1
                    kind = response.get("error", {}).get("kind")
                    if kind not in SHED:
                        errors.append(f"query {MIX[slot]}: {response}")
    phase.stop()
    if hooks:
        count_layers(tracer, attempted, stats_before, service.cache_stats)
    return {"phase": phase,
            "attempted": attempted, "failed": failed, "errors": errors}


def count_layers(tracer, attempted: int, before, after) -> None:
    executes = tracer.counters["serving.execute_calls"]
    tracer.count("serving.wire_cache_hits", attempted - executes)
    tracer.count("serving.wire_s",
                 tracer.total("op") - tracer.total("serving.execute"))
    tracer.count("serving.result_cache_hits", after.hits - before.hits)
    tracer.count("serving.result_cache_misses", after.misses - before.misses)
    tracer.count("serving.invalidations",
                 after.invalidations - before.invalidations)
