"""Seeded inputs and output checks shared by the workloads.

Every input is a pure function of ``--seed``: the fleet's faults come
from the program's shard-parallel generator, seeded per day, and are
turned into stateless catalog events with measured durations.
"""

from __future__ import annotations

import math
import time

import numpy as np
from repro.core.events import Event, EventKind, default_catalog
from repro.scenarios.common import (
    FAULT_EVENT_NAME,
    default_weights,
    fault_to_period,
)
from repro.telemetry.faults import baseline_rates
from repro.telemetry.fleetgen import iter_fleet_faults

from oracle import CATEGORIES, day_oracle

DAY = 86400.0
#: Fault-rate multiplier: about 1.5 events per VM per day.
FAULT_SCALE = 20.0
#: Seed of the poisoned day, fixed so its failure does not depend on --seed.
POISON_SEED = 1 << 40
#: Comparison tolerance between the program and the oracle.  The two sum
#: in different orders, so they may differ in the last few bits.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def vm_ids(count: int) -> list[str]:
    return [f"vm-{i:06d}" for i in range(count)]


def day_seed(seed: int, day: int) -> int:
    """Distinct generator seed per (run seed, day)."""
    return (seed << 16) | day


class Generator:
    """Fleet-day event generation over one fixed fleet."""

    def __init__(self, vms: list[str]) -> None:
        self.catalog = default_catalog()
        self.weights = default_weights()
        self.vms = vms
        # Stateful detail events are left out: the oracle models the
        # stateless periods Algorithm 1 sweeps (see README).
        self.rates = [
            rate for rate in baseline_rates(scale=FAULT_SCALE)
            if self.catalog.get(FAULT_EVENT_NAME[rate.kind]).kind
            is EventKind.STATELESS
        ]
        self.generate_seconds = 0.0

    def day(self, seed: int, shards: int = 1) -> list[tuple[str, list]]:
        """One fleet-day as ``[(shard unit, [Event])]``."""
        started = time.perf_counter()
        out = []
        for shard, faults in iter_fleet_faults(self.vms, shards, self.rates,
                                               0.0, DAY, seed=seed):
            events = []
            for fault in faults:
                period = fault_to_period(fault, self.catalog)
                events.append(Event(
                    name=period.name, time=period.end, target=period.target,
                    expire_interval=600.0, level=period.level,
                    attributes={"duration": period.duration},
                ))
            out.append((shard.unit, events))
        self.generate_seconds += time.perf_counter() - started
        return out

    def oracle(self, events, services: dict):
        """Oracle tables over ``events`` (an iterable of ``Event``)."""
        rows = [event_row(e) for e in events]
        bounds = {vm: (s.start, s.end) for vm, s in services.items()}
        return day_oracle(rows, bounds, self.catalog,
                          self.weights.to_dict())


def event_row(event) -> dict:
    return {"name": event.name, "time": event.time, "target": event.target,
            "level": int(event.level),
            "duration": float(event.attributes["duration"])}


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def table_errors(vm_cols: dict, event_cols: dict, oracle) -> list[str]:
    """Differences between published ``vm_cdi``/``event_cdi`` and the oracle.

    Also checks the method's properties directly: one row per VM in
    service, every CDI in [0, 1], eventless VMs at CDI 0.
    """
    errors = []
    if list(vm_cols["vm"]) != oracle.vms:
        return [f"vm_cdi has {len(vm_cols['vm'])} rows, not one per VM "
                f"in service ({len(oracle.vms)})"]
    for i, category in enumerate(CATEGORIES + ("service_time",)):
        got = np.asarray(vm_cols[category], dtype=np.float64)
        want = np.array([oracle.vm_values[vm][i] for vm in oracle.vms])
        if i < 3 and not ((got >= 0.0) & (got <= 1.0)).all():
            errors.append(f"vm_cdi.{category} outside [0, 1]")
        same = np.isclose(got, want, rtol=REL_TOL, atol=ABS_TOL)
        if not same.all():
            bad = int(np.argmin(same))
            errors.append(f"vm_cdi.{category} of {oracle.vms[bad]}: "
                          f"{got[bad]!r} != oracle {want[bad]!r}")
    with_events = {vm for vm, _ in oracle.event_values}
    eventless = np.array([vm not in with_events for vm in oracle.vms])
    for category in CATEGORIES:
        got = np.asarray(vm_cols[category], dtype=np.float64)
        if (got[eventless] != 0.0).any():
            errors.append(f"an eventless VM has nonzero {category}")
    got_events = dict(zip(zip(event_cols["vm"], event_cols["event"]),
                          event_cols["cdi"]))
    if got_events.keys() != oracle.event_values.keys():
        errors.append(f"event_cdi has {len(got_events)} (vm, event) rows, "
                      f"oracle {len(oracle.event_values)}")
    else:
        for key, value in got_events.items():
            if not 0.0 <= value <= 1.0 or not close(value,
                                                   oracle.event_values[key]):
                errors.append(f"event_cdi{key}: {value!r} != oracle "
                              f"{oracle.event_values[key]!r}")
                break
    return errors


def report_errors(report, oracle_fleet: tuple, what: str) -> list[str]:
    """A ``CdiReport`` against the oracle's Formula 4 tuple."""
    got = (report.unavailability, report.performance, report.control_plane,
           report.service_time)
    if all(close(a, b) for a, b in zip(got, oracle_fleet)):
        return []
    return [f"{what} {got} != oracle {oracle_fleet}"]


def columns(table, partition: str) -> dict:
    """One partition of an output table as column value lists."""
    return {name: block.to_pylist()
            for name, block in table.columns(partition=partition).items()}
