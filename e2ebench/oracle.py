"""An independent oracle for the CDI outputs the benchmark checks.

It shares no code with the program's kernels.  Algorithm 1 is a sweep
over interval endpoints: between two consecutive endpoints the damage
is the largest weight of the intervals covering that segment, and the
CDI is the integral of that maximum averaged over the service period.
Formula 4 is a service-time-weighted mean summed with ``math.fsum``.
Formulas 1-3 (event weights) are evaluated from the plain weight
configuration dictionary the program is given.

Only stateless events with explicit durations are modelled, which is
all the benchmark's inputs contain (see README).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

CATEGORIES = ("unavailability", "performance", "control_plane")


def event_weight(config: dict, category: str, name: str, level: int) -> float:
    """Formulas 1-3 over a ``WeightConfig.to_dict()`` dictionary."""
    if config["unavailability_full_weight"] and category == "unavailability":
        return 1.0
    expert = level / config["expert_levels"]
    rank = config["customer_level_by_name"].get(name)
    if rank is None:
        return expert
    customer = rank / config["customer_levels"]
    a_e, a_c = config["alpha_expert"], config["alpha_customer"]
    return (a_e * expert + a_c * customer) / (a_e + a_c)


def cdi(intervals, start: float, end: float) -> float:
    """Algorithm 1: mean over ``[start, end]`` of the per-instant max weight.

    ``intervals`` holds ``(t_s, t_e, w)`` triples; they are clipped to
    the service period first.
    """
    clipped = [(max(s, start), min(e, end), w) for s, e, w in intervals]
    clipped = [(s, e, w) for s, e, w in clipped if e > s and w > 0.0]
    edges = sorted({t for s, e, _ in clipped for t in (s, e)})
    pieces = []
    for left, right in zip(edges, edges[1:]):
        covering = [w for s, e, w in clipped if s <= left and e >= right]
        if covering:
            pieces.append(max(covering) * (right - left))
    return math.fsum(pieces) / (end - start)


def formula4(pairs) -> float:
    """Formula 4 over ``(service_time, value)`` pairs (0 when empty)."""
    pairs = list(pairs)
    total = math.fsum(t for t, _ in pairs)
    if total == 0.0:
        return 0.0
    return math.fsum(t * v for t, v in pairs) / total


@dataclass
class DayOracle:
    """Expected ``vm_cdi`` and ``event_cdi`` contents of one day.

    ``vm_values[vm]`` is ``(unavailability, performance, control_plane,
    service_time)``; ``event_values[(vm, name)]`` is the drill-down CDI.
    """

    vms: list
    vm_values: dict
    event_values: dict
    event_count: int

    def fleet(self) -> tuple:
        """Formula 4 per category plus the total service time."""
        return self.group_fleet(self.vms)

    def group_fleet(self, vms) -> tuple:
        """Formula 4 over a subset of VMs (a group-by group)."""
        rows = [self.vm_values[vm] for vm in vms]
        return tuple(
            formula4((row[3], row[i]) for row in rows) for i in range(3)
        ) + (math.fsum(row[3] for row in rows),)

    def event_fleet(self) -> dict:
        """Per event name, Formula 4 over the VMs that saw the event."""
        groups: dict = {}
        for (vm, name), value in self.event_values.items():
            groups.setdefault(name, []).append((self.vm_values[vm][3], value))
        return {name: formula4(pairs) for name, pairs in groups.items()}


def day_oracle(rows, services: dict, catalog, config: dict) -> DayOracle:
    """Oracle tables for one day's events-table rows.

    ``rows`` are events-table dictionaries (``name``, ``time``,
    ``target``, ``level``, ``duration``); ``services`` maps each VM in
    service to ``(start, end)``; ``catalog`` gives each name's category.
    """
    by_vm: dict = {}
    count = 0
    for row in rows:
        if row["target"] not in services:
            continue
        count += 1
        category = catalog.category_of(row["name"])
        if category is None:
            continue
        weight = event_weight(config, category.value, row["name"],
                              int(row["level"]))
        end = row["time"]
        by_vm.setdefault(row["target"], []).append(
            (category.value, row["name"], end - row["duration"], end, weight)
        )
    vm_values = {}
    event_values = {}
    for vm, (start, end) in services.items():
        ivs = by_vm.get(vm, [])
        values = tuple(
            cdi([(s, e, w) for c, _, s, e, w in ivs if c == category],
                start, end)
            for category in CATEGORIES
        )
        vm_values[vm] = values + (end - start,)
        for name in {n for _, n, _, _, _ in ivs}:
            event_values[(vm, name)] = cdi(
                [(s, e, w) for _, n, s, e, w in ivs if n == name], start, end
            )
    return DayOracle(sorted(services), vm_values, event_values, count)
