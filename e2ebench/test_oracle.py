"""Tests of the benchmark's oracle (run: python3 -m pytest e2ebench)."""

import math

from oracle import cdi, day_oracle, event_weight, formula4


def minutes(h: int, m: int) -> float:
    return h * 60.0 + m


def test_table4_worked_example():
    """The paper's Table 4: per-VM CDIs 0.020 / 0.002 / 0.004, fleet 0.003."""
    vm1 = cdi([(minutes(10, 8), minutes(10, 10), 0.3),
               (minutes(10, 10), minutes(10, 12), 0.3)],
              minutes(10, 0), minutes(11, 0))
    vm2 = cdi([(minutes(13, 25), minutes(13, 30), 0.6)], 0.0, 1440.0)
    vm3 = cdi([(minutes(8, 8), minutes(8, 10), 0.5),
               (minutes(8, 10), minutes(8, 12), 0.5),
               (minutes(8, 10), minutes(8, 15), 0.6)], 0.0, 1000.0)
    assert round(vm1, 3) == 0.020
    assert round(vm2, 3) == 0.002
    assert round(vm3, 3) == 0.004
    fleet = formula4([(60.0, vm1), (1440.0, vm2), (1000.0, vm3)])
    assert round(fleet, 3) == 0.003


def test_overlap_takes_the_maximum_and_clips_to_service():
    # 0.2 over [0, 10], 0.9 over [5, 20], service [0, 15]:
    # 5 s at 0.2, then 10 s at 0.9.
    value = cdi([(0.0, 10.0, 0.2), (5.0, 20.0, 0.9)], 0.0, 15.0)
    assert math.isclose(value, (5 * 0.2 + 10 * 0.9) / 15)
    assert cdi([], 0.0, 10.0) == 0.0
    assert cdi([(20.0, 30.0, 1.0)], 0.0, 10.0) == 0.0


def test_formula4_weights_by_service_time():
    assert formula4([]) == 0.0
    assert math.isclose(formula4([(1.0, 0.5), (3.0, 0.1)]), 0.8 / 4)


def test_weights_follow_formulas_1_to_3():
    config = {"unavailability_full_weight": True, "expert_levels": 4,
              "customer_levels": 4, "customer_level_by_name": {"slow_io": 2},
              "alpha_expert": 0.5, "alpha_customer": 0.5}
    assert event_weight(config, "unavailability", "vm_down", 1) == 1.0
    assert event_weight(config, "performance", "slow_io", 3) == 0.625
    assert event_weight(config, "performance", "unknown", 3) == 0.75


class _Catalog:
    def category_of(self, name):
        return {"slow_io": _Category("performance")}.get(name)


class _Category:
    def __init__(self, value):
        self.value = value


def test_day_oracle_rows_and_eventless_vms():
    config = {"unavailability_full_weight": True, "expert_levels": 4,
              "customer_levels": 4, "customer_level_by_name": {},
              "alpha_expert": 0.5, "alpha_customer": 0.5}
    rows = [{"name": "slow_io", "time": 60.0, "target": "a", "level": 2,
             "duration": 30.0},
            {"name": "slow_io", "time": 60.0, "target": "gone", "level": 2,
             "duration": 30.0}]
    oracle = day_oracle(rows, {"a": (0.0, 120.0), "b": (0.0, 120.0)},
                        _Catalog(), config)
    assert oracle.vms == ["a", "b"]
    assert oracle.event_count == 1
    assert oracle.vm_values["a"] == (0.0, 0.5 * 30 / 120, 0.0, 120.0)
    assert oracle.vm_values["b"] == (0.0, 0.0, 0.0, 120.0)
    assert oracle.event_values == {("a", "slow_io"): 0.5 * 30 / 120}
