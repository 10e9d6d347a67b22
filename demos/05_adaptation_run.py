"""Bandwidth adaptation, end to end, on the paired-spectrum scenario.

Runs the committed wide-burst-then-idle fixture: RRC activates a 270-RB
pair, traffic keeps the inactivity timer alive, and expiry drops the DL
to the 52-RB default while the UL stays put. Then compares the
bandwidth-time proxy against the same script with no timer configured.
"""

from pathlib import Path

from bwpsim import load_scenario, replay_metrics, run

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

scenario = load_scenario(FIXTURES / "adaptation_fdd_scenario.json")
trace, metrics = run(scenario)

print("=== Trace ===")
for rec in trace:
    print(rec.to_json())

print()
print("=== Metrics (recomputed from the trace alone) ===")
replayed = replay_metrics(trace)
assert replayed == metrics
for cell, m in replayed.cells.items():
    print(f"cell {cell}:")
    print(f"  switches by cause: { {k: v for k, v in m.switch_count_by_cause.items() if v} }")
    print(f"  bandwidth-time proxy: {m.bandwidth_time_proxy_rb_ms} RB*ms")
    print(f"  time on default BWP: {m.time_on_default_ms} ms")

print()
print("=== Power-saving direction ===")
no_timer = scenario.cells["pcell"]._replace(inactivity_timer_ms=None)
scenario_no_timer = scenario._replace(cells={"pcell": no_timer})
_, metrics_no_timer = run(scenario_no_timer)
with_timer = metrics.cells["pcell"].bandwidth_time_proxy_rb_ms
without = metrics_no_timer.cells["pcell"].bandwidth_time_proxy_rb_ms
print(f"proxy with timer:    {with_timer} RB*ms")
print(f"proxy without timer: {without} RB*ms")
print(f"adaptation saves {without - with_timer} RB*ms of occupied bandwidth-time")
