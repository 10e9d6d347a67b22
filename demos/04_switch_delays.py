"""Switch delay requirements across subcarrier spacings.

When a switch crosses numerologies, the smaller SCS (longer slots)
governs the budget, so mixed switches are as slow as their slowest side.
"""

from bwpsim import DelayType, UnsupportedScs, ms_str, switch_delay_khz

SCS = (15, 30, 60, 120)

for delay_type in (DelayType.TYPE1, DelayType.TYPE2):
    print(f"=== {delay_type.value}: duration in ms (slots) ===")
    print("from\\to |" + "".join(f" {s:>10}" for s in SCS))
    for scs_from in SCS:
        row = [f"{scs_from:>7} |"]
        for scs_to in SCS:
            slots, duration_ms = switch_delay_khz(scs_from, scs_to, delay_type)
            row.append(f" {ms_str(duration_ms):>5} ({slots:>2})")
        print("".join(row))
    print()

print("240 kHz has no tabulated requirement:")
try:
    switch_delay_khz(240, 240, DelayType.TYPE1)
except UnsupportedScs as exc:
    print("  UnsupportedScs:", exc)
