"""Configuration validation: a clean cell, then several broken variants.

Every broken rule becomes a finding with a stable code; nothing raises.
"""

from bwpsim import (
    BwpCommon,
    BwpConfig,
    BwpDedicated,
    BwpGeometry,
    CellConfig,
    CellRole,
    Duplex,
    FrequencyRange,
    HzSpan,
    Numerology,
    UeCapability,
    rrc_configured_count,
    validate,
)


def bwp(i, start, n, dedicated=True):
    return BwpConfig(i, BwpCommon(BwpGeometry(start, n, Numerology(0))),
                     BwpDedicated() if dedicated else None)


point_a = 3_400_000_000
rb = Numerology(0).rb_width_hz
bwps = (bwp(0, 0, 24, dedicated=False), bwp(1, 0, 270), bwp(2, 0, 52))
cell = CellConfig(
    cell_role=CellRole.PCELL,
    duplex=Duplex.FDD,
    fr=FrequencyRange.FR1,
    point_a_hz=point_a,
    channel_bandwidth_mhz=50.0,
    coreset0_span=HzSpan(point_a, point_a + 24 * rb),
    ssb_span=HzSpan(point_a, point_a + 20 * rb),
    dl_bwps=bwps,
    ul_bwps=bwps,
    first_active_dl=1,
    first_active_ul=1,
    default_dl_bwp=2,
    inactivity_timer_ms=20,
)
cap = UeCapability(max_rrc_bwps=4)

print("Clean cell:", "no findings" if validate(cell, cap).valid else "findings?!")
print("RRC-configured DL BWPs (Option 1 #0 not counted):",
      rrc_configured_count(cell.dl_bwps))

variants = {
    "five dedicated BWPs": cell._replace(dl_bwps=tuple(bwp(i, 0, 52) for i in range(5))),
    "initial BWP too small for CORESET #0": cell._replace(dl_bwps=(bwp(0, 0, 20, dedicated=False), *bwps[1:])),
    "timer out of range": cell._replace(inactivity_timer_ms=5000),
    "BWP outside the channel": cell._replace(channel_bandwidth_mhz=40.0),
    "dangling default reference": cell._replace(default_dl_bwp=4),
}

for label, cfg in variants.items():
    report = validate(cfg, cap)
    print(f"\n--- {label} ---")
    for f in report.findings:
        print(f"  {f.severity.value:7} {f.rule_code:18} {f.location}: {f.message}")
