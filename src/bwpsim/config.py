"""Static configuration model for serving cells and their bandwidth parts.

A cell configuration is a plain immutable value tree: per-direction BWP
lists, the Option 1 / Option 2 choice for BWP #0 (dedicated parameters
absent or present), default/first-active designations, the inactivity
timer, and opaque per-channel parameter blobs that are stored but never
interpreted.

Validation never raises: every broken rule becomes a Finding with a stable
rule code, so tooling can assert on codes and report all problems at once.
Only structurally meaningless input (negative RB counts, unknown enum
strings) is rejected at construction time.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Any, Iterable, Mapping, NamedTuple, Optional

from .grid import (
    MAX_BWP_RBS,
    MIN_BWP_RBS,
    BwpGeometry,
    FrequencyRange,
    HzSpan,
    checked,
)

MIN_BWP_ID = 0
MAX_BWP_ID = 4

TIMER_RANGE_MS = (2, 2560)
RRC_DELAY_RANGE_MS = (5, 80)
CHANNEL_BW_RANGE_MHZ = (5.0, 400.0)

# Fixed stand-in for the RBG/PRG minimum allocation size; flagged as a
# warning only, because the true per-bandwidth table is configuration
# outside this model.
DEFAULT_RBG_FLOOR_RBS = 2


class CellRole(Enum):
    PCELL = "PCell"
    PSCELL = "PSCell"
    SCELL = "SCell"

    def __init__(self, value: str) -> None:
        self.is_spcell = value != "SCell"  # a PCell or a PSCell


class Duplex(Enum):
    FDD = "FDD"
    TDD = "TDD"


class UplinkWaveform(Enum):
    CP_OFDM = "CP-OFDM"
    DFT_S_OFDM = "DFT-s-OFDM"


class DelayType(Enum):
    """UE switch-delay capability class (type 1 is the faster requirement)."""

    TYPE1 = "type1"
    TYPE2 = "type2"


class Severity(Enum):
    ERROR = "Error"
    WARNING = "Warning"


# Read once: on CPython 3.11 `Severity.ERROR` goes through `EnumType.__getattr__`, ten times a global's cost.
_UNASSIGNED, _TDD, _SCELL = FrequencyRange.UNASSIGNED, Duplex.TDD, CellRole.SCELL
_ERROR, _WARNING = Severity.ERROR, Severity.WARNING


class _NoParams(dict):
    """The default `link_params`: one empty dict shared by every BWP built
    without its own, so it refuses writes. The document reader gives each
    parsed object a plain dict of its own."""

    __slots__ = ()

    def _read_only(self, *args: Any, **kwargs: Any) -> Any:
        raise TypeError("the default link_params is read-only; pass a dict of its own")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only


_NO_PARAMS = _NoParams()


class BwpCommon(NamedTuple):
    """Cell-specific part of a BWP configuration."""

    geometry: BwpGeometry
    link_params: Mapping[str, Any] = _NO_PARAMS


class BwpDedicated(NamedTuple):
    """UE-specific part of a BWP configuration; contents stay opaque."""

    link_params: Mapping[str, Any] = _NO_PARAMS
    uplink_waveform: Optional[UplinkWaveform] = None


class BwpConfig(NamedTuple):
    id: int
    common: BwpCommon
    dedicated: Optional[BwpDedicated] = None

    @property
    def has_dedicated(self) -> bool:
        return self.dedicated is not None

    @property
    def geometry(self) -> BwpGeometry:
        return self.common.geometry


@checked
class UeCapability(NamedTuple):
    """What a UE declares it can do, gating what a config may demand.

    max_rrc_bwps is the supported number of RRC-configured BWPs per
    direction (1, 2, or 4). Supporting mixed numerologies implies the
    four-BWP class.
    """

    max_rrc_bwps: int
    mixed_numerology_bwps: bool = False
    supports_no_bandwidth_restriction: bool = False
    switch_delay_type: DelayType = DelayType.TYPE1

    def __post_init__(self) -> None:
        if self.max_rrc_bwps not in (1, 2, 4):
            raise ValueError(f"max_rrc_bwps must be 1, 2 or 4, got {self.max_rrc_bwps}")
        if self.mixed_numerology_bwps and self.max_rrc_bwps != 4:
            raise ValueError("mixed-numerology support requires the four-BWP class")


@checked
class CellConfig(NamedTuple):
    cell_role: CellRole
    duplex: Duplex
    fr: FrequencyRange
    point_a_hz: int
    channel_bandwidth_mhz: float
    coreset0_span: HzSpan
    ssb_span: HzSpan
    dl_bwps: tuple[BwpConfig, ...]
    ul_bwps: tuple[BwpConfig, ...] = ()
    first_active_dl: Optional[int] = None
    first_active_ul: Optional[int] = None
    default_dl_bwp: Optional[int] = None
    inactivity_timer_ms: Optional[int] = None
    rrc_processing_delay_ms: int = 10
    prach_configured_on: frozenset[int] = frozenset({0})

    def __post_init__(self) -> Optional[CellConfig]:
        if self.fr is _UNASSIGNED:
            raise ValueError("cell must sit in FR1 or FR2")
        width_hz = self.channel_bandwidth_mhz * 1_000_000
        if not (math.isfinite(width_hz) and round(width_hz) > 0):
            raise ValueError(
                f"channel bandwidth must be a positive finite number of MHz, got {self.channel_bandwidth_mhz}"
            )
        dl, ul, prach = self.dl_bwps, self.ul_bwps, self.prach_configured_on
        if type(dl) is not tuple or type(ul) is not tuple or type(prach) is not frozenset:  # coerced, checked again
            return self._replace(dl_bwps=tuple(dl), ul_bwps=tuple(ul), prach_configured_on=frozenset(prach))

    @property
    def channel_span(self) -> HzSpan:
        width = round(self.channel_bandwidth_mhz * 1_000_000)
        return HzSpan(self.point_a_hz, self.point_a_hz + width)

    @property
    def tick_ms(self):
        return self.fr.tick_ms

    @property
    def has_uplink(self) -> bool:
        return bool(self.ul_bwps)


class Finding(NamedTuple):
    rule_code: str
    severity: Severity
    message: str
    location: str

    def to_obj(self) -> dict[str, str]:
        return {
            "rule_code": self.rule_code,
            "severity": self.severity.value,
            "message": self.message,
            "location": self.location,
        }


class ValidationReport(NamedTuple):
    findings: tuple[Finding, ...]

    @property
    def valid(self) -> bool:
        return not self.findings

    @property
    def has_errors(self) -> bool:
        return any(f.severity is _ERROR for f in self.findings)

    def codes(self) -> tuple[str, ...]:
        return tuple(f.rule_code for f in self.findings)

    def to_obj(self) -> dict[str, Any]:
        return {"findings": [f.to_obj() for f in self.findings]}


def rrc_configured_count(bwps: Iterable[BwpConfig]) -> int:
    """Count the BWPs that carry dedicated parameters.

    BWP #0 under Option 1 has no dedicated part and does not count; under
    Option 2 it does. Order-independent.
    """
    return sum(1 for b in bwps if b.has_dedicated)


def effective_default_dl(cfg: CellConfig) -> int:
    """The DL BWP entered on timer expiry: the configured default, else #0."""
    return cfg.default_dl_bwp if cfg.default_dl_bwp is not None else 0


def dci_switch_available(cfg: CellConfig, active_dl: int) -> bool:
    """Whether non-fallback DCI can operate on the currently active DL BWP.

    Only an Option 1 BWP #0 (no dedicated parameters) is limited to the
    fallback formats; leaving it takes RRC, timer expiry, or random access.
    The first DL BWP #0 decides; a cell without one has no such limit.
    """
    if active_dl != 0:
        return True
    return next((b.has_dedicated for b in cfg.dl_bwps if b.id == 0), True)


class _Collector:
    def __init__(self) -> None:
        self.findings: list[Finding] = []

    def error(self, code: str, message: str, location: str) -> None:
        self.findings.append(Finding(code, _ERROR, message, location))

    def warning(self, code: str, message: str, location: str) -> None:
        self.findings.append(Finding(code, _WARNING, message, location))


def validate(cfg: CellConfig, cap: UeCapability) -> ValidationReport:
    """Check every configuration rule against a capability profile.

    Deterministic and order-stable: the same inputs always produce the
    same findings in the same order. Rules checked, by code:

    CHANNEL-BW         channel bandwidth within 5..400 MHz
    BWP-ID-RANGE       BWP ids within 0..4
    BWP-DEDICATED      non-initial BWPs carry dedicated parameters
    INITIAL-BWP        each configured direction includes BWP #0
    DUPLICATE-ID       ids unique per direction
    BWP-SIZE           1..275 RBs per BWP
    BWP-IN-CHANNEL     every BWP span inside the channel span
    RBG-FLOOR          (warning) BWP at least the RBG/PRG floor wide
    TIMER-RANGE        inactivity timer within 2..2560 ms
    RRC-DELAY          RRC processing delay within 5..80 ms
    DEFAULT-REF        default DL BWP refers to a configured DL BWP
    FIRST-ACTIVE-REF   first-active ids refer to configured BWPs
    SCELL-FIRST-ACTIVE SCells always name a first-active DL BWP
    PRACH-REF          PRACH-capable set refers to configured UL BWPs
    TDD-PAIR-IDS       TDD: same id set in both directions
    TDD-CENTER         TDD: index-linked pairs share their center frequency
    TDD-FIRST-ACTIVE   TDD: first-active DL/UL ids equal
    BWP-COUNT          RRC-configured BWPs per direction within the
                       capability's limit
    MIXED-NUMEROLOGY   multiple numerologies only with the capability
    CORESET0-CONTAIN   initial DL BWP contains CORESET #0
    BW-RESTRICTION     without the no-restriction capability, every DL BWP
                       contains the SSB (and CORESET #0 on PCell/PSCell)
    """
    out = _Collector()

    low_bw, high_bw = CHANNEL_BW_RANGE_MHZ
    if not low_bw <= cfg.channel_bandwidth_mhz <= high_bw:
        out.error(
            "CHANNEL-BW",
            f"channel bandwidth {cfg.channel_bandwidth_mhz} MHz outside [{low_bw}, {high_bw}]",
            "channel_bandwidth_mhz",
        )

    if cfg.inactivity_timer_ms is not None:
        lo, hi = TIMER_RANGE_MS
        if not lo <= cfg.inactivity_timer_ms <= hi:
            out.error(
                "TIMER-RANGE",
                f"inactivity timer {cfg.inactivity_timer_ms} ms outside [{lo}, {hi}]",
                "inactivity_timer_ms",
            )

    lo_d, hi_d = RRC_DELAY_RANGE_MS
    if not lo_d <= cfg.rrc_processing_delay_ms <= hi_d:
        out.error(
            "RRC-DELAY",
            f"RRC processing delay {cfg.rrc_processing_delay_ms} ms outside [{lo_d}, {hi_d}]",
            "rrc_processing_delay_ms",
        )

    channel = cfg.channel_span
    mus: set[int] = set()
    dl_spans, dl_by_id, dl_count = _check_direction(out, cfg, channel, "dl_bwps", cfg.dl_bwps, mus)
    _, ul_by_id, ul_count = _check_direction(out, cfg, channel, "ul_bwps", cfg.ul_bwps, mus)

    if cfg.ul_bwps and 0 not in ul_by_id:
        out.error("INITIAL-BWP", "UL direction configured without BWP #0", "ul_bwps")
    if 0 not in dl_by_id:
        out.error("INITIAL-BWP", "DL direction has no BWP #0", "dl_bwps")

    if cfg.duplex is _TDD and cfg.ul_bwps:
        if dl_by_id.keys() != ul_by_id.keys():
            out.error(
                "TDD-PAIR-IDS",
                f"TDD requires matching DL/UL id sets, got DL {sorted(dl_by_id)} vs UL {sorted(ul_by_id)}",
                "ul_bwps",
            )
        for dl, span in zip(cfg.dl_bwps, dl_spans):
            ul_span = ul_by_id.get(dl.id)
            if ul_span is not None and not span.shares_center(ul_span):
                out.error(
                    "TDD-CENTER",
                    f"TDD pair #{dl.id} does not share a center frequency",
                    f"ul_bwps[{dl.id}]",
                )
        if (
            cfg.first_active_dl is not None
            and cfg.first_active_ul is not None
            and cfg.first_active_dl != cfg.first_active_ul
        ):
            out.error(
                "TDD-FIRST-ACTIVE",
                "TDD first-active DL/UL ids must match",
                "first_active_ul",
            )

    limit = cap.max_rrc_bwps
    for direction, count in (("dl_bwps", dl_count), ("ul_bwps", ul_count)):
        if count > limit:
            out.error(
                "BWP-COUNT",
                f"{count} RRC-configured BWPs in {direction} exceeds the limit of {limit}",
                direction,
            )

    if len(mus) > 1 and not cap.mixed_numerology_bwps:
        out.error(
            "MIXED-NUMEROLOGY",
            f"{len(mus)} distinct numerologies but UE supports a single one",
            "dl_bwps",
        )

    initial_span = dl_by_id.get(0)
    if initial_span is not None and not initial_span.contains(cfg.coreset0_span):
        out.error(
            "CORESET0-CONTAIN",
            "initial DL BWP does not contain CORESET #0",
            "dl_bwps[0]",
        )

    if not cap.supports_no_bandwidth_restriction:
        spcell = cfg.cell_role.is_spcell
        for i, (bwp, span) in enumerate(zip(cfg.dl_bwps, dl_spans)):
            missing = []
            if not span.contains(cfg.ssb_span):
                missing.append("SSB")
            if spcell and not span.contains(cfg.coreset0_span):
                missing.append("CORESET #0")
            if missing:
                out.error(
                    "BW-RESTRICTION",
                    f"DL BWP #{bwp.id} does not contain {' and '.join(missing)}"
                    " and the UE requires the bandwidth restriction",
                    f"dl_bwps[{i}]",
                )

    if cfg.default_dl_bwp is not None and cfg.default_dl_bwp not in dl_by_id:
        out.error(
            "DEFAULT-REF",
            f"default DL BWP #{cfg.default_dl_bwp} is not configured",
            "default_dl_bwp",
        )
    if cfg.first_active_dl is not None and cfg.first_active_dl not in dl_by_id:
        out.error(
            "FIRST-ACTIVE-REF",
            f"first-active DL BWP #{cfg.first_active_dl} is not configured",
            "first_active_dl",
        )
    if cfg.first_active_ul is not None and cfg.first_active_ul not in ul_by_id:
        out.error(
            "FIRST-ACTIVE-REF",
            f"first-active UL BWP #{cfg.first_active_ul} is not configured",
            "first_active_ul",
        )
    if cfg.cell_role is _SCELL and cfg.first_active_dl is None:
        out.error(
            "SCELL-FIRST-ACTIVE",
            "SCells must configure a first-active DL BWP",
            "first_active_dl",
        )
    for bwp_id in sorted(cfg.prach_configured_on):
        if bwp_id not in ul_by_id:
            out.error(
                "PRACH-REF",
                f"PRACH occasions configured on unknown UL BWP #{bwp_id}",
                "prach_configured_on",
            )

    return ValidationReport(tuple(out.findings))


def _check_direction(
    out: _Collector, cfg: CellConfig, channel: HzSpan, direction: str, bwps: tuple[BwpConfig, ...], mus: set[int]
) -> tuple[list[HzSpan], dict[int, HzSpan], int]:
    """Check the rules of each BWP of one direction on its own, reading its
    properties once, and add its mu to `mus`. Returns their spans, by id the
    span of the first BWP of that id, and their `rrc_configured_count`."""
    by_id: dict[int, HzSpan] = {}
    spans = []
    dedicated = 0
    for i, bwp in enumerate(bwps):
        loc = f"{direction}[{i}]"
        if not MIN_BWP_ID <= bwp.id <= MAX_BWP_ID:
            out.error("BWP-ID-RANGE", f"BWP id {bwp.id} outside [0, {MAX_BWP_ID}]", loc)
        if bwp.id in by_id:
            out.error("DUPLICATE-ID", f"duplicate BWP id {bwp.id}", loc)
        if bwp.dedicated is not None:
            dedicated += 1
        elif bwp.id != 0:
            out.error(
                "BWP-DEDICATED",
                f"non-initial BWP #{bwp.id} lacks dedicated parameters",
                loc,
            )
        geometry = bwp.common.geometry
        mus.add(geometry.numerology.mu)
        n = geometry.n_rbs
        if not MIN_BWP_RBS <= n <= MAX_BWP_RBS:
            out.error(
                "BWP-SIZE", f"{n} RBs outside [{MIN_BWP_RBS}, {MAX_BWP_RBS}]", loc
            )
        elif n < DEFAULT_RBG_FLOOR_RBS:
            out.warning(
                "RBG-FLOOR",
                f"BWP #{bwp.id} is {n} RBs, below the RBG/PRG floor of {DEFAULT_RBG_FLOOR_RBS}",
                loc,
            )
        span = geometry.span(cfg.point_a_hz)
        spans.append(span)
        by_id.setdefault(bwp.id, span)
        if not channel.contains(span):
            out.error(
                "BWP-IN-CHANNEL",
                f"BWP #{bwp.id} extends outside the channel bandwidth",
                loc,
            )
    return spans, by_id, dedicated
