"""Deterministic library + CLI simulator of NR bandwidth-part behavior.

Frequency-domain arithmetic, configuration validation, the DCI BWP
indicator codec, the UE switching state machine, and a deadline-driven
discrete-event engine on an integer clock that turns scripted scenarios
into verifiable traces.
"""

from .config import (
    BwpCommon,
    BwpConfig,
    BwpDedicated,
    CellConfig,
    CellRole,
    DelayType,
    Duplex,
    Finding,
    Severity,
    UeCapability,
    UplinkWaveform,
    ValidationReport,
    dci_switch_available,
    effective_default_dl,
    rrc_configured_count,
    validate,
)
from .dci import (
    DciEvent,
    DciFormat,
    Direction,
    IndicatorContext,
    IndicatorError,
    InvalidCodepoint,
    LengthMismatch,
    Unaddressable,
    decode_indicator,
    encode_indicator,
    indicator_bitwidth,
)
from .engine import (
    CellMetrics,
    EventKind,
    EventMisaligned,
    RunMetrics,
    Scenario,
    ScenarioInvalid,
    SimEvent,
    replay_metrics,
    run,
)
from .fsm import (
    BwpState,
    CellStateMachine,
    EventRejection,
    SwitchCause,
    SwitchWindow,
    UnsupportedScs,
    switch_delay_khz,
)
from .grid import (
    BwpGeometry,
    CyclicPrefix,
    FrequencyRange,
    HzSpan,
    Numerology,
    classify_frequency,
    tdd_pair_compatible,
)
from .scenario import FORMAT_VERSION, ParseError, load_scenario, scenario_from_obj
from .trace import MalformedTrace, TraceRecord, ms_str, parse_ms, read_trace, write_trace

__version__ = "0.1.0"
