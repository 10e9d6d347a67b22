"""Configuration model and validator."""

import json
import pickle
import random
import re
from pathlib import Path

import pytest

import bwpsim as b
from support import centered_cell, adaptation_cell, make_bwp


def report_codes(cfg, cap, **kw):
    return b.validate(cfg, cap, **kw).codes()


CAP4 = b.UeCapability(max_rrc_bwps=4)


class _OneHzWider(b.BwpGeometry):
    """A geometry whose span ends one Hz higher, so its center moves by half a Hz."""

    def span(self, point_a_hz: int) -> b.HzSpan:
        span = super().span(point_a_hz)
        return b.HzSpan(span.low_hz, span.high_hz + 1)


class TestRrcConfiguredCount:
    def test_option1_initial_plus_four(self):
        bwps = [make_bwp(0, 0, 24, dedicated=False)] + [make_bwp(i, 0, 50) for i in range(1, 5)]
        assert b.rrc_configured_count(bwps) == 4

    def test_option2_initial_plus_three(self):
        bwps = [make_bwp(0, 0, 24)] + [make_bwp(i, 0, 50) for i in range(1, 4)]
        assert b.rrc_configured_count(bwps) == 4

    def test_lone_option1_initial(self):
        assert b.rrc_configured_count([make_bwp(0, 0, 24, dedicated=False)]) == 0

    def test_reorder_invariant(self):
        bwps = [make_bwp(0, 0, 24)] + [make_bwp(i, 0, 50) for i in range(1, 4)]
        rng = random.Random(7)
        for _ in range(20):
            shuffled = bwps[:]
            rng.shuffle(shuffled)
            assert b.rrc_configured_count(shuffled) == 4
            assert b.rrc_configured_count(shuffled) <= len(shuffled)


class TestDefaultAndDciAvailability:
    def test_configured_default_wins(self):
        assert b.effective_default_dl(adaptation_cell()) == 2

    def test_unconfigured_default_is_initial(self):
        cfg = adaptation_cell()._replace(default_dl_bwp=None)
        assert b.effective_default_dl(cfg) == 0

    def test_explicit_zero_equals_implicit(self):
        cfg = adaptation_cell()._replace(default_dl_bwp=0)
        assert b.effective_default_dl(cfg) == 0

    def test_option1_initial_blocks_nonfallback(self):
        assert not b.dci_switch_available(adaptation_cell(), 0)

    def test_option2_initial_allows_nonfallback(self):
        assert b.dci_switch_available(centered_cell(), 0)

    def test_dedicated_bwp_always_allows(self):
        assert b.dci_switch_available(adaptation_cell(), 1)
        assert b.dci_switch_available(centered_cell(), 1)

    def test_no_initial_bwp_no_limit(self):
        """Only an Option 1 BWP #0 limits DCI; a cell without a DL BWP #0
        (invalid, INITIAL-BWP) has none, and the answer is not a KeyError."""
        cfg = adaptation_cell()
        assert b.dci_switch_available(cfg._replace(dl_bwps=cfg.dl_bwps[1:]), 0)


class TestValidate:
    def test_adaptation_config_is_clean(self):
        assert b.validate(adaptation_cell(), CAP4).valid

    def test_five_dedicated_bwps_hit_count_rule(self):
        bwps = tuple(make_bwp(i, 0, 50) for i in range(5))  # Option 2 #0 counts too
        cfg = adaptation_cell()._replace(dl_bwps=bwps, ul_bwps=bwps)
        codes = report_codes(cfg, CAP4)
        assert codes.count("BWP-COUNT") == 2  # once per direction

    def test_small_initial_bwp_fails_coreset_containment(self):
        cfg = adaptation_cell()
        bwps = (make_bwp(0, 0, 20, dedicated=False), make_bwp(1, 0, 270), make_bwp(2, 0, 52))
        cfg = cfg._replace(dl_bwps=bwps)
        assert "CORESET0-CONTAIN" in report_codes(cfg, CAP4)

    def test_tdd_mismatched_centers(self):
        cfg = centered_cell(duplex=b.Duplex.TDD)
        # shift UL #1 off-center: same width, different start
        ul = list(cfg.ul_bwps)
        ul[1] = make_bwp(1, 0, 100 - 2)
        cfg = cfg._replace(ul_bwps=tuple(ul))
        assert "TDD-CENTER" in report_codes(cfg, CAP4)

    @pytest.mark.parametrize("shifted_first", [False, True])
    def test_tdd_center_pairs_the_first_ul_bwp_of_a_repeated_id(self, shifted_first):
        # UL #1 twice, once on DL #1's center and once off it: only the first is paired
        cfg = centered_cell(duplex=b.Duplex.TDD)
        centered, shifted = cfg.ul_bwps[1], make_bwp(1, 0, 100 - 2)
        pair = (shifted, centered) if shifted_first else (centered, shifted)
        cfg = cfg._replace(ul_bwps=(cfg.ul_bwps[0], *pair, cfg.ul_bwps[2]))
        assert next(u for u in cfg.ul_bwps if u.id == 1) is pair[0]
        codes = report_codes(cfg, CAP4)
        assert "DUPLICATE-ID" in codes
        assert ("TDD-CENTER" in codes) == shifted_first

    def test_tdd_centers_half_a_hz_apart_differ(self):
        # integer-Hz spans whose low + high sums differ by one: centers half a Hz apart
        cfg = centered_cell(duplex=b.Duplex.TDD)
        ul = cfg.ul_bwps[1]
        g = ul.geometry
        odd = ul._replace(common=b.BwpCommon(_OneHzWider(g.start_rb, g.n_rbs, g.numerology)))
        cfg = cfg._replace(ul_bwps=(cfg.ul_bwps[0], odd, cfg.ul_bwps[2]))
        findings = b.validate(cfg, CAP4).findings
        assert [(f.rule_code, f.location) for f in findings] == [("TDD-CENTER", "ul_bwps[1]")]

    def test_tdd_id_sets_must_match(self):
        cfg = centered_cell(duplex=b.Duplex.TDD)
        cfg = cfg._replace(ul_bwps=cfg.ul_bwps[:2], prach_configured_on=frozenset({0}))
        assert "TDD-PAIR-IDS" in report_codes(cfg, CAP4)

    @pytest.mark.parametrize("timer,bad", [(2, False), (2560, False), (1, True), (3000, True)])
    def test_timer_range(self, timer, bad):
        cfg = adaptation_cell()._replace(inactivity_timer_ms=timer)
        assert ("TIMER-RANGE" in report_codes(cfg, CAP4)) == bad

    @pytest.mark.parametrize("delay,bad", [(5, False), (80, False), (4, True), (81, True)])
    def test_rrc_delay_range(self, delay, bad):
        cfg = adaptation_cell()._replace(rrc_processing_delay_ms=delay)
        assert ("RRC-DELAY" in report_codes(cfg, CAP4)) == bad

    def test_channel_bandwidth_range(self):
        cfg = adaptation_cell()._replace(channel_bandwidth_mhz=450.0)
        assert "CHANNEL-BW" in report_codes(cfg, CAP4)

    def test_bwp_must_fit_in_channel(self):
        cfg = adaptation_cell()._replace(channel_bandwidth_mhz=40.0)
        # 270 RB * 180 kHz = 48.6 MHz no longer fits
        assert "BWP-IN-CHANNEL" in report_codes(cfg, CAP4)

    def test_bwp_at_the_channel_upper_edge(self):
        # 100 RBs of 180 kHz from Point A end at exactly 18 MHz: inside an
        # 18 MHz channel, 10 Hz outside a 17.99999 MHz one
        bwps = (make_bwp(0, 0, 24, dedicated=False), make_bwp(1, 0, 100))
        cfg = adaptation_cell()._replace(dl_bwps=bwps, ul_bwps=bwps, default_dl_bwp=None)
        edge = cfg._replace(channel_bandwidth_mhz=18.0)
        assert edge.channel_span == b.HzSpan(cfg.point_a_hz, cfg.point_a_hz + 18_000_000)
        assert report_codes(edge, CAP4) == ()
        short = cfg._replace(channel_bandwidth_mhz=17.99999)
        assert short.channel_span.high_hz == cfg.point_a_hz + 17_999_990
        assert [(f.rule_code, f.location) for f in b.validate(short, CAP4).findings] == [
            ("BWP-IN-CHANNEL", "dl_bwps[1]"), ("BWP-IN-CHANNEL", "ul_bwps[1]"),
        ]

    def test_oversized_bwp(self):
        cfg = adaptation_cell()
        bwps = (*cfg.dl_bwps[:2], make_bwp(2, 0, 276))
        cfg = cfg._replace(dl_bwps=bwps, channel_bandwidth_mhz=60.0)
        assert "BWP-SIZE" in report_codes(cfg, CAP4)

    def test_rbg_floor_warning(self):
        cfg = adaptation_cell()
        bwps = (*cfg.dl_bwps, make_bwp(3, 0, 1))
        cfg = cfg._replace(dl_bwps=bwps)
        # no-restriction capability so the undersized BWP is the only finding
        cap = b.UeCapability(max_rrc_bwps=4, supports_no_bandwidth_restriction=True)
        rep = b.validate(cfg, cap)
        warn = [f for f in rep.findings if f.rule_code == "RBG-FLOOR"]
        assert len(warn) == 1 and warn[0].severity is b.Severity.WARNING
        assert not rep.has_errors

    def test_id_out_of_range(self):
        cfg = adaptation_cell()
        bwps = (*cfg.dl_bwps, make_bwp(3, 0, 50), make_bwp(4, 0, 50), make_bwp(5, 0, 50))
        cfg = cfg._replace(dl_bwps=bwps)
        assert "BWP-ID-RANGE" in report_codes(cfg, CAP4)

    def test_duplicate_ids(self):
        cfg = adaptation_cell()
        bwps = (*cfg.dl_bwps, make_bwp(2, 0, 50))
        cfg = cfg._replace(dl_bwps=bwps)
        assert "DUPLICATE-ID" in report_codes(cfg, CAP4)

    def test_missing_initial_bwp(self):
        cfg = adaptation_cell()
        cfg = cfg._replace(dl_bwps=cfg.dl_bwps[1:])
        assert "INITIAL-BWP" in report_codes(cfg, CAP4)

    def test_missing_initial_ul_bwp(self):
        """A UL list needs BWP #0 too, though the DL list has it."""
        cfg = adaptation_cell()
        cfg = cfg._replace(ul_bwps=cfg.ul_bwps[1:], prach_configured_on=frozenset({1}))
        findings = b.validate(cfg, CAP4).findings
        assert [(f.rule_code, f.location) for f in findings if f.rule_code == "INITIAL-BWP"] == [
            ("INITIAL-BWP", "ul_bwps")]
        assert not b.validate(adaptation_cell(), CAP4).has_errors

    def test_tdd_first_active_ids_must_match(self):
        cfg = centered_cell(duplex=b.Duplex.TDD)._replace(first_active_ul=2)
        findings = b.validate(cfg, CAP4).findings
        assert [(f.rule_code, f.severity, f.location) for f in findings] == [
            ("TDD-FIRST-ACTIVE", b.Severity.ERROR, "first_active_ul")]

    def test_nonzero_bwp_needs_dedicated(self):
        cfg = adaptation_cell()
        bwps = (cfg.dl_bwps[0], make_bwp(1, 0, 270, dedicated=False), cfg.dl_bwps[2])
        cfg = cfg._replace(dl_bwps=bwps)
        assert "BWP-DEDICATED" in report_codes(cfg, CAP4)

    def test_mixed_numerology_needs_capability(self):
        base = centered_cell(duplex=b.Duplex.FDD)
        mixed = (*base.dl_bwps[:2], make_bwp(2, 12, 26, mu=1))
        mixed_cap = b.UeCapability(max_rrc_bwps=4, mixed_numerology_bwps=True)
        for direction in ("dl_bwps", "ul_bwps"):  # a numerology in one direction only counts too
            cfg = base._replace(**{direction: mixed})
            assert "MIXED-NUMEROLOGY" in report_codes(cfg, CAP4)
            assert "MIXED-NUMEROLOGY" not in report_codes(cfg, mixed_cap)

    def test_bandwidth_restriction_gate(self):
        cfg = adaptation_cell()
        # narrow #2 placed away from the SSB/CORESET block
        bwps = (*cfg.dl_bwps[:2], make_bwp(2, 100, 52))
        cfg = cfg._replace(dl_bwps=bwps)
        assert "BW-RESTRICTION" in report_codes(cfg, CAP4)
        free_cap = b.UeCapability(max_rrc_bwps=4, supports_no_bandwidth_restriction=True)
        assert "BW-RESTRICTION" not in report_codes(cfg, free_cap)

    def _rb_span(self, cfg, start, end):
        rb = b.Numerology(0).rb_width_hz
        return b.HzSpan(cfg.point_a_hz + start * rb, cfg.point_a_hz + end * rb)

    def _restriction_findings(self, cfg):
        return [(f.location, f.message) for f in b.validate(cfg, CAP4).findings
                if f.rule_code == "BW-RESTRICTION"]

    def test_bandwidth_restriction_needs_the_ssb(self):
        # the SSB at RBs 30..40 lies outside the initial BWP (0..24), which
        # still contains CORESET #0 (0..24); #1 and #2 contain both
        cfg = adaptation_cell()
        cfg = cfg._replace(ssb_span=self._rb_span(cfg, 30, 40))
        assert self._restriction_findings(cfg) == [
            ("dl_bwps[0]", "DL BWP #0 does not contain SSB and the UE requires the bandwidth restriction")
        ]

    @pytest.mark.parametrize("role", [b.CellRole.PCELL, b.CellRole.SCELL])
    def test_bandwidth_restriction_needs_coreset0_on_the_spcell(self, role):
        # #2 at RBs 2..54 contains the SSB (4..20) but not CORESET #0 (0..24)
        cfg = adaptation_cell()
        cfg = cfg._replace(cell_role=role, ssb_span=self._rb_span(cfg, 4, 20),
            dl_bwps=(*cfg.dl_bwps[:2], make_bwp(2, 2, 52)),
        )
        expected = [("dl_bwps[2]", "DL BWP #2 does not contain CORESET #0 and the UE requires the bandwidth restriction")]
        assert self._restriction_findings(cfg) == (expected if role.is_spcell else [])

    @pytest.mark.parametrize("max_bwps", [1, 2])
    def test_bwp_count_follows_the_capability_class(self, max_bwps):
        # Option 1: #0 has no dedicated part, so #1..#n are the configured ones
        cfg = adaptation_cell()
        cap = b.UeCapability(max_rrc_bwps=max_bwps)
        for n, over in ((max_bwps, False), (max_bwps + 1, True)):
            bwps = (cfg.dl_bwps[0], *(make_bwp(i, 0, 52) for i in range(1, n + 1)))
            cell = cfg._replace(dl_bwps=bwps, ul_bwps=bwps, default_dl_bwp=None)
            findings = [f.message for f in b.validate(cell, cap).findings if f.rule_code == "BWP-COUNT"]
            assert findings == ([
                f"{n} RRC-configured BWPs in dl_bwps exceeds the limit of {max_bwps}",
                f"{n} RRC-configured BWPs in ul_bwps exceeds the limit of {max_bwps}",
            ] if over else [])

    def test_scell_requires_first_active(self):
        cfg = adaptation_cell()._replace(cell_role=b.CellRole.SCELL, first_active_dl=None)
        assert "SCELL-FIRST-ACTIVE" in report_codes(cfg, CAP4)

    def test_dangling_references(self):
        cfg = adaptation_cell()._replace(default_dl_bwp=4)
        assert "DEFAULT-REF" in report_codes(cfg, CAP4)
        cfg = adaptation_cell()._replace(first_active_dl=4)
        assert "FIRST-ACTIVE-REF" in report_codes(cfg, CAP4)
        cfg = adaptation_cell()._replace(prach_configured_on=frozenset({0, 4}))
        assert "PRACH-REF" in report_codes(cfg, CAP4)

    def test_validation_is_deterministic(self):
        cfg = adaptation_cell()._replace(default_dl_bwp=4, inactivity_timer_ms=1)
        r1 = b.validate(cfg, CAP4)
        r2 = b.validate(cfg, CAP4)
        assert json.dumps(r1.to_obj()) == json.dumps(r2.to_obj())

    def test_errors_never_raise(self):
        # a config violating many rules at once still just yields findings
        bwps = (make_bwp(1, 0, 276),)
        cfg = adaptation_cell()._replace(
            dl_bwps=bwps,
            ul_bwps=(),
            channel_bandwidth_mhz=500.0,
            inactivity_timer_ms=9999,
            default_dl_bwp=3,
        )
        rep = b.validate(cfg, CAP4)
        assert rep.has_errors


def _weaker(cap: b.UeCapability) -> list[b.UeCapability]:
    out = []
    for max_bwps in (1, 2, 4):
        if max_bwps < cap.max_rrc_bwps:
            continue
        for mixed in (False, True):
            if cap.mixed_numerology_bwps and not mixed:
                continue
            if mixed and max_bwps != 4:
                continue
            for free in (False, True):
                if cap.supports_no_bandwidth_restriction and not free:
                    continue
                out.append(
                    b.UeCapability(
                        max_rrc_bwps=max_bwps,
                        mixed_numerology_bwps=mixed,
                        supports_no_bandwidth_restriction=free,
                        switch_delay_type=cap.switch_delay_type,
                    )
                )
    return out


def test_valid_under_weaker_capability_stays_valid():
    configs = [
        adaptation_cell(),
        centered_cell(duplex=b.Duplex.TDD),
        centered_cell(mu=1, timer_ms=None),
    ]
    strict = b.UeCapability(max_rrc_bwps=2)
    for cfg in configs:
        if b.validate(cfg, strict).has_errors:
            continue
        for weaker in _weaker(strict):
            assert not b.validate(cfg, weaker).has_errors


def test_valid_config_default_names_configured_bwp():
    for cfg in (adaptation_cell(), centered_cell(default_dl=None), centered_cell(duplex=b.Duplex.TDD)):
        if b.validate(cfg, CAP4).valid:
            assert b.effective_default_dl(cfg) in {x.id for x in cfg.dl_bwps}


@pytest.mark.parametrize("mhz", [0.0, 1e-7, -5.0, float("nan"), float("inf")])
def test_channel_must_be_positive_and_finite(mhz):
    """A channel narrower than half a Hz, negative or not finite is refused
    at construction; validation never sees it."""
    with pytest.raises(ValueError, match="positive finite number of MHz"):
        adaptation_cell()._replace(channel_bandwidth_mhz=mhz)


def test_a_one_hz_channel_is_constructed():
    """1 Hz is the narrowest channel that does not round to nothing."""
    assert adaptation_cell()._replace(channel_bandwidth_mhz=1e-6).channel_bandwidth_mhz == 1e-6


def test_docs_list_every_rule_code_with_its_severity():
    """docs/file_formats.md's table and validate()'s docstring name the same
    codes, and mark the same ones as warnings."""
    docs = (Path(__file__).resolve().parent.parent / "docs" / "file_formats.md").read_text(encoding="utf-8")
    table = dict(re.findall(r"^\| `([A-Z0-9-]+)` \| `(Error|Warning)` \|", docs, re.MULTILINE))
    listed = re.findall(r"^    ([A-Z0-9-]+) +(\(warning\))?", b.validate.__doc__, re.MULTILINE)
    assert table == {code: "Warning" if warning else "Error" for code, warning in listed}
    assert len(table) == 21


def test_capability_self_consistency():
    with pytest.raises(ValueError):
        b.UeCapability(max_rrc_bwps=3)
    with pytest.raises(ValueError):
        b.UeCapability(max_rrc_bwps=2, mixed_numerology_bwps=True)


def test_capability_requires_max_rrc_bwps():
    """Every UE reports how many BWPs it supports: the field has no default."""
    with pytest.raises(TypeError):
        b.UeCapability()  # type: ignore[call-arg]
    with pytest.raises(TypeError):
        b.UeCapability(mixed_numerology_bwps=False, switch_delay_type=b.DelayType.TYPE2)  # type: ignore[call-arg]


def test_cell_roles_carry_whether_they_are_an_spcell():
    assert {role: role.is_spcell for role in b.CellRole} == {
        b.CellRole.PCELL: True, b.CellRole.PSCELL: True, b.CellRole.SCELL: False}


def test_default_link_params_are_read_only():
    """BWPs built without link_params share one empty default: every write to
    it raises TypeError, so no BWP's write shows in another's. It still reads,
    compares and pickles as `{}`."""
    geometry = adaptation_cell().dl_bwps[0].geometry
    writes = [lambda p: p.__setitem__("k", 1), lambda p: p.__delitem__("k"), lambda p: p.__ior__({"k": 1}),
              lambda p: p.update(k=1), lambda p: p.setdefault("k", 1), lambda p: p.pop("k", None),
              lambda p: p.popitem(), lambda p: p.clear()]
    for bwp in (b.BwpCommon(geometry), b.BwpDedicated()):
        for write in writes:
            with pytest.raises(TypeError):
                write(bwp.link_params)
        assert bwp.link_params == {} and repr(bwp.link_params) == "{}"
        assert pickle.loads(pickle.dumps(bwp)) == bwp
        assert bwp.link_params | {"k": 1} == {"k": 1}
    assert b.BwpCommon(geometry).link_params == {} == b.BwpDedicated().link_params
