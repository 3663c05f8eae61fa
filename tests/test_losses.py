"""Loss ledger: composition, ordering, degradation table."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqzbudget import (
    ConfigError,
    DomainError,
    LossElement,
    SqueezeLevel,
    apply_loss,
    chain_efficiency,
    degradation_report,
    state_from_db,
)

GEO_STAGES = (
    LossElement("sr_cavity", 0.90),
    LossElement("output_mode_cleaner", 0.90),
    LossElement("detection", 0.80),
)


def test_stage_product():
    assert chain_efficiency(GEO_STAGES) == pytest.approx(0.648, rel=1e-15)


def test_single_element_chain():
    assert chain_efficiency((LossElement("total", 0.62),)) == 0.62


def test_empty_chain_is_config_error():
    with pytest.raises(ConfigError):
        chain_efficiency(())


def test_element_validation():
    with pytest.raises(DomainError):
        LossElement("bad", 0.0)
    with pytest.raises(DomainError):
        LossElement("bad", 1.2)
    with pytest.raises(ConfigError):
        LossElement("", 0.5)


@pytest.mark.parametrize("name", ["a,b", "x#y", "c:d", " pad ", "pad\t", "a\nb", "a\u2028b"])
def test_names_the_config_text_cannot_hold_are_rejected(name):
    with pytest.raises(ConfigError, match="must not hold"):
        LossElement(name, 0.5)


@given(
    etas=st.lists(st.floats(0.05, 1.0), min_size=1, max_size=6),
    split_index=st.integers(0, 5),
)
@settings(max_examples=200, deadline=None)
def test_splitting_a_stage_preserves_total(etas, split_index):
    split_index = split_index % len(etas)
    chain = tuple(LossElement(f"s{i}", e) for i, e in enumerate(etas))
    halves = []
    for i, e in enumerate(etas):
        if i == split_index:
            halves.append(LossElement(f"s{i}a", math.sqrt(e)))
            halves.append(LossElement(f"s{i}b", math.sqrt(e)))
        else:
            halves.append(LossElement(f"s{i}", e))
    assert chain_efficiency(tuple(halves)) == pytest.approx(
        chain_efficiency(chain), rel=1e-12
    )


@given(etas=st.lists(st.floats(0.05, 1.0), min_size=2, max_size=6))
@settings(max_examples=200, deadline=None)
def test_order_does_not_change_the_final_state(etas):
    level = SqueezeLevel(10.0, 15.0)
    forward = tuple(LossElement(f"s{i}", e) for i, e in enumerate(etas))
    backward = tuple(reversed(forward))
    assert degradation_report(level, forward)[-1].v_sq_cumulative == pytest.approx(
        degradation_report(level, backward)[-1].v_sq_cumulative, rel=1e-12
    )


class TestDegradationReport:
    def test_single_ten_percent_stage(self):
        rows = degradation_report(SqueezeLevel(10.0, 10.0), (LossElement("omc", 0.9),))
        assert len(rows) == 1
        assert rows[0].v_sq_cumulative == pytest.approx(0.19, rel=1e-12)
        assert rows[0].squeeze_db_cumulative == pytest.approx(7.2125, abs=5e-4)

    def test_final_row_matches_single_application(self):
        level = SqueezeLevel(10.0, 15.0)
        rows = degradation_report(level, GEO_STAGES)
        eta = chain_efficiency(GEO_STAGES)
        direct = apply_loss(state_from_db(level), eta)
        assert rows[-1].eta_cumulative == pytest.approx(eta, rel=1e-12)
        assert rows[-1].v_sq_cumulative == pytest.approx(direct.v_sq, rel=1e-12)

    def test_identity_stage_prefix_leaves_rows_unchanged(self):
        level = SqueezeLevel(10.0, 10.0)
        plain = degradation_report(level, GEO_STAGES)
        padded = degradation_report(
            level, (LossElement("lossless", 1.0),) + GEO_STAGES
        )
        assert padded[0].v_sq_cumulative == pytest.approx(0.1, rel=1e-15)
        for a, b in zip(plain, padded[1:]):
            assert a == b

    def test_empty_chain_rejected(self):
        with pytest.raises(ConfigError):
            degradation_report(SqueezeLevel(10.0, 10.0), ())

    def test_cumulative_variance_is_monotone_for_squeezed_input(self):
        rows = degradation_report(SqueezeLevel(10.0, 15.0), GEO_STAGES)
        v = [row.v_sq_cumulative for row in rows]
        assert v == sorted(v)
        assert all(x < 1.0 for x in v)
