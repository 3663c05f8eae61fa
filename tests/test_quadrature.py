"""Quadrature algebra: frozen values and algebraic invariants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sqzbudget import (
    DomainError,
    QuadratureState,
    SqueezeLevel,
    apply_loss,
    db_to_variance,
    dephase,
    readout_variance,
    rotate,
    state_from_db,
    vacuum,
    variance_to_db,
)

from oracles import dephased_readout_variance


# States drawn through dB space so the Heisenberg bound holds by
# construction: v_sq * v_anti = 10**(extra/10) >= 1.
def states(min_extra_db=0.0):
    return st.builds(
        lambda sq_db, extra_db, angle: QuadratureState(
            db_to_variance(sq_db), 1.0 / db_to_variance(sq_db + extra_db), angle
        ),
        sq_db=st.floats(0.0, 20.0),
        extra_db=st.floats(min_extra_db, 10.0),
        angle=st.floats(-10.0, 10.0),
    )


efficiencies = st.floats(0.01, 1.0)


class TestConstruction:
    def test_state_from_db_10_10(self):
        s = state_from_db(SqueezeLevel(10.0, 10.0))
        assert s.v_sq == pytest.approx(0.1, rel=1e-15)
        assert s.v_anti == pytest.approx(10.0, rel=1e-15)

    def test_state_from_db_9_15(self):
        s = state_from_db(SqueezeLevel(9.0, 15.0))
        assert s.v_sq == pytest.approx(0.12589254117941673, rel=1e-12)
        assert s.v_anti == pytest.approx(31.622776601683793, rel=1e-12)

    def test_zero_db_is_vacuum(self):
        assert state_from_db(SqueezeLevel(0.0, 0.0)) == vacuum()

    def test_canonical_ordering_swaps_and_rotates(self):
        s = QuadratureState(10.0, 0.1, 0.0)
        assert s.v_sq == 0.1
        assert s.v_anti == 10.0
        assert s.angle == pytest.approx(math.pi / 2)

    def test_angle_reduced_mod_pi(self):
        s = QuadratureState(0.1, 10.0, 5.0)
        assert 0.0 <= s.angle < math.pi
        assert s.angle == pytest.approx(5.0 - math.pi, rel=1e-12)

    @given(
        angle=st.one_of(
            st.floats(-10.0, 10.0),
            st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.pi / 2.0, 2.0 * math.pi,
                             math.nextafter(math.pi, 0.0), math.nextafter(0.0, -1.0)]),
        ),
        swap=st.booleans(),
    )
    def test_angle_is_fmod_pi_folded_into_the_period(self, angle, swap):
        v_sq, v_anti = (10.0, 0.1) if swap else (0.1, 10.0)
        turned = angle + math.pi / 2.0 if swap else angle
        a = math.fmod(turned, math.pi)
        a = a + math.pi if a < 0.0 else a
        expected = 0.0 if a >= math.pi else a
        assert QuadratureState(v_sq, v_anti, angle).angle.hex() == expected.hex()

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(DomainError):
            QuadratureState(0.0, 10.0)
        with pytest.raises(DomainError):
            QuadratureState(0.1, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["v_sq", "v_anti", "angle"])
    def test_rejects_a_non_finite_field(self, name, bad):
        fields = {"v_sq": 0.1, "v_anti": 10.0, "angle": 0.3, name: bad}
        with pytest.raises(DomainError) as info:
            QuadratureState(**fields)
        assert str(info.value) == f"{name} must be finite, got {bad!r}"

    def test_rejects_heisenberg_violation(self):
        with pytest.raises(DomainError):
            QuadratureState(0.1, 0.2)

    def test_level_rejects_negative_squeeze(self):
        with pytest.raises(DomainError):
            SqueezeLevel(-1.0, 5.0)

    def test_level_rejects_anti_below_squeeze(self):
        with pytest.raises(DomainError):
            SqueezeLevel(10.0, 9.0)


class TestDbConversions:
    def test_examples(self):
        assert db_to_variance(10.0) == pytest.approx(0.1, rel=1e-15)
        assert variance_to_db(0.44) == pytest.approx(3.565473235138, rel=1e-12)
        assert variance_to_db(1.0) == 0.0

    @given(db=st.floats(-30.0, 30.0))
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, db):
        assert variance_to_db(db_to_variance(db)) == pytest.approx(db, abs=1e-12)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(DomainError):
            variance_to_db(0.0)


class TestApplyLoss:
    def test_geo600_operating_point(self):
        s = apply_loss(state_from_db(SqueezeLevel(10.0, 10.0)), 0.62)
        assert abs(s.v_sq - 0.442) <= 1e-12

    def test_ten_percent_loss(self):
        s = apply_loss(state_from_db(SqueezeLevel(10.0, 10.0)), 0.9)
        assert s.v_sq == pytest.approx(0.19, rel=1e-12)
        assert variance_to_db(s.v_sq) == pytest.approx(7.2125, abs=5e-4)

    @given(eta=efficiencies)
    @settings(max_examples=200, deadline=None)
    def test_vacuum_fixed_point_exact(self, eta):
        out = apply_loss(vacuum(), eta)
        assert out.v_sq == 1.0 and out.v_anti == 1.0

    @given(s=states(), eta1=efficiencies, eta2=efficiencies)
    @settings(max_examples=200, deadline=None)
    def test_composition(self, s, eta1, eta2):
        seq = apply_loss(apply_loss(s, eta1), eta2)
        once = apply_loss(s, eta1 * eta2)
        assert seq.v_sq == pytest.approx(once.v_sq, rel=1e-12)
        assert seq.v_anti == pytest.approx(once.v_anti, rel=1e-12)

    @given(s=states(), eta=efficiencies)
    @settings(max_examples=200, deadline=None)
    def test_moves_toward_vacuum_without_crossing(self, s, eta):
        out = apply_loss(s, eta)
        assert abs(out.v_sq - 1.0) <= abs(s.v_sq - 1.0)
        assert abs(out.v_anti - 1.0) <= abs(s.v_anti - 1.0)
        # same side of 1 as the input
        assert (out.v_sq - 1.0) * (s.v_sq - 1.0) >= 0.0
        assert (out.v_anti - 1.0) * (s.v_anti - 1.0) >= 0.0

    @given(s=states(), eta=efficiencies)
    @settings(max_examples=200, deadline=None)
    def test_preserves_heisenberg(self, s, eta):
        # the product need not grow (both variances relax toward 1) but
        # can never dip below the bound
        assert apply_loss(s, eta).uncertainty_product >= 1.0 - 1e-12

    def test_rejects_eta_outside_domain(self):
        for eta in (0.0, -0.1, 1.01, math.inf):
            with pytest.raises(DomainError):
                apply_loss(vacuum(), eta)


class TestReadout:
    def test_projection_values(self):
        s = QuadratureState(0.1, 10.0)
        assert readout_variance(s, 0.0) == pytest.approx(0.1, rel=1e-15)
        assert readout_variance(s, math.pi / 4) == pytest.approx(5.05, rel=1e-12)
        assert readout_variance(s, math.pi / 2) == pytest.approx(10.0, rel=1e-12)

    def test_isotropic_state_is_angle_free(self):
        assert readout_variance(vacuum(), 0.7771) == 1.0

    @given(s=states(), phi=st.floats(-10.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_pi_periodic(self, s, phi):
        a = readout_variance(s, phi)
        b = readout_variance(s, phi + math.pi)
        assert b == pytest.approx(a, rel=1e-9, abs=1e-12)

    @given(s=states())
    @settings(max_examples=200, deadline=None)
    def test_extrema_at_principal_axes(self, s):
        lo = readout_variance(s, s.angle)
        hi = readout_variance(s, s.angle + math.pi / 2)
        assert lo == pytest.approx(s.v_sq, rel=1e-9)
        assert hi == pytest.approx(s.v_anti, rel=1e-9)

    @given(s=states(), phi=st.floats(-10.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_principal_variances(self, s, phi):
        v = readout_variance(s, phi)
        assert s.v_sq * (1.0 - 1e-12) <= v <= s.v_anti * (1.0 + 1e-12)


class TestRotate:
    @given(s=states(), delta=st.floats(-10.0, 10.0), phi=st.floats(-4.0, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_full_period_is_identity(self, s, delta, phi):
        back = rotate(rotate(s, delta), math.pi - delta)
        # variances untouched, orientation equivalent mod pi
        assert back.v_sq == s.v_sq and back.v_anti == s.v_anti
        assert readout_variance(back, phi) == pytest.approx(
            readout_variance(s, phi), rel=1e-9, abs=1e-12
        )

    @given(s=states(), delta=st.floats(-10.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_rotation_shifts_readout_angle(self, s, delta):
        rotated = rotate(s, delta)
        assert readout_variance(rotated, s.angle + delta) == pytest.approx(
            s.v_sq, rel=1e-9
        )


class TestDephase:
    def test_closed_form_example(self):
        out = dephase(QuadratureState(0.1, 10.0), 0.05)
        assert out.v_sq == pytest.approx(0.1246882280, rel=1e-9)
        assert out.v_anti == pytest.approx(9.9753117720, rel=1e-9)

    def test_sigma_zero_is_exact_identity(self):
        s = QuadratureState(0.1, 10.0, 0.3)
        assert dephase(s, 0.0) is s

    def test_isotropic_state_untouched(self):
        assert dephase(vacuum(), 0.8) == vacuum()

    @given(
        s=states(),
        sigma=st.floats(1e-4, 1.5),
        phi=st.floats(-4.0, 4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_gauss_hermite_average(self, s, sigma, phi):
        analytic = readout_variance(dephase(s, sigma), phi)
        numeric = dephased_readout_variance(s.v_sq, s.v_anti, s.angle, sigma, phi)
        assert analytic == pytest.approx(numeric, rel=1e-6)

    @given(s=states(min_extra_db=0.1), sigma=st.floats(1e-4, 1.5))
    @settings(max_examples=200, deadline=None)
    def test_squeezed_axis_degrades_conjugate_shrinks(self, s, sigma):
        out = dephase(s, sigma)
        assert out.v_sq >= s.v_sq
        assert out.v_anti <= s.v_anti

    @given(s=states(), sigma=st.floats(0.0, 1.5))
    @settings(max_examples=200, deadline=None)
    def test_preserves_heisenberg(self, s, sigma):
        out = dephase(s, sigma)
        assert out.uncertainty_product >= s.uncertainty_product * (1.0 - 1e-12)

    def test_rejects_negative_sigma(self):
        with pytest.raises(DomainError):
            dephase(vacuum(), -0.1)
