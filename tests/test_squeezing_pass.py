"""The array pass over squeezing factors against the scalar route, bit for bit.

``ifo.squeezing_factors`` evaluates ``state_from_db``, ``apply_loss``,
``dephase`` and ``readout_variance`` over arrays. Where its mask is True
the factor must have the bits ``squeezing_factor`` gives, and wherever
the scalar route raises the mask must be False: a sweep sends such a
value to its own report, which raises the scalar route's message.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sqzbudget.errors import DomainError
from sqzbudget.ifo import squeezing_factor, squeezing_factors
from sqzbudget.losses import LossElement
from sqzbudget.quadrature import SqueezeLevel, state_from_db

BAD = [math.nan, math.inf, -math.inf, -1.0, -0.0]


def scalar_factor(squeeze_db, antisqueeze_db, angle, eta, sigma):
    """``squeezing_factor`` of one injected level, or None where any check raises."""
    try:
        state = state_from_db(SqueezeLevel(squeeze_db, antisqueeze_db), angle)
        return squeezing_factor(state, (LossElement("total", eta),), sigma)
    except DomainError:
        return None


def some(edges, lo, hi):
    return st.one_of(st.sampled_from(edges + BAD), st.floats(lo, hi))


@st.composite
def inputs(draw):
    """(squeeze_db, antisqueeze_db, eta, sigma) with the edges of each bound."""
    squeeze = draw(some([0.0, 300.0, 300.5, 1e-300], 0.0, 300.0))
    anti = draw(st.one_of(st.just(squeeze), some([0.0, 300.0, 301.0], 0.0, 300.0),
                          st.floats(0.0, 10.0).map(lambda d: squeeze + d)))
    eta = draw(some([1.0, 5e-324, 1e-300, 0.0, 1.0000000000000002, 0.5], 0.0, 1.0))
    sigma = draw(some([0.0, 5e-324, 1e-200, 1e200, 10.0], 0.0, 3.0))
    return squeeze, anti, eta, sigma


ANGLES = [0.0, math.pi / 2, -math.pi / 2, math.pi, -0.3, 1e-300, 7.5]


@given(angle=st.one_of(st.sampled_from(ANGLES), st.floats(-20.0, 20.0)),
       cases=st.lists(inputs(), min_size=1, max_size=20))
@settings(max_examples=400, deadline=None)
@example(angle=0.0, cases=[(0.0, 0.0, 1.0, 0.0), (0.0, 300.0, 1.0, 0.0), (10.0, 10.0, 0.62, 0.1)])
@example(angle=math.pi / 2, cases=[(300.0, 300.0, 5e-324, 0.2), (3.0, 3.0, 1.0, 1e200)])
def test_the_pass_has_the_scalar_bits_where_ok_and_is_not_ok_where_it_raises(angle, cases):
    columns = [np.array(column) for column in zip(*cases)]
    factors, ok = squeezing_factors(columns[0], columns[1], angle, columns[2], columns[3])
    assert factors.shape == ok.shape == (len(cases),)
    for case, factor, passed in zip(cases, factors.tolist(), ok.tolist()):
        expected = scalar_factor(case[0], case[1], angle, case[2], case[3])
        if expected is None:
            assert not passed, case
        elif passed:
            assert factor.hex() == expected.hex(), case


@given(angle=st.sampled_from(ANGLES), case=inputs(), axis=st.integers(0, 3),
       values=st.lists(st.floats(allow_nan=True), min_size=1, max_size=8))
@settings(max_examples=200, deadline=None)
def test_one_array_among_floats_gives_each_values_scalar_bits(angle, case, axis, values):
    # How a sweep calls the pass: one input varies, the others are floats.
    args = list(case)
    args[axis] = np.array(values)
    factors, ok = squeezing_factors(args[0], args[1], angle, args[2], args[3])
    for value, factor, passed in zip(values, factors.tolist(), ok.tolist()):
        one = list(case)
        one[axis] = value
        expected = scalar_factor(one[0], one[1], angle, one[2], one[3])
        if expected is None:
            assert not passed
        elif passed:
            assert factor.hex() == expected.hex()


def test_valid_inputs_pass():
    squeeze = np.linspace(0.0, 30.0, 61)
    factors, ok = squeezing_factors(squeeze, np.maximum(15.0, squeeze), 0.1, 0.62, 0.05)
    assert ok.all()
    for s, factor in zip(squeeze.tolist(), factors.tolist()):
        assert factor.hex() == scalar_factor(s, max(15.0, s), 0.1, 0.62, 0.05).hex()
