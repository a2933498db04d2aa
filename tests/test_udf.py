"""The sequence UDFs against their frozen oracle (``udf_oracle``).

``PEARSON`` and ``SLOPE`` compute ``ndarray.mean`` and
``np.linalg.norm`` as the reductions those call; every result must be
bit-identical to the oracle's — ``repr`` equal, NaN and ±inf included —
on any series: constant, shorter than two, subnormal, overflowing.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.exastream.udf import _avg_slope, _pearson
from udf_oracle import avg_slope, pearson

# overflow and invalid-value warnings are part of the inputs' domain
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

# the two columns sit at different positions, around a third one
COLUMNS = {"x": 2, "y": 0, "ts": 2, "val": 0}

values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(-1e3, 1e3),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 2.0**1023]),
    st.integers(-(2**53), 2**53),
)


def series(length=st.integers(0, 40)):
    return length.flatmap(
        lambda n: st.lists(
            st.tuples(values, st.none(), values), min_size=n, max_size=n
        )
    )


def constant(draw_value):
    return st.tuples(draw_value, st.integers(0, 12)).map(
        lambda vn: [(vn[0], None, vn[0])] * vn[1]
    )


def _same(ours, theirs) -> None:
    assert repr(ours) == repr(theirs)
    assert type(ours) is type(theirs) is float


@settings(max_examples=800, deadline=None)
@given(st.one_of(series(), constant(values)))
@example([])
@example([(1.0, None, 2.0)])
@example([(1.0, None, 2.0), (1.0, None, 2.0)])
@example([(math.nan, None, 1.0), (2.0, None, 3.0)])
@example([(math.inf, None, 1.0), (2.0, None, -math.inf)])
@example([(1e308, None, 1e308), (-1e308, None, -1e308), (1e308, None, 0.0)])
@example([(5e-324, None, 5e-324), (0.0, None, -5e-324), (5e-324, None, 0.0)])
def test_pearson_and_slope_are_bit_identical(rows):
    _same(_pearson(rows, COLUMNS), pearson(rows, COLUMNS))
    _same(_avg_slope(rows, COLUMNS), avg_slope(rows, COLUMNS))


def test_random_series_are_bit_identical():
    rng = np.random.default_rng(20261020)
    for _ in range(500):
        n = int(rng.integers(2, 258))
        scale = 10.0 ** rng.integers(-320, 308)
        rows = [
            (float(a), None, float(b))
            for a, b in (rng.standard_normal((n, 2)) * scale)
        ]
        _same(_pearson(rows, COLUMNS), pearson(rows, COLUMNS))
        _same(_avg_slope(rows, COLUMNS), avg_slope(rows, COLUMNS))
