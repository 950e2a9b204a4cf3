"""simulate's rows are formatted in numpy, with repr as the specification:
numbered_rows must write f"{i},{v!r}\\n" byte for byte, for every float64,
and certify almost every sampled value itself instead of handing it to repr."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evt_accompany import rows
from evt_accompany.analysis import SupOnGrid, simulate_max
from evt_accompany.cli import _BLOCK_ROWS
from evt_accompany.rows import numbered_rows
from evt_accompany.tails import parse_dist


def spec_rows(start, values):
    return "".join(f"{i},{v!r}\n" for i, v in enumerate(np.asarray(values).tolist(), start))


def assert_rows(start, values):
    values = np.asarray(values, dtype=np.float64)
    kept = values.copy()
    assert numbered_rows(start, values) == spec_rows(start, values)
    assert np.array_equal(values.view(np.uint64), kept.view(np.uint64))  # values untouched


# raw bit patterns: every float64, subnormals, both zeros, infinities and NaNs
# among them; and floats where the numpy path does the work
_BITS = st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64)
_POSITIONAL = st.lists(st.floats(1e-4, 1e16) | st.floats(-1e16, -1e-4), min_size=1,
                       max_size=64)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_BITS, st.integers(0, 10 ** 9))
def test_any_bit_pattern_is_written_as_repr_writes_it(bits, start):
    assert_rows(start, np.array(bits, dtype=np.uint64).view(np.float64))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_POSITIONAL, st.integers(0, 10 ** 9))
def test_any_positional_float_is_written_as_repr_writes_it(values, start):
    assert_rows(start, values)


def _around(x, steps=3):
    # x and its neighbours, `steps` floats either side
    out, lo, hi = [x], x, x
    for _ in range(steps):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return out


TARGETED = {
    "powers of ten": [v for k in range(-6, 18) for v in _around(10.0 ** k)],
    "powers of two": [2.0 ** j for j in range(-1074, 1024)],
    "integers": [float(j) for j in range(-300, 300)] + [2.0 ** 53 - 1, 2.0 ** 53, 1e15 + 1],
    "short decimals": [j / 10 ** d for d in range(1, 8) for j in range(-500, 500, 7)],
    "positional edges": _around(1e-4, 50) + _around(1e16, 50),
    "specials": [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308,
                 1.7976931348623157e308],
    "nines": [0.9999999999999999, 9.999999999999998, 99999.99999999999, 0.00099999999999999,
              9.99999999999999e15],
    # the x columns of `table`: short decimals whose digits end many places
    # before the 17th
    "grid points": [x for lo, hi, steps in ((-2.0, 6.0, 161), (-2.0, 6.0, 61), (-1.5, 6.0, 16),
                                            (-2.0, 6.0, 801), (-12.0, 12.0, 7))
                    for x in SupOnGrid(lo, hi, steps).grid().tolist()],
}


@pytest.mark.parametrize("name", TARGETED)
@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_targeted_values_are_written_as_repr_writes_them(name, sign):
    assert_rows(0, sign * np.array(TARGETED[name]))


def test_grid_points_are_certified_but_integers_and_powers_of_two():
    # 148 of the 161 points of `table --x -2:6:161`: repr writes the rest,
    # where v is an integer or its rounding interval is not symmetric
    xs = SupOnGrid(-2.0, 6.0, 161).grid()
    ok = rows.shortest_digits(xs)[0]
    assert xs[~ok].tolist() == [-2.0, -1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0,
                                5.0, 6.0]


@pytest.mark.parametrize("start", [0, 5, 95, 99990, 999_999_990])
def test_an_index_that_gains_a_digit_inside_a_block(start):
    # 9 -> 10, 99 -> 100, 99999 -> 100000, 999999999 -> 1000000000
    values = np.random.default_rng(start).gumbel(size=20)
    assert_rows(start, values)


@pytest.mark.parametrize("block", [0, 1, 24, 244])
def test_a_block_starting_at_a_multiple_of_the_block_size(block):
    values = np.random.default_rng(block).uniform(-3.0, 13.0, _BLOCK_ROWS)
    assert_rows(block * _BLOCK_ROWS, values)


_FAMILIES = ["exp", "weibull:c=1,p=2,alpha=0,ell=const:1",
             "weibull:c=1,p=0.5,alpha=2,ell=const:1", "logweibull:c=1,p=2,alpha=0,ell=const:1",
             "iterlog:k=2,a=1,C=1", "iterlog:k=3,a=1,C=1"]


@pytest.mark.parametrize("spec", _FAMILIES)
def test_sampled_maxima_are_certified_without_repr(spec, monkeypatch):
    # a change that sent every row to repr would keep the bytes right; this
    # pins the share of rows the numpy path certifies itself
    samples = simulate_max(parse_dist(spec), 1000, 2 * _BLOCK_ROWS, seed=5)
    calls = []
    real = rows.repr_row

    def counted(i, v):
        calls.append(i)
        return real(i, v)

    monkeypatch.setattr(rows, "repr_row", counted)
    text = "".join(numbered_rows(start, samples[start:start + _BLOCK_ROWS])
                   for start in range(0, samples.size, _BLOCK_ROWS))
    monkeypatch.undo()
    assert text == spec_rows(0, samples)
    assert len(calls) <= 0.01 * samples.size, f"{len(calls)} of {samples.size} rows to repr"
