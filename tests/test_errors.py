"""The text formatter of errors: float_planes, int_planes and text_lines
write, byte for byte, what Python's %.17g and %d write."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aamsupcon import errors
from aamsupcon.errors import FLOAT_WIDTH, float_planes, int_planes, text_lines


def _g17_lines(values) -> bytes:
    """The line-by-line reference: each value in %.17g, then a newline."""
    return "".join("%.17g\n" % v for v in np.asarray(values, dtype=np.float64).tolist()).encode()


def _assert_g17(values):
    values = np.asarray(values, dtype=np.float64)
    assert text_lines(values, b"\n") == _g17_lines(values)


# 2^53 and its neighbours: the top of the exact range and the fallback above
_TWO_53 = 2.0 ** 53


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@example(1000000000000000.25)  # ties: n/4, n odd, in [4e15, 9e15], 17 digits + 1/2
@example(1000000000000000.75)
@example(4503599627370496.5)
@example(8999999999999999.25)
@example(1e-05)  # the switch to exponential form
@example(math.nextafter(1e-05, 0.0))
@example(1e16)  # the switch from fixed to exponential form
@example(1e17)
@example(math.nextafter(_TWO_53, 0.0))
@example(_TWO_53)
@example(math.nextafter(_TWO_53, math.inf))
@example(1.0)
@example(-1.0)
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(math.inf)
@example(-math.inf)
@example(math.nan)
@given(st.floats(width=64))
def test_float_planes_write_python_g17(x):
    """Every float64, finite or not, zeros and subnormals included: the
    planes of one number, freed of their NULs, are its %.17g text."""
    planes = float_planes([x])
    assert planes.shape == (FLOAT_WIDTH, 1)
    assert planes.T.tobytes().translate(None, b"\0") == ("%.17g" % x).encode()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(st.floats(width=64), max_size=40))
def test_text_lines_write_python_g17_for_mixed_columns(values):
    """A column that mixes the exact path with the fallback, in any order,
    gives the line-by-line reference."""
    _assert_g17(values)


def test_exact_path_agrees_with_python_g17_on_hard_families():
    """Half-way ties, values on each side of every power of ten and of two
    across the exact range and its edges, and random doubles of every
    decade, in one column each."""
    ties = np.arange(4 * 10**15 + 1, 9 * 10**15, 2 * 10**10 + 2, dtype=np.int64) / 4.0
    assert ties.size > 200_000 and (ties * 4 % 2 == 1).all()
    tens = 10.0 ** np.arange(-15, 19)
    twos = 2.0 ** np.arange(-45, 56)
    edges = np.concatenate([np.nextafter(tens, 0.0), tens, np.nextafter(tens, np.inf),
                            np.nextafter(twos, 0.0), twos, np.nextafter(twos, np.inf)])
    rng = np.random.default_rng(39)
    decades = rng.uniform(1.0, 10.0, 100_000) * 10.0 ** rng.integers(-14, 18, 100_000)
    raw = rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64)
    for values in (ties, edges, -edges, decades, -decades, raw):
        _assert_g17(values)


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint32, np.uint8, bool])
def test_int_planes_write_python_d(dtype):
    """Integers of any width and sign, and bools as 0 and 1, in %d; the
    planes of a column are as many as its longest entry needs."""
    rng = np.random.default_rng(7)
    info = np.iinfo(dtype) if dtype is not bool else None
    lo, hi = (0, 2) if info is None else (max(info.min, -10**12), min(info.max, 10**12))
    values = np.concatenate([[lo, hi - 1, 0], rng.integers(lo, hi, 2000)]).astype(dtype)
    assert text_lines(values, b"\n") == "".join(f"{int(v)}\n" for v in values.tolist()).encode()
    assert int_planes(np.array([7, 12345])).shape == (5, 2)
    assert int_planes(np.array([-7, 12])).shape == (3, 2)


def test_text_lines_cells_rows_and_planes():
    """Bytes cells repeat in every row, an (n, k) array writes its columns
    spaced, and planes given once go into more than one text."""
    rng = np.random.default_rng(3)
    ids = rng.integers(0, 1000, 50)
    block = rng.standard_normal((50, 3)) * 10.0 ** rng.integers(-20, 20, (50, 3))
    assert text_lines(ids, b" original ", block, b"\n") == "".join(
        ("%d original %.17g %.17g %.17g\n" % (i, *row))
        for i, row in zip(ids.tolist(), block.tolist())).encode()
    shared = int_planes(ids)
    assert text_lines(shared, b":", ids, b"\n") == "".join(
        f"{i}:{i}\n" for i in ids.tolist()).encode()
    assert text_lines(np.empty(0, dtype=np.int64), b" ", np.empty(0), b"\n") == b""
    assert text_lines(ids[:2], b" original ", np.empty((2, 0)), b"\n") == (
        f"{ids[0]} original \n{ids[1]} original \n".encode())


def test_exact_range_constants():
    """The exact path's bounds: 5^s fits 64 bits for every s it uses, and
    each decade bound is the least double at or above its power of ten,
    the double below which lies more than half a unit of the 17th digit
    under it, so that no rounding to 17 digits carries to 10^17."""
    assert errors._POW5[-1] == 5 ** (16 - errors._EXACT_LOW)
    assert 5 ** (16 - errors._EXACT_LOW) < 2**64 <= 5 ** (17 - errors._EXACT_LOW)
    for p, bound in zip(range(errors._EXACT_LOW, 17), errors._DECADES.tolist()):
        power, below = Fraction(10) ** p, Fraction(math.nextafter(bound, 0.0))
        assert Fraction(bound) >= power > below
        assert power - below > power / (2 * 10**17)
