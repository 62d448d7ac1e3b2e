"""Exception types shared across the package.

Every package error is one of three kinds, and the kind carries the exit
code and the stderr label the CLI reports it with: ConfigError (1, a usage
or config error, or an input the run cannot take), NumericalError (2) and
IoError (3). A leaf class exists only where a caller catches it by name or
it carries data.

read_file, read_lines, file_sha256, write_file and write_files are the one
place the package opens a file, so a failed read or write is always an
IoError naming the file. All but read_file read or write in pieces, so none
of them needs the whole file in memory. text_lines makes the text of every
numeric file the package writes, the bytes of Python's %d and %.17g, from
whole arrays (float_planes, int_planes). Every config dataclass calls
check_domains when built, the one place a config field is checked;
check_in, the one range and set check, serves it and the library alike.
empty_aligned makes every buffer a training run reuses, each starting on a
cache line.
"""

import enum
import functools
import hashlib
import math
import numbers
import os
import re
from dataclasses import fields

import numpy as np


class AamSupConError(Exception):
    """Base class for all package errors; raise one of its three kinds."""

    exit_code: int
    label: str


class ConfigError(AamSupConError, ValueError):
    """A config value, flag or argument outside its domain, or inputs that
    do not fit together. The message names the key, flag or argument."""

    exit_code = 1
    label = "config error"


class NumericalError(AamSupConError):
    """A computation produced no usable result: divergence, a gradient check
    beyond tolerance, or trial scores that carry no information."""

    exit_code = 2
    label = "numerical failure"


class IoError(AamSupConError):
    """A file cannot be read or written, or is malformed (a dataset, trial
    list or checkpoint). The message names the file."""

    exit_code = 3
    label = "i/o failure"


class ZeroVector(NumericalError):
    """A vector with a (near-)zero, NaN or infinite norm cannot be normalized."""


class DivergenceDetected(NumericalError):
    """Training loss became non-finite. Carries the offending step index."""

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"non-finite loss at step {step}")

    def __reduce__(self):
        # pickled (as a sweep worker's error reaches its parent) with the
        # step and the message it carries now, not with the message as step
        return type(self), (self.step, str(self))


def read_file(path, what: str, encoding: str | None = None):
    """The bytes of the file at path, or, when encoding is given, its text
    with universal newlines (CRLF and CR read as LF). Raises IoError
    "cannot read {what} from {path}: ..." when the file cannot be read, and
    "{path}: not {encoding} text (byte N)" when it does not decode."""
    try:
        with open(path, "rb" if encoding is None else "r", encoding=encoding) as fh:
            return fh.read()
    except OSError as exc:
        raise IoError(f"cannot read {what} from {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise IoError(f"{path}: not {encoding} text (byte {exc.start})") from exc


_LINE_BLOCK = 1 << 16  # characters read_lines reads at a time, in whole lines
_NON_ASCII = re.compile("[^\x00-\x7f]")


def read_lines(path, what: str):
    """(size, blocks) of the ASCII text file at path: its size in bytes,
    and a generator of its lines in blocks of about _LINE_BLOCK characters,
    each block a list of whole lines that keep their ends (LF, CRLF or CR
    each end a line, as universal newlines read them). The file is opened
    when the first block is asked for. Raises IoError like read_file:
    "cannot read {what} from {path}: ..." when the file cannot be read, and
    "{path}: not ascii text (byte N)" for the block that holds the first
    byte outside ASCII, before that block is yielded."""
    try:
        size = os.stat(path).st_size
    except OSError as exc:
        raise IoError(f"cannot read {what} from {path}: {exc}") from exc
    return size, _line_blocks(path, what)


def _line_blocks(path, what: str):
    offset = 0
    try:
        # latin-1 reads each byte as one character, so offsets count bytes and
        # no byte fails to decode; newline="" ends lines as universal newlines
        # do, but keeps the ends as they are
        with open(path, encoding="latin-1", newline="") as fh:
            while block := fh.readlines(_LINE_BLOCK):
                if not all(map(str.isascii, block)):
                    byte = _NON_ASCII.search("".join(block)).start()
                    raise IoError(f"{path}: not ascii text (byte {offset + byte})")
                offset += sum(map(len, block))
                yield block
    except OSError as exc:
        raise IoError(f"cannot read {what} from {path}: {exc}") from exc


_HASH_BLOCK = 1 << 20  # bytes file_sha256 reads at a time


def file_sha256(path, what: str) -> str:
    """The sha256 hex digest of the file at path, read _HASH_BLOCK bytes at
    a time into one buffer. Raises IoError like read_file."""
    digest = hashlib.sha256()
    block = bytearray(_HASH_BLOCK)
    view = memoryview(block)
    try:
        with open(path, "rb") as fh:
            while size := fh.readinto(block):
                digest.update(view[:size])
    except OSError as exc:
        raise IoError(f"cannot read {what} from {path}: {exc}") from exc
    return digest.hexdigest()


def write_file(path, data, what: str) -> None:
    """Write data to the file at path: bytes, an ASCII str, or an iterable
    of such chunks, which go out in order through one open file. Raises
    IoError "cannot write {what} to {path}: ..." when it cannot."""
    chunks = (data,) if isinstance(data, (str, bytes)) else data
    # map, unlike zip or a generator, holds no chunk while it makes the next
    write_files([(path, what)], map(lambda chunk: (chunk,), chunks))


def write_files(targets, rows) -> None:
    """Write the files of targets, a list of (path, what) pairs, through
    one open file each, all open at once: each item of rows holds one chunk
    per file, bytes or an ASCII str, and the chunks go out in order. Raises
    IoError "cannot write {what} to {path}: ..." naming the file that
    fails."""
    handles, target = [], None
    try:
        for target in targets:
            handles.append(open(target[0], "wb"))
        for row in rows:
            for target, fh, chunk in zip(targets, handles, row):
                fh.write(chunk.encode("ascii") if isinstance(chunk, str) else chunk)
            row = chunk = None  # not held while the next row is made
        for target, fh in zip(targets, handles):
            fh.close()
    except OSError as exc:
        path, what = target
        raise IoError(f"cannot write {what} to {path}: {exc}") from exc
    finally:
        for fh in handles:
            fh.close()


TEXT_FLOATS = 4096  # floats a writer gives text_lines at a time: under 0.5 MiB of temporaries
FLOAT_WIDTH = 28  # planes float_planes gives a number: sign, "0.000", 17 digits and a point, e±XX
_EXACT_LOW = -11  # least decimal exponent float_planes formats itself, so 5^(16 - X) < 2^64
_U = np.uint64  # the kernel's constants, so no operand mixes uint64 with a signed type
_LOW32 = _U(0xFFFFFFFF)


def _at_least_ten_to(p: int) -> float:
    """The least double >= 10**p, exactly: |x| >= it holds iff |x| >= 10**p.
    The nearest double to 10**p is num / den, den a power of two, compared
    with 10**p in integers."""
    v = float(f"1e{p}")
    num, den = v.as_integer_ratio()
    at_least = num * 10 ** -p >= den if p < 0 else num >= 10 ** p * den
    return v if at_least else math.nextafter(v, math.inf)


_DECADES = np.array([_at_least_ten_to(p) for p in range(_EXACT_LOW, 17)])
_POW5 = np.array([5 ** s for s in range(17 - _EXACT_LOW)], dtype=np.uint64)


def _g17_frame(X: int):
    """(lead, exponent, whole, point) of %.17g at decimal exponent X: the
    text before the digits ("0." and zeros below one, in fixed form), the
    text after them (e±XX, in exponential form), how many integer digits
    %g keeps, and the body plane of the point (17, past the digits, below
    one)."""
    if -4 <= X < 0:
        return "0." + "0" * (-X - 1), "", 0, 17
    if 0 <= X < 17:
        return "", "", X + 1, X + 1
    return "", "e%+03d" % X, 1, 1


# per decimal exponent X in [_EXACT_LOW, 16], column X - _EXACT_LOW: the
# planes of lead and exponent, the integer digits kept, the point's plane
_FRAMES = [_g17_frame(X) for X in range(_EXACT_LOW, 17)]
_FRAME = np.frombuffer(b"".join((lead.ljust(5, "\0") + exp.ljust(4, "\0")).encode()
                                for lead, exp, *_ in _FRAMES), np.uint8).reshape(-1, 9).T.copy()
_WHOLE, _POINT = (np.array(column, dtype=np.int8) for column in list(zip(*_FRAMES))[2:])


def float_planes(values) -> np.ndarray:
    """The %.17g text of each float64 of values, as a (FLOAT_WIDTH, n)
    uint8 array: column i holds the text of values[i], one byte a plane, in
    order, with NUL in every plane that %.17g writes nothing into.

    A double |x| = m 2^e with 10^X <= |x| < 10^(X + 1) has the 17 digits
    d = round(m 5^s 2^(e + s)), s = 16 - X, rounded half to even. m 5^s is
    formed exactly as a 128-bit product of 32-bit limbs (m is shifted up 2
    bits so that the shift right to d is at least 1), and its bits below d
    give the rounding. That needs 5^s < 2^64, so |x| >= 10^-11, and the
    shift below 64, so |x| < 2^53. No rounding there carries d to 10^17:
    the double below each power of ten lies more than half a unit of the
    17th digit under it. Zeros, subnormals and the other doubles outside
    [1e-11, 2^53), inf and nan take Python's own %.17g. Every operand is
    an array, as numpy warns when a scalar wraps around, and every shift is
    below 64; the limbs are worked in place, for about 100 bytes of
    temporaries a number."""
    x = np.ravel(np.asarray(values, dtype=np.float64))
    ax = np.abs(x)
    bits = ax.view(np.uint64)
    biased = (bits >> _U(52)).astype(np.int64)
    # floor(log10 2^(biased - 1023)) is X or X - 1: the decade table decides
    X = ((biased - 1023) * 78913) >> 18
    np.minimum(np.maximum(X, _EXACT_LOW - 1, out=X), 15, out=X)
    X += ax >= _DECADES[X - (_EXACT_LOW - 1)]
    exact = (X >= _EXACT_LOW) & (ax < 2.0 ** 53)
    np.maximum(X, _EXACT_LOW, out=X)  # the others are overwritten at the end
    s = 16 - X
    biased += s
    shift = ((1076 - biased) & 63).astype(np.uint64)  # 1 less than the shift to d
    del biased
    p = _POW5[s]
    del s
    m = bits & _U(2 ** 52 - 1)
    m |= _U(2 ** 52)
    m <<= _U(2)
    del ax, bits
    # (mh, ml) x (ph, pl): hi gets mh ph, lo the low limbs' product, and
    # the cross products ml ph (in m) and mh pl (in p) straddle them
    mh, ph = m >> _U(32), p >> _U(32)
    m &= _LOW32
    p &= _LOW32
    lo = m * p
    m *= ph
    p *= mh
    mh *= ph
    hi = mh
    del ph
    carry = lo >> _U(32)
    carry += m & _LOW32
    carry += p & _LOW32
    lo &= _LOW32
    lo |= carry << _U(32)
    for part in (m, p, carry):
        part >>= _U(32)
        hi += part
    del m, p, carry
    # (hi, lo) >> shift; hi << (64 - shift) goes in two steps, as it is a
    # shift by 64 where shift is 0
    hi <<= _U(1)
    hi <<= _U(63) - shift
    q = lo >> shift
    q |= hi
    sticky = lo & ((_U(1) << shift) - _U(1)) != 0
    del hi, lo, shift
    d = q >> _U(1)
    q &= sticky | d  # the bit after d, where d rounds up: above half, or at half with d odd
    q &= _U(1)
    d += q
    del q, sticky
    X -= _EXACT_LOW
    digits = _digit_rows(d)
    del d
    text = np.empty((FLOAT_WIDTH, x.size), dtype=np.uint8)
    _place_g17(text, x, digits, X)
    rest = np.flatnonzero(~exact)
    if rest.size:
        fallback = np.array(["%.17g" % v for v in x[rest].tolist()], dtype=f"S{FLOAT_WIDTH}")
        text[:, rest] = fallback.view(np.uint8).reshape(rest.size, FLOAT_WIDTH).T
    return text


def _digit_rows(d) -> np.ndarray:
    """The 17 decimal digits of each d in [10^16, 10^17), as a (19, n)
    uint8 array: digit k (from the left) in row k + 1, NUL rows around.
    The leading digit, then four groups of four, are taken apart in 32-bit
    arithmetic."""
    n = d.size
    digits = np.empty((19, n), dtype=np.uint8)
    digits[0] = digits[18] = 0
    top, low = np.divmod(d, _U(10 ** 8))
    groups = np.empty((4, n), dtype=np.uint32)
    lead, groups[1] = np.divmod(top.astype(np.uint32), np.uint32(10 ** 4))
    digits[1], groups[0] = np.divmod(lead, np.uint32(10 ** 4))
    groups[2], groups[3] = np.divmod(low.astype(np.uint32), np.uint32(10 ** 4))
    del top, low, lead
    by_group = digits[2:18].reshape(4, 4, n)
    for k in range(3, 0, -1):
        tens = groups // np.uint32(10)
        groups -= tens * np.uint32(10)
        by_group[:, k] = groups
        groups = tens
    by_group[:, 0] = groups
    return digits


_RANK = np.arange(1, 18, dtype=np.int8)[:, None]
_BODY = np.arange(18, dtype=np.int8)[:, None]


def _place_g17(text, x, digits, frame) -> None:
    """Write into text's planes the %.17g layout of the signs of x and the
    digits (of _digit_rows) at the decimal exponents frame + _EXACT_LOW:
    the sign, the lead of _FRAME ("0." and up to 3 zeros below one), the
    digits with the point after the integer ones, then the exponent of
    _FRAME. The digits %g strips (trailing zeros after the point) and the
    point of an integer are NUL."""
    n = digits.shape[1]
    whole, point = _WHOLE[frame], _POINT[frame]
    # the digits %g keeps: the integer ones and up to the last nonzero one
    rank = (digits[1:18] != 0).view(np.int8)
    rank *= _RANK
    kept = np.maximum(rank.max(axis=0), whole)
    np.less_equal(_RANK, kept, out=rank.view(bool))
    digits[1:18] += 48
    digits[1:18] *= rank.view(bool)
    del rank
    text[0] = np.signbit(x)
    text[0] *= 45  # "-"
    frames = _FRAME[:, frame]
    text[1:6] = frames[:5]
    text[24:28] = frames[5:]
    del frames
    # digit k sits in body plane k up to the point and in k + 1 after it
    body = text[6:24]
    np.subtract(digits[0:18], digits[1:19], out=body)
    body *= _BODY > point
    body += digits[1:19]
    at = point.astype(np.intp)
    at *= n
    at += np.arange(n)
    np.put(body, at, ((kept > whole) & (point < 17)) * np.uint8(46))


def int_planes(values) -> np.ndarray:
    """The %d text of each integer (or bool) of values, as (width, n)
    uint8 planes like float_planes': a "-" plane where any is negative,
    then as many digit planes as the longest has digits, leading zeros
    NUL."""
    v = np.ravel(np.asarray(values)).astype(np.int64)
    size = np.abs(v)
    width = len(str(int(size.max()))) if v.size else 1
    signed = bool((v < 0).any())
    text = np.empty((signed + width, v.size), dtype=np.uint8)
    if signed:
        text[0] = v < 0
        text[0] *= 45
    left = size
    for k in range(width):
        tens = left // 10
        row = text[signed + width - 1 - k]
        row[:] = left - tens * 10 + 48
        if k:
            row *= size >= 10 ** k
        left = tens
    return text


def text_lines(*cells) -> bytes:
    """The ASCII text of n rows, each the cells' entries in order. A cell
    is bytes, written in every row; a 1-D integer or bool array of n
    entries, one a row in %d; a 1-D float array of n entries, in %.17g;
    an (n, k) array, whose k entries a row go out in %.17g, separated by
    single spaces; or a (w, n) uint8 array of planes, as int_planes and
    float_planes give them, for a column that goes into more than one
    text. The cells' planes are stacked, transposed to rows and freed of
    their NULs by one bytes.translate."""
    n = next(c.shape[-1] if c.dtype == np.uint8 and c.ndim == 2 else len(c)
             for c in cells if not isinstance(c, bytes))
    planes = []
    for cell in cells:
        if isinstance(cell, bytes):
            planes.append(np.broadcast_to(np.frombuffer(cell, np.uint8)[:, None], (len(cell), n)))
        elif cell.dtype == np.uint8 and cell.ndim == 2:
            planes.append(cell)
        elif cell.ndim == 1:
            planes.append(int_planes(cell) if cell.dtype.kind in "biu" else float_planes(cell))
        else:
            # a plane per (column, character), then a space after every column
            # but the last, which the NUL row of its separator drops
            k = cell.shape[1]
            spaced = np.empty((k, FLOAT_WIDTH + 1, n), dtype=np.uint8)
            columns = float_planes(cell.T).reshape(FLOAT_WIDTH, k, n)
            spaced[:, :FLOAT_WIDTH] = columns.swapaxes(0, 1)
            spaced[:, FLOAT_WIDTH] = 32
            spaced[-1:, FLOAT_WIDTH] = 0
            planes.append(spaced.reshape(-1, n))
    return np.concatenate(planes).T.tobytes().translate(None, b"\0")


CACHE_LINE = 64  # bytes; empty_aligned starts every array on such a boundary


def empty_aligned(shape, dtype=np.float64) -> np.ndarray:
    """An uninitialized C-contiguous array of shape and dtype whose data
    starts on a CACHE_LINE boundary: a view into a byte buffer one cache
    line longer, which the array's base keeps alive. np.empty puts a large
    array 16 bytes past a line, where a pass over it runs slower."""
    dtype = np.dtype(dtype)
    shape = (shape,) if is_integer(shape) else tuple(shape)
    nbytes = math.prod(shape) * dtype.itemsize
    raw = np.empty(nbytes + CACHE_LINE, dtype=np.uint8)
    start = -raw.ctypes.data % CACHE_LINE
    return raw[start:start + nbytes].view(dtype).reshape(shape)


def integer_array(values, what: str) -> np.ndarray:
    """values as an int64 array. Raises ConfigError "<what> <k> is <value>,
    not an integer" naming the first fractional or NaN entry."""
    values = np.asarray(values)
    with np.errstate(invalid="ignore"):  # a NaN casts to garbage, refused below
        ints = values.astype(np.int64)
    cut = ints != values
    if cut.any():
        k = int(np.argmax(cut))
        raise ConfigError(f"{what} {k} is {values[k]}, not an integer")
    return ints


def is_integer(value) -> bool:
    """Whether value is an integer, a numpy integer included; a bool is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@functools.lru_cache
def _interval(domain: str):
    """(lo, hi, lo_closed, hi_closed) of an interval string such as "(0, inf)"."""
    lo, hi = (math.pi / 2 if b == "pi/2" else float(b) for b in domain[1:-1].split(", "))
    return lo, hi, domain[0] == "[", domain[-1] == "]"


def check_in(value, domain, name: str):
    """value, or the member it names when domain is an Enum type; else
    ConfigError "<name> must be in <domain>, got <value>". domain is an
    interval string such as "(0, inf)" or "[0, pi/2)", which a real number
    (not a bool, not NaN), or each entry of a tuple, must lie in; an Enum
    type, which takes a member or its value; or a tuple of the allowed
    strings, written as a set, like an Enum's values."""
    if isinstance(domain, str):
        lo, hi, lo_closed, hi_closed = _interval(domain)
        for v in value if isinstance(value, tuple) else (value,):
            if (isinstance(v, bool) or not isinstance(v, numbers.Real)
                    or not ((lo <= v if lo_closed else lo < v)
                            and (v <= hi if hi_closed else v < hi))):
                raise ConfigError(f"{name} must be in {domain}, got {value!r}")
        return value
    if isinstance(domain, enum.EnumMeta):
        try:
            return domain(value)
        except ValueError:
            domain = [member.value for member in domain]
    elif isinstance(value, str) and value in domain:  # an array compares entrywise
        return value
    raise ConfigError(f"{name} must be in {{{', '.join(domain)}}}, got {value!r}")


def check_integer(value, name: str, least: int) -> None:
    """ConfigError "<name> must be an integer, got <value>" unless value is
    an integer, a bool not being one, then check_in it against [least, inf)."""
    if not is_integer(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    check_in(value, f"[{least}, inf)", name)


def check_domains(obj, section: str) -> None:
    """Resolve every field of the dataclass obj by its type, write it back
    and check it with check_in. An Enum field takes its member or value, its
    domain being the Enum; a tuple[int, ...] field takes a non-empty list or
    tuple, an int field an integer (int | None also None) and a float field
    a real number, a bool being neither. Every other field declares its
    check_in domain in metadata["domain"]. Raises ConfigError "<key> must be
    in <domain>, got <value>" (or "must be an integer" and the like), the
    key being the field's metadata["key"], else <section>.<field>."""
    for f in fields(obj):
        key = f.metadata.get("key", f"{section}.{f.name}")
        kind, value = f.type, getattr(obj, f.name)
        domain = kind if isinstance(kind, enum.EnumMeta) else f.metadata.get("domain")
        if kind == tuple[int, ...]:
            if not (isinstance(value, (list, tuple)) and value and all(map(is_integer, value))):
                raise ConfigError(f"{key} must be a non-empty list of integers, got {value!r}")
            value = tuple(value)
        elif kind is float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
            raise ConfigError(f"{key} must be a real number, got {value!r}")
        elif kind == int | None and value is None:
            continue
        elif kind in (int, int | None) and not is_integer(value):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        # through object, as the config classes are frozen
        object.__setattr__(obj, f.name, check_in(value, domain, key))
