"""Exception types shared across the package.

Every package error is one of three kinds, and the kind carries the exit
code and the stderr label the CLI reports it with: ConfigError (1, a usage
or config error, or an input the run cannot take), NumericalError (2) and
IoError (3). A leaf class exists only where a caller catches it by name or
it carries data.

read_file, read_lines, file_sha256, write_file and write_files are the one
place the package opens a file, so a failed read or write is always an
IoError naming the file. All but read_file read or write in pieces, so none
of them needs the whole file in memory. Every config dataclass calls
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
