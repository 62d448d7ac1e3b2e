"""Exception types shared across the package.

Every package error is one of three kinds, and the kind carries the exit
code and the stderr label the CLI reports it with: ConfigError (1, a usage
or config error, or an input the run cannot take), NumericalError (2) and
IoError (3). A leaf class exists only where a caller catches it by name or
it carries data.

read_file, file_sha256 and write_file are the one place the package opens
a file, so a failed read or write is always an IoError naming the file.
file_sha256 reads and write_file writes in pieces, so neither needs the
whole file in memory. check_domains is the one place a config key's domain
is checked.
"""

import hashlib
import math
from dataclasses import fields


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
    try:
        with open(path, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk.encode("ascii") if isinstance(chunk, str) else chunk)
                del chunk  # not held while the next chunk is made
    except OSError as exc:
        raise IoError(f"cannot write {what} to {path}: {exc}") from exc


def check_domains(obj, section: str) -> None:
    """Check every field of the dataclass obj that declares a domain in its
    metadata["domain"]: an interval string such as "(0, inf)", "[0, pi/2)"
    or "[2, inf)", which every entry of a tuple value must lie in (None
    passes, NaN fails), or a tuple of the allowed strings. Raises ConfigError
    "<key> must be in <domain>, got <value>", where the key is the field's
    metadata["key"], else <section>.<field>."""
    for f in fields(obj):
        domain = f.metadata.get("domain")
        value = getattr(obj, f.name)
        if domain is None or value is None:
            continue
        if isinstance(domain, tuple):
            ok, domain = value in domain, "{" + ", ".join(domain) + "}"
        else:
            lo, hi = (math.pi / 2 if b == "pi/2" else float(b) for b in domain[1:-1].split(", "))
            ok = all((lo <= v if domain[0] == "[" else lo < v)
                     and (v <= hi if domain[-1] == "]" else v < hi)
                     for v in (value if isinstance(value, tuple) else (value,)))
        if not ok:
            key = f.metadata.get("key", f"{section}.{f.name}")
            raise ConfigError(f"{key} must be in {domain}, got {value!r}")
