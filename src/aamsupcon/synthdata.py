"""Synthetic speaker datasets with controllable separability.

Speakers are unit centroids drawn uniformly on the input sphere; every
utterance is the centroid plus isotropic Gaussian noise, re-normalized.
Ground truth is exact, so verification metrics have a known easy/hard dial
(spread) at desk scale. Datasets round-trip through a plain text format.
"""

import bisect
import itertools
from dataclasses import dataclass, field, fields

import numpy as np

from .batching import group_by_speaker
from .errors import (ConfigError, IoError, ZeroVector, check_domains, check_integer, read_lines,
                     write_file)
from .geometry import normalize

_FLOAT_FMT = "%.17g"  # 17 significant digits: exact float64 round-trip
_ROW_BLOCK = 512  # rows save_dataset formats at a time
# Number forms that int and float read but that %d and %.17g never write,
# named by the character _loose_number finds
_LOOSE_FORMS = {"+": "plus sign", "E": "upper-case E", "_": "underscore",
                "0": "leading zero", ".": "dot without a digit on each side"}


@dataclass(frozen=True)
class DatasetSpec:
    """The dataset header; also the [dataset] config keys other than
    holdout_per_speaker."""

    num_speakers: int = field(default=16, metadata={"domain": "[2, inf)"})
    utterances_per_speaker: int = field(default=20, metadata={"domain": "[2, inf)"})
    d_in: int = field(default=40, metadata={"domain": "[2, inf)"})
    spread: float = field(default=0.2, metadata={"domain": "[0, inf)"})
    seed: int = field(default=7, metadata={"domain": "[0, inf)"})

    def __post_init__(self):
        check_domains(self, "dataset")


def generate(spec: DatasetSpec):
    """Draw the dataset described by spec.

    Returns (features, speaker_ids, centroids): features (N, d_in) ordered
    speaker-major, speaker_ids (N,) and the (num_speakers, d_in)
    ground-truth centroids. Deterministic per seed.
    """
    rng = np.random.default_rng(spec.seed)
    # rows are normalized one by one: a batched norm sums in another order
    # and would change the last bits of the stored features
    centroids = np.stack([normalize(c) for c in
                          rng.standard_normal((spec.num_speakers, spec.d_in))])
    speaker_ids = np.repeat(np.arange(spec.num_speakers), spec.utterances_per_speaker)
    noise = rng.standard_normal((speaker_ids.size, spec.d_in))
    if spec.spread == 0.0:
        return centroids[speaker_ids], speaker_ids, centroids
    try:
        with np.errstate(all="ignore"):
            features = np.stack([normalize(c + spec.spread * n)
                                 for c, n in zip(centroids[speaker_ids], noise)])
    except ZeroVector as exc:
        raise ConfigError(f"dataset.spread = {spec.spread!r} is too large: {exc}") from exc
    return features, speaker_ids, centroids


def split_holdout(speaker_ids, holdout_per_speaker: int):
    """Deterministically reserve the last k rows of every speaker.

    Returns (train_rows, heldout_rows), ascending row-index arrays; k = 0
    holds out nothing."""
    check_integer(holdout_per_speaker, "holdout_per_speaker", 0)
    ids, groups = group_by_speaker(speaker_ids)
    held = np.zeros(len(speaker_ids), dtype=bool)
    for sid, rows in zip(ids.tolist(), groups):
        if len(rows) <= holdout_per_speaker:
            raise ConfigError(
                f"speaker {sid} has {len(rows)} utterances, cannot hold out "
                f"{holdout_per_speaker}")
        held[rows[len(rows) - holdout_per_speaker:]] = True
    return np.flatnonzero(~held), np.flatnonzero(held)


def save_dataset(path, spec: DatasetSpec, features, speaker_ids) -> None:
    """Write the text dump: one header line of DatasetSpec's fields as
    name=value (%d or %.17g), then one line per row: speaker_id original
    features... The rows go to write_file _ROW_BLOCK at a time, so no copy
    of the whole file is made."""
    header = " ".join(f"{f.name}=" + ("%d" if f.type is int else _FLOAT_FMT)
                      % getattr(spec, f.name) for f in fields(DatasetSpec)) + "\n"
    row_fmt = "%d original " + " ".join([_FLOAT_FMT] * features.shape[1]) + "\n"

    def blocks():
        # one expression per block, so that its rows as Python lists are
        # freed before the block's text goes out
        yield header
        for start in range(0, len(features), _ROW_BLOCK):
            block = slice(start, start + _ROW_BLOCK)
            yield "".join([row_fmt % (sid, *row) for sid, row in
                           zip(speaker_ids[block].tolist(), features[block].tolist())])

    write_file(path, blocks(), "dataset")


def load_dataset(path):
    """Inverse of save_dataset: (spec, features, speaker_ids). Raises
    IoError naming file:line for anything save_dataset would not write.

    The file is read in blocks of whole lines (errors.read_lines), so no
    whole-file text or line list exists. One pass over each block
    (_loose_number) finds the first number form that int or float would
    read but that %d and %.17g never write; the lines before it are checked
    one by one first, so the first bad line of the file is the one named."""
    size, blocks = read_lines(path, "dataset")
    lines = next(blocks, [])
    if not lines:
        raise IoError(f"dataset file {path} is empty")
    spec = _parse_header(path, lines[0])
    expected = spec.num_speakers * spec.utterances_per_speaker
    # A valid row of d_in features takes at least 2 * d_in + 3 characters of
    # the file, so no more rows than that fit in it can be valid: the arrays
    # stay under four times the file's size, whatever the header claims.
    rows = min(expected, size // (2 * spec.d_in + 3))
    ids, features = np.empty(rows, dtype=np.int64), np.empty((rows, spec.d_in))
    count = 0  # body lines read; rows past the arrays are checked, not kept
    for block in itertools.chain([lines[1:]], blocks):
        loose = _loose_number("".join(block))
        end = len(block) if loose is None else bisect.bisect_right(
            list(itertools.accumulate(map(len, block))), loose[0])
        for line in block[:end]:
            parts = line.split()
            if len(parts) != 2 + spec.d_in:
                raise IoError(f"{path}:{count + 2}: expected {2 + spec.d_in} fields, "
                              f"got {len(parts)}")
            if parts[1] != "original":
                raise IoError(f"{path}:{count + 2}: view tag must be 'original', "
                              f"got {parts[1]!r}")
            try:
                # an id outside [0, N) is kept as -1 or N, which the range
                # check below names, so one past int64 cannot overflow ids
                sid = min(max(int(parts[0]), -1), spec.num_speakers)
                row = list(map(float, parts[2:]))
            except ValueError as exc:
                raise IoError(f"{path}:{count + 2}: {exc}") from exc
            if count < rows:
                ids[count], features[count] = sid, row
            count += 1
        if loose is not None:
            raise IoError(f"{path}:{count + 2}: {loose[1]} in a number")
    if count != expected:
        raise IoError(f"{path}:1: header declares {expected} rows ({spec.num_speakers} "
                      f"speakers x {spec.utterances_per_speaker}), body has {count}")
    for bad, what in (((ids < 0) | (ids >= spec.num_speakers),
                       f"speaker id outside [0, {spec.num_speakers})"),
                      (~np.isfinite(features).all(axis=1), "non-finite feature")):
        if bad.any():
            raise IoError(f"{path}:{2 + int(np.argmax(bad))}: {what}")
    counts = np.bincount(ids, minlength=spec.num_speakers)
    if (counts != spec.utterances_per_speaker).any():
        sid = int(np.argmax(counts != spec.utterances_per_speaker))
        raise IoError(f"{path}:1: header declares {spec.utterances_per_speaker} rows per "
                      f"speaker, speaker {sid} has {counts[sid]}")
    return spec, features, ids


def _loose_number(text):
    """(offset, form) of the first character in text that makes a number
    form int or float would read but %d and %.17g never write, or None: a
    plus sign outside an exponent, an upper-case E, an underscore, a
    leading zero before a digit (outside an exponent, where %.17g writes
    "1e-05") or a dot without a digit on each side.

    Whole-array comparisons over the text's bytes mark the candidates,
    and only they are then checked for an exponent. A regular expression
    with the same lookbehinds tries every position of the text, and took
    40 times as long."""
    a = np.frombuffer(b"  " + text.encode("ascii") + b" ", dtype=np.uint8)
    c, prev, prev2 = a[2:-1], a[1:-2], a[:-3]
    digit = (a - 48) < 10  # uint8 arithmetic wraps below "0"
    after_digit, before_digit = digit[1:-2], digit[3:]
    bad = (c == 43) | (c == 69) | (c == 95)  # + E _
    bad |= (c == 46) > (after_digit & before_digit)  # a dot
    bad |= ((c == 48) & before_digit) > (after_digit | (prev == 46))  # a zero
    at = np.flatnonzero(bad)
    p = prev[at]
    # right after "e", "e+" or "e-" is an exponent: float refuses a dot, E
    # or _ there, and %.17g writes the sign and a zero ("e+20", "e-05")
    at = at[(p != 101) & ~(((p == 43) | (p == 45)) & (prev2[at] == 101))]
    return (int(at[0]), _LOOSE_FORMS[text[at[0]]]) if at.size else None


def _parse_header(path, line) -> DatasetSpec:
    """The DatasetSpec of a header line: the key=value tokens save_dataset
    writes, DatasetSpec's fields each once and in its order."""
    names = [f.name for f in fields(DatasetSpec)]
    values = {}
    for token in line.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise IoError(f"{path}:1: header token {token!r} is not key=value")
        if names[len(values):len(values) + 1] != [key]:
            raise IoError(f"{path}:1: header token {token!r} is out of place: the header "
                          f"holds {', '.join(names)}, each once, in that order")
        loose = _loose_number(value)
        if loose is not None:
            raise IoError(f"{path}:1: {loose[1]} in header value {token!r}")
        values[key] = value
    if len(values) < len(names):
        raise IoError(f"{path}:1: dataset header lacks {names[len(values)]!r}")
    try:
        return DatasetSpec(**{f.name: f.type(values[f.name]) for f in fields(DatasetSpec)})
    except ValueError as exc:
        raise IoError(f"{path}:1: malformed dataset header: {exc}") from exc
