import re
import tracemalloc

import numpy as np
import pytest

import oracles
from aamsupcon import errors, synthdata
from aamsupcon.errors import ConfigError, IoError
from aamsupcon.synthdata import (
    DatasetSpec,
    generate,
    load_dataset,
    save_dataset,
    split_holdout,
)


def test_counts_and_labels():
    features, speaker_ids, centroids = generate(DatasetSpec(16, 20, 40, 0.2, seed=0))
    assert len(features) == len(speaker_ids) == 320
    assert centroids.shape == (16, 40)
    assert sorted(set(speaker_ids.tolist())) == list(range(16))


def test_spread_zero_reproduces_centroids_exactly():
    features, speaker_ids, centroids = generate(DatasetSpec(4, 3, 10, 0.0, seed=1))
    for row, sid in zip(features, speaker_ids):
        assert np.array_equal(row, centroids[sid])


def test_unit_norm_and_determinism():
    spec = DatasetSpec(6, 5, 12, 0.3, seed=5)
    a, _, ca = generate(spec)
    b, _, cb = generate(spec)
    assert np.array_equal(ca, cb)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa, sb)
        assert abs(np.linalg.norm(sa) - 1.0) < 1e-9
    c, _, _ = generate(DatasetSpec(6, 5, 12, 0.3, seed=6))
    assert any(not np.array_equal(sa, sc) for sa, sc in zip(a, c))


def test_nearest_centroid_oracle_on_tight_clusters():
    feats, labels, centroids = generate(DatasetSpec(16, 20, 40, 0.05, seed=3))
    predicted = np.argmax(feats @ centroids.T, axis=1)
    assert np.mean(predicted == labels) > 0.99


def test_within_speaker_cosine_decreases_with_spread():
    means = []
    for spread in (0.05, 0.2, 0.5):
        features, speaker_ids, centroids = generate(DatasetSpec(2, 500, 24, spread, seed=7))
        feats = features[speaker_ids == 0]
        sims = feats @ feats.T
        means.append(np.mean(sims[np.triu_indices(len(feats), k=1)]))
    assert means[0] > means[1] > means[2]


@pytest.mark.parametrize("bad", [
    (1, 5, 10, 0.1, 0),
    (4, 1, 10, 0.1, 0),
    (4, 5, 1, 0.1, 0),
    (4, 5, 10, -0.1, 0),
])
def test_invalid_specs_rejected(bad):
    with pytest.raises(ConfigError, match=r"(num_speakers|utterances_per_speaker|d_in|spread) must be"):
        DatasetSpec(*bad)


def test_dump_round_trip_is_exact(tmp_path):
    spec = DatasetSpec(5, 4, 9, 0.37, seed=11)
    features, speaker_ids, _ = generate(spec)
    path = tmp_path / "data.txt"
    save_dataset(path, spec, features, speaker_ids)
    spec2, features2, speaker_ids2 = load_dataset(path)
    assert spec2 == spec
    assert len(features2) == len(features)
    for a, b in zip(features, features2):
        assert np.array_equal(a, b)
    assert np.array_equal(speaker_ids, speaker_ids2)

    # rewriting the loaded data reproduces the file byte for byte
    path2 = tmp_path / "data2.txt"
    save_dataset(path2, spec2, features2, speaker_ids2)
    assert path.read_bytes() == path2.read_bytes()


def test_dump_header_carries_spec_fields(tmp_path):
    spec = DatasetSpec(3, 2, 4, 0.125, seed=2)
    features, speaker_ids, _ = generate(spec)
    path = tmp_path / "data.txt"
    save_dataset(path, spec, features, speaker_ids)
    header = path.read_text().splitlines()[0]
    assert "num_speakers=3" in header and "spread=0.125" in header and "seed=2" in header


@pytest.mark.parametrize("rows", [0, 1, 511, 512, 513, 1025])
def test_row_block_writer_matches_whole_file_writer(tmp_path, rows):
    """Row counts on each side of save_dataset's _ROW_BLOCK blocks give the
    bytes of the whole-file writer it replaced."""
    assert synthdata._ROW_BLOCK == 512
    rng = np.random.default_rng(rows)
    spec = DatasetSpec(7, 3, 5, 0.1, seed=rows)
    features = rng.standard_normal((rows, 5)) * 10.0 ** rng.integers(-300, 300, (rows, 5))
    speaker_ids = rng.integers(0, 7, rows)
    save_dataset(tmp_path / "blocks.txt", spec, features, speaker_ids)
    oracles.save_dataset(tmp_path / "whole.txt", spec, features, speaker_ids)
    assert (tmp_path / "blocks.txt").read_bytes() == (tmp_path / "whole.txt").read_bytes()


def test_save_dataset_peak_memory(tmp_path):
    """2560 rows of 40 features go out 512 rows at a time: about 1.1 MiB at
    the peak, against 6.4 MiB for the whole-file writer."""
    spec = DatasetSpec(128, 20, 40, 0.2, seed=7)
    features, speaker_ids, _ = generate(spec)
    tracemalloc.start()
    try:
        save_dataset(tmp_path / "data.txt", spec, features, speaker_ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "data.txt").read_bytes().count(b"\n") == 2561
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.1f} MB"


def test_load_dataset_peak_memory(tmp_path):
    """The 2560 x 40 dataset is read in blocks of lines, so the load holds
    no whole-file text or line list: under 2 MiB at the peak, against
    4.3 MiB when the file was read whole."""
    spec = DatasetSpec(128, 20, 40, 0.2, seed=7)
    features, speaker_ids, _ = generate(spec)
    save_dataset(tmp_path / "data.txt", spec, features, speaker_ids)
    tracemalloc.start()
    try:
        got = load_dataset(tmp_path / "data.txt")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(got[1], features) and np.array_equal(got[2], speaker_ids)
    assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"


@pytest.fixture(scope="module")
def many_blocks(tmp_path_factory):
    """(path, lines) of a dataset several of errors.read_lines' blocks long."""
    spec = DatasetSpec(20, 20, 30, 0.2, seed=3)
    path = tmp_path_factory.mktemp("blocks") / "data.txt"
    save_dataset(path, spec, *generate(spec)[:2])
    assert path.stat().st_size > 3 * errors._LINE_BLOCK
    return path, path.read_text().splitlines(keepends=True)


@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_load_reads_crlf_and_cr_line_ends(tmp_path, many_blocks, end):
    path, lines = many_blocks
    other = tmp_path / "data.txt"
    other.write_bytes("".join(line.replace("\n", end) for line in lines).encode())
    want, got = load_dataset(path), load_dataset(other)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1]) and np.array_equal(got[2], want[2])


@pytest.mark.parametrize("ln", [2, 150, 399])
@pytest.mark.parametrize("edit, form", [
    (lambda line: line.replace(" ", "  ", 1).replace(" original", " orig", 1), "view tag"),
    (lambda line: line.replace(" 0.", " .", 1), "dot without a digit on each side"),
    (lambda line: line.replace(" 0.", " 00.", 1), "leading zero"),
])
def test_load_names_line_in_any_block(tmp_path, many_blocks, ln, edit, form):
    """A bad line is named by its number in the file, in the first block and
    in later ones; a line after it that is also bad does not take its
    place."""
    path, lines = many_blocks
    lines = list(lines)
    lines[ln - 1] = edit(lines[ln - 1])
    lines[-1] = "+" + lines[-1]
    bad = tmp_path / "data.txt"
    bad.write_text("".join(lines))
    with pytest.raises(IoError, match=re.escape(f"{bad}:{ln}: ") + f".*{form}"):
        load_dataset(bad)


def test_load_names_byte_outside_ascii_in_a_later_block(tmp_path, many_blocks):
    path, lines = many_blocks
    data = bytearray("".join(lines).encode())
    at = len(data) - 100
    data[at] = 0xE9
    bad = tmp_path / "data.txt"
    bad.write_bytes(bytes(data))
    with pytest.raises(IoError, match=re.escape(f"{bad}: not ascii text (byte {at})")):
        load_dataset(bad)


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
def test_load_refuses_other_line_separators(tmp_path, separator):
    """Only LF, CRLF and CR end a line. The other separators that
    str.splitlines knows are whitespace inside a line, so two rows joined
    by one are one line with too many fields."""
    rows = [_ROW, _ROW, _ROW_1, _ROW_1]
    path = tmp_path / "data.txt"
    path.write_text(f"{_HEADER}\n{_ROW}{separator}" + "\n".join(rows[1:]) + "\n")
    with pytest.raises(IoError, match=re.escape(f"{path}:2: expected 5 fields, got 10")):
        load_dataset(path)


def test_load_rejects_malformed_files(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("num_speakers=2 utterances_per_speaker=2 d_in=3 spread=0.1 seed=0\n"
                    "0 original 1.0 0.0\n")  # one feature short
    with pytest.raises(IoError):
        load_dataset(path)
    with pytest.raises(IoError):
        load_dataset(tmp_path / "missing.txt")


def test_split_holdout():
    features, speaker_ids, _ = generate(DatasetSpec(4, 5, 8, 0.2, seed=0))
    train, held = split_holdout(speaker_ids, 2)
    assert len(train) == 12 and len(held) == 8
    for sid in range(4):
        assert sum(1 for s in speaker_ids[held] if s == sid) == 2
    # held-out utterances are the trailing ones per speaker
    expected = [sid * 5 + k for sid in range(4) for k in (3, 4)]
    assert all(np.array_equal(features[h], features[e])
               for h, e in zip(held, expected))

    same, empty = split_holdout(speaker_ids, 0)
    assert len(same) == len(speaker_ids) and empty.size == 0
    with pytest.raises(ConfigError, match="cannot hold out 5"):
        split_holdout(speaker_ids, 5)
    with pytest.raises(ConfigError, match=r"holdout_per_speaker must be in \[0, inf\)"):
        split_holdout(speaker_ids, -1)


_HEADER = "num_speakers=2 utterances_per_speaker=2 d_in=3 spread=0.1 seed=0"
_ROW = "0 original 1.0 0.0 0.0"
_ROW_1 = "1 original 0.0 1.0 0.0"


@pytest.mark.parametrize("text, line", [
    ("num_speakers=2 utterances_per_speaker 2 d_in=3 spread=0.1 seed=0", 1),
    ("num_speakers=two utterances_per_speaker=2 d_in=3 spread=0.1 seed=0", 1),
    ("num_speakers=2 d_in=3 spread=0.1 seed=0", 1),
    ("num_speakers=1 utterances_per_speaker=2 d_in=3 spread=0.1 seed=0", 1),
    # save_dataset writes each of DatasetSpec's fields once, in its order
    pytest.param(f"{_HEADER} foo=bar\n{_ROW}\n{_ROW}\n{_ROW_1}\n{_ROW_1}", 1, id="unknown-key"),
    pytest.param(f"{_HEADER} seed=9\n{_ROW}\n{_ROW}\n{_ROW_1}\n{_ROW_1}", 1, id="repeated-key"),
    (f"{_HEADER}\n{_ROW}\n0 weird 1.0 0.0 0.0", 3),
    (f"{_HEADER}\n{_ROW}\n0 augmented 1.0 0.0 0.0", 3),
    (f"{_HEADER}\n{_ROW}\nzero original 1.0 0.0 0.0", 3),
    (f"{_HEADER}\n{_ROW}\n0 original 1.0 0.0 abc", 3),
    (f"{_HEADER}\n{_ROW}\n0 original 1.0 nan 0.0\n{_ROW}\n{_ROW}", 3),
    (f"{_HEADER}\n{_ROW}\n{_ROW}\n{_ROW}\n2 original 1.0 0.0 0.0", 5),
    (f"{_HEADER}\n{_ROW}\n{_ROW}\n{_ROW}", 1),
    (f"{_HEADER}\n" + "\n".join([_ROW] * 5), 1),
    (f"{_HEADER}\n" + "\n".join([_ROW] * 4), 1),
    # int and float read "0_2" as 2 and "1_0.0" as 10.0, so without the '_'
    # check each of these files would load; save_dataset writes no '_'
    pytest.param(f"{_HEADER.replace('=2 ', '=0_2 ', 1)}\n{_ROW}\n{_ROW}\n{_ROW_1}\n{_ROW_1}",
                 1, id="underscore-in-header"),
    pytest.param(f"{_HEADER}\n{_ROW}\n{_ROW}\n0_1 original 0.0 1.0 0.0\n{_ROW_1}",
                 4, id="underscore-in-speaker-id"),
    pytest.param(f"{_HEADER}\n{_ROW}\n{_ROW}\n{_ROW_1}\n1 original 0.0 1_0.0 0.0",
                 5, id="underscore-in-feature"),
    # the header alone, or a wide line 2 over many short lines, once sized an
    # 8 PB or a 320 GB feature array before the body was read
    pytest.param(_HEADER.replace("d_in=3", "d_in=1000000000000000") + "\n0 original 1 2",
                 2, id="huge-d_in"),
    pytest.param(_HEADER.replace("d_in=3", "d_in=200000") + "\n0 original" + " 0" * 200000
                 + "\n0" * 200000, 3, id="wide-line-2"),
])
def test_load_names_line_of_malformed_input(tmp_path, text, line):
    path = tmp_path / "bad.txt"
    path.write_text(text + "\n")
    with pytest.raises(IoError, match=re.escape(f"{path}:{line}: ")):
        load_dataset(path)


@pytest.mark.parametrize("header, token", [
    (f"{_HEADER} foo=bar", "foo=bar"),
    (f"{_HEADER} seed=9", "seed=9"),
    ("utterances_per_speaker=2 num_speakers=2 d_in=3 spread=0.1 seed=0",
     "utterances_per_speaker=2"),
])
def test_header_refuses_a_key_save_dataset_does_not_write_there(tmp_path, header, token):
    """An unknown, repeated or reordered header key is named, with file:1,
    even where the rows and the values would load."""
    path = tmp_path / "bad.txt"
    path.write_text("\n".join([header, _ROW, _ROW, _ROW_1, _ROW_1]) + "\n")
    with pytest.raises(IoError, match=re.escape(f"{path}:1: header token {token!r}")):
        load_dataset(path)


def test_load_rejects_non_ascii(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_bytes(_HEADER.encode() + b"\n0 original \xff 0 0\n")
    at = len(_HEADER) + 12  # the \xff after the header's newline and "0 original "
    with pytest.raises(IoError, match=re.escape(f"{path}: not ascii text (byte {at})")):
        load_dataset(path)
