"""The trainable network: relu MLP encoder plus the two-matrix projection
head W2 relu(W1 h) with a final L2 normalization, all with a hand-written
backward pass. NetworkParams holds the parameters and, in the same form,
their gradients. param_layout states which arrays a network of given sizes
has, with their shapes, in the order checkpoints store them; checkpoints
round-trip bit-exactly through a small binary container.
"""

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, IoError, check_in, check_integer, empty_aligned, is_integer,
                     read_file, write_file)
from .geometry import normalize_rows, normalize_rows_backward

CHECKPOINT_MAGIC = b"SPKEMB01"  # 8-byte magic, format version in the suffix
# the checkpoint header keys holding param_layout's first four arguments
_SIZE_KEYS = ("encoder_dims", "proj_hidden", "d_out", "num_classes")
# the representations embed returns and a classifier can read: z, or unit h
SPACES = ("projection", "encoder")


@dataclass
class NetworkParams:
    """encoder_layers: list of (weight (out, in), bias (out,)) applied with
    relu after every layer; proj_w1 (hidden, d_h) and proj_w2 (d_out, hidden)
    are bias-free; class_weights (C, d_out) rows stay unit-norm. The
    gradients w.r.t. the parameters come in the same form."""

    encoder_layers: list
    proj_w1: np.ndarray
    proj_w2: np.ndarray
    class_weights: np.ndarray
    seed: int = 0

    @property
    def d_in(self) -> int:
        return self.encoder_layers[0][0].shape[1]

    @property
    def d_out(self) -> int:
        return self.proj_w2.shape[0]

    @property
    def num_classes(self) -> int:
        return self.class_weights.shape[0]

    @property
    def encoder_dims(self) -> list:
        return [self.d_in] + [w.shape[0] for w, _ in self.encoder_layers]


class Workspace:
    """The record of one forward pass for a batch size N, and every array
    forward and backward write, built once and overwritten by each call:
    the inputs forward read; per encoder layer the activation (the relu
    applied in place), the relu gate and the gradient w.r.t. the
    activation; the projection's activation and gate; the squared
    projection output, its row norms, the embeddings; the gradients
    w.r.t. the embeddings' pre-normalization rows and the projection
    pre-activation; and encoder_rows, the unit encoder output rows, their
    norms and gradient, which the first encoder_embeddings call allocates.
    Every array starts on a cache line (errors.empty_aligned). A gate holds
    float64 1.0 where its activation is positive and 0.0 elsewhere, as a
    float times a float runs faster than a float times a bool."""

    __slots__ = ("inputs", "encoder_act", "encoder_gates", "d_h", "proj_act", "proj_gate",
                 "d_pre", "squares", "norms", "embeddings", "d_out", "encoder_rows")

    def __init__(self, params: NetworkParams, n: int):
        self.inputs = None
        widths = [w.shape[0] for w, _ in params.encoder_layers]
        self.encoder_act = [empty_aligned((n, k)) for k in widths]
        self.encoder_gates = [empty_aligned((n, k)) for k in widths]
        self.d_h = [empty_aligned((n, k)) for k in widths]
        hidden = params.proj_w1.shape[0]
        self.proj_act = empty_aligned((n, hidden))
        self.proj_gate = empty_aligned((n, hidden))
        self.d_pre = empty_aligned((n, hidden))
        self.squares = empty_aligned((n, params.d_out))
        self.norms = empty_aligned((n, 1))
        self.embeddings = empty_aligned((n, params.d_out))
        self.d_out = empty_aligned((n, params.d_out))
        self.encoder_rows = None


def param_layout(encoder_dims, proj_hidden: int, d_out: int, num_classes: int,
                 class_dim: int | None = None) -> list:
    """[(name, shape)] of every array of a network of these sizes, in
    checkpoint order: per encoder layer its weight (out, in) and bias, then
    proj_w1, proj_w2 and class_weights (num_classes, class_dim), class_dim
    being d_out or, to classify in that space, the encoder output width.
    The one check of the sizes, else ConfigError: each an integer (a bool
    or float is not); encoder_dims a list, tuple or array of >= 2 sizes
    >= 1; proj_hidden >= 1; d_out, num_classes and class_dim >= 2, each of
    these four refused by errors.check_integer under its own name."""
    dims = encoder_dims
    if not (isinstance(dims, (list, tuple, np.ndarray)) and len(dims) >= 2
            and all(is_integer(d) and d >= 1 for d in dims)):
        raise ConfigError(f"encoder dims must chain >= 2 positive integers, got {dims!r}")
    class_dim = d_out if class_dim is None else class_dim
    for name, size, least in (("proj_hidden", proj_hidden, 1), ("d_out", d_out, 2),
                              ("num_classes", num_classes, 2), ("class_dim", class_dim, 2)):
        check_integer(size, name, least)
    layout = []
    for i, (fan_in, fan_out) in enumerate(zip(dims, dims[1:])):
        layout += [(f"encoder.{i}.weight", (fan_out, fan_in)), (f"encoder.{i}.bias", (fan_out,))]
    return layout + [("proj_w1", (proj_hidden, dims[-1])), ("proj_w2", (d_out, proj_hidden)),
                     ("class_weights", (num_classes, class_dim))]


def init_params(encoder_dims, proj_hidden: int, d_out: int, num_classes: int,
                seed: int, class_dim: int | None = None) -> NetworkParams:
    """The arrays of param_layout, drawn in its order from
    np.random.default_rng(seed), an integer >= 0: He-style weights
    ~ N(0, 2/fan_in), zero biases, class-weight rows normalized onto the
    sphere."""
    layout = param_layout(encoder_dims, proj_hidden, d_out, num_classes, class_dim)
    check_integer(seed, "seed", 0)
    rng = np.random.default_rng(seed)
    return _assemble([np.zeros(shape) if len(shape) == 1
                      else normalize_rows(rng.standard_normal(shape)) if name == "class_weights"
                      else rng.standard_normal(shape) * np.sqrt(2.0 / shape[1])
                      for name, shape in layout], seed)


def _inputs(params: NetworkParams, features) -> np.ndarray:
    """features as a float64 array, checked to be (N, d_in)."""
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.d_in:
        raise ConfigError(f"expected (N, {params.d_in}) inputs, got {x.shape}")
    return x


def forward(params: NetworkParams, features, ws: Workspace | None = None) -> Workspace:
    """Run the encoder and projection, ending in row normalization, and
    return the Workspace it filled: the trace that encoder_embeddings and
    backward read.

    features is an (N, d_in) matrix. Raises ConfigError on a wrong input
    width and ZeroVector if any projection output has (near-)zero norm.

    ws, when given, is a Workspace for N rows, which the next call through
    it overwrites; without it the call builds one of its own.
    """
    x = _inputs(params, features)
    if ws is None:
        ws = Workspace(params, x.shape[0])
    ws.inputs = act = x
    for (w, b), out in zip(params.encoder_layers, ws.encoder_act):
        act = np.matmul(act, w.T, out=out)
        act += b
        np.maximum(act, 0.0, out=act)
    np.matmul(act, params.proj_w1.T, out=ws.proj_act)
    np.maximum(ws.proj_act, 0.0, out=ws.proj_act)
    z = np.matmul(ws.proj_act, params.proj_w2.T, out=ws.embeddings)
    normalize_rows(z, out=z, norms=ws.norms, squares=ws.squares)
    return ws


def encoder_embeddings(trace: Workspace) -> np.ndarray:
    """Unit-normalized encoder output rows (the pre-projection space),
    written with their norms into trace.encoder_rows and returned.

    Raises ZeroVector when a sample's encoder activations are all dead."""
    h = trace.encoder_act[-1]
    if trace.encoder_rows is None:
        trace.encoder_rows = (empty_aligned(h.shape), empty_aligned((len(h), 1)),
                              empty_aligned(h.shape))
    unit, norms, _ = trace.encoder_rows
    return normalize_rows(h, out=unit, norms=norms, squares=unit)


def embed(params: NetworkParams, features, space: str = "projection") -> np.ndarray:
    """The unit rows scoring reads, with the bits of forward's embeddings
    (space "projection") or of encoder_embeddings (space "encoder").

    The inference pass: each layer is one product into a new array, then
    the bias and relu in place, and the activation below it is released,
    so no trace for backward is built. Every product runs over all N rows
    at once, as in forward: BLAS picks its kernel by the row count, and
    row blocks would change the last bits. The projection output is
    normalized in place, with the projection activation as its squares
    buffer where the two have the same shape.

    Raises ConfigError on a wrong input width or a space not in SPACES, and
    ZeroVector naming the first row of (near-)zero or non-finite norm."""
    check_in(space, SPACES, "space")
    act = _inputs(params, features)
    for w, b in params.encoder_layers:
        act = np.matmul(act, w.T)
        act += b
        np.maximum(act, 0.0, out=act)
    if space == "encoder":
        return normalize_rows(act, out=act)
    p = np.matmul(act, params.proj_w1.T)
    del act
    np.maximum(p, 0.0, out=p)
    z = np.matmul(p, params.proj_w2.T)
    return normalize_rows(z, out=z, squares=p if p.shape == z.shape else None)


def backward(params: NetworkParams, trace: Workspace, grad_embeddings: np.ndarray,
             grad_encoder_output: np.ndarray | None = None,
             out: NetworkParams | None = None) -> NetworkParams:
    """Reverse accumulation from d(loss)/d(embeddings) to every parameter.

    The output normalization goes through normalize_rows_backward; relu
    gates pass gradient only where the activation is positive, which is
    where the pre-activation was (NaN and -0.0 included). The class-weight
    gradient comes straight from the loss, not through the network, so
    backward leaves that slot alone: it is zero in the gradients backward
    makes, and as it was in out.

    trace is the Workspace forward filled, and takes the intermediate
    gradients. grad_encoder_output, when given, is d(loss)/d(raw encoder
    output) of a loss that classifies in the pre-projection space, the
    normalization of encoder_embeddings already differentiated; it is added
    to the projection's gradient at the encoder output.

    out, when given, is a NetworkParams shaped like params whose network arrays
    are overwritten with the gradients and returned (the trainer passes
    views of one flat vector); otherwise new arrays are returned.
    """
    g = np.asarray(grad_embeddings, dtype=np.float64)
    if g.shape != trace.embeddings.shape:
        raise ConfigError(
            f"grad shape {g.shape} != embeddings shape {trace.embeddings.shape}")
    if len(trace.encoder_act) != len(params.encoder_layers) \
            or trace.proj_act.shape[1] != params.proj_w1.shape[0] \
            or trace.inputs.shape[1] != params.d_in:
        raise ConfigError("trace does not match these parameters")
    if out is None:
        out = _assemble([np.empty_like(a) for a in param_arrays(params)])
        out.class_weights.fill(0.0)

    d_out = normalize_rows_backward(g, trace.embeddings, trace.norms, trace.d_out)
    # Relu gates multiply by a 0/1 mask rather than zero-fill: a gated entry
    # keeps the sign of its gradient (-0.0) and a NaN stays NaN, bit for bit
    # as when each gate made a new boolean array.
    np.matmul(d_out.T, trace.proj_act, out=out.proj_w2)
    d_pre = np.matmul(d_out, params.proj_w2, out=trace.d_pre)
    d_pre *= np.greater(trace.proj_act, 0.0, out=trace.proj_gate)
    h = trace.encoder_act[-1]
    np.matmul(d_pre.T, h, out=out.proj_w1)
    d_h = np.matmul(d_pre, params.proj_w1, out=trace.d_h[-1])
    if grad_encoder_output is not None:
        ge = np.asarray(grad_encoder_output, dtype=np.float64)
        if ge.shape != h.shape:
            raise ConfigError(
                f"encoder grad shape {ge.shape} != encoder output shape {h.shape}")
        d_h += ge

    for li in range(len(params.encoder_layers) - 1, -1, -1):
        grad_w, grad_b = out.encoder_layers[li]
        d_h *= np.greater(trace.encoder_act[li], 0.0, out=trace.encoder_gates[li])
        below = trace.encoder_act[li - 1] if li > 0 else trace.inputs
        np.matmul(d_h.T, below, out=grad_w)
        np.add.reduce(d_h, axis=0, out=grad_b)  # np.sum's call
        if li > 0:  # the gradient w.r.t. the inputs is not needed
            d_h = np.matmul(d_h, params.encoder_layers[li][0], out=trace.d_h[li - 1])
    return out


def param_arrays(params) -> list:
    """Every array of a NetworkParams, in checkpoint order."""
    return [a for layer in params.encoder_layers for a in layer] + [
        params.proj_w1, params.proj_w2, params.class_weights]


def _assemble(arrays, seed: int = 0) -> NetworkParams:
    """A NetworkParams from its arrays in checkpoint order."""
    return NetworkParams(list(zip(arrays[:-3:2], arrays[1:-3:2])), *arrays[-3:], seed)


def flat_copy(params: NetworkParams):
    """(flat, copy) of a NetworkParams, which may hold parameters or their
    gradients: flat is one new float64 vector holding every array in
    checkpoint order, starting on a cache line (errors.empty_aligned), and
    copy a NetworkParams with the seed of params whose arrays are views of
    flat. An in-place operation on flat therefore updates every array of
    copy at once; reassigning an attribute of copy detaches it. A view
    starts on a cache line too where the arrays before it hold a multiple
    of 8 entries each, as at the quickstart sizes."""
    arrays = param_arrays(params)
    flat = np.concatenate([a.ravel() for a in arrays],
                          out=empty_aligned(sum(a.size for a in arrays)))
    pieces = np.split(flat, np.cumsum([a.size for a in arrays])[:-1])
    return flat, _assemble([piece.reshape(a.shape) for piece, a in zip(pieces, arrays)],
                           params.seed)


def save_checkpoint(path, params: NetworkParams) -> None:
    """Binary container: 8-byte magic, uint32 little-endian header length,
    JSON header (dims, seed, array shapes), then each array as raw
    little-endian float64 in row-major order. Bit-exact round trip. The
    header's array entries are param_layout's for the sizes of params."""
    sizes = (params.encoder_dims, params.proj_w1.shape[0], params.d_out, params.num_classes)
    layout = param_layout(*sizes, params.class_weights.shape[1])
    header = {"version": 1, "seed": int(params.seed), **dict(zip(_SIZE_KEYS, sizes)),
              "arrays": [{"name": name, "shape": list(shape)} for name, shape in layout]}
    blob = json.dumps(header, sort_keys=True).encode("ascii")
    write_file(path, b"".join([CHECKPOINT_MAGIC, np.uint32(len(blob)).astype("<u4").tobytes(),
                               blob, *(np.ascontiguousarray(arr, dtype="<f8").tobytes()
                                       for arr in param_arrays(params))]), "checkpoint")


def load_checkpoint(path) -> NetworkParams:
    """Inverse of save_checkpoint. Raises IoError naming path on any
    format violation: bad magic, a header that is not the object
    save_checkpoint writes (version, integer sizes, the array names and
    shapes those sizes imply), truncated or trailing bytes, or an array
    holding a non-finite value."""
    raw = read_file(path, "checkpoint")
    if len(raw) < 12 or raw[:8] != CHECKPOINT_MAGIC:
        raise IoError(f"{path}: not a checkpoint (bad magic)")
    hlen = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    if len(raw) < 12 + hlen:
        raise IoError(f"{path}: truncated header")
    try:
        header = json.loads(raw[12:12 + hlen].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IoError(f"{path}: unreadable header: {exc}") from exc

    offset = 12 + hlen
    arrays = []
    for name, shape in _header_layout(path, header):
        nbytes = 8 * math.prod(shape)
        chunk = raw[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise IoError(f"{path}: truncated array {name}")
        arr = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
        if not np.isfinite(arr).all():
            raise IoError(f"{path}: array {name} holds a non-finite value")
        arrays.append(arr)
        offset += nbytes
    if offset != len(raw):
        raise IoError(f"{path}: {len(raw) - offset} trailing bytes")
    return _assemble(arrays, header["seed"])


def _header_layout(path, header) -> list:
    """param_layout of a checkpoint header's sizes, once its keys, version,
    seed and array entries are those save_checkpoint writes, else IoError
    naming path. The class-weight columns are the encoder output width when
    the last entry says so, else d_out (the two classifier spaces)."""
    if not isinstance(header, dict):
        raise IoError(f"{path}: header is not a JSON object")
    for key in ("version", "seed", *_SIZE_KEYS, "arrays"):
        if key not in header:
            raise IoError(f"{path}: header lacks {key!r}")
    if header["version"] != 1 or not is_integer(header["version"]):
        raise IoError(f"{path}: unsupported version {header['version']!r}")
    if not is_integer(header["seed"]) or header["seed"] < 0:
        raise IoError(f"{path}: header seed must be an integer >= 0, got {header['seed']!r}")
    if not isinstance(header["arrays"], list):
        raise IoError(f"{path}: header arrays must be a list")

    sizes = [header[key] for key in _SIZE_KEYS]
    dims, classes = sizes[0], sizes[3]
    got = [(m.get("name"), m.get("shape")) if isinstance(m, dict) else m
           for m in header["arrays"]]
    wide = isinstance(dims, list) and dims and got[-1:] == [("class_weights", [classes, dims[-1]])]
    try:
        layout = param_layout(*sizes, dims[-1] if wide else None)
    except ConfigError as exc:
        raise IoError(f"{path}: header sizes: {exc}") from exc
    for k, (entry, want) in enumerate(itertools.zip_longest(
            got, [(name, list(shape)) for name, shape in layout])):
        if entry != want or not all(map(is_integer, entry[1])):
            raise IoError(f"{path}: header array entry {k} is {entry!r}, "
                          f"expected {want!r} from the header sizes")
    return layout
