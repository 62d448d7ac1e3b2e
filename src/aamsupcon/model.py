"""The trainable network: relu MLP encoder plus the two-matrix projection
head W2 relu(W1 h) with a final L2 normalization, all with a hand-written
backward pass. Checkpoints round-trip bit-exactly through a small binary
container.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import CheckpointError, InvalidDims, IoError, ShapeMismatch, TraceMismatch
from .geometry import normalize_rows, row_norms

CHECKPOINT_MAGIC = b"SPKEMB01"  # 8-byte magic, format version in the suffix


@dataclass
class NetworkParams:
    """encoder_layers: list of (weight (out, in), bias (out,)) applied with
    relu after every layer; proj_w1 (hidden, d_h) and proj_w2 (d_out, hidden)
    are bias-free; class_weights (C, d_out) rows stay unit-norm."""

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


@dataclass
class ParamGrads:
    encoder_layers: list
    proj_w1: np.ndarray
    proj_w2: np.ndarray
    class_weights: np.ndarray


@dataclass
class ForwardTrace:
    """Caches needed by backward: per-layer pre-activations/activations,
    the pre-normalization projection output and its row norms."""

    inputs: np.ndarray
    encoder_pre: list
    encoder_act: list
    proj_pre: np.ndarray
    proj_act: np.ndarray
    proj_out: np.ndarray
    norms: np.ndarray
    embeddings: np.ndarray


def init_params(encoder_dims, proj_hidden: int, d_out: int, num_classes: int,
                seed: int, class_dim: int | None = None) -> NetworkParams:
    """He-style initialization: weights ~ N(0, 2/fan_in), zero biases,
    class-weight rows normalized onto the sphere.

    class_dim sizes the class-weight columns (defaults to d_out); pass the
    encoder output width when the classifier term runs in that space."""
    dims = [int(d) for d in encoder_dims]
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise InvalidDims(f"encoder dims must chain >= 2 positive sizes, got {dims}")
    if proj_hidden < 1 or d_out < 2 or num_classes < 2:
        raise InvalidDims(
            f"need proj_hidden >= 1, d_out >= 2, num_classes >= 2; "
            f"got {proj_hidden}, {d_out}, {num_classes}")
    if class_dim is None:
        class_dim = d_out
    if class_dim < 2:
        raise InvalidDims(f"class_dim must be >= 2, got {class_dim}")
    rng = np.random.default_rng(seed)

    def he(fan_out, fan_in):
        return rng.standard_normal((fan_out, fan_in)) * np.sqrt(2.0 / fan_in)

    layers = [(he(dims[i + 1], dims[i]), np.zeros(dims[i + 1]))
              for i in range(len(dims) - 1)]
    proj_w1 = he(proj_hidden, dims[-1])
    proj_w2 = he(d_out, proj_hidden)
    class_weights = normalize_rows(rng.standard_normal((num_classes, class_dim)))
    return NetworkParams(layers, proj_w1, proj_w2, class_weights, seed)


def forward(params: NetworkParams, features) -> ForwardTrace:
    """Run the encoder and projection, ending in row normalization.

    features is an (N, d_in) matrix. Raises ShapeMismatch on a wrong input
    width and ZeroVector if any projection output has (near-)zero norm.
    """
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.d_in:
        raise ShapeMismatch(f"expected (N, {params.d_in}) inputs, got {x.shape}")
    act = x
    encoder_pre, encoder_act = [], []
    for w, b in params.encoder_layers:
        pre = act @ w.T
        pre += b
        act = np.maximum(pre, 0.0)
        encoder_pre.append(pre)
        encoder_act.append(act)
    proj_pre = act @ params.proj_w1.T
    proj_act = np.maximum(proj_pre, 0.0)
    proj_out = proj_act @ params.proj_w2.T
    norms = row_norms(proj_out)
    return ForwardTrace(x, encoder_pre, encoder_act, proj_pre, proj_act,
                        proj_out, norms, proj_out / norms)


def encoder_embeddings(trace: ForwardTrace) -> np.ndarray:
    """Unit-normalized encoder output rows (the pre-projection space).

    Raises ZeroVector when a sample's encoder activations are all dead."""
    h = trace.encoder_act[-1] if trace.encoder_act else trace.inputs
    return normalize_rows(h)


def backward(params: NetworkParams, trace: ForwardTrace,
             grad_embeddings: np.ndarray,
             grad_encoder_embeddings: np.ndarray | None = None,
             out: ParamGrads | None = None) -> ParamGrads:
    """Reverse accumulation from d(loss)/d(embeddings) to every parameter.

    The normalization layer contributes (g - (g.z) z) / ||u|| per row; relu
    gates pass gradient only where the pre-activation was positive. The
    class-weight slot is returned zero (its gradient comes straight from the
    loss, not through the network).

    grad_encoder_embeddings, when given, is d(loss)/d(normalized encoder
    output) for losses that classify in the pre-projection space; it joins
    the projection gradient at the encoder output.

    out, when given, is a ParamGrads shaped like params whose arrays are
    overwritten with the gradients and returned (the trainer passes views of
    one flat vector); otherwise new arrays are returned.
    """
    g = np.asarray(grad_embeddings, dtype=np.float64)
    if g.shape != trace.embeddings.shape:
        raise ShapeMismatch(
            f"grad shape {g.shape} != embeddings shape {trace.embeddings.shape}")
    if len(trace.encoder_pre) != len(params.encoder_layers) \
            or trace.proj_pre.shape[1] != params.proj_w1.shape[0] \
            or trace.inputs.shape[1] != params.d_in:
        raise TraceMismatch("trace does not match these parameters")
    if out is None:
        out = _assemble(ParamGrads, [np.empty_like(a) for a in param_arrays(params)])

    # Relu gates multiply by the mask rather than zero-fill: a gated entry
    # keeps the sign of its gradient (-0.0) and a NaN stays NaN, bit for bit
    # as when each gate made a new array.
    z = trace.embeddings
    d_out = g * z
    np.multiply(d_out.sum(axis=1, keepdims=True), z, out=d_out)
    np.subtract(g, d_out, out=d_out)
    d_out /= trace.norms
    np.matmul(d_out.T, trace.proj_act, out=out.proj_w2)
    d_pre = d_out @ params.proj_w2
    d_pre *= trace.proj_pre > 0.0
    h = trace.encoder_act[-1] if trace.encoder_act else trace.inputs
    np.matmul(d_pre.T, h, out=out.proj_w1)
    d_h = d_pre @ params.proj_w1
    if grad_encoder_embeddings is not None:
        ge = np.asarray(grad_encoder_embeddings, dtype=np.float64)
        if ge.shape != h.shape:
            raise ShapeMismatch(
                f"encoder grad shape {ge.shape} != encoder output shape {h.shape}")
        norms_h = np.linalg.norm(h, axis=1, keepdims=True)
        zn = h / norms_h
        d_h += (ge - np.sum(ge * zn, axis=1, keepdims=True) * zn) / norms_h

    for li in range(len(params.encoder_layers) - 1, -1, -1):
        w, _ = params.encoder_layers[li]
        grad_w, grad_b = out.encoder_layers[li]
        d_h *= trace.encoder_pre[li] > 0.0
        below = trace.encoder_act[li - 1] if li > 0 else trace.inputs
        np.matmul(d_h.T, below, out=grad_w)
        np.sum(d_h, axis=0, out=grad_b)
        d_h = d_h @ w
    out.class_weights.fill(0.0)
    return out


def _array_entries(params):
    """(name, array) pairs of a NetworkParams or ParamGrads in the fixed
    checkpoint order."""
    entries = []
    for i, (w, b) in enumerate(params.encoder_layers):
        entries.append((f"encoder.{i}.weight", w))
        entries.append((f"encoder.{i}.bias", b))
    entries.append(("proj_w1", params.proj_w1))
    entries.append(("proj_w2", params.proj_w2))
    entries.append(("class_weights", params.class_weights))
    return entries


def param_arrays(params) -> list:
    """Every array of a NetworkParams or ParamGrads, in checkpoint order."""
    return [arr for _, arr in _array_entries(params)]


def _assemble(cls, arrays):
    """A NetworkParams or ParamGrads from its arrays in checkpoint order."""
    return cls(list(zip(arrays[:-3:2], arrays[1:-3:2])), *arrays[-3:])


def flat_copy(params, cls=NetworkParams):
    """(flat, copy) of a NetworkParams or ParamGrads: flat is one new float64
    vector holding every array in checkpoint order, and copy is a cls whose
    arrays are views of flat. An in-place operation on flat therefore
    updates every array of copy at once; reassigning an attribute of copy
    detaches it. A NetworkParams copy keeps the seed of params."""
    arrays = param_arrays(params)
    flat = np.concatenate([a.ravel() for a in arrays])
    pieces = np.split(flat, np.cumsum([a.size for a in arrays])[:-1])
    copy = _assemble(cls, [piece.reshape(a.shape) for piece, a in zip(pieces, arrays)])
    if isinstance(copy, NetworkParams):
        copy.seed = params.seed
    return flat, copy


def save_checkpoint(path, params: NetworkParams) -> None:
    """Binary container: 8-byte magic, uint32 little-endian header length,
    JSON header (dims, seed, array shapes), then each array as raw
    little-endian float64 in row-major order. Bit-exact round trip."""
    entries = _array_entries(params)
    header = {
        "version": 1,
        "seed": int(params.seed),
        "encoder_dims": params.encoder_dims,
        "proj_hidden": int(params.proj_w1.shape[0]),
        "d_out": int(params.d_out),
        "num_classes": int(params.num_classes),
        "arrays": [{"name": name, "shape": list(arr.shape)} for name, arr in entries],
    }
    blob = json.dumps(header, sort_keys=True).encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(np.uint32(len(blob)).astype("<u4").tobytes())
            fh.write(blob)
            for _, arr in entries:
                fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    except OSError as exc:
        raise IoError(f"cannot write checkpoint to {path}: {exc}") from exc


def load_checkpoint(path) -> NetworkParams:
    """Inverse of save_checkpoint. Raises CheckpointError on any format
    violation (bad magic, version, truncated or trailing bytes)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise IoError(f"cannot read checkpoint from {path}: {exc}") from exc
    if len(raw) < 12 or raw[:8] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint (bad magic)")
    hlen = int(np.frombuffer(raw[8:12], dtype="<u4")[0])
    if len(raw) < 12 + hlen:
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[12:12 + hlen].decode("ascii"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: unreadable header: {exc}") from exc
    if header.get("version") != 1:
        raise CheckpointError(f"{path}: unsupported version {header.get('version')!r}")

    offset = 12 + hlen
    arrays = {}
    for meta in header["arrays"]:
        shape = tuple(int(d) for d in meta["shape"])
        nbytes = 8 * int(np.prod(shape))
        chunk = raw[offset:offset + nbytes]
        if len(chunk) != nbytes:
            raise CheckpointError(f"{path}: truncated array {meta['name']}")
        arrays[meta["name"]] = np.frombuffer(chunk, dtype="<f8").reshape(shape).copy()
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")

    dims = header["encoder_dims"]
    try:
        layers = [(arrays[f"encoder.{i}.weight"], arrays[f"encoder.{i}.bias"])
                  for i in range(len(dims) - 1)]
        params = NetworkParams(layers, arrays["proj_w1"], arrays["proj_w2"],
                               arrays["class_weights"], int(header["seed"]))
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing array {exc}") from exc
    if params.encoder_dims != [int(d) for d in dims]:
        raise CheckpointError(f"{path}: header dims {dims} do not match arrays")
    return params
