"""Attention-trace file format (.tkv), reader/writer, synthetic generators.

File layout (all little-endian):

    offset  size  field
    0       4     magic b"TKV1"
    4       2     version (u16), currently 1
    6       4     num_layers R (u32)
    10      4     num_heads n (u32)
    14      4     seq_len N (u32)
    18      4     head_dim d (u32)
    22      2     dtype code (u16), 0 = float32
    24      ...   payload: for each layer, for each head: Q then K then V,
                  each an N x d row-major float32 block

Payload size is exactly R * n * 3 * N * d * 4 bytes. Tensors are widened
to float64 in memory for computation; synthetic generators quantize to
float32 at generation time so write -> read round-trips are bit-exact.

Synthetic data comes from the counter-based Philox4x64 generator (NumPy's
``np.random.Philox``) keyed by (seed, stream), so the same profile always
produces the same bytes.
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import (
    ParameterError,
    TraceFormatError,
    TraceTruncationError,
    UnsupportedDtypeError,
)
from .linalg import AttentionInputs, CausalMask, attention_weights

MAGIC = b"TKV1"
VERSION = 1
DTYPE_FLOAT32 = 0
_HEADER = struct.Struct("<4sHIIIIH")
HEADER_BYTES = _HEADER.size  # 24

# Philox stream ids: 0 chooses planted head positions, 1 draws tensor data.
_STREAM_PLANTED = 0
_STREAM_DATA = 1

# Clustered-heads magnitude model: V rows are c_i * direction with
# c_i in [BASE - amp, BASE + amp]. The amplitudes keep planted heads
# provably farthest from the layer's semantic center at zero spread for
# planted <= n/2 with n >= 8, while giving planted heads enough output
# variance that evicting their middle tokens is costly.
_CLUSTER_BASE = 4.0
_CLUSTER_AMP_COMMON = 0.125
_CLUSTER_AMP_PLANTED = 1.5


@dataclass(frozen=True)
class TraceHeader:
    num_layers: int
    num_heads: int
    seq_len: int
    head_dim: int
    version: int = VERSION
    dtype_code: int = DTYPE_FLOAT32

    def __post_init__(self):
        for name in ("num_layers", "num_heads", "seq_len", "head_dim"):
            if getattr(self, name) < 1:
                raise ParameterError(f"{name} must be >= 1")

    @property
    def payload_bytes(self) -> int:
        return self.num_layers * self.num_heads * 3 * self.seq_len * self.head_dim * 4

    @property
    def file_bytes(self) -> int:
        return HEADER_BYTES + self.payload_bytes

    def pack(self) -> bytes:
        return _HEADER.pack(
            MAGIC,
            self.version,
            self.num_layers,
            self.num_heads,
            self.seq_len,
            self.head_dim,
            self.dtype_code,
        )


class AttentionTrace:
    """Per-layer, per-head Q/K/V tensors; the unit of input.

    `data` has shape (R, n, 3, N, d) float64 where axis 2 orders Q, K, V.
    It is a read-only view, so everything derived from it (the per-head
    `AttentionInputs` views and the full-cache decode outputs) is computed
    once, on first use, and shared by every caller. It is C-contiguous, so
    results depend on the values alone, not on the caller's memory layout.
    A C-contiguous float64 array passed in is not copied, and its owner
    must therefore leave it unchanged.
    """

    def __init__(self, header: TraceHeader, data: np.ndarray):
        data = np.ascontiguousarray(data, dtype=np.float64).view()
        expected = (
            header.num_layers,
            header.num_heads,
            3,
            header.seq_len,
            header.head_dim,
        )
        if data.shape != expected:
            raise TraceFormatError(f"trace data shape {data.shape} != {expected}")
        # one head block at a time keeps the check's mask small
        if not all(np.isfinite(block).all() for block in _head_blocks(data)):
            raise TraceFormatError("trace contains NaN/Inf entries")
        data.flags.writeable = False
        self.header = header
        self.data = data
        self._layer_heads: list[tuple[AttentionInputs, ...] | None] = [None] * len(data)
        self._decode_outputs: dict[int, np.ndarray] = {}

    @property
    def num_layers(self) -> int:
        return self.header.num_layers

    @property
    def num_heads(self) -> int:
        return self.header.num_heads

    @property
    def seq_len(self) -> int:
        return self.header.seq_len

    @property
    def head_dim(self) -> int:
        return self.header.head_dim

    def head_inputs(self, layer: int, head: int) -> AttentionInputs:
        return self.layer_heads(layer)[head]

    def layer_heads(self, layer: int) -> list[AttentionInputs]:
        """The layer's per-head Q/K/V views, built and validated once."""
        heads = self._layer_heads[layer]
        if heads is None:
            heads = tuple(
                AttentionInputs(queries=q, keys=k, values=v) for q, k, v in self.data[layer]
            )
            self._layer_heads[layer] = heads
        return list(heads)

    def full_decode_outputs(self, decode_queries: int) -> np.ndarray:
        """Attention outputs of the last `decode_queries` query rows over every
        key, shape (R, n, decode_queries, d); computed once per count."""
        out = self._decode_outputs.get(decode_queries)
        if out is not None:
            return out
        n_seq = self.seq_len
        if not 1 <= decode_queries <= n_seq:
            raise ParameterError(f"decode_queries {decode_queries} outside [1, {n_seq}]")
        mask = CausalMask.window(decode_queries, n_seq)
        rows = range(n_seq - decode_queries, n_seq)
        out = np.empty((self.num_layers, self.num_heads, decode_queries, self.head_dim))
        for r in range(self.num_layers):
            for h, inputs in enumerate(self.layer_heads(r)):
                out[r, h] = attention_weights(inputs, mask, query_rows=rows) @ inputs.values
        out.flags.writeable = False
        self._decode_outputs[decode_queries] = out
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttentionTrace):
            return NotImplemented
        return self.header == other.header and np.array_equal(self.data, other.data)


@dataclass(frozen=True)
class SyntheticProfile:
    """Seeded recipe for a synthetic trace.

    kind:
      uniform-random  i.i.d. standard normal Q/K/V.
      clustered-heads `planted` heads per layer get V aligned to distinct
                      orthogonal directions; the rest share one direction
                      plus `spread` * N(0, 1) off-direction noise.
      planted-needle  one key row per head is aligned with the last
                      `tail_len` query rows, so window scores peak there.
    """

    kind: str
    seed: int = 0
    planted: int = 2
    spread: float = 0.0
    needle_position: int = 7
    needle_strength: float = 10.0
    tail_len: int = 32

    _KINDS = ("uniform-random", "clustered-heads", "planted-needle")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ParameterError(f"unknown profile kind {self.kind!r}")
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")
        if self.kind == "clustered-heads":
            if self.planted < 1:
                raise ParameterError("clustered-heads needs planted >= 1")
            if self.spread < 0:
                raise ParameterError("spread must be >= 0")
        if self.kind == "planted-needle":
            if self.needle_position < 0:
                raise ParameterError("needle_position must be >= 0")
            if self.needle_strength <= 0:
                raise ParameterError("needle_strength must be > 0")
            if self.tail_len < 1:
                raise ParameterError("tail_len must be >= 1")


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def clustered_planted_heads(
    profile: SyntheticProfile, num_layers: int, num_heads: int
) -> list[list[int]]:
    """Planted (heterogeneous) head indices per layer, the generator's ground truth."""
    if profile.kind != "clustered-heads":
        raise ParameterError("planted heads only exist for clustered-heads profiles")
    rng = _rng(profile.seed, _STREAM_PLANTED)
    return [
        sorted(rng.permutation(num_heads)[: profile.planted].tolist())
        for _ in range(num_layers)
    ]


def _head_blocks(data: np.ndarray) -> np.ndarray:
    """(R * n, 3, N, d) view of C-contiguous (R, n, 3, N, d) trace data."""
    return data.reshape(-1, *data.shape[2:])


def _fill_clustered_layer(
    rng: np.random.Generator, planted: list[int], spread: float, out: np.ndarray
) -> None:
    """Draw one layer into `out`, a C-contiguous (n, 3, N, d) float64 array."""
    num_heads, _, seq_len, head_dim = out.shape
    if head_dim < len(planted) + 1:
        raise ParameterError(
            f"clustered-heads needs head_dim >= planted + 1, got d={head_dim}"
        )
    rank = {h: i for i, h in enumerate(planted)}
    for h in range(num_heads):
        q, k, v = out[h]
        rng.standard_normal(out=q)
        rng.standard_normal(out=k)
        if h in rank:
            direction = np.zeros(head_dim)
            direction[1 + rank[h]] = 1.0
            amp = _CLUSTER_AMP_PLANTED
        else:
            direction = np.zeros(head_dim)
            direction[0] = 1.0
            amp = _CLUSTER_AMP_COMMON
        mags = _CLUSTER_BASE + amp * rng.uniform(-1.0, 1.0, size=seq_len)
        np.multiply(mags[:, None], direction[None, :], out=v)
        if spread > 0:
            v += spread * rng.standard_normal((seq_len, head_dim))


def _fill_needle_layer(
    rng: np.random.Generator, profile: SyntheticProfile, out: np.ndarray
) -> None:
    """Draw one layer into `out`, a C-contiguous (n, 3, N, d) float64 array."""
    num_heads, _, seq_len, head_dim = out.shape
    tail = min(profile.tail_len, seq_len)
    if profile.needle_position > seq_len - tail:
        raise ParameterError(
            f"needle at {profile.needle_position} not visible to all of the "
            f"last {tail} rows of a length-{seq_len} sequence"
        )
    for h in range(num_heads):
        q, k, v = out[h]
        rng.standard_normal(out=q)
        rng.standard_normal(out=k)
        rng.standard_normal(out=v)
        axis = rng.standard_normal(head_dim)
        axis /= np.linalg.norm(axis)
        q[seq_len - tail :] = np.sqrt(head_dim) * axis
        k[profile.needle_position] = profile.needle_strength * np.sqrt(head_dim) * axis


def gen_synthetic_trace(
    profile: SyntheticProfile, shape: tuple[int, int, int, int]
) -> AttentionTrace:
    """Build a seeded synthetic trace of shape (R, n, N, d).

    Layers are drawn straight into one preallocated float64 array, so the
    peak is that array plus one head block.
    """
    num_layers, num_heads, seq_len, head_dim = shape
    header = TraceHeader(num_layers, num_heads, seq_len, head_dim)
    if profile.kind == "clustered-heads" and profile.planted >= num_heads:
        raise ParameterError("clustered-heads needs planted < num_heads")
    rng = _rng(profile.seed, _STREAM_DATA)
    if profile.kind == "clustered-heads":
        planted_per_layer = clustered_planted_heads(profile, num_layers, num_heads)
    data = np.empty((num_layers, num_heads, 3, seq_len, head_dim))
    for r, layer in enumerate(data):
        if profile.kind == "uniform-random":
            rng.standard_normal(out=layer)
        elif profile.kind == "clustered-heads":
            _fill_clustered_layer(rng, planted_per_layer[r], profile.spread, layer)
        else:
            _fill_needle_layer(rng, profile, layer)
        # quantize so in-memory floats are exactly the stored float32 values
        for block in layer:
            block[...] = block.astype(np.float32)
    return AttentionTrace(header, data)


def _open_sink(destination):
    if isinstance(destination, (str, os.PathLike)):
        return open(destination, "wb"), True
    return destination, False


def write_trace(trace: AttentionTrace, destination) -> int:
    """Write a trace to a path or binary sink; returns the byte count."""
    sink, owned = _open_sink(destination)
    try:
        written = sink.write(trace.header.pack())
        for block in _head_blocks(trace.data):
            written += sink.write(block.astype("<f4").tobytes())
    finally:
        if owned:
            sink.close()
    if written != trace.header.file_bytes:
        raise IOError(
            f"short write: {written} of {trace.header.file_bytes} bytes"
        )
    return written


def read_trace(source) -> AttentionTrace:
    """Read a trace from a path, binary stream, or bytes."""
    if isinstance(source, (bytes, bytearray)):
        return _read_stream(io.BytesIO(source))
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as f:
            return _read_stream(f)
    return _read_stream(source)


def _read_stream(stream) -> AttentionTrace:
    raw = bytearray(HEADER_BYTES)
    got = _read_into(stream, raw)
    if got < HEADER_BYTES:
        raise TraceTruncationError(HEADER_BYTES, got, what="header")
    magic, version, layers, heads, seq_len, head_dim, dtype_code = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if dtype_code != DTYPE_FLOAT32:
        raise UnsupportedDtypeError(f"unsupported dtype code {dtype_code}")
    try:
        header = TraceHeader(layers, heads, seq_len, head_dim, version, dtype_code)
    except ParameterError as exc:
        raise TraceFormatError(str(exc)) from exc
    left = _bytes_left(stream)
    if left is not None and left < header.payload_bytes:
        # fail before allocating room for a payload that is not there
        raise TraceTruncationError(header.payload_bytes, left)
    # widen one head's float32 Q/K/V block at a time into the float64 array
    data = np.empty((layers, heads, 3, seq_len, head_dim))
    block = np.empty((3, seq_len, head_dim), dtype="<f4")
    received = 0
    for out in _head_blocks(data):
        got = _read_into(stream, block)
        received += got
        if got < block.nbytes:
            raise TraceTruncationError(header.payload_bytes, received)
        out[...] = block
    return AttentionTrace(header, data)


def _bytes_left(stream) -> int | None:
    """Bytes from the stream's position to its end, or None if it cannot seek."""
    if not stream.seekable():
        return None
    here = stream.tell()
    end = stream.seek(0, io.SEEK_END)
    stream.seek(here)
    return end - here


def _read_into(stream, buffer) -> int:
    """Fill `buffer` from `stream`; returns the bytes read, short only at end of stream."""
    view = memoryview(buffer).cast("B")
    got = 0
    while got < len(view):
        n = stream.readinto(view[got:])
        if not n:
            break
        got += n
    return got
