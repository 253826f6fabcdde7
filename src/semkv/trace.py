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

Payload size is exactly R * n * 3 * N * d * 4 bytes. Traces read from files
or drawn by the generators hold the float32 values at rest; each head's
Q/K/V is widened to float64 (exactly) only when that head is computed on.
Generators draw in float64 and quantize to float32 at generation time, so
write -> read round-trips are bit-exact.

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

    `data` has shape (R, n, 3, N, d) where axis 2 orders Q, K, V. float32
    input stays float32 (the at-rest form of every file and generator
    trace); any other dtype is widened to float64. `head_inputs` widens one
    head to float64 for computation, which is exact, so every result is the
    same as on a float64 trace of the same values. `data` is a read-only,
    C-contiguous view, so results depend on the values alone, not on the
    caller's memory layout. A C-contiguous float32 or float64 array passed
    in is not copied, and its owner must therefore leave it unchanged. The
    full-cache decode outputs are computed once per query count and shared
    by every caller.
    """

    def __init__(self, header: TraceHeader, data: np.ndarray):
        data = np.asarray(data)
        dtype = np.float32 if data.dtype == np.float32 else np.float64
        data = np.ascontiguousarray(data, dtype=dtype).view()
        expected = (
            header.num_layers,
            header.num_heads,
            3,
            header.seq_len,
            header.head_dim,
        )
        if data.shape != expected:
            raise TraceFormatError(f"trace data shape {data.shape} != {expected}")
        # NaN propagates through min/max and an infinity is one of them, so
        # this needs no mask as large as the data
        if not (np.isfinite(data.min()) and np.isfinite(data.max())):
            raise TraceFormatError("trace contains NaN/Inf entries")
        data.flags.writeable = False
        self.header = header
        self.data = data
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
        """One head's Q/K/V in float64: fresh copies of float32 data, views of float64."""
        q, k, v = self.data[layer, head]
        return AttentionInputs(queries=q, keys=k, values=v)

    def layer_heads(self, layer: int) -> list[AttentionInputs]:
        """Every head of a layer through `head_inputs`, all widened at once."""
        return [self.head_inputs(layer, h) for h in range(self.num_heads)]

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
            for h in range(self.num_heads):
                out[r, h] = _decode_output(self.head_inputs(r, h), mask, rows)
        return self.keep_decode_outputs(decode_queries, out)

    def keep_decode_outputs(self, decode_queries: int, out: np.ndarray) -> np.ndarray:
        """Memoize decode outputs that a caller's own pass over the heads
        computed the way `full_decode_outputs` does; returns the memoized array."""
        out.flags.writeable = False
        return self._decode_outputs.setdefault(decode_queries, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttentionTrace):
            return NotImplemented
        return self.header == other.header and np.array_equal(self.data, other.data)


def _decode_output(inputs: AttentionInputs, mask: CausalMask, rows: range) -> np.ndarray:
    """Attention outputs of query `rows` over every key; the head's widened
    inputs die with the call."""
    return attention_weights(inputs, mask, query_rows=rows) @ inputs.values


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


def _draw(rng: np.random.Generator, scratch: np.ndarray, out: np.ndarray) -> None:
    """Draw standard normals into the float64 `scratch` and store them in `out`."""
    rng.standard_normal(out=scratch)
    out[...] = scratch


def _fill_clustered_head(
    rng: np.random.Generator,
    scratch: np.ndarray,
    out: np.ndarray,
    axis: int,
    amp: float,
    spread: float,
) -> None:
    """Draw one head into `out`, a float32 (3, N, d) block; `scratch` is (2, N, d)."""
    q, k, v = out
    draw, noise = scratch
    seq_len = draw.shape[0]
    _draw(rng, draw, q)
    _draw(rng, draw, k)
    # V rows are mags[i] times the unit vector along `axis`
    mags = _CLUSTER_BASE + amp * rng.uniform(-1.0, 1.0, size=seq_len)
    draw.fill(0.0)
    draw[:, axis] = mags
    if spread > 0:
        rng.standard_normal(out=noise)
        noise *= spread
        draw += noise
    v[...] = draw


def _plant_needle(rng: np.random.Generator, out: np.ndarray, profile: SyntheticProfile) -> None:
    """Align the tail queries and the needle key of a drawn (3, N, d) head block."""
    q, k, _ = out
    seq_len, head_dim = q.shape
    axis = rng.standard_normal(head_dim)
    axis /= np.linalg.norm(axis)
    q[seq_len - min(profile.tail_len, seq_len) :] = np.sqrt(head_dim) * axis
    k[profile.needle_position] = profile.needle_strength * np.sqrt(head_dim) * axis


def gen_synthetic_trace(
    profile: SyntheticProfile, shape: tuple[int, int, int, int]
) -> AttentionTrace:
    """Build a seeded synthetic trace of shape (R, n, N, d), held in float32.

    Each Q, K or V block is drawn into a float64 scratch block and stored
    as float32, so the peak is the float32 trace plus two N x d float64
    blocks.
    """
    num_layers, num_heads, seq_len, head_dim = shape
    header = TraceHeader(num_layers, num_heads, seq_len, head_dim)
    if profile.kind == "clustered-heads":
        if profile.planted >= num_heads:
            raise ParameterError("clustered-heads needs planted < num_heads")
        if head_dim < profile.planted + 1:
            raise ParameterError(
                f"clustered-heads needs head_dim >= planted + 1, got d={head_dim}"
            )
        planted_per_layer = clustered_planted_heads(profile, num_layers, num_heads)
    if profile.kind == "planted-needle":
        tail = min(profile.tail_len, seq_len)
        if profile.needle_position > seq_len - tail:
            raise ParameterError(
                f"needle at {profile.needle_position} not visible to all of the "
                f"last {tail} rows of a length-{seq_len} sequence"
            )
    rng = _rng(profile.seed, _STREAM_DATA)
    data = np.empty((num_layers, num_heads, 3, seq_len, head_dim), dtype=np.float32)
    scratch = np.empty((2, seq_len, head_dim))
    for r, layer in enumerate(data):
        if profile.kind == "clustered-heads":
            rank = {h: i for i, h in enumerate(planted_per_layer[r])}
        for h, out in enumerate(layer):
            if profile.kind == "clustered-heads":
                if h in rank:
                    axis, amp = 1 + rank[h], _CLUSTER_AMP_PLANTED
                else:
                    axis, amp = 0, _CLUSTER_AMP_COMMON
                _fill_clustered_head(rng, scratch, out, axis, amp, profile.spread)
                continue
            for tensor in out:
                _draw(rng, scratch[0], tensor)
            if profile.kind == "planted-needle":
                _plant_needle(rng, out, profile)
    return AttentionTrace(header, data)


def _open_sink(destination):
    if isinstance(destination, (str, os.PathLike)):
        return open(destination, "wb"), True
    return destination, False


def write_trace(trace: AttentionTrace, destination) -> int:
    """Write a trace to a path or binary sink; returns the byte count.

    float32 data is written straight from the trace; float64 data is
    narrowed one head block at a time.
    """
    sink, owned = _open_sink(destination)
    try:
        written = sink.write(trace.header.pack())
        for block in _head_blocks(trace.data):
            written += sink.write(np.asarray(block, dtype="<f4").view(np.uint8))
    finally:
        if owned:
            sink.close()
    if written != trace.header.file_bytes:
        raise IOError(
            f"short write: {written} of {trace.header.file_bytes} bytes"
        )
    return written


def read_trace(source) -> AttentionTrace:
    """Read a trace from a path, binary stream, or bytes; the data stays float32."""
    if isinstance(source, (bytes, bytearray)):
        return _read_stream(io.BytesIO(source))
    if isinstance(source, (str, os.PathLike)):
        with open(source, "rb") as f:
            return _read_stream(f)
    return _read_stream(source)


# bytes read from a non-seekable stream at a time while its payload arrives
_STREAM_CHUNK = 1 << 20


def _read_stream(stream) -> AttentionTrace:
    raw = bytearray(HEADER_BYTES)
    got = _read_into(stream, raw)
    if got < HEADER_BYTES:
        raise TraceTruncationError(HEADER_BYTES, got, what="header")
    magic, version, layers, heads, seq_len, head_dim, dtype_code = _HEADER.unpack(raw)
    if magic != MAGIC:
        raise TraceFormatError(f"bad magic {magic!r}, expected {MAGIC!r}")
    if version != VERSION:
        raise TraceFormatError(f"unsupported trace version {version}, expected {VERSION}")
    if dtype_code != DTYPE_FLOAT32:
        raise UnsupportedDtypeError(f"unsupported dtype code {dtype_code}")
    try:
        header = TraceHeader(layers, heads, seq_len, head_dim, version, dtype_code)
    except ParameterError as exc:
        raise TraceFormatError(str(exc)) from exc
    expected = header.payload_bytes
    shape = (layers, heads, 3, seq_len, head_dim)
    left = _bytes_left(stream)
    if left is None:
        # the size is unknown: hold only the bytes that actually arrive
        payload = bytearray()
        chunk = memoryview(bytearray(min(_STREAM_CHUNK, expected)))
        while len(payload) < expected:
            got = _read_into(stream, chunk[: expected - len(payload)])
            if not got:
                break
            payload += chunk[:got]
        if len(payload) < expected:
            raise TraceTruncationError(expected, len(payload))
        data = np.frombuffer(payload, dtype="<f4").reshape(shape)
    else:
        if left < expected:
            # fail before allocating room for a payload that is not there
            raise TraceTruncationError(expected, left)
        data = np.empty(shape, dtype="<f4")
        received = _read_into(stream, data)
        if received < expected:
            raise TraceTruncationError(expected, received)
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
