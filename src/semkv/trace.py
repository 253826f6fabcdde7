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

Heads are contiguous in the payload, so a run never needs a whole trace:
`TraceReader` (a file, bytes or a pipe), `SyntheticSource` (a seeded
profile) and an in-memory `AttentionTrace` are all layer sources, with a
`header` and a `head_reader()`, which gives any head's checked, read-only
(3, N, d) block to the process that reads it, whether a run's own or a
worker forked from it. A reader maps its file, or a temporary copy of a
stream, and a synthetic source writes its trace to a temporary file and
reads that, so every source but an `AttentionTrace` gives views of a
mapped file (`TraceReader.head`). `write_trace` is the one writer; it
writes a trace's `pieces()`, at most `_STREAM_CHUNK` bytes of rows each,
so no writer or generator holds a head's block. `TraceHeader.shape`
spells the payload's layout. Each value is checked for NaN/Inf once, by
the code that first receives it: `TraceReader.head` file and stream
bytes, `SyntheticSource.pieces()` drawn values, `AttentionTrace` arrays
in memory. `given_back` gives a block's or an array's pages back when a
pass is done with it (`linalg.give_back_pages`, which the walks over an
array's rows also call as they go).

Synthetic data comes from the counter-based Philox4x64 generator (NumPy's
``np.random.Philox``) keyed by (seed, stream), so the same profile always
produces the same bytes.
"""

from __future__ import annotations

import contextlib
import io
import math
import mmap
import os
import stat
import struct
import tempfile
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import (
    ParameterError,
    TraceFormatError,
    TraceTruncationError,
    UnsupportedDtypeError,
)
from .linalg import AttentionInputs, _require_finite, _rows_per_give_back, give_back_pages

MAGIC = b"TKV1"
VERSION = 1
DTYPE_FLOAT32 = 0
_HEADER = struct.Struct("<4sHIIIIH")
HEADER_BYTES = _HEADER.size  # 24
_U32_MAX = 2**32 - 1  # the largest dimension the header holds

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

# bytes of float32 rows in a payload piece that is written or drawn at a
# time, and bytes copied from a stream into its temporary file at a time
_STREAM_CHUNK = 1 << 20


# the header fields that give the trace's shape (R, n, N, d)
_DIMS = ("num_layers", "num_heads", "seq_len", "head_dim")


@dataclass(frozen=True)
class TraceHeader:
    """A trace's shape; `pack` writes the format's `VERSION` and `DTYPE_FLOAT32`."""

    num_layers: int
    num_heads: int
    seq_len: int
    head_dim: int

    def __post_init__(self):
        for name in _DIMS:
            if not 1 <= getattr(self, name) <= _U32_MAX:
                raise ParameterError(f"{name} must be in [1, 2^32 - 1]")

    @property
    def shape(self) -> tuple[int, int, int, int, int]:
        """The payload's layout, (R, n, 3, N, d): per layer, per head, Q, K, V."""
        return (self.num_layers, self.num_heads, 3, self.seq_len, self.head_dim)

    @property
    def payload_bytes(self) -> int:
        return math.prod(self.shape) * 4

    @property
    def file_bytes(self) -> int:
        return HEADER_BYTES + self.payload_bytes

    @property
    def dims(self) -> dict:
        """R, n, N and d by name, as plans files and reports record them."""
        return {name: getattr(self, name) for name in _DIMS}

    def pack(self) -> bytes:
        return _HEADER.pack(MAGIC, VERSION, *self.dims.values(), DTYPE_FLOAT32)


class AttentionTrace:
    """Per-layer, per-head Q/K/V tensors held in memory; the library's unit of input.

    `data` has shape (R, n, 3, N, d) where axis 2 orders Q, K, V. float32
    input stays float32 (the at-rest form of every file and generator
    trace); any other dtype is widened to float64. `head_inputs` widens one
    head to float64 for computation, which is exact, so every result is the
    same as on a float64 trace of the same values. `data` is a read-only,
    C-contiguous view, so results depend on the values alone, not on the
    caller's memory layout. A C-contiguous float32 or float64 array passed
    in is not copied, and its owner must therefore leave it unchanged. The
    data is checked to be finite; `checked=True` marks data whose every
    value was checked as it was made, such as a drawn trace's.

    Like `TraceReader` and `SyntheticSource`, a trace is a layer source: a
    `header` and `head_reader()`, which gives each head's checked,
    read-only (3, N, d) data.
    """

    def __init__(self, header: TraceHeader, data: np.ndarray, checked: bool = False):
        data = np.asarray(data)
        dtype = np.float32 if data.dtype == np.float32 else np.float64
        data = np.ascontiguousarray(data, dtype=dtype).view()
        if data.shape != header.shape:
            raise TraceFormatError(f"trace data shape {data.shape} != {header.shape}")
        if not checked:
            _require_finite(data, "trace", TraceFormatError)
        data.flags.writeable = False
        self.header = header
        self.data = data

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

    def head_reader(self):
        """For a `with` block, a function of (layer, head) that gives that
        head's checked (3, N, d) block: a view of `data`, which a forked
        worker reads through the memory it shares with its parent."""
        return contextlib.nullcontext(lambda layer, head: self.data[layer, head])

    def pieces(self) -> Iterator[tuple[int, np.ndarray]]:
        """The payload as (row, rows) pairs, in order: the data's
        (R n 3 N, d) rows from row `row` on, at most `_STREAM_CHUNK` bytes
        of them as float32."""
        rows = self.data.reshape(-1, self.head_dim)
        for s in _row_slices(len(rows), _piece_rows(self.head_dim)):
            yield s.start, rows[s]

    def head_inputs(self, layer: int, head: int) -> AttentionInputs:
        """One head's Q/K/V in float64 through `widen_head`."""
        return widen_head(self.data[layer, head])

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttentionTrace):
            return NotImplemented
        return self.header == other.header and np.array_equal(self.data, other.data)


def widen_head(block: np.ndarray, queries: int | None = None) -> AttentionInputs:
    """A checked head's (3, N, d) block in float64: K, V and its last
    `queries` query rows (all N by default).

    float32 rows are copied, float64 rows viewed. The values are not checked
    again: every trace and layer source checks its data when it is built
    or read.
    """
    q, k, v = block
    first = 0 if queries is None else len(q) - queries
    widened = (np.asarray(m, dtype=np.float64) for m in (q[first:], k, v))
    return AttentionInputs(*widened, checked=True)


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

    # each kind and the fields it reads besides its seed
    _KINDS = {
        "uniform-random": (),
        "clustered-heads": ("planted", "spread"),
        "planted-needle": ("needle_position", "needle_strength", "tail_len"),
    }

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ParameterError(f"unknown profile kind {self.kind!r}")
        check_seed(self.seed)
        for name in ("spread", "needle_strength"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ParameterError(f"{name} must be a finite number, got {value!r}")
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


def check_seed(seed: int) -> None:
    """Seeds are the non-negative int64 values: numpy would turn a larger
    key word into a float, and two seeds could share one key."""
    if not 0 <= seed < 2**63:
        raise ParameterError(f"seed {seed} outside [0, 2^63)")


def seeded_rng(seed: int, stream: int) -> np.random.Generator:
    """The Philox4x64 generator keyed by (seed, stream), with the seed checked."""
    check_seed(seed)
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def clustered_planted_heads(
    profile: SyntheticProfile, num_layers: int, num_heads: int
) -> list[list[int]]:
    """Planted (heterogeneous) head indices per layer, the generator's ground truth."""
    if profile.kind != "clustered-heads":
        raise ParameterError("planted heads only exist for clustered-heads profiles")
    rng = seeded_rng(profile.seed, _STREAM_PLANTED)
    return [
        sorted(rng.permutation(num_heads)[: profile.planted].tolist())
        for _ in range(num_layers)
    ]


def _piece_rows(head_dim: int) -> int:
    """Rows in a payload piece: `_STREAM_CHUNK` bytes of float32 rows, or
    one row when a row is larger."""
    return max(1, _STREAM_CHUNK // (4 * head_dim))


def _row_slices(rows: int, step: int) -> Iterator[slice]:
    """`rows` rows as consecutive slices of at most `step` rows."""
    return (slice(i, min(i + step, rows)) for i in range(0, rows, step))


def _drawn_pieces(first: int, rows: int, fill, scratch: np.ndarray, piece: np.ndarray):
    """Payload rows [first, first + rows) as checked (row, piece) pairs.

    Each slice `s` of at most `len(scratch)` of the rows is filled in
    float64 by `fill(part, s)`, `part` the float64 `scratch`'s first rows,
    then stored in the float32 `piece`, which the next slice overwrites.
    """
    for s in _row_slices(rows, len(scratch)):
        part = scratch[: s.stop - s.start]
        fill(part, s)
        out = piece[: len(part)]
        with np.errstate(over="ignore"):  # past float32's range is inf, rejected here
            out[...] = part
        _require_finite(out, "trace", TraceFormatError)
        yield first + s.start, out


def _constant(value: np.ndarray):
    """The fill of rows that all hold `value`."""

    def fill(part: np.ndarray, _rows: slice) -> None:
        part[...] = value

    return fill


def _clustered_values(
    rng: np.random.Generator, seq_len: int, axis: int, amp: float, spread: float
):
    """The fill of a clustered head's V: rows mags[i] times the unit vector
    along `axis`, plus `spread` times standard normal noise. The (N,)
    magnitudes are drawn now, before any of the noise."""
    mags = rng.uniform(-1.0, 1.0, size=seq_len)
    mags *= amp
    mags += _CLUSTER_BASE

    def fill(part: np.ndarray, rows: slice) -> None:
        if spread > 0:
            rng.standard_normal(out=part)
            part *= spread
            part += 0.0  # a -0.0 product is +0.0, as when the noise is added to zeros
        else:
            part.fill(0.0)
        part[:, axis] += mags[rows]

    return fill


class SyntheticSource:
    """A seeded synthetic trace drawn one piece of rows at a time, never held whole.

    The profile is checked against the shape on construction. `pieces()`
    draws the payload as (row, piece) pairs: `piece` holds float32 rows of
    the payload's (R n 3 N, d) rows from row `row` on, at most
    `_STREAM_CHUNK` bytes of them, drawn through one float64 scratch of the
    same rows and checked for NaN/Inf (a profile whose values overflow
    float32), so that no writer writes a value a reader would reject. The
    pieces come in one Philox order, so `write_trace` and
    `gen_synthetic_trace` give the same bytes, and each piece is one reused
    buffer that the next draw overwrites. A planted-needle head's needle
    axis is drawn after its V, so its Q tail rows and K needle row come
    again after its V pieces, to be written over the normals drawn there
    first: `write_trace` seeks back to them, so it needs a seekable sink
    for such a source.

    `head_reader()` writes the trace with `write_trace` into an unlinked
    temporary file, which needs the payload's bytes of space in the
    temporary directory, and reads that file's mapped heads unchecked.
    """

    def __init__(self, profile: SyntheticProfile, shape: tuple[int, int, int, int]):
        num_layers, num_heads, seq_len, head_dim = shape
        self.header = TraceHeader(num_layers, num_heads, seq_len, head_dim)
        self.profile = profile
        self._planted = None
        if profile.kind == "clustered-heads":
            if profile.planted >= num_heads:
                raise ParameterError("clustered-heads needs planted < num_heads")
            if head_dim < profile.planted + 1:
                raise ParameterError(
                    f"clustered-heads needs head_dim >= planted + 1, got d={head_dim}"
                )
            self._planted = clustered_planted_heads(profile, num_layers, num_heads)
        if profile.kind == "planted-needle":
            tail = min(profile.tail_len, seq_len)
            if profile.needle_position > seq_len - tail:
                raise ParameterError(
                    f"needle at {profile.needle_position} not visible to all of the "
                    f"last {tail} rows of a length-{seq_len} sequence"
                )

    def pieces(self) -> Iterator[tuple[int, np.ndarray]]:
        """The drawn payload's checked (row, piece) pairs, in one Philox
        order: a needle head's rewritten rows follow its V."""
        header, profile = self.header, self.profile
        seq_len, head_dim = header.seq_len, header.head_dim
        rng = seeded_rng(profile.seed, _STREAM_DATA)
        scratch = np.empty((min(_piece_rows(head_dim), seq_len), head_dim))
        buffers = scratch, np.empty(scratch.shape, dtype=np.float32)

        def normals(part: np.ndarray, _rows: slice) -> None:
            rng.standard_normal(out=part)

        def values(r: int, h: int):
            """The fill of layer r's head h's V rows. Called in the V draw's
            arguments, so only that draw holds a clustered head's magnitudes."""
            if self._planted is None:
                return normals
            planted = self._planted[r]
            if h in planted:
                axis, amp = 1 + planted.index(h), _CLUSTER_AMP_PLANTED
            else:
                axis, amp = 0, _CLUSTER_AMP_COMMON
            return _clustered_values(rng, seq_len, axis, amp, profile.spread)

        for head in range(header.num_layers * header.num_heads):
            q = 3 * seq_len * head  # the payload row of the head's first query row
            k, v = q + seq_len, q + 2 * seq_len
            yield from _drawn_pieces(q, seq_len, normals, *buffers)
            yield from _drawn_pieces(k, seq_len, normals, *buffers)
            yield from _drawn_pieces(
                v, seq_len, values(*divmod(head, header.num_heads)), *buffers
            )
            if profile.kind == "planted-needle":
                # align the tail queries and the needle key with one axis
                axis = rng.standard_normal(head_dim)
                axis /= np.linalg.norm(axis)
                tail = min(profile.tail_len, seq_len)
                query = np.sqrt(head_dim) * axis
                yield from _drawn_pieces(k - tail, tail, _constant(query), *buffers)
                with np.errstate(over="ignore"):  # an inf is rejected once drawn
                    key = profile.needle_strength * np.sqrt(head_dim) * axis
                row = k + profile.needle_position
                yield from _drawn_pieces(row, 1, _constant(key), *buffers)

    @contextlib.contextmanager
    def head_reader(self):
        """`TraceReader.head` of the trace drawn into an unlinked temporary
        file, for a `with` block: a worker forked from the run maps that
        file through the descriptor it inherits."""
        with tempfile.TemporaryFile() as spool:
            yield self.drawn_into(spool).head

    def drawn_into(self, file) -> "TraceReader":
        """Write the trace into `file`, open for binary writing and reading,
        and return a reader of it whose values are not checked again:
        `pieces()` checked every value as it was drawn."""
        write_trace(self, file)
        file.seek(0)  # flushes what is buffered, for the mapping
        return TraceReader(file, checked=True)


def gen_synthetic_trace(
    profile: SyntheticProfile, shape: tuple[int, int, int, int]
) -> AttentionTrace:
    """Build a seeded synthetic trace of shape (R, n, N, d), held in float32.

    Each of `SyntheticSource.pieces()` is copied into the trace as it is
    drawn, so the peak is the float32 trace plus one piece, its float64
    scratch and a clustered head's (N,) magnitudes. The pieces were
    checked as they were drawn, so the trace does not check them again.
    """
    source = SyntheticSource(profile, shape)
    data = np.empty(source.header.shape, dtype=np.float32)
    rows = data.reshape(-1, source.header.head_dim)
    for first, piece in source.pieces():
        rows[first : first + len(piece)] = piece
    return AttentionTrace(source.header, data, checked=True)


def write_trace(trace, destination) -> int:
    """Write an `AttentionTrace` or a `SyntheticSource` to a path or binary
    sink; returns the byte count, the header's `file_bytes`.

    The header is written, then each of `pieces()` in turn, each at most
    `_STREAM_CHUNK` bytes of float32 rows: float32 data straight from its
    buffer, other data narrowed one piece at a time, and a synthetic
    source's pieces as soon as they are drawn. A piece for rows already
    written (a planted needle's) is written over them, by a seek back and
    forth, so only such a source needs a seekable sink. A short write
    raises `IOError`.
    """
    header = trace.header
    row_bytes = 4 * header.head_dim
    with contextlib.ExitStack() as stack:
        if isinstance(destination, (str, os.PathLike)):
            destination = stack.enter_context(open(destination, "wb"))
        written = destination.write(header.pack())
        for first, piece in trace.pieces():
            behind = written - HEADER_BYTES - first * row_bytes
            if behind:
                _write_back(destination, behind, _float32_bytes(piece))
            else:
                written += destination.write(_float32_bytes(piece))
    if written != header.file_bytes:
        raise IOError(f"short write: {written} of {header.file_bytes} bytes")
    return written


def _float32_bytes(piece: np.ndarray) -> np.ndarray:
    """`piece`'s little-endian float32 bytes: its own buffer when it is
    float32, else a narrowed copy."""
    return np.asarray(piece, dtype="<f4").view(np.uint8)


def _write_back(destination, behind: int, data: np.ndarray) -> None:
    """Write `data` over the bytes of `destination` that start `behind`
    bytes before its position, then return to that position."""
    end = destination.tell()
    destination.seek(end - behind)
    if destination.write(data) != data.nbytes:
        raise IOError(f"short write: {data.nbytes} bytes not written back")
    destination.seek(end)


@contextlib.contextmanager
def given_back(view: np.ndarray) -> Iterator[np.ndarray]:
    """`view`, for a `with` block that reads it, its pages given back
    (`give_back_pages`) when the block ends, by an error too."""
    try:
        yield view
    finally:
        give_back_pages(view)


class TraceReader:
    """A .tkv trace read one head at a time from a path, binary stream or bytes.

    The header is read and checked on construction, and so is the payload's
    size, before any layer is read. A source that is not a regular file
    (bytes, `BytesIO`, a pipe or any other stream) is first copied into an
    unlinked temporary file, `_STREAM_CHUNK` bytes at a time and no more
    than the header's payload, and from then on read like any trace file.
    So a stream needs that much free space in the temporary directory, its
    first head is read only once its whole payload has arrived, and one
    that ends early fails here with the bytes it held.

    Heads are contiguous in the payload, so `head` gives any head's
    float32 (3, N, d) block, checked and read-only. The file is mapped
    read-only and never copied: each block is a view of the mapping. Each
    of a block's Q, K and V is checked `_GIVE_BACK_BYTES` of rows at a
    time, each stretch given back once checked, and a pass that reads the
    block gives its pages back when done with it (`given_back`), so a
    command's peak is a few MiB of one of a head's arrays and that head's
    temporaries, not a layer's payload. A block kept past `close()` still
    reads the file's values. The file must not be truncated or rewritten in
    place while it is read: a layer cut off before its first head is read
    raises `TraceTruncationError`, but a change under a block already
    given is not seen.

    `checked=True` marks a file whose values were checked as they were
    written, a drawn trace's, which `head` does not check again. As a
    context manager the reader closes a file it opened.
    """

    def __init__(self, source, checked: bool = False):
        self._checked = checked
        self._head_mapping = None  # `head`'s, made at its first call
        self._released = 0  # its bytes before this have left the process
        if isinstance(source, (bytes, bytearray)):
            source = io.BytesIO(source)
        if isinstance(source, (str, os.PathLike)):
            stream, self._owned = open(source, "rb"), True
        else:
            stream, self._owned = source, False
        self._stream = stream
        try:
            self.header = _read_header(stream)
            if not _is_regular_file(stream):
                spool = _spooled(stream, self.header)
                self.close()
                self._stream, self._owned = spool, True
            self._start = self._stream.tell()
            left = os.fstat(self._stream.fileno()).st_size - self._start
            if left < self.header.payload_bytes:
                raise TraceTruncationError(self.header.payload_bytes, left)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        if self._owned:
            self._stream.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def head_reader(self):
        """For a `with` block, `head`, which a forked worker can call."""
        return contextlib.nullcontext(self.head)

    def head(self, layer: int, head: int) -> np.ndarray:
        """Layer `layer`'s head `head`, a read-only float32 (3, N, d) block
        of a mapping of the file made at the first call: a worker forked
        from a reader that has not called it maps the file itself, through
        the descriptor it inherits. Each of the block's Q, K and V is
        checked (`_check_rows`), and the whole layer must lie inside the
        file (`_layer_offset`). The pages wholly before the block's first
        one leave the process: a pass reads heads in order, and the page
        across a block's edge, which neither block gives back whole, would
        otherwise stay for the rest of the pass."""
        if self._head_mapping is None:  # up to the payload's end
            size = self._start + self.header.payload_bytes
            self._head_mapping = mmap.mmap(self._stream.fileno(), size, access=mmap.ACCESS_READ)
        shape = self.header.shape[2:]
        count = math.prod(shape)
        first = self._layer_offset(layer) + 4 * count * head
        page = first - first % mmap.PAGESIZE
        if page > self._released:  # the file's values come back if read again
            self._head_mapping.madvise(mmap.MADV_DONTNEED, self._released, page - self._released)
            self._released = page
        block = np.frombuffer(self._head_mapping, "<f4", count, first).reshape(shape)
        if not self._checked:
            for array in block:
                _check_rows(array)
        return block

    def _layer_offset(self, layer: int) -> int:
        """The file offset of layer `layer`'s first byte; the file must hold
        the whole layer, since touching a mapped page past the end of the
        file would be a SIGBUS."""
        layer_bytes = self.header.payload_bytes // self.header.num_layers
        first = self._start + layer * layer_bytes
        size = os.fstat(self._stream.fileno()).st_size
        if size < first + layer_bytes:
            raise TraceTruncationError(self.header.payload_bytes, max(size - self._start, 0))
        return first


def _check_rows(array: np.ndarray) -> None:
    """Raise `TraceFormatError` unless every value of a mapped (N, d)
    `array` is finite. Its rows are checked `_GIVE_BACK_BYTES` at a time,
    and the rows checked so far are given back after each stretch, by an
    error too, so a check holds one stretch of the array and a page."""
    step = _rows_per_give_back(array)
    for rows in _row_slices(len(array), step):
        with given_back(array[: rows.stop]):
            _require_finite(array[rows], "trace", TraceFormatError)


def _spooled(stream, header: TraceHeader):
    """An unlinked temporary trace file holding `header` and the payload
    that follows it in `stream`, positioned at the payload. At most the
    payload's bytes are read, `_STREAM_CHUNK` at a time; a stream that ends
    before them raises `TraceTruncationError` with the bytes received."""
    spool = tempfile.TemporaryFile()
    try:
        spool.write(header.pack())
        left = header.payload_bytes
        chunk = memoryview(bytearray(min(_STREAM_CHUNK, left)))
        while left:
            got = _read_into(stream, chunk[: min(left, len(chunk))])
            if not got:
                raise TraceTruncationError(header.payload_bytes, header.payload_bytes - left)
            spool.write(chunk[:got])
            left -= got
        spool.seek(HEADER_BYTES)  # flushes what is buffered, for the mapping
    except BaseException:
        spool.close()
        raise
    return spool


def read_trace(source) -> AttentionTrace:
    """Read a whole trace from a path, binary stream, or bytes; the data stays float32.

    Each of `TraceReader.head`'s checked blocks is copied into one array
    and given back, so the peak is the payload, each value is checked
    once, and a trace that outlives the read is not a mapping of a file
    that `write_trace` may later rewrite in place.
    """
    with TraceReader(source) as reader:
        data = np.empty(reader.header.shape, dtype=np.float32)
        for r, h in np.ndindex(data.shape[:2]):
            with given_back(reader.head(r, h)) as block:
                data[r, h] = block
    return AttentionTrace(reader.header, data, checked=True)


def _read_header(stream) -> TraceHeader:
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
        return TraceHeader(layers, heads, seq_len, head_dim)
    except ParameterError as exc:
        raise TraceFormatError(str(exc)) from exc


def _is_regular_file(stream) -> bool:
    try:
        return stat.S_ISREG(os.fstat(stream.fileno()).st_mode)
    except (AttributeError, OSError):  # io.UnsupportedOperation is an OSError
        return False


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
