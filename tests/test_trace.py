"""Trace format round-trips, corruption handling, synthetic ground truths."""

import contextlib
import dataclasses
import functools
import hashlib
import io
import os
import tracemalloc

import numpy as np
import pytest

from semkv.errors import (
    ParameterError,
    TraceFormatError,
    TraceTruncationError,
    UnsupportedDtypeError,
)
from semkv import harness
from semkv.allocator import PolicyKind
from semkv.harness import _HeadNumerators, RunConfig, score_plans
from semkv.separator import approx_semantic_vector, column_scores, head_distances
from semkv.trace import (
    _STREAM_CHUNK,
    HEADER_BYTES,
    AttentionTrace,
    SyntheticProfile,
    SyntheticSource,
    TraceHeader,
    TraceReader,
    clustered_planted_heads,
    gen_synthetic_trace,
    give_back_pages,
    given_back,
    read_trace,
    seeded_rng,
    write_trace,
)

import reference


def trace_bytes(trace):
    buf = io.BytesIO()
    write_trace(trace, buf)
    return buf.getvalue()


def vm_rss() -> int:
    """This process's resident set in bytes, mapped file pages included."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024
    raise AssertionError("no VmRSS line in /proc/self/status")


def mapped_rss(path) -> int:
    """This process's resident bytes of its mappings of the file at `path`,
    the Rss lines of /proc/self/smaps under that file's mappings."""
    name, total, inside = os.path.realpath(path), 0, False
    with open("/proc/self/smaps") as smaps:
        for line in smaps:
            key = line.split(maxsplit=1)[0]
            if "-" in key and not key.endswith(":"):  # a mapping's address range
                inside = line.rstrip("\n").endswith(" " + name)
            elif inside and key == "Rss:":
                total += int(line.split()[1]) * 1024
    return total


# a mapped trace's pages that may stay resident per head once its block is
# given back: one 2 MiB huge page. The kernel may map a file's pages a huge
# page at a time, so the one across a head block's edge, which neither
# block gives back whole, can stay or come back with its neighbour
PAGE_SLACK_PER_HEAD = 2 << 20


class TrickleStream(io.RawIOBase):
    """Non-seekable stream that returns at most `step` bytes per read, like a pipe."""

    def __init__(self, data, step=7):
        self._source = io.BytesIO(data)
        self._step = step

    def readable(self):
        return True

    def readinto(self, buffer):
        return self._source.readinto(memoryview(buffer)[: self._step])


class TestFileFormat:
    def test_header_is_24_bytes(self):
        assert HEADER_BYTES == 24
        assert len(TraceHeader(1, 1, 1, 1).pack()) == 24

    def test_minimal_trace_size(self):
        trace = gen_synthetic_trace(SyntheticProfile("uniform-random", seed=1), (1, 1, 1, 1))
        data = trace_bytes(trace)
        # 3 tensors x 1 float32 payload after the header
        assert len(data) == HEADER_BYTES + 12

    def test_payload_size_arithmetic(self):
        trace = gen_synthetic_trace(SyntheticProfile("uniform-random", seed=2), (2, 4, 16, 8))
        assert trace.header.payload_bytes == 2 * 4 * 3 * 16 * 8 * 4 == 12288
        assert len(trace_bytes(trace)) == HEADER_BYTES + 12288

    def test_write_returns_byte_count(self, tmp_path):
        trace = gen_synthetic_trace(SyntheticProfile("uniform-random", seed=3), (1, 2, 4, 3))
        path = tmp_path / "t.tkv"
        assert write_trace(trace, path) == trace.header.file_bytes == path.stat().st_size

    @pytest.mark.parametrize(
        "shape", [(1, 1, 1, 1), (1, 2, 1, 3), (2, 1, 4, 1), (3, 2, 5, 2), (2, 4, 16, 8)]
    )
    def test_round_trip_bit_identical(self, shape, tmp_path):
        trace = gen_synthetic_trace(
            SyntheticProfile("uniform-random", seed=sum(shape)), shape
        )
        path = tmp_path / "t.tkv"
        write_trace(trace, path)
        again = read_trace(path)
        assert again == trace
        assert trace_bytes(again) == trace_bytes(trace)

    def test_read_keeps_float32(self):
        # the trace holds the file's float32 values
        trace = gen_synthetic_trace(SyntheticProfile("uniform-random", seed=5), (1, 1, 3, 2))
        again = read_trace(trace_bytes(trace))
        assert again.data.dtype == np.float32
        assert np.array_equal(again.data, trace.data)

    def test_bad_magic(self):
        data = bytearray(
            trace_bytes(gen_synthetic_trace(SyntheticProfile("uniform-random", seed=6), (1, 1, 2, 2)))
        )
        data[:4] = b"XKV1"
        with pytest.raises(TraceFormatError):
            read_trace(bytes(data))

    def test_truncated_payload_names_byte_counts(self):
        data = trace_bytes(
            gen_synthetic_trace(SyntheticProfile("uniform-random", seed=7), (1, 1, 2, 2))
        )
        with pytest.raises(TraceTruncationError) as err:
            read_trace(data[:-4])
        assert str(1 * 1 * 3 * 2 * 2 * 4) in str(err.value)
        assert str(1 * 1 * 3 * 2 * 2 * 4 - 4) in str(err.value)

    def test_non_seekable_stream_with_short_reads(self):
        trace = gen_synthetic_trace(SyntheticProfile("uniform-random", seed=9), (2, 3, 4, 3))
        assert read_trace(TrickleStream(trace_bytes(trace))) == trace

    @pytest.mark.parametrize("cut", [1, 10, 500])
    @pytest.mark.parametrize("wrap", [bytes, TrickleStream], ids=["bytes", "trickle"])
    def test_truncation_past_the_first_head_block_counts_every_byte(self, cut, wrap):
        data = trace_bytes(
            gen_synthetic_trace(SyntheticProfile("uniform-random", seed=7), (2, 3, 4, 3))
        )
        payload = len(data) - HEADER_BYTES
        with pytest.raises(TraceTruncationError) as err:
            read_trace(wrap(data[:-cut]))
        assert (err.value.expected, err.value.actual) == (payload, payload - cut)
        assert f"expected {payload} bytes, got {payload - cut}" in str(err.value)

    def test_header_claiming_more_than_the_stream_holds(self, tmp_path):
        # 12 TB of declared payload fails as truncation, before any allocation
        header = TraceHeader(1000, 1000, 1000, 1000).pack()
        path = tmp_path / "t.tkv"
        path.write_bytes(header + bytes(64))
        for source in (header + bytes(64), path):
            with pytest.raises(TraceTruncationError) as err:
                read_trace(source)
            assert (err.value.expected, err.value.actual) == (12 * 10**12, 64)

    def test_non_seekable_header_claiming_more_than_arrives(self):
        # the stream's size is unknown, so nothing is allocated for the
        # 12 TB the header declares; the 64 bytes that arrive are counted
        header = TraceHeader(1000, 1000, 1000, 1000).pack()
        with pytest.raises(TraceTruncationError) as err:
            read_trace(TrickleStream(header + bytes(64)))
        assert (err.value.expected, err.value.actual) == (12 * 10**12, 64)
        assert f"expected {12 * 10**12} bytes, got 64" in str(err.value)

    def test_non_seekable_stream_allocates_only_what_arrives(self):
        # one whole layer arrives, then the stream ends: nothing is allocated
        # for the 13 TB of further layers the header declares
        header = TraceHeader(2**32 - 1, 4, 16, 4)
        layer = 4 * 3 * 16 * 4 * 4
        with pytest.raises(TraceTruncationError) as err:
            read_trace(TrickleStream(header.pack() + bytes(layer)))
        assert (err.value.expected, err.value.actual) == (header.payload_bytes, layer)

    @pytest.mark.parametrize("dim", range(4))
    def test_dimensions_beyond_the_u32_header_are_rejected(self, dim):
        dims = [1, 1, 1, 1]
        dims[dim] = 2**32
        with pytest.raises(ParameterError, match=r"must be in \[1, 2\^32 - 1\]"):
            TraceHeader(*dims)
        dims[dim] = 2**32 - 1
        assert len(TraceHeader(*dims).pack()) == HEADER_BYTES

    @pytest.mark.parametrize("version", [0, 2, 9])
    def test_unknown_version_rejected(self, version):
        data = bytearray(
            trace_bytes(gen_synthetic_trace(SyntheticProfile("uniform-random", seed=8), (1, 1, 2, 2)))
        )
        data[4:6] = version.to_bytes(2, "little")
        with pytest.raises(TraceFormatError, match=f"version {version}"):
            read_trace(bytes(data))

    def test_truncated_header(self):
        with pytest.raises(TraceTruncationError):
            read_trace(b"TKV1\x01")

    def test_unknown_dtype(self):
        data = bytearray(
            trace_bytes(gen_synthetic_trace(SyntheticProfile("uniform-random", seed=8), (1, 1, 2, 2)))
        )
        data[22] = 9
        with pytest.raises(UnsupportedDtypeError):
            read_trace(bytes(data))

    @pytest.mark.parametrize("field", ["version", "dtype_code"])
    def test_header_holds_only_the_dimensions(self, field):
        # a header that could hold another version or dtype code would write
        # a file the reader rejects; the header is the shape, the format the rest
        with pytest.raises(TypeError):
            TraceHeader(1, 1, 4, 2, **{field: 7})
        header = TraceHeader(1, 1, 4, 2)
        assert [f.name for f in dataclasses.fields(header)] == list(header.dims)
        buf = io.BytesIO()
        write_trace(AttentionTrace(header, np.zeros((1, 1, 3, 4, 2))), buf)
        assert read_trace(buf.getvalue()).header == header


class TestSyntheticDeterminism:
    @pytest.mark.parametrize("kind", ["uniform-random", "clustered-heads", "planted-needle"])
    def test_same_profile_same_bytes(self, kind):
        shape = (2, 4, 64, 8)
        profile = SyntheticProfile(kind, seed=99, planted=2, needle_position=7, tail_len=16)
        a = trace_bytes(gen_synthetic_trace(profile, shape))
        b = trace_bytes(gen_synthetic_trace(profile, shape))
        assert a == b

    def test_different_seeds_differ(self):
        shape = (1, 2, 8, 4)
        a = trace_bytes(gen_synthetic_trace(SyntheticProfile("uniform-random", seed=1), shape))
        b = trace_bytes(gen_synthetic_trace(SyntheticProfile("uniform-random", seed=2), shape))
        assert a != b

    @pytest.mark.parametrize("seed", [-1, 2**63, 2**63 + 1, 2**64])
    def test_seeds_outside_int64_are_rejected(self, seed):
        # numpy would take 2^63 and 2^63 + 1 as one float key, with a warning
        with pytest.raises(ParameterError, match=r"outside \[0, 2\^63\)"):
            SyntheticProfile("uniform-random", seed=seed)
        with pytest.raises(ParameterError, match=r"outside \[0, 2\^63\)"):
            seeded_rng(seed, 0)


class TestFrozenBytes:
    """Generator output is fixed: these digests were taken from an earlier
    generator that drew each layer separately and quantized the stacked
    array at the end."""

    CASES = [
        ("uniform-random", dict(seed=21), (2, 3, 40, 5),
         "8df6446d38b6e9bf6dd50ba960569a7730e1eb0aa4a600fcb14911bdb0bc0cd2"),
        ("uniform-random", dict(seed=22), (1, 2, 9, 1),
         "35ac3936af86e16293ede4fa37c898c3779ade29202e043ffdeec03ced251710"),
        ("clustered-heads", dict(seed=23, planted=2), (2, 4, 40, 5),
         "76c23e102c3410ae7236a410fb6915053e857bcd99661784dc964da09fe0d4fe"),
        ("clustered-heads", dict(seed=24, planted=1, spread=0.1), (2, 4, 40, 5),
         "ab23791610f44400f81bbc556641692019ab6e4376a5e27436d14bb7ccc85601"),
        ("planted-needle", dict(seed=25, needle_position=5, tail_len=8), (2, 3, 40, 5),
         "0a7813153e196e6c8d66bba35daec67a91a36538855790b40dd4f996c94351ab"),
        # the smallest spread: most noise products round to zero, and the
        # negative ones to -0.0, which V holds as +0.0
        ("clustered-heads", dict(seed=26, planted=1, spread=5e-324), (2, 4, 40, 5),
         "89e903083aa3fe94935f8753e9d160272239a3f3d330a51a9590427ea611f41a"),
    ]

    @pytest.mark.parametrize(
        "kind, fields, shape, digest", CASES,
        ids=["uniform", "uniform-d1", "clustered", "clustered-spread", "needle",
             "clustered-subnormal-spread"],
    )
    def test_written_bytes_match_frozen_digest(self, kind, fields, shape, digest):
        data = trace_bytes(gen_synthetic_trace(SyntheticProfile(kind, **fields), shape))
        assert hashlib.sha256(data).hexdigest() == digest


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def drawn_bound(shape):
    """What drawing a trace of `shape` may hold besides what it returns:
    one float32 piece of rows, its float64 scratch, a clustered head's
    (N,) float64 magnitudes, and slack for the generator's state and file
    buffering. No term grows with the trace but the magnitudes."""
    _, _, seq_len, head_dim = shape
    rows = min(_STREAM_CHUNK // (4 * head_dim), seq_len)
    return rows * head_dim * (4 + 8) + 8 * seq_len + 64 * 1024


class TestBoundedMemory:
    SHAPE = (2, 8, 256, 16)
    # one head's Q/K/V block in float64
    HEAD_BLOCK = 3 * 256 * 16 * 8
    KINDS = ["uniform-random", "clustered-heads", "planted-needle"]

    @staticmethod
    def profile(kind):
        return SyntheticProfile(kind, seed=6, planted=1, spread=0.1, tail_len=16)

    @pytest.fixture
    def warm(self):
        for kind in self.KINDS:  # numpy's first-use imports
            write_trace(SyntheticSource(self.profile(kind), (1, 2, 64, 4)), io.BytesIO())

    @pytest.mark.parametrize("kind", KINDS)
    def test_generator_peak_is_data_plus_one_piece(self, warm, kind):
        # each array is 4 MiB in float32, four pieces
        shape = (1, 2, 16384, 64)
        trace, peak = traced_peak(gen_synthetic_trace, self.profile(kind), shape)
        assert peak <= trace.data.nbytes + drawn_bound(shape)

    @pytest.mark.parametrize("kind", KINDS)
    def test_drawn_peak_does_not_grow_with_seq_len(self, warm, tmp_path, kind):
        # a head's block is 3 MiB at N = 4096 and 24 MiB at N = 32768
        for shape in [(1, 2, 4096, 64), (1, 2, 32768, 64)]:
            source = SyntheticSource(self.profile(kind), shape)
            written, peak = traced_peak(write_trace, source, tmp_path / "t.tkv")
            assert written == source.header.file_bytes
            assert peak <= drawn_bound(shape)

    def test_writer_narrows_one_piece_at_a_time(self, tmp_path):
        # a float64 trace whose head block is 6 MiB in float32: each piece
        # is narrowed to a float32 copy of at most 1 MiB and written
        shape = (1, 2, 8192, 64)
        trace = gen_synthetic_trace(self.profile("uniform-random"), shape)
        wide = AttentionTrace(trace.header, trace.data.astype(np.float64))
        path = tmp_path / "t.tkv"
        _, peak = traced_peak(write_trace, wide, path)
        assert peak <= _STREAM_CHUNK + 64 * 1024
        assert path.read_bytes() == trace_bytes(trace)

    def test_reader_peak_is_data_plus_one_head_block(self, tmp_path):
        path = tmp_path / "t.tkv"
        trace = gen_synthetic_trace(SyntheticProfile("uniform-random", seed=5), self.SHAPE)
        write_trace(trace, path)
        trace, peak = traced_peak(read_trace, path)
        assert peak <= trace.data.nbytes + self.HEAD_BLOCK


class TestClusteredHeads:
    def test_planted_heads_are_farthest(self):
        profile = SyntheticProfile("clustered-heads", seed=31, planted=2)
        data = gen_synthetic_trace(profile, (3, 8, 64, 8)).data.astype(np.float64)
        planted = clustered_planted_heads(profile, 3, 8)
        for r in range(3):
            vecs = [reference.exact_semantic_vector(*block) for block in data[r]]
            _, dist = head_distances(vecs)
            farthest_two = set(np.argsort(-dist)[:2].tolist())
            assert farthest_two == set(planted[r])

    def test_planted_choice_reproducible(self):
        profile = SyntheticProfile("clustered-heads", seed=4, planted=3)
        assert clustered_planted_heads(profile, 4, 8) == clustered_planted_heads(profile, 4, 8)

    def test_planted_must_fit_head_count(self):
        profile = SyntheticProfile("clustered-heads", seed=0, planted=4)
        with pytest.raises(ParameterError):
            gen_synthetic_trace(profile, (1, 4, 8, 8))

    def test_head_dim_must_fit_directions(self):
        profile = SyntheticProfile("clustered-heads", seed=0, planted=4)
        with pytest.raises(ParameterError):
            gen_synthetic_trace(profile, (1, 8, 8, 3))


class TestPlantedNeedle:
    def test_needle_wins_window_argmax_for_every_head(self):
        profile = SyntheticProfile(
            "planted-needle", seed=17, needle_position=7, tail_len=16
        )
        trace = gen_synthetic_trace(profile, (2, 4, 64, 8))
        for block in trace.data.reshape(-1, 3, 64, 8):
            scores = column_scores(_HeadNumerators(block, 16).numerators)
            assert int(np.argmax(scores)) == 7

    def test_needle_visibility_validated(self):
        profile = SyntheticProfile("planted-needle", seed=0, needle_position=60, tail_len=16)
        with pytest.raises(ParameterError):
            gen_synthetic_trace(profile, (1, 2, 64, 4))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            SyntheticProfile("mystery", seed=0)


class TestAttentionTraceContainer:
    def test_head_block_shape(self):
        trace = gen_synthetic_trace(SyntheticProfile("uniform-random", seed=12), (2, 3, 5, 4))
        with trace.head_reader() as heads:
            assert heads(1, 2).shape == (3, 5, 4)

    def test_shape_mismatch_rejected(self):
        header = TraceHeader(1, 1, 2, 2)
        with pytest.raises(TraceFormatError):
            AttentionTrace(header, np.zeros((1, 1, 3, 2, 3)))

    def test_nonfinite_rejected(self):
        header = TraceHeader(1, 1, 2, 2)
        data = np.zeros((1, 1, 3, 2, 2))
        data[0, 0, 0, 0, 0] = np.nan
        with pytest.raises(TraceFormatError):
            AttentionTrace(header, data)


class TestSharedDerivedData:
    def make(self):
        return gen_synthetic_trace(SyntheticProfile("uniform-random", seed=13), (2, 3, 20, 4))

    def test_data_is_read_only(self):
        trace = self.make()
        assert trace.data.flags.writeable is False
        with pytest.raises(ValueError):
            trace.data[0, 0, 0, 0, 0] = 1.0

    def test_caller_array_stays_writeable(self):
        data = np.zeros((1, 1, 3, 2, 2))
        AttentionTrace(TraceHeader(1, 1, 2, 2), data)
        assert data.flags.writeable

    def test_c_contiguous_input_is_shared_other_layouts_copied(self):
        data = np.arange(24.0).reshape(1, 1, 3, 4, 2)
        assert np.shares_memory(AttentionTrace(TraceHeader(1, 1, 4, 2), data).data, data)
        fortran = np.asfortranarray(data)
        trace = AttentionTrace(TraceHeader(1, 1, 4, 2), fortran)
        assert trace.data.flags.c_contiguous
        assert not np.shares_memory(trace.data, fortran)
        np.testing.assert_array_equal(trace.data, data)

    def test_head_blocks_share_float32_and_float64_data(self):
        # a head's pass widens what it reads, so its block is the trace's own memory
        trace = self.make()
        wide = AttentionTrace(trace.header, trace.data.astype(np.float64))
        for source in (trace, wide):
            with source.head_reader() as heads:
                for h in range(3):
                    block = heads(1, h)
                    assert block.dtype == source.data.dtype and not block.flags.writeable
                    assert np.shares_memory(block, source.data)
                    np.testing.assert_array_equal(block, trace.data[1, h])


class TestFloat32AtRest:
    """Files and generators keep float32 values."""

    @pytest.mark.parametrize("kind", ["uniform-random", "clustered-heads", "planted-needle"])
    def test_generator_stores_float32(self, kind):
        profile = SyntheticProfile(kind, seed=41, spread=0.1, tail_len=8)
        assert gen_synthetic_trace(profile, (2, 3, 24, 4)).data.dtype == np.float32

    @pytest.mark.parametrize("wrap", [bytes, io.BytesIO, TrickleStream, "path"])
    def test_reader_stores_float32(self, wrap, tmp_path):
        trace = gen_synthetic_trace(SyntheticProfile("clustered-heads", seed=42), (2, 4, 24, 4))
        data = trace_bytes(trace)
        if wrap == "path":
            source = tmp_path / "t.tkv"
            source.write_bytes(data)
        else:
            source = wrap(data)
        again = read_trace(source)
        assert again.data.dtype == np.float32
        assert again == trace

    def test_float32_shared_other_dtypes_widened(self):
        header = TraceHeader(1, 1, 4, 2)
        values = np.arange(24).reshape(1, 1, 3, 4, 2)
        single = values.astype(np.float32)
        assert np.shares_memory(AttentionTrace(header, single).data, single)
        for other in (values, values.astype(np.float16), single.astype(">f4")):
            trace = AttentionTrace(header, other)
            assert trace.data.dtype == np.float64
            np.testing.assert_array_equal(trace.data, values)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_float32_rejected(self, bad):
        data = np.zeros((1, 2, 3, 4, 2), dtype=np.float32)
        data[0, 1, 2, 3, 1] = bad
        with pytest.raises(TraceFormatError):
            AttentionTrace(TraceHeader(1, 2, 4, 2), data)

    # one head's Q/K/V block is 768 KiB in float32 and 1.5 MiB in float64
    SHAPE = (1, 2, 4096, 16)
    SLACK = 64 * 1024

    def test_reader_peak_is_the_float32_data(self, tmp_path):
        path = tmp_path / "t.tkv"
        profile = SyntheticProfile("uniform-random", seed=43)
        write_trace(gen_synthetic_trace(profile, self.SHAPE), path)
        trace, peak = traced_peak(read_trace, path)
        assert trace.data.dtype == np.float32
        assert peak <= trace.data.nbytes + self.SLACK

    def test_writer_copies_no_float32_block(self, tmp_path):
        trace = gen_synthetic_trace(SyntheticProfile("uniform-random", seed=44), self.SHAPE)
        _, peak = traced_peak(write_trace, trace, tmp_path / "t.tkv")
        assert peak <= self.SLACK


class TestLayerSources:
    """Readers and generators give any head of a trace, checked, from a
    mapped file, and fail at the first head they cannot give."""

    SHAPE = (3, 4, 40, 6)
    KINDS = ["uniform-random", "clustered-heads", "planted-needle"]

    @staticmethod
    def profile(kind):
        return SyntheticProfile(kind, seed=51, planted=1, spread=0.1, tail_len=8)

    def test_a_head_pass_reads_only_the_trailing_query_rows(self):
        block = gen_synthetic_trace(self.profile("uniform-random"), self.SHAPE).data[2, 1].copy()
        numerators = _HeadNumerators(block, 5).numerators
        assert numerators.shape == (40, 5)
        block[0, :35] = np.nan
        assert _HeadNumerators(block, 5).numerators.tobytes() == numerators.tobytes()

    @staticmethod
    def heads(source):
        """Each head's block of `source`, a layer source, in payload order,
        copied from its `head_reader`."""
        r, n = source.header.shape[:2]
        with source.head_reader() as heads:
            return [heads(layer, head).copy() for layer, head in np.ndindex(r, n)]

    # a file of four 15.7 MB layers of 3.9 MB head blocks, and what the
    # resident set may gain over one block (allocator and page-table
    # noise) while a pass reads it
    MAPPED_SHAPE = (4, 4, 4096, 80)
    RSS_SLACK = 8 << 20

    @pytest.mark.parametrize(
        "wrap",
        # the pipe-like stream reads an odd number of bytes at a time, so its
        # reads straddle the reader's chunks; 7 at a time would take seconds here
        [bytes, io.BytesIO, functools.partial(TrickleStream, step=65521), "path", "file"],
        ids=["bytes", "BytesIO", "TrickleStream", "path", "file"],
    )
    def test_reader_gives_each_head_of_a_mapped_file(self, wrap, tmp_path):
        # every source is read from a mapped file, its own or a temporary
        # copy of a stream, so a pass that gives each head back once read
        # holds one head block at a time
        trace = gen_synthetic_trace(self.profile("clustered-heads"), self.MAPPED_SHAPE)
        with contextlib.ExitStack() as stack:
            if wrap in ("path", "file"):
                source = tmp_path / "t.tkv"
                write_trace(trace, source)
                if wrap == "file":
                    source = stack.enter_context(open(source, "rb"))
            else:
                source = wrap(trace_bytes(trace))
            base = vm_rss()
            reader = stack.enter_context(TraceReader(source))
            assert reader.header == trace.header
            heads, growth = stack.enter_context(reader.head_reader()), 0
            for r, h in np.ndindex(self.MAPPED_SHAPE[:2]):
                with given_back(heads(r, h)) as block:
                    growth = max(growth, vm_rss() - base)
                    assert block.dtype == np.float32 and not block.flags.writeable
                    assert np.array_equal(block, trace.data[r, h])
        assert growth <= trace.data[0, 0].nbytes + self.RSS_SLACK

    def test_stream_fed_head_passes_hold_one_head_block(self):
        # a 25 MB layer: the stream is copied to a temporary file a chunk at
        # a time, so reading it and passing over its heads never allocates
        # more than one head's float64 block and the copy's chunk
        shape = (2, 8, 4096, 64)
        data = trace_bytes(SyntheticSource(self.profile("uniform-random"), shape))
        head_block = 3 * 4096 * 64 * 8

        def read_and_pass():
            with TraceReader(io.BytesIO(data)) as reader:
                for r, h in np.ndindex(shape[:2]):
                    block = reader.head(r, h)
                    scores = column_scores(_HeadNumerators(block, 32).numerators)
                    approx_semantic_vector(scores, block[2], 64)

        _, peak = traced_peak(read_and_pass)
        assert peak <= head_block + _STREAM_CHUNK

    def test_file_cut_short_between_layers_fails_on_the_next(self, tmp_path):
        trace = gen_synthetic_trace(self.profile("uniform-random"), self.SHAPE)
        path = tmp_path / "t.tkv"
        write_trace(trace, path)
        layer_bytes = trace.header.payload_bytes // 3
        with TraceReader(path) as reader:
            for h in range(4):
                assert np.array_equal(reader.head(0, h), trace.data[0, h])
            os.truncate(path, HEADER_BYTES + layer_bytes + 5)
            assert np.array_equal(reader.head(0, 3), trace.data[0, 3])
            with pytest.raises(TraceTruncationError) as err:
                reader.head(1, 0)  # the first head of the layer cut short
        assert (err.value.expected, err.value.actual) == (
            trace.header.payload_bytes,
            layer_bytes + 5,
        )

    def test_mapped_block_outlives_the_reader(self, tmp_path):
        trace = gen_synthetic_trace(self.profile("uniform-random"), self.SHAPE)
        path = tmp_path / "t.tkv"
        write_trace(trace, path)
        reader = TraceReader(path)
        first = reader.head(0, 0)
        for r, h in np.ndindex(self.SHAPE[:2]):
            give_back_pages(reader.head(r, h))
        reader.close()
        assert np.array_equal(first, trace.data[0, 0])

    @pytest.mark.parametrize("wrap", [bytes, TrickleStream], ids=["bytes", "trickle"])
    def test_nonfinite_value_fails_when_its_head_arrives(self, wrap):
        trace = gen_synthetic_trace(self.profile("uniform-random"), self.SHAPE)
        data = trace.data.copy()
        data[2, 3, 2, 39, 5] = np.inf
        with TraceReader(wrap(trace.header.pack() + data.tobytes())) as reader:
            heads = list(np.ndindex(self.SHAPE[:2]))
            for r, h in heads[: heads.index((2, 3))]:
                assert np.array_equal(reader.head(r, h), data[r, h])
            with pytest.raises(TraceFormatError, match="NaN/Inf"):
                reader.head(2, 3)

    def test_stream_cut_short_fails_before_any_layer(self):
        # a stream is copied whole before its first layer is read, so a cut
        # in its last layer fails in the reader's construction
        trace = gen_synthetic_trace(self.profile("uniform-random"), self.SHAPE)
        payload = trace.header.payload_bytes
        with pytest.raises(TraceTruncationError) as err:
            TraceReader(TrickleStream(trace_bytes(trace)[:-5]))
        assert (err.value.expected, err.value.actual) == (payload, payload - 5)

    def test_sized_source_is_checked_before_any_layer(self, tmp_path):
        header = TraceHeader(1000, 1000, 1000, 1000).pack()
        with pytest.raises(TraceTruncationError):
            TraceReader(header + bytes(64))

    @pytest.mark.parametrize("kind", KINDS)
    def test_synthetic_source_draws_the_generated_trace(self, kind):
        trace = gen_synthetic_trace(self.profile(kind), self.SHAPE)
        source = SyntheticSource(self.profile(kind), self.SHAPE)
        assert source.header == trace.header
        heads = self.heads(source)
        assert np.array_equal(np.reshape(heads, trace.data.shape), trace.data)
        rows = len(trace.data.reshape(-1, 6))
        for first, piece in source.pieces():
            assert piece.dtype == np.float32 and piece.shape[1:] == (6,)
            assert 0 <= first < first + len(piece) <= rows
        buf = io.BytesIO()
        assert write_trace(source, buf) == trace.header.file_bytes
        assert buf.getvalue() == trace_bytes(trace)

    def test_synthetic_source_checks_the_profile_up_front(self):
        with pytest.raises(ParameterError):
            SyntheticSource(SyntheticProfile("clustered-heads", planted=4), (1, 4, 8, 8))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize(
        "field, value",
        [("spread", np.nan), ("spread", np.inf), ("needle_strength", np.nan),
         ("needle_strength", -np.inf), ("spread", "x")],
    )
    def test_profile_rejects_non_finite_values(self, kind, field, value):
        # even where the kind ignores the value, since a run's report records it
        with pytest.raises(ParameterError, match=field):
            SyntheticProfile(kind, **{field: value})

    @pytest.mark.parametrize(
        "profile",
        [
            SyntheticProfile("clustered-heads", planted=1, spread=1e300),
            SyntheticProfile("planted-needle", needle_position=2, needle_strength=1e39),
        ],
        ids=["spread", "needle"],
    )
    def test_synthetic_layers_that_overflow_float32_fail(self, profile):
        source = SyntheticSource(profile, self.SHAPE)
        with pytest.raises(TraceFormatError, match="NaN/Inf"):
            self.heads(source)
        # pieces feed `gen` and are checked as each is drawn
        with pytest.raises(TraceFormatError, match="NaN/Inf"):
            write_trace(source, io.BytesIO())


class TestPageGiveBack:
    """A mapped trace's pages leave the process once the pass that reads
    them moves on: a run gives each head's whole block back once its one
    visit is done, and so does the scoring of saved plans, whether the
    decode rows are the window's or not, and whether the pass ends or
    stops at an error; the reader gives back each of its Q, K and V once
    checked, and the pages before each block it gives, so no block edge's
    page stays behind a pass."""

    SHAPE = (2, 2, 16384, 128)  # each head's Q, K and V are 8 MiB
    WINDOW = 32

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "t.tkv"
        write_trace(SyntheticSource(SyntheticProfile("uniform-random", seed=61), self.SHAPE), path)
        return path

    def slack(self) -> int:
        """The page slack of one layer's head blocks' edges."""
        return self.SHAPE[1] * PAGE_SLACK_PER_HEAD

    @pytest.mark.parametrize("decode_queries", [WINDOW, 64], ids=["window-rows", "decode-64"])
    def test_head_blocks_leave_once_read(self, path, monkeypatch, decode_queries):
        source = SyntheticSource(SyntheticProfile("uniform-random", seed=61), self.SHAPE)
        slack = self.slack()
        config = RunConfig(
            trace_path=str(path), policies=(PolicyKind.TASK_KV, PolicyKind.COMPRESSED_CACHE),
            budget_ratios=(0.6,), beta=0.5, top_m=1, window_len=self.WINDOW,
            decode_queries=decode_queries,
        )
        visited = []

        def sampled(visit):
            def sample(*args):
                # the blocks before this one left once they were visited
                assert mapped_rss(path) <= slack
                visited.append(args[-1].shape)
                return visit(*args)
            return sample

        for name in ("_visit_head", "_score_head"):
            monkeypatch.setattr(harness, name, sampled(getattr(harness, name)))
        with TraceReader(path) as reader:
            result = harness.start_run(config, reader.header)
            # each head's one visit reads its Q and K, then its V
            for _ in harness.run_steps(config, result, reader, keep_plans=True):
                assert mapped_rss(path) <= slack
            # scoring saved plans reads each head's K and V again, and
            # gives them back head by head
            score_plans(reader, list(result.plans.values()), decode_queries)
            assert mapped_rss(path) <= slack
            # what left comes back from the page cache when read
            with source.head_reader() as drawn:
                for r, h in np.ndindex(self.SHAPE[:2]):
                    assert np.array_equal(reader.head(r, h), drawn(r, h))
        assert len(visited) == 2 * self.SHAPE[0] * self.SHAPE[1]

    @staticmethod
    def faulted(layer, head, block):
        """A visit that faults a head's whole block in."""
        return float(block.sum())

    def test_a_pass_stopped_after_a_layer_gives_its_blocks_back(self, path):
        with TraceReader(path) as reader:
            with harness._each_layer(reader, self.faulted) as layers:
                assert len(next(layers)) == self.SHAPE[1]
            assert mapped_rss(path) <= self.slack()

    def test_a_pass_that_raises_mid_layer_gives_its_block_back(self, path):
        def failing(layer, head, block):
            self.faulted(layer, head, block)
            assert mapped_rss(path) > self.slack()
            raise ZeroDivisionError

        with TraceReader(path) as reader:
            with pytest.raises(ZeroDivisionError):
                with harness._each_layer(reader, failing) as layers:
                    next(layers)
            assert mapped_rss(path) <= self.slack()

    def test_a_whole_pass_keeps_no_block_edges_behind(self, tmp_path):
        # 2048 blocks of 12 KiB, none page-aligned after the 24-byte header:
        # the page across each block's edge lies wholly in neither block,
        # so without the reader's drop of the pages before each block read,
        # a pass would end holding 8 MiB of them
        shape = (256, 8, 128, 8)
        path = tmp_path / "many.tkv"
        write_trace(SyntheticSource(SyntheticProfile("uniform-random", seed=63), shape), path)
        with TraceReader(path) as reader:
            with harness._each_layer(reader, self.faulted) as layers:
                assert sum(map(len, layers)) == shape[0] * shape[1]
            assert mapped_rss(path) <= 2 * PAGE_SLACK_PER_HEAD

    def test_arrays_in_memory_are_left_alone(self):
        trace = gen_synthetic_trace(SyntheticProfile("uniform-random", seed=62), (1, 1, 4096, 8))
        before = trace.data.copy()
        give_back_pages(trace.data[0, 0, 1])
        assert np.array_equal(trace.data, before)
