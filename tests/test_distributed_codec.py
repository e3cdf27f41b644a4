"""Wire codec round trips: every registry method, bit-exact.

The distributed engine's correctness rests on one property: a summary
that crosses a process/host boundary must come back *bit-exact* -- the
decoded copy answers every query identically and merges identically to
the original.  These tests assert exactly that, per registry method,
plus the error paths (version mismatch, truncated payloads, bad
frames) that a production wire format must reject loudly.
"""

import numpy as np
import pytest

from repro.core.types import Dataset
from repro.core.varopt import StreamVarOpt
from repro.distributed import codec
from repro.engine import registry
from repro.structures.hierarchy import BitHierarchy, ExplicitHierarchy
from repro.structures.order import OrderedDomain
from repro.structures.product import ProductDomain, line_domain
from repro.structures.ranges import Box

SIZE = 150


def dataset_2d(seed, n=1200):
    rng = np.random.default_rng(seed)
    size = 1 << 12
    coords = rng.integers(0, size, size=(n, 2))
    weights = 1.0 + rng.pareto(1.4, size=n)
    domain = ProductDomain([OrderedDomain(size), OrderedDomain(size)])
    return Dataset(coords=coords, weights=weights, domain=domain)


def dataset_1d(seed, n=1200):
    rng = np.random.default_rng(seed)
    size = 1 << 12
    return Dataset.one_dimensional(
        rng.integers(0, size, size=n),
        1.0 + rng.pareto(1.4, size=n),
        size,
    )


def dataset_for(method, seed):
    return dataset_1d(seed) if method == "qdigest-stream" else dataset_2d(seed)


def queries_for(method):
    size = 1 << 12
    if method == "qdigest-stream":
        return [
            Box((0,), (size // 2,)),
            Box((size // 4,), (size - 1,)),
            Box((7,), (7,)),
        ]
    return [
        Box((0, 0), (size // 2, size // 2)),
        Box((size // 4, 0), (size - 1, size // 3)),
        Box((5, 5), (5, 5)),
    ]


def assert_state_equal(a, b, path="state"):
    """Recursive bit-exact equality of two codec state values."""
    assert type(a) is type(b), f"{path}: {type(a)} vs {type(b)}"
    if isinstance(a, dict):
        assert a.keys() == b.keys(), path
        for key in a:
            assert_state_equal(a[key], b[key], f"{path}[{key!r}]")
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b), path
        for index, (x, y) in enumerate(zip(a, b)):
            assert_state_equal(x, y, f"{path}[{index}]")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype, path
        np.testing.assert_array_equal(a, b, err_msg=path)
    else:
        assert a == b, f"{path}: {a!r} vs {b!r}"


class TestValueCodec:
    def test_primitives_round_trip(self):
        values = [
            None, True, False, 0, -1, 2**62, -(2**62),
            2**100, -(2**100),  # beyond int64: big-int path
            3.14159, float("inf"), "héllo", b"\x00\xff", (1, "a"),
            [1, [2, [3]]], {"k": (1, 2), (3, 4): "v", 5: None},
        ]
        for value in values:
            assert codec.decode_value(codec.encode_value(value)) == value

    def test_nan_round_trip(self):
        decoded = codec.decode_value(codec.encode_value(float("nan")))
        assert np.isnan(decoded)

    def test_arrays_round_trip_dtype_and_shape(self):
        for arr in [
            np.arange(12, dtype=np.int64).reshape(3, 4),
            np.asarray([1.5, -2.5]),
            np.asarray([], dtype=np.uint64),
            np.zeros((2, 0, 3), dtype=np.float32),
        ]:
            back = codec.decode_value(codec.encode_value(arr))
            assert back.dtype == arr.dtype and back.shape == arr.shape
            np.testing.assert_array_equal(back, arr)

    def test_decoded_arrays_are_writable(self):
        back = codec.decode_value(codec.encode_value(np.arange(3)))
        back[0] = 7  # frombuffer views would raise here

    def test_unencodable_rejected(self):
        with pytest.raises(codec.CodecError, match="cannot encode"):
            codec.encode_value(object())

    def test_trailing_bytes_rejected(self):
        with pytest.raises(codec.CodecError, match="trailing"):
            codec.decode_value(codec.encode_value(1) + b"x")

    def test_truncated_value_rejected(self):
        blob = codec.encode_value({"a": np.arange(100)})
        with pytest.raises(codec.TruncatedPayloadError):
            codec.decode_value(blob[:-5])


class TestSummaryFrames:
    @pytest.mark.parametrize("method", sorted(registry.available()))
    def test_round_trip_preserves_queries_and_merge(self, method):
        """decode(encode(x)) answers and merges exactly like x.

        Merge-of-decoded must equal merge-of-originals bit-exactly:
        same state, same query answers.  Randomized merges (samples)
        run from identically seeded generators on both sides.
        """
        data_a = dataset_for(method, seed=1)
        data_b = dataset_for(method, seed=2)
        rng = np.random.default_rng(0)
        summary_a = registry.build(method, data_a, SIZE, rng)
        summary_b = registry.build(method, data_b, SIZE, rng)
        queries = queries_for(method)

        decoded_a = codec.from_bytes(codec.to_bytes(summary_a))
        decoded_b = codec.from_bytes(codec.to_bytes(summary_b))
        assert type(decoded_a) is type(summary_a)
        assert_state_equal(summary_a.to_state(), decoded_a.to_state())
        assert summary_a.query_many(queries) == decoded_a.query_many(queries)

        if not getattr(summary_a, "mergeable", False):
            return
        kwargs = {}
        if hasattr(summary_a, "downsample"):  # SampleSummary merge
            kwargs = {
                "s": SIZE,
                "rng": np.random.default_rng(99),
            }
            merged_original = summary_a.merge(summary_b, **kwargs)
            kwargs["rng"] = np.random.default_rng(99)
            merged_decoded = decoded_a.merge(decoded_b, **kwargs)
        else:
            merged_original = summary_a.merge(summary_b)
            merged_decoded = decoded_a.merge(decoded_b)
        assert_state_equal(
            merged_original.to_state(), merged_decoded.to_state()
        )
        assert merged_original.query_many(queries) == \
            merged_decoded.query_many(queries)

    def test_stream_varopt_round_trip_continues_identically(self):
        """A migrated live reservoir replays the future identically."""
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 1000, size=2000).reshape(-1, 1)
        weights = 1.0 + rng.pareto(1.3, size=2000)
        original = StreamVarOpt(50, rng=7)
        original.update(keys[:1200], weights[:1200])
        migrated = codec.from_bytes(codec.to_bytes(original))
        assert isinstance(migrated, StreamVarOpt)
        original.update(keys[1200:], weights[1200:])
        migrated.update(keys[1200:], weights[1200:])
        a, b = original.summary(), migrated.summary()
        np.testing.assert_array_equal(a.coords, b.coords)
        np.testing.assert_array_equal(a.weights, b.weights)
        assert a.tau == b.tau

    def test_stream_varopt_round_trip_other_bit_generator(self):
        """Reservoirs on non-default generators migrate too."""
        original = StreamVarOpt(
            20, rng=np.random.Generator(np.random.MT19937(5))
        )
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 100, size=200).reshape(-1, 1)
        weights = 1.0 + rng.pareto(1.3, size=200)
        original.update(keys[:150], weights[:150])
        migrated = codec.from_bytes(codec.to_bytes(original))
        original.update(keys[150:], weights[150:])
        migrated.update(keys[150:], weights[150:])
        np.testing.assert_array_equal(
            original.summary().coords, migrated.summary().coords
        )

    def test_version_mismatch_rejected(self):
        frame = bytearray(codec.to_bytes(
            registry.build("obliv", dataset_2d(0), 50,
                           np.random.default_rng(0))
        ))
        frame[4] = codec.WIRE_VERSION + 1  # the version byte
        with pytest.raises(codec.VersionMismatchError, match="version"):
            codec.from_bytes(bytes(frame))

    def test_truncated_payload_rejected(self):
        frame = codec.to_bytes(
            registry.build("sketch", dataset_2d(0), 200,
                           np.random.default_rng(0))
        )
        for cut in (len(frame) // 2, len(frame) - 3, 6):
            with pytest.raises(codec.TruncatedPayloadError):
                codec.from_bytes(frame[:cut])

    def test_bad_magic_rejected(self):
        with pytest.raises(codec.CodecError, match="magic"):
            codec.from_bytes(b"XXXX" + b"\x01" + b"\x00")

    def test_unknown_tag_rejected(self):
        frame = b"".join([
            codec.MAGIC,
            bytes([codec.WIRE_VERSION]),
            bytes([4]), b"nope",
            codec.encode_value({}),
        ])
        with pytest.raises(KeyError, match="nope"):
            codec.from_bytes(frame)
        with pytest.raises(codec.CodecError, match="nope"):
            codec.from_bytes(frame)

    def test_unregistered_summary_rejected(self):
        class Mystery:
            def to_state(self):
                return {}

            @classmethod
            def from_state(cls, state):
                return cls()

        with pytest.raises(KeyError, match="no codec registered"):
            codec.to_bytes(Mystery())


class TestCompressedCodecs:
    """The v2 compressed array codecs: bit-exact, compact, compatible."""

    @pytest.mark.parametrize("method", sorted(registry.available()))
    def test_per_method_round_trip_both_wire_versions(self, method):
        """Every summary survives both the compressed and raw framing."""
        summary = registry.build(
            method, dataset_for(method, seed=1), SIZE,
            np.random.default_rng(0),
        )
        for compress in (True, False):
            frame = codec.to_bytes(summary, compress=compress)
            expected = (
                codec.WIRE_VERSION if compress else codec.RAW_WIRE_VERSION
            )
            assert frame[4] == expected  # the version byte
            decoded = codec.from_bytes(frame)
            assert_state_equal(summary.to_state(), decoded.to_state())

    def test_old_version_raw_frames_still_decode(self):
        """``compress=False`` emits v1 frames -- the pre-codec format."""
        message = {"type": "build", "coords": np.arange(4000).reshape(-1, 2)}
        frame = codec.encode_message(message, compress=False)
        assert frame[4] == codec.RAW_WIRE_VERSION == 1
        back = codec.decode_message(frame)
        np.testing.assert_array_equal(back["coords"], message["coords"])

    def test_sorted_int64_compresses_3x(self):
        # Dataset-shaped keys: sorted int64 over a 2^20 domain, so
        # deltas are small -- the case the delta+varint codec targets.
        rng = np.random.default_rng(0)
        arr = np.sort(rng.integers(0, 1 << 20, size=20_000))
        raw = codec.encode_value(arr, compress=False)
        packed = codec.encode_value(arr)
        assert len(raw) >= 3 * len(packed)
        np.testing.assert_array_equal(codec.decode_value(packed), arr)

    def test_each_codec_bit_exact(self):
        """Direct array codec round trips, including extreme values."""
        rng = np.random.default_rng(1)
        info = np.iinfo(np.int64)
        cases = [
            (codec.CODEC_DELTA_VARINT,
             np.array([info.min, -1, 0, 1, info.max] * 40)),
            (codec.CODEC_DELTA_VARINT,
             np.sort(rng.integers(-(1 << 62), 1 << 62, size=4000))),
            (codec.CODEC_DELTA_VARINT,
             rng.integers(0, 1 << 60, size=4000).astype(np.uint64)),
            (codec.CODEC_DELTA_VARINT,
             rng.integers(0, 4096, size=(500, 2))),
            (codec.CODEC_DELTA_VARINT, np.empty(0, dtype=np.int64)),
            (codec.CODEC_SHUFFLE_ZLIB, rng.pareto(1.4, size=4000)),
            (codec.CODEC_SHUFFLE_ZLIB,
             rng.normal(size=300).astype(np.float32)),
        ]
        for codec_id, arr in cases:
            payload = codec.encode_array(arr, codec_id)
            back = codec.decode_array(payload, arr.dtype, arr.shape, codec_id)
            assert back.dtype == arr.dtype and back.shape == arr.shape
            np.testing.assert_array_equal(back, arr)

    def test_truncated_varint_payload_rejected(self):
        arr = np.sort(np.random.default_rng(2).integers(0, 1 << 40, 1000))
        payload = codec.encode_array(arr, codec.CODEC_DELTA_VARINT)
        with pytest.raises(codec.CodecError):
            codec.decode_array(
                payload[:-3], arr.dtype, arr.shape, codec.CODEC_DELTA_VARINT
            )

    def test_varint_count_mismatch_rejected(self):
        arr = np.arange(1000, dtype=np.int64)
        payload = codec.encode_array(arr, codec.CODEC_DELTA_VARINT)
        with pytest.raises(codec.CodecError):
            codec.decode_array(
                payload, arr.dtype, (999,), codec.CODEC_DELTA_VARINT
            )

    def test_corrupt_zlib_payload_rejected(self):
        arr = np.random.default_rng(3).pareto(1.4, size=2000)
        payload = bytearray(codec.encode_array(arr, codec.CODEC_SHUFFLE_ZLIB))
        payload[len(payload) // 2] ^= 0xFF
        with pytest.raises(codec.CodecError):
            codec.decode_array(
                bytes(payload), arr.dtype, arr.shape, codec.CODEC_SHUFFLE_ZLIB
            )

    def test_truncated_compressed_frame_rejected(self):
        blob = codec.encode_value(
            {"a": np.sort(np.random.default_rng(4).integers(0, 1 << 40,
                                                            5000))}
        )
        for cut in (len(blob) // 2, len(blob) - 4):
            with pytest.raises(codec.CodecError):
                codec.decode_value(blob[:cut])

    def test_unknown_codec_id_rejected(self):
        with pytest.raises(codec.CodecError):
            codec.decode_array(b"", np.dtype(np.int64), (0,), 99)

    def test_zero_copy_raw_views(self):
        """``copy=False`` hands back read-only views into the frame."""
        arr = np.arange(50, dtype=np.int64)
        frame = codec.encode_value(arr, compress=False)
        view = codec.decode_value(frame, copy=False)
        assert not view.flags.writeable
        np.testing.assert_array_equal(view, arr)
        # Default decode stays an independent writable copy.
        writable = codec.decode_value(frame)
        assert writable.flags.writeable
        writable[0] = -1
        np.testing.assert_array_equal(codec.decode_value(frame), arr)

    def test_zero_copy_decoded_coded_arrays_stay_writable(self):
        """Compressed arrays decode to fresh buffers -- always writable."""
        arr = np.sort(np.random.default_rng(5).integers(0, 1 << 30, 5000))
        view = codec.decode_value(codec.encode_value(arr), copy=False)
        assert view.flags.writeable
        np.testing.assert_array_equal(view, arr)

    def test_small_arrays_stay_raw(self):
        """Below the coding floor the raw tag wins (no per-array cost)."""
        codec_id, _payload = codec.choose_codec(np.arange(4, dtype=np.int64))
        assert codec_id == codec.CODEC_RAW


class TestMessageFrames:
    def test_round_trip(self):
        message = {
            "type": "build",
            "coords": np.arange(6).reshape(3, 2),
            "weights": np.ones(3),
            "nested": {"a": (1, 2)},
        }
        back = codec.decode_message(codec.encode_message(message))
        assert back["type"] == "build"
        np.testing.assert_array_equal(back["coords"], message["coords"])

    def test_typeless_message_rejected(self):
        with pytest.raises(codec.CodecError, match="'type'"):
            codec.encode_message({"no": "type"})

    def test_version_mismatch_rejected(self):
        frame = bytearray(codec.encode_message({"type": "ping"}))
        frame[4] = codec.WIRE_VERSION + 9
        with pytest.raises(codec.VersionMismatchError):
            codec.decode_message(bytes(frame))


def _mutations(frame, count, seed):
    """Seeded corruptions of one frame: bit flip, truncation, random byte."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        data = bytearray(frame)
        pos = int(rng.integers(len(data)))
        kind = i % 3
        if kind == 0:
            data[pos] ^= 1 << int(rng.integers(8))
        elif kind == 1:
            del data[pos:]
        else:
            data[pos] = int(rng.integers(256))
        yield bytes(data)


class TestDecoderTotality:
    """Malformed frames raise CodecError -- never any other exception."""

    MUTATIONS = 3000

    @pytest.fixture(scope="class")
    def dataset(self):
        rng = np.random.default_rng(7)
        return Dataset.one_dimensional(
            rng.integers(0, 1024, size=3000),
            1.0 + rng.pareto(1.2, size=3000),
            1024,
        )

    @pytest.mark.parametrize("method", ["qdigest", "obliv"])
    def test_summary_frames(self, dataset, method):
        summary = registry.build(
            method, dataset, 100, np.random.default_rng(0)
        )
        frame = codec.to_bytes(summary)
        rejected = 0
        for corrupt in _mutations(frame, self.MUTATIONS, seed=11):
            try:
                codec.from_bytes(corrupt)
            except codec.CodecError:
                rejected += 1
        # Every truncation is caught, so most mutations must be.
        assert rejected >= self.MUTATIONS // 3

    def test_message_and_value_frames(self, dataset):
        message = {
            "type": "result",
            "coords": dataset.coords,
            "weights": dataset.weights,
            "meta": {"name": "obliv", "sizes": (1, 2.5, None, True)},
        }
        frame = codec.encode_message(message)
        for corrupt in _mutations(frame, self.MUTATIONS, seed=12):
            try:
                codec.decode_message(corrupt)
            except codec.CodecError:
                pass
            try:
                codec.decode_value(corrupt[5:])
            except codec.CodecError:
                pass

    @pytest.mark.parametrize(
        "frame",
        [
            # Garbled dtype string, non-UTF-8 tag, damaged state dict.
            codec.MAGIC + bytes([2, 6]) + b"sample"
            + codec.encode_value({"coords": 1}),
            codec.MAGIC + bytes([2, 2]) + b"\xff\xfe" + codec.encode_value({}),
            codec.MAGIC + bytes([2, 6]) + b"sample"
            + b"a" + bytes([3]) + b"<q(" + bytes([0]),
        ],
        ids=["bad-state", "bad-tag-utf8", "bad-dtype"],
    )
    def test_known_escapes_are_codec_errors(self, frame):
        with pytest.raises(codec.CodecError):
            codec.from_bytes(frame)


class TestDomainSpecs:
    def test_round_trip_all_axis_kinds(self):
        domain = ProductDomain([
            OrderedDomain(4096),
            BitHierarchy(16),
            ExplicitHierarchy([2, 4, 8]),
        ])
        decoded = codec.decode_domain(codec.encode_domain(domain))
        assert decoded.dims == 3
        assert decoded.sizes == domain.sizes
        assert isinstance(decoded.axes[1], BitHierarchy)
        assert decoded.axes[1].bits == 16
        assert decoded.axes[2].branchings == (2, 4, 8)

    def test_line_domain(self):
        decoded = codec.decode_domain(codec.encode_domain(line_domain(99)))
        assert decoded.sizes == (99,)
