"""Differential harness: batched codec kernels == scalar reference.

The batched whole-block kernels (:mod:`repro.codec.batch`) claim **bit
identity** with the per-frame/per-band scalar ``_reference_*`` loops —
on the wire (encode) and in the recovered samples (decode), including
the exact exception a malformed stream raises.  The scalar arm is the
``ScalarCodec`` oracle from ``tests/oracles.py``, which forces every
kernel call onto the ``BatchFallback`` route.  These tests pin that claim with
hypothesis sweeps over dtypes, odd block sizes, empty blocks, every Rice
parameter 0..30, and random byte-level corruption.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codec import bitpack
from repro.codec.batch import (
    decode_bands_batched,
    encode_bands_batched,
    gather_fields,
    scatter_fields,
)
from repro.codec.mdct import (
    _reference_mdct_synthesis,
    mdct_analysis,
    mdct_synthesis,
)
from repro.codec.mp3like import Mp3LikeCodec
from repro.codec.rice import (
    _reference_rice_decode,
    rice_decode,
    rice_encode,
)
from repro.codec.vorbislike import VorbisLikeCodec
from tests.oracles import ScalarCodec


def _signal(rng, n, channels, kind):
    if kind == "noise":
        x = rng.normal(0.0, 0.3, (n, channels))
    elif kind == "tone":
        t = np.arange(n)[:, None]
        x = 0.5 * np.sin(2 * np.pi * 440.0 * t / 44100.0) * np.ones(
            (1, channels)
        )
    elif kind == "quiet":
        x = rng.normal(0.0, 1e-7, (n, channels))
    elif kind == "sparse":
        x = np.zeros((n, channels))
        x[:: max(1, n // 13)] = 0.9
    else:  # attack: quiet lead-in, loud tail (trips window switching)
        x = rng.normal(0.0, 0.01, (n, channels))
        x[n // 2 :] *= 40.0
    return np.clip(x, -1.0, 1.0)


def _pair(cls, **kwargs):
    return cls(**kwargs), ScalarCodec(cls(**kwargs))


def _outcome(codec, data):
    try:
        return ("ok", codec.decode_block(data).tobytes())
    except Exception as exc:  # noqa: BLE001 — exception IS the contract
        return (type(exc).__name__, str(exc))


# -- Rice coding -------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    values=st.lists(
        st.integers(min_value=-(2**16), max_value=2**16),
        min_size=0,
        max_size=64,
    ),
    k=st.integers(min_value=0, max_value=30),
)
def test_rice_decode_matches_reference_on_valid_streams(values, k):
    v = np.array(values, dtype=np.int64)
    data = rice_encode(v, k)
    got = rice_decode(data, k, len(v))
    ref = _reference_rice_decode(data, k, len(v))
    assert np.array_equal(got, ref)
    assert np.array_equal(got, v)


@settings(max_examples=300, deadline=None)
@given(
    data=st.binary(min_size=0, max_size=48),
    k=st.integers(min_value=0, max_value=34),
    count=st.integers(min_value=0, max_value=40),
)
def test_rice_decode_matches_reference_on_garbage(data, k, count):
    """Arbitrary bytes (truncations, hostile k, k > 30) must produce the
    same values or the same exception as the per-bit walk."""
    try:
        got, got_err = rice_decode(data, k, count), None
    except ValueError as exc:
        got, got_err = None, str(exc)
    try:
        ref, ref_err = _reference_rice_decode(data, k, count), None
    except ValueError as exc:
        ref, ref_err = None, str(exc)
    assert got_err == ref_err
    if got is not None:
        assert np.array_equal(got, ref)


def test_rice_decode_truncated_tail_raises_like_reference():
    v = np.arange(-20, 20, dtype=np.int64)
    data = rice_encode(v, 4)
    for cut in (0, 1, len(data) // 2, len(data) - 1):
        with pytest.raises(ValueError, match="truncated"):
            rice_decode(data[:cut], 4, len(v))


# -- MDCT overlap-add --------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    length=st.integers(min_value=0, max_value=5000),
    n=st.sampled_from([64, 128, 256, 512]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_mdct_synthesis_matches_reference_loop(length, n, seed):
    rng = np.random.default_rng(seed)
    coeffs, _ = mdct_analysis(rng.normal(0.0, 0.5, length), n)
    # quantisation-shaped coefficients too: signed zeros and exact ties
    coeffs = np.round(coeffs * 8.0) / 8.0
    fast = mdct_synthesis(coeffs, length)
    slow = _reference_mdct_synthesis(coeffs, length)
    assert fast.tobytes() == slow.tobytes()  # bitwise, not approx


# -- VorbisLike --------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=20000),
    channels=st.sampled_from([1, 2]),
    quality=st.sampled_from([0, 3, 7, 10]),
    entropy=st.sampled_from(["fixed", "rice"]),
    window_switching=st.booleans(),
    kind=st.sampled_from(["noise", "tone", "quiet", "sparse", "attack"]),
    dtype=st.sampled_from([np.float64, np.float32, np.int16]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_vorbis_batched_bit_identical(
    n, channels, quality, entropy, window_switching, kind, dtype, seed
):
    rng = np.random.default_rng(seed)
    x = _signal(rng, n, channels, kind)
    if dtype is np.int16:
        x = (x * 32767).astype(np.int16)
    else:
        x = x.astype(dtype)
    fast, slow = _pair(
        VorbisLikeCodec,
        quality=quality,
        entropy=entropy,
        window_switching=window_switching,
    )
    wf, ws = fast.encode_block(x), slow.encode_block(x)
    assert wf == ws
    assert fast.decode_block(wf).tobytes() == slow.decode_block(ws).tobytes()


def test_vorbis_empty_block_bit_identical():
    x = np.zeros((0, 2))
    fast, slow = _pair(VorbisLikeCodec)
    wf, ws = fast.encode_block(x), slow.encode_block(x)
    assert wf == ws
    assert fast.decode_block(wf).tobytes() == slow.decode_block(ws).tobytes()


def test_vorbis_nonfinite_input_same_outcome():
    """NaN/Inf coefficients: the batch kernel must defer to the reference
    loop so both configurations produce identical bytes or identical
    errors."""
    for bad in (np.nan, np.inf, -np.inf):
        x = np.zeros((3000, 1))
        x[7] = 0.25
        x[1500] = bad
        outs = []
        for codec in _pair(VorbisLikeCodec, quality=10):
            try:
                outs.append(("ok", codec.encode_block(x)))
            except Exception as exc:  # noqa: BLE001
                outs.append((type(exc).__name__, str(exc)))
        assert outs[0] == outs[1]


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(min_value=64, max_value=9000),
    entropy=st.sampled_from(["fixed", "rice"]),
    cut=st.floats(min_value=0.0, max_value=1.0),
    flips=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=0,
        max_size=5,
    ),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_vorbis_corrupt_stream_same_outcome(n, entropy, cut, flips, seed):
    """Truncated / bit-flipped blocks: decode must return the same
    samples or raise the same exception either way."""
    rng = np.random.default_rng(seed)
    x = _signal(rng, n, 2, "noise")
    fast, slow = _pair(VorbisLikeCodec, quality=7, entropy=entropy)
    blob = bytearray(fast.encode_block(x))
    header = 10
    if len(blob) > header + 1:
        blob = blob[: header + 1 + int(cut * (len(blob) - header - 1))]
        for frac, bit in flips:
            i = header + int(frac * (len(blob) - header - 1))
            blob[min(i, len(blob) - 1)] ^= 1 << bit
    assert _outcome(fast, bytes(blob)) == _outcome(slow, bytes(blob))


# -- Mp3Like -----------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=20000),
    channels=st.sampled_from([1, 2]),
    kbps=st.sampled_from([96, 128, 192, 256, 320]),
    kind=st.sampled_from(["noise", "tone", "quiet", "sparse", "attack"]),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_mp3_batched_bit_identical(n, channels, kbps, kind, seed):
    rng = np.random.default_rng(seed)
    x = _signal(rng, n, channels, kind)
    fast, slow = _pair(Mp3LikeCodec, bitrate_kbps=kbps)
    wf, ws = fast.encode_block(x), slow.encode_block(x)
    assert wf == ws
    assert fast.decode_block(wf).tobytes() == slow.decode_block(ws).tobytes()


def test_mp3_empty_block_bit_identical():
    fast, slow = _pair(Mp3LikeCodec)
    wf, ws = fast.encode_block(np.zeros((0, 1))), slow.encode_block(
        np.zeros((0, 1))
    )
    assert wf == ws


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(min_value=64, max_value=9000),
    cut=st.floats(min_value=0.0, max_value=1.0),
    flips=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=0,
        max_size=5,
    ),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_mp3_corrupt_stream_same_outcome(n, cut, flips, seed):
    rng = np.random.default_rng(seed)
    x = _signal(rng, n, 2, "noise")
    fast, slow = _pair(Mp3LikeCodec, bitrate_kbps=192)
    blob = bytearray(fast.encode_block(x))
    header = 8
    if len(blob) > header + 1:
        blob = blob[: header + 1 + int(cut * (len(blob) - header - 1))]
        for frac, bit in flips:
            i = header + int(frac * (len(blob) - header - 1))
            blob[min(i, len(blob) - 1)] ^= 1 << bit
    assert _outcome(fast, bytes(blob)) == _outcome(slow, bytes(blob))


# -- the byte-window field kernels -------------------------------------------


def _shifted_pack(values, width, phase):
    """``pack_int`` output moved ``phase`` bits right: the reference
    bytes for fields starting at bit phase ``phase``."""
    bits = np.unpackbits(
        np.frombuffer(bitpack.pack_int(values, width), dtype=np.uint8)
    )[: len(values) * width]
    return np.packbits(
        np.concatenate([np.zeros(phase, dtype=np.uint8), bits])
    ).tobytes()


@pytest.mark.parametrize("width", range(1, 17))
@pytest.mark.parametrize("phase", range(8))
def test_field_window_every_phase_and_width(width, phase):
    """Fields at every bit phase 0..7 for every width 1..16 (phase 7 +
    width 16 = 23 bits fills the 24-bit window), the last one ending in
    the last byte, against ``bitpack.pack_int``/``unpack_int``."""
    rng = np.random.default_rng(width * 8 + phase)
    half = 1 << (width - 1)
    for count in (1, 2, 7, 8, 9, 33):
        q = rng.integers(-half, half, count)
        q[0], q[-1] = -half, half - 1  # all-zero and all-one fields
        w_e = np.full(count, width, dtype=np.int64)
        bitpos = phase + np.arange(count, dtype=np.int64) * width
        expected = _shifted_pack(q, width, phase)
        n_bytes = (phase + count * width + 7) // 8
        assert len(expected) == n_bytes  # the last field ends in it
        packed = scatter_fields(q + half, w_e, bitpos, n_bytes).tobytes()
        assert packed == expected
        got = gather_fields(expected, w_e, bitpos) - half
        assert np.array_equal(got, q)
        if phase == 0:
            assert np.array_equal(got, bitpack.unpack_int(expected, width,
                                                          count))


class _StubModel:
    """A psycho model that allocates the widths it is given, so the
    reference frame encoder can be driven to every width 1..16."""

    def __init__(self, edges, widths):
        self.edges = edges
        self.n_bands = len(edges) - 1
        self._widths = iter(widths)

    def band_energies(self, frame):
        return None

    def allocate_widths(self, energies, quality):
        return next(self._widths)


def _crafted_block(rng, edges, n_frames):
    """Coefficients and widths cycling every band through widths 2..16
    (odd widths land fields at every bit phase; width 1 has no level
    to quantise to and neither allocator emits it), with the block's
    last band active: its last field ends in the last byte."""
    n_bands = len(edges) - 1
    widths = np.arange(n_frames * n_bands).reshape(n_frames, n_bands) % 15
    widths += 2
    widths[rng.random(widths.shape) < 0.15] = 0  # some inactive bands
    widths[-1, -1] = 15
    coeffs = rng.normal(0.0, 1.0, (n_frames, int(edges[-1])))
    coeffs[rng.random(coeffs.shape) < 0.02] = 0.0
    return coeffs, widths


def _crafted_stream(rng, edges, n_frames):
    """Band parts of every tag 0..16, width 1 included, written with
    ``bitpack.pack_int``; the last part is a fixed-width band."""
    parts = []
    for f in range(n_frames):
        for b, count in enumerate(np.diff(edges)):
            width = int(rng.integers(0, 17))
            if f == n_frames - 1 and b == len(edges) - 2:
                width = max(width, 1)
            if width == 0:
                parts.append(b"\x00")
                continue
            half = 1 << (width - 1)
            q = rng.integers(-half, half, count)
            exponent = int(rng.integers(-128, 128))
            parts.append(
                bytes([width, exponent & 0xFF]) + bitpack.pack_int(q, width)
            )
    return b"".join(parts)


def test_vorbis_kernels_every_width_match_reference_walkers():
    from repro.codec.vorbislike import _model

    rng = np.random.default_rng(5)
    model = _model(44100, 512)
    codec = VorbisLikeCodec(quality=10)
    for n_frames in (1, 3, 8):
        coeffs, widths = _crafted_block(rng, model.edges, n_frames)
        wire = encode_bands_batched(coeffs, model.edges, widths, min_width=1)
        stub = _StubModel(model.edges, widths)
        assert wire == b"".join(
            codec._reference_encode_frame(frame, stub) for frame in coeffs
        )
        values, end = decode_bands_batched(wire, 0, n_frames, model.edges)
        assert end == len(wire)
        expected = np.zeros_like(values)
        offset = 0
        for f in range(n_frames):
            offset = codec._reference_decode_frame(
                wire, offset, expected[f], model
            )
        assert values.tobytes() == expected.tobytes()


def test_mp3_kernels_every_width_match_reference_walkers():
    from repro.codec.mp3like import _EDGES

    rng = np.random.default_rng(6)
    codec = Mp3LikeCodec()
    for n_frames in (1, 3, 8):
        coeffs, widths = _crafted_block(rng, _EDGES, n_frames)
        wire = encode_bands_batched(coeffs, _EDGES, widths, min_width=2)
        assert wire == b"".join(
            codec._reference_encode_spectrum(spec, w)
            for spec, w in zip(coeffs, widths)
        )
        values, end = decode_bands_batched(
            wire, 0, n_frames, _EDGES, rice_tags=False
        )
        assert end == len(wire)
        expected = np.zeros_like(values)
        offset = 0
        for f in range(n_frames):
            offset = codec._reference_decode_spectrum(
                wire, offset, expected[f]
            )
        assert values.tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", range(4))
def test_every_tag_decodes_like_reference_walkers(seed):
    """Streams carrying every tag 0..16 — width 1 and width 16 included,
    which neither allocator emits but a stream may carry — decode alike
    through the batched walk and both codecs' reference walkers."""
    from repro.codec.mp3like import _EDGES
    from repro.codec.vorbislike import _model

    rng = np.random.default_rng(seed)
    model = _model(22050, 256)
    vorbis = VorbisLikeCodec()
    mp3 = Mp3LikeCodec()
    for edges, rice_tags, walk in (
        (model.edges, True,
         lambda w, o, out: vorbis._reference_decode_frame(w, o, out, model)),
        (_EDGES, False, mp3._reference_decode_spectrum),
    ):
        n_frames = 1 + seed * 2
        wire = _crafted_stream(rng, edges, n_frames)
        values, end = decode_bands_batched(
            wire, 0, n_frames, edges, rice_tags=rice_tags
        )
        assert end == len(wire)
        expected = np.zeros_like(values)
        offset = 0
        for f in range(n_frames):
            offset = walk(wire, offset, expected[f])
        assert offset == end
        assert values.tobytes() == expected.tobytes()


def test_truncation_sweep_every_prefix_same_outcome():
    """One real 22.05 kHz mono block (65 ms, the default block length)
    cut at every prefix length: the batched walk, whose ``BatchFallback``
    checks come in a different order from the scalar walker's errors,
    must give the same samples or the same exception type as the
    reference decode."""
    from repro.audio.signal import music

    x = music(1.0, 22050, seed=3)[11025 : 11025 + 1433]
    fast, slow = _pair(VorbisLikeCodec, quality=10, sample_rate=22050)
    blob = fast.encode_block(x)
    assert 1500 <= len(blob) <= 3000
    for cut in range(len(blob) + 1):
        got, ref = _outcome(fast, blob[:cut]), _outcome(slow, blob[:cut])
        assert got[0] == ref[0], cut
        if got[0] == "ok":
            assert got == ref, cut


@pytest.mark.parametrize("tag", [0, 1, 15, 16, 17, 100, 127, 128, 200, 255])
def test_any_first_tag_same_outcome(tag):
    """Every class of tag byte — inactive, fixed widths, widths past 16,
    Rice tags, and Rice tags where Mp3Like allows none — in a block's
    first band part: same samples or the same exception either way."""
    from repro.audio.signal import music

    x = music(1.0, 22050, seed=4)[11025 : 11025 + 1433]
    for cls, header, kwargs in (
        (VorbisLikeCodec, 10, dict(quality=10, sample_rate=22050)),
        (Mp3LikeCodec, 8, dict(bitrate_kbps=128)),
    ):
        fast, slow = _pair(cls, **kwargs)
        blob = bytearray(fast.encode_block(x))
        blob[header] = tag
        assert _outcome(fast, bytes(blob)) == _outcome(slow, bytes(blob))
