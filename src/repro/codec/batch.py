"""Whole-block band coding: every frame × band of a block in one pass.

The scalar transform codecs (:mod:`repro.codec.vorbislike`,
:mod:`repro.codec.mp3like`) loop over frames and bands in Python,
quantising and packing each band slice on its own.  At station scale —
tens of channels encoding concurrently on one origin machine — those
loops are the dominant host cost.  This module is the batched engine
both codecs share:

* :func:`encode_bands_batched` quantises all frames × bands of a block
  as 2-D numpy ops, picks per-band Rice parameters and fixed widths
  vectorised, and writes every fixed-width field of the block with
  **one** ``np.bincount`` scatter through a 24-bit byte window (headers
  are scattered into the bytes afterwards — no field covers them).
* :func:`decode_bands_batched` walks only the band *descriptors* in
  Python, one table lookup per part (a few dozen tag bytes per frame),
  then gathers every fixed-width field of the block through the same
  24-bit window; Rice bands go through the vectorised
  :func:`~repro.codec.rice.rice_decode`.

**The byte window.**  A fixed-width field is at most 16 bits wide and
starts at bit phase 0–7 of its first byte, so it always lies inside the
three bytes from ``bitpos >> 3`` (phase 7 + width 16 = 23 bits, the
worst case).  Read as one big-endian 24-bit integer, those bytes hold
the field at shift ``24 - phase - width``.  Decode gathers the three
bytes (:func:`gather_fields`) and shifts and masks; encode
(:func:`scatter_fields`) shifts each value into place, splits it into
its three byte lanes and sums the lanes per byte — fields never share a
bit, so the sum is the bitwise OR.

Wire bytes and decoded samples are **bit-identical** to the scalar
reference coders — that is the contract ``tests/codec/
test_batch_differential.py`` pins, and why the quantiser reproduces the
reference arithmetic operation by operation (``np.ldexp`` powers of two,
the same ``ceil``/``log2`` elementwise ufuncs, integer-exact size sums).

Malformed streams are the reference walker's job: anything structurally
anomalous (width > 16, truncated descriptors or payloads, oversized Rice
payloads) raises :class:`BatchFallback` so the caller can re-run the
scalar path and reproduce its exact error — corrupt-packet behaviour
under the seeded fault matrices must not change by a single counter.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.codec import rice


class BatchFallback(Exception):
    """The batched kernel cannot reproduce the scalar semantics for this
    input; the caller must re-run the per-band reference path."""


#: part-size table entries that are not a byte count
_BAD_TAG = 0     # fixed width out of range: the reference walker raises
_RICE_TAG = -1   # Rice part: its size is in its own u16 length field


class _Layout:
    """Constants of one band partition, built once per ``edges``."""

    def __init__(self, edges: np.ndarray):
        self.edges = edges
        self.counts = np.diff(edges)
        self.n_bands = len(self.counts)
        self.n_bins = int(edges[-1])
        # part size in bytes by (band, tag byte): 1 for an inactive band,
        # descriptor + packed payload for fixed widths 1..16
        rows = {False: [], True: []}
        for count in self.counts.tolist():
            row = [_BAD_TAG] * 256
            row[0] = 1
            for width in range(1, 17):
                row[width] = 2 + (width * count + 7) // 8
            rows[False].append(row)
            rows[True].append(row[:0x80] + [_RICE_TAG] * 0x80)
        self.part_sizes = rows


@lru_cache(maxsize=16)
def _layout_of(key: bytes) -> _Layout:
    return _Layout(np.frombuffer(key, dtype=np.int64).copy())


def _layout(edges) -> _Layout:
    return _layout_of(np.asarray(edges, dtype=np.int64).tobytes())


def _band_elements(layout, parts):
    """Per-coefficient geometry of the band parts ``parts``.

    ``parts`` are flat ``frame * n_bands + band`` indices.  Returns
    ``(part_e, within, flat)``: for every coefficient of those parts, the
    index into ``parts``, its index inside its band, and its index into
    the flattened ``(frames, n_bins)`` coefficient matrix.
    """
    band = parts % layout.n_bands
    cnt = layout.counts[band]
    part_e = np.repeat(np.arange(len(parts)), cnt)
    within = np.arange(len(part_e)) - (np.cumsum(cnt) - cnt)[part_e]
    row_start = (parts // layout.n_bands) * layout.n_bins
    flat = (row_start + layout.edges[band])[part_e] + within
    return part_e, within, flat


def _field_bits(part_starts, part_e, within, width_e):
    """Bit position of every fixed-width field: after its part's two
    descriptor bytes, ``width`` bits per coefficient, MSB first."""
    return ((part_starts + 2) * 8)[part_e] + within * width_e


def scatter_fields(fields, width_e, bitpos, n_bytes: int) -> np.ndarray:
    """``n_bytes`` bytes holding unsigned ``fields`` of ``width_e`` bits
    (1..16) at bit offsets ``bitpos``, MSB first; zero elsewhere.

    Fields must not overlap.  Each is shifted into its 24-bit window,
    split into three byte lanes, and one ``np.bincount`` sums the lanes
    per byte — with no bit shared, the sum is the bitwise OR.
    """
    shifted = fields << (24 - (bitpos & 7) - width_e)
    byte = bitpos >> 3
    lanes = np.bincount(
        np.concatenate([byte, byte + 1, byte + 2]),
        weights=np.concatenate(
            [shifted >> 16, (shifted >> 8) & 0xFF, shifted & 0xFF]
        ),
        minlength=n_bytes,
    )
    # a field ending in the last byte spills zero lanes past it
    return lanes[:n_bytes].astype(np.uint8)


def gather_fields(data: bytes, width_e, bitpos) -> np.ndarray:
    """The unsigned ``width_e``-bit (1..16) fields at bit offsets
    ``bitpos`` of ``data``, MSB first; every field must lie in ``data``.

    A field lies in the three bytes from ``bitpos >> 3``: they are read
    as the top of one unaligned big-endian 32-bit load (zero bytes past
    the end cover a field that ends in the last byte), then shifted and
    masked.
    """
    words = np.ndarray(
        (len(data),), dtype=">u4", buffer=bytes(data) + b"\0\0\0",
        strides=(1,),
    )
    window = words.take(bitpos >> 3).astype(np.int64)
    return (window >> (32 - (bitpos & 7) - width_e)) & ((1 << width_e) - 1)


def encode_bands_batched(
    coeffs: np.ndarray,
    edges: np.ndarray,
    widths: np.ndarray,
    *,
    min_width: int = 1,
    use_rice: bool = False,
) -> bytes:
    """Encode all frames of a block, byte-identical to the scalar coders.

    Parameters
    ----------
    coeffs:
        ``(frames, n_bins)`` float64 transform coefficients.
    edges:
        band boundaries; band *b* covers ``edges[b]:edges[b+1]``.
    widths:
        ``(frames, n_bands)`` quantiser widths (bits per coefficient).
    min_width:
        bands below this width are inactive (``b"\\x00"`` parts): 1 for
        the VorbisLike allocator (which never emits width 1), 2 for the
        Mp3Like ladder.
    use_rice:
        offer each active band the adaptive Rice option, exactly like
        ``entropy="rice"``.
    """
    coeffs = np.asarray(coeffs, dtype=np.float64)
    n_frames = coeffs.shape[0]
    if n_frames == 0:
        return b""
    if not np.isfinite(coeffs).all():
        # the scalar path raises converting inf/nan exponents to int;
        # let it, with its exact exception
        raise BatchFallback("non-finite coefficients")
    layout = _layout(edges)
    widths = np.asarray(widths, dtype=np.int64)
    amax = np.maximum.reduceat(np.abs(coeffs), layout.edges[:-1], axis=-1)
    active = (widths >= min_width) & (amax > 0.0)

    top = (1 << (np.maximum(widths, 1) - 1)) - 1
    # exponent = ceil(log2(amax / top)), clipped — elementwise ufuncs,
    # identical to the per-band scalar expression (log2 of inactive
    # bands' garbage is clipped away and masked to 0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        exponent = np.ceil(np.log2(amax / top))
    exponent = np.where(active, np.clip(exponent, -120, 120), 0.0)
    exponent = exponent.astype(np.int64)

    # everything below works on the active parts and their coefficients
    parts = np.flatnonzero(active.reshape(-1))
    part_e, within, flat = _band_elements(layout, parts)
    w_p = widths.reshape(-1)[parts]
    e_p = exponent.reshape(-1)[parts]
    top_p = top.reshape(-1)[parts]
    cnt = layout.counts[parts % layout.n_bands]
    # 2.0 ** e as an exact power of two (ldexp by definition; the scalar
    # path's float pow is exact over |e| <= 120 as well)
    step_e = np.ldexp(1.0, e_p)[part_e]
    top_e = top_p[part_e]
    q = np.clip(
        np.round(coeffs.reshape(-1)[flat] / step_e), -top_e - 1, top_e
    ).astype(np.int64)
    fixed_bytes = (w_p * cnt + 7) // 8

    if use_rice:
        u = rice.zigzag(q)
        first = np.cumsum(cnt) - cnt
        # values < 2**17 and sums < 2**26: float conversion is exact
        means = np.add.reduceat(u.astype(np.float64), first) / cnt
        with np.errstate(divide="ignore"):
            k = np.floor(np.log2(means + 1.0))
        k = np.where(means < 1.0, 0, np.clip(k, 0, 30)).astype(np.int64)
        k_e = k[part_e]
        elem_bits = (u >> k_e.astype(np.uint64)).astype(np.int64) + 1 + k_e
        rice_bytes = (np.add.reduceat(elem_bits, first) + 7) // 8
        is_rice = rice_bytes + 2 < fixed_bytes
        if is_rice.any() and int(rice_bytes[is_rice].max()) > 0xFFFF:
            raise BatchFallback("rice payload exceeds u16 length field")
        part_size = np.where(is_rice, 4 + rice_bytes, 2 + fixed_bytes)
    else:
        is_rice = np.zeros(len(parts), dtype=bool)
        part_size = 2 + fixed_bytes
    fixed = ~is_rice
    if parts.size and int(w_p[fixed].max(initial=0)) > 16:
        # wider than the 24-bit window; the scalar packer refuses it too
        raise BatchFallback("fixed width out of range")

    sizes = np.ones(active.size, dtype=np.int64)  # inactive: one 0 tag
    sizes[parts] = part_size
    ends = np.cumsum(sizes)
    total = int(ends[-1])
    starts = (ends - sizes)[parts]

    # -- fixed-width bands: offset-binary, MSB first, one scatter -----------
    if use_rice:
        keep = fixed[part_e]
        vals, f_part, f_within = q[keep], part_e[keep], within[keep]
    else:
        vals, f_part, f_within = q, part_e, within
    w_e = w_p[f_part]
    bitpos = _field_bits(starts, f_part, f_within, w_e)
    out = scatter_fields(vals + (1 << (w_e - 1)), w_e, bitpos, total)

    # -- Rice bands: unary quotient + k-bit remainder -----------------------
    if is_rice.any():
        bits = np.zeros(total * 8, dtype=np.uint8)
        sel_e = is_rice[part_e]
        grp = part_e[sel_e]
        u_sel = u[sel_e]
        k_sel = k_e[sel_e]
        qq = (u_sel >> k_sel.astype(np.uint64)).astype(np.int64)
        lengths = qq + 1 + k_sel
        # exclusive cumsum of bit lengths, restarted per band
        ex = np.cumsum(lengths) - lengths
        head = np.empty(len(grp), dtype=bool)
        head[0] = True
        head[1:] = grp[1:] != grp[:-1]
        ex = ex - ex[head][np.cumsum(head) - 1]
        elem_start = (starts[grp] + 4) * 8 + ex
        bits[elem_start + qq] = 1
        for j in range(int(k_sel.max())):
            sel = k_sel > j
            ones = (
                u_sel[sel] >> (k_sel[sel] - 1 - j).astype(np.uint64)
            ) & np.uint64(1)
            pos = elem_start[sel] + qq[sel] + 1 + j
            bits[pos[ones == np.uint64(1)]] = 1
        out |= np.packbits(bits)
        rs = starts[is_rice]
        nb = rice_bytes[is_rice]
        out[rs] = 0x80 | k[is_rice]
        out[rs + 1] = e_p[is_rice] & 0xFF
        out[rs + 2] = nb & 0xFF
        out[rs + 3] = nb >> 8

    # -- fixed-band descriptors: width tag + signed exponent ----------------
    out[starts[fixed]] = w_p[fixed]
    out[starts[fixed] + 1] = e_p[fixed] & 0xFF
    return out.tobytes()


def decode_bands_batched(
    data: bytes,
    offset: int,
    n_frames: int,
    edges: np.ndarray,
    *,
    rice_tags: bool = True,
) -> tuple:
    """Decode ``n_frames`` frames of band parts starting at ``offset``.

    Returns ``(values, end_offset)`` with ``values`` of shape
    ``(n_frames, n_bins)``; inactive bands stay zero.  Structural
    anomalies — the situations where the scalar walker's *error* is the
    contract — raise :class:`BatchFallback`.  Rice-band payloads go
    through :func:`repro.codec.rice.rice_decode`.
    """
    layout = _layout(edges)
    n_bands = layout.n_bands
    values = np.zeros((n_frames, layout.n_bins))

    # the descriptor walk: one table lookup per part gives its size, so
    # the loop only records where each part starts
    starts: list = []
    rice_parts: list = []
    try:
        for sizes in layout.part_sizes[rice_tags] * n_frames:
            starts.append(offset)
            size = sizes[data[offset]]
            if size <= 0:
                if size == _BAD_TAG:
                    raise BatchFallback("fixed width out of range")
                rice_parts.append(len(starts) - 1)
                size = 4 + (data[offset + 2] | (data[offset + 3] << 8))
            offset += size
    except IndexError:
        raise BatchFallback("descriptor past end of data") from None
    if offset > len(data):
        # the last part's payload runs past the end of the data
        raise BatchFallback("band payload truncated")
    edges_list = layout.edges.tolist()
    for i in rice_parts:
        f, b = divmod(i, n_bands)
        s = starts[i]
        exp = data[s + 1] - 256 if data[s + 1] > 127 else data[s + 1]
        nbytes = data[s + 2] | (data[s + 3] << 8)
        lo, hi = edges_list[b], edges_list[b + 1]
        q = rice.rice_decode(
            data[s + 4 : s + 4 + nbytes], data[s] & 0x7F, hi - lo
        )
        values[f, lo:hi] = q * (2.0**exp)

    raw = np.frombuffer(data, dtype=np.uint8)
    starts = np.array(starts, dtype=np.int64)
    tags = raw[starts]
    fixed = tags != 0
    fixed[rice_parts] = False
    parts = np.flatnonzero(fixed)
    if parts.size:
        part_starts = starts[parts]
        part_e, within, flat = _band_elements(layout, parts)
        w_e = tags[parts].astype(np.int64)[part_e]
        bitpos = _field_bits(part_starts, part_e, within, w_e)
        q = gather_fields(data, w_e, bitpos) - (1 << (w_e - 1))
        exps = raw[part_starts + 1].view(np.int8).astype(np.int64)
        values.reshape(-1)[flat] = q * np.ldexp(1.0, exps)[part_e]
    return values, offset
