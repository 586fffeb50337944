"""Small helpers for bitmask-encoded sets of input indices."""

from __future__ import annotations

from typing import Iterable, Iterator


def full_mask(nbits: int) -> int:
    return (1 << nbits) - 1


def bit_plane(bit: int, nbits: int) -> int:
    """The mask of the indices below 2^nbits whose bit ``bit`` is 1: one
    period of w = 2^bit zeros and w ones, doubled until it spans them.
    """
    w = 1 << bit
    mask = ((1 << w) - 1) << w
    period = 2 * w
    while period < 1 << nbits:
        mask |= mask << period
        period *= 2
    return mask


_BIT_BYTES = bytes.maketrans(b"01", b"\x00\x01")


def spread(mask: int, stride: int) -> int:
    """Move bit i of ``mask`` to bit ``i * stride``.

    A stride of whole bytes writes each bit as byte 0 or 1 at every
    ``stride // 8``-th byte of a buffer; a shorter one pads each binary digit
    with ``stride - 1`` zeros. Both take time and memory linear in the result.
    """
    digits = format(mask, "b")
    if stride % 8:
        pad = "0" * (stride - 1)
        return int(digits.translate({48: pad + "0", 49: pad + "1"}), 2)
    step = stride >> 3
    buf = bytearray(len(digits) * step)
    buf[::step] = digits[::-1].encode().translate(_BIT_BYTES)
    return int.from_bytes(buf, "little")


def value_masks(values: Iterable[int]) -> dict[int, int]:
    """Per distinct value, the mask of the positions that hold it."""
    masks: dict[int, int] = {}
    for i, v in enumerate(values):
        masks[v] = masks.get(v, 0) | 1 << i
    return masks


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
