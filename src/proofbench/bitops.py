"""Small helpers for bitmask-encoded sets of input indices."""

from __future__ import annotations

from typing import Iterator


def full_mask(nbits: int) -> int:
    return (1 << nbits) - 1


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low
