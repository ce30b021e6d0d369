"""Byte-size accounting for stored image representations."""

from __future__ import annotations

from repro.transforms.spec import TransformSpec

__all__ = ["raw_bytes", "representation_bytes"]

#: Stored images use one byte per channel value (8-bit).
BYTES_PER_VALUE = 1


def raw_bytes(height: int, width: int, channels: int) -> int:
    """Bytes of an uncompressed 8-bit image of the given shape."""
    if height <= 0 or width <= 0 or channels <= 0:
        raise ValueError("image dimensions must be positive")
    return int(height * width * channels * BYTES_PER_VALUE)


def representation_bytes(spec: TransformSpec) -> int:
    """Bytes occupied by one stored image in the representation ``spec``."""
    return raw_bytes(*spec.shape)
