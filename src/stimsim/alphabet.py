"""Modulation constellations with deterministic bit labeling.

The label of point ``i`` is the big-endian binary expansion of ``i`` over
``m_bits`` bits, so mapping and demapping reduce to integer packing. The
4-QAM labeling is fixed so that bits (b1, b2) map to (1-2*b1) + 1j*(1-2*b2)
in unnormalized form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

SUPPORTED_KINDS = ("bpsk", "qam4", "qam8", "qam16")

# qam2 is accepted as a size-2 alias of bpsk in configs and CLI flags
_ALIASES = {"qam2": "bpsk"}


class ConfigError(ValueError):
    """Invalid system parameters."""


@dataclass(frozen=True)
class Alphabet:
    """A 2^m constellation; point i carries the m-bit big-endian label i.
    build_alphabet fixes the points by kind and normalized, so equality and
    hashing leave them out."""

    kind: str
    points: np.ndarray = field(compare=False)
    m_bits: int
    normalized: bool

    @property
    def size(self) -> int:
        return self.points.size


def _base_points(kind: str) -> np.ndarray:
    if kind == "bpsk":
        # bit 0 -> +1, bit 1 -> -1
        return np.array([1.0, -1.0], dtype=np.complex128)
    if kind == "qam4":
        # (b1, b2) -> (1 - 2 b1) + 1j (1 - 2 b2)
        pts = [(1 - 2 * b1) + 1j * (1 - 2 * b2) for b1 in (0, 1) for b2 in (0, 1)]
        return np.array(pts, dtype=np.complex128)
    if kind == "qam8":
        # rectangular 4x2 grid: two Gray bits pick the real level, last bit the sign
        # of the imaginary part
        re = [-3.0, -1.0, 1.0, 3.0]
        gray2 = [0b00, 0b01, 0b11, 0b10]
        level = {g: re[i] for i, g in enumerate(gray2)}
        pts = [level[i >> 1] + 1j * (1.0 - 2.0 * (i & 1)) for i in range(8)]
        return np.array(pts, dtype=np.complex128)
    if kind == "qam16":
        # 4x4 grid, independent 2-bit Gray code per axis
        gray2 = [0b00, 0b01, 0b11, 0b10]
        level = {g: (-3.0, -1.0, 1.0, 3.0)[i] for i, g in enumerate(gray2)}
        pts = [level[i >> 2] + 1j * level[i & 0b11] for i in range(16)]
        return np.array(pts, dtype=np.complex128)
    raise ConfigError(f"unsupported alphabet kind: {kind!r}")


def build_alphabet(kind: str, normalize: bool = True) -> Alphabet:
    """Build a constellation.

    Parameters
    ----------
    kind : str
        One of "bpsk", "qam4", "qam8", "qam16" ("qam2" is a bpsk alias).
    normalize : bool
        Scale points so the average symbol energy is exactly 1. Use
        ``normalize=False`` only to work with integer-grid points.
    """
    kind = _ALIASES.get(kind, kind)
    if kind not in SUPPORTED_KINDS:
        raise ConfigError(f"unsupported alphabet kind: {kind!r}")
    points = _base_points(kind)
    if normalize:
        points = points / np.sqrt(np.mean(np.abs(points) ** 2))
    points.setflags(write=False)
    return Alphabet(kind=kind, points=points, m_bits=int(np.log2(points.size)), normalized=normalize)


def pack_bits(bits: np.ndarray, count: int, width: int) -> np.ndarray:
    """count consecutive width-bit big-endian fields along the last axis ->
    their integer values, shape bits.shape[:-1] + (count,)."""
    return bits.reshape(bits.shape[:-1] + (count, width)) @ (1 << np.arange(width - 1, -1, -1))


def unpack_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Integer values -> their width-bit big-endian fields, concatenated along
    the last axis."""
    fields = (values[..., None] >> np.arange(width - 1, -1, -1)) & 1
    return fields.astype(np.int8).reshape(values.shape[:-1] + (-1,))
