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
    """A 2^m constellation; point i carries the m-bit big-endian label i."""

    kind: str
    points: np.ndarray
    m_bits: int
    avg_energy: float
    normalized: bool
    labels: tuple[str, ...] = field(repr=False, default=())

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
    m = int(np.log2(points.size))
    labels = tuple(format(i, f"0{m}b") for i in range(points.size))
    return Alphabet(
        kind=kind,
        points=points,
        m_bits=m,
        avg_energy=float(np.mean(np.abs(points) ** 2)),
        normalized=normalize,
        labels=labels,
    )


def bits_to_index(bits: np.ndarray) -> int:
    """Pack a big-endian 0/1 vector into an integer."""
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def index_to_bits(value: int, width: int) -> np.ndarray:
    """Unpack an integer into a big-endian 0/1 vector of the given width."""
    return np.array([(value >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.int8)


def pack_bits(bits: np.ndarray, count: int, width: int) -> np.ndarray:
    """count consecutive width-bit big-endian fields -> their integer values."""
    return bits.reshape(count, width) @ (1 << np.arange(width - 1, -1, -1))


def unpack_bits(values: np.ndarray, width: int) -> np.ndarray:
    """Integer values -> their width-bit big-endian fields, concatenated along
    the last axis."""
    fields = (values[..., None] >> np.arange(width - 1, -1, -1)) & 1
    return fields.astype(np.int8).reshape(values.shape[:-1] + (-1,))


def map_bits(bits: np.ndarray, a: Alphabet) -> complex:
    """Map an m_bits-long bit vector to its constellation point."""
    bits = np.asarray(bits)
    if bits.size != a.m_bits:
        raise ValueError(f"expected {a.m_bits} bits, got {bits.size}")
    return complex(a.points[bits_to_index(bits)])


def demap_symbol(s: complex, a: Alphabet) -> np.ndarray:
    """Label of the nearest constellation point (ties go to the lowest label)."""
    idx = int(np.argmin(np.abs(a.points - s)))
    return index_to_bits(idx, a.m_bits)
