"""Two's-complement bit manipulation of quantized weights.

The paper represents each quantized weight as an ``nq``-bit two's-complement
integer stored in DRAM; a RowHammer/RowPress fault flips exactly one of
those bits.  The helpers here convert between integer weights and their bit
representation, apply targeted flips and compute the weight change a flip
causes — all the arithmetic the bit-search algorithm needs.

Bit index convention: bit 0 is the least significant bit, bit ``nq - 1`` is
the sign bit (most significant).
"""

from __future__ import annotations

from typing import Union

import numpy as np

from repro.nn import kernels
from repro.utils.validation import check_index

IntArray = Union[int, np.ndarray]


def _validate_num_bits(num_bits: int) -> None:
    if not 2 <= num_bits <= 32:
        raise ValueError(f"num_bits must be within [2, 32], got {num_bits}")


def int_range(num_bits: int) -> tuple:
    """Inclusive (min, max) representable range of an ``num_bits`` integer."""
    _validate_num_bits(num_bits)
    return (-(1 << (num_bits - 1)), (1 << (num_bits - 1)) - 1)


def to_twos_complement(values: IntArray, num_bits: int, validate: bool = True) -> np.ndarray:
    """Encode signed integers into their unsigned two's-complement pattern.

    ``validate=False`` skips the O(n) min/max range scan; callers on hot
    paths (the bit-search proposer, the fault engine) use it for values that
    are in range by construction — e.g. quantized ``int_repr`` arrays, whose
    bit patterns stay valid under arbitrary single-bit flips.
    """
    values = np.asarray(values, dtype=np.int64)
    if validate:
        _validate_num_bits(num_bits)
        low, high = int_range(num_bits)
        if values.size and (values.min() < low or values.max() > high):
            raise ValueError(f"values out of range for {num_bits}-bit two's complement")
    mask = (1 << num_bits) - 1
    return (values & mask).astype(np.int64)


def from_twos_complement(patterns: IntArray, num_bits: int, validate: bool = True) -> np.ndarray:
    """Decode unsigned two's-complement patterns back into signed integers."""
    if validate:
        _validate_num_bits(num_bits)
    patterns = np.asarray(patterns, dtype=np.int64)
    sign_bit = 1 << (num_bits - 1)
    return np.where(patterns & sign_bit, patterns - (1 << num_bits), patterns)


def int_to_bits(values: IntArray, num_bits: int) -> np.ndarray:
    """Expand signed integers into a bit matrix of shape ``(..., num_bits)``.

    Column ``b`` of the result holds bit ``b`` (LSB first).
    """
    patterns = to_twos_complement(values, num_bits)
    bit_positions = np.arange(num_bits)
    return ((patterns[..., None] >> bit_positions) & 1).astype(np.uint8)


def bits_to_int(bits: np.ndarray, num_bits: int) -> np.ndarray:
    """Inverse of :func:`int_to_bits`."""
    _validate_num_bits(num_bits)
    bits = np.asarray(bits)
    if bits.shape[-1] != num_bits:
        raise ValueError(f"last dimension must be {num_bits}, got {bits.shape[-1]}")
    weights = (1 << np.arange(num_bits)).astype(np.int64)
    patterns = (bits.astype(np.int64) * weights).sum(axis=-1)
    return from_twos_complement(patterns, num_bits)


def get_bit(value: int, bit: int, num_bits: int) -> int:
    """Return bit ``bit`` (0 = LSB) of a signed integer."""
    _validate_num_bits(num_bits)
    check_index("bit", bit, num_bits)
    pattern = int(to_twos_complement(np.asarray([value]), num_bits)[0])
    return (pattern >> bit) & 1


def flip_bit(value: int, bit: int, num_bits: int) -> int:
    """Return the signed integer obtained by flipping one bit of ``value``."""
    _validate_num_bits(num_bits)
    check_index("bit", bit, num_bits)
    pattern = int(to_twos_complement(np.asarray([value]), num_bits)[0])
    flipped = pattern ^ (1 << bit)
    return int(from_twos_complement(np.asarray([flipped]), num_bits)[0])


def bit_flip_delta(value: int, bit: int, num_bits: int) -> int:
    """Signed change of the integer value when ``bit`` is flipped.

    Flipping a set magnitude bit decreases the value by ``2**bit``; flipping
    a cleared one increases it.  The sign bit works the other way round
    (two's complement), which this helper handles uniformly by just taking
    the difference.
    """
    return flip_bit(value, bit, num_bits) - int(value)


def bit_flip_deltas_vector(values: np.ndarray, bit: int, num_bits: int) -> np.ndarray:
    """Vectorised :func:`bit_flip_delta` for a whole weight tensor."""
    _validate_num_bits(num_bits)
    check_index("bit", bit, num_bits)
    values = np.asarray(values, dtype=np.int64)
    patterns = to_twos_complement(values, num_bits)
    current_bits = (patterns >> bit) & 1
    magnitude = 1 << bit
    if bit == num_bits - 1:
        # Sign bit: setting it subtracts 2**bit, clearing it adds 2**bit.
        return np.where(current_bits == 1, magnitude, -magnitude).astype(np.int64)
    return np.where(current_bits == 1, -magnitude, magnitude).astype(np.int64)


def bit_flip_delta_table(
    values: np.ndarray, num_bits: int, validate: bool = True
) -> np.ndarray:
    """Signed value change for flipping *every* bit of *every* value.

    Returns a ``(num_bits, size)`` int64 table where entry ``[b, i]`` equals
    ``bit_flip_delta(values[i], b, num_bits)``.  Row-major bit ordering means
    a flat argmax over a gain table derived from it breaks ties exactly like
    scanning bits in ascending order and taking the first per-bit argmax —
    the tie-break order of the loop reference proposer.

    The table only depends on the stored bit patterns, so after a single bit
    flip only one column needs recomputing (see
    :class:`repro.core.bfa.BitFlipAttack`'s delta-table cache).
    """
    if validate:
        _validate_num_bits(num_bits)
        low, high = int_range(num_bits)
        check_values = np.asarray(values, dtype=np.int64)
        if check_values.size and (check_values.min() < low or check_values.max() > high):
            raise ValueError(f"values out of range for {num_bits}-bit two's complement")
    values = np.asarray(values, dtype=np.int64).ravel()
    # Integer arithmetic is exact in every backend, so the registry
    # dispatch (compiled table construction on the C kernels)
    # cannot change a single entry.
    return kernels.delta_table(values, num_bits)


def bit_flip_delta_column(value: int, num_bits: int) -> np.ndarray:
    """One column of :func:`bit_flip_delta_table` for a single value.

    The bit-search delta-table cache recomputes exactly one column after a
    flip lands (only that weight's bit pattern changed); this is the
    registry-dispatched single-value path it uses.
    """
    return kernels.delta_column(int(value), num_bits)


def hamming_distance(a: IntArray, b: IntArray, num_bits: int) -> int:
    """Total number of differing bits between two integer arrays.

    This is the quantity ``D(B_hat, B)`` the attack objective minimises —
    the number of bit flips spent.
    """
    bits_a = int_to_bits(np.asarray(a), num_bits)
    bits_b = int_to_bits(np.asarray(b), num_bits)
    return int(np.sum(bits_a != bits_b))
