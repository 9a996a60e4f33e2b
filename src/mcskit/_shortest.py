"""Shortest round-trip text of float64 arrays, byte for byte as repr(float).

`repr_rows(values)` returns one zero-padded row of ASCII bytes per finite
double. The decimal digits come from Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020; the same candidates as Ryu,
U. Adams, PLDI 2018): the shortest decimal inside the value's rounding
interval, the closest one when several are as short, the even one on a
tie. All arithmetic is uint64 numpy over the whole array, with 32-bit
halves where a product needs 128 bits, so no Python code runs per value.

The text is laid out in two steps. A 4-digit lookup table writes each
value's digits, normalized to 17 with the leading digit first, and its
decimal exponent into a source row. Then a flat `take` through a table
of index rows, one per output shape (sign, fixed or scientific notation,
decimal point position or exponent width, digit count), copies repr's
text out of the source rows, 1024 rows at a time, with every unused byte
pointing at a zero. The tables are built on the first call, so importing
the module costs nothing.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

# the longest finite repr, '-1.2345678901234567e-308', has 24 characters
WIDTH = 24

_K_MIN, _K_MAX = -324, 292  # decimal exponents of the scaled values

# A source row is eight 4-byte words: the leading digit as '000d', four
# words of four digits, the exponent as '0ddd', then the constant bytes.
_CONST = b"-.e+0\0\0\0"
_LEAD, _DIGITS, _EXP = 3, 4, 20  # byte positions
_MINUS, _DOT, _E, _PLUS, _ZERO, _PAD = range(24, 30)
_WORDS = 8

# shapes: 20 fixed modes for decimal point positions -3..16, then the
# scientific ones e+dd, e+ddd, e-dd, e-ddd; each for 1..17 digits and a sign
_FIXED_MODES = 20
_MODES = _FIXED_MODES + 4
_N_DIGITS = 17
_POINT_MIN = -330  # below the lowest decimal point position, -323

_POW10 = 10 ** np.arange(20, dtype=np.uint64)
_SCALE = _POW10[17 - np.minimum(np.arange(19), 17)]  # 10^(17 - digits)
_SLICE = 1024  # rows laid out at a time
_OFFSETS = 4 * np.arange(_SLICE)[:, None]

_M32 = 0xFFFFFFFF
_M63 = (1 << 63) - 1
_M64 = (1 << 64) - 1


class _Tables(NamedTuple):
    exps: np.ndarray  # k and its row of g, per biased exponent, twice
    shifts: np.ndarray  # Giulietti's h + 1, the same way
    g: tuple[np.ndarray, ...]  # the words of g(k), per row; see _tables
    words: np.ndarray  # the text of 0..9999 as 4-byte words, then constants
    sig: np.ndarray  # digits through the last nonzero one, per group word
    points: np.ndarray  # shape offset and |exponent|, per decimal point
    layout: tuple[np.ndarray, np.ndarray]  # source word and byte, per shape
    length: np.ndarray  # text length per shape


def _floor_log2_pow10(m: int) -> int:
    """floor(log2(10^m)), exactly."""
    if m >= 0:
        return (10**m).bit_length() - 1
    return -((10**-m).bit_length())  # 10^|m| is no power of two


@functools.cache
def _tables() -> _Tables:
    """Every table of the kernel, built once per process on first use."""
    # g(k) = floor(10^-k 2^(125 - e)) + 1 with e = floor(log2 10^-k), so
    # 2^125 < g <= 2^126. Per k: the high and low 64-bit words of g, their
    # 32-bit halves, and the words of 2g.
    ks = range(_K_MIN, _K_MAX + 1)
    g = np.empty((8, len(ks)), dtype=np.uint64)
    e_of_k = np.empty(len(ks), dtype=np.int64)
    for i, k in enumerate(ks):
        e = _floor_log2_pow10(-k)
        s = 125 - e
        if k <= 0:
            gk = (10**-k << s if s >= 0 else 10**-k >> -s) + 1
        else:
            gk = (1 << s) // 10**k + 1
        hi, lo = gk >> 64, gk & _M64
        g[:, i] = (hi, lo, hi >> 32, hi & _M32, lo >> 32, lo & _M32,
                   gk >> 63, (gk << 1) & _M64)
        e_of_k[i] = e

    # k = floor(log10 2^q), or floor(log10 3/4 2^q) at a power of two whose
    # gap below is half the gap above, by the integer formulas of the
    # Schubfach reference; biased exponent b, plus 2047 at a power of two
    q = np.maximum(np.arange(2047), 1) - 1075
    q = np.concatenate([q, q])
    k = (q * 661_971_961_083 - np.repeat([0, 274_743_187_321], 2047)) >> 41
    # b = 0 and 1 are never a power of two with the smaller gap below, and
    # their unused entries would fall off the table
    row = np.clip(k - _K_MIN, 0, len(ks) - 1)
    shifts = (q + e_of_k[row] + 3).astype(np.uint64)

    # the text of 0..9999 as one 4-byte word each, then the constant words
    d = np.arange(10_000)
    text = np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1)
    text = (text + ord("0")).astype(np.uint8)
    words = np.concatenate([text.ravel(), np.frombuffer(_CONST, np.uint8)])
    words = words.view(np.uint32)
    # digits through the last nonzero one of each 4-digit word, placed as
    # word 1..4 of the 16 digits after the leading one; 0 for a zero word
    last = np.zeros(10_000, dtype=np.int8)
    for place in range(4):  # the last nonzero digit wins
        last[text[:, place] != ord("0")] = place + 1
    sig = np.stack([np.where(last > 0, last + 1 + 4 * w, 0) for w in range(4)])

    # per decimal point position: the first shape of its mode, less one
    # (digit counts start at 1), and the exponent repr prints, |point - 1|
    point = np.arange(_POINT_MIN, -_POINT_MIN)
    exponent = np.abs(point - 1)
    sci = _FIXED_MODES + 2 * (point < 0) + (exponent >= 100)
    mode = np.where((point < -3) | (point > 16), sci, point + 3)
    points = np.stack([mode * _N_DIGITS - 1, exponent])

    layout = np.empty((2 * _MODES * _N_DIGITS, WIDTH), dtype=np.int16)
    length = np.empty(len(layout), dtype=np.int16)
    digits = [_LEAD] + list(range(_DIGITS, _DIGITS + 16))
    for neg in (0, 1):
        for mode in range(_MODES):
            for n in range(1, _N_DIGITS + 1):
                text_at = [_MINUS] * neg + _shape(mode, digits[:n])
                i = (neg * _MODES + mode) * _N_DIGITS + n - 1
                layout[i] = text_at + [_PAD] * (WIDTH - len(text_at))
                length[i] = len(text_at)
    return _Tables(np.stack([k, row]), shifts, tuple(g), words, sig.astype(np.int8),
                   points.astype(np.int16), (layout // 4, layout % 4), length)


def _shape(mode: int, digits: list[int]) -> list[int]:
    """Source positions of repr's text for one shape, sign left out."""
    n = len(digits)
    if mode < _FIXED_MODES:
        point = mode - 3  # digits before the decimal point
        if point <= 0:
            return [_ZERO, _DOT] + [_ZERO] * -point + digits
        if point < n:
            return digits[:point] + [_DOT] + digits[point:]
        return digits + [_ZERO] * (point - n) + [_DOT, _ZERO]
    sci = mode - _FIXED_MODES
    text = digits[:1] + ([_DOT] + digits[1:] if n > 1 else [])
    text += [_E, _PLUS if sci < 2 else _MINUS]
    return text + list(range(_EXP + 2 - sci % 2, _EXP + 4))


def _mul(a, ah, al, b, bh, bl):
    """a b as its high and low 64-bit words, from the 32-bit halves."""
    p01, p10 = al * bh, ah * bl
    mid = ((al * bl) >> 32) + (p01 & _M32) + (p10 & _M32)
    return ah * bh + (p01 >> 32) + (p10 >> 32) + (mid >> 32), a * b


def _decimal(bits, tables: _Tables):
    """(D, k) with D 10^k the shortest nearest decimal of each positive bits.

    Schubfach compares the interval ends vbl, vbr and the value vb, each
    4 x 10^-k times its binary value, rounded to odd as rop(g c' 2^h /
    2^127) for c' in cb - 2 (or cb - 1 below a power of two), cb and
    cb + 2. The product P = g cb is formed once as three 64-bit words;
    the ends are P - 2g (or P - g) and P + 2g, which take only additions.
    """
    bq = bits >> 52
    t = bits & ((1 << 52) - 1)
    irregular = (t == 0) & (bq > 1)
    c = t | (np.minimum(bq, 1) << 52)
    at = bq.view(np.int64) + irregular * 2047
    k, row = tables.exps.take(at, axis=1)
    shift = tables.shifts.take(at)
    gh, gl, ghh, ghl, glh, gll, g2h, g2l = (word.take(row) for word in tables.g)
    cb = c << 2
    cbh, cbl = cb >> 32, cb & _M32
    b1, b0 = _mul(gh, ghh, ghl, cb, cbh, cbl)
    a1, lo = _mul(gl, glh, gll, cb, cbh, cbl)
    mid = b0 + a1
    hi = b1 + (mid < a1)

    # rop of (hi 2^128 + mid 2^64 + lo) / 2^(128 - shift). The bits below
    # 2^(65 - shift) stay out of the sticky bit: they hold the excess of g
    # over 10^-k 2^(125 - e) times c', under 2^55, which must not make an
    # exact quotient look inexact. Giulietti's 64-bit rop drops them too.
    keep, mid_down, lo_down = _M64 >> shift, 64 - shift, 65 - shift

    def rop(hi, mid, lo):
        inexact = ((mid & keep) | (lo >> lo_down)) != 0
        return (hi << shift) | (mid >> mid_down) | inexact

    vb = rop(hi, mid, lo)
    lo_r = lo + g2l  # P + 2g
    mid_r = mid + g2h
    carry = lo_r < g2l
    hi_r = hi + (mid_r < g2h) + (mid_r + carry < carry)
    vbr = rop(hi_r, mid_r + carry, lo_r)
    dh, dl = np.where(irregular, gh, g2h), np.where(irregular, gl, g2l)
    borrow = lo < dl  # P - 2g, or P - g
    mid_l = mid - dh
    hi_l = hi - (mid < dh) - (mid_l < borrow)
    vbl = rop(hi_l, mid_l - borrow, lo - dl)

    # an odd significand leaves the interval's ends out; in units of 10^k,
    # s and s + 1 are the candidates of vb's length, sp10 and sp10 + 10
    # those one digit shorter
    out = c & 1
    vbl_out = vbl + out
    s = vb >> 2
    s4 = s << 2
    sp40 = s // 10 * 40
    upin = vbl_out <= sp40
    wpin = sp40 + 40 + out <= vbr
    uin = vbl_out <= s4
    win = s4 + 4 + out <= vbr
    closer = vb + (s & 1) <= s4 + 2  # below the midpoint, or on it and even
    low = uin & (~win | closer)
    return np.where(upin != wpin, (sp40 >> 2) + wpin * np.uint64(10), s + ~low), k


def repr_rows(values: np.ndarray) -> np.ndarray:
    """(n, width) uint8: repr of each finite float64, zero padded on the right.

    width is at most WIDTH, just enough for the longest row. Non-finite
    values are the caller's to spell.
    """
    tables = _tables()
    words, sig = tables.words, tables.sig
    bits = np.ascontiguousarray(values, dtype=np.float64).ravel().view(np.uint64)
    n = bits.size
    mag = bits & _M63
    zero = mag == 0
    d, k = _decimal(mag | zero, tables)  # 0 becomes 5e-324 and its digit 0 below
    d *= ~zero

    # normalize D to 17 digits; a carry can make it 10^17, which has 18
    n_d = np.searchsorted(_POW10, d, side="right")
    d = np.where(n_d > 17, _POW10[16], d * _SCALE.take(n_d))
    point = np.where(zero, 1, k + n_d)  # value = 0.DDD... 10^point
    first_shape, exponent = tables.points.take(point - _POINT_MIN, axis=1)

    # source rows: the words of the leading digit, four 4-digit groups and
    # the exponent, then the constant bytes
    d = d.view(np.int64)
    hi = d // 100_000_000
    lo = d - hi * 100_000_000
    lead = hi // 100_000_000
    hi -= lead * 100_000_000
    g1, g3 = hi // 10_000, lo // 10_000
    groups = (g1, hi - g1 * 10_000, g3, lo - g3 * 10_000)
    src = np.empty((_WORDS, n), dtype=np.uint32)  # word w of value i at [w, i]
    for w, part in enumerate((lead, *groups, exponent)):
        words.take(part, out=src[w], mode="wrap")
    src[6:] = words[10_000:, None]

    n_sig = sig[0].take(groups[0])
    for place in range(1, 4):
        np.maximum(n_sig, sig[place].take(groups[place]), out=n_sig)
    np.maximum(n_sig, 1, out=n_sig)  # the significant digits, at least one
    shape = (bits >> 63).view(np.int64) * (_MODES * _N_DIGITS) + first_shape
    shape += n_sig

    # lay out in slices, so the index arrays stay small; byte b of a row
    # is byte b % 4 of word b // 4, n words further on per word
    width = tables.length.take(shape).max(initial=0)
    word, byte = tables.layout
    table = word[:, :width].astype(np.intp) * (4 * n) + byte[:, :width]
    rows = np.empty((n, width), dtype=np.uint8)
    flat = src.view(np.uint8).ravel()
    for start in range(0, n, _SLICE):
        index = table.take(shape[start:start + _SLICE], axis=0)
        index += _OFFSETS[:len(index)] + 4 * start
        flat.take(index, out=rows[start:start + _SLICE], mode="wrap")
    return rows
