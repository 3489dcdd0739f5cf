"""Numbers as ASCII text and back, a NumPy block at a time.

The instance and vector files of ``storage`` and the MIP export of
``lpformat`` write and read their numbers here.  The module knows numbers
and ASCII bytes only: no files, lines or fields.  The writer's layout,
``decimal_cells``, puts ``repr`` or ``format(v, ".12g")`` of each float64
into a byte matrix, one row per value; callers lay such ``(cells, keep)``
blocks side by side with ``column`` (the same text in every row) and
``index_cells`` (integers), and ``text`` joins the kept cells into one
string, as ``format_floats`` does for ``" ".join(map(repr, x))``.  The
reader is the writer's inverse, one bulk call per grammar: ``read_floats``
for a run of reals and ``read_entries`` for a run of ``row col value``
lines.  Every token the writer writes is read in bulk; any other real goes
to ``float`` on its own, so every value is the one ``float`` reads, and a
token that ``float`` refuses raises its ValueError.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

__all__ = ["FORMAT_CHUNK", "column", "decimal_cells", "format_floats", "index_cells", "read_entries", "read_floats", "text"]

# Both kernels compute in uint64 with np.uint64 scalars and exponents in
# int64, never mixed (uint64 with int64 gives float64, and NumPy < 2 promotes
# Python scalars by value), and share one 128-bit multiply, _wide_product.

_ONE = np.uint64(1)
_TWO = np.uint64(2)
_TEN = np.uint64(10)
_U32 = np.uint64(32)
_U63 = np.uint64(63)
_MASK32 = np.uint64(2**32 - 1)
_MASK63 = np.uint64(2**63 - 1)
_POW10 = np.array([10**j for j in range(20)], dtype=np.uint64)  # every power below 2^64


def _wide_product(a: np.ndarray, b0: np.ndarray, b1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of each 128-bit product ``a b``, b given as its 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> _U32
    low, across, down = a0 * b0, a0 * b1, a1 * b0
    mid = (low >> _U32) + (across & _MASK32) + (down & _MASK32)
    return a1 * b1 + (across >> _U32) + (down >> _U32) + (mid >> _U32), (mid << _U32) | (low & _MASK32)


# Shortest decimals for whole float64 blocks.  The digits come from
# Giulietti's Schubfach ("The Schubfach way to render doubles", 2020; the
# digits Ryu gives): for v = c 2^q it scales the rounding interval of v by
# 10^-k, with k fixed by q, and picks the shortest decimal in it, the one
# closest to v on a tie of lengths, as Python's repr does.  It needs only one
# exact 192-bit integer product per value, which _rounded also rounds to a
# fixed number of significant digits, as format does.

_HIDDEN = np.uint64(2**52)
_TINY, _HUGE = np.finfo(np.float64).tiny, np.finfo(np.float64).max  # the normal doubles' range
FORMAT_CHUNK = 8_192  # values per block, which keeps the kernel's arrays in cache


def _scale(k: int) -> tuple[int, int]:
    """``(g, r)``: ``10^-k = beta 2^r`` with ``2^125 <= beta < 2^126``, and ``g = floor(beta) + 1``."""
    if k <= 0:
        p = 10**-k
        r = p.bit_length() - 126
        return (p >> r if r >= 0 else p << -r) + 1, r
    shift = (10**k).bit_length() + 125
    return (1 << shift) // 10**k + 1, -shift


@functools.cache
def _schubfach_table() -> tuple[np.ndarray, np.ndarray]:
    """Per-binade constants of ``_shortest``, built on first use.

    Column ``b + 2048 * irregular`` serves biased exponent b; ``irregular``
    marks ``c = 2^52`` above the lowest binade, whose lower neighbour is half
    as far.  Returns the decimal exponent k (int64) and five uint64 rows: the
    shift h and, in four 32-bit limbs, g of ``_scale(k)``, k in [-324, 292].
    """
    col = np.arange(4096, dtype=np.int64)
    q = col % 2048 - 1075
    irregular = (col >= 2048) & (col % 2048 > 1)
    # floor(log10(2^q)) and floor(log10(3/4 2^q)), in Schubfach's fixed-point form
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    scales = [_scale(j) for j in range(int(k.min()), int(k.max()) + 1)]
    g, r = (np.array(v, dtype=object)[k - k.min()] for v in zip(*scales))
    limbs = [(g >> (32 * i)) & (2**32 - 1) for i in range(4)]
    return k, np.array([q + r + 127, *limbs], dtype=np.uint64)


def _shifted_round_to_odd(top, mid, low, g_lo, g_hi, shift, sign: int) -> np.ndarray:
    """Round to odd of (product + sign g 2^shift) / 2^127, for 2 <= shift <= 6.

    The product is split at bits 64 and 127, g at bit 64; sums wrap mod 2^64
    and the results fit.  Bits 64..126 decide the odd bit, as for the product.
    """
    off_low = g_lo << shift
    off_mid = ((g_hi << shift) | (g_lo >> (np.uint64(64) - shift))) & _MASK63
    off_top = g_hi >> (_U63 - shift)
    if sign > 0:
        m = mid + off_mid + (low + off_low < low)
        return (top + off_top + (m >> _U63)) | ((m & _MASK63) != 0)
    # mid - off_mid - borrow lies in (-2^63, 2^63): carry it shifted up by 2^63
    m = mid + np.uint64(2**63) - off_mid - (low < off_low)
    return (top + (m >> _U63) - off_top - _ONE) | ((m & _MASK63) != 0)


def _scaled_product(bits: np.ndarray) -> tuple:
    """The exact product ``4 v 10^-k`` of each value, with what its neighbours need.

    ``bits`` are the uint64 bit patterns of positive normal doubles.  Returns
    ``(k, irregular, h, g_lo, g_hi, top, mid, low)``: Schubfach's decimal
    exponent k (int64), the power-of-two flag, the shift h and the two 64-bit
    halves of g, and ``g 4c 2^h / 2^127`` as ``top + mid / 2^63 + low / 2^127``.

    Round to odd, ``vb = top | (mid != 0)``, is ``4 v 10^-k`` with its low bit
    marking a non-integer.  g exceeds the exact scale by less than 1, so an
    integer leaves a remainder below ``4c 2^h < 2^64``, and Schubfach bounds
    every other remainder away from 0 and 2^127 by more than that: bits
    64..126 decide, and ``vb >> 2`` is ``floor(v 10^-k)``.
    """
    k_of, consts = _schubfach_table()
    frac = bits & (_HIDDEN - _ONE)
    biased = bits >> np.uint64(52)
    irregular = (frac == 0) & (biased > _ONE)
    col = (biased + irregular * np.uint64(2048)).astype(np.intp)
    k = k_of[col]
    h, g0, g1, g2, g3 = np.take(consts, col, axis=1)
    cp = (frac | _HIDDEN) << (h + _TWO)  # 4c 2^h

    # g cp exactly: g's low and high 64 bits times cp, the second 64 bits up
    high, low = _wide_product(cp, g0, g1)
    up, mid = _wide_product(cp, g2, g3)
    mid += high
    up += mid < high
    top = (up << _ONE) | (mid >> _U63)
    return k, irregular, h, g0 | (g1 << _U32), g2 | (g3 << _U32), top, mid & _MASK63, low


def _strip_zeros(f: np.ndarray, e: np.ndarray) -> None:
    """Move the trailing zeros of each ``f`` (below 10^17) into ``e``, in place."""
    zeros = np.flatnonzero(f // _TEN * _TEN == f)
    if zeros.size:
        fz, ez = f[zeros], e[zeros]
        for d in (16, 8, 4, 2, 1):
            cut = fz // _POW10[d]
            hit = cut * _POW10[d] == fz
            fz = np.where(hit, cut, fz)
            ez += hit * d
        f[zeros], e[zeros] = fz, ez


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(f, e)`` with ``f 10^e`` the shortest decimal that reads back as each value.

    ``bits`` are the uint64 bit patterns of positive normal doubles.  ``f``
    (uint64) has no trailing zeros; ``e`` is int64.  Among shortest decimals
    the one closest to the value wins, an even ``f`` on a tie.
    """
    k, irregular, h, g_lo, g_hi, top, mid, low = _scaled_product(bits)
    odd = bits & _ONE  # the low bit of c
    vb = top | (mid != 0)
    # the neighbours: 4c +- 2 (4c - 1 below a power of two) times g 2^h
    vbr = _shifted_round_to_odd(top, mid, low, g_lo, g_hi, h + _ONE, +1)
    vbl = _shifted_round_to_odd(top, mid, low, g_lo, g_hi, h + _ONE - irregular, -1)
    vbl += odd  # an odd c leaves the interval's ends out

    s = vb >> _TWO
    sp10 = s // _TEN * _TEN
    upin = vbl <= sp10 << _TWO
    wpin = ((sp10 + _TEN) << _TWO) + odd <= vbr
    uin = vbl <= s << _TWO
    win = ((s + _ONE) << _TWO) + odd <= vbr
    # s and s + 1 both in the interval: the closer, s on a tie when even (4v - 4s = vb & 3)
    rest = vb & np.uint64(3)
    closer_s = (rest < _TWO) | ((rest == _TWO) & ((s & _ONE) == 0))
    take_s = np.where(uin != win, uin, closer_s)
    f = np.where(upin != wpin, sp10 + _TEN * wpin, s + _ONE - take_s)
    _strip_zeros(f, k)
    return f, k


def _rounded(bits: np.ndarray, digits: int) -> tuple[np.ndarray, np.ndarray]:
    """``(f, e)`` with ``f 10^e`` each value rounded to ``digits`` <= 15 significant digits.

    ``bits`` are the uint64 bit patterns of positive normal doubles.  The
    digits are ``format``'s: the exact value rounded half to even.  ``f``
    (uint64) has no trailing zeros; ``e`` is int64.
    """
    k, *_, top, mid, _ = _scaled_product(bits)
    s = top >> _TWO  # floor(v 10^-k): 16 or 17 digits
    exact = ((top & np.uint64(3)) == 0) & (mid == 0)  # v 10^-k is s
    drop = _digit_count(s) - digits
    unit = _POW10[drop]
    f = s // unit
    rest = s - f * unit
    half = unit >> _ONE
    # a tie only when the dropped digits are 5000... and nothing follows them
    f += (rest > half) | ((rest == half) & ~(exact & ((f & _ONE) == 0)))
    carry = f == _POW10[digits]  # 99...9 rounded up to 10^digits
    f[carry] = _POW10[digits - 1]
    e = k + drop + carry
    _strip_zeros(f, e)
    return f, e


def _digit_count(x: np.ndarray) -> np.ndarray:
    return np.searchsorted(_POW10[1:], x, side="right") + 1


def _eight_digits(y: np.ndarray) -> np.ndarray:
    """y < 10^8 as eight ASCII digits packed in a little-endian uint64, first digit lowest.

    Splits y into 4-, 2- and 1-digit lanes of one word: ``x // 100`` is
    ``x * 10486 >> 20`` for x < 10^4 and ``x // 10`` is ``x * 103 >> 10`` for x < 100.
    """
    hi = y // np.uint64(10_000)
    v = hi | ((y - hi * np.uint64(10_000)) << _U32)
    hi = ((v * np.uint64(10_486)) >> np.uint64(20)) & np.uint64(0x7F_0000_007F)
    v = hi | ((v - hi * np.uint64(100)) << np.uint64(16))
    hi = ((v * np.uint64(103)) >> _TEN) & np.uint64(0x000F_000F_000F_000F)
    v = hi | ((v - hi * _TEN) << np.uint64(8))
    return v | np.uint64(0x3030_3030_3030_3030)


def _digit_cells(x: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """uint64 ``x`` as right-aligned ASCII digits, as wide as the block's largest ``count``.

    Returns the digits, zero-padded, and the mask of each row's last ``count`` of them.
    """
    width = int(count.max(initial=1))
    groups = -(-width // 8)
    words = np.empty((x.size, groups), dtype="<u8")
    for j in range(groups - 1, 0, -1):
        q = x // _POW10[8]
        words[:, j] = _eight_digits(x - q * _POW10[8])
        x = q
    words[:, 0] = _eight_digits(x)
    cells = words.view(np.uint8)[:, 8 * groups - width :]
    return cells, np.arange(width) >= (width - count)[:, None]


def column(fill: str, n: int, keep=True) -> tuple[np.ndarray, np.ndarray]:
    """``fill`` in each of n rows, kept where ``keep`` (a scalar or one flag per row)."""
    row = np.frombuffer(fill.encode("ascii"), dtype=np.uint8)
    return np.broadcast_to(row, (n, row.size)), np.broadcast_to(np.reshape(keep, (-1, 1)), (n, row.size))


def decimal_cells(x: np.ndarray, digits: int | None = None) -> tuple[list, np.ndarray]:
    """``repr`` of each float64, or ``format(v, f".{digits}g")`` for digits <= 15, as cell blocks.

    Also returns the mask of the rows whose digits are exactly 1.  The digits
    ``f 10^e`` are ``_shortest``'s for ``repr`` and ``_rounded``'s otherwise.
    As in CPython's ``format_float_short``, the position p of the decimal
    point in them decides the notation: rows with -4 < p <= P (P is 16 for
    ``repr``, ``digits`` for ``g``) are laid out here as ``[sign | int | '.'
    | frac]``, where ``repr`` keeps at least one fraction digit and ``g``
    drops the point of a whole number.  The rest (exponent notation, zeros,
    subnormals, inf and nan) take ``repr`` or ``format`` one by one.
    """
    magnitude = np.abs(x)
    normal = (magnitude >= _TINY) & (magnitude <= _HUGE)
    bits = np.where(normal, magnitude, 1.0).view(np.uint64)
    f, e = _shortest(bits) if digits is None else _rounded(bits, digits)
    point = e + _digit_count(f)  # the digits before the decimal point
    fixed = normal & (point > -4) & (point <= (16 if digits is None else digits))
    one = fixed & (f == 1) & (e == 0)
    negative = x < 0
    some = not fixed.all()
    if some:
        f, e, point, negative = f[fixed], e[fixed], point[fixed], negative[fixed]
    places = np.maximum(-e, 0)
    unit = _POW10[np.minimum(places, 19)]  # f < 10^18, so 10^19 moves all of it behind the point
    whole = f // unit
    part = f - whole * unit
    whole *= _POW10[np.maximum(e, 0)]
    shown = np.maximum(places, 1 if digits is None else 0)  # the fraction digits written
    blocks = [
        column("-", f.size, negative),
        _digit_cells(whole, np.maximum(point, 1)),
        column(".", f.size, shown > 0),
        _digit_cells(part, shown),
    ]
    if some:
        rest = x[~fixed].tolist()
        texts = [repr(v) for v in rest] if digits is None else [format(v, f".{digits}g") for v in rest]
        blocks = [_spliced(blocks, fixed, texts)]
    return blocks, one


def _spliced(blocks: list, fixed: np.ndarray, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """One block: the rows of ``blocks`` where ``fixed``, and ``texts`` right-aligned in the others."""
    fixed_cells, fixed_keep = _side_by_side(blocks)
    width = max(fixed_cells.shape[1], max(map(len, texts)))
    cells = np.zeros((fixed.size, width), dtype=np.uint8)
    keep = np.zeros((fixed.size, width), dtype=bool)
    cells[fixed, width - fixed_cells.shape[1] :] = fixed_cells
    keep[fixed, width - fixed_keep.shape[1] :] = fixed_keep
    padded = "".join(t.rjust(width) for t in texts).encode("ascii")
    cells[~fixed] = np.frombuffer(padded, dtype=np.uint8).reshape(len(texts), width)
    keep[~fixed] = np.arange(width) >= width - np.array([len(t) for t in texts])[:, None]
    return cells, keep


def _side_by_side(blocks: list) -> tuple[np.ndarray, np.ndarray]:
    return np.hstack([b[0] for b in blocks]), np.hstack([b[1] for b in blocks])


def text(blocks: list) -> str:
    """The kept cells of (cells, keep) blocks laid side by side, row after row."""
    cells, keep = _side_by_side(blocks)
    return cells[keep].tobytes().decode("ascii")


def format_floats(values: np.ndarray | Sequence[float]) -> str:
    """``" ".join(map(repr, values))`` for a float64 vector, built block by block in NumPy."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    chunks = (x[lo : lo + FORMAT_CHUNK] for lo in range(0, x.size, FORMAT_CHUNK))
    return "".join(text([*decimal_cells(v)[0], column(" ", v.size)]) for v in chunks)[:-1]


def index_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative integers ``x`` as decimal digits, a cell block."""
    x = x.astype(np.uint64)
    return _digit_cells(x, _digit_count(x))


# Numbers in bulk, the reader's inverse of format_floats.  The strict grammar
# is 1 to 18 digits for indices and [-]digits[.digits] for reals, at most 24
# digits that spell a number below 10^19 once the point is dropped.  A run of
# ASCII text is padded and viewed as one uint64 word per byte offset, so that
# a token's digits come in unaligned 8-byte loads, eight per word; the lanes
# left of a decimal point come from the load one byte earlier, which drops
# the point.  Each word is checked to hold digits only and folded to its
# value with three multiplies.  Eisel-Lemire then rounds w 10^-f to the
# nearest double from one 64x128-bit product with a truncated 5^-f (D.
# Lemire, "Number parsing at a gigabyte per second", Softw. Pract. Exp.
# 51(8), 2021); N. Mushtak and D. Lemire ("Fast number parsing without
# fallback", Softw. Pract. Exp. 53(6), 2023) prove that product always
# decides, for every w < 2^64.  The strict grammar keeps f <= _MAX_DIGITS and
# w < 10^19, so no value is subnormal or overflows.

_MAX_DIGITS = 24  # three words of digits
_PAD = _MAX_DIGITS + 8  # bytes before a run of text, so that every load stays inside it
_ASCII_ZEROS = np.uint64(0x3030_3030_3030_3030)
_RUN = 1 << 18  # characters of a run of reals that the kernel parses at a time
_ENTRY_SEPARATORS = np.array([ord(" "), ord(" "), ord("\n")], dtype=np.uint8)  # after row, col and value
# _LANES[k, j]: the lanes of word k (word 0 ends where the token ends) that
# hold its last j characters
_LANES = np.array(
    [[2**64 - 2 ** (64 - 8 * min(max(j - 8 * k, 0), 8)) for j in range(_MAX_DIGITS + 1)] for k in range(3)],
    dtype=np.uint64,
)


def _tokens(run: str) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """ASCII ``run`` as bytes, and where its tokens start and end and the separator (byte <= 32) that ends each.

    The bytes follow ``_PAD`` spaces and end in a "\n" (one is added if ``run`` has none).
    """
    end = "" if run.endswith("\n") else "\n"
    buf = np.frombuffer(f"{' ' * _PAD}{run}{end}".encode("ascii"), dtype=np.uint8)
    ends = np.flatnonzero(buf[_PAD:] <= 32) + _PAD
    starts = np.empty_like(ends)
    starts[:1] = _PAD
    starts[1:] = ends[:-1] + 1
    return buf, starts, ends, buf[ends]


def _words(buf: np.ndarray) -> np.ndarray:
    """``buf`` as little-endian uint64 words at every byte offset: word o holds bytes o..o+7."""
    return np.ndarray((buf.size - 7,), dtype="<u8", buffer=buf, strides=(1,))


def _fold_digits(x: np.ndarray) -> np.ndarray:
    """Eight digits 0..9, one per byte and the first lowest, as one number: ``_eight_digits`` undone.

    ``x * 10 + (x >> 8)`` puts each pair of digits in one byte; the two
    products then weigh the pairs by 10^6 and 10^2 and by 10^4 and 1 and sum
    them in the high 32 bits.
    """
    x = x * _TEN + (x >> np.uint64(8))
    pairs = np.uint64(0x0000_00FF_0000_00FF)
    first = (x & pairs) * np.uint64(100 + (10**6 << 32))
    return (first + ((x >> np.uint64(16)) & pairs) * np.uint64(1 + (10**4 << 32))) >> _U32


def _digit_words(words, ends, count, frac=None) -> tuple[np.ndarray, np.ndarray]:
    """The integer w that the ``count`` digits before each of ``ends`` spell, and the rows read.

    With ``frac``, a point precedes the last ``frac`` characters and is left
    out (``frac >= count``: no point): the lanes left of it come from the
    load one byte earlier, which the next word's top byte completes.
    A row is read when its characters are digits, 1 <= count <= 8 words and
    w < 10^19.
    """
    groups = -(-min(int(count.max(initial=1)), _MAX_DIGITS) // 8)
    ok = (count > 0) & (count <= 8 * groups)
    count = np.minimum(count, _MAX_DIGITS)
    loads = [words[ends - (8 * k + 8)] for k in range(groups)]
    w = bad = np.uint64(0)
    for k in range(groups - 1, -1, -1):  # the word of the leading digits first
        x = loads[k]
        if frac is not None:
            earlier = x << np.uint64(8)
            if k + 1 < groups:
                earlier |= loads[k + 1] >> np.uint64(56)
            x = earlier ^ ((x ^ earlier) & _LANES[k][frac])
        x = (x ^ _ASCII_ZEROS) & _LANES[k][count]  # digit values; 0 before the first digit
        bad |= (x + np.uint64(0x7676_7676_7676_7676)) & np.uint64(0x8080_8080_8080_8080)  # a lane above 9
        digits = _fold_digits(x)
        if k == 2:
            ok &= digits < np.uint64(1000)  # w < 10^19
        w = w * _POW10[8] + digits
    return w, ok & (bad == 0)


@functools.cache
def _powers_of_five() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """5^-f for 0 <= f <= ``_MAX_DIGITS`` as Eisel-Lemire needs it, built on first use.

    As in the table of Lemire's fast_float, 5^0 is 2^127 and 5^-f is
    ``floor(2^b / 5^f) + 1``, b the bit length of 5^f plus 127: 128 bits,
    returned as the two 32-bit limbs of the high word and the low word.
    Also returns ``floor(log2 10^-f) + 63 + 1022`` (217706 / 2^16 stands
    for log2 10), the biased exponent of a product less its hidden bit.
    """
    table = [1 << 127] + [(1 << ((5**f).bit_length() + 127)) // 5**f + 1 for f in range(1, _MAX_DIGITS + 1)]
    exponent = [((-217_706 * f) >> 16) + 63 + 1022 for f in range(_MAX_DIGITS + 1)]
    columns = ([t >> 64 & 2**32 - 1 for t in table], [t >> 96 for t in table], [t % 2**64 for t in table], exponent)
    return tuple(np.array(c, dtype=np.uint64) for c in columns)


def _nearest_doubles(w: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """The bits of the double nearest each ``w 10^-frac``, ties to even (Eisel-Lemire).

    For w < 2^64 and 0 <= frac <= ``_MAX_DIGITS``; the results are normal.
    """
    high0, high1, low5, exponent = _powers_of_five()
    v = np.maximum(w, _ONE)
    # 63 - floor(log2 v), one less where float(v) rounded up to a power of two
    lz = np.uint64(1086) - (v.astype(np.float64).view(np.uint64) >> np.uint64(52))
    v <<= lz
    short = (v >> _U63) ^ _ONE
    v <<= short
    lz += short
    high, low = _wide_product(v, high0[frac], high1[frac])
    # the bits of high below the 55 kept are all ones: the low word of 5^-f may carry into them
    more = np.flatnonzero((high & np.uint64(0x1FF)) == np.uint64(0x1FF))
    if more.size:
        low_more = low5[frac[more]]
        carry = _wide_product(v[more], low_more & _MASK32, low_more >> _U32)[0]
        low[more] += carry
        high[more] += low[more] < carry
    upper = high >> _U63
    shift = upper + np.uint64(9)
    m = high >> shift  # 54 bits: the double's 53 and one to round on
    # exactly halfway between two doubles (the product is exact, as it can be for
    # f <= 4, and drops only zeros): round down to even
    exact = np.flatnonzero(low <= _ONE)
    if exact.size:
        mx = m[exact]
        m[exact] -= (frac[exact] <= 4) & ((mx & np.uint64(3)) == _ONE) & ((mx << shift[exact]) == high[exact])
    m = (m + (m & _ONE)) >> _ONE  # 2^52 <= m <= 2^53: the hidden bit lands in the exponent
    bits = m + ((exponent[frac] + upper - lz) << np.uint64(52))
    return np.where(w == 0, np.uint64(0), bits)


def _points(ends: np.ndarray, dots: np.ndarray) -> np.ndarray:
    """Where the decimal point of each token ending at ``ends`` is, or -1 where it has none.

    ``dots`` are the sorted positions of the "." in the tokens, every one
    inside a token.  Of a token with several, any one is taken: the others
    stay among its digits, which the digit check then refuses.
    """
    point = np.full(ends.size, -1, dtype=np.int64)
    point[np.searchsorted(ends, dots)] = dots
    return point


def _read_reals(run: str, buf: np.ndarray, starts, ends, point) -> np.ndarray:
    """The tokens ``buf[starts:ends]`` (``run`` padded) as float64: the strict grammar in bulk, ``float`` the rest.

    ``point`` is where each token's decimal point is, -1 where it has none.
    """
    negative = buf[starts] == ord("-")
    first = starts + negative
    dotted = point >= 0
    frac = np.minimum(np.where(dotted, ends - 1 - point, _MAX_DIGITS), _MAX_DIGITS)
    w, ok = _digit_words(_words(buf), ends, ends - first - dotted, frac)
    bits = _nearest_doubles(w, np.where(dotted, frac, 0))
    values = (bits | (negative.astype(np.uint64) << _U63)).view(np.float64)
    for j in np.flatnonzero(~ok).tolist():
        values[j] = float(run[starts[j] - _PAD : ends[j] - _PAD])
    return values


def read_floats(run: str) -> np.ndarray:
    """``[float(t) for t in run.split()]`` as float64; ValueError where ``float`` refuses a token.

    One space between ASCII tokens is read in bulk, about ``_RUN``
    characters at a time, and the tokens outside the strict grammar one by
    one; other spacing reads them all one by one.
    """
    if run.isascii():
        buf, starts, ends, separators = _tokens(run)
        if np.all(starts < ends) and np.all(separators[:-1] == ord(" ")):
            point = _points(ends, np.flatnonzero(buf == ord(".")))
            values = np.empty(ends.size)
            cuts = [*np.searchsorted(ends, np.arange(0, buf.size, _RUN)).tolist(), ends.size]
            for lo, hi in zip(cuts, cuts[1:]):
                values[lo:hi] = _read_reals(run, buf, starts[lo:hi], ends[lo:hi], point[lo:hi])
            return values
    return np.array([float(t) for t in run.split()], dtype=np.float64)


def read_entries(run: str) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The rows, columns and values of a run of ``row col value`` lines, or None.

    Indices are read as the writer writes them, 1 to 18 ASCII digits, and
    values by the kernel or, outside its grammar, by ``float``; a value that
    ``float`` refuses raises its ValueError.  None refuses a run laid out
    otherwise: a byte outside ASCII, a tab or other control character,
    separators other than one space between the three tokens and a "\n"
    after them, or an index spelled any other way (a sign, more than 18
    digits).
    """
    if not run.isascii():
        return None
    buf, starts, ends, separators = _tokens(run)
    if ends.size % 3 or np.any(separators.reshape(-1, 3) != _ENTRY_SEPARATORS) or np.any(starts == ends):
        return None
    index_ends = ends.reshape(-1, 3)[:, :2].ravel()
    count = index_ends - starts.reshape(-1, 3)[:, :2].ravel()
    indices, ok = _digit_words(_words(buf), index_ends, count)
    if not np.all(ok & (count <= 18)):  # 1-18 digits: below 10^18, inside int64
        return None
    indices = indices.astype(np.int64)
    # every index was read, so every "." lies in a value
    point = _points(ends[2::3], np.flatnonzero(buf == ord(".")))
    return indices[0::2], indices[1::2], _read_reals(run, buf, starts[2::3], ends[2::3], point)
