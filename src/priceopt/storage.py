"""Instance and report serialization.

Instance files are a single UTF-8 text document with named fields::

    # priceopt instance v1
    n 3
    k 1
    a 5.0 0.25 1.5
    c 1.0 1.0 1.0
    p0 0.0 0.0 0.0
    delta 0.5 0.5 0.5
    l ...            (optional; l and u appear together or not at all)
    u ...
    D 4
    0 0 1.0
    0 2 -0.125
    1 1 1.0
    2 2 2.0

Matrix entries are 0-based ``row col value`` triples, one per line, with the
count on the ``D`` header line; duplicates and explicit zeros are rejected.
``n``, ``k``, the ``D`` count and every row and column index must be integer
literals (optional sign, ASCII digits; indices must fit in 64 bits): ``2.7``
or ``1e3`` there is a ParseError, never a truncation.  Each field appears at
most once.  Real numbers are anything Python's ``float`` accepts; they are
written as shortest round-trip decimals (at most 17 significant digits), so
write/read is lossless.  Lines starting with ``#`` are comments, except
inside the entry list, which is exactly the count's lines after ``D``.

The writer streams the entries straight from the canonical CSR arrays of
``Instance.D`` (row-major, sorted columns), in blocks of at most
``_FORMAT_CHUNK`` values.  Each number's text is exactly ``repr``'s, made
for a whole block at once by ``format_floats``: Schubfach (R. Giulietti,
"The Schubfach way to render doubles", 2020; the digits Ryu gives) finds
every value's shortest decimal with 64-bit integer arithmetic on NumPy
arrays, from one exact 192-bit product per value; ``_rounded`` rounds the
same product to a fixed number of significant digits, as ``format`` does.
One layout, ``_decimal_cells``, serves both ``repr`` and the MIP
exporter's ``format(v, ".12g")``: it writes sign, integer digits, point and
fraction digits into a byte matrix that one boolean mask compresses to
text.  As in CPython, the position of the decimal point in the digits
decides the notation; values written in exponent notation, zeros,
subnormals, inf and nan take ``repr`` or ``format`` one by one.

The reader is the writer's inverse.  It reads the file ``_LINE_BLOCK``
characters at a time, so neither the whole text nor a list of all its lines
is ever held, and parses numbers in bulk on ASCII bytes, about a block at a
time: the whole entry lines of a block, or a block's length of a vector
line.  A separator mask splits a run into tokens, unaligned 8-byte loads
gather each token's digits eight per word, a SWAR step checks and folds
them, and Eisel-Lemire rounds them to the nearest double (see the kernel
below).  The strict grammar is 1 to 18 ``digits`` for indices and
``[-]digits[.digits]`` for reals, at most 24 digits that spell a number
below 10^19 (19 significant digits) once the point is dropped; any other
real (exponent notation, more digits, ``+``, ``_``, inf, nan, non-ASCII
digits) goes to ``float`` on its own, so every value is the one ``float``
reads.  Every token the writer writes is thus read in the bulk pass.  An
entry run laid out any other way (a byte outside ASCII, a tab or other
control character, two separators in a row, a line of other than three
tokens, an index with a sign or more than 18 digits, or a value that
``float`` refuses) is read one line at a time, and a vector line spaced any
other way token by token; both name the offending line and token.  Ranges,
zeros and duplicates are checked with array operations; entries in the
writer's (row, col) order are D's CSR arrays as they stand, others are
sorted.  A leading UTF-8 byte-order mark is skipped, as ``read_vector`` and
``parse_lp`` skip it.  A byte that is not UTF-8 is reported first, wherever
it lies in the file.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import itertools
import math
import os
import re
import sys
import tempfile
from typing import Sequence

import numpy as np
from scipy import sparse

from .errors import ContractError, NumericError, ParseError
from .instance import Instance
from .solver import SolveReport

__all__ = [
    "read_instance",
    "write_instance",
    "write_report",
    "adjusted_gap",
    "read_vector",
    "write_vector",
    "atomic_write_text",
    "format_float",
    "format_floats",
]

_MAGIC = "# priceopt instance v1"

REPORT_COLUMNS = [
    "instance_id",
    "n",
    "k",
    "delta_mode",
    "bounds_mode",
    "start_id",
    "final_profit",
    "improvement_pct_vs_base",
    "iterations",
    "wall_time_s",
    "stationary",
    "bound_ii",
]


_VECTORS = ("a", "c", "p0", "delta", "l", "u")
_INTEGER = re.compile(r"[+-]?[0-9]+")
_INDEX_LIMIT = 2**63  # row and column indices must fit in int64


def format_float(x: float) -> str:
    """Shortest round-trip decimal of ``x``: the number format of every file written here."""
    return repr(float(x))


@contextlib.contextmanager
def _atomic_open(path: str):
    """A text handle whose content replaces ``path`` only if the block completes."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-priceopt-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write a file all-or-nothing: no partial output remains on failure."""
    with _atomic_open(path) as fh:
        fh.write(text)


# Shortest decimals for whole float64 blocks.  The digits come from
# Giulietti's Schubfach ("The Schubfach way to render doubles", 2020): for
# v = c 2^q it scales the rounding interval of v by 10^-k, with k fixed by q,
# and picks the shortest decimal in it, the one closest to v on a tie of
# lengths, as Python's repr does.  It needs only exact integer products, so
# it runs over uint64 arrays.  All kernel arithmetic stays in uint64 with
# np.uint64 scalars and exponents in int64, never mixed: uint64 with int64
# gives float64, and NumPy < 2 promotes Python scalars by value.

_ONE = np.uint64(1)
_TWO = np.uint64(2)
_TEN = np.uint64(10)
_U32 = np.uint64(32)
_U63 = np.uint64(63)
_MASK32 = np.uint64(2**32 - 1)
_MASK63 = np.uint64(2**63 - 1)
_HIDDEN = np.uint64(2**52)
_POW10 = np.array([10**j for j in range(20)], dtype=np.uint64)  # every power below 2^64
_TINY, _HUGE = np.finfo(np.float64).tiny, np.finfo(np.float64).max  # the normal doubles' range
_FORMAT_CHUNK = 8_192  # values per block, which keeps the kernel's arrays in cache
_LINE_BLOCK = 1 << 18  # characters the instance reader reads, and its number kernel parses, at a time
_ENTRY_ROOM = 1 << 20  # D entries the reader makes room for before it has read them


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

    # g cp exactly, as 32-bit column sums (each at most five parts below 2^32)
    cols: list = [0] * 6
    for j, cj in enumerate((cp & _MASK32, cp >> _U32)):
        for i, gi in enumerate((g0, g1, g2, g3)):
            part = gi * cj
            cols[i + j] = cols[i + j] + (part & _MASK32)
            cols[i + j + 1] = cols[i + j + 1] + (part >> _U32)
    for i in range(5):
        cols[i + 1] += cols[i] >> _U32
        cols[i] &= _MASK32
    top = (cols[5] << np.uint64(33)) | (cols[4] << _ONE) | (cols[3] >> np.uint64(31))
    mid = ((cols[3] << _U32) & _MASK63) | cols[2]
    low = (cols[1] << _U32) | cols[0]
    return k, irregular, h, g0 | (g1 << _U32), g2 | (g3 << _U32), top, mid, low


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


def _column(text: str, n: int, keep=True) -> tuple[np.ndarray, np.ndarray]:
    """``text`` in each of n rows, kept where ``keep`` (a scalar or one flag per row)."""
    row = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    return np.broadcast_to(row, (n, row.size)), np.broadcast_to(np.reshape(keep, (-1, 1)), (n, row.size))


def _decimal_cells(x: np.ndarray, digits: int | None = None) -> tuple[list, np.ndarray]:
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
        _column("-", f.size, negative),
        _digit_cells(whole, np.maximum(point, 1)),
        _column(".", f.size, shown > 0),
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


def _text(blocks: list) -> str:
    """The kept cells of (cells, keep) blocks laid side by side, row after row."""
    cells, keep = _side_by_side(blocks)
    return cells[keep].tobytes().decode("ascii")


def format_floats(values: np.ndarray | Sequence[float]) -> str:
    """``" ".join(map(repr, values))`` for a float64 vector, built block by block in NumPy."""
    x = np.ascontiguousarray(values, dtype=np.float64).ravel()
    chunks = (x[lo : lo + _FORMAT_CHUNK] for lo in range(0, x.size, _FORMAT_CHUNK))
    return "".join(_text([*_decimal_cells(v)[0], _column(" ", v.size)]) for v in chunks)[:-1]


def _index_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = x.astype(np.uint64)
    return _digit_cells(x, _digit_count(x))


def write_instance(instance: Instance, path: str) -> None:
    """Serialize an instance to the text format above (atomic)."""
    D = instance.D  # canonical CSR: entries in (row, col) order
    header = [_MAGIC, f"n {instance.n}", f"k {instance.k}"]
    for name in ("a", "c", "p0", "delta"):
        header.append(f"{name} {format_floats(getattr(instance, name))}")
    if instance.bounds is not None:
        header.append(f"l {format_floats(instance.lower)}")
        header.append(f"u {format_floats(instance.upper)}")
    header.append(f"D {D.nnz}")
    rows = np.repeat(np.arange(instance.n), np.diff(D.indptr))
    with _atomic_open(path) as fh:
        fh.write("\n".join(header) + "\n")
        for lo in range(0, D.nnz, _FORMAT_CHUNK):
            hi = min(D.nnz, lo + _FORMAT_CHUNK)
            space = _column(" ", hi - lo)
            fh.write(_text([
                _index_cells(rows[lo:hi]), space,
                _index_cells(D.indices[lo:hi]), space,
                *_decimal_cells(D.data[lo:hi])[0], _column("\n", hi - lo),
            ]))


def _parse_float(token: str, line_no: int | None, field: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"not a number: {token!r}", line=line_no, field=field) from None


def _parse_int(token: str, line_no: int | None, field: str) -> int:
    token = token.strip()
    if not _INTEGER.fullmatch(token):
        raise ParseError(f"not an integer: {token!r}", line=line_no, field=field)
    return int(token)


# Numbers in bulk, the reader's inverse of format_floats.  A run of ASCII text
# is padded and viewed as one uint64 word per byte offset, so that a token's
# digits come in unaligned 8-byte loads, eight per word; the lanes left of a
# decimal point come from the load one byte earlier, which drops the point.
# Each word is checked to hold digits only and folded to its value with three
# multiplies.  Eisel-Lemire then rounds w 10^-f to the nearest double from
# one 64x128-bit product with a truncated 5^-f (D. Lemire, "Number parsing at
# a gigabyte per second", Softw. Pract. Exp. 51(8), 2021); N. Mushtak and
# D. Lemire ("Fast number parsing without fallback", Softw. Pract. Exp.
# 53(6), 2023) prove that product always decides, for every w < 2^64.  The
# strict grammar (see the module docstring) keeps f <= _MAX_DIGITS and
# w < 10^19, so no value is subnormal or overflows; the callers read every
# other token with int() or float().  The arithmetic is uint64 with np.uint64
# scalars, as in the writer's kernel.

_MAX_DIGITS = 24  # three words of digits
_PAD = _MAX_DIGITS + 8  # bytes before a run of text, so that every load stays inside it
_ASCII_ZEROS = np.uint64(0x3030_3030_3030_3030)
_ENTRY_SEPARATORS = np.array([ord(" "), ord(" "), ord("\n")], dtype=np.uint8)  # after row, col and value
# _LANES[k, j]: the lanes of word k (word 0 ends where the token ends) that
# hold its last j characters
_LANES = np.array(
    [[2**64 - 2 ** (64 - 8 * min(max(j - 8 * k, 0), 8)) for j in range(_MAX_DIGITS + 1)] for k in range(3)],
    dtype=np.uint64,
)


def _padded(text: str) -> np.ndarray:
    """ASCII ``text`` as bytes after ``_PAD`` spaces, ending in a "\n" (one is added if it has none)."""
    end = "" if text.endswith("\n") else "\n"
    return np.frombuffer(f"{' ' * _PAD}{text}{end}".encode("ascii"), dtype=np.uint8)


def _tokens(buf: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Where the tokens of a padded text start and end, and the separator (byte <= 32) that ends each."""
    ends = np.flatnonzero(buf[_PAD:] <= 32) + _PAD
    starts = np.empty_like(ends)
    starts[:1] = _PAD
    starts[1:] = ends[:-1] + 1
    return starts, ends, buf[ends]


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


def _wide_product(a: np.ndarray, b0: np.ndarray, b1: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of each 128-bit product ``a b``, b given as its 32-bit limbs."""
    a0, a1 = a & _MASK32, a >> _U32
    low, across, down = a0 * b0, a0 * b1, a1 * b0
    mid = (low >> _U32) + (across & _MASK32) + (down & _MASK32)
    return a1 * b1 + (across >> _U32) + (down >> _U32) + (mid >> _U32), (mid << _U32) | (low & _MASK32)


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


def _read_reals(buf: np.ndarray, starts, ends, point) -> tuple[np.ndarray, np.ndarray]:
    """The tokens ``buf[starts:ends]`` of the strict grammar as float64, and the mask of those read.

    ``point`` is where each token's decimal point is, -1 where it has none.
    """
    negative = buf[starts] == ord("-")
    first = starts + negative
    dotted = point >= 0
    frac = np.minimum(np.where(dotted, ends - 1 - point, _MAX_DIGITS), _MAX_DIGITS)
    w, ok = _digit_words(_words(buf), ends, ends - first - dotted, frac)
    bits = _nearest_doubles(w, np.where(dotted, frac, 0))
    return (bits | (negative.astype(np.uint64) << _U63)).view(np.float64), ok


def _parse_floats(text: str, line_no: int | None, field: str) -> np.ndarray:
    """The numbers of one line as ``float`` reads each: ``[float(t) for t in text.split()]``.

    One space between ASCII tokens is read in bulk, about ``_LINE_BLOCK``
    characters at a time as the entry list is, and the tokens outside the
    strict grammar one by one; other spacing reads them all one by one.
    ParseError names the first token that ``float`` refuses.
    """
    if text.isascii():
        buf = _padded(text)
        starts, ends, separators = _tokens(buf)
        if np.all(starts < ends) and np.all(separators[:-1] == ord(" ")):
            point = _points(ends, np.flatnonzero(buf == ord(".")))
            values = np.empty(ends.size)
            cuts = [*np.searchsorted(ends, np.arange(0, buf.size, _LINE_BLOCK)).tolist(), ends.size]
            for lo, hi in zip(cuts, cuts[1:]):
                values[lo:hi], ok = _read_reals(buf, starts[lo:hi], ends[lo:hi], point[lo:hi])
                for j in np.flatnonzero(~ok).tolist():
                    values[lo + j] = _parse_float(text[starts[lo + j] - _PAD : ends[lo + j] - _PAD], line_no, field)
            return values
    return np.array([_parse_float(t, line_no, field) for t in text.split()], dtype=np.float64)


def _entry_block(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The rows, columns and values of a run of ``row col value`` lines, or None.

    Indices are read as the writer writes them, 1 to 18 ASCII digits, and
    values by the kernel or, outside its grammar, by ``float``.  None sends
    the run to the per-line path: a byte outside ASCII, a tab or other
    control character, separators other than one space between the three
    tokens and a "\n" after them, an index spelled any other way (a sign,
    more than 18 digits), or a value that ``float`` refuses.
    """
    if not text.isascii():
        return None
    buf = _padded(text)
    starts, ends, separators = _tokens(buf)
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
    values, ok = _read_reals(buf, starts[2::3], ends[2::3], point)
    for j in np.flatnonzero(~ok).tolist():
        try:
            values[j] = float(text[starts[2 + 3 * j] - _PAD : ends[2 + 3 * j] - _PAD])
        except ValueError:
            return None
    return indices[0::2], indices[1::2], values


class _Lines:
    """The lines of a text file as ``splitlines`` gives them, read ``_LINE_BLOCK`` characters at a time.

    A block that does not end in "\n" is finished with ``readline``, so no
    line is cut in two and neither the whole text nor a list of all its lines
    is held.  ``take`` hands out the next lines as one text instead, for the
    entry kernel, and ``give_back`` returns such a text unread.  Raises
    UnicodeDecodeError where the file stops being UTF-8.
    """

    def __init__(self, fh):
        self._fh = fh
        self._lines: list[str] = []  # split off and not handed out yet, the next one last
        self._text = ""  # whole lines read and not split yet

    def _read(self) -> str:
        """The next whole lines of the file: a block and the rest of its last line; "" at the end."""
        block = self._fh.read(_LINE_BLOCK)
        return block if block.endswith("\n") else block + self._fh.readline()

    def __iter__(self) -> _Lines:
        return self

    def __next__(self) -> str:
        if not self._lines:
            text, self._text = self._text or self._read(), ""
            if not text:
                raise StopIteration
            self._lines = text.splitlines()[::-1]
        return self._lines.pop()

    def take(self, count: int) -> str:
        """The next lines, at most ``count`` of them and about a block, as one text; "" at the end.

        Each line ends in "\n", except perhaps the file's last.  Counts "\n"
        only: a text with other line breaks must be given back.
        """
        if self._lines:
            lines = self._lines[: -count - 1 : -1]
            del self._lines[-count:]
            return "\n".join(lines) + "\n"
        text, self._text = self._text or self._read(), ""
        if text.count("\n") + (not text.endswith("\n")) > count:  # the file's last line may have no "\n"
            self._text = text.split("\n", count)[count]
            return text[: len(text) - len(self._text)]
        return text

    def give_back(self, text: str) -> None:
        """Put back a text that ``take`` returned last; its lines come next."""
        self._lines += text.splitlines()[::-1]


def _parse_entries(lines: _Lines, nnz: int, first_line_no: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows, columns and values of the D block's ``row col value`` lines.

    ``lines`` is left just after the block.  Runs of lines go to the entry
    kernel, and a run it refuses is read one line at a time, to name the
    offending line.  Each run is copied into the three arrays as it is read,
    so that no run's arrays outlive it.
    """
    # room for the count the file states, up to _ENTRY_ROOM until the lines are there
    columns = [np.empty(min(nnz, _ENTRY_ROOM), dtype=dtype) for dtype in (np.int64, np.int64, np.float64)]
    done = 0
    while done < nnz:
        text = lines.take(nnz - done)
        if not text:
            raise ParseError("file ends inside the D entry list", line=first_line_no - 1 + done, field="D")
        block = _entry_block(text)
        if block is None:
            lines.give_back(text)
            block = _entry_lines(lines, min(len(text.splitlines()), nnz - done), first_line_no + done, nnz - done)
        end = done + block[0].size
        if end > columns[0].size:
            columns = [np.concatenate((c[:done], np.empty(min(nnz, 2 * end) - done, dtype=c.dtype))) for c in columns]
        for column, part in zip(columns, block):
            column[done:end] = part
        done = end
    return tuple(columns)


def _entry_lines(lines: _Lines, count: int, first_line_no: int, left: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The next ``count`` entry lines, read one at a time.

    ParseError names the first bad one, unless the file ends before the
    ``left`` lines of the list that start here: then it names the end.
    """
    texts = list(itertools.islice(lines, count))
    rows, cols, vals = [], [], []
    try:
        for line_no, line in enumerate(texts, start=first_line_no):
            toks = line.split()
            if len(toks) != 3:
                raise ParseError(f"expected 'row col value', got {line.strip()!r}", line=line_no, field="D")
            r, c = (_parse_int(t, line_no, "D") for t in toks[:2])
            if not (-_INDEX_LIMIT <= r < _INDEX_LIMIT and -_INDEX_LIMIT <= c < _INDEX_LIMIT):
                raise ParseError(f"index does not fit in 64 bits: {line.strip()!r}", line=line_no, field="D")
            rows.append(r)
            cols.append(c)
            vals.append(_parse_float(toks[2], line_no, "D"))
    except ParseError:
        read = count + sum(1 for _ in itertools.islice(lines, min(left - count, sys.maxsize)))
        if read < left:
            raise ParseError("file ends inside the D entry list", line=first_line_no - 1 + read, field="D") from None
        raise
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(vals, dtype=np.float64)


def _utf8_error(exc: UnicodeDecodeError) -> ParseError:
    return ParseError(f"file is not UTF-8 text: byte 0x{exc.object[exc.start]:02x} {exc.reason}")


def _check_entries(rows, cols, vals, n: int, first_line_no: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reject the first entry that is out of range, zero, or a repeat of an earlier one.

    Returns the entries in (row, col) order: as they are when already in it
    (the writer's order), else sorted.
    """
    outside = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)
    zero = vals == 0.0
    keys = rows * n + cols
    order = None
    repeat = np.zeros(keys.size, dtype=bool)
    if not np.all(keys[1:] > keys[:-1]):  # increasing keys repeat none
        order = np.argsort(keys, kind="stable")
        repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    bad = np.flatnonzero(outside | zero | repeat)
    if bad.size == 0:
        return (rows, cols, vals) if order is None else (rows[order], cols[order], vals[order])
    e = int(bad[0])
    at, line_no = f"({rows[e]}, {cols[e]})", first_line_no + e
    if outside[e]:
        raise ParseError(f"entry {at} outside 0..{n - 1}", line=line_no, field="D")
    if zero[e]:
        raise ParseError(f"explicit zero stored at {at}", line=line_no, field="D")
    raise ParseError(f"duplicate entry at {at}", line=line_no, field="D")


def _read_text(path: str) -> str:
    """The whole file as text (universal newlines, no leading byte-order mark); ParseError unless it is UTF-8."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise _utf8_error(exc) from None


def _parse_fields(lines: _Lines) -> tuple[dict, int]:
    """The fields of an instance file, and the line number of its first D entry."""
    fields: dict = {}
    d_line = 0  # line number of the first D entry

    line_no = 0
    for line in lines:
        line_no += 1
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, rest = line.partition(" ")
        if name in fields:
            raise ParseError("field appears twice", line=line_no, field=name)
        if name in ("n", "k"):
            fields[name] = _parse_int(rest, line_no, name)
        elif name in _VECTORS:
            fields[name] = _parse_floats(rest, line_no, name)
        elif name == "D":
            nnz = _parse_int(rest, line_no, "D")
            if nnz < 0:
                raise ParseError(f"negative entry count {nnz}", line=line_no, field="D")
            d_line = line_no + 1
            fields["D"] = _parse_entries(lines, nnz, d_line)
            line_no += nnz
        else:
            raise ParseError(f"unknown field {name!r}", line=line_no, field=name)
    return fields, d_line


def read_instance(path: str) -> Instance:
    """Parse an instance file; raises ParseError with line/field context."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            fields, d_line = _parse_fields(_Lines(fh))
        except UnicodeDecodeError as exc:
            raise _utf8_error(exc) from None
        except ParseError:
            # a file that is not UTF-8 reports that first, wherever the bad byte is
            try:
                while fh.read(_LINE_BLOCK):
                    pass
            except UnicodeDecodeError as exc:
                raise _utf8_error(exc) from None
            raise

    for name in ("n", "k"):
        if name not in fields:
            raise ParseError("missing required field", field=name)
    n = fields["n"]
    for name in ("a", "c", "p0", "delta"):
        if name not in fields:
            raise ParseError("missing required field", field=name)
        if fields[name].shape != (n,):
            raise ParseError(f"expected {n} values, got {fields[name].size}", field=name)
    if ("l" in fields) != ("u" in fields):
        raise ParseError("bounds require both fields", field="l" if "u" in fields else "u")
    if "D" not in fields:
        raise ParseError("missing required field", field="D")

    # in (row, col) order the entries are D's CSR arrays
    rows, cols, vals = _check_entries(*fields.pop("D"), n, d_line)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    del rows
    D = sparse.csr_array((vals, cols, indptr), shape=(n, n))
    del cols, vals  # before Instance copies D

    bounds = (fields["l"], fields["u"]) if "l" in fields else None
    return Instance(
        n=n,
        k=fields["k"],
        a=fields["a"],
        D=D,
        c=fields["c"],
        p0=fields["p0"],
        delta=fields["delta"],
        bounds=bounds,
    )


def read_vector(path: str, n: int | None = None) -> np.ndarray:
    """Whitespace-separated finite floats (comments allowed); optional length check."""
    parts = []
    # lines end at "\n" only, as file iteration splits them (not splitlines)
    for line_no, line in enumerate(_read_text(path).split("\n"), start=1):
        if line.lstrip().startswith("#"):
            continue
        values = _parse_floats(line, line_no, "vector")
        if not np.all(np.isfinite(values)):
            bad = line.split()[int(np.flatnonzero(~np.isfinite(values))[0])]
            raise ParseError(f"not a finite number: {bad!r}", line=line_no, field="vector")
        parts.append(values)
    vec = np.concatenate(parts) if parts else np.empty(0)
    if n is not None and vec.size != n:
        raise ParseError(f"expected {n} values, got {vec.size}", field="vector")
    return vec


def write_vector(vec: np.ndarray, path: str) -> None:
    atomic_write_text(path, format_floats(vec) + "\n")


def _report_row(r: SolveReport) -> list[str]:
    return [
        r.instance_id,
        str(r.n),
        str(r.k),
        r.delta_mode,
        r.bounds_mode,
        "" if r.start_id is None else str(r.start_id),
        format_float(r.final_profit),
        format_float(r.improvement_pct),
        str(r.iterations),
        "",  # wall_time_s
        "1" if r.stationary else "0",
        "" if r.bound_ii is None else format_float(r.bound_ii),
    ]


def write_report(reports: Sequence[SolveReport], path: str) -> None:
    """Write solver reports as CSV rows, one per report.

    The ``wall_time_s`` column is always blank, so identical runs produce
    byte-identical files.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for r in reports:
        writer.writerow(_report_row(r))
    atomic_write_text(path, buf.getvalue())


def adjusted_gap(z_base: float, z_gurobi: float, z_gpa: float) -> float:
    """Percentage gap 100 (z_gpa - z_gurobi) / |z_base| between two solutions.

    Positive means the candidate beat the reference solver; antisymmetric in
    the last two arguments.  Undefined at z_base = 0; a gap that overflows
    (say 1e308 against -1e308) is a NumericError.
    """
    if z_base == 0.0:
        raise ContractError("adjusted gap is undefined when the baseline profit is zero")
    gap = 100.0 * (z_gpa - z_gurobi) / abs(z_base)
    if not math.isfinite(gap):
        raise NumericError(f"adjusted gap is not finite ({gap})")
    return gap
