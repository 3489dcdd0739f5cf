"""MIP export in LP file syntax, plus a validating parser for the subset used.

The exported model maximizes the profit quadratic (without its constant)

    f^T p - 1/2 p^T S p,        f = a + D^T c,  S = D + D^T,

over the disjunctive price set encoded with one binary triple per product:
``zP_i`` (price stays), ``zR_i`` (raised to at least p0_i + delta_i), and
``zL_i`` (lowered to at most p0_i - delta_i), linked by

    p_i >= p0_i zP_i - M zL_i + (p0_i + delta_i) zR_i
    p_i <= p0_i zP_i + (p0_i - delta_i) zL_i + M zR_i
    zP_i + zL_i + zR_i = 1
    sum_i (zL_i + zR_i) <= k

with the big-M replaced by the actual bounds l_i / u_i when present.  The
objective drops the constant ``-c^T a`` (solvers ignore constants); the file
header states the dropped value so profits can be reconstructed.  A number
of the model that is not finite (``S = D + D^T`` or ``f`` can overflow for a
finite ``D``) is a NumericError before anything is written.

The exporter writes each number as ``format(v, ".12g")`` does, and builds
the text with ``numtext``, as the instance writer does: each section is laid
out in blocks of at most ``numtext.FORMAT_CHUNK`` rows (terms, or products),
as side-by-side ``(cells, keep)`` blocks of ASCII bytes with masks that
``numtext.text`` compresses to text; each block is written as soon as it
is built.  Names take their indices from ``numtext.index_cells``, and
magnitudes take the instance writer's layout, ``numtext.decimal_cells``,
with the exact decimal kernel's digits rounded to 12 places; rows that
print in exponent notation take ``format`` one by one.  Masks drop what the
text leaves out: a term with a zero coefficient, a magnitude that prints as
``1`` (with its space), and the ``+ `` of an expression's first term.
``tests/test_lpformat.py`` keeps the earlier string-by-string exporter as
the byte-for-byte reference.

``parse_lp`` reads the LP subset the exporter writes, and a little more:
``Maximize``/``Minimize`` with an optional ``name:``, terms, constants and
``[ 2 x ^ 2 - 3 x * y ] / 2``; ``Subject To`` rows ``[name:] terms <sense>
number``; ``Bounds`` (``x free``, ``x <= b``, ``x >= b``, ``x = b``, ``a <= x
<= b``, inf allowed); ``Binary`` and ``General`` lists; ``End``.  Keywords
ignore case; ``\\`` starts a comment.  One ``findall`` splits the text into
items of four groups (signs, number, name, rest): nearly all are one signed
term, and the term that ends a row or bound carries its comparison and number
in the rest.  One loop over the items reads the objective and every row; the
Bounds, Binary and General lists have short loops of their own.  An error
names the line of its token, computed from the item's offset only then, or the
last line if the input ends early.  ``tests/test_lpformat.py`` keeps the
earlier token-by-token parser as the reference this one must match.  The
parse runs with the cyclic garbage collector paused (the caller's setting
comes back afterwards): it allocates hundreds of thousands of tuples and
strings, which would set off many collections, yet it builds no reference
cycles for them to find.
"""

from __future__ import annotations

import functools
import gc
import itertools
import math
import operator
import re
import sys
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse

from .errors import NumericError, ParseError, ValidationError
from .instance import Instance
from .numtext import FORMAT_CHUNK, column, decimal_cells, index_cells, text
from .storage import atomic_open, read_text

__all__ = [
    "export_mip_lp",
    "default_big_m",
    "LpModel",
    "LpConstraint",
    "parse_lp",
    "parse_lp_text",
    "validate_lp_file",
    "eval_lp_objective",
]

_DIGITS = 12  # significant digits of every number written
_NUM_FMT = f".{_DIGITS}g"
_TERMS_PER_LINE = 8
_NAMES_PER_LINE = 9  # in Binary: three products


class LpFormatError(ParseError):
    """The file is not valid LP syntax (within the supported subset)."""


def default_big_m(instance: Instance) -> float:
    """10 max_i(|p0_i| + delta_i), capped at the largest double: ``Instance``
    keeps p0 +- delta finite, so the cap is still at least that maximum."""
    return min(10.0 * float(np.max(np.abs(instance.p0) + instance.delta)), sys.float_info.max)


def _masked(blocks: list, rows: np.ndarray) -> list:
    """The blocks with only the given rows kept."""
    return [(cells, keep & rows[:, None]) for cells, keep in blocks]


def _term_cells(coef: np.ndarray, drop_plus) -> list:
    """"+ mag " / "- mag " of each coefficient: no magnitude where it prints as 1,
    and no "+ " where ``drop_plus`` (a scalar or one flag per row)."""
    mag, one = decimal_cells(np.abs(coef), _DIGITS)
    negative = coef < 0
    return [
        column("- ", coef.size, negative),
        column("+ ", coef.size, ~(negative | drop_plus)),
        *_masked(mag, ~one),
        column(" ", coef.size, ~one),
    ]


def _expression(coef: np.ndarray, monomials):
    """Text blocks of the nonzero terms ``sign mag monomial``, _TERMS_PER_LINE to a line.

    The first term drops its "+ " and follows what the caller wrote; each
    later line starts with six spaces.  ``monomials(at)`` gives the cell
    blocks of the monomials of the terms at 0-based positions ``at``.
    """
    nonzero = np.flatnonzero(coef)
    for lo in range(0, nonzero.size, FORMAT_CHUNK):
        at = nonzero[lo : lo + FORMAT_CHUNK]
        rank = np.arange(lo, lo + at.size)
        first, wrap = rank == 0, rank % _TERMS_PER_LINE == 0
        yield text([
            column("\n      ", at.size, wrap & ~first),
            column(" ", at.size, ~wrap),
            *_term_cells(coef[at], first),
            *monomials(at),
        ])


def _bracket_terms(rows: np.ndarray, cols: np.ndarray, coef: np.ndarray):
    def monomials(at):
        square = rows[at] == cols[at]
        return [
            column("p_", at.size),
            index_cells(rows[at] + 1),
            column(" ^ 2", at.size, square),
            column(" * p_", at.size, ~square),
            *_masked([index_cells(cols[at] + 1)], ~square),
        ]

    return _expression(coef, monomials)


def _row_terms(coef: np.ndarray, name: str, ids: tuple) -> list:
    """" sign mag name_i" of each row's term, or nothing for a zero coefficient."""
    n = coef.size
    return _masked([column(" ", n), *_term_cells(coef, False), column(name, n), ids], coef != 0)


def _rows(p0, delta, lo, hi):
    """Text blocks of the lb_i, ub_i and pick_i rows, product by product."""
    n = p0.size
    for start in range(0, n, FORMAT_CHUNK):
        sl = slice(start, min(n, start + FORMAT_CHUNK))
        m = sl.stop - start
        ids = index_cells(np.arange(start + 1, sl.stop + 1))
        keep = _row_terms(-p0[sl], "zP_", ids)
        yield text([
            column(" lb_", m), ids, column(": p_", m), ids, *keep,
            *_row_terms(-lo[sl], "zL_", ids), *_row_terms(-(p0[sl] + delta[sl]), "zR_", ids),
            column(" >= 0\n ub_", m), ids, column(": p_", m), ids, *keep,
            *_row_terms(-(p0[sl] - delta[sl]), "zL_", ids), *_row_terms(-hi[sl], "zR_", ids),
            column(" <= 0\n pick_", m), ids, column(": zP_", m), ids,
            column(" + zL_", m), ids, column(" + zR_", m), ids, column(" = 1\n", m),
        ])


def _lists(n: int, k: int):
    """Text blocks of the card row and the Bounds and Binary sections."""
    pairs = _TERMS_PER_LINE // 2  # products per line of the card row
    triples = _NAMES_PER_LINE // 3  # products per line of Binary
    parts = [
        lambda i, ids: [  # card, after " card: "
            column("\n      ", i.size, (i % pairs == 0) & (i > 0)),
            column(" ", i.size, i % pairs != 0),
            column("+ ", i.size, i > 0),
            column("zL_", i.size), ids, column(" + zR_", i.size), ids,
        ],
        lambda i, ids: [column(" p_", i.size), ids, column(" free\n", i.size)],
        lambda i, ids: [
            column(" zP_", i.size), ids, column(" zL_", i.size), ids, column(" zR_", i.size), ids,
            column("\n", i.size, (i % triples == triples - 1) | (i == n - 1)),
        ],
    ]
    heads = [" card: ", f" <= {k}\nBounds\n", "Binary\n"]
    for head, part in zip(heads, parts):
        yield head
        for start in range(0, n, FORMAT_CHUNK):
            i = np.arange(start, min(n, start + FORMAT_CHUNK))
            yield text(part(i, index_cells(i + 1)))
    yield "End\n"


def _require_finite(values: np.ndarray, what) -> None:
    """NumericError naming ``what(j)`` for the first non-finite value j."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        j = int(bad[0])
        raise NumericError(f"{what(j)} is not finite ({values[j]}); the LP model cannot be written")


def export_mip_lp(instance: Instance, path: str, big_m: Optional[float] = None) -> None:
    """Write the mixed-integer model for this instance in LP file syntax.

    Numbers carry 12 significant digits.  Variables are 1-based ``p_i``,
    ``zP_i``, ``zL_i``, ``zR_i``; prices are declared free (the constraint
    rows bound them).  big_m must be finite and at least
    ``max_i(|p0_i| + delta_i)``, or a raised or lowered branch is empty.
    A coefficient or dropped constant that is not finite (``S = D + D^T``
    or ``f`` can overflow) is a NumericError, and nothing is written.
    """
    n, k = instance.n, instance.k
    p0, delta = instance.p0, instance.delta
    f = np.asarray(instance.f)
    bounded = instance.bounds is not None
    if big_m is None:
        big_m = default_big_m(instance)
    reach = float(np.max(np.abs(p0) + delta))
    if not (np.isfinite(big_m) and big_m >= reach):
        raise ValidationError(
            f"big-M must be finite and at least max(|p0| + delta) = {reach:g}, got {big_m:g}"
        )

    # The bracket is [ -sum s_ij p_i p_j ] / 2 with merged monomials: s_ii on
    # the diagonal and 2 s_ij for i < j, read from the upper triangle of the
    # (exactly) symmetric S in row-major order.
    upper = sparse.triu(instance.S, format="coo")
    with np.errstate(over="ignore"):
        const = float(instance.c @ instance.a)
        quad = np.where(upper.row == upper.col, -upper.data, -2.0 * upper.data)
    # The row coefficients are finite: Instance rejects an overflowing
    # p0 +- delta and non-finite bounds, and big-M is checked above.
    _require_finite(np.array([const]), lambda j: "the dropped constant c'a")
    _require_finite(f, lambda j: f"the objective coefficient of p_{j + 1}")
    _require_finite(quad, lambda j: (
        f"the bracket coefficient of p_{upper.row[j] + 1} "
        + ("^ 2" if upper.row[j] == upper.col[j] else f"* p_{upper.col[j] + 1}")
    ))

    bound_note = "explicit" if bounded else f"big-M {format(big_m, _NUM_FMT)}"
    header = "\n".join([
        "\\ priceopt MIP export",
        f"\\ products: {n}, change budget: {k}, bounds: {bound_note}",
        f"\\ the objective omits the constant -c'a = {format(-const, _NUM_FMT)};",
        "\\ profit Z(p) = objective value - c'a",
        "Maximize",
        " obj: ",
    ])
    lo = instance.lower if bounded else np.full(n, -big_m)
    hi = instance.upper if bounded else np.full(n, big_m)
    with atomic_open(path) as fh:
        fh.write(header)
        if np.any(f):
            fh.writelines(_expression(f, lambda at: [column("p_", at.size), index_cells(at + 1)]))
        else:
            fh.write("0 p_1")
        if np.any(quad):
            fh.write("\n      + [ ")
            fh.writelines(_bracket_terms(upper.row, upper.col, quad))
            fh.write("\n      ] / 2")
        fh.write("\nSubject To\n")
        fh.writelines(_rows(p0, delta, lo, hi))
        fh.writelines(_lists(n, k))


# --------------------------------------------------------------------------
# Parsing / validation


@dataclass
class LpConstraint:
    name: Optional[str]
    coefs: dict[str, float]
    sense: str  # "<=", ">=", "="
    rhs: float


@dataclass
class LpModel:
    sense: str  # "max" or "min"
    objective_name: Optional[str]
    linear: dict[str, float]
    quadratic: dict[tuple[str, str], float]  # bracket coefficients (pre "/ 2")
    constant: float
    constraints: list[LpConstraint]
    bounds: dict[str, tuple[Optional[float], Optional[float]]] = field(default_factory=dict)
    binaries: set[str] = field(default_factory=set)
    generals: set[str] = field(default_factory=set)

    def variables(self) -> set[str]:
        names = set(self.linear)
        for a, b in self.quadratic:
            names.update((a, b))
        for con in self.constraints:
            names.update(con.coefs)
        names.update(self.bounds)
        names.update(self.binaries)
        names.update(self.generals)
        return names


# An item is a run of whole tokens, in four groups (s, n, v, r).  Nearly all
# are a term "[signs] [number] name [tail]": s, n and v hold the signs, the
# number and a name that is not a section keyword, and r the tail: "^ number",
# "* name", a label's ':', the comparison and number that end a row or bound
# ("<= 0"), or "".  Every other item has r alone: a keyword ("subject"/"such"
# only before "to"/"that"), a comparison with the number after it if any,
# signs alone or before a number or '[', a number, '[', ']' with its
# "/ number", "^ number", "* name", one operator, and last a character that
# starts no token.  A number never ends where an exponent follows ("1e5 x").
# Optional parts are written "(?:...|)", not "(?:...)?": the regex engine takes
# an alternative faster than it runs a repeat.
_NC = r"(?![A-Za-z0-9_.])"  # the name token ends here
_NAME = r"[A-Za-z_][A-Za-z0-9_.]*"
_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+|(?![eE][+-]?\d))"
_CMP = r"(?:<=|>=|=<|=>|[<>=])"
_RHS = rf"{_CMP}[\s+-]*(?:{_NUM}|(?ai:inf(?:inity|)){_NC})"
_KEYWORD = (  # the first-letter test up front makes most names fail it at once
    r"(?=[bBeEgGmMsS])(?:(?ai:m(?:ax|in)(?:imi[sz]e|)|s(?:t|\.t\.)|b(?:ounds?|in(?:ary|aries|))|gen(?:erals?|)|end)"
    rf"|(?ai:su(?:bject|ch)){_NC}(?=\s*(?ai:t(?:o|hat)){_NC})){_NC}"
)
_ITEM = re.compile(
    rf"\s*(?:(?:(?P<s>[+-](?:[\s+-]*[+-]|))\s*|)(?:(?P<n>{_NUM})\s*|)(?P<v>(?!{_KEYWORD}){_NAME})\s*|)"
    rf"(?P<r>(?(v)(?:\^\s*{_NUM}|\*\s*{_NAME}|:|{_RHS}|)|(?:{_KEYWORD}|{_RHS}|{_CMP}|[+-][\s+-]*(?:{_NUM}|\[|)"
    rf"|{_NUM}|\[|\](?:\s*/(?:\s*{_NUM}|)|)|\^\s*{_NUM}|\*\s*{_NAME}|[\^*/:]|\S)))"
)
_TAIL = ("^", "*", ":")  # how a term's tail starts, unless it is a comparison
_CMP_START = ("<", ">", "=")
_EOF = ("",) * 4  # appended after the last item
_SIGNS = re.compile(r"(?:[+-]\s*)*")
_TOKEN = re.compile(rf"{_CMP}|{_NUM}|{_NAME}|\S")  # the token an error message quotes
# "\" starts a comment that runs to the end of the line; these are the line
# breaks of str.splitlines, which also number the lines in error messages.
_COMMENT = re.compile("\\\\[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")
_LINE_BREAK = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")

_SECTIONS = {
    **dict.fromkeys(("maximize", "maximise", "max", "minimize", "minimise", "min"), "objective"),
    **dict.fromkeys(("subject", "such", "st", "s.t."), "constraints"),
    **dict.fromkeys(("bounds", "bound"), "bounds"),
    **dict.fromkeys(("binary", "binaries", "bin"), "binary"),
    **dict.fromkeys(("general", "generals", "gen"), "general"),
    "end": "end",
}
_SENSES = {"<=": "<=", "=<": "<=", "<": "<=", ">=": ">=", "=>": ">=", ">": ">=", "=": "="}


class _Fail(Exception):
    """A parse error: (message, ahead, at).  ``ahead`` counts items from the
    one read last (0), or is None for an error without a line; ``at`` is the
    token in that item: None for its first, "v"/"r" for the start of that
    group, "last" for the last token of r, "operand" for the one after the
    comparison that starts r, or "signs" for the first after its signs."""


def _kind(r: str) -> str:
    """What the item with this r and no name is; "" is the end of the input."""
    c = r[:1]
    if c in _CMP_START:
        return "cmp" if r in _SENSES else "rhs"
    if c in ("+", "-"):
        last = r.rstrip()[-1]
        return "open" if last == "[" else "signs" if last in "+-" else "const"
    if c.isdecimal() or (c == "." and len(r) > 1):
        return "const"
    if c.isascii() and c.isalpha():
        return "kw"  # any other name is in group v
    return {"": "end", "[": "open", "]": "close", "^": "op", "*": "op", "/": "op", ":": "op"}.get(c, "bad")


def _number(text: str) -> float:
    """The value of "[signs] number" or "[signs] inf"; float() reads inf and infinity."""
    k = _SIGNS.match(text).end()
    value = float(text[k:])
    return -value if text.count("-", 0, k) % 2 else value


def _comparison(r: str) -> tuple[str, str]:
    """(sense, rest) of an item that starts with a comparison."""
    op = r[:2] if r[:2] in _SENSES else r[0]
    return _SENSES[op], r[len(op) :].lstrip()


@functools.lru_cache(maxsize=256)
def _rhs(r: str) -> tuple[str, float]:
    """(sense, value) of a comparison and its number; most rows end alike ("<= 0")."""
    sense, rest = _comparison(r)
    return sense, _number(rest)


def parse_lp_text(text: str) -> LpModel:
    """Parse LP text into a structured model; raises LpFormatError on errors."""
    enabled = gc.isenabled()
    gc.disable()  # the parse builds no cycles, only many young objects
    try:
        body = _COMMENT.sub(" ", text)  # not "": "\r" + comment + "\n" stays two line breaks
        items = _ITEM.findall(body)
        items.append(_EOF)
        it = iter(items)
        try:
            return _parse_items(items, it)
        except _Fail as fail:
            message, ahead, *at = fail.args
            read = len(items) - operator.length_hint(it) - 1  # the index of the item read last
            raise _error(text, body, items, message, None if ahead is None else read + ahead, *at) from None
    finally:
        if enabled:
            gc.enable()


def _parse_items(items: list, it) -> LpModel:
    """The model of the items, read from their iterator ``it``.

    One loop reads the objective and every row, one term at a time; the
    Bounds, Binary and General sections have loops of their own.
    """
    s, n, v, r = next(it)
    word = r.lower()
    if v or _SECTIONS.get(word) != "objective":
        raise _Fail("file must start with Maximize or Minimize", 0)
    model = LpModel(word[:3], None, {}, {}, 0.0, [])
    append = model.constraints.append
    objective = True  # the expression read is the objective, up to Subject To
    name, coefs, const, fresh = None, model.linear, 0.0, True  # fresh: nothing of it read yet
    rows = it
    while True:
        for s, n, v, r in rows:
            if v:  # a term, and the comparison that ends its row if any
                if r and r[0] in "^*:":  # a tail (_TAIL), not a comparison
                    if r == ":" and fresh and not (s or n):
                        name, fresh = v, False
                        continue
                    raise _Fail("expected a term, found {found}", 0, "r")
                coef = float(n) if n else 1.0
                if s and (s == "-" or s != "+" and s.count("-") % 2):
                    coef = 0.0 - coef  # not -coef: "- 0 x" adds 0.0, not -0.0
                if v in coefs:
                    coefs[v] += coef
                else:
                    coefs[v] = coef
                fresh = False
                if not r:
                    continue
                kind = "rhs"
            else:
                kind = _kind(r)
            if objective and kind in ("kw", "end", "cmp", "rhs"):
                break
            if kind == "rhs":  # the end of a row
                if not coefs:
                    raise _Fail("constraint has no variables", 0, "r")
                sense, rhs = _rhs(r)
                append(LpConstraint(name, coefs, sense, rhs - const))
                name, coefs, const, fresh = None, {}, 0.0, True
            elif kind == "const":
                const += _number(r)
                fresh = False
            elif kind == "open" and objective:
                _bracket(it, -1.0 if r.count("-") % 2 else 1.0, model.quadratic)
                fresh = False
            elif kind == "kw" and fresh:
                break  # a section
            elif kind == "end" and fresh:
                raise _Fail("missing End marker", None)
            elif kind in ("kw", "end"):
                raise _Fail("constraint must contain a comparison", 0)
            elif kind == "cmp":
                raise _Fail("expected a number in constraint right-hand side", 1, "signs")
            elif kind == "open":
                raise _Fail("quadratic bracket not allowed here", 0, "signs")
            else:
                raise _Fail("expected a term, found {found}", 0, "signs")
        word = r.lower()
        section = _SECTIONS.get(word)
        if objective:
            if section != "constraints":
                raise _Fail("expected a 'Subject To' section after the objective", 0, "r")
            model.objective_name, model.constant = name, const
            objective, name, coefs, const, fresh = False, None, {}, 0.0, True
            rows = it
            if word in ("subject", "such"):  # the next item is its "to" or "that"
                r = next(it)[3]
                if r[:1] in _TAIL:
                    raise _Fail("expected a term, found {found}", 0, "r")
                if r:  # a comparison, which starts the first row
                    rows = itertools.chain((("", "", "", r),), it)
            continue
        if section == "bounds":
            pending = _bounds(items, it, model.bounds)
        elif section in ("binary", "general"):
            pending = _names(it, model.binaries if section == "binary" else model.generals)
        elif section == "end":
            if next(it) is not _EOF:
                raise _Fail("trailing content {found} after End", 0)
            return model
        else:
            raise _Fail(f"unexpected section {r!r}", 0)
        rows = itertools.chain((pending,), it)  # the item that ended the section comes first


def _bracket(it, outer: float, quad: dict) -> None:
    """The terms of [ ... ] / 2, up to and including its ']' and '/ 2'."""
    for s, n, v, r in it:
        if v:  # nearly always the whole "[signs] [number] x ^ 2" or "... x * y"
            coef = float(n) if n else 1.0
            if s and (s == "-" or s != "+" and s.count("-") % 2):
                coef = -coef
            if r[:1] in (":", "<", ">", "="):
                raise _Fail("quadratic term must be 'x ^ 2' or 'x * y'", 0, "r")
        else:  # else the first variable is a keyword, an item of its own
            kind = _kind(r)
            if kind == "end":
                raise _Fail("unterminated quadratic bracket", 0)
            if kind == "close":
                slash = r[1:].lstrip()
                if not slash:
                    raise _Fail("quadratic bracket must be followed by '/ 2'", 1)
                number = slash[1:].strip()
                if not number:
                    raise _Fail("quadratic bracket must be divided by exactly 2", 1)
                if float(number) != 2.0:
                    raise _Fail("quadratic bracket must be divided by exactly 2", 0, "last")
                return
            coef = 1.0
            if kind in ("signs", "const"):
                coef = _number(r) if kind == "const" else -1.0 if r.count("-") % 2 else 1.0
                _, _, v, r = next(it)
                if v or _kind(r) != "kw":
                    raise _Fail("expected a variable inside the quadratic bracket", 0)
            elif kind != "kw":
                raise _Fail("expected a variable inside the quadratic bracket", 0, "signs")
            v, r = r, ""
        if not r:  # the operator is the next item
            _, _, w, r = next(it)
            if w or r[:1] not in ("^", "*"):
                raise _Fail("quadratic term must be 'x ^ 2' or 'x * y'", 0)
        if r in ("^", "*"):
            raise _Fail("only squares are allowed after '^'" if r == "^" else "expected a variable after '*'", 1)
        if r[0] == "^":
            if float(r[1:].strip()) != 2.0:
                raise _Fail("only squares are allowed after '^'", 0, "last")
            other = v
        else:
            other = r[1:].strip()
        key = (v, other) if v <= other else (other, v)
        quad[key] = quad.get(key, 0.0) + outer * coef


def _names(it, target: set) -> tuple:
    """A Binary or General list; returns the item that ends it."""
    for item in it:
        s, n, v, r = item
        if not v or s or n:
            return item
        target.add(v)
        if r[:1] in _CMP_START:
            return "", "", "", r  # the comparison after the name ends the list
        if r:
            raise _Fail("expected a term, found {found}", 0, "r")


def _bounds(items: list, it, bounds: dict) -> tuple:
    """x free | x <= b | x >= b | x = b | a <= x [<= b] entries, up to a
    keyword or the end; returns the item that ends them."""
    for item in it:
        s, n, v, r = item
        if v and not (s or n):  # x free | x <sense> b
            if r[:1] in _TAIL:
                raise _Fail(f"malformed bound for {v!r}", 0, "r")
            if r:
                sense, value = _rhs(r)
                lo, hi = bounds.get(v, (0.0, None))
                bounds[v] = (lo, value) if sense == "<=" else (value, hi) if sense == ">=" else (value, value)
                continue
            s, n, word, r = next(it)
            if word.lower() != "free" or s or n:
                if r in _SENSES:
                    raise _Fail("expected a number in bound", 1, "signs")
                raise _Fail(f"malformed bound for {v!r}", 0)
            bounds[v] = (None, None)
            if r:
                raise _Fail("expected a number in bound", 0, "r")
            continue

        # a <= x [<= b], where a is a number or a signed inf
        if v:
            if n:
                raise _Fail("expected '<=' after a bound value", 0, "v")
            if v.lower() not in ("inf", "infinity"):
                raise _Fail("expected a number in bound", 0, "v")
            if r[:1] in _TAIL:
                raise _Fail("expected '<=' after a bound value", 0, "r")
            value, w = _number(s + v), ""
            if not r:  # else r is the comparison after the value
                _, _, w, r = next(it)
        else:
            kind = _kind(r)
            if kind in ("kw", "end"):
                return item
            if kind != "const":
                raise _Fail("expected a number in bound", 0, "signs")
            value = _number(r)
            _, _, w, r = next(it)
        if w or _kind(r) not in ("cmp", "rhs") or _comparison(r)[0] != "<=":
            raise _Fail("expected '<=' after a bound value", 0, None if w else "r")
        if r not in _SENSES:  # what follows '<=' is the variable, named inf or infinity
            name = _comparison(r)[1]
            if not name[0].isalpha():
                raise _Fail("expected a variable in bound", 0, "operand")
            r = ""
        else:
            s, n, name, r = next(it)
            if not name and _kind(r) == "kw":
                name, r = r, ""
            elif not name or s or n:
                raise _Fail("expected a variable in bound", 0)
            elif r[:1] in _TAIL:
                raise _Fail("expected a number in bound", 0, "r")
        hi = bounds.get(name, (0.0, None))[1]
        ahead = 0  # a range's upper bound is r, or else the next item if that is no term
        if not r:
            _, _, w, r = items[len(items) - operator.length_hint(it)]
            ahead, r = 1, "" if w else r
        if _kind(r) in ("cmp", "rhs"):
            if _comparison(r)[0] != "<=":
                raise _Fail("expected '<=' in a range bound", ahead, "r")
            if r in _SENSES:
                raise _Fail("expected a number in bound", ahead + 1, "signs")
            hi = _rhs(r)[1]
            if ahead:
                next(it)
        bounds[name] = (None if value == -float("inf") else value, hi)


def _error(text: str, body: str, items: list, message: str, index, at=None) -> LpFormatError:
    """The LpFormatError of a _Fail, naming the line of its token.

    A character that starts no token is the error wherever it is, as in a
    parse that reads all tokens first.
    """
    bad = next((j for j, item in enumerate(items) if _kind(item[3]) == "bad"), None)
    if bad is not None:
        message, index, at = f"illegal character {items[bad][3]!r}", bad, None
    if index is None:
        return LpFormatError(message)
    for m in itertools.islice(_ITEM.finditer(body), index, None):
        pos = m.end() - len(m.group().lstrip())  # the item's first token
        if at in ("r", "v"):
            pos = m.start(at)
        elif at == "last":
            pos = m.end("r")
            while not (body[pos - 1].isspace() or body[pos - 1] in "^*]/"):
                pos -= 1
        elif at == "operand":  # after the comparison that starts r
            pos = m.start("r")
            pos += 2 if body[pos : pos + 2] in _SENSES else 1
            pos += len(body[pos : m.end()]) - len(body[pos : m.end()].lstrip())
        elif at == "signs":
            pos = _SIGNS.match(body, pos).end()
            if pos == m.end():  # only signs: the error is at the next item
                at = None
                continue
        found = repr(_TOKEN.match(body, pos).group())
        return LpFormatError(message.replace("{found}", found), line=len(_LINE_BREAK.findall(body, 0, pos)) + 1)
    return LpFormatError(message.replace("{found}", "end of input"), line=max(1, len(text.splitlines())))


def parse_lp(path: str) -> LpModel:
    return parse_lp_text(read_text(path))


def validate_lp_file(path: str) -> LpModel:
    """Parse and sanity-check an LP file; returns the model on success."""
    model = parse_lp(path)
    # Names and senses need no check: the parser stores only values of _SENSES,
    # and every variable it records matches _NAME (group v, a "* name" tail, a
    # _KEYWORD word, or "inf" after a range's "<=").
    # Coefficients such as 1e400 parse as inf; bounds alone may be infinite,
    # but not on the side that leaves no value (lower +inf, upper -inf).
    objective = model.objective_name
    if not (all(map(math.isfinite, model.linear.values())) and all(map(math.isfinite, model.quadratic.values()))):
        raise LpFormatError(f"objective {objective!r} has a non-finite coefficient")
    if not math.isfinite(model.constant):
        raise LpFormatError(f"objective {objective!r} has a non-finite constant")
    for con in model.constraints:
        if not math.isfinite(con.rhs):
            raise LpFormatError(f"constraint {con.name!r} has a non-finite right-hand side")
        if not all(map(math.isfinite, con.coefs.values())):
            raise LpFormatError(f"constraint {con.name!r} has a non-finite coefficient")
    for name, (lo, hi) in model.bounds.items():
        if lo == math.inf or hi == -math.inf:
            raise LpFormatError(f"variable {name!r} has an empty domain: bounds ({lo}, {hi})")
    return model


def eval_lp_objective(model: LpModel, assignment: dict[str, float]) -> float:
    """Objective value at a variable assignment (bracket convention: / 2)."""
    val = model.constant
    for name, coef in model.linear.items():
        val += coef * assignment.get(name, 0.0)
    quad = 0.0
    for (n1, n2), coef in model.quadratic.items():
        quad += coef * assignment.get(n1, 0.0) * assignment.get(n2, 0.0)
    return val + quad / 2.0
