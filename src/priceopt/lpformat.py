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

``parse_lp`` reads the LP text the exporter writes, and nothing else:
``Maximize``; the objective ``name: terms``, whose last term may be one
bracket ``[ 2 x ^ 2 - 3 x * y ] / 2``; ``Subject To`` and rows ``name:
terms <=|>=|= number``; ``Bounds`` lines ``name free``; ``Binary`` name
lists; ``End``.  A term is ``[+|-] [number] name``.  Keywords are spelled as
the exporter spells them and name no variable; ``\\`` starts a comment.
Every other form (``Minimize``, a constant, ``General``, any other bound,
``inf``, ``<`` or ``=<``, two signs in a row, ``st``) is an LpFormatError
that names its line.  One ``findall`` splits the text into items of four
groups (sign, number, name, rest): nearly all are one signed term, and the
term that ends a row carries its comparison and number in the rest.  An
error names the line of its token, computed from the item's offset only
then, or the last line if the input ends early.  ``tests/test_lpformat.py``
keeps the earlier token-by-token parser, narrowed alike, as the reference
this one must match.  The parse runs with the cyclic garbage collector
paused (the caller's setting comes back afterwards): it allocates hundreds
of thousands of tuples and strings, which would set off many collections,
yet it builds no reference cycles for them to find.
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
    name: str
    coefs: dict[str, float]
    sense: str  # "<=", ">=", "="
    rhs: float


@dataclass
class LpModel:
    objective_name: str
    linear: dict[str, float]
    quadratic: dict[tuple[str, str], float]  # bracket coefficients (pre "/ 2")
    constraints: list[LpConstraint]
    free: set[str] = field(default_factory=set)
    binaries: set[str] = field(default_factory=set)

    def variables(self) -> set[str]:
        names = set(self.linear)
        for a, b in self.quadratic:
            names.update((a, b))
        for con in self.constraints:
            names.update(con.coefs)
        names.update(self.free)
        names.update(self.binaries)
        return names


# An item is a run of whole tokens, in four groups (s, n, v, r).  Nearly all
# are a term "[sign] [number] name [tail]": s, n and v hold the sign, the
# number and a name that is not a keyword, and r the tail: "^ number",
# "* name", a label's ':', the comparison and number that end a row
# ("<= 0"), or "".  Every other item has r alone: a keyword, a comparison
# with the number after it if any, a sign alone or before a number or '[',
# a number, '[', ']' with its "/ number", one operator, and last a character
# that starts no token.  A number never ends where an exponent follows
# ("1e5 x").  Optional parts are written "(?:...|)", not "(?:...)?": the regex
# engine takes an alternative faster than it runs a repeat.
_NC = r"(?![A-Za-z0-9_.])"  # the name token ends here
_NAME = r"[A-Za-z_][A-Za-z0-9_.]*"
_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+|(?![eE][+-]?\d))"
_CMP = r"(?:<=|>=|=)"
_KEYWORD = rf"(?=[BEMS])(?:Maximize|Subject|Bounds|Binary|End){_NC}"  # most names fail the first letter
_ITEM = re.compile(
    rf"\s*(?:(?:(?P<s>[+-])\s*|)(?:(?P<n>{_NUM})\s*|)(?P<v>(?!{_KEYWORD}){_NAME})\s*|)"
    rf"(?P<r>(?(v)(?:\^\s*{_NUM}|\*\s*(?!{_KEYWORD}){_NAME}|:|{_CMP}\s*{_NUM}|)|(?:{_KEYWORD}"
    rf"|{_CMP}(?:\s*{_NUM}|)|[+-]\s*(?:{_NUM}|\[|)|{_NUM}|\[|\](?:\s*/(?:\s*{_NUM}|)|)|[\^*/:]|\S)))"
)
_TAIL = ("^", "*", ":")  # how a term's tail starts, unless it is a comparison
_EOF = ("",) * 4  # appended after the last item
_SIGN = re.compile(r"[+-]?\s*")
_TOKEN = re.compile(rf"{_CMP}|{_NUM}|{_NAME}|\S")  # the token an error message quotes
# "\" starts a comment that runs to the end of the line; these are the line
# breaks of str.splitlines, which also number the lines in error messages.
_COMMENT = re.compile("\\\\[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")
_LINE_BREAK = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")

# The error of an item that ends the terms of the objective or of a row too
# early, by its kind (_kind), as _Fail arguments; any other kind is _NOT_A_TERM.
_NOT_A_TERM = ("expected a term, found {found}", 0, "r")
_NO_SECTION = "expected a 'Subject To' section after the objective"
_NO_VARIABLE = ("expected a variable, found {found}", 1)  # after a number
_OBJECTIVE_END = {"const": _NO_VARIABLE, **dict.fromkeys(("kw", "end", "cmp", "rhs"), (_NO_SECTION, 0, "r"))}
_ROW_END = {
    "const": _NO_VARIABLE,
    **dict.fromkeys(("kw", "end"), ("constraint must contain a comparison", 0)),
    "cmp": ("expected a number in constraint right-hand side", 1),
    "rhs": ("constraint has no variables", 0, "r"),
    "open": ("quadratic bracket not allowed here", 0, "r"),
}


class _Fail(Exception):
    """A parse error: (message, ahead, at).  ``ahead`` counts items from the
    one read last (0), or is None for an error without a line; ``at`` is the
    token in that item: None for its first, "r" for the first of r after its
    sign (or the next item's first, if r is a sign alone), or "last" for the
    last token of r."""


def _kind(r: str) -> str:
    """What the item with this r and no name is ("" is the end of the input);
    a term's tail is an "op" and its comparison and number an "rhs"."""
    c = r[:1]
    if c in ("<", ">", "="):
        return "cmp" if r in ("<=", ">=", "=") else "bad" if len(r) == 1 else "rhs"
    if c in ("+", "-"):
        last = r.rstrip()[-1]
        return "open" if last == "[" else "signs" if last in "+-" else "const"
    if c.isdecimal() or (c == "." and len(r) > 1):
        return "const"
    if c.isascii() and c.isalpha():
        return "kw"  # any other name is in group v
    return {"": "end", "[": "open", "]": "close", "^": "op", "*": "op", "/": "op", ":": "op"}.get(c, "bad")


@functools.lru_cache(maxsize=256)
def _rhs(r: str) -> tuple[str, float]:
    """(sense, value) of a comparison and its number; most rows end alike ("<= 0")."""
    sense = r[:2] if r[1] == "=" else "="
    return sense, float(r[len(sense) :])


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
            return _parse_items(it)
        except _Fail as fail:
            message, ahead, *at = fail.args
            read = len(items) - operator.length_hint(it) - 1  # the index of the item read last
            raise _error(text, body, items, message, None if ahead is None else read + ahead, *at) from None
    finally:
        if enabled:
            gc.enable()


def _parse_items(it) -> LpModel:
    """The model of the items read from the iterator ``it``: the objective,
    then each row and the Bounds and Binary sections, up to End."""
    if next(it)[3] != "Maximize":
        raise _Fail("file must start with Maximize", 0)
    model = LpModel(_label(next(it)), {}, {}, [])
    s, n, v, r = _terms(it, model.linear)
    if r[-1:] == "[":  # the bracket, which ends the objective
        _bracket(it, -1.0 if r[0] == "-" else 1.0, model.quadratic)
        r = next(it)[3]
        if r != "Subject":
            raise _Fail(_NO_SECTION, 0)
    elif r != "Subject":
        raise _Fail(*_OBJECTIVE_END.get(_kind(r), _NOT_A_TERM))
    s, n, v, r = next(it)
    if v != "To" or s or n:
        raise _Fail("expected 'To' after 'Subject'", 0)
    if r:
        raise _Fail("expected a row label, found {found}", 0, "r")
    append = model.constraints.append
    item = next(it)
    while True:
        s, n, v, r = item
        if v:  # a row: its label, terms and comparison
            coefs = {}
            name = _label(item)
            s, n, v, r = _terms(it, coefs)
            if not v or r[0] in _TAIL:
                raise _Fail(*_ROW_END.get(_kind(r), _NOT_A_TERM))
            append(LpConstraint(name, coefs, *_rhs(r)))
            item = next(it)
        elif r == "Bounds":
            item = _bounds(it, model.free)
        elif r == "Binary":
            item = _names(it, model.binaries)
        elif r == "End":
            if next(it) is not _EOF:
                raise _Fail("trailing content {found} after End", 0)
            return model
        elif r:
            raise _Fail("expected a row label or a section, found {found}", 0)
        else:
            raise _Fail("missing End marker", None)


def _label(item: tuple) -> str:
    """The name of a "name:" item."""
    s, n, v, r = item
    if r != ":" or s or n or not v:
        raise _Fail("expected a label 'name:', found {found}", 0)
    return v


def _terms(it, coefs: dict) -> tuple:
    """Adds the terms read to ``coefs``, up to the first item with a tail
    or no name, and returns that item."""
    for item in it:
        s, n, v, r = item
        if not v:
            return item
        coef = float(n) if n else 1.0
        if s == "-":
            coef = 0.0 - coef  # not -coef: "- 0 x" adds 0.0, not -0.0
        if v in coefs:
            coefs[v] += coef
        else:
            coefs[v] = coef
        if r:
            return item


def _bracket(it, outer: float, quad: dict) -> None:
    """The terms of [ ... ] / 2, up to and including its ']' and '/ 2'."""
    for s, n, v, r in it:
        if not v:
            if r[:1] == "]":
                slash = r[1:].lstrip()
                if not slash:
                    raise _Fail("quadratic bracket must be followed by '/ 2'", 1)
                number = slash[1:].strip()
                if not number:
                    raise _Fail("quadratic bracket must be divided by exactly 2", 1)
                if float(number) != 2.0:
                    raise _Fail("quadratic bracket must be divided by exactly 2", 0, "last")
                return
            if not r:
                raise _Fail("unterminated quadratic bracket", 0)
            if _kind(r) == "const":
                raise _Fail(*_NO_VARIABLE)
            raise _Fail("expected a variable inside the quadratic bracket", 0, "r")
        coef = float(n) if n else 1.0
        if s == "-":
            coef = -coef
        if r[:1] not in ("^", "*"):
            if r:
                raise _Fail("quadratic term must be 'x ^ 2' or 'x * y'", 0, "r")
            _, _, w, r = next(it)  # an operator with no operand glued to it, or none
            if w or r not in ("^", "*"):
                raise _Fail("quadratic term must be 'x ^ 2' or 'x * y'", 0)
            raise _Fail("only squares are allowed after '^'" if r == "^" else "expected a variable after '*'", 1)
        if r[0] == "^":
            if float(r[1:]) != 2.0:
                raise _Fail("only squares are allowed after '^'", 0, "last")
            other = v
        else:
            other = r[1:].strip()
        key = (v, other) if v <= other else (other, v)
        quad[key] = quad.get(key, 0.0) + outer * coef


def _bounds(it, free: set) -> tuple:
    """The "name free" lines of Bounds; returns the item that ends them."""
    for item in it:
        s, n, v, r = item
        if not v and _kind(r) in ("kw", "end"):
            return item
        if not v or s or n:
            raise _Fail("expected a variable in bound, found {found}", 0)
        if r:
            raise _Fail(f"malformed bound for {v!r}", 0, "r")
        s, n, word, r = next(it)
        if word != "free" or s or n:
            raise _Fail(f"malformed bound for {v!r}", 0)
        if r:
            raise _Fail("expected a variable in bound, found {found}", 0, "r")
        free.add(v)


def _names(it, names: set) -> tuple:
    """A Binary list; returns the item that ends it."""
    for item in it:
        s, n, v, r = item
        if not v or s or n:
            return item
        if r:
            raise _Fail("expected a variable, found {found}", 0, "r")
        names.add(v)


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
        if at == "r":
            pos = _SIGN.match(body, m.start("r")).end()
            if pos == m.end():  # a sign alone: the error is at the next item
                at = None
                continue
        elif at == "last":
            pos = m.end("r")
            while not (body[pos - 1].isspace() or body[pos - 1] in "^*]/"):
                pos -= 1
        found = repr(_TOKEN.match(body, pos).group())
        return LpFormatError(message.replace("{found}", found), line=len(_LINE_BREAK.findall(body, 0, pos)) + 1)
    return LpFormatError(message.replace("{found}", "end of input"), line=max(1, len(text.splitlines())))


def parse_lp(path: str) -> LpModel:
    return parse_lp_text(read_text(path))


def validate_lp_file(path: str) -> LpModel:
    """Parse and sanity-check an LP file; returns the model on success."""
    model = parse_lp(path)
    # Names and senses need no check: the parser stores only "<=", ">=" and
    # "=", and every variable it records matches _NAME (group v or a "* name"
    # tail).  Coefficients and right-hand sides such as 1e400 parse as inf.
    objective = model.objective_name
    if not (all(map(math.isfinite, model.linear.values())) and all(map(math.isfinite, model.quadratic.values()))):
        raise LpFormatError(f"objective {objective!r} has a non-finite coefficient")
    for con in model.constraints:
        if not math.isfinite(con.rhs):
            raise LpFormatError(f"constraint {con.name!r} has a non-finite right-hand side")
        if not all(map(math.isfinite, con.coefs.values())):
            raise LpFormatError(f"constraint {con.name!r} has a non-finite coefficient")
    return model


def eval_lp_objective(model: LpModel, assignment: dict[str, float]) -> float:
    """Objective value at a variable assignment (bracket convention: / 2)."""
    val = 0.0
    for name, coef in model.linear.items():
        val += coef * assignment.get(name, 0.0)
    quad = 0.0
    for (n1, n2), coef in model.quadratic.items():
        quad += coef * assignment.get(n1, 0.0) * assignment.get(n2, 0.0)
    return val + quad / 2.0
