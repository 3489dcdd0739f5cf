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
header states the dropped value so profits can be reconstructed.

``parse_lp`` reads the LP subset the exporter writes, and a little more:
``Maximize``/``Minimize`` with an optional ``name:``, terms, constants and
``[ 2 x ^ 2 - 3 x * y ] / 2``; ``Subject To`` rows ``[name:] terms <sense>
number``; ``Bounds`` (``x free``, ``x <= b``, ``x >= b``, ``x = b``, ``a <= x
<= b``, inf allowed); ``Binary`` and ``General`` lists; ``End``.  Keywords
ignore case; ``\\`` starts a comment.  One ``findall`` splits the text into
items, runs of whole tokens that are nearly all a signed term or a comparison
with its number, and one loop over them builds the model.  An error names the
line of its token, computed from the item's offset only then, or the last line
if the input ends early.  ``tests/test_lpformat.py`` keeps the earlier
token-by-token parser as the reference this one must match.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse

from .errors import ParseError, ValidationError
from .instance import Instance
from .storage import _not_utf8, atomic_write_text

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

_NUM_FMT = ".12g"
_TERMS_PER_LINE = 8


class LpFormatError(ParseError):
    """The file is not valid LP syntax (within the supported subset)."""


def default_big_m(instance: Instance) -> float:
    return 10.0 * float(np.max(np.abs(instance.p0) + instance.delta))


def _emit_terms(terms: list[str]) -> list[str]:
    """Join sign-prefixed terms into wrapped expression lines."""
    return [" ".join(terms[i : i + _TERMS_PER_LINE]) for i in range(0, len(terms), _TERMS_PER_LINE)]


def _signed_terms(coefs: np.ndarray, monomials: list[str]) -> list[str]:
    """Signed terms ("+ 2 x", "- x") of coefficients and monomials; "" for a zero."""
    mags = [format(x, _NUM_FMT) for x in np.abs(coefs).tolist()]
    signs = ["-" if x < 0 else "+" for x in coefs.tolist()]
    return [
        "" if mag == "0" else f"{sign} {mono}" if mag == "1" else f"{sign} {mag} {mono}"
        for sign, mag, mono in zip(signs, mags, monomials)
    ]


def _leading(terms: list[str]) -> list[str]:
    """The nonzero terms of an expression; the first one drops its '+'."""
    terms = [t for t in terms if t]
    if terms and terms[0][0] == "+":
        terms[0] = terms[0][2:]
    return terms


def export_mip_lp(instance: Instance, path: str, big_m: Optional[float] = None) -> None:
    """Write the mixed-integer model for this instance in LP file syntax.

    Numbers carry 12 significant digits.  Variables are 1-based ``p_i``,
    ``zP_i``, ``zL_i``, ``zR_i``; prices are declared free (the constraint
    rows bound them).  big_m must be finite and at least
    ``max_i(|p0_i| + delta_i)``, or a raised or lowered branch is empty.
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

    const = float(instance.c @ instance.a)
    out: list[str] = [
        "\\ priceopt MIP export",
        f"\\ products: {n}, change budget: {k}, bounds: {'explicit' if bounded else f'big-M {format(big_m, _NUM_FMT)}'}",
        f"\\ the objective omits the constant -c'a = {format(-const, _NUM_FMT)};",
        "\\ profit Z(p) = objective value - c'a",
        "Maximize",
    ]

    ids = range(1, n + 1)
    prices = [f"p_{i}" for i in ids]
    lin_terms = _leading(_signed_terms(f, prices))
    # The bracket is [ -sum s_ij p_i p_j ] / 2 with merged monomials: s_ii on
    # the diagonal and 2 s_ij for i < j, read from the upper triangle of the
    # (exactly) symmetric S in row-major order.
    upper = sparse.triu(instance.S, format="coo")
    rows, cols = (upper.row + 1).tolist(), (upper.col + 1).tolist()
    quad_terms = _leading(
        _signed_terms(
            np.where(upper.row == upper.col, -upper.data, -2.0 * upper.data),
            [f"p_{r} ^ 2" if r == c else f"p_{r} * p_{c}" for r, c in zip(rows, cols)],
        )
    )

    obj_lines = _emit_terms(lin_terms) or ["0 p_1"]
    out.append(" obj: " + obj_lines[0])
    out.extend("      " + ln for ln in obj_lines[1:])
    if quad_terms:
        qlines = _emit_terms(quad_terms)
        out.append("      + [ " + qlines[0])
        out.extend("      " + ln for ln in qlines[1:])
        out.append("      ] / 2")

    out.append("Subject To")
    lo = instance.lower if bounded else np.full(n, -big_m)
    hi = instance.upper if bounded else np.full(n, big_m)
    keep = _signed_terms(-p0, [f"zP_{i}" for i in ids])
    lowered, raised = [f"zL_{i}" for i in ids], [f"zR_{i}" for i in ids]
    lb = zip(keep, _signed_terms(-lo, lowered), _signed_terms(-(p0 + delta), raised))
    ub = zip(keep, _signed_terms(-(p0 - delta), lowered), _signed_terms(-hi, raised))
    for i, lb_terms, ub_terms in zip(ids, lb, ub):
        out.append(" ".join(filter(None, (f" lb_{i}: p_{i}", *lb_terms, ">= 0"))))
        out.append(" ".join(filter(None, (f" ub_{i}: p_{i}", *ub_terms, "<= 0"))))
        out.append(f" pick_{i}: zP_{i} + zL_{i} + zR_{i} = 1")

    card_terms = [term for i in ids for term in (f"+ zL_{i}", f"+ zR_{i}")]
    card_lines = _emit_terms(_leading(card_terms))
    out.append(" card: " + card_lines[0])
    out.extend("      " + ln for ln in card_lines[1:])
    out[-1] = out[-1] + f" <= {k}"

    out.append("Bounds")
    out.extend(f" {p} free" for p in prices)
    out.append("Binary")
    names = [f"{z}_{i}" for i in ids for z in ("zP", "zL", "zR")]
    out.extend(" " + " ".join(names[j : j + 9]) for j in range(0, len(names), 9))
    out.append("End")
    atomic_write_text(path, "\n".join(out) + "\n")


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


# An item is a run of whole tokens.  Nearly all are a term "[signs] [number]
# name [tail]" (groups s, n, v, t) whose name is not a section keyword; the tail
# is "^ number", "* name" or a label's ':'.  Group x holds the rest: a keyword
# ("subject"/"such" only before "to"/"that"), a comparison with the number after
# it if any, signs alone or before a number or '[', a number, '[', ']' with its
# "/ number", "^ number", "* name", one operator, and last a character that
# starts no token.  A number never ends where an exponent follows ("1e5 x").
_NC = r"(?![A-Za-z0-9_.])"  # the name token ends here
_NAME = r"[A-Za-z_][A-Za-z0-9_.]*"
_NUM = r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+|(?![eE][+-]?\d))"
_CMP = r"(?:<=|>=|=<|=>|[<>=])"
_KEYWORD = (  # the first-letter test up front makes most names fail it at once
    r"(?=[bBeEgGmMsS])(?:(?ai:m(?:ax|in)(?:imi[sz]e)?|s(?:t|\.t\.)|b(?:ounds?|in(?:ary|aries)?)|gen(?:erals?)?|end)"
    rf"|(?ai:su(?:bject|ch)){_NC}(?=\s*(?ai:t(?:o|hat)){_NC})){_NC}"
)
_ITEM = re.compile(
    rf"\s*(?:(?P<s>[+-](?:\s*[+-])*)?\s*(?:(?P<n>{_NUM})\s*)?(?P<v>(?!{_KEYWORD}){_NAME})"
    rf"(?:\s*(?P<t>\^\s*{_NUM}|\*\s*{_NAME}|:))?"
    rf"|(?P<x>{_KEYWORD}|{_CMP}\s*(?:[+-]\s*)*(?:{_NUM}|(?ai:inf(?:inity)?){_NC})|{_CMP}"
    rf"|(?:[+-]\s*)+(?:{_NUM}|\[)?|{_NUM}|\[|\](?:\s*/(?:\s*{_NUM})?)?"
    rf"|\^\s*{_NUM}|\*\s*{_NAME}|[\^*/:]|\S))"
)
_X = 4  # index of group x in an item
_EOF = ("",) * 5  # appended after the last item
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
    """A parse error: (message, item index or None, and ``at``, the token in
    the item: None for its first, "t"/"v" for that group, "last", "operand"
    after a leading comparison, or "signs" for the first after its signs)."""


def _kind(x: str) -> str:
    """What the item with this x is; "" is the end of the input."""
    c = x[:1]
    if c in ("<", ">", "="):
        return "cmp" if x in _SENSES else "rhs"
    if c in ("+", "-"):
        last = x.rstrip()[-1]
        return "open" if last == "[" else "signs" if last in "+-" else "const"
    if c.isdecimal() or (c == "." and len(x) > 1):
        return "const"
    if c.isascii() and c.isalpha():
        return "kw"  # any other name is in group v
    return {"": "end", "[": "open", "]": "close", "^": "op", "*": "op", "/": "op", ":": "op"}.get(c, "bad")


def _number(text: str) -> float:
    """The value of "[signs] number" or "[signs] inf"; float() reads inf and infinity."""
    k = _SIGNS.match(text).end()
    value = float(text[k:])
    return -value if text.count("-", 0, k) % 2 else value


def _comparison(x: str) -> tuple[str, str]:
    """(sense, rest) of an item that starts with a comparison."""
    op = x[:2] if x[:2] in _SENSES else x[0]
    return _SENSES[op], x[len(op) :].lstrip()


@functools.lru_cache(maxsize=256)
def _rhs(x: str) -> tuple[str, float]:
    """(sense, value) of a comparison and its number; most rows end alike ("<= 0")."""
    sense, rest = _comparison(x)
    return sense, _number(rest)


def parse_lp_text(text: str) -> LpModel:
    """Parse LP text into a structured model; raises LpFormatError on errors."""
    body = _COMMENT.sub(" ", text)  # not "": "\r" + comment + "\n" stays two line breaks
    items = _ITEM.findall(body)
    items.append(_EOF)
    try:
        return _parse_items(items)
    except _Fail as fail:
        raise _error(text, body, items, *fail.args) from None


def _parse_items(items: list) -> LpModel:
    """The model of the items; all readers share one (index, item) iterator."""
    it = enumerate(items)
    word = next(it)[1][_X].lower()
    if _SECTIONS.get(word) != "objective":
        raise _Fail("file must start with Maximize or Minimize", 0)
    obj_name, first = _label(it, next(it))
    linear, quad, constant, i, x = _terms(it, first, bracket=True)
    model = LpModel(word[:3], obj_name, linear, quad, constant, [])
    word = x.lower()
    if _SECTIONS.get(word) != "constraints":
        raise _Fail("expected a 'Subject To' section after the objective", i)
    if word in ("subject", "such"):  # the next item starts with its "to" or "that"
        i, (_, _, _, t, _) = next(it)
        if t:
            raise _Fail("expected a term, found {found}", i, "t")

    append = model.constraints.append
    pending = None
    while True:
        i, item = pending or next(it)
        pending = None
        x = item[_X]
        section = _SECTIONS.get(x.lower()) if x else None
        if item is _EOF:
            raise _Fail("missing End marker", None)
        if section == "bounds":
            pending = _bounds(items, it, model.bounds)
        elif section in ("binary", "general"):
            pending = _names(it, model.binaries if section == "binary" else model.generals)
        elif section == "end":
            if items[i + 1] is not _EOF:
                raise _Fail("trailing content {found} after End", i + 1)
            return model
        elif section:
            raise _Fail(f"unexpected section {x!r}", i)
        else:  # a row: [name :] terms comparison number
            name, first = _label(it, (i, item))
            coefs, _, const, i, x = _terms(it, first, bracket=False)
            if x in _SENSES:
                raise _Fail("expected a number in constraint right-hand side", i + 1, "signs")
            if x[:1] not in ("<", ">", "="):
                raise _Fail("constraint must contain a comparison", i)
            if not coefs:
                raise _Fail("constraint has no variables", i)
            sense, rhs = _rhs(x)
            append(LpConstraint(name, coefs, sense, rhs - const))


def _label(it, first: tuple) -> tuple:
    """(name, first term) of a row or objective that starts with item ``first``."""
    s, n, name, t, _ = first[1]
    return (name, next(it)) if t == ":" and not (s or n) else (None, first)


def _terms(it, first: tuple, bracket: bool):
    """Terms from item ``first`` to a comparison, a keyword or the end: the linear
    and quadratic coefficients, the constant, and the ending item's index and x."""
    linear: dict[str, float] = {}
    quad: dict[tuple[str, str], float] = {}
    constant = 0.0
    get = linear.get
    for i, (s, n, name, t, x) in itertools.chain((first,), it):
        if name:
            if t:
                raise _Fail("expected a term, found {found}", i, "t")
            coef = float(n) if n else 1.0
            if s and s.count("-") % 2:
                coef = -coef
            linear[name] = get(name, 0.0) + coef
            continue
        kind = _kind(x)
        if kind in ("end", "kw", "cmp", "rhs"):
            return linear, quad, constant, i, x
        if kind == "const":
            constant += _number(x)
        elif kind == "open" and bracket:
            _bracket(it, -1.0 if x.count("-") % 2 else 1.0, quad)
        elif kind == "open":
            raise _Fail("quadratic bracket not allowed here", i, "signs")
        else:
            raise _Fail("expected a term, found {found}", i, "signs")


def _bracket(it, outer: float, quad: dict) -> None:
    """The terms of [ ... ] / 2, up to and including its ']' and '/ 2'."""
    for i, (s, n, name, t, x) in it:
        if not (name or x):
            raise _Fail("unterminated quadratic bracket", i)
        if name:  # nearly always the whole "[signs] [number] x ^ 2" or "... x * y"
            coef = float(n) if n else 1.0
            if s and s.count("-") % 2:
                coef = -coef
            if t == ":":
                raise _Fail("quadratic term must be 'x ^ 2' or 'x * y'", i, "t")
        else:  # else the first variable is a keyword, an item of its own
            kind = _kind(x)
            if kind == "close":
                slash = x[1:].lstrip()
                if not slash:
                    raise _Fail("quadratic bracket must be followed by '/ 2'", i + 1)
                number = slash[1:].strip()
                if not number:
                    raise _Fail("quadratic bracket must be divided by exactly 2", i + 1)
                if float(number) != 2.0:
                    raise _Fail("quadratic bracket must be divided by exactly 2", i, "last")
                return
            coef = 1.0
            if kind in ("signs", "const"):
                coef = _number(x) if kind == "const" else -1.0 if x.count("-") % 2 else 1.0
                i, (_, _, _, _, x) = next(it)
                if _kind(x) != "kw":
                    raise _Fail("expected a variable inside the quadratic bracket", i)
            elif kind != "kw":
                raise _Fail("expected a variable inside the quadratic bracket", i, "signs")
            name = x
        if not t:  # the operator is the next item
            i, (_, _, _, _, t) = next(it)
            if t[:1] not in ("^", "*"):
                raise _Fail("quadratic term must be 'x ^ 2' or 'x * y'", i)
        if t in ("^", "*"):
            raise _Fail("only squares are allowed after '^'" if t == "^" else "expected a variable after '*'", i + 1)
        elif t[0] == "^":
            if float(t[1:].strip()) != 2.0:
                raise _Fail("only squares are allowed after '^'", i, "last")
            other = name
        else:
            other = t[1:].strip()
        key = (name, other) if name <= other else (other, name)
        quad[key] = quad.get(key, 0.0) + outer * coef


def _names(it, target: set) -> tuple:
    """A Binary or General list; returns the (index, item) that ends it."""
    for i, item in it:
        s, n, name, t, _ = item
        if not name or s or n:
            return i, item
        target.add(name)
        if t:
            raise _Fail("expected a term, found {found}", i, "t")


def _bounds(items: list, it, bounds: dict) -> tuple:
    """x free | x <= b | x >= b | x = b | a <= x [<= b] entries, up to a
    keyword or the end; returns the (index, item) that ends them."""
    for i, item in it:
        s, n, name, t, x = item
        if name and not (s or n):  # x free | x <sense> b
            if t:
                raise _Fail(f"malformed bound for {name!r}", i, "t")
            i, (s, n, word, t, x) = next(it)
            if word.lower() == "free" and not (s or n):
                bounds[name] = (None, None)
                if t:
                    raise _Fail("expected a number in bound", i, "t")
            elif _kind(x) == "rhs":
                sense, value = _rhs(x)
                lo, hi = bounds.get(name, (0.0, None))
                bounds[name] = (lo, value) if sense == "<=" else (value, hi) if sense == ">=" else (value, value)
            elif x in _SENSES:
                raise _Fail("expected a number in bound", i + 1, "signs")
            else:
                raise _Fail(f"malformed bound for {name!r}", i)
            continue
        kind = _kind(x)
        if not name and kind in ("kw", "end"):
            return i, item

        # a <= x [<= b], where a is a number or a signed inf
        if name and n:
            raise _Fail("expected '<=' after a bound value", i, "v")
        if name and name.lower() not in ("inf", "infinity"):
            raise _Fail("expected a number in bound", i, "v")
        if name and t:
            raise _Fail("expected '<=' after a bound value", i, "t")
        if not (name or kind == "const"):
            raise _Fail("expected a number in bound", i, "signs")
        value = _number(s + name if name else x)
        i, (_, _, _, _, x) = next(it)
        if _kind(x) not in ("cmp", "rhs") or _comparison(x)[0] != "<=":
            raise _Fail("expected '<=' after a bound value", i)
        if x not in _SENSES:  # what follows '<=' is the variable, named inf or infinity
            name = _comparison(x)[1]
            if not name[0].isalpha():
                raise _Fail("expected a variable in bound", i, "operand")
        else:
            i, (s, n, name, t, x) = next(it)
            if _kind(x) == "kw":
                name = x
            elif not name or s or n:
                raise _Fail("expected a variable in bound", i)
            elif t:
                raise _Fail("expected a number in bound", i, "t")
        hi = bounds.get(name, (0.0, None))[1]
        x = items[i + 1][_X]
        if _kind(x) in ("cmp", "rhs"):
            if _comparison(x)[0] != "<=":
                raise _Fail("expected '<=' in a range bound", i + 1)
            if x in _SENSES:
                raise _Fail("expected a number in bound", i + 2, "signs")
            hi = _rhs(x)[1]
            next(it)
        bounds[name] = (None if value == -float("inf") else value, hi)


def _error(text: str, body: str, items: list, message: str, index, at=None) -> LpFormatError:
    """The LpFormatError of a _Fail, naming the line of its token.

    A character that starts no token is the error wherever it is, as in a
    parse that reads all tokens first.
    """
    bad = next((j for j, item in enumerate(items) if _kind(item[_X]) == "bad"), None)
    if bad is not None:
        message, index, at = f"illegal character {items[bad][_X]!r}", bad, None
    if index is None:
        return LpFormatError(message)
    for m in itertools.islice(_ITEM.finditer(body), index, None):
        pos = m.end() - len(m.group().lstrip())  # the item's first token
        if at in ("t", "v"):
            pos = m.start(at)
        elif at == "last":
            pos = m.end()
            while not (body[pos - 1].isspace() or body[pos - 1] in "^*]/"):
                pos -= 1
        elif at == "operand":
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc) from None
    return parse_lp_text(text)


def validate_lp_file(path: str) -> LpModel:
    """Parse and sanity-check an LP file; returns the model on success."""
    model = parse_lp(path)
    # Names need no check: every variable the parser records matches _NAME
    # (group v, a "* name" tail, a _KEYWORD word, or "inf" after a range's "<=").
    # Coefficients such as 1e400 parse as inf; bounds alone may be infinite.
    objective = model.objective_name
    if not (all(map(math.isfinite, model.linear.values())) and all(map(math.isfinite, model.quadratic.values()))):
        raise LpFormatError(f"objective {objective!r} has a non-finite coefficient")
    if not math.isfinite(model.constant):
        raise LpFormatError(f"objective {objective!r} has a non-finite constant")
    for con in model.constraints:
        if con.sense not in ("<=", ">=", "="):
            raise LpFormatError(f"constraint {con.name!r} has unsupported sense")
        if not math.isfinite(con.rhs):
            raise LpFormatError(f"constraint {con.name!r} has a non-finite right-hand side")
        if not all(map(math.isfinite, con.coefs.values())):
            raise LpFormatError(f"constraint {con.name!r} has a non-finite coefficient")
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
