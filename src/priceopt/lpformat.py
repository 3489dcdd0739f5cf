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
items of four groups (signs, number, name, rest): nearly all are one signed
term, and the term that ends a row or bound carries its comparison and number
in the rest.  One loop over the items reads the objective and every row; the
Bounds, Binary and General lists have short loops of their own.  An error
names the line of its token, computed from the item's offset only then, or the
last line if the input ends early.  ``tests/test_lpformat.py`` keeps the
earlier token-by-token parser as the reference this one must match.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy import sparse

from .errors import ParseError, ValidationError
from .instance import Instance
from .storage import _read_text, atomic_write_text

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
    return parse_lp_text(_read_text(path))


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
