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

``parse_lp`` implements the published LP-format grammar for the subset we
emit (sections, linear constraints, a bracketed quadratic objective divided
by two, bounds, binaries) and is the checker used by the test suite.
"""

from __future__ import annotations

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


def _coef(x: float) -> str:
    return format(float(x), _NUM_FMT)


def _emit_terms(terms: list[str]) -> list[str]:
    """Join sign-prefixed terms into wrapped expression lines."""
    lines = []
    for i in range(0, len(terms), _TERMS_PER_LINE):
        lines.append(" ".join(terms[i : i + _TERMS_PER_LINE]))
    return lines


def _signed(coef: float, monomial: str, first: bool) -> Optional[str]:
    if coef == 0.0:
        return None
    mag = _coef(abs(coef))
    sign = "-" if coef < 0 else ("" if first else "+")
    body = f"{mag} {monomial}" if mag != "1" else monomial
    return f"{sign} {body}".strip() if sign else body


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
        f"\\ products: {n}, change budget: {k}, bounds: {'explicit' if bounded else f'big-M {_coef(big_m)}'}",
        f"\\ the objective omits the constant -c'a = {_coef(-const)};",
        "\\ profit Z(p) = objective value - c'a",
        "Maximize",
    ]

    lin_terms = []
    first = True
    for i in range(n):
        t = _signed(f[i], f"p_{i + 1}", first)
        if t is not None:
            lin_terms.append(t)
            first = False
    # The bracket is [ -sum s_ij p_i p_j ] / 2 with merged monomials: s_ii on
    # the diagonal and 2 s_ij for i < j, read from the upper triangle of the
    # (exactly) symmetric S in row-major order.
    upper = sparse.triu(instance.S, format="coo")
    quad_terms = []
    qfirst = True
    for r, c, v in zip(upper.row, upper.col, upper.data):
        mono = f"p_{r + 1} ^ 2" if r == c else f"p_{r + 1} * p_{c + 1}"
        t = _signed(-v if r == c else -2.0 * v, mono, qfirst)
        if t is not None:
            quad_terms.append(t)
            qfirst = False

    obj_lines = _emit_terms(lin_terms) or ["0 p_1"]
    out.append(" obj: " + obj_lines[0])
    out.extend("      " + ln for ln in obj_lines[1:])
    if quad_terms:
        qlines = _emit_terms(quad_terms)
        out.append("      + [ " + qlines[0])
        out.extend("      " + ln for ln in qlines[1:])
        out.append("      ] / 2")

    out.append("Subject To")
    for i in range(n):
        lo_coef = -big_m if not bounded else instance.lower[i]
        hi_coef = big_m if not bounded else instance.upper[i]
        lb = [f"p_{i + 1}"]
        for coef, name in (
            (-p0[i], f"zP_{i + 1}"),
            (-lo_coef, f"zL_{i + 1}"),
            (-(p0[i] + delta[i]), f"zR_{i + 1}"),
        ):
            t = _signed(coef, name, False)
            if t is not None:
                lb.append(t)
        out.append(f" lb_{i + 1}: " + " ".join(lb) + " >= 0")

        ub = [f"p_{i + 1}"]
        for coef, name in (
            (-p0[i], f"zP_{i + 1}"),
            (-(p0[i] - delta[i]), f"zL_{i + 1}"),
            (-hi_coef, f"zR_{i + 1}"),
        ):
            t = _signed(coef, name, False)
            if t is not None:
                ub.append(t)
        out.append(f" ub_{i + 1}: " + " ".join(ub) + " <= 0")

        out.append(f" pick_{i + 1}: zP_{i + 1} + zL_{i + 1} + zR_{i + 1} = 1")

    card_terms = []
    for i in range(n):
        card_terms.append(("" if i == 0 else "+ ") + f"zL_{i + 1}")
        card_terms.append(f"+ zR_{i + 1}")
    card_lines = _emit_terms(card_terms)
    out.append(" card: " + card_lines[0])
    out.extend("      " + ln for ln in card_lines[1:])
    out[-1] = out[-1] + f" <= {k}"

    out.append("Bounds")
    out.extend(f" p_{i + 1} free" for i in range(n))
    out.append("Binary")
    names = []
    for i in range(n):
        names.extend((f"zP_{i + 1}", f"zL_{i + 1}", f"zR_{i + 1}"))
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


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<cmp><=|>=|=<|=>|[<>=])"
    r"|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_.]*)"
    r"|(?P<op>[][+\-*/^:])"
    r")"
)

_SECTION_STARTERS = {
    "maximize": "max",
    "maximise": "max",
    "max": "max",
    "minimize": "min",
    "minimise": "min",
    "min": "min",
}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("\\", 1)[0]
        pos = 0
        while pos < len(body):
            if body[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(body, pos)
            if m is None or m.end() == pos:
                raise LpFormatError(f"illegal character {body[pos]!r}", line=line_no)
            kind = m.lastgroup
            tokens.append((kind, m.group(kind), line_no))
            pos = m.end()
    return tokens


class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self, offset: int = 0):
        j = self.i + offset
        return self.tokens[j] if j < len(self.tokens) else (None, None, -1)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def done(self) -> bool:
        return self.i >= len(self.tokens)


def _at_section(cur: _Cursor) -> Optional[str]:
    kind, val, _ = cur.peek()
    if kind != "name":
        return None
    low = val.lower()
    if low in _SECTION_STARTERS:
        return "objective"
    if low in ("subject", "such"):
        k2, v2, _ = cur.peek(1)
        if k2 == "name" and v2.lower() in ("to", "that"):
            return "constraints"
        return None
    if low == "st" or low == "s.t.":
        return "constraints"
    if low in ("bounds", "bound"):
        return "bounds"
    if low in ("binary", "binaries", "bin"):
        return "binary"
    if low in ("general", "generals", "gen"):
        return "general"
    if low == "end":
        return "end"
    return None


def _parse_number(cur: _Cursor, context: str) -> float:
    sign = 1.0
    kind, val, line = cur.peek()
    while kind == "op" and val in "+-":
        if val == "-":
            sign = -sign
        cur.next()
        kind, val, line = cur.peek()
    if kind == "num":
        cur.next()
        return sign * float(val)
    if kind == "name" and val.lower() in ("inf", "infinity"):
        cur.next()
        return sign * float("inf")
    raise LpFormatError(f"expected a number in {context}", line=line)


def _parse_linear_terms(cur: _Cursor, allow_quad_bracket: bool):
    """Terms up to a comparison token or section keyword.

    Returns (linear coefs, quadratic bracket coefs, constant).
    """
    linear: dict[str, float] = {}
    quad: dict[tuple[str, str], float] = {}
    constant = 0.0
    while True:
        kind, val, line = cur.peek()
        if kind is None or kind == "cmp":
            break
        if kind == "name" and _at_section(cur):
            break
        sign = 1.0
        while kind == "op" and val in "+-":
            if val == "-":
                sign = -sign
            cur.next()
            kind, val, line = cur.peek()
        if kind == "op" and val == "[":
            if not allow_quad_bracket:
                raise LpFormatError("quadratic bracket not allowed here", line=line)
            cur.next()
            _parse_quad_bracket(cur, quad, sign)
            continue
        coef = 1.0
        saw_num = False
        if kind == "num":
            coef = float(val)
            saw_num = True
            cur.next()
            kind, val, line = cur.peek()
        if kind == "name" and not _at_section(cur):
            name = val
            cur.next()
            linear[name] = linear.get(name, 0.0) + sign * coef
            continue
        if saw_num:
            constant += sign * coef
            continue
        raise LpFormatError(f"expected a term, found {val!r}", line=line)
    return linear, quad, constant


def _parse_quad_bracket(cur: _Cursor, quad: dict, outer_sign: float) -> None:
    """Contents of [ ... ] / 2 in the objective."""
    while True:
        kind, val, line = cur.peek()
        if kind is None:
            raise LpFormatError("unterminated quadratic bracket", line=line)
        if kind == "op" and val == "]":
            cur.next()
            break
        sign = 1.0
        while kind == "op" and val in "+-":
            if val == "-":
                sign = -sign
            cur.next()
            kind, val, line = cur.peek()
        coef = 1.0
        if kind == "num":
            coef = float(val)
            cur.next()
            kind, val, line = cur.peek()
        if kind != "name":
            raise LpFormatError("expected a variable inside the quadratic bracket", line=line)
        name1 = val
        cur.next()
        kind, val, line = cur.peek()
        if kind == "op" and val == "^":
            cur.next()
            kind, val, line = cur.peek()
            if kind != "num" or float(val) != 2.0:
                raise LpFormatError("only squares are allowed after '^'", line=line)
            cur.next()
            key = (name1, name1)
        elif kind == "op" and val == "*":
            cur.next()
            kind, val, line = cur.peek()
            if kind != "name":
                raise LpFormatError("expected a variable after '*'", line=line)
            name2 = val
            cur.next()
            key = (min(name1, name2), max(name1, name2))
        else:
            raise LpFormatError("quadratic term must be 'x ^ 2' or 'x * y'", line=line)
        quad[key] = quad.get(key, 0.0) + outer_sign * sign * coef
    kind, val, line = cur.peek()
    if not (kind == "op" and val == "/"):
        raise LpFormatError("quadratic bracket must be followed by '/ 2'", line=line)
    cur.next()
    kind, val, line = cur.peek()
    if kind != "num" or float(val) != 2.0:
        raise LpFormatError("quadratic bracket must be divided by exactly 2", line=line)
    cur.next()


def _maybe_label(cur: _Cursor) -> Optional[str]:
    kind, val, _ = cur.peek()
    k2, v2, _ = cur.peek(1)
    if kind == "name" and k2 == "op" and v2 == ":" and not _at_section(cur):
        cur.next()
        cur.next()
        return val
    return None


_SENSES = {"<=": "<=", "=<": "<=", "<": "<=", ">=": ">=", "=>": ">=", ">": ">=", "=": "="}


def parse_lp_text(text: str) -> LpModel:
    """Parse LP text into a structured model; raises LpFormatError on errors."""
    cur = _Cursor(_tokenize(text))

    section = _at_section(cur)
    if section != "objective":
        _, _, line = cur.peek()
        raise LpFormatError("file must start with Maximize or Minimize", line=line)
    _, first_word, _ = cur.next()
    sense = _SECTION_STARTERS[first_word.lower()]

    obj_name = _maybe_label(cur)
    linear, quad, constant = _parse_linear_terms(cur, allow_quad_bracket=True)
    model = LpModel(
        sense=sense,
        objective_name=obj_name,
        linear=linear,
        quadratic=quad,
        constant=constant,
        constraints=[],
    )

    if _at_section(cur) != "constraints":
        _, _, line = cur.peek()
        raise LpFormatError("expected a 'Subject To' section after the objective", line=line)
    word = cur.next()[1].lower()
    if word in ("subject", "such"):
        cur.next()  # to / that

    saw_end = False
    while not cur.done():
        sec = _at_section(cur)
        if sec == "bounds":
            cur.next()
            _parse_bounds(cur, model)
            continue
        if sec in ("binary", "general"):
            cur.next()
            target = model.binaries if sec == "binary" else model.generals
            while True:
                kind, val, _ = cur.peek()
                if kind != "name" or _at_section(cur):
                    break
                target.add(val)
                cur.next()
            continue
        if sec == "end":
            cur.next()
            saw_end = True
            break
        if sec is not None:
            _, val, line = cur.peek()
            raise LpFormatError(f"unexpected section {val!r}", line=line)
        name = _maybe_label(cur)
        coefs, q, const = _parse_linear_terms(cur, allow_quad_bracket=False)
        kind, val, line = cur.peek()
        if kind != "cmp":
            raise LpFormatError("constraint must contain a comparison", line=line)
        cur.next()
        rhs = _parse_number(cur, "constraint right-hand side") - const
        if not coefs:
            raise LpFormatError("constraint has no variables", line=line)
        model.constraints.append(LpConstraint(name=name, coefs=coefs, sense=_SENSES[val], rhs=rhs))

    if not saw_end:
        raise LpFormatError("missing End marker")
    if not cur.done():
        _, val, line = cur.peek()
        raise LpFormatError(f"trailing content {val!r} after End", line=line)
    return model


def _parse_bounds(cur: _Cursor, model: LpModel) -> None:
    while True:
        sec = _at_section(cur)
        if sec is not None or cur.done():
            break
        kind, val, line = cur.peek()
        # forms: x free | x <= b | x >= b | x = b | a <= x <= b
        if kind == "name":
            name = val
            cur.next()
            kind, val, line = cur.peek()
            if kind == "name" and val.lower() == "free":
                cur.next()
                model.bounds[name] = (None, None)
                continue
            if kind != "cmp":
                raise LpFormatError(f"malformed bound for {name!r}", line=line)
            sense = _SENSES[cur.next()[1]]
            value = _parse_number(cur, "bound")
            lo, hi = model.bounds.get(name, (0.0, None))
            if sense == "<=":
                model.bounds[name] = (lo, value)
            elif sense == ">=":
                model.bounds[name] = (value, hi)
            else:
                model.bounds[name] = (value, value)
            continue
        value = _parse_number(cur, "bound")
        kind, val, line = cur.peek()
        if kind != "cmp" or _SENSES[val] != "<=":
            raise LpFormatError("expected '<=' after a bound value", line=line)
        cur.next()
        kind, val, line = cur.peek()
        if kind != "name":
            raise LpFormatError("expected a variable in bound", line=line)
        name = val
        cur.next()
        hi = model.bounds.get(name, (0.0, None))[1]
        lo = None if value == float("-inf") else value
        kind, val, line = cur.peek()
        if kind == "cmp":
            if _SENSES[val] != "<=":
                raise LpFormatError("expected '<=' in a range bound", line=line)
            cur.next()
            hi = _parse_number(cur, "bound")
        model.bounds[name] = (lo, hi)


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
    for name in model.variables():
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_.]*", name):
            raise LpFormatError(f"illegal variable name {name!r}")
    for con in model.constraints:
        if con.sense not in ("<=", ">=", "="):
            raise LpFormatError(f"constraint {con.name!r} has unsupported sense")
        if not np.isfinite(con.rhs):
            raise LpFormatError(f"constraint {con.name!r} has a non-finite right-hand side")
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
