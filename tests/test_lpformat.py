import functools
import hashlib
import re
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priceopt import (
    GenConfig,
    Instance,
    ParseError,
    eval_lp_objective,
    export_mip_lp,
    generate,
    parse_lp,
    profit_z,
    validate_lp_file,
    with_k,
)
from priceopt.lpformat import LpConstraint, LpFormatError, LpModel, default_big_m, parse_lp_text
from conftest import two_product_instance


def feasible_assignment(rng, inst, big_m):
    """Random feasible (p, z) assignment for the exported model."""
    n, k = inst.n, inst.k
    n_changed = int(rng.integers(0, k + 1))
    changed = rng.choice(n, size=n_changed, replace=False)
    raised = rng.random(n_changed) < 0.5
    assign = {}
    p = inst.p0.copy()
    for j, i in enumerate(changed):
        if raised[j]:
            hi = inst.upper[i] if inst.bounds is not None else big_m
            p[i] = rng.uniform(inst.p0[i] + inst.delta[i], max(hi, inst.p0[i] + inst.delta[i]))
            assign[f"zR_{i + 1}"] = 1.0
        else:
            lo = inst.lower[i] if inst.bounds is not None else -big_m
            p[i] = rng.uniform(min(lo, inst.p0[i] - inst.delta[i]), inst.p0[i] - inst.delta[i])
            assign[f"zL_{i + 1}"] = 1.0
    for i in range(n):
        assign[f"p_{i + 1}"] = float(p[i])
        assign.setdefault(f"zP_{i + 1}", 0.0 if i in changed else 1.0)
        assign.setdefault(f"zL_{i + 1}", 0.0)
        assign.setdefault(f"zR_{i + 1}", 0.0)
    return assign, p


class TestExport:
    def test_single_product_structure(self, tmp_path):
        inst = generate(GenConfig(n=1, seed=0))
        path = tmp_path / "m.lp"
        export_mip_lp(inst, str(path))
        model = validate_lp_file(str(path))
        assert model.binaries == {"zP_1", "zL_1", "zR_1"}
        pick = [c for c in model.constraints if c.name == "pick_1"]
        assert len(pick) == 1
        assert pick[0].sense == "=" and pick[0].rhs == 1.0
        assert pick[0].coefs == {"zP_1": 1.0, "zL_1": 1.0, "zR_1": 1.0}

    def test_constraint_counts(self, tmp_path):
        inst = generate(GenConfig(n=7, seed=1))
        path = tmp_path / "m.lp"
        export_mip_lp(inst, str(path))
        model = validate_lp_file(str(path))
        # n lower rows + n upper rows + n pick rows + 1 cardinality row
        assert len(model.constraints) == 3 * 7 + 1
        card = [c for c in model.constraints if c.name == "card"][0]
        assert card.sense == "<=" and card.rhs == inst.k
        assert all(v == 1.0 for v in card.coefs.values())
        assert len(card.coefs) == 2 * 7

    def test_bounded_uses_bounds_not_big_m(self, tmp_path):
        inst = generate(GenConfig(n=3, seed=2, bounds_mode=(1, 5, 5, 10), delta_mode=("const", 0.5)))
        path = tmp_path / "m.lp"
        export_mip_lp(inst, str(path))
        model = validate_lp_file(str(path))
        lb1 = [c for c in model.constraints if c.name == "lb_1"][0]
        assert lb1.coefs["zL_1"] == pytest.approx(-float(inst.lower[0]), rel=1e-10)
        ub1 = [c for c in model.constraints if c.name == "ub_1"][0]
        assert ub1.coefs["zR_1"] == pytest.approx(-float(inst.upper[0]), rel=1e-10)

    def test_unbounded_uses_big_m(self, tmp_path):
        inst = two_product_instance()
        path = tmp_path / "m.lp"
        export_mip_lp(inst, str(path), big_m=77.0)
        model = validate_lp_file(str(path))
        lb1 = [c for c in model.constraints if c.name == "lb_1"][0]
        assert lb1.coefs["zL_1"] == pytest.approx(77.0)

    def test_prices_declared_free(self, tmp_path):
        inst = generate(GenConfig(n=4, seed=3))
        path = tmp_path / "m.lp"
        export_mip_lp(inst, str(path))
        model = validate_lp_file(str(path))
        for i in range(4):
            assert model.bounds[f"p_{i + 1}"] == (None, None)

    def test_objective_matches_profit(self, rng, tmp_path):
        for seed in range(4):
            bounded = seed % 2 == 0
            inst = generate(
                GenConfig(
                    n=int(rng.integers(2, 10)),
                    seed=seed,
                    bounds_mode=(1, 5, 6, 12) if bounded else None,
                    delta_mode=("const", 0.5),
                )
            )
            inst = with_k(inst, max(1, inst.n // 2))
            path = tmp_path / f"m{seed}.lp"
            export_mip_lp(inst, str(path))
            model = validate_lp_file(str(path))
            big_m = default_big_m(inst)
            const = float(inst.c @ inst.a)
            for _ in range(25):
                assign, p = feasible_assignment(rng, inst, big_m)
                lp_val = eval_lp_objective(model, assign)
                z = profit_z(inst, p)
                assert lp_val == pytest.approx(z + const, rel=1e-6, abs=1e-6)


class TestParser:
    def test_full_round_understanding(self, tmp_path):
        inst = two_product_instance()
        path = tmp_path / "m.lp"
        export_mip_lp(inst, str(path))
        model = parse_lp(str(path))
        assert model.sense == "max"
        assert model.linear["p_1"] == pytest.approx(6.0)
        assert model.quadratic[("p_1", "p_1")] == pytest.approx(-2.0)

    def test_non_utf8_byte_is_parse_error(self, tmp_path):
        path = tmp_path / "m.lp"
        export_mip_lp(two_product_instance(), str(path))
        path.write_bytes(path.read_bytes().replace(b"p_1", b"p_\xff", 1))
        with pytest.raises(ParseError, match="not UTF-8"):
            validate_lp_file(str(path))

    def test_rejects_garbage(self):
        with pytest.raises(LpFormatError):
            parse_lp_text("this is not an lp file @@ %%")

    def test_requires_end(self):
        with pytest.raises(LpFormatError, match="End"):
            parse_lp_text("Maximize\n obj: x\nSubject To\n c1: x <= 1\n")

    def test_requires_constraint_section(self):
        with pytest.raises(LpFormatError, match="Subject To"):
            parse_lp_text("Maximize\n obj: x\nEnd\n")

    def test_bad_bracket_division(self):
        with pytest.raises(LpFormatError, match="divided"):
            parse_lp_text("Maximize\n obj: [ x ^ 2 ] / 3\nSubject To\n c: x >= 0\nEnd\n")

    def test_unterminated_bracket(self):
        with pytest.raises(LpFormatError):
            parse_lp_text("Maximize\n obj: [ x ^ 2\nSubject To\n c: x >= 0\nEnd\n")

    def test_minimal_model(self):
        model = parse_lp_text(
            "Minimize\n obj: 2 x + 3 y\nSubject To\n c1: x + y >= 1\nBounds\n x free\nEnd\n"
        )
        assert model.sense == "min"
        assert model.constraints[0].coefs == {"x": 1.0, "y": 1.0}
        assert model.bounds["x"] == (None, None)

    def test_objective_eval_with_constant(self):
        model = parse_lp_text(
            "Maximize\n obj: 5 + 2 x + [ 4 x ^ 2 ] / 2\nSubject To\n c: x <= 3\nEnd\n"
        )
        assert eval_lp_objective(model, {"x": 2.0}) == pytest.approx(5 + 4 + 8)

    def test_comments_ignored(self):
        model = parse_lp_text(
            "\\ a comment\nMaximize \\ trailing\n obj: x\nSubject To\n c: x <= 1 \\ note\nEnd\n"
        )
        assert model.linear == {"x": 1.0}


class TestParserSections:
    def test_range_bounds(self):
        model = parse_lp_text(
            "Minimize\n obj: x + y\nSubject To\n c: x + y >= 1\n"
            "Bounds\n -2 <= x <= 7\n y >= -1\nEnd\n"
        )
        assert model.bounds["x"] == (-2.0, 7.0)
        assert model.bounds["y"] == (-1.0, None)

    def test_infinite_bounds(self):
        model = parse_lp_text(
            "Minimize\n obj: x\nSubject To\n c: x >= 1\nBounds\n -inf <= x <= 3\nEnd\n"
        )
        assert model.bounds["x"] == (None, 3.0)

    def test_general_section(self):
        model = parse_lp_text(
            "Maximize\n obj: x + z\nSubject To\n c: x + z <= 5\n"
            "General\n z\nEnd\n"
        )
        assert model.generals == {"z"}

    def test_fixed_bound(self):
        model = parse_lp_text(
            "Minimize\n obj: x\nSubject To\n c: x >= 0\nBounds\n x = 2\nEnd\n"
        )
        assert model.bounds["x"] == (2.0, 2.0)


# Keywords, operators, numbers (including out-of-range ones) and separators of
# the LP syntax, mixed with short arbitrary text.
_LP_TOKENS = [
    "Maximize", "Minimize", "max", "obj:", "c1:", "Subject", "To", "such", "that", "st",
    "s.t.", "Bounds", "Binary", "General", "End", "p_1", "x", "y", "+", "-", "*", "^", "2",
    "[", "]", "/", "<=", ">=", "=<", "=>", "<", ">", "=", "1.5", "1e400", "-1e400", "1e-400",
    "nan", "inf", "-inf", "infinity", "0", "free", ":", "\\", ".", "1e", "-.5", "2.",
]
_lp_texts = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(_LP_TOKENS), st.text(max_size=2)),
        st.sampled_from([" ", "\n", "", "\t"]),
    ),
    max_size=40,
).map(lambda parts: "".join(token + sep for token, sep in parts))


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(text=_lp_texts)
    def test_parses_or_raises_priceopt_error(self, text):
        # The same model, or an LpFormatError (a PriceOptError) on the same
        # line, as the token-by-token reference parser at the end of this module.
        assert _outcome(parse_lp_text, text) == _outcome(_reference_parse, text)


# --------------------------------------------------------------------------
# The bulk parser against the token-by-token reference (end of this module).


def _snapshot(model: LpModel) -> str:
    """A model as text, so that nan coefficients compare equal and -0.0 does not."""
    return repr(
        (
            model.sense,
            model.objective_name,
            list(model.linear.items()),
            list(model.quadratic.items()),
            model.constant,
            [(c.name, list(c.coefs.items()), c.sense, c.rhs) for c in model.constraints],
            list(model.bounds.items()),
            sorted(model.binaries),
            sorted(model.generals),
        )
    )


def _outcome(parse, text: str):
    """("model", snapshot) or ("error", line); any other exception propagates."""
    try:
        return "model", _snapshot(parse(text))
    except LpFormatError as exc:
        return "error", exc.line


def _export_text(inst: Instance, tmp_dir) -> str:
    path = tmp_dir / "m.lp"
    export_mip_lp(inst, str(path))
    return path.read_text()


def _negative_baseline() -> Instance:
    inst = generate(GenConfig(n=12, seed=5))
    return Instance(n=inst.n, k=3, a=inst.a, D=inst.D, c=inst.c, p0=inst.p0 - 10.0, delta=inst.delta)


# The hand-written cases of TestParser and TestParserSections, then cases with
# repeated signs, constants, keywords used as variable names, and the forms of
# each section.
_HAND_WRITTEN = [
    "this is not an lp file @@ %%",
    "Maximize\n obj: x\nSubject To\n c1: x <= 1\n",
    "Maximize\n obj: x\nEnd\n",
    "Maximize\n obj: [ x ^ 2 ] / 3\nSubject To\n c: x >= 0\nEnd\n",
    "Maximize\n obj: [ x ^ 2\nSubject To\n c: x >= 0\nEnd\n",
    "Minimize\n obj: 2 x + 3 y\nSubject To\n c1: x + y >= 1\nBounds\n x free\nEnd\n",
    "Maximize\n obj: 5 + 2 x + [ 4 x ^ 2 ] / 2\nSubject To\n c: x <= 3\nEnd\n",
    "\\ a comment\nMaximize \\ trailing\n obj: x\nSubject To\n c: x <= 1 \\ note\nEnd\n",
    "Minimize\n obj: x + y\nSubject To\n c: x + y >= 1\nBounds\n -2 <= x <= 7\n y >= -1\nEnd\n",
    "Minimize\n obj: x\nSubject To\n c: x >= 1\nBounds\n -inf <= x <= 3\nEnd\n",
    "Maximize\n obj: x + z\nSubject To\n c: x + z <= 5\nGeneral\n z\nEnd\n",
    "Minimize\n obj: x\nSubject To\n c: x >= 0\nBounds\n x = 2\nEnd\n",
    "Maximize\n obj: - - x + - 2 y - + - 3 z\nSubject To\n c: - - x - + y <= - - 1\nEnd\n",
    "Max\n obj: [ - end ^ 2 + 2 st * x + x * bin - 3 subject * that ] / 2\nst\n c: x <= 1\nEnd",
    "Min\n o: 2 x + 3 Subject To\n c: x + 4 <= 9\nBinary\n x y\n d: x - y >= -1\nEnd",
    "Min\n o: x\ns.t.\n c: x >= 0\nBounds\n -2 <= subject to <= 5\n 1 <= inf <= 2\n x <= infinity\nEnd",
    "Min\n o: x\nSubject To\n c: x >= 0\nBounds\n x <= 4 x >= - inf y free z = 3\n- inf <= w\nEnd\n",
    "Maximize\r\n obj: x \\ c\r\n + y\rSubject To\x0b c: x <= 1\x1c\x85End \n",
]


class TestMatchesReference:
    @pytest.mark.parametrize("text", _HAND_WRITTEN, ids=[f"case{i}" for i in range(len(_HAND_WRITTEN))])
    def test_hand_written(self, text):
        assert _outcome(parse_lp_text, text) == _outcome(_reference_parse, text)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: with_k(generate(GenConfig(n=40, seed=7, bounds_mode=(1, 5, 5, 10))), 6),
            lambda: with_k(generate(GenConfig(n=40, seed=8)), 6),
            _negative_baseline,
            two_product_instance,
        ],
        ids=["bounded", "unbounded", "negative-p0", "two-product"],
    )
    def test_exported_models(self, make, tmp_path):
        text = _export_text(make(), tmp_path)
        assert _outcome(parse_lp_text, text) == _outcome(_reference_parse, text)
        assert _outcome(parse_lp_text, text)[0] == "model"

    def test_lp_roundtrip_file(self, tmp_path):
        # The model of perfbench's lp-roundtrip workload: n = 20,000, seed 101.
        text = _export_text(generate(GenConfig(n=20_000, seed=101)), tmp_path)
        assert _snapshot(parse_lp_text(text)) == _snapshot(_reference_parse(text))


@functools.lru_cache(maxsize=None)
def _small_exports() -> tuple[list[str], ...]:
    """Small exported models split into alternating tokens and separators."""
    with tempfile.TemporaryDirectory() as tmp:
        texts = [
            _export_text(with_k(generate(GenConfig(n=4, seed=9, bounds_mode=bounds)), 2), Path(tmp))
            for bounds in (None, (1, 5, 5, 10))
        ]
    return tuple(re.split(r"(\s+)", text) for text in texts)


class TestParserMutations:
    """One token of a small exported model inserted, deleted or replaced."""

    @settings(max_examples=300, deadline=None)
    @given(
        which=st.integers(0, 1),
        op=st.sampled_from(["insert", "delete", "replace"]),
        at=st.integers(0, 10**6),
        token=st.sampled_from(_LP_TOKENS),
    )
    def test_matches_reference(self, which, op, at, token):
        parts = list(_small_exports()[which])
        k = 2 * (at % ((len(parts) + 1) // 2))  # a token, not a separator
        if op == "insert":
            parts.insert(k, token + " ")
        elif op == "delete":
            parts[k] = ""
        else:
            parts[k] = token
        text = "".join(parts)
        assert _outcome(parse_lp_text, text) == _outcome(_reference_parse, text)


class TestEndOfInputLine:
    """An error at the end of the input names the last line, not line -1."""

    @pytest.mark.parametrize(
        "text, line",
        [
            ("Maximize\n obj: x\nSubject To\n c: x <=", 4),
            ("Maximize\n obj: [ x ^ 2", 2),
            ("Maximize\n obj: x\nSubject To\n c: x <= 1\nBounds\n x <=", 6),
            ("", 1),
        ],
        ids=["constraint-rhs", "bracket", "bound", "empty"],
    )
    def test_names_last_line(self, text, line):
        for parse in (parse_lp_text, _reference_parse):
            with pytest.raises(LpFormatError) as info:
                parse(text)
            assert info.value.line == line


class TestExportPinned:
    """Exports taken before the exporter was vectorized, byte for byte."""

    @pytest.mark.parametrize(
        "bounds, digest",
        [
            (None, "c761588d9cf5c6e8d64580f5e00f1bd49a3513f65e629d2e90e2cbfb2cf85169"),
            ((1, 5, 5, 10), "ad12d240ff79378267c22ac7d3f2b0b0e086f185bf6ccc48cff65a12b6e33f92"),
        ],
        ids=["unbounded", "bounded"],
    )
    def test_sha256(self, bounds, digest, tmp_path):
        path = tmp_path / "m.lp"
        export_mip_lp(generate(GenConfig(n=200, seed=0, bounds_mode=bounds)), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


class TestNonFiniteCoefficients:
    def _validate(self, tmp_path, text):
        path = tmp_path / "m.lp"
        path.write_text(text)
        return validate_lp_file(str(path))

    @pytest.mark.parametrize(
        "text, match",
        [
            ("Maximize\n obj: 1e400 x\nSubject To\n c: x <= 1\nEnd\n", "objective 'obj' has a non-finite coefficient"),
            (
                "Maximize\n obj: x + [ -1e400 x ^ 2 ] / 2\nSubject To\n c: x <= 1\nEnd\n",
                "objective 'obj' has a non-finite coefficient",
            ),
            ("Maximize\n obj: x + 1e400\nSubject To\n c: x <= 1\nEnd\n", "objective 'obj' has a non-finite constant"),
            ("Maximize\n obj: x\nSubject To\n c: 1e400 x - 2 y <= 1\nEnd\n", "constraint 'c' has a non-finite coefficient"),
            (
                "Maximize\n obj: 1e400 x + [ -1e400 x ^ 2 ] / 2\nSubject To\n c: 1e400 x - 2 y <= 1\nEnd\n",
                "non-finite coefficient",
            ),
        ],
        ids=["linear", "quadratic", "constant", "constraint", "all"],
    )
    def test_rejected(self, tmp_path, text, match):
        with pytest.raises(LpFormatError, match=match):
            self._validate(tmp_path, text)

    def test_infinite_bounds_allowed(self, tmp_path):
        model = self._validate(
            tmp_path, "Minimize\n obj: x\nSubject To\n c: x + y >= 1\nBounds\n -inf <= x <= inf\n y <= 1e400\nEnd\n"
        )
        assert model.bounds == {"x": (None, float("inf")), "y": (0.0, float("inf"))}


class TestVariableNames:
    """validate_lp_file does not check variable names: every name a parse
    records, in any section, is a whole match of the LP name pattern."""

    _NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")

    def _check(self, text):
        try:
            model = parse_lp_text(text)
        except LpFormatError:
            return
        assert all(self._NAME.fullmatch(name) for name in model.variables())

    @pytest.mark.parametrize("text", _HAND_WRITTEN, ids=[f"case{i}" for i in range(len(_HAND_WRITTEN))])
    def test_hand_written(self, text):
        self._check(text)

    @settings(max_examples=300, deadline=None)
    @given(text=_lp_texts)
    def test_fuzzed(self, text):
        self._check(text)


# --------------------------------------------------------------------------
# Reference parser: the token-by-token parser that lpformat used before it
# read whole terms in bulk, kept here (with end-of-input errors naming the
# last line instead of line -1) as the oracle for the differential tests.


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
    def __init__(self, tokens, eof_line):
        self.tokens = tokens
        self.eof_line = eof_line
        self.i = 0

    def peek(self, offset: int = 0):
        j = self.i + offset
        return self.tokens[j] if j < len(self.tokens) else (None, None, self.eof_line)

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


def _reference_parse(text: str) -> LpModel:
    """Parse LP text into a structured model; raises LpFormatError on errors."""
    cur = _Cursor(_tokenize(text), max(1, len(text.splitlines())))

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

