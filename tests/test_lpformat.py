import functools
import gc
import hashlib
import re
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from priceopt import (
    GenConfig,
    Instance,
    NumericError,
    ParseError,
    eval_lp_objective,
    export_mip_lp,
    generate,
    parse_lp,
    profit_z,
    validate_lp_file,
    with_k,
)
from priceopt import lpformat
from priceopt.lpformat import LpConstraint, LpFormatError, LpModel, default_big_m, parse_lp_text
from priceopt.numtext import (
    FORMAT_CHUNK as _FORMAT_CHUNK, _rounded, column as _column, decimal_cells as _decimal_cells, text as _text,
)
from conftest import huge_baseline_instance, two_product_instance


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

    def test_default_big_m_capped_at_largest_double(self, tmp_path):
        # 10 max(|p0| + delta) overflows; the largest double still covers every branch
        inst = huge_baseline_instance()
        assert default_big_m(inst) == np.finfo(np.float64).max
        path = tmp_path / "m.lp"
        export_mip_lp(inst, str(path))
        model = validate_lp_file(str(path))
        assert "bounds: big-M 1.79769313486e+308\n" in path.read_text()
        assert model.constraints[0].coefs["zL_1"] == 1.79769313486e308

    def test_prices_declared_free(self, tmp_path):
        inst = generate(GenConfig(n=4, seed=3))
        path = tmp_path / "m.lp"
        export_mip_lp(inst, str(path))
        model = validate_lp_file(str(path))
        assert model.free == {f"p_{i + 1}" for i in range(4)}

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
        assert model.objective_name == "obj"
        assert model.linear["p_1"] == pytest.approx(6.0)
        assert model.quadratic[("p_1", "p_1")] == pytest.approx(-2.0)

    def test_non_utf8_byte_is_parse_error(self, tmp_path):
        path = tmp_path / "m.lp"
        export_mip_lp(two_product_instance(), str(path))
        path.write_bytes(path.read_bytes().replace(b"p_1", b"p_\xff", 1))
        with pytest.raises(ParseError, match="not UTF-8"):
            validate_lp_file(str(path))

    def test_byte_order_mark_is_skipped(self, tmp_path):
        path = tmp_path / "m.lp"
        export_mip_lp(two_product_instance(), str(path))
        want = _snapshot(validate_lp_file(str(path)))
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert _snapshot(validate_lp_file(str(path))) == want
        assert _snapshot(parse_lp(str(path))) == want
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        with pytest.raises(LpFormatError, match=r"illegal character '\\ufeff' \(line 1\)"):
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
        text = "Maximize\n obj: 2 x + 3 y\nSubject To\n c1: x + y >= 1\nBounds\n x free\nEnd\n"
        model = parse_lp_text(text)
        assert model.constraints[0].coefs == {"x": 1.0, "y": 1.0}
        assert model.free == {"x"}
        # the exporter writes no minimization
        _assert_refused(text.replace("Maximize", "Minimize"), 1, "file must start with Maximize")

    def test_objective_eval_with_constant(self):
        model = parse_lp_text(
            "Maximize\n obj: 2 x + [ 4 x ^ 2 ] / 2\nSubject To\n c: x <= 3\nEnd\n"
        )
        assert eval_lp_objective(model, {"x": 2.0}) == pytest.approx(4 + 8)
        # the exporter writes no constant: the error is at the token after it
        _assert_refused(
            "Maximize\n obj: 5\n + 2 x + [ 4 x ^ 2 ] / 2\nSubject To\n c: x <= 3\nEnd\n", 3,
            "expected a variable, found '\\+'",
        )

    def test_comments_ignored(self):
        model = parse_lp_text(
            "\\ a comment\nMaximize \\ trailing\n obj: x\nSubject To\n c: x <= 1 \\ note\nEnd\n"
        )
        assert model.linear == {"x": 1.0}


def _assert_refused(text: str, line, match: str) -> None:
    """Both parsers raise an LpFormatError on this line; the bulk one with this message."""
    with pytest.raises(LpFormatError, match=match) as info:
        parse_lp_text(text)
    assert info.value.line == line
    with pytest.raises(LpFormatError) as info:
        _reference_parse(text)
    assert info.value.line == line


class TestParserSections:
    """Bounds other than "name free" and a General list are refused on their line."""

    def test_range_bounds(self):
        text = "Maximize\n obj: x + y\nSubject To\n c: x + y >= 1\nBounds\n x free\n -2 <= x <= 7\nEnd\n"
        _assert_refused(text, 7, "expected a variable in bound, found '-'")
        _assert_refused(text.replace("-2 <= x <= 7", "y >= -1"), 7, "malformed bound for 'y'")

    def test_infinite_bounds(self):
        _assert_refused(
            "Maximize\n obj: x\nSubject To\n c: x >= 1\nBounds\n x free\n -inf <= x <= 3\nEnd\n", 7,
            "expected a variable in bound, found '-'",
        )

    def test_general_section(self):
        _assert_refused(
            "Maximize\n obj: x + z\nSubject To\n c: x + z <= 5\nGeneral\n z\nEnd\n", 5,
            "expected a label 'name:', found 'General'",
        )

    def test_repeated_variable_adds_up(self):
        text = "Maximize\n obj: x + 2 x - y\nSubject To\n c: x + x <= 1\nEnd\n"
        model = parse_lp_text(text)
        assert model.linear == {"x": 3.0, "y": -1.0}
        assert model.constraints[0].coefs == {"x": 2.0}
        assert _outcome(parse_lp_text, text) == _outcome(_reference_parse, text)

    def test_fixed_bound(self):
        _assert_refused(
            "Maximize\n obj: x\nSubject To\n c: x >= 0\nBounds\n x\n = 2\nEnd\n", 7, "malformed bound for 'x'"
        )


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
        # whitespace, among it line breaks of str.splitlines other than "\n"
        st.sampled_from([" ", "\n", "", "\t", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\xa0", "\u3000"]),
    ),
    max_size=40,
).map(lambda parts: "".join(token + sep for token, sep in parts))


# Bodies of the Bounds section: names (inf and infinity among them), signed
# infinities and numbers, every comparison, free, section keywords, the
# symbols of other sections and line breaks, glued or apart.
_BOUNDS_TOKENS = [
    "x", "y", "p_1", "inf", "infinity", "-inf", "+inf", "- inf", "-infinity", "+ infinity", "Infinity",
    "2", "-3.5", "+1", "- 4", "0", "1e400", "-1e400", ".5",
    "<=", ">=", "=<", "=>", "<", ">", "=", "free", "FREE",
    "Bounds", "General", "Binary", "End", "Subject To", "st",
    ":", "^", "*", "[", "]", "/", "\n",
]
_bounds_bodies = st.lists(
    st.tuples(st.sampled_from(_BOUNDS_TOKENS), st.sampled_from([" ", " ", "\n", ""])), min_size=1, max_size=9
).map(lambda parts: "".join(token + sep for token, sep in parts))


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(text=_lp_texts)
    def test_parses_or_raises_priceopt_error(self, text):
        # The same model, or an LpFormatError (a PriceOptError) on the same
        # line, as the token-by-token reference parser at the end of this module.
        assert _outcome(parse_lp_text, text) == _outcome(_reference_parse, text)

    @settings(max_examples=400, deadline=None)
    @given(body=_bounds_bodies)
    # rare errors that random bodies seldom reach: a row or a bracket after a
    # General list, a name's tail, a number after free, a signed inf's tail,
    # and a range that does not close with '<='
    @example(body="General x <= 1")
    @example(body="General [")
    @example(body="x :")
    @example(body="x free <= 3")
    @example(body="-inf :")
    @example(body="1 <= x >= 2")
    def test_bounds_section_matches_reference(self, body):
        text = f"Maximize\n obj: x\nSubject To\n c: x >= 0\nBounds\n{body}\nEnd\n"
        assert _outcome(parse_lp_text, text) == _outcome(_reference_parse, text)


# --------------------------------------------------------------------------
# The bulk parser against the token-by-token reference (end of this module).


def _snapshot(model: LpModel) -> str:
    """A model as text, so that nan coefficients compare equal and -0.0 does not."""
    return repr(
        (
            model.objective_name,
            list(model.linear.items()),
            list(model.quadratic.items()),
            [(c.name, list(c.coefs.items()), c.sense, c.rhs) for c in model.constraints],
            sorted(model.free),
            sorted(model.binaries),
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
# each section, each with its outcome: _ACCEPTED, or the line of its error
# (None for an error without a line).  A form the exporter does not write is
# refused on the line where the parse fails.
_ACCEPTED = "model"
_HAND_WRITTEN = [
    ("this is not an lp file @@ %%", 1),
    ("Maximize\n obj: x\nSubject To\n c1: x <= 1\n", None),
    ("Maximize\n obj: x\nEnd\n", 3),
    ("Maximize\n obj: [ x ^ 2 ] / 3\nSubject To\n c: x >= 0\nEnd\n", 2),
    ("Maximize\n obj: [ x ^ 2\nSubject To\n c: x >= 0\nEnd\n", 3),
    ("Minimize\n obj: 2 x + 3 y\nSubject To\n c1: x + y >= 1\nBounds\n x free\nEnd\n", 1),
    ("Maximize\n obj: 2 x\n + 5 + [ 4 x ^ 2 ] / 2\nSubject To\n c: x <= 3\nEnd\n", 3),
    ("\\ a comment\nMaximize \\ trailing\n obj: x\nSubject To\n c: x <= 1 \\ note\nEnd\n", _ACCEPTED),
    ("Maximize\n obj: x + y\nSubject To\n c: x + y >= 1\nBounds\n x free\n -2 <= x <= 7\n y >= -1\nEnd\n", 7),
    ("Maximize\n obj: x\nSubject To\n c: x >= 1\nBounds\n x\n free -inf <= x <= 3\nEnd\n", 7),
    ("Maximize\n obj: x + z\nSubject To\n c: x + z <= 5\nGeneral\n z\nEnd\n", 5),
    ("Maximize\n obj: x\nSubject To\n c: x >= 0\nBounds\n x free\n x = 2\nEnd\n", 7),
    ("Maximize\n obj: - x + 2 y\n - + 3 z\nSubject To\n c: - x - y <= 1\nEnd\n", 3),
    (
        "Maximize\n obj: [ - end ^ 2 + 2 st * x + x * bin - 3 subject * that\n + x * Binary ] / 2\n"
        "Subject To\n c: x <= 1\nEnd",
        3,
    ),
    ("Maximize\n o: 2 x + 3 y\nSubject To\n c: x + y\n + 4 <= 9\nBinary\n x y\nEnd", 5),
    ("Maximize\n o: x\ns.t.\n c: x >= 0\nEnd", 4),
    ("Maximize\n o: x\nSubject To\n c: x >= 0\nBounds\n y free\n x <= 4\nEnd\n", 7),
    ("Maximize\r\n obj: x \\ c\r\n + y\rSubject To\x0b c: x <= 1\x1c\x85End \n", _ACCEPTED),
    # the exporter's forms, former keywords as names, and every section twice
    (
        "Maximize\n obj: - 0 p_1 - 2.5 end + 0 x\n + [ - 2 p_1 ^ 2 - 3 st * p_1\n + 1e-05 x ^ 2 ] / 2\n"
        "Subject To\n lb_1: p_1 - 5 zP_1 + 77 zL_1 - 6 zR_1 >= 0\n pick_1: zP_1 + zL_1 + zR_1 = 1\n"
        "Bounds\n p_1 free\nBinary\n zP_1 zL_1\n zR_1\nBounds\n x free\nBinary\nEnd\n",
        _ACCEPTED,
    ),
    ("Maximize\n obj: x\nSubject To\n c: x + y\n < 1\nEnd\n", 5),
    ("Maximize\n obj: x\nSubject To\n c: x + y =< 1\nEnd\n", 4),
    ("Maximize\n obj: x\nsuch that\n c: x <= 1\nEnd\n", 4),
    ("Maximize\n obj: x\nSubject To\n c: x\n <= inf\nEnd\n", 5),
    ("maximize\n obj: x\nSubject To\n c: x <= 1\nEnd\n", 1),
    ("Maximize\n obj: x\nSubject To\n c: x <=\n - 1\nEnd\n", 5),
    ("Maximize\n obj: x\nSubject To\n c: x <= 1\n x + y <= 1\nEnd\n", 5),
    ("Maximize\n x\nSubject To\n c: x <= 1\nEnd\n", 2),
    ("Maximize\n obj: x + [ x ^ 2 ] / 2 + y\nSubject To\n c: x <= 1\nEnd\n", 2),
    ("Maximize\n obj: x\nSubject\n to\n c: x <= 1\nEnd\n", 4),
]
_TEXTS = [text for text, _ in _HAND_WRITTEN]
_IDS = [f"case{i}" for i in range(len(_HAND_WRITTEN))]


class TestMatchesReference:
    @pytest.mark.parametrize("text, line", _HAND_WRITTEN, ids=_IDS)
    def test_hand_written(self, text, line):
        outcome = _outcome(parse_lp_text, text)
        assert outcome == _outcome(_reference_parse, text)
        assert outcome[0] == "model" if line == _ACCEPTED else outcome == ("error", line)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: with_k(generate(GenConfig(n=40, seed=7, bounds_mode=(1, 5, 5, 10))), 6),
            lambda: with_k(generate(GenConfig(n=40, seed=8)), 6),
            _negative_baseline,
            two_product_instance,
            lambda: _zero_objective(),
        ],
        ids=["bounded", "unbounded", "negative-p0", "two-product", "zero-objective"],
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
            # no constant is read, finite or not
            ("Maximize\n obj: x + 1e400\nSubject To\n c: x <= 1\nEnd\n", r"found 'Subject' \(line 3\)"),
            ("Maximize\n obj: x\nSubject To\n c: 1e400 x - 2 y <= 1\nEnd\n", "constraint 'c' has a non-finite coefficient"),
            ("Maximize\n obj: x\nSubject To\n c: x - 2 y <= 1e400\nEnd\n", "constraint 'c' has a non-finite right-hand side"),
            (
                "Maximize\n obj: 1e400 x + [ -1e400 x ^ 2 ] / 2\nSubject To\n c: 1e400 x - 2 y <= 1\nEnd\n",
                "non-finite coefficient",
            ),
        ],
        ids=["linear", "quadratic", "constant", "constraint", "rhs", "all"],
    )
    def test_rejected(self, tmp_path, text, match):
        with pytest.raises(LpFormatError, match=match):
            self._validate(tmp_path, text)

    def test_infinite_bounds_refused(self, tmp_path):
        # a bound other than "name free" is refused, infinite or not
        text = "Maximize\n obj: x\nSubject To\n c: x + y >= 1\nBounds\n x free\n y <= 1e400\nEnd\n"
        with pytest.raises(LpFormatError, match=r"malformed bound for 'y' \(line 7\)"):
            self._validate(tmp_path, text)

    @pytest.mark.parametrize(
        "bound", ["x >= 1e400", "y = inf", "-inf <= z <= -inf"], ids=["lower-overflow", "fixed-inf", "upper-minus-inf"]
    )
    def test_empty_domain_bounds_rejected(self, tmp_path, bound):
        # No bound that could leave a variable no value (a lower bound of
        # +inf, an upper bound of -inf) is read: each is refused on its line.
        text = f"Maximize\n obj: x\nSubject To\n c: x + y + z >= 1\nBounds\n {bound}\nEnd\n"
        with pytest.raises(LpFormatError, match=r"\(line 6\)$"):
            self._validate(tmp_path, text)


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

    @pytest.mark.parametrize("text", _TEXTS, ids=_IDS)
    def test_hand_written(self, text):
        self._check(text)

    @settings(max_examples=300, deadline=None)
    @given(text=_lp_texts)
    def test_fuzzed(self, text):
        self._check(text)


# --------------------------------------------------------------------------
# The block exporter against the string-by-string reference (end of this module).


_EDGES = [0.99999999999996, 999999999999.6, 9.99999999999995e-05, 1e-5, 1e15]


def _edge_instance() -> Instance:
    """f, the bracket and p0 take the values at the edges of the 12-digit
    layout, with both signs: one that rounds to 1, one that rounds up to 1e+12
    (exponent notation), one that rounds up to 0.0001 (fixed notation), and
    two that print in exponent notation as they are."""
    edges = np.array(_EDGES)
    values = np.concatenate([edges, -edges, [1.0, 2.5, 0.1]])
    n = values.size
    # D's diagonal is half of S's, so the bracket's s_ii are the values; the
    # first superdiagonal makes -2 s_ij the values too
    diag = np.abs(values) / 2.0
    D = np.diag(diag) + np.diag(np.roll(diag, 1)[1:], 1)
    delta = np.maximum(np.abs(values) * 1e-3, 1e-6)
    return Instance(n=n, k=2, a=values, D=D, c=np.zeros(n), p0=values, delta=delta)  # f = a


def _zero_objective() -> Instance:
    inst = generate(GenConfig(n=6, seed=4))
    return Instance(n=6, k=2, a=-(inst.D.T @ inst.c), D=inst.D, c=inst.c, p0=inst.p0, delta=inst.delta)


def _mixed_baseline() -> Instance:
    inst = generate(GenConfig(n=12, seed=6, bounds_mode=(1, 5, 5, 10)))
    p0 = inst.p0.copy()
    p0[::3] = 0.0
    p0[1::3] *= -1.0
    return Instance(n=12, k=4, a=inst.a, D=inst.D, c=inst.c, p0=p0, delta=inst.delta,
                    bounds=(p0 - inst.delta - 1.0, p0 + inst.delta + 1.0))


class TestExportMatchesReference:
    """export_mip_lp against the exporter that built each string in Python."""

    @pytest.mark.parametrize(
        "make, big_m",
        [
            (lambda: generate(GenConfig(n=40, seed=7, bounds_mode=(1, 5, 5, 10))), None),
            (lambda: generate(GenConfig(n=40, seed=8)), None),
            (lambda: generate(GenConfig(n=40, seed=8)), 1234.56789012345),
            (lambda: generate(GenConfig(n=30, seed=9, delta_mode=("fraction", 0.05))), None),
            (lambda: generate(GenConfig(n=30, seed=10, allow_mixed_signs=True)), None),
            (lambda: generate(GenConfig(n=1, seed=11)), None),
            (_zero_objective, None),
            (_mixed_baseline, None),
            (_negative_baseline, None),
            (_edge_instance, None),
            (two_product_instance, 0.5),
            (two_product_instance, 0.99999999999996),  # the big-M terms print as "zL_1"
            (two_product_instance, 999999999999.6),
            # every section crosses a block boundary
            (lambda: generate(GenConfig(n=_FORMAT_CHUNK + 1, seed=12)), None),
        ],
        ids=["bounded", "unbounded", "big-m", "delta-fraction", "mixed-signs", "n1", "zero-objective",
             "zero-and-negative-p0", "negative-p0", "edge-magnitudes", "two-product", "big-m-1", "big-m-1e12", "chunk"],
    )
    def test_same_bytes(self, make, big_m, tmp_path):
        inst = make()
        export_mip_lp(inst, str(tmp_path / "new.lp"), big_m=big_m)
        _reference_export(inst, str(tmp_path / "ref.lp"), big_m=big_m)
        assert (tmp_path / "new.lp").read_bytes() == (tmp_path / "ref.lp").read_bytes()
        validate_lp_file(str(tmp_path / "new.lp"))

    def test_zero_objective_writes_placeholder(self, tmp_path):
        assert " obj: 0 p_1\n" in _export_text(_zero_objective(), tmp_path)


@st.composite
def _ties(draw) -> float:
    """A double with exactly 13 significant digits, the last a 5: odd / 2^j."""
    j = draw(st.integers(1, 16))
    lo = -(-(2**j) * 10**12 // 10**j)  # ceil(10^(12 - j) 2^j)
    hi = -(-(2**j) * 10**13 // 10**j)
    return (2 * draw(st.integers(lo // 2, (hi - 2) // 2)) + 1) / 2**j


@st.composite
def _near_ties(draw) -> float:
    """A double nearest to a 13-digit decimal ending in 5, or a neighbour of it.

    Most such decimals are no double, so the nearest one misses the tie by less
    than the last of the kernel's 16 or 17 digits: only the exactness of the
    scaled product tells it from a tie."""
    v = float(f"{draw(st.integers(10**11, 10**12 - 1))}5e{draw(st.integers(-17, -1))}")
    return draw(st.sampled_from([v, float(np.nextafter(v, 0.0)), float(np.nextafter(v, np.inf))]))


def _cells_text(x: np.ndarray) -> str:
    blocks, _ = _decimal_cells(x, 12)
    return _text([*blocks, _column(" ", x.size)])[:-1]


class TestNumberCells:
    """The exporter's 12-digit cells against format(x, ".12g"), character for character."""

    @staticmethod
    def _check(x):
        x = np.asarray(x, dtype=np.float64)
        want = [format(v, ".12g") for v in x.tolist()]
        assert _cells_text(x) == " ".join(want)
        assert _decimal_cells(x, 12)[1].tolist() == [w == "1" for w in want]

    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(
        st.one_of(
            st.integers(1, 0x7FEF_FFFF_FFFF_FFFF),  # every finite positive double
            st.integers(*np.array([9e-6, 2e12]).view(np.uint64).tolist()),  # the fixed-notation range
        ),
        min_size=1, max_size=30,
    ))
    def test_bit_patterns_match_format(self, bits):
        self._check(np.array(bits, dtype=np.uint64).view(np.float64))

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.one_of(_ties(), _near_ties()), min_size=1, max_size=30))
    @example(values=[12345678901.25, 12345678901.75, 0.1000000000005, 0.5000000000005, 2.5])
    def test_ties_round_half_to_even(self, values):
        self._check(values)

    def test_edge_values(self):
        x = np.array([*_EDGES, 0.0, 5e-324, 1e-4, 1e12, 1.0, 1.5, 100.0])
        self._check(np.concatenate([x, np.nextafter(x, 0.0)[x > 0], np.nextafter(x, np.inf)]))
        assert _cells_text(np.array(_EDGES)) == "1 1e+12 0.0001 1e-05 1e+15"

    @pytest.mark.parametrize("size", [_FORMAT_CHUNK, _FORMAT_CHUNK + 1])
    def test_whole_blocks(self, size):
        rng = np.random.default_rng(size)
        self._check(rng.random(size) * 10.0 ** rng.integers(-6, 14, size))

    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(st.integers(2**52, 0x7FEF_FFFF_FFFF_FFFF), min_size=1, max_size=30))
    @example(bits=np.array([0.99999999999996, 999999999999.6, 1e23]).view(np.uint64).tolist())
    def test_rounded_digits_of_every_binade(self, bits):
        # the kernel covers all normal doubles, exponent-notation ones included
        bits = np.array(bits, dtype=np.uint64)
        f, e = _rounded(bits, 12)
        for v, digits, exp in zip(bits.view(np.float64).tolist(), f.tolist(), e.tolist()):
            mantissa, _, power = format(v, ".11e").partition("e")
            kept = mantissa.replace(".", "").rstrip("0")
            assert (int(kept), int(power) - len(kept) + 1) == (digits, exp)


def _overflowing(case: str) -> Instance:
    """A valid instance (finite D) whose exported model has a non-finite number."""
    a, c = np.array([3.0, 4.0]), np.array([1.0, 1.0])
    D = np.diag([1.0, 2.0])
    if case == "diagonal":  # S = D + D^T doubles 1e308
        D = np.diag([1.0, 1e308])
    elif case == "off-diagonal":  # the bracket writes 2 s_ij
        D = np.array([[1.0, 1e308], [0.0, 2.0]])
    elif case == "objective":  # f = a + D^T c
        D, c = np.diag([1e308, 2.0]), np.array([2.0, 1.0])
    elif case == "constant":
        a, c = np.array([1e308, 1e308]), np.array([1.0, 1.0])
    return Instance(n=2, k=1, a=a, D=D, c=c, p0=np.array([5.0, 6.0]), delta=np.array([1.0, 1.0]))


_OVERFLOWS = {
    "diagonal": "the bracket coefficient of p_2 ^ 2 is not finite (-inf)",
    "off-diagonal": "the bracket coefficient of p_1 * p_2 is not finite (-inf)",
    "objective": "the objective coefficient of p_1 is not finite (inf)",
    "constant": "the dropped constant c'a is not finite (inf)",
}


class TestExportNonFinite:
    @pytest.mark.parametrize("case", list(_OVERFLOWS))
    def test_numeric_error_and_no_file(self, case, tmp_path):
        with pytest.raises(NumericError, match=re.escape(_OVERFLOWS[case])):
            export_mip_lp(_overflowing(case), str(tmp_path / "m.lp"))
        assert list(tmp_path.iterdir()) == []


class TestParseGcState:
    """parse_lp_text pauses the cyclic collector and restores the caller's setting."""

    _GOOD = "Maximize\n obj: x\nSubject To\n c: x <= 1\nEnd\n"
    _BAD = "Maximize\n obj: x\nSubject To\n c: x <=\nEnd\n"

    def test_restored(self, monkeypatch):
        seen = []
        parse_items = lpformat._parse_items
        monkeypatch.setattr(lpformat, "_parse_items", lambda *a: seen.append(gc.isenabled()) or parse_items(*a))
        was = gc.isenabled()
        gc.enable()
        try:
            parse_lp_text(self._GOOD)
            assert gc.isenabled()
            with pytest.raises(LpFormatError):
                parse_lp_text(self._BAD)
            assert gc.isenabled()
            gc.disable()
            parse_lp_text(self._GOOD)
            with pytest.raises(LpFormatError):
                parse_lp_text(self._BAD)
            assert not gc.isenabled()
        finally:
            if was:
                gc.enable()
            else:
                gc.disable()
        assert seen == [False] * 4

    def test_builds_no_cycles(self, tmp_path):
        text = _export_text(with_k(generate(GenConfig(n=40, seed=7, bounds_mode=(1, 5, 5, 10))), 6), tmp_path)
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            model = parse_lp_text(text)
            for bad in (self._BAD, text.replace("Subject To", "Subject")):
                try:
                    parse_lp_text(bad)
                except LpFormatError:
                    pass
            assert gc.collect() == 0
        finally:
            if was:
                gc.enable()
        assert len(model.constraints) == 3 * 40 + 1


# --------------------------------------------------------------------------
# Reference parser: the token-by-token parser that lpformat used before it
# read whole terms in bulk, kept here (with end-of-input errors naming the
# last line instead of line -1) as the oracle for the differential tests.
# It is narrowed as lpformat is, to the forms the exporter writes.


_TOKEN_RE = re.compile(
    r"\s*(?:"
    r"(?P<cmp><=|>=|=)"
    r"|(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_.]*)"
    r"|(?P<op>[][+\-*/^:])"
    r")"
)

_SECTIONS = {"Maximize": "objective", "Subject": "constraints", "Bounds": "bounds", "Binary": "binary", "End": "end"}


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
            if kind == "name" and m.group(kind) in _SECTIONS:
                kind = "kw"  # a keyword names no variable
            tokens.append((kind, m.group(m.lastgroup), line_no))
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
    return _SECTIONS[val] if kind == "kw" else None


def _parse_number(cur: _Cursor, context: str) -> float:
    kind, val, line = cur.peek()
    if kind == "num":
        cur.next()
        return float(val)
    raise LpFormatError(f"expected a number in {context}", line=line)


def _parse_linear_terms(cur: _Cursor, allow_quad_bracket: bool):
    """Terms up to a comparison token or section keyword, or up to and
    including the quadratic bracket, which ends them.

    Returns (linear coefs, quadratic bracket coefs).
    """
    linear: dict[str, float] = {}
    quad: dict[tuple[str, str], float] = {}
    while True:
        kind, val, line = cur.peek()
        if kind in (None, "cmp", "kw"):
            break
        sign = 1.0
        if kind == "op" and val in "+-":
            if val == "-":
                sign = -sign
            cur.next()
            kind, val, line = cur.peek()
        if kind == "op" and val == "[":
            if not allow_quad_bracket:
                raise LpFormatError("quadratic bracket not allowed here", line=line)
            cur.next()
            _parse_quad_bracket(cur, quad, sign)
            break
        coef = 1.0
        if kind == "num":
            coef = float(val)
            cur.next()
            kind, val, line = cur.peek()
        if kind == "name":
            name = val
            cur.next()
            linear[name] = linear.get(name, 0.0) + sign * coef
            continue
        raise LpFormatError(f"expected a term, found {val!r}", line=line)
    return linear, quad


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
        if kind == "op" and val in "+-":
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


def _label(cur: _Cursor) -> str:
    kind, val, line = cur.peek()
    k2, v2, _ = cur.peek(1)
    if kind == "name" and k2 == "op" and v2 == ":":
        cur.next()
        cur.next()
        return val
    raise LpFormatError("expected a label 'name:'", line=line)


def _reference_parse(text: str) -> LpModel:
    """Parse LP text into a structured model; raises LpFormatError on errors."""
    cur = _Cursor(_tokenize(text), max(1, len(text.splitlines())))

    section = _at_section(cur)
    if section != "objective":
        _, _, line = cur.peek()
        raise LpFormatError("file must start with Maximize", line=line)
    cur.next()

    obj_name = _label(cur)
    linear, quad = _parse_linear_terms(cur, allow_quad_bracket=True)
    model = LpModel(objective_name=obj_name, linear=linear, quadratic=quad, constraints=[])

    if _at_section(cur) != "constraints":
        _, _, line = cur.peek()
        raise LpFormatError("expected a 'Subject To' section after the objective", line=line)
    cur.next()
    kind, val, line = cur.peek()
    if kind != "name" or val != "To":
        raise LpFormatError("expected 'To' after 'Subject'", line=line)
    cur.next()

    saw_end = False
    while not cur.done():
        sec = _at_section(cur)
        if sec == "bounds":
            cur.next()
            _parse_bounds(cur, model)
            continue
        if sec == "binary":
            cur.next()
            while cur.peek()[0] == "name":
                model.binaries.add(cur.next()[1])
            continue
        if sec == "end":
            cur.next()
            saw_end = True
            break
        if sec is not None:
            _, val, line = cur.peek()
            raise LpFormatError(f"unexpected section {val!r}", line=line)
        name = _label(cur)
        coefs, _ = _parse_linear_terms(cur, allow_quad_bracket=False)
        kind, val, line = cur.peek()
        if kind != "cmp":
            raise LpFormatError("constraint must contain a comparison", line=line)
        cur.next()
        rhs = _parse_number(cur, "constraint right-hand side")
        if not coefs:
            raise LpFormatError("constraint has no variables", line=line)
        model.constraints.append(LpConstraint(name=name, coefs=coefs, sense=val, rhs=rhs))

    if not saw_end:
        raise LpFormatError("missing End marker")
    if not cur.done():
        _, val, line = cur.peek()
        raise LpFormatError(f"trailing content {val!r} after End", line=line)
    return model


def _parse_bounds(cur: _Cursor, model: LpModel) -> None:
    while True:
        kind, val, line = cur.peek()
        if kind in (None, "kw"):
            break
        # the one form: x free
        if kind != "name":
            raise LpFormatError("expected a variable in bound", line=line)
        name = val
        cur.next()
        kind, val, line = cur.peek()
        if kind != "name" or val != "free":
            raise LpFormatError(f"malformed bound for {name!r}", line=line)
        cur.next()
        model.free.add(name)


# --------------------------------------------------------------------------
# Reference exporter: the exporter as it was before it laid numbers out in
# NumPy cell blocks, one Python string per term, kept as the byte-for-byte
# reference of TestExportMatchesReference.

_FMT = ".12g"

def _emit_terms(terms: list[str]) -> list[str]:
    return [" ".join(terms[i : i + 8]) for i in range(0, len(terms), 8)]


def _signed_terms(coefs: np.ndarray, monomials: list[str]) -> list[str]:
    mags = [format(x, _FMT) for x in np.abs(coefs).tolist()]
    signs = ["-" if x < 0 else "+" for x in coefs.tolist()]
    return [
        "" if mag == "0" else f"{sign} {mono}" if mag == "1" else f"{sign} {mag} {mono}"
        for sign, mag, mono in zip(signs, mags, monomials)
    ]


def _leading(terms: list[str]) -> list[str]:
    terms = [t for t in terms if t]
    if terms and terms[0][0] == "+":
        terms[0] = terms[0][2:]
    return terms


def _reference_export(instance: Instance, path: str, big_m: Optional[float] = None) -> None:
    n, k = instance.n, instance.k
    p0, delta = instance.p0, instance.delta
    f = np.asarray(instance.f)
    bounded = instance.bounds is not None
    if big_m is None:
        big_m = default_big_m(instance)
    const = float(instance.c @ instance.a)
    out: list[str] = [
        "\\ priceopt MIP export",
        f"\\ products: {n}, change budget: {k}, bounds: {'explicit' if bounded else f'big-M {format(big_m, _FMT)}'}",
        f"\\ the objective omits the constant -c'a = {format(-const, _FMT)};",
        "\\ profit Z(p) = objective value - c'a",
        "Maximize",
    ]

    ids = range(1, n + 1)
    prices = [f"p_{i}" for i in ids]
    lin_terms = _leading(_signed_terms(f, prices))
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
    Path(path).write_bytes(("\n".join(out) + "\n").encode("utf-8"))
