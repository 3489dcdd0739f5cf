import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from priceopt import (
    GenConfig,
    ParseError,
    PriceOptError,
    eval_lp_objective,
    export_mip_lp,
    generate,
    parse_lp,
    profit_z,
    validate_lp_file,
    with_k,
)
from priceopt.lpformat import LpFormatError, default_big_m, parse_lp_text
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
    @settings(max_examples=200, deadline=None)
    @given(text=_lp_texts)
    def test_parses_or_raises_priceopt_error(self, text):
        try:
            parse_lp_text(text)
        except PriceOptError:
            pass
