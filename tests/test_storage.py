import hashlib
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from priceopt import (
    ContractError,
    GenConfig,
    Instance,
    NumericError,
    ParseError,
    PriceOptError,
    SolverParams,
    adjusted_gap,
    generate,
    gpa_solve,
    read_instance,
    write_instance,
    write_report,
)
from priceopt.storage import read_vector, write_vector
from conftest import two_product_instance


class TestInstanceRoundTrip:
    def test_unbounded(self, tmp_path):
        inst = generate(GenConfig(n=40, seed=4))
        path = tmp_path / "inst.txt"
        write_instance(inst, str(path))
        assert read_instance(str(path)).same_data(inst)

    def test_bounded(self, tmp_path):
        inst = generate(GenConfig(n=40, seed=4, bounds_mode=(1, 5, 5, 10), delta_mode=("const", 0.5)))
        path = tmp_path / "inst.txt"
        write_instance(inst, str(path))
        assert read_instance(str(path)).same_data(inst)

    def test_awkward_floats_survive(self, tmp_path):
        inst = two_product_instance()
        # push in values with no short decimal representation
        inst = type(inst)(
            n=2, k=1,
            a=[1 / 3, np.nextafter(2.0, 3.0)],
            D=[[np.pi, -1e-17 - 0.1], [-0.25, np.e]],
            c=[0.1, 0.2],
            p0=[0.3, 0.7],
            delta=[1e-9, 123456.789012345],
        )
        path = tmp_path / "inst.txt"
        write_instance(inst, str(path))
        assert read_instance(str(path)).same_data(inst)


class TestWriterPins:
    """sha256 of write_instance output; a change here means the file format moved."""

    @pytest.mark.parametrize(
        "config, digest",
        [
            (
                GenConfig(n=2000, seed=0),
                "c2dc7307a96282157564aa552867bdfc64d436b9364c3b49378c657630fdece3",
            ),
            (
                GenConfig(
                    n=300, seed=7, allow_mixed_signs=True,
                    bounds_mode=(1, 5, 5, 10), delta_mode=("fraction", 0.1),
                ),
                "3ed545fce100e6a3a5e56bf9f016049251fca9fcd9e2c63663ef84b12e0ab3fc",
            ),
        ],
    )
    def test_bytes_pinned(self, tmp_path, config, digest):
        path = tmp_path / "inst.txt"
        write_instance(generate(config), str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


_awkward = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100),
    st.sampled_from([0.0, -0.0, 5e-324, 1 / 3, 0.1, 1e-17, 2.0**52 + 1, np.nextafter(1.0, 2.0)]),
)
_nonzero = _awkward.filter(lambda x: x != 0.0)


@st.composite
def _instances(draw):
    n = draw(st.integers(1, 6))
    vec = st.lists(_awkward, min_size=n, max_size=n)
    p0 = np.array(draw(vec))
    delta = np.array(draw(st.lists(_nonzero.map(abs), min_size=n, max_size=n)))
    bounds = None
    if draw(st.booleans()):
        slack = st.lists(st.floats(0.0, 1e6), min_size=n, max_size=n)
        bounds = (p0 - delta - np.array(draw(slack)), p0 + delta + np.array(draw(slack)))
    D = np.diag(draw(st.lists(_nonzero, min_size=n, max_size=n)))
    for i, j, v in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _nonzero))):
        if i != j:
            D[i, j] = v
    return Instance(
        n=n, k=draw(st.integers(1, n)), a=draw(vec), D=D, c=draw(vec),
        p0=p0, delta=delta, bounds=bounds,
    )


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(inst=_instances())
    def test_write_read_is_lossless(self, tmp_path, inst):
        path = tmp_path / "inst.txt"
        write_instance(inst, str(path))
        back = read_instance(str(path))
        assert back.same_data(inst)
        # bit-exact, so -0.0 stays -0.0
        for name in ("a", "c", "p0", "delta"):
            assert np.array_equal(_bits(getattr(back, name)), _bits(getattr(inst, name)))
        if inst.bounds is not None:
            assert np.array_equal(_bits(back.lower), _bits(inst.lower))
            assert np.array_equal(_bits(back.upper), _bits(inst.upper))
        assert np.array_equal(_bits(back.D.data), _bits(inst.D.data))


class TestStrictIntegers:
    _BODY = "a 1 1\nc 1 1\np0 2 2\ndelta 1 1\n"

    def _write(self, tmp_path, text):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        return str(p)

    def test_fractional_n_rejected(self, tmp_path):
        path = self._write(tmp_path, "n 2.7\nk 1\n" + self._BODY + "D 2\n0 0 1.0\n1 1 1.0\n")
        with pytest.raises(ParseError, match="line 1"):
            read_instance(path)

    def test_fractional_column_rejected(self, tmp_path):
        path = self._write(tmp_path, "n 2\nk 1\n" + self._BODY + "D 3\n0 0 1.0\n1 1.5 1.0\n1 1 1.0\n")
        with pytest.raises(ParseError, match="line 9") as err:
            read_instance(path)
        assert err.value.field == "D"

    def test_nan_k_is_parse_error(self, tmp_path):
        path = self._write(tmp_path, "n 2\nk nan\n" + self._BODY + "D 2\n0 0 1.0\n1 1 1.0\n")
        with pytest.raises(ParseError, match="line 2"):
            read_instance(path)

    def test_exponent_count_rejected(self, tmp_path):
        path = self._write(tmp_path, "n 2\nk 1\n" + self._BODY + "D 2e0\n0 0 1.0\n1 1 1.0\n")
        with pytest.raises(ParseError, match="line 7"):
            read_instance(path)

    def test_repeated_field_rejected(self, tmp_path):
        path = self._write(tmp_path, "n 2\nk 1\nk 2\n" + self._BODY + "D 2\n0 0 1.0\n1 1 1.0\n")
        with pytest.raises(ParseError, match="line 3") as err:
            read_instance(path)
        assert err.value.field == "k"

    def test_signed_and_padded_integers_accepted(self, tmp_path):
        path = self._write(tmp_path, "n +2\nk 01\n" + self._BODY + "D 2\n+0 0 1.0\n1 01 1.0\n")
        inst = read_instance(path)
        assert inst.n == 2 and inst.k == 1 and inst.D.nnz == 2

    def test_blank_line_inside_entries_rejected(self, tmp_path):
        path = self._write(tmp_path, "n 2\nk 1\n" + self._BODY + "D 2\n0 0 1.0\n\n1 1 1.0\n")
        with pytest.raises(ParseError, match="line 9"):
            read_instance(path)

    def test_huge_index_rejected(self, tmp_path):
        path = self._write(tmp_path, "n 2\nk 1\n" + self._BODY + "D 2\n0 0 1.0\n1 99999999999999999999 1.0\n")
        with pytest.raises(ParseError, match="line 9"):
            read_instance(path)

    def test_entry_check_names_line(self, tmp_path):
        path = self._write(tmp_path, "n 2\nk 1\n" + self._BODY + "D 3\n0 0 1.0\n1 1 1.0\n1 2 1.0\n")
        with pytest.raises(ParseError, match="outside 0..1.*line 10"):
            read_instance(path)

    def test_float_spellings_follow_python(self, tmp_path):
        # values the bulk parser refuses fall back to float(), not to an error
        path = self._write(tmp_path, "n 2\nk 1\na 1_0 1\nc 1 1\np0 2 2\ndelta 1 1\nD 2\n0 0 1_0\n1 1 1.0\n")
        inst = read_instance(path)
        assert inst.a[0] == 10.0 and inst.D[0, 0] == 10.0


class TestReaderErrors:
    def _write(self, tmp_path, text):
        p = tmp_path / "bad.txt"
        p.write_text(text)
        return str(p)

    def test_non_utf8_byte_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"n 1\nk 1\na \xff\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            read_instance(str(path))

    def test_missing_delta_names_field(self, tmp_path):
        path = self._write(
            tmp_path,
            "n 1\nk 1\na 1.0\nc 1.0\np0 2.0\nD 1\n0 0 1.0\n",
        )
        with pytest.raises(ParseError, match="delta"):
            read_instance(path)

    def test_wrong_vector_length(self, tmp_path):
        path = self._write(
            tmp_path,
            "n 2\nk 1\na 1.0\nc 1.0 1.0\np0 2.0 2.0\ndelta 1.0 1.0\nD 2\n0 0 1.0\n1 1 1.0\n",
        )
        with pytest.raises(ParseError, match="a"):
            read_instance(path)

    def test_duplicate_matrix_entry(self, tmp_path):
        path = self._write(
            tmp_path,
            "n 1\nk 1\na 1.0\nc 1.0\np0 2.0\ndelta 1.0\nD 2\n0 0 1.0\n0 0 2.0\n",
        )
        with pytest.raises(ParseError, match="duplicate"):
            read_instance(path)

    def test_explicit_zero_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            "n 2\nk 1\na 1 1\nc 1 1\np0 2 2\ndelta 1 1\nD 3\n0 0 1.0\n0 1 0.0\n1 1 1.0\n",
        )
        with pytest.raises(ParseError, match="zero"):
            read_instance(path)

    def test_garbage_number_has_line_context(self, tmp_path):
        path = self._write(
            tmp_path,
            "n 1\nk 1\na oops\nc 1.0\np0 2.0\ndelta 1.0\nD 1\n0 0 1.0\n",
        )
        with pytest.raises(ParseError, match="line 3"):
            read_instance(path)

    def test_truncated_matrix_list(self, tmp_path):
        path = self._write(
            tmp_path,
            "n 1\nk 1\na 1.0\nc 1.0\np0 2.0\ndelta 1.0\nD 2\n0 0 1.0\n",
        )
        with pytest.raises(ParseError, match="D"):
            read_instance(path)

    def test_lone_bound_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            "n 1\nk 1\na 1.0\nc 1.0\np0 2.0\ndelta 1.0\nl 0.5\nD 1\n0 0 1.0\n",
        )
        with pytest.raises(ParseError, match="u"):
            read_instance(path)


class TestVectors:
    def test_round_trip(self, tmp_path):
        v = np.array([1 / 3, -2.5, 1e-17])
        path = tmp_path / "v.txt"
        write_vector(v, str(path))
        assert np.array_equal(read_vector(str(path), 3), v)

    def test_length_check(self, tmp_path):
        path = tmp_path / "v.txt"
        write_vector(np.ones(3), str(path))
        with pytest.raises(ParseError):
            read_vector(str(path), 5)

    def test_non_utf8_byte_is_parse_error(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_bytes(b"1 2\n\xfe 3\n")
        with pytest.raises(ParseError, match="not UTF-8"):
            read_vector(str(path))


class TestWriteReport:
    def _reports(self, count):
        inst = two_product_instance()
        reports = []
        for i in range(count):
            r = gpa_solve(inst, inst.p0, SolverParams())
            r.start_id = i + 1
            r.instance_id = "two_product"
            reports.append(r)
        return reports

    def test_empty_is_header_only(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report([], str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("instance_id,n,k,")

    def test_row_count_and_columns(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(self._reports(3), str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert all(len(line.split(",")) == 12 for line in lines)

    def test_wall_time_suppression_is_deterministic(self, tmp_path):
        reports = self._reports(2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report(reports, str(p1), include_wall_time=False)
        reports2 = self._reports(2)
        write_report(reports2, str(p2), include_wall_time=False)
        assert p1.read_bytes() == p2.read_bytes()

    def test_lines_format(self, tmp_path):
        path = tmp_path / "r.txt"
        write_report(self._reports(1), str(path), format="lines")
        text = path.read_text()
        assert "final_profit:" in text and "stationary: 1" in text

    def test_bad_format(self, tmp_path):
        with pytest.raises(ContractError):
            write_report([], str(tmp_path / "r"), format="json")


class TestAdjustedGap:
    def test_equal_solutions(self):
        assert adjusted_gap(100.0, 110.0, 110.0) == 0.0

    def test_percentage_gap_value(self):
        assert adjusted_gap(100.0, 100.0, 129.37) == pytest.approx(29.37)

    def test_absolute_value_semantics(self):
        assert adjusted_gap(-50.0, 10.0, 5.0) == pytest.approx(-10.0)

    def test_antisymmetric(self):
        assert adjusted_gap(7.0, 3.0, 9.0) == -adjusted_gap(7.0, 9.0, 3.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ContractError):
            adjusted_gap(0.0, 1.0, 2.0)

    def test_overflowing_gap_rejected(self):
        # finite profits whose difference overflows to inf
        with pytest.raises(NumericError, match="not finite"):
            adjusted_gap(1.0, -1e308, 1e308)


class TestAtomicity:
    def test_no_partial_file_on_failure(self, tmp_path):
        from priceopt.storage import atomic_write_text

        target = tmp_path / "sub" / "x.txt"
        with pytest.raises(FileNotFoundError):
            atomic_write_text(str(target), "data")
        assert not target.exists()
        assert not any(p.name.startswith(".tmp-") for p in tmp_path.iterdir())


class TestValueInvariants:
    def test_negative_delta_in_file_rejected(self, tmp_path):
        from priceopt import ValidationError

        path = tmp_path / "bad.txt"
        path.write_text("n 1\nk 1\na 1.0\nc 1.0\np0 2.0\ndelta -1.0\nD 1\n0 0 1.0\n")
        with pytest.raises(ValidationError, match="delta"):
            read_instance(str(path))

    def test_file_bounds_must_be_consistent(self, tmp_path):
        from priceopt import ValidationError

        path = tmp_path / "bad.txt"
        path.write_text(
            "n 1\nk 1\na 1.0\nc 1.0\np0 2.0\ndelta 1.0\nl 1.5\nu 4.0\nD 1\n0 0 1.0\n"
        )
        with pytest.raises(ValidationError, match="l"):
            read_instance(str(path))


# Whole field lines, single tokens and separators of the instance format, so
# that generated files reach every stage of the reader, not just the first.
_FIELD_LINES = [
    "n 2", "n 1", "k 1", "k 2", "a 1 2", "a 1", "c 1 1", "c 1", "p0 5 5", "p0 5",
    "delta 1 1", "delta 1", "l 0 0", "u 9 9", "D 2", "D 1", "D 0", "D -1", "D 3",
    "0 0 1.0", "1 1 2", "0 1 -0.5", "1 0 -0.5", "0 0 0", "2 2 1", "0 0 nan", "0 0",
]
_FIELD_TOKENS = [
    "n", "k", "a", "c", "p0", "delta", "l", "u", "D", "#", "0", "1", "-1", "1.5", "-0.0",
    "nan", "inf", "1e999", "+3", "0x1", "1_0", "9" * 25, "2.5e3", "x",
]
_instance_texts = st.lists(
    st.tuples(
        st.one_of(st.sampled_from(_FIELD_LINES), st.sampled_from(_FIELD_TOKENS), st.text(max_size=3)),
        st.sampled_from([" ", "\n", "", "\t", "\r\n"]),
    ),
    max_size=40,
).map(lambda parts: "".join(token + sep for token, sep in parts))


class TestReaderFuzz:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_instance_texts)
    def test_parses_or_raises_priceopt_error(self, tmp_path, text):
        path = tmp_path / "fuzz.txt"
        path.write_text(text, encoding="utf-8")
        try:
            read_instance(str(path))
        except PriceOptError:
            pass

    # Bytes, not text: undecodable bytes, stray control bytes and broken
    # multi-byte sequences between well-formed field lines.
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.lists(
        st.one_of(st.sampled_from(_FIELD_LINES).map(lambda s: s.encode() + b"\n"), st.binary(max_size=4)),
        max_size=20,
    ).map(b"".join))
    def test_bytes_parse_or_raise_priceopt_error(self, tmp_path, data):
        path = tmp_path / "fuzz.txt"
        path.write_bytes(data)
        try:
            read_instance(str(path))
        except PriceOptError:
            pass
