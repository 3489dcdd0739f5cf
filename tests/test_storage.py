import hashlib
import itertools
import os
import stat
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import sparse

from priceopt import (
    ContractError,
    GenConfig,
    Instance,
    NumericError,
    ParseError,
    PriceOptError,
    SolverParams,
    adjusted_gap,
    export_mip_lp,
    generate,
    gpa_solve,
    read_instance,
    write_instance,
    write_report,
)
from priceopt import numtext, storage
from priceopt.numtext import (
    FORMAT_CHUNK as _FORMAT_CHUNK, _shortest, column as _column, decimal_cells as _decimal_cells, format_floats,
    text as _text,
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


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _repr_join(values) -> str:
    return " ".join(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def _assert_same(got, want) -> None:
    """``got == want``, else fail at the first differing token (pytest's diff of long texts is slow)."""
    if got != want:
        for at, (g, w) in enumerate(zip(got.split(), want.split())):
            if g != w:
                pytest.fail(f"token {at}: {g!r} != {w!r}")
        pytest.fail("the texts differ in spacing or length")


def _reference_bytes(instance) -> bytes:
    """The instance file as the writer made it with ``repr`` per value: the format's reference."""
    D = instance.D
    header = ["# priceopt instance v1", f"n {instance.n}", f"k {instance.k}"]
    for name in ("a", "c", "p0", "delta"):
        header.append(f"{name} {_repr_join(getattr(instance, name))}")
    if instance.bounds is not None:
        header.append(f"l {_repr_join(instance.lower)}")
        header.append(f"u {_repr_join(instance.upper)}")
    header.append(f"D {D.nnz}")
    rows = np.repeat(np.arange(instance.n), np.diff(D.indptr))
    lines = ["%d %d %r\n" % e for e in zip(rows.tolist(), D.indices.tolist(), D.data.tolist())]
    return ("\n".join(header) + "\n" + "".join(lines)).encode("utf-8")


class TestFormatFloats:
    """format_floats against ``" ".join(map(repr, x))``, character for character."""

    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), max_size=30))
    def test_bit_patterns_match_repr(self, bits):
        # nan, infinities, subnormals and -0.0 included
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        _assert_same(format_floats(x), _repr_join(x))

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(
        st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.floats(-1e16, 1e16)), max_size=30,
    ))
    def test_finite_floats_match_repr(self, values):
        _assert_same(format_floats(values), _repr_join(values))

    def test_edge_values_match_repr(self):
        pow2 = np.ldexp(1.0, np.arange(-1074, 1024))
        pow10 = np.array([float(f"1e{e}") for e in range(-30, 31)])
        switch = np.array([1e16, 1e-4, 2.0**53 - 1, 2.0**53, 2.0**53 + 1, 2.0**53 + 2])
        # N.25 and N.75 lie halfway between two 17-digit decimals: repr takes the even one
        halfway = 2.0**50 + np.arange(40.0)[:, None] + [0.25, 0.75]
        x = np.concatenate([
            pow2, -pow2, halfway.ravel(),
            pow10, np.nextafter(pow10, 0.0), np.nextafter(pow10, np.inf),
            switch, np.nextafter(switch, 0.0), np.nextafter(switch, np.inf),
            [9999999999999998.0, 5e-324, -5e-324, 0.0, -0.0],
        ])
        _assert_same(format_floats(x), _repr_join(x))

    @pytest.mark.parametrize("size", [_FORMAT_CHUNK, _FORMAT_CHUNK + 1, 2 * _FORMAT_CHUNK + 1])
    def test_blocks_join_across_chunks(self, size):
        rng = np.random.default_rng(size)
        x = rng.standard_normal(size) * 10.0 ** rng.integers(-6, 18, size)
        _assert_same(format_floats(x), _repr_join(x))

    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(st.integers(2**52, 0x7FEF_FFFF_FFFF_FFFF), min_size=1, max_size=30))
    # 1e23 is the midpoint of two doubles: the one with even c takes it, the odd one may not
    @example(bits=_bits([1e23, np.nextafter(1e23, np.inf), np.nextafter(1e23, 0.0)]).tolist())
    def test_digits_of_every_binade(self, bits):
        # the digit kernel covers all normal doubles, exponent-notation ones included
        bits = np.array(bits, dtype=np.uint64)
        f, e = _shortest(bits)
        for v, digits, exp in zip(bits.view(np.float64).tolist(), f.tolist(), e.tolist()):
            mantissa, _, power = repr(v).partition("e")
            whole, _, frac = mantissa.partition(".")
            kept = (whole + frac).rstrip("0")
            assert (int(kept), int(power or 0) + len(whole) - len(kept)) == (digits, exp)


# Both sides of each switch between fixed and exponent notation: ".12g"
# writes 9.99999999999995e-05 as 0.0001 and 999999999999.6 as 1e+12, and
# repr switches between 9999999999999998.0 and 1e16.
_SWITCHES = np.array([9.99999999999995e-05, 999999999999.6, 9999999999999998.0, 1e16])
_SPECIAL = np.array([0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, np.inf, np.nan, 1.0])


class TestDecimalCells:
    """_decimal_cells, the one layout of ``repr`` and ``format(v, ".12g")``, on any double."""

    @staticmethod
    def _check(x):
        x = np.asarray(x, dtype=np.float64)
        for digits, spell in ((None, repr), (12, lambda v: format(v, ".12g"))):
            want = [spell(v) for v in x.tolist()]
            blocks, one = _decimal_cells(x, digits)
            _assert_same(_text([*blocks, _column(" ", x.size)])[:-1], " ".join(want))
            assert one.tolist() == [abs(float(w)) == 1.0 for w in want]

    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(
        st.one_of(
            st.integers(0, 2**64 - 1),  # both signs, subnormals, infinities and nan
            st.sampled_from(_bits(np.concatenate([_SPECIAL, -_SPECIAL])).tolist()),
        ),
        min_size=1, max_size=30,
    ))
    @example(bits=_bits(np.concatenate([
        _SWITCHES, np.nextafter(_SWITCHES, 0.0), np.nextafter(_SWITCHES, np.inf), [1e-4, 1e12, 1e15], _SPECIAL,
    ])).tolist())
    def test_bit_patterns_match_repr_and_format(self, bits):
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        self._check(x)
        self._check(-x)

    def test_switch_points(self):
        blocks, _ = _decimal_cells(_SWITCHES, 12)
        assert _text([*blocks, _column(" ", 4)]) == "0.0001 1e+12 1e+16 1e+16 "
        blocks, _ = _decimal_cells(_SWITCHES)
        assert _text([*blocks, _column(" ", 4)]) == "9.99999999999995e-05 999999999999.6 9999999999999998.0 1e+16 "


def _entries_instance(n: int, extra: int) -> Instance:
    """n products, a diagonal and a cyclic superdiagonal, plus ``extra`` more entries in row 0."""
    rng = np.random.default_rng(n + extra)
    D = np.diag(rng.uniform(1.0, 10.0, n))
    D[np.arange(n), (np.arange(n) + 1) % n] = rng.standard_normal(n)
    D[0, 2 : 2 + extra] = rng.standard_normal(extra)
    return Instance(
        n=n, k=1, a=rng.uniform(1, 9, n), D=D, c=rng.uniform(1, 3, n),
        p0=rng.uniform(5, 15, n), delta=np.full(n, 0.5),
    )


class TestWriterMatchesReference:
    """write_instance output equals the per-value repr writer's, byte for byte."""

    def _check(self, tmp_path, inst):
        path = tmp_path / "inst.txt"
        write_instance(inst, str(path))
        _assert_same(path.read_bytes(), _reference_bytes(inst))

    @pytest.mark.parametrize(
        "config",
        [
            GenConfig(n=500, seed=11),
            GenConfig(n=500, seed=12, bounds_mode=(1, 5, 8, 14)),
            GenConfig(n=500, seed=13, diag_range=(0.01, 10.0), offdiag_rel_mag=0.9),
            GenConfig(n=500, seed=14, allow_mixed_signs=True, delta_mode=("fraction", 0.1)),
            GenConfig(n=1, seed=15),
        ],
    )
    def test_generated_instances(self, tmp_path, config):
        self._check(tmp_path, generate(config))

    def test_exponent_notation_and_zero_rows(self, tmp_path):
        # values at or past 1e16, below 1e-4, zeros and subnormals take repr one by one
        p0 = np.array([0.0, 1e17, 2e-5, 123.0, -0.0])
        delta = np.array([1e-300, 1e5, 1e-6, 2.5e-7, 5e-324])
        D = np.diag([1e-5, 2e16, 1.0, -7e-300, 3.5])
        D[0, 3], D[2, 1], D[4, 0] = 0.25, -1e20, 5e-324
        inst = Instance(
            n=5, k=2, a=[0.0, 1e16, 1e-5, -3e20, 9999999999999998.0], D=D,
            c=[-0.0, 5e-324, 1e300, 1.5, 1e-4], p0=p0, delta=delta,
            bounds=(p0 - delta - 1e20, p0 + 2 * delta),
        )
        self._check(tmp_path, inst)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_entry_count_at_chunk_boundary(self, tmp_path, extra):
        inst = _entries_instance(_FORMAT_CHUNK // 2, extra)
        assert inst.D.nnz == _FORMAT_CHUNK + extra
        self._check(tmp_path, inst)


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
    # an Instance rejects a threshold below the float spacing of its p0
    delta = np.maximum(delta, np.spacing(np.abs(p0)))
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

    def test_column_truncated_by_numpy_1x_rejected(self, tmp_path, monkeypatch):
        # NumPy 1.23-1.26 warn (DeprecationWarning) and truncate "1.5" to 1 in
        # an integer column; outside pytest that warning is hidden by default
        real_loadtxt = np.loadtxt

        def loadtxt_1x(lines, dtype, **kwargs):
            fixed = []
            for line in lines:
                toks = line.split()
                if any("." in t for t in toks[:2]):
                    warnings.warn(
                        "loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning
                    )
                    toks[:2] = [str(int(float(t))) for t in toks[:2]]
                fixed.append(" ".join(toks))
            return real_loadtxt(fixed, dtype=dtype, **kwargs)

        monkeypatch.setattr(np, "loadtxt", loadtxt_1x)
        path = self._write(tmp_path, "n 2\nk 1\n" + self._BODY + "D 2\n0 0 1.0\n1 1.5 1.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
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

    def test_negative_entry_count(self, tmp_path):
        path = self._write(tmp_path, "n 1\nk 1\na 1.0\nc 1.0\np0 2.0\ndelta 1.0\nD -1\n")
        with pytest.raises(ParseError, match="negative entry count -1") as info:
            read_instance(path)
        assert info.value.line == 7

    def test_missing_matrix(self, tmp_path):
        path = self._write(tmp_path, "n 1\nk 1\na 1.0\nc 1.0\np0 2.0\ndelta 1.0\n")
        with pytest.raises(ParseError, match="missing required field") as info:
            read_instance(path)
        assert info.value.field == "D"

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

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity", "1e999"])
    def test_non_finite_value_names_its_line(self, tmp_path, token):
        path = tmp_path / "v.txt"
        path.write_text(f"# query\n1 2\n3 {token}\n")
        with pytest.raises(ParseError, match="not a finite number") as info:
            read_vector(str(path), 4)
        assert info.value.line == 3


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
        write_report(reports, str(p1))
        reports2 = self._reports(2)
        write_report(reports2, str(p2))
        assert p1.read_bytes() == p2.read_bytes()


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

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    @pytest.mark.parametrize("write", [
        lambda path: storage.atomic_write_text(path, "data"),
        lambda path: write_instance(two_product_instance(), path),
        lambda path: export_mip_lp(two_product_instance(), path),
    ])
    def test_modes_are_those_open_leaves(self, tmp_path, umask, write):
        # a new file gets 0o666 less the umask, and a file written over keeps its mode
        new, kept = tmp_path / "new.txt", tmp_path / "kept.txt"
        kept.write_text("old")
        kept.chmod(0o640)
        old = os.umask(umask)
        try:
            write(str(new))
            write(str(kept))
        finally:
            os.umask(old)
        assert stat.S_IMODE(new.stat().st_mode) == 0o666 & ~umask
        assert stat.S_IMODE(kept.stat().st_mode) == 0o640

    @pytest.mark.parametrize("target_dir", [".", "elsewhere"])
    def test_symlink_is_written_through(self, tmp_path, monkeypatch, target_dir):
        # as open(path, "w") does: the link stays, the file it names gets the
        # text, and the temporary file sits beside that file
        (tmp_path / target_dir).mkdir(exist_ok=True)
        target = tmp_path / target_dir / "target.txt"
        target.write_text("old")
        target.chmod(0o640)
        link = tmp_path / "link.txt"
        link.symlink_to(os.path.relpath(target, tmp_path))
        temp_dirs = []
        mkstemp = storage.tempfile.mkstemp

        def recorded(**kwargs):
            temp_dirs.append(kwargs["dir"])
            return mkstemp(**kwargs)

        monkeypatch.setattr(storage.tempfile, "mkstemp", recorded)
        storage.atomic_write_text(str(link), "new")
        assert link.is_symlink() and os.readlink(link) == os.path.relpath(target, tmp_path)
        assert target.read_text() == "new"
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
        assert temp_dirs == [os.path.realpath(target.parent)]
        assert not list(tmp_path.rglob(".tmp-*"))


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
    @example(text="D 1\n ")  # a D block of blank lines: loadtxt warned before it raised
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


def _outcome(path, read=read_instance):
    """Everything a reader makes of a file: the instance's bits, or the error with its line and field."""
    try:
        inst = read(str(path))
    except PriceOptError as exc:
        return type(exc).__name__, str(exc), getattr(exc, "line", None), getattr(exc, "field", None)
    arrays = [inst.a, inst.c, inst.p0, inst.delta, inst.D.data, inst.D.indices, inst.D.indptr]
    if inst.bounds is not None:
        arrays += list(inst.bounds)
    return inst.n, inst.k, [(x.dtype.str, x.tobytes()) for x in arrays]


class TestStreamingReader:
    """read_instance reads the file a block at a time; the block size changes nothing."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        text=st.lists(st.sampled_from(["a", "b ", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])).map("".join),
        block=st.integers(1, 5),
    )
    def test_lines_are_the_texts_splitlines(self, tmp_path, text, block):
        path = tmp_path / "lines.txt"
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as fh:
            want = fh.read().splitlines()
        with mock.patch.object(storage, "_LINE_BLOCK", block), open(path, encoding="utf-8") as fh:
            assert list(storage._Lines(fh)) == want

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        text=st.lists(st.sampled_from(["a", "b ", "\n", "\r\n", "\x0b", "\x85"])).map("".join),
        block=st.integers(1, 5),
        steps=st.lists(st.integers(0, 4), max_size=30),
    )
    def test_taken_runs_are_the_next_lines(self, tmp_path, text, block, steps):
        # take(k) hands out up to k lines by "\n"; a run with other line breaks is given back
        path = tmp_path / "lines.txt"
        path.write_text(text, encoding="utf-8", newline="")
        with open(path, encoding="utf-8") as fh:
            want = fh.read().splitlines()
        got = []
        with mock.patch.object(storage, "_LINE_BLOCK", block), open(path, encoding="utf-8") as fh:
            lines = storage._Lines(fh)
            for count in steps:
                if count == 0:
                    got.extend(itertools.islice(lines, 1))
                    continue
                run = lines.take(count)
                if "\x0b" in run or "\x85" in run:
                    lines.give_back(run)
                else:
                    assert len(run.splitlines()) <= count
                    got.extend(run.splitlines())
            got.extend(lines)
        assert got == want

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_instance_texts, block=st.integers(1, 4))
    @example(text="n 1\nk 1\na 1\nc 1\np0 2\ndelta 1\nD 1\n0 0 1_0\nl 0\nu 9\n", block=2)
    def test_small_blocks_read_the_same(self, tmp_path, text, block):
        path = tmp_path / "fuzz.txt"
        path.write_text(text, encoding="utf-8")
        want = _outcome(str(path))
        with mock.patch.object(storage, "_LINE_BLOCK", block), mock.patch.object(numtext, "_RUN", block):
            assert _outcome(str(path)) == want

    def test_generated_instance_with_small_blocks(self, tmp_path):
        inst = generate(GenConfig(n=300, seed=21, bounds_mode=(1, 5, 8, 14)))
        path = tmp_path / "inst.txt"
        write_instance(inst, str(path))
        with mock.patch.object(storage, "_LINE_BLOCK", 7), mock.patch.object(numtext, "_RUN", 7):
            assert read_instance(str(path)).same_data(inst)

    def test_entries_in_any_order(self, tmp_path):
        inst = _entries_instance(40, 5)
        path = tmp_path / "inst.txt"
        write_instance(inst, str(path))
        head, _, block = path.read_text().partition(f"D {inst.D.nnz}\n")
        rows = block.splitlines()
        np.random.default_rng(3).shuffle(rows)
        path.write_text(f"{head}D {inst.D.nnz}\n" + "".join(r + "\n" for r in rows))
        back = read_instance(str(path))
        assert back.same_data(inst)
        assert np.array_equal(_bits(back.D.data), _bits(inst.D.data))

    def test_non_utf8_byte_after_a_parse_error_wins(self, tmp_path):
        # the bad byte lies blocks past the first error, and is still what is reported
        path = tmp_path / "bad.txt"
        path.write_bytes(b"n x\n#" + b"-" * (3 * storage._LINE_BLOCK) + b"\n\xff\n")
        with pytest.raises(ParseError, match="not UTF-8 text: byte 0xff"):
            read_instance(str(path))


_BOM = b"\xef\xbb\xbf"


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is skipped; a U+FEFF anywhere else stays an error."""

    def test_instance_file(self, tmp_path):
        inst = generate(GenConfig(n=300, seed=21, bounds_mode=(1, 5, 8, 14)))
        path = tmp_path / "inst.txt"
        write_instance(inst, str(path))
        path.write_bytes(_BOM + path.read_bytes())
        assert read_instance(str(path)).same_data(inst)
        path.write_bytes(_BOM + path.read_bytes())
        with pytest.raises(ParseError, match=r"unknown field '\\ufeff#'"):
            read_instance(str(path))

    def test_query_file(self, tmp_path):
        x = np.array([1.5, -2.0, 3e-7, 12.25])
        path = tmp_path / "q.txt"
        write_vector(x, str(path))
        path.write_bytes(_BOM + path.read_bytes())
        assert np.array_equal(_bits(read_vector(str(path), x.size)), _bits(x))
        path.write_bytes(_BOM + path.read_bytes())
        with pytest.raises(ParseError, match=r"not a number: '\\ufeff1\.5'"):
            read_vector(str(path))


class TestEntryKernelIndices:
    """The entry kernel reads indices as the writer writes them; other spellings go to the per-line path."""

    def test_plain_digits_are_read(self):
        rows, cols, vals = numtext.read_entries("0 7 1.5\n" + "9" * 18 + " 012 -2.5\n")
        assert rows.tolist() == [0, 10**18 - 1] and cols.tolist() == [7, 12] and vals.tolist() == [1.5, -2.5]

    @pytest.mark.parametrize("index", ["+1", "-1", "1" * 19])
    def test_other_spellings_are_refused(self, index):
        assert numtext.read_entries(f"0 0 1.5\n{index} 2 2.5\n") is None

    def test_value_that_float_refuses_raises_its_error(self):
        with pytest.raises(ValueError, match="could not convert string to float: '1..5'"):
            numtext.read_entries("0 0 1.5\n1 2 1..5\n")

    @pytest.mark.parametrize("spell", ["+{}", "00{}"])
    def test_signed_and_zero_padded_indices_read_the_same(self, tmp_path, spell):
        inst = generate(GenConfig(n=300, seed=21, bounds_mode=(1, 5, 8, 14)))
        path = tmp_path / "inst.txt"
        write_instance(inst, str(path))
        head, _, block = path.read_text().partition(f"D {inst.D.nnz}\n")
        lines = [" ".join((spell.format(r), spell.format(c), v)) for r, c, v in map(str.split, block.splitlines())]
        path.write_text(f"{head}D {inst.D.nnz}\n" + "\n".join(lines) + "\n")
        assert read_instance(str(path)).same_data(inst)


def _instance_text(inst) -> str:
    return _reference_bytes(inst).decode("ascii")


_SMALL = _instance_text(generate(GenConfig(n=6, seed=2, bounds_mode=(1, 5, 8, 14), allow_mixed_signs=True)))


def _with_entry(value: str, index: str = "1") -> str:
    """``_SMALL`` with the entry (1, 1) spelled ``index index value``."""
    head, _, block = _SMALL.partition("\nD ")
    count, _, block = block.partition("\n")
    lines = [ln for ln in block.splitlines() if not ln.startswith("1 1 ")]
    lines.append(f"{index} {index} {value}")
    return f"{head}\nD {int(count)}\n" + "\n".join(lines) + "\n"


def _with_vector_token(token: str) -> str:
    """``_SMALL`` with the first value of ``c`` spelled ``token``."""
    return "\n".join(
        f"c {token} " + ln.split(" ", 2)[2] if ln.startswith("c ") else ln for ln in _SMALL.split("\n")
    )


class TestBulkReaderMatchesReference:
    """read_instance against the line-by-line reader it replaced (end of this module), bit for bit."""

    def _check(self, tmp_path, data):
        path = tmp_path / "inst.txt"
        path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
        got = _outcome(path)
        assert got == _outcome(path, _reference_read_instance)
        return got

    @pytest.mark.parametrize("config", [
        GenConfig(n=3000, seed=5, allow_mixed_signs=True, bounds_mode=(1, 5, 8, 14), delta_mode=("fraction", 0.1)),
        GenConfig(n=9000, seed=6),
    ])
    def test_generated_files(self, tmp_path, config):
        inst = generate(config)
        got = self._check(tmp_path, _instance_text(inst))
        assert got[0] == inst.n
        # the D lines shuffled: the same instance
        head, _, block = _instance_text(inst).partition(f"D {inst.D.nnz}\n")
        rows = block.splitlines()
        np.random.default_rng(1).shuffle(rows)
        assert self._check(tmp_path, f"{head}D {inst.D.nnz}\n" + "\n".join(rows) + "\n") == got

    @pytest.mark.parametrize("edit", [
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t.replace("\n", "\r"),
        lambda t: t.replace(" ", "\t"),
        lambda t: t.replace(" ", "  "),
        lambda t: t.replace("\n", " \n"),
        lambda t: t.replace("\n", "\n ", 12),
        lambda t: t.rstrip("\n"),
        lambda t: t.replace("\n", "\x0b", 20),
        lambda t: t.replace("\n", " ", 20),
    ])
    def test_line_endings_and_spacing(self, tmp_path, edit):
        self._check(tmp_path, edit(_SMALL))

    @pytest.mark.parametrize("token", [
        "+1.5", "1_0.5", "١.٥", "１", "nan", "-inf", "1e23", "-0.0", "0.0", "5.", ".5", "-.5", "-",
        "9007199254740993", "9007199254740993.0", "9007199254740995.0", "12345678901234567890.5",
        "1234567890123456789.0", "0.000000000000000000001", "0.1000000000000000055511151231257827",
        "2.2250738585072011e-308", "4.9406564584124654e-324", "1e-400", "1.7976931348623157e308", "1e400",
        "0.30000000000000004", "4503599627370497.5", "1.5.5", "1-5", "0x10", "1,5", "1.0\x00",
    ])
    def test_token_spellings(self, tmp_path, token):
        self._check(tmp_path, _with_entry(token))
        self._check(tmp_path, _with_vector_token(token))

    @pytest.mark.parametrize("index", ["+1", "01", "1.0", "1.5", "-1", "1e0", "0x1", "١", "9" * 19, "9" * 25, ""])
    def test_index_spellings(self, tmp_path, index):
        self._check(tmp_path, _with_entry("2.5", index))

    @pytest.mark.parametrize("line", ["1 1", "1 1 2.5 7", "1 1 2.5 #", "", "   ", "1 1 0.0", "1 7 2.5", "0 0 2.5"])
    def test_malformed_entry_lines(self, tmp_path, line):
        head, _, block = _SMALL.partition("\nD ")
        count, _, block = block.partition("\n")
        lines = block.splitlines()
        lines[len(lines) // 2] = line
        self._check(tmp_path, f"{head}\nD {count}\n" + "\n".join(lines) + "\n")

    def test_non_utf8_byte_after_the_entries(self, tmp_path):
        got = self._check(tmp_path, _SMALL.encode("ascii") + b"# \xe9\n")
        assert got[0] == "ParseError" and "not UTF-8" in got[1]

    @pytest.mark.parametrize("block", [1, 5, 17, 64, 333])
    def test_tokens_and_lines_across_blocks(self, tmp_path, block):
        # small read blocks and kernel runs cut whole D runs and vector lines at
        # every place, and the entry arrays grow from room for 3
        text = _instance_text(generate(GenConfig(n=200, seed=9, allow_mixed_signs=True)))
        with (
            mock.patch.object(storage, "_LINE_BLOCK", block),
            mock.patch.object(numtext, "_RUN", block),
            mock.patch.object(storage, "_ENTRY_ROOM", 3),
        ):
            self._check(tmp_path, text)
            self._check(tmp_path, text.replace("\n", "\r\n").replace(" ", "  ", 5))

    @staticmethod
    def _entry_lines_edited(line_at: int, line: str | None, cut: int = 0) -> str:
        # a generated file whose D list (its last field) has one line replaced and its last ``cut`` lines dropped
        head, _, block = _instance_text(generate(GenConfig(n=200, seed=9))).partition("\nD ")
        count, _, block = block.partition("\n")
        lines = block.splitlines()
        lines[line_at] = lines[line_at].replace(" ", "\t") if line is None else line
        return f"{head}\nD {count}\n" + "\n".join(lines[: len(lines) - cut]) + "\n"

    def test_refused_run_alone_is_read_line_by_line(self, tmp_path):
        with (
            mock.patch.object(storage, "_LINE_BLOCK", 64),
            mock.patch.object(storage, "_entry_lines", wraps=storage._entry_lines) as per_line,
        ):
            self._check(tmp_path, self._entry_lines_edited(10, None))
        # only the few lines of the 64-character run that holds the tab; the runs after it go back to the kernel
        assert per_line.call_count == 1 and 1 <= per_line.call_args.args[1] <= 4

    @pytest.mark.parametrize("cut", [0, 1, 30])
    def test_file_ending_inside_the_list_is_named_before_a_bad_line(self, tmp_path, cut):
        with mock.patch.object(storage, "_LINE_BLOCK", 64):
            got = self._check(tmp_path, self._entry_lines_edited(3, "1 1", cut))
        assert ("expected 'row col value'" if cut == 0 else "file ends inside the D entry list") in got[1]

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=_instance_texts)
    @example(text="n 1\nk 1\na 1\nc 1\np0 2\ndelta 1\nD 1\n0 0 1_0\nl 0\nu 9\n")
    def test_fuzzed_files(self, tmp_path, text):
        self._check(tmp_path, text)


_decimal_tokens = st.from_regex(r"\A-?[0-9]{0,24}(\.[0-9]{0,24})?\Z").filter(lambda t: any(c.isdigit() for c in t))


class TestBulkNumbers:
    """The bulk number kernel against ``float``, token by token."""

    @staticmethod
    def _floats(text):
        return _bits(storage._parse_floats(text, 1, "a"))

    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_repr_of_any_bit_pattern(self, bits):
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        text = " ".join(repr(v) for v in x.tolist())
        # nan reads back as the canonical nan, as float() makes it
        assert self._floats(text).tolist() == _bits([float(t) for t in text.split()]).tolist()
        finite = np.isfinite(x)
        assert np.array_equal(self._floats(text)[finite], _bits(x)[finite])

    @settings(max_examples=500, deadline=None)
    @given(tokens=st.lists(_decimal_tokens, min_size=1, max_size=40))
    @example(tokens=["9007199254740993", "4503599627370497.5", "0.5", "-0.0", "1" * 19 + ".5", "1" * 20, "0." + "0" * 23 + "1"])
    # just below a power of two, where float(w) rounds up to it: 2^54 - 1, 2^60 - 1, 2^63 - 1
    @example(tokens=["18014398509481983", "1152921504606846.975", "9223372036854775807", "0.9223372036854775807"])
    def test_decimal_strings(self, tokens):
        text = " ".join(tokens)
        assert self._floats(text).tolist() == _bits([float(t) for t in tokens]).tolist()

    def test_halfway_cases_round_to_even(self):
        # a double plus half its spacing, written out exactly: float() rounds to the even neighbour
        import decimal

        rng = np.random.default_rng(7)
        x = rng.integers(2**52, 2**53, 2000) * 2.0 ** rng.integers(-12, 11, 2000)
        tokens = [format(decimal.Decimal(v) + decimal.Decimal(np.spacing(v)) / 2, "f") for v in x.tolist()]
        text = " ".join(tokens)
        assert self._floats(text).tolist() == _bits([float(t) for t in tokens]).tolist()

    def test_rejected_token_names_its_line_and_token(self):
        with pytest.raises(ParseError, match="not a number: '1..5'") as info:
            storage._parse_floats("1.5 2 1..5 x", 3, "a")
        assert (info.value.line, info.value.field) == (3, "a")


class TestReadVectorBulk:
    def test_large_query_file_matches_float(self, tmp_path):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(100_000) * 10.0 ** rng.integers(-8, 20, 100_000)
        path = tmp_path / "q.txt"
        write_vector(x, str(path))
        got = read_vector(str(path), x.size)
        want = [float(t) for t in path.read_text().split()]
        assert np.array_equal(_bits(got), _bits(want))
        assert np.array_equal(_bits(got), _bits(x))

    def test_bad_token_names_its_line(self, tmp_path):
        path = tmp_path / "q.txt"
        path.write_text("# query\n1.5 2.5\n3.5 4..5 5.5\n")
        with pytest.raises(ParseError, match="not a number: '4..5'") as info:
            read_vector(str(path))
        assert (info.value.line, info.value.field) == (3, "vector")


# --------------------------------------------------------------------------
# Reference reader: read_instance as it was before it parsed numbers in bulk
# (np.loadtxt for the D block, float() per vector token), kept here as the
# oracle of TestBulkReaderMatchesReference.


_REF_BLOCK = 1 << 16
_REF_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("val", np.float64)])


def _reference_parse_floats(tokens, line_no, field):
    try:
        return np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
    except ValueError:
        return np.array([storage._parse_float(t, line_no, field) for t in tokens], dtype=np.float64)


def _reference_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        head = []
        for block in iter(lambda: fh.read(_REF_BLOCK), ""):
            cut = block.rfind("\n") + 1
            if cut == 0:
                head.append(block)
                continue
            head.append(block[:cut])
            yield from "".join(head).splitlines()
            head = [block[cut:]]
        yield from "".join(head).splitlines()


def _reference_parse_entries(path, lines, nnz, first_line_no):
    if nnz == 0:
        return np.empty(0, dtype=_REF_ENTRY)
    count = min(nnz, sys.maxsize - first_line_no)
    block = itertools.islice(lines, count)
    first = next(block, "")
    try:
        if first.strip():
            with warnings.catch_warnings():
                warnings.filterwarnings("error", ".*integer via a float", DeprecationWarning)
                entries = np.loadtxt(itertools.chain((first,), block), dtype=_REF_ENTRY, comments=None, ndmin=1)
            if entries.size == nnz:
                return entries
    except (ValueError, OverflowError, DeprecationWarning):
        pass
    for _ in block:
        pass
    start = first_line_no - 1
    rows = list(itertools.islice(_reference_lines(path), start, start + count))
    if len(rows) < nnz:
        raise ParseError("file ends inside the D entry list", line=start + len(rows), field="D")
    entries = np.empty(nnz, dtype=_REF_ENTRY)
    limit = 2**63
    for j, line in enumerate(rows):
        line_no = first_line_no + j
        toks = line.split()
        if len(toks) != 3:
            raise ParseError(f"expected 'row col value', got {line.strip()!r}", line=line_no, field="D")
        r, c = (storage._parse_int(t, line_no, "D") for t in toks[:2])
        if not (-limit <= r < limit and -limit <= c < limit):
            raise ParseError(f"index does not fit in 64 bits: {line.strip()!r}", line=line_no, field="D")
        entries[j] = (r, c, storage._parse_float(toks[2], line_no, "D"))
    return entries


def _reference_check_entries(entries, n, first_line_no):
    rows, cols, vals = entries["row"], entries["col"], entries["val"]
    outside = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)
    zero = vals == 0.0
    keys = rows * n + cols
    order = None
    repeat = np.zeros(keys.size, dtype=bool)
    if not np.all(keys[1:] > keys[:-1]):
        order = np.argsort(keys, kind="stable")
        repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    bad = np.flatnonzero(outside | zero | repeat)
    if bad.size == 0:
        return entries if order is None else entries[order]
    e = int(bad[0])
    at, line_no = f"({rows[e]}, {cols[e]})", first_line_no + e
    if outside[e]:
        raise ParseError(f"entry {at} outside 0..{n - 1}", line=line_no, field="D")
    if zero[e]:
        raise ParseError(f"explicit zero stored at {at}", line=line_no, field="D")
    raise ParseError(f"duplicate entry at {at}", line=line_no, field="D")


def _reference_parse_fields(path, lines):
    fields = {}
    d_line = 0
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
            fields[name] = storage._parse_int(rest, line_no, name)
        elif name in ("a", "c", "p0", "delta", "l", "u"):
            fields[name] = _reference_parse_floats(rest.split(), line_no, name)
        elif name == "D":
            nnz = storage._parse_int(rest, line_no, "D")
            if nnz < 0:
                raise ParseError(f"negative entry count {nnz}", line=line_no, field="D")
            d_line = line_no + 1
            fields["D"] = _reference_parse_entries(path, lines, nnz, d_line)
            line_no += nnz
        else:
            raise ParseError(f"unknown field {name!r}", line=line_no, field=name)
    return fields, d_line


def _reference_read_instance(path):
    lines = _reference_lines(path)
    try:
        fields, d_line = _reference_parse_fields(path, lines)
    except UnicodeDecodeError as exc:
        raise storage._utf8_error(exc) from None
    except ParseError:
        try:
            for _ in lines:
                pass
        except UnicodeDecodeError as exc:
            raise storage._utf8_error(exc) from None
        raise
    finally:
        lines.close()
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
    entries = _reference_check_entries(fields.pop("D"), n, d_line)
    indptr = np.searchsorted(entries["row"], np.arange(n + 1))
    D = sparse.csr_array((entries["val"], entries["col"], indptr), shape=(n, n), copy=True)
    bounds = (fields["l"], fields["u"]) if "l" in fields else None
    return Instance(
        n=n, k=fields["k"], a=fields["a"], D=D, c=fields["c"], p0=fields["p0"], delta=fields["delta"], bounds=bounds,
    )
