"""Instance and report serialization.

Instance files are a single UTF-8 text document with named fields::

    # priceopt instance v1
    n 3
    k 1
    a 5.0 0.25 1.5
    c 1.0 1.0 1.0
    p0 0.0 0.0 0.0
    delta 0.5 0.5 0.5
    l ...            (optional; l and u appear together or not at all)
    u ...
    D 4
    0 0 1.0
    0 2 -0.125
    1 1 1.0
    2 2 2.0

Matrix entries are 0-based ``row col value`` triples, one per line, with the
count on the ``D`` header line; duplicates and explicit zeros are rejected.
``n``, ``k``, the ``D`` count and every row and column index must be integer
literals (optional sign, ASCII digits; indices must fit in 64 bits): ``2.7``
or ``1e3`` there is a ParseError, never a truncation.  Each field appears at
most once.  Real numbers are anything Python's ``float`` accepts; they are
written as shortest round-trip decimals (at most 17 significant digits), so
write/read is lossless.  Lines starting with ``#`` are comments, except
inside the entry list, which is exactly the count's lines after ``D``.

The writer streams the entries straight from the canonical CSR arrays of
``Instance.D`` (row-major, sorted columns).  The reader parses each vector
and the whole entry list in one bulk call each, and checks ranges, zeros and
duplicates with array operations; when a bulk parse fails it parses again
one token or line at a time to name the offending line.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import re
import tempfile
from typing import Sequence

import numpy as np
from scipy import sparse

from .errors import ContractError, NumericError, ParseError
from .instance import Instance
from .solver import SolveReport

__all__ = [
    "read_instance",
    "write_instance",
    "write_report",
    "adjusted_gap",
    "read_vector",
    "write_vector",
    "atomic_write_text",
    "format_float",
]

_MAGIC = "# priceopt instance v1"

REPORT_COLUMNS = [
    "instance_id",
    "n",
    "k",
    "delta_mode",
    "bounds_mode",
    "start_id",
    "final_profit",
    "improvement_pct_vs_base",
    "iterations",
    "wall_time_s",
    "stationary",
    "bound_ii",
]


_VECTORS = ("a", "c", "p0", "delta", "l", "u")
_INTEGER = re.compile(r"[+-]?[0-9]+")
_INDEX_LIMIT = 2**63  # row and column indices must fit in int64
_ENTRY = np.dtype([("row", np.int64), ("col", np.int64), ("val", np.float64)])
_WRITE_CHUNK = 65_536  # matrix entries formatted per write


def format_float(x: float) -> str:
    """Shortest round-trip decimal of ``x``: the number format of every file written here."""
    return repr(float(x))


@contextlib.contextmanager
def _atomic_open(path: str):
    """A text handle whose content replaces ``path`` only if the block completes."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-priceopt-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write a file all-or-nothing: no partial output remains on failure."""
    with _atomic_open(path) as fh:
        fh.write(text)


def _float_line(values: np.ndarray) -> str:
    return " ".join(map(repr, np.asarray(values, dtype=np.float64).tolist()))


def write_instance(instance: Instance, path: str) -> None:
    """Serialize an instance to the text format above (atomic)."""
    D = instance.D  # canonical CSR: entries in (row, col) order
    header = [_MAGIC, f"n {instance.n}", f"k {instance.k}"]
    for name in ("a", "c", "p0", "delta"):
        header.append(f"{name} {_float_line(getattr(instance, name))}")
    if instance.bounds is not None:
        header.append(f"l {_float_line(instance.lower)}")
        header.append(f"u {_float_line(instance.upper)}")
    header.append(f"D {D.nnz}")
    rows = np.repeat(np.arange(instance.n), np.diff(D.indptr))
    with _atomic_open(path) as fh:
        fh.write("\n".join(header) + "\n")
        for lo in range(0, D.nnz, _WRITE_CHUNK):
            hi = min(D.nnz, lo + _WRITE_CHUNK)
            fields: list = [None] * (3 * (hi - lo))
            fields[0::3] = rows[lo:hi].tolist()
            fields[1::3] = D.indices[lo:hi].tolist()
            fields[2::3] = D.data[lo:hi].tolist()
            fh.write(("%d %d %r\n" * (hi - lo)) % tuple(fields))


def _parse_float(token: str, line_no: int | None, field: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ParseError(f"not a number: {token!r}", line=line_no, field=field) from None


def _parse_int(token: str, line_no: int | None, field: str) -> int:
    token = token.strip()
    if not _INTEGER.fullmatch(token):
        raise ParseError(f"not an integer: {token!r}", line=line_no, field=field)
    return int(token)


def _parse_floats(tokens: list[str], line_no: int | None, field: str) -> np.ndarray:
    """Whitespace-split tokens as a float vector; NumPy's string cast follows ``float``."""
    try:
        return np.array(tokens, dtype=np.float64)
    except ValueError:
        return np.array([_parse_float(t, line_no, field) for t in tokens], dtype=np.float64)


def _parse_entries(lines: list[str], first_line_no: int) -> np.ndarray:
    """The ``row col value`` lines of the D block as an array of ``_ENTRY`` records."""
    if not lines:
        return np.empty(0, dtype=_ENTRY)
    try:
        entries = np.loadtxt(lines, dtype=_ENTRY, comments=None, ndmin=1)
        if entries.size == len(lines):  # loadtxt skips blank lines; they are errors here
            return entries
    except (ValueError, OverflowError):
        pass
    # loadtxt refused the block: one line at a time, to name the offending one
    entries = np.empty(len(lines), dtype=_ENTRY)
    for j, line in enumerate(lines):
        line_no = first_line_no + j
        toks = line.split()
        if len(toks) != 3:
            raise ParseError(f"expected 'row col value', got {line.strip()!r}", line=line_no, field="D")
        r, c = (_parse_int(t, line_no, "D") for t in toks[:2])
        if not (-_INDEX_LIMIT <= r < _INDEX_LIMIT and -_INDEX_LIMIT <= c < _INDEX_LIMIT):
            raise ParseError(f"index does not fit in 64 bits: {line.strip()!r}", line=line_no, field="D")
        entries[j] = (r, c, _parse_float(toks[2], line_no, "D"))
    return entries


def _check_entries(entries: np.ndarray, n: int, first_line_no: int) -> None:
    """Reject the first entry that is out of range, zero, or a repeat of an earlier one."""
    rows, cols, vals = entries["row"], entries["col"], entries["val"]
    outside = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)
    zero = vals == 0.0
    keys = rows * n + cols
    order = np.argsort(keys, kind="stable")
    repeat = np.zeros(keys.size, dtype=bool)
    repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    bad = np.flatnonzero(outside | zero | repeat)
    if bad.size == 0:
        return
    e = int(bad[0])
    at, line_no = f"({rows[e]}, {cols[e]})", first_line_no + e
    if outside[e]:
        raise ParseError(f"entry {at} outside 0..{n - 1}", line=line_no, field="D")
    if zero[e]:
        raise ParseError(f"explicit zero stored at {at}", line=line_no, field="D")
    raise ParseError(f"duplicate entry at {at}", line=line_no, field="D")


def _not_utf8(exc: UnicodeDecodeError) -> ParseError:
    """The ParseError for a file that does not decode as UTF-8."""
    return ParseError(f"file is not UTF-8 text: byte 0x{exc.object[exc.start]:02x} {exc.reason}")


def read_instance(path: str) -> Instance:
    """Parse an instance file; raises ParseError with line/field context."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc) from None

    fields: dict = {}
    d_line = 0  # line number of the first D entry

    i = 0
    total = len(raw)
    while i < total:
        line_no = i + 1
        line = raw[i].strip()
        i += 1
        if not line or line.startswith("#"):
            continue
        name, _, rest = line.partition(" ")
        if name in fields:
            raise ParseError("field appears twice", line=line_no, field=name)
        if name in ("n", "k"):
            fields[name] = _parse_int(rest, line_no, name)
        elif name in _VECTORS:
            fields[name] = _parse_floats(rest.split(), line_no, name)
        elif name == "D":
            nnz = _parse_int(rest, line_no, "D")
            if nnz < 0:
                raise ParseError(f"negative entry count {nnz}", line=line_no, field="D")
            if i + nnz > total:
                raise ParseError("file ends inside the D entry list", line=total, field="D")
            d_line = i + 1
            fields["D"] = _parse_entries(raw[i : i + nnz], d_line)
            i += nnz
        else:
            raise ParseError(f"unknown field {name!r}", line=line_no, field=name)
    del raw

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

    entries = fields["D"]
    _check_entries(entries, n, d_line)
    D = sparse.csr_array(
        sparse.coo_array((entries["val"], (entries["row"], entries["col"])), shape=(n, n))
    )

    bounds = (fields["l"], fields["u"]) if "l" in fields else None
    return Instance(
        n=n,
        k=fields["k"],
        a=fields["a"],
        D=D,
        c=fields["c"],
        p0=fields["p0"],
        delta=fields["delta"],
        bounds=bounds,
    )


def read_vector(path: str, n: int | None = None) -> np.ndarray:
    """Whitespace-separated floats (comments allowed); optional length check."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parts = [
                _parse_floats(line.split(), line_no, "vector")
                for line_no, line in enumerate(fh, start=1)
                if not line.lstrip().startswith("#")
            ]
    except UnicodeDecodeError as exc:
        raise _not_utf8(exc) from None
    vec = np.concatenate(parts) if parts else np.empty(0)
    if n is not None and vec.size != n:
        raise ParseError(f"expected {n} values, got {vec.size}", field="vector")
    return vec


def write_vector(vec: np.ndarray, path: str) -> None:
    atomic_write_text(path, _float_line(vec) + "\n")


def _report_row(r: SolveReport, include_wall_time: bool) -> list[str]:
    return [
        r.instance_id,
        str(r.n),
        str(r.k),
        r.delta_mode,
        r.bounds_mode,
        "" if r.start_id is None else str(r.start_id),
        format_float(r.final_profit),
        format_float(r.improvement_pct),
        str(r.iterations),
        format_float(r.wall_time) if include_wall_time else "",
        "1" if r.stationary else "0",
        "" if r.bound_ii is None else format_float(r.bound_ii),
    ]


def write_report(
    reports: Sequence[SolveReport],
    path: str,
    format: str = "csv",
    include_wall_time: bool = True,
) -> None:
    """Write solver reports as CSV rows or a readable line format.

    ``include_wall_time=False`` blanks the timing column so identical runs
    produce byte-identical files.
    """
    if format not in ("csv", "lines"):
        raise ContractError(f"format must be 'csv' or 'lines', got {format!r}")
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(REPORT_COLUMNS)
        for r in reports:
            writer.writerow(_report_row(r, include_wall_time))
        atomic_write_text(path, buf.getvalue())
    else:
        chunks = []
        for r in reports:
            row = _report_row(r, include_wall_time)
            chunks.append("\n".join(f"{k}: {v}" for k, v in zip(REPORT_COLUMNS, row)) + "\n")
        atomic_write_text(path, "\n".join(chunks))


def adjusted_gap(z_base: float, z_gurobi: float, z_gpa: float) -> float:
    """Percentage gap 100 (z_gpa - z_gurobi) / |z_base| between two solutions.

    Positive means the candidate beat the reference solver; antisymmetric in
    the last two arguments.  Undefined at z_base = 0; a gap that overflows
    (say 1e308 against -1e308) is a NumericError.
    """
    if z_base == 0.0:
        raise ContractError("adjusted gap is undefined when the baseline profit is zero")
    gap = 100.0 * (z_gpa - z_gurobi) / abs(z_base)
    if not math.isfinite(gap):
        raise NumericError(f"adjusted gap is not finite ({gap})")
    return gap
