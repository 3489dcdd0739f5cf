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
``Instance.D`` (row-major, sorted columns), in blocks of at most
``numtext.FORMAT_CHUNK`` values; ``numtext`` makes each number's text,
exactly ``repr``'s, for a whole block at once.

The reader is the writer's inverse.  It reads the file ``_LINE_BLOCK``
characters at a time, so neither the whole text nor a list of all its lines
is ever held, and hands ``numtext`` the whole entry lines of a block, or a
vector line, to parse in bulk.  An entry run that ``numtext`` refuses (a
byte outside ASCII, a tab or other control character, two separators in a
row, a line of other than three tokens, an index with a sign or more than
18 digits, or a value that ``float`` refuses) is read one line at a time;
an error names the offending line and token.  Ranges, zeros and duplicates
are checked with array operations; entries in the writer's (row, col) order
are D's CSR arrays as they stand, others are sorted.  A leading UTF-8
byte-order mark is skipped, as ``read_vector`` and ``parse_lp`` skip it.  A
byte that is not UTF-8 is reported first, wherever it lies in the file.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
import re
import stat
import sys
from typing import TYPE_CHECKING, Sequence

import numpy as np
from scipy import sparse

from . import numtext
from .errors import ContractError, NumericError, ParseError
from .instance import Instance

if TYPE_CHECKING:
    from .solver import SolveReport

__all__ = [
    "read_instance",
    "write_instance",
    "write_report",
    "adjusted_gap",
    "read_vector",
    "read_text",
    "write_vector",
    "atomic_open",
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
_LINE_BLOCK = 1 << 18  # characters the instance reader reads, and hands its number kernel, at a time
_ENTRY_ROOM = 1 << 20  # D entries the reader makes room for before it has read them


def format_float(x: float) -> str:
    """Shortest round-trip decimal of ``x``: the number format of every file written here."""
    return repr(float(x))


def _create_beside(path: str, mode: int) -> tuple[int, str]:
    """A new temporary file beside ``path``, open for writing, made with
    ``mode`` less the umask: the OS takes the umask off, as ``open(path, "w")``
    does, since reading it would mean setting it, racing other threads."""
    while True:
        tmp = os.path.join(os.path.dirname(path), f".tmp-priceopt-{os.urandom(6).hex()}")
        with contextlib.suppress(FileExistsError):
            return os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, mode), tmp


@contextlib.contextmanager
def atomic_open(path: str):
    """A text handle whose content replaces ``path`` only if the block completes.

    A file written over keeps its mode.  A symlink is written through, as
    ``open(path, "w")`` writes it: the file it names is replaced, from a
    temporary file beside that file.  An error in making or placing the file
    names ``path``, not the temporary file.
    """
    path = os.path.realpath(path)
    try:  # no more open than path will be: 0o666 less the umask if new, else its mode
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    try:
        fd, tmp = _create_beside(path, 0o666 if mode is None else mode)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            if mode is not None:
                os.fchmod(fd, mode)  # give back what the umask took
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    """Write a file all-or-nothing: no partial output remains on failure."""
    with atomic_open(path) as fh:
        fh.write(text)


def write_instance(instance: Instance, path: str) -> None:
    """Serialize an instance to the text format above (atomic)."""
    D = instance.D  # canonical CSR: entries in (row, col) order
    vectors = [(name, getattr(instance, name)) for name in ("a", "c", "p0", "delta")]
    if instance.bounds is not None:
        vectors += [("l", instance.lower), ("u", instance.upper)]
    rows = np.repeat(np.arange(instance.n), np.diff(D.indptr))
    with atomic_open(path) as fh:
        fh.write(f"{_MAGIC}\nn {instance.n}\nk {instance.k}\n")
        for name, values in vectors:  # joined, the lines would be copied twice (7 MB at n = 100,000)
            fh.write(f"{name} ")
            fh.write(numtext.format_floats(values))
            fh.write("\n")
        fh.write(f"D {D.nnz}\n")
        for lo in range(0, D.nnz, numtext.FORMAT_CHUNK):
            hi = min(D.nnz, lo + numtext.FORMAT_CHUNK)
            space = numtext.column(" ", hi - lo)
            fh.write(numtext.text([
                numtext.index_cells(rows[lo:hi]), space,
                numtext.index_cells(D.indices[lo:hi]), space,
                *numtext.decimal_cells(D.data[lo:hi])[0], numtext.column("\n", hi - lo),
            ]))


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


def _parse_floats(text: str, line_no: int | None, field: str) -> np.ndarray:
    """``[float(t) for t in text.split()]`` for one line; ParseError names the first token ``float`` refuses."""
    try:
        return numtext.read_floats(text)
    except ValueError:
        return np.array([_parse_float(t, line_no, field) for t in text.split()], dtype=np.float64)


class _Lines:
    """The lines of a text file as ``splitlines`` gives them, read ``_LINE_BLOCK`` characters at a time.

    A block that does not end in "\n" is finished with ``readline``, so no
    line is cut in two and neither the whole text nor a list of all its lines
    is held.  ``take`` hands out the next lines as one text instead, for the
    entry kernel, and ``give_back`` returns such a text unread.  Raises
    UnicodeDecodeError where the file stops being UTF-8.
    """

    def __init__(self, fh):
        self._fh = fh
        self._lines: list[str] = []  # split off and not handed out yet, the next one last
        self._text = ""  # whole lines read and not split yet

    def _read(self) -> str:
        """The next whole lines of the file: a block and the rest of its last line; "" at the end."""
        block = self._fh.read(_LINE_BLOCK)
        return block if block.endswith("\n") else block + self._fh.readline()

    def __iter__(self) -> _Lines:
        return self

    def __next__(self) -> str:
        if not self._lines:
            text, self._text = self._text or self._read(), ""
            if not text:
                raise StopIteration
            self._lines = text.splitlines()[::-1]
        return self._lines.pop()

    def take(self, count: int) -> str:
        """The next lines, at most ``count`` of them and about a block, as one text; "" at the end.

        Each line ends in "\n", except perhaps the file's last.  Counts "\n"
        only: a text with other line breaks must be given back.
        """
        if self._lines:
            lines = self._lines[: -count - 1 : -1]
            del self._lines[-count:]
            return "\n".join(lines) + "\n"
        text, self._text = self._text or self._read(), ""
        if text.count("\n") + (not text.endswith("\n")) > count:  # the file's last line may have no "\n"
            self._text = text.split("\n", count)[count]
            return text[: len(text) - len(self._text)]
        return text

    def give_back(self, text: str) -> None:
        """Put back a text that ``take`` returned last; its lines come next."""
        self._lines += text.splitlines()[::-1]


def _parse_entries(lines: _Lines, nnz: int, first_line_no: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The rows, columns and values of the D block's ``row col value`` lines.

    ``lines`` is left just after the block.  Runs of lines go to the entry
    kernel, and a run it refuses is read one line at a time, to name the
    offending line.  Each run is copied into the three arrays as it is read,
    so that no run's arrays outlive it.
    """
    # room for the count the file states, up to _ENTRY_ROOM until the lines are there
    columns = [np.empty(min(nnz, _ENTRY_ROOM), dtype=dtype) for dtype in (np.int64, np.int64, np.float64)]
    done = 0
    while done < nnz:
        text = lines.take(nnz - done)
        if not text:
            raise ParseError("file ends inside the D entry list", line=first_line_no - 1 + done, field="D")
        try:
            block = numtext.read_entries(text)
        except ValueError:  # a value that float refuses: the per-line path names its line
            block = None
        if block is None:
            lines.give_back(text)
            block = _entry_lines(lines, min(len(text.splitlines()), nnz - done), first_line_no + done, nnz - done)
        end = done + block[0].size
        if end > columns[0].size:
            columns = [np.concatenate((c[:done], np.empty(min(nnz, 2 * end) - done, dtype=c.dtype))) for c in columns]
        for column, part in zip(columns, block):
            column[done:end] = part
        done = end
    return tuple(columns)


def _entry_lines(lines: _Lines, count: int, first_line_no: int, left: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The next ``count`` entry lines, read one at a time.

    ParseError names the first bad one, unless the file ends before the
    ``left`` lines of the list that start here: then it names the end.
    """
    texts = list(itertools.islice(lines, count))
    rows, cols, vals = [], [], []
    try:
        for line_no, line in enumerate(texts, start=first_line_no):
            toks = line.split()
            if len(toks) != 3:
                raise ParseError(f"expected 'row col value', got {line.strip()!r}", line=line_no, field="D")
            r, c = (_parse_int(t, line_no, "D") for t in toks[:2])
            if not (-_INDEX_LIMIT <= r < _INDEX_LIMIT and -_INDEX_LIMIT <= c < _INDEX_LIMIT):
                raise ParseError(f"index does not fit in 64 bits: {line.strip()!r}", line=line_no, field="D")
            rows.append(r)
            cols.append(c)
            vals.append(_parse_float(toks[2], line_no, "D"))
    except ParseError:
        read = count + sum(1 for _ in itertools.islice(lines, min(left - count, sys.maxsize)))
        if read < left:
            raise ParseError("file ends inside the D entry list", line=first_line_no - 1 + read, field="D") from None
        raise
    return np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64), np.array(vals, dtype=np.float64)


def _utf8_error(exc: UnicodeDecodeError) -> ParseError:
    return ParseError(f"file is not UTF-8 text: byte 0x{exc.object[exc.start]:02x} {exc.reason}")


def _check_entries(rows, cols, vals, n: int, first_line_no: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reject the first entry that is out of range, zero, or a repeat of an earlier one.

    Returns the entries in (row, col) order: as they are when already in it
    (the writer's order), else sorted.
    """
    outside = (rows < 0) | (rows >= n) | (cols < 0) | (cols >= n)
    zero = vals == 0.0
    keys = rows * n + cols
    order = None
    repeat = np.zeros(keys.size, dtype=bool)
    if not np.all(keys[1:] > keys[:-1]):  # increasing keys repeat none
        order = np.argsort(keys, kind="stable")
        repeat[order[1:]] = keys[order[1:]] == keys[order[:-1]]
    bad = np.flatnonzero(outside | zero | repeat)
    if bad.size == 0:
        return (rows, cols, vals) if order is None else (rows[order], cols[order], vals[order])
    e = int(bad[0])
    at, line_no = f"({rows[e]}, {cols[e]})", first_line_no + e
    if outside[e]:
        raise ParseError(f"entry {at} outside 0..{n - 1}", line=line_no, field="D")
    if zero[e]:
        raise ParseError(f"explicit zero stored at {at}", line=line_no, field="D")
    raise ParseError(f"duplicate entry at {at}", line=line_no, field="D")


def read_text(path: str) -> str:
    """The whole file as text (universal newlines, no leading byte-order mark); ParseError unless it is UTF-8."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise _utf8_error(exc) from None


def _parse_fields(lines: _Lines) -> tuple[dict, dict]:
    """The fields of an instance file, and the line number of each one's name."""
    fields: dict = {}
    where: dict = {}

    line_no = 0
    for line in lines:
        line_no += 1
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, rest = line.partition(" ")
        if name in fields:
            raise ParseError("field appears twice", line=line_no, field=name)
        where[name] = line_no
        if name in ("n", "k"):
            fields[name] = _parse_int(rest, line_no, name)
            if name == "n" and fields["n"] < 1:
                raise ParseError(f"n must be positive, got {fields['n']}", line=line_no, field="n")
        elif name in _VECTORS:
            fields[name] = _parse_floats(rest, line_no, name)
        elif name == "D":
            nnz = _parse_int(rest, line_no, "D")
            if nnz < 0:
                raise ParseError(f"negative entry count {nnz}", line=line_no, field="D")
            fields["D"] = _parse_entries(lines, nnz, line_no + 1)
            line_no += nnz
        else:
            raise ParseError(f"unknown field {name!r}", line=line_no, field=name)
    return fields, where


def read_instance(path: str) -> Instance:
    """Parse an instance file; raises ParseError with line/field context."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            fields, where = _parse_fields(_Lines(fh))
        except UnicodeDecodeError as exc:
            raise _utf8_error(exc) from None
        except ParseError:
            # a file that is not UTF-8 reports that first, wherever the bad byte is
            try:
                while fh.read(_LINE_BLOCK):
                    pass
            except UnicodeDecodeError as exc:
                raise _utf8_error(exc) from None
            raise

    for name in ("n", "k"):
        if name not in fields:
            raise ParseError("missing required field", field=name)
    n, k = fields["n"], fields["k"]
    if not 1 <= k <= n:
        raise ParseError(f"k must satisfy 1 <= k <= n={n}, got {k}", line=where["k"], field="k")
    for name in ("a", "c", "p0", "delta"):
        if name not in fields:
            raise ParseError("missing required field", field=name)
        if fields[name].shape != (n,):
            raise ParseError(f"expected {n} values, got {fields[name].size}", field=name)
    if ("l" in fields) != ("u" in fields):
        raise ParseError("bounds require both fields", field="l" if "u" in fields else "u")
    if "D" not in fields:
        raise ParseError("missing required field", field="D")

    # in (row, col) order the entries are D's CSR arrays
    rows, cols, vals = _check_entries(*fields.pop("D"), n, where["D"] + 1)
    indptr = np.searchsorted(rows, np.arange(n + 1))
    del rows
    D = sparse.csr_array((vals, cols, indptr), shape=(n, n))
    del cols, vals  # before Instance copies D

    bounds = (fields["l"], fields["u"]) if "l" in fields else None
    return Instance(
        n=n,
        k=k,
        a=fields["a"],
        D=D,
        c=fields["c"],
        p0=fields["p0"],
        delta=fields["delta"],
        bounds=bounds,
    )


def read_vector(path: str, n: int | None = None) -> np.ndarray:
    """Whitespace-separated finite floats (comments allowed); optional length check."""
    parts = []
    # lines end at "\n" only, as file iteration splits them (not splitlines)
    for line_no, line in enumerate(read_text(path).split("\n"), start=1):
        if line.lstrip().startswith("#"):
            continue
        values = _parse_floats(line, line_no, "vector")
        if not np.all(np.isfinite(values)):
            bad = line.split()[int(np.flatnonzero(~np.isfinite(values))[0])]
            raise ParseError(f"not a finite number: {bad!r}", line=line_no, field="vector")
        parts.append(values)
    vec = np.concatenate(parts) if parts else np.empty(0)
    if n is not None and vec.size != n:
        raise ParseError(f"expected {n} values, got {vec.size}", field="vector")
    return vec


def write_vector(vec: np.ndarray, path: str) -> None:
    atomic_write_text(path, numtext.format_floats(vec) + "\n")


def _report_row(r: SolveReport) -> list[str]:
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
        "",  # wall_time_s
        "1" if r.stationary else "0",
        "" if r.bound_ii is None else format_float(r.bound_ii),
    ]


def write_report(reports: Sequence[SolveReport], path: str) -> None:
    """Write solver reports as CSV rows, one per report.

    The ``wall_time_s`` column is always blank, so identical runs produce
    byte-identical files.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for r in reports:
        writer.writerow(_report_row(r))
    atomic_write_text(path, buf.getvalue())


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
