"""File formats: exact CSV rows, dense matrices, JSON objects and monotone missing data.

Samples and matrices are CSV lines of ``%.17g`` fields, which round-trip
every double, written by one path, :func:`_write_csv`.  A malformed file
raises :class:`FormatError`; a missing-data row that is not monotone, its
subclass :class:`PatternError`.  The module imports nothing from the
package, so any module can use it.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO

import numpy as np
from numpy.typing import NDArray


class FormatError(ValueError):
    """A file that cannot be read, or whose content does not have its format."""


class PatternError(FormatError):
    """A missing-data row whose observed set is not a prefix, a suffix or the whole chain."""


#: Values formatted per write by :func:`_write_csv_rows`; bounds its memory.
CSV_BLOCK_VALUES = 1 << 14

# The writer's row for one value, 44 bytes, which one boolean mask cuts to the
# value's text: bytes 0-7 hold the separator, the sign and, for k < 0, "0." and
# the leading zeros, right-aligned before d0 at byte 7; bytes 8-23 hold
# d1..d16.  Bytes 28-43 hold d1..d16 again, with "." written at 27 + k, over
# d_k: the integer part is read from the first copy, the dot and the fraction
# from the second, so most values' text is one run of the row.
_CSV_ROW = 44
_CSV_CLASSES = 22  # k + 4 for the exponents k = -4..15, then zero, then fallback
_CSV_ZERO, _CSV_FALLBACK = 20, 21


@functools.cache
def _csv_tables() -> tuple[NDArray, ...]:
    """The writer's lookup tables, built with numpy on first use.

    ``quads[g]`` is the four ASCII digits of ``g < 10^4`` in one ``uint32``, in
    memory order, and ``trailing[g]`` their trailing zeros.  ``prefix`` holds
    bytes 0-7 of the row as two ``uint32`` per (separator, sign, class, d0),
    and ``masks`` the bytes kept per (sign, class, significant digits), then
    per fallback text length.  ``p``, ``p_hi``, ``p_lo``: ``10^s`` for
    ``s <= 21``, all exact doubles, and their Veltkamp halves.
    """
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T  # the digits of 0..9999, in order
    quads = np.frombuffer((digits + ord("0")).tobytes(), np.uint32)
    trailing = np.logical_and.accumulate(digits[:, ::-1] == 0, axis=1).sum(axis=1)

    # bytes 0-7 per (separator, sign, class, d0); a fallback row keeps only its separator, at byte 0
    sep, neg, cls, d0 = (i.reshape(-1, 1) for i in np.indices((2, 2, _CSV_CLASSES, 10)).reshape(4, -1))
    pos = np.arange(8)
    zeros = np.where(cls < 4, 3 - cls, 0)  # -k - 1 for k < 0
    head = np.where(cls < 4, 2 + zeros, 0)  # "0." and the zeros
    sign = (neg == 1) & (cls != _CSV_FALLBACK)
    start = np.where(cls == _CSV_FALLBACK, 0, 6 - head - sign)
    text = np.where(pos == start, np.where(sep == 1, ord("\n"), ord(",")), 0)
    text = np.where(sign & (pos == start + 1), ord("-"), text)
    text = np.where((head > 0) & (pos == 7 - head), ord("0"), text)
    text = np.where((head > 0) & (pos == 8 - head), ord("."), text)
    text = np.where((pos >= 7 - zeros) & (pos < 7), ord("0"), text)
    text = np.where((pos == 7) & (cls < _CSV_FALLBACK), ord("0") + np.where(cls == _CSV_ZERO, 0, d0), text)
    prefix = np.frombuffer(text.astype(np.uint8).tobytes(), np.uint32).reshape(-1, 2)

    # the bytes kept per (sign, class, significant digits t), then per fallback text length
    neg, cls, t = (i.reshape(-1, 1) for i in np.indices((2, _CSV_CLASSES, 17)).reshape(3, -1))
    t += 1
    k = cls - 4
    pos = np.arange(_CSV_ROW)
    keep = (pos >= 6 - np.where(k < 0, 1 - k, 0) - neg) & (pos <= 7)
    keep |= (k < 0) & (pos >= 8) & (pos < 7 + t)
    fixed = (k >= 0) & (cls < _CSV_ZERO)
    keep |= fixed & (pos >= 8) & (pos < 8 + k)
    keep |= fixed & (t - 1 > k) & (pos >= 27 + k) & (pos < 27 + t)
    masks = np.concatenate([keep, pos <= np.arange(25)[:, None]])

    p = np.array([float(10**s) for s in range(22)])
    c = 134217729.0 * p  # 2^27 + 1
    p_hi = c - (c - p)
    return quads, trailing, prefix, masks, p, p_hi, p - p_hi


def _digits17(x: NDArray, k: NDArray, p: NDArray, p_hi: NDArray, p_lo: NDArray) -> NDArray:
    """``x * 10^(16 - k)`` rounded half-even to an integer, exactly (Dekker's TwoProduct)."""
    s = 16 - k
    hi = x * np.take(p, s)
    c = 134217729.0 * x
    xh = c - (c - x)
    xl = x - xh
    ph, pl = np.take(p_hi, s), np.take(p_lo, s)
    lo = xh * ph - hi
    lo += xh * pl
    lo += xl * ph
    lo += xl * pl
    # hi >= 1e16 > 2^53 is an even integer, so rounding lo rounds hi + lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _csv_block(v: NDArray[np.float64], buf: NDArray[np.uint32], sep: NDArray[np.intp]) -> str:
    """The text of whole rows, ``v`` their values in order, formatted in the rows of ``buf``.

    ``sep`` selects each value's separator: "\\n" before a row's first value,
    else ",".  The text drops the block's leading "\\n" and ends with one.
    """
    quads, trailing, prefix, masks, p, p_hi, p_lo = _csv_tables()
    m = v.size
    row = buf[:m]
    row_bytes = row.view(np.uint8)
    mag = np.abs(v)
    fast = (mag >= 1e-4) & (mag < 1e16)
    x = np.where(fast, mag, 1.0)  # no log10 of 0, inf or NaN
    k = np.floor(np.log10(x)).astype(np.intp)
    n = _digits17(x, k, p, p_hi, p_lo)
    redo = np.flatnonzero((n < 10**16) | (n >= 10**17))
    while redo.size:  # k was one off, or N rounded up to 10^17
        k[redo] += np.where(n[redo] < 10**16, -1, 1)
        n[redo] = _digits17(x[redo], k[redo], p, p_hi, p_lo)
        redo = redo[(n[redo] < 10**16) | (n[redo] >= 10**17)]
    hi = n // 10**8
    n -= hi * 10**8
    d0 = hi // 10**8
    hi -= d0 * 10**8
    g = np.empty((m, 4), np.intp)  # d1-d4, d5-d8, d9-d12, d13-d16
    g[:, 0] = q = hi // 10**4
    g[:, 1] = hi - q * 10**4
    g[:, 2] = q = n // 10**4
    g[:, 3] = n - q * 10**4
    digits = np.take(quads, g)
    row[:, 2:6] = digits
    row[:, 7:11] = digits
    row_bytes.ravel()[np.arange(m) * _CSV_ROW + 27 + np.maximum(k, 0)] = ord(".")
    zeros = np.take(trailing, g[:, 3])
    j = np.flatnonzero(zeros == 4)
    for i in (2, 1, 0):  # a group of zeros adds the trailing zeros of the group before it
        zeros[j] += np.take(trailing, g[j, i])
        j = j[zeros[j] == 4 * (4 - i)]
    cls = k + 4
    slow = ~fast
    cls[slow] = _CSV_ZERO
    bad = np.flatnonzero(slow & (v != 0))
    cls[bad] = _CSV_FALLBACK
    cls += np.signbit(v) * _CSV_CLASSES
    row[:, :2] = np.take(prefix, cls * 10 + d0 + sep[:m], axis=0)
    code = cls * 17 + 16 - zeros
    if bad.size:  # one % for the block, each text padded with spaces to the longest, 24 bytes
        texts = np.frombuffer((b"%-24.17g" * bad.size) % tuple(v[bad].tolist()), np.uint8).reshape(-1, 24)
        code[bad] = 2 * _CSV_CLASSES * 17 + np.count_nonzero(texts != ord(" "), axis=1)
        row_bytes[bad, 1:25] = texts
    return row_bytes[np.take(masks, code, axis=0)][1:].tobytes().decode("ascii") + "\n"


def _write_csv_rows(f: TextIO, a: NDArray[np.float64]) -> None:
    """Write the rows of a 2-D array as CSV lines of ``%.17g`` fields, byte for byte.

    Seventeen significant digits round-trip every double exactly, so reading
    the file back with ``float`` gives the same array.  Whole rows are
    formatted in blocks of about ``CSV_BLOCK_VALUES`` values, one write each.

    ``%.17g`` prints ``|x|`` in ``[1e-4, 1e16)`` in fixed notation, from the
    17 correctly rounded significant digits ``N`` and the decimal exponent
    ``k``, with trailing zeros and a bare ``.`` dropped.  Those values are
    formatted in numpy: ``k = floor(log10|x|)``, ``N`` is ``|x| * 10^(16-k)``
    formed exactly as ``hi + lo`` (Dekker's TwoProduct; ``10^(16-k)`` is an
    exact double) and rounded half-even, as dtoa rounds, and the few values
    whose ``N`` leaves ``[10^16, 10^17)`` because ``k`` was one off are redone
    at ``k -+ 1``.  The digits come from a table of four-digit groups, and one
    boolean mask per value, looked up by sign, ``k`` and the count of
    significant digits, cuts its fixed row (see ``_CSV_ROW``) down to its
    text.  Zeros print as ``0`` or ``-0`` from the same tables.  Every other
    value (NaN, infinities, subnormals and exponent notation) is formatted
    by ``%`` in one batch per block and placed in its row.
    """
    a = np.asarray(a, dtype=float)
    rows, cols = a.shape
    if not cols:
        f.write("\n" * rows)
        return
    step = max(1, CSV_BLOCK_VALUES // cols)
    size = min(rows, step) * cols
    buf = np.zeros((size, _CSV_ROW // 4), np.uint32)
    sep = (np.arange(size) % cols == 0) * (2 * _CSV_CLASSES * 10)
    for lo in range(0, rows, step):
        f.write(_csv_block(a[lo : lo + step].ravel(), buf, sep))


def _write_csv(path: str, a: NDArray[np.float64], header: Sequence[str] = ()) -> None:
    """Write the ``header`` lines, then the rows of ``a`` (:func:`_write_csv_rows`), to ``path``."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(line + "\n" for line in header))
        _write_csv_rows(f, a)


def dense_to_csv(path: str, a: NDArray[np.float64]) -> None:
    """Write a dense symmetric matrix as row-major CSV of exact ``%.17g`` fields."""
    _write_csv(path, a)


def dense_from_csv(path: str) -> NDArray[np.float64]:
    """Read a row-major CSV dense matrix."""
    with open(path, "r", encoding="utf-8") as f:
        rows = [
            [float(c) for c in line.strip().split(",")]
            for line in f
            if line.strip() and not line.startswith("#")
        ]
    return np.asarray(rows, dtype=float)


def read_json_object(path: str) -> dict:
    """The JSON object in the UTF-8 file ``path``."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, ValueError) as e:  # ValueError: not JSON, or not UTF-8
        raise FormatError(f"cannot read {path}: {e}") from e
    if not isinstance(data, dict):
        raise FormatError(f"cannot read {path}: expected a JSON object, got {type(data).__name__}")
    return data


@dataclass(frozen=True)
class ObservationRow:
    """One record: the observed index interval (1-based, inclusive) and values."""

    lo: int
    hi: int
    values: tuple[float, ...]


@dataclass(frozen=True)
class MissingDataset:
    """Rows whose observed sets are left prefixes, right suffixes, or full."""

    n: int
    rows: tuple[ObservationRow, ...]


def _classify_row(cells: Sequence[str], n: int, row_no: int) -> ObservationRow:
    observed = [j for j, c in enumerate(cells, start=1) if c.strip() != ""]
    if not observed:
        raise PatternError(f"row {row_no}: no observed entries")
    lo, hi = observed[0], observed[-1]
    if observed != list(range(lo, hi + 1)):
        raise PatternError(f"row {row_no}: observed set {observed} is not contiguous")
    if lo != 1 and hi != n:
        raise PatternError(
            f"row {row_no}: observed set {{{lo}..{hi}}} is neither a left prefix "
            f"nor a right suffix of 1..{n}"
        )
    try:
        values = tuple(float(cells[j - 1]) for j in range(lo, hi + 1))
    except ValueError as e:
        raise FormatError(f"row {row_no}: {e}") from e
    if not np.isfinite(values).all():
        raise FormatError(f"row {row_no}: values must be finite")
    return ObservationRow(lo, hi, values)


def parse_missing_csv(text: str) -> MissingDataset:
    """Parse a CSV with empty cells marking missing coordinates."""
    rows = []
    n: Optional[int] = None
    row_no = 0
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        row_no += 1
        cells = line.split(",")
        if n is None:
            n = len(cells)
        elif len(cells) != n:
            raise FormatError(f"row {row_no}: expected {n} columns, got {len(cells)}")
        rows.append(_classify_row(cells, n, row_no))
    if n is None:
        raise FormatError("no data rows")
    return MissingDataset(n, tuple(rows))
