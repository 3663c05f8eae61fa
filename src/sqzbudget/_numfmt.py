"""Exact vectorised ``%.9g`` and ``%.2f`` text for 2-D float tables.

``"".join(format_rows(table, spec, sep, end))`` is the same string as

    "".join(sep.join([spec] * cols) % tuple(row) + end for row in table)

byte for byte, for ``spec`` ``"%.9g"`` or ``"%.2f"``. It computes every
cell's correctly rounded decimal digits and exponent with float array
operations, writes them into a fixed-width byte frame with a pad byte
(0) for each absent character, and drops the pad bytes of a whole chunk
in one pass (``bytes.translate``, about twice as fast as a boolean
mask on these frames). A chunk holds about ``_CHUNK_CELLS`` cells, which
bounds the memory held at once. A cell the rules below cannot prove
exact is formatted by ``%`` instead, together with the rest of its row.

Exactness rule for ``%.9g``, on finite x with 1e-290 <= |x| < 1e290:

* ``e = floor(log10|x|)`` and ``s = |x| * 10**(8 - e)``, multiplying by
  ``float(10**k)`` when ``k = 8 - e >= 0`` and dividing by
  ``float(10**-k)`` otherwise; both powers are correctly rounded, so
  ``s`` is within a few ulp (< 1e-6 absolute) of the exact product.
  ``m = rint(s)``.
* The fast path is taken only when ``1e8 <= m < 1e9`` and
  ``|s - floor(s) - 0.5| > 1e-5``. The exact product then lies on the
  same side of the nearest half-integer as ``s``, so ``m`` is the
  correctly rounded 9-digit mantissa and ``e`` its exponent.
* A ``log10`` whose floor is off by one near a power of ten either
  puts ``m`` outside ``[1e8, 1e9)`` or gives the same digits (a mantissa
  that rounds up to ``1e8`` one decade higher).
* The layout is C's ``%g``: exponent form when ``e < -4`` or ``e >= 9``,
  trailing zeros and a bare ``.`` removed, and an exponent with a sign
  and at least two digits. ±0 is written ``0`` / ``-0``.

Exactness rule for ``%.2f``, on finite x with ``|x| < 1e6``:

* ``s = |x| * 100`` is within half an ulp of the exact product. The
  fast path is taken only when ``|s - floor(s) - 0.5| > 8 * ulp(s)``,
  so ``rint(s)`` is the correctly rounded count of hundredths.
* ``-`` is written whenever the sign bit is set, as ``%`` does for
  ``-0.001`` (``-0.00``) and ``-0.0``.

Every other cell takes ``%``: NaN, ±inf, subnormals, magnitudes
outside the ranges above and near-ties (exact ties included, which
``%`` rounds half to even).
"""

from __future__ import annotations

import functools


def _word(text: str) -> int:
    """``text`` (at most 8 ASCII bytes, spaces as pads) as a little-endian word."""
    return int.from_bytes(text.replace(" ", "\0").encode("ascii"), "little")


@functools.lru_cache(maxsize=None)
def _tables():
    """Fixed lookup tables; their size does not depend on the data."""
    import numpy as np

    # digits4[i] holds the four ASCII digits of "%04d" % i; last4[i] is
    # the 1-based position of its last non-zero digit, 0 for 0000. Both
    # are built from the hundred two-digit pairs.
    tens, ones = np.divmod(np.arange(100, dtype=np.int64), 10)
    pair = (tens + ord("0")) | (ones + ord("0")) << 8
    last2 = np.where(ones != 0, 2, np.where(tens != 0, 1, 0))
    digits4 = (pair[:, None] | pair << 16).ravel()
    last4 = np.where(last2 != 0, last2 + 2, last2[:, None]).ravel()
    pow10 = np.array([float(10**k) for k in range(300)])
    # low[k] keeps the first k bytes of a word.
    low = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64).view(np.int64)
    # Per decimal exponent e in [-300, 300], at row e + 300: the prefix
    # ("0.000" for e = -4) in bytes 1-5 of the first word, the exponent
    # ("e+123") in bytes 1-5 of the last, how many of the digits after
    # the first precede the point, and how many are always written.
    head, tail, split, units = [], [], [], []
    for e in range(-300, 301):
        fixed = -4 <= e < 9
        head.append(_word(" " + ("0." + "0" * (-e - 1) if fixed and e < 0 else "")))
        tail.append(_word(" " + ("" if fixed else "e%+03d" % e)))
        split.append(e if fixed and e >= 0 else 8 if fixed else 0)
        units.append(e if fixed and e >= 0 else 0)
    head, tail = np.array(head, dtype=np.int64), np.array(tail, dtype=np.int64)
    split, units = np.array(split, dtype=np.int64), np.array(units, dtype=np.int64)
    return digits4, last4, pow10, low, head, tail, split, units


def _g9_mantissa(x):
    """(m, row, fast) for ``%.9g``: the 9-digit mantissa, e + 300, exactness.

    Cells that are not fast get a placeholder mantissa and ±0 gets 0.
    Temporaries are written in place so that few are alive at once.
    """
    import numpy as np

    pow10 = _tables()[2]
    s = np.abs(x)
    zero = s == 0.0
    fast = (s >= 1e-290) & (s < 1e290)
    np.copyto(s, 1.0, where=~fast)  # keeps log10 and the scaling warning-free
    row = np.log10(s)
    np.floor(row, out=row)
    row = row.astype(np.int64)
    row += 300
    # s = |x| * 10**(8 - e): multiply when 8 - e >= 0, else divide.
    up = row <= 308
    power = 308 - row
    power = pow10[np.abs(power, out=power)]
    np.multiply(s, power, out=s, where=up)
    np.divide(s, power, out=s, where=~up)
    m = np.rint(s)
    off_tie = np.floor(s, out=power)
    off_tie -= s
    off_tie += 0.5
    fast &= np.abs(off_tie, out=off_tie) > 1e-5
    fast &= (m >= 1e8) & (m < 1e9)
    fast |= zero
    m[~fast] = 1e8  # any in-range mantissa: the cell is rewritten by %
    m[zero] = 0.0  # zero keeps e = 0 from its placeholder 1.0
    return m.astype(np.int64), row, fast


def _g9_frame(x, sep, frame):
    """Fill ``frame`` with the ``%.9g`` text of a 2-D float array; return ``fast``.

    Four words per cell: sign, prefix and first digit; the digits before
    the point; the point and the digits after it; the last digit, the
    exponent and the separator ``sep`` (one code per column).
    """
    import numpy as np

    digits4, last4, _, low, head, tail, split, units = _tables()
    rest, row, fast = _g9_mantissa(x)
    first = rest // 100000000
    rest -= first * 100000000
    hi = rest // 10000
    rest -= hi * 10000  # the last four digits
    keep = np.where(rest != 0, last4[rest] + 4, last4[hi])
    np.maximum(keep, units[row], out=keep)
    digits = digits4[rest]
    digits <<= 32
    digits |= digits4[hi]
    digits &= low[keep]

    word = frame[..., 0]
    word[...] = first
    word += ord("0")
    word <<= 48
    word |= head[row]
    word |= np.signbit(x) * ord("-")
    before = split[row]
    np.bitwise_and(digits, low[before], out=frame[..., 1])
    before *= 4
    digits >>= before
    digits >>= before  # two shifts: never one by 64 bits
    word = frame[..., 2]
    np.left_shift(digits, 8, out=word)
    word |= (digits != 0) * ord(".")
    word = frame[..., 3]
    np.right_shift(digits, 56, out=word)
    word |= tail[row]
    word |= sep << 48
    return fast


# Powers of ten that a %.2f integer part reaches: their count below a
# value is its number of digits less one.
_TENS = (10, 100, 1000, 10**4, 10**5, 10**6)


def _f2_frame(x, sep, frame):
    """Fill ``frame`` with the ``%.2f`` text of a 2-D float array; return ``fast``.

    Two words per cell: the sign and seven integer digits; the point,
    two decimals and the separator ``sep`` (one code per column).
    """
    import numpy as np

    digits4, _, _, low = _tables()[:4]
    a = np.abs(x)
    fast = a < 1e6
    np.copyto(a, 0.0, where=~fast)  # NaN, inf and huge values would warn below
    s = a * 100.0
    fast &= np.abs(s - np.floor(s) - 0.5) > 8.0 * np.spacing(s)
    hundredths = np.rint(s).astype(np.int64)
    whole = hundredths // 100
    frac = hundredths - whole * 100
    top = whole // 10000
    places = digits4[top] >> 8 | digits4[whole - top * 10000] << 24
    # Drop the leading zeros, keeping the units digit.
    places &= ~low[6 - np.searchsorted(_TENS, whole, side="right")]

    frame[..., 0] = np.signbit(x) * ord("-") | places << 8
    frame[..., 1] = ord(".") | digits4[frac] >> 16 << 8 | sep << 24
    return fast


# Frame builder and 8-byte words per cell, by format.
_FRAMES = {"%.9g": (_g9_frame, 4), "%.2f": (_f2_frame, 2)}

# Cells formatted per step: 512 rows of the 8-column budget table, so
# the frame and temporaries for the 1000-point preset stay well below
# what the interpreter and numpy already hold.
_CHUNK_CELLS = 4096


def format_rows(table, spec: str, sep: str, end: str) -> list[str]:
    """Rows of a number table as ``spec`` text, exactly as ``%`` writes them.

    ``table`` is a 2-D float array or a sequence of equal-length rows of
    numbers. Cells are joined by ``sep`` and every row ends with ``end``
    (one ASCII character each). Returns one string per chunk of rows, and
    none for an empty table. A row holding a cell the fast path cannot
    prove exact is written by ``%`` as a whole.
    """
    if not len(table):
        return []
    import numpy as np

    table = np.asarray(table, dtype=float)
    cols = table.shape[1]
    seps = np.array([ord(sep)] * (cols - 1) + [ord(end)], dtype=np.int64)
    template = sep.join([spec] * cols) + end
    step = max(1, _CHUNK_CELLS // cols)
    return [
        _format_chunk(table[start : start + step], spec, seps, template)
        for start in range(0, len(table), step)
    ]


def _format_chunk(chunk, spec: str, seps, template: str) -> str:
    import numpy as np

    build_frame, words = _FRAMES[spec]
    frame = np.empty(chunk.shape + (words,), dtype="<i8")
    fast = build_frame(chunk, seps, frame)
    frame = frame.view(np.uint8).reshape(len(chunk), -1)
    slow = np.flatnonzero(~fast.all(axis=1))
    frame[slow] = 0  # those rows are written by % below
    text = frame.tobytes().translate(None, b"\0").decode("ascii")
    if not len(slow):
        return text
    stops = np.cumsum(np.count_nonzero(frame, axis=1))
    parts, at = [], 0
    for r in slow.tolist():
        cut = int(stops[r])
        parts += [text[at:cut], template % tuple(chunk[r].tolist())]
        at = cut
    parts.append(text[at:])
    return "".join(parts)
