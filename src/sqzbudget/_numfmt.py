"""Exact vectorised ``%.9g`` and ``%.2f`` text for 2-D float tables.

``"".join(format_rows(table))``, the CSV body of a number table, is the
same string as

    "".join(",".join(["%.9g"] * cols) % tuple(row) + "\\n" for row in table)

byte for byte. ``format_pairs`` writes the ``"%.2f,%.2f "`` pairs of one
x array beside each of several y arrays, the points of an SVG polyline,
formatting the x cells once. Both compute every cell's correctly
rounded decimal digits and exponent with float array operations, write
them into a fixed-width byte frame with a pad byte (0) for each absent
character, and drop the pad bytes of a whole chunk in one pass. A
``%.9g`` cell is three 8-byte words, a ``%.2f`` cell one. The drop is a
boolean mask over the chunk's bytes: on one thread it costs more per
byte than ``bytes.translate``, but numpy leaves the GIL while it runs,
so two chunks' drops overlap. A chunk holds about ``_CHUNK_CELLS``
cells, which bounds the memory held at once. A table's chunks are made
on up to two threads (``_threads.call_all``; one chunk, or one CPU, on
the calling thread alone) and joined in order. Which thread makes a
chunk cannot change a byte. A cell the rules below cannot prove exact
is formatted by ``%`` instead, together with the rest of its row.

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
* The cell is then three words: the sign, the prefix (up to ``0.000``),
  the first digit and the first byte of the rest; the rest's other
  eight bytes, its eight digits with the point inserted after those
  that precede it; the exponent and the separator.

Exactness rule for ``%.2f``, on x < 1e4 with the sign bit clear:

* ``s = x * 100`` is within half an ulp of the exact product. The fast
  path is taken only when ``|s - floor(s) - 0.5| > 8 * ulp(s)``, so
  ``rint(s)`` is the correctly rounded count of hundredths, and only
  when that count is below 999999.5: at most four integer digits.
* The cell is then one 8-byte word: the integer digits (leading zeros
  as pad bytes, the units digit kept), the point, two decimals and the
  separator.

Every other cell takes ``%``: NaN, ±inf, a set sign bit (-0.0
included), values that round to 10000.00 or more, for ``%.9g``
subnormals and magnitudes outside its range above, and near-ties
(exact ties included, which ``%`` rounds half to even).
"""

from __future__ import annotations

import functools

from ._threads import call_all


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
    # ("e+123") in bytes 0-4 of the last, how many of the digits after
    # the first precede the point, and how many are always written.
    head, tail, split, units = [], [], [], []
    for e in range(-300, 301):
        fixed = -4 <= e < 9
        head.append(_word(" " + ("0." + "0" * (-e - 1) if fixed and e < 0 else "")))
        tail.append(_word("" if fixed else "e%+03d" % e))
        split.append(e if fixed and e >= 0 else 8 if fixed else 0)
        units.append(e if fixed and e >= 0 else 0)
    head, tail = np.array(head, dtype=np.int64), np.array(tail, dtype=np.int64)
    split, units = np.array(split, dtype=np.int64), np.array(units, dtype=np.int64)
    return digits4, last4, pow10, low, head, tail, split, units


@functools.lru_cache(maxsize=None)
def _lead4():
    """``digits4`` with leading zeros as pads: ``"%4d" % i`` at index i.

    Apart from ``_tables`` so that only a process writing ``%.2f`` holds it.
    """
    digits4, _, _, low = _tables()[:4]
    lead4 = digits4.copy()
    for digits in (3, 2, 1):
        lead4[: 10**digits] &= ~low[4 - digits]
    return lead4


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

    Three words per cell. Word 0: sign, prefix, the first digit and the
    first byte of the rest. Word 1: the rest's other eight bytes, the
    eight digits after the first with the point inserted after the
    ``before`` digits that precede it. Word 2: the exponent and the
    separator ``sep`` (one code per column: commas, then a newline).
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
    front = low[before]
    front &= digits  # the digits before the point
    digits ^= front  # the digits after it, in place
    point = (digits != 0) * ord(".")
    before *= 4
    point <<= before
    point <<= before  # two shifts: never one by 64 bits
    front |= point
    # The rest is front with the digits after the point one byte higher:
    # its first byte ends word 0 and its other eight are word 1.
    front_byte = front & 0xFF
    front_byte <<= 56
    word |= front_byte
    word = frame[..., 1]
    np.right_shift(front, 8, out=word)
    word |= digits
    word = frame[..., 2]
    word[...] = tail[row]
    word |= sep << 40
    return fast


def _f2_frame(x, sep, frame):
    """Fill ``frame`` with the ``%.2f`` text of a float array; return ``fast``.

    One word per cell: four integer digits with pads for leading zeros,
    the point, two decimals and the separator ``sep`` (one code per
    column).
    """
    import numpy as np

    digits4, lead4 = _tables()[0], _lead4()
    fast = x < 1e4  # false for NaN
    fast &= ~np.signbit(x)
    s = np.where(fast, x, 0.0)  # NaN, inf and huge values would warn below
    s *= 100.0
    hundredths = np.rint(s)
    off_tie = np.floor(s)
    off_tie -= s
    off_tie += 0.5
    fast &= np.abs(off_tie, out=off_tie) > 8.0 * np.spacing(s)
    fast &= hundredths < 999999.5
    np.copyto(hundredths, 0.0, where=~fast)  # inside lead4; the cell is rewritten by %
    whole, frac = np.divmod(hundredths.astype(np.int64), 100)

    word = frame[..., 0]
    np.right_shift(digits4[frac], 16, out=word)
    word <<= 40
    word |= lead4[whole]
    word |= ord(".") << 32 | sep << 56
    return fast


# Cells formatted per chunk: 2048 rows of the 8-column budget table, so
# the 1000-point preset's table is one chunk, and a chunk's frame (384 KB
# of %.9g words) and temporaries stay well below what the interpreter and
# numpy already hold.
_CHUNK_CELLS = 1 << 14


def _chunk_texts(text, rows: int, cols: int) -> list[str]:
    """``text(rows)`` for each chunk of a table's rows, in order.

    The chunks are made on up to two threads, and the first chunk's
    error, in chunk order, is raised.
    """
    step = max(1, _CHUNK_CELLS // cols)
    calls = [functools.partial(text, slice(at, at + step)) for at in range(0, rows, step)]
    texts = call_all(calls, range(len(calls)))
    for result in texts:
        if isinstance(result, Exception):
            raise result
    return texts


def format_rows(table) -> list[str]:
    """Rows of a number table as CSV lines of ``%.9g`` cells, exactly as ``%`` writes them.

    ``table`` is a 2-D float array or a sequence of equal-length rows of
    numbers. Cells are joined by commas and every row ends with a newline.
    Returns one string per chunk of rows, and none for an empty table. A
    row holding a cell the fast path cannot prove exact is written by
    ``%`` as a whole.
    """
    if not len(table):
        return []
    import numpy as np

    table = np.asarray(table, dtype=float)
    cols = table.shape[1]
    seps = np.array([ord(",")] * (cols - 1) + [ord("\n")], dtype=np.int64)
    template = ",".join(["%.9g"] * cols) + "\n"
    _tables()  # built here, before a worker starts, not by two threads at once

    def text(rows):
        chunk = table[rows]
        frame = np.empty(chunk.shape + (3,), dtype="<i8")
        fast = _g9_frame(chunk, seps, frame).all(axis=1)
        return _format_chunk(frame, fast, chunk.T, template)

    return _chunk_texts(text, *table.shape)


def format_pairs(x, ys):
    """For each array in ``ys``, the ``"%.2f,%.2f "`` text of its pairs with ``x``.

    Yields, per y, chunks whose join is ``"".join("%.2f,%.2f " % pair
    for pair in zip(x, y))``, none for an empty ``x``. The x cells are
    formatted once for all of ``ys``; each chunk's frame is the x words
    beside that y's words.
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    x_words = np.empty((len(x), 1), dtype="<i8")
    x_fast = _f2_frame(x, ord(","), x_words)
    y_words = np.empty_like(x_words)
    for y in ys:
        y = np.asarray(y, dtype=float)
        fast = _f2_frame(y, ord(" "), y_words)
        fast &= x_fast

        def text(rows):
            frame = np.hstack((x_words[rows], y_words[rows]))
            return _format_chunk(frame, fast[rows], (x[rows], y[rows]), "%.2f,%.2f ")

        yield _chunk_texts(text, len(x), 2)


def _format_chunk(frame, fast, columns, template: str) -> str:
    """The text of a built ``frame`` (rows x words) with its pad bytes dropped.

    A row that is not ``fast`` is written as ``template % row`` instead,
    from the row's values in ``columns`` (one array per cell of a row).
    """
    import numpy as np

    frame = frame.view(np.uint8).reshape(len(frame), -1)
    slow = np.flatnonzero(~fast)
    frame[slow] = 0  # those rows are written by % below
    flat = frame.ravel()
    text = flat[flat != 0].tobytes().decode("ascii")
    if not len(slow):
        return text
    stops = np.cumsum(np.count_nonzero(frame, axis=1))
    parts, at = [], 0
    for r in slow.tolist():
        cut = int(stops[r])
        parts += [text[at:cut], template % tuple(float(column[r]) for column in columns)]
        at = cut
    parts.append(text[at:])
    return "".join(parts)
