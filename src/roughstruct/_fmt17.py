"""``%.17g`` of float arrays by numpy, byte for byte as Python's ``%``, and the file writer.

The 17 digits ``round(|v| * 10**(16 - X))``, ``X = floor(log10 |v|)``, come
from a double-double product (Dekker 1971) exact to 1e-13, so they are
correctly rounded (Gay 1990) unless within 1e-9 of a tie that is not exact
(an exact one, with -6 <= X <= 16, rounds half to even).  Those cells, nan,
inf and ``|v|`` outside ``[1e-250, 1e250]`` (0 excepted) go to ``%``.

Every other cell gets a 32-byte slot in output order, a 0 byte wherever
nothing is printed: the sign; "0." and up to three zeros when -4 <= X < 0;
d0; the point; d1..d16 as four 4-digit words less their trailing zeros;
"e", the exponent sign and 2-3 digits; the separator.  One
``bytes.translate`` drops the 0 bytes.  Fixed point with X <= 0 and
exponent form (X < -4 or X > 16) need nothing more; only a cell with
1 <= X <= 16, whose point falls inside the digits, is permuted, one gather
per X.  A J = 13, dim-2 path table (24,579 cells) takes about 110 ns a cell
on a 2-core x86_64 box, against 240 ns when every class of X but the most
common one was gathered and permuted.
"""

import os
import stat
from functools import cache

import numpy as np


@cache
def _tables() -> tuple:
    """Built on first use: ``quad[g]``, the ASCII digits of ``g < 10**4`` as
    a uint32, and ``quad[10**4 + g]``, the same less its trailing zeros (all
    0 bytes at 0); ``pow10[240 + k]``, ``(hi, lo, hh, hl)`` as one 32-byte
    item, ``10**k = hi + lo`` to 2**-106 for k in [-240, 270] and ``hi = hh
    + hl`` in 26-bit halves; ``words[256 + X]``, slot bytes 0-7 and 24-31
    (:func:`_slots`) of a cell of exponent X as one 16-byte item;
    ``perms[X]``, the byte order of a slot whose point follows digit X."""
    g = np.arange(10**4, dtype=float)
    quad = np.empty((2, 10**4, 4), dtype=np.uint8)
    for i in range(4):
        quad[:, :, 3 - i] = (np.floor(g / 10**i) - 10 * np.floor(g / 10 ** (i + 1))).astype(int) + 48
    zeros = sum(np.floor(g / 10**i) * 10**i == g for i in range(1, 5))
    quad[1, np.arange(4) >= 4 - zeros[:, None]] = 0
    ratios = [(10**k, 1) if k >= 0 else (1, 10**-k) for k in range(-240, 271)]
    hi = np.array([n / d for n, d in ratios])  # int / int rounds correctly
    pq = map(float.as_integer_ratio, hi.tolist())
    lo = np.array([(n * q - p * d) / (q * d) for (n, d), (p, q) in zip(ratios, pq)])
    hh = 134217729.0 * hi
    hh -= hh - hi
    head = [b"\0" + b"0." + b"0" * (-1 - x) if -4 <= x < 0 else b"\0" * 7 + b"." for x in range(-256, 257)]
    tail = [b"e%+03d" % x if x < -4 or x > 16 else b"" for x in range(-256, 257)]
    words = np.frombuffer(b"".join(h.ljust(8, b"\0") + t.ljust(8, b"\0") for h, t in zip(head, tail)), dtype="V16")
    d = list(range(8, 24))
    perms = np.array([[0, 6] + d[:x] + [7] + d[x:] + [31] + [1] * 12 for x in range(17)])
    return quad.view(np.uint32).ravel(), np.array([hi, lo, hh, hi - hh]).T.copy().view("V32").ravel(), words, perms


def _digits(v: np.ndarray) -> tuple:
    """``(q, rem, X, undecided)``: the 17 digits ``q * 10**8 + rem`` of each
    ``|v|`` (0 at 0) and the cells left to ``%``."""
    a = np.abs(v)
    zero = a == 0
    undecided = ~((a >= 1e-250) & (a <= 1e250) | zero)
    a[undecided | zero] = 1.0
    x = np.floor(np.log(a) / np.log(10)).astype(int)
    h, l = _times_pow10(a, x)
    fix = np.flatnonzero((h >= 1e17) | (h <= 1e16))  # X may be one off next to a power of 10
    if len(fix):
        x[fix] += ((h[fix] - 1e17) + l[fix] >= 0) * 1 - ((h[fix] - 1e16) + l[fix] < 0)
        h[fix], l[fix] = _times_pow10(a[fix], x[fix])
    r = np.rint(l)
    off = np.abs(l - r)  # an exact tie (h + l is the product for -6 <= X <= 16) rounds to even h + r
    undecided |= (off >= 0.5 - 1e-9) & ((off != 0.5) | (x < -6) | (x > 16))
    q = np.floor(h / 1e8)  # exact: h - q * 1e8 is an integer below 2**27
    rem = (h - q * 1e8) + r
    carry = np.flatnonzero((rem < 0) | (rem >= 1e8))
    if len(carry):
        step = (rem[carry] >= 0) * 2 - 1
        q[carry] += step
        rem[carry] -= step * 1e8
    top = np.flatnonzero(q == 1e9)  # rounded up to the next power of 10
    q[top], x[top] = 1e8, x[top] + 1
    q[zero] = rem[zero] = x[zero] = 0
    return q, rem, x, undecided


def _times_pow10(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**(16 - x) ~ h + l``, ``h = fl(h + l)``, to 1e-13 near 1e17:
    Dekker's exact product with the table's ``hi``, plus ``a * lo``."""
    hi, lo, hh, hl = np.take(_tables()[1], 256 - x).view(float).reshape(-1, 4).T
    p = a * hi
    ah = 134217729.0 * a
    ah -= ah - a
    al = a - ah
    t = ((ah * hh - p) + ah * hl + al * hh) + al * hl + a * lo
    h = p + t
    return h, t - (h - p)


def _slots(v: np.ndarray, width: int) -> tuple:
    """32 bytes per cell in output order, 0 bytes standing for what is absent:
    sign, "0." and the leading zeros of X < 0, d0, point, d1..d16 from 4-digit
    words, the trailing zeros stripped, "e", exponent sign and 2-3 digits, and
    the separator.  A cell with 1 <= X <= 16 then takes its class's byte
    order.  Also returns the cells left to ``%``."""
    quad, _, words, perms = _tables()
    q, rem, x, undecided = _digits(v)
    slot = np.empty((len(v), 32), dtype=np.uint8)
    ends = np.take(words, x + 256).view(np.int64)
    slot.view(np.int64)[:, 0] = ends[::2]
    slot.view(np.int64)[:, 3] = ends[1::2]
    del ends
    seps = slot.reshape(-1, width, 32)[:, :, 31]
    seps[...] = 44
    seps[:, -1] = 10
    slot[:, 0] = np.signbit(v) * 45
    d0 = np.floor(q / 1e8)
    slot[:, 6] = d0.astype(int) + 48
    g = np.empty((4, len(v)))  # d1..d4, d5..d8, d9..d12, d13..d16
    for i, half in ((0, q - d0 * 1e8), (2, rem)):
        np.floor(half / 1e4, out=g[i])
        np.subtract(half, g[i] * 1e4, out=g[i + 1])
    del q, rem, d0, half  # freed before the gathers, to bound the chunk's peak
    zero = g == 0
    zero[2] &= zero[3]  # zero[i]: groups i..3 are all 0
    zero[1] &= zero[2]
    zero[0] &= zero[1]
    g[:3] += zero[1:] * 10**4  # the last nonzero group and those after it lose trailing zeros
    g[3] += 10**4
    for i in range(4):
        slot.view(np.uint32)[:, 2 + i] = quad[g[i].astype(int)]
    slot[np.flatnonzero(zero[0]), 7] = 0  # no fraction digit: no point (none is at byte 7 for X < 0)
    mid = np.flatnonzero((x > 0) & (x <= 16))
    for c in set(x[mid].tolist()):  # the point inside the digits
        rows = mid[x[mid] == c]
        # an integer's zeros are stripped into its integer digits; any other v
        # keeps a fraction digit, as its ulp exceeds 10**(X - 16)
        whole = rows[np.floor(v[rows]) == v[rows]]
        slot.view(np.uint32)[whole, 2:6] = quad[(g[:, whole] - (g[:, whole] >= 1e4) * 10**4).astype(int)].T
        slot[whole, 7] = 0
        slot[whole, 8 + c : 24] = 0
        slot[rows] = slot[rows][:, perms[c]]
    return slot, np.flatnonzero(undecided)


def format_g17(v: np.ndarray, width: int) -> bytes:
    """``%.17g`` of the floats ``v``, rows of ``width`` cells joined by "," and
    ended by a newline: the slots of :func:`_slots`, their 0 bytes dropped."""
    slot, slow = _slots(v, width)
    for i in slow.tolist():
        text = b"%.17g%c" % (v[i], 10 if i % width == width - 1 else 44)
        slot[i] = 0
        slot[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    return slot.tobytes().translate(None, b"\0")


def check_outputs(*names) -> None:  # every output name, before the first file is written
    seen = {}
    for name in filter(None, names):
        if os.path.isdir(name) or not os.path.isdir(os.path.dirname(name) or "."):
            raise ValueError(f"cannot write {name!r}: a directory, or its directory is missing")
        real = os.path.realpath(name)
        if real in seen:
            raise ValueError(f"{seen[real]!r} and {name!r} name one output file")
        seen[real] = name


def write_output(filename: str, chunks) -> None:
    """The one file writer: byte ``chunks`` over ``filename`` in place, then a
    regular file cut to length.  Keeps inode, mode and links as ``open(filename,
    "wb")`` but does not truncate to zero first (that waits on writeback), so a
    process killed mid-write may leave the new head before the old tail."""
    with open(os.open(filename, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666), "wb") as fh:
        try:
            fh.writelines(chunks)  # drops each chunk before the next is made
        finally:
            if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
                fh.truncate()
