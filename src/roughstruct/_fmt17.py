"""``%.17g`` of float arrays by numpy, byte for byte as Python's ``%``, and the file writer.

The 17 digits ``round(|v| * 10**(16 - X))``, ``X = floor(log10 |v|)``, come
from a double-double product (Dekker 1971) exact to 1e-13, so they are
correctly rounded (Gay 1990) unless within 1e-9 of a tie.  Those cells, nan,
inf and ``|v|`` outside ``[1e-250, 1e250]`` (0 excepted) go to ``%``.
"""

import os
import stat
from functools import cache

import numpy as np


@cache
def _tables() -> tuple:
    """Built on first use: ``quad[g]``, the ASCII digits of ``g < 10**4`` as
    a uint32; ``strip[:, t]``, the "0"s that drop t trailing digits from the
    int64 words of d1..d16; ``10**k = hi + lo`` to 2**-106 for k in
    [-240, 270], ``hi = hh + hl`` in 26-bit halves; ``perms[c]``, the slot
    bytes (:func:`_slots`) of a cell of class c."""
    g = np.arange(10**4, dtype=float)
    quad = np.empty((10**4, 4), dtype=np.uint8)
    for i in range(4):
        quad[:, 3 - i] = (np.floor(g / 10**i) - 10 * np.floor(g / 10 ** (i + 1))).astype(int) + 48
    strip = np.where(np.arange(16) >= np.arange(16, -1, -1)[:, None], 48, 0).astype(np.uint8)
    ratios = [(10**k, 1) if k >= 0 else (1, 10**-k) for k in range(-240, 271)]
    hi = np.array([n / d for n, d in ratios])  # int / int rounds correctly
    pq = map(float.as_integer_ratio, hi.tolist())
    lo = np.array([(n * q - p * d) / (q * d) for (n, d), (p, q) in zip(ratios, pq)])
    hh = 134217729.0 * hi
    hh -= hh - hi
    d = list(range(8, 24))
    rows = [[0, 3, 2] + [3] * (-x - 1) + [1] + d if x < 0 else [0, 1] + d[:x] + [2] + d[x:]
            for x in range(-4, 17)] + [[0, 1, 2] + d + [4, 5] + list(range(28 - e, 28)) for e in (2, 3)]
    perms = np.array([row + [6] + [31] * (24 - len(row)) for row in rows])
    return quad.view(np.uint32).ravel(), strip.view(np.int64).T.copy(), hi, lo, hh, hi - hh, perms


def _digits(v: np.ndarray) -> tuple:
    """``(q, rem, X, undecided)``: the 17 digits ``q * 10**8 + rem`` of each
    ``|v|`` (0 at 0) and the cells left to ``%``."""
    a = np.abs(v)
    zero = a == 0
    undecided = ~((a >= 1e-250) & (a <= 1e250) | zero)
    a[undecided | zero] = 1.0
    x = np.floor(np.log(a) / np.log(10)).astype(int)
    h, l = _times_pow10(a, x)
    step = ((h - 1e17) + l >= 0) * 1 - ((h - 1e16) + l < 0)  # X one off next to a power of 10
    fix = np.flatnonzero(step)
    if len(fix):
        x[fix] += step[fix]
        h[fix], l[fix] = _times_pow10(a[fix], x[fix])
    r = np.rint(l)
    undecided |= np.abs(l - r) >= 0.5 - 1e-9
    q = np.floor(h / 1e8)  # exact: h - q * 1e8 is an integer below 2**27
    rem = (h - q * 1e8) + r
    step = (rem >= 1e8) * 1 - (rem < 0)
    q, rem = q + step, rem - step * 1e8
    top = q == 1e9  # rounded up to the next power of 10
    q[top], x = 1e8, x + top
    q[zero] = rem[zero] = x[zero] = 0
    return q, rem, x, undecided


def _times_pow10(a: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``a * 10**(16 - x) ~ h + l``, ``h = fl(h + l)``, to 1e-13 near 1e17:
    Dekker's exact product with the table's ``hi``, plus ``a * lo``."""
    hi, lo, hh, hl = (t[256 - x] for t in _tables()[2:6])
    p = a * hi
    ah = 134217729.0 * a
    ah -= ah - a
    t = ((ah * hh - p) + ah * hl + (a - ah) * hh) + (a - ah) * hl + a * lo
    h = p + t
    return h, t - (h - p)


def _trailing_zeros(g: np.ndarray) -> np.ndarray:
    """Trailing zeros of the 4 digits of each ``g < 10**4`` (4 at 0)."""
    return sum(np.floor(g / 10**i) * 10**i == g for i in range(1, 5))


def _slots(v: np.ndarray, seps: np.ndarray) -> tuple:
    """32 bytes per cell: sign, d0, point, "0", "e", exponent sign, separator,
    0, d1..d16 from 4-digit words, 4 exponent digits, 0s, where 0 bytes stand
    for absent signs and points and stripped zeros; the class of each cell
    (``X + 4`` in fixed point, 21 and 22 with 2 and 3 exponent digits)."""
    quad, strip = _tables()[:2]
    q, rem, x, undecided = _digits(v)
    d0 = np.floor(q / 1e8)
    slot = np.tile(np.array([0, 0, 0, 48, 101] + [0] * 27, dtype=np.uint8), (len(v), 1))
    words = slot.view(np.uint32)
    groups = []
    for half in (q - d0 * 1e8, rem):
        upper = np.floor(half / 1e4)
        groups += [upper, half - upper * 1e4]
    for i, g in enumerate(groups):
        words[:, 2 + i] = quad[g.astype(int)]
    tz = _trailing_zeros(groups[3])  # of d1..d16
    for i in (2, 1, 0):
        z = np.flatnonzero(tz == 12 - 4 * i)
        tz[z] += _trailing_zeros(groups[i][z])
    expo = (x < -4) | (x > 16)
    frac = np.where(expo, 16, 16 - x)  # digits after the point
    tz = np.minimum(tz, frac)
    slot.view(np.int64)[:, 1] -= strip[0][tz]
    slot.view(np.int64)[:, 2] -= strip[1][tz]
    slot[:, 0] = np.where(np.signbit(v), 45, 0)
    slot[:, 1] = d0.astype(int) + 48
    slot[:, 2] = np.where(tz < frac, 46, 0)
    slot[:, 5] = np.where(x < 0, 45, 43)
    slot[:, 6] = seps
    words[:, 6] = quad[np.where(x < 0, -x, x)]
    cls = np.where(expo, 21 + ((x <= -100) | (x >= 100)), x + 4)
    cls[undecided] = 4
    return slot, cls, np.flatnonzero(undecided)


def format_g17(v: np.ndarray, width: int) -> bytes:
    """``%.17g`` of the floats ``v``, rows of ``width`` cells joined by "," and
    ended by a newline: one byte permutation per class of :func:`_slots`,
    then the 0 bytes dropped."""
    seps = np.tile([44] * (width - 1) + [10], len(v) // width)
    slot, cls, slow = _slots(v, seps)
    perms, counts = _tables()[-1], np.bincount(cls).tolist()
    main = counts.index(max(counts))
    out = slot[:, perms[main]]
    for c in np.flatnonzero(counts).tolist():
        if c != main:
            rows = np.flatnonzero(cls == c)
            out[rows] = np.take(slot.view("V32").ravel(), rows).view(np.uint8).reshape(-1, 32)[:, perms[c]]
    del slot, cls  # before the two copies of the text below
    for i in slow.tolist():
        text = b"%.17g%c" % (v[i], seps[i])
        out[i] = 0
        out[i, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out.tobytes().translate(None, b"\0")


def check_outputs(*names) -> None:  # every output name, before the first file is written
    for name in filter(None, names):
        if os.path.isdir(name) or not os.path.isdir(os.path.dirname(name) or "."):
            raise ValueError(f"cannot write {name!r}: a directory, or its directory is missing")


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
