"""A fixed pure-Python kernel that measures how fast the host runs now.

On a shared host the same pass can take 1.5x longer in one minute than in
the next, because other tenants load the cores.  ``run.py`` times this
kernel before every CLI call and every set-up, and scales its timings by
the kernel's mean time over the run, so that a run reads the same
whatever the neighbours do.  The kernel
shares no code with sumrank, so a change to the program never moves it.
It does the kind of work the program's hot loops do: GF(2^8) products
through log/antilog tables and Gaussian elimination on small matrices.

``REF_S`` defines the unit: a scaled time is the time the work would take
on a host where one ``sample()`` takes ``REF_S`` seconds (about its
fastest time on a 2-core Xeon host).
"""

from __future__ import annotations

import time

REF_S = 0.004
MATRICES = 120
N = 6

_EXP = [0] * 510
_LOG = [0] * 256
_x = 1
for _i in range(255):
    _EXP[_i] = _EXP[_i + 255] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= 0x11D


def _mul(a: int, b: int) -> int:
    return _EXP[_LOG[a] + _LOG[b]] if a and b else 0


def kernel() -> int:
    """Determinants of MATRICES fixed N x N matrices over GF(2^8), xor-ed."""
    acc = 0
    for s in range(MATRICES):
        m = [[_EXP[(s * 7 + 5 * i + 3 * j + i * j) % 255] for j in range(N)]
             for i in range(N)]
        det = 1
        for c in range(N):
            piv = next((r for r in range(c, N) if m[r][c]), None)
            if piv is None:
                det = 0
                break
            m[c], m[piv] = m[piv], m[c]
            det = _mul(det, m[c][c])
            inv = _EXP[255 - _LOG[m[c][c]]]
            for r in range(c + 1, N):
                f = _mul(m[r][c], inv)
                if f:
                    m[r] = [a ^ _mul(f, b) for a, b in zip(m[r], m[c])]
        acc ^= det
    return acc


def sample() -> float:
    """Wall seconds of one kernel run."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
