"""Pure-Python kernels for the exhaustive-enumeration hot loops.

Same API as the compiled twin in ``_core_c`` (hand-written C,
``_core_c.c``); ``core`` picks one at import time.  Everything here works
for any prime q; the compiled version additionally requires q^M < 2^63.
The budget rules that refuse a search before it starts, ``message_stop``
and ``children_per_node``, live here and serve both kernels, so a
message space past 2^63 is refused with the same arguments by either.

The column-distance search finds d^0 .. d^j in one pruned search to
depth j, on packed vectors:

- **Every level at once.**  Each depth records the least weight of the
  blocks so far that it meets under the running best, so d^t is that
  record or d^j, whichever is less; a systematic shortcut at depth t
  records its weight at every depth its zero extension leaves weightless.
- **Pending carries.**  A recursed child is handed the blocks its fixed
  messages add at the next min(j, m) depths, computed once per child, so
  the carry into a depth and the zero-extension test only read them.
- **Packed vectors.**  A vector of n element codes is one int whose
  base-``order`` digit c is code c, so over q = 2 code c sits at bits
  c*M and a vector add is a single XOR.  Odd q adds digitwise (``_add``).
- **Row tables.**  Each coefficient row gets the table of its multiples
  d*g for every d in F_{q^M}, packed; only G_0 .. G_min(j,m) get one,
  the coefficients a depth-j search reads.
- **Streamed images.**  Children are visited in message-index order,
  lowest digit fastest: the image of the high digits is formed once per
  high index and each low digit's table entry is added to it inside the
  loop.  No table with q^(Mk) entries is built.
- **Leaf batching.**  At the last depth every child is enumerated and
  only the least rank matters, so the children are counted at once and
  their minimum rank taken in one loop.
- **Rank.**  Over q = 2 the rank of a packed vector comes from an
  elimination that pivots on its top bit (``_pivots``), stepped inline
  in the children loops with no call per child; odd q unpacks the codes
  for ``expand_rank``, one ``rank_below`` call per child.

The minimum-distance kernel still decodes and multiplies out each
message, as the compiled twin does in both of its searches.  Values and
``enumerated`` counts equal the compiled twin's, and budget refusals
carry the same exception arguments.
"""

from __future__ import annotations

from operator import xor


class BudgetExceeded(Exception):
    """Raised when an enumeration would pass its configured budget."""

    def __init__(self, enumerated: int, budget: int):
        super().__init__(f"enumeration budget exceeded ({enumerated} > {budget})")
        self.enumerated = enumerated
        self.budget = budget


IMPLEMENTATION = "python"


def message_stop(k: int, order: int, budget: int) -> int:
    """order**k, one past the last message index, after refusing a space of
    more nonzero messages than budget."""
    stop = order**k
    if stop - 1 > budget:
        raise BudgetExceeded(stop - 1, budget)
    return stop


def children_per_node(k: int, order: int, budget: int) -> int:
    """order**k, the children of one column-distance search node, after
    refusing a search whose root's order**k - 1 children pass budget."""
    qmk = order**k
    if qmk - 1 > budget:
        raise BudgetExceeded(budget + 1, budget)
    return qmk


def expand_rank(codes, q: int, M: int) -> int:
    """Rank over F_q of the M x len matrix whose columns are the base-q
    digit expansions of the given element codes, each in [0, q^M)
    (ValueError otherwise)."""
    if q == 2:
        basis = [0] * M
        r = 0
        try:
            for c in codes:
                while c > 0:
                    top = c.bit_length() - 1
                    if basis[top]:
                        c ^= basis[top]
                    else:
                        basis[top] = c
                        r += 1
                        break
                else:
                    # XOR keeps a code non-negative: only a negative one
                    # leaves the loop nonzero
                    if c:
                        raise IndexError
        except IndexError:
            # a code is negative, or its top bit lies past M
            raise ValueError(f"expected codes in [0, {1 << M})") from None
        return r
    # eliminate on the transpose: each expansion is one row of length M
    rows = []
    for c in codes:
        digs = []
        for _ in range(M):
            c, d = divmod(c, q)
            digs.append(d)
        if c:
            raise ValueError(f"expected codes in [0, {q ** M})")
        rows.append(digs)
    rank = 0
    pivots = []
    for row in rows:
        for pcol, prow in pivots:
            f = row[pcol]
            if f:
                for i in range(M):
                    row[i] = (row[i] - f * prow[i]) % q
        lead = next((i for i, v in enumerate(row) if v), None)
        if lead is None:
            continue
        inv = pow(row[lead], q - 2, q)
        row = [(v * inv) % q for v in row]
        pivots.append((lead, row))
        rank += 1
    return rank


def _vec_matmul(u, mat_rows, q: int, order: int, exp, log, M: int):
    """u (len k) times matrix given as k rows of n codes; returns n codes."""
    n = len(mat_rows[0])
    out = [0] * n
    for r, uv in enumerate(u):
        if uv == 0:
            continue
        row = mat_rows[r]
        lu = log[uv]
        if q == 2:
            for j in range(n):
                m = row[j]
                if m:
                    out[j] ^= exp[(lu + log[m]) % (order - 1)]
        else:
            for j in range(n):
                m = row[j]
                if m:
                    out[j] = _add(out[j], exp[(lu + log[m]) % (order - 1)], q, M)
    return out


def _add(a: int, b: int, q: int, M: int) -> int:
    if q == 2:
        return a ^ b
    out = 0
    p = 1
    for _ in range(M):
        da = (a // p) % q
        db = (b // p) % q
        out += ((da + db) % q) * p
        p *= q
    return out


def _decode_message(idx: int, k: int, order: int):
    u = []
    for _ in range(k):
        idx, d = divmod(idx, order)
        u.append(d)
    return u


def block_min_sum_rank(
    gen_rows,
    parts,
    q: int,
    M: int,
    order: int,
    exp,
    log,
    budget: int,
):
    """Minimum sum-rank weight over all nonzero messages u.  Returns
    (min, enumerated).  A generator without rows has no nonzero message
    and is refused with ValueError, as the compiled kernel refuses it."""
    k = len(gen_rows)
    if not k:
        raise ValueError("need one to INT_MAX generator rows")
    stop = message_stop(k, order, budget)
    offsets = []
    pos = 0
    for p in parts:
        offsets.append((pos, pos + p))
        pos += p
    best = None
    for idx in range(1, stop):
        u = _decode_message(idx, k, order)
        v = _vec_matmul(u, gen_rows, q, order, exp, log, M)
        w = 0
        for a, b in offsets:
            w += expand_rank(v[a:b], q, M)
            if best is not None and w >= best:
                break
        if best is None or w < best:
            best = w
    return best, stop - 1


def _pivots(M: int, n: int):
    """(pivot, ones, mask) of the q = 2 rank step on packed vectors of at
    most n codes: pivot[l] is (b, c*M) locating bit length l's top bit as
    bit b of code c, ones has bit 0 of every code set and mask covers one
    code.  The step XORs code c into every code with bit b set, which clears
    code c and bit b everywhere else:

        b, shift = pivot[v.bit_length()]
        v ^= ((v >> b) & ones) * ((v >> shift) & mask)
    """
    pivot = [None] + [(t % M, t - t % M) for t in range(n * M)]
    return pivot, sum(1 << (c * M) for c in range(n)), (1 << M) - 1


def _packed_ops(q: int, M: int, order: int, n: int):
    """(add, rank_below) on packed vectors of at most n codes over odd q,
    where rank_below(v, cap) is min(rank of v's expansion over F_q, cap).
    Over q = 2 add is XOR and the rank step is ``_pivots``'s, inline."""
    digits = n * M

    def add(a: int, b: int) -> int:
        return _add(a, b, q, digits)

    def rank_below(v: int, cap: int) -> int:
        codes = []
        while v:
            v, c = divmod(v, order)
            codes.append(c)
        return min(expand_rank(codes, q, M), cap)

    return add, rank_below


def _row_tables(rows, order: int, exp, log):
    """For each row of codes, the packed multiples d*row for d in F_{q^M}."""
    period = order - 1
    tables = []
    for row in rows:
        places = [(order**c, log[g]) for c, g in enumerate(row) if g]
        table = [0]
        for d in range(1, order):
            ld = log[d]
            table.append(sum(exp[(ld + lg) % period] * place for place, lg in places))
        tables.append(table)
    return tables


def _high_images(tables, add, base: int, order: int):
    """Yield (h, digits, base + image of digits) for every high index h,
    in order, where message digit r >= 1 is digit r - 1 of h."""
    high_tables = tables[1:]
    for h in range(order ** len(high_tables)):
        acc = base
        digits = []
        x = h
        for table in high_tables:
            x, d = divmod(x, order)
            digits.append(d)
            if d:
                acc = add(acc, table[d])
        yield h, digits, acc


def conv_column_distance(
    coeff_rows,
    k: int,
    n: int,
    j: int,
    q: int,
    M: int,
    order: int,
    exp,
    log,
    budget: int,
    systematic: bool,
):
    """Column sum-rank distances d^0 .. d^j by one pruned depth-first search.

    coeff_rows: list of m+1 coefficient matrices, each as k rows of n
    codes.  Enumerates u_0 != 0 and u_1..u_j over F_{q^M}^k, accumulating
    per-block expansion ranks, abandoning a branch once the partial sum
    reaches the best total found so far.  When the encoder is systematic
    a branch one unit under the best is settled by checking the unique
    all-zero-rank extension instead of enumerating it.

    Every prefix lighter than d^j is visited, so d^t is the least weight
    of blocks 0..t the search meets, or d^j if none is lighter.  Every
    child of a visited node counts as one enumerated node, so a node at
    depth t adds q^(Mk) - [t == 0] at once.

    Returns ([d^0, ..., d^j], enumerated_nodes).
    """
    if j < 0:
        raise ValueError("j must be non-negative")
    m = len(coeff_rows) - 1
    qmk = children_per_node(k, order, budget)
    # over q = 2 the children loops take the rank step inline
    char2 = q == 2
    if char2:
        add = xor
        pivot, ones, mask = _pivots(M, n)
    else:
        add, rank_below = _packed_ops(q, M, order, n)
    # a message block reaches min(j, m) depths past its own, and depth t
    # reads G_0 .. G_min(t, m)
    span = min(j, m)
    tables = [_row_tables(rows, order, exp, log) for rows in coeff_rows[:span + 1]]
    low = tables[0][0]
    best = n * (j + 1) + 1  # strictly above any achievable weight
    # seen[t]: the least weight of blocks 0..t met under the running best
    seen = [best] * (j + 1)
    enumerated = 0

    def rec(t, s, pending):
        """Search below a node at depth t of weight s, whose fixed blocks
        add pending[i] at depth t + i, for the depths up to j they reach."""
        nonlocal best, enumerated
        if systematic and t and s == best - 1:
            # only u_t = .. = u_j = 0 adds no weight: its blocks are pending
            for i, carry in enumerate(pending, t):
                if carry:
                    return
                seen[i] = min(seen[i], s)
            best = s
            return
        # the loop below visits every child; pruning only skips recursion
        enumerated += qmk - (t == 0)
        if enumerated > budget:
            raise BudgetExceeded(budget + 1, budget)
        images = _high_images(tables[0], add, pending[0] if pending else 0, order)
        if t == j:  # every child is a leaf: only the least rank matters
            cap = best - s
            for h, _, head in images:
                for x in low[1:] if t == 0 and h == 0 else low:
                    if char2:
                        v = head ^ x
                        r = 0
                        while v and r < cap:
                            b, shift = pivot[v.bit_length()]
                            v ^= ((v >> b) & ones) * ((v >> shift) & mask)
                            r += 1
                    else:
                        r = rank_below(add(head, x), cap)
                    if r < cap:
                        cap = r
                        if not cap:
                            break
                if not cap:
                    break
            best = s + cap
            return
        # the child at depth t + 1 reaches depths up to min(t + span, j)
        reach = range(1, min(span, j - t) + 1)
        shifted = [pending[i] if i < len(pending) else 0 for i in reach]
        for h, digits, head in images:
            for d in range(1 if t == 0 and h == 0 else 0, order):
                cap = best - s
                if char2:
                    v = head ^ low[d]
                    r = 0
                    while v and r < cap:
                        b, shift = pivot[v.bit_length()]
                        v ^= ((v >> b) & ones) * ((v >> shift) & mask)
                        r += 1
                else:
                    r = rank_below(add(head, low[d]), cap)
                if r < cap:
                    w = s + r
                    seen[t] = min(seen[t], w)
                    u = (d, *digits)
                    below = []
                    for i, acc in zip(reach, shifted):
                        for table, x in zip(tables[i], u):
                            if x:
                                acc = add(acc, table[x])
                        below.append(acc)
                    rec(t + 1, w, below)

    try:
        rec(0, 0, [])
    finally:
        # rec refers to itself: unbind it so the tables go now, not at the
        # next cyclic garbage collection
        rec = None
    return [min(d, best) for d in seen], enumerated
