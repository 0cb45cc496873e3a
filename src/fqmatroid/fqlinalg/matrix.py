"""Exact column-indexed matrices over F_q and incremental elimination.

A matrix is a tuple of columns, each column a tuple of field elements
(integers in [0, q)).  Elimination outside numpy runs on two undoable
echelon spans: Span2 over packed GF(2) integers with XOR, and SpanQ over
lists with table-driven field arithmetic.  Contraction, E2's packed
sampler and the matroid searches use them directly.  RrefState puts three
engines behind one interface, each over rows that carry their
combination of the pushed columns: gf2 lays its packed rows out as
Span2 does, generic is a SpanQ, and prime serves prime fields with many
rows.  At p = 3 prime runs on two bit planes of Python ints (the GF(3)
layout of Boothby and Bradshaw, arXiv:0901.1413); at p >= 5 it is a
numpy [row | combo] block.  All engines produce identical ranks and
kernel vectors.  The packed GF(2) and GF(3) rows sit in preallocated
lists indexed by bit length, so a reduction step is one bit_length() and
one list index.  Each engine has one push path, push_run, which pushes
a run of columns up to the first dependent one in one call; at p = 2
and 3 the reduction loop runs inside it, so a run pays the call
overhead once, not once per column.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidParam
from .fields import FieldSpec

# below this many rows the vectorized engine loses to plain tuples
_NUMPY_MIN_N = 24


def engine_name(field: FieldSpec, n: int) -> str:
    if field.q == 2:
        return "gf2"
    if field.e == 1 and n >= _NUMPY_MIN_N:
        return "prime"
    return "generic"


def pack_gf2(column) -> int:
    """Tuple of 0/1 entries -> integer with bit i = row i."""
    v = 0
    for i, c in enumerate(column):
        if c:
            v |= 1 << i
    return v


def _pack_gf3(column) -> int:
    """Tuple over F_3 -> P | M << n, where P has bit i set when entry i is
    1 and M when it is 2."""
    return pack_gf2(x == 1 for x in column) | pack_gf2(x == 2 for x in column) << len(column)


def _pack_rows(bits: np.ndarray) -> list[int]:
    """Each row of a 0/1 array as an integer with bit j = entry j: one
    integer matmul up to 64 columns, else packbits and int.from_bytes."""
    if bits.shape[1] <= 64:
        return (bits.astype(np.uint64) @ (np.uint64(1) << np.arange(
            bits.shape[1], dtype=np.uint64))).tolist()
    w = (bits.shape[1] + 7) // 8
    buf = np.packbits(bits, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(buf[i * w:(i + 1) * w], "little") for i in range(len(bits))]


class Span2:
    """Undoable echelon span of packed GF(2) vectors of at most `bits` bits.

    rows[t] holds the row of bit length t, so its pivot is its top bit
    t - 1 and no other row has that top bit; rows are not reduced
    against later pivots.  pop() undoes a push.
    """

    __slots__ = ("rows",)

    def __init__(self, bits: int):
        self.rows = [None] * (bits + 1)  # bit length -> packed row or None

    def push(self, v: int):
        """Add v; return its pivot, or None when v lies in the span."""
        rows = self.rows
        while v:
            t = v.bit_length()
            r = rows[t]
            if r is None:
                rows[t] = v
                return t - 1
            v ^= r
        return None

    def pop(self, pivot: int) -> int:
        rows = self.rows
        r = rows[pivot + 1]
        rows[pivot + 1] = None
        return r

    def common_reaches(self, other: "Span2", cols, need: int) -> bool:
        """Whether a greedy set of cols independent over both this span and
        other reaches size need; the walk stops once it does, or once the
        columns left cannot bring it there.  It reduces each column inline
        against copies of both row tables, so neither span changes."""
        rows1, rows2 = self.rows[:], other.rows[:]
        kept, left = 0, len(cols)
        for v in cols:
            if kept + left < need:
                break
            left -= 1
            # rows[0] is always None, so a reduction ends at t = 0 on zero
            t = v.bit_length()
            a, t1, r = v, t, rows1[t]
            while r is not None:
                a ^= r
                t1 = a.bit_length()
                r = rows1[t1]
            if not t1:
                continue
            b, t2, r = v, t, rows2[t]
            while r is not None:
                b ^= r
                t2 = b.bit_length()
                r = rows2[t2]
            if not t2:
                continue
            rows1[t1], rows2[t2] = a, b
            kept += 1
            if kept == need:
                break
        return kept >= need


class SpanQ:
    """Undoable echelon span of lists over F_q.

    A row's pivot is its first nonzero among the first n entries, where
    the row is scaled to 1; no other row has that pivot.  Entries past n
    ride along as a tag and never pick a pivot.  Rows are stored as
    pushed, so a vector pushed or reduced must be at least as long as
    every row.  pop() undoes a push.
    """

    __slots__ = ("field", "n", "rows")

    def __init__(self, field: FieldSpec, n: int):
        self.field = field
        self.n = n
        self.rows = {}  # pivot position -> row list

    def push(self, v):
        """Add v; return its pivot, or None when v lies in the span."""
        return self._insert(self.reduce(v))

    def pop(self, pivot: int) -> list:
        return self.rows.pop(pivot)

    def common_reaches(self, other: "SpanQ", cols, need: int) -> bool:
        """As Span2.common_reaches, by pushing each column on both spans
        and popping every push before it returns."""
        kept = []
        left = len(cols)
        for col in cols:
            if len(kept) + left < need:
                break
            left -= 1
            p1 = self.push(col)
            if p1 is None:
                continue
            p2 = other.push(col)
            if p2 is None:
                self.pop(p1)
            else:
                kept.append((p1, p2))
                if len(kept) == need:
                    break
        for p1, p2 in kept:
            other.pop(p2)
            self.pop(p1)
        return len(kept) >= need

    def reduce(self, v) -> list:
        """v minus the rows that clear it at every pivot, as a new list."""
        F = self.field
        v = list(v)
        rows = self.rows
        for pos in range(self.n):
            c = v[pos]
            if c:
                row = rows.get(pos)
                if row is not None:
                    for i in range(pos, len(row)):
                        if row[i]:
                            v[i] = F.sub(v[i], F.mul(c, row[i]))
        return v

    def _insert(self, v: list):
        """Store a reduced v under its pivot; None when v has none."""
        for pos in range(self.n):
            if v[pos]:
                s = self.field.inv(v[pos])
                self.rows[pos] = [self.field.mul(s, x) for x in v]
                return pos
        return None


class _Gf2Rref:
    """Echelon basis over GF(2) of packed (column << (n + 1)) | combo rows.

    As in Span2, rows[t] holds the row of bit length t, and rows are not
    reduced against later pivots.  The low n + 1 bits of a row write it
    as a sum of independent columns, one bit per slot, so a dependent
    push reads its kernel vector off what is left of it.
    """

    __slots__ = ("width", "rows", "slots", "ncols")

    def __init__(self, n: int):
        self.width = n + 1  # one bit per slot, and one for the pushed column
        self.rows = [None] * (2 * n + 2)  # bit length -> packed row or None
        self.slots = []  # slot -> original column index
        self.ncols = 0

    def push_run(self, cols):
        rows = self.rows
        w = self.width
        slots = self.slots
        start = idx = self.ncols
        for v in cols:
            own = 1 << len(slots)
            v = (v << w) | own
            t = v.bit_length()
            r = rows[t]
            while r is not None:
                v ^= r
                t = v.bit_length()
                r = rows[t]
            idx += 1
            if t > w:
                rows[t] = v
                slots.append(idx - 1)
                continue
            # the column part cleared: v is the combo, own bit on top
            self.ncols = idx
            c = v ^ own
            dep = {idx - 1: 1}
            while c:
                b = c & -c
                dep[slots[b.bit_length() - 1]] = 1
                c ^= b
            return idx - start, dep
        self.ncols = idx
        return idx - start, None


class _Gf3Rref:
    """Echelon basis over F_3 on two bit planes, each as in _Gf2Rref.

    A row is a pair (P, M) of (column << (n + 1)) | combo integers: P has
    a bit where the entry is 1 and M where it is 2, so negating a row
    swaps its planes.  As in Span2, rows[t] holds the row whose P | M has
    bit length t; rows are scaled to pivot entry 1, which puts the pivot
    bit in P, the larger plane.  A pushed column takes the native form
    P | M << n.
    """

    __slots__ = ("n", "width", "rows", "slots", "ncols")

    def __init__(self, n: int):
        self.n = n
        self.width = n + 1
        self.rows = [None] * (2 * n + 2)  # bit length of P | M -> (P, M)
        self.slots = []
        self.ncols = 0

    def push_run(self, cols):
        n = self.n
        w = self.width
        low = (1 << n) - 1
        slots = self.slots
        rows = self.rows
        start = idx = self.ncols
        for v in cols:
            own = 1 << len(slots)
            P = ((v & low) << w) | own
            M = (v >> n) << w
            idx += 1
            while True:
                t = (P | M).bit_length()
                if t <= w:
                    break
                r = rows[t]
                if r is None:
                    rows[t] = (P, M) if P > M else (M, P)
                    slots.append(idx - 1)
                    break
                # clear the pivot: add the row negated where v has a 1 there
                if P > M:
                    m2, p2 = r
                else:
                    p2, m2 = r
                x = (P | m2) ^ (M | p2)
                P, M = (M | m2) ^ x, (P | p2) ^ x
            if t > w:
                continue
            self.ncols = idx
            P ^= own
            dep = {idx - 1: 1}
            c = P | M
            while c:
                b = c & -c
                dep[slots[b.bit_length() - 1]] = 1 if P & b else 2
                c ^= b
            return idx - start, dep
        self.ncols = idx
        return idx - start, None


class _ByColumn:
    """push_run for an engine whose reduction is one array or list
    operation per column, _push(column) -> dependency or None."""

    __slots__ = ()

    def push_run(self, cols):
        start = self.ncols
        for v in cols:
            dep = self._push(v)
            if dep is not None:
                return self.ncols - start, dep
        return self.ncols - start, None


class _PrimeRref(_ByColumn):
    """Reduced echelon basis over a prime field, vectorized with numpy.

    Basis rows and their expressions over original columns share one
    (n, 2n) block [row | combo], so a push is a single matmul plus a
    single rank-one update.
    """

    __slots__ = ("field", "n", "p", "W", "piv", "slots", "ncols")

    def __init__(self, field: FieldSpec, n: int):
        self.field = field
        self.n = n
        self.p = field.p
        self.W = np.zeros((n, 2 * n), dtype=np.int64)
        self.piv = []
        self.slots = []
        self.ncols = 0

    def _push(self, v: np.ndarray):
        idx = self.ncols
        self.ncols = idx + 1
        p = self.p
        n = self.n
        r = len(self.piv)
        full = np.zeros(2 * n, dtype=np.int64)
        full[:n] = v
        if r:
            full = (full - full[self.piv] @ self.W[:r]) % p
        else:
            full %= p
        nz = np.nonzero(full[:n])[0]
        if nz.size == 0:
            dep = {idx: 1}
            for j in np.nonzero(full[n:])[0]:
                dep[self.slots[j]] = int(full[n + j])
            return dep
        pos = int(nz[0])
        s = self.field.inv(int(full[pos]))
        row = (s * full) % p
        row[n + r] = (row[n + r] + s) % p
        if r:
            f = self.W[:r, pos]
            hit = np.nonzero(f)[0]
            if hit.size:
                w = n + r + 1  # columns past n + r are zero in every row
                c = f[hit]
                if p <= hit.size:
                    # reduced multiples c*row from a table over all residues;
                    # fold (-p, p) into [0, p) without a modulo
                    mult = (np.arange(p)[:, None] * row[:w]) % p
                    blk = self.W[hit, :w] - mult[c]
                    blk += (blk >> 63) & p
                else:
                    blk = (self.W[hit, :w] - np.outer(c, row[:w])) % p
                self.W[hit, :w] = blk
        self.W[r] = row
        self.piv.append(pos)
        self.slots.append(idx)
        return None


class _GenericRref(_ByColumn, SpanQ):
    """SpanQ over [column | combo] rows with table-driven field arithmetic.

    As in _PrimeRref, the combo writes a row over the independent
    columns, one entry per slot; a column pushed at rank r is cut to the
    live width n + r + 1, its own slot last.
    """

    __slots__ = ("slots", "ncols")

    def __init__(self, field: FieldSpec, n: int):
        super().__init__(field, n)
        self.slots = []
        self.ncols = 0

    def _push(self, column):
        idx = self.ncols
        self.ncols = idx + 1
        slots = self.slots
        w = self.reduce(list(column) + [0] * len(slots) + [1])
        if self._insert(w) is not None:
            slots.append(idx)
            return None
        dep = {idx: 1}
        for j, c in enumerate(w[self.n:-1]):
            if c:
                dep[slots[j]] = c
        return dep


def _to_native(field: FieldSpec, engine: str, column):
    """A column tuple in `engine`'s form."""
    if engine == "gf2":
        return pack_gf2(column)
    if engine == "prime":
        return _pack_gf3(column) if field.q == 3 else np.asarray(column, dtype=np.int64)
    return column


class RrefState:
    """Incremental elimination state over the columns pushed so far.

    push_run(cols) takes columns in the engine's native form, as
    FqMatrix.native_columns and pack_native give them, from a list or an
    iterator.  It pushes them in order and stops after the first one that
    depends on the columns before it, drawing no further column from an
    iterator.  It returns (pushed, dep): how many columns it pushed, and
    None when all of them were independent, or else a kernel vector of
    the matrix-so-far as a sparse {column index: coefficient} dict whose
    support includes the last pushed column.  push(column) is
    push_run((column,))[1].  The incremental rank matches batch
    elimination exactly.  The engine label "prime" covers both
    prime-field engines, the bitsliced one at p = 3.
    """

    __slots__ = ("engine", "_core")

    def __init__(self, field: FieldSpec, n: int):
        self.engine = engine_name(field, n)
        if self.engine == "gf2":
            self._core = _Gf2Rref(n)
        elif self.engine == "prime":
            self._core = _Gf3Rref(n) if field.q == 3 else _PrimeRref(field, n)
        else:
            self._core = _GenericRref(field, n)

    def push_run(self, cols) -> tuple[int, dict | None]:
        return self._core.push_run(cols)

    def push(self, column) -> dict | None:
        return self._core.push_run((column,))[1]

    @property
    def rank(self) -> int:
        return len(self._core.slots)

    @property
    def corank(self) -> int:
        return self._core.ncols - len(self._core.slots)


class FqMatrix:
    """Immutable n-row matrix over F_q, stored column-wise.

    FqMatrix(...) checks that the columns have n entries each, all in
    [0, q).  Only code that made the entries itself skips that check, by
    building through _trusted: random_uniform_matrix (entries from
    uniform_rows), delete and contract (columns of a checked matrix and
    their reductions), process.sample_pg_model (projective points) and
    ProcessState.matrix (the drawn store).
    random_uniform_matrix also keeps its (m, n) draw, so the first
    native_columns() packs it in one pack_native call.
    """

    __slots__ = ("field", "n", "m", "columns", "_rank", "_native_cols", "_drawn")

    def __init__(self, field: FieldSpec, columns, n: int | None = None):
        cols = tuple(tuple(int(x) for x in col) for col in columns)
        if n is None:
            if not cols:
                raise InvalidParam("row count required for an empty matrix")
            n = len(cols[0])
        q = field.q
        for col in cols:
            if len(col) != n:
                raise InvalidParam("ragged columns")
            for x in col:
                if not 0 <= x < q:
                    raise InvalidParam(f"entry {x} outside [0, {q})")
        self._fill(field, cols, n, None, None)

    def _fill(self, field: FieldSpec, cols: tuple, n: int, native, drawn,
              rank=None) -> None:
        self.field = field
        self.n = n
        self.m = len(cols)
        self.columns = cols
        self._rank = rank
        self._native_cols = native
        self._drawn = drawn

    @classmethod
    def _trusted(cls, field: FieldSpec, cols: tuple, n: int, native=None,
                 drawn=None, rank=None) -> "FqMatrix":
        """A matrix of `cols`, a tuple of n-tuples of Python ints in [0, q),
        unchecked; `native`, when given, is the list native_columns would
        build (the engine form of every column), `drawn`, when given, the
        same columns as the rows of an (m, n) integer array, and `rank`,
        when given, their rank."""
        self = object.__new__(cls)
        self._fill(field, cols, n, native, drawn, rank)
        return self

    def native_columns(self) -> list:
        """Columns in the elimination engine's preferred representation."""
        if self._native_cols is None:
            if self._drawn is not None:
                self._native_cols = pack_native(self.field, self.n, self._drawn)
                self._drawn = None
            else:
                eng = engine_name(self.field, self.n)
                self._native_cols = [_to_native(self.field, eng, c) for c in self.columns]
        return self._native_cols

    @property
    def rank(self) -> int:
        if self._rank is None:
            self._rank = self.rank_of(range(self.m))
        return self._rank

    def rank_of(self, indices) -> int:
        """Rank of the columns in `indices`."""
        st = RrefState(self.field, self.n)
        native = self.native_columns()
        for i in indices:
            if not 0 <= i < self.m:
                raise InvalidParam(f"column index {i} out of range")
            st.push(native[i])
        return st.rank

    def kernel_basis(self) -> list[tuple]:
        """Kernel vectors indexed by dependent columns; len = m - rank."""
        st = RrefState(self.field, self.n)
        out = []
        for col in self.native_columns():
            dep = st.push(col)
            if dep is not None:
                out.append(tuple(dep.get(i, 0) for i in range(self.m)))
        return out

    def delete(self, indices) -> "FqMatrix":
        drop = set(indices)
        for i in drop:
            if not 0 <= i < self.m:
                raise InvalidParam(f"column index {i} out of range")
        keep = [i for i in range(self.m) if i not in drop]
        native = self._native_cols
        return FqMatrix._trusted(
            self.field, tuple(self.columns[i] for i in keep), self.n,
            None if native is None else [native[i] for i in keep])

    def contract(self, indices) -> "FqMatrix":
        """Contract the columns in `indices` and drop them.

        The other columns are reduced modulo span(indices) and keep the
        rows that are not pivots of that span: the quotient
        representation, with n - rank(indices) rows and the other
        columns in their original order.
        """
        X = set(indices)
        for i in X:
            if not 0 <= i < self.m:
                raise InvalidParam(f"column index {i} out of range")
        span = SpanQ(self.field, self.n)
        for x in X:
            span.push(self.columns[x])
        keep = [r for r in range(self.n) if r not in span.rows]
        cols = [span.reduce(c) for j, c in enumerate(self.columns) if j not in X]
        return FqMatrix._trusted(self.field, tuple(tuple(v[r] for r in keep) for v in cols),
                                 len(keep))

    def __eq__(self, other):
        return (
            isinstance(other, FqMatrix)
            and self.field.q == other.field.q
            and self.n == other.n
            and self.columns == other.columns
        )

    def __hash__(self):
        return hash((self.field.q, self.n, self.columns))

    def __repr__(self):
        return f"FqMatrix(q={self.field.q}, n={self.n}, m={self.m})"


def uniform_rows(field: FieldSpec, n: int, count: int, rng) -> np.ndarray:
    """The (count, n) int64 array rng.integers(0, q, size=(count, n))
    returns, leaving rng to draw on as that call would: the one uniform
    column draw of the package, one row per column.

    At q = 2 numpy's bounded draw (Lemire's multiply-shift, which never
    rejects at range 2) takes each value as bit 31 of a 32-bit half of a
    raw word, low half first.  So when rng is a Philox with no half word
    buffered and count * n is even, the values are read from count * n / 2
    random_raw words; otherwise rng.integers draws them."""
    bits = rng.bit_generator
    # an odd count * n leaves rng.integers a half word buffered, and a
    # buffered half would be its first value; viewing little-endian words
    # as little-endian halves puts each low half first on either byte order
    if (field.q == 2 and count * n % 2 == 0 and isinstance(bits, np.random.Philox)
            and bits.state["has_uint32"] == 0):
        halves = bits.random_raw(count * n // 2).astype("<u8", copy=False).view("<u4")
        return (halves >> 31).astype(np.int64).reshape(count, n)
    return rng.integers(0, field.q, size=(count, n))


def draw_native_column(field: FieldSpec, n: int, rng, count: int) -> list:
    """`count` uniform columns in engine-native form, the rows of one
    uniform_rows draw: for Philox, the same stream as `count` single-column
    draws."""
    return pack_native(field, n, uniform_rows(field, n, count, rng))


def pack_native(field: FieldSpec, n: int, rows: np.ndarray) -> list:
    """The rows of a (count, n) integer array of field elements as columns in
    engine-native form; the prime engine at p >= 5 gets int64 rows, the only
    case that copies rows of another dtype."""
    eng = engine_name(field, n)
    if eng == "gf2":
        return _pack_rows(rows.astype(np.uint8, copy=False))
    if eng == "prime" and field.q == 3:
        return _pack_rows(np.concatenate([rows == 1, rows == 2], axis=1))
    if eng == "prime":
        return list(rows.astype(np.int64, copy=False))
    return [tuple(r) for r in rows.tolist()]


def random_uniform_matrix(field: FieldSpec, n: int, m: int, rng) -> FqMatrix:
    """n x m matrix with i.i.d. uniform entries, drawn column by column: the
    uniform_rows draw draw_native_column(field, n, rng, m) reads.  The draw
    is kept and packed on the first native_columns()."""
    drawn = uniform_rows(field, n, m, rng)
    return FqMatrix._trusted(field, tuple(map(tuple, drawn.tolist())), n, drawn=drawn)
