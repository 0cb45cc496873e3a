"""Exact column-indexed matrices over F_q and incremental elimination.

A matrix is a tuple of columns, each column a tuple of field elements
(integers in [0, q)).  Three elimination engines sit behind a common
interface: GF(2) packs columns into machine integers and eliminates with
XOR, prime fields use vectorized residue arithmetic, and extension
fields fall back to table-driven scalar operations.  All three produce
identical ranks, dependencies, and kernels.
"""

from __future__ import annotations

import numpy as np

from ..errors import InvalidParam
from .fields import FieldSpec, make_field

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


def unpack_gf2(v: int, n: int) -> tuple:
    return tuple((v >> i) & 1 for i in range(n))


class _Gf2Rref:
    """Non-reduced echelon basis of pushed columns, packed into ints.

    Each basis entry keeps the combination of original columns it equals,
    as a bitmask over independent-column slots, so a dependent push can
    report its kernel vector without re-elimination.
    """

    __slots__ = ("n", "rows", "combos", "slots", "ncols")

    def __init__(self, n: int):
        self.n = n
        self.rows = {}  # pivot bit -> packed row
        self.combos = {}  # pivot bit -> bitmask over slots
        self.slots = []  # slot -> original column index
        self.ncols = 0

    @property
    def rank(self):
        return len(self.slots)

    def push(self, v: int):
        idx = self.ncols
        self.ncols = idx + 1
        c = 0
        rows = self.rows
        combos = self.combos
        while v:
            t = v.bit_length() - 1
            r = rows.get(t)
            if r is None:
                rows[t] = v
                combos[t] = c | (1 << len(self.slots))
                self.slots.append(idx)
                return None
            v ^= r
            c ^= combos[t]
        dep = {idx: 1}
        slots = self.slots
        while c:
            b = c & -c
            dep[slots[b.bit_length() - 1]] = 1
            c ^= b
        return dep

    def in_span(self, v: int) -> bool:
        rows = self.rows
        while v:
            r = rows.get(v.bit_length() - 1)
            if r is None:
                return False
            v ^= r
        return True


class _PrimeRref:
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

    @property
    def rank(self):
        return len(self.piv)

    def push(self, v: np.ndarray):
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

    def in_span(self, v: np.ndarray) -> bool:
        r = len(self.piv)
        if r == 0:
            return not np.any(v % self.p)
        res = (v - v[self.piv] @ self.W[:r, : self.n]) % self.p
        return not np.any(res)


class _GenericRref:
    """Non-reduced echelon basis with table-driven field arithmetic."""

    __slots__ = ("field", "n", "entries", "slots", "ncols")

    def __init__(self, field: FieldSpec, n: int):
        self.field = field
        self.n = n
        self.entries = {}  # pivot position -> (row list, combo dict slot->coef)
        self.slots = []
        self.ncols = 0

    @property
    def rank(self):
        return len(self.slots)

    def push(self, column):
        idx = self.ncols
        self.ncols = idx + 1
        F = self.field
        v = list(column)
        c = {}
        pos = 0
        n = self.n
        while pos < n:
            if v[pos] == 0:
                pos += 1
                continue
            hit = self.entries.get(pos)
            if hit is None:
                s = F.inv(v[pos])
                row = [F.mul(s, x) for x in v]
                combo = {j: F.neg(F.mul(s, cj)) for j, cj in c.items() if cj}
                combo[len(self.slots)] = s
                self.entries[pos] = (row, combo)
                self.slots.append(idx)
                return None
            row, rcombo = hit
            coef = v[pos]
            for i in range(pos, n):
                if row[i]:
                    v[i] = F.sub(v[i], F.mul(coef, row[i]))
            for j, cj in rcombo.items():
                c[j] = F.add(c.get(j, 0), F.mul(coef, cj))
        dep = {idx: 1}
        for j, cj in c.items():
            if cj:
                dep[self.slots[j]] = F.neg(cj)
        return dep

    def in_span(self, column) -> bool:
        F = self.field
        v = list(column)
        pos = 0
        while pos < self.n:
            if v[pos] == 0:
                pos += 1
                continue
            hit = self.entries.get(pos)
            if hit is None:
                return False
            row = hit[0]
            coef = v[pos]
            for i in range(pos, self.n):
                if row[i]:
                    v[i] = F.sub(v[i], F.mul(coef, row[i]))
        return True


def _to_native(engine: str, column):
    """A column tuple (or an engine-native column) in `engine`'s form."""
    if engine == "gf2":
        return column if isinstance(column, int) else pack_gf2(column)
    if engine == "prime":
        return column if isinstance(column, np.ndarray) else np.asarray(column, dtype=np.int64)
    return column


class RrefState:
    """Incremental elimination state over the columns pushed so far.

    push() returns None when the new column is independent of the span,
    or a kernel vector of the matrix-so-far as a sparse {column index:
    coefficient} dict whose support always includes the new column.  The
    incremental rank matches batch elimination exactly.
    """

    __slots__ = ("field", "n", "engine", "_impl")

    def __init__(self, field: FieldSpec, n: int, engine: str = "auto"):
        if engine == "auto":
            engine = engine_name(field, n)
        self.field = field
        self.n = n
        self.engine = engine
        if engine == "gf2":
            self._impl = _Gf2Rref(n)
        elif engine == "prime":
            self._impl = _PrimeRref(field, n)
        elif engine == "generic":
            self._impl = _GenericRref(field, n)
        else:
            raise InvalidParam(f"unknown engine {engine!r}")

    def push(self, column):
        return self._impl.push(_to_native(self.engine, column))

    def in_span(self, column) -> bool:
        return self._impl.in_span(_to_native(self.engine, column))

    @property
    def rank(self) -> int:
        return self._impl.rank

    @property
    def ncols(self) -> int:
        return self._impl.ncols

    @property
    def corank(self) -> int:
        return self._impl.ncols - self._impl.rank


class FqMatrix:
    """Immutable n-row matrix over F_q, stored column-wise."""

    __slots__ = ("field", "n", "m", "columns", "_rank", "_native_cols")

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
        self.field = field
        self.n = n
        self.m = len(cols)
        self.columns = cols
        self._rank = None
        self._native_cols = None

    @classmethod
    def from_rows(cls, field: FieldSpec, rows):
        rows = [list(r) for r in rows]
        if rows:
            m = len(rows[0])
            cols = [tuple(r[j] for r in rows) for j in range(m)]
        else:
            cols = []
        return cls(field, cols, n=len(rows))

    def rows(self) -> list[tuple]:
        return [tuple(col[i] for col in self.columns) for i in range(self.n)]

    def native_columns(self) -> list:
        """Columns in the elimination engine's preferred representation."""
        if self._native_cols is None:
            eng = engine_name(self.field, self.n)
            self._native_cols = [_to_native(eng, c) for c in self.columns]
        return self._native_cols

    @property
    def rank(self) -> int:
        if self._rank is None:
            st = RrefState(self.field, self.n)
            for col in self.native_columns():
                st.push(col)
            self._rank = st.rank
        return self._rank

    def rank_of(self, indices) -> int:
        st = RrefState(self.field, self.n)
        native = self.native_columns()
        for i in indices:
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
        return FqMatrix(
            self.field, [c for i, c in enumerate(self.columns) if i not in drop], n=self.n
        )

    def submatrix(self, indices) -> "FqMatrix":
        return FqMatrix(self.field, [self.columns[i] for i in indices], n=self.n)

    def contract(self, indices) -> "FqMatrix":
        """Contract the columns in `indices` and drop them.

        Rows are pivoted on the contracted columns so that the remaining
        rows represent the quotient; the result has n - rank(indices)
        rows and keeps the other columns in their original order.
        """
        X = sorted(set(indices))
        for i in X:
            if not 0 <= i < self.m:
                raise InvalidParam(f"column index {i} out of range")
        F = self.field
        rows = [list(r) for r in self.rows()]
        used = [False] * self.n
        for x in X:
            prow = None
            for r in range(self.n):
                if not used[r] and rows[r][x] != 0:
                    prow = r
                    break
            if prow is None:
                continue  # column dependent on earlier contracted ones
            used[prow] = True
            s = F.inv(rows[prow][x])
            rows[prow] = [F.mul(s, v) for v in rows[prow]]
            for r in range(self.n):
                if r != prow and rows[r][x] != 0:
                    coef = rows[r][x]
                    rows[r] = [F.sub(a, F.mul(coef, b)) for a, b in zip(rows[r], rows[prow])]
        keep_cols = [j for j in range(self.m) if j not in set(X)]
        out_rows = [[rows[r][j] for j in keep_cols] for r in range(self.n) if not used[r]]
        return FqMatrix(F, [tuple(row[i] for row in out_rows) for i in range(len(keep_cols))],
                        n=self.n - sum(used))

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


def draw_native_column(field: FieldSpec, n: int, rng, count: int | None = None):
    """One uniform column in engine-native form, or a list of `count` columns
    from one (count, n) draw: for Philox, the same stream as single draws."""
    raw = rng.integers(0, field.q, size=(1 if count is None else count, n))
    eng = engine_name(field, n)
    if eng == "gf2":
        w = (n + 7) // 8
        buf = np.packbits(raw.astype(np.uint8), axis=1, bitorder="little").tobytes()
        cols = [int.from_bytes(buf[i * w:(i + 1) * w], "little") for i in range(len(raw))]
    elif eng == "prime":
        cols = list(raw)
    else:
        cols = [tuple(r) for r in raw.tolist()]
    return cols[0] if count is None else cols


def native_to_tuple(field: FieldSpec, n: int, native) -> tuple:
    if isinstance(native, int):
        return unpack_gf2(native, n)
    if isinstance(native, np.ndarray):
        return tuple(int(x) for x in native)
    return tuple(native)


def random_uniform_matrix(field: FieldSpec, n: int, m: int, rng) -> FqMatrix:
    """n x m matrix with i.i.d. uniform entries, drawn column by column."""
    cols = [native_to_tuple(field, n, c) for c in draw_native_column(field, n, rng, count=m)]
    return FqMatrix(field, cols, n=n)


def format_matrix_text(mat: FqMatrix) -> str:
    """Serialize as a 'q n m' header line plus n rows of m entries."""
    lines = [f"{mat.field.q} {mat.n} {mat.m}"]
    for row in mat.rows():
        lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix_text(text: str) -> FqMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidParam("empty matrix text")
    head = lines[0].split()
    if len(head) != 3:
        raise InvalidParam("header must be 'q n m'")
    q, n, m = (int(x) for x in head)
    field = make_field(q)
    body = lines[1:]
    if len(body) != n:
        raise InvalidParam(f"expected {n} rows, found {len(body)}")
    rows = []
    for ln in body:
        row = [int(x) for x in ln.split()]
        if len(row) != m:
            raise InvalidParam(f"expected {m} entries per row")
        rows.append(row)
    return FqMatrix.from_rows(field, rows)
