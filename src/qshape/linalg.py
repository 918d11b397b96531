"""Dense-contract, sparse-engine exact linear algebra.

The public surface (Matrix, rref, kernel_basis, subspace_ops) works with
dense row lists as in the type contract.  Internally everything runs on
sparse vectors (dict index -> nonzero scalar), which is what the rest of
the package uses directly: structure constants, action matrices and hom
systems are mostly zeros.
"""

from .fields import check_same_field


# ---------------------------------------------------------------------------
# sparse vectors
# ---------------------------------------------------------------------------

def vec_from_list(field, entries):
    return {i: field.coerce(x) for i, x in enumerate(entries) if not field.is_zero(field.coerce(x))}


def vec_to_list(field, vec, length):
    out = [field.zero()] * length
    for i, x in vec.items():
        out[i] = x
    return out


def vec_scale(field, vec, c):
    if field.is_zero(c):
        return {}
    return {i: field.mul(x, c) for i, x in vec.items()}


def vec_iadd_scaled(field, acc, w, c):
    """acc += c*w in place; returns acc.

    Costs O(nnz(w)).  Use it where acc is a fresh local accumulator; where
    the caller's vector must survive, use vec_add_scaled.  Entries of w are
    nonzero, so c*x needs no zero test where acc has no entry yet.
    """
    if field.is_zero(c):
        return acc
    add, mul, is_zero, get = field.add, field.mul, field.is_zero, acc.get
    for i, x in w.items():
        y = get(i)
        if y is None:
            acc[i] = mul(c, x)
            continue
        y = add(y, mul(c, x))
        if is_zero(y):
            del acc[i]
        else:
            acc[i] = y
    return acc


def vec_add_scaled(field, v, w, c):
    """Return v + c*w as a fresh sparse vector."""
    return vec_iadd_scaled(field, dict(v), w, c)


class Echelon:
    """Incremental row-echelon store for sparse vectors.

    Rows are kept fully reduced (pivot entry 1, pivot column eliminated
    from every other row), so the row set is the canonical reduced echelon
    basis of the span.  Optional tags follow each row through the same row
    operations, which lets callers express reduced vectors as combinations
    of the inserted ones; the tags of the inserts that reduced to zero are
    kept in `relations`, a basis of the linear relations among them.

    holders maps each non-pivot column to the set of pivots whose rows have
    an entry there (no empty sets, no pivot columns), so an insert
    back-eliminates its new pivot from exactly the rows that hold it.
    """

    def __init__(self, field, tagged=False):
        self.field = field
        self.rows = {}  # pivot -> vec
        self.holders = {}  # non-pivot column -> {pivots of rows holding it}
        self.tags = {} if tagged else None
        self.relations = [] if tagged else None
        self.tagged = tagged
        self.count = 0  # number of vectors inserted so far (for tag indexing)

    @property
    def dim(self):
        return len(self.rows)

    def _reduce(self, vec, tag=None):
        # rows keep the invariant that no row touches another row's pivot
        # column, so subtracting a row never brings in a new pivot: one pass
        # over the pivots already present in vec, in any order, reduces it
        f = self.field
        rows = self.rows
        vec = dict(vec)
        if tag is not None:
            tag = dict(tag)
        for p in [p for p in vec if p in rows]:
            c = f.neg(vec[p])
            vec_iadd_scaled(f, vec, rows[p], c)
            if tag is not None:
                vec_iadd_scaled(f, tag, self.tags[p], c)
        return vec, tag

    def reduce(self, vec):
        res, _ = self._reduce(vec)
        return res

    def contains(self, vec):
        return not self.reduce(vec)

    def insert(self, vec, tag=None):
        """Insert a vector; returns True if it enlarged the span."""
        f = self.field
        if self.tagged and tag is None:
            tag = {self.count: f.one()}
        self.count += 1
        vec, tag = self._reduce(vec, tag)
        if not vec:
            if self.tagged:
                self.relations.append(tag)
            return False
        lead = min(vec)
        c = f.inv(vec[lead])
        vec = vec_scale(f, vec, c)
        if tag is not None:
            tag = vec_scale(f, tag, c)
        rest = [k for k in vec if k != lead]
        holders = self.holders
        # back-eliminate the new pivot from the rows that hold it; only the
        # columns of vec can change in those rows
        for p in holders.pop(lead, ()):
            row = self.rows[p]
            x = f.neg(row[lead])
            # rows are handed out by basis(), so they are replaced, not
            # updated; tags stay private and are updated in place
            row = self.rows[p] = vec_add_scaled(f, row, vec, x)
            if self.tagged:
                vec_iadd_scaled(f, self.tags[p], tag, x)
            for k in rest:
                held = holders.get(k)
                if k in row:
                    if held is None:
                        holders[k] = {p}
                    else:
                        held.add(p)
                elif held is not None:
                    held.discard(p)
                    if not held:
                        del holders[k]
        for k in rest:
            held = holders.get(k)
            if held is None:
                holders[k] = {lead}
            else:
                held.add(lead)
        self.rows[lead] = vec
        if self.tagged:
            self.tags[lead] = tag
        return True

    def extend(self, vecs):
        for v in vecs:
            self.insert(v)

    def basis(self):
        """Canonical reduced basis, ordered by pivot."""
        return [self.rows[p] for p in sorted(self.rows)]

    def pivots(self):
        return sorted(self.rows)

    def express(self, vec):
        """Coefficients writing vec as a combination of the *inserted* vectors.

        Requires the store to be tagged.  Returns a sparse coefficient
        vector indexed by insertion order, or None when vec is outside the
        span.
        """
        assert self.tagged
        f = self.field
        res, tag = self._reduce(vec, {})
        if res:
            return None
        return {i: f.neg(c) for i, c in tag.items()}


def span_basis(field, vecs):
    ech = Echelon(field)
    ech.extend(vecs)
    return ech.basis()


def sparse_rref(field, rows):
    """Reduced row echelon form of a list of sparse rows.

    Returns (rows_by_pivot, pivots) with rows fully reduced and normalized.
    """
    ech = Echelon(field)
    ech.extend(rows)
    return ech.rows, ech.pivots()


def sparse_kernel(field, rows, ncols):
    """Basis of the right null space of the matrix with the given sparse rows.

    One vector per free column, ascending.  A reduced row holds no pivot
    column but its own, so one pass over the entries fills every vector.
    """
    red, pivots = sparse_rref(field, rows)
    one, neg = field.one(), field.neg
    basis = {free: {free: one} for free in range(ncols) if free not in red}
    for p in pivots:
        for col, x in red[p].items():
            if col != p:
                basis[col][p] = neg(x)
    return list(basis.values())


def sparse_matmul(field, a_rows, b_rows):
    """Row-convention product: result row r = sum_m a[r][m] * b[m]."""
    out = []
    for row in a_rows:
        acc = {}
        for m, c in row.items():
            vec_iadd_scaled(field, acc, b_rows[m], c)
        out.append(acc)
    return out


def apply_row(field, vec, rows):
    """Image of a (row) vector under a row-convention matrix."""
    acc = {}
    for m, c in vec.items():
        vec_iadd_scaled(field, acc, rows[m], c)
    return acc


# ---------------------------------------------------------------------------
# public dense contract
# ---------------------------------------------------------------------------

class Matrix:
    """An exact dense matrix over a FieldSpec.

    Entries are coerced on construction, so they are always canonical
    (reduced fractions / least residues).
    """

    def __init__(self, field, entries, cols=None):
        self.field = field
        entries = [list(r) for r in entries]
        if entries:
            ncols = len(entries[0])
            if any(len(r) != ncols for r in entries):
                raise ValueError("ragged rows")
        else:
            ncols = 0 if cols is None else cols
        self.rows = len(entries)
        self.cols = ncols
        self.entries = [[field.coerce(x) for x in r] for r in entries]

    def sparse_rows(self):
        f = self.field
        return [{j: x for j, x in enumerate(r) if not f.is_zero(x)} for r in self.entries]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.entries == other.entries
            and self.cols == other.cols
        )

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.rows}x{self.cols})"


def rref(m):
    """Reduced row echelon form of a Matrix.

    Returns (Matrix, rank, pivot_columns).  Zero rows are kept so the shape
    is preserved.
    """
    f = m.field
    red, pivots = sparse_rref(f, m.sparse_rows())
    out = [vec_to_list(f, red[p], m.cols) for p in pivots]
    while len(out) < m.rows:
        out.append([f.zero()] * m.cols)
    return Matrix(f, out, cols=m.cols), len(pivots), pivots


def kernel_basis(m):
    """Basis of the right null space of a Matrix, as dense vectors."""
    f = m.field
    ker = sparse_kernel(f, m.sparse_rows(), m.cols)
    return [vec_to_list(f, v, m.cols) for v in ker]


class SubspaceOps:
    """Sum, intersection and membership data for two subspaces of k^n."""

    def __init__(self, field, ambient, u_basis, v_basis, sum_basis, intersection_basis):
        self.field = field
        self.ambient = ambient
        self.u_basis = u_basis
        self.v_basis = v_basis
        self.sum_basis = sum_basis
        self.intersection_basis = intersection_basis
        # dimension of (U + V) / V
        self.quotient_dimension = len(sum_basis) - len(v_basis)
        self._u = Echelon(field)
        self._u.extend(vec_from_list(field, b) for b in u_basis)
        self._v = Echelon(field)
        self._v.extend(vec_from_list(field, b) for b in v_basis)
        self._s = Echelon(field)
        self._s.extend(vec_from_list(field, b) for b in sum_basis)

    def in_u(self, vec):
        return self._u.contains(vec_from_list(self.field, vec))

    def in_v(self, vec):
        return self._v.contains(vec_from_list(self.field, vec))

    def in_sum(self, vec):
        return self._s.contains(vec_from_list(self.field, vec))


def subspace_ops(field, u_vectors, v_vectors, ambient=None):
    """Echelonized sum/intersection bases for two lists of dense vectors.

    The intersection comes from the Zassenhaus trick: echelonize rows
    (u | u) and (v | 0); rows whose left half vanished have right halves
    spanning the intersection.
    """
    dims = {len(v) for v in list(u_vectors) + list(v_vectors)}
    if ambient is not None:
        dims.add(ambient)
    if len(dims) > 1:
        raise ValueError(f"ambient dimension mismatch: {sorted(dims)}")
    n = dims.pop() if dims else 0

    u_sp = [vec_from_list(field, v) for v in u_vectors]
    v_sp = [vec_from_list(field, v) for v in v_vectors]
    u_basis = span_basis(field, u_sp)
    v_basis = span_basis(field, v_sp)

    doubled = Echelon(field)
    for v in u_sp:
        doubled.insert({**v, **{i + n: c for i, c in v.items()}})
    for v in v_sp:
        doubled.insert(dict(v))
    inter = [
        {i - n: c for i, c in row.items()}
        for p, row in doubled.rows.items()
        if p >= n
    ]
    inter_basis = span_basis(field, inter)

    sum_basis = span_basis(field, u_sp + v_sp)
    to_dense = lambda vs: [vec_to_list(field, v, n) for v in vs]
    return SubspaceOps(field, n, to_dense(u_basis), to_dense(v_basis),
                       to_dense(sum_basis), to_dense(inter_basis))


def check_matrix_fields(*mats):
    for m in mats[1:]:
        check_same_field(mats[0].field, m.field)
