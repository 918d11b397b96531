"""Exact sparse linear algebra.

Vectors are dicts index -> nonzero scalar, and a matrix is the dict
{row index: nonzero row} of its nonzero rows: an absent row is zero and no
stored row is empty.  Structure constants, action matrices, module maps
and hom systems are mostly zeros, so they cost what their nonzero rows
and entries cost.
The row operations on them are the field's bound kernels
(`FieldSpec.axpy` and `FieldSpec.scale`).  `Echelon` is the one
elimination routine; spans, kernels and coordinates are all read off its
reduced rows.
"""


class Echelon:
    """Incremental row-echelon store for sparse vectors.

    Rows are kept fully reduced (pivot entry 1, pivot column eliminated
    from every other row), so the row set is the canonical reduced echelon
    basis of the span; a row's pivot is its least index.  Optional tags
    follow each row through the same row operations, so callers can write
    reduced vectors over the inserted ones; the inserts that reduced to
    zero leave their tags in `relations`, a basis of their relations.

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
        axpy, neg = f.axpy, f.neg
        rows = self.rows
        vec = dict(vec)
        if tag is not None:
            tag = dict(tag)
            tags = self.tags
        for p in [p for p in vec if p in rows]:
            c = neg(vec[p])
            axpy(vec, rows[p], c)
            if tag is not None:
                axpy(tag, tags[p], c)
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
        # vec and tag are _reduce's fresh copies, so a unit pivot keeps them
        if c != 1:
            vec = f.scale(vec, c)
            if tag is not None:
                tag = f.scale(tag, c)
        rest = [k for k in vec if k != lead]
        holders = self.holders
        axpy = f.axpy
        # back-eliminate the new pivot from the rows that hold it; only the
        # columns of vec can change in those rows
        for p in holders.pop(lead, ()):
            row = self.rows[p]
            x = f.neg(row[lead])
            # rows are handed out by basis(), so they are replaced, not
            # updated; tags stay private and are updated in place
            row = self.rows[p] = axpy(dict(row), vec, x)
            if self.tagged:
                axpy(self.tags[p], tag, x)
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


def sparse_kernel(field, rows, ncols):
    """Basis of the right null space of the matrix with the given sparse rows.

    One vector per free column, ascending.  A reduced row holds no pivot
    column but its own, so one pass over the entries fills every vector.
    A free column's vector is 1 there and 0 at every other free column, and
    as a pivot is its row's least index, it is the vector's largest index.
    """
    ech = Echelon(field)
    ech.extend(rows)
    one, neg = field.one(), field.neg
    basis = {free: {free: one} for free in range(ncols) if free not in ech.rows}
    for p in ech.pivots():
        for col, x in ech.rows[p].items():
            if col != p:
                basis[col][p] = neg(x)
    return list(basis.values())


def read_coords(field, vec, index, rows):
    """Coordinates of vec over rows, row q being 1 at its column and 0 at
    every other row's ({column: q} is index): vec's entries there, or None
    when they do not rebuild vec.  Reduced echelon rows are such rows at
    their pivots, `sparse_kernel`'s vectors at their free columns."""
    axpy = field.axpy
    coords, built = {}, {}
    for col, x in vec.items():
        q = index.get(col)
        if q is not None:
            coords[q] = x
            axpy(built, rows[q], x)
    return coords if built == vec else None


def apply_row(field, vec, rows):
    """Image of a (row) vector under a row-convention matrix; a row the
    matrix does not store is zero."""
    acc = {}
    axpy = field.axpy
    for m, c in vec.items():
        row = rows.get(m)
        if row is not None:
            axpy(acc, row, c)
    return acc
