"""Finite-dimensional graded algebras as structure constants.

An algebra is a basis b_0..b_{n-1} with integer degrees, sparse structure
constants, a unit vector and, when known, a complete set of primitive
orthogonal idempotents.  The structure constants are stored as one dict per
row, mult[i] = {j: b_i * b_j}, holding the nonzero products only: a product
that vanishes has no entry, so the table costs its number of nonzero
products, and multiplying or validating walks only those.  Quiver
presentations are compiled down to this form; everything downstream
(modules, stable categories, tilting) only sees structure constants.
"""

import heapq

from .errors import (
    NonHomogeneousRelation,
    UnknownFamily,
    UnsupportedCharacteristic,
    VerificationFailed,
)
from .linalg import (
    Echelon,
    apply_row,
    span_basis,
    sparse_kernel,
)

EXCEEDS_BOUND = "exceeds bound"


class GradedAlgebra:
    """A finite-dimensional graded algebra given by structure constants.

    mult[i] is the row of b_i: a dict {j: the sparse coefficient vector of
    b_i * b_j} over the j with a nonzero product.  No stored vector is
    empty, so two tables of one algebra are equal as Python values.
    Construction validates the shape, the grading and the omission of zeros
    over the stored entries, the unit laws and (when given) the idempotent
    axioms exactly, and associativity against one generating set G: the
    declared generators, or else basis vectors taken greedily in (degree,
    index) order.  G is verified to generate, in that right-bracketed words
    ((1 g_1) g_2) ... g_k span the algebra; a declared set that does not
    generate raises ValueError.  Associativity is then checked on the
    triples (b_i, b_j, g) with g in G only.  That is exact: the associator
    is trilinear, so the w with (xy)w = x(yw) for all x, y form a subspace;
    it holds 1 by the unit laws, and with w it holds wg, since
    (xy)(wg) = ((xy)w)g = (x(yw))g = x((yw)g) = x(y(wg)); so it holds every
    right word, and those span the algebra.  For each g only the triples
    that can be nonzero are formed (see `_validate`): (b_i b_j) g for the
    stored products whose support meets a nonzero row of right
    multiplication by g, and b_i (b_j g) for the j with b_j g nonzero; every
    other triple is 0 = 0.  The cost is those triples, not |G| times the
    nonzero products, and the closure that verifies G skips the words whose
    image under a generator is zero by support in the same way.
    """

    def __init__(self, field, degrees, mult, unit, idempotents=None, labels=None,
                 generators=None, radical_hint=None):
        self.field = field
        self.degrees = list(degrees)
        self.dim = len(self.degrees)
        self.mult = mult
        self.unit = dict(unit)
        self.idempotents = [dict(e) for e in idempotents] if idempotents is not None else None
        self.labels = list(labels) if labels is not None else None
        self.generators = [dict(g) for g in generators] if generators is not None else None
        self.radical_hint = [dict(v) for v in radical_hint] if radical_hint is not None else None
        self._radical = None
        self._cache = {}
        self._validate()

    # -- basic structure -------------------------------------------------

    def basis_vec(self, i):
        return {i: self.field.one()}

    def product(self, v, w):
        f = self.field
        axpy, mul = f.axpy, f.mul
        out = {}
        for i, ci in v.items():
            row = self.mult[i]
            if len(row) < len(w):
                for j, cell in row.items():
                    cj = w.get(j)
                    if cj is not None:
                        axpy(out, cell, mul(ci, cj))
            else:
                for j, cj in w.items():
                    cell = row.get(j)
                    if cell is not None:
                        axpy(out, cell, mul(ci, cj))
        return out

    def component_indices(self, d):
        return [i for i, deg in enumerate(self.degrees) if deg == d]

    def is_nonnegatively_graded(self):
        return all(d >= 0 for d in self.degrees)

    def is_trivially_graded(self):
        return all(d == 0 for d in self.degrees)

    def is_commutative(self):
        return self.mult == self._cache["cols"]

    def label_of(self, i):
        return self.labels[i] if self.labels else f"b{i}"

    def __repr__(self):
        return f"GradedAlgebra(dim={self.dim}, field={self.field!r})"

    # -- validation --------------------------------------------------------

    def _validate(self):
        f = self.field
        n = self.dim
        degrees = self.degrees
        mult = self.mult
        if len(mult) != n or not all(isinstance(row, dict) for row in mult):
            raise ValueError("structure constant table has wrong shape")
        if n == 0:
            if self.unit:
                raise ValueError("zero algebra cannot have a nonzero unit")
            self._cache["gens"] = self._cache["cols"] = []
            return
        # grading: nonzero c[i][j][k] forces degree(k) = degree(i) + degree(j)
        for i, row in enumerate(mult):
            for j, w in row.items():
                if not 0 <= j < n:
                    raise ValueError("structure constant table has wrong shape")
                if not w:
                    raise ValueError("structure constants must omit zeros")
                for k, c in w.items():
                    if f.is_zero(c):
                        raise ValueError("structure constants must omit zeros")
                    if degrees[k] != degrees[i] + degrees[j]:
                        raise ValueError(
                            f"grading violated: b{i}*b{j} hits degree {degrees[k]}"
                        )
        # unit laws, by support: u b_k is column k of the table read at
        # supp(u), and b_k u is row k read there; a unit with a coordinate
        # off the basis is no element of the algebra
        axpy, one, unit = f.axpy, f.one(), self.unit
        if not all(0 <= i < n for i in unit):
            raise ValueError("unit laws fail")
        cols = self._cache["cols"] = columns(mult)
        for k in range(n):
            e = {k: one}
            for line in (cols[k], mult[k]):
                prod = {}
                for i, c in unit.items():
                    w = line.get(i)
                    if w is not None:
                        axpy(prod, w, c)
                if prod != e:
                    raise ValueError("unit laws fail")
        gens, right = self._generating_set(cols)
        # associativity on the triples (b_i, b_j, g), g in G.  With
        # right[t] = {m: b_m * g} over the nonzero products, (b_i b_j) g
        # reads right[t] only at supp(b_i b_j), and b_i (b_j g) =
        # sum_m (b_j g)_m b_i b_m is zero unless b_j g is: so (b_i b_j) g is
        # formed only for the stored products whose support meets a row of
        # right[t], and b_i (b_j g) only for the rows j of right[t].  Every other
        # triple is 0 = 0.  A product b_i * b_j is keyed i * n + j, which
        # orders as (i, j).
        by_coord = [[] for _ in range(n)]  # k -> the products with k in their support
        for i, row in enumerate(mult):
            for j, w in row.items():
                p = i * n + j
                for k in w:
                    by_coord[k].append(p)
        for t, table in enumerate(right):
            rhs = {}
            for j, row in table.items():
                for m, c in row.items():
                    for i, w in cols[m].items():
                        p = i * n + j
                        acc = rhs.get(p)
                        if acc is None:
                            rhs[p] = f.scale(w, c)
                        else:
                            axpy(acc, w, c)
            bad = []
            for p in set().union(*(by_coord[k] for k in table)):
                i, j = divmod(p, n)
                if apply_row(f, mult[i][j], table) != rhs.pop(p, {}):
                    bad.append(p)
            bad += [p for p, v in rhs.items() if v]  # where (b_i b_j) g is 0 by support
            if bad:
                # the triple a walk over i, then j, would meet first
                i, j = divmod(min(bad), n)
                raise ValueError(f"associativity fails at (b{i}, b{j}, generator {t})")
        self._cache["gens"] = gens
        if self.idempotents is not None:
            self._validate_idempotents()

    def _generating_set(self, cols):
        """G and its right-multiplication tables {m: b_m * g}, over the
        nonzero products, with G verified to generate.

        cols[j] = {i: b_i * b_j} are the columns of the table, and the
        table of a basis vector b_j is cols[j] itself.  Closes span{1}
        under right multiplication by G in an Echelon.  A word w whose
        support misses every row of a table has image 0 and is not
        multiplied, so the cost is the words that meet each table's rows
        rather than dim * |G| row applications.  A declared generator's
        table forms b_m * g only for the m of `left_support`; the other
        products are zero.  A declared G that falls short raises
        ValueError ("declared generators span only ..."); only when no G
        is declared are basis vectors outside the span adjoined greedily,
        in (degree, index) order, until it is reached.
        """
        f = self.field
        n = self.dim
        span = Echelon(f)
        words = []  # vectors that enlarged the span
        done = 0  # words[:done] have been multiplied by every generator
        gens, right = [], []

        def grow(vec):
            if span.insert(vec):
                words.append(vec)

        def adjoin(g, table):
            nonlocal done
            gens.append(g)
            right.append(table)
            for w in words[:done]:
                if not table.keys().isdisjoint(w):
                    grow(apply_row(f, w, table))
            while done < len(words):
                w = words[done]
                done += 1
                for tab in right:
                    if not tab.keys().isdisjoint(w):
                        grow(apply_row(f, w, tab))

        grow(self.unit)
        if self.generators is not None:
            for g in self.generators:
                prods = {m: self.product(self.basis_vec(m), g) for m in left_support(self, g)}
                adjoin(g, {m: p for m, p in prods.items() if p})
            if span.dim != n:
                raise ValueError(
                    f"declared generators span only {span.dim} of {n} dimensions"
                )
            return self.generators, right
        for i in sorted(range(n), key=lambda i: (self.degrees[i], i)):
            if span.dim == n:
                break
            if not span.contains(self.basis_vec(i)):
                adjoin(self.basis_vec(i), cols[i])
        return gens, right

    def _validate_idempotents(self):
        f = self.field
        total = {}
        for r, e in enumerate(self.idempotents):
            for i in e:
                if self.degrees[i] != 0:
                    raise ValueError("idempotents must be concentrated in degree 0")
            if self.product(e, e) != e:
                raise ValueError(f"idempotent {r} is not idempotent")
            f.axpy(total, e, f.one())
        for r, e in enumerate(self.idempotents):
            for s, e2 in enumerate(self.idempotents):
                if r != s and self.product(e, e2):
                    raise ValueError(f"idempotents {r},{s} are not orthogonal")
        if total != self.unit:
            raise ValueError("idempotents do not sum to the unit")


def columns(mult):
    """The columns of a table of rows: cols[j] = {i: b_i * b_j}, over the
    nonzero products."""
    cols = [{} for _ in mult]
    for i, row in enumerate(mult):
        for j, w in row.items():
            cols[j][i] = w
    return cols


def left_support(a, g):
    """The m, ascending, with b_m * g possibly nonzero: the rows of the
    columns j in supp(g), read off the table; b_m * g is 0 for any other m."""
    cols = a._cache["cols"]
    return sorted({m for j in g for m in cols[j]})


def right_support(a, g):
    """The m, ascending, with g * b_m possibly nonzero: the columns of the
    rows i in supp(g), read off the table; g * b_m is 0 for any other m."""
    return sorted({m for i in g for m in a.mult[i]})


def product_pairs(a, us, vs):
    """The index pairs (s, t), in ascending order, whose product
    us[s] * vs[t] can be nonzero.

    u * v is the sum of u_i v_j b_i b_j over the stored products b_i * b_j,
    so it is zero unless some i in supp(u) and j in supp(v) have j in
    mult[i]; every other pair is skipped without being formed.  The pairs
    are read from the shorter list: each u walks the rows mult[i] of its
    support against an index of the vs by column, or each v walks the
    columns of its support against an index of the us by row.  That costs
    the stored products in those rows or columns plus the pairs kept, not
    len(us) * len(vs) products.
    """
    by_rows = len(us) <= len(vs)
    if by_rows:
        lines, index, outer = a.mult, vs, us
    else:
        lines, index, outer = a._cache["cols"], us, vs
    by_key = {}  # column (or row) -> the indexed vectors holding it
    for r, vec in enumerate(index):
        for k in vec:
            by_key.setdefault(k, []).append(r)
    pairs = []
    for q, vec in enumerate(outer):
        found = set()
        for i in vec:
            for k in lines[i]:
                found.update(by_key.get(k, ()))
        pairs += [(q, r) if by_rows else (r, q) for r in found]
    return sorted(pairs)


def same_algebra(a, b):
    return a is b or (
        a.field == b.field and a.degrees == b.degrees
        and a.unit == b.unit and a.mult == b.mult
    )


def zero_algebra(field):
    """The zero algebra; its complete set of primitive idempotents is empty."""
    return GradedAlgebra(field, [], [], {}, idempotents=[])


# ---------------------------------------------------------------------------
# quiver presentations
# ---------------------------------------------------------------------------

class QuiverPresentation:
    """A quiver with homogeneous relations and a verified nilpotency bound.

    Arrows are (name, source, target, degree >= 0).  A relation is a list of
    (coefficient, word) terms where a word is a tuple of arrow names written
    right-to-left: ("b", "a") is the path "apply a, then b".  All terms of a
    relation must be composable words with a common source and target and a
    common degree.
    """

    def __init__(self, vertices, arrows, relations, nilpotency_bound):
        self.vertices = list(vertices)
        self.arrows = [tuple(a) for a in arrows]
        self.relations = [list(r) for r in relations]
        self.nilpotency_bound = int(nilpotency_bound)
        if self.nilpotency_bound < 1:
            raise ValueError("nilpotency_bound must be positive")
        names = [a[0] for a in self.arrows]
        if len(set(names)) != len(names):
            raise ValueError("duplicate arrow names")
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ValueError("duplicate vertex names")
        for name, src, tgt, deg in self.arrows:
            if src not in vset or tgt not in vset:
                raise ValueError(f"arrow {name} uses unknown vertices")
            if deg < 0:
                raise ValueError(f"arrow {name} has negative degree")
        self._arrow_by_name = {a[0]: a for a in self.arrows}
        for rel in self.relations:
            self._check_relation(rel)

    def _word_data(self, word):
        """(source, target, degree) of a right-to-left word; raises if not composable."""
        if not word:
            raise NonHomogeneousRelation("empty word in relation")
        arrows = [self._arrow_by_name.get(n) for n in word]
        if any(a is None for a in arrows):
            raise ValueError(f"unknown arrow in word {word}")
        for late, early in zip(arrows, arrows[1:]):
            if late[1] != early[2]:
                raise NonHomogeneousRelation(f"word {word} is not composable")
        return arrows[-1][1], arrows[0][2], sum(a[3] for a in arrows)

    def _check_relation(self, rel):
        if not rel:
            raise NonHomogeneousRelation("empty relation")
        data = [self._word_data(tuple(word)) for _, word in rel]
        if len({d[0] for d in data}) > 1 or len({d[1] for d in data}) > 1:
            raise NonHomogeneousRelation("relation terms have differing endpoints")
        if len({d[2] for d in data}) > 1:
            raise NonHomogeneousRelation("relation terms have differing degrees")


def compile_quiver(pres, field):
    """Compile a quiver presentation to a structure-constant algebra.

    Paths of length < L (L = nilpotency_bound) modulo the relation ideal
    form the basis.  The ideal is I + J^(L+1), with I spanned by the path
    multiples p*r*q of the relations r and J the arrow ideal: a path longer
    than L is zero, so terms longer than L are dropped wherever they arise
    (the length-truncated model).

    A path is (source, arrow tuple in application order).  The leading term
    of a combination of paths is its longest term, ties going to the
    smallest (source, word).  The order is admissible: paths of one length
    keep their order under concatenation on either side, and shorter paths
    stay shorter.  So a Groebner basis of the ideal (`_GroebnerBasis`)
    decides which paths lead some element of the ideal: those that contain
    the leading word of a basis element.  The others, the normal words,
    are the non-pivot columns of the canonical reduced echelon basis of the
    ideal inside all paths of length <= L with columns in this order, and
    the normal form of a vector is its reduction by that echelon basis.
    The algebra's basis is the normal words of length < L, sorted by
    (length, source, word), and b_i * b_j is the normal form of the
    concatenation, so degrees, products, unit, idempotents, labels,
    generators, radical hint and errors are those of elimination over all
    paths of length <= L, while the cost follows the normal words.

    Every path of length L must reduce to zero, otherwise the bound is too
    small and VerificationFailed is raised.  For relations whose terms all
    have the same path length this verification is exact; mixed-length
    relations are reduced in the length-truncated model, which can mask an
    undersized bound.
    """
    L = pres.nilpotency_bound
    arrows = pres.arrows
    one = field.one()
    arr_idx = {a[0]: i for i, a in enumerate(arrows)}

    def target(p):
        return arrows[p[1][-1]][2] if p[1] else p[0]

    gb = _GroebnerBasis(field, arrows, L)
    for rel in pres.relations:
        vec = {}
        for coeff, word in rel:
            app = tuple(arr_idx[n] for n in reversed(tuple(word)))
            if len(app) <= L:
                field.axpy(vec, {app: one}, field.coerce(coeff))
        gb.push(vec)
    gb.complete()

    # normal words, grown by length: a normal word times an arrow stays
    # normal unless a leading word is a suffix of the product, so a length
    # with no normal word has no longer ones and the growth stops there.  A
    # normal word of length L survives; when a basis element mixes lengths,
    # a path of length L may also reduce to shorter normal words
    basis_paths = [(v, ()) for v in pres.vertices]
    layer = basis_paths
    for _ in range(L):
        layer = [(p[0], p[1] + (ai,)) for p in layer
                 for ai in gb.leaving.get(target(p), ())
                 if not gb.ends_in_tip(p[1] + (ai,))]
        if not layer:
            break
        basis_paths.extend(layer)
    if layer or (gb.mixed and not gb.kills_paths_of_length(L)):
        raise VerificationFailed(
            f"path of length {L} survives reduction; nilpotency_bound too small"
        )
    basis_paths.sort(key=lambda p: (len(p[1]), p[0], p[1]))
    loc = {p: i for i, p in enumerate(basis_paths)}

    def coords(src, vec):
        return {loc[(src, w)]: c for w, c in gb.normal_form(vec).items()}

    # the right action of the arrows on the normal words: w times an arrow
    # is normal unless a leading word is a suffix
    right = []
    for src, w in basis_paths:
        acts = {}
        for ai in gb.leaving.get(target((src, w)), ()):
            u = w + (ai,)
            if len(u) >= L:
                continue  # a path of length >= L is zero
            acts[ai] = coords(src, {u: one}) if gb.ends_in_tip(u) else {loc[(src, u)]: one}
        right.append(acts)
    # b_i * b_j is "pj then pi", and taking normal forms commutes with
    # multiplication, so for pi = pi' then an arrow a, b_i * b_j is
    # (b_i' * b_j) acted on by a; pi' comes earlier in the basis
    mult = []
    for src, w in basis_paths:
        if not w:
            mult.append({j: {j: one} for j, pj in enumerate(basis_paths) if target(pj) == src})
            continue
        a, row = w[-1], {}
        for j, prev in mult[loc[(src, w[:-1])]].items():
            out = {}
            for k, c in prev.items():
                act = right[k].get(a)
                if act:
                    field.axpy(out, act, c)
            if out:
                row[j] = out
        mult.append(row)

    degrees = [sum(arrows[ai][3] for ai in w) for _, w in basis_paths]

    def fmt(p):
        if not p[1]:
            return f"e_{p[0]}"
        return "*".join(arrows[ai][0] for ai in reversed(p[1]))

    labels = [fmt(p) for p in basis_paths]
    trivial = {p[0]: i for i, p in enumerate(basis_paths) if not p[1]}
    idempotents = [{trivial[v]: one} for v in pres.vertices]
    unit = {}
    for e in idempotents:
        field.axpy(unit, e, one)

    gens = [dict(e) for e in idempotents]
    for ai, (name, src, tgt, deg) in enumerate(arrows):
        gens.append(coords(src, {(ai,): one}))

    # a normal word is its own normal form; the positive-length ones span
    # the arrow ideal
    radical_hint = [{i: one} for i, p in enumerate(basis_paths) if p[1]]

    return GradedAlgebra(field, degrees, mult, unit, idempotents=idempotents,
                         labels=labels, generators=gens, radical_hint=radical_hint)


class _GroebnerBasis:
    """A Groebner basis of I + J^(L+1) in the path algebra, under the order
    of `compile_quiver`, built by Buchberger's algorithm.

    A nonempty word (arrow tuple in application order) determines its
    source, and the terms of an element share source and target, so words
    stand for paths, and the leading word of an element is its longest,
    ties going to the smallest.  `tails` maps each leading word t to its
    element minus t (elements are monic); the leading words (tips) form
    an antichain under "is a subword of".  The paths of length L+1 are
    implicit elements M: reducing by them drops the terms longer than L.

    Buchberger's criterion: the basis is complete once the S-polynomial of
    each overlap of two leading words (the difference of the two rewritings
    of the overlap word) has a representation by multiples p*g*q with
    leading words below the overlap word; reducing it to zero gives one.
    `complete` reduces each pushed element, shortest first, and adds a
    nonzero remainder r with leading word t.  Then
      - every element whose leading word contains t is removed and queued
        again (inclusions); it is a combination of multiples of the others
        with leading words at most its own, so earlier representations
        still hold;
      - g*v - u*h, truncated, is pushed for each proper or self overlap
        t_g v = u t_h with r among g, h whose overlap word has length at
        most L+1;
      - p*r*q, truncated, is pushed for every path p t q of length L+1
        (truncation overlaps, with M): t is pushed past L, and a term
        shorter than t may survive, so only mixed-length r pays for them.
    The S-polynomial of an overlap word longer than L+1 is a difference of
    multiples of truncation overlaps inside it.  Each added leading word is
    new among the leading words of the ideal, and the paths of length <= L
    are finitely many, so this ends.
    """

    def __init__(self, field, arrows, L):
        self.field = field
        self.arrows = arrows
        self.L = L
        self.tails = {}
        self.mixed = set()  # leading words of the elements that mix lengths
        self.lengths = []  # distinct lengths of the leading words, ascending
        self.entering, self.leaving = {}, {}
        for i, (name, src, tgt, deg) in enumerate(arrows):
            self.leaving.setdefault(src, []).append(i)
            self.entering.setdefault(tgt, []).append(i)
        self._queue = []
        self._pushed = 0

    # -- finding leading words -------------------------------------------

    def _find(self, word):
        """(start, leading word) of a leading word inside word, or None."""
        tails = self.tails
        n = len(word)
        for ln in self.lengths:
            if ln > n:
                break
            for s in range(n - ln + 1):
                t = word[s:s + ln]
                if t in tails:
                    return s, t
        return None

    def ends_in_tip(self, word):
        tails = self.tails
        return any(word[-ln:] in tails for ln in self.lengths if ln <= len(word))

    def normal_form(self, vec):
        """The normal form of vec: its terms are rewritten, leading first,
        until none contains a leading word.  Rewriting a term replaces it
        by smaller ones, so each word is visited once."""
        f = self.field
        neg, mul, muladd, is_zero = f.neg, f.mul, f.muladd, f.is_zero
        tails = self.tails
        vec = dict(vec)
        heap = [(-len(w), w) for w in vec]
        heapq.heapify(heap)
        out = {}
        while heap:
            w = heapq.heappop(heap)[1]
            c = vec.pop(w, None)
            if c is None:
                continue  # cancelled, or a stale heap entry
            hit = self._find(w)
            if hit is None:
                out[w] = c
                continue
            s, t = hit
            p, q = w[:s], w[s + len(t):]
            c = neg(c)
            for u, d in tails[t].items():
                u = p + u + q
                y = vec.get(u)
                if y is None:
                    vec[u] = mul(c, d)
                    heapq.heappush(heap, (-len(u), u))
                else:
                    y = muladd(y, c, d)
                    if is_zero(y):
                        del vec[u]
                    else:
                        vec[u] = y
        return out

    def kills_paths_of_length(self, k):
        """Whether every path of length k > 0 reduces to zero, given that
        no normal word is as long as k.  The normal forms of the paths of
        length i + 1 are spanned by those of a spanning set of the normal
        forms of the paths of length i times each arrow."""
        f = self.field
        arrows, leaving = self.arrows, self.leaving
        layer = span_basis(f, [self.normal_form({(ai,): f.one()})
                               for ai in range(len(arrows))])
        for _ in range(k - 1):
            products = []
            for vec in layer:
                end = arrows[next(iter(vec))[-1]][2]
                for ai in leaving.get(end, ()):
                    products.append(self.normal_form({w + (ai,): c for w, c in vec.items()}))
            layer = span_basis(f, products)
        return not layer

    # -- Buchberger ----------------------------------------------------------

    def push(self, vec):
        """Queue an element of the ideal; shorter ones are reduced first."""
        if vec:
            self._pushed += 1
            heapq.heappush(self._queue, (max(map(len, vec)), self._pushed, vec))

    def complete(self):
        f = self.field
        while self._queue:
            r = self.normal_form(heapq.heappop(self._queue)[2])
            if not r:
                continue
            t = min(r, key=lambda w: (-len(w), w))
            c = f.inv(r[t])
            tail = {w: f.mul(c, x) for w, x in r.items() if w != t}
            for s in [s for s in self.tails if len(s) > len(t) and _contains(s, t)]:
                self.push({s: f.one(), **self._remove(s)})
            self._add(t, tail)
            for s in self.tails:
                # an overlap in k letters has length |t| + |s| - k, which
                # must not exceed L + 1
                for k in range(max(1, len(t) + len(s) - self.L - 1), min(len(t), len(s))):
                    if t[-k:] == s[:k]:
                        self._push_overlap(t, s, k)
                    if s != t and s[-k:] == t[:k]:
                        self._push_overlap(s, t, k)
            if t in self.mixed:
                self._push_truncations(t, tail)

    def _add(self, t, tail):
        self.tails[t] = tail
        if any(len(w) < len(t) for w in tail):
            self.mixed.add(t)
        self.lengths = sorted({len(s) for s in self.tails})

    def _remove(self, t):
        self.mixed.discard(t)
        tail = self.tails.pop(t)
        self.lengths = sorted({len(s) for s in self.tails})
        return tail

    def _push_overlap(self, t, s, k):
        """g*v - u*h, truncated, for the overlap t v = u s of the leading
        words t of g and s of h in k letters, if t v is no longer than L+1."""
        f, L = self.field, self.L
        if len(t) + len(s) - k > L + 1:
            return
        u, v = t[:len(t) - k], s[k:]
        vec = {}
        for w, x in self.tails[t].items():
            if len(w) + len(v) <= L:
                f.axpy(vec, {w + v: x}, f.one())
        for w, x in self.tails[s].items():
            if len(u) + len(w) <= L:
                f.axpy(vec, {u + w: x}, f.neg(f.one()))
        self.push(vec)

    def _push_truncations(self, t, tail):
        """p*g*q truncated, for each pair of paths p, q with
        |p| + |t| + |q| = L + 1 around the leading word t of g."""
        f = self.field
        arrows, entering, leaving = self.arrows, self.entering, self.leaving
        rest = self.L + 1 - len(t)
        short = [(w, x) for w, x in tail.items() if len(w) + rest <= self.L]
        ps = layer = [()]
        for _ in range(rest):
            layer = [(ai,) + p for p in layer
                     for ai in entering.get(arrows[(p + t)[0]][1], ())]
            ps = ps + layer
        for p in ps:
            qs = [()]
            for _ in range(rest - len(p)):
                qs = [q + (ai,) for q in qs
                      for ai in leaving.get(arrows[(t + q)[-1]][2], ())]
            for q in qs:
                vec = {}
                for w, x in short:
                    f.axpy(vec, {p + w + q: x}, f.one())
                self.push(vec)


def _contains(word, sub):
    n = len(sub)
    return any(word[s:s + n] == sub for s in range(len(word) - n + 1))


# ---------------------------------------------------------------------------
# builtin families
# ---------------------------------------------------------------------------

def builtin(family, parameter, field):
    """Compiled algebra for one of the builtin families, idempotents included.

    Families: truncated_polynomial (k[x]/x^N, x in degree 1), preprojective_A
    (type A preprojective algebra, doubled arrows in degree 1) and exterior
    (exterior algebra on n degree-1 generators).
    """
    n = int(parameter)
    if n < 1:
        raise ValueError("parameter must be >= 1")
    if family == "truncated_polynomial":
        pres = QuiverPresentation(
            ["v"], [("x", "v", "v", 1)], [[(1, ("x",) * n)]], n if n > 1 else 1
        )
        return compile_quiver(pres, field)
    if family == "exterior":
        arrows = [(f"x{i}", "v", "v", 1) for i in range(1, n + 1)]
        rels = [[(1, (f"x{i}", f"x{i}"))] for i in range(1, n + 1)]
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                rels.append([(1, (f"x{i}", f"x{j}")), (1, (f"x{j}", f"x{i}"))])
        pres = QuiverPresentation(["v"], arrows, rels, n + 1)
        return compile_quiver(pres, field)
    if family == "preprojective_A":
        vertices = [str(i) for i in range(1, n + 1)]
        arrows = []
        for i in range(1, n):
            arrows.append((f"a{i}", str(i), str(i + 1), 0))
            arrows.append((f"b{i}", str(i + 1), str(i), 1))
        rels = []
        if n >= 2:
            rels.append([(1, ("b1", "a1"))])
            rels.append([(1, (f"a{n-1}", f"b{n-1}"))])
        for i in range(1, n - 1):
            rels.append([(1, (f"b{i+1}", f"a{i+1}")), (-1, (f"a{i}", f"b{i}"))])
        pres = QuiverPresentation(vertices, arrows, rels, 2 * n if n >= 2 else 1)
        return compile_quiver(pres, field)
    raise UnknownFamily(f"unknown builtin family {family!r}")


def sup_degree(a):
    """Largest degree with a nonzero component."""
    if a.dim == 0:
        raise ValueError("sup_degree of the zero algebra")
    return max(a.degrees)


# ---------------------------------------------------------------------------
# radical
# ---------------------------------------------------------------------------

class RadicalData:
    """Radical basis, the generators V (radical vectors spanning R modulo
    R^2, so words in V span R), dims of the nonzero powers of R, the
    nilpotency index, and the set of degrees of each layer W_1, W_2, ...
    (W_j spanned by the words of length j in V; R^k = sum_{j>=k} W_j)."""

    def __init__(self, basis, gens, series_dims, nilpotency, layer_degrees):
        self.basis = basis
        self.gens = gens
        self.series_dims = series_dims
        self.nilpotency = nilpotency
        self.layer_degrees = layer_degrees


def _trace_form_radical(a):
    f = a.field
    traces = []
    for row in a.mult:
        t = f.zero()
        for j, w in row.items():
            c = w.get(j)
            if c is not None:
                t = f.add(t, c)
        traces.append(t)
    rows = []
    for mult_row in a.mult:
        row = {}
        for j, w in mult_row.items():
            s = f.zero()
            for m, c in w.items():
                s = f.muladd(s, c, traces[m])
            if not f.is_zero(s):
                row[j] = s
        rows.append(row)
    return span_basis(f, sparse_kernel(f, rows, a.dim))


def jacobson_radical(a):
    """Radical basis plus power series dims and nilpotency.

    Uses the supplied arrow-ideal span for quiver-compiled algebras and the
    trace form kernel otherwise; the latter is valid in characteristic 0 or
    when p exceeds the algebra dimension.  The candidate is checked to be a
    two-sided ideal against the generating set G only: g*I and I*g inside I
    for g in G give A*I and I*A inside I, since words in G span A.

    The powers come from words in V, the radical basis vectors that extend
    an echelon basis of R^2 = span(R*R) to one of R, so R = span(V) + R^2.
    Let W_j be the span of the products of j elements of V.  If R is
    nilpotent then R^k = sum_{j>=k} W_j: "contains" as V lies in R; and by
    induction R^k = R^(k-1) * (V + R^2) lies in W_k + R^(k+1), so
    iterating up to R^N = 0 gives "inside".  Conversely, once some W_N is
    0 and sum_{j>=1} W_j = R, a product of N elements of R is a sum of
    words of length >= N, which vanish, so R is nilpotent.  Both are
    checked, so the series is exact and a non-nilpotent candidate raises.
    The series S_k = sum_{j>=k} W_j strictly decreases, with no check
    needed: W_{j+1} = span(W_j * V), so S_k = S_{k+1} would give W_k inside
    S_{k+1}, hence W_{k+1} inside span(S_{k+1} * V) = S_{k+2} and
    S_{k+1} = S_{k+2}, and so on up to S_N = 0, against W_k != 0.
    W_{j+1} = span(W_j * V) costs at most |V| products per basis vector of
    W_j, where the powers themselves would cost dim R products per basis
    vector of each power.

    Every loop over pairs (the ideal check on both sides, the span of R*R
    and each W_j * V) forms only the products that `product_pairs` allows.
    A skipped product is zero by support, and zero lies in every span, so
    the checks and spans are those of all pairs.  On the dim-120 Gamma of
    truncated_polynomial 16 the span of R*R needs 455 of the 105^2
    products.
    """
    if a._radical is not None:
        return a._radical
    f = a.field
    if a.dim == 0:
        a._radical = RadicalData([], [], [], 0, [])
        return a._radical
    char_ok = f.char == 0 or f.char > a.dim
    if a.radical_hint is not None:
        basis = span_basis(f, a.radical_hint)
        if char_ok:
            trace_basis = _trace_form_radical(a)
            if trace_basis != basis:
                raise VerificationFailed("arrow-ideal radical disagrees with trace form")
    elif char_ok:
        basis = _trace_form_radical(a)
    else:
        raise UnsupportedCharacteristic(
            f"characteristic {f.char} <= dim {a.dim} and no quiver origin"
        )
    # the radical must be a two-sided ideal; as words in G span A, it is
    # enough that g*r and r*g stay inside for g in G
    ech = Echelon(f)
    ech.extend(basis)
    gs = generating_vectors(a)
    for left, right in ((gs, basis), (basis, gs)):
        for s, t in product_pairs(a, left, right):
            if not ech.contains(a.product(left[s], right[t])):
                raise VerificationFailed("radical candidate is not an ideal")
    span = Echelon(f)  # R^2, then extended to R by V
    for s, t in product_pairs(a, basis, basis):
        span.insert(a.product(basis[s], basis[t]))
    gens = [r for r in basis if span.insert(r)]
    words = []  # bases of W_1, W_2, ...
    layer = gens
    while layer:
        if len(words) >= a.dim:
            raise VerificationFailed("radical is not nilpotent")
        words.append(layer)
        layer = span_basis(f, [a.product(layer[s], gens[t])
                               for s, t in product_pairs(a, layer, gens)])
    series = []
    total = Echelon(f)  # sum_{j>=k} W_j, for k from the top down
    for layer in reversed(words):
        total.extend(layer)
        series.append(total.dim)
    series.reverse()
    if total.dim != len(basis):
        raise VerificationFailed("radical is not nilpotent")
    # the radical is graded, so its reduced basis, V and every W_j are
    # homogeneous: a vector's degree is that of any of its entries
    layer_degrees = [{a.degrees[next(iter(v))] for v in layer} for layer in words]
    a._radical = RadicalData(basis, gens, series, len(series) + 1 if series else 1,
                             layer_degrees)
    return a._radical


# ---------------------------------------------------------------------------
# generators, center, primitive idempotents
# ---------------------------------------------------------------------------

def generating_vectors(a):
    """The generating set G that construction verified and checked
    associativity against: the declared generators, or else the greedy
    basis vectors.  Right words in G span the algebra."""
    return a._cache["gens"]


def center_basis(a):
    """Basis of the center, via commutation with a generating set.

    The commutator map x -> xg - gx is read off its images b_m g - g b_m.
    b_m g can be nonzero only for m in a column of supp(g), and g b_m only
    for m in a row of supp(g) (`left_support`, `right_support`); every
    other image is zero and adds no entry to the map.  So each g costs the
    products its rows and columns allow, not 2 * dim.
    """
    f = a.field
    minus_one = f.neg(f.one())
    rows = []
    for g in generating_vectors(a):
        # row k of the commutator map, transposed from its images
        right = {m: a.product(a.basis_vec(m), g) for m in left_support(a, g)}
        left = {m: a.product(g, a.basis_vec(m)) for m in right_support(a, g)}
        by_k = {}
        for m in sorted(right.keys() | left.keys()):
            d = f.axpy(right.get(m, {}), left.get(m, {}), minus_one)
            for k, c in d.items():
                by_k.setdefault(k, {})[m] = c
        rows.extend(by_k.values())
    return span_basis(f, sparse_kernel(f, rows, a.dim))


def primitive_idempotents(a):
    """The declared complete set of primitive orthogonal idempotents.

    Every construction that knows its idempotents declares them: quiver
    vertices (the Auslander reference's are the interval modules), the
    (i, v) summands of the tilting module in Gamma, the pairs (i, e_v) of
    the subcategory reference, the pairs e (x) g in a tensor algebra.
    They are not searched for; an algebra given by bare structure
    constants has none, and asking for them raises ValueError.
    Construction checks that a declared set consists of orthogonal
    idempotents summing to the unit; `tilting.fingerprint` checks that each
    is primitive with a split top.
    """
    if a.idempotents is None:
        raise ValueError(f"{a!r} declares no primitive idempotents")
    return a.idempotents


def corners(a, vectors):
    """C[u][v] = the reduced echelon basis of span{e_u x e_v : x in vectors}
    over the declared primitive idempotents.

    The products x e_v do not depend on e_u, so they are formed once per
    e_v, and the zero ones are dropped, since e_u 0 = 0 adds nothing to a
    span.  Both rounds form only the products that `product_pairs` allows:
    any other x e_v or e_u (x e_v) is zero by support.  So the cost is the
    pairs whose supports meet a stored product, not s*|vectors| +
    s^2*(nonzero x e_v) for s idempotents.

    The idempotents have degree 0, so the corner products of homogeneous
    vectors are homogeneous, and so is every row of their reduced echelon
    basis: that basis is unique, and the union of the reduced bases of the
    degree components is one.
    """
    f = a.field
    idems = primitive_idempotents(a)
    right = [[] for _ in idems]  # per e_v, the nonzero x e_v
    for s, v in product_pairs(a, vectors, idems):
        p = a.product(vectors[s], idems[v])
        if p:
            right[v].append(p)
    out = [[None] * len(idems) for _ in idems]
    for v, prods in enumerate(right):
        left = [[] for _ in idems]
        for u, s in product_pairs(a, idems, prods):
            left[u].append(a.product(idems[u], prods[s]))
        for u, vecs in enumerate(left):
            out[u][v] = span_basis(f, vecs)
    return out


# ---------------------------------------------------------------------------
# degree-zero part, global dimension
# ---------------------------------------------------------------------------

def degree_zero_part(a):
    """The degree-0 subalgebra, on the basis vectors of degree 0 in index
    order, with the parent's idempotents, labels and the degree-0 vectors
    of its radical hint.  Cached on the parent."""
    if "deg0" in a._cache:
        return a._cache["deg0"]
    kept = a.component_indices(0)
    pos = {g: i for i, g in enumerate(kept)}
    restrict = lambda vec: {pos[k]: c for k, c in vec.items()}
    # a product of degree-0 elements has degree 0
    mult = [{pos[j]: restrict(w) for j, w in a.mult[g].items() if j in pos}
            for g in kept]
    idem = None
    if a.idempotents is not None:
        idem = [restrict(e) for e in a.idempotents]
    hint = None
    if a.radical_hint is not None:
        hint = [restrict(v) for v in a.radical_hint
                if all(a.degrees[k] == 0 for k in v)]
    labels = [a.label_of(g) for g in kept] if a.labels else None
    a._cache["deg0"] = GradedAlgebra(a.field, [0] * len(kept), mult, restrict(a.unit),
                                     idempotents=idem, labels=labels, radical_hint=hint)
    return a._cache["deg0"]


def global_dimension_bounded(a, bound):
    """Max projective dimension of the simple modules, truncated at bound.

    Returns an int, or the string sentinel EXCEEDS_BOUND when some simple has
    no projective resolution of length <= bound: as soon as its syzygy at
    depth bound is not projective, with no deeper syzygy taken.  Raises
    ValueError for a bound below 0.
    """
    from . import modules as gm

    if bound < 0:
        raise ValueError(f"global dimension bound must be >= 0, got {bound}")
    if a.dim == 0:
        return 0
    count = len(primitive_idempotents(a))
    worst = 0
    for i in range(1, count + 1):
        m = gm.simple(a, i)
        pd = 0
        while not gm.is_projective(m):
            if pd == bound:
                return EXCEEDS_BOUND
            m = gm.syzygy_of(m)
            pd += 1
        worst = max(worst, pd)
    return worst
