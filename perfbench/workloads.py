"""Workload job lists and the seeded input generator.

A job is one qshape CLI invocation.  File-input jobs name their algebras as
(family, parameter, field char) triples; the generator turns each triple into
a relabelled quiver presentation written as JSON, so qshape only ever sees
the generated files.  The presentations below are written out from the
families' definitions, independently of qshape's own builtins.
"""

import json
import os
import random

GF = 32003
FIELDS = (0, GF)

# verify grid: (family, parameter); verify runs both fields in one call
VERIFY_GRID = [
    ("truncated_polynomial", 3), ("truncated_polynomial", 6),
    ("truncated_polynomial", 10),
    ("preprojective_A", 2), ("preprojective_A", 3), ("preprojective_A", 4),
    ("exterior", 2), ("exterior", 3),
]
# preprojective_A 5 is left out of every comparison: qshape's Cartan
# canonical form is not permutation-invariant above 7 simples, so its Gamma
# (10 simples) gets a false mismatch(cartan) and QQ and GF(p) disagree.

WORKLOADS = ("verify", "ext-deep", "gamma-wide", "basechange")


class Job:
    """One CLI call: `command`, its algebra inputs and extra arguments.

    `inputs` is a list of (family, parameter) pairs, written to files in the
    job's field; `field` is None for verify, which runs both fields.
    """

    def __init__(self, command, inputs, extra=(), field=None):
        self.command = command
        self.inputs = list(inputs)
        self.extra = list(extra)
        self.field = field

    @property
    def name(self):
        parts = [self.command] + [f"{fam}:{par}" for fam, par in self.inputs] + self.extra
        if self.field is not None:
            parts.append("QQ" if self.field == 0 else f"GF{self.field}")
        return " ".join(parts)

    def argv(self, paths):
        """CLI arguments, given a map (family, parameter, char) -> file path."""
        if self.command == "verify":
            return ["verify", *self.extra]
        files = [paths[(fam, par, self.field)] for fam, par in self.inputs]
        if self.command == "basechange":
            return ["basechange", files[0], "--with", files[1], *self.extra]
        return [self.command, files[0], *self.extra]


def _per_field(jobs_qq):
    """The same file-input jobs in QQ, then in GF(p)."""
    out = []
    for char in FIELDS:
        for command, inputs, extra in jobs_qq:
            out.append(Job(command, inputs, extra, field=char))
    return out


def _checks(*inputs):
    # `check` is the only command whose report carries dim of the input algebra
    return [("check", [inp], []) for inp in inputs]


def jobs_for(workload, seed):
    if workload == "verify":
        grid = list(VERIFY_GRID)
        random.Random(f"verify:{seed}").shuffle(grid)
        return [Job("verify", [(fam, par)], [fam, str(par)]) for fam, par in grid]
    ext4, ext3 = ("exterior", 4), ("exterior", 3)
    tp14, tp16 = ("truncated_polynomial", 14), ("truncated_polynomial", 16)
    pa5 = ("preprojective_A", 5)
    pa4, pa2 = ("preprojective_A", 4), ("preprojective_A", 2)
    if workload == "ext-deep":
        return _per_field(_checks(ext4, ext3) + [
            ("ext", [ext4], ["--range", "2"]),
            ("ext", [ext3], ["--range", "5"]),
        ])
    if workload == "gamma-wide":
        # pA5 only through `check`: its compile without the faulty Cartan form
        return _per_field(_checks(tp14, pa5) + [
            ("gamma", [tp14], ["--compare", "upper_triangular:13"]),
            ("gamma", [tp16], ["--compare", "upper_triangular:15"]),
        ])
    if workload == "basechange":
        return _per_field(_checks(pa4, ext3, pa2) + [
            ("basechange", [pa4, pa2], []),
            ("basechange", [ext3, pa2], []),
        ])
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# presentations and relabelling
# ---------------------------------------------------------------------------

def presentation(family, n):
    """(vertices, arrows, relations, nilpotency bound) for a family member.

    Arrows are (name, source, target, degree); a relation is a list of
    (coefficient, right-to-left word) terms.
    """
    if family == "truncated_polynomial":
        # k[x]/x^n
        return ["v"], [("x", "v", "v", 1)], [[(1, ["x"] * n)]], n
    if family == "exterior":
        # x_i^2 = 0 and x_i x_j + x_j x_i = 0
        xs = [f"x{i}" for i in range(1, n + 1)]
        rels = [[(1, [x, x])] for x in xs]
        rels += [[(1, [xs[i], xs[j]]), (1, [xs[j], xs[i]])]
                 for i in range(n) for j in range(i + 1, n)]
        return ["v"], [(x, "v", "v", 1) for x in xs], rels, n + 1
    if family == "preprojective_A":
        # a_i: i -> i+1 in degree 0, b_i: i+1 -> i in degree 1; the
        # preprojective relation sum a b - b a = 0 at every vertex
        verts = [str(i) for i in range(1, n + 1)]
        arrows = []
        for i in range(1, n):
            arrows.append((f"a{i}", str(i), str(i + 1), 0))
            arrows.append((f"b{i}", str(i + 1), str(i), 1))
        rels = [[(1, ["b1", "a1"])], [(1, [f"a{n-1}", f"b{n-1}"])]]
        rels += [[(1, [f"b{i+1}", f"a{i+1}"]), (-1, [f"a{i}", f"b{i}"])]
                 for i in range(1, n - 1)]
        return verts, arrows, rels, 2 * n
    raise ValueError(f"unknown family {family!r}")


SCALARS = (1, -1)


def relabelled(family, n, rng):
    """A presentation isomorphic to the family member, relabelled from rng.

    Vertex order and names, arrow order and names are shuffled, and each
    arrow a is replaced by a new arrow g with a = s * g for a nonzero integer
    s; every relation term then picks up the product of its arrows' scalars.
    """
    verts, arrows, rels, bound = presentation(family, n)
    vnames = rng.sample(range(10, 100), len(verts))
    vmap = {v: f"v{k}" for v, k in zip(verts, vnames)}
    anames = rng.sample(range(100, 1000), len(arrows))
    amap = {a[0]: f"g{k}" for a, k in zip(arrows, anames)}
    scale = {a[0]: rng.choice(SCALARS) for a in arrows}
    new_verts = [vmap[v] for v in verts]
    rng.shuffle(new_verts)
    new_arrows = [{"name": amap[name], "from": vmap[src], "to": vmap[tgt], "degree": deg}
                  for name, src, tgt, deg in arrows]
    rng.shuffle(new_arrows)
    new_rels = []
    for rel in rels:
        terms = []
        for coeff, word in rel:
            for name in word:
                coeff *= scale[name]
            terms.append({"coeff": coeff, "path": [amap[name] for name in word]})
        new_rels.append(terms)
    return {"vertices": new_verts, "arrows": new_arrows,
            "relations": new_rels, "nilpotency_bound": bound}


def write_inputs(workload, seed, jobs, outdir):
    """Write one relabelled file per (family, parameter, char); return the paths.

    The relabelling depends on the seed and the algebra, not on the field,
    so the QQ and GF(p) jobs of one algebra see the same presentation.
    """
    os.makedirs(outdir, exist_ok=True)
    paths = {}
    for job in jobs:
        if job.command == "verify":
            continue
        for fam, par in job.inputs:
            key = (fam, par, job.field)
            if key in paths:
                continue
            rng = random.Random(f"{workload}:{seed}:{fam}:{par}")
            doc = {"field": {"char": job.field}, "quiver": relabelled(fam, par, rng)}
            path = os.path.join(outdir, f"{fam}_{par}_{job.field}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh, indent=1)
            paths[key] = path
    return paths
