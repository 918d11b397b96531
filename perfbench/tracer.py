"""Outside-in tracing of qshape's layers.

`install` wraps the public functions and the constructors of public classes
in each layer module of `qshape` and rebinds every name under which another
module imported them (`from .modules import hom_graded` makes a second
binding in the importing module).  Each call becomes a span: name, start,
end, parent and job id, kept in memory and written out when the run ends.

`linalg` is the leaf layer: its functions run millions of times a job, so
they are not recorded one by one.  They are counted, and the outermost
linalg call under a span is timed and folded into that span as `leaf_s`.
`fields` and the sparse-vector helpers `linalg.vec_*` are not wrapped; their
cost shows in the self time of whichever layer calls them.

Only the traced child imports this module; untraced runs load no wrapper.
"""

import inspect
import json
import sys
import time
from types import FunctionType

LAYERS = ("algebra", "modules", "stable", "tilting", "window", "basechange", "cli")
LEAF = "linalg"

# cheap helpers called so often that a span each would swamp the trace
SKIP = {
    "algebra.same_algebra", "algebra.sup_degree", "algebra.RadicalData",
    "modules.idempotent_vectors", "modules.GradedMap", "modules.module_equal",
    "tilting.AlgebraFingerprint", "tilting.CompareVerdict",
    "cli.ParseError", "cli.build_parser",
}
# cli is traced at `main` and per field of `verify`; argument parsing, file
# load and hash and JSON emit are its self time
CLI_ONLY = {"cli.main", "cli._verify_one_field"}
LEAF_METHODS = {"Echelon": ("insert", "reduce", "contains", "express", "extend")}
LEAF_SKIP_PREFIX = "vec_"


# span attributes read from arguments and result once a call returns
ATTRS = {
    "algebra.compile_quiver": lambda a, r: {"dim": r.dim},
    "algebra.GradedAlgebra": lambda a, r: {"dim": a[0].dim},
    "modules.HomSpace": lambda a, r: {"src": a[1].dim, "tgt": a[2].dim, "dim": a[0].dim},
    "modules.syzygy_of": lambda a, r: {"dim": r.dim},
    "modules.cosyzygy_of": lambda a, r: {"dim": r.dim},
    "tilting.GammaData": lambda a, r: {"dim": a[0].algebra.dim},
    "window.QWindow": lambda a, r: {"objects": len(a[0].objects)},
    "window.check_window_properties":
        lambda a, r: {"pairs": r["property_5"].get("pairs_checked", 0)},
    "basechange.TensorAlgebra": lambda a, r: {"dim": a[0].dim},
    "cli._verify_one_field": lambda a, r: {"field": a[2].char},
}

# span slots while open: id, parent id, name, start, child seconds, leaf seconds
_ID, _PARENT, _NAME, _START, _CHILD, _LEAF = range(6)


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names = []
        self.spans = []  # (id, parent, job, name, start, end, child_s, leaf_s, attrs)
        self.jobs = []
        self.leaf_counts = {}  # name -> [calls, calls returning True]
        self._stack = [[-1, -1, -1, 0.0, 0.0, 0.0]]  # sentinel absorbs stray calls
        self._in_leaf = [False]
        self._job = -1
        self._next = 0
        self._job_name = self._name_id("job")

    # -- jobs ------------------------------------------------------------

    def begin_job(self, label, field):
        self._job = len(self.jobs)
        self.jobs.append({"job": self._job, "name": label, "field": field})
        for cell in self.leaf_counts.values():
            cell[0] = cell[1] = 0
        self._open(self._job_name)

    def end_job(self):
        frame = self._stack.pop()
        self._close(frame, time.perf_counter(), None)
        self.jobs[-1]["counters"] = {k: list(v) for k, v in self.leaf_counts.items()}
        self._job = -1

    # -- spans -----------------------------------------------------------

    def _name_id(self, name):
        self.names.append(name)
        return len(self.names) - 1

    def _open(self, name_id):
        frame = [self._next, self._stack[-1][_ID], name_id, 0.0, 0.0, 0.0]
        self._next += 1
        self._stack.append(frame)
        frame[_START] = time.perf_counter()
        return frame

    def _close(self, frame, end, attrs):
        dur = end - frame[_START]
        self._stack[-1][_CHILD] += dur
        self.spans.append((frame[_ID], frame[_PARENT], self._job, frame[_NAME],
                           frame[_START], end, frame[_CHILD], frame[_LEAF], attrs))

    def span(self, name, fn):
        name_id = self._name_id(name)
        attr_fn = ATTRS.get(name)
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                self._close(frame, perf(), {"raised": True})
                raise
            end = perf()
            stack.pop()
            self._close(frame, end, attr_fn(args, result) if attr_fn else None)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name, fn):
        cell = self.leaf_counts.setdefault(name, [0, 0])
        stack = self._stack
        in_leaf = self._in_leaf
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            cell[0] += 1
            if in_leaf[0]:
                result = fn(*args, **kwargs)
            else:
                in_leaf[0] = True
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    stack[-1][_LEAF] += perf() - start
                    in_leaf[0] = False
            if result is True:
                cell[1] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output ----------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "jobs": self.jobs, "spans": self.spans}, fh)


def _targets(mod, layer):
    """(qualified name, kind, object) for each wrappable public name of a layer."""
    for attr, obj in sorted(vars(mod).items()):
        qual = f"{layer}.{attr}"
        if getattr(obj, "__module__", None) != mod.__name__ or qual in SKIP:
            continue
        if layer == "cli" and qual not in CLI_ONLY:
            continue
        if layer != "cli" and attr.startswith("_"):
            continue
        if layer == LEAF:
            if isinstance(obj, FunctionType) and not attr.startswith(LEAF_SKIP_PREFIX):
                yield qual, "leaf", obj
            for meth in LEAF_METHODS.get(attr, ()):
                yield f"{qual}.{meth}", "leaf_method", (obj, meth)
        elif isinstance(obj, FunctionType):
            yield qual, "function", obj
        elif inspect.isclass(obj) and "__init__" in vars(obj):
            yield qual, "init", obj


def install(tracer):
    """Wrap every layer of the imported qshape package."""
    package = [m for n, m in sys.modules.items()
               if n == "qshape" or n.startswith("qshape.")]
    replaced = {}
    for layer in LAYERS + (LEAF,):
        mod = sys.modules[f"qshape.{layer}"]
        for qual, kind, obj in list(_targets(mod, layer)):
            if kind == "leaf":
                replaced[obj] = tracer.leaf(qual, obj)
            elif kind == "function":
                replaced[obj] = tracer.span(qual, obj)
            elif kind == "init":
                obj.__init__ = tracer.span(qual, obj.__init__)
            else:
                cls, meth = obj
                setattr(cls, meth, tracer.leaf(qual, getattr(cls, meth)))
    for mod in package:
        for attr, obj in list(vars(mod).items()):
            if isinstance(obj, FunctionType) and obj in replaced:
                setattr(mod, attr, replaced[obj])


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

# metric -> span names whose outermost occurrences are summed (inclusive time)
TIMED = {
    "algebra.compile_s": ("algebra.compile_quiver",),
    "algebra.construct_s": ("algebra.GradedAlgebra",),
    "algebra.gldim_s": ("algebra.global_dimension_bounded",),
    "algebra.idempotents_s": ("algebra.primitive_idempotents",),
    "algebra.radical_s": ("algebra.jacobson_radical",),
    "algebra.center_s": ("algebra.center_basis",),
    "modules.hom_s": ("modules.HomSpace",),
    "modules.cover_s": ("modules.ProjectiveCover",),
    "stable.ext_s": ("stable.stable_ext_table",),
    "stable.stable_hom_s": ("stable.StableHomSpace",),
    "stable.end_s": ("stable.StableEnd",),
    "tilting.hypotheses_s": ("tilting.check_hypotheses",),
    "tilting.tilt_s": ("tilting.tilting_module",),
    "tilting.gamma_s": ("tilting.GammaData",),
    "tilting.reference_s": ("tilting.reference_upper_triangular",
                            "tilting.reference_auslander_linear",
                            "tilting.reference_subcategory_algebra"),
    "tilting.fingerprint_s": ("tilting.fingerprint",),
    "tilting.cartan_s": ("tilting.cartan_matrix", "tilting.canonical_matrix"),
    "tilting.compare_s": ("tilting.compare",),
    "window.build_s": ("window.QWindow",),
    "window.check_s": ("window.check_window_properties",),
    "basechange.tensor_s": ("basechange.TensorAlgebra",),
    "basechange.istar_s": ("basechange.i_star",),
    "basechange.hom_check_s": ("basechange.base_change_hom_check",),
    "basechange.gamma_tensor_s": ("basechange.gamma_tensor",),
}


def _ratio(num, den):
    return num / den if den else 0.0


def analyse(doc):
    """Per-layer metrics and per-job checks from a dumped trace.

    Returns (metrics, jobs) where jobs lists, per job, its traced seconds and
    the sum of the self times of its spans (equal up to rounding).
    """
    names = doc["names"]
    spans = doc["spans"]
    by_id = {s[0]: s for s in spans}
    children = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)

    def has_ancestor_in(s, group):
        p = by_id.get(s[1])
        while p is not None:
            if names[p[3]] in group:
                return True
            p = by_id.get(p[1])
        return False

    m = {}
    for key, group in TIMED.items():
        m[key] = sum(s[5] - s[4] for s in spans
                     if names[s[3]] in group and not has_ancestor_in(s, group))

    self_by_layer = {layer: 0.0 for layer in LAYERS + (LEAF, "job")}
    jobs = {j["job"]: {"name": j["name"], "field": j["field"], "traced_s": 0.0,
                       "self_sum_s": 0.0} for j in doc["jobs"]}
    count = {}
    attrs = {}
    for s in spans:
        name = names[s[3]]
        layer = name.split(".", 1)[0]
        own = (s[5] - s[4]) - s[6] - s[7]
        self_by_layer[layer] += own
        self_by_layer[LEAF] += s[7]
        job = jobs[s[2]]
        job["self_sum_s"] += own + s[7]
        if name == "job":
            job["traced_s"] = s[5] - s[4]
        count[name] = count.get(name, 0) + 1
        if s[8]:
            attrs.setdefault(name, []).append(s[8])

    def attr_values(name, key):
        return [a[key] for a in attrs.get(name, []) if key in a]

    def attr_max(name, key):
        return max(attr_values(name, key), default=0)

    for layer in LAYERS + (LEAF,):
        m[f"{layer}.self_s"] = self_by_layer[layer]

    leaf = {}
    for j in doc["jobs"]:
        for k, (calls, true_calls) in j.get("counters", {}).items():
            c = leaf.setdefault(k, [0, 0])
            c[0] += calls
            c[1] += true_calls
    inserts = leaf.get("linalg.Echelon.insert", [0, 0])
    m["linalg.echelon_inserts"] = inserts[0]
    m["linalg.echelon_useful_ratio"] = _ratio(inserts[1], inserts[0])
    m["linalg.apply_row_calls"] = leaf.get("linalg.apply_row", [0, 0])[0]
    m["linalg.matmul_calls"] = leaf.get("linalg.sparse_matmul", [0, 0])[0]

    m["algebra.compiled_dim_max"] = attr_max("algebra.compile_quiver", "dim")
    m["algebra.construct_calls"] = count.get("algebra.GradedAlgebra", 0)
    m["algebra.construct_dim_max"] = attr_max("algebra.GradedAlgebra", "dim")

    homs = attr_values("modules.HomSpace", "dim")
    m["modules.hom_calls"] = len(homs)
    m["modules.hom_zero_ratio"] = _ratio(sum(1 for d in homs if d == 0), len(homs))
    m["modules.hom_src_dim_max"] = attr_max("modules.HomSpace", "src")
    m["modules.hom_tgt_dim_max"] = attr_max("modules.HomSpace", "tgt")
    m["modules.cover_builds"] = count.get("modules.ProjectiveCover", 0)
    cover_calls = [s for s in spans if names[s[3]] == "modules.cover_of"]
    hits = sum(1 for s in cover_calls
               if not any(names[c[3]] == "modules.ProjectiveCover"
                          for c in children.get(s[0], ())))
    m["modules.cover_hit_ratio"] = _ratio(hits, len(cover_calls))

    m["stable.stable_hom_calls"] = count.get("stable.StableHomSpace", 0)
    m["stable.syzygy_dim_max"] = max(attr_max("modules.syzygy_of", "dim"),
                                     attr_max("modules.cosyzygy_of", "dim"))
    m["tilting.gamma_dim"] = attr_max("tilting.GammaData", "dim")
    m["window.objects"] = sum(attr_values("window.QWindow", "objects"))
    m["window.serre_pairs"] = sum(attr_values("window.check_window_properties", "pairs"))
    m["basechange.tensor_dim_max"] = attr_max("basechange.TensorAlgebra", "dim")

    # seconds per field: a verify job splits at its per-field calls
    per_field = {0: 0.0}
    for j in jobs.values():
        if j["field"] is not None:
            per_field[j["field"]] = per_field.get(j["field"], 0.0) + j["traced_s"]
    for s in spans:
        if names[s[3]] == "cli._verify_one_field" and s[8] and "field" in s[8]:
            per_field[s[8]["field"]] = per_field.get(s[8]["field"], 0.0) + s[5] - s[4]
    m["fields.qq_s"] = per_field.pop(0)
    m["fields.gfp_s"] = sum(per_field.values())
    m["trace.spans"] = len(spans)
    return m, list(jobs.values())
