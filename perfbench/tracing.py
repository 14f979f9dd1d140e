"""Per-layer tracing of the rblie package, from the outside.

`Tracer.install` replaces public functions of the package's modules with
wrappers and `Tracer.uninstall` puts the originals back; nothing under
`src/` is edited.  Three kinds of record are kept in memory:

* spans (name, start, end, parent) around layer entry points such as
  `serialize.load`, `cli.verify_structure`, the `*_checks` builders and the
  constructions; self time is a span's duration minus its child spans and
  the check time it encloses;
* per-family aggregates of check evaluation (count and summed time), with
  each condition id attributed to the module that defines it;
* per-kernel aggregates of the tensor applies (count and summed time), with
  the dense grid size and the number of nonzero products computed from the
  arguments outside the timed interval.
"""

from __future__ import annotations

import re
from collections import defaultdict
from time import perf_counter

# Constituent prefixes the verifiers put in front of a condition id.
_PREFIX = re.compile(r"^(src-|tgt-|alg-|g0-|g1-|p0-|p1-|op\d+-)+")

CHECK_MODULES = ("liealg", "twoterm", "lie2", "crossed")

# Layer entry points recorded as spans: module -> (span group, functions).
SPANNED = {
    "cli": ("cli.verify_structure", ("verify_structure",)),
    "liealg": ("liealg.construct", (
        "prelie_from_rb", "subadjacent_lie", "derived_bracket",
        "adjoint_representation", "dual_representation",
        "coadjoint_representation", "semidirect_product")),
    "crossed": ("crossed.construct", (
        "strict_to_crossed", "crossed_to_strict", "crossed_semidirect",
        "rb_crossed_to_prelie_crossed", "prelie_crossed_to_lie_crossed",
        "derived_crossed")),
    "twoterm": ("twoterm.compose", ("compose_rb_homs",)),
}

PER_LAYER = (
    "tensors.linear_apply.calls", "tensors.bilinear_apply.calls",
    "tensors.trilinear_apply.calls", "tensors.solve_exact.calls",
    "tensors.apply_s", "tensors.share", "tensors.grid_cells",
    "tensors.nonzero_terms", "tensors.useful_ratio",
    "lie2.diagram.checks", "lie2.diagram.eval_s",
    "lie2.crosscheck.checks", "lie2.crosscheck.eval_s",
    "lie2.roundtrip.checks", "lie2.roundtrip.eval_s",
    "twoterm.checks", "twoterm.eval_s", "twoterm.compose_s",
    "liealg.checks", "liealg.eval_s", "liealg.construct_s",
    "crossed.checks", "crossed.eval_s", "crossed.construct_s",
    "report.run_checks.calls", "report.checks", "report.violations",
    "report.build_s", "report.self_s",
    "serialize.load.calls", "serialize.load_s", "serialize.dump.calls",
    "serialize.dump_s", "serialize.bytes_out",
    "cli.verify_structure.calls", "cli.verify_structure_s",
    "search.enumerate_s", "search.candidates", "search.found",
    "search.found_ratio", "search.mutate.calls", "search.mutate_s",
    "trace.overhead_ratio",
)


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self, rb):
        self.rb = rb
        self.spans: list[list] = []        # [name, group, start, end, parent, covered]
        self._stack: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.times: dict[str, float] = defaultdict(float)
        self._in_check = False
        self._family: dict[tuple[str, object], str] = {}
        self._nonzero: dict[int, tuple] = {}   # id(tensor) -> (tensor, nonzero layout)
        self._sources = {m: getattr(rb, m).__loader__.get_source(f"rblie.{m}")
                         for m in CHECK_MODULES}
        self._patched: list[tuple[object, str, object]] = []

    # --- spans -----------------------------------------------------------

    def open(self, name: str, group: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, group, perf_counter(), None, parent, 0.0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][3] = perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, group: str, fn, after=None):
        def wrapper(*args, **kwargs):
            i = self.open(name, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(args, result)
            return result
        return wrapper

    def outermost(self, group: str) -> tuple[int, float]:
        """Call count and summed duration of the spans of `group` that have
        no ancestor in the same group (recursion is counted once)."""
        calls, total = 0, 0.0
        for s in self.spans:
            p = s[4]
            while p is not None and self.spans[p][1] != group:
                p = self.spans[p][4]
            if s[1] == group and p is None:
                calls += 1
                total += s[3] - s[2]
        return calls, total

    def _self_times(self) -> list[float]:
        """Each span's duration minus its child spans and enclosed checks."""
        own = [s[3] - s[2] - s[5] for s in self.spans]
        for s in self.spans:
            if s[4] is not None:
                own[s[4]] -= s[3] - s[2]
        return own

    def self_time(self, group: str) -> float:
        """Summed self time of the spans of `group`."""
        return sum(t for s, t in zip(self.spans, self._self_times()) if s[1] == group)

    # --- checks ----------------------------------------------------------

    def family(self, condition: str, fn) -> str:
        """Metric family of a condition: the module whose source defines the
        id (after stripping constituent prefixes), split into diagram,
        crosscheck and roundtrip for lie2."""
        cid = _PREFIX.sub("", condition)
        key = (cid, getattr(fn, "__module__", None))
        fam = self._family.get(key)
        if fam is None:
            literal = f'"{cid}"'
            home = (key[1] or "").rpartition(".")[2]
            order = (home,) + CHECK_MODULES if home in CHECK_MODULES else CHECK_MODULES
            module = next((m for m in order if literal in self._sources[m]),
                          home if home in CHECK_MODULES else "other")
            if module == "lie2":
                module = ("lie2.roundtrip" if cid.startswith("rt-") else
                          "lie2.crosscheck" if "-vs-" in cid else "lie2.diagram")
            fam = self._family[key] = module
        return fam

    def _timed_check(self, fam: str, fn):
        def thunk():
            start = perf_counter()
            self._in_check = True
            try:
                return fn()
            finally:
                self._in_check = False
                dt = perf_counter() - start
                self.counts[f"{fam}.checks"] += 1
                self.times[f"{fam}.eval_s"] += dt
                self.times["checks_s"] += dt
                if self._stack:
                    self.spans[self._stack[-1]][5] += dt
        return thunk

    def _run_checks(self, fn):
        def run_checks(checks, workers: int = 1):
            wrapped = [(c, idx, self._timed_check(self.family(c, f), f))
                       for c, idx, f in checks]
            i = self.open("report.run_checks", "report.run_checks")
            try:
                report = fn(wrapped, workers)
            finally:
                self.close(i)
            self.counts["report.checks"] += report.checked
            self.counts["report.violations"] += len(report.violations)
            return report
        return run_checks

    # --- tensor kernels --------------------------------------------------

    def _layout(self, t, build):
        entry = self._nonzero.get(id(t))
        if entry is None:
            entry = self._nonzero[id(t)] = (t, build(t))
        return entry[1]

    @staticmethod
    def _linear_layout(m):
        return [sum(1 for r in range(m.rows) if m.entries[r][c] != 0) for c in range(m.cols)]

    @staticmethod
    def _bilinear_layout(b):
        return [(i, j, n) for i in range(b.dim_a) for j in range(b.dim_b)
                if (n := sum(1 for k in range(b.dim_out) if b.coeffs[k][i][j] != 0))]

    @staticmethod
    def _trilinear_layout(t):
        d = t.dim
        return [(i, j, k, n) for i in range(d) for j in range(d) for k in range(d)
                if (n := sum(1 for l in range(t.dim_out) if t.coeffs[l][i][j][k] != 0))]

    def _grid(self, name, t, args):
        if name == "linear":
            u, = args
            cols = self._layout(t, self._linear_layout)
            return t.rows * t.cols, sum(n for c, n in enumerate(cols) if u[c] != 0)
        if name == "bilinear":
            u, v = args
            nz = sum(n for i, j, n in self._layout(t, self._bilinear_layout)
                     if u[i] != 0 and v[j] != 0)
            return t.dim_out * t.dim_a * t.dim_b, nz
        u, v, w = args
        nz = sum(n for i, j, k, n in self._layout(t, self._trilinear_layout)
                 if u[i] != 0 and v[j] != 0 and w[k] != 0)
        return t.dim_out * t.dim ** 3, nz

    def _kernel(self, name, fn):
        def apply(t, *args):
            start = perf_counter()
            result = fn(t, *args)
            dt = perf_counter() - start
            self.counts[f"tensors.{name}_apply.calls"] += 1
            self.times["tensors.apply_s"] += dt
            if self._in_check:
                self.times["apply_in_checks_s"] += dt
            cells, nz = self._grid(name, t, args)
            self.counts["tensors.grid_cells"] += cells
            self.counts["tensors.nonzero_terms"] += nz
            return result
        return apply

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def end_op(self) -> None:
        """Forget the nonzero layouts cached during one operation."""
        self._nonzero.clear()

    # --- install ---------------------------------------------------------

    def _replace_function(self, module, name: str, make) -> None:
        """Swap function `name` of `module` for a wrapper everywhere the
        package refers to it: module globals, and tuples held in module-level
        dicts (the CLI's table of constructions)."""
        orig = getattr(module, name)
        wrapper = make(orig)
        for mod in self.rb.modules():
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._set(vars(mod), attr, wrapper)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if isinstance(item, tuple) and any(x is orig for x in item):
                            self._set(value, key,
                                      tuple(wrapper if x is orig else x for x in item))

    def _set(self, namespace: dict, key, value) -> None:
        self._patched.append((namespace, key, namespace[key]))
        namespace[key] = value

    def _replace_method(self, cls, name: str, wrapper) -> None:
        self._patched.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, wrapper)

    def install(self) -> None:
        rb = self.rb
        t = rb.tensors
        for cls, name in ((t.LinearMap, "linear"), (t.BilinearMap, "bilinear"),
                          (t.TrilinearMap, "trilinear")):
            self._replace_method(cls, "apply", self._kernel(name, cls.apply))
        self._replace_function(t, "solve_exact",
                               lambda f: self._counted("tensors.solve_exact.calls", f))
        self._replace_function(rb.report, "run_checks", self._run_checks)
        for mod_name in CHECK_MODULES:
            mod = getattr(rb, mod_name)
            for name, value in list(vars(mod).items()):
                if (name.endswith("_checks") and callable(value)
                        and getattr(value, "__module__", None) == mod.__name__):
                    self._replace_function(mod, name, lambda f, n=name: self._spanned(
                        f"{mod_name}.{n}", "report.build", f))
        for mod_name, (group, names) in SPANNED.items():
            mod = getattr(rb, mod_name)
            for name in names:
                self._replace_function(mod, name, lambda f, n=name: self._spanned(
                    f"{mod_name}.{n}", group, f))
        ser, search = rb.serialize, rb.search
        self._replace_function(ser, "load", lambda f: self._spanned(
            "serialize.load", "serialize.load", f))
        self._replace_function(ser, "dumps", lambda f: self._spanned(
            "serialize.dumps", "serialize.dump", f, self._count_bytes))
        self._replace_function(search, "mutate", lambda f: self._spanned(
            "search.mutate", "search.mutate", f))
        self._replace_function(search, "enumerate_rb_operators", lambda f: self._spanned(
            "search.enumerate_rb_operators", "search.enumerate", f, self._count_search))

    def _count_bytes(self, args, text) -> None:
        self.counts["serialize.bytes_out"] += len(text.encode("utf-8"))

    def _count_search(self, args, found) -> None:
        self.counts["search.candidates"] += args[0].candidate_count()
        self.counts["search.found"] += len(found)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patched):
            if isinstance(owner, dict):
                owner[key] = orig
            else:
                setattr(owner, key, orig)
        self._patched.clear()

    # --- metrics ---------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        c, t = self.counts, self.times
        out: dict[str, float] = {}
        for name in ("linear", "bilinear", "trilinear"):
            out[f"tensors.{name}_apply.calls"] = c[f"tensors.{name}_apply.calls"]
        out["tensors.solve_exact.calls"] = c["tensors.solve_exact.calls"]
        out["tensors.apply_s"] = t["tensors.apply_s"]
        out["tensors.share"] = _ratio(t["apply_in_checks_s"], t["checks_s"])
        out["tensors.grid_cells"] = c["tensors.grid_cells"]
        out["tensors.nonzero_terms"] = c["tensors.nonzero_terms"]
        out["tensors.useful_ratio"] = _ratio(c["tensors.nonzero_terms"], c["tensors.grid_cells"])
        for fam in ("lie2.diagram", "lie2.crosscheck", "lie2.roundtrip",
                    "twoterm", "liealg", "crossed"):
            out[f"{fam}.checks"] = c[f"{fam}.checks"]
            out[f"{fam}.eval_s"] = t[f"{fam}.eval_s"]
        out["twoterm.compose_s"] = self.outermost("twoterm.compose")[1]
        out["liealg.construct_s"] = self.outermost("liealg.construct")[1]
        out["crossed.construct_s"] = self.outermost("crossed.construct")[1]
        out["report.run_checks.calls"] = self.outermost("report.run_checks")[0]
        out["report.checks"] = c["report.checks"]
        out["report.violations"] = c["report.violations"]
        out["report.build_s"] = self.outermost("report.build")[1]
        out["report.self_s"] = self.self_time("report.run_checks")
        out["serialize.load.calls"], out["serialize.load_s"] = self.outermost("serialize.load")
        out["serialize.dump.calls"], out["serialize.dump_s"] = self.outermost("serialize.dump")
        out["serialize.bytes_out"] = c["serialize.bytes_out"]
        out["cli.verify_structure.calls"], out["cli.verify_structure_s"] = \
            self.outermost("cli.verify_structure")
        out["search.enumerate_s"] = self.outermost("search.enumerate")[1]
        out["search.candidates"] = c["search.candidates"]
        out["search.found"] = c["search.found"]
        out["search.found_ratio"] = _ratio(c["search.found"], c["search.candidates"])
        out["search.mutate.calls"], out["search.mutate_s"] = self.outermost("search.mutate")
        return out

    def span_summary(self) -> list[tuple[str, int, float, float]]:
        """(name, calls, total seconds, self seconds) per span name."""
        rows: dict[str, list] = {}
        for s, own in zip(self.spans, self._self_times()):
            row = rows.setdefault(s[0], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += s[3] - s[2]
            row[2] += own
        return [(name, *row) for name, row in sorted(rows.items())]
