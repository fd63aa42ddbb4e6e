"""Spans and call counters around rgdcheck's public functions and methods.

``Tracer`` installs wrappers on entry and removes them on exit.  Modules in
the package import functions by name (``verify`` binds ``open_interval``,
``affine`` binds ``dot``), so a module-level function is replaced in every
``rgdcheck`` module that binds it, not only where it is defined.  Methods are
replaced on the class that defines them.

A span records name, start, end, parent span and the exception class it
raised, if any.  Spans stay in flat in-memory arrays until ``metrics`` and
``write_spans`` read them.  Self time is a span's duration minus the
durations of its direct children.  The hottest layers (scalar arithmetic,
polynomial products, root-system and affine predicates) are counted only.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array
from contextlib import contextmanager
from importlib import import_module

# span name -> (module, qualified attribute); "Class.method" patches the class
SPANS = {
    "models.relative_pinning": ("rgdcheck.models", "GroupModel.relative_pinning"),
    "models.contains": (
        "rgdcheck.models",
        "SplitSLModel.contains",
        "SUModel.contains",
    ),
    "models.peel": ("rgdcheck.models", "GroupModel.peel"),
    "models.peel_product": ("rgdcheck.models", "GroupModel.peel_product"),
    "models.w_element_parts": ("rgdcheck.models", "GroupModel.w_element_parts"),
    "models.coroot": ("rgdcheck.models", "GroupModel.coroot"),
    "models.q2_additive": ("rgdcheck.models", "GroupModel.q2_additive"),
    "laurent.matmul": ("rgdcheck.laurent", "LaurentMatrix.__matmul__"),
    "laurent.det": ("rgdcheck.laurent", "LaurentMatrix.det"),
    "laurent.inverse": ("rgdcheck.laurent", "LaurentMatrix.inverse"),
    "affine.open_interval": ("rgdcheck.affine", "open_interval"),
    "cli.render_json": ("rgdcheck.cli", "render_json"),
}

# counter name -> (module, qualified attribute, ...)
COUNTERS = {
    "laurent.poly_mul": (
        "rgdcheck.laurent",
        "LaurentPoly.__mul__",
        "LaurentPoly.__rmul__",
    ),
    "scalars.new": ("rgdcheck.scalars", "FieldScalar.__init__"),
    "scalars.add": ("rgdcheck.scalars", "FieldScalar.__add__", "FieldScalar.__radd__"),
    "scalars.inverse": ("rgdcheck.scalars", "FieldScalar.inverse"),
    "affine.is_prenilpotent": ("rgdcheck.affine", "is_prenilpotent"),
    "affine.affine_reflect": ("rgdcheck.affine", "affine_reflect"),
    "affine.half_space_contains": ("rgdcheck.affine", "half_space_contains"),
    "affine.reflect_point": ("rgdcheck.affine", "reflect_point"),
    "affine.prenilpotent_oracle": ("rgdcheck.affine", "prenilpotent_oracle"),
    "roots.dot": ("rgdcheck.roots", "dot"),
    "roots.pairing": ("rgdcheck.roots", "pairing"),
    "roots.reflect_root": ("rgdcheck.roots", "RootSystem.reflect_root"),
}

# scalar products get their own wrapper: it also counts quadratic operands
SCALAR_MUL = ("rgdcheck.scalars", "FieldScalar.__mul__", "FieldScalar.__rmul__")

RESIDUE = "ResidueNotIdentity"
MISS = "NotInRootGroup"
TIME_SUFFIXES = ("_s", ".s")  # metric names that hold times


def _resolve(module: str, qualname: str):
    """(owner, attribute, original) for a module function or class method."""
    owner = import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def _rgdcheck_modules():
    return [
        m
        for name, m in sorted(sys.modules.items())
        if m is not None and (name == "rgdcheck" or name.startswith("rgdcheck."))
    ]


def bindings() -> dict[tuple[str, str], object]:
    """Every binding a wrapper may replace: module attributes and the
    patched class attributes.  Equal before and after a traced pass when
    every wrapper was removed."""
    out = {}
    for module, *quals in [*SPANS.values(), *COUNTERS.values(), SCALAR_MUL]:
        for q in quals:
            _, attr, current = _resolve(module, q)
            out[(module, q)] = current
    for mod in _rgdcheck_modules():
        for attr, val in vars(mod).items():
            out[(mod.__name__, attr)] = val
    return out


class Tracer:
    """Context manager: patches rgdcheck on entry, restores it on exit."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.errors: list[str] = []
        self.span_name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.err = array("B")
        self._stack = [-1]
        self._cells: dict[str, list[int]] = {}
        self._patches: list[tuple[object, str, object]] = []
        # extra per-layer tallies that hooks fill in
        self.pinning_seen: set = set()
        self.pinning_repeats = 0
        self.matmul_density_sum = 0.0
        self.doubled_pairs = 0

    # -- spans ----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _err_id(self, exc: BaseException) -> int:
        name = type(exc).__name__
        if name not in self.errors:
            self.errors.append(name)
        return self.errors.index(name) + 1

    def _span_wrapper(self, name: str, fn, pre=None, post=None):
        nid = self._name_id(name)
        names, starts, ends = self.span_name, self.start, self.end
        parents, errs, stack = self.parent, self.err, self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kw):
            if pre is not None:
                pre(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            errs.append(0)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kw)
            except BaseException as exc:
                errs[idx] = tracer._err_id(exc)
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if post is not None:
                post(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def region(self, name: str):
        """A span opened by the caller rather than by a wrapper."""
        idx = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.err.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            yield idx
        finally:
            self.end[idx] = time.perf_counter()
            self._stack.pop()

    # -- counters -------------------------------------------------------------

    def _counter_wrapper(self, name: str, fn):
        cell = self._cells.setdefault(name, [0])

        def wrapper(*args, **kw):
            cell[0] += 1
            return fn(*args, **kw)

        wrapper.__wrapped__ = fn
        return wrapper

    def _scalar_mul_wrapper(self, fn):
        cell = self._cells.setdefault("scalars.mul", [0])
        quad = self._cells.setdefault("scalars.mul.quadratic", [0])

        def wrapper(self_, other):
            cell[0] += 1
            if self_.ext or getattr(other, "ext", 0):
                quad[0] += 1
            return fn(self_, other)

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str) -> int:
        return self._cells.get(name, [0])[0]

    # -- hooks ------------------------------------------------------------------

    def _pinning_pre(self, args):
        key = (id(args[0]), args[1])
        if key in self.pinning_seen:
            self.pinning_repeats += 1
        else:
            self.pinning_seen.add(key)

    def _matmul_pre(self, args):
        a, b = args
        nonzero = sum(1 for m in (a, b) for row in m.rows for e in row if e.coeffs)
        self.matmul_density_sum += nonzero / (2 * a.n * a.n)

    def _interval_post(self, interval):
        members = set(interval)
        for gamma in interval:
            double = (tuple(2 * x for x in gamma.root), 2 * gamma.level)
            if double in members:
                self.doubled_pairs += 1
                return

    # -- install and restore ------------------------------------------------------

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _install(self, module: str, qualname: str, make):
        owner, attr, orig = _resolve(module, qualname)
        new = make(orig)
        if owner is import_module(module):
            # module-level function: replace it wherever it is bound by name
            for mod in _rgdcheck_modules():
                if mod.__dict__.get(attr) is orig:
                    self._patch(mod, attr, new)
        else:
            self._patch(owner, attr, new)

    def __enter__(self):
        hooks = {
            "models.relative_pinning": (self._pinning_pre, None),
            "laurent.matmul": (self._matmul_pre, None),
            "affine.open_interval": (None, self._interval_post),
        }
        try:
            for name, (module, *quals) in SPANS.items():
                pre, post = hooks.get(name, (None, None))
                for q in quals:
                    self._install(
                        module,
                        q,
                        lambda f, n=name, a=pre, b=post: self._span_wrapper(n, f, a, b),
                    )
            for name, (module, *quals) in COUNTERS.items():
                for q in quals:
                    self._install(
                        module, q, lambda f, n=name: self._counter_wrapper(n, f)
                    )
            module, *quals = SCALAR_MUL
            for q in quals:
                self._install(module, q, self._scalar_mul_wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def _restore(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def __exit__(self, *exc):
        self._restore()
        return False

    # -- reading the spans -----------------------------------------------------------

    def suite_totals(self) -> dict[int, dict[str, int]]:
        """Per region span: span counts by name, and error counts as
        '<name>!<ErrorClass>', over every span beneath it."""
        names, parents, errs = self.span_name, self.parent, self.err
        region_of = array("l", [-1]) * len(names)
        out: dict[int, dict[str, int]] = {}
        is_region = [n.startswith("verify.") for n in self.names]
        for i in range(len(names)):
            p = parents[i]
            if is_region[names[i]]:
                region_of[i] = i
                out[i] = {}
                continue
            r = region_of[p] if p >= 0 else -1
            region_of[i] = r
            if r < 0:
                continue
            tally = out[r]
            key = self.names[names[i]]
            tally[key] = tally.get(key, 0) + 1
            if errs[i]:
                ekey = f"{key}!{self.errors[errs[i] - 1]}"
                tally[ekey] = tally.get(ekey, 0) + 1
        return out

    def metrics(self) -> dict[str, float]:
        """Per-layer counts and times over every span and counter recorded."""
        names, parents, errs = self.span_name, self.parent, self.err
        n = len(names)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child_time = [0.0] * n
        # per span: bit 1 = a matmul child, bit 2 = a det child, and the
        # number of inverse children (one per failed peel_product pass)
        child_kinds = [0] * n
        inverse_children = [0] * n
        nid = self._name_ids.get
        matmul, det, inverse = nid("laurent.matmul"), nid("laurent.det"), nid("laurent.inverse")
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child_time[p] += dur[i]
                k = names[i]
                if k == matmul:
                    child_kinds[p] |= 1
                elif k == det:
                    child_kinds[p] |= 2
                elif k == inverse:
                    inverse_children[p] += 1
        calls = [0] * len(self.names)
        total = [0.0] * len(self.names)
        self_time = [0.0] * len(self.names)
        for i in range(n):
            k = names[i]
            calls[k] += 1
            total[k] += dur[i]
            self_time[k] += dur[i] - child_time[i]

        def span(name):
            k = nid(name)
            if k is None:
                return 0, 0.0, 0.0
            return calls[k], total[k], self_time[k]

        def err_count(name, error):
            k = nid(name)
            if k is None or error not in self.errors:
                return 0
            e = self.errors.index(error) + 1
            return sum(1 for i in range(n) if names[i] == k and errs[i] == e)

        m: dict[str, float] = {}
        c, _, s = span("models.relative_pinning")
        m["models.relative_pinning.calls"] = c
        m["models.relative_pinning.self_s"] = s
        m["models.relative_pinning.repeat_share"] = self.pinning_repeats / c if c else 0.0
        c, t, _ = span("models.contains")
        m["models.contains.calls"] = c
        m["models.contains.s"] = t
        c, _, s = span("models.peel")
        m["models.peel.calls"] = c
        m["models.peel.self_s"] = s
        m["models.peel.misses"] = err_count("models.peel", MISS)

        c, _, s = span("models.peel_product")
        k = nid("models.peel_product")
        passes = useful = cap_hits = 0
        if k is not None:
            residue = self.errors.index(RESIDUE) + 1 if RESIDUE in self.errors else -1
            for i in range(n):
                if names[i] != k:
                    continue
                # every pass that does not match ends in one inverse call
                p = inverse_children[i] + (0 if errs[i] else 1)
                passes += p
                if errs[i] == residue:
                    cap_hits += 1
                elif not errs[i]:
                    useful += p
        m["models.peel_product.calls"] = c
        m["models.peel_product.self_s"] = s
        m["models.peel_product.passes"] = passes
        m["models.peel_product.cap_hits"] = cap_hits
        m["models.peel_product.useful_share"] = useful / passes if passes else 0.0
        for name in ("w_element_parts", "coroot", "q2_additive"):
            c, t, _ = span(f"models.{name}")
            m[f"models.{name}.calls"] = c
            m[f"models.{name}.s"] = t

        c, _, s = span("laurent.matmul")
        m["laurent.matmul.calls"] = c
        m["laurent.matmul.self_s"] = s
        m["laurent.matmul.density"] = self.matmul_density_sum / c if c else 0.0
        c, _, s = span("laurent.det")
        m["laurent.det.calls"] = c
        m["laurent.det.self_s"] = s
        c, _, s = span("laurent.inverse")
        m["laurent.inverse.calls"] = c
        m["laurent.inverse.self_s"] = s
        paths = {"diagonal": 0, "neumann": 0, "adjugate": 0}
        k = nid("laurent.inverse")
        if k is not None:
            for i in range(n):
                if names[i] == k:
                    kinds = child_kinds[i]
                    if kinds & 2:
                        paths["adjugate"] += 1
                    elif kinds & 1:
                        paths["neumann"] += 1
                    else:
                        paths["diagonal"] += 1
        for path, v in paths.items():
            m[f"laurent.inverse.{path}"] = v
        m["laurent.poly_mul.calls"] = self.count("laurent.poly_mul")

        for name in ("new", "mul", "add", "inverse"):
            m[f"scalars.{name}.calls"] = self.count(f"scalars.{name}")
        muls = self.count("scalars.mul")
        m["scalars.mul.quadratic_share"] = (
            self.count("scalars.mul.quadratic") / muls if muls else 0.0
        )

        c, t, _ = span("affine.open_interval")
        m["affine.open_interval.calls"] = c
        m["affine.open_interval.s"] = t
        m["affine.open_interval.doubled_pairs"] = self.doubled_pairs
        for name in (
            "is_prenilpotent",
            "affine_reflect",
            "half_space_contains",
            "reflect_point",
            "prenilpotent_oracle",
        ):
            m[f"affine.{name}.calls"] = self.count(f"affine.{name}")
        for name in ("dot", "pairing", "reflect_root"):
            m[f"roots.{name}.calls"] = self.count(f"roots.{name}")
        _, t, _ = span("cli.render_json")
        m["cli.render_json.s"] = t
        m["trace.spans"] = n
        return m

    def write_spans(self, path) -> None:
        """Write every span as tab-separated text, gzip-compressed."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("# name\tstart_s\tend_s\tparent\terror\n")
            for i in range(len(self.span_name)):
                e = self.err[i]
                fh.write(
                    f"{self.names[self.span_name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t"
                    f"{self.errors[e - 1] if e else ''}\n"
                )
