"""Span tracer for the entcap benchmark.

The tracer wraps the public functions at each layer boundary of entcap, the
constructors of the two state types, and numpy's ``eigh``, ``eigvalsh`` and
``svd``.  A wrapper replaces the name in every entcap module that imported
it (and in dispatch tables that hold it), so calls between modules go
through the wrapper exactly as the program makes them.

Each call inside an operation records one span: name, start, end, parent
span, operation id and a weight (matrices in a batched linalg call, time
samples in a trajectory, 1 otherwise).  Spans stay in memory in one flat
float array and are written out when the run ends.  Calls made outside an
operation (input generation, correctness checks) record nothing.

Importing this module imports nothing but the standard library, so a traced
CLI run can time ``import entcap`` as its own span.
"""

from __future__ import annotations

import functools
import importlib
import time
from array import array

NAME, START, END, PARENT, OP, WEIGHT = range(6)
FIELDS = 6

# Public functions wrapped per layer, recorded as "<layer>.<function>".
BOUNDARIES = {
    "cli": ("main", "cmd_figure1", "cmd_figure2", "cmd_figures34", "cmd_maximize", "cmd_verify"),
    "verify": ("run_suite", "run_properties", "run_bounds"),
    "dynamics": ("simulate_trajectory", "evolve_matrix", "max_entangling_element_numeric"),
    "speed_limits": ("family_qsl_curve", "rate_bound_check", "hamiltonian_fluctuation"),
    "self_inverse": ("evolve_self_inverse", "capacity_rate_bounds"),
    "core": ("schmidt_decompose", "relative_entropy"),
    "measures": ("capacity_from_spectrum", "capacity_of"),
    "mixed": ("closest_separable_numeric", "project_separable", "capacity_mixed"),
}
# Classes whose construction (``__post_init__`` validation) is a span.
CLASSES = {"core": ("DensityOperator", "BipartitePureState")}
KERNELS = ("eigh", "eigvalsh", "svd")


def _batch(args, kwargs):
    a = args[0] if args else kwargs.get("a")
    shape = getattr(a, "shape", ())
    count = 1
    for n in shape[:-2]:
        count *= n
    return count


def _samples(args, kwargs):
    times = args[2] if len(args) > 2 else kwargs["times"]
    return len(times)


WEIGHTS = {"dynamics.simulate_trajectory": _samples}


class Tracer:
    """In-memory span recorder; ``op`` is the current operation id (-1: none)."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.buf = array("d")
        self.stack = [-1]
        self.op = -1

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, name: str, weight: float = 1.0) -> int:
        sid = len(self.buf) // FIELDS
        self.buf.extend((self.name_id(name), time.perf_counter(), 0.0, self.stack[-1], self.op, weight))
        self.stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.buf[sid * FIELDS + END] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, weight=None):
        nid = self.name_id(name)
        buf, stack, clock = self.buf, self.stack, time.perf_counter

        # begin/end inlined: this runs on every 4x4 eigh, ~10^5 times per operation
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op < 0:
                return fn(*args, **kwargs)
            sid = len(buf) // FIELDS
            w = weight(args, kwargs) if weight else 1.0
            buf.extend((nid, clock(), 0.0, stack[-1], self.op, w))
            stack.append(sid)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                buf[sid * FIELDS + END] = clock()

        return traced

    def install(self) -> None:
        """Wrap every boundary; entcap and all its modules must be importable."""
        import numpy as np

        modules = [importlib.import_module("entcap")]
        modules += [importlib.import_module(f"entcap.{layer}") for layer in BOUNDARIES]
        for layer, attrs in BOUNDARIES.items():
            home = importlib.import_module(f"entcap.{layer}")
            for attr in attrs:
                name = f"{layer}.{attr}"
                orig = getattr(home, attr)
                _rebind(modules, orig, self.wrap(name, orig, WEIGHTS.get(name)))
        for layer, classes in CLASSES.items():
            home = importlib.import_module(f"entcap.{layer}")
            for cls_name in classes:
                cls = getattr(home, cls_name)
                cls.__post_init__ = self.wrap(f"{layer}.{cls_name}", cls.__post_init__)
        for attr in KERNELS:
            setattr(np.linalg, attr, self.wrap(f"linalg.{attr}", getattr(np.linalg, attr), _batch))

    def spans(self):
        import numpy as np

        return np.frombuffer(self.buf, dtype=float).reshape(-1, FIELDS).copy()

    def save(self, path) -> None:
        import numpy as np

        np.savez_compressed(path, spans=self.spans(), names=np.array(self.names, dtype=str))

    def merge(self, path, parent: int) -> None:
        """Append the spans a traced child process saved, under span ``parent``."""
        import numpy as np

        with np.load(path) as data:
            spans, names = data["spans"], [str(n) for n in data["names"]]
        offset = len(self.buf) // FIELDS
        remap = np.array([self.name_id(n) for n in names], dtype=float)
        spans[:, NAME] = remap[spans[:, NAME].astype(int)]
        roots = spans[:, PARENT] < 0
        spans[:, PARENT] = np.where(roots, parent, spans[:, PARENT] + offset)
        spans[:, OP] = self.op
        self.buf.extend(spans.ravel())


def _rebind(modules, orig, wrapped) -> None:
    for mod in modules:
        for key, value in list(vars(mod).items()):
            if value is orig:
                setattr(mod, key, wrapped)
            elif isinstance(value, dict):
                for k, v in list(value.items()):
                    if v is orig:
                        value[k] = wrapped


class Summary:
    """Per-name aggregates of a span table.

    ``calls``: spans; ``weight``: summed weights; ``incl_s``: duration of the
    outermost span of each name (a span nested in one of the same name is
    not counted twice); ``self_s``: duration minus direct children's.
    """

    def __init__(self, names, spans):
        import numpy as np

        self.names = list(names)
        n = len(spans)
        self.name = spans[:, NAME].astype(int)
        self.parent = spans[:, PARENT].astype(int)
        dur = spans[:, END] - spans[:, START]
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=dur[has_parent], minlength=n)
        nested = self._under(lambda anc, rows: self.name[anc] == self.name[rows])
        self.calls, self.weight, self.incl_s, self.self_s = {}, {}, {}, {}
        for i, nm in enumerate(self.names):
            sel = self.name == i
            self.calls[nm] = int(sel.sum())
            self.weight[nm] = float(spans[sel, WEIGHT].sum())
            self.incl_s[nm] = float(dur[sel & ~nested].sum())
            self.self_s[nm] = float((dur[sel] - child[sel]).sum())

    def _under(self, test):
        """Boolean per span: some ancestor satisfies ``test(ancestors, rows)``."""
        import numpy as np

        flag = np.zeros(len(self.parent), dtype=bool)
        anc = self.parent.copy()
        rows = np.arange(len(anc))
        while True:
            live = anc >= 0
            if not live.any():
                return flag
            flag[live] |= test(anc[live], rows[live])
            anc[live] = self.parent[anc[live]]

    def count_under(self, name: str, ancestor: str) -> int:
        """Spans named ``name`` with an ancestor span named ``ancestor``."""
        if name not in self.names or ancestor not in self.names:
            return 0
        target = self.names.index(ancestor)
        inside = self._under(lambda anc, rows: self.name[anc] == target)
        return int((inside & (self.name == self.names.index(name))).sum())
