"""Spans around the calls into gnpb's layers, recorded from outside gnpb.

``Tracer.installed()`` wraps the public functions listed in ``TARGETS`` and
re-binds every module-level name in gnpb that refers to one of them, so a
caller that imported a function by name (``protocols`` imports
``verify_protocol``, ``cli`` imports ``get_basis``) reaches the wrapper too.
Leaving the block restores every original binding.

A span is ``(name, start, end, parent, request, extra)``; spans stay in
memory until ``dump``.  ``layer_metrics`` turns spans into the per-layer
figures the benchmark reports.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, attribute path, span name, extra recorder(args, result) or None)
TARGETS = (
    ("gnpb.bases", "get_basis", "bases.get_basis", None),
    ("gnpb.bases", "check_basis", "bases.check_basis", None),
    ("gnpb.bases", "OrthoProductBasis.from_json", "bases.from_json", None),
    ("gnpb.opm", "opm_solution_space", "opm.opm_solution_space", None),
    ("gnpb.opm", "constrained_pairs", "opm.constrained_pairs", None),
    ("gnpb.opm", "find_eliminating_opm", "opm.find_eliminating_opm", None),
    ("gnpb.engine", "verify_protocol", "engine.verify_protocol",
     lambda args, out: (out.n_measurements, out.n_leaves)),
    ("gnpb.engine", "materialize", "engine.materialize", None),
    ("gnpb.engine", "leaf_verify", "engine.leaf_verify", None),
    ("gnpb.engine", "conjugate_tree", "engine.conjugate_tree", None),
    ("gnpb.qstate", "CompositeSpace.split_axes", "qstate.split_axes", None),
    ("gnpb.qstate", "CompositeSpace.unsplit_axes", "qstate.unsplit_axes", None),
    ("gnpb.protocols", "get_protocol", "protocols.get_protocol", None),
    ("gnpb.pdl", "parse", "pdl.parse", lambda args, out: len(args[0].encode())),
    ("gnpb.pdl", "serialize", "pdl.serialize", None),
    ("numpy.linalg", "svd", "svd", lambda args, out: len(args[0])),
)

#: per-layer metrics computed from spans, with their units
SPAN_METRICS = {
    "bases.get_basis.s": "s",
    "bases.check_basis.s": "s",
    "bases.from_json.s": "s",
    "opm.opm_solution_space.calls": "count",
    "opm.opm_solution_space.self_s": "s",
    "opm.constrained_pairs.s": "s",
    "opm.constraint_rows": "count",
    "opm.svd.calls": "count",
    "opm.svd.s": "s",
    "opm.find_eliminating_opm.self_s": "s",
    "engine.verify_protocol.s": "s",
    "engine.materialize.calls": "count",
    "engine.materialize.s": "s",
    "engine.leaf_verify.calls": "count",
    "engine.leaf_verify.s": "s",
    "engine.svd.calls": "count",
    "engine.svd.s": "s",
    "engine.walk.self_s": "s",
    "engine.measurements": "count",
    "engine.leaves": "count",
    "engine.conjugate_tree.calls": "count",
    "qstate.split_axes.calls": "count",
    "qstate.split_axes.s": "s",
    "qstate.unsplit_axes.calls": "count",
    "qstate.unsplit_axes.s": "s",
    "protocols.get_protocol.s": "s",
    "pdl.parse.s": "s",
    "pdl.parse.bytes": "bytes",
    "pdl.serialize.s": "s",
}

# spans whose SVD calls are attributed to their module
_SVD_OWNERS = ("opm", "engine")


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []

    def _wrap(self, fn, name, extra):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.request, None)
            if extra is not None:
                spans[idx] = spans[idx][:5] + (extra(args, out),)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target and re-bind each gnpb name that refers to it."""
        restore = []
        try:
            for module_name, path, name, extra in TARGETS:
                owner, attr = _resolve(module_name, path)
                raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name, extra))
                else:
                    new = self._wrap(raw, name, extra)
                restore.append((owner, attr, raw))
                setattr(owner, attr, new)
                if isinstance(owner, type):
                    continue
                for mod_name, mod in list(sys.modules.items()):
                    if mod is owner or not (mod_name == "gnpb" or mod_name.startswith("gnpb.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is raw:
                            restore.append((mod, key, raw))
                            setattr(mod, key, new)
            yield self
        finally:
            for owner, attr, raw in reversed(restore):
                setattr(owner, attr, raw)

    @contextmanager
    def request_span(self, request):
        """Tag every span recorded inside the block with ``request``."""
        self.request = request
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx] = ("request", start, perf_counter(), -1, request, None)
            self.request = None

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def load_spans(path):
    with open(path) as fh:
        return [tuple(json.loads(line)) for line in fh]


def layer_metrics(spans, group=lambda span: span[4]):
    """Per-layer figures of every span group (by default, per request).

    ``.s`` is the time inside the outermost spans of a name, so recursion
    is not counted twice; ``.self_s`` subtracts the time covered by direct
    children; ``.calls`` counts every call, except that
    ``engine.conjugate_tree.calls`` counts outermost calls, one per
    completed branch.
    """
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(Counter)
    for i, (name, start, end, parent, _, extra) in enumerate(spans):
        if name == "request":
            continue
        dur = end - start
        m = out[group(spans[i])]
        ancestors = []
        p = parent
        while p >= 0:
            ancestors.append(spans[p][0])
            p = spans[p][3]
        outermost = name not in ancestors
        if name == "svd":
            owner = next((a.split(".")[0] for a in ancestors
                          if a.split(".")[0] in _SVD_OWNERS), None)
            if owner is None:
                continue
            m[f"{owner}.svd.calls"] += 1
            m[f"{owner}.svd.s"] += dur
            if owner == "opm":
                m["opm.constraint_rows"] += extra
            continue
        self_s = dur - child_time[i]
        if name == "engine.conjugate_tree":
            m["engine.conjugate_tree.calls"] += outermost
            continue
        if outermost:
            m[f"{name}.s"] += dur
        m[f"{name}.calls"] += 1
        m[f"{name}.self_s"] += self_s
        if name == "engine.verify_protocol":
            m["engine.walk.self_s"] += self_s
            m["engine.measurements"] += extra[0]
            m["engine.leaves"] += extra[1]
        elif name == "pdl.parse":
            m["pdl.parse.bytes"] += extra
    return {key: {k: v for k, v in m.items() if k in SPAN_METRICS} for key, m in out.items()}


def run_cli_traced(out_path, argv):
    """Entry point of a traced ``gnpb`` process: run the CLI, dump spans."""
    from gnpb import cli

    tracer = Tracer()
    with tracer.installed(), tracer.request_span(0):
        code = cli.main(argv)
    sys.stdout.flush()
    tracer.dump(out_path)
    return code
