"""Spans and counts recorded around the public functions of sosdw.

A :class:`Tracer` records one span per call of each wrapped function:
its name, start, end, parent span and job id.  Counts are taken at the
same boundaries.  Consumer modules bind names at import time (for example
``face_model.weights`` is the same object as ``rmatrix.weights``), so
:func:`install` replaces a wrapped function in every sosdw module that
holds it, and the returned callable puts the originals back.

Nothing here changes arguments or results: a traced evaluation must give
bit-identical values, which the harness checks.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "core", "sampling", "rmatrix", "face_model", "yb_algebra",
          "closed_form", "contour", "verify")


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans = []  # (span_id, name, start, end, parent_id, job)
        self.counts = defaultdict(Counter)  # job -> counter name -> value
        self.weight_args = defaultdict(set)  # job -> distinct weights() args
        self.job = None
        self._stack = []  # (span_id, name) of the open spans, innermost last
        self._next_id = 0

    def count(self, key: str, amount=1) -> None:
        self.counts[self.job][key] += amount

    def current(self):
        """Name of the innermost open span, or None."""
        return self._stack[-1][1] if self._stack else None

    def _open(self, name):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append((sid, name))
        return sid, parent, perf_counter()

    def _close(self, name, sid, parent, start):
        end = perf_counter()
        self._stack.pop()
        self.spans.append((sid, name, start, end, parent, self.job))

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        sid, parent, start = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, sid, parent, start)

    def wrap(self, name, fn, before=None, after=None):
        """A wrapper of ``fn`` that records a span and calls the count hooks.

        ``before(args, kwargs)`` runs ahead of the call and may return
        replacement arguments; ``after(args, kwargs, result)`` runs on
        success.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def wrap_generator(self, name, fn, per_item):
        """Wrap a generator function; each resumption is one span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = self.call(name, next, gen)
                except StopIteration:
                    return
                self.count(per_item)
                yield item

        return wrapper

    def summary(self) -> dict:
        """Per job: total span time by span name and self time by layer.

        A span's self time is its duration minus the time its direct child
        spans cover.
        """
        child = Counter()
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: {"inclusive": Counter(), "self": Counter()})
        for sid, name, start, end, _, job in self.spans:
            entry = out[job]
            entry["inclusive"][name] += end - start
            entry["self"][name.split(".", 1)[0]] += end - start - child[sid]
        return out


def install(tracer: Tracer):
    """Wrap the public functions of every layer; returns an undo callable.

    The count hooks read positional arguments, which is how sosdw calls
    every wrapped function.
    """
    from sosdw import (cli, closed_form, contour, core, face_model, rmatrix,
                       sampling, verify, yb_algebra)

    count = tracer.count
    modules = [m for n, m in sys.modules.items()
               if n == "sosdw" or n.startswith("sosdw.")]
    undo = []

    def replace(owner, attr, make, only_owner=False):
        orig = getattr(owner, attr)
        new = make(orig)
        for m in [owner] if only_owner else modules:
            if getattr(m, attr, None) is orig:
                setattr(m, attr, new)
                undo.append((m, attr, orig))

    def counted(key, amount=lambda args, result: 1):
        return lambda args, kwargs, result: count(key, amount(args, result))

    # Routes whose terms are the list they hand to core.pairwise_sum: the
    # count is what the route actually sums, whatever algorithm made it.
    summed_terms = {"closed_form.permutation": "closed_form.permutation_terms",
                    "contour.residue": "contour.residue_terms"}

    def pairwise_before(args, kwargs):
        vals = list(args[0])
        count("core.pairwise_sum_terms", len(vals))
        key = summed_terms.get(tracer.current())
        if key is not None:
            count(key, len(vals))
        return (vals,), kwargs

    def weights_after(args, kwargs, result):
        lam, theta, params = args
        count("rmatrix.weights_calls")
        tracer.weight_args[tracer.job].add(
            (complex(lam), complex(theta), params.gamma))

    def quadrature_after(args, kwargs, result):
        count("contour.quadrature_calls")
        count("contour.quadrature_useful_evals", result[1] ** args[0].L)

    def candidate(cls):
        def make_params(*args, **kwargs):
            count("sampling.candidates")
            return cls(*args, **kwargs)
        return make_params

    def suite(orig):
        def run_suite(name, seed, draws):
            report = tracer.call(f"verify.{name}", orig, name, seed, draws)
            count("verify.rows_failed",
                  sum(1 for r in report.rows if not r.passed))
            return report
        return functools.wraps(orig)(run_suite)

    w = tracer.wrap
    replace(core, "validate",
            lambda f: w("core.validate", f, after=counted("core.validate_calls")))
    replace(core, "pairwise_sum",
            lambda f: w("core.pairwise_sum", f, before=pairwise_before))
    replace(rmatrix, "weights",
            lambda f: w("rmatrix.weights", f, after=weights_after))
    replace(sampling, "draw_model",
            lambda f: w("sampling.draw_model", f,
                        after=counted("sampling.accepted")))
    replace(sampling, "ModelParams", candidate, only_owner=True)
    replace(face_model, "enumerate_height_grids",
            lambda f: tracer.wrap_generator("face_model.enumerate_height_grids",
                                            f, "face_model.configs"))
    replace(face_model, "face_weight",
            lambda f: w("face_model.face_weight", f,
                        after=counted("face_model.face_weight_calls")))
    replace(face_model, "enumerate_partition",
            lambda f: w("face_model.enumerate_partition", f))
    replace(yb_algebra, "apply_monodromy_entry",
            lambda f: w("yb_algebra.apply", f,
                        after=counted("yb_algebra.apply_calls")))
    replace(yb_algebra, "partition_algebraic",
            lambda f: w("yb_algebra.partition_algebraic", f))
    replace(closed_form, "partition_permutation_sum",
            lambda f: w("closed_form.permutation", f))
    for name in ("coeff_M", "coeff_N"):
        replace(closed_form, name,
                lambda f: w("closed_form.coeff", f,
                            after=counted("closed_form.coeff_calls")))
    replace(contour, "partition_residue",
            lambda f: w("contour.residue", f))
    replace(contour, "tensor_quadrature",
            lambda f: w("contour.tensor_quadrature", f,
                        after=counted("contour.quadrature_node_evals",
                                      lambda a, r: a[3] ** a[0].L)))
    replace(contour, "partition_quadrature_info",
            lambda f: w("contour.quadrature", f, after=quadrature_after))
    replace(verify, "run_suite", suite)
    for name in ("load_job_config", "compute_report", "render_report"):
        replace(cli, name, lambda f, n=name: w(f"cli.{n}", f))

    def uninstall():
        for m, attr, orig in reversed(undo):
            setattr(m, attr, orig)

    return uninstall
