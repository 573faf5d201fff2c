"""Span recorder for the traced run.

The recorder wraps public functions of ``ouchaos`` from outside the
program: each wrapper is installed at the function's defining module and at
every ``ouchaos`` module that imported the name, so calls between modules
are seen too.  A span holds its name, start, end and the index of the span
that was open when it started.  Spans stay in memory and are written out
once, when the run ends.  A layer's self time is its spans' time minus the
time of their child spans.
"""

import contextlib
import functools
import sys
import time
from collections import Counter

import numpy as np

# span name -> (defining module, attribute); "Class.method" patches a method
TRACED = {
    "numerics.gh_tensor": ("ouchaos.numerics", "gh_tensor"),
    "numerics.eval_batch": ("ouchaos.numerics", "eval_batch"),
    "numerics.mc_estimate": ("ouchaos.numerics", "mc_estimate"),
    "numerics.gauss_expect": ("ouchaos.numerics", "gauss_expect"),
    "numerics.gauss_expect_err": ("ouchaos.numerics", "gauss_expect_err"),
    "numerics.panel_integrate": ("ouchaos.numerics", "panel_integrate"),
    "gaussian.expect": ("ouchaos.gaussian", "expect"),
    "chaos.project": ("ouchaos.chaos", "project"),
    "chaos.eval_expansion": ("ouchaos.chaos", "eval_expansion"),
    "secondquant.permanent": ("ouchaos.secondquant", "permanent"),
    "secondquant.gamma_matrix_element": ("ouchaos.secondquant", "gamma_matrix_element"),
    "secondquant.gamma_series_apply": ("ouchaos.secondquant", "gamma_series_apply"),
    "secondquant.degree_block": ("ouchaos.secondquant", "degree_block"),
    "secondquant.gamma_integral_apply": ("ouchaos.secondquant", "gamma_integral_apply"),
    "secondquant.hs_norm_gamma": ("ouchaos.secondquant", "hs_norm_gamma"),
    "evolution.decay_ratio": ("ouchaos.evolution", "decay_ratio"),
    "evolution.q_t_inf": ("ouchaos.evolution", "OUModel.q_t_inf"),
    "evolution.pst_contraction": ("ouchaos.evolution", "pst_contraction"),
    "presets.build_preset": ("ouchaos.presets", "build_preset"),
}

CLI_COMMANDS = ("hyper-scan", "decay", "hs-table")


class Recorder:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_ix, self.parent, self.start, self.end = [], [], [], []
        self._stack = []
        self.counts = Counter()
        self._undo = []

    def _open(self, name):
        ix = self._ids.get(name)
        if ix is None:
            ix = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_ix.append(ix)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        i = self._open(name)
        try:
            yield
        finally:
            self._close(i)

    def _wrap(self, name, fn):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = None
            if hook is not None:
                args, after = hook(self.counts, args)
            i = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                after(result)
            return result
        return wrapper

    def install(self):
        """Patch every traced function wherever ``ouchaos`` bound it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ouchaos" or n.startswith("ouchaos."))]
        for name, (module, attr) in TRACED.items():
            owner = sys.modules[module]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                targets = [owner]
            else:
                targets = [m for m in modules
                           if m.__dict__.get(attr) is getattr(owner, attr)]
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            for target in targets:
                self._undo.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    def save(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name_ix=np.array(self.name_ix),
            parent=np.array(self.parent), start=np.array(self.start),
            end=np.array(self.end))

    def per_layer(self, ops):
        """Per-operation layer metrics over ``ops`` traced operations."""
        name_ix = np.array(self.name_ix, dtype=int)
        parent = np.array(self.parent, dtype=int)
        dur = np.array(self.end) - np.array(self.start)
        child = np.bincount(parent[parent >= 0], weights=dur[parent >= 0],
                            minlength=len(dur))
        own = dur - child
        width = len(self.names)
        self_by_name = np.bincount(name_ix, weights=own, minlength=width)
        total_by_name = np.bincount(name_ix, weights=dur, minlength=width)
        calls_by_name = np.bincount(name_ix, minlength=width)

        def pick(table, *names):
            return float(sum(table[self._ids[n]] for n in names if n in self._ids))

        c = self.counts
        mc_time = pick(total_by_name, "numerics.mc_estimate")
        out = {
            "numerics.gh_tensor.points": c["numerics.gh_tensor.points"] / ops,
            "numerics.eval_batch.points": c["numerics.eval_batch.points"] / ops,
            "numerics.eval_batch.scalar_fallbacks":
                c["numerics.eval_batch.scalar_fallbacks"] / ops,
            "numerics.mc_estimate.samples_per_s":
                c["numerics.mc_estimate.samples"] / mc_time if mc_time else 0.0,
            "numerics.mc_estimate.self_s": pick(self_by_name, "numerics.mc_estimate") / ops,
            "numerics.gauss_expect.self_s":
                pick(self_by_name, "numerics.gauss_expect",
                     "numerics.gauss_expect_err") / ops,
            "numerics.panel_integrate.calls":
                pick(calls_by_name, "numerics.panel_integrate") / ops,
            "numerics.panel_integrate.nodes": c["numerics.panel_integrate.nodes"] / ops,
            "chaos.project.coeffs": c["chaos.project.coeffs"] / ops,
            "secondquant.permanent.calls": pick(calls_by_name, "secondquant.permanent") / ops,
            "secondquant.gamma_matrix_element.calls":
                pick(calls_by_name, "secondquant.gamma_matrix_element") / ops,
            "evolution.pst_contraction.calls":
                pick(calls_by_name, "evolution.pst_contraction") / ops,
        }
        for name in ("numerics.eval_batch", "numerics.panel_integrate",
                     "gaussian.expect", "chaos.project",
                     "chaos.eval_expansion", "secondquant.permanent",
                     "secondquant.gamma_series_apply",
                     "secondquant.degree_block", "secondquant.gamma_integral_apply",
                     "secondquant.hs_norm_gamma", "evolution.decay_ratio",
                     "evolution.q_t_inf", "presets.build_preset"):
            out[name + ".self_s"] = pick(self_by_name, name) / ops
        cli_spans = ["cli." + cmd for cmd in CLI_COMMANDS]
        for name in cli_spans:
            out[name + ".s"] = pick(total_by_name, name) / ops
        out["cli.self_s"] = pick(self_by_name, *cli_spans) / ops
        return out


# Hooks count work inside a call: hook(counts, args) -> (args, after), where
# after(result) runs once the call has returned.

def _count_grid(counts, args):
    def after(result):
        counts["numerics.gh_tensor.points"] += len(result[0])
    return args, after


def _count_eval_batch(counts, args):
    f, pts = args[0], args[1]
    counts["numerics.eval_batch.points"] += len(np.atleast_2d(pts))
    single = [0]

    def seen(p):
        # eval_batch falls back to calling f once per point, on 1-D rows
        if np.ndim(p) == 1:
            single[0] += 1
        return f(p)

    def after(result):
        if single[0]:
            counts["numerics.eval_batch.scalar_fallbacks"] += 1
    return (seen,) + tuple(args[1:]), after


def _count_samples(counts, args):
    counts["numerics.mc_estimate.samples"] += int(args[2])
    return args, None


def _count_panel_nodes(counts, args):
    f = args[0]

    def seen(nodes):
        counts["numerics.panel_integrate.nodes"] += len(np.atleast_1d(nodes))
        return f(nodes)
    return (seen,) + tuple(args[1:]), None


def _count_coeffs(counts, args):
    def after(result):
        counts["chaos.project.coeffs"] += len(result.coeffs)
    return args, after


_HOOKS = {
    "numerics.gh_tensor": _count_grid,
    "numerics.eval_batch": _count_eval_batch,
    "numerics.mc_estimate": _count_samples,
    "numerics.panel_integrate": _count_panel_nodes,
    "chaos.project": _count_coeffs,
}
