"""Span tracing of the program's layers, installed from outside the program.

``Tracer.install`` replaces each traced function or method with a wrapper
that records a span (layer, start, end, parent span) in memory. A function is
patched under every name any ``duelbandits`` module binds it to, because the
modules import names directly (``from .linalg import sherman_morrison``) and a
patch of the defining module alone would miss those callers. ``uninstall``
restores every original.

Besides spans, the wrappers read the estimators' public learned attributes
after each update (Newton and inner iteration counts, convergence) and keep
the estimator instances ``runner.build_estimator`` returns, so their inverse
drift can be read when the traced round ends.
"""

from __future__ import annotations

import functools
import sys
import time
from pathlib import Path

import numpy as np

PACKAGE = "duelbandits"

# (layer, "module:attribute") -- an attribute with a dot is a class method.
TARGETS = (
    ("config.parse_config", "config:parse_config"),
    ("runner.run_experiment", "runner:run_experiment"),
    ("runner.run_single", "runner:run_single"),
    ("runner.build_estimator", "runner:build_estimator"),
    ("environment.make_environment", "environment:make_environment"),
    ("scenarios.loop", "scenarios:run_passive"),
    ("scenarios.loop", "scenarios:run_active"),
    ("scenarios.loop", "scenarios:run_deploy"),
    ("scenarios.select_deploy_actions", "scenarios:select_deploy_actions"),
    ("scenarios.select_most_uncertain", "scenarios:select_most_uncertain"),
    ("scenarios.pessimistic_policy", "scenarios:pessimistic_policy"),
    ("scenarios.write_csv", "scenarios:RunRecord.write_csv"),
    ("linkmath.bt_sample", "linkmath:bt_sample"),
    ("onepass.omd.update", "onepass:OnePassRewardEstimator.update"),
    ("onepass.hvpcg.update", "onepass:HvpCgRewardEstimator.update"),
    ("onepass.project", "onepass:project_localnorm_ball"),
    ("baselines.mle.update", "baselines:MleRewardEstimator.update"),
    ("baselines.implicit.update", "baselines:ImplicitOmdRewardEstimator.update"),
    ("linalg.sherman_morrison", "linalg:sherman_morrison"),
    ("linalg.cg_solve", "linalg:cg_solve"),
    ("diagnostics.diagnostics_report", "diagnostics:diagnostics_report"),
    ("diagnostics.elliptic_potential_check", "diagnostics:elliptic_potential_check"),
    ("diagnostics.norm_domination_check", "diagnostics:norm_domination_check"),
)

# learned attributes read after each update, per traced update layer
ITERATION_ATTRS = {
    "baselines.mle.update": "last_newton_iters_",
    "baselines.implicit.update": "last_inner_iters_",
}
MATRIX_ATTRS = ("hess_", "V_", "local_norm_")


def package_modules():
    """The program's loaded modules, the package itself included."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Records spans and estimator counts while installed."""

    def __init__(self):
        self.layers = []                 # layer names, indexed by span layer id
        self.spans = []                  # (layer id, start ns, end ns, parent span id)
        self.iterations = {}             # layer -> iteration count per update
        self.nonconverged = {}           # layer -> updates that did not converge
        self.estimators = []             # every estimator build_estimator returned
        self._stack = [-1]
        self._patches = []               # (owner, attribute, original)

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        try:
            for layer, target in TARGETS:
                module_name, attr = target.split(":")
                module = sys.modules[f"{PACKAGE}.{module_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    self._patch(cls, meth, self._wrap(layer, vars(cls)[meth]))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(layer, original)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, layer: str, fn):
        if layer not in self.layers:
            self.layers.append(layer)
        layer_id = self.layers.index(layer)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        after = self._after_hook(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (layer_id, start, end, parent)
            if after is not None:
                after(args, out)
            return out

        wrapper.__bench_layer__ = layer
        return wrapper

    def _after_hook(self, layer: str):
        if layer == "runner.build_estimator":
            def keep(args, est):
                self.estimators.append(est)
            return keep
        if layer.endswith(".update"):
            iters = self.iterations.setdefault(layer, [])
            self.nonconverged.setdefault(layer, 0)
            attr = ITERATION_ATTRS.get(layer)

            def read(args, out):
                est = args[0]
                if attr is not None:
                    iters.append(getattr(est, attr))
                if not getattr(est, "last_converged_", True):
                    self.nonconverged[layer] += 1
            return read
        return None

    # --- results ----------------------------------------------------------------

    def span_table(self) -> dict:
        """Spans as arrays, with each span's self time (duration minus its children)."""
        arr = np.array(self.spans, dtype=np.int64).reshape(-1, 4)
        layer, start, end, parent = arr.T
        duration = end - start
        children = np.zeros(len(arr), dtype=np.int64)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], duration[has_parent])
        return {"layer": layer, "start": start, "end": end, "parent": parent,
                "duration": duration, "self": duration - children}

    def inverse_drifts(self) -> list:
        """Relative inverse drift of each traced estimator's curvature matrix, at its end."""
        drifts = []
        for est in self.estimators:
            for attr in MATRIX_ATTRS:
                if hasattr(est, attr):
                    drifts.append(getattr(est, attr).inverse_drift())
                    break
        return drifts

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,layer,start_ns,end_ns\n")
            for i, (layer_id, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{self.layers[layer_id]},{start},{end}\n")
