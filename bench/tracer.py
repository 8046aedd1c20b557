"""Span recorder that wraps hybridctl's public functions from outside.

No program file changes: :meth:`Tracer.install` replaces each traced
function in every ``hybridctl`` module namespace that binds it, so a
caller finds the wrapper wherever it looks the function up (for example
``hybridctl.harness.estimate_map`` as well as
``hybridctl.borrow.estimate_map``), and replaces ``PsFit.positions`` on
its class. A function that no longer exists is skipped, so the traced
run keeps working after a refactor removes one; its metrics read 0.

Spans are ``(name, start_ns, end_ns, parent_id, span_id)`` tuples kept
in memory and written out once, by :meth:`Tracer.dump`. Span ids carry
the process id, so spans written by pool workers never collide.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

# (module, attribute) of every traced function, named "<module>.<function>"
# in the spans. Methods are given as "Class.method".
TRACED = (
    ("trialdata", "build_replicate"),
    ("regress", "fit_ols"),
    ("regress", "fit_logistic"),
    ("regress", "sandwich_cov"),
    ("propensity", "estimate_ps"),
    ("propensity", "PsFit.positions"),
    ("propensity", "match_nearest"),
    ("propensity", "ipw_weights"),
    ("propensity", "stratify"),
    ("propensity", "unadjusted_effect"),
    ("propensity", "estimate_psm"),
    ("propensity", "estimate_psw"),
    ("borrow", "map_prior"),
    ("borrow", "robustify"),
    ("borrow", "posterior_update"),
    ("borrow", "effect_posterior"),
    ("borrow", "estimate_map"),
    ("borrow", "estimate_psm_map"),
    ("borrow", "estimate_psw_map"),
    ("borrow", "estimate_pss_pp"),
    ("borrow", "estimate_pss_cl"),
    ("mixed", "profiled_criterion"),
    ("mixed", "fit_lmm"),
    ("mixed", "estimate_mm"),
    ("metrics", "summarize"),
    ("harness", "load_config"),
    ("harness", "run_replicate"),
    ("harness", "write_raw_csv"),
    ("harness", "write_summary_csv"),
    ("harness", "write_diagnostics"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


class Tracer:
    """Records nested spans and the ``map_prior`` input counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 0
        # one (inputs key, n_tau * n_theta) pair per map_prior call
        self.map_calls: list[tuple] = []

    def _new_id(self) -> int:
        self.next_id += 1
        return os.getpid() * 10**9 + self.next_id

    def wrap(self, name: str, fn, probe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if probe is not None:
                probe(args, kwargs)
            parent = self.stack[-1] if self.stack else 0
            sid = self._new_id()
            self.stack.append(sid)
            start = time.monotonic_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic_ns()
                self.stack.pop()
                self.spans.append((name, start, end, parent, sid))

        return traced

    def _map_prior_probe(self, fn):
        sig = inspect.signature(fn)

        def probe(args, kwargs):
            try:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                studies = tuple((float(s.mean), float(s.se)) for s in a["studies"])
                tau_scale = float(a["tau_scale"])
                n_tau = 1 if tau_scale == 0.0 else int(a["n_tau"])
                grid = a.get("theta_grid")
                n_theta = len(grid) if grid is not None else int(a["n_theta"])
            except (TypeError, KeyError, AttributeError, ValueError):
                self.map_calls.append((None, 0))
                return
            self.map_calls.append(((studies, tau_scale), n_tau * n_theta))

        return probe

    def install(self, trace_path: str) -> None:
        """Wrap every traced function; pool workers write their spans per chunk."""
        import hybridctl.harness  # noqa: F401  (imports every module it traces)

        package = "hybridctl"
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        replacements = {}
        for mod_name, attr in TRACED:
            module = sys.modules.get(f"{package}.{mod_name}")
            owner, _, fn_name = attr.rpartition(".")
            holder = getattr(module, owner, None) if owner else module
            fn = getattr(holder, fn_name, None) if holder is not None else None
            if not callable(fn):
                continue
            probe = self._map_prior_probe(fn) if attr == "map_prior" else None
            wrapper = self.wrap(span_name(mod_name, attr), fn, probe)
            if owner:
                setattr(holder, fn_name, wrapper)
            else:
                replacements[id(fn)] = (fn, wrapper)
        for module in modules:
            for key, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])

        # Pool workers forked by harness.run_scenario inherit the wrappers;
        # each writes the spans of its chunk to its own file.
        harness = sys.modules[f"{package}.harness"]
        run_chunk = getattr(harness, "_run_chunk", None)
        if callable(run_chunk):
            @functools.wraps(run_chunk)
            def chunk(*args, **kwargs):
                first_span, first_call = len(self.spans), len(self.map_calls)
                rows = run_chunk(*args, **kwargs)
                self.dump(f"{trace_path}.{self._new_id()}", first_span, first_call)
                return rows

            harness._run_chunk = chunk

    def dump(self, path: str, first_span: int = 0, first_call: int = 0) -> None:
        calls = [[None if key is None else repr(key), cells]
                 for key, cells in self.map_calls[first_call:]]
        with open(path, "w") as fh:
            json.dump({"spans": self.spans[first_span:], "map_calls": calls}, fh)
