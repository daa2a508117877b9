"""Spans around the public functions of each summinglab module.

``install`` replaces every public function of the traced modules, wherever
a caller imported it (any ``summinglab`` module namespace that holds the
same function object), with a wrapper that records a span: name, start,
end, parent. A few non-public entry points that carry per-layer work are
wrapped as well (the character-matrix cache and two methods). Spans stay
in memory; ``write_jsonl`` writes them out when the run ends, and
``layer_metrics`` reduces them to the benchmark's per-layer metrics.
Nothing in the program itself changes.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import types

import numpy as np

TRACED_MODULES = ("kernels", "rng", "spaces", "systems", "summing",
                  "interpolation", "limit_order", "experiments", "cli")

# (module, qualified attribute, span name) wrapped besides the public functions
EXTRA_TARGETS = (("systems", "_character_matrix", "systems.char_matrix"),
                 ("spaces", "SpaceMap.apply_stack", "spaces.SpaceMap.apply_stack"),
                 ("experiments", "RunReport.write", "experiments.RunReport.write"))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _schatten_attrs(args, kwargs, result):
    mats = _arg(args, kwargs, 0, "mats")
    p = float(_arg(args, kwargs, 1, "p"))
    return {"p": "inf" if p == np.inf else p, "matrices": int(mats.shape[0]),
            "complex": bool(np.iscomplexobj(mats)), "bytes": int(mats.nbytes)}


def _gaussian_attrs(args, kwargs, result):
    return {"normals": int(np.asarray(result).size)
            * (2 if np.iscomplexobj(result) else 1)}


def _norms_attrs(args, kwargs, result):
    return {"rows": int(np.asarray(result).size)}


def _second_moment_attrs(args, kwargs, result):
    return {"mc": result.stderr is not None}


def _lower_attrs(args, kwargs, result):
    family = _arg(args, kwargs, 2, "family")
    return {"samples": kwargs.get("samples"), "family_bytes": int(family.elements.nbytes)}


def _lp_ascent_attrs(args, kwargs, result):
    return {"restarts": int(_arg(args, kwargs, 4, "starts").shape[0])}


def _ratio_ascent_attrs(args, kwargs, result):
    return {"restarts": int(_arg(args, kwargs, 2, "starts").shape[0])}


def _write_attrs(args, kwargs, result):
    return {"bytes": sum(os.path.getsize(path) for path in result)}


# span name -> counter hook (args, kwargs, result) -> attrs
ATTR_HOOKS = {
    "kernels.schatten_norm_batch": _schatten_attrs,
    "rng.standard_gaussians": _gaussian_attrs,
    "spaces.norms_of_stack": _norms_attrs,
    "systems.second_moment": _second_moment_attrs,
    "summing.summing_norm_lower": _lower_attrs,
    "kernels.lp_ascent": _lp_ascent_attrs,
    "kernels.ratio_ascent": _ratio_ascent_attrs,
    "experiments.RunReport.write": _write_attrs,
}


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        # each span: [name, start, end, parent index (-1 at top), attrs]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, hook = self.spans, self._stack, ATTR_HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if hook is not None:
                span[4] = hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the traced functions everywhere they are bound."""
        namespaces = [m for n, m in sys.modules.items()
                      if (n == "summinglab" or n.startswith("summinglab."))
                      and isinstance(m, types.ModuleType)]
        wrappers = {}
        for short in TRACED_MODULES:
            module = sys.modules[f"summinglab.{short}"]
            for attr, value in vars(module).items():
                if (isinstance(value, types.FunctionType) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[value] = self.wrap(f"{short}.{value.__name__}", value)
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(module, attr, wrappers[value])
        for short, qualname, name in EXTRA_TARGETS:
            owner = sys.modules[f"summinglab.{short}"]
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr)))

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start": start, "end": end, "parent": parent}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics from one traced run's spans.

    ``_s`` metrics are total span time of a function (a call nested in a
    call of the same function is not counted twice); ``self_s`` metrics
    (and those the benchmark documents as self time) subtract the time
    covered by child spans.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start

    # a span is outermost unless a span of the same name encloses it
    outermost = []
    for name, _, _, parent, _ in spans:
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        outermost.append(parent < 0)

    # attribute filters see only spans whose call returned (hooks ran)
    def matches(span, name, where) -> bool:
        return span[0] == name and (where is None or (span[4] is not None and where(span[4])))

    def total(name, where=None) -> float:
        return float(sum(s[2] - s[1] for i, s in enumerate(spans)
                         if matches(s, name, where) and outermost[i]))

    def self_time(name) -> float:
        return float(sum(s[2] - s[1] - child[i] for i, s in enumerate(spans) if s[0] == name))

    def attr_sum(name, key, where=lambda a: True) -> float:
        return float(sum(s[4][key] for s in spans if matches(s, name, where)))

    def count(name, where=None) -> int:
        return sum(1 for s in spans if matches(s, name, where))

    schatten = "kernels.schatten_norm_batch"
    searches = [i for i, s in enumerate(spans) if s[0] == "summing.summing_norm_search"]
    lower_samples = {i: [] for i in searches}
    for s in spans:
        if matches(s, "summing.summing_norm_lower", bool) and s[3] in lower_samples:
            lower_samples[s[3]].append(s[4]["samples"] or 0)
    all_samples = sum(sum(v) for v in lower_samples.values())
    final_samples = sum(v[-1] for v in lower_samples.values() if v)
    lowers = [s[4]["family_bytes"] for s in spans
              if matches(s, "summing.summing_norm_lower", bool)]

    return {
        f"{schatten}_s": total(schatten),
        f"{schatten}.p4_s": total(schatten, lambda a: a["p"] == 4.0),
        f"{schatten}.pinf_s": total(schatten, lambda a: a["p"] == "inf"),
        f"{schatten}.matrices": attr_sum(schatten, "matrices"),
        f"{schatten}.complex_matrices": attr_sum(schatten, "matrices", lambda a: a["complex"]),
        f"{schatten}.bytes_in": attr_sum(schatten, "bytes"),
        "rng.standard_gaussians_s": total("rng.standard_gaussians"),
        "rng.normals_drawn": attr_sum("rng.standard_gaussians", "normals"),
        "systems.second_moment_s": total("systems.second_moment"),
        "systems.second_moment.self_s": self_time("systems.second_moment"),
        "systems.second_moment.mc_calls": count("systems.second_moment", lambda a: a["mc"]),
        "systems.second_moment.exact_calls": count("systems.second_moment",
                                                   lambda a: not a["mc"]),
        "kernels.lp_ascent_s": total("kernels.lp_ascent"),
        "kernels.lp_ascent.restarts": attr_sum("kernels.lp_ascent", "restarts"),
        "kernels.ratio_ascent_s": total("kernels.ratio_ascent"),
        "kernels.ratio_ascent.restarts": attr_sum("kernels.ratio_ascent", "restarts"),
        "systems.char_matrix_s": total("systems.char_matrix"),
        "systems.char_matrix.calls": count("systems.char_matrix"),
        "systems.kp_constant_lower_s": self_time("systems.kp_constant_lower"),
        "systems.sidon_constant_lower_s": self_time("systems.sidon_constant_lower"),
        "spaces.norms_of_stack_s": self_time("spaces.norms_of_stack"),
        "spaces.norms_of_stack.rows": attr_sum("spaces.norms_of_stack", "rows"),
        "spaces.apply_stack_s": total("spaces.SpaceMap.apply_stack"),
        "spaces.weak_l2_norm_s": total("spaces.weak_l2_norm"),
        "summing.ell_norm_mc_s": self_time("summing.ell_norm_mc"),
        "summing.summing_norm_search_s": total("summing.summing_norm_search"),
        "summing.candidates_scored": float(sum(max(len(v) - 1, 0)
                                               for v in lower_samples.values())),
        "summing.search_final_share": final_samples / all_samples if all_samples else 0.0,
        "summing.family_bytes": float(max(lowers, default=0)),
        "interpolation.interpolation_audit_s": total("interpolation.interpolation_audit"),
        "limit_order.fit_exponent_s": total("limit_order.fit_exponent"),
        "experiments.report_write_s": total("experiments.RunReport.write"),
        "experiments.report_bytes": attr_sum("experiments.RunReport.write", "bytes"),
        "cli.main_s": self_time("cli.main"),
    }
