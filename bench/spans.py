"""In-process span tracing of the vbcast layers, from outside the library.

``Tracer.install`` wraps every public function of each vbcast module and
the public methods of ``SuperMap`` and ``MatrixWelford``, and rebinds each
wrapped name in every vbcast module that imported it, so calls made from
inside other layers are recorded too.  Each span holds its name, start,
end, parent span and command id; spans stay in memory until the run
writes them out.  Counts are read from the values the wrapped functions
return (``DiamondResult.iterations``, ``UniquenessCertificate`` sizes,
sample counts), never from inside the library.

A layer's self time is the summed duration of its spans minus the time
their direct child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

MODULES = ("densemat", "supermap", "broadcast", "diamond", "hovm", "sot", "qsample", "mcstats", "cli")
TRACED_CLASSES = {"supermap": ("SuperMap",), "mcstats": ("MatrixWelford",)}

# Span names summed into one per-layer time; nested spans of the same group count once.
GROUPS = {
    "densemat.eigh_s": ("densemat.eigh",),
    "densemat.trace_norm_s": ("densemat.trace_norm",),
    "supermap.compose_s": ("supermap.compose",),
    "supermap.from_action_s": ("supermap.from_action",),
    "supermap.tensor_s": ("supermap.tensor",),
    "supermap.apply_s": ("supermap.apply", "supermap.apply_right", "supermap.apply_left"),
    "broadcast.check_axioms_s": ("broadcast.check_axioms",),
    "broadcast.uniqueness_s": ("broadcast.verify_uniqueness",),
    "broadcast.constructors_s": tuple(
        "broadcast." + n
        for n in (
            "canonical_b", "family_b_lambda", "cloner", "antisym", "decoherence",
            "classical_bcl", "choi_projector", "canonical_decomposition",
        )
    ),
    "diamond.sdp_s": ("diamond.diamond_sdp",),
    "diamond.lower_search_s": ("diamond.diamond_lower_search",),
    "diamond.upper_s": ("diamond.hptp_upper",),
    "hovm.exact_mp_map_s": ("hovm.exact_mp_map",),
    "hovm.sample_s": ("hovm.sample_mp_blocks", "hovm.mc_mp_apply"),
    "mcstats.update_batch_s": ("mcstats.update_batch",),
    "qsample.sampler_build_s": ("qsample.sampler_from_decomposition",),
    "qsample.estimate_s": ("qsample.estimate_with_trace", "qsample.estimate_expectation"),
    "sot.axioms_s": ("sot.check_sot_axioms",),
    "sot.postprocessing_s": ("sot.check_postprocessing_equivalence",),
}
CALL_COUNTS = {
    "densemat.eigh_calls": "densemat.eigh",
    "densemat.trace_norm_calls": "densemat.trace_norm",
    "densemat.haar_unitary_calls": "densemat.haar_unitary",
    "supermap.compose_calls": "supermap.compose",
    "supermap.from_action_calls": "supermap.from_action",
    "broadcast.uniqueness_calls": "broadcast.verify_uniqueness",
    "diamond.sdp_calls": "diamond.diamond_sdp",
    "diamond.lower_search_calls": "diamond.diamond_lower_search",
    "cli.commands": "cli.main",
}


def _count_returns(counts: dict, name: str, result):
    """Accumulate the counts a traced function reports in its return value."""
    if name == "diamond.diamond_sdp":
        counts["diamond.admm_iterations"] += result.iterations
    elif name == "diamond.diamond_lower_search":
        counts["diamond.ascent_steps"] += result.iterations
    elif name == "broadcast.verify_uniqueness":
        counts["broadcast.uniqueness_rows"] += result.constraint_rows
        counts["broadcast.uniqueness_unknowns"] += result.unknowns
        mb = result.constraint_rows * result.unknowns * 8 / 1e6
        counts["broadcast.uniqueness_matrix_mb"] = max(counts["broadcast.uniqueness_matrix_mb"], mb)
    elif name == "hovm.sample_mp_blocks":
        counts["hovm.mp_samples"] += result[-1][1].n
    elif name == "hovm.mc_mp_apply":
        counts["hovm.mp_samples"] += result.n
    elif name == "qsample.estimate_with_trace":
        counts["qsample.draws"] += result[0].n
    elif name == "qsample.estimate_expectation":
        counts["qsample.draws"] += result.n


RETURN_COUNTS = (
    "diamond.admm_iterations", "diamond.ascent_steps", "broadcast.uniqueness_rows",
    "broadcast.uniqueness_unknowns", "broadcast.uniqueness_matrix_mb", "hovm.mp_samples", "qsample.draws",
)


class Tracer:
    """Records spans ``[name, start, end, parent, command]`` for wrapped vbcast calls."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = dict.fromkeys(RETURN_COUNTS, 0)
        self.command = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.command]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            _count_returns(counts, name, result)
            return result

        return traced

    def _set(self, owner, attr: str, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Wrap the layers' public functions and rebind them wherever vbcast imported them."""
        import vbcast
        import vbcast.cli  # noqa: F401  (cli is not imported by the package itself)

        mods = {short: sys.modules[f"vbcast.{short}"] for short in MODULES}
        wrapped = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
            for cls_name in TRACED_CLASSES.get(short, ()):
                cls = getattr(mod, cls_name)
                for attr, raw in list(vars(cls).items()):
                    if attr.startswith("_"):
                        continue
                    if isinstance(raw, (classmethod, staticmethod)):
                        self._set(cls, attr, type(raw)(self._wrap(f"{short}.{attr}", raw.__func__)))
                    elif inspect.isfunction(raw):
                        self._set(cls, attr, self._wrap(f"{short}.{attr}", raw))
        for mod in [vbcast, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:  # the originals stay alive in ``wrapped``, so ids are unique
                    self._set(mod, attr, wrapped[id(obj)][1])

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path: str):
        with open(path, "w") as fp:
            json.dump({"fields": ["name", "start", "end", "parent", "command"], "spans": self.spans}, fp)

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time summed per module: span duration minus its direct children's."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(MODULES, 0.0)
        for (name, start, end, _, _), covered in zip(self.spans, child):
            out[name.split(".", 1)[0]] += (end - start) - covered
        return out

    def group_time(self, names: tuple[str, ...]) -> float:
        """Total duration of spans named in ``names`` that have no ancestor in ``names``."""
        members = [s[0] in names for s in self.spans]
        total = 0.0
        for i, span in enumerate(self.spans):
            if not members[i]:
                continue
            parent = span[3]
            while parent >= 0 and not members[parent]:
                parent = self.spans[parent][3]
            if parent < 0:
                total += span[2] - span[1]
        return total

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)
