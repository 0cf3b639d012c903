"""Per-layer tracing of losrkit from outside the program.

The tracer replaces each traced function at every ``losrkit`` module
attribute that holds it (so ``losrkit.monotones.born_box`` and
``losrkit.states.born_box`` are both covered), and each traced constructor by
wrapping its class's ``__post_init__``.  Spans live in memory with their
parent span; ``write`` dumps them when the run ends.

A layer is the first component of a span name.  A span's self time is its
duration minus the durations of its direct child spans.  A wrapped name that
the program no longer defines is listed in ``missing`` and reads as zero.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("states", "preorder", "boxes", "monotones", "selftest", "cli")

# (span name, module, attribute).  Every public function of each layer at the
# seed, plus the two scipy entry points the layers call through their own
# module attribute.  ``catalog``, ``config`` and ``demos`` are not wrapped,
# so their time counts under the calling layer.
FUNCTIONS = [
    ("states.tensor_product", "losrkit.states", "tensor_product"),
    ("states.permute_parties", "losrkit.states", "permute_parties"),
    ("states.group_parties", "losrkit.states", "group_parties"),
    ("states.partial_trace", "losrkit.states", "partial_trace"),
    ("states.all_bipartitions", "losrkit.states", "all_bipartitions"),
    ("states.schmidt_spectrum", "losrkit.states", "schmidt_spectrum"),
    ("states.schmidt_rank", "losrkit.states", "schmidt_rank"),
    ("states.apply_channel", "losrkit.states", "apply_channel"),
    ("states.born_box", "losrkit.states", "born_box"),
    ("states.save_state", "losrkit.states", "save_state"),
    ("states.load_state", "losrkit.states", "load_state"),
    ("preorder.spectra_equal", "losrkit.preorder", "spectra_equal"),
    ("preorder.rank_ratio_admissible", "losrkit.preorder", "rank_ratio_admissible"),
    ("preorder.factor_spectrum", "losrkit.preorder", "factor_spectrum"),
    ("preorder.factor_spectrum_bruteforce", "losrkit.preorder", "factor_spectrum_bruteforce"),
    ("preorder.compare_bipartite", "losrkit.preorder", "compare_bipartite"),
    ("preorder.multipartite_check", "losrkit.preorder", "multipartite_check"),
    ("preorder.catalytic_convertible", "losrkit.preorder", "catalytic_convertible"),
    ("preorder.verdict_to_text", "losrkit.preorder", "verdict_to_text"),
    ("boxes.is_no_signaling", "losrkit.boxes", "is_no_signaling"),
    ("boxes.deterministic_vertices", "losrkit.boxes", "deterministic_vertices"),
    ("boxes.local_membership", "losrkit.boxes", "local_membership"),
    ("boxes.evaluate", "losrkit.boxes", "evaluate"),
    ("boxes.mix_boxes", "losrkit.boxes", "mix_boxes"),
    ("boxes.uniform_box", "losrkit.boxes", "uniform_box"),
    ("boxes.save_box", "losrkit.boxes", "save_box"),
    ("boxes.load_box", "losrkit.boxes", "load_box"),
    ("boxes.lp", "losrkit.boxes", "linprog"),
    ("monotones.optimize_yield", "losrkit.monotones", "optimize_yield"),
    ("monotones.pauli_expectations", "losrkit.monotones", "pauli_expectations"),
    ("monotones.horodecki_chsh", "losrkit.monotones", "horodecki_chsh"),
    ("monotones.sample_losr_channel", "losrkit.monotones", "sample_losr_channel"),
    ("monotones.hardy_grid_maximum", "losrkit.monotones", "hardy_grid_maximum"),
    ("monotones.nm", "losrkit.monotones", "minimize"),
    ("selftest.flag_mixed_state", "losrkit.selftest", "flag_mixed_state"),
    ("selftest.forward_channel", "losrkit.selftest", "forward_channel"),
    ("selftest.backward_channel", "losrkit.selftest", "backward_channel"),
    ("selftest.flag_roundtrip_check", "losrkit.selftest", "flag_roundtrip_check"),
    ("selftest.conjugate_state", "losrkit.selftest", "conjugate_state"),
    ("selftest.closure_scan", "losrkit.selftest", "closure_scan"),
    ("cli.main", "losrkit.cli", "main"),
]

# (span name, module, class): the constructor's validation in __post_init__.
CONSTRUCTORS = [
    ("states.validate", "losrkit.states", "PureState"),
    ("states.validate", "losrkit.states", "DensityMatrix"),
    ("states.validate", "losrkit.states", "SchmidtSpectrum"),
    ("states.validate", "losrkit.states", "LocalChannelFamily"),
    ("boxes.box_ctor", "losrkit.boxes", "Box"),
]

MIB = float(2**20)


def _yield_name(args, kwargs):
    functional = args[1] if len(args) > 1 else kwargs.get("f")
    kind = "hardy" if type(functional).__name__ == "HardyScore" else "linear"
    return "monotones.yield_" + kind


def _observe_factor(tracer, result, args, kwargs):
    tracer.counts["preorder.factor_spectrum.found"] += bool(getattr(result, "found", False))


def _observe_lp(tracer, result, args, kwargs):
    tracer.counts["boxes.lp.nit"] += int(getattr(result, "nit", 0))
    a_ub = kwargs.get("A_ub")
    if a_ub is not None:
        mb = a_ub.nbytes / MIB
        tracer.counts["boxes.lp.a_ub_mb_max"] = max(tracer.counts["boxes.lp.a_ub_mb_max"], mb)


def _observe_nm(tracer, result, args, kwargs):
    tracer.counts["monotones.nm.nfev"] += int(getattr(result, "nfev", 0))


NAMERS = {"monotones.optimize_yield": _yield_name}
OBSERVERS = {
    "preorder.factor_spectrum": _observe_factor,
    "boxes.lp": _observe_lp,
    "monotones.nm": _observe_nm,
}


class Tracer:
    """Span recorder; records only while ``enabled`` is true."""

    def __init__(self):
        self.enabled = False
        self.spans = []  # [id, parent id, name, start, end]
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.missing = []
        self._stack = []  # [span id, name, start, child seconds]
        self._restore = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> None:
        self._stack.append([len(self.spans) + len(self._stack), name, time.perf_counter(), 0.0])

    def close(self) -> None:
        end = time.perf_counter()
        sid, name, start, child = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
            parent = self._stack[-1][0]
        else:
            parent = None
        self.spans.append([sid, parent, name, start, end])
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.total_s[name] += dur

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        namer = NAMERS.get(name)
        observe = OBSERVERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tracer.open(namer(args, kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if observe:
                observe(tracer, result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced name in every loaded losrkit module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "losrkit" or n.startswith("losrkit.")]
        for name, mod_name, attr in FUNCTIONS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))
        for name, mod_name, cls_name in CONSTRUCTORS:
            cls = getattr(sys.modules.get(mod_name), cls_name, None)
            post = vars(cls).get("__post_init__") if cls is not None else None
            if post is None:
                self.missing.append(f"{name}:{cls_name}")
                continue
            cls.__post_init__ = self._wrap(name, post)
            self._restore.append((cls, "__post_init__", post))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- reporting -----------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"missing": self.missing, "fields": ["id", "parent", "name", "start", "end"]}, fh)
            fh.write("\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
