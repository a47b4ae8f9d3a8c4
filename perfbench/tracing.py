"""Spans around crspin's public functions, installed from outside the package.

``install`` wraps every public function of every ``crspin`` module, three
``SectionSpace`` methods and the numpy eigensolvers crspin calls, and
rebinds each wrapped function in every ``crspin`` module that holds a
binding to it (``from .operators import ...`` copies the name, so patching
only the defining module would miss those calls).  Spans nest: a span's
self time is its duration minus the durations of its direct children, so
the self times of one process add up to its traced wall time.

Spans are kept in memory as ``[name, start, end, parent_index]`` and
written once, when the process ends.  ``layer_metrics`` turns the spans of
a pass into the per-layer metrics named in ``LAYERS``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import sys
import time

# their results' .mat bytes are summed into operators.assembled_bytes
ASSEMBLERS = ("operators.assemble_dplus", "operators.assemble_dminus", "operators.assemble_kohn_dirac",
              "operators.assemble_sub_laplacian", "operators.assemble_nabla_T", "operators.assemble_twistor",
              "operators.horizontal_laplacians", "operators.gram")
# One row per layer: (calls metric or None, self-time metric, functions whose calls
# it counts, further functions whose self time it also takes).  Function names
# are module-relative; the numpy ones are absolute.
LAYERS = (
    ("clifford.matrix_calls", "clifford.matrix_s",
     ("clifford.creation_matrix", "clifford.annihilation_matrix", "clifford.theta_matrix",
      "clifford.two_form_matrix"),
     # the dense-matrix helpers the four entry points are built from
     ("clifford.generator_matrix", "clifford.vector_matrix", "clifford.grade_projector",
      "clifford.number_matrix", "clifford.dtheta_frame_matrix")),
    ("sections.spaces_built", "sections.build_s", ("sections.SectionSpace.__init__",), ()),
    ("sections.lift_calls", "sections.lift_s",
     ("sections.SectionSpace.lift_fiber", "sections.SectionSpace.lift_base"), ()),
    ("operators.assemble_calls", "operators.assemble_s", ASSEMBLERS, ()),
    ("operators.kernel_calls", "operators.kernel_s", ("operators.kernel_report",), ()),
    ("operators.eigensolve_calls", "operators.eigensolve_s",
     ("numpy.linalg.eigh", "numpy.linalg.eigvalsh", "numpy.linalg.svd"), ()),
    ("weitzenboeck.residual_calls", "weitzenboeck.residual_s",
     ("weitzenboeck.sl_residual", "weitzenboeck.dl_residual"), ()),
    ("weitzenboeck.conformal_calls", "weitzenboeck.conformal_s",
     ("weitzenboeck.conformal_check", "weitzenboeck.exponent_scan"), ()),
    ("fields.ops", "fields.ops_s",
     ("fields.spinor_field", "fields.apply_fiber", "fields.scalar_multiply", "fields.field_derivative",
      "fields.field_add", "fields.field_scale", "fields.evaluate_field"), ()),
    ("cohomology.laplacian_calls", "cohomology.laplacian_s",
     ("cohomology.kohn_laplacian", "cohomology.assemble_dbar", "cohomology.holomorphic_laplacian"), ()),
    ("cohomology.table_calls", "cohomology.table_s",
     ("cohomology.shift_table", "cohomology.harmonic_spinor_table"), ()),
    (None, "vanishing.verdict_s", ("vanishing.vanishing_verdicts", "vanishing.obstruction_check"), ()),
    (None, "vanishing.consistency_s", ("vanishing.spectral_consistency",), ()),
    (None, "cli.load_config_s", ("cli.load_config",), ()),
    (None, "cli.build_model_s", ("cli.build_model",), ()),
    # time inside cli.run not covered by a span below it
    (None, "cli.self_s", ("cli.run",), ()),
)

SECTION_METHODS = ("__init__", "lift_fiber", "lift_base")
EIGENSOLVERS = ("eigh", "eigvalsh", "svd")


class Tracer:
    """In-memory span recorder with a stack of open spans."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters = {"operators.assembled_bytes": 0, "operators.eigensolve_n3": 0, "sections.max_dim": 0}

    def wrap(self, name: str, fn, after=None):
        """``fn`` recorded as span ``name``; ``after(args, result)`` runs inside the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, self.clock(), None, self.stack[-1] if self.stack else -1]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                self.stack.pop()
                span[2] = self.clock()

        return traced

    # counters, measured at the same boundaries as the spans

    def _count_assembled(self, args, result):
        # OperatorMatrix results carry .mat; horizontal_laplacians returns bare arrays
        for item in result if isinstance(result, tuple) else (result,):
            self.counters["operators.assembled_bytes"] += getattr(item, "mat", item).nbytes

    def _count_space(self, args, result):
        self.counters["sections.max_dim"] = max(self.counters["sections.max_dim"], int(args[0].dim))

    def _count_eigensolve(self, args, result):
        shape = args[0].shape
        rows, cols = shape[-2], shape[-1]
        self.counters["operators.eigensolve_n3"] += rows * cols * min(rows, cols)


def _crspin_modules(package) -> list:
    names = [info.name for info in pkgutil.iter_modules(package.__path__) if info.name != "__main__"]
    return [package] + [importlib.import_module(f"{package.__name__}.{name}") for name in names]


def install(tracer: Tracer, package) -> None:
    """Wrap crspin's public functions and rebind them in every crspin module."""
    prefix = package.__name__ + "."
    modules = _crspin_modules(package)
    replaced = {}
    for module in modules[1:]:
        short = module.__name__[len(prefix):]
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            replaced[id(obj)] = tracer.wrap(name, obj, tracer._count_assembled if name in ASSEMBLERS else None)
    for module in modules:
        for attr, obj in list(vars(module).items()):
            if id(obj) in replaced and inspect.isfunction(obj):
                setattr(module, attr, replaced[id(obj)])

    space_cls = sys.modules[prefix + "sections"].SectionSpace
    for attr in SECTION_METHODS:
        after = tracer._count_space if attr == "__init__" else None
        setattr(space_cls, attr, tracer.wrap(f"sections.SectionSpace.{attr}", getattr(space_cls, attr), after))

    import numpy.linalg

    for attr in EIGENSOLVERS:
        original = getattr(numpy.linalg, attr)
        traced = tracer.wrap(f"numpy.linalg.{attr}", original, tracer._count_eigensolve)

        def from_crspin(*args, _original=original, _traced=traced, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            return (_traced if caller.startswith(prefix) else _original)(*args, **kwargs)

        setattr(numpy.linalg, attr, functools.wraps(original)(from_crspin))


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus its direct children's durations."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(processes) -> dict:
    """Per-layer metrics of one pass.

    ``processes`` holds, per crspin process, ``wall`` (spawn to exit, as
    seen by the parent), ``spans`` and ``counters`` from the tracer, and
    ``artifact_files``/``artifact_bytes`` of its output directory.
    """
    layer_of = {}
    for index, (_, _, counted, helpers) in enumerate(LAYERS):
        layer_of.update({name: (index, True) for name in counted})
        layer_of.update({name: (index, False) for name in helpers})
    calls = [0] * len(LAYERS)
    seconds = [0.0] * len(LAYERS)
    other = outside = 0.0
    counters = {"operators.assembled_bytes": 0, "operators.eigensolve_n3": 0, "sections.max_dim": 0}
    files = size = 0
    for proc in processes:
        spans = proc["spans"]
        for (name, start, end, parent), own in zip(spans, self_times(spans)):
            if name not in layer_of:
                other += own
                continue
            index, counted = layer_of[name]
            seconds[index] += own
            calls[index] += counted
        outside += proc["wall"] - sum(end - start for _, start, end, parent in spans if parent < 0)
        for key, value in proc["counters"].items():
            counters[key] = max(counters[key], value) if key == "sections.max_dim" else counters[key] + value
        files += proc["artifact_files"]
        size += proc["artifact_bytes"]
    out = {}
    for (calls_name, seconds_name, _, _), count, own in zip(LAYERS, calls, seconds):
        if calls_name:
            out[calls_name] = count
        out[seconds_name] = own
    out.update(counters)
    out["cli.artifact_files"] = files
    out["cli.artifact_bytes"] = size
    out["trace.other_s"] = other
    out["trace.unspanned_s"] = outside
    return out
