"""Outside-in tracer: spans around the public functions where augq's
modules meet, installed by patching module attributes from the benchmark.

Nothing inside ``src/`` knows about it.  Each span is
``[name, start, end, parent, ring_id, counts]``; spans stay in memory and
are written out by the benchmark at exit.  A layer's self time is its
spans' durations minus the part covered by their child spans, so the self
times of all spans add up to the duration of the root span exactly.
"""

import functools
import importlib
import json
import sys
import time

# (span name, module whose attribute is patched, attribute path).  A name
# is patched where the caller looks it up: ``augq.cli`` for what cli
# imported, ``augq.augring``/``augq.stabilize`` for the intlinalg functions
# they imported, and the defining module for calls made inside it.
TARGETS = [
    ("cli.main", "augq.cli", "main"),
    ("constructors.parse_group_spec", "augq.cli", "parse_group_spec"),
    ("constructors.cayley_from_abelian", "augq.cli", "cayley_from_abelian"),
    ("constructors.group_ring", "augq.cli", "group_ring"),
    ("constructors.burnside_ring", "augq.cli", "burnside_ring"),
    ("constructors.rep_ring_abelian", "augq.cli", "rep_ring_abelian"),
    ("constructors.rep_ring_dihedral", "augq.cli", "rep_ring_dihedral"),
    ("constructors.table_of_marks", "augq.constructors", "table_of_marks"),
    ("constructors.enumerate_subgroups", "augq.constructors", "enumerate_subgroups"),
    ("augring.from_dict", "augq.augring", "AugmentedRing.from_dict"),
    ("augring.validate", "augq.augring", "AugmentedRing.validate"),
    ("augring.ideal_powers", "augq.augring", "AugmentedRing.ideal_powers"),
    ("intlinalg.kernel_basis", "augq.augring", "kernel_basis"),
    ("intlinalg.echelon", "augq.augring", "lattice_from_generators"),
    ("intlinalg.quotient_invariants", "augq.augring", "quotient_invariants"),
    ("intlinalg.quotient_invariants", "augq.stabilize", "quotient_invariants"),
    ("stabilize.build_report", "augq.cli", "build_report"),
    ("stabilize.quotient_sequence", "augq.stabilize", "quotient_sequence"),
    ("stabilize.lambda_diagnostics", "augq.stabilize", "lambda_diagnostics"),
]

ROOT_SPAN = "cli.main"
REPORT_SPAN = "stabilize.build_report"
# Every corpus sweep with a valid ring enters these; a sweep that does not
# means a target was bypassed, and its layer would silently read 0.
ALWAYS_ENTERED = {
    "augring.validate",
    "augring.ideal_powers",
    "intlinalg.kernel_basis",
    "intlinalg.echelon",
    "intlinalg.quotient_invariants",
    REPORT_SPAN,
    "stabilize.quotient_sequence",
    "stabilize.lambda_diagnostics",
}

# Span name -> the per-layer metric its self time is added to.
SELF_TIME_METRIC = {
    "cli.main": "cli.overhead_s",
    "constructors.parse_group_spec": "constructors.ring_s",
    "constructors.cayley_from_abelian": "constructors.ring_s",
    "constructors.group_ring": "constructors.ring_s",
    "constructors.burnside_ring": "constructors.ring_s",
    "constructors.rep_ring_abelian": "constructors.ring_s",
    "constructors.rep_ring_dihedral": "constructors.ring_s",
    "constructors.table_of_marks": "constructors.table_of_marks_s",
    "constructors.enumerate_subgroups": "constructors.enumerate_subgroups_s",
    "augring.from_dict": "augring.from_dict_s",
    "augring.validate": "augring.validate_s",
    "augring.ideal_powers": "augring.generator_build_s",
    "intlinalg.kernel_basis": "intlinalg.kernel_basis_s",
    "intlinalg.echelon": "intlinalg.echelon_s",
    "intlinalg.quotient_invariants": "intlinalg.quotient_invariants_s",
    "stabilize.build_report": "stabilize.build_report_s",
    "stabilize.quotient_sequence": "stabilize.build_report_s",
    "stabilize.lambda_diagnostics": "stabilize.diagnostics_s",
}
SELF_TIME_METRICS = sorted(set(SELF_TIME_METRIC.values()))

# Layers that some workloads never enter (no Burnside ring, or no ring-spec
# file) would report a time of exactly 0 on every run of that workload, so
# the reported metrics merge them into one ring-building time; the split is
# still printed and kept in the spans.
REPORTED_AS = {
    "constructors.ring_s": "rings.build_s",
    "constructors.enumerate_subgroups_s": "rings.build_s",
    "constructors.table_of_marks_s": "rings.build_s",
    "augring.from_dict_s": "rings.build_s",
}


class TracerError(RuntimeError):
    """A trace target is missing, so its layer would silently read 0."""


def _echelon_counts(args, kwargs, result):
    generators = kwargs.get("generators", args[1] if len(args) > 1 else ())
    bits = max(
        (abs(x).bit_length() for row in result.basis.data for x in row), default=0
    )
    return {"generators": len(generators), "rank": result.rank, "bits": bits}


def _subgroup_counts(args, kwargs, result):
    return {"classes": len(result)}


def _ring_id_of(args, kwargs, result):
    return {"ring_id": kwargs.get("ring_id", args[1] if len(args) > 1 else None)}


COUNTERS = {
    "intlinalg.echelon": _echelon_counts,
    "constructors.enumerate_subgroups": _subgroup_counts,
    REPORT_SPAN: _ring_id_of,
}


def _resolve(module_name, path):
    """(owner, attribute name, raw attribute) or TracerError."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise TracerError(f"cannot import trace target module {module_name}: {exc}")
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            raise TracerError(f"trace target {module_name}.{path} no longer exists")
    raw = vars(owner).get(attr)
    fn = getattr(raw, "__func__", raw)
    if not callable(fn):
        raise TracerError(f"trace target {module_name}.{path} no longer exists")
    return owner, attr, raw


class Tracer:
    """Records spans while installed; ``uninstall`` restores every target."""

    def __init__(self, targets=TARGETS):
        self.spans = []
        self._stack = []
        self._targets = targets
        self._saved = []

    def install(self):
        resolved = [(name, *_resolve(mod, path)) for name, mod, path in self._targets]
        for name, owner, attr, raw in resolved:
            fn = getattr(raw, "__func__", raw)
            wrapped = self._wrap(name, fn)
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(wrapped)
            setattr(owner, attr, wrapped)
            self._saved.append((owner, attr, raw))

    def uninstall(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    span[5] = counter(args, kwargs, result)
                return result
            finally:
                span[2] = clock()
                stack.pop()

        return wrapper


def self_times(spans):
    """Self time of every span: its duration less its children's."""
    out = [end - start for _, start, end, _, _, _ in spans]
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def attribute_rings(spans):
    """Fill each span's ring id in place.

    A ring's spans are the root's children from the end of the previous
    ring's report up to and including its own ``build_report``, plus their
    descendants; the ring id is the one ``build_report`` was given.  Spans
    after the last report (a ring that failed validation) keep None.
    """
    top = [None] * len(spans)
    pending = []
    for i, span in enumerate(spans):
        parent = span[3]
        if parent < 0:
            continue
        if spans[parent][3] < 0:
            top[i] = i
            pending.append(i)
            if span[0] == REPORT_SPAN and span[5]:
                for j in pending:
                    spans[j][4] = span[5]["ring_id"]
                pending = []
        else:
            top[i] = top[parent]
    for i, span in enumerate(spans):
        if top[i] is not None and top[i] != i:
            span[4] = spans[top[i]][4]


def layer_metrics(spans):
    """Per-layer metrics of one traced sweep (one root span)."""
    roots = [s for s in spans if s[3] < 0]
    if len(roots) != 1 or roots[0][0] != ROOT_SPAN:
        raise TracerError(f"expected one {ROOT_SPAN} root span, got {len(roots)}")
    missing = ALWAYS_ENTERED.difference(s[0] for s in spans)
    if missing:
        raise TracerError(f"trace targets never entered: {sorted(missing)}")
    metrics = dict.fromkeys(SELF_TIME_METRICS, 0.0)
    for span, self_t in zip(spans, self_times(spans)):
        metrics[SELF_TIME_METRIC[span[0]]] += self_t
    echelons = [s for s in spans if s[0] == "intlinalg.echelon" and s[5]]
    generators = sum(s[5]["generators"] for s in echelons)
    rank = sum(s[5]["rank"] for s in echelons)
    metrics["intlinalg.echelon_step_max_s"] = max(
        (s[2] - s[1] for s in echelons), default=0.0
    )
    metrics["intlinalg.basis_bits_max"] = max(
        (s[5]["bits"] for s in echelons), default=0
    )
    metrics["intlinalg.useful_generator_ratio"] = (
        rank / generators if generators else 1.0
    )
    metrics["augring.generators"] = generators
    metrics["augring.chain_steps"] = sum(
        1 for s in echelons if spans[s[3]][0] == "augring.ideal_powers"
    )
    metrics["constructors.subgroup_classes"] = sum(
        s[5]["classes"]
        for s in spans
        if s[0] == "constructors.enumerate_subgroups" and s[5]
    )
    metrics["trace.spans"] = len(spans)
    return metrics


def reported_metrics(metrics):
    """``layer_metrics`` with the rarely entered layers merged."""
    out = {}
    for name, value in metrics.items():
        key = REPORTED_AS.get(name, name)
        out[key] = out.get(key, 0) + value
    return out


def _sweep_main(argv):
    """Child entry: ``tracer.py OUT.json traced|untraced AUGQ_ARGS...``.

    Times one in-process ``augq.cli.main(AUGQ_ARGS)``, with the tracer
    installed or not, and writes the wall time, exit code and spans to
    OUT.json when it ends.
    """
    out_path, mode, augq_args = argv[0], argv[1], argv[2:]
    cli = importlib.import_module("augq.cli")
    tracer = Tracer()
    if mode == "traced":
        try:
            tracer.install()
        except TracerError as exc:
            with open(out_path, "w", encoding="utf-8") as fh:
                json.dump({"error": str(exc)}, fh)
            sys.exit(3)
    start = time.perf_counter()
    code = cli.main(augq_args)
    wall = time.perf_counter() - start
    tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"wall": wall, "code": code, "spans": tracer.spans}, fh)
    sys.exit(0)


if __name__ == "__main__":
    _sweep_main(sys.argv[1:])
