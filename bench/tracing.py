"""In-memory spans and counters around slimbind's public entry points.

Nothing here edits the program: wrappers are swapped into every place a
name is looked up at call time (``slimbind.cli`` and ``slimbind.emitter``
bind their imports when they are imported, so patching only the defining
module would miss those calls) and swapped back out afterwards.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, field

# (span name, defining module, attribute) of each public entry point that
# gets a span.  ``UsageReport.merge`` is patched on its class instead.
ENTRY_POINTS = (
    ("loader.load_schema_set", "slimbind.loader", "load_schema_set"),
    ("analyzer.analyze_corpus", "slimbind.analyzer", "analyze_corpus"),
    ("analyzer.analyze_document", "slimbind.analyzer", "analyze_document"),
    ("simplify.compute_retained_set", "slimbind.simplify", "compute_retained_set"),
    ("simplify.emit_reduced_schemas", "slimbind.simplify", "emit_reduced_schemas"),
    ("simplify.reduction_report", "slimbind.simplify", "reduction_report"),
    ("binding.build_binding_model", "slimbind.binding", "build_binding_model"),
    ("binding.serialize_binding_model", "slimbind.binding", "serialize_binding_model"),
    ("emitter.emit_parser_backend", "slimbind.emitter", "emit_parser_backend"),
    ("templates.render_template", "slimbind.templates", "render_template"),
    ("templates.compile_template", "slimbind.templates", "compile_template"),
    ("emitter.write_artifacts", "slimbind.emitter", "write_artifacts"),
)
MERGE_SPAN = "analyzer.UsageReport.merge"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans of every traced run, kept in memory until :meth:`dump`."""

    spans: list = field(default_factory=list)
    run: str = ""
    _open: list = field(default_factory=list)  # indices of unfinished spans

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        span = Span(name, time.perf_counter(), 0.0, parent, self.run)
        self.spans.append(span)
        self._open.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._open.pop()

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump([asdict(s) for s in self.spans], fh)
            fh.write("\n")


def self_times(tracer: Tracer, run: str) -> Counter:
    """Per-name totals of (duration minus direct children's durations).

    Calls are single-threaded and properly nested, so direct children never
    overlap and their durations sum to the part of the parent they cover.
    """
    child_time = Counter()
    for s in tracer.spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    out = Counter()
    for i, s in enumerate(tracer.spans):
        if s.run == run:
            out[s.name] += s.duration - child_time[i]
    return out


def totals(tracer: Tracer, run: str) -> Counter:
    """Per-name total duration of the spans of one run."""
    out = Counter()
    for s in tracer.spans:
        if s.run == run:
            out[s.name] += s.duration
    return out


class Patches:
    """Swap attributes in and restore them all on exit."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def replace_everywhere(self, modules, original, replacement):
        """Rebind every module-level name that refers to ``original``."""
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def _slimbind_modules():
    import sys
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "slimbind" or name.startswith("slimbind."))]


def install_spans(tracer: Tracer) -> Patches:
    """Patch every entry point to record a span; use as a context manager."""
    import importlib

    from slimbind.analyzer import UsageReport

    patches = Patches()
    modules = _slimbind_modules()
    for span_name, module_name, attr in ENTRY_POINTS:
        original = getattr(importlib.import_module(module_name), attr)
        patches.replace_everywhere(modules, original, tracer.wrap(span_name, original))
    patches.set(UsageReport, "merge", tracer.wrap(MERGE_SPAN, UsageReport.merge))
    return patches


@dataclass
class WasteCounters:
    """Work counted at layer boundaries, for ratios of useful to attempted."""

    qnames: int = 0
    matchers: int = 0
    matcher_types: set = field(default_factory=set)
    compiles: int = 0
    distinct_templates: set = field(default_factory=set)


def install_counters(c: WasteCounters) -> Patches:
    """Count QName constructions, matcher builds and template compiles."""
    from slimbind import templates
    from slimbind.analyzer import ContentMatcher
    from slimbind.model import QName

    patches = Patches()

    post_init = QName.__post_init__

    def counted_post_init(self):
        c.qnames += 1
        post_init(self)
    patches.set(QName, "__post_init__", counted_post_init)

    matcher_init = ContentMatcher.__init__

    def counted_matcher_init(self, schema, type_id):
        c.matchers += 1
        c.matcher_types.add(type_id)
        matcher_init(self, schema, type_id)
    patches.set(ContentMatcher, "__init__", counted_matcher_init)

    compile_template = templates.compile_template

    def counted_compile(name, template):
        c.compiles += 1
        c.distinct_templates.add((name, template))
        return compile_template(name, template)
    patches.replace_everywhere(_slimbind_modules(), compile_template, counted_compile)
    return patches
