"""Corpus-driven XML Schema subsetting and compact parser code generation.

The pipeline: load a schema set, analyze how a document corpus uses it,
emit the reduced schema subset plus a usage report, build an optimized
binding model, and render parser source code from templates.
"""

__version__ = "0.1.0"

from .analyzer import (  # noqa: F401
    UsageReport,
    analyze_corpus,
    assign_children,
    assign_root,
    merge_reports,
)
from .binding import (  # noqa: F401
    BindingModel,
    BindingOptions,
    build_binding_model,
    deserialize_binding_model,
    serialize_binding_model,
)
from .emitter import (  # noqa: F401
    emit_parser_backend,
    render,
    size_report,
    write_artifacts,
)
from .loader import Catalog, SchemaSource, builtin_types, load_schema_set  # noqa: F401
from .model import (  # noqa: F401
    Occurs,
    QName,
    SchemaSet,
    dependency_closure,
    substitution_members,
)
from .runtime import (  # noqa: F401
    EventKind,
    ParseContext,
    Recovery,
    Violation,
    XmlEvent,
)
from .simplify import (  # noqa: F401
    ReductionReport,
    compute_retained_set,
    emit_reduced_schemas,
    reduction_report,
)
from .templates import ManifestEntry, TemplateSet  # noqa: F401
