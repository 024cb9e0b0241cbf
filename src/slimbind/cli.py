"""Command-line pipeline: analyze, simplify, generate.

Exit codes: 0 success, 1 schema/configuration errors, 2 corpus errors
(strict mode) or an empty corpus, 3 template errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .analyzer import analyze_corpus
from .binding import BindingOptions, build_binding_model, serialize_binding_model
from .emitter import emit_parser_backend, render, write_artifacts
from .errors import SlimbindError, TemplateError
from .loader import Catalog, SchemaSource, load_schema_set
from .model import QName
from .simplify import compute_retained_set, emit_reduced_schemas, reduction_report
from .templates import TemplateSet

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_CORPUS = 2
EXIT_TEMPLATE = 3


def _discover_docs(docs_paths):
    found = []
    for docs_path in docs_paths:
        os.stat(docs_path)  # a missing path is an IO_ERROR, not an empty corpus
        if os.path.isfile(docs_path):
            found.append(docs_path)
            continue
        for dirpath, _dirnames, filenames in os.walk(docs_path):
            for fn in filenames:
                if fn.endswith(".xml"):
                    found.append(os.path.join(dirpath, fn))
    return sorted(found)


def _parse_ignore_path(text: str):
    """``{ns}a/b/{ns2}c``; bare segments inherit the previous namespace.

    A ``{namespace}`` is read whole, so it may contain ``/``.
    """
    segments = []
    ns, rest = "", text
    while rest:
        braced = rest.startswith("{")
        if braced:
            ns, closed, rest = rest[1:].partition("}")
            if not closed:
                raise SlimbindError(f"--ignore {text}: '{{' is never closed")
        local, _, rest = rest.partition("/")
        if local:
            try:
                segments.append(QName(ns, local))
            except ValueError:
                raise SlimbindError(f"--ignore {text}: '{local}' is not a local name") from None
        elif braced:
            raise SlimbindError(f"--ignore {text}: no local name after {{{ns}}}")
    return tuple(segments)


def _load_inputs(args):
    resolver = Catalog.from_file(args.catalog) if args.catalog else None
    sources = [SchemaSource.from_file(p) for p in args.schemas]
    return load_schema_set(sources, resolver)


def _check_out_dir(args):
    out = os.path.abspath(args.out)
    clashes = [os.path.abspath(p) for p in args.schemas]
    clashes.extend(os.path.abspath(p) for p in args.docs)
    for c in clashes:
        base = c if os.path.isdir(c) else os.path.dirname(c)
        if out == base:
            raise SlimbindError(f"--out {args.out} must be distinct from schema "
                                "and corpus directories")


def _report_failures(report):
    for name, exc in report.failures:
        print(f"FAILED {name}: {exc}", file=sys.stderr)


def _strict_failures(args, report) -> bool:
    """Print the corpus failures when they fail a strict run."""
    if report.failures and args.mode == "strict":
        _report_failures(report)
        return True
    return False


def _analyze_inputs(args, need_usage: bool):
    """The steps every command starts with; ``(schema, report, exit code)``.

    Loads the schemas, checks ``--out``, analyzes the corpus, prints the
    warnings and writes ``usage-report.json``.  The exit code is None unless
    the command must stop here: a schema error, or, with ``need_usage``, a
    corpus that recorded no usage.
    """
    try:
        schema = _load_inputs(args)
        _check_out_dir(args)
    except SlimbindError as exc:
        print(exc, file=sys.stderr)
        return None, None, EXIT_SCHEMA
    docs = [Path(p) for p in _discover_docs(args.docs)]
    report = analyze_corpus(schema, docs, mode=args.mode)
    for w in (*schema.warnings, *report.warnings):
        print(f"warning: {w}", file=sys.stderr)
    os.makedirs(args.out, exist_ok=True)
    Path(args.out, "usage-report.json").write_text(report.to_json(), encoding="utf-8")
    if need_usage and (report.document_count == 0 or not report.used_components):
        print("no usage recorded: corpus is empty or nothing analyzed",
              file=sys.stderr)
        _report_failures(report)
        return schema, report, EXIT_CORPUS
    return schema, report, None


def _write_reduction(args, schema, retained):
    """Write the reduced schemas and ``reduction-report.json``; (files, report)."""
    files = emit_reduced_schemas(schema, retained, os.path.join(args.out, "reduced"))
    reduction = reduction_report(schema, retained)
    Path(args.out, "reduction-report.json").write_text(reduction.to_json(), encoding="utf-8")
    return files, reduction


def cmd_analyze(args) -> int:
    _schema, report, code = _analyze_inputs(args, need_usage=False)
    if code is not None:
        return code
    print(f"analyzed {report.document_count} documents, "
          f"{len(report.used_components)} components used")
    return EXIT_CORPUS if _strict_failures(args, report) else EXIT_OK


def cmd_simplify(args) -> int:
    schema, report, code = _analyze_inputs(args, need_usage=True)
    if code is not None:
        return code
    files, reduction = _write_reduction(args, schema, compute_retained_set(schema, report))
    print(f"retained {reduction.retained_components}/{reduction.total_components} "
          f"global components ({reduction.percent()})")
    total_bytes = 0
    for f in files:
        size = os.path.getsize(f)
        total_bytes += size
        print(f"wrote {f} ({size} bytes)")
    print(f"reduced schema size: {total_bytes} bytes "
          "(component counts above are the primary metric)")
    return EXIT_CORPUS if _strict_failures(args, report) else EXIT_OK


def cmd_generate(args) -> int:
    ignore_paths = tuple(_parse_ignore_path(p) for p in args.ignore)
    schema, report, code = _analyze_inputs(args, need_usage=True)
    if code is not None:
        return code
    if _strict_failures(args, report):
        return EXIT_CORPUS

    options = BindingOptions(
        flatten_inheritance=not args.no_flatten,
        collapse_single_child=not args.no_collapse,
        tighten_occurrences=not args.keep_occurrences,
        bound_substitutions=not args.all_substitutions,
        prune_unused=not args.no_prune,
        ignore_paths=ignore_paths,
        corpus_is_synthetic=args.synthetic_corpus,
    )
    retained_used = compute_retained_set(schema, report)
    retained = retained_used if options.prune_unused else set(schema.components)
    _files, reduction = _write_reduction(args, schema, retained_used)

    try:
        model = build_binding_model(schema, retained, report, options,
                                    model_name=args.model_name)
        if args.templates:
            templates = TemplateSet.from_dir(args.templates)
            artifacts = render(model, templates)
        else:
            artifacts = emit_parser_backend(model)
    except TemplateError as exc:
        print(exc, file=sys.stderr)
        return EXIT_TEMPLATE
    except SlimbindError as exc:
        print(exc, file=sys.stderr)
        return EXIT_CORPUS
    # Nothing below reads them: serializing and compiling the package reuse their memory.
    del schema, report, retained_used, retained

    for text, path in zip(args.ignore, ignore_paths):
        if path in model.unmatched_ignores:
            print(f"warning: --ignore {text} matched no field", file=sys.stderr)
    Path(args.out, "binding-model.json").write_text(serialize_binding_model(model),
                                                    encoding="utf-8")
    manifest = write_artifacts(model, artifacts, args.out)
    print(f"retained {reduction.retained_components}/{reduction.total_components} "
          f"global components ({reduction.percent()})")
    print(f"generated {len(artifacts)} files, {manifest['totalBytes']} bytes, "
          f"{manifest['classCount']} classes -> "
          f"{os.path.join(args.out, 'gen', model.name)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slimbind",
        description="Corpus-driven XML Schema subsetting and parser generation.",
        epilog="exit codes: 0 success, 1 schema errors, 2 corpus errors, "
               "3 template errors")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--schemas", nargs="+", required=True,
                       help="schema entry-point files")
        p.add_argument("--catalog", help="catalog file: 'key<TAB>path' per line")
        p.add_argument("--docs", nargs="+", required=True,
                       help="corpus directories (recursive *.xml) and/or files")
        p.add_argument("--out", required=True, help="output directory")
        mode = p.add_mutually_exclusive_group()
        mode.add_argument("--strict", dest="mode", action="store_const",
                          const="strict", default="strict",
                          help="fail documents that do not match (default)")
        mode.add_argument("--lenient", dest="mode", action="store_const",
                          const="lenient", help="skip unmatched content with warnings")

    p = sub.add_parser("analyze", help="write usage-report.json for a corpus")
    common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("simplify", help="emit the reduced schema subset")
    common(p)
    p.set_defaults(fn=cmd_simplify)

    p = sub.add_parser("generate", help="generate parser code from the corpus")
    common(p)
    p.add_argument("--no-flatten", action="store_true",
                   help="keep inheritance instead of flattening")
    p.add_argument("--no-collapse", action="store_true",
                   help="keep single-child wrapper classes")
    p.add_argument("--keep-occurrences", action="store_true",
                   help="keep declared occurrence constraints")
    p.add_argument("--all-substitutions", action="store_true",
                   help="dispatch on all schema-possible substitutions")
    p.add_argument("--no-prune", action="store_true",
                   help="generate classes for unused components too")
    p.add_argument("--synthetic-corpus", action="store_true",
                   help="corpus is hand-made: disable tightening and bounding")
    p.add_argument("--ignore", action="append", default=[],
                   metavar="PATH", help="element path to skip, e.g. {ns}a/b")
    p.add_argument("--templates", help="custom template set directory")
    p.add_argument("--model-name", default="model")
    p.set_defaults(fn=cmd_generate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except SlimbindError as exc:
        print(exc, file=sys.stderr)
        return EXIT_SCHEMA
    except OSError as exc:
        print(f"IO_ERROR: {exc}", file=sys.stderr)
        return EXIT_SCHEMA


if __name__ == "__main__":
    sys.exit(main())
