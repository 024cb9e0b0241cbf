"""Helpers for compiling generated parser packages inside tests."""

from __future__ import annotations

import importlib
import itertools
import os
import sys

from slimbind.analyzer import analyze_corpus
from slimbind.binding import BindingOptions, build_binding_model
from slimbind.emitter import emit_parser_backend, write_artifacts
from slimbind.runtime import Record
from slimbind.simplify import compute_retained_set

from oracle import Interpreter

_SEQ = itertools.count()


def unique_model_name(prefix="genmod"):
    return f"{prefix}_{os.getpid()}_{next(_SEQ)}"


def compile_model(model, tmp_path):
    """Emit the backend, write it under tmp_path, import the package."""
    artifacts = emit_parser_backend(model)
    write_artifacts(model, artifacts, os.fspath(tmp_path))
    gen_parent = os.path.join(os.fspath(tmp_path), "gen")
    if gen_parent not in sys.path:
        sys.path.insert(0, gen_parent)
    return importlib.import_module(model.name), artifacts


def build_and_import(schema, docs, tmp_path, options=None, retained=None):
    """Full pipeline for fixtures: returns (model, generated module, usage)."""
    usage = analyze_corpus(schema, [(f"d{i}.xml", d) for i, d in enumerate(docs)])
    assert not usage.failures, usage.failures
    if retained is None:
        retained = compute_retained_set(schema, usage)
    model = build_binding_model(schema, retained, usage,
                                options or BindingOptions(),
                                model_name=unique_model_name())
    module, artifacts = compile_model(model, tmp_path)
    return model, module, usage, artifacts


def normalize(value):
    """A generated record as plain dicts and lists; any other value unchanged."""
    if isinstance(value, Record):
        return value.to_dict()
    return value


def assert_equivalent(model, module, docs, mode="strict"):
    """Generated parser output must deep-equal the interpreter's tree."""
    oracle = Interpreter(model)
    for i, doc in enumerate(docs):
        got, got_warnings = module.parse_document(doc, mode=mode,
                                                  source_name=f"d{i}.xml")
        want, want_warnings = oracle.parse_document(doc, mode=mode,
                                                    source_name=f"d{i}.xml")
        assert normalize(got) == want, f"doc {i}: generated != oracle"
        assert [w.format() for w in got_warnings] == \
            [w.format() for w in want_warnings], f"doc {i}: warnings"
