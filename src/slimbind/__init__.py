"""Corpus-driven XML Schema subsetting and compact parser code generation.

The pipeline: load a schema set, analyze how a document corpus uses it,
emit the reduced schema subset plus a usage report, build an optimized
binding model, and render parser source code from templates.
"""

__version__ = "0.1.0"
