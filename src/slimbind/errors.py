"""Error types raised across the toolchain.

Every error carries a stable ``code`` string so CLI output and tests can
match on it without depending on exception class names.
"""

from __future__ import annotations


class SlimbindError(Exception):
    """Base class for all toolchain errors."""

    code = "ERROR"

    def __init__(self, message, **info):
        super().__init__(message)
        self.info = info

    def __str__(self):
        base = super().__str__()
        return f"{self.code}: {base}"


# ---------------------------------------------------------------- schema model

class UnknownComponentError(SlimbindError):
    code = "UNKNOWN_COMPONENT"


class NotAnElementError(SlimbindError):
    code = "NOT_AN_ELEMENT"


# ---------------------------------------------------------------- loader

class UnresolvedImportError(SlimbindError):
    code = "UNRESOLVED_IMPORT"


class DanglingReferenceError(SlimbindError):
    code = "DANGLING_REFERENCE"


class CyclicDerivationError(SlimbindError):
    code = "CYCLIC_DERIVATION"


class MalformedSchemaError(SlimbindError):
    code = "MALFORMED_SCHEMA"


# ---------------------------------------------------------------- analyzer

class UnknownRootElementError(SlimbindError):
    code = "UNKNOWN_ROOT_ELEMENT"


class InvalidTypeOverrideError(SlimbindError):
    code = "INVALID_TYPE_OVERRIDE"


class UnmatchedChildError(SlimbindError):
    code = "UNMATCHED_CHILD"


class AmbiguousMatchError(SlimbindError):
    code = "AMBIGUOUS_MATCH"


class MalformedDocumentError(SlimbindError):
    code = "MALFORMED_DOCUMENT"


# ---------------------------------------------------------------- simplifier

class NotClosedError(SlimbindError):
    code = "NOT_CLOSED"


# ---------------------------------------------------------------- binding model

class InconsistentUsageError(SlimbindError):
    code = "INCONSISTENT_USAGE"


class EmptyModelError(SlimbindError):
    code = "EMPTY_MODEL"


# ---------------------------------------------------------------- runtime

class LocatedError(SlimbindError):
    """An error at a position of a document, which its text names when known."""

    def __init__(self, message, line=None, col=None, source=None):
        super().__init__(message, line=line, col=col, source=source)
        self.line = line
        self.col = col
        self.source = source

    def __str__(self):
        loc = ""
        if self.line is not None:
            loc = f" at {self.source or '<input>'}:{self.line}:{self.col}"
        return f"{self.code}: {Exception.__str__(self)}{loc}"


class MalformedXmlError(LocatedError):
    code = "MALFORMED_XML"


class ParseViolationError(LocatedError):
    """Strict-mode parse violation; subclasses name the violation class."""


class UnknownElementError(ParseViolationError):
    code = "UNKNOWN_ELEMENT"


class MissingRequiredError(ParseViolationError):
    code = "MISSING_REQUIRED"


class BadSimpleValueError(ParseViolationError):
    code = "BAD_SIMPLE_VALUE"


class UnexpectedTextError(ParseViolationError):
    code = "UNEXPECTED_TEXT"


# ---------------------------------------------------------------- emitter

class TemplateError(SlimbindError):
    code = "TEMPLATE_ERROR"

    def __init__(self, message, template=None, line=None):
        super().__init__(message, template=template, line=line)
        self.template = template
        self.line = line

    def __str__(self):
        where = ""
        if self.template is not None:
            where = f" in template '{self.template}'"
            if self.line is not None:
                where += f" line {self.line}"
        return f"{self.code}: {Exception.__str__(self)}{where}"


class UnresolvedPlaceholderError(TemplateError):
    code = "UNRESOLVED_PLACEHOLDER"
