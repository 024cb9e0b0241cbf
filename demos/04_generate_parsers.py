"""End to end: corpus-informed parser generation, then parsing with it.

Shows the optimizations at work: unused classes gone, inheritance
flattened, single-occurrence particles tightened to scalars, the
substitution dispatch bounded to observed members, and the single-child
<authors><names>...</names></authors> wrapper collapsed away.

The generated package is one module of data, each table one string with
a line per entry.  Each class in it is one _CLASSES line, its name, base
and the indices of its rows in the module's _ROWS table, one row per
field.  After its last table the package makes its one call,
parse_document = slimbind.runtime.bind_parsers(globals(), 2), stamped
with the package format the runtime reads (PACKAGE_FORMAT), and defines
no function: the call returns the package's parse_document and makes
from each line a plain __slots__ record class over
slimbind.runtime.Record, which is its own parser, taking its slots from
its rows.  A line names a namespace by its index into _NS, and a row
leaves its slot empty when the slot is the element's local name; the
same call splits each row once and expands the rows and dispatch tables
into lookup tables on the class, keyed by the names expat reports
("namespace local"), and leaves the package's own tables as they are.
Records print in field order and turn into plain dicts with to_dict().  The package's
source is all a device stores of it: generate writes no bytecode.

Last, the package is imported in a fresh interpreter, as a device that
only parses would: it compiles the package's source, loads
slimbind.runtime and what that needs, never the generator, and parses a
document.
"""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import slimbind
from slimbind.analyzer import analyze_corpus
from slimbind.binding import BindingOptions, build_binding_model
from slimbind.emitter import emit_parser_backend, format_size_report, write_artifacts
from slimbind.loader import SchemaSource, load_schema_set
from slimbind.runtime import PACKAGE_FORMAT
from slimbind.simplify import compute_retained_set

HERE = Path(__file__).parent
OUT = HERE / "out"

schema = load_schema_set([SchemaSource.from_file(HERE / "data" / "library.xsd")])
corpus = sorted((HERE / "data" / "corpus").glob("*.xml"))
usage = analyze_corpus(schema, corpus)
retained = compute_retained_set(schema, usage)

model = build_binding_model(schema, retained, usage, BindingOptions(),
                            model_name="librarydemo")
print("classes in the optimized model:")
for cls in model.classes:
    fields = ", ".join(f"{f.name}:{f.cardinality.value}" for f in cls.fields)
    print(f"  {cls.name}({fields})")
print(f"collapsed away: {[c.name for c in model.collapsed_classes]}")

artifacts = emit_parser_backend(model)
write_artifacts(model, artifacts, OUT)
print()
print("emitted sources (bytes, descending):")
print(format_size_report(artifacts))

# Import the generated package and parse one of the corpus documents.
sys.path.insert(0, str(OUT / "gen"))
generated = importlib.import_module("librarydemo")
doc = (HERE / "data" / "corpus" / "day1.xml").read_text()
library, warnings = generated.parse_document(doc)

print()
print(f"parsed branch {library.branch!r} with {len(library.item)} items:")
for item in library.item:
    extra = getattr(item, "pages", None) or getattr(item, "minutes", None)
    # authors collapsed through <authors><names> straight to the name list
    authors = getattr(item, "authors", None)
    print(f"  #{item.id} {item.title!r} price={item.price and item.price.value} "
          f"authors={authors}")
print(f"warnings: {len(warnings)}")
print(f"first item as plain data: {library.item[0].to_dict()}")

print()
print(f"namespaces the rows name by index: _NS = {generated._NS!r}")
print("one class of the generated package: its _CLASSES line and the field rows it indexes:")
(line,) = [line for line in generated._CLASSES.splitlines() if line.startswith("BookType|")]
print(f"  {line}")
rows = generated._ROWS.splitlines()
for index in generated.BookType._rows:
    print(f"      _ROWS line {index}: {rows[index]}")
print(f"  its slots, read from those rows: {generated.BookType.__slots__}")

stored = json.loads((OUT / "gen" / "librarydemo" / "MANIFEST.json").read_text())
print(f"what a device stores: source {stored['totalBytes']} bytes, no bytecode; "
      f"package format {PACKAGE_FORMAT}")

print()
print("a fresh interpreter compiles the package's source, loading these slimbind modules,")
print("and parses day2.xml:")
probe = (f"import sys; sys.path[:0] = [{str(OUT / 'gen')!r}, "
         f"{str(Path(slimbind.__file__).parent.parent)!r}]\n"
         "import librarydemo\n"
         "print(' ', *sorted(m for m in sys.modules if m.startswith('slimbind')))\n"
         "from pathlib import Path\n"
         f"doc = Path({str(HERE / 'data' / 'corpus' / 'day2.xml')!r}).read_text()\n"
         "library, warnings = librarydemo.parse_document(doc)\n"
         "print(f'  branch {library.branch!r}, {len(library.item)} items, "
         "{len(warnings)} warnings')")
print(subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                     check=True).stdout.rstrip())
