"""End to end: corpus-informed parser generation, then parsing with it.

Shows the optimizations at work: unused classes gone, inheritance
flattened, single-occurrence particles tightened to scalars, the
substitution dispatch bounded to observed members, and the single-child
<authors><names>...</names></authors> wrapper collapsed away.

The generated package is one module.  Each class in it is data and is its
own parser: a plain __slots__ record class over slimbind.runtime.Record
whose _rows hold one row per field, keyed by the names expat reports
("namespace local"); at import, slimbind.runtime turns the rows into
lookup tables on the class and leaves the package's own tables as they
are.  Records print in field order and
turn into plain dicts with to_dict().

Last, the package is imported in a fresh interpreter, as a device that
only parses would: it loads slimbind.runtime and what that needs, never
the generator.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import slimbind
from slimbind.analyzer import analyze_corpus
from slimbind.binding import BindingOptions, build_binding_model
from slimbind.emitter import emit_parser_backend, format_size_report, write_artifacts
from slimbind.loader import SchemaSource, load_schema_set
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
print("one class of the generated package: the record and the field rows it indexes:")
source = (OUT / "gen" / "librarydemo" / "__init__.py").read_text()
start = source.index("class BookType")
print(source[start:source.index("\n", source.index("    _rows = ", start))])
for index in generated.BookType._rows:
    print(f"      _ROWS[{index}] = {generated._ROWS[index]!r}")

print()
print("slimbind modules a fresh interpreter loads to import the package:")
probe = (f"import sys; sys.path[:0] = [{str(OUT / 'gen')!r}, "
         f"{str(Path(slimbind.__file__).parent.parent)!r}]\n"
         "import librarydemo\n"
         "print(*sorted(m for m in sys.modules if m.startswith('slimbind')))")
print(" ", subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True).stdout.strip())
