"""The streaming event layer: pull events, skip subtrees, tolerate errors.

Every generated parser consumes this interface, so it is worth seeing on
its own first.  The schema loader and the corpus analyzer need whole
trees instead; they build them with ``slimbind.runtime.read_tree``, which
sets expat up exactly as this interface does.
"""

from slimbind.runtime import EventKind, ParseContext, Violation

DOC = """<catalog xmlns="urn:demo">
  <entry kind="a">first<!-- comment splits nothing -->half</entry>
  <blob><deep><deeper/></deep></blob>
  <entry kind="b">two</entry>
</catalog>"""

print("=== every event in the document ===")
ctx = ParseContext(DOC)
while True:
    ev = ctx.next_event()
    if ev.kind is EventKind.END_DOCUMENT:
        print("END_DOCUMENT")
        break
    if ev.kind is EventKind.START_ELEMENT:
        attrs = " ".join(f"{q.local}={v!r}" for q, v in ev.attributes)
        print(f"START {ev.name} {attrs}".rstrip())
    elif ev.kind is EventKind.TEXT:
        if ev.text.strip():
            print(f"TEXT  {ev.text!r}")
    else:
        print(f"END   {ev.name}")

print()
print("=== skipping a subtree without building anything ===")
ctx = ParseContext(DOC)
while True:
    ev = ctx.next_event()
    if ev.kind is EventKind.START_ELEMENT and ev.name.local == "blob":
        skipped = ctx.skip_subtree()
        print(f"skipped {skipped} elements under <blob>")
    elif ev.kind is EventKind.START_ELEMENT and ev.name.local == "entry":
        print(f"still positioned correctly: reached <entry kind="
              f"{ev.attributes[0][1]!r}>")
    elif ev.kind is EventKind.END_DOCUMENT:
        break

print()
print("=== tolerance policy: strict raises, lenient warns ===")
ctx = ParseContext(DOC, mode="lenient", source_name="demo.xml")
ctx.next_event()
ctx.violation(Violation.UNKNOWN_ELEMENT, "pretend something unexpected appeared")
ctx.violation(Violation.BAD_SIMPLE_VALUE, "pretend '12x' was not an integer")
for warning in ctx.warnings:
    print(warning.format())
