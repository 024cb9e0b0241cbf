"""Layered benchmark of the slimbind pipeline, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload log-1mb --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1

``--trace 0`` times ``slimbind generate`` (through ``slimbind.cli.main``)
plus the import of the generated package, and the generated
``parse_document`` over the workload's parse set, with nothing patched.
``--trace 1`` is a separate pass: it records spans around each layer's
public entry points, counts work at the same boundaries, runs a
``tracemalloc`` memory pass, and reports per-layer metrics.  Both passes
check the outputs (oracle trees, counts, reduced-schema reload, repeatable
output); the last line of standard output is one JSON object.
``--workload all`` runs both passes of every workload, each in its own
process, and prints every metric as a table.

Everything runs in one process and one thread.  MB means 10**6 bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
import tracemalloc
from statistics import median

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOAD_NAMES = ("log-1mb", "wide-schema")
SETUP_ROUNDS = 3  # timed generate+import samples per untraced run
TRACE_ROUNDS = 2  # traced and untraced generate+import samples per traced run
ORACLE_SAMPLE = 200  # documents of the parse set checked against the oracle
MB = 1e6


# ---------------------------------------------------------------- pipeline

def import_package(gen_dir, name):
    """Import a generated package and every module in it.

    Generated code may bind its class modules lazily on first use; importing
    them all here keeps that cost in set-up whichever way the code binds.
    """
    package = importlib.import_module(name)
    for fn in sorted(os.listdir(os.path.join(gen_dir, name))):
        if fn.endswith(".py") and fn != "__init__.py":
            importlib.import_module(f"{name}.{fn[:-3]}")
    return package


class Pipeline:
    """The workload's files on disk, and generate/import/parse around them."""

    def __init__(self, workload, work_dir):
        self.w = workload
        self.work = work_dir
        schema_dir = os.path.join(work_dir, "schemas")
        corpus_dir = os.path.join(work_dir, "corpus")
        os.makedirs(schema_dir)
        os.makedirs(corpus_dir)
        self.schema_paths = []
        for fn, text in workload.schemas.items():
            self.schema_paths.append(os.path.join(schema_dir, fn))
            with open(self.schema_paths[-1], "w", encoding="utf-8") as fh:
                fh.write(text)
        for fn, text in workload.corpus:
            with open(os.path.join(corpus_dir, fn), "w", encoding="utf-8") as fh:
                fh.write(text)
        self.corpus_dir = corpus_dir
        self.outs = []  # output directory of every generate, in order
        self.exit_codes = []
        self.parse_bytes = workload.parse_bytes()

    def setup(self, name, tracer=None):
        """``slimbind generate`` plus importing the package; (seconds, package)."""
        from slimbind import cli

        out = os.path.join(self.work, "out", name)
        argv = ["generate", "--schemas", *self.schema_paths, "--docs", self.corpus_dir,
                "--out", out, "--model-name", name, f"--{self.w.mode}"]
        gen_dir = os.path.join(out, "gen")
        call = tracer.call if tracer else (lambda _span, fn, *a: fn(*a))
        stdout, stderr = io.StringIO(), io.StringIO()
        gc.collect()  # every sample starts from the same collector state
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = call("cli.main", cli.main, argv)
        sys.path.insert(0, gen_dir)
        try:
            package = call("generated.import", import_package, gen_dir, name)
        finally:
            sys.path.remove(gen_dir)
        seconds = time.perf_counter() - t0
        self.outs.append(out)
        self.exit_codes.append(rc)
        if rc != 0:
            print(f"generate exited {rc}: {stderr.getvalue().strip()}", file=sys.stderr)
        return seconds, package

    def parse_pass(self, parse):
        """Parse the whole parse set once; (seconds, warnings, failures)."""
        from slimbind.errors import SlimbindError

        mode = self.w.mode
        warnings = failures = 0
        gc.collect()
        t0 = time.perf_counter()
        for name, text in self.w.parse_set:
            try:
                _obj, warns = parse(text, mode=mode, source_name=name)
            except SlimbindError as exc:  # a failed parse is counted, not fatal
                failures += 1
                print(f"parse failed: {name}: {exc!r}", file=sys.stderr)
                continue
            warnings += len(warns)
        return time.perf_counter() - t0, warnings, failures

    def bare_pass(self):
        """Runtime event stream alone over the parse set; seconds."""
        from slimbind.runtime import EventKind, ParseContext

        end = EventKind.END_DOCUMENT
        gc.collect()
        t0 = time.perf_counter()
        for name, text in self.w.parse_set:
            ctx = ParseContext(text, source_name=name)
            while ctx.next_event().kind is not end:
                pass
        return time.perf_counter() - t0

    def count_events(self):
        from slimbind.runtime import EventKind, ParseContext

        events = 0
        for name, text in self.w.parse_set:
            ctx = ParseContext(text, source_name=name)
            events += 1
            while ctx.next_event().kind is not EventKind.END_DOCUMENT:
                events += 1
        return events

    def manifest(self, out):
        name = os.path.basename(out)
        with open(os.path.join(out, "gen", name, "MANIFEST.json"), encoding="utf-8") as fh:
            return json.load(fh)

    def read(self, out, fn):
        with open(os.path.join(out, fn), encoding="utf-8") as fh:
            return fh.read()


class Tally:
    """Operations attempted and failed, and the named checks behind them."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def ops(self, attempted, failed):
        self.attempted += attempted
        self.failed += failed

    def check(self, name, ok, detail=""):
        self.ops(1, 0 if ok else 1)
        if not ok:
            self.problems.append(f"{name}: {detail}")


def capture_report(pipe):
    """Untimed warm-up generate that also keeps the analyzer's report."""
    from slimbind import cli

    captured = []
    analyze = cli.analyze_corpus

    def keep(*args, **kwargs):
        captured.append(analyze(*args, **kwargs))
        return captured[-1]

    cli.analyze_corpus = keep
    try:
        _s, package = pipe.setup("w0")
    finally:
        cli.analyze_corpus = analyze
    return captured[0] if captured else None, package


def count_analysis(pipe, tally):
    """Documents analyzed by every generate, from its usage-report.json."""
    expected = pipe.w.expected["documents"]
    for out, rc in zip(pipe.outs, pipe.exit_codes):
        done = json.loads(pipe.read(out, "usage-report.json"))["documentCount"] \
            if rc == 0 else 0
        tally.ops(expected, expected - done)
        tally.check("generate exit code", rc == 0, f"{out}: {rc}")


# ---------------------------------------------------------------- output checks

def check_outputs(pipe, report, package, pass_warnings, seed, tally):
    """Every check runs outside the timed regions."""
    from genutil import normalize
    from oracle import Interpreter
    from slimbind.analyzer import UsageReport
    from slimbind.binding import deserialize_binding_model
    from slimbind.loader import SchemaSource, load_schema_set
    from slimbind.model import XSD_NAMESPACE
    from slimbind.simplify import compute_retained_set

    w = pipe.w
    first = pipe.outs[0]
    violations = w.expected["violations"]

    tally.check("analyzer documents",
                report is not None and report.document_count == w.expected["documents"]
                and not report.failures,
                f"{report and report.document_count} analyzed, "
                f"{report and len(report.failures)} failed")
    tally.check("analyzer warnings == injected violations",
                report is not None and len(report.warnings) == violations,
                f"{report and len(report.warnings)} != {violations}")
    tally.check("parser warnings == injected violations",
                all(n == violations for n in pass_warnings),
                f"{sorted(set(pass_warnings))} != {violations}")

    if "records" in w.expected:
        obj, _warns = package.parse_document(w.parse_set[0][1], mode=w.mode)
        tally.check("record count", len(obj.rec) == w.expected["records"],
                    f"{len(obj.rec)} != {w.expected['records']}")

    model = deserialize_binding_model(pipe.read(first, "binding-model.json"))
    oracle = Interpreter(model)
    sample = w.parse_set
    if len(sample) > ORACLE_SAMPLE:
        sample = random.Random(seed).sample(sample, ORACLE_SAMPLE)
    mismatched = []
    for name, text in sample:
        got, got_w = package.parse_document(text, mode=w.mode, source_name=name)
        want, want_w = oracle.parse_document(text, mode=w.mode, source_name=name)
        if normalize(got) != want or len(got_w) != len(want_w):
            mismatched.append(name)
    tally.check(f"generated == oracle on {len(sample)} documents", not mismatched,
                f"differs on {mismatched[:5]}")

    schema = load_schema_set([SchemaSource.from_file(p) for p in pipe.schema_paths])
    usage = UsageReport.from_json(pipe.read(first, "usage-report.json"))
    retained = compute_retained_set(schema, usage)
    want_globals = {c.id for c in schema.globals()
                    if c.id in retained and c.namespace != XSD_NAMESPACE}
    reduced_dir = os.path.join(first, "reduced")
    reduced = load_schema_set([SchemaSource.from_file(os.path.join(reduced_dir, fn))
                               for fn in sorted(os.listdir(reduced_dir))])
    got_globals = {c.id for c in reduced.globals() if c.namespace != XSD_NAMESPACE}
    tally.check("reduced XSDs reload to the retained globals",
                got_globals == want_globals,
                f"{len(got_globals ^ want_globals)} globals differ")

    sizes = {pipe.manifest(out)["totalBytes"] for out in pipe.outs}
    hashes = {hashlib.sha256(pipe.read(out, "usage-report.json").encode()).hexdigest()
              for out in pipe.outs}
    tally.check("gen_bytes identical across repeats", len(sizes) == 1, f"{sorted(sizes)}")
    tally.check("usage-report.json identical across repeats", len(hashes) == 1,
                f"{len(hashes)} distinct")
    return schema, model


# ---------------------------------------------------------------- passes

def untraced(pipe, package, seconds, tally):
    """Interleaved setup samples and parse passes; end-to-end metrics."""
    setup, parse, pass_warnings = [], [], []
    budget = seconds / SETUP_ROUNDS
    for r in range(SETUP_ROUNDS):
        s, _pkg = pipe.setup(f"m{r + 1}")
        setup.append(s)
        deadline = time.perf_counter() + budget
        while True:
            t, warns, failed = pipe.parse_pass(package.parse_document)
            tally.ops(len(pipe.w.parse_set), failed)
            parse.append(t)
            pass_warnings.append(warns)
            if time.perf_counter() >= deadline:
                break
    return setup, parse, pass_warnings


def traced(pipe, package, seconds, tally, tracer):
    """Untraced and traced samples, interleaved; spans from the traced ones."""
    from tracing import install_spans

    samples = {"setup": [], "setup_traced": [], "parse": [],
               "parse_traced": [], "bare": [], "pass_warnings": []}
    budget = seconds / TRACE_ROUNDS
    parse_runs = 0
    for r in range(TRACE_ROUNDS):
        samples["setup"].append(pipe.setup(f"u{r}")[0])
        tracer.run = f"setup-{r}"
        with install_spans(tracer):
            s, _pkg = pipe.setup(f"t{r}", tracer)
        samples["setup_traced"].append(s)
        deadline = time.perf_counter() + budget
        while True:
            t, warns, failed = pipe.parse_pass(package.parse_document)
            tally.ops(len(pipe.w.parse_set), failed)
            samples["parse"].append(t)
            samples["pass_warnings"].append(warns)
            tracer.run = f"parse-{parse_runs}"
            parse_runs += 1
            t, warns, failed = pipe.parse_pass(
                tracer.wrap("generated.parse_document", package.parse_document))
            tally.ops(len(pipe.w.parse_set), failed)
            samples["parse_traced"].append(t)
            samples["pass_warnings"].append(warns)
            samples["bare"].append(pipe.bare_pass())
            if time.perf_counter() >= deadline:
                break
    samples["parse_runs"] = parse_runs
    return samples


def count_waste(pipe, package):
    """One generate and one parse pass with work counters on; untimed."""
    from tracing import WasteCounters, install_counters

    c = WasteCounters()
    with install_counters(c):
        pipe.setup("k0")
        setup_counts = (c.matchers, len(c.matcher_types), c.compiles,
                        len(c.distinct_templates), c.qnames)
        before = c.qnames
        pipe.parse_pass(package.parse_document)
        parse_qnames = c.qnames - before
    return setup_counts, parse_qnames


def memory_pass(pipe, schema, package):
    """Peak traced allocation of the analyzer and of one generated parse pass."""
    from slimbind.analyzer import analyze_corpus

    w = pipe.w
    tracemalloc.start()
    try:
        analyze_corpus(schema, list(w.corpus), mode=w.mode)
        analyzer_peak = tracemalloc.get_traced_memory()[1]
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        pipe.parse_pass(package.parse_document)
        parse_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return analyzer_peak / MB, parse_peak / MB


# ---------------------------------------------------------------- metrics

def metric(value, unit):
    return {"value": value, "unit": unit}


def mb_per_s(pipe, passes):
    """Throughput over every timed pass: parse-set bytes per mean pass time.

    On a shared host a pass is either fast or slow, and the share of slow
    passes drifts from minute to minute; the mean follows that share
    smoothly where a median jumps between the two speeds.
    """
    return pipe.parse_bytes / MB * len(passes) / sum(passes)


def end_to_end_metrics(pipe, setup, parse, tally):
    return {
        "setup_s": metric(median(setup), "s"),
        "parse_mb_s": metric(mb_per_s(pipe, parse), "MB/s"),
        "gen_bytes": metric(pipe.manifest(pipe.outs[0])["totalBytes"], "bytes"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB"),
        "success_rate": metric(1 - tally.failed / tally.attempted, "ratio"),
    }


def per_layer_metrics(pipe, report, inputs, model, samples, tracer, waste, memory):
    from tracing import self_times, totals

    setup_runs = [f"setup-{r}" for r in range(TRACE_ROUNDS)]
    parse_runs = [f"parse-{i}" for i in range(samples["parse_runs"])]

    def span_median(name, runs=setup_runs):
        return median(totals(tracer, run)[name] for run in runs)

    def self_median(name):
        return median(self_times(tracer, run)[name] for run in setup_runs)

    def unaccounted(runs, walls):
        return median(wall - sum(self_times(tracer, run).values())
                      for run, wall in zip(runs, walls))

    manifest = pipe.manifest(pipe.outs[0])
    reduced_dir = os.path.join(pipe.outs[0], "reduced")
    reduction = json.loads(pipe.read(pipe.outs[0], "reduction-report.json"))
    fields = [f for c in model.classes for f in c.fields]
    (matchers, matcher_types, compiles, distinct, setup_qnames), parse_qnames = waste
    analyzer_peak, parse_peak = memory
    bare_s = median(samples["bare"])
    parse_s = span_median("generated.parse_document", parse_runs)
    return {
        "runtime.bare_s": metric(bare_s, "s"),
        "runtime.bare_mb_s": metric(pipe.parse_bytes / MB / bare_s, "MB/s"),
        "runtime.events": metric(pipe.count_events(), "count"),
        "model.qnames_built": metric(parse_qnames, "count"),
        "model.qnames_per_mb": metric(parse_qnames / (pipe.parse_bytes / MB), "count/MB"),
        "model.qnames_setup": metric(setup_qnames, "count"),
        "loader.load_s": metric(span_median("loader.load_schema_set"), "s"),
        "loader.components": metric(inputs["components"], "count"),
        "loader.globals": metric(inputs["globals"], "count"),
        "analyzer.corpus_s": metric(span_median("analyzer.analyze_corpus"), "s"),
        "analyzer.document_s": metric(span_median("analyzer.analyze_document"), "s"),
        "analyzer.merge_s": metric(span_median("analyzer.UsageReport.merge"), "s"),
        "analyzer.docs": metric(report.document_count, "count"),
        "analyzer.failures": metric(len(report.failures), "count"),
        "analyzer.warnings": metric(len(report.warnings), "count"),
        "analyzer.matchers_built": metric(matchers, "count"),
        "analyzer.matcher_types": metric(matcher_types, "count"),
        "analyzer.peak_alloc_mb": metric(analyzer_peak, "MB"),
        "simplify.closure_s": metric(span_median("simplify.compute_retained_set"), "s"),
        "simplify.emit_s": metric(span_median("simplify.emit_reduced_schemas"), "s"),
        "simplify.report_s": metric(span_median("simplify.reduction_report"), "s"),
        "simplify.retained": metric(reduction["retainedComponents"], "count"),
        "simplify.reduced_bytes": metric(
            sum(os.path.getsize(os.path.join(reduced_dir, fn))
                for fn in os.listdir(reduced_dir)), "bytes"),
        "binding.build_s": metric(span_median("binding.build_binding_model"), "s"),
        "binding.serialize_s": metric(span_median("binding.serialize_binding_model"), "s"),
        "binding.classes": metric(len(model.classes), "count"),
        "binding.fields": metric(len(fields), "count"),
        "binding.roots": metric(len(model.roots), "count"),
        "binding.dispatch_entries": metric(
            sum(len(f.dispatch) for f in fields)
            + sum(len(r.dispatch) for r in model.roots), "count"),
        "binding.collapsed_classes": metric(len(model.collapsed_classes), "count"),
        "templates.render_s": metric(span_median("templates.render_template"), "s"),
        "templates.compile_s": metric(span_median("templates.compile_template"), "s"),
        "templates.compiles": metric(compiles, "count"),
        "templates.distinct": metric(distinct, "count"),
        "emitter.emit_s": metric(span_median("emitter.emit_parser_backend"), "s"),
        "emitter.write_s": metric(span_median("emitter.write_artifacts"), "s"),
        "emitter.files": metric(len(manifest["artifacts"]), "count"),
        "emitter.bytes": metric(manifest["totalBytes"], "bytes"),
        "cli.generate_s": metric(span_median("cli.main"), "s"),
        "cli.self_s": metric(self_median("cli.main"), "s"),
        "generated.import_s": metric(span_median("generated.import"), "s"),
        "generated.parse_s": metric(parse_s, "s"),
        "generated.overhead_ratio": metric(parse_s / bare_s, "ratio"),
        "generated.warnings": metric(samples["pass_warnings"][0], "count"),
        "generated.peak_alloc_mb": metric(parse_peak, "MB"),
        "trace.setup_overhead_s": metric(
            median(samples["setup_traced"]) - median(samples["setup"]), "s"),
        "trace.parse_overhead_mb_s": metric(
            mb_per_s(pipe, samples["parse_traced"]) - mb_per_s(pipe, samples["parse"]),
            "MB/s"),
        "trace.setup_unaccounted_s": metric(
            unaccounted(setup_runs, samples["setup_traced"]), "s"),
        "trace.parse_unaccounted_s": metric(
            unaccounted(parse_runs, samples["parse_traced"]), "s"),
    }


# ---------------------------------------------------------------- entry point

def run_workload(name, seed, seconds, trace):
    from tracing import Tracer
    from workloads import WORKLOADS

    w = WORKLOADS[name](seed)
    tally = Tally()
    work = os.path.join(REPO, ".bench_work", f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        pipe = Pipeline(w, work)
        report, package = capture_report(pipe)
        _t, warns, failed = pipe.parse_pass(package.parse_document)  # warm-up
        tally.ops(len(w.parse_set), failed)
        if trace:
            tracer = Tracer()
            samples = traced(pipe, package, seconds, tally, tracer)
            pass_warnings = [warns] + samples["pass_warnings"]
            waste = count_waste(pipe, package)
        else:
            setup, parse, pass_warnings = untraced(pipe, package, seconds, tally)
            pass_warnings.insert(0, warns)
        count_analysis(pipe, tally)
        schema, model = check_outputs(pipe, report, package, pass_warnings, seed, tally)
        inputs = input_sizes(w, schema)
        if trace:
            memory = memory_pass(pipe, schema, package)
            metrics = per_layer_metrics(pipe, report, inputs, model, samples, tracer,
                                        waste, memory)
            out_dir = os.path.join(REPO, ".bench_out")
            os.makedirs(out_dir, exist_ok=True)
            tracer.dump(os.path.join(out_dir, f"spans-{name}-seed{seed}.json"))
        else:
            metrics = end_to_end_metrics(pipe, setup, parse, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))  # only when no other run uses it
    return tally, metrics, inputs


def input_sizes(w, schema):
    """What the program was given; built-in XSD types are not counted."""
    from slimbind.model import XSD_NAMESPACE

    user = [c for c in schema.components.values() if c.namespace != XSD_NAMESPACE]
    return {"corpus_bytes": w.corpus_bytes(), "parse_bytes": w.parse_bytes(),
            "documents": len(w.corpus), "globals": sum(1 for c in user if c.is_global),
            "components": len(user)}


def print_result(tally, metrics, inputs):
    for problem in tally.problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    print("  inputs: " + ", ".join(f"{k} {v}" for k, v in inputs.items()))
    width = max(len(k) for k in metrics)
    for key, m in metrics.items():
        print(f"  {key:<{width}}  {m['value']:>14.6g} {m['unit']}")
    print(f"  {'error_rate':<{width}}  {tally.failed / tally.attempted:>14.6g} ratio "
          f"({tally.failed} failed of {tally.attempted} operations)")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))


def run_all(seed, seconds):
    """Both passes of every workload, each in a fresh process; 0 if all correct."""
    ok = True
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            print(f"== {name} seed {seed} trace {trace}", flush=True)
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=REPO, stdout=subprocess.PIPE, text=True, check=False)
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            ok = ok and proc.returncode == 0
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src, tests = os.path.join(REPO, "src"), os.path.join(REPO, "tests")
    if not (os.path.isdir(os.path.join(src, "slimbind"))
            and os.path.isfile(os.path.join(tests, "synth.py"))):
        print(f"bench: no slimbind sources under {REPO}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    sys.path[:0] = [src, tests, os.path.dirname(os.path.abspath(__file__))]
    tally, metrics, inputs = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print_result(tally, metrics, inputs)
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
