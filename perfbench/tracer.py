#!/usr/bin/env python3
"""Span tracer for the chatmt benchmark's traced run.

Run as a stage process in place of `python -m chatmt`:

    python3 perfbench/tracer.py --summary S.json --spans S.bin -- chatmt filter --in ...
    python3 perfbench/tracer.py --summary S.json --spans S.bin -- kernels --seed 1 ...

It imports chatmt, replaces the public functions of each layer (and the
private helpers whose calls are counted) with wrappers that record a span
per call, then runs the stage. Nothing under src/ is edited. Generators
(`parse_bitext`, `write_bitext`, `prepare_chat_corpus`) get one span per
item pulled, timed where the consumer pulls it, not at the call.

Spans (name, parent, start, end) stay in memory in flat arrays and are
written to `--spans` after the stage ends: one JSON header line
{"names": [...], "count": n}, then n int32 name ids, n int32 parent
indices (-1 for the root), n float64 starts and n float64 ends.

A span's self time is its duration minus its children's. The layer of
a span is the part of its name before the first dot; the layers' self
times sum to the root span. The summary also holds counters recorded at
the same boundaries and `post_s`, the time spent after the stage on
aggregation and writing, which the caller subtracts from the process
wall time.
"""
from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib.abc  # noqa: E402
import importlib.machinery  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from collections import defaultdict  # noqa: E402

perf_counter = time.perf_counter


class Tracer:
    """Spans and counters of one traced process."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: dict[str, float] = defaultdict(float)
        self.deferred: list = []  # counters computed after the stage ends

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int, started: float | None = None) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter() if started is None else started)
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def call(self, name: str, fn, after=None):
        """Wrap fn so each call is one span; after(result, args) runs
        outside the span to record counters."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            i = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(i)
            if after is not None:
                after(result, args)
            return result

        return traced

    def gen(self, name: str, fn, each=None):
        """Wrap a generator function so each item pulled is one span;
        each(item) runs outside the span to record counters."""
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                i = self.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(i)
                if each is not None:
                    each(item)
                yield item

        return traced

    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over spans."""
        n = len(self.start)
        child = [0.0] * n
        dur = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out: dict[str, float] = defaultdict(float)
        for i, nid in enumerate(self.name):
            out[self.names[nid]] += dur[i] - child[i]
        return dict(out)

    def write_spans(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write((json.dumps({"names": self.names, "count": len(self.start)}) + "\n").encode())
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)


# ------------------------------------------------------------ hooks

def _attention_cost(kind: str, args) -> tuple[float, float]:
    """Computed (not measured) multiply-add flops and compulsory float64
    bytes (inputs read plus output written) of one kernel call."""
    if kind == "aan":
        y, ffn = args[0], args[1]
        t, d = y.shape
        f = ffn.w1.shape[1]
        flops = t * d + 2 * t * d * f + 2 * t * f * ffn.w2.shape[1]
        elems = y.size + ffn.w1.size + ffn.b1.size + ffn.w2.size + ffn.b2.size + t * ffn.w2.shape[1]
    elif kind == "standard":
        q, k, v = args[:3]
        m, d = q.shape
        n, dv = v.shape
        flops = 2 * m * n * d + 2 * m * n * dv
        elems = q.size + k.size + v.size + m * dv
    else:
        q, k, v, wl, ws = args[:5]
        h, m, d = q.shape
        n, dv = v.shape[1], v.shape[2]
        flops = h * (2 * m * n * d + 2 * m * n * dv) + 2 * (2 * h * h * m * n)
        elems = q.size + k.size + v.size + wl.size + ws.size + h * m * dv
    return float(flops), float(8 * elems)


def install(tracer: Tracer) -> list[str]:
    """Replace the layer functions with traced wrappers; return the names
    of hooks whose target no longer exists, so a renamed function shows
    up in the summary instead of silently moving time to its caller."""
    import chatmt.attention as attention
    import chatmt.chatprep as chatprep
    import chatmt.cli as cli
    import chatmt.denoise as denoise
    import chatmt.ensemble as ensemble
    import chatmt.filtering as filtering

    c = tracer.counts
    missing: list[str] = []

    def patch(owner, attr: str, make):
        fn = owner.__dict__.get(attr)
        if fn is None:
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(fn, classmethod):
            setattr(owner, attr, classmethod(make(fn.__func__)))
        else:
            setattr(owner, attr, make(fn))

    # cli: file reading, atomic writes; the rest of cli.main is glue.
    patch(cli, "main", lambda f: tracer.call("cli.main", f))
    patch(cli, "_read_lines", lambda f: tracer.call("cli.read", f))
    patch(cli, "_atomic_write_lines", lambda f: tracer.call("cli.write", f))

    # corpus: parsing and serialization.
    def count_records(item):
        c["corpus.records_in"] += 1

    def count_bytes(line):
        c["corpus.bytes_out"] += len(line.encode("utf-8"))

    def count_turns(dialogues, args):
        c["corpus.records_in"] += sum(len(d.turns) for d in dialogues)

    patch(cli, "parse_bitext", lambda f: tracer.gen("corpus.parse", f, each=count_records))
    patch(cli, "write_bitext", lambda f: tracer.gen("corpus.serialize", f, each=count_bytes))
    patch(cli, "parse_chat", lambda f: tracer.call("corpus.parse", f, after=count_turns))

    # filtering
    def count_filter(result, args):
        _, report = result
        c["filtering.input"] += report.input_count
        c["filtering.kept"] += report.kept_count
        for rule, n in report.dropped_by_rule.items():
            c[f"filtering.dropped.{rule}"] += n

    def count_normalize(out, args):
        c["filtering.normalize_sides"] += 1
        if out != args[0]:
            c["filtering.normalize_changed"] += 1

    patch(filtering, "normalize_punctuation",
          lambda f: tracer.call("filtering.normalize", f, after=count_normalize))
    patch(cli, "filter_corpus", lambda f: tracer.call("filtering.filter_corpus", f,
                                                      after=count_filter))

    # chatprep: context utterances are counted in the pairs it yields,
    # after the context tag and separated by the separator tag.
    def count_pairs(pair):
        c["chatprep.pairs_out"] += 1
        if chatprep.CONTEXT_TAG in pair.target:
            c["chatprep.context_utterances"] += pair.target.count(chatprep.SEP_TAG) + 1

    patch(cli, "prepare_chat_corpus", lambda f: tracer.gen(
        "chatprep.prepare", f, each=count_pairs))

    # denoise
    def count_rng(f):
        def counted(*args, **kwargs):
            c["denoise.rngs_built"] += 1
            return f(*args, **kwargs)
        return counted

    chosen_sets: list[set] = []

    def count_chosen(chosen, args):
        c["denoise.chosen"] += len(chosen)
        chosen_sets.append(chosen)

    def count_denoise(noised, args):
        pairs, spans = args[0], (args[2] if len(args) > 2 else None)
        chosen = chosen_sets[-1] if chosen_sets else set()
        tracer.deferred.append(
            lambda: _count_denoise(c, pairs, noised, spans, chosen, denoise.split_target))

    patch(denoise, "_record_rng", count_rng)
    patch(denoise, "_selection_rng", count_rng)
    patch(denoise, "choose_pairs", lambda f: tracer.call("denoise.choose_pairs", f,
                                                         after=count_chosen))
    patch(cli, "denoise_corpus", lambda f: tracer.call("denoise.denoise_corpus", f,
                                                       after=count_denoise))

    # ensemble
    def count_self_sim(f):
        def counted(s):
            c["ensemble.similarity_terms"] += s.n * (s.n - 1)
            return f(s)
        return counted

    def count_pool(f):
        def counted(s, i, pool):
            c["ensemble.similarity_terms"] += len(pool)
            return f(s, i, pool)
        return counted

    patch(ensemble.ScoreSet, "from_lists", lambda f: tracer.call("ensemble.load", f))
    patch(cli, "select_ensemble", lambda f: tracer.call("ensemble.select", f))
    patch(ensemble, "_avg_self_similarity_exact", count_self_sim)
    patch(ensemble, "_avg_similarity_to_pool", count_pool)

    # attention
    for kind, attr in (("aan", "aan_context"), ("standard", "standard_attention"),
                       ("talking_heads", "talking_heads_attention")):
        def cost(result, args, kind=kind):
            flops, nbytes = _attention_cost(kind, args)
            c["attention.flops"] += flops
            c["attention.bytes"] += nbytes
        patch(attention, attr, lambda f, kind=kind, cost=cost: tracer.call(
            f"attention.{kind}", f, after=cost))
    return missing


def _count_denoise(c, pairs, noised, spans, chosen, split_target) -> None:
    c["denoise.pairs"] += len(pairs)
    c["denoise.changed"] += sum(a.target != b.target for a, b in zip(pairs, noised))
    for i in chosen:
        span = spans[i] if spans else None
        before = split_target(pairs[i].target, span).payload
        after = split_target(noised[i].target, span).payload
        c["denoise.payload_tokens_chosen"] += len(before)
        c["denoise.tokens_changed"] += sum(x != y for x, y in zip(before, after))


class _TimedLoader(importlib.machinery.SourceFileLoader):
    """Source loader that records executing the module as a span."""

    tracer: Tracer
    nid: int

    def exec_module(self, module) -> None:
        i = self.tracer.open(self.nid)
        try:
            super().exec_module(module)
        finally:
            self.tracer.close(i)


class TimedImports(importlib.abc.MetaPathFinder):
    """Import chatmt modules with a `<layer>.import` span each, so a
    layer's self time includes loading its module: every stage process
    pays it, and an idle layer reads that small cost instead of 0."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def find_spec(self, name, path, target=None):
        if name != "chatmt" and not name.startswith("chatmt."):
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        if spec is None or type(spec.loader) is not importlib.machinery.SourceFileLoader:
            return spec
        loader = _TimedLoader(spec.loader.name, spec.loader.path)
        loader.tracer = self.tracer
        loader.nid = self.tracer.name_id(f"{name.partition('.')[2] or 'setup'}.import")
        spec.loader = loader
        return spec


def run_stage(argv: list[str], tracer: Tracer) -> tuple[int, list[str]]:
    i = tracer.open(tracer.name_id("setup.import"))
    import numpy  # noqa: F401  third-party import cost stays in setup, not in denoise's span
    sys.meta_path.insert(0, TimedImports(tracer))
    import chatmt.cli as cli
    tracer.close(i)
    missing = install(tracer)
    if argv[0] == "chatmt":
        return cli.main(argv[1:]), missing
    if argv[0] == "kernels":
        import kernels
        return kernels.main(argv[1:]), missing
    raise SystemExit(f"unknown traced program {argv[0]!r}")


def main() -> int:
    tracer = Tracer()
    root = tracer.open(tracer.name_id("harness.main"), started=_STARTED)
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--summary", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("program", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    program = args.program[1:] if args.program[:1] == ["--"] else args.program
    code, missing = run_stage(program, tracer)
    tracer.close(root)

    post_started = perf_counter()
    for fn in tracer.deferred:
        fn()
    self_times = tracer.self_times()
    tracer.write_spans(args.spans)
    summary = {
        "exit_code": code,
        "root_s": tracer.end[root] - tracer.start[root],
        "self_s": self_times,
        "counts": dict(tracer.counts),
        "spans": len(tracer.start),
        "missing_hooks": missing,
    }
    summary["post_s"] = perf_counter() - post_started
    with open(args.summary, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
