#!/usr/bin/env python3
"""chatmt benchmark: seeded batch workloads, timed end to end and traced
per layer.

    python3 perfbench/run.py --workload filter-tsv --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20
    python3 perfbench/run.py --smoke

Run it from the root of a chatmt checkout; it imports chatmt from
./src and fails without printing a result if that tree is missing.

Timed run (--trace 0): generate the workload's inputs from the seed, then
run passes until --seconds have passed (at least three). A pass runs the
workload's stages one after another, each as a fresh `python -m chatmt
<stage>` process; one client waits for each process before starting the
next (a closed loop with one client). Stage processes get BLAS/OpenMP
thread counts pinned to nproc. Every value is a median over passes or
setup probes. `wall_ref` and `setup_s` divide by a reference loop timed
in the same run, which cancels much of the host's speed swings.

Traced run (--trace 1): alternate untraced passes with traced ones (at
least two of each), in which each stage runs under perfbench/tracer.py;
report each layer's self time and counters per pass, and the tracing
overhead. `--workload all` runs every workload timed, then traced.

Each run checks every stage's outputs (see checks.py) and prints a
human-readable report, then, as the last line, one JSON object:
{"correct", "attempted", "failed", "metrics"}. `attempted` counts stage
invocations and `failed` those that exited non-zero or failed a check.
The full result, with machine facts and input/output sha256, goes to
.perfbench/results/.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import checks
from gen import write_inputs
from workloads import ENSEMBLE_SIZE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_PASSES = 3
MIN_TRACED_PASSES = 2  # per kind; a traced run alternates untraced and traced passes
SETUP_PROBES_PER_PASS = 4
REF_ITERATIONS, REF_ROUNDS = 250_000, 5  # reference loop: ~20 ms a round
REF_SCALE_S = 0.020  # setup_s is in seconds of a host whose reference loop reads this
SETUP_CMD = [sys.executable, "-c", "import chatmt.cli"]
RUN_LIMIT_S = 150  # start no pass after this; a run must end within 180 s

# name: (unit, better, declared). Declared metrics are the ones in
# BENCHMARK.json and on the last output line: measured and never 0 on
# every workload, with a run-to-run spread inside a bound (wall_s and
# setup_wall_s are not; see README.md). The others are reported and
# saved too.
END_TO_END = {
    "wall_s": ("s", "lower", False),
    "wall_ref": ("ref", "lower", True),
    "filter.pairs_per_s": ("pairs/s", "higher", False),
    "chatprep.turns_per_s": ("turns/s", "higher", False),
    "denoise.pairs_per_s": ("pairs/s", "higher", False),
    "bsce_select_s": ("s", "lower", False),
    "attention_s": ("s", "lower", False),
    "peak_rss_mb": ("MB", "lower", True),
    "setup_s": ("s", "lower", True),
    "setup_wall_s": ("s", "lower", False),
    "failed_frac": ("ratio", "lower", False),
}
STAGE_METRIC = {
    "filter": "filter.pairs_per_s",
    "chatprep": "chatprep.turns_per_s",
    "denoise": "denoise.pairs_per_s",
    "bsce-select": "bsce_select_s",
    "attention": "attention_s",
}
# Per pass, median over traced passes. A layer's self_s includes loading
# its module, so it is never 0; the times of single functions are 0 on
# workloads that do not call them, so they are not declared.
PER_LAYER = {
    "cli.read_s": ("s", "lower", False),
    "cli.write_s": ("s", "lower", True),
    "cli.self_s": ("s", "lower", True),
    "corpus.parse_s": ("s", "lower", False),
    "corpus.serialize_s": ("s", "lower", False),
    "corpus.self_s": ("s", "lower", True),
    "corpus.records_in": ("count", "higher", True),
    "corpus.bytes_out": ("B", "lower", True),
    "filtering.self_s": ("s", "lower", True),
    "filtering.normalize_s": ("s", "lower", False),
    "filtering.normalize_changed_frac": ("ratio", "lower", True),
    "filtering.kept_frac": ("ratio", "higher", True),
    "filtering.dropped.length": ("count", "lower", True),
    "filtering.dropped.dedup": ("count", "lower", True),
    "filtering.dropped.ratio": ("count", "lower", True),
    "chatprep.self_s": ("s", "lower", True),
    "chatprep.pairs_out": ("count", "higher", True),
    "chatprep.context_utterances": ("count", "higher", True),
    "denoise.self_s": ("s", "lower", True),
    "denoise.chosen": ("count", "higher", True),
    "denoise.rngs_built": ("count", "lower", True),
    "denoise.changed_frac": ("ratio", "higher", True),
    "denoise.tokens_changed_frac": ("ratio", "higher", True),
    "ensemble.load_s": ("s", "lower", False),
    "ensemble.select_s": ("s", "lower", False),
    "ensemble.self_s": ("s", "lower", True),
    "ensemble.similarity_terms": ("count", "lower", True),
    "attention.aan_s": ("s", "lower", False),
    "attention.standard_s": ("s", "lower", False),
    "attention.talking_heads_s": ("s", "lower", False),
    "attention.self_s": ("s", "lower", True),
    "attention.flops": ("flop.computed", "lower", True),
    "attention.bytes": ("B.computed", "lower", True),
    "setup.import_s": ("s", "lower", True),
    "harness.self_s": ("s", "lower", True),
    "trace.wall_s": ("s", "lower", True),
    "trace.untraced_wall_s": ("s", "lower", True),
    "trace.overhead_s": ("s", "lower", True),
    "trace.unaccounted_s": ("s", "lower", True),
}


class SetupError(Exception):
    """The benchmark cannot run here, e.g. no chatmt source tree."""


# ------------------------------------------------------------ processes

def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = str(nproc())
    return env


def run_process(cmd: list[str], cwd: Path, env: dict, timeout: float,
                stderr_path: Path | None = None) -> tuple[float, float, int]:
    """Run cmd to completion; return (wall seconds, peak RSS in MB, exit
    code). The child is killed if it outlives `timeout`."""
    err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(timeout, 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    finally:
        if stderr_path:
            err.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def stage_cmd(stage, seed: int, traced: bool) -> list[str]:
    program = ["kernels"] if stage.name == "attention" else ["chatmt"]
    if traced:
        return [sys.executable, str(HERE / "tracer.py"),
                "--summary", f"{stage.name}.trace.json", "--spans", f"{stage.name}.spans.bin",
                "--", *program, *stage.argv(seed)]
    if stage.name == "attention":
        return [sys.executable, str(HERE / "kernels.py"), *stage.argv(seed)]
    return [sys.executable, "-m", "chatmt", *stage.argv(seed)]


# ------------------------------------------------------------ one run

class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, wl, seed: int, smoke: bool, deadline: float, pins: dict):
        self.wl, self.seed, self.smoke, self.deadline = wl, seed, smoke, deadline
        self.pin = pins.get(checks.pin_key(wl.name, smoke, seed))
        self.env = child_env()
        self.work = STATE / "work" / f"{wl.name}-{seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] | None = None  # output sha256 of the first pass
        self.pin_status = "not checked"
        self.setup_samples: list[float] = []
        self.ref_samples: list[float] = []  # reference_time() readings, see there

    def prepare(self) -> dict[str, str]:
        """Write the inputs and import chatmt once, untimed, so bytecode
        compilation never lands in a measurement."""
        shutil.rmtree(self.work, ignore_errors=True)
        specs = self.wl.smoke_inputs if self.smoke else self.wl.inputs
        digests = write_inputs(specs, self.seed, self.work)
        if run_process(SETUP_CMD, self.work, self.env, 60)[2] != 0:
            raise SetupError("cannot import chatmt.cli from ./src")
        return digests

    def probe_setup(self, probes: int) -> None:
        """Time fresh interpreters importing chatmt.cli, numpy included,
        each followed by a reference reading."""
        for _ in range(probes):
            wall, _, code = run_process(SETUP_CMD, self.work, self.env, 60)
            if code != 0:
                raise SetupError("cannot import chatmt.cli from ./src")
            self.setup_samples.append(wall)
            self.ref_samples.append(reference_time())

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run_pass(self, traced: bool) -> dict:
        stages = {}
        if not traced:
            self.ref_samples.append(reference_time())
        for stage in self.wl.stages:
            wall, rss, code = run_process(
                stage_cmd(stage, self.seed, traced), self.work, self.env, self.remaining(),
                self.work / f"{stage.name}.stderr")
            if not traced:
                self.ref_samples.append(reference_time())
            rec = {"wall_s": wall, "rss_mb": rss, "exit_code": code, "problems": []}
            if code != 0:
                tail = (self.work / f"{stage.name}.stderr").read_text(errors="replace")[-400:]
                rec["problems"].append(f"{stage.name} exited {code}: {tail.strip()}")
            if traced:
                summary_path = self.work / f"{stage.name}.trace.json"
                if summary_path.exists():
                    rec["trace"] = json.loads(summary_path.read_text())
                    rec["wall_s"] = wall - rec["trace"]["post_s"]
                    if stage.name == "denoise" and code == 0:
                        rec["problems"] += checks.check_denoise_counts(rec["trace"]["counts"])
                else:
                    rec["problems"].append(f"{stage.name}: traced run wrote no summary")
            if stage.name == "attention":
                out = self.work / "attention.json"
                if out.exists():
                    rec["attention"] = json.loads(out.read_text())
                    rec["problems"] += checks.check_attention(rec["attention"])
                else:
                    rec["problems"].append("attention: no result written")
            stages[stage.name] = rec
        self._check_outputs(stages, traced)
        for rec in stages.values():
            self.attempted += 1
            if rec["problems"]:
                self.failed += 1
                self.problems += rec["problems"]
        return {"wall_s": sum(r["wall_s"] for r in stages.values()), "stages": stages}

    def _check_outputs(self, stages: dict, traced: bool) -> None:
        digests = {}
        for stage in self.wl.stages:
            present = [n for n in stage.outputs if (self.work / n).exists()]
            digests.update(checks.output_digests(self.work, present))
        if self.reference is None:
            self.reference = digests
            self._check_invariants(stages)
        for stage in self.wl.stages:
            for name in stage.outputs:
                if digests.get(name) != self.reference.get(name):
                    how = "traced" if traced else "repeated"
                    stages[stage.name]["problems"].append(
                        f"{name}: {how} pass wrote other bytes than the first pass")

    def _check_invariants(self, stages: dict) -> None:
        from chatmt.chatprep import strip_tags

        w = self.work
        for stage in self.wl.stages:
            rec = stages[stage.name]
            if rec["exit_code"] != 0 or stage.name == "attention":
                continue
            out = w / stage.outputs[0]
            try:
                report = json.loads((w / stage.report).read_text())
                if stage.name == "filter":
                    rec["problems"] += checks.check_filter(w / stage.work_input, out, report)
                elif stage.name == "chatprep":
                    rec["problems"] += checks.check_chatprep(w / stage.work_input, out, strip_tags)
                elif stage.name == "denoise":
                    rec["problems"] += checks.check_denoise(w / stage.work_input, out, report)
                elif stage.name == "bsce-select":
                    rec["problems"] += checks.check_bsce(w / "scores.json", out, ENSEMBLE_SIZE)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                rec["problems"].append(f"{stage.name}: output or report unreadable: {exc!r}")
        mismatched, self.pin_status = checks.check_pins(self.pin, self.reference)
        for stage in self.wl.stages:
            for name in set(stage.outputs) & set(mismatched):
                stages[stage.name]["problems"].append(f"{name}: sha256 differs from pins.json")

    def work_units(self) -> dict[str, int]:
        return {s.name: checks.count_records(self.work / s.work_input)
                for s in self.wl.stages if s.work_input}

    def passes(self, seconds: float, min_passes: int, traced_too: bool, probes: int):
        """Run passes until `seconds` have passed and at least min_passes
        of each kind ran; stop early when the run's time limit nears.
        Setup probes follow each untraced pass, so their median spans the
        run like the passes' does."""
        untraced, traced = [], []
        started = time.monotonic()
        while True:
            untraced.append(self.run_pass(traced=False))
            self.probe_setup(probes)
            if traced_too:
                traced.append(self.run_pass(traced=True))
            done = len(untraced) >= min_passes and time.monotonic() - started >= seconds
            last = untraced[-1]["wall_s"] + (traced[-1]["wall_s"] if traced else 0)
            if done or time.monotonic() + 1.5 * last > self.deadline - 20:
                return untraced, traced


def reference_time() -> float:
    """Median time of a fixed pure-Python loop. The benchmark process runs
    it before each untraced pass and after each stage process and setup
    probe. `wall_ref` is the median pass wall time over the mean of these
    readings, and `setup_s` the median probe time over it, times
    REF_SCALE_S: the host flips between a fast and a slow state, the
    passes and probes of a run sample both, and so does the mean (a
    median would jump between the two states). It cancels much of the
    host's speed swings (see README.md), and no change to chatmt can move
    the yardstick."""
    samples = []
    for _ in range(REF_ROUNDS):
        started = time.perf_counter()
        total = 0
        for i in range(REF_ITERATIONS):
            total += i * i
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def machine_facts() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_pins": {var: str(nproc()) for var in THREAD_VARS},
    }


def _metric(value: float, unit: str, better: str, declared: bool, samples: int) -> dict:
    return {"value": value, "unit": unit, "better": better, "declared": declared,
            "samples": samples}


def end_to_end_metrics(run: Run, passes: list[dict]) -> dict:
    def m(name, value, samples):
        return _metric(value, *END_TO_END[name], samples)

    units = run.work_units()
    wall = statistics.median(p["wall_s"] for p in passes)
    out = {"wall_s": m("wall_s", wall, len(passes)),
           "wall_ref": m("wall_ref", wall / statistics.mean(run.ref_samples), len(passes))}
    for stage in run.wl.stages:
        walls = [p["stages"][stage.name]["wall_s"] for p in passes]
        name = STAGE_METRIC[stage.name]
        if stage.name == "attention":
            samples = [s for p in passes for s in p["stages"]["attention"]["attention"]["samples"]]
            out[name] = m(name, statistics.median(samples), len(samples))
        elif stage.work_input:
            out[name] = m(name, units[stage.name] / statistics.median(walls), len(walls))
        else:
            out[name] = m(name, statistics.median(walls), len(walls))
    rss = [s["rss_mb"] for p in passes for s in p["stages"].values()]
    out["peak_rss_mb"] = m("peak_rss_mb", max(rss), len(rss))
    setup_wall = statistics.median(run.setup_samples)
    out["setup_s"] = m("setup_s", REF_SCALE_S * setup_wall / statistics.mean(run.ref_samples),
                       len(run.setup_samples))
    out["setup_wall_s"] = m("setup_wall_s", setup_wall, len(run.setup_samples))
    out["failed_frac"] = m("failed_frac", run.failed / run.attempted, run.attempted)
    return out


def layer_values(traced_pass: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its stages."""
    self_s: dict[str, float] = defaultdict(float)
    layer: dict[str, float] = defaultdict(float)
    c: dict[str, float] = defaultdict(float)
    for rec in traced_pass["stages"].values():
        for name, seconds in rec.get("trace", {}).get("self_s", {}).items():
            self_s[name] += seconds
            layer[name.split(".", 1)[0]] += seconds
        for name, n in rec.get("trace", {}).get("counts", {}).items():
            c[name] += n

    def ratio(num, den):
        return c[num] / c[den] if c[den] else 0.0

    return {
        "cli.read_s": self_s["cli.read"],
        "cli.write_s": self_s["cli.write"],
        "cli.self_s": layer["cli"],
        "corpus.parse_s": self_s["corpus.parse"],
        "corpus.serialize_s": self_s["corpus.serialize"],
        "corpus.self_s": layer["corpus"],
        "corpus.records_in": c["corpus.records_in"],
        "corpus.bytes_out": c["corpus.bytes_out"],
        "filtering.self_s": layer["filtering"],
        "filtering.normalize_s": self_s["filtering.normalize"],
        "filtering.normalize_changed_frac": ratio("filtering.normalize_changed",
                                                  "filtering.normalize_sides"),
        "filtering.kept_frac": ratio("filtering.kept", "filtering.input"),
        "filtering.dropped.length": c["filtering.dropped.length"],
        "filtering.dropped.dedup": c["filtering.dropped.dedup"],
        "filtering.dropped.ratio": c["filtering.dropped.ratio"],
        "chatprep.self_s": layer["chatprep"],
        "chatprep.pairs_out": c["chatprep.pairs_out"],
        "chatprep.context_utterances": c["chatprep.context_utterances"],
        "denoise.self_s": layer["denoise"],
        "denoise.chosen": c["denoise.chosen"],
        "denoise.rngs_built": c["denoise.rngs_built"],
        "denoise.changed_frac": ratio("denoise.changed", "denoise.pairs"),
        "denoise.tokens_changed_frac": ratio("denoise.tokens_changed",
                                             "denoise.payload_tokens_chosen"),
        "ensemble.load_s": self_s["ensemble.load"],
        "ensemble.select_s": self_s["ensemble.select"],
        "ensemble.self_s": layer["ensemble"],
        "ensemble.similarity_terms": c["ensemble.similarity_terms"],
        "attention.aan_s": self_s["attention.aan"],
        "attention.standard_s": self_s["attention.standard"],
        "attention.talking_heads_s": self_s["attention.talking_heads"],
        "attention.self_s": layer["attention"],
        "attention.flops": c["attention.flops"],
        "attention.bytes": c["attention.bytes"],
        "setup.import_s": layer["setup"],
        "harness.self_s": layer["harness"],
        "trace.wall_s": traced_pass["wall_s"],
        "trace.unaccounted_s": traced_pass["wall_s"] - sum(layer.values()),
    }


def per_layer_metrics(untraced: list[dict], traced: list[dict]) -> dict:
    values = [layer_values(p) for p in traced]
    out = {}
    for name in PER_LAYER:
        if name in ("trace.untraced_wall_s", "trace.overhead_s"):
            continue
        out[name] = _metric(statistics.median(v[name] for v in values), *PER_LAYER[name],
                            len(values))
    untraced_wall = statistics.median(p["wall_s"] for p in untraced)
    out["trace.untraced_wall_s"] = _metric(untraced_wall, *PER_LAYER["trace.untraced_wall_s"],
                                           len(untraced))
    out["trace.overhead_s"] = _metric(out["trace.wall_s"]["value"] - untraced_wall,
                                      *PER_LAYER["trace.overhead_s"], len(values))
    return {name: out[name] for name in PER_LAYER}


def keep_spans(run: Run) -> None:
    """Keep the last traced pass's spans of this workload."""
    dest = STATE / "spans" / run.wl.name
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    for path in run.work.glob("*.spans.bin"):
        shutil.move(str(path), dest / path.name)


def run_workload(wl, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S + 20
    run = Run(wl, seed, smoke, deadline, checks.load_pins())
    try:
        inputs = run.prepare()
        min_passes = 1 if smoke else MIN_TRACED_PASSES if trace else MIN_PASSES
        untraced, traced = run.passes(seconds, min_passes, traced_too=trace,
                                      probes=0 if trace else SETUP_PROBES_PER_PASS)
        if trace:
            metrics = per_layer_metrics(untraced, traced)
            keep_spans(run)
            missing = sorted({h for p in traced for r in p["stages"].values()
                              for h in r.get("trace", {}).get("missing_hooks", [])})
        else:
            metrics = end_to_end_metrics(run, untraced)
            missing = []
    finally:
        run.cleanup()
    return {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace, "smoke": smoke,
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "problems": run.problems, "pins": run.pin_status, "missing_hooks": missing,
        "inputs_sha256": inputs, "outputs_sha256": run.reference,
        "metrics": metrics, "facts": machine_facts(),
        "passes": {"untraced": [p["wall_s"] for p in untraced],
                   "setup_s": run.setup_samples,
                   "reference_s": run.ref_samples,
                   "traced": [p["wall_s"] for p in traced]},
    }


# ------------------------------------------------------------ output

def print_report(res: dict) -> None:
    mode = "traced" if res["trace"] else "timed"
    print(f"== {res['workload']} seed={res['seed']} ({mode}, "
          f"{len(res['passes']['untraced'])} untraced / {len(res['passes']['traced'])} traced passes)")
    print(f"   machine: {json.dumps(res['facts'])}")
    for name, m in res["metrics"].items():
        print(f"   {'*' if m['declared'] else ' '}{name:35s} {m['value']:>16.6g} {m['unit']:14s} "
              f"better={m['better']:6s} n={m['samples']}")
    print("   (* declared in BENCHMARK.json)")
    print(f"   checks: attempted={res['attempted']} failed={res['failed']} pins: {res['pins']}")
    for problem in res["problems"][:10]:
        print(f"   FAILED: {problem}")
    for hook in res["missing_hooks"]:
        print(f"   warning: trace hook target missing: {hook}")


def save(res: dict) -> None:
    out = STATE / "results"
    out.mkdir(parents=True, exist_ok=True)
    name = f"{res['workload']}-seed{res['seed']}-trace{int(res['trace'])}"
    (out / f"{name}{'-smoke' if res['smoke'] else ''}.json").write_text(
        json.dumps(res, indent=1), encoding="utf-8")


def result_line(results: list[dict], single: bool) -> str:
    metrics = {}
    for res in results:
        for name, m in res["metrics"].items():
            if m["declared"]:
                key = name if single else f"{res['workload']}/{name}"
                metrics[key] = {"value": m["value"], "unit": m["unit"]}
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def smoke_problems(results: list[dict]) -> list[str]:
    """Every named metric is emitted with its unit and direction, every
    declared time is non-zero, and BENCHMARK.json agrees with the tables
    above."""
    problems = []
    for res in results:
        expected = dict(PER_LAYER) if res["trace"] else {
            name: END_TO_END[name] for name in
            ("wall_s", "wall_ref", "peak_rss_mb", "setup_s", "setup_wall_s", "failed_frac",
             *(STAGE_METRIC[s.name] for s in WORKLOADS[res["workload"]].stages))}
        for name, (unit, better, declared) in expected.items():
            m = res["metrics"].get(name)
            if m is None or (m["unit"], m["better"]) != (unit, better):
                problems.append(f"{res['workload']}: metric {name} missing or mislabelled")
            elif declared and unit == "s" and m["value"] == 0:
                problems.append(f"{res['workload']}: declared metric {name} reads 0")
        if not res["correct"]:
            problems.append(f"{res['workload']}: outputs failed checks: {res['problems'][:3]}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        if listed != {n: (u, b) for n, (u, b, declared) in table.items() if declared}:
            problems.append(f"BENCHMARK.json {key} does not match run.py")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads do not match workloads.py")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*sorted(WORKLOADS), "all"],
                        help="'all' runs every workload, timed and then traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at tiny size, timed and traced, and "
                             "assert every metric is emitted")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required unless --smoke")
    if not (ROOT / "src" / "chatmt" / "cli.py").is_file():
        print(f"error: no chatmt source tree at {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.smoke or args.workload == "all":
        plan = [(wl, trace) for wl in WORKLOADS.values() for trace in (False, True)]
    else:
        plan = [(WORKLOADS[args.workload], bool(args.trace))]
    seconds = 0 if args.smoke else args.seconds
    results = []
    try:
        for wl, trace in plan:
            res = run_workload(wl, args.seed, seconds, trace, args.smoke)
            save(res)
            print_report(res)
            results.append(res)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.smoke:
        problems = smoke_problems(results)
        for problem in problems:
            print(f"smoke FAILED: {problem}")
        if problems:
            return 1
        print("smoke: every workload ran and every named metric was emitted")
    print(result_line(results, single=len(plan) == 1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
