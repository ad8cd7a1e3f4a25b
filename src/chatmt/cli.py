"""Command-line entry point for all pipeline stages.

Exit codes: 0 success, 1 usage/config error, 2 data error (with record
locus), 3 internal error. Each output is written to a temp file beside
it and renamed into place only once the whole command has succeeded, so
a command that fails changes no file.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import stat
import sys
import tempfile
import time
from dataclasses import asdict, fields
from pathlib import Path
from typing import Iterable, Iterator

from . import __version__
from .corpus import (
    BITEXT_FORMATS,
    FAIL_MODES,
    CorpusError,
    ParseStats,
    parse_bitext,
    parse_chat,
    write_bitext,
)
from .chatprep import ContextConfig, MIXED_LANGUAGE, SAME_LANGUAGE, prepare_chat_corpus
from .denoise import DenoiseConfig, chosen_count, denoise_corpus
from .ensemble import ScoreSet, select_ensemble
from .filtering import FilterConfig, filter_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

# CLI and pipeline spellings of config values, by option.
_SPELLINGS = {
    "mode": {"same": SAME_LANGUAGE, "mixed": MIXED_LANGUAGE},
    "speaker_tags": {"on": True, "off": False},
}


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    """argparse that raises instead of calling sys.exit(2)."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def _file_mode(path: Path) -> int:
    """The mode of the file at path, or, where there is none, the mode
    open() would create it with: 0o666 less the umask."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        return 0o666 & ~umask


def _atomic_write_lines(path: str | Path, lines: Iterable[str], staged: dict) -> int:
    """Write the lines to a temp file beside the file path resolves to,
    staged[path], for _staged_outputs to commit; return their count."""
    path, real = Path(path), Path(os.path.realpath(path))
    fd, staged[path] = tempfile.mkstemp(dir=real.parent, prefix=real.name + ".")
    count = 0
    with os.fdopen(fd, "w", encoding="utf-8") as fh:
        for count, line in enumerate(lines, 1):
            fh.write(line)
    return count


def _atomic_write_json(path: str | Path, obj, staged: dict) -> None:
    _atomic_write_lines(path, [json.dumps(obj, ensure_ascii=False, indent=2) + "\n"], staged)


@contextlib.contextmanager
def _staged_outputs():
    """Yield the dict a command stages its outputs in. If the block succeeds,
    rename each temp over the file its path resolves to, in the order written,
    with the mode _file_mode reads (mkstemp makes it 0600). Then, or on a
    failure, remove every temp left; a failed rename leaves earlier ones done."""
    staged: dict[Path, str] = {}
    try:
        yield staged
        for path, tmp in list(staged.items()):
            try:
                os.chmod(tmp, _file_mode(path))
                os.replace(tmp, os.path.realpath(path))
            except OSError as exc:
                # Name the output, not the temp removed below.
                raise OSError(exc.errno, exc.strerror, str(path)) from None
            del staged[path]
    finally:
        for tmp in staged.values():
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


def _read_lines(path: str | Path) -> Iterator[str]:
    """Yield the file's lines as the text reader splits them (LF, CRLF,
    lone CR, each read as LF), one at a time. Bytes that are not UTF-8
    are decoded to lone surrogates (surrogateescape), so the parser that
    reaches their line names it, or skips it under skip_and_count."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        yield from fh


def _infer_format(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    return "jsonl" if str(path).endswith((".jsonl", ".json")) else "tsv"


def _require_input(path: str) -> None:
    if not os.path.exists(path):
        raise UsageError(f"input path does not exist: {path}")
    if os.path.isdir(path):
        raise UsageError(f"input path is a directory: {path}")


def _require_output(path: str) -> None:
    """Refuse an output whose resolved path the commit's rename could not
    put in place, or would replace with a regular file (a FIFO, a device)."""
    real = os.path.realpath(path)
    if not os.path.basename(path) or os.path.isdir(real) \
            or not os.path.isdir(os.path.dirname(real)):
        raise UsageError(f"output must be a file in an existing directory: {path}")
    if os.path.lexists(real) and not os.path.isfile(real):
        raise UsageError(f"output exists and is not a regular file: {path}")


def _require_distinct_outputs(outputs: Iterable[tuple[str, str | None]],
                              used: Iterable[tuple[str, str | None]]) -> None:
    """Refuse an output that resolves (os.path.realpath) to a path in `used`
    or to an output listed before it: committing it would replace a file
    the command reads, or two writes would stage one file and keep only
    the last. Both hold (name, path) pairs, and a None path is left out."""
    seen = [(name, path, os.path.realpath(path)) for name, path in used if path]
    for name, path in outputs:
        if path:
            real = os.path.realpath(path)
            for other_name, other, other_real in seen:
                if real == other_real:
                    raise UsageError(f"{name} {path} is the same file as {other} ({other_name})")
            seen.append((name, path, real))


def _stage_config(config_cls, values: dict):
    """A stage's config from option values keyed by field name; options
    left out keep the config dataclass's default."""
    kwargs = {}
    for f in fields(config_cls):
        if f.name in values:
            value = values[f.name]
            if isinstance(value, str):
                value = _SPELLINGS.get(f.name, {}).get(value, value)
            kwargs[f.name] = value
    return config_cls(**kwargs)


# ------------------------------------------------------------ stages
# A stage runner takes its paths, checked by its caller, its config, the
# dict it stages its output in and formats (None infers the format from the
# file suffix). Its report's `seconds` covers reading, parsing, the
# transform and writing, not the rename.

def _run_filter(infile: str, outfile: str, cfg: FilterConfig, staged: dict,
                in_format: str | None = None, out_format: str | None = None,
                fail_mode: str = FAIL_MODES[0]) -> dict:
    started = time.monotonic()
    stats = ParseStats()
    pairs = parse_bitext(_read_lines(infile), _infer_format(infile, in_format), fail_mode, stats)
    kept, report = filter_corpus(pairs, cfg)
    _atomic_write_lines(outfile, write_bitext(kept, _infer_format(outfile, out_format)), staged)
    return {
        "command": "filter",
        "config": {**asdict(cfg), "fail_mode": fail_mode},
        "parse_skipped": stats.skipped,
        "seconds": round(time.monotonic() - started, 6),
        **report.as_dict(),
    }


def _run_chatprep(infile: str, outfile: str, cfg: ContextConfig, staged: dict,
                  out_format: str | None = None) -> dict:
    started = time.monotonic()
    dialogues = parse_chat(_read_lines(infile))
    pairs = prepare_chat_corpus(dialogues, cfg)
    written = _atomic_write_lines(
        outfile, write_bitext(pairs, _infer_format(outfile, out_format)), staged)
    return {
        "command": "chatprep",
        "config": asdict(cfg),
        "dialogues": len(dialogues),
        "pairs": written,
        "seconds": round(time.monotonic() - started, 6),
    }


def _run_denoise(infile: str, outfile: str, cfg: DenoiseConfig, staged: dict,
                 in_format: str | None = None, out_format: str | None = None) -> dict:
    started = time.monotonic()
    pairs = list(parse_bitext(_read_lines(infile), _infer_format(infile, in_format)))
    noised = denoise_corpus(pairs, cfg, [p.payload_span for p in pairs])
    _atomic_write_lines(outfile, write_bitext(noised, _infer_format(outfile, out_format)), staged)
    changed = sum(1 for a, b in zip(pairs, noised) if a.target != b.target)
    return {
        "command": "denoise",
        "config": asdict(cfg),
        "pairs": len(pairs),
        "chosen": chosen_count(len(pairs), cfg),
        "changed_targets": changed,
        "seconds": round(time.monotonic() - started, 6),
    }


# A stage's config class, runner, format flags and help. Its options are
# its config's fields: each is its CLI flag (`--` and the name with `-` for
# `_`), the flag's dest and default, and its pipeline key.
_STAGES = {
    "filter": (FilterConfig, _run_filter, ("in", "out"), "apply the corpus filtering rules"),
    "chatprep": (ContextConfig, _run_chatprep, ("out",), "build the speaker/context corpus"),
    "denoise": (DenoiseConfig, _run_denoise, ("in", "out"), "generate the target-denoised corpus"),
}


def _cmd_stage(args, staged: dict) -> dict:
    config_cls, runner, _, _ = _STAGES[args.command]
    passed = {key: value for key, value in vars(args).items()
              if key in ("in_format", "out_format", "fail_mode")}
    return runner(args.infile, args.outfile, _stage_config(config_cls, vars(args)), staged,
                  **passed)


# ----------------------------------------------------------- bsce-select

def _run_bsce(args, staged: dict) -> dict:
    started = time.monotonic()
    try:
        with open(args.scores, encoding="utf-8") as fh:
            obj = json.load(fh)
        score_set = ScoreSet.from_lists(obj["models"], obj["comet"], obj["pairwise"])
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise CorpusError(f"bad scores file: {exc}") from exc
    try:
        selection = select_ensemble(score_set, args.ensemble_size)
    except OverflowError as exc:
        raise CorpusError(f"bad scores file: {exc}") from None
    out = selection.as_dict()
    if args.outfile:
        _atomic_write_json(args.outfile, out, staged)
    else:
        print(json.dumps(out, ensure_ascii=False, indent=2))
    return {
        "command": "bsce-select",
        "config": {"ensemble_size": args.ensemble_size},
        "candidates": score_set.n,
        "selected": out["selected"],
        "seconds": round(time.monotonic() - started, 6),
    }


# -------------------------------------------------------------- pipeline

def _config_section(obj, where: str, allowed, required=()) -> dict:
    """Check one level of the pipeline config against its closed key set."""
    if not isinstance(obj, dict):
        raise UsageError(f"pipeline config: {where} must be a JSON object")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise UsageError(f"pipeline config: unknown key {unknown[0]!r} in {where}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise UsageError(f"pipeline config: {where}.{missing[0]} missing")
    return obj


def _stage_section(cfg: dict, stage: str) -> dict:
    """One stage's pipeline section, with its keys, paths and format checked."""
    section = _config_section(
        cfg.get(stage, {}), stage,
        {"input", "output", "format", *(f.name for f in fields(_STAGES[stage][0]))},
        # denoise reads chatprep's output unless given its own input.
        ("output",) if stage == "denoise" else ("input", "output"),
    )
    for key in ("input", "output"):
        if not isinstance(section.get(key, ""), str):
            raise UsageError(f"pipeline config: {stage}.{key} must be a string")
    if section.get("format", BITEXT_FORMATS[0]) not in BITEXT_FORMATS:
        raise UsageError(
            f"pipeline config: {stage}.format must be one of {', '.join(BITEXT_FORMATS)}"
        )
    _require_output(section["output"])
    return section


def _run_pipeline(args, staged: dict) -> dict:
    with open(args.config, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise ValueError("pipeline config: JSON nested too deeply") from None
    cfg = _config_section(obj, "the top level", {"seed", "fail_mode", *_STAGES})
    fail_mode = cfg.get("fail_mode", FAIL_MODES[0])
    if fail_mode not in FAIL_MODES:
        raise UsageError(
            f"pipeline config: fail_mode must be one of {', '.join(FAIL_MODES)}, "
            f"got {fail_mode!r}"
        )
    # Check every section and build every config before any stage writes.
    filt, chat, den = (_stage_section(cfg, stage) for stage in _STAGES)
    filter_cfg = _stage_config(FilterConfig, filt)
    context_cfg = _stage_config(ContextConfig, chat)
    # The top-level seed is denoise's default seed.
    den_options = {"seed": cfg["seed"], **den} if "seed" in cfg else den
    denoise_cfg = _stage_config(DenoiseConfig, den_options)
    den_input = den.get("input", chat["output"])
    inputs = [("filter.input", filt["input"]), ("chatprep.input", chat["input"])]
    # denoise reading chatprep's output is the pipeline's designed flow.
    reads_chatprep = os.path.realpath(den_input) == os.path.realpath(chat["output"])
    if not reads_chatprep:
        inputs.append(("denoise.input", den_input))
    _require_distinct_outputs([(f"{stage}.output", section["output"]) for stage, section
                               in zip(_STAGES, (filt, chat, den))]
                              + [("--report", args.report)], [("config", args.config), *inputs])
    for _, path in inputs:
        _require_input(path)

    chat_format = _infer_format(chat["output"], chat.get("format"))
    reports = [
        _run_filter(filt["input"], filt["output"], filter_cfg, staged,
                    filt.get("format"), filt.get("format"), fail_mode),
        _run_chatprep(chat["input"], chat["output"], context_cfg, staged, chat_format),
    ]
    # chatprep's output stays a staged temp until the whole run succeeds;
    # denoise reads it in chatprep's format, and denoise.format sets its output.
    reports.append(_run_denoise(
        staged[Path(chat["output"])] if reads_chatprep else den_input, den["output"],
        denoise_cfg, staged, chat_format if reads_chatprep else den.get("format"),
        den.get("format")))
    return {"command": "pipeline", "config_path": args.config, "stages": reports}


# ----------------------------------------------------------------- main

def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="chatmt", description=__doc__)
    parser.add_argument("--version", action="version", version=f"chatmt {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", default=None, help="write the run report here")

    def command(name: str, func, help: str) -> _ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func)
        return p

    for name, (config_cls, _, formats, help) in _STAGES.items():
        p = command(name, _cmd_stage, help)
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", dest="outfile", required=True)
        for fmt in formats:
            p.add_argument(f"--{fmt}-format", choices=BITEXT_FORMATS, default=None)
        for f in fields(config_cls):
            kind = ({"choices": _SPELLINGS[f.name]} if f.name in _SPELLINGS
                    else {"type": {"int": int, "float": float}[f.type]})
            p.add_argument("--" + f.name.replace("_", "-"), default=f.default, **kind)
        if name == "filter":
            p.add_argument("--fail-mode", choices=FAIL_MODES, default=FAIL_MODES[0])

    p = command("bsce-select", _run_bsce, "greedy diversity-aware ensemble selection")
    p.add_argument("--scores", required=True)
    p.add_argument("--ensemble-size", type=int, required=True)
    p.add_argument("--out", dest="outfile", default=None)

    p = command("pipeline", _run_pipeline, "run filter, chatprep, denoise in order")
    p.add_argument("config", help="pipeline config (JSON)")
    return parser


def main(argv=None) -> int:
    # No stage builds reference cycles per record, so the cyclic collector
    # would only re-scan the corpus held in memory. The caller's setting
    # is restored for in-process callers.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _main(argv)
    finally:
        if gc_was_enabled:
            gc.enable()


def _main(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # The paths each command names on its command line, each checked
        # once before anything is read; pipeline checks its stages' paths
        # once it has read its config.
        named = [(flag, getattr(args, dest, None)) for flag, dest in
                 (("--in", "infile"), ("--out", "outfile"), ("--scores", "scores"),
                  ("config", "config"))]
        if args.report:
            _require_output(args.report)
            _require_distinct_outputs([("--report", args.report)], named)
        if getattr(args, "outfile", None):
            _require_output(args.outfile)
        for flag, path in named:
            if path and flag != "--out":
                _require_input(path)
        with _staged_outputs() as staged:
            report = args.func(args, staged)
            if args.report:
                _atomic_write_json(args.report, report, staged)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except CorpusError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    if not args.report:
        print(json.dumps(report, ensure_ascii=False), file=sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
