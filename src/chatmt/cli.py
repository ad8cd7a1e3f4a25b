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
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from typing import Iterable, Iterator

from . import __version__
from .corpus import (
    BITEXT_FORMATS,
    FAIL_MODES,
    BitextPair,
    CorpusError,
    ParseStats,
    parse_bitext,
    parse_chat,
    write_bitext,
)
from .chatprep import ContextConfig, MIXED_LANGUAGE, SAME_LANGUAGE, prepare_chat_corpus
from .denoise import DenoiseConfig, chosen_count, denoise_corpus
from .ensemble import EnsembleConfig, ScoreSet, select_ensemble
from .filtering import FilterConfig, filter_corpus

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

# CLI and pipeline spellings of config values, by option.
_SPELLINGS = {
    "mode": {"same": SAME_LANGUAGE, "mixed": MIXED_LANGUAGE},
    "speaker_tags": {"on": True, "off": False},
    "fail_mode": {mode: mode for mode in FAIL_MODES},
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


def _json_text(obj, indent: int | None = None) -> str:
    """obj's JSON and a newline, non-ASCII characters as themselves and a
    lone surrogate (a path's byte that is not UTF-8) as its JSON escape, so
    that the text encodes as UTF-8."""
    text = json.dumps(obj, ensure_ascii=False, indent=indent) + "\n"
    return text.encode("utf-8", "backslashreplace").decode("utf-8")


def _atomic_write_json(path: str | Path, obj, staged: dict) -> None:
    _atomic_write_lines(path, [_json_text(obj, indent=2)], staged)


def _print_json(obj, stream, indent: int | None = None) -> None:
    """Write obj's JSON to stream, stdout or stderr, as UTF-8 whatever the
    locale's encoding; a stream with no byte buffer (an in-process caller's
    text stream) gets the text."""
    text = _json_text(obj, indent)
    buffer = getattr(stream, "buffer", None)
    if buffer is None:
        stream.write(text)
        return
    stream.flush()
    buffer.write(text.encode("utf-8"))
    buffer.flush()


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


def _check_paths(reads, writes, may_share=()) -> None:
    """Refuse a command's paths, given as (name, path) pairs, before anything
    is read: an output whose resolved path (os.path.realpath) the commit's
    rename could not put in place, or would replace with a regular file (a
    FIFO, a device); an output that resolves to an input or to an earlier
    output, unless (its name, the other's) is in may_share, since committing
    it would replace a file the command reads, or two writes would stage one
    file and keep only the last; and an input that is missing or a directory.
    A None path, an option the command was not given, is left out."""
    reads = [(name, path) for name, path in reads if path is not None]
    seen = [(name, path, os.path.realpath(path)) for name, path in reads]
    for name, path in writes:
        if path is None:
            continue
        real = os.path.realpath(path)
        if not os.path.basename(path) or os.path.isdir(real) \
                or not os.path.isdir(os.path.dirname(real)):
            raise UsageError(f"output must be a file in an existing directory: {path!r}")
        if os.path.lexists(real) and not os.path.isfile(real):
            raise UsageError(f"output exists and is not a regular file: {path!r}")
        for other_name, other, other_real in seen:
            if real == other_real and (name, other_name) not in may_share:
                raise UsageError(f"{name} {path!r} is the same file as {other!r} ({other_name})")
        seen.append((name, path, real))
    for _, path in reads:
        if not os.path.exists(path):
            raise UsageError(f"input path does not exist: {path!r}")
        if os.path.isdir(path):
            raise UsageError(f"input path is a directory: {path!r}")


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
# file suffix), and returns its own counts; _report makes them a report.
# _run_denoise takes pairs instead of a path, so that the pipeline can hand
# it chatprep's: their reading is chatprep's.

def _report(command: str, runner, src, outfile: str | None, cfg, staged: dict,
            **formats) -> dict:
    """The report of runner(src, outfile, cfg, staged, **formats), formats
    being its keyword options: the command, its config, the runner's counts
    and `seconds`, which covers reading, parsing, the transform and writing
    the temp, not the rename."""
    started = time.monotonic()
    counts = runner(src, outfile, cfg, staged, **formats)
    return {"command": command, "config": asdict(cfg), **counts,
            "seconds": round(time.monotonic() - started, 6)}


def _run_filter(infile: str, outfile: str, cfg: FilterConfig, staged: dict,
                in_format: str | None = None, out_format: str | None = None) -> dict:
    stats = ParseStats()
    pairs = parse_bitext(_read_lines(infile), _infer_format(infile, in_format), cfg.fail_mode,
                         stats)
    kept, report = filter_corpus(pairs, cfg)
    _atomic_write_lines(outfile, write_bitext(kept, _infer_format(outfile, out_format)), staged)
    return {"parse_skipped": stats.skipped, **report.as_dict()}


def _kept(items: Iterable, into: list) -> Iterator:
    """Yield items, appending each to `into` as it is pulled."""
    for item in items:
        into.append(item)
        yield item


def _taken(items: list) -> Iterator:
    """Yield the list's items, taking each out of it as it is pulled."""
    items.reverse()
    while items:
        yield items.pop()


def _run_chatprep(infile: str, outfile: str, cfg: ContextConfig, staged: dict,
                  out_format: str | None = None, keep: list | None = None) -> dict:
    """keep, where given, gets the pairs as they are written: the pipeline
    hands them to denoise."""
    dialogues = parse_chat(_read_lines(infile))
    count = len(dialogues)
    # A dialogue is dropped once its pairs are built, so the pairs kept
    # for denoise do not stack on the whole chat corpus.
    pairs = prepare_chat_corpus(_taken(dialogues), cfg)
    if keep is not None:
        pairs = _kept(pairs, keep)
    written = _atomic_write_lines(
        outfile, write_bitext(pairs, _infer_format(outfile, out_format)), staged)
    return {"dialogues": count, "pairs": written}


def _run_denoise(pairs: Iterable[BitextPair], outfile: str, cfg: DenoiseConfig, staged: dict,
                 out_format: str | None = None) -> dict:
    """denoise on pairs its caller read: a reader's generator, which
    `seconds` then covers, or the pairs chatprep wrote."""
    pairs = list(pairs)
    noised = denoise_corpus(pairs, cfg, [p.payload_span for p in pairs])
    _atomic_write_lines(outfile, write_bitext(noised, _infer_format(outfile, out_format)), staged)
    changed = sum(1 for a, b in zip(pairs, noised) if a.target != b.target)
    return {"pairs": len(pairs), "chosen": chosen_count(len(pairs), cfg),
            "changed_targets": changed}


def _denoise_file(infile: str, outfile: str, cfg: DenoiseConfig, staged: dict,
                  in_format: str | None = None, out_format: str | None = None) -> dict:
    """denoise's stage runner: _run_denoise on the pairs of a bitext file."""
    return _run_denoise(parse_bitext(_read_lines(infile), _infer_format(infile, in_format)),
                        outfile, cfg, staged, out_format)


# ----------------------------------------------------------- bsce-select

def _first_repeated(pairs) -> str | None:
    """The first key of a JSON object's (key, value) pairs that an earlier
    one repeats; json keeps only a repeated key's last value."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            return key
        seen.add(key)
    return None


def _unique_keys(pairs) -> dict:
    """A JSON object's dict, refusing a repeated key."""
    repeated = _first_repeated(pairs)
    if repeated is not None:
        raise ValueError(f"duplicate key {repeated!r}")
    return dict(pairs)


def _run_bsce(scores: str, outfile: str | None, cfg: EnsembleConfig, staged: dict) -> dict:
    try:
        with open(scores, encoding="utf-8") as fh:
            obj = json.load(fh, object_pairs_hook=_unique_keys)
        score_set = ScoreSet.from_lists(obj["models"], obj["comet"], obj["pairwise"])
    except (ValueError, KeyError, TypeError, OverflowError, RecursionError) as exc:
        raise CorpusError(f"bad scores file: {exc}") from exc
    try:
        selection = select_ensemble(score_set, cfg.ensemble_size)
    except OverflowError as exc:
        raise CorpusError(f"bad scores file: {exc}") from None
    out = selection.as_dict()
    if outfile is not None:
        _atomic_write_json(outfile, out, staged)
    else:
        _print_json(out, sys.stdout, indent=2)
    return {"candidates": score_set.n, "selected": out["selected"]}


# -------------------------------------------------------------- commands

# A command's config class, runner, input flag, whether --out is required,
# format flags and help. Its options are its config's fields: each is its
# CLI flag (`--` and the name with `-` for `_`), the flag's dest and default
# (required where the field has none), and its key in a pipeline stage.
_STAGES = {
    "filter": (FilterConfig, _run_filter, "--in", True, ("in", "out"),
               "apply the corpus filtering rules"),
    "chatprep": (ContextConfig, _run_chatprep, "--in", True, ("out",),
                 "build the speaker/context corpus"),
    "denoise": (DenoiseConfig, _denoise_file, "--in", True, ("in", "out"),
                "generate the target-denoised corpus"),
    "bsce-select": (EnsembleConfig, _run_bsce, "--scores", False, (),
                    "greedy diversity-aware ensemble selection"),
}
_PIPELINE_STAGES = ("filter", "chatprep", "denoise")


def _cmd_stage(args, staged: dict) -> dict:
    config_cls, runner, *_ = _STAGES[args.command]
    passed = {key: value for key, value in vars(args).items()
              if key in ("in_format", "out_format")}
    return _report(args.command, runner, args.infile, args.outfile,
                   _stage_config(config_cls, vars(args)), staged, **passed)


# -------------------------------------------------------------- pipeline

class _ConfigObject(dict):
    """A pipeline config object, with the first key it repeats, if any, for
    _config_section to refuse where it knows the object's place."""

    def __init__(self, pairs):
        super().__init__(pairs)
        self.repeated = _first_repeated(pairs)


def _config_section(obj, where: str, allowed, required=()) -> dict:
    """Check one level of the pipeline config against its closed key set."""
    if not isinstance(obj, dict):
        raise UsageError(f"pipeline config: {where} must be a JSON object")
    if getattr(obj, "repeated", None) is not None:
        raise UsageError(f"pipeline config: duplicate key {obj.repeated!r} in {where}")
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise UsageError(f"pipeline config: unknown key {unknown[0]!r} in {where}")
    missing = [key for key in required if key not in obj]
    if missing:
        raise UsageError(f"pipeline config: {where}.{missing[0]} missing")
    return obj


def _stage_section(cfg: dict, stage: str) -> dict:
    """One stage's pipeline section, with its keys, path types and format checked."""
    # denoise takes the pairs chatprep wrote, so it has no input.
    paths = ("output",) if stage == "denoise" else ("input", "output")
    section = _config_section(
        cfg.get(stage, {}), stage,
        {*paths, "format", *(f.name for f in fields(_STAGES[stage][0]))}, paths)
    for key in paths:
        if not isinstance(section[key], str):
            raise UsageError(f"pipeline config: {stage}.{key} must be a string")
    if section.get("format", BITEXT_FORMATS[0]) not in BITEXT_FORMATS:
        raise UsageError(
            f"pipeline config: {stage}.format must be one of {', '.join(BITEXT_FORMATS)}"
        )
    return section


def _run_pipeline(args, staged: dict) -> dict:
    with open(args.config, encoding="utf-8") as fh:
        try:
            obj = json.load(fh, object_pairs_hook=_ConfigObject)
        except RecursionError:
            raise ValueError("pipeline config: JSON nested too deeply") from None
    cfg = _config_section(obj, "the top level", {"seed", *_PIPELINE_STAGES})
    # Check every section and build every config before any stage writes.
    filt, chat, den = (_stage_section(cfg, stage) for stage in _PIPELINE_STAGES)
    filter_cfg = _stage_config(FilterConfig, filt)
    context_cfg = _stage_config(ContextConfig, chat)
    # The top-level seed is denoise's default seed.
    den_options = {"seed": cfg["seed"], **den} if "seed" in cfg else den
    denoise_cfg = _stage_config(DenoiseConfig, den_options)
    _check_paths([("config", args.config), ("filter.input", filt["input"]),
                  ("chatprep.input", chat["input"])],
                 [*((f"{stage}.output", section["output"])
                    for stage, section in zip(_PIPELINE_STAGES, (filt, chat, den))),
                  ("--report", args.report)])

    # denoise takes the pairs chatprep wrote, each naming its chat line;
    # denoise.format sets its output.
    handed = []
    return {"command": "pipeline", "config_path": args.config, "stages": [
        _report("filter", _run_filter, filt["input"], filt["output"], filter_cfg, staged,
                in_format=filt.get("format"), out_format=filt.get("format")),
        _report("chatprep", _run_chatprep, chat["input"], chat["output"], context_cfg, staged,
                out_format=chat.get("format"), keep=handed),
        _report("denoise", _run_denoise, handed, den["output"], denoise_cfg, staged,
                out_format=den.get("format")),
    ]}


# ----------------------------------------------------------------- main

def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="chatmt", description=__doc__)
    parser.add_argument("--version", action="version", version=f"chatmt {__version__}")
    # --report goes before or after the command: a command given none
    # (SUPPRESS) keeps the value given before it.
    report_help = "write the run report here"
    parser.add_argument("--report", default=None, help=report_help)
    # A path a command does not take is None.
    parser.set_defaults(infile=None, config=None, outfile=None)
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--report", default=argparse.SUPPRESS, help=report_help)

    def command(name: str, func, help: str) -> _ArgumentParser:
        p = sub.add_parser(name, parents=[common], help=help)
        p.set_defaults(func=func)
        return p

    for name, (config_cls, _, in_flag, out_required, formats, help) in _STAGES.items():
        p = command(name, _cmd_stage, help)
        p.add_argument(in_flag, dest="infile", required=True)
        p.add_argument("--out", dest="outfile", required=out_required)
        for fmt in formats:
            p.add_argument(f"--{fmt}-format", choices=BITEXT_FORMATS, default=None)
        for f in fields(config_cls):
            kind = ({"choices": _SPELLINGS[f.name]} if f.name in _SPELLINGS
                    else {"type": {"int": int, "float": float}[f.type]})
            p.add_argument("--" + f.name.replace("_", "-"), required=f.default is MISSING,
                           default=None if f.default is MISSING else f.default, **kind)

    p = command("pipeline", _run_pipeline, "run filter, chatprep, denoise in order")
    p.add_argument("config", help="pipeline config (JSON)")
    # Each subcommand's parser by name, whose usage a usage error prints.
    parser.commands = sub.choices
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
    # argparse names the subcommand in args before it parses the
    # subcommand's own arguments, so a usage error can print its usage.
    args = argparse.Namespace()
    try:
        parser.parse_args(argv, args)
        # The paths the command line names, checked before anything is read;
        # pipeline checks its stages' paths once it has read its config. A
        # command may write over its own input: it reads it whole first.
        in_flag = _STAGES[args.command][2] if args.command in _STAGES else None
        _check_paths([(in_flag, args.infile), ("config", args.config)],
                     [("--out", args.outfile), ("--report", args.report)], {("--out", in_flag)})
        with _staged_outputs() as staged:
            report = args.func(args, staged)
            if args.report is not None:
                _atomic_write_json(args.report, report, staged)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.commands.get(args.command, parser).print_usage(sys.stderr)
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
    if args.report is None:
        _print_json(report, sys.stderr)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
