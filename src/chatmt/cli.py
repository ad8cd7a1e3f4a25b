"""Command-line entry point for all pipeline stages.

Exit codes: 0 success, 1 usage/config error, 2 data error (with record
locus), 3 internal invariant violation. Outputs are written atomically
(temp file in the destination directory, then rename), so an
interrupted run never leaves a partial file at the target path.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from dataclasses import fields
from pathlib import Path
from typing import Iterable

from . import __version__
from .corpus import (
    BITEXT_FORMATS,
    CorpusError,
    ParseStats,
    parse_bitext,
    parse_chat,
    write_bitext,
)
from .chatprep import (
    ContextConfig,
    MIXED_LANGUAGE,
    SAME_LANGUAGE,
    TagError,
    prepare_chat_corpus,
)
from .denoise import DenoiseConfig, DenoiseFormatError, denoise_corpus
from .ensemble import ScoreSet, select_ensemble
from .filtering import FilterConfig, filter_corpus
from .attention import kernels_selfcheck

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

FAIL_MODES = ("fail_fast", "skip_and_count")
_STAGE_CONFIGS = {"filter": FilterConfig, "chatprep": ContextConfig, "denoise": DenoiseConfig}
# An option is named by its CLI flag's dest, which is also its pipeline
# config key. These config fields' options go by a shorter name.
_OPTION_NAMES = {"max_sentence_words": "max_words", "token_replace_prob": "token_prob"}
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


def _atomic_write_lines(path: str | Path, lines: Iterable[str]) -> None:
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            for line in lines:
                fh.write(line)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write_json(path: str | Path, obj) -> None:
    _atomic_write_lines(path, [json.dumps(obj, ensure_ascii=False, indent=2) + "\n"])


def _read_lines(path: str | Path) -> list[str]:
    try:
        with open(path, encoding="utf-8", errors="strict") as fh:
            return fh.readlines()
    except UnicodeDecodeError:
        # The text reader's error offset is relative to a buffered chunk;
        # decoding the whole file gives an absolute one.
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CorpusError(f"invalid UTF-8: {exc.reason}",
                              data.count(b"\n", 0, exc.start) + 1) from None
        raise


def _infer_format(path: str, explicit: str | None) -> str:
    if explicit:
        return explicit
    return "jsonl" if str(path).endswith((".jsonl", ".json")) else "tsv"


def _emit_report(report: dict, report_path: str | None) -> None:
    if report_path:
        _atomic_write_json(report_path, report)
    else:
        print(json.dumps(report, ensure_ascii=False), file=sys.stderr)


def _require_input(path: str) -> None:
    if not os.path.exists(path):
        raise UsageError(f"input path does not exist: {path}")


def _options(config_cls) -> dict[str, str]:
    """Option name -> config field, in field order."""
    return {_OPTION_NAMES.get(f.name, f.name): f.name for f in fields(config_cls)}


def _stage_config(config_cls, values: dict):
    """A stage's config from option values keyed by option name; options
    left out keep the config dataclass's default."""
    kwargs = {}
    for name, field in _options(config_cls).items():
        if name in values:
            value = values[name]
            if isinstance(value, str):
                value = _SPELLINGS.get(name, {}).get(value, value)
            kwargs[field] = value
    return config_cls(**kwargs)


def _config_report(cfg) -> dict:
    return {name: getattr(cfg, field) for name, field in _options(type(cfg)).items()}


# ------------------------------------------------------------ stages
# A stage runner takes its paths, its config and formats (None infers the
# format from the file suffix) and returns the run report, whose `seconds`
# covers reading, parsing, the transform and writing.

def _run_filter(infile: str, outfile: str, cfg: FilterConfig, in_format: str | None = None,
                out_format: str | None = None, fail_mode: str = FAIL_MODES[0]) -> dict:
    started = time.monotonic()
    _require_input(infile)
    stats = ParseStats()
    on_error = "skip" if fail_mode == "skip_and_count" else "raise"
    pairs = parse_bitext(_read_lines(infile), _infer_format(infile, in_format), on_error, stats)
    kept, report = filter_corpus(pairs, cfg)
    _atomic_write_lines(outfile, write_bitext(kept, _infer_format(outfile, out_format)))
    return {
        "command": "filter",
        "config": {**_config_report(cfg), "fail_mode": fail_mode},
        "parse_skipped": stats.skipped,
        "seconds": round(time.monotonic() - started, 6),
        **report.as_dict(),
    }


def _run_chatprep(infile: str, outfile: str, cfg: ContextConfig,
                  out_format: str | None = None) -> dict:
    started = time.monotonic()
    _require_input(infile)
    dialogues = parse_chat(_read_lines(infile))
    pairs = list(prepare_chat_corpus(dialogues, cfg))
    _atomic_write_lines(outfile, write_bitext(pairs, _infer_format(outfile, out_format)))
    return {
        "command": "chatprep",
        "config": _config_report(cfg),
        "dialogues": len(dialogues),
        "pairs": len(pairs),
        "seconds": round(time.monotonic() - started, 6),
    }


def _run_denoise(infile: str, outfile: str, cfg: DenoiseConfig, in_format: str | None = None,
                 out_format: str | None = None) -> dict:
    started = time.monotonic()
    _require_input(infile)
    pairs = list(parse_bitext(_read_lines(infile), _infer_format(infile, in_format)))
    noised = denoise_corpus(pairs, cfg, [p.payload_span for p in pairs])
    _atomic_write_lines(outfile, write_bitext(noised, _infer_format(outfile, out_format)))
    changed = sum(1 for a, b in zip(pairs, noised) if a.target != b.target)
    return {
        "command": "denoise",
        "config": _config_report(cfg),
        "pairs": len(pairs),
        "chosen": len(pairs) and int(cfg.pair_fraction * len(pairs) + 1e-9),
        "changed_targets": changed,
        "seconds": round(time.monotonic() - started, 6),
    }


def _cmd_filter(args) -> dict:
    return _run_filter(args.infile, args.outfile, _stage_config(FilterConfig, vars(args)),
                       args.in_format, args.out_format, args.fail_mode)


def _cmd_chatprep(args) -> dict:
    return _run_chatprep(args.infile, args.outfile, _stage_config(ContextConfig, vars(args)),
                         args.out_format)


def _cmd_denoise(args) -> dict:
    return _run_denoise(args.infile, args.outfile, _stage_config(DenoiseConfig, vars(args)),
                        args.in_format, args.out_format)


# ----------------------------------------------------------- bsce-select

def _run_bsce(args) -> dict:
    started = time.monotonic()
    _require_input(args.scores)
    with open(args.scores, encoding="utf-8") as fh:
        obj = json.load(fh)
    try:
        score_set = ScoreSet.from_lists(obj["models"], obj["comet"], obj["pairwise"])
    except (KeyError, TypeError) as exc:
        raise CorpusError(f"bad scores file: {exc}") from exc
    if not 1 <= args.ensemble_size <= score_set.n:
        raise UsageError(
            f"--ensemble-size must be in 1..{score_set.n}, got {args.ensemble_size}"
        )
    selection = select_ensemble(score_set, args.ensemble_size)
    out = selection.as_dict()
    if args.outfile:
        _atomic_write_json(args.outfile, out)
    else:
        print(json.dumps(out, ensure_ascii=False, indent=2))
    return {
        "command": "bsce-select",
        "config": {"ensemble_size": args.ensemble_size},
        "candidates": score_set.n,
        "selected": out["selected"],
        "seconds": round(time.monotonic() - started, 6),
    }


# --------------------------------------------------------- kernels-check

def _run_kernels_check(args) -> dict:
    deviations = kernels_selfcheck(seed=args.seed)
    for name, dev in deviations.items():
        print(f"{name}: max abs deviation {dev:.3e}")
    worst = max(deviations.values())
    if worst > 1e-9:
        raise AssertionError(f"kernel self-check deviation {worst:.3e} > 1e-9")
    return {"command": "kernels-check", "deviations": deviations}


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


def _run_pipeline(args) -> dict:
    _require_input(args.config)
    with open(args.config, encoding="utf-8") as fh:
        cfg = _config_section(json.load(fh), "the top level",
                              {"seed", "fail_mode", *_STAGE_CONFIGS})
    fail_mode = cfg.get("fail_mode", FAIL_MODES[0])
    if fail_mode not in FAIL_MODES:
        raise UsageError(
            f"pipeline config: fail_mode must be one of {', '.join(FAIL_MODES)}, "
            f"got {fail_mode!r}"
        )
    filt, chat, den = (
        _config_section(
            cfg.get(stage, {}), stage,
            {"input", "output", "format", *_options(_STAGE_CONFIGS[stage])},
            # denoise reads chatprep's output unless given its own input.
            ("output",) if stage == "denoise" else ("input", "output"),
        )
        for stage in ("filter", "chatprep", "denoise")
    )
    # Build every config and check the given inputs before any stage writes.
    filter_cfg = _stage_config(FilterConfig, filt)
    context_cfg = _stage_config(ContextConfig, chat)
    # The top-level seed is denoise's default seed.
    den_options = {"seed": cfg["seed"], **den} if "seed" in cfg else den
    denoise_cfg = _stage_config(DenoiseConfig, den_options)
    _require_input(filt["input"])
    _require_input(chat["input"])

    reports = [
        _run_filter(filt["input"], filt["output"], filter_cfg,
                    filt.get("format"), filt.get("format"), fail_mode),
        _run_chatprep(chat["input"], chat["output"], context_cfg, chat.get("format")),
        _run_denoise(den.get("input", chat["output"]), den["output"], denoise_cfg,
                     den.get("format"), den.get("format")),
    ]
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

    def files(p, *formats):
        p.add_argument("--in", dest="infile", required=True)
        p.add_argument("--out", dest="outfile", required=True)
        for fmt in formats:
            p.add_argument(f"--{fmt}-format", choices=BITEXT_FORMATS, default=None)

    p = command("filter", _cmd_filter, "apply the corpus filtering rules")
    files(p, "in", "out")
    p.add_argument("--max-words", type=int, default=FilterConfig.max_sentence_words)
    p.add_argument("--max-word-chars", type=int, default=FilterConfig.max_word_chars)
    p.add_argument("--max-ratio", type=float, default=FilterConfig.max_ratio)
    p.add_argument("--fail-mode", choices=FAIL_MODES, default=FAIL_MODES[0])

    p = command("chatprep", _cmd_chatprep, "build the speaker/context corpus")
    files(p, "out")
    p.add_argument("--n-prev", type=int, choices=(0, 1, 2, 3), default=ContextConfig.n_prev)
    p.add_argument("--mode", choices=_SPELLINGS["mode"], default=ContextConfig.mode)
    p.add_argument("--speaker-tags", choices=_SPELLINGS["speaker_tags"],
                   default=ContextConfig.speaker_tags)

    p = command("denoise", _cmd_denoise, "generate the target-denoised corpus")
    files(p, "in", "out")
    p.add_argument("--seed", type=int, default=DenoiseConfig.seed)
    p.add_argument("--pair-fraction", type=float, default=DenoiseConfig.pair_fraction)
    p.add_argument("--token-prob", type=float, default=DenoiseConfig.token_replace_prob)

    p = command("bsce-select", _run_bsce, "greedy diversity-aware ensemble selection")
    p.add_argument("--scores", required=True)
    p.add_argument("--ensemble-size", type=int, required=True)
    p.add_argument("--out", dest="outfile", default=None)

    p = command("kernels-check", _run_kernels_check, "run the attention kernel self-checks")
    p.add_argument("--seed", type=int, default=0)

    p = command("pipeline", _run_pipeline, "run filter, chatprep, denoise in order")
    p.add_argument("config", help="pipeline config (JSON)")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        report = args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (ValueError,) as exc:
        if isinstance(exc, (CorpusError, TagError, DenoiseFormatError)):
            print(f"data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except AssertionError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    _emit_report(report, getattr(args, "report", None))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
