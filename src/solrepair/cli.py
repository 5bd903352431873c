"""Command line entry points: build, run, report, verify.

Exit codes: 0 clean, 2 configuration or input error, 3 infrastructure
failure (missing executor, failed model calls, incomplete run). A reader
that closes stdout early changes no exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import os
import sys
import typing

from .corpus import MalformedSourceError
from .harness import (
    ConfigError,
    EXIT_CONFIG,
    EXIT_INFRA,
    EXIT_OK,
    RunConfig,
    cmd_build,
    cmd_report,
    cmd_run,
    cmd_verify,
)
from .metrics import CostModel, GPT_4O_MINI_PRICES, format_report_table
from .retrieval import RetrievalConfig
from .rows import read_json


# Each flag of `run` and `verify` that sets a config field: (flag, dest,
# help). A dest names a RunConfig field, or a RetrievalConfig field as
# `retrieval.<field>`; the flag takes its field's type and declared choices.
_RUN_FLAGS = (
    ("--tasks", "task_file", "task JSONL file"),
    ("--out", "out_dir", "output directory"),
    ("--source-root", "source_root", "base directory for task source paths"),
    ("--budget", "context_budget", "context token budget"),
    ("--counter", "counter", "token counter name (bytes4, words)"),
    ("--strategy", "strategy", "repair prompt strategy"),
    ("--max-rounds", "max_rounds", "repair rounds (0 = no repair)"),
    ("--max-tokens", "max_tokens", "max completion tokens"),
    ("--workers", "workers", "worker threads, started only when the client, executor or embeddings wait"),
    ("--seed", "seed", "seed for mock executors"),
    (
        "--retrieval",
        "retrieval.method",
        "retrieval method for repair prompts (omit to repair without snippets)",
    ),
    ("--max-snippets", "retrieval.max_snippets", "snippets per repair prompt"),
    ("--window-lines", "retrieval.window_lines", "retrieval window size"),
    ("--step-lines", "retrieval.step_lines", "retrieval window step"),
    ("--mock-client", "mock_client", "scripted model client fixture (JSON)"),
    ("--mock-executor", "mock_executor", "scripted executor fixture (JSON)"),
    ("--executor", "executor", "backend kind"),
    ("--solc", "solc_path", "solc binary path"),
    ("--endpoint", "endpoint", "chat-completions HTTP endpoint"),
    ("--model", "model", "model name for HTTP clients"),
    ("--api-key-env", "api_key_env", "env var holding the API key"),
    ("--rate-limit", "rate_limit_per_minute", "global requests per minute"),
)
# The flags of the settings `verify` reads: it loads the tasks and builds
# their context windows, then verifies through the executor.
_VERIFY_FLAGS = frozenset(
    "--tasks --source-root --budget --counter --seed --executor --mock-executor --solc".split()
)


def _add_run_flags(parser: argparse.ArgumentParser, only: frozenset[str] | None = None) -> None:
    """Add --config and the _RUN_FLAGS rows, or those of them in only."""
    parser.add_argument("--config", help="JSON file with RunConfig fields")
    declared = {}  # dest -> (type, choices)
    for prefix, cls in (("", RunConfig), ("retrieval.", RetrievalConfig)):
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            declared[prefix + f.name] = hints[f.name], f.metadata.get("choices")
    for flag, dest, text in _RUN_FLAGS:
        if only is not None and flag not in only:
            continue
        kind, choices = declared[dest]
        parser.add_argument(
            flag,
            dest=dest,
            type=kind if kind in (int, float) else None,
            choices=choices,
            metavar=None if choices else dest.rpartition(".")[2].upper(),
            help=text,
        )


def _run_config_from_args(args: argparse.Namespace, need_out: bool = True) -> RunConfig:
    payload: dict = {}
    if args.config:
        payload = read_json(args.config, "config")
        retrieval = payload.get("retrieval")
        if retrieval is not None and not isinstance(retrieval, dict):
            raise ConfigError(
                f"config file {args.config}: retrieval must be a JSON object, not {retrieval!r}"
            )
    retrieval_flags: dict = {}
    for flag, dest, _ in _RUN_FLAGS:
        value = getattr(args, dest, None)
        if value is None:
            continue
        record, _, name = dest.rpartition(".")
        if not record:
            payload[name] = value
        elif payload.get("retrieval") is None and getattr(args, "retrieval.method") is None:
            raise ConfigError(f"{flag} needs --retrieval or a retrieval object in --config")
        else:
            retrieval_flags[name] = value
    if retrieval_flags:
        payload["retrieval"] = {**(payload.get("retrieval") or {}), **retrieval_flags}
    if not need_out:
        payload.setdefault("out_dir", ".")
        if "task_file" not in payload:
            raise ConfigError("verify needs --tasks (or a --config providing task_file)")
    if "task_file" not in payload or "out_dir" not in payload:
        raise ConfigError("run needs --tasks and --out (or a --config providing them)")
    try:
        return RunConfig.from_json(payload)
    except TypeError as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solrepair",
        description="Function-completion benchmark with retrieval-augmented repair",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="extract tasks from .sol sources")
    p_build.add_argument("--sources", required=True, help="directory of .sol files")
    p_build.add_argument("--tasks", required=True, help="output task JSONL")
    p_build.add_argument("--stats", help="output stats JSON")

    p_run = sub.add_parser("run", help="run completion and repair over a task file")
    _add_run_flags(p_run)

    p_report = sub.add_parser("report", help="aggregate persisted run logs")
    p_report.add_argument("--outcomes", nargs="+", required=True)
    p_report.add_argument("--sessions", nargs="*", default=[])
    p_report.add_argument("--json", dest="json_out", help="write the report JSON here")
    p_report.add_argument("--prompt-price", type=float, default=GPT_4O_MINI_PRICES.prompt_usd_per_million)
    p_report.add_argument("--completion-price", type=float, default=GPT_4O_MINI_PRICES.completion_usd_per_million)

    p_verify = sub.add_parser("verify", help="verify external completions")
    _add_run_flags(p_verify, _VERIFY_FLAGS)
    p_verify.add_argument("--completions", required=True, help="JSONL of {task_id, body}")
    p_verify.add_argument("--verdicts", help="output verdict JSONL")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )

    code, output = EXIT_OK, None
    try:
        if args.command == "build":
            report = cmd_build(args.sources, args.tasks, args.stats)
            output = json.dumps(report.to_json(), indent=2, sort_keys=True)
        elif args.command == "run":
            config = _run_config_from_args(args)
            manifest, code = cmd_run(config)
            output = f"run {manifest.status}: {manifest.tasks_completed}/{manifest.tasks_total} tasks"
        elif args.command == "report":
            for flag, price in (("--prompt-price", args.prompt_price), ("--completion-price", args.completion_price)):
                if not 0 <= price < math.inf:
                    raise ConfigError(f"{flag} must be a finite number >= 0, got {price}")
            report = cmd_report(
                args.outcomes,
                args.sessions,
                cost_model=CostModel(args.prompt_price, args.completion_price),
                out_json=args.json_out,
            )
            output = format_report_table(report)
        elif args.command == "verify":
            config = _run_config_from_args(args, need_out=False)
            _, code = cmd_verify(args.completions, config, args.verdicts)
    except (ConfigError, MalformedSourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFRA
    if output is not None:
        try:
            print(output)
            sys.stdout.flush()
        except OSError as exc:
            # What is left goes to devnull, so that the interpreter's own
            # flush at exit does not fail again. A reader that closed stdout
            # early (`report | head -1`) is no failure of the command.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            if not isinstance(exc, BrokenPipeError):
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_INFRA
    return code


if __name__ == "__main__":
    sys.exit(main())
