"""Command line entry points: build, run, report, verify.

Exit codes: 0 clean, 2 configuration or input error, 3 infrastructure
failure (missing executor, failed model calls, incomplete run).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

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


def _add_run_flags(parser: argparse.ArgumentParser) -> None:
    """Flags whose dest is a RunConfig field override that field."""
    parser.add_argument("--tasks", dest="task_file", help="task JSONL file")
    parser.add_argument("--out", dest="out_dir", help="output directory")
    parser.add_argument("--config", help="JSON file with RunConfig fields")
    parser.add_argument("--source-root", help="base directory for task source paths")
    parser.add_argument("--budget", dest="context_budget", type=int, help="context token budget")
    parser.add_argument("--counter", help="token counter name (bytes4, words)")
    parser.add_argument(
        "--strategy",
        choices=["self_edit", "self_debug", "self_refine", "self_repair"],
        help="repair prompt strategy",
    )
    parser.add_argument("--max-rounds", type=int, help="repair rounds (0 = no repair)")
    parser.add_argument("--max-tokens", type=int, help="max completion tokens")
    parser.add_argument("--samples", dest="n_samples", type=int, help="samples per task")
    parser.add_argument("--workers", type=int, help="worker threads")
    parser.add_argument("--seed", type=int, help="seed for mock executors")
    parser.add_argument(
        "--retrieval",
        dest="retrieval_method",
        choices=["lcs", "bm25", "tfidf", "jaccard", "dense"],
        help="retrieval method for repair prompts (omit to repair without snippets)",
    )
    parser.add_argument("--max-snippets", type=int, help="snippets per repair prompt")
    parser.add_argument("--window-lines", type=int, help="retrieval window size")
    parser.add_argument("--step-lines", type=int, help="retrieval window step")
    parser.add_argument("--mock-client", help="scripted model client fixture (JSON)")
    parser.add_argument("--mock-executor", help="scripted executor fixture (JSON)")
    parser.add_argument("--executor", choices=["mock", "solc", "fuzz"], help="backend kind")
    parser.add_argument("--solc", dest="solc_path", help="solc binary path")
    parser.add_argument("--endpoint", help="chat-completions HTTP endpoint")
    parser.add_argument("--model", help="model name for HTTP clients")
    parser.add_argument("--api-key-env", help="env var holding the API key")
    parser.add_argument(
        "--rate-limit", dest="rate_limit_per_minute", type=int, help="global requests per minute"
    )


def _run_config_from_args(args: argparse.Namespace, need_out: bool = True) -> RunConfig:
    payload: dict = {}
    if args.config:
        try:
            payload = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(payload, dict):
            raise ConfigError(f"config file {args.config}: expected a JSON object")
        retrieval = payload.get("retrieval")
        if retrieval is not None and not isinstance(retrieval, dict):
            raise ConfigError(
                f"config file {args.config}: retrieval must be a JSON object, not {retrieval!r}"
            )
    for f in dataclasses.fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            payload[f.name] = value
    if args.retrieval_method is not None:
        retrieval = payload.get("retrieval") or {}
        retrieval["method"] = args.retrieval_method
        payload["retrieval"] = retrieval
    if payload.get("retrieval") is not None:
        for key, flag in (
            ("max_snippets", args.max_snippets),
            ("window_lines", args.window_lines),
            ("step_lines", args.step_lines),
        ):
            if flag is not None:
                payload["retrieval"][key] = flag
    if not need_out:
        payload.setdefault("out_dir", ".")
    if "task_file" not in payload or "out_dir" not in payload:
        raise ConfigError("run needs --tasks and --out (or a --config providing them)")
    try:
        return RunConfig.from_json(payload)
    except TypeError as exc:
        raise ConfigError(f"bad config: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
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
    p_report.add_argument("--k", nargs="*", type=int, default=[1])
    p_report.add_argument("--json", dest="json_out", help="write the report JSON here")
    p_report.add_argument("--prompt-price", type=float, default=GPT_4O_MINI_PRICES.prompt_usd_per_million)
    p_report.add_argument("--completion-price", type=float, default=GPT_4O_MINI_PRICES.completion_usd_per_million)

    p_verify = sub.add_parser("verify", help="verify external completions")
    _add_run_flags(p_verify)
    p_verify.add_argument("--completions", required=True, help="JSONL of {task_id, body}")
    p_verify.add_argument("--verdicts", help="output verdict JSONL")

    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )

    try:
        if args.command == "build":
            report = cmd_build(args.sources, args.tasks, args.stats)
            print(json.dumps(report.to_json(), indent=2, sort_keys=True))
            return EXIT_OK
        if args.command == "run":
            config = _run_config_from_args(args)
            manifest, exit_code = cmd_run(config)
            print(
                f"run {manifest.status}: {manifest.tasks_completed}/{manifest.tasks_total} tasks"
            )
            return exit_code
        if args.command == "report":
            report = cmd_report(
                args.outcomes,
                args.sessions,
                k_values=args.k,
                cost_model=CostModel(args.prompt_price, args.completion_price),
                out_json=args.json_out,
            )
            print(format_report_table(report))
            return EXIT_OK
        if args.command == "verify":
            config = _run_config_from_args(args, need_out=False)
            _, exit_code = cmd_verify(config.task_file, args.completions, config, args.verdicts)
            return exit_code
    except (ConfigError, MalformedSourceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFRA
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
