"""Benchmark of solrepair's build -> run -> report pipeline.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
  python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1 [--smoke]

Run it from the root of a source checkout. For one workload it generates
seeded inputs in a child process (perfbench/workloads.py), then calls
harness.cmd_build, cmd_run and cmd_report in this process over and over for
--seconds, after one untimed warm-up pass. Every pass is checked against the
generator's plan. It prints each metric with its unit, then, as the last
line, one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics, as medians over the passes.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones, plus the tracing overhead between the two; its
spans go to .perfbench/trace-<workload>-seed<N>.json.

--smoke uses tiny inputs, for checking the benchmark itself. `all` runs the
workloads one after another, each in its own process, and fails if any does.

Exit status: 0 when every check passed, 1 when a check failed (the JSON line
is printed with "correct": false), 2 when there is no solrepair source tree
to benchmark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench"

# How timings are summarised; README.md has the measurements behind this. The
# host is shared and its CPU speed drifts: it flips between a fast and a slow
# mode several times a second, and the share of slow time, and the speed of
# each mode, change over minutes. A fixed calibration job, timed between the
# steps of every pass, sees the same drift, so each timing is scaled by it:
#  - build, run and CPU time take a good part of a second or more, long
#    enough to mix both modes: mean over passes, times CAL_MEAN_S over the
#    mean calibration time (its CPU time, for CPU time);
#  - set-up and report take milliseconds and repeat within a pass until
#    MIN_REPEAT_S has gone by: fastest call of the run, times CAL_FASTEST_S
#    over the fastest calibration time.
# The figures are then seconds as on a host where the calibration job takes
# CAL_MEAN_S on average and CAL_FASTEST_S at best.
CAL_MEAN_S = 0.003
CAL_FASTEST_S = 0.0018
MIN_REPEAT_S = 0.1
MIN_PASSES = 3

# name, unit, better; the order in which they are printed.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("build_s", "s", "lower"),
    ("run_s", "s", "lower"),
    ("report_s", "s", "lower"),
    ("run_tasks_per_s", "1/s", "higher"),
    ("cpu_ms_per_task", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("pass_at_1", "%", "higher"),
    ("compilation_at_1", "%", "higher"),
    ("usd_per_task", "USD", "lower"),
)

LIMITS = (
    "Timers: time.perf_counter for wall time; resource.getrusage(RUSAGE_SELF) "
    "for this process's CPU time and peak RSS. Nothing system-wide was traced "
    "and no machine setting was changed."
)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def git_sha() -> str:
    """HEAD of the checkout's own .git, without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


_CAL_TEXT = "".join(
    f"function f{i}(uint256 a) {{ return a * {i} + 1; }} // note {i}\n" for i in range(200)
)


def calibration_job() -> int:
    """A fixed pure-Python job that shares no code with solrepair."""
    depth = 0
    counts: dict[str, int] = {}
    out = []
    for ch in _CAL_TEXT:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
        counts[ch] = counts.get(ch, 0) + 1
        out.append(" " if ch == "/" else ch)
    words = "".join(out).split()
    words.sort()
    return depth + len(counts) + len(words)


def calibrate(n: int = 4) -> list[tuple[float, float]]:
    """(wall, CPU) times of n back-to-back runs of the calibration job."""
    times = []
    for _ in range(n):
        start, cpu = time.perf_counter(), time.process_time()
        calibration_job()
        times.append((time.perf_counter() - start, time.process_time() - cpu))
    return times


def repeat_best(fn) -> tuple[float, object, int]:
    """Fastest wall time of fn over repeated calls, its last result, the calls."""
    times = []
    result = None
    while len(times) < 3 or sum(times) < MIN_REPEAT_S:
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result, len(times)


class Bench:
    """One workload's passes, their checks and their figures."""

    def __init__(self, work: Path, plan: dict, tracer=None) -> None:
        from solrepair.harness import RunConfig

        self.work = work
        self.plan = plan
        self.tracer = tracer
        self.sources = work / "sources"
        self.n_tasks = plan["run_tasks"]
        self.attempts = dict(plan["attempts"])
        self.problems: list[str] = []
        self.failed_tasks = 0
        self.outcomes_sha: str | None = None
        cfg = plan["config"]
        self.config = RunConfig(
            task_file=str(work / "pass" / "run_tasks.jsonl"),
            out_dir=str(work / "pass" / "out"),
            source_root=str(self.sources),
            context_budget=cfg["context_budget"],
            counter=cfg["counter"],
            strategy=cfg["strategy"],
            max_rounds=cfg["max_rounds"],
            workers=cfg["workers"],
            retrieval=cfg["retrieval"],
            executor="mock",
            mock_client=str(work / "client.json"),
        )

    def check(self, ok: bool, message: str) -> None:
        if not ok and message not in self.problems:
            self.problems.append(message)

    def _phase(self, name: str) -> None:
        if self.tracer is not None:
            self.tracer.phase = name

    def setup_once(self) -> None:
        """What build and run do before their first unit of work."""
        from solrepair import harness
        from solrepair.corpus import SourceFile

        for path in sorted(self.sources.rglob("*.sol")):
            SourceFile.from_text(str(path.relative_to(self.sources)), path.read_text(encoding="utf-8"))
        harness.load_tasks(self.config)
        harness.build_client(self.config)
        harness.build_backend(self.config)

    def one_pass(self) -> dict:
        """build, set-up, run and report once; check each against the plan."""
        from solrepair.harness import cmd_build, cmd_report, cmd_run

        pass_dir = self.work / "pass"
        shutil.rmtree(pass_dir, ignore_errors=True)
        pass_dir.mkdir()
        cal = calibrate()
        tasks_path = pass_dir / "tasks.jsonl"

        self._phase("build")
        start = time.perf_counter()
        stats = cmd_build(self.sources, tasks_path, pass_dir / "stats.json")
        build_s = time.perf_counter() - start
        self.check(stats.to_json() == self.plan["stats"], f"build stats {stats.to_json()} != plan {self.plan['stats']}")
        self.check(sha256(tasks_path) == self.plan["tasks_sha256"], "tasks.jsonl differs from the planned task file")
        rows = tasks_path.read_text(encoding="utf-8").splitlines(keepends=True)
        Path(self.config.task_file).write_text("".join(rows[: self.n_tasks]), encoding="utf-8")

        cal += calibrate()
        self._phase("setup")
        setup_s, _, _ = repeat_best(self.setup_once)
        cal += calibrate()

        self._phase("run")
        cpu0 = cpu_seconds()
        run_start = time.perf_counter()
        manifest, code = cmd_run(self.config)
        run_end = time.perf_counter()
        cpu_s = cpu_seconds() - cpu0
        self.check_run(manifest, code)

        cal += calibrate()
        out = Path(self.config.out_dir)
        outcomes, sessions = out / "outcomes.jsonl", out / "sessions.jsonl"
        self._phase("report")
        report_s, report, report_calls = repeat_best(lambda: cmd_report([outcomes], [sessions]))
        self._phase("")
        cal += calibrate()
        overall = report["overall"]
        self.check(overall["pass@1"] == self.plan["pass_at_1"], f"pass@1 {overall['pass@1']} != plan {self.plan['pass_at_1']}")
        self.check(
            overall["compilation@1"] == self.plan["compilation_at_1"],
            f"compilation@1 {overall['compilation@1']} != plan {self.plan['compilation_at_1']}",
        )
        self.check(overall["tasks"] == self.n_tasks, f"report counts {overall['tasks']} tasks")
        return {
            "cal": cal,
            "build_s": build_s,
            "setup_s": setup_s,
            "run_s": run_end - run_start,
            "run_start": run_start,
            "run_end": run_end,
            "cpu_s": cpu_s,
            "report_s": report_s,
            "report_calls": report_calls,
            "pass_at_1": overall["pass@1"],
            "compilation_at_1": overall["compilation@1"],
            "usd": report["cost"]["total_usd"],
            "outcome_bytes": outcomes.stat().st_size,
            "session_bytes": sessions.stat().st_size,
        }

    def check_run(self, manifest, code: int) -> None:
        """Exit code, manifest, every attempt's verdict, byte-identical outcomes."""
        self.check(code == 0, f"run exited {code}")
        self.check(manifest.status == "complete", f"manifest status {manifest.status}")
        self.check(
            manifest.tasks_completed == self.n_tasks,
            f"{manifest.tasks_completed} of {self.n_tasks} tasks completed",
        )
        out = Path(self.config.out_dir)
        outcomes = [json.loads(line) for line in (out / "outcomes.jsonl").read_text(encoding="utf-8").splitlines()]
        self.check([row["task_id"] for row in outcomes] == list(self.attempts), "outcomes are not the planned tasks in task order")
        wrong = {task_id for task_id in self.attempts if task_id not in {row["task_id"] for row in outcomes}}
        for row in outcomes:
            final = self.attempts.get(row["task_id"], ["?"])[-1]
            if (row["c"] == 1) != (final == "pass") or (row["c_compile"] == 1) != (final != "compile_error"):
                wrong.add(row["task_id"])
        for line in (out / "sessions.jsonl").read_text(encoding="utf-8").splitlines():
            row = json.loads(line)
            if [a["verdict"]["status"] for a in row["attempts"]] != self.attempts.get(row["task_id"]):
                wrong.add(row["task_id"])
        self.failed_tasks += len(wrong)
        self.check(not wrong, f"{len(wrong)} tasks got other verdicts than planned")
        digest = sha256(out / "outcomes.jsonl")
        if self.outcomes_sha is None:
            self.outcomes_sha = digest
        self.check(digest == self.outcomes_sha, "outcomes.jsonl changed between passes")

    def check_workers(self) -> None:
        """The pool size must not change a byte of outcomes.jsonl."""
        from dataclasses import replace

        from solrepair.harness import cmd_run

        other = 1 if self.config.workers != 1 else 2
        config = replace(self.config, workers=other, out_dir=str(self.work / "workers-check"))
        manifest, code = cmd_run(config)
        digest = sha256(Path(config.out_dir) / "outcomes.jsonl")
        self.check(
            code == 0 and digest == self.outcomes_sha,
            f"outcomes differ between workers={self.config.workers} and workers={other}",
        )

    def check_e2e_fixture(self) -> None:
        """The checked-in e2e fixture still gives pass@1 40.00 -> 80.00."""
        from solrepair.harness import RunConfig, cmd_report, cmd_run

        fixture = ROOT / "tests" / "fixtures" / "e2e"
        for rounds, want in ((0, 40.0), (1, 80.0)):
            out = self.work / f"e2e-{rounds}"
            config = RunConfig(
                task_file=str(fixture / "tasks.jsonl"),
                out_dir=str(out),
                source_root=str(fixture / "sources"),
                context_budget=2048,
                counter="bytes4",
                max_rounds=rounds,
                retrieval={"method": "lcs"} if rounds else None,
                executor="mock",
                mock_client=str(fixture / "mock_client.json"),
                mock_executor=str(fixture / "mock_executor.json"),
            )
            _, code = cmd_run(config)
            got = cmd_report([out / "outcomes.jsonl"])["overall"]["pass@1"]
            self.check(code == 0 and got == want, f"e2e fixture: pass@1 {got} at max_rounds {rounds}, want {want}")


TIMED = {"setup_s": "setup_s", "build_s": "build_s", "run_s": "run_s", "report_s": "report_s", "cpu_ms_per_task": "cpu_s"}


def end_to_end(passes: list[dict], n_tasks: int) -> dict[str, float]:
    calibration = [wall for p in passes for wall, _ in p["cal"]]
    mean_scale = CAL_MEAN_S / statistics.mean(calibration)
    fastest_scale = CAL_FASTEST_S / min(calibration)
    # CPU time leaves out time the host took the CPU away; so does its scale.
    cpu_scale = CAL_MEAN_S / statistics.mean(cpu for p in passes for _, cpu in p["cal"])

    def long_step(key: str) -> float:
        return mean_scale * statistics.mean(p[key] for p in passes)

    def short_step(key: str) -> float:
        return fastest_scale * min(p[key] for p in passes)

    run_s = long_step("run_s")
    return {
        "setup_s": short_step("setup_s"),
        "build_s": long_step("build_s"),
        "run_s": run_s,
        "report_s": short_step("report_s"),
        "run_tasks_per_s": n_tasks / run_s,
        "cpu_ms_per_task": 1e3 * cpu_scale * statistics.mean(p["cpu_s"] for p in passes) / n_tasks,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_at_1": passes[-1]["pass_at_1"],
        "compilation_at_1": passes[-1]["compilation_at_1"],
        "usd_per_task": passes[-1]["usd"] / n_tasks,
    }


def raw_note(passes: list[dict], key: str, scale: float) -> str:
    """The unscaled pass times of one timing, for the printed table."""
    values = sorted(scale * p[key] for p in passes)
    p90 = values[max(0, -(-9 * len(values) // 10) - 1)]
    return (
        f"(raw over {len(values)} passes: fastest {values[0]:.6g}, "
        f"median {statistics.median(values):.6g}, p90 {p90:.6g})"
    )


def make_inputs(workload: str, seed: int, work: Path, smoke: bool) -> dict:
    """Make the inputs in a child process, outside every timed figure."""
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload, "--seed", str(seed), "--out", str(work)]
    if smoke:
        cmd.append("--smoke")
    subprocess.run(cmd, check=True, timeout=170)
    return json.loads((work / "plan.json").read_text(encoding="utf-8"))


def measure(args, work: Path) -> tuple[dict, bool]:
    from tracing import PER_LAYER, Tracer, instrument, layer_metrics

    plan = make_inputs(args.workload, args.seed, work, args.smoke)
    tracer = Tracer() if args.trace else None
    bench = Bench(work, plan, tracer)

    # Warm-up: caches fill and lazy set-up finishes; not timed.
    bench.one_pass()
    bench.check_workers()
    bench.check_e2e_fixture()

    passes: list[dict] = []
    traced: dict[int, dict] = {}
    deadline = time.perf_counter() + args.seconds
    while len(passes) < (2 * MIN_PASSES if args.trace else MIN_PASSES) or time.perf_counter() < deadline:
        index = len(passes)
        if tracer is not None and index % 2 == 1:
            tracer.iteration = index
            instrument(tracer, plan["needed_decl"])
            try:
                result = bench.one_pass()
            finally:
                tracer.remove()
            traced[index] = result
        else:
            result = bench.one_pass()
        passes.append(result)

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workers": plan["config"]["workers"],
        "passes": len(passes),
        "traced_passes": len(traced),
        "tasks_per_pass": plan["run_tasks"],
        "tasks_built": plan["tasks_total"],
        "source_files": plan["source_files"],
        "source_lines": plan["source_lines"],
        "source_bytes": plan["source_bytes"],
        "plan": {k: plan[k] for k in ("pass_at_1", "compilation_at_1", "stats")},
        "limits": LIMITS,
    }
    if tracer is None:
        metrics = end_to_end(passes, plan["run_tasks"])
        units = {name: unit for name, unit, _ in END_TO_END}
        extra = {"task_failure_share": (bench.failed_tasks, len(passes) * plan["run_tasks"])}
    else:
        def wall(p: dict) -> float:
            """build + run + report, in units of the pass's own calibration time."""
            return (p["build_s"] + p["run_s"] + p["report_s"]) / statistics.mean(wall for wall, _ in p["cal"])

        plain = [p for i, p in enumerate(passes) if i not in traced]
        overhead = 100.0 * (
            statistics.median(wall(p) for p in traced.values()) / statistics.median(wall(p) for p in plain) - 1.0
        )
        contexts = {
            i: {**p, "workers": plan["config"]["workers"], "tasks": plan["run_tasks"]}
            for i, p in traced.items()
        }
        metrics = layer_metrics(tracer, contexts, overhead)
        units = {name: unit for name, unit, _ in PER_LAYER}
        extra = {}
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(
            json.dumps(
                {"meta": meta, "per_layer": metrics, "spans": [s.to_json() for s in tracer.spans]},
                sort_keys=True,
            ),
            encoding="utf-8",
        )
        meta["trace_file"] = str(trace_file.relative_to(ROOT))

    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, value in metrics.items():
        note = ""
        if tracer is None and name in TIMED:
            note = raw_note(passes, TIMED[name], 1e3 / plan["run_tasks"] if name == "cpu_ms_per_task" else 1.0)
        print(f"{name:36s} {value:>16.6f} {units[name]} {note}")
    for name, (failed, attempted) in extra.items():
        print(f"{name:36s} {failed / attempted:>16.6f} ratio ({failed} of {attempted} tasks)")
    for problem in bench.problems:
        print(f"# CHECK FAILED: {problem}")
    result = {
        "correct": not bench.problems,
        "attempted": len(passes) * plan["run_tasks"],
        "failed": bench.failed_tasks,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, not bench.problems


def run_all(args) -> int:
    from workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        if args.smoke:
            cmd.append("--smoke")
        print(f"## workload {name}", flush=True)
        if subprocess.run(cmd, timeout=900).returncode != 0:
            status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the benchmark")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "solrepair" / "__init__.py").is_file():
        print(f"perfbench: no solrepair sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)

    work = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        result, ok = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
