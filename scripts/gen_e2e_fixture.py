"""Generate tests/fixtures/e2e: 50 tasks plus scripted client/executor fixtures.

Task groups by global index g (k = g // 10 file, j = g % 10 function):
  g % 5 in {0, 1}  (20 tasks)  first completion correct        -> pass
  g % 5 in {2, 3}  (20 tasks)  undeclared identifier, repaired  -> pass after repair
  g % 5 == 4       (10 tasks)  wrong arithmetic, repair wrong   -> fail

So the no-repair baseline passes 20/50 (pass@1 = 40.00) and LCS + self_edit
repair with max_rounds=1 passes 40/50 (pass@1 = 80.00).

The scripted-client fixture maps sha256(prompt) -> completion, so this
script drives the real pipeline with a plan-following client and records
every prompt it issues.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from solrepair.context import DEFAULT_COUNTER  # noqa: E402
from solrepair.executor import (  # noqa: E402
    STATUS_COMPILE_ERROR,
    STATUS_FUNCTIONAL_MISMATCH,
    STATUS_PASS,
    ScriptedDifferentialBackend,
    _generated_cases,
    _param_names,
    _blanked,
    _statements,
    _steps,
    evaluate_body,
)
from solrepair.harness import RunConfig, cmd_build, load_tasks  # noqa: E402
from solrepair.repair import (  # noqa: E402
    ModelReply,
    RepairStrategy,
    prompt_hash,
    run_rar,
)
from solrepair.retrieval import RetrievalConfig  # noqa: E402
from solrepair.rows import read_json, write_json  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "tests" / "fixtures" / "e2e"
SOURCES = OUT / "sources"

N_FILES = 5
FUNCS_PER_FILE = 10
BUDGET = 2048

EXPRS = ["a + b", "a * 2 + b", "(a + b) / 2", "a + b * 3", "a > b ? a - b : b - a"]


def group_of(g: int) -> str:
    r = g % 5
    if r in (0, 1):
        return "pass"
    if r in (2, 3):
        return "undeclared"
    return "wrong"


def build_source(k: int) -> str:
    parts = [
        "pragma solidity ^0.8.0;\n",
        "\n",
        f"interface Registry{k} {{\n",
        "    function lookup(uint256 key) external view returns (uint256);\n",
        "}\n",
        "\n",
        f"library Calc{k} {{\n",
        "    function twice(uint256 x) internal pure returns (uint256) { return x * 2; }\n",
        "}\n",
        "\n",
        f"contract Vault{k} {{\n",
    ]
    for j in range(FUNCS_PER_FILE):
        g = k * FUNCS_PER_FILE + j
        expr = EXPRS[g % 5]
        parts.append(f"    /// Returns {expr} for the stored pair.\n")
        parts.append(
            f"    function fn_{k}_{j}(uint256 a, uint256 b) public pure returns (uint256) {{\n"
        )
        parts.append(f"        return {expr};\n")
        parts.append("    }\n")
        if j != FUNCS_PER_FILE - 1:
            parts.append("\n")
    parts.append("}\n")
    return "".join(parts)


class PlanClient:
    """Feeds a fixed list of completions while recording prompt hashes."""

    name = "plan"

    def __init__(self, plan: list[str], recorded: dict[str, str]) -> None:
        self.plan = list(plan)
        self.recorded = recorded

    def complete(self, prompt: str, max_tokens: int) -> ModelReply:
        text = self.plan.pop(0)
        key = prompt_hash(prompt)
        previous = self.recorded.get(key)
        assert previous is None or previous == text, "prompt hash collision"
        self.recorded[key] = text
        return ModelReply(
            text=text,
            prompt_tokens=DEFAULT_COUNTER.count(prompt),
            completion_tokens=DEFAULT_COUNTER.count(text),
        )


def main() -> None:
    SOURCES.mkdir(parents=True, exist_ok=True)
    for old in SOURCES.glob("*.sol"):
        old.unlink()
    for k in range(N_FILES):
        (SOURCES / f"bank{k}.sol").write_text(build_source(k), encoding="utf-8")

    report = cmd_build(SOURCES, OUT / "tasks.jsonl", OUT / "stats.json")
    assert report.retained == N_FILES * FUNCS_PER_FILE, report.to_json()

    config = RunConfig(
        task_file=str(OUT / "tasks.jsonl"),
        out_dir=str(OUT),
        source_root=str(SOURCES),
        context_budget=BUDGET,
        counter="bytes4",
    )
    tasks = load_tasks(config)
    assert len(tasks) == 50

    # Scripted executor tables: deterministic inputs, outputs from the oracle.
    functions = {}
    for task in tasks:
        params = _param_names(task.record.signature)
        body = task.record.body
        steps = _steps(_statements(body, _blanked(body), {}), params, {})
        assert steps is not None, task.task_id
        cases = []
        for inputs in _generated_cases(params, f"table:{task.task_id}", count=6):
            cases.append({"inputs": inputs, "output": evaluate_body(steps, inputs)})
        functions[task.task_id] = {"cases": cases}
    executor_fixture = {"schema": "mock-executor@1", "seed": 0, "functions": functions}
    write_json(OUT / "mock_executor.json", executor_fixture)

    # Drive the real loop with planned completions, recording every prompt.
    recorded: dict[str, str] = {}
    backend = ScriptedDifferentialBackend(read_json(OUT / "mock_executor.json", "executor fixture"), seed=0)
    strategy = RepairStrategy("self_edit")
    retriever = RetrievalConfig(method="lcs")
    for index, task in enumerate(tasks):
        k, j = index // FUNCS_PER_FILE, index % FUNCS_PER_FILE
        g = k * FUNCS_PER_FILE + j
        expr = EXPRS[g % 5]
        oneliner = f"{{ return {expr}; }}"
        group = group_of(g)
        if group == "pass":
            plan = [oneliner]
            want_final = STATUS_PASS
        elif group == "undeclared":
            plan = [f"{{ return Registry{k}Impl.lookup(a) + b; }}", oneliner]
            want_final = STATUS_PASS
        else:
            plan = ["{ return a * b + 7; }", "{ return a * b + 9; }"]
            want_final = STATUS_FUNCTIONAL_MISMATCH
        client = PlanClient(plan, recorded)
        session = run_rar(
            task, client, backend, strategy, retriever_cfg=retriever, max_rounds=1
        )
        assert session.final_status == want_final, (
            task.task_id,
            group,
            session.final_status,
            [a.verdict.status for a in session.attempts],
        )
        assert not client.plan, f"unused plan entries for {task.task_id}"
        if group == "undeclared":
            first = session.attempts[0].verdict
            assert first.status == STATUS_COMPILE_ERROR, first
            snippet_texts = [s.text for s in session.attempts[1].snippets]
            assert any(f"interface Registry{k}" in t for t in snippet_texts), snippet_texts

    client_fixture = {
        "schema": "mock-client@1",
        "strict": True,
        "completions": dict(sorted(recorded.items())),
    }
    write_json(OUT / "mock_client.json", client_fixture)
    print(f"wrote {len(tasks)} tasks, {len(recorded)} scripted completions to {OUT}")


if __name__ == "__main__":
    main()
