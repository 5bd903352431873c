"""Seeded inputs for the solrepair benchmark.

For one workload and seed this writes, into an output directory:

  sources/*.sol  the contracts that `build` reads
  client.json    a scripted-client fixture (mock-client@1), recorded by
                 driving repair.run_rar with a plan-following client, as
                 scripts/gen_e2e_fixture.py does for the e2e fixture
  plan.json      what the program must produce: corpus stats, the sha256 of
                 the task file, each task's final status, pass@1 and
                 compilation@1

The plan follows from how the sources were written, not from running the
filter or the executor, so a defect in either shows as a mismatch. The same
seed gives the same files byte for byte.

Run as its own process, so that generation stays out of every timed figure
and out of the benchmark's peak RSS:

  python3 perfbench/workloads.py --workload NAME --seed N --out DIR [--smoke]
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

GROUP_PASS = "pass"  # first completion is correct
GROUP_UNDECLARED = "undeclared"  # uses an undeclared identifier; repair fixes it
GROUP_WRONG = "wrong"  # wrong arithmetic; the repair is wrong too


@dataclass(frozen=True)
class Shape:
    functions: tuple[int, ...]  # generated functions, one entry per file
    run_tasks: int | None = None  # run only the first N built tasks; None runs all


@dataclass(frozen=True)
class Workload:
    name: str
    context_budget: int
    max_rounds: int
    pool: bool  # run with one worker per CPU instead of one worker
    shape: Shape
    smoke: Shape
    mix: tuple[tuple[str, float], ...]  # completion groups over the run tasks


# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    w.name: w
    for w in (
        # filter_state_dependent rescans the whole file for every record, so
        # build is quadratic in functions per file; the short run keeps the
        # corpus layer the bulk of a pass.
        Workload(
            name="build-flat",
            context_budget=256,
            max_rounds=0,
            pool=False,
            shape=Shape(functions=(88, 24), run_tasks=12),
            smoke=Shape(functions=(24, 12), run_tasks=3),
            mix=((GROUP_WRONG, 1 / 3), (GROUP_PASS, 2 / 3)),
        ),
        # Every verify attempt scrubs and scans the whole 300-400 line file,
        # and LCS cost grows with query length squared times context lines, so
        # executor and retrieval carry the work. The pool shows GIL contention.
        Workload(
            name="repair-lcs",
            context_budget=8192,
            max_rounds=1,
            pool=True,
            shape=Shape(functions=(10, 10)),
            smoke=Shape(functions=(6,)),
            mix=((GROUP_UNDECLARED, 0.4), (GROUP_WRONG, 0.2), (GROUP_PASS, 0.4)),
        ),
        # Many e2e-shaped files and no repair: fixed per-task costs dominate
        # (orchestration, persist, client hashing, prompt render). Executor or
        # LCS work should not move it; persist and serialization changes should.
        Workload(
            name="complete-small",
            context_budget=256,
            max_rounds=0,
            pool=False,
            shape=Shape(functions=(10,) * 10),
            smoke=Shape(functions=(10,) * 3),
            mix=((GROUP_UNDECLARED, 0.3), (GROUP_WRONG, 0.2), (GROUP_PASS, 0.5)),
        ),
    )
}

PROTOCOLS = (
    "Uniswap", "Sushi", "Curve", "Balancer", "Aave", "Compound", "Chainlink",
    "Pancake", "Yearn", "Maker", "Synthetix", "Lido", "Convex", "Frax",
    "Gnosis", "Across",
)
ROLES = (
    "Router", "Factory", "Pair", "Oracle", "Vault", "Pool", "Aggregator",
    "Registry", "Controller", "Gauge", "Staking", "Bridge",
)
VERBS = (
    "compute", "quote", "scale", "blend", "settle", "accrue", "rebase",
    "price", "weigh", "split", "clamp", "convert",
)
NOUNS = (
    "Fee", "Share", "Reward", "Amount", "Rate", "Index", "Weight", "Debt",
    "Yield", "Margin", "Supply", "Buffer",
)
METHODS = (
    "getAmountOut", "getReserves", "latestAnswer", "balanceOf", "quote",
    "totalAssets", "previewDeposit", "convertToShares",
)

# Expressions the mock executor can evaluate; {c} and {m} are small constants.
EXPRESSIONS = (
    "a + b",
    "a * {c} + b",
    "(a + b) / {c}",
    "a + b * {c}",
    "a > b ? a - b : b - a",
    "a < b ? b : a",
    "(a * {c} + b) % {m}",
    "a * a + b",
)
WRONG_FIRST = "{ return a * b + 7; }"
WRONG_REPAIR = "{ return a * b + 9; }"


def pool_workers() -> int:
    """One worker per CPU this process may use, kept between 2 and 8."""
    return min(max(len(os.sched_getaffinity(0)), 2), 8)


def group_counts(mix: tuple[tuple[str, float], ...], n: int) -> list[str]:
    """Exactly round(share * n) tasks per group; the last group takes the rest."""
    labels: list[str] = []
    for group, share in mix[:-1]:
        labels += [group] * round(share * n)
    labels += [mix[-1][0]] * (n - len(labels))
    return labels


# The verdict of each attempt, by group, when one repair round is allowed.
ATTEMPTS = {
    GROUP_PASS: ("pass",),
    GROUP_UNDECLARED: ("compile_error", "pass"),
    GROUP_WRONG: ("functional_mismatch", "functional_mismatch"),
}


class Names:
    """Seeded identifiers, unique across all files of one workload.

    Unique names keep build's duplicate count exactly what the plan says and
    keep every undeclared-identifier variant undeclared.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.used: set[str] = set()
        self.parts: dict[str, tuple[str, int, str, int]] = {}

    def fresh(self, make) -> str:
        while True:
            name = make()
            if name not in self.used:
                self.used.add(name)
                return name

    def interface(self) -> str:
        r = self.rng

        def make() -> str:
            parts = (r.choice(PROTOCOLS), r.randint(1, 3), r.choice(ROLES), r.randint(1, 99))
            name = "I{}V{}{}{:02d}".format(*parts)
            self.parts[name] = parts
            return name

        return self.fresh(make)

    def function(self) -> str:
        r = self.rng
        return self.fresh(lambda: f"{r.choice(VERBS)}{r.choice(NOUNS)}{r.randint(0, 999)}")

    def undeclared_variant(self, decl: str) -> str:
        """An identifier a model might write for `decl`, declared nowhere.

        The variants share substrings of different lengths with the
        declaration, so LCS retrieval stops at different fragment lengths.
        """
        r = self.rng
        proto, version, role, number = self.parts[decl]
        other_version = version % 3 + 1
        variants = (
            lambda: f"{proto[0].lower()}{proto[1:]}V{version}{role}{number:02d}",
            lambda: decl + r.choice(("Impl", "Proxy", "Instance", "Adapter")),
            lambda: f"I{proto}V{other_version}{role}{number:02d}",
            lambda: f"{r.choice(VERBS)}{proto}{r.choice(ROLES)}",
        )
        return self.fresh(lambda: r.choice(variants)())


def arithmetic(rng: random.Random) -> list[str]:
    """Statements of an evaluable body over parameters a and b."""
    expr = rng.choice(EXPRESSIONS).format(c=rng.randint(2, 9), m=rng.randint(7, 13))
    if rng.random() < 0.5:
        return [f"return {expr};"]
    return [f"uint256 t = {expr};", f"return t + {rng.randint(1, 9)};"]


def one_line(statements: list[str]) -> str:
    return "{ " + " ".join(statements) + " }"


class Source:
    """A source file under construction; tracks the line numbers build will report."""

    def __init__(self, path: str) -> None:
        self.path = path
        self.lines: list[str] = []

    def add(self, *lines: str) -> None:
        self.lines.extend(lines)

    def function(self, doc: list[str], header: str, statements: list[str]) -> str:
        """Append a function and return the task id build gives it."""
        top = len(self.lines) + 1
        self.lines.extend(doc)
        self.lines.append(header + " {")
        self.lines.extend("        " + s for s in statements)
        self.lines.append("    }")
        end = len(self.lines)
        self.lines.append("")
        return f"{self.path}#L{top}-{end}"

    def text(self) -> str:
        return "\n".join(self.lines) + "\n"


@dataclass
class Task:
    """A function build must keep, with what its completions should be."""

    task_id: str
    correct: str  # a body that passes
    needed_decl: str | None = None  # declaration an undeclared-identifier repair needs
    undeclared: str | None = None  # the undeclared identifier, when there is one


def pure_header(name: str, visibility: str = "public") -> str:
    return f"    function {name}(uint256 a, uint256 b) {visibility} pure returns (uint256)"


def interface_block(src: Source, decl: str, rng: random.Random) -> None:
    m1, m2, m3 = rng.sample(METHODS, 3)
    src.add(
        f"/// @notice {decl[1:]} integration surface.",
        f"interface {decl} {{",
        f"    event Updated(address indexed account, uint256 value);",
        f"    function {m1}(uint256 amountIn, uint256 reserveIn) external view returns (uint256);",
        f"    function {m2}(address account) external view returns (uint256);",
        f"    function {m3}(uint256 amount, address to) external returns (bool);",
        "}",
        "",
    )


def undeclared_task(task_id, statements, decl, names) -> Task:
    return Task(
        task_id=task_id,
        correct=one_line(statements),
        needed_decl=f"interface {decl}",
        undeclared=names.undeclared_variant(decl),
    )


def emit_repair_lcs(index: int, n_functions: int, rng: random.Random, names: Names):
    """A 300-400 line file: interfaces first, then a contract of pure functions."""
    src = Source(f"adapter{index:02d}.sol")
    decls = [names.interface() for _ in range(30)]
    src.add("// SPDX-License-Identifier: MIT", "pragma solidity ^0.8.0;", "")
    for decl in decls:
        interface_block(src, decl, rng)
    lib = f"{decls[0][1:-2]}Math{index}"
    src.add(
        f"library {lib} {{",
        "    function mulDiv(uint256 x, uint256 y, uint256 d) internal pure returns (uint256) {",
        "        return x * y / d;",
        "    }",
        "}",
        "",
        f"contract {decls[1][1:-2]}Adapter{index} {{",
        f"    {decls[0]} public immutable primary;",
        f"    {decls[1]} public immutable secondary;",
        "    mapping(address => uint256) public balances;",
        "    uint256 public totalFees;",
        "",
    )
    tasks = []
    for _ in range(n_functions):
        name = names.function()
        statements = arithmetic(rng)
        task_id = src.function(
            [
                f"    /// @notice {name[0].upper() + name[1:]}: {statements[-1][7:-1]}.",
                "    /// @param a first operand",
                "    /// @param b second operand",
                "    /// @return the computed value",
            ],
            pure_header(name),
            statements,
        )
        tasks.append(undeclared_task(task_id, statements, rng.choice(decls), names))
    src.add("}")
    stats = {"declared": n_functions + 1, "uncommented": 1}
    return src, tasks, stats


def emit_complete_small(index: int, n_functions: int, rng: random.Random, names: Names):
    """The e2e fixture's shape: an interface, a library, a contract of one-liners."""
    src = Source(f"bank{index:03d}.sol")
    decl = names.interface()
    src.add(
        "pragma solidity ^0.8.0;",
        "",
        f"interface {decl} {{",
        f"    function {rng.choice(METHODS)}(uint256 key) external view returns (uint256);",
        "}",
        "",
        f"library Calc{index} {{",
        "    function twice(uint256 x) internal pure returns (uint256) { return x * 2; }",
        "}",
        "",
        f"contract Vault{index} {{",
    )
    tasks = []
    for _ in range(n_functions):
        name = names.function()
        expr = rng.choice(EXPRESSIONS).format(c=rng.randint(2, 9), m=rng.randint(7, 13))
        statements = [f"return {expr};"]
        task_id = src.function(
            [f"    /// Returns {expr} for the stored pair."],
            pure_header(name),
            statements,
        )
        tasks.append(undeclared_task(task_id, statements, decl, names))
    src.lines.pop()  # no blank line before the closing brace
    src.add("}")
    stats = {"declared": n_functions + 1, "uncommented": 1}
    return src, tasks, stats


# Shares of the contract functions in a flattened file, by what the filter
# must do with them. Kept functions take whatever the rounding leaves.
FLAT_KINDS = (
    ("uncommented", 0.10),
    ("mint", 0.08),
    ("owner-modifier", 0.08),
    ("owner-check", 0.08),
    ("constructor", 0.04),
    ("via-owner", 0.10),
    ("via-mint", 0.06),
)
FLAT_LIBRARY = 12  # shared library functions: kept once, exact duplicates after


def flat_library(names: Names, n: int) -> list[tuple[str, list[str]]]:
    """The library every flattened file repeats, as (name, statements)."""
    return [(names.function(), arithmetic(names.rng)) for _ in range(n)]


def emit_build_flat(index: int, n_functions: int, rng: random.Random, names: Names, library):
    """A flattened file: a shared library, interfaces, one large token contract.

    Contract functions are uncommented, mint-calling, owner-gated (modifier or
    msg.sender check), constructor-referencing, gated through a chain of
    calls, or kept. Kept functions call the library and each other, so the
    filter's transitive walk has work to do on them too. The library is kept
    from the first file only; its later copies are exact duplicates.
    """
    src = Source(f"flat{index:02d}.sol")
    src.add(
        "// SPDX-License-Identifier: MIT",
        "// Flattened source: library, interfaces and token in one file.",
        "pragma solidity ^0.8.0;",
        "",
        "library SafeCalc {",
    )
    tasks = []
    for name, statements in library:
        task_id = src.function(
            [f"    /// Library helper: {statements[-1][7:-1]}."],
            pure_header(name, "internal"),
            statements,
        )
        if index == 0:
            tasks.append(Task(task_id=task_id, correct=one_line(statements)))
    src.lines.pop()
    src.add("}", "")
    for _ in range(2):
        interface_block(src, names.interface(), rng)
    token = names.fresh(lambda: f"{rng.choice(PROTOCOLS)}Token{index}")
    src.add(
        f"contract {token} {{",
        "    address public owner;",
        "    uint256 public totalSupply;",
        "    mapping(address => uint256) public balanceOf;",
        "    mapping(uint256 => uint256) public params;",
        "",
        "    modifier onlyOwner() {",
        '        require(msg.sender == owner, "not owner");',
        "        _;",
        "    }",
        "",
        "    constructor() {",
        "        owner = msg.sender;",
        "    }",
        "",
        "    function _mint(address to, uint256 amount) internal {",
        "        balanceOf[to] += amount;",
        "        totalSupply += amount;",
        "    }",
        "",
    )
    kinds: list[str] = []
    for kind, share in FLAT_KINDS:
        kinds += [kind] * round(share * n_functions)
    kinds += ["keep"] * (n_functions - len(kinds))
    rng.shuffle(kinds)
    # Names are drawn up front, so a call may point later in the file.
    fn_names = [names.function() for _ in kinds]
    gated = [n for n, k in zip(fn_names, kinds) if k in ("owner-modifier", "owner-check")]
    minting = [n for n, k in zip(fn_names, kinds) if k == "mint"]
    callees = [f"SafeCalc.{n}" for n, _ in library]
    via_owner: list[str] = []
    counts = {"declared": len(library) + n_functions + 1, "uncommented": 1}
    for name, kind in zip(fn_names, kinds):
        counts[kind] = counts.get(kind, 0) + 1
        doc = [f"    /// {name[0].upper() + name[1:]} for the token."]
        if kind == "keep":
            statements = arithmetic(rng)
            if rng.random() < 0.5:
                statements = [f"return {rng.choice(callees)}(a, b) + {rng.randint(1, 9)};"]
            task_id = src.function(doc, pure_header(name), statements)
            tasks.append(Task(task_id=task_id, correct=one_line(statements)))
            callees.append(name)
            continue
        if kind == "uncommented":
            src.function([], pure_header(name), arithmetic(rng))
            continue
        if kind == "mint":
            header = f"    function {name}(address to, uint256 amount) public"
            statements = ["_mint(to, amount);"]
        elif kind == "owner-modifier":
            header = f"    function {name}(uint256 value) external onlyOwner"
            statements = [f"params[{rng.randint(0, 99)}] = value;"]
        elif kind == "owner-check":
            header = f"    function {name}(uint256 value) external"
            statements = [
                'require(msg.sender == owner, "not owner");',
                f"params[{rng.randint(0, 99)}] = value;",
            ]
        elif kind == "constructor":
            header = f"    function {name}() public"
            statements = [f"{token} fresh = {token}.constructor();"]
        elif kind == "via-owner":
            header = f"    function {name}(uint256 value) public"
            statements = [f"{rng.choice(gated + via_owner)}(value + {rng.randint(1, 9)});"]
            via_owner.append(name)
        else:  # via-mint
            header = f"    function {name}(address to, uint256 amount) public"
            statements = [f"{rng.choice(minting)}(to, amount * {rng.randint(2, 9)});"]
        src.function(doc, header, statements)
    src.lines.pop()
    src.add("}")
    return src, tasks, counts


def planned_stats(per_file: list[dict], n_files: int, library: int) -> dict:
    """The FilterReport build must write, from the kinds the files were made of."""

    def total(key: str) -> int:
        return sum(c.get(key, 0) for c in per_file)

    declared = total("declared")
    no_comment = total("uncommented")
    mint = total("mint") + total("via-mint")
    state = total("owner-modifier") + total("owner-check") + total("constructor") + total("via-owner")
    pool = declared - no_comment - mint - state
    dedup = (n_files - 1) * library
    return {
        "schema": "corpus-stats@1",
        "total_extracted": declared,
        "excluded_no_comment": no_comment,
        "excluded_mint": mint,
        "excluded_state_dependent": state,
        "retained": pool - dedup,
        "dedup_removed": dedup,
        "duplication_rate": dedup / max(1, pool),
    }


class PlanClient:
    """Feeds a fixed list of completions while recording prompt hashes."""

    name = "plan"

    def __init__(self, plan: list[str], recorded: dict[str, str]) -> None:
        self.plan = list(plan)
        self.recorded = recorded

    def complete(self, prompt: str, max_tokens: int):
        from solrepair.context import DEFAULT_COUNTER
        from solrepair.repair import ModelReply, prompt_hash

        text = self.plan.pop(0)
        key = prompt_hash(prompt)
        if self.recorded.setdefault(key, text) != text:
            raise RuntimeError("two prompts with one hash need different completions")
        return ModelReply(
            text=text,
            prompt_tokens=DEFAULT_COUNTER.count(prompt),
            completion_tokens=DEFAULT_COUNTER.count(text),
        )


def reply(body: str, rng: random.Random) -> str:
    """Model replies come bare or fenced, as real ones do."""
    return f"```solidity\n{body}\n```" if rng.random() < 0.5 else body


def run_config(workload: Workload, out: Path, task_file: Path, workers: int):
    from solrepair.harness import RunConfig

    return RunConfig(
        task_file=str(task_file),
        out_dir=str(out),
        source_root=str(out / "sources"),
        context_budget=workload.context_budget,
        counter="bytes4",
        strategy="self_edit",
        max_rounds=workload.max_rounds,
        workers=workers,
        retrieval={"method": "lcs"},
        executor="mock",
        mock_client=str(out / "client.json"),
    )


def generate(name: str, seed: int, out: Path, smoke: bool = False) -> dict:
    """Write sources, client fixture and plan for one workload; return the plan."""
    from solrepair.corpus import SourceFile, extract_functions, write_task_file
    from solrepair.harness import build_backend, load_tasks
    from solrepair.repair import RepairStrategy, run_rar
    from solrepair.retrieval import RetrievalConfig

    workload = WORKLOADS[name]
    shape = workload.smoke if smoke else workload.shape
    rng = random.Random(f"{name}:{seed}")
    sources = out / "sources"
    sources.mkdir(parents=True, exist_ok=True)

    built: list[tuple[Source, list[Task], dict]] = []
    names = Names(rng)
    library = []
    if name == "build-flat":
        library = flat_library(names, 4 if smoke else FLAT_LIBRARY)
    for index, n_functions in enumerate(shape.functions):
        file_rng = random.Random(rng.random())
        if name == "build-flat":
            built.append(emit_build_flat(index, n_functions, file_rng, names, library))
        elif name == "repair-lcs":
            built.append(emit_repair_lcs(index, n_functions, file_rng, names))
        else:
            built.append(emit_complete_small(index, n_functions, file_rng, names))

    # The records build must keep, in task-file order.
    keep = [task for _, tasks, _ in built for task in tasks]
    records = []
    for src, _, _ in built:
        text = src.text()
        (sources / src.path).write_text(text, encoding="utf-8")
        records += extract_functions(SourceFile.from_text(src.path, text))
    by_id = {r.task_id(): r for r in records}
    if any(t.task_id not in by_id for t in keep):
        raise RuntimeError("generated functions do not sit where the generator put them")
    kept_records = [by_id[t.task_id] for t in keep]
    task_file = out / "expected_tasks.jsonl"
    write_task_file(kept_records, task_file)
    tasks_sha = hashlib.sha256(task_file.read_bytes()).hexdigest()

    n_run = len(keep) if shape.run_tasks is None else shape.run_tasks
    run_file = out / "run_tasks.jsonl"
    write_task_file(kept_records[:n_run], run_file)
    task_file.unlink()

    workers = pool_workers() if workload.pool else 1
    config = run_config(workload, out, run_file, workers)
    run_tasks = load_tasks(config)
    backend = build_backend(config)
    strategy = RepairStrategy("self_edit")
    retriever = RetrievalConfig(**config.retrieval)
    groups = group_counts(workload.mix, n_run)
    rng.shuffle(groups)

    recorded: dict[str, str] = {}
    attempts: dict[str, list[str]] = {}
    needed_decl: dict[str, str] = {}
    for task, plan_task, group in zip(run_tasks, keep, groups):
        if group == GROUP_PASS:
            plan = [reply(plan_task.correct, rng)]
        elif group == GROUP_UNDECLARED:
            wrong = f"{{ return {plan_task.undeclared}.{rng.choice(METHODS)}(a) + b; }}"
            plan = [reply(wrong, rng), reply(plan_task.correct, rng)]
            needed_decl[task.task_id] = plan_task.needed_decl
        else:
            plan = [reply(WRONG_FIRST, rng), reply(WRONG_REPAIR, rng)]
        plan = plan[: 1 + workload.max_rounds]
        client = PlanClient(plan, recorded)
        session = run_rar(
            task, client, backend, strategy,
            retriever_cfg=retriever, max_rounds=workload.max_rounds,
        )
        want = list(ATTEMPTS[group][: 1 + workload.max_rounds])
        got = [a.verdict.status for a in session.attempts]
        if got != want or client.plan:
            raise RuntimeError(f"{task.task_id}: planned {group} {want} gave {got}")
        attempts[task.task_id] = want
    run_file.unlink()

    (out / "client.json").write_text(
        json.dumps(
            {"schema": "mock-client@1", "strict": True, "completions": dict(sorted(recorded.items()))},
            sort_keys=True,
        ),
        encoding="utf-8",
    )
    n_pass = sum(1 for a in attempts.values() if a[-1] == "pass")
    n_compiled = sum(1 for a in attempts.values() if a[-1] != "compile_error")
    plan = {
        "workload": name,
        "seed": seed,
        "smoke": smoke,
        "config": {
            "context_budget": workload.context_budget,
            "max_rounds": workload.max_rounds,
            "workers": workers,
            "strategy": "self_edit",
            "retrieval": config.retrieval,
            "counter": "bytes4",
        },
        "stats": planned_stats(
            [c for _, _, c in built],
            len(shape.functions) if name == "build-flat" else 1,
            len(library),
        ),
        "tasks_total": len(keep),
        "tasks_sha256": tasks_sha,
        "run_tasks": n_run,
        "attempts": list(attempts.items()),  # each task's verdicts, in task order
        "needed_decl": needed_decl,
        "pass_at_1": round(100.0 * n_pass / n_run, 2),
        "compilation_at_1": round(100.0 * n_compiled / n_run, 2),
        "source_files": len(shape.functions),
        "source_lines": sum(len(src.lines) for src, _, _ in built),
        "source_bytes": sum(len(src.text().encode()) for src, _, _ in built),
    }
    (out / "plan.json").write_text(json.dumps(plan, indent=1, sort_keys=True), encoding="utf-8")
    return plan


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    generate(args.workload, args.seed, Path(args.out), args.smoke)
    return 0


if __name__ == "__main__":
    sys.exit(main())
