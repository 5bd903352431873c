#!/usr/bin/env bash
# End-to-end checks of the `solrepair` command line on the committed
# fixtures: each runs the commands a user would and asserts what they print
# or write. The checks run in order and the script stops, with a non-zero
# exit, at the first that fails.
#
# Usage, from any directory:
#   bash scripts/cli_checks.sh                    # the installed console script
#   SOLREPAIR="python -m solrepair.cli" PYTHONPATH=src bash scripts/cli_checks.sh
#
# SOLREPAIR is the command that runs solrepair (default `solrepair`); it is
# split into words, so its parts must not hold spaces. PYTHON runs the
# inline checks (default `python`). Every file a check writes goes under
# one temporary directory, removed on exit.
set -eEuo pipefail
check=setup
trap 'echo "cli check failed: $check" >&2' ERR
cd "$(dirname "$0")/.."

SOLREPAIR=${SOLREPAIR:-solrepair}
PYTHON=${PYTHON:-python}
# `command` runs SOLREPAIR's first word as a program, never as this
# function, so the default `solrepair` reaches the console script.
solrepair() { command $SOLREPAIR "$@"; }

ROOT=$(mktemp -d)
trap 'rm -rf "$ROOT"' EXIT

# The README quickstart, one report per run: the fixture's pass@1 must read
# 40.00, then 80.00.
readme_quickstart() {
  FIX=tests/fixtures/e2e
  OUT=$(mktemp -d -p "$ROOT")
  common=(--tasks $FIX/tasks.jsonl --source-root $FIX/sources
          --mock-client $FIX/mock_client.json --mock-executor $FIX/mock_executor.json
          --executor mock --budget 2048 --counter bytes4)
  solrepair run "${common[@]}" --out $OUT/baseline --max-rounds 0
  solrepair run "${common[@]}" --out $OUT/repair --max-rounds 1 --retrieval lcs
  for run in baseline=40.00 repair=80.00; do
    name=${run%=*} want=${run#*=}
    solrepair report --outcomes $OUT/$name/outcomes.jsonl --sessions $OUT/$name/sessions.jsonl | tee $OUT/$name.txt
    awk -v want=$want '$1 == "pass@1" && $2 == want && $3 == want { ok = 1 } END { exit !ok }' $OUT/$name.txt
  done
}

# A session log with one wrongly typed value: `report` must exit 2 and name
# the value by its key path.
report_names_a_wrongly_typed_session_value() {
  FIX=tests/fixtures/e2e
  OUT=$(mktemp -d -p "$ROOT")
  solrepair run --tasks $FIX/tasks.jsonl --source-root $FIX/sources \
    --mock-client $FIX/mock_client.json --mock-executor $FIX/mock_executor.json \
    --executor mock --budget 2048 --counter bytes4 --out $OUT/repair --max-rounds 1 --retrieval lcs
  "$PYTHON" -c 'import json, sys; rows = [json.loads(line) for line in open(sys.argv[1])]; a = rows[0]["attempts"][0]; a["prompt_tokens"] = str(a["prompt_tokens"]); open(sys.argv[1], "w").write("".join(json.dumps(r) + "\n" for r in rows))' \
    $OUT/repair/sessions.jsonl
  code=0
  solrepair report --outcomes $OUT/repair/outcomes.jsonl --sessions $OUT/repair/sessions.jsonl 2> $OUT/err.txt || code=$?
  cat $OUT/err.txt
  test "$code" -eq 2
  grep -F "at key 'attempts[0].prompt_tokens'" $OUT/err.txt
}

# `verify` over the fixture: each task's own body, ending in a newline as a
# model reply does, is read as `run` reads a reply and must pass.
verify_the_fixtures_own_bodies() {
  FIX=tests/fixtures/e2e
  OUT=$(mktemp -d -p "$ROOT")
  "$PYTHON" -c 'import json, sys; [print(json.dumps({"task_id": r["id"], "body": r["body"] + "\n"})) for r in map(json.loads, open(sys.argv[1]))]' \
    $FIX/tasks.jsonl > $OUT/completions.jsonl
  solrepair verify --tasks $FIX/tasks.jsonl --source-root $FIX/sources --mock-executor $FIX/mock_executor.json \
    --executor mock --completions $OUT/completions.jsonl --verdicts $OUT/verdicts.jsonl
  test "$(grep -c '"status":"pass"' $OUT/verdicts.jsonl)" -eq 50
}

# `verify` over the scope probes: each row must get the status, and a
# compile_error the undeclared identifier, that expected.jsonl gives.
verify_the_scope_probes() {
  FIX=tests/fixtures/scope
  OUT=$(mktemp -d -p "$ROOT")
  solrepair verify --tasks $FIX/tasks.jsonl --source-root $FIX/sources --executor mock \
    --completions $FIX/completions.jsonl --verdicts $OUT/verdicts.jsonl
  "$PYTHON" -c 'import json, sys; got = [json.loads(line)["verdict"] for line in open(sys.argv[1])]; want = [json.loads(line) for line in open(sys.argv[2])]; seen = [(v["status"], v["diagnostics"][0]["identifier"] if v["status"] == "compile_error" else None) for v in got]; bad = [w["probe"] for s, w in zip(seen, want) if s != (w["status"], w["identifier"])]; print("wrong verdicts:", bad); sys.exit(len(got) != len(want) or bool(bad))' \
    $OUT/verdicts.jsonl $FIX/expected.jsonl
}

# `build` over the fixture's sources must reproduce the committed task file
# and stats byte for byte.
build_the_fixtures_task_file() {
  FIX=tests/fixtures/e2e
  OUT=$(mktemp -d -p "$ROOT")
  solrepair build --sources $FIX/sources --tasks $OUT/tasks.jsonl --stats $OUT/stats.json
  cmp $OUT/tasks.jsonl $FIX/tasks.jsonl
  cmp $OUT/stats.json $FIX/stats.json
}

# `build` over corpus20: the stats must give the counts
# scripts/gen_corpus_fixture.py designs, one or more for each exclusion
# bucket of the deny-list (mint calls; a constructor reference, an
# onlyOwner modifier and one reached through a call), and the duplicates.
build_corpus20_through_every_deny_list_bucket() {
  OUT=$(mktemp -d -p "$ROOT")
  solrepair build --sources tests/fixtures/corpus20 --tasks $OUT/tasks.jsonl --stats $OUT/stats.json
  "$PYTHON" -c 'import json, sys; got = json.load(open(sys.argv[1])); want = {"schema": "corpus-stats@1", "total_extracted": 110, "excluded_no_comment": 5, "excluded_mint": 2, "excluded_state_dependent": 3, "retained": 13, "dedup_removed": 87, "duplication_rate": 0.87}; print(got); sys.exit(got != want)' \
    $OUT/stats.json
}

# `build` over a source whose declarations hold comments between `function`
# and the name and inside parameter lists: it must exit 0 and keep the four
# functions the deny-list leaves.
build_commented_declarations() {
  OUT=$(mktemp -d -p "$ROOT")
  solrepair build --sources tests/fixtures/commented/sources --tasks $OUT/tasks.jsonl --stats $OUT/stats.json
  "$PYTHON" -c 'import json, sys; got = json.load(open(sys.argv[1])); print(got); sys.exit(got["retained"] != 4 or got["excluded_state_dependent"] != 2)' \
    $OUT/stats.json
  test "$(wc -l < $OUT/tasks.jsonl)" -eq 4
}

# An outcomes row holding an integer literal longer than Python converts is
# malformed JSON: `report` must exit 2 and name its line.
report_names_a_row_with_an_over_long_integer() {
  FIX=tests/fixtures/e2e
  OUT=$(mktemp -d -p "$ROOT")
  solrepair run --tasks $FIX/tasks.jsonl --source-root $FIX/sources \
    --mock-client $FIX/mock_client.json --mock-executor $FIX/mock_executor.json \
    --executor mock --budget 2048 --counter bytes4 --out $OUT/run --max-rounds 0
  { head -n 1 $OUT/run/outcomes.jsonl; printf '{"task_id":"x","n":%s}\n' "$(printf '1%.0s' $(seq 5000))"; } > $OUT/outcomes.jsonl
  code=0
  solrepair report --outcomes $OUT/outcomes.jsonl 2> $OUT/err.txt || code=$?
  cut -c 1-200 $OUT/err.txt
  test "$code" -eq 2
  grep -F "$OUT/outcomes.jsonl, line 2: malformed JSON" $OUT/err.txt
}

# A run cut mid-row, as a crash leaves it, must resume to the same outcomes
# file byte for byte as the run that was never cut.
resume_after_a_torn_outcomes_row() {
  FIX=tests/fixtures/e2e
  OUT=$(mktemp -d -p "$ROOT")
  common=(--tasks $FIX/tasks.jsonl --source-root $FIX/sources
          --mock-client $FIX/mock_client.json --mock-executor $FIX/mock_executor.json
          --executor mock --budget 2048 --counter bytes4 --max-rounds 1 --retrieval lcs)
  solrepair run "${common[@]}" --out $OUT/whole
  cp -r $OUT/whole $OUT/cut
  size=$(stat -c %s $OUT/cut/outcomes.jsonl)
  last=$(tail -n 1 $OUT/cut/outcomes.jsonl | wc -c)
  truncate -s $((size - last / 2)) $OUT/cut/outcomes.jsonl
  solrepair run "${common[@]}" --out $OUT/cut
  cmp $OUT/cut/outcomes.jsonl $OUT/whole/outcomes.jsonl
}

# An outcomes row holding `"n":2`, two sessions for one task: `report`
# must exit 2 and name the row's line, since a task has one session.
report_rejects_an_outcome_row_of_two_sessions() {
  OUT=$(mktemp -d -p "$ROOT")
  sed '3s/"n":1,/"n":2,/' tests/fixtures/e2e/golden/outcomes.r1.jsonl > $OUT/outcomes.jsonl
  code=0
  solrepair report --outcomes $OUT/outcomes.jsonl 2> $OUT/err.txt || code=$?
  cat $OUT/err.txt
  test "$code" -eq 2
  grep -F "$OUT/outcomes.jsonl, line 3: bank0.sol#L22-25: n=2, but a task has one session (n=1)" $OUT/err.txt
}

# A run config holding `n_samples`, a field of earlier versions: `run` must
# exit 2, name the key and leave no output directory.
run_config_with_n_samples_exits_2() {
  FIX=tests/fixtures/e2e
  OUT=$(mktemp -d -p "$ROOT")
  echo '{"n_samples": 2}' > $OUT/run.json
  code=0
  solrepair run --config $OUT/run.json --tasks $FIX/tasks.jsonl --source-root $FIX/sources \
    --mock-client $FIX/mock_client.json --mock-executor $FIX/mock_executor.json \
    --executor mock --out $OUT/run 2> $OUT/err.txt || code=$?
  cat $OUT/err.txt
  test "$code" -eq 2
  grep -F "unexpected keyword argument 'n_samples'" $OUT/err.txt
  test ! -e $OUT/run
}

# `report` without `--sessions` cannot know the cost: the table must say
# so rather than print 0, the cost of a free run.
report_without_sessions_prints_unknown_cost() {
  OUT=$(mktemp -d -p "$ROOT")
  solrepair report --outcomes tests/fixtures/e2e/golden/outcomes.r1.jsonl | tee $OUT/report.txt
  test "$(tail -n 1 $OUT/report.txt)" = "total cost (USD): unknown (no --sessions)"
}

# `report` given the sessions of another run, over the fixture's first 10
# tasks, for a run over all 50: it must exit 2 and name the outcome row of
# the 11th task, the first that has no session row.
report_rejects_another_runs_sessions() {
  FIX=tests/fixtures/e2e
  OUT=$(mktemp -d -p "$ROOT")
  head -n 10 $FIX/tasks.jsonl > $OUT/tasks.jsonl
  common=(--source-root $FIX/sources --mock-client $FIX/mock_client.json --mock-executor $FIX/mock_executor.json
          --executor mock --budget 2048 --counter bytes4 --max-rounds 0)
  solrepair run "${common[@]}" --tasks $FIX/tasks.jsonl --out $OUT/all
  solrepair run "${common[@]}" --tasks $OUT/tasks.jsonl --out $OUT/first10
  code=0
  solrepair report --outcomes $OUT/all/outcomes.jsonl --sessions $OUT/first10/sessions.jsonl 2> $OUT/err.txt || code=$?
  cat $OUT/err.txt
  test "$code" -eq 2
  grep -F "$OUT/all/outcomes.jsonl: bank1.sol#L12-15: 1 outcome row(s) but 0 session row(s)" $OUT/err.txt
}

# `report` given the sessions of another run over the same tasks, the
# README quickstart's repair run for its baseline's outcomes: the task ids
# pair, but the outcome rows are not the fold of these sessions, so it must
# exit 2 and name the first task whose row differs and both files.
report_rejects_the_sessions_of_another_run_over_the_same_tasks() {
  FIX=tests/fixtures/e2e
  OUT=$(mktemp -d -p "$ROOT")
  common=(--tasks $FIX/tasks.jsonl --source-root $FIX/sources
          --mock-client $FIX/mock_client.json --mock-executor $FIX/mock_executor.json
          --executor mock --budget 2048 --counter bytes4)
  solrepair run "${common[@]}" --out $OUT/baseline --max-rounds 0
  solrepair run "${common[@]}" --out $OUT/repair --max-rounds 1 --retrieval lcs
  code=0
  solrepair report --outcomes $OUT/baseline/outcomes.jsonl --sessions $OUT/repair/sessions.jsonl 2> $OUT/err.txt || code=$?
  cat $OUT/err.txt
  test "$code" -eq 2
  grep -F "$OUT/baseline/outcomes.jsonl: bank0.sol#L22-25: the outcome row is not the fold of its session row in $OUT/repair/sessions.jsonl" $OUT/err.txt
}

# An outcome row of the README quickstart's repair run edited to another
# context budget: a session row records its budget, so the row is not the
# fold of its session row, and `report` must exit 2 naming row 3's task and
# both files.
report_rejects_an_outcome_row_of_another_budget() {
  FIX=tests/fixtures/e2e
  OUT=$(mktemp -d -p "$ROOT")
  solrepair run --tasks $FIX/tasks.jsonl --source-root $FIX/sources \
    --mock-client $FIX/mock_client.json --mock-executor $FIX/mock_executor.json \
    --executor mock --budget 2048 --counter bytes4 --out $OUT/repair --max-rounds 1 --retrieval lcs
  sed -i '3s/"context_budget":2048/"context_budget":4096/' $OUT/repair/outcomes.jsonl
  code=0
  solrepair report --outcomes $OUT/repair/outcomes.jsonl --sessions $OUT/repair/sessions.jsonl 2> $OUT/err.txt || code=$?
  cat $OUT/err.txt
  test "$code" -eq 2
  grep -F "$OUT/repair/outcomes.jsonl: bank0.sol#L22-25: the outcome row is not the fold of its session row in $OUT/repair/sessions.jsonl" $OUT/err.txt
}

# An outcome row whose `context_budget` is null, which `run` never writes:
# `report`, even without `--sessions`, must exit 2 naming line 1 and the
# key, not print a `none` column.
report_rejects_a_null_budget() {
  FIX=tests/fixtures/e2e
  OUT=$(mktemp -d -p "$ROOT")
  solrepair run --tasks $FIX/tasks.jsonl --source-root $FIX/sources \
    --mock-client $FIX/mock_client.json --mock-executor $FIX/mock_executor.json \
    --executor mock --budget 2048 --counter bytes4 --out $OUT/baseline --max-rounds 0
  sed -i 's/"context_budget":2048/"context_budget":null/' $OUT/baseline/outcomes.jsonl
  code=0
  solrepair report --outcomes $OUT/baseline/outcomes.jsonl > $OUT/report.txt 2> $OUT/err.txt || code=$?
  cat $OUT/report.txt $OUT/err.txt
  test "$code" -eq 2
  grep -F "$OUT/baseline/outcomes.jsonl, line 1: expected int, got NoneType at key 'context_budget'" $OUT/err.txt
}

# A task row holding `"contract_type":null`, a key of `tasks@1`: `run`
# must exit 2, name the key and leave no output directory.
run_rejects_a_task_row_with_contract_type() {
  FIX=tests/fixtures/e2e
  OUT=$(mktemp -d -p "$ROOT")
  sed 's/,"id":/,"contract_type":null,"id":/' $FIX/tasks.jsonl > $OUT/tasks.jsonl
  code=0
  solrepair run --tasks $OUT/tasks.jsonl --source-root $FIX/sources \
    --mock-client $FIX/mock_client.json --mock-executor $FIX/mock_executor.json \
    --executor mock --out $OUT/run 2> $OUT/err.txt || code=$?
  cat $OUT/err.txt
  test "$code" -eq 2
  grep -F "$OUT/tasks.jsonl, line 1: bad task row: FunctionRecord.__init__() got an unexpected keyword argument 'contract_type'" $OUT/err.txt
  test ! -e $OUT/run
}

# `build` and `run` over the fixture: every row of the task file and of
# both logs must be exactly the bytes json.dumps writes for the row's value
# with sorted keys and compact separators, then a newline.
rows_are_canonical_json() {
  FIX=tests/fixtures/e2e
  OUT=$(mktemp -d -p "$ROOT")
  solrepair build --sources $FIX/sources --tasks $OUT/tasks.jsonl --stats $OUT/stats.json
  solrepair run --tasks $OUT/tasks.jsonl --source-root $FIX/sources \
    --mock-client $FIX/mock_client.json --mock-executor $FIX/mock_executor.json \
    --executor mock --budget 2048 --counter bytes4 --out $OUT/run --max-rounds 1 --retrieval lcs
  "$PYTHON" -c 'import json, sys; bad = [(p, n) for p in sys.argv[1:] for n, line in enumerate(open(p, encoding="utf-8", newline=""), 1) if line != json.dumps(json.loads(line), sort_keys=True, separators=(",", ":")) + "\n"]; print("rows not canonical:", bad); sys.exit(bool(bad) or any(not open(p).read() for p in sys.argv[1:]))' \
    $OUT/tasks.jsonl $OUT/run/outcomes.jsonl $OUT/run/sessions.jsonl
}

# A one-function contract whose body divides by zero on every input:
# `verify` of the body's own steps, laid out otherwise, must pass without
# evaluating the oracle (exit 0), while a body that needs the oracle's
# outputs must still exit 3 with the oracle's failure.
verify_passes_the_oracle_own_steps_without_running_it() {
  OUT=$(mktemp -d -p "$ROOT")
  mkdir $OUT/sources
  printf '%s\n' 'pragma solidity ^0.8.0;' '' 'contract D {' '    /// Divides by a difference.' \
    '    function div(uint256 a, uint256 b) public pure returns (uint256) {' '        return a / (b - b);' '    }' '}' \
    > $OUT/sources/d.sol
  solrepair build --sources $OUT/sources --tasks $OUT/tasks.jsonl --stats $OUT/stats.json
  for body in '{ return a / (b - b); }=0=pass' '{ return a; }=3=executor_unavailable'; do
    IFS== read -r text want status <<< "$body"
    "$PYTHON" -c 'import json, sys; print(json.dumps({"task_id": json.loads(open(sys.argv[1]).readline())["id"], "body": sys.argv[2]}))' \
      $OUT/tasks.jsonl "$text" > $OUT/completions.jsonl
    code=0
    solrepair verify --tasks $OUT/tasks.jsonl --source-root $OUT/sources --executor mock \
      --completions $OUT/completions.jsonl --verdicts $OUT/verdicts.jsonl || code=$?
    cat $OUT/verdicts.jsonl
    test "$code" -eq "$want"
    grep -F "\"status\":\"$status\"" $OUT/verdicts.jsonl
  done
  grep -F '"message":"oracle evaluation failed: division by zero"' $OUT/verdicts.jsonl
}

# `verify` on the e2e tasks without the executor table: each task's own
# body laid out otherwise passes, and the same body with a no-break space
# leading its second line is a compile_error on that line.
verify_passes_a_relaid_oracle_body_and_faults_a_no_break_space() {
  FIX=tests/fixtures/e2e
  OUT=$(mktemp -d -p "$ROOT")
  for layout in '\n\t  =pass' '\n\u00a0=compile_error'; do
    IFS== read -r space status <<< "$layout"
    "$PYTHON" -c 'import json, sys; space = sys.argv[2].encode().decode("unicode_escape"); [print(json.dumps({"task_id": r["id"], "body": r["body"].replace("\n", space, 1)})) for r in map(json.loads, open(sys.argv[1]))]' \
      $FIX/tasks.jsonl "$space" > $OUT/completions.jsonl
    solrepair verify --tasks $FIX/tasks.jsonl --source-root $FIX/sources --executor mock \
      --completions $OUT/completions.jsonl --verdicts $OUT/verdicts.jsonl
    test "$(grep -c "\"status\":\"$status\"" $OUT/verdicts.jsonl)" -eq 50
  done
  test "$(grep -cF '"line":2,"message":"Invalid character U+00A0 outside a comment or string literal."' $OUT/verdicts.jsonl)" -eq 50
}

for check in \
  readme_quickstart \
  report_names_a_wrongly_typed_session_value \
  verify_the_fixtures_own_bodies \
  verify_the_scope_probes \
  build_the_fixtures_task_file \
  build_corpus20_through_every_deny_list_bucket \
  build_commented_declarations \
  report_names_a_row_with_an_over_long_integer \
  resume_after_a_torn_outcomes_row \
  report_rejects_an_outcome_row_of_two_sessions \
  run_config_with_n_samples_exits_2 \
  report_without_sessions_prints_unknown_cost \
  report_rejects_another_runs_sessions \
  report_rejects_the_sessions_of_another_run_over_the_same_tasks \
  report_rejects_an_outcome_row_of_another_budget \
  report_rejects_a_null_budget \
  run_rejects_a_task_row_with_contract_type \
  rows_are_canonical_json \
  verify_passes_the_oracle_own_steps_without_running_it \
  verify_passes_a_relaid_oracle_body_and_faults_a_no_break_space
do
  echo "== $check"
  $check
done
echo "cli checks: all passed"
