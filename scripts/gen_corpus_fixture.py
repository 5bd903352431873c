"""Generate tests/fixtures/corpus20: 20 synthetic contracts with known counts.

Design (asserted below): 110 body-bearing functions; 5 uncommented; 2
mint-filtered; 3 state-dependent (constructor reference, onlyOwner modifier,
transitive onlyOwner); 100 survive filtering; 13 unique, 87 exact duplicates
-> duplication_rate 0.87.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from solrepair.corpus import SourceIndex, build_corpus  # noqa: E402

OUT = Path(__file__).resolve().parents[1] / "tests" / "fixtures" / "corpus20"

N_FILES = 20
POOL_PER_FILE = 5
N_TEMPLATES = 13


def pool_function(t: int) -> str:
    return f"""
    /// Applies transform {t} to the input pair.
    function calc{t}(uint256 x, uint256 y) public pure returns (uint256) {{
        return x * {t + 1} + y;
    }}
"""


UNCOMMENTED = """
    function scratch{i}(uint256 x) public pure returns (uint256) {{
        return x + {i};
    }}
"""

MINT = """
    /// Issues new supply to the caller.
    function issue{i}(uint256 amount) public {{
        _mint(msg.sender, amount);
    }}
"""

CONSTRUCTOR_REF = """
    /// Re-runs constructor logic for migrations.
    function migrate() public {
        Token token = Token.constructor();
    }
"""

ONLY_OWNER = """
    /// Sweeps the balance to the owner.
    function sweep(uint256 amount) public onlyOwner {
        balance = balance - amount;
    }
"""

TRANSITIVE = """
    function drain() internal onlyOwner {
        balance = 0;
    }

    /// Empties the vault.
    function emptyVault() public {
        drain();
    }
"""


def build_file(i: int) -> str:
    parts = [f"pragma solidity ^0.8.0;\n\ncontract C{i:02d} {{\n    uint256 balance;\n"]
    if i < 4:
        parts.append(UNCOMMENTED.format(i=i))
    elif i in (4, 5):
        parts.append(MINT.format(i=i))
    elif i == 6:
        parts.append(CONSTRUCTOR_REF)
    elif i == 7:
        parts.append(ONLY_OWNER)
    elif i == 8:
        parts.append(TRANSITIVE)
    for j in range(POOL_PER_FILE):
        parts.append(pool_function((POOL_PER_FILE * i + j) % N_TEMPLATES))
    parts.append("}\n")
    return "".join(parts)


def main() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    for old in OUT.glob("*.sol"):
        old.unlink()
    sources = []
    for i in range(N_FILES):
        text = build_file(i)
        path = OUT / f"c{i:02d}.sol"
        path.write_text(text, encoding="utf-8")
        sources.append(SourceIndex.from_text(path.name, text))
    records, report = build_corpus(sources)
    expected = {
        "total_extracted": 110,
        "excluded_no_comment": 5,
        "excluded_mint": 2,
        "excluded_state_dependent": 3,
        "dedup_removed": 87,
        "retained": 13,
    }
    got = {k: getattr(report, k) for k in expected}
    assert got == expected, f"fixture drifted: {got}"
    assert abs(report.duplication_rate - 0.87) < 1e-12, report.duplication_rate
    print(f"wrote {N_FILES} files to {OUT}")
    print(report.to_json())


if __name__ == "__main__":
    main()
