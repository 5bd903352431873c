"""The fixture generators in scripts/ reproduce the committed fixtures byte
for byte: each script is run with its output directory pointed at a
temporary one, and every file it writes must equal the committed file of
the same name, with none missing (the e2e goldens are written by
tests/test_golden.py, not by a generator)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "tests" / "fixtures"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def files_under(root: Path) -> list[Path]:
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file() and p.parts[len(root.parts)] != "golden")


@pytest.mark.parametrize(
    "script,fixture,outputs",
    [
        ("gen_corpus_fixture", "corpus20", {"OUT": "."}),
        ("gen_e2e_fixture", "e2e", {"OUT": ".", "SOURCES": "sources"}),
    ],
)
def test_generator_reproduces_the_committed_fixture(script, fixture, outputs, tmp_path, monkeypatch, capsys):
    module = load_script(script)
    for name, sub in outputs.items():
        monkeypatch.setattr(module, name, tmp_path / sub)
    module.main()
    capsys.readouterr()
    written = files_under(tmp_path)
    assert written == files_under(FIXTURES / fixture)
    for rel in written:
        assert (tmp_path / rel).read_bytes() == (FIXTURES / fixture / rel).read_bytes(), rel
