"""Examples stay runnable: import each script and drive its main().

Examples use the `small` model shape; to keep the suite fast only the
quicker ones run here (code_generation's full baseline takes ~15 s and is
covered by the Fig 6 benchmark instead).
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name",
    ["quickstart", "parameterized_prompts", "chat_session", "tiered_serving",
     "live_serving"],
)
def test_example_runs(name, capsys):
    module = load_example(name)
    module.main()
    out = capsys.readouterr().out
    assert out.strip(), f"example {name} produced no output"


def test_every_example_has_docstring_and_main():
    for path in sorted(EXAMPLES_DIR.glob("*.py")):
        source = path.read_text()
        assert source.lstrip().startswith('"""'), path.name
        assert "def main()" in source, path.name
        assert '__name__ == "__main__"' in source, path.name


def test_personalization_example_schema_valid():
    from repro.pml import Schema

    module = load_example("personalization")
    schema = Schema.parse(module.build_schema())
    assert len(schema.modules) == 30  # 6 categories x 5 traits


def test_code_generation_example_schema_valid():
    from repro.pml import Schema

    module = load_example("code_generation")
    schema = Schema.parse(module.build_schema())
    assert len(schema.modules) == 4
