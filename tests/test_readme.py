"""The README's Library example runs as written against `bibliorank synth --seed 42`."""
import re
from pathlib import Path

from bibliorank.synthgen import GenConfig, generate

README = Path(__file__).parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    generate(GenConfig(seed=42), tmp_path / "demo")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_example(), "README.md", "exec"), namespace)
    assert namespace["rl"].entries and namespace["table"].universities
