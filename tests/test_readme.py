"""The README's examples run as written: the Library example against
`bibliorank synth --seed 42`, every command of the CLI example in order, and
the dense `synth` example writes the `dense` workload's corpus."""
import json
import re
import shlex
from pathlib import Path

from bibliorank.cli import main
from bibliorank.loader import FILESET
from bibliorank.synthgen import GenConfig, generate

from test_corpus import SCORING_REPORTS
from test_synthgen import SYNTH_DIGESTS, fileset_digest

README = Path(__file__).parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def cli_example(block: int = 0) -> list:
    """The `bibliorank` commands of the CLI section's sh block `block`, each
    with its continuation lines joined and split into words as a shell would."""
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    text = re.findall(r"```sh\n(.*?)```", section, re.S)[block]
    return [shlex.split(line) for line in text.replace("\\\n", " ").splitlines()
            if line.startswith("bibliorank ")]


def test_library_example_runs(tmp_path, monkeypatch):
    generate(GenConfig(seed=42), tmp_path / "demo")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_example(), "README.md", "exec"), namespace)
    assert namespace["rl"].entries and namespace["table"].universities


def test_cli_example_runs(tmp_path, monkeypatch):
    """Each command exits 0; `synth` writes a fileset and each scoring
    command its reports."""
    monkeypatch.chdir(tmp_path)
    commands = cli_example()
    assert [argv[1] for argv in commands] == [
        "synth", "ingest", "indicators", "rank", "compare", "drilldown"]
    for _, *argv in commands:
        before = set(tmp_path.rglob("*"))
        assert main(argv) == 0, argv
        written = {p.relative_to(tmp_path).as_posix() for p in set(tmp_path.rglob("*")) - before
                   if p.is_file()}
        command, out = argv[0], argv[argv.index("--out") + 1] if "--out" in argv else None
        if command == "synth":
            assert {f"{out}/{stem}.csv" for stem in FILESET} <= written
        else:
            assert written == {f"{out}/{name}.csv" for name in SCORING_REPORTS.get(command, ())}


def test_dense_synth_example_writes_the_dense_corpus(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    [(_, *argv)] = cli_example(1)
    assert argv[:3] == ["synth", "--seed", "1"]
    assert main(argv) == 0
    stored = json.loads(SYNTH_DIGESTS.read_text(encoding="utf-8"))
    assert fileset_digest(tmp_path / argv[argv.index("--out") + 1]) == stored["digests"]["dense"][1]
