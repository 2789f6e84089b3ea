"""Byte identity of generated corpora and CLI reports.

Every case regenerates a seed-1 corpus and runs one command through
`bibliorank.cli.main`; the SHA-256 digests of the corpus files, of every
report (provenance line included), of stdout and stderr, and the exit code
must equal those stored in `fixtures/cli_digests.json`. The stored digests
are the program's output before the refactors they guard; see
`fixtures/README.md`.
"""
import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from bibliorank.cli import main
from bibliorank.synthgen import GenConfig, generate

DIGESTS = Path(__file__).parent / "fixtures" / "cli_digests.json"

SEED = 1
# the three benchmark workload shapes and one where every SDS is a life
# science. Its bylines still name one university each, and a one-university
# byline is shared equally, so --scheme does not change its reports; the
# weighted path runs in test_cli.py::TestSchemeShares
SHAPES = {
    "national": dict(n_universities=20, n_sds=6, staff_min=2, staff_max=3,
                     unit_presence=1.0),
    "dense": dict(n_universities=6, n_sds=6, staff_min=6, staff_max=9,
                  unit_presence=1.0, pubs_per_researcher_year=3.0,
                  coauthorship_rate=0.6),
    "drilldown": dict(n_universities=6, n_sds=12, staff_min=2, staff_max=3,
                      unit_presence=1.0),
    "life_science": dict(n_universities=8, n_sds=6, staff_min=2, staff_max=4,
                         life_science_fraction=1.0, coauthorship_rate=0.6),
}
COMMANDS = {
    "indicators": ["indicators"],
    "rank": ["rank"],
    "compare": ["compare"],
    "drilldown": ["drilldown", "--university", "UNI001", "--uda", "UDA01",
                  "--min-staff", "1"],
}
FORMATS = ("csv", "json", "markdown")
RUNS = [f"{shape}-ingest" for shape in SHAPES] + [
    f"{shape}-{command}-{fmt}"
    for shape in SHAPES for command in COMMANDS for fmt in FORMATS]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digests(directory: Path) -> dict:
    return {p.name: sha256(p.read_bytes()) for p in sorted(directory.iterdir())}


def make_fileset(shape: str, directory: Path) -> Path:
    generate(GenConfig(seed=SEED, **SHAPES[shape]), directory)
    return directory


def run_digests(run: str, corpus_dir: Path, out_dir: Path) -> dict:
    """Exit code and digests of one CLI run named as in RUNS."""
    _, command, *fmt = run.split("-")
    argv = [command, "--input", str(corpus_dir)]
    if fmt:
        argv = COMMANDS[command] + ["--input", str(corpus_dir), "--out",
                                    str(out_dir), "--format", fmt[0]]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    return {"exit": code,
            "stdout": sha256(stdout.getvalue().encode()),
            "stderr": sha256(stderr.getvalue().encode()),
            "files": file_digests(out_dir) if out_dir.exists() else {}}


@pytest.fixture(scope="module")
def stored():
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def filesets(tmp_path_factory):
    cache = {}

    def fileset(shape):
        if shape not in cache:
            cache[shape] = make_fileset(shape, tmp_path_factory.mktemp(shape))
        return cache[shape]
    return fileset


def test_every_run_is_stored(stored):
    assert sorted(stored["corpus"]) == sorted(SHAPES)
    assert sorted(stored["runs"]) == sorted(RUNS)


@pytest.mark.parametrize("shape", list(SHAPES))
def test_generated_fileset(stored, filesets, shape):
    assert file_digests(filesets(shape)) == stored["corpus"][shape]


@pytest.mark.parametrize("run", RUNS)
def test_cli_run(stored, filesets, tmp_path, run):
    shape = run.split("-")[0]
    assert run_digests(run, filesets(shape), tmp_path / "out") == stored["runs"][run]
