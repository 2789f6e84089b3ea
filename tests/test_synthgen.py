import filecmp
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibliorank.cli import main
from bibliorank.errors import InvalidConfig, TooLarge
from bibliorank.loader import load_corpus
from bibliorank.model import validate
from bibliorank.oracle import Oracle
from bibliorank.synthgen import GenConfig, _draws, _two_positions, generate, make_corpus

from test_cli_digests import SHAPES

SYNTH_DIGESTS = Path(__file__).parent / "fixtures" / "synth_digests.json"
# the CLI digest shapes, the default config and the edges of each draw
DIGEST_SHAPES = {
    **SHAPES,
    "default": {},
    "citation_mean_0": dict(citation_mean=0.0),
    "coauthorship_rate_0": dict(coauthorship_rate=0.0),
    "coauthorship_rate_1": dict(coauthorship_rate=1.0),
    "coauthor_mean_0": dict(coauthor_mean=0.0),
    "coauthor_mean_8": dict(coauthor_mean=8.0, coauthorship_rate=1.0),
    "single_staff": dict(staff_min=1, staff_max=1, turnover_rate=0.0),
    "full_turnover": dict(turnover_rate=1.0, partial_year_rate=1.0),
}


class TestGenerate:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate(GenConfig(seed=1), a)
        generate(GenConfig(seed=1), b)
        for name in ("researchers.csv", "publications.csv", "authorships.csv",
                     "taxonomy.csv", "periods.csv", "manifest.json"):
            assert filecmp.cmp(a / name, b / name, shallow=False), name

    def test_different_seeds_differ(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        generate(GenConfig(seed=1), a)
        generate(GenConfig(seed=2), b)
        assert not filecmp.cmp(a / "publications.csv", b / "publications.csv",
                               shallow=False)

    def test_zero_turnover_keeps_rosters(self):
        corpus = make_corpus(GenConfig(seed=6, turnover_rate=0.0,
                                       partial_year_rate=0.0))
        for r in corpus.researchers:
            years = set(r.active_years)
            assert years & set(corpus.early.years)
            assert years & set(corpus.late.years)

    def test_manifest_matches_loader(self, tmp_path):
        manifest = generate(GenConfig(seed=9), tmp_path)
        corpus = load_corpus(tmp_path)
        assert manifest["n_researchers"] == len(corpus.researchers)
        assert manifest["n_publications"] == len(corpus.publications)
        assert manifest["n_authorships"] == len(corpus.authorships)
        on_disk = json.loads((tmp_path / "manifest.json").read_text())
        assert on_disk == manifest

    @pytest.mark.parametrize("seed", range(5))
    def test_output_validates_clean(self, seed):
        corpus = make_corpus(GenConfig(seed=seed))
        assert len(validate(corpus)) == 0

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            make_corpus(GenConfig(n_universities=0))
        with pytest.raises(InvalidConfig):
            make_corpus(GenConfig(turnover_rate=1.5))
        with pytest.raises(InvalidConfig):
            make_corpus(GenConfig(staff_min=3, staff_max=2))
        for field, config in (("n_universities", GenConfig(n_universities=10**9)),
                              ("pubs_per_researcher_year",
                               GenConfig(pubs_per_researcher_year=1e9))):
            with pytest.raises(InvalidConfig, match=field):
                make_corpus(config)
        for field, bad in (("pubs_per_researcher_year", (0.0, -1.0, 1e19, 1e300)),
                           ("citation_mean", (-1.0, 1e19, 1e300)),
                           ("citation_dispersion", (0.0, -1.0)),
                           ("coauthor_mean", (-1.0, 1e19, 1e300))):
            for value in bad + (float("nan"), float("inf"), float("-inf")):
                with pytest.raises(InvalidConfig, match=field):
                    make_corpus(GenConfig(**{field: value}))

    @pytest.mark.parametrize("period, message", [
        (dict(early=("P1", 2004, 2003)), "early period P1: start_year 2004 > end_year 2003"),
        (dict(late=("P1", 2004, 2008)), "both periods are labelled P1"),
        (dict(late=("P2", 2004)), "late must be (label, start_year, end_year)"),
        (dict(early=("P1", "2001", 2003)), "early must be a text label and two integer years"),
        (dict(late=("P2", 2004, 2**53 + 1)), "late must be a text label and two integer years"),
        (dict(early=("P\udcff", 2001, 2003)), "early must be a text label and two integer years"),
        (dict(early=("P1", True, 2003)), "early must be a text label and two integer years"),
        (dict(early=("", 2001, 2003)), "early must be a text label and two integer years"),
        (dict(early=("P\x00", 2001, 2003)), "early must be a text label and two integer years"),
        (dict(early=("P1", 2001, 2005)),
         "periods P1 and P2 overlap: P1 ends in 2005, P2 starts in 2004"),
        (dict(early=("P1", 2004, 2008), late=("P2", 2001, 2003)),
         "early period P1 starts after P2"),
        (dict(early=("P1", 2009, 2010)), "early period P1 starts after P2"),
    ])
    def test_a_bad_period(self, tmp_path, monkeypatch, period, message):
        """A period the corpus or the loader would refuse is an InvalidConfig
        before any generator is made, and nothing is written."""
        def no_generator(*args, **kwargs):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        with pytest.raises(InvalidConfig) as exc:
            generate(GenConfig(**period), tmp_path / "out")
        assert str(exc.value).startswith(message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("field, value, kind", [
        ("seed", 1.5, "int"), ("n_sds", 2.5, "int"), ("staff_max", 3.5, "int"),
        ("unit_presence", "0.5", "float"), ("n_universities", True, "int"),
        ("citation_mean", None, "float")])
    def test_a_value_of_the_wrong_type(self, tmp_path, monkeypatch, field, value, kind):
        """A value of the wrong type, a bool for a count included, is an
        InvalidConfig naming the field before any generator is made."""
        def no_generator(*args, **kwargs):
            raise AssertionError("a generator was made")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        with pytest.raises(InvalidConfig) as exc:
            generate(GenConfig(**{field: value}), tmp_path / "out")
        assert str(exc.value) == f"{field} must be {kind}, got {value!r}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("setting, column", [("citation_mean", "citations"),
                                                 ("coauthor_mean", "n_authors_total")])
    def test_a_count_the_loader_refuses(self, tmp_path, setting, column):
        """A mean numpy accepts can still draw a count over 2**53, which
        `ingest` would refuse: generate raises and writes nothing."""
        config = GenConfig(n_universities=1, n_sds=1, staff_min=1, staff_max=1,
                           **{setting: 1e17})
        with pytest.raises(InvalidConfig, match=rf"{setting} 1e\+17 drew {column} = \d{{18}}"):
            generate(config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_a_byline_over_2_to_the_32(self):
        """A byline of about 5e9 authors takes numpy's 64-bit draws, where a
        bounded 32-bit draw would never end; the position is `integers`'s."""
        corpus = make_corpus(GenConfig(seed=0, n_universities=1, n_sds=1, staff_min=1,
                                       staff_max=1, coauthor_mean=5e9))
        n_total = {p.pub_id: p.n_authors_total for p in corpus.publications}
        positions = {(a.pub_id, a.author_position): n_total[a.pub_id] for a in corpus.authorships}
        assert all(1 <= pos <= n for (_, pos), n in positions.items())
        assert positions[("PUB000001", 3_648_377_462)] == 5_000_137_366

    def test_low_citation_mean_hits_zero_medians(self):
        from bibliorank.baseline import build_baselines
        corpus = make_corpus(GenConfig(seed=0, citation_mean=0.2))
        table = build_baselines(corpus)
        assert any(e.median == 0 for e in table.entries.values())


def fileset_digest(directory: Path) -> str:
    """One SHA-256 over a fileset, as `synth_digests.json` describes it."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


class TestFilesetDigests:
    """Every (shape, seed) fileset equals the one stored in
    `fixtures/synth_digests.json`, recorded before the generator's draws were
    made cheaper. numpy does not promise one `Generator` stream across
    releases, so the stored digests hold for the numpy they name."""

    @pytest.fixture(scope="class")
    def stored(self):
        return json.loads(SYNTH_DIGESTS.read_text(encoding="utf-8"))

    def test_every_shape_is_stored(self, stored):
        assert stored["shapes"] == DIGEST_SHAPES
        assert stored["seeds"] == list(range(10))
        assert all(len(d) == 10 for d in stored["digests"].values())

    @pytest.mark.parametrize("shape", list(DIGEST_SHAPES))
    @pytest.mark.parametrize("seed", range(10))
    def test_fileset(self, stored, tmp_path, shape, seed):
        generate(GenConfig(seed=seed, **DIGEST_SHAPES[shape]), tmp_path)
        assert fileset_digest(tmp_path) == stored["digests"][shape][seed], (
            f"digests recorded with numpy {stored['numpy']}; "
            f"this run has numpy {np.__version__}")

    @pytest.mark.parametrize("shape", list(DIGEST_SHAPES))
    def test_synth_command(self, stored, tmp_path, capsys, shape):
        """`synth` has an option for every setting of every shape, and writes
        the same fileset as the library."""
        argv = [f"--{k.replace('_', '-')}={v}" for k, v in DIGEST_SHAPES[shape].items()]
        assert main(["synth", "--seed", "0", *argv, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().err == ""
        assert fileset_digest(tmp_path) == stored["digests"][shape][0]

    def test_synth_periods(self, tmp_path):
        """--early and --late take LABEL,START,END; a label may hold commas."""
        config = GenConfig(early=("P,1", 2000, 2002), late=("Q", 2003, 2004))
        assert main(["synth", "--early", "P,1,2000,2002", "--late", "Q,2003,2004",
                     "--out", str(tmp_path / "cli")]) == 0
        generate(config, tmp_path / "lib")
        assert fileset_digest(tmp_path / "cli") == fileset_digest(tmp_path / "lib")


def warmed_pair(seed: int, warm: int):
    """Two generators in one state, after `warm` 32-bit draws: an odd number
    leaves a 32-bit half buffered."""
    a, b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(warm):
        assert a.integers(0, 2) == b.integers(0, 2)
    return a, b


def assert_same_stream(a, b):
    assert a.bit_generator.state == b.bit_generator.state
    assert a.integers(0, 2**40) == b.integers(0, 2**40)
    assert a.random() == b.random()
    assert a.random(None, np.float32) == b.random(None, np.float32)


# the edges of each path: no draw, 32-bit draws with little and much
# rejection, the direct 32-bit draw, and numpy's 64-bit draws
EDGES = [1, 2, 3, 5, 2**31 - 1, 2**31, 2**31 + 1, 3 * 2**30, 2**32 - 1, 2**32,
         2**32 + 1, 2**33]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**63), warm=st.integers(0, 3),
       ns=st.lists(st.integers(1, 2**33) | st.sampled_from(EDGES), min_size=1, max_size=6))
def test_below_matches_integers(seed, warm, ns):
    """`below(n)` stands for integers(0, n): the same value and the generator
    left in the same state, from a generator with or without a 32-bit half
    buffered, over runs that mix 32-bit and 64-bit draws."""
    a, b = warmed_pair(seed, warm)
    below, _, _ = _draws(b)
    assert [int(a.integers(0, n)) for n in ns] == [below(n) for n in ns]
    assert_same_stream(a, b)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**63), warm=st.integers(0, 3),
       draws=st.lists(st.sampled_from(["random", "bit", *EDGES]) | st.integers(1, 2**33),
                      min_size=1, max_size=8))
def test_random_matches_random(seed, warm, draws):
    """`random()` stands for rng.random(): the same double and the generator
    left in the same state, from a generator with or without a 32-bit half
    buffered, over runs that mix it with `bit()` and `below(n)` draws."""
    a, b = warmed_pair(seed, warm)
    below, bit, random = _draws(b)
    numpy = {"random": a.random, "bit": lambda: int(a.integers(0, 2))}
    ours = {"random": random, "bit": bit}
    assert ([numpy[d]() if d in numpy else int(a.integers(0, d)) for d in draws]
            == [ours[d]() if d in ours else below(d) for d in draws])
    assert_same_stream(a, b)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**63), n=st.integers(1, 12), warm=st.integers(0, 3))
def test_one_position_draw_matches_choice(seed, n, warm):
    """A lone author's position is drawn with below(n) in place of
    choice(n, size=1, replace=False): numpy gives the same value and leaves the
    generator in the same state, whether or not a 32-bit half is buffered."""
    a, b = warmed_pair(seed, warm)
    below, _, _ = _draws(b)
    assert int(a.choice(n, size=1, replace=False)[0]) == below(n)
    assert_same_stream(a, b)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**63), n=st.integers(2, 64), warm=st.integers(0, 3))
def test_two_position_draw_matches_choice(seed, n, warm):
    """A coauthored byline's two positions come from Floyd's steps and one
    shuffle swap in place of choice(n, size=2, replace=False)."""
    a, b = warmed_pair(seed, warm)
    expected = tuple(int(v) for v in a.choice(n, size=2, replace=False))
    below, bit, _ = _draws(b)
    assert _two_positions(below, bit, n) == expected
    assert_same_stream(a, b)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**63), warm=st.integers(0, 3))
def test_category_coin_matches_two_way_integer(seed, warm):
    """A subject category is drawn with bit() in place of integers(0, 2):
    both read the top bit of one 32-bit draw."""
    a, b = warmed_pair(seed, warm)
    _, bit, _ = _draws(b)
    assert int(a.integers(0, 2)) == bit()
    assert_same_stream(a, b)


class TestOracleGuard:
    def test_too_large(self):
        corpus = make_corpus(GenConfig(seed=0, n_universities=40, n_sds=12,
                                       staff_min=3, staff_max=6,
                                       pubs_per_researcher_year=3.0))
        with pytest.raises(TooLarge):
            Oracle(corpus)

    def test_single_researcher_closed_form(self):
        corpus = make_corpus(GenConfig(seed=0, n_universities=1, n_sds=1,
                                       staff_min=1, staff_max=1,
                                       unit_presence=1.0, turnover_rate=0.0,
                                       partial_year_rate=0.0,
                                       coauthor_mean=0.0,
                                       coauthorship_rate=0.0))
        orc = Oracle(corpus, min_staff=1.0)
        scores = orc.unit_scores()
        for period in corpus.periods:
            n_pubs = sum(1 for p in corpus.publications
                         if p.year in period.years)
            expected = n_pubs / period.length_years
            assert scores[("UNI001", "SDS001", "P", period.label)] == \
                pytest.approx(expected)
