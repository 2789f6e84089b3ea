#!/usr/bin/env python3
"""bibliorank benchmark: seeded synthetic corpora run through the real CLI.

    python3 perfbench/run.py --workload national --seed 0 --seconds 30 --trace 0

Each workload is one client in a closed loop: every CLI command
(`python -m bibliorank.cli ...`, with PYTHONPATH=src) starts only after the
previous one has exited. The corpus comes from `synthgen.generate` with the
workload's generator settings and the given seed; the commands see only the
generated fileset. With --trace 0 the run prints the end-to-end metrics of
BENCHMARK.json; with --trace 1 it runs the same commands in-process under
perfbench/tracer.py and prints the per-layer metrics. Every report is checked
against stored SHA-256 digests (perfbench/digests.json) or, for a seed with
none stored, against its own earlier repeats. The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
WORK_ROOT = ROOT / ".bench_work"
WORKLOADS = json.loads((HERE / "workloads.json").read_text())["workloads"]

CHAIN = ("ingest", "indicators", "rank", "compare")
INDICATORS = ("P", "FP", "AQ", "FSS")
REPORTS = {
    "ingest": (),
    "indicators": ("unit_scores", "researcher_scores", "uda_scores"),
    "rank": ("rank_lists", "quintiles"),
    "compare": ("shift_stats", "transition_matrices", "university_shift_table",
                "shift_balance"),
    "drilldown": ("sds_drilldown", "indicator_comparison"),
}
# setup_s is a median over at least SETUP_REPEATS generations, made through
# the run's --seconds until they take SETUP_SHARE of them, so that small
# corpora are generated more often; set-up counts towards --seconds
SETUP_REPEATS = 5
SETUP_SHARE = 1 / 6
# p90 needs at least ten queries beyond it; a run that has not done them after
# MIN_QUERIES_GIVE_UP_S stops at its deadline anyway, to end well within 180 s
MIN_QUERIES = 100
MIN_QUERIES_GIVE_UP_S = 120
# queries between two report rounds of the drilldown workload: MIN_QUERIES
# take eight blocks, so a run has at least nine report rounds
QUERY_BLOCK = 13
# drilldown queries in one in-process traced session: TRACED_QUERIES on the
# drilldown workload, one on the others, so that every span is timed on
# every workload
TRACED_QUERIES = 16
IMPORT_REPEATS = 5
# The machine's speed drifts by a third or more over tens of seconds. Through
# each run the benchmark spends REF_SHARE of the time on a fixed reference task
# that does not use bibliorank (see Speed), and reports the end-to-end times
# at reference speed: scaled by REF_NOMINAL_S over the reference's mean wall
# time in the run. REF_NOMINAL_S is about that time on the machine described
# in workloads.json when it is quiet.
REF_SHARE = 0.15
REF_NOMINAL_S = 0.1

# Functions timed with spans in the traced run; their calls are counted too.
SPANS = (
    "aggregate.sds_unit_scores", "aggregate.uda_score", "aggregate.rescale_sds",
    "indicators.unit_indicator", "indicators.researcher_indicator",
    "loader.load_corpus", "model.validate", "baseline.build_baselines",
    "rankshift.uda_rank_list", "rankshift.assign_quintiles",
    "rankshift.university_shift_table", "rankshift.sds_rank_list",
    "cli.Emitter.write", "cli._corpus_hash",
)
# Hot leaves, only counted, and only in the counts-only pass.
COUNTED = ("model.staff", "baseline.standardize_citations",
           "baseline.BaselineTable.smallest_positive")
SETUP_SPANS = ("synthgen.make_corpus", "loader.write_corpus")
# metric prefix -> traced name, where the two differ
TRACED_NAME = {"baseline.smallest_positive": "baseline.BaselineTable.smallest_positive"}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclasses.dataclass(frozen=True)
class Op:
    """One CLI command of a session."""
    command: str
    university: str = ""
    uda: str = ""
    indicator: str = ""

    @property
    def key(self):
        return " ".join(x for x in (self.command, self.university, self.uda,
                                    self.indicator) if x)

    def argv(self, corpus_dir, out_dir):
        argv = [self.command, "--input", str(corpus_dir)]
        if self.command != "ingest":
            argv += ["--out", str(out_dir)]
        if self.command == "drilldown":
            argv += ["--university", self.university, "--uda", self.uda,
                     "--indicator", self.indicator, "--min-staff", "1"]
        return argv

    def report_keys(self):
        """report -> key under which its digest is stored and compared.

        indicator_comparison does not depend on --indicator, so the four
        queries of one (university, UDA) pair must agree on it."""
        keys = {r: f"{self.key}/{r}" for r in REPORTS[self.command]}
        if self.command == "drilldown":
            keys["indicator_comparison"] = (
                f"drilldown {self.university} {self.uda}/indicator_comparison")
        return keys


def body_digest(path: Path) -> str:
    """SHA-256 of a report without its provenance line."""
    data = path.read_bytes()
    if data.startswith(b"#"):
        data = data.split(b"\n", 1)[1] if b"\n" in data else b""
    return hashlib.sha256(data).hexdigest()


def fileset_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(directory.iterdir()):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _is_error_line(line: str) -> bool:
    try:
        record = json.loads(line)
    except ValueError:
        return False
    return isinstance(record, dict) and "error" in record


class Checker:
    """Counts operations and failures: a non-zero exit, a JSON error line on
    stderr, a missing report, or a report digest that differs from the stored
    one (or, with none stored, from an earlier report under the same key)."""

    def __init__(self, stored):
        self.stored = stored
        self.seen = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, op: Op, rc: int, stderr: str, out_dir: Path) -> int:
        """Record one operation; returns the bytes of its reports."""
        self.attempted += 1
        problems, emitted = [], 0
        if rc != 0:
            problems.append(f"exit status {rc}")
        if any(_is_error_line(line) for line in stderr.splitlines()):
            problems.append("JSON error line on stderr")
        for report, key in op.report_keys().items():
            path = out_dir / f"{report}.csv"
            if not path.is_file():
                problems.append(f"{report} not written")
                continue
            emitted += path.stat().st_size
            digest = body_digest(path)
            expected = self.stored.get(key) if self.stored else None
            if expected is None:
                expected = self.seen.setdefault(key, digest)
            if digest != expected:
                problems.append(f"{report} digest mismatch")
        if problems:
            self.failed += 1
            self.problems.append(f"{op.key}: {'; '.join(problems)}")
        return emitted


def load_stored(workload: str, seed: int):
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


def run_child(argv, log_dir: Path):
    """Run one child process to completion: (exit code, stderr, wall s, rusage)."""
    log_dir.mkdir(parents=True, exist_ok=True)
    with open(log_dir / "stdout", "wb") as out, open(log_dir / "stderr", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = (log_dir / "stderr").read_text(errors="replace")
    return proc.returncode, stderr, wall, usage


def run_cli_child(op: Op, corpus_dir: Path, out_dir: Path):
    argv = [sys.executable, "-m", "bibliorank.cli"] + op.argv(corpus_dir, out_dir)
    return run_child(argv, out_dir.parent / "log")


def run_cli_inproc(cli, op: Op, corpus_dir: Path, out_dir: Path):
    """Run one command through bibliorank.cli.main: (exit code, stderr, wall s)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(op.argv(corpus_dir, out_dir))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        # a crash is a failed operation, not the end of the benchmark
        rc = 1
        err.write(traceback.format_exc())
    return rc, err.getvalue(), perf_counter() - start


def drill_pairs(corpus_dir: Path):
    """Every (university, UDA) pair with at least one researcher, from the fileset."""
    with open(corpus_dir / "taxonomy.csv", newline="", encoding="utf-8") as fh:
        sds_to_uda = {row["sds"]: row["uda"] for row in csv.DictReader(fh)}
    with open(corpus_dir / "researchers.csv", newline="", encoding="utf-8") as fh:
        pairs = {(row["university_id"], sds_to_uda[row["sds"]])
                 for row in csv.DictReader(fh)}
    return sorted(pairs)


def query_ops(corpus_dir: Path, seed: int):
    """The seeded query sequence: pairs in shuffled order, four indicators each."""
    pairs = drill_pairs(corpus_dir)
    random.Random(seed).shuffle(pairs)
    return [Op("drilldown", u, uda, ind) for u, uda in pairs for ind in INDICATORS]


def gen_config(workload: str, seed: int, **overrides):
    from bibliorank.synthgen import GenConfig
    return GenConfig(seed=seed, **{**WORKLOADS[workload]["generator"], **overrides})


class Generations:
    """Times synthgen.generate for setup_s. The first generation writes the
    corpus that the commands read; the others, made between report rounds and
    query blocks so that they spread over the run as the commands do, write
    to `scratch`. Every generation must write the same fileset."""

    def __init__(self, config, scratch: Path = None, speed=None):
        self.config = config
        self.scratch = scratch
        self.speed = speed
        self.times = []
        self.filesets = set()

    def make(self, directory: Path):
        from bibliorank.synthgen import generate
        shutil.rmtree(directory, ignore_errors=True)
        start = perf_counter()
        manifest = generate(self.config, directory)
        self.times.append(perf_counter() - start)
        self.filesets.add(fileset_digest(directory))
        if len(self.filesets) != 1:
            raise BenchError("synthgen.generate wrote different filesets for one seed")
        if self.speed is not None:
            self.speed.sample(self.times[-1])
        return manifest

    def catch_up(self, elapsed_s: float, at_least: int = 0):
        """Generate until set-up has taken SETUP_SHARE of `elapsed_s`, and
        until there are `at_least` generations."""
        while (sum(self.times) < SETUP_SHARE * elapsed_s
               or len(self.times) < at_least):
            self.make(self.scratch)


class Speed:
    """Gauges the machine's speed through a run. Each command (and each
    generation) adds REF_SHARE of its wall time to the time owed to the
    reference task, perfbench/reference.py, which then runs as a child
    process until that is paid."""

    def __init__(self, log_dir: Path):
        self.log_dir = log_dir
        self.times = []
        self.spent_s = 0.0
        self.owed_s = 0.0

    def sample(self, busy_s: float):
        self.owed_s += REF_SHARE * busy_s
        while self.owed_s > 0 or not self.times:
            rc, _, wall, _ = run_child([sys.executable, str(HERE / "reference.py")],
                                       self.log_dir)
            if rc != 0:
                raise BenchError("the reference task failed")
            self.times.append(wall)
            self.owed_s -= wall
            self.spent_s += wall

    def factor(self) -> float:
        """Multiply a time measured in this run by this to get it at reference speed."""
        return REF_NOMINAL_S / statistics.fmean(self.times)


def warm_bytecode():
    """Import the CLI once in a child so that no timed command compiles bytecode."""
    rc = subprocess.run([sys.executable, "-c", "import bibliorank.cli"],
                        env=child_env(), cwd=ROOT).returncode
    if rc != 0:
        raise BenchError("cannot import bibliorank.cli")


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Session:
    """Runs the commands of one workload run and keeps their measurements."""

    def __init__(self, work: Path, corpus_dir: Path, checker: Checker, speed=None):
        self.work = work
        self.corpus_dir = corpus_dir
        self.checker = checker
        self.speed = speed
        self.n_ops = 0
        self.latencies = []
        self.by_command = {}
        self.peak_rss_kb = 0
        self.cpu_s = 0.0
        self.emitted = 0

    def _out_dir(self):
        self.n_ops += 1
        return self.work / "ops" / f"{self.n_ops:05d}" / "out"

    def _finish(self, op, rc, stderr, out_dir, wall):
        self.emitted += self.checker.check(op, rc, stderr, out_dir)
        shutil.rmtree(out_dir.parent, ignore_errors=True)
        self.latencies.append(wall)
        self.by_command.setdefault(op.command, []).append(wall)

    def child(self, op: Op) -> float:
        out_dir = self._out_dir()
        rc, stderr, wall, usage = run_cli_child(op, self.corpus_dir, out_dir)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        self.cpu_s += usage.ru_utime + usage.ru_stime
        self._finish(op, rc, stderr, out_dir, wall)
        if self.speed is not None:
            self.speed.sample(wall)
        return wall

    def inproc(self, cli, op: Op, tracer=None) -> float:
        out_dir = self._out_dir()
        rc, stderr, wall = run_cli_inproc(cli, op, self.corpus_dir, out_dir)
        if tracer is not None:
            tracer.end_op()
        self._finish(op, rc, stderr, out_dir, wall)
        return wall


def measure(workload: str, seed: int, seconds: float, work: Path, out: list):
    """Untraced closed loop through child processes: end-to-end metrics."""
    spec = WORKLOADS[workload]
    corpus_dir = work / "corpus"
    start = perf_counter()
    deadline = start + seconds
    speed = Speed(work / "reference")
    gens = Generations(gen_config(workload, seed), work / "regenerated", speed)
    manifest = gens.make(corpus_dir)
    warm_bytecode()
    describe(workload, seed, manifest, out)
    session = Session(work, corpus_dir, Checker(load_stored(workload, seed)), speed)
    chain = [Op(c) for c in CHAIN]

    def overhead_s():
        """Time spent so far on generations and the reference task."""
        return sum(gens.times) + speed.spent_s

    def sweep(ops):
        """Run `ops`: (their wall times, the time they took together without
        generations and reference runs)."""
        sweep_start, overhead_before = perf_counter(), overhead_s()
        walls = [session.child(op) for op in ops]
        return walls, perf_counter() - sweep_start - (overhead_s() - overhead_before)

    drill = spec["session"] == "chain_then_queries"
    queries = itertools.cycle(query_ops(corpus_dir, seed)) if drill else None
    lat = session.by_command.setdefault("drilldown", []) if drill else session.latencies
    rounds, sweep_s = [], 0.0
    if drill:
        rounds.append(sum(sweep(chain)[0]))
    # Each pass first catches up on generations, then does its commands: a
    # report round, or (drilldown) a block of queries and a report round, so
    # that every kind of sample spreads over the whole run, which the
    # machine's speed drifts through. Passes stop when the next one would end
    # after the deadline; drilldown passes go on past it only until
    # MIN_QUERIES are done.
    while True:
        pass_start = perf_counter()
        gens.catch_up(min(pass_start - start, seconds))
        if drill:
            sweep_s += sweep([next(queries) for _ in range(QUERY_BLOCK)])[1]
        walls, elapsed = sweep(chain)
        rounds.append(sum(walls))
        if not drill:
            sweep_s += elapsed
        now = perf_counter()
        enough = not drill or len(lat) >= MIN_QUERIES or now - start > MIN_QUERIES_GIVE_UP_S
        if enough and now + (now - pass_start) > deadline:
            break
    gens.catch_up(0, SETUP_REPEATS)
    out.append(f"samples: generations={len(gens.times)} report rounds={len(rounds)} "
               f"commands={len(session.latencies)} latency samples={len(lat)} "
               f"reference runs={len(speed.times)}")

    wall = {
        "setup_s": statistics.median(gens.times),
        "pipeline_s": statistics.median(rounds),
        "indicators_s": statistics.median(session.by_command["indicators"]),
        "rank_s": statistics.median(session.by_command["rank"]),
        "compare_s": statistics.median(session.by_command["compare"]),
        "query_p50_ms": 1000 * quantile(lat, 50),
        "query_p90_ms": 1000 * quantile(lat, 90),
        "queries_per_s": len(lat) / sweep_s,
    }
    factor = speed.factor()
    out.append(f"speed: mean reference {statistics.fmean(speed.times) * 1000:.2f} ms "
               f"(nominal {REF_NOMINAL_S * 1000:g} ms), times scaled by {factor:.4f}; "
               "as measured: " + " ".join(f"{k}={v:.6g}" for k, v in wall.items()))
    metrics = {name: value * factor for name, value in wall.items()}
    metrics["queries_per_s"] = wall["queries_per_s"] / factor
    metrics["peak_rss_mb"] = session.peak_rss_kb / 1024
    return session.checker, metrics


def import_ms():
    """Median child import time of bibliorank.cli minus that of a bare interpreter."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        for argv, into in (([sys.executable, "-c", "pass"], bare),
                           ([sys.executable, "-c", "import bibliorank.cli"], full)):
            start = perf_counter()
            subprocess.run(argv, env=child_env(), cwd=ROOT, check=True)
            into.append(perf_counter() - start)
    return 1000 * (statistics.median(full) - statistics.median(bare))


def fit_exponent(points):
    """Least-squares slope of log(calls) against log(universities)."""
    xs = [math.log(u) for u, _ in points]
    ys = [math.log(c) for _, c in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / math.fsum((x - mx) ** 2 for x in xs))


def traced(workload: str, seed: int, seconds: float, work: Path, out: list):
    """In-process run under the tracer: per-layer metrics."""
    from bibliorank import cli
    from bibliorank.synthgen import generate
    from tracer import Tracer

    spec = WORKLOADS[workload]
    corpus_dir = work / "corpus"
    config = gen_config(workload, seed)
    start = perf_counter()
    setup_self = {name: [] for name in SETUP_SPANS}
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(corpus_dir, ignore_errors=True)
        with Tracer(spans=SETUP_SPANS) as t:
            manifest = generate(config, corpus_dir)
        setup_absent = t.absent
        for name in SETUP_SPANS:
            if name not in setup_absent:
                setup_self[name].append(t.self_s[name])
    warm_bytecode()
    describe(workload, seed, manifest, out)
    records = sum(manifest[k] for k in ("n_researchers", "n_publications", "n_authorships"))

    session = Session(work, corpus_dir, Checker(load_stored(workload, seed)))
    n_queries = TRACED_QUERIES if spec["session"] == "chain_then_queries" else 1
    ops = [Op(c) for c in CHAIN] + query_ops(corpus_dir, seed)[:n_queries]

    for op in ops:
        session.child(op)
    child_cpu_s = session.cpu_s
    cli_import_ms = import_ms()

    emitted_before = session.emitted
    with Tracer(counts=SPANS + COUNTED, keyed=("indicators.unit_indicator",)) as counts:
        for op in ops:
            before = counts.calls["indicators.unit_indicator"]
            session.inproc(cli, op, counts)
            if op.command == "indicators":
                full_calls = counts.calls["indicators.unit_indicator"] - before
    emit_bytes = session.emitted - emitted_before

    points = []
    for div in (4, 2):
        n_univ = max(2, config.n_universities // div)
        scaled_dir = work / f"scaled{div}"
        generate(gen_config(workload, seed, n_universities=n_univ), scaled_dir)
        with Tracer(counts=("indicators.unit_indicator",)) as t:
            rc, stderr, _ = run_cli_inproc(cli, Op("indicators"), scaled_dir,
                                           work / f"scaled{div}_out")
        if rc != 0:
            raise BenchError(f"indicators failed on the scaled corpus: {stderr}")
        points.append((n_univ, t.calls["indicators.unit_indicator"]))
    points.append((config.n_universities, full_calls))

    plain, spanned, tracers = [], [], []
    deadline = start + seconds
    while True:
        pair_start = perf_counter()
        plain.append(sum(session.inproc(cli, op) for op in ops))
        with Tracer(spans=SPANS) as t:
            spanned.append(sum(session.inproc(cli, op) for op in ops))
        tracers.append(t)
        if perf_counter() + (perf_counter() - pair_start) > deadline:
            break
    out.append(f"samples: traced sessions={len(spanned)} ops per session={len(ops)} "
               f"scaled universities={[u for u, _ in points]}")

    def med(attr, name):
        return statistics.median(getattr(t, attr)[name] for t in tracers)

    absent = set(counts.absent) | set(setup_absent)
    session_s = statistics.median(spanned)
    shares = ", ".join(f"{name} {med('self_s', name) / session_s:.0%}"
                       for name in SPANS if name not in absent)
    out.append(f"self time as a share of a spanned session ({session_s:.3f} s): {shares}")
    derived = {
        "cli.import_ms": cli_import_ms,
        "cli.emit_bytes": emit_bytes,
        "cli.child_cpu_s": child_cpu_s,
        "trace.overhead_frac": statistics.median(spanned) / statistics.median(plain) - 1,
    }
    unit_calls = counts.calls["indicators.unit_indicator"]
    if "indicators.unit_indicator" not in absent and unit_calls:
        derived["indicators.useful_ratio"] = (
            counts.distinct["indicators.unit_indicator"] / unit_calls)
        if all(c > 0 for _, c in points):
            derived["indicators.unit_indicator.calls_exponent"] = fit_exponent(points)
    if "loader.load_corpus" not in absent:
        derived["loader.records_per_s"] = (
            records * counts.calls["loader.load_corpus"]
            / med("total_s", "loader.load_corpus"))
    for name, values in setup_self.items():
        if values:
            derived[f"{name}.self_s"] = statistics.median(values)

    metrics = {}
    for name in per_layer_names():
        base, _, kind = name.rpartition(".")
        traced_name = TRACED_NAME.get(base, base)
        if name in derived:
            metrics[name] = derived[name]
        elif traced_name in absent or base in SETUP_SPANS:
            continue
        elif kind == "calls":
            metrics[name] = counts.calls[traced_name]
        elif kind in ("self_s", "total_s"):
            metrics[name] = med(kind, traced_name)
    for name in sorted(absent):
        out.append(f"absent: {name} no longer exists; its metrics are omitted")
    return session.checker, metrics


def bench_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def per_layer_names():
    return [m["name"] for m in bench_spec()["per_layer"]]


def describe(workload, seed, manifest, out):
    import numpy
    spec = WORKLOADS[workload]
    out.append(f"workload={workload} seed={seed} loop={spec['loop']} "
               f"clients={spec['clients']} session={spec['session']}")
    out.append(f"machine: nproc={os.cpu_count()} python={platform.python_version()} "
               f"numpy={numpy.__version__}")
    out.append(f"corpus: researchers={manifest['n_researchers']} "
               f"publications={manifest['n_publications']} "
               f"authorships={manifest['n_authorships']}")
    if load_stored(workload, seed) is None:
        out.append(f"digests: none stored for seed {seed}; "
                   "checking only that repeated commands give equal reports")
    else:
        out.append(f"digests: checking against those stored for seed {seed}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # This process and its children run one at a time, so one CPU is enough;
    # on it the reference task runs where the commands run.
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    # on SIGTERM, unwind: run_child kills its child and the work tree is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if not (SRC / "bibliorank" / "cli.py").is_file():
            raise BenchError(f"no bibliorank sources under {SRC}")
        sys.path.insert(0, str(SRC))
        work.mkdir(parents=True)
        out = [f"seconds={args.seconds:g} trace={args.trace}"]
        run = traced if args.trace else measure
        checker, metrics = run(args.workload, args.seed, args.seconds, work, out)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench_spec()[section]}
    ops_failed_frac = checker.failed / max(1, checker.attempted)
    for line in out:
        print(line)
    for name, value in metrics.items():
        print(f"  {name:45s} {value:14.6g} {units[name]}")
    print(f"  {'ops_failed_frac':45s} {ops_failed_frac:14.6g} ratio "
          f"({checker.failed} of {checker.attempted} operations)")
    for problem in checker.problems[:20]:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
