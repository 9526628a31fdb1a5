"""vocmap benchmark: the ``map``, ``sweep`` and ``baseline`` CLI commands on a
synthetic WordNet 2.0-scale store.

    python3 bench/run.py --workload map-wn20 --seed 1 --seconds 20 --trace 0

Each workload runs the real CLI command in a fresh process, from the
``src/`` tree of the checkout this file sits in, on inputs that
``bench/synth.py`` generates from the seed (cached in ``bench/.cache``, never
timed).

``--trace 0`` measures the end-to-end metrics.  It repeats rounds of one
set-up-only child (store load, vocabulary and gold parse, taxonomy closure)
and one run of the workload's command(s) until ``--seconds`` have passed,
at least twice, and reports medians.  Wall and set-up times are scaled to a
reference host speed, measured while they run (see ``HostSpeed``); the raw
times are printed with the samples.  ``--trace 1`` runs the command once
plain and once with every module's public functions wrapped, and reports the
per-layer metrics, the spans' self times and the tracing overhead.  The
spans go to ``bench/.traces/<workload>.<command number>.spans.tsv``.

Every command must exit 0 and its outputs must parse.  ``mapping.nt`` and
``sweep.tsv`` must match the sha256 digests recorded from the seed code in
``bench/digests.json`` when the seed has one, and must be identical across
the runs of one invocation otherwise.  Each mismatch, non-zero exit or
exception is one failed operation.  The last line of stdout is the result as
JSON.  ``--record-digests SEEDS`` (e.g. ``0-23``) writes the digests of the
current code for those seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CACHE = BENCH / ".cache"
WORK = BENCH / ".work"
TRACES = BENCH / ".traces"
DIGESTS = BENCH / "digests.json"
KEEP_DATASETS = 12
MIN_ROUNDS = 2
# a measuring run must end within 180 s: no child outlives DEADLINE_S after
# the run started, and no round starts after ROUND_CUTOFF_S
DEADLINE_S = 165.0
ROUND_CUTOFF_S = 90.0
STARTED = time.perf_counter()

_TRIPLE = re.compile(
    r"^<([^<>\s]+)> <http://www\.w3\.org/2004/02/skos/core#"
    r"(exact|close|related)Match> <(http://www\.w3\.org/2006/03/wn/wn20/"
    r"instances/synset-[^<>\s]+)> \.$")


@dataclass(frozen=True)
class Workload:
    name: str
    # vocmap arguments of each command; {D} is the dataset, {W} the output
    commands: tuple[tuple[str, ...], ...]
    digested: tuple[str, ...]       # output files checked against digests
    setup: dict                     # what the set-up child loads
    vocab: tuple[str, ...]          # vocabularies whose terms are counted
    gold: str


# why each workload exists is in BENCHMARK.json and bench/README.md
WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="map-wn20",
            commands=(("map", "--vocab", "{D}/vocab.nt", "--wordnet",
                       "{D}/dict", "--taxonomy-roots", "{D}/roots.txt",
                       "--min-overlap", "1", "--min-freq", "1",
                       "--out", "{W}/map"),),
            digested=("map/mapping.nt",),
            setup={"wordnet": "{D}/dict", "vocab": "{D}/vocab.nt",
                   "roots": "{D}/roots.txt"},
            vocab=("vocab.nt",),
            gold="gold.nt",
        ),
        Workload(
            name="sweep-grid",
            commands=(("sweep", "--vocab", "{D}/vocab_sweep.nt", "--wordnet",
                       "{D}/wordnet.json", "--gold", "{D}/gold_sweep.nt",
                       "--taxonomy-roots", "{D}/roots.txt",
                       "--workers", "1", "--out", "{W}/sweep"),),
            digested=("sweep/sweep.tsv",),
            setup={"wordnet": "{D}/wordnet.json",
                   "vocab": "{D}/vocab_sweep.nt",
                   "gold": "{D}/gold_sweep.nt", "roots": "{D}/roots.txt"},
            vocab=("vocab_sweep.nt",),
            gold="gold_sweep.nt",
        ),
        Workload(
            name="baseline-trigram",
            commands=(("baseline", "--kind", "trigram-labels", "--vocab",
                       "{D}/vocab_labels.nt", "--wordnet", "{D}/dict",
                       "--out", "{W}/labels"),
                      ("baseline", "--kind", "trigram-definitions", "--vocab",
                       "{D}/vocab_definitions.nt", "--wordnet", "{D}/dict",
                       "--out", "{W}/definitions")),
            digested=("labels/mapping.nt", "definitions/mapping.nt"),
            setup={"wordnet": "{D}/dict", "vocab": "{D}/vocab_labels.nt"},
            vocab=("vocab_labels.nt", "vocab_definitions.nt"),
            gold="gold_trigram.nt",
        ),
    )
}


class CheckFailed(Exception):
    """An operation whose exit code or output is wrong."""


# ---------------------------------------------------------------------------
# Inputs

def dataset(preset: str, seed: int) -> Path:
    """The generated inputs for (preset, seed), made on first use."""
    target = CACHE / f"{preset}-{seed}"
    if (target / "done").exists():
        os.utime(target)
        return target
    CACHE.mkdir(parents=True, exist_ok=True)
    scratch = CACHE / f".tmp-{preset}-{seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    # in a child process: a child forked later from a large parent would
    # report the parent's resident set as its own peak
    subprocess.run([sys.executable, str(BENCH / "synth.py"), "--preset",
                    preset, "--seed", str(seed), "--out", str(scratch)],
                   check=True, stdin=subprocess.DEVNULL)
    (scratch / "done").write_text("")
    shutil.rmtree(target, ignore_errors=True)
    os.replace(scratch, target)
    kept = sorted((p for p in CACHE.iterdir() if not p.name.startswith(".")),
                  key=lambda p: p.stat().st_mtime, reverse=True)
    for old in kept[KEEP_DATASETS:]:
        shutil.rmtree(old, ignore_errors=True)
    return target


def count_terms(path: Path) -> int:
    pref = "<http://www.w3.org/2004/02/skos/core#prefLabel>"
    return len({line.split(" ", 1)[0]
                for line in path.read_text("utf-8").splitlines()
                if f" {pref} " in line})


def read_triples(path: Path) -> set[tuple[str, str, str]]:
    triples = set()
    for line_no, line in enumerate(path.read_text("utf-8").splitlines(), 1):
        m = _TRIPLE.match(line)
        if not m:
            raise CheckFailed(f"{path.name}, line {line_no}: not a mapping "
                              "triple")
        triples.add(m.groups())
    return triples


def f_measure(machine: set, gold: set, beta: float = 0.5) -> float:
    correct = len(machine & gold)
    precision = correct / len(machine) if machine else 0.0
    recall = correct / len(gold) if gold else 0.0
    denominator = beta * beta * precision + recall
    return ((1 + beta * beta) * precision * recall / denominator
            if denominator else 0.0)


def check_sweep(path: Path) -> tuple[int, float]:
    """Grid points and the upper-bound F of a sweep.tsv."""
    lines = path.read_text("utf-8").splitlines()
    if not lines or not lines[0].startswith("taxonomy\tf_min\tol_min"):
        raise CheckFailed("sweep.tsv has no header")
    best = 0.0
    for line_no, line in enumerate(lines[1:], 2):
        cells = line.split("\t")
        if len(cells) != 8 or cells[0] not in ("on", "off"):
            raise CheckFailed(f"sweep.tsv, line {line_no}: malformed row")
        best = max(best, float(cells[5]))
    return len(lines) - 1, best


# ---------------------------------------------------------------------------
# Child processes

@dataclass
class ChildResult:
    wall_s: float
    peak_rss_mb: float
    stdout: str
    interval: tuple[float, float]


def run_child(args: list[str], work: Path,
              deadline: float | None = None) -> ChildResult:
    """Run bench/child.py with ``args`` in a fresh interpreter and wait for
    it, killing it at ``deadline`` (a perf_counter time); a non-zero exit
    raises CheckFailed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "child.py")]
                                + args, cwd=ROOT, env=env, stdout=out,
                                stderr=err, stdin=subprocess.DEVNULL)
        timer = None
        if deadline is not None:
            timer = threading.Timer(max(0.0, deadline - started), proc.kill)
            timer.start()
        try:
            # wait4 rather than wait: it returns the child's own peak RSS
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            if timer is not None:
                timer.cancel()
        wall = time.perf_counter() - started
        proc.returncode = os.waitstatus_to_exitcode(status)
    stdout = out_path.read_text("utf-8", "replace")
    if deadline is not None and proc.returncode == -9 and \
            started + wall >= deadline:
        raise CheckFailed("killed at the run's deadline")
    if proc.returncode != 0:
        lines = err_path.read_text("utf-8", "replace").strip().splitlines()
        raise CheckFailed(f"exit code {proc.returncode}"
                          + (f": {lines[-1]}" if lines else ""))
    return ChildResult(wall, usage.ru_maxrss / 1024.0, stdout,
                       (started, started + wall))


# ---------------------------------------------------------------------------
# Host speed

def _calibration_chunk() -> int:
    total = 0
    for i in range(40_000):
        total += i * i % 7
    return total


class HostSpeed:
    """Samples how fast this host runs a fixed piece of Python while the
    benchmark measures.

    The host's speed drifts by up to a factor of two over tens of seconds,
    on every core at once.  A thread runs a fixed calibration chunk every
    ``period_s`` and records its CPU time (CPU time, so that waiting for a
    core does not count).  ``factor(t0, t1)`` is the median chunk time in
    that interval over ``REFERENCE_CHUNK_S``; dividing a wall time by it
    gives the time at the reference speed.
    """

    REFERENCE_CHUNK_S = 0.0028

    def __init__(self, period_s: float = 0.05):
        self.period_s = period_s
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(self.period_s):
            cpu = time.thread_time()
            _calibration_chunk()
            self.samples.append((time.perf_counter(),
                                 time.thread_time() - cpu))

    def factor(self, t0: float, t1: float) -> float:
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if not inside:
            return 1.0
        return statistics.median(inside) / self.REFERENCE_CHUNK_S


# ---------------------------------------------------------------------------
# One workload on one dataset

class Bench:
    def __init__(self, workload: Workload, preset: str, seed: int,
                 data: Path, work: Path):
        self.w, self.preset, self.seed = workload, preset, seed
        self.data, self.work = data, work
        self.attempted = 0
        self.failures: list[str] = []
        self.seen_digests: dict[str, str] | None = None
        self.samples: dict[str, list[float]] = {}
        self.untraced: set[str] = set()    # traced names the code lacks
        self.deadline: float | None = None
        recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        self.recorded = recorded.get(f"{preset}/{workload.name}/{seed}")
        self.terms = sum(count_terms(data / v) for v in workload.vocab)
        self.gold = read_triples(data / workload.gold)

    def _fill(self, text: str) -> str:
        return text.replace("{D}", str(self.data)).replace(
            "{W}", str(self.work / "out"))

    def operation(self, fn, *args):
        """Run one operation, counting it; None when it failed."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # any exception is a failed operation
            self.failures.append(f"{fn.__name__}: {type(exc).__name__}: "
                                 f"{exc}")
            return None

    # -- operations ---------------------------------------------------------

    def setup_once(self) -> tuple[float, tuple[float, float]]:
        spec = {key: self._fill(value) for key, value in self.w.setup.items()}
        result = run_child(["setup", json.dumps(spec)], self.work,
                           self.deadline)
        setup_s = json.loads(result.stdout.strip().splitlines()[-1])["setup_s"]
        return setup_s, result.interval

    def invoke(self, traced: bool = False) -> dict:
        """The workload's commands once, outputs checked."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        wall, rss, summaries, intervals = 0.0, 0.0, [], []
        for command in self.w.commands:
            argv = [self._fill(part) for part in command]
            if traced:
                TRACES.mkdir(parents=True, exist_ok=True)
                spans = TRACES / f"{self.w.name}.{len(intervals)}.spans.tsv"
                mode = ["trace", str(spans), "--"]
            else:
                mode = ["cli", "--"]
            result = run_child(mode + argv, self.work, self.deadline)
            wall += result.wall_s
            intervals.append(result.interval)
            rss = max(rss, result.peak_rss_mb)
            if traced:
                summary = json.loads(result.stdout.strip().splitlines()[-1])
                # writing the spans out comes after the command
                wall -= summary["write_s"]
                self.untraced.update(summary["missing"])
                summaries.append(summary)
        return {"wall_s": wall, "peak_rss_mb": rss, "summaries": summaries,
                "intervals": intervals,
                **self.check(out)}

    def check(self, out: Path) -> dict:
        digests = {}
        for name in self.w.digested:
            digests[name] = hashlib.sha256((out / name).read_bytes()
                                           ).hexdigest()
        expected = self.recorded or self.seen_digests
        if expected is not None and expected != digests:
            bad = sorted(n for n in digests if expected.get(n) != digests[n])
            source = "recorded" if self.recorded else "first run's"
            raise CheckFailed(f"{', '.join(bad)} differs from the {source} "
                              "digest")
        if self.seen_digests is None:
            self.seen_digests = digests
        if self.w.name == "sweep-grid":
            points, f = check_sweep(out / "sweep" / "sweep.tsv")
            if not (out / "sweep" / "summary.tsv").read_text().count(
                    "upper_bound"):
                raise CheckFailed("summary.tsv has no upper_bound row")
        else:
            machine = set()
            for name in self.w.digested:
                machine |= read_triples(out / name)
                tsv = (out / name).with_suffix(".tsv")
                if not tsv.read_text("utf-8").startswith("term\trelation"):
                    raise CheckFailed(f"{tsv.name} has no header")
            points = len(self.w.commands)
            f = f_measure(machine, self.gold)
        return {"points": points, "f_measure": f, "digests": digests}

    # -- modes --------------------------------------------------------------

    def measure(self, seconds: float) -> dict:
        setups, runs, rounds = [], [], 0
        started = time.perf_counter()
        with HostSpeed() as speed:
            while True:
                round_started = time.perf_counter()
                setup = self.operation(self.setup_once)
                run = self.operation(self.invoke)
                if setup is not None and run is not None:
                    setups.append(setup)
                    runs.append(run)
                rounds += 1
                now = time.perf_counter()
                # stop before a round that would end past the budget
                if rounds >= MIN_ROUNDS and \
                        (now - started) + (now - round_started) > seconds:
                    break
                if now - STARTED > ROUND_CUTOFF_S:
                    break
        if not runs:
            return {}

        def scaled(seconds_, interval):
            return seconds_ / speed.factor(*interval)

        k = len(self.w.commands)
        walls = [sum(scaled(b - a, (a, b)) for a, b in r["intervals"])
                 for r in runs]
        setup_s = [scaled(st, interval) for st, interval in setups]
        # every command of the round pays the set-up once
        posts = [max(w - k * st, 1e-6) for w, st in zip(walls, setup_s)]
        points = runs[0]["points"]
        term_work = self.terms * (points if self.w.name == "sweep-grid"
                                  else 1)
        if len({r["f_measure"] for r in runs}) != 1:
            self.failures.append("f_measure differs between runs")
        self.samples = {
            "wall_s(raw)": [r["wall_s"] for r in runs],
            "setup_s(raw)": [st for st, _ in setups],
            "wall_s": walls, "setup_s": setup_s, "post_setup_s": posts,
            "host_factor": [speed.factor(r["intervals"][0][0],
                                         r["intervals"][-1][1])
                            for r in runs]}
        post = statistics.median(posts)
        n = len(runs)
        return {
            "wall_s": (statistics.median(walls), "s", n),
            "setup_s": (statistics.median(setup_s), "s", n),
            "terms_per_s": (term_work / post, "1/s", n),
            "points_per_s": (points / post, "1/s", n),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in runs),
                            "MB", n),
            "f_measure": (runs[0]["f_measure"], "ratio", n),
        }

    def trace(self) -> dict:
        plain = self.operation(self.invoke)
        traced = self.operation(self.invoke, True)
        if plain is None or traced is None:
            return {}
        return layer_metrics(traced["summaries"],
                             traced["wall_s"] - plain["wall_s"])


# ---------------------------------------------------------------------------
# Per-layer metrics

def span_names() -> list[str]:
    """Every span name the traced child records."""
    sys.path.insert(0, str(BENCH))
    from child import SPANNED

    split = {"mapper.find_semantic_mapping": ("label", "definition"),
             "evaluation.trigram_baseline_mapping": ("labels", "definitions")}
    names = []
    for module, attr in SPANNED:
        name = f"{module}.{attr}"
        names += [f"{name}.{part}" for part in split[name]] \
            if name in split else [name]
    return names


def layer_metrics(summaries: list[dict], overhead_s: float) -> dict:
    """Per-layer metrics from the traced child's summaries, one summary per
    command.  A percentile over several commands is the largest one."""
    def total(name, key="total_s"):
        return sum(s["spans"].get(name, {}).get(key, 0) for s in summaries)

    def counted(name):
        return sum(s["counts"].get(name, 0) for s in summaries)

    def loaded(key):
        return max((s["loaded"].get(key, 0) for s in summaries), default=0)

    def layer_self(layer):
        return sum(entry["self_s"] for s in summaries
                   for name, entry in s["spans"].items()
                   if name.startswith(layer + "."))

    def ms(name, key):
        values = [s["spans"][name][key] for s in summaries
                  if name in s["spans"]]
        return 1000.0 * max(values) if values else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    kept = [sum(s["candidates_kept"][i] for s in summaries) for i in (0, 1)]
    normalize = "text.normalize_definition"
    fsm = "mapper.find_semantic_mapping"
    trigram = "evaluation.trigram_baseline_mapping"
    store = "wordnet.WordNetStore"
    m = {
        "wordnet.load_wndb_dir_s": (total("wordnet.load_wndb_dir"), "s"),
        "wordnet.load_fixture_s": (total("wordnet.load_fixture"), "s"),
        "wordnet.store_build_s": (total(f"{store}.__init__"), "s"),
        "wordnet.taxonomy_closure_s": (total(f"{store}.taxonomy_closure"),
                                       "s"),
        "wordnet.synsets": (loaded("synsets"), "count"),
        "wordnet.lemmas": (loaded("lemmas"), "count"),
        "wordnet.closure_size": (loaded("closure_size"), "count"),
        "wordnet.self_s": (layer_self("wordnet"), "s"),
        "vocab.parse_vocabulary_s": (total("vocab.parse_vocabulary_ntriples"),
                                     "s"),
        "vocab.load_gold_s": (total("vocab.load_gold"), "s"),
        "vocab.serialize_s": (total("vocab.serialize_mappings_ntriples")
                              + total("vocab.serialize_mappings_tsv"), "s"),
        "vocab.bytes_out": (sum(s["bytes_out"] for s in summaries), "bytes"),
        "vocab.self_s": (layer_self("vocab"), "s"),
        "text.normalize_definition_calls": (total(normalize, "calls"),
                                            "count"),
        "text.normalize_definition_s": (total(normalize), "s"),
        "text.normalize_unique_ratio": (
            ratio(sum(s["normalize_distinct"] for s in summaries),
                  total(normalize, "calls")), "ratio"),
        "text.lemmatize_noun_calls": (counted("text.lemmatize_noun"),
                                      "count"),
        "text.tokenize_calls": (counted("text.tokenize"), "count"),
        "text.extract_definition_terms_s": (
            total("text.extract_definition_terms"), "s"),
        "text.self_s": (layer_self("text"), "s"),
        "mapper.map_vocabulary_calls": (total("mapper.map_vocabulary",
                                              "calls"), "count"),
        "mapper.map_vocabulary_s": (total("mapper.map_vocabulary"), "s"),
        "mapper.find_semantic_mapping_calls": (total(fsm, "calls"), "count"),
        "mapper.find_semantic_mapping_label_calls": (
            total(f"{fsm}.label", "calls"), "count"),
        "mapper.find_semantic_mapping_p50_ms": (ms(fsm, "p50_s"), "ms"),
        "mapper.find_semantic_mapping_p99_ms": (ms(fsm, "p99_s"), "ms"),
        "mapper.find_semantic_mapping_label_p50_ms": (
            ms(f"{fsm}.label", "p50_s"), "ms"),
        "mapper.find_semantic_mapping_label_p99_ms": (
            ms(f"{fsm}.label", "p99_s"), "ms"),
        "mapper.find_semantic_mapping_definition_p50_ms": (
            ms(f"{fsm}.definition", "p50_s"), "ms"),
        "mapper.find_semantic_mapping_definition_p99_ms": (
            ms(f"{fsm}.definition", "p99_s"), "ms"),
        "mapper.find_candidates_calls": (total("mapper.find_candidates",
                                               "calls"), "count"),
        "mapper.candidates_kept_mean": (ratio(*kept), "count"),
        "mapper.salience_calls": (counted("mapper.salience"), "count"),
        "mapper.select_best_s": (total("mapper.select_best"), "s"),
        "mapper.self_s": (layer_self("mapper"), "s"),
        "evaluation.run_sweep_s": (total("evaluation.run_sweep"), "s"),
        "evaluation.evaluate_calls": (total("evaluation.evaluate", "calls"),
                                      "count"),
        "evaluation.evaluate_s": (total("evaluation.evaluate"), "s"),
        "evaluation.summary_tsv_s": (total("evaluation.summary_tsv"), "s"),
        "evaluation.trigram_similarity_calls": (
            counted("evaluation.trigram_similarity"), "count"),
        "evaluation.trigram_baseline_labels_s": (total(f"{trigram}.labels"),
                                                 "s"),
        "evaluation.trigram_baseline_definitions_s": (
            total(f"{trigram}.definitions"), "s"),
        "evaluation.self_s": (layer_self("evaluation"), "s"),
        "cli.self_s": (layer_self("cli"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.spans": (sum(s["n_spans"] for s in summaries), "count"),
    }
    for name in span_names():
        m[f"{name}.self_s"] = (total(name, "self_s"), "s")
    return {name: (value, unit, 1) for name, (value, unit) in m.items()}


# ---------------------------------------------------------------------------
# Command line

def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def record_digests(preset: str, seeds: list[int],
                   workloads: list[Workload]) -> None:
    recorded = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    for seed in seeds:
        data = dataset(preset, seed)
        for workload in workloads:
            work = WORK / f"record-{os.getpid()}"
            work.mkdir(parents=True, exist_ok=True)
            try:
                bench = Bench(workload, preset, seed, data, work)
                bench.recorded = None
                digests = bench.invoke()["digests"]
            finally:
                shutil.rmtree(work, ignore_errors=True)
            recorded[f"{preset}/{workload.name}/{seed}"] = digests
            print(f"{preset}/{workload.name}/{seed}: recorded", flush=True)
        DIGESTS.write_text(json.dumps(recorded, indent=1, sort_keys=True)
                           + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Benchmark the vocmap map, sweep and baseline commands.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--preset", default="wn20",
                        help="dataset size: wn20 (WordNet 2.0 scale) or mini")
    parser.add_argument("--record-digests", metavar="SEEDS",
                        help="record output digests for seeds, e.g. 0-23, "
                             "of --workload or of every workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "vocmap" / "cli.py").is_file():
        print(f"error: no vocmap sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.record_digests:
        record_digests(args.preset, _seeds(args.record_digests),
                       [WORKLOADS[args.workload]] if args.workload
                       else list(WORKLOADS.values()))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    workload = WORKLOADS[args.workload]
    data = dataset(args.preset, args.seed)
    work = WORK / f"{workload.name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(workload, args.preset, args.seed, data, work)
        bench.deadline = STARTED + DEADLINE_S
        metrics = bench.trace() if args.trace else bench.measure(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digest_note = "recorded" if bench.recorded else "unrecorded seed: " \
        "checked for run-to-run identity only"
    print(f"workload {workload.name}, preset {args.preset}, seed {args.seed}, "
          f"trace {args.trace}; digests {digest_note}")
    for name, values in bench.samples.items():
        print(f"  samples {name}: " + " ".join(f"{v:.4f}" for v in values))
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit:6s} (n={samples})")
    share = len(bench.failures) / bench.attempted if bench.attempted else 0.0
    print(f"  operations: {bench.attempted} attempted, {len(bench.failures)} "
          f"failed ({share:.1%})")
    for failure in bench.failures:
        print(f"  failed: {failure}")
    if bench.untraced:
        print(f"  not traced (no such function): "
              f"{', '.join(sorted(bench.untraced))}")
    print(json.dumps({
        "correct": not bench.failures and bool(metrics),
        "attempted": max(bench.attempted, 1),
        "failed": len(bench.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
