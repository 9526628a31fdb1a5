"""Command-line interface: exit codes, outputs, determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vocmap
from oracle import oracle_map_vocabulary
from vocmap.cli import main
from vocmap.vocab import WN20_SYNSET_NS, MappingRelation, load_gold

FIXTURES = Path(__file__).parent / "fixtures"
BAY = "http://example.org/vocab/term/k:natural/v:bay"
SKOS = "http://www.w3.org/2004/02/skos/core#"


@pytest.fixture
def paths(fixtures_dir):
    return {
        "vocab": str(fixtures_dir / "vocab_mini.nt"),
        "wordnet": str(fixtures_dir / "wordnet_mini.json"),
        "gold": str(fixtures_dir / "gold_mini.nt"),
        "roots": str(fixtures_dir / "roots_mini.txt"),
    }


class TestCmdMap:
    def test_defaults_produce_outputs(self, paths, tmp_path):
        out = tmp_path / "run"
        code = main(["map", "--vocab", paths["vocab"],
                     "--wordnet", paths["wordnet"], "--out", str(out)])
        assert code == 0
        assert (out / "mapping.nt").exists()
        assert (out / "mapping.tsv").exists()
        assert (out / "run-report.txt").exists()
        assert len(load_gold((out / "mapping.nt").read_bytes())) > 0

    def test_missing_vocabulary_file_exits_1(self, paths, tmp_path):
        code = main(["map", "--vocab", str(tmp_path / "absent.nt"),
                     "--wordnet", paths["wordnet"],
                     "--out", str(tmp_path / "o")])
        assert code == 1

    def test_reruns_are_byte_identical(self, paths, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["map", "--vocab", paths["vocab"],
                         "--wordnet", paths["wordnet"],
                         "--out", str(out)]) == 0
        for name in ("mapping.nt", "mapping.tsv", "run-report.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_optimal_configuration_matches_oracle(self, paths, tmp_path,
                                                  mini_store, mini_vocab,
                                                  mini_taxonomy):
        out = tmp_path / "opt"
        code = main(["map", "--vocab", paths["vocab"],
                     "--wordnet", paths["wordnet"],
                     "--min-overlap", "1", "--min-freq", "1",
                     "--taxonomy-roots", paths["roots"], "--out", str(out)])
        assert code == 0
        produced = load_gold((out / "mapping.nt").read_bytes()).triples
        oracle = oracle_map_vocabulary(mini_vocab, mini_store, ol_min=1,
                                       f_min=1, taxonomy=mini_taxonomy)
        expected = {(uri, MappingRelation(rel), synset)
                    for uri, rel, synset, _, _, _ in oracle}
        assert produced == expected

    @pytest.mark.parametrize("tag, mapped", [
        ("@fr", False), ("@en-GB", True), ("@EN", True), ("", True)])
    def test_alt_label_in_another_language_is_not_a_form(
            self, paths, tmp_path, tag, mapped):
        term = "http://example.org/t/q"
        vocab = tmp_path / "alt.nt"
        vocab.write_text(f'<{term}> <{SKOS}prefLabel> "qqqq"@en .\n'
                         f'<{term}> <{SKOS}altLabel> "river"{tag} .\n')
        out = tmp_path / "out"
        assert main(_command_args("map", paths, out)
                    + ["--vocab", str(vocab), "--alt-labels"]) == 0
        rows = (out / "mapping.tsv").read_text().splitlines()[1:]
        assert rows == ([f"{term}\tclose\triver-noun-1\t1.0000\tlabel\triver"]
                        if mapped else [])

    def test_config_file_with_flag_override(self, paths, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("min-overlap = 5\nmin-freq = 1\n")
        out_cfg = tmp_path / "from-config"
        assert main(["map", "--vocab", paths["vocab"],
                     "--wordnet", paths["wordnet"], "--config", str(cfg),
                     "--out", str(out_cfg)]) == 0
        report = (out_cfg / "run-report.txt").read_text()
        assert "min_overlap: 5" in report
        out_flag = tmp_path / "flag-wins"
        assert main(["map", "--vocab", paths["vocab"],
                     "--wordnet", paths["wordnet"], "--config", str(cfg),
                     "--min-overlap", "2", "--out", str(out_flag)]) == 0
        assert "min_overlap: 2" in (out_flag / "run-report.txt").read_text()

    @pytest.mark.parametrize("value, shown", [
        ("on", "on"), ("Yes", "on"), ("1", "on"), ("TRUE", "on"),
        ("off", "off"), ("no", "off"), ("0", "off"), ("False", "off"),
    ])
    def test_config_boolean_spellings(self, paths, tmp_path, value, shown):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"alt_labels = {value}\n")
        out = tmp_path / "o"
        assert main(["map", "--vocab", paths["vocab"],
                     "--wordnet", paths["wordnet"], "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert f"alt_labels: {shown}" in (out / "run-report.txt").read_text()

    def test_config_keys_of_other_commands_are_accepted(self, paths,
                                                         tmp_path):
        cfg = tmp_path / "all.cfg"
        cfg.write_text("min_overlap = 2\nworkers = 4\nf-min = 1,2\n"
                       "seed = 7\nthreshold = 0.5\n")
        out = tmp_path / "o"
        assert main(["map", "--vocab", paths["vocab"],
                     "--wordnet", paths["wordnet"], "--config", str(cfg),
                     "--out", str(out)]) == 0
        assert "min_overlap: 2" in (out / "run-report.txt").read_text()


class TestCmdSweep:
    def test_restricted_grid_row_count(self, paths, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--vocab", paths["vocab"],
                     "--wordnet", paths["wordnet"], "--gold", paths["gold"],
                     "--taxonomy-roots", paths["roots"],
                     "--ol-min", "1", "--f-min", "1", "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.tsv").read_text().splitlines()
        assert len(lines) == 1 + 2  # header + taxonomy off/on

    def test_worker_counts_give_identical_bytes(self, paths, tmp_path):
        outputs = []
        for workers, name in ((1, "w1"), (10, "w10")):
            out = tmp_path / name
            assert main(["sweep", "--vocab", paths["vocab"],
                         "--wordnet", paths["wordnet"],
                         "--gold", paths["gold"],
                         "--taxonomy-roots", paths["roots"],
                         "--ol-min", "0,1,2", "--f-min", "0,1",
                         "--workers", str(workers), "--out", str(out)]) == 0
            outputs.append((out / "sweep.tsv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_taxonomy_on_without_roots_is_usage_error(self, paths, tmp_path):
        code = main(["sweep", "--vocab", paths["vocab"],
                     "--wordnet", paths["wordnet"], "--gold", paths["gold"],
                     "--ol-min", "1", "--f-min", "1",
                     "--out", str(tmp_path / "x")])
        assert code == 2

    def test_taxonomy_off_only_needs_no_roots(self, paths, tmp_path):
        out = tmp_path / "no-roots"
        code = main(["sweep", "--vocab", paths["vocab"],
                     "--wordnet", paths["wordnet"], "--gold", paths["gold"],
                     "--taxonomy", "off", "--ol-min", "1", "--f-min", "1",
                     "--out", str(out)])
        assert code == 0
        assert len((out / "sweep.tsv").read_text().splitlines()) == 2

    def test_unknown_gold_synsets_warn_once(self, paths, tmp_path, capsys):
        gold = tmp_path / "gold.nt"
        related = "<http://www.w3.org/2004/02/skos/core#relatedMatch>"
        synset = "<http://www.w3.org/2006/03/wn/wn20/instances/synset-"
        gold.write_text(Path(paths["gold"]).read_text() + "".join(
            f"<{BAY}> {related} {synset}{name}> .\n"
            for name in ("unicorn-noun-1", "watercourse-noun-1",
                         "bay-noun-9")))
        args = ["sweep", "--vocab", paths["vocab"],
                "--wordnet", paths["wordnet"], "--taxonomy", "off",
                "--ol-min", "1", "--f-min", "1"]
        assert main(args + ["--gold", paths["gold"],
                            "--out", str(tmp_path / "clean")]) == 0
        assert capsys.readouterr().err == ""
        assert main(args + ["--gold", str(gold),
                            "--out", str(tmp_path / "unknown")]) == 0
        assert capsys.readouterr().err == (
            "warning: 3 gold synset names are not in the store, "
            "first bay-noun-9\n")
        assert sorted(p.name for p in (tmp_path / "unknown").iterdir()) \
            == ["summary.tsv", "sweep.tsv"]

    def test_disjoint_gold_warns_but_proceeds(self, paths, tmp_path, capsys):
        gold = tmp_path / "foreign.nt"
        gold.write_text(f"<http://example.org/x> <{SKOS}closeMatch> "
                        f"<{WN20_SYNSET_NS}bay-noun-1> .\n")
        out = tmp_path / "sweep"
        assert main(["sweep", "--vocab", paths["vocab"],
                     "--wordnet", paths["wordnet"], "--gold", str(gold),
                     "--taxonomy", "off", "--ol-min", "0", "--f-min", "0",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == (
            f"warning: {gold} shares no terms with {paths['vocab']}\n")
        assert len((out / "sweep.tsv").read_text().splitlines()) == 2

    def test_gold_warnings_go_to_stderr(self, paths, tmp_path, capsys):
        gold = tmp_path / "gold.nt"
        gold.write_text(Path(paths["gold"]).read_text() + _IGNORED_TRIPLES)
        args = ["sweep", "--vocab", paths["vocab"],
                "--wordnet", paths["wordnet"], "--taxonomy", "off",
                "--ol-min", "0,1", "--f-min", "0,1"]
        assert main(args + ["--gold", paths["gold"],
                            "--out", str(tmp_path / "clean")]) == 0
        capsys.readouterr()
        assert main(args + ["--gold", str(gold),
                            "--out", str(tmp_path / "warned")]) == 0
        assert capsys.readouterr().err == _ignored_warnings(gold)
        for name in ("sweep.tsv", "summary.tsv"):
            assert (tmp_path / "clean" / name).read_bytes() \
                == (tmp_path / "warned" / name).read_bytes()

    def test_full_grid_output_bytes_are_pinned(self, paths, tmp_path):
        out = tmp_path / "full"
        assert main(["sweep", "--vocab", paths["vocab"],
                     "--wordnet", paths["wordnet"], "--gold", paths["gold"],
                     "--taxonomy-roots", paths["roots"],
                     "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("sweep.tsv", "summary.tsv")}
        assert digests == {
            "sweep.tsv": "00094cb24f977acfb1d3ad3f4415590f"
                         "e9787385d3d5848f25d6f85dbcccb18a",
            "summary.tsv": "34e3ce0ea2c63c76217e4a4507442e59"
                           "5590b582e0594b924865a1dc6a0db2ba",
        }

    @pytest.mark.parametrize("args, digests", [
        (["baseline", "--kind", "random", "--seed", "42"], {
            "mapping.nt": "a140144042dc037f45fd1345eb353c92"
                          "8edfdf64f4a318063942b3f39972bca9",
            "mapping.tsv": "3d61160924db47b65e50e99258a2d3ab"
                           "db3166c6c344e67e0944df58ebbd8bc8"}),
        (["map", "--taxonomy-roots", "{roots}", "--alt-labels"], {
            "mapping.nt": "7e81da9ece911d4518c0da6bfeaaed41"
                          "6796d7ddf7325a63e177cbc7e8991d1c",
            "mapping.tsv": "00713b04caacfe2c56fd706a6a95aef0"
                           "3a578456702ae12a40509b24aac20524"}),
    ], ids=["random-baseline", "map-alt-labels"])
    def test_fixture_mapping_bytes_are_pinned(self, paths, tmp_path, args,
                                              digests):
        out = tmp_path / "out"
        assert main([arg.format(**paths) for arg in args]
                    + ["--vocab", paths["vocab"], "--wordnet",
                       paths["wordnet"], "--out", str(out)]) == 0
        assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in digests} == digests

    def test_timings_change_only_the_wall_ms_column(self, paths, tmp_path):
        tables = {}
        for name, flags in (("plain", []), ("timed", ["--timings"])):
            out = tmp_path / name
            assert main(_command_args("sweep", paths, out) + flags) == 0
            tables[name] = [line.split("\t") for line in
                            (out / "sweep.tsv").read_text().splitlines()]
        assert (tmp_path / "plain" / "summary.tsv").read_bytes() \
            == (tmp_path / "timed" / "summary.tsv").read_bytes()
        plain, timed = tables["plain"], tables["timed"]
        assert plain[0] == timed[0] and plain[0][-1] == "wall_ms"
        assert len(plain) == len(timed) == 1 + 396
        assert [row[:-1] for row in plain] == [row[:-1] for row in timed]
        assert all(row[-1] == "0" for row in plain[1:])
        assert all(row[-1].isdigit() and str(int(row[-1])) == row[-1]
                   for row in timed[1:])

    def test_summary_written(self, paths, tmp_path):
        out = tmp_path / "sum"
        assert main(["sweep", "--vocab", paths["vocab"],
                     "--wordnet", paths["wordnet"], "--gold", paths["gold"],
                     "--taxonomy", "off", "--ol-min", "0,1",
                     "--f-min", "0", "--out", str(out)]) == 0
        summary = (out / "summary.tsv").read_text()
        assert summary.splitlines()[-1].startswith("upper_bound")


class TestCmdEval:
    def test_gold_against_itself(self, paths, capsys):
        assert main(["eval", "--mapping", paths["gold"],
                     "--gold", paths["gold"]]) == 0
        assert capsys.readouterr().out.strip() \
            == "P=1.0000 R=1.0000 F=1.0000"

    def test_disjoint_files(self, paths, tmp_path, capsys):
        other = tmp_path / "other.nt"
        other.write_text(
            f"<{BAY}> <http://www.w3.org/2004/02/skos/core#relatedMatch> "
            "<http://www.w3.org/2006/03/wn/wn20/instances/synset-group-noun-1>"
            " .\n")
        assert main(["eval", "--mapping", str(other),
                     "--gold", paths["gold"]]) == 0
        assert capsys.readouterr().out.strip() \
            == "P=0.0000 R=0.0000 F=0.0000"

    def test_three_of_four_correct(self, paths, tmp_path, capsys):
        gold_lines = Path(paths["gold"]).read_text().splitlines(keepends=True)
        mapping = tmp_path / "m.nt"
        wrong = ("<http://example.org/vocab/term/k:landuse/v:field> "
                 "<http://www.w3.org/2004/02/skos/core#relatedMatch> "
                 "<http://www.w3.org/2006/03/wn/wn20/instances/"
                 "synset-group-noun-1> .\n")
        mapping.write_text("".join(gold_lines[:3]) + wrong)
        assert main(["eval", "--mapping", str(mapping),
                     "--gold", paths["gold"]]) == 0
        # P = 3/4, R = 3/7, F = 1.25*P*R / (0.25*P + R)
        assert capsys.readouterr().out.strip() \
            == "P=0.7500 R=0.4286 F=0.6522"


    def test_warnings_of_both_files_go_to_stderr(self, paths, tmp_path,
                                                 capsys):
        mapping = tmp_path / "m.nt"
        mapping.write_text(Path(paths["gold"]).read_text() + _IGNORED_TRIPLES)
        assert main(["eval", "--mapping", str(mapping),
                     "--gold", str(mapping)]) == 0
        captured = capsys.readouterr()
        assert captured.out == "P=1.0000 R=1.0000 F=1.0000\n"
        assert captured.err == 2 * _ignored_warnings(mapping)


class TestCmdTaxonomy:
    def test_closure_file(self, paths, tmp_path):
        out = tmp_path / "closure.txt"
        assert main(["taxonomy", "--wordnet", paths["wordnet"],
                     "--roots", paths["roots"], "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[-1] == "# count: 18"
        names = lines[:-1]
        assert names == sorted(names)
        assert "riverbed-noun-1" in names
        assert "bay-noun-2" not in names

    def test_single_isolated_root(self, paths, tmp_path):
        roots = tmp_path / "roots.txt"
        roots.write_text("riverbed-noun-1\n")
        out = tmp_path / "closure.txt"
        assert main(["taxonomy", "--wordnet", paths["wordnet"],
                     "--roots", str(roots), "--out", str(out)]) == 0
        assert out.read_text() == "riverbed-noun-1\n# count: 1\n"

    def test_without_out_writes_to_stdout(self, paths, tmp_path, capsys):
        roots = tmp_path / "roots.txt"
        roots.write_text("riverbed-noun-1\n")
        assert main(["taxonomy", "--wordnet", paths["wordnet"],
                     "--roots", str(roots)]) == 0
        assert capsys.readouterr() == ("riverbed-noun-1\n# count: 1\n", "")

    def test_unknown_root_exits_1_naming_it(self, paths, tmp_path, capsys):
        roots = tmp_path / "roots.txt"
        roots.write_text("unicorn-noun-1\n")
        assert main(["taxonomy", "--wordnet", paths["wordnet"],
                     "--roots", str(roots)]) == 1
        assert "unicorn-noun-1" in capsys.readouterr().err


class TestCmdBaseline:
    def test_random_is_seed_deterministic(self, paths, tmp_path):
        payloads = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["baseline", "--kind", "random", "--seed", "42",
                         "--vocab", paths["vocab"],
                         "--wordnet", paths["wordnet"], "--out", str(out)]) == 0
            payloads.append((out / "mapping.nt").read_bytes())
        assert payloads[0] == payloads[1]

    def test_trigram_labels_threshold_one(self, paths, tmp_path):
        out = tmp_path / "tri"
        assert main(["baseline", "--kind", "trigram-labels",
                     "--threshold", "1.0", "--vocab", paths["vocab"],
                     "--wordnet", paths["wordnet"], "--out", str(out)]) == 0
        triples = load_gold((out / "mapping.nt").read_bytes()).triples
        assert len(triples) == 7
        assert all(r.value == "related" for _, r, _ in triples)

    def test_bad_kind_is_usage_error(self, paths, capsys):
        assert main(["baseline", "--kind", "bogus", "--vocab", paths["vocab"],
                     "--wordnet", paths["wordnet"]]) == 2
        assert "--kind: invalid choice: 'bogus'" in _single_error_line(
            capsys.readouterr().err)

    def test_trigram_definitions_scores_below_tuned_mapper(self, paths,
                                                           tmp_path, capsys):
        def _f_measure_of(arguments):
            assert main(arguments) == 0
            out = capsys.readouterr().out.strip()
            return float(out.rsplit("F=", 1)[1])

        tuned_out = tmp_path / "tuned"
        assert main(["map", "--vocab", paths["vocab"],
                     "--wordnet", paths["wordnet"],
                     "--min-overlap", "1", "--min-freq", "1",
                     "--taxonomy-roots", paths["roots"],
                     "--out", str(tuned_out)]) == 0
        baseline_out = tmp_path / "tri-def"
        assert main(["baseline", "--kind", "trigram-definitions",
                     "--threshold", "0.9", "--vocab", paths["vocab"],
                     "--wordnet", paths["wordnet"],
                     "--out", str(baseline_out)]) == 0
        tuned_f = _f_measure_of(["eval",
                                 "--mapping", str(tuned_out / "mapping.nt"),
                                 "--gold", paths["gold"]])
        baseline_f = _f_measure_of(["eval",
                                    "--mapping",
                                    str(baseline_out / "mapping.nt"),
                                    "--gold", paths["gold"]])
        assert baseline_f < tuned_f


_IGNORED_TRIPLES = (
    f"<{BAY}> <{SKOS}broader> <http://example.org/vocab/term/k:natural> .\n"
    f"<{BAY}> <{SKOS}relatedMatch> <http://example.org/elsewhere> .\n")


def _ignored_warnings(path):
    """The warnings for _IGNORED_TRIPLES, the last two lines of ``path``."""
    last = path.read_text().count("\n")
    return (f"warning: {path}, line {last - 1}: predicate {SKOS}broader "
            "is not a mapping property; triple ignored\n"
            f"warning: {path}, line {last}: object is not a "
            "WordNet 2.0 synset IRI; triple ignored\n")


def _command_args(command, paths, out):
    """A command line that succeeds; a flag added after it overrides."""
    return {
        "map": ["map", "--vocab", paths["vocab"],
                "--wordnet", paths["wordnet"], "--out", str(out)],
        "sweep": ["sweep", "--vocab", paths["vocab"],
                  "--wordnet", paths["wordnet"], "--gold", paths["gold"],
                  "--taxonomy-roots", paths["roots"], "--out", str(out)],
        "baseline": ["baseline", "--kind", "random", "--vocab",
                     paths["vocab"], "--wordnet", paths["wordnet"],
                     "--out", str(out)],
        "eval": ["eval", "--mapping", paths["gold"], "--gold", paths["gold"]],
        "taxonomy": ["taxonomy", "--wordnet", paths["wordnet"],
                     "--roots", paths["roots"], "--out", str(out)],
    }[command]


def _single_error_line(err):
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), err
    return lines[0]


def _outputs(directory):
    return {str(f.relative_to(directory)): f.read_bytes()
            for f in sorted(directory.rglob("*")) if f.is_file()}


def test_outputs_do_not_depend_on_the_hash_seed(paths, tmp_path):
    """``map``, the full-grid ``sweep`` and the random baseline write the
    same bytes under two hash seeds.  The seed is fixed when an interpreter
    starts, so each seed gets its own."""
    script = ("import json, sys\nfrom vocmap.cli import main\n"
              "for argv in json.loads(sys.argv[1]):\n"
              "    assert main(argv) == 0, argv\n")
    source = str(Path(vocmap.__file__).parents[1])
    outputs = []
    for seed in ("0", "1"):
        out = tmp_path / seed
        commands = [
            _command_args("map", paths, out / "map")
            + ["--taxonomy-roots", paths["roots"], "--alt-labels"],
            _command_args("sweep", paths, out / "sweep"),
            _command_args("baseline", paths, out / "baseline"),
        ]
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [source, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                       env=env, check=True)
        outputs.append(_outputs(out))
    assert len(outputs[0]) == 7
    assert outputs[0] == outputs[1]


class TestFailurePaths:
    """Each failure ends with one ``error:`` line and its exit code."""

    @pytest.mark.parametrize("command, config, message", [
        ("map", "min_overlap = abc\n", "min_overlap"),
        ("map", "min-freq = 1.5\n", "min_freq"),
        ("sweep", "workers = many\n", "workers"),
        ("baseline", "threshold = high\n", "threshold"),
        ("baseline", "seed = 4 2\n", "seed"),
        ("map", "alt_labels = maybe\n", "alt_labels"),
        ("sweep", "timings = 2\n", "timings"),
        ("map", "min_overlp = 3\n", "absent.cfg, line 1: unknown key "
                                      "'min_overlp'"),
        ("baseline", "seed = 1\nx = 1\n", "absent.cfg, line 2: unknown key"),
        ("map", "min_overlap 3\n", "absent.cfg, line 1"),
        ("sweep", "out = o\nworkers\n", "absent.cfg, line 2"),
        ("baseline", b"seed = \xff\n", "absent.cfg"),
        # lines break at '\n' alone, so a form feed stays inside the value
        ("map", "min_overlap = 1\x0cmin_frq = 2\n",
         "min_overlap = '1\\x0cmin_frq = 2' is not a valid int"),
        ("map", None, "absent.cfg"),
        ("sweep", None, "absent.cfg"),
        ("baseline", None, "absent.cfg"),
    ])
    def test_bad_config_exits_1(self, paths, tmp_path, capsys, command,
                                config, message):
        cfg = tmp_path / "absent.cfg"
        if isinstance(config, bytes):
            cfg.write_bytes(config)
        elif config is not None:
            cfg.write_text(config)
        code = main(_command_args(command, paths, tmp_path / "o")
                    + ["--config", str(cfg)])
        assert code == 1
        assert message in _single_error_line(capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flags, message", [
        (["--ol-min", ""], "--ol-min"),
        (["--f-min", ""], "--f-min"),
        (["--f-min", " , "], "--f-min"),
        (["--ol-min", "1,x"], "--ol-min"),
        (["--taxonomy", "yes"], "--taxonomy"),
        (["--taxonomy", "off,maybe"], "--taxonomy"),
        (["--taxonomy", ""], "--taxonomy"),
    ])
    def test_malformed_grid_flag_is_usage_error(self, paths, tmp_path,
                                                capsys, flags, message):
        args = _command_args("sweep", paths, tmp_path / "o")
        code = main(args + flags)
        assert code == 2
        assert message in _single_error_line(capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, message", [
        (["map", "--vocab", "x"], "error: vocmap map: the following "
                                  "arguments are required: --wordnet"),
        (["map", "--vocab", "x", "--wordnet", "y", "--min-freq", "abc"],
         "error: vocmap map: argument --min-freq: invalid int value: 'abc'"),
        (["mop"], "error: vocmap: argument command: invalid choice: 'mop' "
                  "(choose from 'map', 'sweep', 'eval', 'taxonomy', "
                  "'baseline')"),
        ([], "error: vocmap: the following arguments are required: command"),
        (["map", "--vocab", "x", "--wordnet", "y", "--zzz"],
         "error: vocmap: unrecognized arguments: --zzz"),
        (["map", "--vocab", "x", "--wordnet", "y", "a\nb\u2028c"],
         "error: vocmap: unrecognized arguments: a\\u000Ab\\u2028c"),
    ])
    def test_argparse_error_is_one_usage_line(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert _single_error_line(captured.err) == message
        assert captured.out == ""

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["map", "--help"])
        assert err.value.code == 0
        assert capsys.readouterr().out.startswith("usage: vocmap map ")

    def test_malformed_grid_value_in_config_is_usage_error(self, paths,
                                                           tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("taxonomy = yes\n")
        code = main(_command_args("sweep", paths, tmp_path / "o")
                    + ["--config", str(cfg)])
        assert code == 2
        assert "--taxonomy" in _single_error_line(capsys.readouterr().err)

    def test_triple_without_object_names_file_and_line(self, paths, tmp_path,
                                                       capsys):
        # one space between the predicate and the final '.'
        bad = tmp_path / "bad.nt"
        bad.write_text(f'<{BAY}> <{SKOS}prefLabel> "bay" .\n'
                       f'<{BAY}> <{SKOS}prefLabel> .\n')
        code = main(_command_args("map", paths, tmp_path / "o")
                    + ["--vocab", str(bad)])
        assert code == 1
        assert _single_error_line(capsys.readouterr().err) \
            == f"error: {bad}, line 2: malformed triple"

    @pytest.mark.parametrize("command, flag", [
        ("map", "--vocab"),
        ("sweep", "--vocab"),
        ("sweep", "--gold"),
        ("baseline", "--vocab"),
        ("eval", "--mapping"),
        ("eval", "--gold"),
    ])
    def test_malformed_ntriples_error_names_the_file(self, paths, tmp_path,
                                                     capsys, command, flag):
        bad = tmp_path / "bad.nt"
        bad.write_text(f'<{BAY}> <{SKOS}prefLabel> "bay" .\nbroken\n')
        code = main(_command_args(command, paths, tmp_path / "o")
                    + [flag, str(bad)])
        assert code == 1
        assert _single_error_line(capsys.readouterr().err) \
            == f"error: {bad}, line 2: malformed triple"
        assert not (tmp_path / "o").exists()

    def test_relative_term_iri_names_file_and_line(self, paths, tmp_path,
                                                   capsys):
        bad = tmp_path / "relative.nt"
        bad.write_text(f'<{BAY}> <{SKOS}prefLabel> "bay" .\n'
                       f'<bay> <{SKOS}prefLabel> "bay" .\n')
        code = main(_command_args("map", paths, tmp_path / "o")
                    + ["--vocab", str(bad)])
        assert code == 1
        assert _single_error_line(capsys.readouterr().err).startswith(
            f"error: {bad}, line 2: term id is not an absolute IRI")

    @pytest.mark.parametrize("command, flag", [
        ("eval", "--mapping"),
        ("eval", "--gold"),
        ("sweep", "--gold"),
    ])
    def test_relative_mapping_subject_names_file_and_line(
            self, paths, tmp_path, capsys, command, flag):
        bad = tmp_path / "relative.nt"
        bad.write_text(
            f"<{BAY}> <{SKOS}closeMatch> <{WN20_SYNSET_NS}bay-noun-1> .\n"
            f"<foo> <{SKOS}closeMatch> <{WN20_SYNSET_NS}bay-noun-1> .\n")
        code = main(_command_args(command, paths, tmp_path / "o")
                    + [flag, str(bad)])
        assert code == 1
        assert _single_error_line(capsys.readouterr().err) == (
            f"error: {bad}, line 2: term id is not an absolute IRI: 'foo'")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command, flag, line_2, message", [
        pytest.param(command, flag, line_2, message, id=f"{command}-{flag}"
                     + suffix)
        for suffix, line_2, message in (
            ("", b"river\xff-noun-1", "not valid UTF-8"),
            ("-unknown-name", b"nosuch-noun-1",
             "no such noun sense: 'nosuch-noun-1'"),
            # a form feed does not end a line
            ("-form-feed", b"river-noun-1\x0cnosuch-noun-1",
             "no such noun sense: 'river-noun-1\\x0cnosuch-noun-1'"))
        for command, flag in (("map", "--taxonomy-roots"),
                              ("sweep", "--taxonomy-roots"),
                              ("taxonomy", "--roots"))
    ])
    def test_roots_with_invalid_utf8_name_file_and_line(
            self, paths, tmp_path, capsys, command, flag, line_2, message):
        roots = tmp_path / "roots.txt"
        roots.write_bytes(b"bay-noun-1\n" + line_2 + b"\n")
        code = main(_command_args(command, paths, tmp_path / "o")
                    + [flag, str(roots)])
        assert code == 1
        assert _single_error_line(capsys.readouterr().err) \
            == f"error: {roots}, line 2: {message}"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("brk", ["\u2028", "\x85", "\u2029"])
    @pytest.mark.parametrize("repro", ["gold-predicate", "gold-synset",
                                       "literal-escape"])
    def test_line_break_in_quoted_input_stays_one_stderr_line(
            self, paths, tmp_path, capsys, repro, brk):
        # an IRI or an escape may hold a character at which str.splitlines
        # breaks; the message quoting it shows that character as \uXXXX
        shown = f"\\u{ord(brk):04X}"
        if repro == "gold-predicate":
            gold = tmp_path / "gold.nt"
            base = Path(paths["gold"]).read_text()
            gold.write_text(base + f"<{BAY}> <{brk}{SKOS}relatedMatch> "
                            f"<{WN20_SYNSET_NS}bay-noun-1> .\n")
            code = main(_command_args("sweep", paths, tmp_path / "o")
                        + ["--gold", str(gold), "--taxonomy", "off",
                           "--ol-min", "0", "--f-min", "0"])
            expected = (f"warning: {gold}, line {base.count(chr(10)) + 1}: "
                        f"predicate {shown}{SKOS}relatedMatch is not a "
                        "mapping property; triple ignored")
        elif repro == "gold-synset":
            gold = tmp_path / "gold.nt"
            gold.write_text(Path(paths["gold"]).read_text()
                            + f"<{BAY}> <{SKOS}relatedMatch> "
                            f"<{WN20_SYNSET_NS}ba{brk}y-noun-1> .\n")
            code = main(_command_args("sweep", paths, tmp_path / "o")
                        + ["--gold", str(gold), "--taxonomy", "off",
                           "--ol-min", "0", "--f-min", "0"])
            expected = ("warning: 1 gold synset names are not in the store, "
                        f"first ba{shown}y-noun-1")
        else:
            vocab = tmp_path / "esc.nt"
            vocab.write_text(f'<{BAY}> <{SKOS}prefLabel> "a\\{brk}b" .\n')
            code = main(_command_args("map", paths, tmp_path / "o")
                        + ["--vocab", str(vocab)])
            expected = (f"error: {vocab}, line 1: unknown escape sequence "
                        f"\\{shown}")
        assert code == (1 if repro == "literal-escape" else 0)
        assert capsys.readouterr().err.splitlines() == [expected]

    @pytest.mark.parametrize("content, message", [
        ('{"synsets": [{"offset": 1, "lemmas": [{"lemma": "bay"}], '
         '"relations": 5}]}', "synsets[0].relations must be a list"),
        ("[" * 100_000, "invalid JSON"),
    ], ids=["relations-not-a-list", "nested-too-deep"])
    def test_malformed_fixture_is_one_error_line(self, paths, tmp_path,
                                                 capsys, content, message):
        fixture = tmp_path / "wordnet.json"
        fixture.write_text(content)
        code = main(_command_args("map", paths, tmp_path / "o")
                    + ["--wordnet", str(fixture)])
        assert code == 1
        assert message in _single_error_line(capsys.readouterr().err)

    @pytest.mark.parametrize("command, flags, config, flag", [
        ("map", ["--min-overlap=-1"], None, "--min-overlap"),
        ("map", ["--min-freq=-1"], None, "--min-freq"),
        ("map", [], "min_overlap = -2\n", "--min-overlap"),
        ("map", [], "min-freq = -2\n", "--min-freq"),
        ("sweep", ["--ol-min=-1,2"], None, "--ol-min"),
        ("sweep", ["--f-min=0,-1"], None, "--f-min"),
        ("sweep", [], "ol_min = 2,-3\n", "--ol-min"),
        ("sweep", [], "f_min = -1\n", "--f-min"),
        ("baseline", ["--threshold=nan"], None, "--threshold"),
        ("baseline", ["--threshold=-1"], None, "--threshold"),
        ("baseline", ["--threshold=1.5"], None, "--threshold"),
        ("baseline", [], "threshold = nan\n", "--threshold"),
    ])
    def test_negative_threshold_is_usage_error_before_loading(
            self, paths, tmp_path, capsys, command, flags, config, flag):
        # an absent store: the check must come before any load
        args = _command_args(command, paths, tmp_path / "o") + flags + [
            "--wordnet", str(tmp_path / "absent.json")]
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            args += ["--config", str(cfg)]
        code = main(args)
        assert code == 2
        line = _single_error_line(capsys.readouterr().err)
        assert flag in line and ">= 0" in line
        assert not (tmp_path / "o").exists()


# Each input the property below can corrupt, and the commands that read it.
_HOSTILE_READERS = {
    "vocab.nt": ("map", "sweep", "baseline"),
    "gold.nt": ("sweep", "eval"),
    "mapping.nt": ("eval",),
    "roots.txt": ("map", "sweep", "taxonomy"),
    "run.cfg": ("map", "sweep", "baseline"),
    "wordnet.json": ("map", "sweep", "taxonomy", "baseline"),
    **{f"wndb/{name}": ("map", "sweep", "taxonomy", "baseline")
       for name in ("index.noun", "data.noun", "cntlist.rev", "noun.exc")},
}
# bytes that end or open a token in one of the input formats
_HOSTILE_BYTES = (b"\xff", b"\x00", b"\n", b"\r", b"\x0c", b" ", b'"', b"\\",
                  b"<", b">", b".", b"#", b"=", b",", b"-", b"_", b"|", b"{",
                  b"[", b"]", b"}", b":", b"@", b"%", b"0", b"9", b"\\u",
                  "\u2028".encode(), "\x85".encode())


def _hostile_inputs():
    """The fixture inputs by file name, with a roots list and a config that
    every store and command can read; the config keeps the sweep's grid
    small."""
    files = {
        "vocab.nt": FIXTURES / "vocab_mini.nt",
        "gold.nt": FIXTURES / "gold_mini.nt",
        "mapping.nt": FIXTURES / "gold_mini.nt",
        "wordnet.json": FIXTURES / "wordnet_mini.json",
        **{f"wndb/{p.name}": p for p in (FIXTURES / "wndb").iterdir()},
    }
    contents = {name: path.read_bytes() for name, path in files.items()}
    contents["roots.txt"] = b"# salient roots\nwater-noun-1\nsea-noun-1\n"
    contents["run.cfg"] = (b"min_overlap = 1  # map\nmin_freq = 0\n"
                           b"ol_min = 0,1\nf_min = 0,5\ntaxonomy = off,on\n"
                           b"seed = 3\nthreshold = 0.5\n")
    return contents


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_hostile_input_ends_with_an_exit_code_and_one_error_line(data):
    """Random bytes spliced into one input, then a command that reads it:
    the exit code is 0, 1 or 2, no exception escapes, and a failure writes
    exactly one ``error:`` line, after at most some warnings."""
    target = data.draw(st.sampled_from(sorted(_HOSTILE_READERS)), "target")
    command = data.draw(st.sampled_from(_HOSTILE_READERS[target]), "command")
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        contents = _hostile_inputs()
        text = contents[target]
        at = data.draw(st.integers(0, len(text)), "at")
        cut = data.draw(st.integers(0, 4), "cut")
        insert = data.draw(st.one_of(st.binary(max_size=8),
                                     st.sampled_from(_HOSTILE_BYTES)),
                           "insert")
        contents[target] = text[:at] + insert + text[at + cut:]
        for name, payload in contents.items():
            (d / name).parent.mkdir(exist_ok=True)
            (d / name).write_bytes(payload)
        if target.startswith("wndb/"):
            store = "wndb"
        elif target == "wordnet.json":
            store = "wordnet.json"
        else:
            store = data.draw(st.sampled_from(("wordnet.json", "wndb")),
                              "store")
        vocab, wordnet, out = str(d / "vocab.nt"), str(d / store), str(d / "o")
        roots, config = str(d / "roots.txt"), str(d / "run.cfg")
        kind = data.draw(st.sampled_from(
            ("random", "trigram-labels", "trigram-definitions")), "kind") \
            if command == "baseline" else None
        argv = {
            "map": ["map", "--vocab", vocab, "--wordnet", wordnet,
                    "--taxonomy-roots", roots, "--config", config,
                    "--out", out, "--alt-labels"],
            "sweep": ["sweep", "--vocab", vocab, "--wordnet", wordnet,
                      "--gold", str(d / "gold.nt"), "--taxonomy-roots", roots,
                      "--config", config, "--out", out],
            "eval": ["eval", "--mapping", str(d / "mapping.nt"),
                     "--gold", str(d / "gold.nt")],
            "taxonomy": ["taxonomy", "--wordnet", wordnet, "--roots", roots,
                         "--out", str(d / "closure.txt")],
            "baseline": ["baseline", "--kind", kind, "--vocab", vocab,
                         "--wordnet", wordnet, "--config", config,
                         "--out", out],
        }[command]
        stderr = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 1, 2)
    # a line ends at a line feed alone, as the CLI counts an input's lines
    err = stderr.getvalue()
    assert not err or err.endswith("\n"), err
    lines = err.split("\n")[:-1]
    assert all(line.startswith(("error: ", "warning: ")) for line in lines), \
        lines
    assert sum(line.startswith("error: ") for line in lines) \
        == (code != 0), lines
