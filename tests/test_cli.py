"""Command-line interface: exit codes, outputs, determinism."""

from pathlib import Path

import pytest

from oracle import oracle_map_vocabulary
from vocmap.cli import main
from vocmap.vocab import WN20_SYNSET_NS, MappingRelation, load_gold

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

    def test_bad_kind_is_usage_error(self, paths):
        with pytest.raises(SystemExit) as err:
            main(["baseline", "--kind", "bogus", "--vocab", paths["vocab"],
                  "--wordnet", paths["wordnet"]])
        assert err.value.code == 2

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

    def test_malformed_grid_value_in_config_is_usage_error(self, paths,
                                                           tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("taxonomy = yes\n")
        code = main(_command_args("sweep", paths, tmp_path / "o")
                    + ["--config", str(cfg)])
        assert code == 2
        assert "--taxonomy" in _single_error_line(capsys.readouterr().err)

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

    @pytest.mark.parametrize("command, flag", [
        ("map", "--taxonomy-roots"),
        ("sweep", "--taxonomy-roots"),
        ("taxonomy", "--roots"),
    ])
    def test_roots_with_invalid_utf8_name_file_and_line(
            self, paths, tmp_path, capsys, command, flag):
        roots = tmp_path / "roots.txt"
        roots.write_bytes(b"bay-noun-1\nriver\xff-noun-1\n")
        code = main(_command_args(command, paths, tmp_path / "o")
                    + [flag, str(roots)])
        assert code == 1
        assert _single_error_line(capsys.readouterr().err) \
            == f"error: {roots}, line 2: not valid UTF-8"
        assert not (tmp_path / "o").exists()

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
