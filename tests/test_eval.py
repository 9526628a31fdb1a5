"""Evaluation measures, the parameter sweep, and the trigram baseline."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vocmap.evaluation import (
    SweepGrid,
    evaluate,
    f_measure,
    run_sweep,
    summary_tsv,
    sweep_tsv,
    trigram_baseline_mapping,
    trigram_similarity,
)
from vocmap.mapper import MapperConfig, map_vocabulary
from vocmap.vocab import Mapping, MappingRelation, MappingSet


def _mset(*triples):
    return MappingSet([
        Mapping(term=f"http://example.org/t/{t}", relation=r, synset=s)
        for t, r, s in triples
    ])


CLOSE, RELATED = MappingRelation.CLOSE, MappingRelation.RELATED


def _pr(machine, gold):
    result = evaluate(machine, gold)
    return result.precision, result.recall


class TestPrecisionRecall:
    def test_identical_sets(self):
        m = _mset(("a", CLOSE, "bay-noun-1"), ("b", RELATED, "sea-noun-1"))
        assert _pr(m, m) == (1.0, 1.0)

    def test_disjoint_sets(self):
        m = _mset(("a", CLOSE, "bay-noun-1"))
        g = _mset(("a", RELATED, "bay-noun-1"))
        assert _pr(m, g) == (0.0, 0.0)

    def test_hand_counted_case(self):
        machine = _mset(("a", CLOSE, "s1"), ("b", CLOSE, "s2"),
                        ("c", RELATED, "s3"), ("d", RELATED, "s4"))
        gold = _mset(("a", CLOSE, "s1"), ("b", CLOSE, "s2"),
                     ("c", RELATED, "s3"), ("e", CLOSE, "s5"),
                     ("f", RELATED, "s6"))
        result = evaluate(machine, gold)
        assert (result.precision, result.recall) == (0.75, 0.6)
        assert (result.n_machine, result.n_gold, result.n_correct) \
            == (4, 5, 3)
        assert result.f_measure == f_measure(0.75, 0.6)

    def test_empty_machine_set(self):
        assert _pr(_mset(), _mset(("a", CLOSE, "s1"))) == (0.0, 0.0)

    def test_symmetry_with_recall(self):
        m = _mset(("a", CLOSE, "s1"), ("b", CLOSE, "s2"))
        g = _mset(("a", CLOSE, "s1"), ("c", CLOSE, "s3"), ("d", CLOSE, "s4"))
        assert _pr(m, g)[0] == _pr(g, m)[1]

    def test_wrong_relation_is_incorrect(self):
        machine = _mset(("a", RELATED, "bay-noun-1"))
        gold = _mset(("a", CLOSE, "bay-noun-1"))
        assert _pr(machine, gold) == (0.0, 0.0)


class TestFMeasure:
    def test_perfect(self):
        assert f_measure(1.0, 1.0) == 1.0

    def test_zero_denominator(self):
        assert f_measure(0.0, 0.0) == 0.0

    def test_reported_high_values(self):
        assert math.isclose(f_measure(0.91, 0.98, beta=0.5), 0.92, abs_tol=0.005)

    def test_reported_tradeoff_values(self):
        assert math.isclose(f_measure(0.81, 0.45, beta=0.5), 0.70, abs_tol=0.005)

    def test_beta_half_favors_precision(self):
        assert f_measure(0.9, 0.5) > f_measure(0.5, 0.9)

    @given(st.floats(0.001, 1.0), st.floats(0.001, 1.0))
    def test_between_min_and_max(self, p, r):
        f = f_measure(p, r)
        assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12


class TestSweepGrid:
    def test_default_cardinality(self):
        grid = SweepGrid()
        assert len(grid) == 2 * 11 * 18 == 396

    def test_points_sorted_by_taxonomy_then_f_then_ol(self):
        points = SweepGrid(taxonomy_options=(True, False),
                           ol_min_values=(1, 0),
                           f_min_values=(5, 0)).points()
        assert points == [
            (False, 0, 0), (False, 0, 1), (False, 5, 0), (False, 5, 1),
            (True, 0, 0), (True, 0, 1), (True, 5, 0), (True, 5, 1),
        ]


class TestRunSweep:
    def test_degenerate_grid_equals_direct_call(self, mini_store, mini_vocab,
                                                mini_gold):
        grid = SweepGrid(taxonomy_options=(False,), ol_min_values=(1,),
                         f_min_values=(1,))
        (row,) = run_sweep(mini_vocab, mini_store, mini_gold, grid=grid)
        direct = evaluate(
            map_vocabulary(mini_vocab, mini_store,
                           MapperConfig(ol_min=1, f_min=1)), mini_gold)
        assert row.result == direct
        assert row.config.ol_min == 1 and row.config.f_min == 1

    def test_full_grid_row_count(self, mini_store, mini_vocab, mini_gold,
                                 mini_taxonomy):
        rows = run_sweep(mini_vocab, mini_store, mini_gold,
                         taxonomy=mini_taxonomy)
        assert len(rows) == 396

    def test_rows_equal_per_point_mapping_on_full_grid(
            self, mini_store, mini_vocab, mini_gold, mini_taxonomy):
        rows = run_sweep(mini_vocab, mini_store, mini_gold,
                         taxonomy=mini_taxonomy)
        assert len(rows) == 396
        for row, (taxonomy_on, f_min, ol_min) in zip(rows,
                                                     SweepGrid().points()):
            config = MapperConfig(ol_min=ol_min, f_min=f_min,
                                  taxonomy=mini_taxonomy if taxonomy_on
                                  else None)
            mapping = map_vocabulary(mini_vocab, mini_store, config)
            assert row.config == config
            assert row.result == evaluate(mapping, mini_gold)
            assert row.result.n_machine == len(mapping)

    def test_taxonomy_on_requires_closure(self, mini_store, mini_vocab,
                                          mini_gold):
        with pytest.raises(ValueError, match="taxonomy"):
            run_sweep(mini_vocab, mini_store, mini_gold)


def _summary_cells(rows):
    """summary.tsv as {(parameter, value): [precision, recall, F cells]}."""
    lines = summary_tsv(rows).decode().splitlines()[1:]
    return {tuple(cells[:2]): cells[2:]
            for cells in (line.split("\t") for line in lines)}


class TestSummarize:
    def test_identical_rows_mean_is_the_row(self, mini_store, mini_vocab,
                                            mini_gold):
        grid = SweepGrid(taxonomy_options=(False,), ol_min_values=(1,),
                         f_min_values=(0, 1))
        rows = run_sweep(mini_vocab, mini_store, mini_gold, grid=grid)
        assert rows[0].result == rows[1].result
        cells = _summary_cells(rows)
        assert [key for key in cells if key[0] == "ol_min"] == [("ol_min", "1")]
        assert cells["ol_min", "1"][0] == f"{rows[0].result.precision:.4f}*"

    def test_two_group_arithmetic(self):
        from vocmap.evaluation import EvalResult, SweepRow
        from vocmap.mapper import MapperConfig

        def _row(taxonomy, precision):
            result = EvalResult(precision=precision, recall=0.5,
                                f_measure=0.5, n_machine=1,
                                n_gold=1, n_correct=1)
            config = MapperConfig(taxonomy=frozenset() if taxonomy else None)
            return SweepRow(config=config, result=result)

        rows = [_row(False, 0.7), _row(False, 0.9),
                _row(True, 0.8), _row(True, 0.8)]
        assert summary_tsv(rows).decode().splitlines()[1:] == [
            "taxonomy\toff\t0.8000*\t0.5000*\t0.5000*",
            "taxonomy\ton\t0.8000*\t0.5000*\t0.5000*",
            "f_min\t0\t0.8000*\t0.5000*\t0.5000*",
            "ol_min\t0\t0.8000*\t0.5000*\t0.5000*",
            "upper_bound\t-\t0.9000\t0.5000\t0.5000",
        ]

    def test_group_means(self, mini_store, mini_vocab, mini_gold,
                         mini_taxonomy):
        grid = SweepGrid(ol_min_values=(0, 1), f_min_values=(0,))
        rows = run_sweep(mini_vocab, mini_store, mini_gold, grid=grid,
                         taxonomy=mini_taxonomy)
        means = {}
        for value in ("off", "on"):
            group = [r.result for r in rows
                     if ("on" if r.taxonomy_on else "off") == value]
            means[value] = [sum(r.precision for r in group) / len(group),
                            sum(r.recall for r in group) / len(group),
                            sum(r.f_measure for r in group) / len(group)]
        cells = _summary_cells(rows)
        assert [key[1] for key in cells if key[0] == "taxonomy"] \
            == ["off", "on"]
        best = [max(column) for column in zip(*means.values())]
        for value, row_means in means.items():
            assert cells["taxonomy", value] == [
                f"{m:.4f}*" if m == b else f"{m:.4f}"
                for m, b in zip(row_means, best)]

    def test_fixture_sweep_means_match_tsv_recomputation(
            self, mini_store, mini_vocab, mini_gold, mini_taxonomy):
        grid = SweepGrid(ol_min_values=(0, 1, 2), f_min_values=(0, 1, 5))
        rows = run_sweep(mini_vocab, mini_store, mini_gold, grid=grid,
                         taxonomy=mini_taxonomy)
        # independent recomputation from the emitted TSV text, whose cells
        # are rounded, so the means agree to within the rounding
        lines = sweep_tsv(rows).decode().splitlines()[1:]
        by_f: dict[str, list[float]] = {}
        for line in lines:
            cells = line.split("\t")
            by_f.setdefault(cells[1], []).append(float(cells[3]))
        summary = _summary_cells(rows)
        assert [key[1] for key in summary if key[0] == "f_min"] \
            == ["0", "1", "5"]
        for value, precisions in by_f.items():
            expected = sum(precisions) / len(precisions)
            mean = float(summary["f_min", value][0].rstrip("*"))
            assert mean == pytest.approx(expected, abs=5e-5)

    def test_upper_bounds_are_column_maxima(self, mini_store, mini_vocab,
                                            mini_gold, mini_taxonomy):
        grid = SweepGrid(ol_min_values=(0, 1), f_min_values=(0, 10))
        rows = run_sweep(mini_vocab, mini_store, mini_gold, grid=grid,
                         taxonomy=mini_taxonomy)
        assert _summary_cells(rows)["upper_bound", "-"] == [
            f"{max(r.result.precision for r in rows):.4f}",
            f"{max(r.result.recall for r in rows):.4f}",
            f"{max(r.result.f_measure for r in rows):.4f}",
        ]

    def test_summary_tsv_shape(self, mini_store, mini_vocab, mini_gold,
                               mini_taxonomy):
        grid = SweepGrid(ol_min_values=(0, 1), f_min_values=(0, 1))
        rows = run_sweep(mini_vocab, mini_store, mini_gold, grid=grid,
                         taxonomy=mini_taxonomy)
        lines = summary_tsv(rows).decode().splitlines()
        assert lines[0].startswith("parameter\tvalue")
        assert lines[-1].startswith("upper_bound\t-")
        # one block per parameter: 2 taxonomy + 2 f_min + 2 ol_min values
        assert len(lines) == 1 + 2 + 2 + 2 + 1


class TestTrigramSimilarity:
    def test_identity(self):
        assert trigram_similarity("university", "university") == 1.0

    def test_empty_versus_word(self):
        assert trigram_similarity("", "abc") == 0.0

    def test_night_nacht_hand_enumeration(self):
        # padded trigram multisets share exactly {^^n, ht$, t$$}: 2*3/(7+7)
        assert trigram_similarity("night", "nacht") == pytest.approx(3 / 7)

    def test_both_empty(self):
        assert trigram_similarity("", "") == 1.0

    @given(st.text(max_size=12), st.text(max_size=12))
    def test_symmetric_unit_range(self, a, b):
        s = trigram_similarity(a, b)
        assert trigram_similarity(b, a) == s
        assert 0.0 <= s <= 1.0

    @given(st.text(max_size=12))
    def test_one_exactly_for_identical(self, a):
        assert trigram_similarity(a, a) == 1.0


class TestTrigramBaseline:
    def test_threshold_one_keeps_exact_label_matches_only(self, mini_store,
                                                          mini_vocab):
        result = trigram_baseline_mapping(mini_vocab, mini_store, 1.0,
                                          strategy="labels")
        synsets = {(m.term.rsplit(":", 1)[-1], m.synset) for m in result}
        assert synsets == {
            ("bay", "bay-noun-1"), ("bay", "bay-noun-2"),
            ("river", "river-noun-1"), ("station", "station-noun-1"),
            ("swimming_pool", "swimming_pool-noun-1"),
            ("field", "field-noun-1"), ("field", "field-noun-12"),
        }
        assert all(m.relation is RELATED for m in result)

    def test_threshold_zero_is_cartesian(self, mini_store, mini_vocab):
        result = trigram_baseline_mapping(mini_vocab, mini_store, 0.0,
                                          strategy="labels")
        # 5 terms x 24 synsets (two lemmas of one synset collapse)
        assert len(result) == 5 * 24

    def test_definitions_strategy(self, mini_store, mini_vocab):
        strict = trigram_baseline_mapping(mini_vocab, mini_store, 0.95,
                                          strategy="definitions")
        loose = trigram_baseline_mapping(mini_vocab, mini_store, 0.0,
                                         strategy="definitions")
        assert len(strict) <= len(loose)
        assert len(loose) == 5 * 24

    def test_unknown_strategy_rejected(self, mini_store, mini_vocab):
        with pytest.raises(ValueError):
            trigram_baseline_mapping(mini_vocab, mini_store, 0.5,
                                     strategy="bogus")

    def test_scores_are_the_similarities(self, mini_store, mini_vocab):
        result = trigram_baseline_mapping(mini_vocab, mini_store, 0.9,
                                          strategy="labels")
        assert all(0.9 <= m.score <= 1.0 for m in result)
