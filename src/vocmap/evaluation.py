"""Evaluation measures, the parameter sweep, and string-similarity baselines.

A machine mapping is scored against a human gold standard by exact triple
identity: a mapping with the right synset but the wrong relation counts as
incorrect.  The F-measure defaults to beta = 0.5, weighting precision over
recall.  The sweep builds one threshold-independent candidate table and
selects from it once per grid point, in sequence.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Sequence

from vocmap.mapper import CandidateTable, MapperConfig
from vocmap.vocab import Mapping, MappingRelation, MappingSet, Provenance
from vocmap.wordnet import SynsetId, WordNetStore


@dataclass(frozen=True)
class EvalResult:
    precision: float
    recall: float
    f_measure: float
    n_machine: int
    n_gold: int
    n_correct: int


def f_measure(precision: float, recall: float, beta: float = 0.5) -> float:
    """Weighted harmonic mean of precision and recall; beta < 1 favors
    precision.  Zero when the denominator vanishes."""
    denominator = beta * beta * precision + recall
    if denominator == 0:
        return 0.0
    return (1 + beta * beta) * precision * recall / denominator


def evaluate(machine: MappingSet, gold: MappingSet) -> EvalResult:
    """Precision, recall and F0.5 of a machine mapping against a gold
    standard.  Precision and recall are 0 by convention when their
    denominator set is empty."""
    m, g = machine.triples, gold.triples
    correct = len(m & g)
    precision = correct / len(m) if m else 0.0
    recall = correct / len(g) if g else 0.0
    return EvalResult(precision=precision, recall=recall,
                      f_measure=f_measure(precision, recall),
                      n_machine=len(m), n_gold=len(g), n_correct=correct)


# ---------------------------------------------------------------------------
# Parameter sweep

#: Default frequency thresholds: 0-5, then 10 to 100 in tens, plus 150 and
#: 200 to round the dimension out to 18 values.
DEFAULT_F_MIN_VALUES: tuple[int, ...] = (
    0, 1, 2, 3, 4, 5, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 150, 200)


@dataclass(frozen=True)
class SweepGrid:
    """The parameter grid: 2 taxonomy options x 11 overlap thresholds x 18
    frequency thresholds = 396 combinations by default."""

    taxonomy_options: tuple[bool, ...] = (False, True)
    ol_min_values: tuple[int, ...] = tuple(range(11))
    f_min_values: tuple[int, ...] = DEFAULT_F_MIN_VALUES

    def points(self) -> list[tuple[bool, int, int]]:
        """Grid points as (taxonomy_on, f_min, ol_min), in output order."""
        return [
            (taxonomy_on, f_min, ol_min)
            for taxonomy_on in sorted(set(self.taxonomy_options))
            for f_min in sorted(set(self.f_min_values))
            for ol_min in sorted(set(self.ol_min_values))
        ]

    def __len__(self) -> int:
        return len(self.points())


@dataclass(frozen=True)
class SweepRow:
    config: MapperConfig
    result: EvalResult
    wall_ms: float = field(compare=False, default=0.0)

    @property
    def taxonomy_on(self) -> bool:
        return self.config.taxonomy is not None


def run_sweep(vocabulary, store: WordNetStore, gold: MappingSet,
              grid: SweepGrid | None = None,
              taxonomy: frozenset[SynsetId] | None = None) -> list[SweepRow]:
    """Evaluate every grid point; one row per point, in grid order.

    The salient-taxonomy closure must be precomputed and passed in when the
    grid includes the taxonomy-on option; it is shared across all points.
    One candidate table is built under the loosest filters of the grid, and
    each point only selects from it, in sequence.  A row's ``wall_ms``
    covers the point's selection and evaluation, not the table build.
    """
    grid = grid if grid is not None else SweepGrid()
    points = grid.points()
    if taxonomy is None and any(on for on, _, _ in points):
        raise ValueError(
            "grid includes taxonomy=on but no taxonomy closure was provided")
    if not points:
        return []
    floor = MapperConfig(
        ol_min=min(ol_min for _, _, ol_min in points),
        f_min=min(f_min for _, f_min, _ in points),
        taxonomy=taxonomy if all(on for on, _, _ in points) else None)
    table = CandidateTable(vocabulary, store, floor)
    rows = []
    for taxonomy_on, f_min, ol_min in points:
        config = MapperConfig(ol_min=ol_min, f_min=f_min,
                              taxonomy=taxonomy if taxonomy_on else None)
        started = perf_counter()
        mapping = table.select(config)
        result = evaluate(mapping, gold)
        rows.append(SweepRow(config=config, result=result,
                             wall_ms=(perf_counter() - started) * 1000.0))
    return rows


def sweep_tsv(rows: Sequence[SweepRow], include_timings: bool = False) -> bytes:
    """Sweep rows as TSV.  Timings are written as 0 unless requested, so the
    default output is byte-reproducible."""
    lines = ["taxonomy\tf_min\tol_min\tprecision\trecall\tf_measure"
             "\tn_mappings\twall_ms"]
    for row in rows:
        wall_ms = int(round(row.wall_ms)) if include_timings else 0
        lines.append(
            f"{'on' if row.taxonomy_on else 'off'}\t{row.config.f_min}"
            f"\t{row.config.ol_min}\t{row.result.precision:.4f}"
            f"\t{row.result.recall:.4f}\t{row.result.f_measure:.4f}"
            f"\t{row.result.n_machine}\t{wall_ms}"
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def summary_tsv(rows: Sequence[SweepRow]) -> bytes:
    """Mean precision, recall and F per value of each parameter, then an
    upper-bound row of the column maxima over all rows.  Within each
    parameter, a mean that equals its column's best carries a trailing
    asterisk."""
    columns = ("precision", "recall", "f_measure")
    lines = ["parameter\tvalue\tmean_precision\tmean_recall\tmean_f_measure"]
    for parameter, key in (
            ("taxonomy", lambda row: "on" if row.taxonomy_on else "off"),
            ("f_min", lambda row: row.config.f_min),
            ("ol_min", lambda row: row.config.ol_min)):
        groups: dict = {}
        for row in rows:
            groups.setdefault(key(row), []).append(row.result)
        means = {value: [sum(getattr(r, c) for r in results) / len(results)
                         for c in columns]
                 for value, results in sorted(groups.items())}
        best = [max(column) for column in zip(*means.values())]
        for value, row_means in means.items():
            lines.append(f"{parameter}\t{value}\t" + "\t".join(
                f"{m:.4f}*" if m == b else f"{m:.4f}"
                for m, b in zip(row_means, best)))
    lines.append("upper_bound\t-\t" + "\t".join(
        f"{max(getattr(row.result, c) for row in rows):.4f}" for c in columns))
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Trigram string-similarity baseline

_PAD_START = "\x02"
_PAD_END = "\x03"


def _padded(text: str) -> str:
    return _PAD_START * 2 + text + _PAD_END * 2


def _trigrams(text: str) -> Counter:
    padded = _padded(text)
    return Counter(padded[i:i + 3] for i in range(len(padded) - 2))


def trigram_similarity(a: str, b: str) -> float:
    """Dice coefficient over boundary-padded character trigram multisets."""
    ta, tb = _trigrams(a), _trigrams(b)
    shared = sum((ta & tb).values())
    return 2.0 * shared / (sum(ta.values()) + sum(tb.values()))


def _trigram_hits(queries: Sequence[str], strings: Sequence[str],
                  threshold: float) -> list[list[tuple[int, float]]]:
    """For each query, the (index, similarity) of every string whose
    ``trigram_similarity`` with it is at least the threshold, in index
    order.

    A padded string of n characters has n + 2 trigrams.  A query of x
    trigrams and a string of y share at most min(x, y) of them, and at most
    ``common + repeats``: the distinct trigrams both hold, plus x minus the
    query's number of distinct trigrams.  A pair is skipped when either
    bound, divided by x + y as the similarity is, falls below the
    threshold, so it could not have matched; only the rest are scored.
    """
    groups: dict[int, list[tuple[int, str]]] = {}
    for index, text in enumerate(strings):
        groups.setdefault(len(text) + 2, []).append((index, _padded(text)))
    results = []
    for query in queries:
        padded = _padded(query)
        distinct = set(zip(padded, padded[1:], padded[2:]))
        x = len(query) + 2
        repeats = x - len(distinct)
        hits = []
        for y, members in groups.items():
            total = x + y
            if 2.0 * min(x, y) / total < threshold:
                continue
            for index, p in members:
                common = len(distinct.intersection(zip(p, p[1:], p[2:])))
                if 2.0 * (common + repeats) / total < threshold:
                    continue
                similarity = trigram_similarity(query, strings[index])
                if similarity >= threshold:
                    hits.append((index, similarity))
        hits.sort()
        results.append(hits)
    return results


def trigram_baseline_mapping(vocabulary, store: WordNetStore,
                             threshold: float,
                             strategy: str = "labels") -> MappingSet:
    """Fuzzy string-matching baseline.

    The 'labels' strategy compares term labels against word-sense lemmas;
    'definitions' compares term definitions against synset glosses, and
    leaves out a term without a definition.  Every pair at or above the
    threshold yields a related mapping, and all matching senses are kept:
    the baseline has no notion of sense salience.
    """
    if strategy not in ("labels", "definitions"):
        raise ValueError(f"unknown strategy: {strategy!r}")
    if not 0 <= threshold <= 1:
        raise ValueError(f"threshold must be >= 0 and <= 1, got {threshold}")
    uris = sorted(vocabulary.terms)
    terms = [vocabulary.terms[uri] for uri in uris]
    mappings: list[Mapping] = []
    if strategy == "labels":
        lemmas = sorted(store.lemma_index)
        hits = _trigram_hits(
            [" ".join(term.pref_label.lower().split()) for term in terms],
            [lemma.replace("_", " ") for lemma in lemmas], threshold)
        for uri, term_hits in zip(uris, hits):
            for index, similarity in term_hits:
                lemma = lemmas[index]
                for ws in store.lookup_senses(lemma):
                    mappings.append(Mapping(
                        term=uri, relation=MappingRelation.RELATED,
                        synset=store.synset_name(ws.synset),
                        score=similarity,
                        provenance=Provenance.LABEL, source_word=lemma,
                    ))
    else:
        # a term without a definition has nothing to compare
        uris = [uri for uri, term in zip(uris, terms) if term.definition]
        sids = sorted(store.synsets, key=lambda s: s.offset)
        hits = _trigram_hits(
            [vocabulary.terms[uri].definition.lower() for uri in uris],
            [store.gloss(sid).lower() for sid in sids], threshold)
        for uri, term_hits in zip(uris, hits):
            for index, similarity in term_hits:
                sid = sids[index]
                mappings.append(Mapping(
                    term=uri, relation=MappingRelation.RELATED,
                    synset=store.synset_name(sid),
                    score=similarity,
                    provenance=Provenance.DEFINITION,
                    source_word=store.synsets[sid].senses[0].lemma,
                ))
    return MappingSet(mappings)
