"""Brute-force reference mapper used as the test oracle.

Independently re-implements candidate generation (exhaustive scan of every
word sense, naive containment matching), the three filters, direct rank and
salience computation, best-candidate selection, relation assignment, and the
two-pass vocabulary driver.  It shares only the text-normalization helpers
and the data model with the production code, and uses no index shortcuts.
"""

from __future__ import annotations

import random

from vocmap.text import (
    compound_candidates,
    default_stopwords,
    extract_definition_terms,
    lemmatize_noun,
    normalize_definition,
    tokenize,
)


def lexical_match(lemma: str, label: str) -> str | None:
    """'complete' when the lemma's token sequence equals the label's,
    'partial' when it occurs as a contiguous window of it, None otherwise,
    by direct token-window comparison."""
    lemma_tokens = [t for t in lemma.split("_") if t]
    label_tokens = tokenize(label)
    if not lemma_tokens or not label_tokens:
        return None
    if lemma_tokens == label_tokens:
        return "complete"
    width = len(lemma_tokens)
    windows = [label_tokens[i:i + width]
               for i in range(len(label_tokens) - width + 1)]
    return "partial" if lemma_tokens in windows else None


def lexical_overlap(a, b) -> int:
    """Number of distinct lemmas shared by two normalized bags."""
    return len(frozenset(a) & frozenset(b))


def rank_desc(values) -> list[int]:
    """Descending competition ranks by direct counting: 1 + the count of
    strictly greater values; ties share a rank."""
    return [1 + sum(1 for other in values if other > v) for v in values]


def _synset_name(synset) -> str:
    first = synset.senses[0]
    return f"{first.lemma}-noun-{first.sense_number}"


def _candidates(form, definition, exclude, store, ol_min, f_min, taxonomy):
    """Rows (sense, kind, f, ol, synset) surviving all three filters."""
    stopwords = default_stopwords()
    term_bag = normalize_definition(definition or "", exclude, store, stopwords)
    rows = []
    for synset in store.synsets.values():
        if taxonomy is not None and synset.id not in taxonomy:
            continue
        gloss_bag = normalize_definition(synset.gloss, exclude, store,
                                         stopwords)
        for sense in synset.senses:
            kind = lexical_match(sense.lemma, form)
            if kind is None:
                continue
            if sense.tag_frequency < f_min:
                continue
            overlap = lexical_overlap(term_bag, gloss_bag)
            if overlap < ol_min:
                continue
            rows.append((sense, kind, sense.tag_frequency, overlap, synset))
    return rows


def _sigma(row, rows) -> float:
    n = len(rows)
    rank_f = 1 + len([r for r in rows if r[2] > row[2]])
    rank_ol = 1 + len([r for r in rows if r[3] > row[3]])
    theta = 1  # survivors always belong; no taxonomy means the whole store
    return (2 * n - rank_f - rank_ol + theta) / (2 * n - 1)


def _map_label(label, definition, exclude, store, ol_min, f_min, taxonomy):
    """(relation, synset-name, sigma, form) for one label, or None."""
    for form in compound_candidates(label):
        rows = _candidates(form, definition, exclude, store, ol_min, f_min,
                           taxonomy)
        if not rows:
            continue
        best = sorted(
            rows,
            key=lambda r: (-_sigma(r, rows), -r[2], r[4].id.offset,
                           r[0].lemma, r[0].sense_number),
        )[0]
        is_close = (best[1] == "complete"
                    and best[3] == max(r[3] for r in rows)
                    and best[2] == max(r[2] for r in rows))
        return ("close" if is_close else "related", _synset_name(best[4]),
                _sigma(best, rows), form)
    return None


def oracle_map_vocabulary(vocabulary, store, ol_min=0, f_min=0,
                          taxonomy=None) -> set[tuple]:
    """The full mapping as a set of comparable result tuples.

    Tuples are (term-uri, relation, synset-name, rounded sigma, provenance,
    source-word).
    """
    stopwords = default_stopwords()
    results: set[tuple] = set()
    for uri in sorted(vocabulary.terms):
        term = vocabulary.terms[uri]
        label_exclude = {lemmatize_noun(t, store)
                         for t in tokenize(term.pref_label)}
        hit = _map_label(term.pref_label, term.definition, label_exclude,
                         store, ol_min, f_min, taxonomy)
        if hit is not None:
            relation, synset, sigma, form = hit
            results.add((uri, relation, synset, round(sigma, 12), "label",
                         form))
        d_exclude = set(compound_candidates(term.pref_label)) | label_exclude
        for d in extract_definition_terms(term.definition, store, stopwords,
                                          exclude=d_exclude):
            hit = _map_label(d, term.definition,
                             {lemmatize_noun(t, store) for t in tokenize(d)},
                             store, ol_min, f_min, taxonomy)
            if hit is None:
                continue
            _, synset, sigma, _ = hit
            results.add((uri, "related", synset, round(sigma, 12),
                         "definition", d))
    return results


def oracle_random_baseline(vocabulary, store, seed=0) -> set[tuple]:
    """The random baseline in the oracle's tuple shape, by brute force.

    For the preferred label, then each term extracted from the definition,
    the forms of ``compound_candidates`` are walked in order; the first form
    that some sense lexically matches yields one of its matching senses,
    drawn with the term's own ``Random(f"{seed}:{uri}")``.  A triple met
    twice keeps its first tuple.
    """
    stopwords = default_stopwords()
    results: dict[tuple, tuple] = {}
    for uri in sorted(vocabulary.terms):
        term = vocabulary.terms[uri]
        rng = random.Random(f"{seed}:{uri}")
        exclude = set(compound_candidates(term.pref_label)) | {
            lemmatize_noun(t, store) for t in tokenize(term.pref_label)}
        passes = [(None, term.pref_label)] + [
            (d, d) for d in extract_definition_terms(
                term.definition, store, stopwords, exclude=exclude)]
        for d, label in passes:
            for form in compound_candidates(label):
                senses = sorted(
                    (sense for synset in store.synsets.values()
                     for sense in synset.senses
                     if lexical_match(sense.lemma, form) is not None),
                    key=lambda s: (s.synset.offset, s.lemma, s.sense_number))
                if not senses:
                    continue
                synset = store.synsets[rng.choice(senses).synset]
                triple = (uri, "related", _synset_name(synset))
                results.setdefault(triple, triple + (
                    0.0, "label" if d is None else "definition", d or form))
                break
    return set(results.values())


def mapping_set_tuples(mapping_set) -> set[tuple]:
    """Production MappingSet rendered as the oracle's tuple shape."""
    return {
        (m.term, m.relation.value, m.synset, round(m.score, 12),
         m.provenance.value, m.source_word)
        for m in mapping_set
    }
