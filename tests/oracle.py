"""Brute-force reference mapper used as the test oracle.

Independently re-implements candidate generation (exhaustive scan of every
word sense, naive containment matching), the three filters, direct rank and
salience computation, best-candidate selection, relation assignment, and the
two-pass vocabulary driver.  It keeps its own tokenizer and definition-term
extractor, as the character loops the production patterns replaced; it
shares only the other text-normalization helpers and the data model with
the production code, and uses no index shortcuts.

For the trigram baselines it scans every lemma or gloss, and counts shared
character trigrams by merging two sorted lists, with no ``Counter`` and no
call to ``vocmap.evaluation``.

It also keeps the N-Triples line reader as a single backtracking pattern
and the escape decoder as a plain character loop, the reference for the
linear-time reader in ``vocmap.vocab``.
"""

from __future__ import annotations

import random
import re

from vocmap.text import (
    compound_candidates,
    default_stopwords,
    lemmatize_noun,
    normalize_definition,
)
from vocmap.vocab import ParseError


def oracle_tokenize(text: str) -> list[str]:
    """Lowercase runs of letters, digits and hyphens, each stripped of its
    outer hyphens; a run of hyphens alone is dropped."""
    tokens = []
    for match in re.findall(r"[a-z0-9-]+", text.lower()):
        token = match.strip("-")
        if token:
            tokens.append(token)
    return tokens


def oracle_extract_definition_terms(definition, store, stopwords,
                                    exclude=()) -> list[str]:
    """Definition terms by one left-to-right walk: a token pair that
    lemmatizes to a store collocation is taken whole, else a non-stopword
    token whose lemma the store holds; each kept once, at its first
    occurrence, unless ``exclude`` names it."""
    excluded = frozenset(exclude)
    tokens = oracle_tokenize(definition or "")
    found: list[str] = []
    seen: set[str] = set()

    def _push(lemma: str) -> None:
        if lemma not in seen and lemma not in excluded:
            seen.add(lemma)
            found.append(lemma)

    i = 0
    while i < len(tokens):
        if i + 1 < len(tokens):
            bigram = lemmatize_noun(tokens[i] + "_" + tokens[i + 1], store)
            if store.has_lemma(bigram):
                _push(bigram)
                i += 2
                continue
        token = tokens[i]
        if token not in stopwords:
            lemma = lemmatize_noun(token, store)
            if store.has_lemma(lemma):
                _push(lemma)
        i += 1
    return found


def lexical_match(lemma: str, label: str) -> str | None:
    """'complete' when the lemma's token sequence equals the label's,
    'partial' when it occurs as a contiguous window of it, None otherwise,
    by direct token-window comparison."""
    lemma_tokens = [t for t in lemma.split("_") if t]
    label_tokens = oracle_tokenize(label)
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
                          taxonomy=None, use_alt_labels=False) -> set[tuple]:
    """The full mapping as a set of comparable result tuples.

    Tuples are (term-uri, relation, synset-name, rounded sigma, provenance,
    source-word).  The label mapping comes from the preferred label, then
    (with ``use_alt_labels``) from each alternative label: the first label
    with any row wins, and every label's rows count overlaps against the
    definition less the preferred label's lemmas.
    """
    stopwords = default_stopwords()
    results: set[tuple] = set()
    for uri in sorted(vocabulary.terms):
        term = vocabulary.terms[uri]
        label_exclude = {lemmatize_noun(t, store)
                         for t in oracle_tokenize(term.pref_label)}
        labels = (term.pref_label,) + (term.alt_labels if use_alt_labels
                                       else ())
        for label in labels:
            hit = _map_label(label, term.definition, label_exclude, store,
                             ol_min, f_min, taxonomy)
            if hit is not None:
                relation, synset, sigma, form = hit
                results.add((uri, relation, synset, round(sigma, 12),
                             "label", form))
                break
        d_exclude = set(compound_candidates(term.pref_label)) | label_exclude
        for d in oracle_extract_definition_terms(
                term.definition, store, stopwords, exclude=d_exclude):
            hit = _map_label(d, term.definition,
                             {lemmatize_noun(t, store)
                              for t in oracle_tokenize(d)},
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
            lemmatize_noun(t, store) for t in oracle_tokenize(term.pref_label)}
        passes = [(None, term.pref_label)] + [
            (d, d) for d in oracle_extract_definition_terms(
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


def _sorted_trigrams(text: str) -> list[str]:
    """The character trigrams of ``text`` padded with two STX before and
    two ETX after, sorted, repeats kept."""
    padded = "\x02\x02" + text + "\x03\x03"
    return sorted(padded[i:i + 3] for i in range(len(padded) - 2))


def oracle_dice(a: str, b: str) -> float:
    """Dice coefficient of two padded trigram multisets, counting the
    shared trigrams by one merge of the two sorted lists."""
    x, y = _sorted_trigrams(a), _sorted_trigrams(b)
    i = j = shared = 0
    while i < len(x) and j < len(y):
        if x[i] == y[j]:
            shared += 1
            i += 1
            j += 1
        elif x[i] < y[j]:
            i += 1
        else:
            j += 1
    return 2.0 * shared / (len(x) + len(y))


def oracle_trigram_baseline(vocabulary, store, threshold,
                            strategy) -> list[tuple]:
    """The trigram baseline as a list of (term-uri, relation, synset-name,
    score, provenance, source-word), in emission order, by a scan of every
    store sense or synset for each term in URI order.

    'labels' compares the lowercased preferred label, its whitespace runs
    collapsed to one space and trimmed, with each lemma (underscores read
    as spaces) in sorted order, and emits the lemma's senses by sense
    number.  'definitions' compares the lowercased definition with each
    lowercased gloss, synsets by offset, and names the first lemma; a term
    with no definition, or an empty one, matches nothing.  A triple met
    twice keeps its first tuple.
    """
    synsets = sorted(store.synsets.values(), key=lambda s: s.id.offset)
    results: dict[tuple, tuple] = {}
    for uri in sorted(vocabulary.terms):
        term = vocabulary.terms[uri]
        found = []
        if strategy == "labels":
            label = re.sub(r"\s+", " ", term.pref_label.lower()).strip()
            senses = [sense for synset in synsets for sense in synset.senses]
            for lemma in sorted({sense.lemma for sense in senses}):
                score = oracle_dice(label, lemma.replace("_", " "))
                if score >= threshold:
                    found += [(sense.synset, score, "label", lemma)
                              for sense in sorted(
                                  (s for s in senses if s.lemma == lemma),
                                  key=lambda s: s.sense_number)]
        elif term.definition:
            definition = term.definition.lower()
            for synset in synsets:
                score = oracle_dice(definition, synset.gloss.lower())
                if score >= threshold:
                    found.append((synset.id, score, "definition",
                                  synset.senses[0].lemma))
        for sid, score, provenance, source in found:
            triple = (uri, "related", _synset_name(store.synsets[sid]))
            results.setdefault(triple, triple + (score, provenance, source))
    return list(results.values())


def mapping_set_tuples(mapping_set) -> set[tuple]:
    """Production MappingSet rendered as the oracle's tuple shape."""
    return {
        (m.term, m.relation.value, m.synset, round(m.score, 12),
         m.provenance.value, m.source_word)
        for m in mapping_set
    }


# ---------------------------------------------------------------------------
# N-Triples line reading: one pattern, which backtracks on long whitespace

_IRI_REF = r"<([^\x00-\x20<>\"{}|^`\\]*)>"
_TRIPLE_RE = re.compile(rf"^{_IRI_REF}\s+{_IRI_REF}\s+(.+?)\s*\.$")
_LITERAL_RE = re.compile(
    r'^"((?:[^"\\]|\\.)*)"(?:@([A-Za-z]+(?:-[A-Za-z0-9]+)*)|\^\^<[^<>\s]*>)?$'
)
_PLAIN_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}
_UCHAR_WIDTHS = {"u": 4, "U": 8}
_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")


def oracle_unescape(text: str, line_no: int) -> str:
    """Decode N-Triples escapes one character at a time."""
    out: list[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch != "\\":
            out.append(ch)
            i += 1
            continue
        esc = text[i + 1]
        if esc in _UCHAR_WIDTHS:
            width = _UCHAR_WIDTHS[esc]
            digits = text[i + 2:i + 2 + width]
            if len(digits) != width or not _HEX_DIGITS.issuperset(digits):
                raise ParseError(f"\\{esc} needs exactly {width} hex digits",
                                 line_no)
            code = int(digits, 16)
            if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
                raise ParseError(f"\\{esc}{digits} is not a Unicode scalar "
                                 "value", line_no)
            out.append(chr(code))
            i += 2 + width
        elif esc in _PLAIN_ESCAPES:
            out.append(_PLAIN_ESCAPES[esc])
            i += 2
        else:
            # a character at which str.splitlines breaks is shown as \uXXXX
            if len(f"a{esc}b".splitlines()) > 1:
                esc = f"u{ord(esc):04X}"
            raise ParseError(f"unknown escape sequence \\{esc}", line_no)
    return "".join(out)


def oracle_triple(line: str, line_no: int = 1):
    """(subject, predicate, object) of one stripped, non-comment line, in
    the shape ``vocab._iter_triples`` yields, or its ``ParseError``."""
    m = _TRIPLE_RE.match(line)
    if not m:
        raise ParseError("malformed triple", line_no)
    subject, predicate, obj_text = m.groups()
    if obj_text.startswith("<"):
        om = re.fullmatch(_IRI_REF, obj_text)
        if not om:
            raise ParseError("malformed object IRI", line_no)
        obj = ("iri", om.group(1))
    elif obj_text.startswith('"'):
        om = _LITERAL_RE.match(obj_text)
        if not om:
            raise ParseError("malformed literal", line_no)
        obj = ("literal", oracle_unescape(om.group(1), line_no), om.group(2))
    else:
        raise ParseError("object must be an IRI or a literal", line_no)
    return subject, predicate, obj
