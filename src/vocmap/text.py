"""Tokenization, noun lemmatization, and lexical-overlap machinery.

Definitions and glosses are reduced to bags of distinct lowercase lemmas:
tokenize, drop stopwords, apply suffix-detachment rules against the store's
lemma inventory, de-duplicate, and remove the lemmas of the term being
defined.  Lexical overlap between two such bags is the size of their
intersection.
"""

from __future__ import annotations

import re
from functools import lru_cache
from importlib import resources
from typing import Iterable

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:-+[a-z0-9]+)*")

#: Suffix-detachment rules tried in order; the first candidate present in the
#: store's lemma index wins.
NOUN_SUFFIX_RULES: tuple[tuple[str, str], ...] = (
    ("s", ""),
    ("ses", "s"),
    ("xes", "x"),
    ("zes", "z"),
    ("ches", "ch"),
    ("shes", "sh"),
    ("ies", "y"),
    ("men", "man"),
)


@lru_cache(maxsize=1)
def default_stopwords() -> frozenset[str]:
    """The English stopword list shipped with the package."""
    text = resources.files("vocmap").joinpath("data/stopwords_en.txt") \
        .read_text("utf-8")
    return frozenset(w.strip() for w in text.splitlines() if w.strip())


def tokenize(text: str) -> list[str]:
    """Lowercase maximal runs of letters and digits joined by inner hyphens,
    in order; a token never starts or ends with a hyphen."""
    return _TOKEN_RE.findall(text.lower())


def lemmatize_noun(token: str, store) -> str:
    """Reduce a token to a base noun form known to the store.

    The irregular-form map is consulted first, then the suffix rules in
    order; the token is returned unchanged when nothing matches.  The store
    never changes, so it keeps each token's base form once found.
    """
    base_forms = store._base_forms
    base = base_forms.get(token)
    if base is None:
        base = base_forms[token] = _base_form(token, store)
    return base


def _base_form(token: str, store) -> str:
    base = store.exceptions.get(token)
    if base:
        return base
    for suffix, replacement in NOUN_SUFFIX_RULES:
        if token.endswith(suffix):
            candidate = token[: len(token) - len(suffix)] + replacement
            if candidate and store.has_lemma(candidate):
                return candidate
    return token


def _content_lemmas(tokens: Iterable[str], store,
                    stopwords: frozenset[str]) -> set[str]:
    """The distinct lemmas of tokens that are not stopwords, before or
    after lemmatization."""
    bag: set[str] = set()
    for token in tokens:
        if token in stopwords:
            continue
        lemma = lemmatize_noun(token, store)
        if lemma in stopwords:
            continue
        bag.add(lemma)
    return bag


def normalize_definition(text: str, exclude: Iterable[str], store,
                         stopwords: frozenset[str]) -> frozenset[str]:
    """Reduce free text to its bag of distinct content lemmas.

    ``exclude`` carries the lemmas of the term the text defines; they never
    appear in the result.  Stopwords are filtered both before and after
    lemmatization so none can enter a bag.
    """
    return frozenset(_content_lemmas(tokenize(text), store, stopwords)
                     - set(exclude))


def compound_candidates(label: str) -> list[str]:
    """A label's form, its collocation, then each of its tokens when it has
    several: the strings that no term from its definition may be."""
    tokens = tokenize(label)
    if len(tokens) <= 1:
        return tokens
    return ["_".join(tokens)] + tokens


def _collocation_heads(store) -> frozenset[str]:
    """The part before the first '_' of every store lemma and every
    ``noun.exc`` key that holds a '_': each token that can start a
    collocation.  The store never changes, so the set is built once, on
    first use."""
    heads = store._collocation_heads
    if heads is None:
        heads = store._collocation_heads = frozenset(
            word.partition("_")[0]
            for words in (store.lemma_index, store.exceptions)
            for word in words if "_" in word)
    return heads


def _definition_terms(tokens: list[str], store,
                      stopwords: frozenset[str]) -> list[str]:
    """The distinct terms of a definition's tokens, in first-occurrence
    order: a token pair that lemmatizes to a store collocation is taken
    whole, else a non-stopword token whose lemma the store holds.  A pair
    is tried only when its first token heads a collocation, which skips no
    pair that could match (see ``extract_definition_terms``).
    """
    heads = _collocation_heads(store)
    found: list[str] = []
    i, n = 0, len(tokens)
    while i < n:
        token = tokens[i]
        if token in heads and i + 1 < n:
            bigram = lemmatize_noun(token + "_" + tokens[i + 1], store)
            if store.has_lemma(bigram):
                found.append(bigram)
                i += 2
                continue
        if token not in stopwords:
            lemma = lemmatize_noun(token, store)
            if store.has_lemma(lemma):
                found.append(lemma)
        i += 1
    return list(dict.fromkeys(found))


def extract_definition_terms(definition: str | None, store,
                             stopwords: frozenset[str],
                             exclude: Iterable[str] = ()) -> list[str]:
    """Terms worth mapping from a lexical definition, in first-occurrence
    order.

    Adjacent token pairs that form a collocation known to the store are kept
    whole and their parts dropped; remaining tokens survive if they are
    non-stopword lemmas with at least one noun sense.  ``exclude`` removes
    the defined term's own label forms.

    A pair is looked up only where its first token is the head (the part
    before the first '_') of a store lemma or of a ``noun.exc`` key holding
    a '_'.  That is exact: ``noun.exc`` maps a pair only when the pair is a
    key, and suffix detachment rewrites only the end of the second token,
    so any other lemma a pair reduces to starts with its first token and a
    '_'.  The definition is tokenized once, here; ``CandidateTable`` takes
    a definition's bag and its terms from the same tokens.
    """
    excluded = frozenset(exclude)
    return [t for t in _definition_terms(tokenize(definition or ""), store,
                                         stopwords) if t not in excluded]
