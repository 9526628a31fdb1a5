"""SKOS-style vocabulary and mapping data model with N-Triples serialization.

A vocabulary is a set of terms, each carrying a preferred label, optional
alternative labels, an optional lexical definition, and broader/narrower/
related links.  Mappings connect a term to a WordNet noun synset through one
of the three SKOS mapping relations (exactMatch, closeMatch, relatedMatch).

Input and output are line-oriented N-Triples (UTF-8, LF).  Serialization is
deterministic: byte output depends only on set content, never on insertion
order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

SKOS = "http://www.w3.org/2004/02/skos/core#"
SKOS_PREF_LABEL = SKOS + "prefLabel"
SKOS_ALT_LABEL = SKOS + "altLabel"
SKOS_DEFINITION = SKOS + "definition"
SKOS_BROADER = SKOS + "broader"
SKOS_NARROWER = SKOS + "narrower"
SKOS_RELATED = SKOS + "related"
SKOS_EXACT_MATCH = SKOS + "exactMatch"
SKOS_CLOSE_MATCH = SKOS + "closeMatch"
SKOS_RELATED_MATCH = SKOS + "relatedMatch"

# WordNet 2.0 linked-data instance namespace; mapping objects are synset IRIs
# of the form <namespace><first-lemma>-noun-<sense-number>.
WN20_SYNSET_NS = "http://www.w3.org/2006/03/wn/wn20/instances/synset-"

_ABSOLUTE_IRI_RE = re.compile(r"^[A-Za-z][A-Za-z0-9+.-]*:\S+$")


class ParseError(ValueError):
    """Malformed N-Triples input.  Carries the 1-based line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class MappingRelation(Enum):
    """The three SKOS mapping relations a term-to-synset link can carry."""

    EXACT = "exact"
    CLOSE = "close"
    RELATED = "related"

    @property
    def predicate(self) -> str:
        return _RELATION_TO_PREDICATE[self]


_RELATION_TO_PREDICATE = {
    MappingRelation.EXACT: SKOS_EXACT_MATCH,
    MappingRelation.CLOSE: SKOS_CLOSE_MATCH,
    MappingRelation.RELATED: SKOS_RELATED_MATCH,
}
_PREDICATE_TO_RELATION = {v: k for k, v in _RELATION_TO_PREDICATE.items()}


class Provenance(Enum):
    """Whether a mapping came from the term's label or from its definition."""

    LABEL = "label"
    DEFINITION = "definition"


@dataclass(frozen=True)
class Term:
    """One vocabulary concept."""

    uri: str
    pref_label: str
    alt_labels: tuple[str, ...] = ()
    definition: str | None = None
    broader: tuple[str, ...] = ()
    narrower: tuple[str, ...] = ()
    related: tuple[str, ...] = ()

    def __post_init__(self):
        if not _ABSOLUTE_IRI_RE.match(self.uri):
            raise ValueError(f"term id is not an absolute IRI: {self.uri!r}")
        label = self.pref_label.strip()
        if not label:
            raise ValueError(f"term {self.uri} has an empty prefLabel")
        object.__setattr__(self, "pref_label", label)
        seen: list[str] = []
        for alt in self.alt_labels:
            alt = alt.strip()
            if alt and alt != label and alt not in seen:
                seen.append(alt)
        object.__setattr__(self, "alt_labels", tuple(seen))


class Vocabulary:
    """An immutable collection of terms keyed by URI.

    ``external_refs`` holds broader/narrower/related targets that do not
    resolve to a term of this vocabulary.
    """

    def __init__(self, terms: Iterable[Term], name: str = "",
                 warnings: Iterable[str] = ()):
        by_uri: dict[str, Term] = {}
        for term in terms:
            if term.uri in by_uri:
                raise ValueError(f"duplicate term id: {term.uri}")
            by_uri[term.uri] = term
        self.terms = by_uri
        self.name = name
        self.warnings = list(warnings)
        external: set[str] = set()
        for term in by_uri.values():
            for target in term.broader + term.narrower + term.related:
                if target not in by_uri:
                    external.add(target)
        self.external_refs = frozenset(external)

    def __len__(self) -> int:
        return len(self.terms)

    def __iter__(self) -> Iterator[Term]:
        return iter(self.terms.values())


@dataclass(frozen=True)
class Mapping:
    """A term-to-synset mapping triple with its score and provenance.

    ``synset`` is the canonical WordNet 2.0 instance name (for example
    ``bay-noun-1``); prepending :data:`WN20_SYNSET_NS` yields the object IRI.
    """

    term: str
    relation: MappingRelation
    synset: str
    score: float = 1.0
    provenance: Provenance = Provenance.LABEL
    source_word: str = ""

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"mapping score out of [0,1]: {self.score}")
        if self.provenance is Provenance.DEFINITION \
                and self.relation is not MappingRelation.RELATED:
            raise ValueError("definition-derived mappings must be 'related'")

    @property
    def triple(self) -> tuple[str, MappingRelation, str]:
        return (self.term, self.relation, self.synset)


class MappingSet:
    """A de-duplicated set of mappings plus the warnings raised making it.

    Duplicate (term, relation, synset) triples collapse to the first one
    seen.  Identity for evaluation purposes is the triple alone; scores,
    provenance, and source words are carried along as annotations.
    """

    def __init__(self, mappings: Iterable[Mapping],
                 warnings: Iterable[str] = ()):
        kept: list[Mapping] = []
        seen: set[tuple] = set()
        for m in mappings:
            if m.triple in seen:
                continue
            seen.add(m.triple)
            kept.append(m)
        self.mappings = tuple(kept)
        self.triples: frozenset[tuple[str, MappingRelation, str]] = \
            frozenset(seen)
        self.warnings = list(warnings)

    def __len__(self) -> int:
        return len(self.mappings)

    def __iter__(self) -> Iterator[Mapping]:
        return iter(self.mappings)


# ---------------------------------------------------------------------------
# N-Triples reading

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


def _unescape(text: str, line_no: int) -> str:
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
            raise ParseError(f"unknown escape sequence \\{esc}", line_no)
    return "".join(out)


def _iter_triples(data: bytes | str):
    """Yield (line_no, subject, predicate, object) from N-Triples input.

    Objects are ("iri", value) or ("literal", text, language-or-None).
    Blank lines and comment lines are skipped.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError("invalid UTF-8",
                             data.count(b"\n", 0, exc.start) + 1) from None
    else:
        text = data
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
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
            obj = ("literal", _unescape(om.group(1), line_no), om.group(2))
        else:
            raise ParseError("object must be an IRI or a literal", line_no)
        yield line_no, subject, predicate, obj


def _pick_by_language(values: dict[str | None, str]) -> str | None:
    """Prefer English, then untagged, then first-seen."""
    if "en" in values:
        return values["en"]
    for lang, text in values.items():
        if lang and lang.lower().startswith("en-"):
            return text
    if None in values:
        return values[None]
    return next(iter(values.values()), None)


def parse_vocabulary_ntriples(data: bytes | str, name: str = "") -> Vocabulary:
    """Parse a SKOS vocabulary from N-Triples.

    One term is built per subject that carries at least one prefLabel.
    Only the first prefLabel (and definition) per language tag is kept;
    repeats are recorded as warnings.  Unrecognized predicates are ignored.
    """
    pref: dict[str, dict[str | None, str]] = {}
    definition: dict[str, dict[str | None, str]] = {}
    alt: dict[str, list[str]] = {}
    links: dict[str, dict[str, list[str]]] = {}
    first_line: dict[str, int] = {}  # subjects in order, with their line
    warnings: list[str] = []

    def _subject(s: str, line_no: int) -> None:
        if s not in pref:
            pref[s] = {}
            definition[s] = {}
            alt[s] = []
            links[s] = {"broader": [], "narrower": [], "related": []}
            first_line[s] = line_no

    for line_no, subject, predicate, obj in _iter_triples(data):
        if predicate in (SKOS_PREF_LABEL, SKOS_ALT_LABEL, SKOS_DEFINITION):
            if obj[0] != "literal":
                warnings.append(
                    f"line {line_no}: non-literal object for {predicate}; ignored")
                continue
            _, text, lang = obj
            _subject(subject, line_no)
            if predicate == SKOS_PREF_LABEL:
                if lang in pref[subject]:
                    warnings.append(
                        f"line {line_no}: repeated prefLabel for <{subject}> "
                        f"(language {lang or 'untagged'}); keeping the first")
                else:
                    pref[subject][lang] = text
            elif predicate == SKOS_ALT_LABEL:
                alt[subject].append(text)
            else:
                if lang not in definition[subject]:
                    definition[subject][lang] = text
        elif predicate in (SKOS_BROADER, SKOS_NARROWER, SKOS_RELATED):
            if obj[0] != "iri":
                warnings.append(
                    f"line {line_no}: non-IRI object for {predicate}; ignored")
                continue
            _subject(subject, line_no)
            key = {SKOS_BROADER: "broader", SKOS_NARROWER: "narrower",
                   SKOS_RELATED: "related"}[predicate]
            links[subject][key].append(obj[1])
        # anything else: not a SKOS vocabulary predicate, skip silently

    terms: list[Term] = []
    for subject, line_no in first_line.items():
        label = _pick_by_language(pref[subject])
        if label is None or not label.strip():
            if definition[subject] or alt[subject]:
                warnings.append(f"term <{subject}> skipped: no prefLabel")
            continue
        try:
            terms.append(Term(
                uri=subject,
                pref_label=label,
                alt_labels=tuple(alt[subject]),
                definition=_pick_by_language(definition[subject]),
                broader=tuple(links[subject]["broader"]),
                narrower=tuple(links[subject]["narrower"]),
                related=tuple(links[subject]["related"]),
            ))
        except ValueError as exc:  # a relative subject IRI
            raise ParseError(str(exc), line_no) from None
    return Vocabulary(terms, name=name, warnings=warnings)


# ---------------------------------------------------------------------------
# Mapping serialization

def _sorted_mappings(mset: MappingSet) -> list[Mapping]:
    return sorted(
        mset.mappings,
        key=lambda m: (m.term, m.relation.predicate, WN20_SYNSET_NS + m.synset),
    )


def serialize_mappings_ntriples(mset: MappingSet) -> bytes:
    """Render a mapping set as sorted N-Triples (pure function of content)."""
    lines = [
        f"<{m.term}> <{m.relation.predicate}> <{WN20_SYNSET_NS}{m.synset}> ."
        for m in _sorted_mappings(mset)
    ]
    if not lines:
        return b""
    return ("\n".join(lines) + "\n").encode("utf-8")


def serialize_mappings_tsv(mset: MappingSet) -> bytes:
    """Render a mapping set as a human-inspectable TSV report."""
    rows = ["term\trelation\tsynset\tscore\tprovenance\tsource_word"]
    for m in _sorted_mappings(mset):
        rows.append(
            f"{m.term}\t{m.relation.value}\t{m.synset}\t{m.score:.4f}"
            f"\t{m.provenance.value}\t{m.source_word}"
        )
    return ("\n".join(rows) + "\n").encode("utf-8")


def load_gold(data: bytes | str) -> MappingSet:
    """Load a gold-standard mapping set from N-Triples.

    Triples whose predicate is not one of the three SKOS mapping properties,
    or whose object is not a WordNet 2.0 synset IRI, are ignored with a
    warning; a mapping triple whose subject is a relative IRI is a
    ``ParseError``.  Scores are absent from the format and default to 1.0.
    """
    mappings: list[Mapping] = []
    warnings: list[str] = []
    for line_no, subject, predicate, obj in _iter_triples(data):
        if predicate not in _PREDICATE_TO_RELATION:
            warnings.append(
                f"line {line_no}: predicate {predicate} is not a mapping "
                "property; triple ignored")
            continue
        if not _ABSOLUTE_IRI_RE.match(subject):
            raise ParseError(f"term id is not an absolute IRI: {subject!r}",
                             line_no)
        if obj[0] != "iri" or not obj[1].startswith(WN20_SYNSET_NS):
            warnings.append(
                f"line {line_no}: object is not a WordNet 2.0 synset IRI; "
                "triple ignored")
            continue
        name = obj[1][len(WN20_SYNSET_NS):]
        if not name:
            warnings.append(f"line {line_no}: empty synset name; triple ignored")
            continue
        lemma = name.rsplit("-noun-", 1)[0] if "-noun-" in name else ""
        mappings.append(Mapping(
            term=subject,
            relation=_PREDICATE_TO_RELATION[predicate],
            synset=name,
            score=1.0,
            provenance=Provenance.LABEL,
            source_word=lemma,
        ))
    return MappingSet(mappings, warnings=warnings)
