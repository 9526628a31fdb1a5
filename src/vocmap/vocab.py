"""SKOS-style vocabulary and mapping data model with N-Triples serialization.

A vocabulary is a set of terms, each carrying a preferred label, optional
alternative labels and an optional lexical definition.  Mappings connect a
term to a WordNet noun synset through one of the three SKOS mapping
relations (exactMatch, closeMatch, relatedMatch).

Input and output are line-oriented N-Triples (UTF-8, LF).  Serialization is
deterministic: byte output depends only on set content, never on insertion
order.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from string import hexdigits
from typing import Iterable, Iterator

SKOS = "http://www.w3.org/2004/02/skos/core#"
SKOS_PREF_LABEL = SKOS + "prefLabel"
SKOS_ALT_LABEL = SKOS + "altLabel"
SKOS_DEFINITION = SKOS + "definition"
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
    """One vocabulary concept.  Its labels are kept as read: the mapper's
    pass builder (``mapper._passes``) alone cleans label text."""

    uri: str
    pref_label: str
    alt_labels: tuple[str, ...] = ()
    definition: str | None = None

    def __post_init__(self):
        if not _ABSOLUTE_IRI_RE.match(self.uri):
            raise ValueError(f"term id is not an absolute IRI: {self.uri!r}")
        if not self.pref_label.strip():
            raise ValueError(f"term {self.uri} has an empty prefLabel")


class Vocabulary:
    """An immutable collection of terms keyed by URI."""

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
_IRI_RE = re.compile(_IRI_REF)
# the object is the rest of the line up to its final '.': nothing backtracks
_SUBJECT_PREDICATE_RE = re.compile(rf"{_IRI_REF}\s+{_IRI_REF}(\s+)")
_LITERAL_RE = re.compile(
    r'^"((?:[^"\\]|\\.)*)"(?:@([A-Za-z]+(?:-[A-Za-z0-9]+)*)|\^\^<[^<>\s]*>)?$'
)
_PLAIN_ESCAPES = {
    "t": "\t", "b": "\b", "n": "\n", "r": "\r", "f": "\f",
    '"': '"', "'": "'", "\\": "\\",
}

# \u and \U take up to their count of digits, so a short one reaches the
# digit check; any other escape is one character
_ESCAPE_RE = re.compile(r"\\(?:u(.{0,4})|U(.{0,8})|(.))", re.DOTALL)
# every character at which str.splitlines breaks a line, as \uXXXX
_LINE_BREAKS = {ord(c): f"\\u{ord(c):04X}"
                for c in "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"}


def _one_line(text: str) -> str:
    """``text`` with its line-break characters escaped, so that a message
    quoting input stays one line however stderr is split."""
    return text.translate(_LINE_BREAKS)


def _unescape(text: str, line_no: int) -> str:
    if "\\" not in text:
        return text

    def _decode(match: re.Match) -> str:
        esc, digits = match[0][1], match[0][2:]
        if match[3] is not None:
            if esc not in _PLAIN_ESCAPES:
                raise ParseError(
                    f"unknown escape sequence \\{_one_line(esc)}", line_no)
            return _PLAIN_ESCAPES[esc]
        width = 4 if esc == "u" else 8
        if len(digits) != width or not all(c in hexdigits for c in digits):
            raise ParseError(f"\\{esc} needs exactly {width} hex digits",
                             line_no)
        code = int(digits, 16)
        if code > 0x10FFFF or 0xD800 <= code <= 0xDFFF:
            raise ParseError(f"\\{esc}{digits} is not a Unicode scalar "
                             "value", line_no)
        return chr(code)

    return _ESCAPE_RE.sub(_decode, text)


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
        m = _SUBJECT_PREDICATE_RE.match(line)
        if not m or line[-1] != ".":
            raise ParseError("malformed triple", line_no)
        subject, predicate, space = m.groups()
        obj_text = line[m.end():-1].rstrip()
        # a lone '.' after two or more spaces reads the last space as object
        if not obj_text and len(space) < 2:
            raise ParseError("malformed triple", line_no)
        if obj_text.startswith("<"):
            om = _IRI_RE.fullmatch(obj_text)
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
    """Prefer English, then untagged, then first-seen; tags are in lower
    case."""
    if "en" in values:
        return values["en"]
    for lang, text in values.items():
        if lang and lang.startswith("en-"):
            return text
    if None in values:
        return values[None]
    return next(iter(values.values()), None)


def parse_vocabulary_ntriples(data: bytes | str, name: str = "") -> Vocabulary:
    """Parse a SKOS vocabulary from N-Triples.

    One term is built per subject that carries at least one prefLabel.
    Only the first prefLabel (and definition) per language tag, compared
    case-insensitively, is kept; repeats are recorded as warnings.  A term
    keeps the altLabels tagged ``en`` or ``en-*``, or untagged, in file
    order, whatever the language of its prefLabel: the store is English
    WordNet.  Every other predicate is ignored.
    """
    pref: dict[str, dict[str | None, str]] = {}
    definition: dict[str, dict[str | None, str]] = {}
    alt: dict[str, list[tuple[str | None, str]]] = {}
    first_line: dict[str, int] = {}  # subjects in order, with their line
    warnings: list[str] = []

    for line_no, subject, predicate, obj in _iter_triples(data):
        if predicate not in (SKOS_PREF_LABEL, SKOS_ALT_LABEL, SKOS_DEFINITION):
            continue  # links and any other predicate are never read
        if obj[0] != "literal":
            warnings.append(
                f"line {line_no}: non-literal object for {predicate}; ignored")
            continue
        _, text, lang = obj
        lang = lang and lang.lower()  # RDF language tags are case-insensitive
        if subject not in pref:
            pref[subject] = {}
            definition[subject] = {}
            alt[subject] = []
            first_line[subject] = line_no
        if predicate == SKOS_PREF_LABEL:
            if lang in pref[subject]:
                warnings.append(
                    f"line {line_no}: repeated prefLabel for "
                    f"<{_one_line(subject)}> (language {lang or 'untagged'}); "
                    "keeping the first")
            else:
                pref[subject][lang] = text
        elif predicate == SKOS_ALT_LABEL:
            alt[subject].append((lang, text))
        elif lang not in definition[subject]:
            definition[subject][lang] = text

    terms: list[Term] = []
    for subject, line_no in first_line.items():
        label = _pick_by_language(pref[subject])
        if label is None or not label.strip():
            if definition[subject] or alt[subject]:
                warnings.append(
                    f"term <{_one_line(subject)}> skipped: no prefLabel")
            continue
        alt_labels = tuple(text for lang, text in alt[subject]
                           if lang in (None, "en") or lang.startswith("en-"))
        try:
            terms.append(Term(uri=subject, pref_label=label,
                              alt_labels=alt_labels,
                              definition=_pick_by_language(definition[subject])))
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
                f"line {line_no}: predicate {_one_line(predicate)} is not a "
                "mapping property; triple ignored")
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
        mappings.append(Mapping(term=subject,
                                relation=_PREDICATE_TO_RELATION[predicate],
                                synset=name))
    return MappingSet(mappings, warnings=warnings)
