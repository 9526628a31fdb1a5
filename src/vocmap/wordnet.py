"""WordNet noun database: loading, lemma lookup, and taxonomy closures.

Two interchangeable loaders build the same in-memory store: one reads the
Princeton WNDB database files (index.noun, data.noun, cntlist.rev, noun.exc),
the other a small JSON fixture format (documented in docs/fixture-schema.md).

Relations are stored in the linked-data orientation: a synset holding a
``hyponymOf`` edge to a target is a kind of that target, and a
``partMeronymOf`` edge means the holder is a part of the target.  Salient
taxonomies are computed by descending those two relations from hand-picked
root synsets.
"""

from __future__ import annotations

import gc
import json
import re
import sys
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple

HYPONYM_OF = "hyponymOf"
PART_MERONYM_OF = "partMeronymOf"

#: Relation kinds traversed by taxonomy closures.
CLOSURE_RELATIONS = frozenset({HYPONYM_OF, PART_MERONYM_OF})

# WNDB pointer symbols that carry closure semantics.  '@' points from a
# synset to its hypernym and '#p' to the whole it is a part of; the
# reciprocal pointers ('~', '%p') and everything else are kept under their
# raw symbol and never traversed.
_POINTER_KINDS = {"@": HYPONYM_OF, "@i": HYPONYM_OF, "#p": PART_MERONYM_OF}

_SYNSET_NAME_RE = re.compile(r"^(.+)-noun-(\d+)$")


class LoadError(ValueError):
    """Raised when WordNet data cannot be loaded; names file and line, or
    the ``synset`` at fault, which the loader then locates in its input."""

    def __init__(self, message: str, source: str | None = None,
                 line_no: int | None = None, synset: SynsetId | None = None):
        prefix = ""
        if source is not None:
            prefix = source if line_no is None else f"{source}, line {line_no}"
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.source = source
        self.line_no = line_no
        self.synset = synset


class SynsetId(NamedTuple):
    pos: str
    offset: int


@dataclass(frozen=True, slots=True)
class WordSense:
    """One (lemma, synset) pairing with its sense number and tag frequency."""

    lemma: str
    synset: SynsetId
    sense_number: int
    tag_frequency: int

    def __post_init__(self):
        if self.sense_number < 1:
            raise LoadError(f"sense number must be >= 1: {self.lemma}",
                            synset=self.synset)
        if self.tag_frequency < 0:
            raise LoadError(f"negative tag frequency: {self.lemma}",
                            synset=self.synset)


@dataclass(frozen=True, slots=True)
class Synset:
    id: SynsetId
    senses: tuple[WordSense, ...]
    gloss: str
    relations: tuple[tuple[str, SynsetId], ...] = ()

    def __post_init__(self):
        if not self.senses:
            raise LoadError(f"synset {self.id} has no word senses",
                            synset=self.id)


class WordNetStore:
    """Immutable noun store indexed by synset id and by lemma.

    The lemma index is exactly the inverse of the synsets' sense lists:
    every sense is reachable from its lemma and the index holds nothing
    else.  All queries are read-only; the store's two caches live as long
    as the store: the base form of each token that ``text.lemmatize_noun``
    has reduced, and the tokens that can start a collocation, which
    ``text._collocation_heads`` finds on first use.
    """

    def __init__(self, synsets: Iterable[Synset],
                 exceptions: dict[str, str] | None = None):
        by_id: dict[SynsetId, Synset] = {}
        for syn in synsets:
            if syn.id.pos != "n":
                raise LoadError(f"only noun synsets are supported: {syn.id}",
                                synset=syn.id)
            if syn.id in by_id:
                raise LoadError(f"duplicate synset id: offset {syn.id.offset}",
                                synset=syn.id)
            by_id[syn.id] = syn
        self.synsets = by_id
        self.exceptions = dict(exceptions or {})
        # text.lemmatize_noun's base form of each token, filled lazily, and
        # text._collocation_heads, built on first use
        self._base_forms: dict[str, str] = {}
        self._collocation_heads: frozenset[str] | None = None

        lemma_index: dict[str, list[WordSense]] = {}
        for syn in by_id.values():
            for ws in syn.senses:
                if ws.synset != syn.id:
                    raise LoadError(
                        f"sense {ws.lemma} carries synset id {ws.synset} "
                        f"but lives in {syn.id}", synset=syn.id)
                lemma_index.setdefault(ws.lemma, []).append(ws)
        for lemma, senses in lemma_index.items():
            if len(senses) > 1:
                senses.sort(key=lambda ws: ws.sense_number)
                for prev, ws in zip(senses, senses[1:]):
                    if prev.sense_number == ws.sense_number:
                        raise LoadError(
                            f"duplicate sense number {ws.sense_number} for "
                            f"lemma {lemma!r}", synset=ws.synset)
            # in place: replacing a key's value does not resize the dict
            lemma_index[lemma] = tuple(senses)
        self.lemma_index = lemma_index

        inverse: dict[SynsetId, list[SynsetId]] = {}
        for syn in by_id.values():
            for kind, target in syn.relations:
                if target not in by_id:
                    raise LoadError(
                        f"synset offset {syn.id.offset} has a {kind} relation "
                        f"to unknown offset {target.offset}", synset=syn.id)
                if kind in CLOSURE_RELATIONS:
                    inverse.setdefault(target, []).append(syn.id)
        self._inverse = inverse

    def __len__(self) -> int:
        return len(self.synsets)

    def has_lemma(self, lemma: str) -> bool:
        return lemma in self.lemma_index

    def lookup_senses(self, lemma: str) -> tuple[WordSense, ...]:
        """All noun senses of a lemma, ordered by sense number."""
        return self.lemma_index.get(lemma, ())

    def gloss(self, sid: SynsetId) -> str:
        return self.synsets[sid].gloss

    def taxonomy_closure(self, roots: Iterable[SynsetId]) -> frozenset[SynsetId]:
        """All synsets reachable from the roots by descending hyponym and
        part-meronym edges (roots included).  Cycles are tolerated."""
        seen: set[SynsetId] = set()
        pending: deque[SynsetId] = deque()
        for root in roots:
            if root not in self.synsets:
                raise LoadError(f"unknown taxonomy root: offset {root.offset}")
            if root not in seen:
                seen.add(root)
                pending.append(root)
        while pending:
            node = pending.popleft()
            for child in self._inverse.get(node, ()):
                if child not in seen:
                    seen.add(child)
                    pending.append(child)
        return frozenset(seen)

    def synset_name(self, sid: SynsetId) -> str:
        """Canonical instance name: first lemma plus its sense number."""
        first = self.synsets[sid].senses[0]
        return f"{first.lemma}-noun-{first.sense_number}"

    def resolve_synset_name(self, name: str) -> SynsetId:
        """Resolve a ``<lemma>-noun-<n>`` name to a synset id."""
        m = _SYNSET_NAME_RE.match(name)
        if not m:
            raise LoadError(f"not a noun synset name: {name!r}")
        lemma, number = m.group(1), int(m.group(2))
        for ws in self.lookup_senses(lemma):
            if ws.sense_number == number:
                return ws.synset
        raise LoadError(f"no such noun sense: {name!r}")


# ---------------------------------------------------------------------------
# Loading with the cyclic collector paused

@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for one load, then restore it.

    Nearly every object a load allocates survives into the store, so the
    collector's passes during a load find nothing to reclaim; on a store
    of WordNet size they cost a third to a half of the load.  When the
    caller's collector was on, the load ends with ``gc.freeze()``, which
    moves every tracked object to a generation no later collection walks.
    The one cost: a garbage cycle that already exists then is never
    collected.  A load that allocated fewer objects than it takes the
    running collector to reach a full pass (the product of the three
    thresholds) freezes nothing.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            allocated = gc.get_count()[0]
            t0, t1, t2 = gc.get_threshold()
            gc.enable()
            if t0 and allocated >= t0 * t1 * t2:
                gc.freeze()


# ---------------------------------------------------------------------------
# JSON fixture loader

def _fixture_int(value, what: str, *args) -> int:
    """``value`` when it is an integer; ``what % args`` names it in the
    error, and is formatted only for a bad value."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise LoadError(f"{what % args} must be an integer, got {value!r}",
                        source="fixture")
    return value


def _fixture_synset(entry, where: str, ids: dict[int, SynsetId]) -> Synset:
    """The synset of one fixture entry; ``where`` names the entry, and
    ``ids`` holds the one id of each offset seen so far, which the entry
    and every relation to that offset share."""
    if not isinstance(entry, dict):
        raise LoadError(f"{where} must be an object", source="fixture")
    offset = _fixture_int(entry.get("offset"), "%s.offset", where)
    if offset < 0:
        raise LoadError(f"{where}.offset must be >= 0", source="fixture")
    sid = ids.get(offset) or ids.setdefault(offset, SynsetId("n", offset))
    lemmas = entry.get("lemmas")
    if not isinstance(lemmas, list) or not lemmas:
        raise LoadError(f"{where}.lemmas must be a non-empty list",
                        source="fixture")
    senses = []
    for j, item in enumerate(lemmas):
        if not isinstance(item, dict) or not isinstance(item.get("lemma"), str):
            raise LoadError(f"{where}.lemmas[{j}] must carry a 'lemma' string",
                            source="fixture")
        lemma = item["lemma"]
        if not lemma or lemma != lemma.lower() or " " in lemma:
            raise LoadError(
                f"{where}.lemmas[{j}]: lemma must be lowercase with "
                f"underscores, got {lemma!r}", source="fixture")
        senses.append(WordSense(
            lemma, sid,
            _fixture_int(item.get("sense_number", 1),
                         "%s.lemmas[%d].sense_number", where, j),
            _fixture_int(item.get("frequency", 0),
                         "%s.lemmas[%d].frequency", where, j)))
    gloss = entry.get("gloss", "")
    if not isinstance(gloss, str):
        raise LoadError(f"{where}.gloss must be a string", source="fixture")
    pairs = entry.get("relations", [])
    if not isinstance(pairs, list):
        raise LoadError(f"{where}.relations must be a list", source="fixture")
    relations = []
    for j, rel in enumerate(pairs):
        if (not isinstance(rel, list) or len(rel) != 2
                or not isinstance(rel[0], str)):
            raise LoadError(
                f"{where}.relations[{j}] must be a [kind, offset] pair",
                source="fixture")
        target = _fixture_int(rel[1], "%s.relations[%d]", where, j)
        # one string per relation kind, as in load_wndb
        pair = (sys.intern(rel[0]), ids.get(target)
                or ids.setdefault(target, SynsetId("n", target)))
        # a repeated relation is kept once, as load_wndb keeps a pointer
        if pair not in relations:
            relations.append(pair)
    return Synset(sid, tuple(senses), gloss, tuple(relations))


@_collector_paused()
def load_fixture(data: bytes | str) -> WordNetStore:
    """Build a store from the JSON fixture format.

    The document is an object with a ``synsets`` list and an optional
    ``exceptions`` map; see docs/fixture-schema.md for the full schema.
    """
    try:
        doc = json.loads(data)
    except (ValueError, RecursionError) as exc:
        # a decode error, an integer too long to convert, or nesting too deep
        raise LoadError(f"invalid JSON: {exc}", source="fixture") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("synsets"), list):
        raise LoadError("document must be an object with a 'synsets' list",
                        source="fixture")
    entries = doc["synsets"]
    synsets: list[Synset] = []
    ids: dict[int, SynsetId] = {}
    try:
        for i, entry in enumerate(entries):
            # each entry is released once its synset is read
            entries[i] = None
            synsets.append(_fixture_synset(entry, f"synsets[{i}]", ids))
        exceptions = doc.get("exceptions", {})
        if not isinstance(exceptions, dict) or not all(
                isinstance(k, str) and isinstance(v, str)
                for k, v in exceptions.items()):
            raise LoadError("'exceptions' must map strings to strings",
                            source="fixture")
        # what is left of the document goes before the store is built
        del doc, entries, ids
        return WordNetStore(synsets, exceptions=exceptions)
    except LoadError as exc:
        if exc.synset is None:
            raise
        # only a failing load needs the entry's index, so data is parsed
        # again: the last entry read with that offset
        read = json.loads(data)["synsets"][:len(synsets) + 1]
        i = max(k for k, e in enumerate(read)
                if e["offset"] == exc.synset.offset)
        raise LoadError(f"synsets[{i}]: {exc}", source="fixture") from None


# ---------------------------------------------------------------------------
# WNDB loader

def _data_lines(data: bytes, source: str):
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise LoadError(f"invalid UTF-8 ({exc.reason})", source=source,
                        line_no=data.count(b"\n", 0, exc.start) + 1) from exc
    # the Princeton data and index files open with an indented license
    # block; no other indented line is skipped
    in_license = source in ("data.noun", "index.noun")
    for line_no, raw in enumerate(text.split("\n"), start=1):
        if not raw or raw.isspace():
            continue
        if raw[0] == " ":
            if in_license:
                continue
            raise LoadError("indented line outside the license block",
                            source, line_no)
        in_license = False
        yield line_no, raw


@_collector_paused()
def load_wndb(index_noun: bytes, data_noun: bytes,
              cntlist_rev: bytes = b"", noun_exc: bytes = b"") -> WordNetStore:
    """Build a store from Princeton WNDB noun database files.

    Tag frequencies default to 0 for senses missing from cntlist.rev.
    Pointers to non-noun synsets are skipped; dangling noun targets are a
    load error.  Every error names the file and line at fault.
    """
    # data.noun: offset lex_filenum ss_type w_cnt (word lex_id)+ p_cnt ptr* | gloss
    # where each ptr is four fields: symbol offset pos source/target
    entries: dict[int, tuple] = {}  # offset: (id, words, gloss, relations)
    # one id per offset, shared by its data line and every pointer to it
    ids: dict[int, SynsetId] = {}
    for line_no, line in _data_lines(data_noun, "data.noun"):
        head, _, gloss = line.partition("|")
        fields = head.split()
        try:
            offset = int(fields[0])
            if fields[2] != "n":
                raise LoadError("not a noun synset line",
                                source="data.noun", line_no=line_no)
            w_cnt = int(fields[3], 16)  # word count is hexadecimal
            p_idx = 4 + 2 * w_cnt
            p_cnt = int(fields[p_idx])
            if w_cnt < 0 or p_cnt < 0:
                raise LoadError("negative w_cnt or p_cnt",
                                source="data.noun", line_no=line_no)
            # a noun line carries no verb frames after its pointers
            if len(fields) != p_idx + 1 + 4 * p_cnt:
                raise LoadError(
                    f"{len(fields)} fields before the gloss, but w_cnt "
                    f"{w_cnt} and p_cnt {p_cnt} make {p_idx + 1 + 4 * p_cnt}",
                    source="data.noun", line_no=line_no)
            words = [fields[4 + 2 * k].lower() for k in range(w_cnt)]
            rels: list[tuple[str, SynsetId]] = []
            for k in range(p_idx + 1, len(fields), 4):
                target = int(fields[k + 1])
                if fields[k + 2] == "n":
                    sid = ids.get(target) or ids.setdefault(
                        target, SynsetId("n", target))
                    # one string per relation kind, as in load_fixture
                    pair = (_POINTER_KINDS.get(fields[k])
                            or sys.intern(fields[k]), sid)
                    if pair not in rels:
                        rels.append(pair)
        except LoadError:
            raise
        except (IndexError, ValueError) as exc:
            raise LoadError(f"malformed synset line ({exc})",
                            source="data.noun", line_no=line_no) from exc
        if offset in entries:
            raise LoadError(f"duplicate synset offset {offset}",
                            source="data.noun", line_no=line_no)
        sid = ids.get(offset) or ids.setdefault(offset, SynsetId("n", offset))
        entries[offset] = (sid, words, gloss.strip(), tuple(rels))
    del ids  # lowers the peak memory of the load

    # index.noun: lemma pos synset_cnt p_cnt sym* sense_cnt tagsense_cnt offset+
    offsets_for: dict[str, list[int]] = {}
    for line_no, line in _data_lines(index_noun, "index.noun"):
        fields = line.split()
        try:
            lemma = fields[0].lower()
            if fields[1] != "n":
                raise LoadError("not a noun index line",
                                source="index.noun", line_no=line_no)
            synset_cnt = int(fields[2])
            p_cnt = int(fields[3])
            if synset_cnt < 0 or p_cnt < 0:
                raise LoadError("negative synset_cnt or p_cnt",
                                source="index.noun", line_no=line_no)
            if len(fields) != 6 + p_cnt + synset_cnt:
                raise LoadError(
                    f"{len(fields)} fields, but synset_cnt {synset_cnt} and "
                    f"p_cnt {p_cnt} make {6 + p_cnt + synset_cnt}",
                    source="index.noun", line_no=line_no)
            offsets = [int(x) for x in fields[6 + p_cnt:]]
        except LoadError:
            raise
        except (IndexError, ValueError) as exc:
            raise LoadError(f"malformed index line ({exc})",
                            source="index.noun", line_no=line_no) from exc
        if lemma in offsets_for:
            raise LoadError(f"duplicate index entry for {lemma!r}",
                            source="index.noun", line_no=line_no)
        for off in offsets:
            if off not in entries:
                raise LoadError(
                    f"lemma {lemma!r} references unknown offset {off}",
                    source="index.noun", line_no=line_no)
        offsets_for[lemma] = offsets

    # cntlist.rev: sense_key sense_number tag_cnt; noun keys have ss_type 1
    counts: dict[tuple[str, int], int] = {}
    negative_at: dict[tuple[str, int], int] = {}  # line of a negative count
    for line_no, line in _data_lines(cntlist_rev, "cntlist.rev"):
        fields = line.split()
        try:
            sense_key, sense_number, tag_cnt = fields[0], int(fields[1]), int(fields[2])
            lemma, _, lex_sense = sense_key.partition("%")
            ss_type = lex_sense.split(":")[0]
        except (IndexError, ValueError) as exc:
            raise LoadError(f"malformed count line ({exc})",
                            source="cntlist.rev", line_no=line_no) from exc
        if ss_type == "1":
            counts[(lemma.lower(), sense_number)] = tag_cnt
            if tag_cnt < 0:
                negative_at[(lemma.lower(), sense_number)] = line_no

    exceptions: dict[str, str] = {}
    for line_no, line in _data_lines(noun_exc, "noun.exc"):
        fields = line.split()
        if len(fields) < 2:
            raise LoadError("malformed exception line",
                            source="noun.exc", line_no=line_no)
        exceptions[fields[0].lower()] = fields[1].lower()

    synsets: list[Synset] = []
    try:
        # each entry is released once its synset is built
        for offset in list(entries):
            sid, words, gloss, rels = entries.pop(offset)
            senses = []
            for word in words:
                offs = offsets_for.get(word, ())
                if offset not in offs:
                    raise LoadError(f"word {word!r} of synset {offset} is "
                                    "missing from index.noun", synset=sid)
                sense_number = offs.index(offset) + 1
                tag_frequency = counts.get((word, sense_number), 0)
                if tag_frequency < 0:
                    raise LoadError(f"negative tag frequency: {word}",
                                    "cntlist.rev",
                                    negative_at[(word, sense_number)])
                senses.append(WordSense(word, sid, sense_number,
                                        tag_frequency))
            synsets.append(Synset(sid, tuple(senses), gloss, rels))
        # the loader's tables are freed before the store is built
        del entries, offsets_for, counts, negative_at
        return WordNetStore(synsets, exceptions=exceptions)
    except LoadError as exc:
        if exc.synset is None:
            raise
        # only a failing load needs a synset's line, so data.noun is reread
        line_no = next(n for n, line in _data_lines(data_noun, "data.noun")
                       if int(line.split(None, 1)[0]) == exc.synset.offset)
        raise LoadError(str(exc), "data.noun", line_no) from None


def load_wndb_dir(path: str | Path) -> WordNetStore:
    """Load a WNDB dict directory; count and exception files are optional."""
    base = Path(path)
    if not base.is_dir():
        raise LoadError(f"not a directory: {base}")

    files = [base / name for name in
             ("index.noun", "data.noun", "cntlist.rev", "noun.exc")]
    for f in files[:2]:
        if not f.exists():
            raise LoadError(f"missing required file: {f}")
    return load_wndb(*(f.read_bytes() if f.exists() else b"" for f in files))
