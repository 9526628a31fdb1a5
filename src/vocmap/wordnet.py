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
    """Raised when WordNet data cannot be loaded; names file and line."""

    def __init__(self, message: str, source: str | None = None,
                 line_no: int | None = None):
        prefix = ""
        if source is not None:
            prefix = source if line_no is None else f"{source}, line {line_no}"
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.source = source
        self.line_no = line_no


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
            raise LoadError(f"sense number must be >= 1: {self.lemma}")
        if self.tag_frequency < 0:
            raise LoadError(f"negative tag frequency: {self.lemma}")


@dataclass(frozen=True, slots=True)
class Synset:
    id: SynsetId
    senses: tuple[WordSense, ...]
    gloss: str
    relations: tuple[tuple[str, SynsetId], ...] = ()

    def __post_init__(self):
        if not self.senses:
            raise LoadError(f"synset {self.id} has no word senses")


class WordNetStore:
    """Immutable noun store indexed by synset id and by lemma.

    The lemma index is exactly the inverse of the synsets' sense lists:
    every sense is reachable from its lemma and the index holds nothing
    else.  All queries are read-only.
    """

    def __init__(self, synsets: Iterable[Synset],
                 exceptions: dict[str, str] | None = None):
        by_id: dict[SynsetId, Synset] = {}
        for syn in synsets:
            if syn.id.pos != "n":
                raise LoadError(f"only noun synsets are supported: {syn.id}")
            if syn.id in by_id:
                raise LoadError(f"duplicate synset id: offset {syn.id.offset}")
            by_id[syn.id] = syn
        self.synsets = by_id
        self.exceptions = dict(exceptions or {})

        lemma_index: dict[str, list[WordSense]] = {}
        for syn in by_id.values():
            for ws in syn.senses:
                if ws.synset != syn.id:
                    raise LoadError(
                        f"sense {ws.lemma} carries synset id {ws.synset} "
                        f"but lives in {syn.id}")
                lemma_index.setdefault(ws.lemma, []).append(ws)
        for lemma, senses in lemma_index.items():
            if len(senses) < 2:
                continue
            senses.sort(key=lambda ws: ws.sense_number)
            for prev, ws in zip(senses, senses[1:]):
                if prev.sense_number == ws.sense_number:
                    raise LoadError(
                        f"duplicate sense number {ws.sense_number} for "
                        f"lemma {lemma!r}")
        self.lemma_index = {k: tuple(v) for k, v in lemma_index.items()}

        inverse: dict[SynsetId, list[SynsetId]] = {}
        for syn in by_id.values():
            for kind, target in syn.relations:
                if target not in by_id:
                    raise LoadError(
                        f"synset offset {syn.id.offset} has a {kind} relation "
                        f"to unknown offset {target.offset}")
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
    caller's collector was on, one full pass runs at the end, so the
    survivors reach the oldest generation at once instead of being
    traversed again by the caller's next young collections.  A load that
    allocated fewer objects than it takes the running collector to reach
    a full pass (the product of the three thresholds) skips that pass.
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
                gc.collect()


# ---------------------------------------------------------------------------
# JSON fixture loader

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

    def _int(value, what):
        if isinstance(value, bool) or not isinstance(value, int):
            raise LoadError(f"{what} must be an integer, got {value!r}",
                            source="fixture")
        return value

    synsets: list[Synset] = []
    for i, entry in enumerate(doc["synsets"]):
        where = f"synsets[{i}]"
        if not isinstance(entry, dict):
            raise LoadError(f"{where} must be an object", source="fixture")
        offset = _int(entry.get("offset"), f"{where}.offset")
        if offset < 0:
            raise LoadError(f"{where}.offset must be >= 0", source="fixture")
        sid = SynsetId("n", offset)
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
                lemma=lemma,
                synset=sid,
                sense_number=_int(item.get("sense_number", 1),
                                  f"{where}.lemmas[{j}].sense_number"),
                tag_frequency=_int(item.get("frequency", 0),
                                   f"{where}.lemmas[{j}].frequency"),
            ))
        gloss = entry.get("gloss", "")
        if not isinstance(gloss, str):
            raise LoadError(f"{where}.gloss must be a string", source="fixture")
        pairs = entry.get("relations", [])
        if not isinstance(pairs, list):
            raise LoadError(f"{where}.relations must be a list",
                            source="fixture")
        relations = []
        for j, rel in enumerate(pairs):
            if (not isinstance(rel, list) or len(rel) != 2
                    or not isinstance(rel[0], str)):
                raise LoadError(
                    f"{where}.relations[{j}] must be a [kind, offset] pair",
                    source="fixture")
            relations.append(
                (rel[0], SynsetId("n", _int(rel[1], f"{where}.relations[{j}]"))))
        synsets.append(Synset(id=sid, senses=tuple(senses), gloss=gloss,
                              relations=tuple(relations)))

    exceptions = doc.get("exceptions", {})
    if not isinstance(exceptions, dict) or not all(
            isinstance(k, str) and isinstance(v, str)
            for k, v in exceptions.items()):
        raise LoadError("'exceptions' must map strings to strings",
                        source="fixture")
    return WordNetStore(synsets, exceptions=exceptions)


# ---------------------------------------------------------------------------
# WNDB loader

def _data_lines(data: bytes, source: str):
    if isinstance(data, (bytes, bytearray)):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise LoadError(f"invalid UTF-8 ({exc.reason})", source=source,
                            line_no=data.count(b"\n", 0, exc.start) + 1
                            ) from exc
    else:
        text = data
    for line_no, raw in enumerate(text.split("\n"), start=1):
        # the Princeton files open with a license block indented by spaces
        if not raw.strip() or raw.startswith(" "):
            continue
        yield line_no, raw.rstrip("\n")


def _strip_marker(word: str) -> str:
    # adjective-style "(p)" markers never occur on nouns, but strip anyway
    return re.sub(r"\(.*?\)$", "", word) if word.endswith(")") else word


@_collector_paused()
def load_wndb(index_noun: bytes, data_noun: bytes,
              cntlist_rev: bytes = b"", noun_exc: bytes = b"") -> WordNetStore:
    """Build a store from Princeton WNDB noun database files.

    Tag frequencies default to 0 for senses missing from cntlist.rev.
    Pointers to non-noun synsets are skipped; dangling noun targets are a
    load error.
    """
    # data.noun: offset lex_filenum ss_type w_cnt (word lex_id)+ p_cnt ptr* | gloss
    words_at: dict[int, list[str]] = {}
    gloss_at: dict[int, str] = {}
    relations_at: dict[int, list[tuple[str, SynsetId]]] = {}
    for line_no, line in _data_lines(data_noun, "data.noun"):
        head, _, gloss = line.partition("|")
        fields = head.split()
        try:
            offset = int(fields[0])
            ss_type = fields[2]
            if ss_type != "n":
                raise LoadError("not a noun synset line",
                                source="data.noun", line_no=line_no)
            w_cnt = int(fields[3], 16)  # word count is hexadecimal
            words = [_strip_marker(fields[4 + 2 * k]).lower()
                     for k in range(w_cnt)]
            p_idx = 4 + 2 * w_cnt
            p_cnt = int(fields[p_idx])
            rels: list[tuple[str, SynsetId]] = []
            for k in range(p_cnt):
                symbol = fields[p_idx + 1 + 4 * k]
                target = int(fields[p_idx + 2 + 4 * k])
                target_pos = fields[p_idx + 3 + 4 * k]
                if target_pos != "n":
                    continue
                kind = _POINTER_KINDS.get(symbol, symbol)
                pair = (kind, SynsetId("n", target))
                if pair not in rels:
                    rels.append(pair)
        except LoadError:
            raise
        except (IndexError, ValueError) as exc:
            raise LoadError(f"malformed synset line ({exc})",
                            source="data.noun", line_no=line_no) from exc
        if offset in words_at:
            raise LoadError(f"duplicate synset offset {offset}",
                            source="data.noun", line_no=line_no)
        words_at[offset] = words
        gloss_at[offset] = gloss.strip()
        relations_at[offset] = rels

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
            rest = fields[4 + p_cnt:]
            offsets = [int(x) for x in rest[2:2 + synset_cnt]]
            if len(offsets) != synset_cnt:
                raise LoadError("synset count does not match offsets",
                                source="index.noun", line_no=line_no)
        except LoadError:
            raise
        except (IndexError, ValueError) as exc:
            raise LoadError(f"malformed index line ({exc})",
                            source="index.noun", line_no=line_no) from exc
        if lemma in offsets_for:
            raise LoadError(f"duplicate index entry for {lemma!r}",
                            source="index.noun", line_no=line_no)
        for off in offsets:
            if off not in words_at:
                raise LoadError(
                    f"lemma {lemma!r} references unknown offset {off}",
                    source="index.noun", line_no=line_no)
        offsets_for[lemma] = offsets

    # cntlist.rev: sense_key sense_number tag_cnt; noun keys have ss_type 1
    counts: dict[tuple[str, int], int] = {}
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

    exceptions: dict[str, str] = {}
    for line_no, line in _data_lines(noun_exc, "noun.exc"):
        fields = line.split()
        if len(fields) < 2:
            raise LoadError("malformed exception line",
                            source="noun.exc", line_no=line_no)
        exceptions[fields[0].lower()] = fields[1].lower()

    synsets: list[Synset] = []
    for offset, words in words_at.items():
        sid = SynsetId("n", offset)
        senses = []
        for word in words:
            offs = offsets_for.get(word)
            if offs is None or offset not in offs:
                raise LoadError(
                    f"word {word!r} of synset {offset} is missing from "
                    "index.noun", source="data.noun")
            sense_number = offs.index(offset) + 1
            senses.append(WordSense(
                lemma=word,
                synset=sid,
                sense_number=sense_number,
                tag_frequency=counts.get((word, sense_number), 0),
            ))
        synsets.append(Synset(id=sid, senses=tuple(senses),
                              gloss=gloss_at[offset],
                              relations=tuple(relations_at[offset])))
    return WordNetStore(synsets, exceptions=exceptions)


def load_wndb_dir(path: str | Path) -> WordNetStore:
    """Load a WNDB dict directory; count and exception files are optional."""
    base = Path(path)
    if not base.is_dir():
        raise LoadError(f"not a directory: {base}")

    def _read(name: str, required: bool) -> bytes:
        f = base / name
        if not f.exists():
            if required:
                raise LoadError(f"missing required file: {f}")
            return b""
        return f.read_bytes()

    return load_wndb(
        index_noun=_read("index.noun", required=True),
        data_noun=_read("data.noun", required=True),
        cntlist_rev=_read("cntlist.rev", required=False),
        noun_exc=_read("noun.exc", required=False),
    )
