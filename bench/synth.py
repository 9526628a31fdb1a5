"""Deterministic generator of a synthetic WordNet-scale benchmark dataset.

One (preset, seed) pair always yields the same bytes.  The output directory
holds:

* ``dict/`` - a Princeton WNDB noun database (``index.noun``, ``data.noun``
  with real byte offsets, ``cntlist.rev``, ``noun.exc``);
* ``wordnet.json`` - the same store in the JSON fixture format;
* ``roots.txt`` - eight salient taxonomy roots whose closure covers about
  8% of the store, as the real WordNet 2.0 roots do (6,312 of 79,689);
* ``vocab.nt`` / ``gold.nt`` - a SKOS vocabulary and its planted gold
  mapping, for ``vocmap map``;
* ``vocab_sweep.nt`` / ``gold_sweep.nt`` - a cost-stratified slice, for
  ``vocmap sweep``;
* ``vocab_labels.nt``, ``vocab_definitions.nt``, ``gold_trigram.nt`` - two
  small slices with a fixed shape, for the trigram baselines.

The store mimics WordNet 2.0 nouns: Zipf-distributed lemma frequencies and
tag counts, polysemy capped at 33 senses and correlated with frequency,
about 38% collocations, glosses of WordNet-like length that name a
hypernym (the genus) plus topical words of their branch, irregular plurals
in ``noun.exc``, and a hypernym tree with some part-meronym edges.  Terms
reuse frequent, polysemous lemmas as real tag vocabularies do, and their
definitions share words with the planted synset's gloss.

Usage: python3 bench/synth.py --preset wn20 --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

SKOS = "http://www.w3.org/2004/02/skos/core#"
WN_NS = "http://www.w3.org/2006/03/wn/wn20/instances/synset-"
TERM_NS = "http://example.org/vocab/term/"
MAX_POLYSEMY = 33


@dataclass(frozen=True)
class Preset:
    synsets: int
    terms: int
    sweep_terms: int
    label_terms: int
    definition_terms: int


PRESETS = {
    "mini": Preset(synsets=2500, terms=120, sweep_terms=6, label_terms=2,
                   definition_terms=1),
    "wn20": Preset(synsets=80000, terms=6000, sweep_terms=32, label_terms=2,
                   definition_terms=1),
}

_FUNCTION_WORDS = (
    "a", "an", "the", "of", "the", "of", "a", "in", "to", "and", "or",
    "for", "with", "by", "on", "that", "from", "as", "at", "which", "into",
    "is", "used", "its", "such", "especially", "usually", "some", "any")
_ONSETS = ("", "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p",
           "r", "s", "t", "v", "w", "z", "b", "c", "d", "l", "m", "p", "r",
           "s", "t", "br", "cr", "dr", "fl", "gr", "pl", "pr", "st", "tr",
           "ch", "sh", "th")
_VOWELS = ("a", "e", "i", "o", "u", "a", "e", "i", "o", "ai", "ea", "ou")
_CODAS = ("", "", "", "", "", "", "n", "r", "l", "s", "m", "t", "nd", "st",
          "x", "ng")
_SYNSET_SIZES = ((1, 0.55), (2, 0.25), (3, 0.12), (4, 0.05), (5, 0.02),
                 (6, 0.01))


def _cumulative(weights):
    return list(itertools.accumulate(weights))


def _zipf_cum(n: int, exponent: float = 1.0, shift: float = 2.0):
    return _cumulative(1.0 / (i + shift) ** exponent for i in range(n))


def _pick(rng: random.Random, items, cum):
    """One weighted draw; ``cum`` holds cumulative weights of ``items``."""
    return items[bisect.bisect(cum, rng.random() * cum[-1])]


def _plural(word: str) -> str:
    if word.endswith(("s", "x", "z", "ch", "sh")):
        return word + "es"
    return word + "s"


class _Words:
    """Unique pronounceable words, no two equal to a function word."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen = set(_FUNCTION_WORDS)

    def make(self, count: int) -> list[str]:
        rng, out = self.rng, []
        while len(out) < count:
            n = rng.choice((1, 2, 2, 2, 2, 3, 3))
            word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS)
                           + rng.choice(_CODAS) for _ in range(n))
            if len(word) >= 3 and word not in self.seen:
                self.seen.add(word)
                out.append(word)
        return out


class Dataset:
    """The generated store and vocabulary, before they are written out."""

    def __init__(self, preset: str, seed: int):
        if preset not in PRESETS:
            raise ValueError(f"unknown preset: {preset!r}")
        self.preset = PRESETS[preset]
        self.rng = random.Random(f"vocmap-bench:{preset}:{seed}")
        self._lexicon()
        self._synsets()
        self._taxonomy()
        self._glosses()
        self._vocabulary()

    # -- lexicon ------------------------------------------------------------

    def _lexicon(self):
        rng, p = self.rng, self.preset
        n_lemmas = round(p.synsets * 1.075)
        n_single = round(n_lemmas * 0.62)
        words = _Words(rng)
        singles = words.make(n_single)
        # adjectives and verbs: gloss words with no noun sense
        self.other_words = words.make(max(200, n_single // 8))
        self.singles = singles
        self.single_cum = single_cum = _zipf_cum(len(singles))
        modifiers = singles[:len(singles) // 2] + self.other_words
        modifier_cum = _zipf_cum(len(modifiers), 0.9, 10.0)
        collocs, seen = [], set(singles)
        while len(collocs) < n_lemmas - n_single:
            lemma = (_pick(rng, modifiers, modifier_cum) + "_"
                     + _pick(rng, singles, single_cum))
            if lemma not in seen:
                seen.add(lemma)
                collocs.append(lemma)
        # frequency score: singles follow Zipf by creation order, collocations
        # are rarer; the rank order drives polysemy and tag counts
        score = {w: 1.0 / (i + 20) ** 1.05 for i, w in enumerate(singles)}
        score.update((c, 0.3 / (j + 100) ** 1.05)
                     for j, c in enumerate(collocs))
        self.lemmas = sorted(singles + collocs, key=lambda w: -score[w])
        self.score = score

        # capped power-law polysemy, assigned with noise by frequency rank
        poly_values = list(range(1, MAX_POLYSEMY + 1))
        poly_cum = _cumulative(k ** -2.6 for k in poly_values)
        draws = sorted((_pick(rng, poly_values, poly_cum)
                        for _ in self.lemmas), reverse=True)
        noisy = sorted(self.lemmas, key=lambda w: -(math.log(score[w])
                                                    + rng.gauss(0.0, 1.2)))
        self.polysemy = dict(zip(noisy, draws))

        top = score[self.lemmas[0]]
        self.base_count = {w: 2500.0 * (score[w] / top) ** 1.15
                           for w in self.lemmas}
        self.exceptions: dict[str, str] = {}
        for lemma in rng.sample(singles[:len(singles) // 3],
                                max(20, n_single // 40)):
            irregular = lemma + rng.choice(("en", "i", "a", "ae", "im"))
            if irregular not in seen and irregular not in self.exceptions:
                self.exceptions[irregular] = lemma
        self.irregular = {base: form for form, base in self.exceptions.items()}

    def _synsets(self):
        rng = self.rng
        slots = [(lemma, k) for lemma in self.lemmas
                 for k in range(1, self.polysemy[lemma] + 1)]
        rng.shuffle(slots)
        sizes, size_cum = zip(*_SYNSET_SIZES)
        size_cum = _cumulative(size_cum)
        members: list[list[tuple[str, int]]] = []
        i = 0
        while i < len(slots):
            size = _pick(rng, sizes, size_cum)
            group: list[tuple[str, int]] = []
            while len(group) < size and i < len(slots):
                if any(slots[i][0] == lemma for lemma, _ in group):
                    # the same lemma twice in one synset: swap a later slot
                    # in, or close the synset and let the slot open the next
                    k = rng.randrange(i, len(slots))
                    slots[i], slots[k] = slots[k], slots[i]
                    if any(slots[i][0] == lemma for lemma, _ in group):
                        break
                group.append(slots[i])
                i += 1
            members.append(group)
        self.members = members
        self.n = len(members)
        # tag counts fall off with the sense number, as cntlist.rev orders them
        self.counts = {
            (lemma, k): int(self.base_count[lemma] * 0.6 ** (k - 1)
                            * (0.5 + rng.random()))
            for lemma in self.lemmas
            for k in range(1, self.polysemy[lemma] + 1)}
        self.sense_synset = {slot: s for s, group in enumerate(members)
                             for slot in group}

    # -- taxonomy -----------------------------------------------------------

    def _taxonomy(self):
        rng, n = self.rng, self.n
        parent = [-1] + [int(i * rng.random()) for i in range(1, n)]
        children: list[list[int]] = [[] for _ in range(n)]
        for i in range(1, n):
            children[parent[i]].append(i)
        depth = [0] * n
        for i in range(1, n):
            depth[i] = depth[parent[i]] + 1
        self.parent = parent
        # topic of a synset: its ancestor at depth 2
        topic = list(range(n))
        for i in range(n):
            if depth[i] > 2:
                topic[i] = topic[parent[i]]
        self.topic = topic
        extra_hyper: dict[int, int] = {}
        part_of: dict[int, int] = {}
        for i in range(1, n):
            if children[i]:
                continue
            # only leaves get a second hypernym or a whole, so closures stay
            # close to the subtree sizes the roots were picked for
            u = rng.random()
            if u < 0.02:
                other = rng.randrange(i)
                if other != parent[i]:
                    extra_hyper[i] = other
            elif u < 0.10:
                part_of[i] = rng.randrange(n)
        self.extra_hyper, self.part_of = extra_hyper, part_of
        reverse: list[list[int]] = [[] for _ in range(n)]
        for i in range(1, n):
            reverse[parent[i]].append(i)
        for child, target in itertools.chain(extra_hyper.items(),
                                             part_of.items()):
            if target != child:
                reverse[target].append(child)
        self._reverse = reverse
        self.roots, self.closure = self._pick_roots()

    def _closure(self, roots) -> set[int]:
        seen, stack = set(roots), list(roots)
        while stack:
            for child in self._reverse[stack.pop()]:
                if child not in seen:
                    seen.add(child)
                    stack.append(child)
        return seen

    def _pick_roots(self):
        """Eight roots whose subtrees are disjoint and together close over
        about as large a share of the store as the real roots do."""
        rng, n, parent = self.rng, self.n, self.parent
        size = [1] * n
        for i in range(n - 1, 0, -1):
            size[parent[i]] += size[i]
        target = 6312 * n / 79689
        candidates = [i for i in range(1, n)
                      if target / 12 <= size[i] <= target / 6]
        for _ in range(200):
            rng.shuffle(candidates)
            roots, above = [], set()
            for node in candidates:
                chain, a = [], node
                while a >= 0:
                    chain.append(a)
                    a = parent[a]
                if node in above or any(a in roots for a in chain):
                    continue  # above or inside a chosen root
                roots.append(node)
                above.update(chain)
                if len(roots) == 8:
                    break
            if len(roots) < 8:
                continue
            closure = self._closure(roots)
            if abs(len(closure) - target) <= 0.1 * target:
                return roots, closure
        raise RuntimeError("could not place eight disjoint taxonomy roots")

    # -- glosses ------------------------------------------------------------

    def _glosses(self):
        rng, n = self.rng, self.n
        singles, single_cum = self.singles, self.single_cum
        others, other_cum = self.other_words, _zipf_cum(len(self.other_words))
        pools: dict[int, list[str]] = {}
        pool_cum = _zipf_cum(120, 1.0, 3.0)
        collocs = [w for w in self.lemmas if "_" in w]
        colloc_cum = _zipf_cum(len(collocs))
        glosses = []
        for s in range(n):
            t = self.topic[s]
            if t not in pools:
                pools[t] = [_pick(rng, singles, single_cum)
                            for _ in range(120)]
            pool = pools[t]
            words = []
            if self.parent[s] >= 0:
                words.append(self._surface(self.name_lemma(self.parent[s])))
            length = max(3, min(28, round(rng.gauss(10.0, 4.0))))
            for _ in range(length):
                u = rng.random()
                if u < 0.42:
                    words.append(rng.choice(_FUNCTION_WORDS))
                elif u < 0.70:
                    words.append(self._surface(_pick(rng, pool, pool_cum)))
                elif u < 0.84:
                    words.append(self._surface(
                        _pick(rng, singles, single_cum)))
                elif u < 0.87:
                    words.append(self._surface(
                        _pick(rng, collocs, colloc_cum)))
                else:
                    words.append(_pick(rng, others, other_cum))
            if rng.random() < 0.35:
                example = [rng.choice(_FUNCTION_WORDS) if rng.random() < 0.45
                           else _pick(rng, pool, pool_cum)
                           for _ in range(rng.randint(4, 10))]
                words[-1] += ";"
                words.append('"' + " ".join(example) + '"')
            glosses.append(" ".join(words))
        self.glosses = glosses

    def _surface(self, lemma: str) -> str:
        """A lemma as it appears in running text, sometimes inflected."""
        u = self.rng.random()
        if u < 0.02 and lemma in self.irregular:
            return self.irregular[lemma]
        if u < 0.22:
            *head, last = lemma.split("_")
            return " ".join(head + [_plural(last)])
        return lemma.replace("_", " ")

    def name_lemma(self, s: int) -> str:
        return self.members[s][0][0]

    def synset_name(self, s: int) -> str:
        lemma, sense = self.members[s][0]
        return f"{lemma}-noun-{sense}"

    def _content_words(self, s: int) -> list[str]:
        words = self.glosses[s].split('"')[0].replace(";", " ").split()
        return [w for w in words if w not in _FUNCTION_WORDS]

    # -- vocabulary ---------------------------------------------------------

    def _vocabulary(self):
        rng, p = self.rng, self.preset
        senses = {lemma: [self.sense_synset[(lemma, k)]
                          for k in range(1, self.polysemy[lemma] + 1)]
                  for lemma in self.lemmas}
        inside = [w for w in self.lemmas
                  if any(s in self.closure for s in senses[w])]
        inside_cum = _cumulative(self.score[w] for w in inside)
        lemma_cum = _cumulative(self.score[w] for w in self.lemmas)
        sense_cum = _cumulative(0.5 ** k for k in range(MAX_POLYSEMY))

        def draw(shaped: bool):
            """A label lemma, Zipf-weighted so that frequent polysemous
            lemmas recur, and its planted sense, usually an early one;
            85% of the senses lie in the salient taxonomy."""
            salient = shaped or rng.random() < 0.85
            lemma = (_pick(rng, inside, inside_cum) if salient
                     else _pick(rng, self.lemmas, lemma_cum))
            options = [k for k, s in enumerate(senses[lemma], 1)
                       if (s in self.closure) == salient]
            if shaped:
                options = [k for k in options if k > 1]
            if not options:
                return None
            cum = sense_cum[:len(options)]
            k = options[bisect.bisect(cum, rng.random() * cum[-1])]
            s = senses[lemma][k - 1]
            return (lemma, k, s) if self.parent[s] >= 0 else None

        terms, uris = [], set()

        def add(term):
            if term["uri"] not in uris:
                uris.add(term["uri"])
                terms.append(term)

        # the trigram slices: single-word labels of a lemma with 3 senses,
        # planted on a sense other than the first whose gloss has no example
        # and names a genus other than the label, with the gloss as the
        # definition; so both baselines do the same work and get the same
        # score on every seed
        shaped_count = max(p.label_terms, p.definition_terms)
        while len(terms) < shaped_count:
            picked = draw(shaped=True)
            if picked is None:
                continue
            lemma, _, s = picked
            if ("_" not in lemma and self.polysemy[lemma] == 3
                    and '"' not in self.glosses[s]
                    and len(self.glosses[s].split()) >= 8
                    and self.name_lemma(self.parent[s]) != lemma):
                add(self._term(*picked, copied=True))
        while len(terms) < p.terms:
            picked = draw(shaped=False)
            if picked:
                add(self._term(*picked, copied=rng.random() < 0.04))
        terms.sort(key=lambda t: t["uri"])
        self.terms = terms
        # the sweep slice: terms planted on the first sense of a one-word
        # label inside the salient taxonomy, the case a tuned configuration
        # should get right; on a slice this small, a mix of easy and hard
        # terms would make the upper-bound F swing with the seed
        typical = [t for t in terms
                   if t["relation"] == "close" and t["synset"] in self.closure]
        self.sweep_slice = self._stratified(typical, p.sweep_terms)
        # a trigram scan costs in proportion to the length of the definition
        # or label it compares, so the slices take the terms of the right
        # shape whose lengths are nearest fixed targets; the definition term
        # is also a label term, which keeps the baselines' F the same
        shaped = [t for t in terms if self._trigram_shape(t)]
        self.definition_slice = sorted(
            shaped, key=lambda t: (abs(len(t["definition"]) - 80),
                                   t["uri"]))[:p.definition_terms]
        others = sorted((t for t in shaped if t not in self.definition_slice),
                        key=lambda t: (abs(len(t["label"]) - 7), t["uri"]))
        self.label_slice = sorted(
            self.definition_slice
            + others[:p.label_terms - len(self.definition_slice)],
            key=lambda t: t["uri"])

    def _trigram_shape(self, t: dict) -> bool:
        s = t["synset"]
        return (t["copied"] and t["relation"] == "related"
                and " " not in t["label"] and self.polysemy[t["lemma"]] == 3
                and '"' not in self.glosses[s]
                and len(self.glosses[s].split()) >= 8
                and self.name_lemma(self.parent[s]) != t["lemma"])

    def _term(self, lemma: str, sense: int, s: int, copied: bool) -> dict:
        rng = self.rng
        two_word = not copied and rng.random() < 0.3
        label = lemma.replace("_", " ")
        if two_word:
            label = rng.choice(self.other_words) + " " + label
        relation = "close" if not two_word and sense == 1 else "related"
        key = self.singles[self.topic[s] % 400]
        uri = f"{TERM_NS}k:{key}/v:{label.replace(' ', '_')}"
        genus = self.name_lemma(self.parent[s])
        if copied:
            # some tag definitions are lifted from the WordNet gloss
            definition = self.glosses[s].split(';')[0]
        else:
            content = self._content_words(s)
            kept = [w for w in content[1:] if rng.random() < 0.7]
            words = [self._surface(genus)] + kept + [
                self._surface(_pick(rng, self.singles, self.single_cum))
                for _ in range(3)]
            rng.shuffle(words)
            text = []
            for w in words:
                if rng.random() < 0.7:
                    text.append(rng.choice(_FUNCTION_WORDS))
                text.append(w)
            definition = " ".join(text)
        definition = definition[:1].upper() + definition[1:] + "."
        gold = [(relation, self.synset_name(s))]
        if genus != lemma and genus.replace("_", " ") not in label:
            gold.append(("related", self.synset_name(self.parent[s])))
        alt = []
        synonyms = [m for m, _ in self.members[s] if m != lemma]
        if synonyms and rng.random() < 0.5:
            alt.append(synonyms[0].replace("_", " "))
        return {"uri": uri, "label": label, "lemma": lemma, "alt": alt,
                "definition": definition, "relation": relation, "gold": gold,
                "copied": copied, "synset": s}

    def _stratified(self, terms, count):
        """Terms at evenly spaced quantiles of a mapping-cost proxy, so every
        seed gets a slice of the same cost profile."""
        def cost(t):
            tokens = t["definition"].lower().rstrip(".").split()
            return self.polysemy[t["lemma"]] + sum(
                self.polysemy.get(w, 0) for w in tokens) + len(tokens)
        ranked = sorted(terms, key=lambda t: (cost(t), t["uri"]))
        step = len(ranked) / count
        picked = [ranked[int((i + 0.5) * step)] for i in range(count)]
        return sorted(picked, key=lambda t: t["uri"])

    # -- writers ------------------------------------------------------------

    def pointers(self) -> list[list[tuple[str, int]]]:
        """Noun pointers of each synset as (symbol, target synset)."""
        n = self.n
        hyper = [[] for _ in range(n)]
        hypo = [[] for _ in range(n)]
        holo = [[] for _ in range(n)]
        mero = [[] for _ in range(n)]
        for i in range(1, n):
            hyper[i].append(self.parent[i])
            hypo[self.parent[i]].append(i)
        for i, other in sorted(self.extra_hyper.items()):
            hyper[i].append(other)
            hypo[other].append(i)
        for i, whole in sorted(self.part_of.items()):
            if whole != i:
                holo[i].append(whole)
                mero[whole].append(i)
        pointers = []
        for s in range(n):
            ptrs = ([("@", t) for t in hyper[s]] + [("~", t) for t in hypo[s]]
                    + [("#p", t) for t in holo[s]]
                    + [("%p", t) for t in mero[s]])
            pointers.append(ptrs)
        return pointers

    def wndb_files(self, pointers) -> dict[str, bytes]:
        n = self.n

        def line(s, offsets):
            words = " ".join(f"{lemma} {k % 16:x}"
                             for k, (lemma, _) in enumerate(self.members[s]))
            ptrs = "".join(f" {sym} {offsets[t]:08d} n 0000"
                           for sym, t in pointers[s])
            verb = " + 00000001 v 0101" if s % 13 == 0 else ""
            count = len(pointers[s]) + (1 if verb else 0)
            return (f"{offsets[s]:08d} {3 + s % 26:02d} n "
                    f"{len(self.members[s]):02x} {words} {count:03d}{ptrs}"
                    f"{verb} | {self.glosses[s]}  \n")

        header = "".join(f"  {i} synthetic WNDB noun data for benchmarking\n"
                         for i in range(1, 4))
        # every offset field is eight digits wide, so line lengths are known
        # before the offsets are
        zero = [0] * n
        offsets, position = [], len(header.encode())
        for s in range(n):
            offsets.append(position)
            position += len(line(s, zero).encode())
        self.offsets = offsets
        data = header + "".join(line(s, offsets) for s in range(n))

        index_lines = []
        for lemma in sorted(self.lemmas):
            senses = [self.sense_synset[(lemma, k)]
                      for k in range(1, self.polysemy[lemma] + 1)]
            symbols = sorted({sym for s in senses for sym, _ in pointers[s]})
            tagged = sum(1 for k in range(1, len(senses) + 1)
                         if self.counts[(lemma, k)])
            index_lines.append(
                f"{lemma} n {len(senses)} {len(symbols)} "
                + "".join(f"{sym} " for sym in symbols)
                + f"{len(senses)} {tagged} "
                + " ".join(f"{offsets[s]:08d}" for s in senses) + "  \n")
        index = "  1 synthetic WNDB noun index\n" + "".join(index_lines)

        cnt_lines = []
        for lemma in self.lemmas:
            for k in range(1, self.polysemy[lemma] + 1):
                count = self.counts[(lemma, k)]
                if count:
                    s = self.sense_synset[(lemma, k)]
                    cnt_lines.append(
                        f"{lemma}%1:{3 + s % 26:02d}:00:: {k} {count}\n")
        exc = "".join(f"{form} {base}\n"
                      for form, base in sorted(self.exceptions.items()))
        return {"index.noun": index.encode(), "data.noun": data.encode(),
                "cntlist.rev": "".join(sorted(cnt_lines)).encode(),
                "noun.exc": exc.encode()}

    def fixture(self, pointers) -> bytes:
        """The store in the JSON fixture form, relation for relation what
        the WNDB loader keeps: noun pointers in line order, de-duplicated."""
        kinds = {"@": "hyponymOf", "#p": "partMeronymOf"}
        synsets = []
        for s in range(self.n):
            relations = []
            for sym, t in pointers[s]:
                pair = [kinds.get(sym, sym), self.offsets[t]]
                if pair not in relations:
                    relations.append(pair)
            synsets.append({
                "offset": self.offsets[s],
                "lemmas": [{"lemma": lemma, "sense_number": k,
                            "frequency": self.counts[(lemma, k)]}
                           for lemma, k in self.members[s]],
                "gloss": self.glosses[s],
                "relations": relations,
            })
        doc = {"synsets": synsets, "exceptions": dict(sorted(
            self.exceptions.items()))}
        return json.dumps(doc, separators=(",", ":")).encode()

    def vocabulary_nt(self, terms) -> bytes:
        lines = []
        for t in terms:
            u = t["uri"]
            lines.append(f"<{u}> <http://www.w3.org/1999/02/22-rdf-syntax-"
                         f"ns#type> <{SKOS}Concept> .")
            lines.append(f'<{u}> <{SKOS}prefLabel> "{t["label"]}"@en .')
            for alt in t["alt"]:
                lines.append(f'<{u}> <{SKOS}altLabel> "{alt}"@en .')
            definition = t["definition"].replace("\\", "\\\\")
            definition = definition.replace('"', '\\"')
            lines.append(f'<{u}> <{SKOS}definition> "{definition}"@en .')
        return ("\n".join(lines) + "\n").encode()

    def gold_nt(self, terms) -> bytes:
        lines = []
        for t in terms:
            for relation, name in t["gold"]:
                lines.append(f"<{t['uri']}> <{SKOS}{relation}Match> "
                             f"<{WN_NS}{name}> .")
        return ("\n".join(lines) + "\n").encode()

    def write(self, out: Path) -> None:
        (out / "dict").mkdir(parents=True, exist_ok=True)
        pointers = self.pointers()
        for name, payload in self.wndb_files(pointers).items():
            (out / "dict" / name).write_bytes(payload)
        (out / "wordnet.json").write_bytes(self.fixture(pointers))
        (out / "roots.txt").write_text(
            "".join(f"{self.synset_name(r)}\n" for r in self.roots), "utf-8")
        (out / "vocab.nt").write_bytes(self.vocabulary_nt(self.terms))
        (out / "gold.nt").write_bytes(self.gold_nt(self.terms))
        (out / "vocab_sweep.nt").write_bytes(
            self.vocabulary_nt(self.sweep_slice))
        (out / "gold_sweep.nt").write_bytes(self.gold_nt(self.sweep_slice))
        (out / "vocab_labels.nt").write_bytes(
            self.vocabulary_nt(self.label_slice))
        (out / "vocab_definitions.nt").write_bytes(
            self.vocabulary_nt(self.definition_slice))
        trigram = {t["uri"]: t
                   for t in self.label_slice + self.definition_slice}
        (out / "gold_trigram.nt").write_bytes(
            self.gold_nt(sorted(trigram.values(), key=lambda t: t["uri"])))


def generate(preset: str, seed: int, out: str | Path) -> Path:
    out = Path(out)
    Dataset(preset, seed).write(out)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--preset", choices=sorted(PRESETS), default="wn20")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.preset, args.seed, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
