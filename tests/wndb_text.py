"""A fixture document rendered as the WNDB files of the same store."""

from vocmap.wordnet import HYPONYM_OF, PART_MERONYM_OF

# the symbol of a closure relation; any other kind is its own symbol
_POINTER_SYMBOLS = {HYPONYM_OF: "@", PART_MERONYM_OF: "#p"}


def wndb_files(doc):
    """The fixture document rendered as WNDB index.noun, data.noun,
    cntlist.rev and noun.exc, each data and index file under a license
    block."""
    data, offsets_of, counts = ["  1 license"], {}, []
    for entry in doc["synsets"]:
        words = " ".join(f"{item['lemma']} 0" for item in entry["lemmas"])
        pointers = "".join(
            f" {_POINTER_SYMBOLS.get(kind, kind)} {target:08d} n 0000"
            for kind, target in entry["relations"])
        data.append(f"{entry['offset']:08d} 03 n {len(entry['lemmas']):02x} "
                    f"{words} {len(entry['relations']):03d}{pointers} | "
                    f"{entry['gloss']}")
        for item in entry["lemmas"]:
            offsets_of.setdefault(item["lemma"], []).append(entry["offset"])
            if item["frequency"]:
                counts.append(f"{item['lemma']}%1:03:00:: "
                              f"{item['sense_number']} {item['frequency']}")
    index = ["  1 license"] + [
        f"{lemma} n {len(offs)} 0 {len(offs)} 0 "
        + " ".join(f"{off:08d}" for off in offs)
        for lemma, offs in sorted(offsets_of.items())]
    exc = [f"{k} {v}" for k, v in doc["exceptions"].items()]
    return ["\n".join(lines + [""]).encode()
            for lines in (index, data, counts, exc)]
