"""vocmap: unsupervised mapping of SKOS vocabularies onto WordNet nouns."""

from vocmap.mapper import MapperConfig, map_vocabulary
from vocmap.vocab import (load_gold, parse_vocabulary_ntriples,
                          serialize_mappings_ntriples)
from vocmap.wordnet import load_fixture, load_wndb_dir

__version__ = "0.1.0"
