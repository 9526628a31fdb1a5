"""vocmap: unsupervised mapping of SKOS vocabularies onto WordNet nouns."""

from vocmap.evaluation import (
    EvalResult,
    SweepGrid,
    SweepRow,
    evaluate,
    f_measure,
    precision_recall,
    run_sweep,
    summarize,
    summary_tsv,
    sweep_tsv,
    trigram_baseline_mapping,
    trigram_similarity,
    upper_bounds,
)
from vocmap.mapper import (
    Candidate,
    MapperConfig,
    MatchKind,
    assign_relation,
    find_candidates,
    find_semantic_mapping,
    map_vocabulary,
    random_baseline_mapping,
    salience,
    select_best,
)
from vocmap.text import (
    compound_candidates,
    default_stopwords,
    extract_definition_terms,
    lemmatize_noun,
    normalize_definition,
    tokenize,
)
from vocmap.vocab import (
    Mapping,
    MappingRelation,
    MappingSet,
    ParseError,
    Provenance,
    Term,
    Vocabulary,
    load_gold,
    parse_vocabulary_ntriples,
    serialize_mappings_ntriples,
    serialize_mappings_tsv,
)
from vocmap.wordnet import (
    HYPONYM_OF,
    PART_MERONYM_OF,
    LoadError,
    Synset,
    SynsetId,
    WordNetStore,
    WordSense,
    load_fixture,
    load_wndb,
    load_wndb_dir,
)

__version__ = "0.1.0"
