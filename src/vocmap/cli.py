"""Batch command-line interface.

Subcommands: map a vocabulary, run the parameter sweep, evaluate a mapping
against a gold standard, extract a salient-taxonomy closure, and run the
random or trigram baselines.  Flags can be pre-loaded from a ``key = value``
config file; explicit flags win.  Every command is deterministic given its
flags, so re-running never changes output bytes.

Exit codes: 0 success, 1 input or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from vocmap import evaluation as ev
from vocmap import mapper, vocab, wordnet

_DATA_ERRORS = (vocab.ParseError, wordnet.LoadError, OSError, ValueError)


class _UsageError(Exception):
    """A flag value the command cannot run with (exit code 2)."""


def _fail(message: str, code: int = 1) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _load_store(path: str) -> wordnet.WordNetStore:
    p = Path(path)
    if p.is_dir():
        return wordnet.load_wndb_dir(p)
    return wordnet.load_fixture(p.read_bytes())


def _read_text(path: str) -> str:
    """A file's text; invalid UTF-8 is an error naming the file and line."""
    try:
        return Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = exc.object.count(b"\n", 0, exc.start) + 1
        raise ValueError(f"{path}, line {line_no}: not valid UTF-8") from None


def _parse_file(path: str, parse, **kwargs):
    """``parse`` applied to a file's bytes; a ParseError names the file."""
    data = Path(path).read_bytes()
    try:
        return parse(data, **kwargs)
    except vocab.ParseError as exc:
        raise vocab.ParseError(f"{path}, {exc}") from None


def _load_vocabulary(path: str) -> vocab.Vocabulary:
    return _parse_file(path, vocab.parse_vocabulary_ntriples,
                       name=Path(path).stem)


def _load_gold(path: str) -> vocab.MappingSet:
    """A gold or mapping file; each triple it ignores is reported on
    stderr."""
    gold = _parse_file(path, vocab.load_gold)
    for warning in gold.warnings:
        print(f"warning: {path}, {warning}", file=sys.stderr)
    return gold


def _read_roots(path: str, store: wordnet.WordNetStore):
    names = [line.strip() for line in _read_text(path).splitlines()
             if line.strip() and not line.lstrip().startswith("#")]
    return [store.resolve_synset_name(name) for name in names]


def _unknown_gold_synsets(gold: vocab.MappingSet,
                          store: wordnet.WordNetStore) -> list[str]:
    """Sorted gold synset names that no store synset carries, so no machine
    mapping can ever match them."""
    def _known(name: str) -> bool:
        try:
            return store.synset_name(store.resolve_synset_name(name)) == name
        except wordnet.LoadError:
            return False
    return sorted(n for n in {m.synset for m in gold} if not _known(n))


def _write(directory: Path, name: str, payload: bytes) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / name).write_bytes(payload)


def _write_report(directory: Path, lines: list[str]) -> None:
    _write(directory, "run-report.txt",
           ("\n".join(lines) + "\n").encode("utf-8"))


def _load_config_file(path: str) -> dict[str, str]:
    """A config file's values.  A key that no command knows is an error;
    any other key is accepted, so that one file can serve every command."""
    values: dict[str, str] = {}
    for line_no, raw in enumerate(_read_text(path).splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}, line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in {**_MAP_DEFAULTS, **_SWEEP_DEFAULTS,
                       **_BASELINE_DEFAULTS}:
            raise ValueError(f"{path}, line {line_no}: unknown key {key!r}")
        values[key] = value.strip()
    return values


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _merge_config(args: argparse.Namespace,
                  defaults: dict[str, object]) -> argparse.Namespace:
    """Fill unset flags from --config, then from hard defaults."""
    file_values = _load_config_file(args.config) if getattr(args, "config", None) \
        else {}
    for key, default in defaults.items():
        if getattr(args, key, None) is not None:
            continue
        if key in file_values:
            raw = file_values[key]
            caster = type(default) if default is not None else str
            try:
                value = _BOOLEANS[raw.lower()] if caster is bool \
                    else caster(raw)
            except (KeyError, ValueError):
                raise ValueError(
                    f"config value {key} = {raw!r} is not a valid "
                    f"{caster.__name__}") from None
            setattr(args, key, value)
        else:
            setattr(args, key, default)
    return args


def _int_list(text: str, flag: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise _UsageError(f"{flag} takes comma-separated integers, "
                          f"got {text!r}") from None
    if not values:
        raise _UsageError(f"{flag} needs at least one value")
    if min(values) < 0:
        raise _UsageError(f"{flag} values must be >= 0, got {text!r}")
    return values


def _taxonomy_options(text: str) -> tuple[bool, ...]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts or any(part not in ("on", "off") for part in parts):
        raise _UsageError(f"--taxonomy takes 'on', 'off' or 'off,on', "
                          f"got {text!r}")
    return tuple(part == "on" for part in parts)


# ---------------------------------------------------------------------------
# Commands

_MAP_DEFAULTS = {"min_overlap": 0, "min_freq": 0, "out": "out",
                 "taxonomy_roots": None, "alt_labels": False}


def cmd_map(args: argparse.Namespace) -> int:
    args = _merge_config(args, _MAP_DEFAULTS)
    for key, flag in (("min_overlap", "--min-overlap"),
                      ("min_freq", "--min-freq")):
        if getattr(args, key) < 0:
            raise _UsageError(f"{flag} must be >= 0, got {getattr(args, key)}")
    store = _load_store(args.wordnet)
    vocabulary = _load_vocabulary(args.vocab)
    taxonomy = None
    if args.taxonomy_roots:
        taxonomy = store.taxonomy_closure(_read_roots(args.taxonomy_roots,
                                                      store))
    config = mapper.MapperConfig(ol_min=args.min_overlap,
                                 f_min=args.min_freq,
                                 taxonomy=taxonomy,
                                 use_alt_labels=args.alt_labels)
    mapping = mapper.map_vocabulary(vocabulary, store, config)
    out = Path(args.out)
    _write(out, "mapping.nt", vocab.serialize_mappings_ntriples(mapping))
    _write(out, "mapping.tsv", vocab.serialize_mappings_tsv(mapping))
    report = [
        f"vocabulary: {args.vocab} ({len(vocabulary)} terms)",
        f"wordnet: {args.wordnet} ({len(store)} synsets)",
        f"min_overlap: {config.ol_min}",
        f"min_freq: {config.f_min}",
        f"taxonomy: {'on (' + str(len(taxonomy)) + ' synsets)' if taxonomy is not None else 'off'}",
        f"alt_labels: {'on' if config.use_alt_labels else 'off'}",
        f"mappings: {len(mapping)}",
    ]
    report += [f"warning: {w}" for w in vocabulary.warnings]
    report += [f"warning: {w}" for w in mapping.warnings]
    _write_report(out, report)
    return 0


_SWEEP_DEFAULTS = {"workers": 10, "out": "out", "taxonomy_roots": None,
                   "ol_min": None, "f_min": None, "taxonomy": None,
                   "timings": False}


def cmd_sweep(args: argparse.Namespace) -> int:
    args = _merge_config(args, _SWEEP_DEFAULTS)
    grid_kwargs = {}
    if args.ol_min is not None:
        grid_kwargs["ol_min_values"] = _int_list(str(args.ol_min), "--ol-min")
    if args.f_min is not None:
        grid_kwargs["f_min_values"] = _int_list(str(args.f_min), "--f-min")
    if args.taxonomy is not None:
        grid_kwargs["taxonomy_options"] = _taxonomy_options(str(args.taxonomy))
    grid = ev.SweepGrid(**grid_kwargs)
    taxonomy_on = any(grid.taxonomy_options)
    if taxonomy_on and not args.taxonomy_roots:
        raise _UsageError("the grid includes taxonomy=on; "
                          "--taxonomy-roots is required")
    store = _load_store(args.wordnet)
    vocabulary = _load_vocabulary(args.vocab)
    gold = _load_gold(args.gold)
    if gold.triples and not {m.term for m in gold} & vocabulary.terms.keys():
        print(f"warning: {args.gold} shares no terms with {args.vocab}",
              file=sys.stderr)
    unknown = _unknown_gold_synsets(gold, store)
    if unknown:
        print(f"warning: {len(unknown)} gold synset names are not in the "
              f"store, first {unknown[0]}", file=sys.stderr)
    taxonomy = None
    if taxonomy_on:
        taxonomy = store.taxonomy_closure(_read_roots(args.taxonomy_roots,
                                                      store))
    rows = ev.run_sweep(vocabulary, store, gold, grid=grid, taxonomy=taxonomy)
    out = Path(args.out)
    _write(out, "sweep.tsv", ev.sweep_tsv(rows, include_timings=args.timings))
    _write(out, "summary.tsv", ev.summary_tsv(rows))
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    result = ev.evaluate(_load_gold(args.mapping), _load_gold(args.gold))
    print(f"P={result.precision:.4f} R={result.recall:.4f} "
          f"F={result.f_measure:.4f}")
    return 0


def cmd_taxonomy(args: argparse.Namespace) -> int:
    store = _load_store(args.wordnet)
    closure = store.taxonomy_closure(_read_roots(args.roots, store))
    names = sorted(store.synset_name(sid) for sid in closure)
    payload = "".join(f"{name}\n" for name in names)
    payload += f"# count: {len(names)}\n"
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(payload, "utf-8")
    else:
        sys.stdout.write(payload)
    return 0


_BASELINE_DEFAULTS = {"seed": 0, "threshold": 0.9, "out": "out"}


def cmd_baseline(args: argparse.Namespace) -> int:
    args = _merge_config(args, _BASELINE_DEFAULTS)
    store = _load_store(args.wordnet)
    vocabulary = _load_vocabulary(args.vocab)
    if args.kind == "random":
        mapping = mapper.random_baseline_mapping(vocabulary, store,
                                                 seed=args.seed)
    else:
        strategy = "labels" if args.kind == "trigram-labels" else "definitions"
        mapping = ev.trigram_baseline_mapping(vocabulary, store,
                                              threshold=args.threshold,
                                              strategy=strategy)
    out = Path(args.out)
    _write(out, "mapping.nt", vocab.serialize_mappings_ntriples(mapping))
    _write(out, "mapping.tsv", vocab.serialize_mappings_tsv(mapping))
    return 0


# ---------------------------------------------------------------------------
# Parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vocmap",
        description="Map SKOS vocabulary terms onto WordNet noun synsets.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_map = sub.add_parser("map", help="map a vocabulary onto WordNet")
    p_map.add_argument("--vocab", required=True, help="vocabulary N-Triples file")
    p_map.add_argument("--wordnet", required=True,
                       help="WNDB dict directory or JSON fixture file")
    p_map.add_argument("--taxonomy-roots", dest="taxonomy_roots",
                       help="file of salient root synset names, one per line")
    p_map.add_argument("--min-overlap", dest="min_overlap", type=int)
    p_map.add_argument("--min-freq", dest="min_freq", type=int)
    p_map.add_argument("--alt-labels", dest="alt_labels", action="store_const",
                       const=True, help="fall back to altLabels")
    p_map.add_argument("--out")
    p_map.add_argument("--config", help="key = value file; flags override it")
    p_map.set_defaults(func=cmd_map)

    p_sweep = sub.add_parser("sweep", help="evaluate the whole parameter grid")
    p_sweep.add_argument("--vocab", required=True)
    p_sweep.add_argument("--wordnet", required=True)
    p_sweep.add_argument("--gold", required=True,
                         help="gold-standard mapping N-Triples file")
    p_sweep.add_argument("--taxonomy-roots", dest="taxonomy_roots")
    p_sweep.add_argument("--workers", type=int,
                         help="accepted for compatibility; has no effect")
    p_sweep.add_argument("--ol-min", dest="ol_min",
                         help="comma-separated overlap thresholds")
    p_sweep.add_argument("--f-min", dest="f_min",
                         help="comma-separated frequency thresholds")
    p_sweep.add_argument("--taxonomy",
                         help="taxonomy options, e.g. 'off,on' or 'off'")
    p_sweep.add_argument("--timings", action="store_const", const=True,
                         help="write real wall times into sweep.tsv")
    p_sweep.add_argument("--out")
    p_sweep.add_argument("--config")
    p_sweep.set_defaults(func=cmd_sweep)

    p_eval = sub.add_parser("eval", help="score a mapping against a gold file")
    p_eval.add_argument("--mapping", required=True)
    p_eval.add_argument("--gold", required=True)
    p_eval.set_defaults(func=cmd_eval)

    p_tax = sub.add_parser("taxonomy", help="extract a salient-taxonomy closure")
    p_tax.add_argument("--wordnet", required=True)
    p_tax.add_argument("--roots", required=True)
    p_tax.add_argument("--out")
    p_tax.set_defaults(func=cmd_taxonomy)

    p_base = sub.add_parser("baseline", help="run a baseline mapper")
    p_base.add_argument("--kind", required=True,
                        choices=["random", "trigram-labels",
                                 "trigram-definitions"])
    p_base.add_argument("--vocab", required=True)
    p_base.add_argument("--wordnet", required=True)
    p_base.add_argument("--seed", type=int)
    p_base.add_argument("--threshold", type=float)
    p_base.add_argument("--out")
    p_base.add_argument("--config")
    p_base.set_defaults(func=cmd_baseline)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _UsageError as exc:
        return _fail(str(exc), code=2)
    except _DATA_ERRORS as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
