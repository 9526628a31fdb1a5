"""Child process of the benchmark: runs one vocmap CLI command, plain or
traced, or times the set-up phase alone.

    python3 bench/child.py cli -- <vocmap arguments>
    python3 bench/child.py trace SPANS_FILE -- <vocmap arguments>
    python3 bench/child.py setup SPEC_JSON

``cli`` is exactly the ``vocmap`` console script: no wrapping, nothing
recorded.  ``trace`` wraps the public functions of each module (the names
callers look up, including names imported into other modules) before the
command starts, keeps the spans in memory, and when the command ends
writes them to SPANS_FILE and a summary as one JSON line on stdout.
``setup`` loads the store, parses the vocabulary and gold, and computes
the taxonomy closure through the public API, as the CLI does before its
first mapping, sweep or baseline call, and prints the time it took.

The package is imported from the ``PYTHONPATH`` the parent sets.
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from pathlib import Path

#: Functions recorded as spans: (module, attribute path).
SPANNED = (
    ("cli", "main"),
    ("wordnet", "load_wndb_dir"),
    ("wordnet", "load_wndb"),
    ("wordnet", "load_fixture"),
    ("wordnet", "WordNetStore.__init__"),
    ("wordnet", "WordNetStore.taxonomy_closure"),
    ("vocab", "parse_vocabulary_ntriples"),
    ("vocab", "load_gold"),
    ("vocab", "serialize_mappings_ntriples"),
    ("vocab", "serialize_mappings_tsv"),
    ("text", "normalize_definition"),
    ("text", "extract_definition_terms"),
    ("mapper", "map_vocabulary"),
    ("mapper", "find_semantic_mapping"),
    ("mapper", "find_candidates"),
    ("mapper", "select_best"),
    ("evaluation", "run_sweep"),
    ("evaluation", "evaluate"),
    ("evaluation", "sweep_tsv"),
    ("evaluation", "summary_tsv"),
    ("evaluation", "trigram_baseline_mapping"),
)

#: Functions called too often for a span each; only their calls are counted.
COUNTED = (
    ("text", "lemmatize_noun"),
    ("text", "tokenize"),
    ("mapper", "salience"),
    ("evaluation", "trigram_similarity"),
)


class Tracer:
    """Spans (id, name, parent, start, end) and call counters, in memory.

    Each thread keeps its own stack of open spans.  A span opened on a
    worker thread with an empty stack gets as parent the span open on the
    main thread, which is the one that submitted the work.
    """

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.counters: dict[str, itertools.count] = {}
        self.kept: list[int] = []           # candidates per find_candidates
        self.normalize_inputs: set = set()
        self.missing: list[str] = []
        self.loaded: dict[str, int] = {}
        self.bytes_out = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() \
                is self._main else []
            self._local.stack = stack
        return stack

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def span(self, name: str, fn, observe=None):
        """Wrap ``fn`` so every call records a span named ``name``.

        ``observe(args, kwargs)`` may return replacement arguments and a
        callback that receives the result and may rename the span.
        """
        name_id = self._name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else -1)
            sid = next(tracer._ids)
            after = None
            if observe is not None:
                args, kwargs, after = observe(args, kwargs)
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span_name = name_id
            if after is not None:
                span_name = after(result, name_id)
            tracer.spans.append((sid, span_name, parent, start, end))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def count(self, name: str, fn):
        counter = self.counters.setdefault(name, itertools.count())

        def wrapper(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- observers ----------------------------------------------------------

    def observe_normalize(self, args, kwargs):
        args = list(args)
        exclude = args[1] if len(args) > 1 else kwargs.get("exclude", ())
        if not isinstance(exclude, (set, frozenset, tuple, list)):
            exclude = tuple(exclude)
            if len(args) > 1:
                args[1] = exclude
            else:
                kwargs["exclude"] = exclude
        text = args[0] if args else kwargs.get("text")
        self.normalize_inputs.add((text, frozenset(exclude)))
        return tuple(args), kwargs, None

    def observe_candidates(self, args, kwargs):
        def after(result, name_id):
            self.kept.append(len(result))
            return name_id
        return args, kwargs, after

    def observe_store(self, args, kwargs):
        def after(store, name_id):
            self.loaded["synsets"] = len(store)
            self.loaded["lemmas"] = len(getattr(store, "lemma_index", ()))
            return name_id
        return args, kwargs, after

    def observe_closure(self, args, kwargs):
        def after(closure, name_id):
            self.loaded["closure_size"] = len(closure)
            return name_id
        return args, kwargs, after

    def observe_serialized(self, args, kwargs):
        def after(payload, name_id):
            self.bytes_out += len(payload)
            return name_id
        return args, kwargs, after

    def observe_map_vocabulary(self, args, kwargs):
        self._local.last_uri = None
        return args, kwargs, None

    def observe_semantic(self, label_id, definition_id):
        """Tell the label pass (first call for a term) from the definition
        pass (later calls for the same term URI)."""
        def observe(args, kwargs):
            term = args[0] if args else kwargs["term"]
            first = getattr(self._local, "last_uri", None) != term.uri
            self._local.last_uri = term.uri
            chosen = label_id if first else definition_id
            return args, kwargs, lambda result, name_id: chosen
        return observe

    def observe_trigram(self, label_id, definition_id):
        def observe(args, kwargs):
            strategy = kwargs.get("strategy", args[3] if len(args) > 3
                                  else "labels")
            chosen = label_id if strategy == "labels" else definition_id
            return args, kwargs, lambda result, name_id: chosen
        return observe

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        import importlib
        import pkgutil

        modules = {info.name: importlib.import_module(f"{package.__name__}."
                                                      f"{info.name}")
                   for info in pkgutil.iter_modules(package.__path__)}
        everywhere = [package] + list(modules.values())
        observers = {
            "text.normalize_definition": self.observe_normalize,
            "mapper.find_candidates": self.observe_candidates,
            "mapper.map_vocabulary": self.observe_map_vocabulary,
            "wordnet.load_wndb_dir": self.observe_store,
            "wordnet.load_fixture": self.observe_store,
            "wordnet.WordNetStore.taxonomy_closure": self.observe_closure,
            "vocab.serialize_mappings_ntriples": self.observe_serialized,
            "vocab.serialize_mappings_tsv": self.observe_serialized,
        }
        label = self._name_id("mapper.find_semantic_mapping.label")
        definition = self._name_id("mapper.find_semantic_mapping.definition")
        observers["mapper.find_semantic_mapping"] = self.observe_semantic(
            label, definition)
        t_labels = self._name_id("evaluation.trigram_baseline_mapping.labels")
        t_defs = self._name_id("evaluation.trigram_baseline_mapping."
                               "definitions")
        observers["evaluation.trigram_baseline_mapping"] = \
            self.observe_trigram(t_labels, t_defs)

        for kind, table in (("span", SPANNED), ("count", COUNTED)):
            for module_name, attr in table:
                name = f"{module_name}.{attr}"
                module = modules.get(module_name)
                owner_name, _, leaf = attr.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name \
                    else module
                fn = getattr(owner, leaf, None) if owner is not None else None
                if fn is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                if kind == "span":
                    wrapped = self.span(name, fn, observers.get(name))
                else:
                    wrapped = self.count(name, fn)
                if owner_name:
                    setattr(owner, leaf, wrapped)
                    continue
                # rebind the name wherever callers look it up
                for mod in everywhere:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapped)

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Self time of every span: its duration minus the part of its
        interval that its children cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        result = {}
        for sid, _, _, start, end in self.spans:
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(sid, ())):
                c_start, c_end = max(c_start, reach), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            result[sid] = (end - start) - covered
        return result

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("id\tname\tparent\tstart\tend\n")
            for sid, name, parent, start, end in sorted(self.spans):
                out.write(f"{sid}\t{self.names[name]}\t{parent}\t{start:.9f}"
                          f"\t{end:.9f}\n")

    def summary(self) -> dict:
        selfs = self.self_times()
        by_name: dict[str, dict] = {}
        durations: dict[str, list[float]] = {}
        for sid, name, _, start, end in self.spans:
            entry = by_name.setdefault(self.names[name], {
                "calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += selfs[sid]
            durations.setdefault(self.names[name], []).append(end - start)
        # both passes of find_semantic_mapping together
        passes = [v for n, v in durations.items()
                  if n.startswith("mapper.find_semantic_mapping.")]
        if passes:
            by_name["mapper.find_semantic_mapping"] = {
                "calls": sum(map(len, passes)), "total_s": 0.0, "self_s": 0.0}
            durations["mapper.find_semantic_mapping"] = [
                d for v in passes for d in v]
        for name, values in durations.items():
            values.sort()
            by_name[name]["p50_s"] = _quantile(values, 0.50)
            by_name[name]["p99_s"] = _quantile(values, 0.99)
        counts = {name: next(counter) for name, counter in
                  self.counters.items()}
        return {
            "spans": by_name,
            "counts": counts,
            "n_spans": len(self.spans),
            "candidates_kept": [sum(self.kept), len(self.kept)],
            "normalize_distinct": len(self.normalize_inputs),
            "missing": self.missing,
            "loaded": self.loaded,
            "bytes_out": self.bytes_out,
        }


def _quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of a sorted, non-empty list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _run_cli(argv: list[str]) -> int:
    from vocmap.cli import main
    return main(argv)


def _run_traced(spans_file: str, argv: list[str]) -> int:
    import vocmap

    tracer = Tracer()
    tracer.install(vocmap)
    from vocmap.cli import main
    code = main(argv)
    write_started = time.perf_counter()
    tracer.write_spans(Path(spans_file))
    summary = tracer.summary()
    summary["write_s"] = time.perf_counter() - write_started
    print(json.dumps(summary))
    return code


def _run_setup(spec: dict) -> int:
    from vocmap import vocab, wordnet

    started = time.perf_counter()
    store_path = Path(spec["wordnet"])
    if store_path.is_dir():
        store = wordnet.load_wndb_dir(store_path)
    else:
        store = wordnet.load_fixture(store_path.read_bytes())
    vocab_path = Path(spec["vocab"])
    vocabulary = vocab.parse_vocabulary_ntriples(vocab_path.read_bytes(),
                                                 name=vocab_path.stem)
    if spec.get("gold"):
        vocab.load_gold(Path(spec["gold"]).read_bytes())
    closure = ()
    if spec.get("roots"):
        names = [line.strip() for line in
                 Path(spec["roots"]).read_text("utf-8").splitlines()
                 if line.strip() and not line.lstrip().startswith("#")]
        closure = store.taxonomy_closure(
            [store.resolve_synset_name(name) for name in names])
    elapsed = time.perf_counter() - started
    print(json.dumps({"setup_s": elapsed, "synsets": len(store),
                      "terms": len(vocabulary), "closure": len(closure)}))
    return 0


def main(argv: list[str]) -> int:
    mode = argv[0] if argv else ""
    if mode == "cli" and argv[1:2] == ["--"]:
        return _run_cli(argv[2:])
    if mode == "trace" and len(argv) > 2 and argv[2] == "--":
        return _run_traced(argv[1], argv[3:])
    if mode == "setup" and len(argv) == 2:
        return _run_setup(json.loads(argv[1]))
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
