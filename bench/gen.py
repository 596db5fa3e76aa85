"""Seeded input generators for the benchmark workloads.

Every workload's inputs are written as CoNLL-U / JSONL text, so the code
under test only ever sees text it has to parse. Generation uses the
standard library's `random.Random` seeded with a string, so the same
(workload, seed) pair gives byte-identical files on any interpreter run.

Sizes that set the cost of a unit of work are stratified: sentence
lengths cover their range evenly and the seed only shuffles them, and
the cli-short chunk length triples and the gradient-check shapes are
one fixed set in seeded order.
Pools drawn from different seeds therefore cost about the same, which
keeps run-to-run spread small.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

RELATIONS = ("nsubj", "obj", "det", "amod", "advmod", "nmod", "case", "obl",
             "conj", "cc", "mark", "compound", "aux", "xcomp")
# skewed like a treebank: a few relations dominate
RELATION_WEIGHTS = tuple(itertools.accumulate(1.0 / (k + 1) for k in range(len(RELATIONS))))

VOCAB_SIZE = 2000
ZIPF_EXPONENT = 1.1
CAPITALIZED_FRAC = 0.1

LONG_PAIRS = 16           # layer-long: pairs per pool
LONG_RANGE = (192, 256)   # layer-long: length of sentence a
LONG_EDITS = 6            # layer-long: at most this many insertions and deletions
SHORT_CHUNKS = 48         # cli-short: chunk files per pool
SHORT_CHUNK_PAIRS = 3     # cli-short: pairs per chunk file
SHORT_RANGE = (6, 40)     # cli-short: length of both sentences
SHORT_EDITS = 2
CORPUS_EXTRA = 64         # extra corpus sentences for the tf-idf fit
CORPUS_RANGE = (8, 40)
GRAD_CONFIGS = 96         # gradcheck-sweep: configurations per pool
# dimension ranges of acceptance criterion 5
GRAD_RANGES = {"d_seq": (1, 6), "d_k": (1, 8), "d_v": (1, 8), "d_hid": (1, 5)}

WORKLOADS = ("layer-long", "cli-short", "gradcheck-sweep")


class _Words:
    """Zipf-distributed word forms, a tenth of them capitalized."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.words = [f"w{k:04d}" for k in range(VOCAB_SIZE)]
        self.cum = list(itertools.accumulate(1.0 / (k + 1) ** ZIPF_EXPONENT for k in range(VOCAB_SIZE)))

    def draw(self) -> str:
        form = self.rng.choices(self.words, cum_weights=self.cum)[0]
        return form.capitalize() if self.rng.random() < CAPITALIZED_FRAC else form

    def relation(self) -> str:
        return self.rng.choices(RELATIONS, cum_weights=RELATION_WEIGHTS)[0]


def _tree(words: _Words, n: int) -> list[dict]:
    """Random rooted tree: nodes join in a random order, each under an earlier node."""
    rng = words.rng
    order = list(range(n))
    rng.shuffle(order)
    head = {order[0]: None}
    for k in range(1, n):
        head[order[k]] = order[rng.randrange(k)]
    return [
        {"id": i, "form": words.draw(), "head": head[i],
         "rel": "root" if head[i] is None else words.relation()}
        for i in range(n)
    ]


def _derive(words: _Words, nodes: list[dict], deletions: int, insertions: int) -> list[dict]:
    """Paraphrase-style copy: replace forms, relabel relations, delete leaves, insert leaves."""
    rng = words.rng
    out = [dict(node) for node in nodes]
    for node in out:
        if rng.random() < 0.15:
            node["form"] = words.draw()
        if node["head"] is not None and rng.random() < 0.1:
            node["rel"] = words.relation()
    for _ in range(deletions):
        heads = {node["head"] for node in out}
        leaves = [k for k, node in enumerate(out) if node["head"] is not None and node["id"] not in heads]
        del out[rng.choice(leaves)]
    next_id = max(node["id"] for node in nodes) + 1
    for _ in range(insertions):
        parent = rng.choice(out)["id"]
        out.insert(rng.randrange(len(out) + 1),
                   {"id": next_id, "form": words.draw(), "head": parent, "rel": words.relation()})
        next_id += 1
    return out


def conllu(nodes: list[dict]) -> str:
    """Render nodes as a 10-column CoNLL-U block, numbering tokens in list order."""
    position = {node["id"]: k for k, node in enumerate(nodes, start=1)}
    lines = [
        f"{k}\t{node['form']}\t_\t_\t_\t_\t{0 if node['head'] is None else position[node['head']]}"
        f"\t{node['rel']}\t_\t_"
        for k, node in enumerate(nodes, start=1)
    ]
    return "\n".join(lines) + "\n"


def _stratified(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """`count` values spread evenly over [lo, hi], in seeded order."""
    values = [lo + round(k * (hi - lo) / max(count - 1, 1)) for k in range(count)]
    rng.shuffle(values)
    return values


def _pairs(words: _Words, prefix: str, lengths: list[int], bounds: tuple[int, int], edits: int):
    """Pair records whose second sentence stays inside `bounds` after edits."""
    rng = words.rng
    lo, hi = bounds
    records, sentences = [], []
    for k, n in enumerate(lengths):
        a = _tree(words, n)
        deletions = min(rng.randint(0, edits), n - lo)
        insertions = min(rng.randint(0, edits), hi - (n - deletions))
        b = _derive(words, a, deletions, insertions)
        sentences += [a, b]
        records.append(json.dumps({"id": f"{prefix}-{k:03d}", "a": conllu(a), "b": conllu(b)},
                                  sort_keys=True))
    return records, sentences


def _corpus(words: _Words, sentences: list[list[dict]]) -> str:
    extra = [_tree(words, words.rng.randint(*CORPUS_RANGE)) for _ in range(CORPUS_EXTRA)]
    return "\n".join(conllu(nodes) for nodes in sentences + extra)


def generate(workload: str, seed: int, out_dir, units: int | None = None) -> None:
    """Write the inputs of one workload run into `out_dir`.

    `units` shrinks the pool (pairs, chunk files or configurations); the
    default is the full pool the timed runs use.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    words = _Words(random.Random(f"{workload}/{seed}"))
    rng = words.rng
    if workload == "layer-long":
        count = units or LONG_PAIRS
        records, sentences = _pairs(words, f"long{seed}", _stratified(rng, *LONG_RANGE, count),
                                    LONG_RANGE, LONG_EDITS)
        (out / "pairs.jsonl").write_text("\n".join(records) + "\n", encoding="utf-8")
        (out / "corpus.conllu").write_text(_corpus(words, sentences), encoding="utf-8")
    elif workload == "cli-short":
        chunks = units or SHORT_CHUNKS
        # each chunk takes one length from each band of the range, so chunks cost about the same;
        # the set of chunk length triples is the same for every seed, which only orders them
        grid = random.Random("grid/cli-short")
        lengths = sorted(_stratified(grid, *SHORT_RANGE, chunks * SHORT_CHUNK_PAIRS))
        bands = [lengths[k * chunks:(k + 1) * chunks] for k in range(SHORT_CHUNK_PAIRS)]
        for band in bands:
            grid.shuffle(band)
        triples = [grid.sample(chunk, len(chunk)) for chunk in zip(*bands)]
        rng.shuffle(triples)
        lengths = [n for triple in triples for n in triple]
        records, sentences = _pairs(words, f"short{seed}", lengths, SHORT_RANGE, SHORT_EDITS)
        for c in range(chunks):
            chunk = records[c * SHORT_CHUNK_PAIRS:(c + 1) * SHORT_CHUNK_PAIRS]
            (out / f"chunk-{c:03d}.jsonl").write_text("\n".join(chunk) + "\n", encoding="utf-8")
        (out / "corpus.conllu").write_text(_corpus(words, sentences), encoding="utf-8")
    else:
        count = units or GRAD_CONFIGS
        # the set of shapes is the same for every seed, so every pool costs the same;
        # the seed orders the shapes and draws each check's values
        dims = {name: _stratified(random.Random(f"grid/{name}"), lo, hi, count)
                for name, (lo, hi) in GRAD_RANGES.items()}
        shapes = [{name: values[k] for name, values in dims.items()} for k in range(count)]
        rng.shuffle(shapes)
        lines = [json.dumps({**shape, "seed": rng.randrange(2**31)}, sort_keys=True)
                 for shape in shapes]
        (out / "configs.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")
