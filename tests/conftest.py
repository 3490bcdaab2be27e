import json
from pathlib import Path

import numpy as np
import pytest

from rankexplain import Document, build_index, read_corpus_jsonl
from rankexplain.axioms import AXIOM_NAMES, axiom_preference
from rankexplain.datasets import demo_corpus_path
from rankexplain.rng import XorShift64Star


def make_vocab(size, prefix="w"):
    # Stem-stable, non-stopword synthetic terms.
    return [f"{prefix}{i:02d}" for i in range(size)]


def random_corpus(rng: XorShift64Star, n_docs, vocab, min_len=5, max_len=30, prefix="d"):
    docs = []
    for i in range(n_docs):
        length = min_len + rng.randbelow(max_len - min_len + 1)
        tokens = [vocab[rng.randbelow(len(vocab))] for _ in range(length)]
        docs.append(Document(docid=f"{prefix}{i:03d}", text=" ".join(tokens)))
    return docs


def json_lines(text: str) -> list:
    """The records of JSON-lines output: every line ends in a newline, parses, and none is blank."""
    *lines, last = text.split("\n")
    assert last == "", f"JSON-lines output does not end in a newline: {text[-40:]!r}"
    assert all(line.strip() for line in lines), f"JSON-lines output holds a blank line: {text!r}"
    return [json.loads(line) for line in lines]


def axiom_preferences(index, query, di, dj) -> dict:
    """Each axiom's preference for the pair (di, dj), by name."""
    return {name: axiom_preference(name, index, query, di, dj) for name in AXIOM_NAMES}


def index_state(index) -> tuple:
    """What an index file holds: the config, the vocabulary and each document's tokens in docid order.

    Two indexes with equal states hold equal postings and statistics: the
    constructor computes every one of them from these.
    """
    return index.config, index.vocabulary, [(d, index.doc_tokens(d)) for d in index.doc_ids()]


def read_index_file(path) -> tuple[dict, bytes]:
    """The header of an index file, parsed, and its body."""
    header, _, body = Path(path).read_bytes().partition(b"\n")
    return json.loads(header), body


def index_file_bytes(header, ordinals) -> bytes:
    """An index file: ``header`` as a JSON line, then ``ordinals`` (ints, or bytes as they are) as int32."""
    body = ordinals if isinstance(ordinals, bytes) else np.array(ordinals, dtype="<i4").tobytes()
    return json.dumps(header).encode() + b"\n" + body


@pytest.fixture(scope="session")
def demo_index():
    return build_index(read_corpus_jsonl(demo_corpus_path()))


def hidden_intent_fixture(seed, n_docs=50, vocab_size=40, n_candidates=30,
                          depth=10, hidden_weight=2.5):
    """A corpus, a query, and an opaque ranker with known hidden terms."""
    from rankexplain import (
        BM25Ranker,
        HiddenIntentRanker,
        Query,
        generate_candidates,
        rank,
    )
    from rankexplain.listwise import CandidateTerm

    rng = XorShift64Star(seed)
    vocab = make_vocab(vocab_size)
    corpus = random_corpus(rng, n_docs, vocab, min_len=15, max_len=30)
    index = build_index(corpus)
    query_terms = [vocab[rng.randbelow(vocab_size)], vocab[rng.randbelow(vocab_size)]]
    hidden_terms = []
    while len(hidden_terms) < 3:
        t = vocab[rng.randbelow(vocab_size)]
        if t not in hidden_terms and t not in query_terms:
            hidden_terms.append(t)
    query = Query.from_terms("q", query_terms)
    opaque = HiddenIntentRanker(BM25Ranker(index), [(t, hidden_weight) for t in hidden_terms])
    ranked = rank(index, opaque, query, pool=index.doc_ids(), depth=depth)
    candidates = generate_candidates(index, ranked, top_k=depth, n_candidates=n_candidates)
    present = {c.term for c in candidates}
    for t in hidden_terms:
        if t not in present:
            candidates[-1 - hidden_terms.index(t)] = CandidateTerm(t, 0.0)
    return index, query, opaque, ranked, candidates, hidden_terms
