"""Snippet retrieval over the context window.

Sparse methods (longest-common-substring, BM25, TF-IDF, Jaccard) work on a
shared tokenizer; dense retrieval delegates embedding to a provider behind a
small JSON-over-HTTP contract. Every method returns at most max_snippets
results sorted by score descending, line index ascending.
queries_for_method is the repair loop's query policy: what each method
searches for, given a failed body's diagnostics.
"""

from __future__ import annotations

import hashlib
import json
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, count
from operator import add
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence, runtime_checkable

from . import rows
from .corpus import lex_identifiers, tokenize_terms
from .rows import Record

if TYPE_CHECKING:
    from .executor import Diagnostic

METHODS = ("lcs", "bm25", "tfidf", "jaccard", "dense")

# A single-character match carries no signal; shorter fragments are noise.
MIN_LCS_LENGTH = 2


class RetrievalUnavailableError(RuntimeError):
    """Raised when a retrieval dependency (embedding provider) fails."""


@dataclass(frozen=True)
class RetrievalConfig(Record):
    """The `retrieval` object of a run config. `endpoint` and `dimension`
    configure the embedding provider of the dense method: without an
    endpoint, embeddings are hashed locally."""

    method: str = field(default="lcs", metadata={"choices": METHODS})
    window_lines: int = 1
    step_lines: int = 1
    max_snippets: int = 2
    bm25_k1: float = 1.2
    bm25_b: float = 0.75
    endpoint: str | None = None
    dimension: int = 16

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown retrieval method {self.method!r}")
        if self.window_lines < 1 or self.step_lines < 1:
            raise ValueError("window_lines and step_lines must be >= 1")
        if self.max_snippets < 1:
            raise ValueError("max_snippets must be >= 1")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")
        if self.bm25_k1 < 0 or not 0 <= self.bm25_b <= 1:
            raise ValueError("bm25_k1 must be >= 0 and bm25_b within [0, 1]")


@dataclass(frozen=True)
class Query:
    """What to search for; queries_for_method decides what that is."""

    text: str

    def __post_init__(self) -> None:
        if not self.text:
            raise ValueError("query text must be non-empty")


@dataclass(frozen=True)
class RetrievedSnippet(Record):
    """One scored context window; line_index is 0-based into the context."""

    line_index: int
    text: str
    score: float
    matched_fragment: str | None = None


@runtime_checkable
class EmbeddingProvider(Protocol):
    dimension: int
    # Whether a call can block outside the process, as ModelClient.waits.
    waits: bool

    def embed(self, text: str) -> list[float]: ...


def sliding_windows(
    context_lines: Sequence[str], config: RetrievalConfig
) -> list[tuple[int, str]]:
    """(start_line_index, window_text) pairs over the context lines."""
    windows: list[tuple[int, str]] = []
    n = len(context_lines)
    start = 0
    while start < n:
        chunk = context_lines[start : start + config.window_lines]
        windows.append((start, "\n".join(chunk)))
        start += config.step_lines
    return windows


def _ranked(
    scored: list[RetrievedSnippet], max_snippets: int
) -> list[RetrievedSnippet]:
    scored.sort(key=lambda s: (-s.score, s.line_index))
    return scored[:max_snippets]


class _JoinedLines:
    """Context lines joined once by a character no query contains.

    A query fragment then occurs in the joined text exactly where it occurs
    inside one line, so each search over all lines is one search in C.
    """

    def __init__(self, lines: Sequence[str], queries: Iterable[str]) -> None:
        used = set().union(*queries)
        separator = next(c for c in map(chr, count()) if c not in used)
        self.lines = lines
        self.text = separator.join(lines)
        # starts[i] is where line i begins; starts[len(lines)] is past the end.
        self.starts = list(map(add, accumulate(map(len, lines), initial=0), range(len(lines) + 1)))

    def lcs(self, q: str, max_snippets: int) -> list[RetrievedSnippet]:
        text = self.text
        # A hit at some length implies one at every shorter length from the
        # same start, so one forward scan finds the longest: at each start,
        # grow the best length while the next longer fragment still hits.
        # Each search either grows the length or moves the start.
        best = MIN_LCS_LENGTH - 1
        for j in range(len(q) - best):
            while j + best < len(q) and q[j : j + best + 1] in text:
                best += 1
        if best < MIN_LCS_LENGTH:
            return []
        starts = self.starts
        first: dict[int, int] = {}  # line index -> lowest query offset found in it
        for j in range(len(q) - best + 1):
            frag = q[j : j + best]
            pos = text.find(frag)
            while pos != -1:
                idx = bisect_right(starts, pos) - 1
                first.setdefault(idx, j)
                pos = text.find(frag, starts[idx + 1])
        return [
            RetrievedSnippet(
                line_index=idx,
                text=self.lines[idx],
                score=float(best),
                matched_fragment=q[first[idx] : first[idx] + best],
            )
            for idx in sorted(first)[:max_snippets]
        ]


def lcs_retrieve_multi(
    queries: Sequence[Query],
    context_lines: Sequence[str],
    config: RetrievalConfig,
) -> list[RetrievedSnippet]:
    """Longest-common-substring retrieval, merged over the queries.

    Per query, the longest query substring found in any context line sets
    the score; every line holding a substring of that length matches, with
    the one that starts first in the query as its matched fragment.
    Matches below MIN_LCS_LENGTH characters are discarded. A line keeps its
    best score across queries; ties rank by line index.

    Cost: a query shorter than MIN_LCS_LENGTH can match nothing and is
    dropped first; when none is left, nothing else is done. Otherwise the
    lines are joined and their offsets tabulated once for the remaining
    queries (O(T) for T context characters, in C); per query q, one forward
    scan over its starts makes at most 2|q| substring searches, O(|q| · T)
    character work done in C; collecting the matches at the chosen length takes at most |q| more
    searches plus O(log n) per matching line for n lines.
    """
    texts = [q.text for q in queries if len(q.text) >= MIN_LCS_LENGTH]
    if not texts:
        return []
    joined = _JoinedLines(context_lines, texts)
    best: dict[int, RetrievedSnippet] = {}
    for text in texts:
        for snippet in joined.lcs(text, config.max_snippets):
            prior = best.get(snippet.line_index)
            if prior is None or snippet.score > prior.score:
                best[snippet.line_index] = snippet
    return _ranked(list(best.values()), config.max_snippets)


def bm25_retrieve(
    query: Query, windows: Sequence[tuple[int, str]], config: RetrievalConfig
) -> list[RetrievedSnippet]:
    """Okapi BM25 over the sliding windows.

    IDF uses ln(1 + (N - df + 0.5) / (df + 0.5)), which keeps weights
    non-negative even for terms present in most windows. Windows scoring
    zero are never returned.
    """
    docs = [(idx, tokenize_terms(text), text) for idx, text in windows]
    n_docs = len(docs)
    if n_docs == 0:
        return []
    avgdl = sum(len(tokens) for _, tokens, _ in docs) / n_docs
    query_terms = tokenize_terms(query.text)
    df = Counter()
    for _, tokens, _ in docs:
        for term in set(tokens):
            df[term] += 1
    idf = {
        term: max(0.0, math.log(1.0 + (n_docs - df[term] + 0.5) / (df[term] + 0.5)))
        for term in set(query_terms)
    }
    k1, b = config.bm25_k1, config.bm25_b
    hits: list[RetrievedSnippet] = []
    for idx, tokens, text in docs:
        counts = Counter(tokens)
        dl = len(tokens)
        norm = 1.0 - b + b * (dl / avgdl) if avgdl > 0 else 1.0
        score = 0.0
        for term in query_terms:
            tf = counts.get(term, 0)
            if tf == 0:
                continue
            score += idf[term] * tf * (k1 + 1.0) / (tf + k1 * norm)
        if score > 0.0:
            hits.append(RetrievedSnippet(line_index=idx, text=text, score=score))
    return _ranked(hits, config.max_snippets)


def _tfidf_vector(tokens: Sequence[str], idf: dict[str, float]) -> dict[str, float]:
    counts = Counter(tokens)
    return {term: counts[term] * idf.get(term, 0.0) for term in counts}


def _cosine(a: dict[str, float], b: dict[str, float]) -> float:
    norm_a = math.sqrt(sum(v * v for v in a.values()))
    norm_b = math.sqrt(sum(v * v for v in b.values()))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    dot = sum(v * b.get(t, 0.0) for t, v in a.items())
    return dot / (norm_a * norm_b)


def tfidf_retrieve(
    query: Query, windows: Sequence[tuple[int, str]], config: RetrievalConfig
) -> list[RetrievedSnippet]:
    """Cosine similarity of raw-count TF * ln(N / df) vectors.

    Terms never seen in any window take df = 1. An all-zero query vector
    yields an empty result; zero-scoring windows are never returned.
    """
    docs = [(idx, tokenize_terms(text), text) for idx, text in windows]
    n_docs = len(docs)
    if n_docs == 0:
        return []
    df = Counter()
    for _, tokens, _ in docs:
        for term in set(tokens):
            df[term] += 1
    query_terms = tokenize_terms(query.text)
    vocab = set(df) | set(query_terms)
    idf = {term: math.log(n_docs / max(1, df[term])) for term in vocab}
    q_vec = _tfidf_vector(query_terms, idf)
    if all(v == 0.0 for v in q_vec.values()):
        return []
    hits: list[RetrievedSnippet] = []
    for idx, tokens, text in docs:
        score = _cosine(q_vec, _tfidf_vector(tokens, idf))
        if score > 0.0:
            hits.append(RetrievedSnippet(line_index=idx, text=text, score=score))
    return _ranked(hits, config.max_snippets)


def jaccard_retrieve(
    query: Query, windows: Sequence[tuple[int, str]], config: RetrievalConfig
) -> list[RetrievedSnippet]:
    """Token-set Jaccard similarity; zero-scoring windows are never returned."""
    q_set = set(tokenize_terms(query.text))
    hits: list[RetrievedSnippet] = []
    for idx, text in windows:
        w_set = set(tokenize_terms(text))
        union = q_set | w_set
        score = len(q_set & w_set) / len(union) if union else 0.0
        if score > 0.0:
            hits.append(RetrievedSnippet(line_index=idx, text=text, score=score))
    return _ranked(hits, config.max_snippets)


def _vec_cosine(a: Sequence[float], b: Sequence[float]) -> float:
    norm_a = math.sqrt(sum(x * x for x in a))
    norm_b = math.sqrt(sum(x * x for x in b))
    if norm_a == 0.0 or norm_b == 0.0:
        return 0.0
    return sum(x * y for x, y in zip(a, b)) / (norm_a * norm_b)


def dense_retrieve(
    query: Query,
    windows: Sequence[tuple[int, str]],
    provider: EmbeddingProvider,
    config: RetrievalConfig,
) -> list[RetrievedSnippet]:
    """Cosine similarity over provider embeddings; zero vectors score 0."""
    if not windows:
        return []
    try:
        q_vec = provider.embed(query.text)
        w_vecs = [provider.embed(text) for _, text in windows]
    except Exception as exc:
        raise RetrievalUnavailableError(f"embedding provider failed: {exc}") from exc
    hits = [
        RetrievedSnippet(line_index=idx, text=text, score=_vec_cosine(q_vec, vec))
        for (idx, text), vec in zip(windows, w_vecs)
    ]
    return _ranked(hits, config.max_snippets)


def retrieve(
    query: Query,
    context_lines: Sequence[str],
    config: RetrievalConfig,
    provider: EmbeddingProvider | None = None,
) -> list[RetrievedSnippet]:
    """Dispatch to the configured method, windowing the context as needed."""
    if config.method == "lcs":
        return lcs_retrieve_multi([query], context_lines, config)
    windows = sliding_windows(context_lines, config)
    if config.method == "bm25":
        return bm25_retrieve(query, windows, config)
    if config.method == "tfidf":
        return tfidf_retrieve(query, windows, config)
    if config.method == "jaccard":
        return jaccard_retrieve(query, windows, config)
    if config.method == "dense":
        if provider is None:
            raise RetrievalUnavailableError("dense retrieval needs an embedding provider")
        return dense_retrieve(query, windows, provider, config)
    raise ValueError(f"unknown retrieval method {config.method!r}")


def _faulty_line_text(diagnostics: Sequence[Diagnostic], completed_body: str) -> str | None:
    """The first non-blank body line a diagnostic points at, stripped."""
    # Diagnostic lines count "\n" only, as spans do.
    lines = completed_body.split("\n")
    pointed = (d.line for d in diagnostics if d.line is not None and 1 <= d.line <= len(lines))
    texts = (lines[line - 1].strip() for line in pointed)
    return next(filter(None, texts), None)


def queries_for_method(
    method: str, diagnostics: Sequence[Diagnostic], completed_body: str
) -> list[Query]:
    """The repair loop's queries for a failed body and its diagnostics.

    Substring matching (lcs) wants identifiers: those the diagnostics name,
    else those on the first faulty line, else those of the whole body.
    Bag-of-words and dense methods want one query: the first faulty line,
    else the first non-blank diagnostic message.
    """
    line_text = _faulty_line_text(diagnostics, completed_body)
    if method == "lcs":
        identifiers = list(dict.fromkeys(d.identifier for d in diagnostics if d.identifier))
        if not identifiers and line_text:
            identifiers = lex_identifiers(line_text)
        return [Query(ident) for ident in identifiers or lex_identifiers(completed_body)]
    text = line_text or next(filter(None, (d.message.strip() for d in diagnostics)), None)
    return [Query(text)] if text else []


@dataclass(frozen=True)
class HashEmbeddingProvider:
    """Deterministic local embeddings: tokens hashed into signed buckets.

    No model and no network; suitable for tests and offline runs.
    """

    dimension: int = 16
    waits = False

    def embed(self, text: str) -> list[float]:
        vec = [0.0] * self.dimension
        for token in tokenize_terms(text):
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            bucket = digest[0] % self.dimension
            sign = 1.0 if digest[1] % 2 == 0 else -1.0
            vec[bucket] += sign
        return vec


class HttpEmbeddingProvider:
    """JSON-over-HTTP provider: POST {"texts": [...]} -> {"vectors": [[...], ...]}."""

    waits = True

    def __init__(self, endpoint: str, dimension: int, timeout: float = 30.0) -> None:
        self.endpoint = endpoint
        self.dimension = dimension
        self.timeout = timeout

    def embed(self, text: str) -> list[float]:
        try:
            status, body = rows.post_json(self.endpoint, {"texts": [text]}, self.timeout)
            if status >= 400:
                raise ConnectionError(f"HTTP {status}")
            vector = json.loads(body)["vectors"][0]
            if type(vector) is not list or not all(type(x) in (int, float) for x in vector):
                raise TypeError("vector is not a list of numbers")
        except Exception as exc:
            raise RetrievalUnavailableError(f"embedding endpoint failed: {exc}") from exc
        if len(vector) != self.dimension:
            raise RetrievalUnavailableError(
                f"expected dimension {self.dimension}, got {len(vector)}"
            )
        return [float(x) for x in vector]
