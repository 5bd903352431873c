"""Retrieval methods: LCS against a brute-force oracle, hand-computed BM25
and TF-IDF fixtures, contract properties shared by every method."""

from __future__ import annotations

import math
import random
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from solrepair import retrieval
from solrepair.retrieval import (
    MIN_LCS_LENGTH,
    HashEmbeddingProvider,
    HttpEmbeddingProvider,
    Query,
    RetrievalConfig,
    RetrievalUnavailableError,
    RetrievedSnippet,
    bm25_retrieve,
    dense_retrieve,
    jaccard_retrieve,
    lcs_retrieve_multi,
    retrieve,
    sliding_windows,
    tfidf_retrieve,
)

CFG = RetrievalConfig(max_snippets=10)


def lcs_oracle(query_text: str, lines: list[str], max_snippets: int):
    """Reference implementation: explicit scan over lengths, lines, offsets."""
    for length in range(len(query_text), MIN_LCS_LENGTH - 1, -1):
        hits = []
        for idx, text in enumerate(lines):
            found = None
            for j in range(len(query_text) - length + 1):
                frag = query_text[j : j + length]
                if frag in text:
                    found = frag
                    break
            if found is not None:
                hits.append((idx, float(length), found, text))
        if hits:
            hits.sort(key=lambda h: h[0])
            return hits[:max_snippets]
    return []


def enumerating_lcs_retrieve(query: Query, context_lines: list[str], config: RetrievalConfig):
    """The enumerating single-query LCS retrieval that the binary search
    replaced: every query substring, longest first, against every line."""
    q = query.text
    for length in range(len(q), MIN_LCS_LENGTH - 1, -1):
        fragments = [q[j : j + length] for j in range(len(q) - length + 1)]
        hits: list[RetrievedSnippet] = []
        for idx, line in enumerate(context_lines):
            for frag in fragments:
                if frag in line:
                    hits.append(
                        RetrievedSnippet(
                            line_index=idx,
                            text=line,
                            score=float(length),
                            matched_fragment=frag,
                        )
                    )
                    break
        if hits:
            hits.sort(key=lambda s: (-s.score, s.line_index))
            return hits[: config.max_snippets]
    return []


def enumerating_lcs_retrieve_multi(queries, context_lines, config):
    best: dict[int, RetrievedSnippet] = {}
    for query in queries:
        for snippet in enumerating_lcs_retrieve(query, context_lines, config):
            prior = best.get(snippet.line_index)
            if prior is None or snippet.score > prior.score:
                best[snippet.line_index] = snippet
    ranked = sorted(best.values(), key=lambda s: (-s.score, s.line_index))
    return ranked[: config.max_snippets]


class TestConfigAndQuery:
    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown retrieval method"):
            RetrievalConfig(method="grep")

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window_lines": 0},
            {"step_lines": 0},
            {"max_snippets": 0},
            {"bm25_k1": -0.1},
            {"bm25_b": 1.5},
        ],
    )
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetrievalConfig(**kwargs)

    def test_query_text_nonempty(self):
        with pytest.raises(ValueError, match="non-empty"):
            Query("")

    def test_snippet_json_round_trip(self):
        s = RetrievedSnippet(line_index=3, text="uint256 x;", score=4.0, matched_fragment="uint")
        assert RetrievedSnippet.from_json(s.to_json()) == s


class TestSlidingWindows:
    def test_window2_step1_includes_tail(self):
        lines = ["l0", "l1", "l2", "l3"]
        cfg = RetrievalConfig(window_lines=2, step_lines=1)
        assert sliding_windows(lines, cfg) == [
            (0, "l0\nl1"),
            (1, "l1\nl2"),
            (2, "l2\nl3"),
            (3, "l3"),
        ]

    def test_window2_step2(self):
        cfg = RetrievalConfig(window_lines=2, step_lines=2)
        assert sliding_windows(["a", "b", "c", "d"], cfg) == [(0, "a\nb"), (2, "c\nd")]

    def test_empty_context(self):
        assert sliding_windows([], CFG) == []

    def test_one_window_per_line_default(self):
        assert sliding_windows(["x", "y"], RetrievalConfig()) == [(0, "x"), (1, "y")]


class TestLCS:
    def test_full_identifier_match(self):
        lines = [
            "function balance() public",
            "uint256 balanceOf;",
            "mapping(address => uint256) balances;",
        ]
        out = lcs_retrieve_multi([Query("balanceOf")], lines, CFG)
        assert [(s.line_index, s.score, s.matched_fragment) for s in out] == [
            (1, 9.0, "balanceOf")
        ]
        assert out[0].text == "uint256 balanceOf;"

    def test_ties_rank_by_line_index(self):
        out = lcs_retrieve_multi([Query("ab")], ["xxab", "abyy"], CFG)
        assert [s.line_index for s in out] == [0, 1]
        assert all(s.score == 2.0 for s in out)

    def test_shorter_fragments_tried_in_order(self):
        out = lcs_retrieve_multi([Query("abcd")], ["xbcdx"], CFG)
        assert out[0].matched_fragment == "bcd"
        assert out[0].score == 3.0

    def test_below_minimum_length_no_match(self):
        assert lcs_retrieve_multi([Query("ab")], ["a b"], CFG) == []

    def test_max_snippets_cap(self):
        lines = [f"ab{i}" for i in range(5)]
        cfg = RetrievalConfig(max_snippets=2)
        out = lcs_retrieve_multi([Query("ab")], lines, cfg)
        assert [s.line_index for s in out] == [0, 1]

    def test_empty_context(self):
        assert lcs_retrieve_multi([Query("abc")], [], CFG) == []

    def test_queries_below_minimum_length_search_nothing(self):
        lines = ["a b", "ab"]
        with mock.patch.object(retrieval, "_JoinedLines", wraps=retrieval._JoinedLines) as joined:
            assert lcs_retrieve_multi([Query("a"), Query("b")], lines, CFG) == []
            assert joined.call_count == 0
            out = lcs_retrieve_multi([Query("a"), Query("ab")], lines, CFG)
        assert [(s.line_index, s.matched_fragment) for s in out] == [(1, "ab")]
        assert joined.call_args.args == (lines, ["ab"])

    def test_multi_merges_best_score_per_line(self):
        lines = ["holder registry", "registry"]
        out = lcs_retrieve_multi([Query("holder"), Query("registry")], lines, CFG)
        by_line = {s.line_index: s for s in out}
        # Line 0 matches both queries; the longer fragment wins.
        assert by_line[0].score == 8.0
        assert by_line[0].matched_fragment == "registry"
        assert by_line[1].score == 8.0

    def test_oracle_equivalence_randomized(self):
        rng = random.Random(20240817)
        alphabet = "abcdef _(){};=+"
        start = time.perf_counter()
        for _ in range(200):
            lines = [
                "".join(rng.choice(alphabet) for _ in range(rng.randrange(5, 41)))
                for _ in range(50)
            ]
            q = "".join(rng.choice(alphabet) for _ in range(rng.randrange(2, 13)))
            cap = rng.randrange(1, 6)
            cfg = RetrievalConfig(max_snippets=cap)
            got = [
                (s.line_index, s.score, s.matched_fragment, s.text)
                for s in lcs_retrieve_multi([Query(q)], lines, cfg)
            ]
            assert got == lcs_oracle(q, lines, cap)
        assert time.perf_counter() - start < 10.0


# Few characters, so that lines and queries share long substrings; "\n", the
# first separator candidates and non-ASCII text included.
LCS_CHARS = st.sampled_from(list("ab_(\n\x00\x01é€ "))
LCS_LINES = st.lists(st.text(LCS_CHARS, max_size=24), max_size=8)


@st.composite
def lcs_queries(draw, lines):
    """Query text up to about 40 characters, often holding a line's slice."""
    text = draw(st.text(LCS_CHARS, max_size=12))
    if lines and draw(st.booleans()):
        source = draw(st.sampled_from(lines))
        i = draw(st.integers(0, len(source)))
        j = draw(st.integers(i, len(source)))
        text += source[i:j] + draw(st.text(LCS_CHARS, max_size=12))
    return Query(text or "a")


@settings(max_examples=400, deadline=None)
@given(data=st.data(), lines=LCS_LINES, cap=st.integers(1, 5))
def test_property_lcs_equals_enumerating_reference(data, lines, cap):
    config = RetrievalConfig(max_snippets=cap)
    query = data.draw(lcs_queries(lines))
    assert lcs_retrieve_multi([query], lines, config) == enumerating_lcs_retrieve(query, lines, config)


# Queries too short to match anything, mixed in among the others.
SHORT_QUERIES = st.builds(Query, st.text(LCS_CHARS, min_size=1, max_size=MIN_LCS_LENGTH - 1))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), lines=LCS_LINES, cap=st.integers(1, 5))
def test_property_lcs_multi_equals_enumerating_reference(data, lines, cap):
    config = RetrievalConfig(max_snippets=cap)
    queries = data.draw(st.lists(st.one_of(SHORT_QUERIES, lcs_queries(lines)), min_size=1, max_size=4))
    assert lcs_retrieve_multi(queries, lines, config) == enumerating_lcs_retrieve_multi(
        queries, lines, config
    )


class TestBM25:
    def test_hand_computed_three_windows(self):
        windows = [(0, "a b"), (1, "a a b"), (2, "c")]
        out = bm25_retrieve(Query("a"), windows, CFG)
        idf = math.log(1.0 + (3 - 2 + 0.5) / (2 + 0.5))  # df(a)=2, N=3
        # avgdl = 2; w0: tf=1, dl=2; w1: tf=2, dl=3; w2 has no query term.
        w0 = idf * 1 * 2.2 / (1 + 1.2 * (0.25 + 0.75 * (2 / 2)))
        w1 = idf * 2 * 2.2 / (2 + 1.2 * (0.25 + 0.75 * (3 / 2)))
        assert [s.line_index for s in out] == [1, 0]
        assert out[0].score == pytest.approx(w1, abs=1e-9)
        assert out[1].score == pytest.approx(w0, abs=1e-9)
        assert w1 == pytest.approx(idf * 4.4 / 3.65, abs=1e-12)

    def test_single_window_positive(self):
        out = bm25_retrieve(Query("transfer"), [(0, "transfer amount")], CFG)
        assert len(out) == 1
        assert out[0].score > 0.0

    def test_no_shared_terms_empty(self):
        assert bm25_retrieve(Query("zzz"), [(0, "a b"), (1, "c")], CFG) == []

    def test_term_in_every_window_still_positive(self):
        # ln(1 + 0.5/(N+0.5)) stays positive even at df == N.
        out = bm25_retrieve(Query("x"), [(0, "x a"), (1, "x b"), (2, "x c")], CFG)
        assert len(out) == 3
        assert all(s.score > 0.0 for s in out)

    def test_empty_windows(self):
        assert bm25_retrieve(Query("a"), [], CFG) == []


class TestTFIDF:
    def test_hand_computed_three_windows(self):
        windows = [(0, "transfer amount"), (1, "approve spender"), (2, "transfer fee")]
        out = tfidf_retrieve(Query("transfer amount"), windows, CFG)
        l15, l3 = math.log(3 / 2), math.log(3)
        expected_w2 = l15 * l15 / (l15 * l15 + l3 * l3)
        assert [s.line_index for s in out] == [0, 2]
        assert out[0].score == pytest.approx(1.0, abs=1e-9)
        assert out[1].score == pytest.approx(expected_w2, abs=1e-9)

    def test_identical_window_scores_one(self):
        out = tfidf_retrieve(Query("a b"), [(0, "a b"), (1, "b c")], CFG)
        assert [(s.line_index,) for s in out] == [(0,)]
        assert out[0].score == pytest.approx(1.0, abs=1e-9)

    def test_zero_idf_query_vector_empty(self):
        # "b" appears in both windows so idf(b) = ln(2/2) = 0.
        assert tfidf_retrieve(Query("b"), [(0, "a b"), (1, "b c")], CFG) == []

    def test_query_term_absent_everywhere_empty(self):
        assert tfidf_retrieve(Query("z"), [(0, "x"), (1, "y")], CFG) == []

    def test_single_window_corpus_idf_is_zero(self):
        assert tfidf_retrieve(Query("a"), [(0, "a")], CFG) == []


class TestJaccard:
    def test_hand_computed(self):
        windows = [(0, "a b"), (1, "a c"), (2, "d")]
        out = jaccard_retrieve(Query("a b"), windows, CFG)
        assert [(s.line_index, s.score) for s in out] == [(0, 1.0), (1, pytest.approx(1 / 3))]

    def test_zero_overlap_excluded(self):
        assert jaccard_retrieve(Query("x"), [(0, "y z")], CFG) == []


class ConstantProvider:
    dimension = 4

    def embed(self, text: str) -> list[float]:
        return [1.0, 0.0, 0.0, 0.0]


class FailingProvider:
    dimension = 4

    def embed(self, text: str) -> list[float]:
        raise OSError("connection refused")


class TableProvider:
    dimension = 2

    def __init__(self, table):
        self.table = table

    def embed(self, text: str) -> list[float]:
        return self.table[text]


class TestDense:
    def test_hash_provider_deterministic(self):
        p = HashEmbeddingProvider()
        assert p.embed("transfer(a, b)") == p.embed("transfer(a, b)")
        assert len(p.embed("anything")) == p.dimension

    def test_constant_vectors_tie_break_by_index(self):
        windows = [(i, f"w{i}") for i in range(4)]
        out = dense_retrieve(Query("q"), windows, ConstantProvider(), RetrievalConfig(max_snippets=3))
        assert [s.line_index for s in out] == [0, 1, 2]
        assert all(s.score == pytest.approx(1.0) for s in out)

    def test_orthogonal_scores_zero_but_ranked(self):
        table = {"q": [1.0, 0.0], "match": [1.0, 0.0], "ortho": [0.0, 1.0]}
        out = dense_retrieve(Query("q"), [(0, "ortho"), (1, "match")], TableProvider(table), CFG)
        assert [(s.line_index, s.score) for s in out] == [(1, pytest.approx(1.0)), (0, 0.0)]

    def test_zero_vector_scores_zero(self):
        table = {"q": [1.0, 0.0], "empty": [0.0, 0.0]}
        out = dense_retrieve(Query("q"), [(0, "empty")], TableProvider(table), CFG)
        assert out[0].score == 0.0

    def test_provider_failure_raises_unavailable(self):
        with pytest.raises(RetrievalUnavailableError, match="embedding provider failed"):
            dense_retrieve(Query("q"), [(0, "w")], FailingProvider(), CFG)

    def test_dispatch_requires_provider(self):
        cfg = RetrievalConfig(method="dense")
        with pytest.raises(RetrievalUnavailableError, match="needs an embedding provider"):
            retrieve(Query("q"), ["w"], cfg)


class TestDispatch:
    @pytest.mark.parametrize("method", ["lcs", "bm25", "tfidf", "jaccard"])
    def test_sparse_methods_route(self, method):
        cfg = RetrievalConfig(method=method, max_snippets=5)
        out = retrieve(Query("transfer"), ["transfer amount", "unrelated"], cfg)
        assert out
        assert out[0].line_index == 0

    def test_dense_routes_with_provider(self):
        cfg = RetrievalConfig(method="dense", max_snippets=2)
        out = retrieve(Query("transfer"), ["transfer", "other"], cfg, provider=HashEmbeddingProvider())
        assert len(out) == 2


class TestHttpProvider:
    """HttpEmbeddingProvider against a loopback server: every failure is a
    RetrievalUnavailableError."""

    def test_dimension_mismatch(self, http_server):
        http_server.replies.append((200, {"vectors": [[1.0, 2.0]]}))
        provider = HttpEmbeddingProvider(http_server.url, dimension=3)
        with pytest.raises(RetrievalUnavailableError, match="dimension"):
            provider.embed("text")

    def test_success_path(self, http_server):
        http_server.replies.append((200, {"vectors": [[0.5, 1]]}))
        provider = HttpEmbeddingProvider(http_server.url, dimension=2)
        assert provider.embed("text") == [0.5, 1.0]
        assert http_server.received[0][1] == {"texts": ["text"]}

    def test_network_error_maps_to_unavailable(self, refused_url):
        provider = HttpEmbeddingProvider(refused_url, dimension=2)
        with pytest.raises(RetrievalUnavailableError, match="refused"):
            provider.embed("text")

    @pytest.mark.parametrize(
        "reply",
        [(404, {}), (500, {}), (200, {"vectors": [["a", "b"]]}), (200, {"vectors": [5]}), (200, {"vectors": [[1, True]]}),
         (200, {"vectors": []}), (200, ["x"]), "reset", "garbled"],
        ids=["404", "500", "str-vector", "int-vector", "bool-element", "no-vector", "list-body", "reset", "garbled"],
    )
    def test_failed_or_malformed_reply_maps_to_unavailable(self, http_server, reply):
        http_server.replies.append(reply)
        provider = HttpEmbeddingProvider(http_server.url, dimension=2)
        with pytest.raises(RetrievalUnavailableError, match="embedding endpoint failed"):
            provider.embed("text")


WORDS = ["alpha", "beta", "gamma", "delta"]
window_text = st.lists(st.sampled_from(WORDS), min_size=1, max_size=4).map(" ".join)


@settings(max_examples=50, deadline=None)
@given(
    texts=st.lists(window_text, min_size=1, max_size=8),
    query_words=st.lists(st.sampled_from(WORDS), min_size=1, max_size=3),
    cap=st.integers(min_value=1, max_value=6),
    method=st.sampled_from(["bm25", "tfidf", "jaccard"]),
)
def test_property_sparse_contract(texts, query_words, cap, method):
    """Every sparse method: capped, sorted, positive scores, stable membership
    when a window sharing no terms with the query is appended."""
    fn = {"bm25": bm25_retrieve, "tfidf": tfidf_retrieve, "jaccard": jaccard_retrieve}[method]
    windows = list(enumerate(texts))
    q = Query(" ".join(query_words))
    cfg = RetrievalConfig(max_snippets=cap)
    out = fn(q, windows, cfg)

    assert len(out) <= cap
    keys = [(-s.score, s.line_index) for s in out]
    assert keys == sorted(keys)
    assert all(s.score > 0.0 for s in out)
    for s in out:
        assert s.text == texts[s.line_index]

    # Adding a query-disjoint window never drops a member. For BM25 and
    # Jaccard membership is exactly invariant; TF-IDF can only gain members,
    # because ln(N/df) idf weights cross zero when a term stops appearing in
    # every window.
    wide = RetrievalConfig(max_snippets=len(texts) + 5)
    base_members = {s.line_index for s in fn(q, windows, wide)}
    extended = windows + [(len(texts), "zq9 qq7")]
    new_members = {s.line_index for s in fn(q, extended, wide)}
    if method == "tfidf":
        assert base_members <= new_members
        q_terms = set(q.text.split())
        saturated = any(all(t in w.split() for w in texts) for t in q_terms)
        if not saturated:
            assert new_members == base_members
    else:
        assert new_members == base_members


def test_tfidf_saturated_term_gains_members_when_corpus_grows():
    """df == N terms have zero idf; a disjoint window revives them."""
    windows = [(0, "a b"), (1, "b c")]
    assert tfidf_retrieve(Query("b"), windows, CFG) == []
    grown = windows + [(2, "zq9")]
    out = tfidf_retrieve(Query("b"), grown, CFG)
    assert {s.line_index for s in out} == {0, 1}
