import io
import json
import threading
import urllib.request
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import bruteforce_cider_d, dict_cider_d, ngram_counts
from polycap.cli import main
from polycap.errors import ValidationError
from polycap.evaluation import (
    EmbedderError,
    HttpEmbedder,
    _normalize_rows,
    cider_d,
    cross_language_similarity,
    evaluate_captions,
    sbert_sim,
)
from polycap.text import Language, tokenize


class StubEmbedder:
    """Table-driven embedder: exact, deterministic, no service."""

    def __init__(self, table):
        self._table = {text: np.asarray(v, dtype=np.float64) for text, v in table.items()}

    def embed_batch(self, texts, language):
        rows = []
        for text in texts:
            if text not in self._table:
                raise EmbedderError(f"stub embedder has no vector for {text!r}")
            rows.append(self._table[text])
        return _normalize_rows(np.stack(rows), texts)


class TestNgramCounts:
    def test_counts_all_orders(self):
        counts = ngram_counts(["a", "b", "a"])
        assert counts[("a",)] == 2
        assert counts[("a", "b")] == 1
        assert counts[("b", "a")] == 1
        assert counts[("a", "b", "a")] == 1
        assert len([g for g in counts if len(g) == 4]) == 0

    def test_empty(self):
        assert ngram_counts([]) == {}


def assert_same_as_dict_scorer(candidates, references):
    """cider_d reproduces the per-caption dictionary scorer bit for bit."""
    got, want = cider_d(candidates, references), dict_cider_d(candidates, references)
    assert [(k, v.hex()) for k, v in got.per_item.items()] == [
        (k, v.hex()) for k, v in want.per_item.items()
    ]
    assert got.corpus_score.hex() == want.corpus_score.hex()
    return got


def random_corpus(rng, words, n_items, n_refs, lengths):
    make = lambda: " ".join(rng.choice(words, size=int(rng.integers(*lengths))))
    candidates = {f"it{i}": make() for i in range(n_items)}
    references = {item: [make() for _ in range(int(rng.integers(*n_refs)))] for item in candidates}
    return candidates, references


class TestCiderArrayScorer:
    def test_bit_identical_to_dict_scorer_on_random_corpora(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            words = [f"w{i}" for i in range(int(rng.integers(1, 40)))]
            candidates, references = random_corpus(
                rng, words, int(rng.integers(2, 13)), (1, 11), (int(rng.integers(0, 2)), 16)
            )
            assert_same_as_dict_scorer(candidates, references)

    def test_bit_identical_on_zipf_corpus(self):
        rng = np.random.default_rng(5)
        ranks = np.arange(1, 2001)
        p = (1.0 / ranks) / (1.0 / ranks).sum()
        words = np.array([f"w{i}" for i in ranks])
        make = lambda: " ".join(rng.choice(words, size=int(rng.integers(6, 15)), p=p))
        candidates = {f"clip{i:03d}": make() for i in range(200)}
        references = {item: [make() for _ in range(5)] for item in candidates}
        assert_same_as_dict_scorer(candidates, references)

    def test_every_candidate_empty(self):
        candidates = {"a": "", "b": "...", "c": ""}
        references = {"a": ["dog barks"], "b": ["rain falls", "rain"], "c": ["a car"]}
        result = assert_same_as_dict_scorer(candidates, references)
        assert result.per_item == {"a": 0.0, "b": 0.0, "c": 0.0}
        assert result.corpus_score == 0.0
        # no caption in the corpus has a single token
        result = assert_same_as_dict_scorer({"a": "", "b": "!"}, {"a": [""], "b": ["", "?"]})
        assert result.corpus_score == 0.0

    def test_every_reference_empty(self):
        candidates = {"a": "dog barks", "b": "rain falls"}
        references = {"a": [""], "b": ["", "!"]}
        result = assert_same_as_dict_scorer(candidates, references)
        assert result.corpus_score == 0.0

    def test_one_token_captions(self):
        candidates = {"a": "dog", "b": "rain", "c": "car"}
        references = {"a": ["dog"], "b": ["rain", "wind"], "c": ["dog"]}
        assert_same_as_dict_scorer(candidates, references)

    def test_repeated_words_and_duplicate_references(self):
        candidates = {"a": "dog dog dog barks dog", "b": "rain rain", "c": "the the the"}
        references = {
            "a": ["dog barks dog", "dog barks dog", "dog dog"],
            "b": ["rain rain rain", "rain rain rain"],
            "c": ["the the", "the cat the cat"],
        }
        assert_same_as_dict_scorer(candidates, references)

    def test_non_ascii_words(self):
        candidates = {"fr": "la pluie tombe très fort", "es": "el pájaro canta aquí", "de": "größer hund"}
        references = {
            "fr": ["la pluie tombe très fort", "il pleut très fort"],
            "es": ["un pájaro canta", "el pájaro canta aquí y allá"],
            "de": ["ein größer hund bellt", "straße"],
        }
        assert_same_as_dict_scorer(candidates, references)

    def test_matches_bruteforce_oracle_on_a_30_item_corpus(self):
        rng = np.random.default_rng(30)
        candidates, references = random_corpus(rng, [f"w{i}" for i in range(25)], 30, (1, 6), (1, 14))
        result = cider_d(candidates, references)
        oracle = bruteforce_cider_d(
            {i: tokenize(c) for i, c in candidates.items()},
            {i: [tokenize(r) for r in refs] for i, refs in references.items()},
        )
        for item in candidates:
            assert result.per_item[item] == pytest.approx(oracle[item], abs=1e-9)


class TestCiderD:
    def test_identity_two_item_corpus_is_exactly_ten(self):
        candidates = {"i1": "a b c d", "i2": "e f g h"}
        references = {"i1": ["a b c d"], "i2": ["e f g h"]}
        result = cider_d(candidates, references)
        assert result.per_item["i1"] == 10.0
        assert result.per_item["i2"] == 10.0
        assert result.corpus_score == 10.0

    def test_disjoint_candidate_scores_zero(self):
        candidates = {"i1": "x y z w", "i2": "a b c d"}
        references = {"i1": ["p q r s"], "i2": ["a b c d"]}
        result = cider_d(candidates, references)
        assert result.per_item["i1"] == 0.0

    def test_matches_bruteforce_oracle_on_random_corpora(self):
        rng = np.random.default_rng(99)
        words = [f"w{i}" for i in range(14)]
        for trial in range(25):
            n_items = int(rng.integers(2, 11))
            candidates, references = {}, {}
            for i in range(n_items):
                item = f"it{i}"
                make = lambda: " ".join(rng.choice(words, size=rng.integers(1, 13)))
                candidates[item] = make()
                references[item] = [make() for _ in range(int(rng.integers(1, 6)))]
            result = cider_d(candidates, references)
            oracle = bruteforce_cider_d(
                {i: tokenize(c) for i, c in candidates.items()},
                {i: [tokenize(r) for r in refs] for i, refs in references.items()},
            )
            for item in candidates:
                assert result.per_item[item] == pytest.approx(oracle[item], abs=1e-6), trial

    def test_order_invariance(self):
        candidates = {"a": "dog barks loud", "b": "rain falls down", "c": "dog runs"}
        references = {
            "a": ["dog barks very loud", "a dog barks"],
            "b": ["rain falls", "rain comes down"],
            "c": ["the dog runs away"],
        }
        forward = cider_d(candidates, references)
        reordered = cider_d(
            {k: candidates[k] for k in reversed(list(candidates))},
            {k: list(reversed(references[k])) for k in references},
        )
        assert forward.corpus_score == pytest.approx(reordered.corpus_score, abs=1e-12)
        for item in candidates:
            assert forward.per_item[item] == pytest.approx(reordered.per_item[item], abs=1e-12)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.data())
    def test_ordering_invariance_property(self, data):
        words = ["a", "b", "c", "d", "e"]
        caption = st.lists(st.sampled_from(words), min_size=1, max_size=6).map(" ".join)
        n_items = data.draw(st.integers(2, 5))
        candidates = {f"i{k}": data.draw(caption) for k in range(n_items)}
        references = {
            f"i{k}": data.draw(st.lists(caption, min_size=1, max_size=3))
            for k in range(n_items)
        }
        order = data.draw(st.permutations(list(candidates)))
        base = cider_d(candidates, references)
        shuffled = cider_d(
            {k: candidates[k] for k in order}, {k: references[k] for k in order}
        )
        for item in candidates:
            assert shuffled.per_item[item] == pytest.approx(base.per_item[item], abs=1e-12)

    def test_duplicating_items_keeps_corpus_score(self):
        candidates = {"a": "dog barks", "b": "rain falls"}
        references = {"a": ["dog barks loud"], "b": ["rain falls down"]}
        once = cider_d(candidates, references)
        doubled = cider_d(
            candidates | {f"{k}+": v for k, v in candidates.items()},
            references | {f"{k}+": v for k, v in references.items()},
        )
        assert doubled.corpus_score == pytest.approx(once.corpus_score, abs=1e-12)

    def test_empty_corpus_errors(self):
        with pytest.raises(ValidationError):
            cider_d({}, {})

    def test_single_item_errors(self):
        with pytest.raises(ValidationError):
            cider_d({"a": "x"}, {"a": ["x"]})

    def test_candidate_without_references_errors(self):
        with pytest.raises(ValidationError) as err:
            cider_d({"a": "x y", "b": "z w"}, {"a": ["x y"]})
        assert err.value.items == ["b"]

    def test_empty_reference_list_errors(self):
        with pytest.raises(ValidationError, match="^item 'b' has an empty reference list$"):
            cider_d({"a": "x y", "b": "z w"}, {"a": ["x y"], "b": []})

    def test_short_identity_caption_misses_high_orders(self):
        # 2-token captions have no 3/4-grams: those orders contribute 0
        result = cider_d(
            {"a": "x y", "b": "p q"},
            {"a": ["x y"], "b": ["p q"]},
        )
        assert result.per_item["a"] == pytest.approx(5.0)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


class TestSbertSim:
    def test_identical_strings_score_100(self):
        stub = StubEmbedder({"a dog": [1.0, 0.0], "other": [0.0, 1.0]})
        result = sbert_sim({"i": "a dog"}, {"i": ["a dog"]}, stub, Language.EN)
        assert result == pytest.approx(100.0)

    def test_orthogonal_vectors_score_0(self):
        stub = StubEmbedder({"a": [1.0, 0.0], "b": [0.0, 1.0]})
        result = sbert_sim({"i": "a"}, {"i": ["b"]}, stub, Language.EN)
        assert result == pytest.approx(0.0)

    def test_hand_dot_product(self):
        # (1,0) . (0.6,0.8) = 0.6 -> 60.0
        stub = StubEmbedder({"cand": [1.0, 0.0], "ref": [0.6, 0.8]})
        result = sbert_sim({"i": "cand"}, {"i": ["ref"]}, stub, Language.EN)
        assert result == pytest.approx(60.0)

    def test_mean_vs_max_aggregation(self):
        stub = StubEmbedder({"c": [1.0, 0.0], "r1": [1.0, 0.0], "r2": [0.0, 1.0]})
        refs = {"i": ["r1", "r2"]}
        mean = sbert_sim({"i": "c"}, refs, stub, Language.EN, aggregate="mean")
        best = sbert_sim({"i": "c"}, refs, stub, Language.EN, aggregate="max")
        assert mean == pytest.approx(50.0)
        assert best == pytest.approx(100.0)

    def test_unknown_text_raises_embedder_error(self):
        stub = StubEmbedder({"known": [1.0, 0.0]})
        with pytest.raises(EmbedderError) as err:
            sbert_sim({"item7": "unknown"}, {"item7": ["known"]}, stub, Language.EN)
        assert err.value.item_id == "item7"

    def test_zero_norm_vector_is_embedder_error_naming_its_item(self):
        stub = StubEmbedder({"zero": [0.0, 0.0], "ref": [1.0, 0.0]})
        with pytest.raises(EmbedderError) as err:
            sbert_sim({"i7": "zero"}, {"i7": ["ref"]}, stub, Language.EN)
        assert (err.value.message, err.value.item_id) == ("zero-norm embedding for text 'zero'", "i7")

    @pytest.mark.parametrize(
        "candidates, references, aggregate, message, items",
        [
            ({"i": "a"}, {"i": ["a"]}, "median", "aggregate must be 'mean' or 'max', got 'median'", []),
            ({}, {}, "mean", "empty corpus: no candidates to score", []),
            ({"i": "a", "j": "a", "k": "a"}, {"i": ["a"]}, "mean", "candidates without references", ["j", "k"]),
        ],
        ids=["aggregate", "empty_corpus", "missing_reference"],
    )
    def test_refused_input(self, candidates, references, aggregate, message, items):
        with pytest.raises(ValidationError) as err:
            sbert_sim(candidates, references, StubEmbedder({"a": [1.0, 0.0]}), Language.EN, aggregate)
        assert (err.value.message, err.value.items) == (message, items)

    def test_deterministic(self):
        stub = StubEmbedder({"a": [0.3, 0.7], "b": [0.9, 0.1]})
        runs = [
            sbert_sim({"i": "a"}, {"i": ["b"]}, stub, Language.EN) for _ in range(3)
        ]
        assert len(set(runs)) == 1


class TestCrossLanguage:
    def test_identical_strings_everywhere(self):
        stub = StubEmbedder({"same text": [0.5, 0.5]})
        outputs = {
            Language.EN: {"a": "same text", "b": "same text"},
            Language.FR: {"a": "same text", "b": "same text"},
        }
        result = cross_language_similarity(outputs, Language.EN, stub)
        assert result[Language.FR] == pytest.approx(100.0)

    def test_base_against_itself_is_100(self):
        stub = StubEmbedder({"x": [1.0, 0.0], "y": [0.0, 1.0]})
        outputs = {Language.EN: {"a": "x", "b": "y"}}
        result = cross_language_similarity(outputs, Language.EN, stub)
        assert result[Language.EN] == pytest.approx(100.0)

    def test_hand_built_three_item_average(self):
        # frozen by hand: cosines 1.0, 0.6, 0.0 -> mean 53.333...%
        stub = StubEmbedder(
            {
                "e1": [1.0, 0.0], "e2": [1.0, 0.0], "e3": [1.0, 0.0],
                "f1": [1.0, 0.0], "f2": [0.6, 0.8], "f3": [0.0, 1.0],
            }
        )
        outputs = {
            Language.EN: {"a": "e1", "b": "e2", "c": "e3"},
            Language.FR: {"a": "f1", "b": "f2", "c": "f3"},
        }
        result = cross_language_similarity(outputs, Language.EN, stub)
        assert result[Language.FR] == pytest.approx(53.333333333333336)

    def test_embeds_each_language_once(self):
        class CountingStub(StubEmbedder):
            def embed_batch(self, texts, language):
                calls.append(language)
                return super().embed_batch(texts, language)

        calls = []
        stub = CountingStub({"e1": [1.0, 0.0], "e2": [0.0, 1.0], "f1": [0.6, 0.8], "d1": [0.8, 0.6]})
        outputs = {
            Language.EN: {"a": "e1", "b": "e2"},
            Language.FR: {"a": "f1", "b": "e1"},
            Language.DE: {"a": "d1", "b": "e2"},
        }
        result = cross_language_similarity(outputs, Language.EN, stub)
        assert sorted(calls) == sorted(outputs)  # the base language too, once
        assert result == pytest.approx({Language.EN: 100.0, Language.FR: 30.0, Language.DE: 90.0})

    def test_id_set_mismatch_errors(self):
        stub = StubEmbedder({"x": [1.0, 0.0]})
        outputs = {
            Language.EN: {"a": "x"},
            Language.FR: {"b": "x"},
        }
        with pytest.raises(ValidationError) as err:
            cross_language_similarity(outputs, Language.EN, stub)
        assert set(err.value.items) == {"a", "b"}

    def test_no_items_errors(self):
        with pytest.raises(ValidationError, match="^no items to compare$"):
            cross_language_similarity({Language.EN: {}, Language.FR: {}}, Language.EN, StubEmbedder({}))


class _EmbeddingHandler(BaseHTTPRequestHandler):
    table = {
        "rain falls": [1.0, 0.0, 0.0],
        "la pluie tombe": [0.6, 0.8, 0.0],
        "der regen fällt": [0.0, 1.0, 0.0],
    }
    requests_seen: list[dict] = []

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).requests_seen.append(body)
        vectors = []
        for text in body["texts"]:
            if text not in self.table:
                self.send_response(500)
                self.end_headers()
                return
            vectors.append(self.table[text])
        payload = json.dumps({"vectors": vectors}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


@pytest.fixture
def embedding_server():
    server = HTTPServer(("127.0.0.1", 0), _EmbeddingHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _EmbeddingHandler.requests_seen = []
    yield f"http://127.0.0.1:{server.server_port}/embed"
    server.shutdown()


class TestHttpEmbedder:
    def test_protocol_roundtrip(self, embedding_server):
        client = HttpEmbedder(embedding_server)
        vectors = client.embed_batch(["rain falls", "la pluie tombe"], Language.EN)
        assert vectors.shape == (2, 3)
        assert np.allclose(np.linalg.norm(vectors, axis=1), 1.0, atol=1e-9)
        assert np.allclose(vectors[0] @ vectors[1], 0.6)
        sent = _EmbeddingHandler.requests_seen[-1]
        assert sent == {"texts": ["rain falls", "la pluie tombe"], "language": "en"}

    def test_one_request_per_batch(self, embedding_server):
        client = HttpEmbedder(embedding_server)
        result = sbert_sim(
            {"x": "rain falls"},
            {"x": ["la pluie tombe", "der regen fällt"]},
            client,
            Language.FR,
        )
        assert len(_EmbeddingHandler.requests_seen) == 1
        assert result == pytest.approx((0.6 + 0.0) / 2 * 100)

    def test_server_failure_surfaces_item(self, embedding_server):
        client = HttpEmbedder(embedding_server)
        with pytest.raises(EmbedderError) as err:
            sbert_sim({"item3": "not in table"}, {"item3": ["rain falls"]}, client, Language.EN)
        assert err.value.item_id == "item3"

    def test_unreachable_endpoint(self):
        client = HttpEmbedder("http://127.0.0.1:9/nope", timeout=0.2)
        with pytest.raises(EmbedderError):
            client.embed_batch(["x"], Language.EN)

    @pytest.mark.parametrize("scorer", ["sbert_sim", "cross_language_similarity"])
    def test_unreachable_endpoint_blames_no_item(self, scorer):
        # a refused connection fails every text alike: one request, no item
        calls = []

        class CountingClient(HttpEmbedder):
            def embed_batch(self, texts, language):
                calls.append(list(texts))
                return super().embed_batch(texts, language)

        client = CountingClient("http://127.0.0.1:9/nope", timeout=0.2)
        with pytest.raises(EmbedderError) as err:
            if scorer == "sbert_sim":
                sbert_sim({"item0": "rain falls"}, {"item0": ["la pluie tombe"]}, client, Language.EN)
            else:
                outputs = {Language.EN: {"item0": "rain falls"}, Language.FR: {"item0": "la pluie tombe"}}
                cross_language_similarity(outputs, Language.EN, client)
        assert err.value.item_id is None
        assert "items" not in err.value.payload()
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "body",
        [
            b"[[1.0, 0.0], [0.0, 1.0]]",  # not an object
            b'{"vectors": [[1.0, 0.0], [1.0]]}',  # ragged
            b'{"vectors": [[1.0, "a"], [0.0, 1.0]]}',  # non-numeric
            b'{"vectors": [[1.0, null], [0.0, 1.0]]}',
            b'{"vectors": [1.0, 0.0]}',  # numbers, not rows
            b'{"vectors": [[NaN, 1.0], [0.0, 1.0]]}',
            b'{"vectors": [[Infinity, 1.0], [0.0, 1.0]]}',
            b"\xff\xfe",  # not UTF-8
            # past Python's integer digit limit: a plain ValueError, not a JSONDecodeError
            pytest.param(b'{"vectors": [[1' + b"0" * 5000 + b", 1.0], [0.0, 1.0]]}", id="integer_past_digit_limit"),
        ],
    )
    def test_malformed_response_is_embedder_error(self, monkeypatch, body):
        monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout: io.BytesIO(body))
        with pytest.raises(EmbedderError):
            HttpEmbedder("http://embedder.invalid/embed").embed_batch(["x", "y"], Language.EN)

    def test_repeated_key_in_answer_is_embedder_error(self, monkeypatch):
        # plain json.loads silently kept the second `vectors` list
        body = b'{"vectors": [[1.0, 0.0], [0.0, 1.0]], "vectors": [[0.0, 1.0], [1.0, 0.0]]}'
        monkeypatch.setattr(urllib.request, "urlopen", lambda request, timeout: io.BytesIO(body))
        with pytest.raises(EmbedderError) as info:
            HttpEmbedder("http://embedder.invalid/embed").embed_batch(["x", "y"], Language.EN)
        assert info.value.message == "embedding service returned repeated key 'vectors'"


class _MalformedHandler(BaseHTTPRequestHandler):
    """Reads each request, then answers with raw bytes that are no valid
    HTTP response."""

    answer = b""
    requests_seen: list[dict] = []

    def do_POST(self):
        type(self).requests_seen.append(json.loads(self.rfile.read(int(self.headers["Content-Length"]))))
        self.wfile.write(self.answer)

    def log_message(self, *args):
        pass


MALFORMED_ANSWERS = {
    "bad_status_line": b"garbage\r\n\r\n",
    "short_body": b"HTTP/1.1 200 OK\r\nContent-Length: 100\r\n\r\n{\"vec",
}


@pytest.fixture(params=sorted(MALFORMED_ANSWERS))
def malformed_server(request):
    """The URL of a server giving one malformed answer, and the requests it saw."""
    handler = type("Handler", (_MalformedHandler,), {"answer": MALFORMED_ANSWERS[request.param], "requests_seen": []})
    server = HTTPServer(("127.0.0.1", 0), handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_port}/embed", handler.requests_seen
    server.shutdown()


class TestMalformedHttpAnswer:
    """An answer that is no HTTP response fails every text alike: an
    EmbedderError after one request, with no item and no per-text retry."""

    @pytest.mark.parametrize("scorer", ["sbert_sim", "cross_language_similarity"])
    def test_is_embedder_error_with_no_item(self, scorer, malformed_server):
        url, requests_seen = malformed_server
        client = HttpEmbedder(url, timeout=5.0)
        with pytest.raises(EmbedderError) as err:
            if scorer == "sbert_sim":
                sbert_sim({"item0": "rain falls"}, {"item0": ["la pluie tombe"]}, client, Language.EN)
            else:
                outputs = {Language.EN: {"item0": "rain falls"}, Language.FR: {"item0": "la pluie tombe"}}
                cross_language_similarity(outputs, Language.EN, client)
        assert "items" not in err.value.payload()
        assert len(requests_seen) == 1

    def test_eval_exits_3(self, malformed_server, tmp_path, capsys):
        url, requests_seen = malformed_server
        manifest, captions = tmp_path / "manifest.jsonl", tmp_path / "captions.jsonl"
        ids = ("a", "b")
        manifest.write_text(
            "".join(json.dumps({"audio_id": i, "split": "test", "captions": {"en": ["rain falls"]}}) + "\n" for i in ids),
            encoding="utf-8",
        )
        captions.write_text(
            "".join(json.dumps({"audio_id": i, "language": "en", "caption": "rain falls"}) + "\n" for i in ids),
            encoding="utf-8",
        )
        argv = ["eval", "--captions", str(captions), "--manifest", str(manifest), "--sbert-endpoint", url]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 3
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "EmbedderError"
        assert "items" not in payload
        assert len(requests_seen) == 1


class TestEvaluateCaptions:
    def test_report_shape_and_values(self):
        stub = StubEmbedder({"a b c d": [1.0, 0.0], "e f g h": [0.0, 1.0]})
        candidates = {Language.EN: {"i1": "a b c d", "i2": "e f g h"}}
        references = {Language.EN: {"i1": ["a b c d"], "i2": ["e f g h"]}}
        report = evaluate_captions(candidates, references, provider=stub, config_echo={"k": 1})
        scores = report["scores"]["en"]
        assert scores["cider_d_raw"] == 10.0
        assert scores["cider_d_pct"] == 1000.0
        assert scores["sbert_sim_pct"] == pytest.approx(100.0)
        assert scores["n_items"] == 2
        assert report["config"] == {"k": 1}

    def test_without_provider(self):
        candidates = {Language.EN: {"i1": "a b c d", "i2": "e f g h"}}
        references = {Language.EN: {"i1": ["a b c d"], "i2": ["e f g h"]}}
        report = evaluate_captions(candidates, references)
        assert report["scores"]["en"]["sbert_sim_pct"] is None

    def test_missing_reference_language(self):
        with pytest.raises(ValidationError):
            evaluate_captions({Language.FR: {"a": "x"}}, {})
