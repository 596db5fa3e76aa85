"""tf-idf model tests: fitting, weight arithmetic, persistence."""

import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from conftest import make_sentence, random_sentence
from dafa.conllu import parse_conllu, read_pairs
from dafa.tfidf import TfIdfModel

SAMPLE = Path(__file__).resolve().parent.parent / "sample"


def chain(forms):
    """Left-to-right chain sentence over the given forms."""
    specs = [(form, i, "dep" if i else "root") for i, form in enumerate(forms)]
    return make_sentence(specs)


class TestFit:
    def test_single_sentence(self):
        model = TfIdfModel.fit([chain(["a", "b"])])
        assert model.doc_count == 1
        assert model.df == {"a": 1, "b": 1}

    def test_document_frequency_counts_sentences(self):
        corpus = [chain(["a", "b"]), chain(["a"])]
        model = TfIdfModel.fit(corpus)
        assert model.df["a"] == 2
        assert model.df["b"] == 1

    def test_repeats_within_sentence_count_once(self):
        model = TfIdfModel.fit([chain(["a", "a", "a"])])
        assert model.df == {"a": 1}

    def test_forms_lowercased(self):
        model = TfIdfModel.fit([chain(["Apple"]), chain(["apple"])])
        assert model.df == {"apple": 2}

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            TfIdfModel.fit([])

    def test_random_corpus_matches_brute_force_recount(self):
        rng = np.random.default_rng(3)
        vocab = ("v0", "v1", "v2", "v3", "v4", "v5")
        corpus = [random_sentence(rng, int(rng.integers(1, 9)), vocab) for _ in range(100)]
        model = TfIdfModel.fit(corpus)
        assert model.doc_count == 100
        for form in vocab:
            expected = sum(
                1 for s in corpus if form in {f.lower() for f in s.forms()}
            )
            assert model.df.get(form, 0) == expected
            assert 0 <= model.df.get(form, 0) <= 100


class TestWeights:
    def test_idf_floor_when_form_everywhere(self):
        # one occurrence in a length-4 sentence, df == N: weight is tf alone
        corpus = [chain(["a", "b", "c", "d"]), chain(["a"])]
        model = TfIdfModel.fit(corpus)
        w = model.weights(corpus[0])
        assert w[0] == pytest.approx(0.25, abs=1e-12)

    def test_unseen_form_smoothed(self):
        model = TfIdfModel.fit([chain(["known"])])
        w = model.weights(chain(["unknown"]))
        assert w[0] == pytest.approx(1.0 + math.log(2.0), abs=1e-12)

    def test_deterministic(self):
        corpus = [chain(["x", "y"]), chain(["y", "z"])]
        model = TfIdfModel.fit(corpus)
        first = model.weights(corpus[0])
        second = model.weights(corpus[0])
        assert np.array_equal(first, second)

    def test_counts_use_term_frequency(self):
        model = TfIdfModel.fit([chain(["a", "a", "b"])])
        w = model.weights(chain(["a", "a", "b"]))
        # "a" appears twice in a length-3 sentence, idf at floor 1.0
        assert w[0] == pytest.approx(2 / 3, abs=1e-12)
        assert w[2] == pytest.approx(1 / 3, abs=1e-12)

    def test_nonnegative_and_finite(self):
        rng = np.random.default_rng(5)
        vocab = ("p", "q", "r", "s")
        corpus = [random_sentence(rng, int(rng.integers(1, 7)), vocab) for _ in range(20)]
        model = TfIdfModel.fit(corpus)
        for s in corpus:
            w = model.weights(s)
            assert np.all(w >= 0)
            assert np.all(np.isfinite(w))

    def test_bits_of_the_per_token_formula(self):
        # each distinct form's weight is computed once; every token gets the formula's float
        def per_token(model, sentence):
            forms = [form.lower() for form in sentence.forms()]
            counts = Counter(forms)
            return np.array([counts[f] / sentence.n * model.idf(f) for f in forms])
        corpus = parse_conllu((SAMPLE / "corpus.conllu").read_text(encoding="utf-8"))
        pairs = read_pairs((SAMPLE / "pairs.jsonl").read_text(encoding="utf-8"))
        mixed = chain(["The", "cat", "THE", "Cat", "the", "dog", "cAt", "Ünd", "ünd"])
        sentences = [*corpus, *(s for pair in pairs for s in (pair.a, pair.b)), mixed]
        for model in (TfIdfModel.fit(corpus), TfIdfModel.fit([mixed, chain(["the"])])):
            for s in sentences:
                assert model.weights(s).tobytes() == per_token(model, s).tobytes(), s.forms()

    @given(
        df_small=st.integers(min_value=0, max_value=50),
        df_large=st.integers(min_value=0, max_value=50),
    )
    def test_monotone_in_document_frequency(self, df_small, df_large):
        """For fixed tf, a more common form never gets a larger weight."""
        df_small, df_large = sorted((df_small, df_large))
        df = {}
        if df_small:
            df["rare"] = df_small
        if df_large:
            df["common"] = df_large
        model = TfIdfModel(doc_count=50, df=df)
        assert model.idf("rare") >= model.idf("common")


class TestSerialization:
    def test_empty_vocabulary_roundtrip(self):
        model = TfIdfModel(doc_count=1, df={})
        assert TfIdfModel.from_json(model.to_json()) == model

    def test_fitted_roundtrip(self):
        model = TfIdfModel.fit([chain(["a", "b"]), chain(["b"]), chain(["c", "b"])])
        assert TfIdfModel.from_json(model.to_json()) == model

    def test_truncated_json(self):
        text = TfIdfModel(doc_count=2, df={"a": 1}).to_json()[:-4]
        with pytest.raises(json.JSONDecodeError):
            TfIdfModel.from_json(text)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            TfIdfModel.from_json('{"doc_count": 2, "df": {"a": -1}}')

    def test_df_above_doc_count_rejected(self):
        with pytest.raises(ValueError):
            TfIdfModel.from_json('{"doc_count": 2, "df": {"a": 3}}')

    @pytest.mark.parametrize("text", ['{"doc_count": true, "df": {}}',
                                      '{"doc_count": 2, "df": {"a": true}}'],
                             ids=["doc_count", "df"])
    def test_boolean_counts_rejected(self, text):
        with pytest.raises(ValueError):
            TfIdfModel.from_json(text)

    def test_doc_count_no_float_holds_rejected(self):
        # idf divides (1 + doc_count) as a float, which a 401-digit integer overflows
        with pytest.raises(ValueError, match="doc_count"):
            TfIdfModel.from_json(json.dumps({"doc_count": 10 ** 400, "df": {"a": 1}}))
        assert TfIdfModel(doc_count=10 ** 308, df={"a": 1}).idf("a") > 700

    @pytest.mark.parametrize("df", [{"Apple": 1}, {"Apple": 2, "apple": 1}])
    def test_key_idf_could_never_match_rejected(self, df):
        # idf() lowercases the form before the lookup, so "Apple" would be a dead count
        with pytest.raises(ValueError, match="'Apple' is not a lowercase string"):
            TfIdfModel.from_json(json.dumps({"doc_count": 4, "df": df}))

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            TfIdfModel.from_json("[1, 2]")
