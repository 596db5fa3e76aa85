"""Sentence-level tf-idf statistics for weighting dependency branches."""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .conllu import DepSentence


@dataclass(frozen=True)
class TfIdfModel:
    """Document frequencies over a fitting corpus, one sentence per document.

    Weights use raw-count term frequency normalized by sentence length and
    an add-one smoothed idf, ln((1 + N) / (1 + df)) + 1, which stays
    strictly positive and handles unseen forms (df = 0).
    """

    doc_count: int
    df: Mapping[str, int]

    def __post_init__(self):
        # type() rather than isinstance(): a JSON true is a bool, and bool subclasses int
        if type(self.doc_count) is not int or self.doc_count < 1:
            raise ValueError(f"doc_count must be an integer >= 1, got {self.doc_count!r}")
        for form, count in self.df.items():
            if type(count) is not int or not 1 <= count <= self.doc_count:
                raise ValueError(f"df[{form!r}] = {count!r} outside [1, {self.doc_count}]")

    @classmethod
    def fit(cls, corpus: Sequence[DepSentence]) -> "TfIdfModel":
        """Count, for each lowercased form, the number of sentences containing it."""
        if not corpus:
            raise ValueError("cannot fit tf-idf on an empty corpus")
        df: Counter[str] = Counter()
        for sentence in corpus:
            df.update({form.lower() for form in sentence.forms()})
        return cls(doc_count=len(corpus), df=dict(df))

    def idf(self, form: str) -> float:
        return math.log((1 + self.doc_count) / (1 + self.df.get(form.lower(), 0))) + 1.0

    def weights(self, sentence: DepSentence) -> np.ndarray:
        """Per-token tf-idf weights, aligned with token order (length n)."""
        forms = [form.lower() for form in sentence.forms()]
        counts = Counter(forms)
        n = sentence.n
        return np.array([counts[form] / n * self.idf(form) for form in forms], dtype=np.float64)

    def to_json(self) -> str:
        return json.dumps(
            {"doc_count": self.doc_count, "df": dict(sorted(self.df.items()))},
            sort_keys=True,
            allow_nan=False,
        )

    @classmethod
    def from_json(cls, text: str) -> "TfIdfModel":
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError("tf-idf model JSON must be an object")
        df = data.get("df")
        if not isinstance(df, dict):
            raise ValueError("tf-idf model JSON needs an object 'df'")
        return cls(doc_count=data.get("doc_count"), df=df)
