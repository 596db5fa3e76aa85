"""CoNLL-U ingestion: validated dependency trees."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

ROOT_FORM = "<ROOT>"

_RANGE_ID = re.compile(r"\d+-\d+")
_EMPTY_ID = re.compile(r"\d+\.\d+")


class ConlluError(ValueError):
    """Malformed CoNLL-U input or invalid dependency structure."""

    def __init__(self, message: str, sentence: int | None = None, line: int | None = None):
        parts = []
        if sentence is not None:
            parts.append(f"sentence {sentence}")
        if line is not None:
            parts.append(f"line {line}")
        prefix = ", ".join(parts)
        super().__init__(f"{prefix}: {message}" if prefix else message)
        self.sentence = sentence
        self.line = line


@dataclass(frozen=True)
class Token:
    """One syntactic token: surface form plus its head link and relation label."""

    index: int
    form: str
    head: int
    deprel: str

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"token index must be >= 1, got {self.index}")
        if self.head < 0:
            raise ValueError(f"token {self.index} has negative head {self.head}")
        if self.head == self.index:
            raise ValueError(f"token {self.index} is its own head")
        if not self.form:
            raise ValueError(f"token {self.index} has empty form")
        if not self.deprel:
            raise ValueError(f"token {self.index} has empty deprel")


@dataclass(frozen=True)
class DepSentence:
    """A dependency-parsed sentence forming a single rooted tree.

    Immutable after construction; all derived views are pure functions of
    the token tuple, so shared instances are safe to read concurrently.
    """

    tokens: tuple[Token, ...]

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        n = len(self.tokens)
        if n == 0:
            raise ValueError("sentence has no tokens")
        for pos, tok in enumerate(self.tokens, start=1):
            if tok.index != pos:
                raise ValueError(
                    f"token indices must be contiguous 1..{n}, found {tok.index} at position {pos}"
                )
            if tok.head > n:
                raise ValueError(f"token {tok.index} has head {tok.head} outside [0, {n}]")
        roots = [tok.index for tok in self.tokens if tok.head == 0]
        if len(roots) == 0:
            raise ValueError("no root token (head 0)")
        if len(roots) > 1:
            raise ValueError(f"multiple root tokens: {roots}")
        # a token the walk from the root never reaches is on or under a cycle
        reached = _deepest_first(_children([tok.head - 1 for tok in self.tokens]), roots[0] - 1)
        if len(reached) < n:
            unreached = set(range(n)).difference(reached)
            raise ValueError(f"cycle in head graph involving token {min(unreached) + 1}")

    @property
    def n(self) -> int:
        return len(self.tokens)

    def forms(self) -> list[str]:
        return [tok.form for tok in self.tokens]


def _children(parent: list[int]) -> list[list[int]]:
    kids: list[list[int]] = [[] for _ in parent]
    for node, p in enumerate(parent):
        if p >= 0:
            kids[p].append(node)
    return kids


def _deepest_first(kids: list[list[int]], root: int) -> list[int]:
    """Breadth-first order from the root, reversed: deepest nodes first, each after its children."""
    order = [root]
    for node in order:  # grows while it is walked
        order.extend(kids[node])
    return order[::-1]


def parse_conllu(text: str) -> list[DepSentence]:
    """Parse CoNLL-U text into one DepSentence per blank-line-separated block.

    Comment lines are ignored; multiword-token ranges ("1-2") and empty
    nodes ("1.1") are skipped. Only the ID, FORM, HEAD, and DEPREL columns
    are consumed.
    """
    sentences: list[DepSentence] = []
    rows: list[tuple[int, str]] = []
    block_start: int | None = None
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            if rows:
                sentences.append(_build_sentence(rows, len(sentences) + 1, block_start))
                rows, block_start = [], None
            continue
        if line.startswith("#"):
            continue
        if block_start is None:
            block_start = line_no
        rows.append((line_no, line))
    if rows:
        sentences.append(_build_sentence(rows, len(sentences) + 1, block_start))
    return sentences


def _build_sentence(rows: list[tuple[int, str]], ordinal: int, block_line: int | None) -> DepSentence:
    tokens: list[Token] = []
    for line_no, line in rows:
        fields = line.split("\t")
        if len(fields) != 10:
            raise ConlluError(
                f"expected 10 tab-separated columns, got {len(fields)}", ordinal, line_no
            )
        tid = fields[0]
        if _RANGE_ID.fullmatch(tid) or _EMPTY_ID.fullmatch(tid):
            continue
        if not tid.isdigit():
            raise ConlluError(f"malformed ID {tid!r}", ordinal, line_no)
        try:
            head = int(fields[6])
        except ValueError:
            raise ConlluError(f"non-integer HEAD {fields[6]!r}", ordinal, line_no) from None
        try:
            tokens.append(Token(index=int(tid), form=fields[1], head=head, deprel=fields[7]))
        except ValueError as exc:
            raise ConlluError(str(exc), ordinal, line_no) from None
    try:
        return DepSentence(tuple(tokens))
    except ValueError as exc:
        raise ConlluError(str(exc), ordinal, block_line) from None


def parse_single(text: str) -> DepSentence:
    """Parse text expected to hold exactly one sentence block."""
    sentences = parse_conllu(text)
    if len(sentences) != 1:
        raise ConlluError(f"expected exactly one sentence block, found {len(sentences)}")
    return sentences[0]


@dataclass(frozen=True)
class SentencePair:
    pair_id: str
    a: DepSentence
    b: DepSentence


def read_pairs(text: str) -> list[SentencePair]:
    """Read JSON Lines sentence-pair records {"a": block, "b": block, "id": str}."""
    pairs = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:  # or nested past the limit
            raise ConlluError(f"invalid JSON record: {exc}", line=line_no) from None
        if (
            not isinstance(record, dict)
            or not isinstance(record.get("a"), str)
            or not isinstance(record.get("b"), str)
        ):
            raise ConlluError("record must carry 'a' and 'b' CoNLL-U block strings", line=line_no)
        pair_id = record.get("id", f"pair-{line_no}")
        if not isinstance(pair_id, str):
            raise ConlluError(f"record id must be a string, got {pair_id!r}", line=line_no)
        for field, value in (("a", record["a"]), ("b", record["b"]), ("id", pair_id)):
            try:  # a JSON escape can hold a lone surrogate, which no UTF-8 output can
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise ConlluError(f"record {pair_id!r}: {field!r} is not valid text: {exc}",
                                  line=line_no) from None
        try:
            a = parse_single(record["a"])
            b = parse_single(record["b"])
        except ConlluError as exc:
            raise ConlluError(f"record {pair_id!r}: {exc}", line=line_no) from None
        pairs.append(SentencePair(pair_id=pair_id, a=a, b=b))
    return pairs
