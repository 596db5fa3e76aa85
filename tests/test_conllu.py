"""Ingestion tests: block parsing, tree validation, branch extraction."""

import json
from time import perf_counter

import numpy as np
import pytest

from conftest import children, conllu_block, make_sentence, random_sentence, trigrams
from dafa.cli import run
from dafa.conllu import (
    ROOT_FORM,
    ConlluError,
    DepSentence,
    Token,
    parse_conllu,
    parse_single,
    read_pairs,
)

TWO_TOKEN_BLOCK = "1\tApple\t_\t_\t_\t_\t2\tnsubj\t_\t_\n2\texceeded\t_\t_\t_\t_\t0\troot\t_\t_\n"


class TestParseConllu:
    def test_minimal_two_token_block(self):
        sentences = parse_conllu(TWO_TOKEN_BLOCK)
        assert len(sentences) == 1
        s = sentences[0]
        assert s.n == 2
        assert [t.head for t in s.tokens] == [2, 0]
        assert s.forms() == ["Apple", "exceeded"]
        assert s.tokens[0].deprel == "nsubj"

    def test_four_token_hand_parse(self):
        # "Apple exceeded its expectations": nsubj/root/nmod:poss/obj
        block = conllu_block(
            [("Apple", 2, "nsubj"), ("exceeded", 0, "root"),
             ("its", 4, "nmod:poss"), ("expectations", 2, "obj")]
        )
        s = parse_single(block)
        assert s.n == 4
        assert [t.head for t in s.tokens] == [2, 0, 4, 2]

    def test_multiple_blocks_and_comments(self):
        text = "# sent_id = 1\n" + TWO_TOKEN_BLOCK + "\n# next\n" + conllu_block([("ok", 0, "root")])
        assert [s.n for s in parse_conllu(text)] == [2, 1]

    def test_multiword_range_and_empty_node_skipped(self):
        text = (
            "1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n"
            "1\tdo\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "2\tnot\t_\t_\t_\t_\t1\tadvmod\t_\t_\n"
            "2.1\tghost\t_\t_\t_\t_\t_\t_\t_\t_\n"
        )
        s = parse_single(text)
        assert s.forms() == ["do", "not"]

    def test_self_head_is_error(self):
        with pytest.raises(ConlluError, match="its own head"):
            parse_conllu(conllu_block([("loop", 1, "dep")]))

    def test_wrong_column_count_reports_line(self):
        bad = "1\tonly\tthree\n"
        with pytest.raises(ConlluError, match="line 1") as exc:
            parse_conllu(bad)
        assert exc.value.line == 1
        assert "10 tab-separated columns" in str(exc.value)

    def test_non_integer_head(self):
        bad = "1\tword\t_\t_\t_\t_\tx\troot\t_\t_\n"
        with pytest.raises(ConlluError, match="non-integer HEAD"):
            parse_conllu(bad)

    def test_zero_roots(self):
        bad = conllu_block([("a", 2, "dep"), ("b", 1, "dep")])
        with pytest.raises(ConlluError, match="no root"):
            parse_conllu(bad)

    def test_multiple_roots(self):
        bad = conllu_block([("a", 0, "root"), ("b", 0, "root")])
        with pytest.raises(ConlluError, match="multiple root"):
            parse_conllu(bad)

    def test_cycle_with_valid_root(self):
        bad = conllu_block([("a", 0, "root"), ("b", 3, "dep"), ("c", 2, "dep")])
        with pytest.raises(ConlluError, match="cycle"):
            parse_conllu(bad)

    def test_error_carries_sentence_ordinal(self):
        text = TWO_TOKEN_BLOCK + "\n" + conllu_block([("bad", 2, "dep"), ("worse", 1, "dep")])
        with pytest.raises(ConlluError, match="sentence 2") as exc:
            parse_conllu(text)
        assert exc.value.sentence == 2

    def test_head_out_of_range(self):
        bad = conllu_block([("a", 5, "dep"), ("b", 0, "root")])
        with pytest.raises(ConlluError, match="outside"):
            parse_conllu(bad)

    def test_roundtrip_reproduces_fields(self):
        rng = np.random.default_rng(7)
        vocab = ("red", "fox", "jumps", "idly")
        for _ in range(25):
            s = random_sentence(rng, int(rng.integers(1, 10)), vocab)
            specs = [(t.form, t.head, t.deprel) for t in s.tokens]
            again = parse_single(conllu_block(specs))
            assert again == s


def _heads_error(heads):
    """The message DepSentence gives for these 1-based heads, or None for a valid tree."""
    try:
        make_sentence([("w", head, "dep") for head in heads])
    except ValueError as exc:
        return str(exc)
    return None


def _climb_cycle_error(heads):
    """The per-token oracle: climb from each token in turn; the first whose climb outlasts n
    steps without reaching the root is on or under a cycle."""
    n = len(heads)
    for index in range(1, n + 1):
        node, steps = index, 0
        while node != 0:
            node, steps = heads[node - 1], steps + 1
            if steps > n:
                return f"cycle in head graph involving token {index}"
    return None


class TestTreeValidation:
    @pytest.mark.parametrize("heads, message", [
        ([2, 1], "no root token (head 0)"),
        ([0, 1, 0, 0], "multiple root tokens: [1, 3, 4]"),
        ([0, 3], "token 2 has head 3 outside [0, 2]"),
        ([0, 3, 2], "cycle in head graph involving token 2"),
        # token 2 hangs under the 3 <-> 4 cycle and is named, not the cycle's own tokens
        ([0, 3, 4, 3], "cycle in head graph involving token 2"),
        ([4, 0, 1, 3], "cycle in head graph involving token 1"),
    ], ids=["no-root", "multiple-roots", "head-out-of-range", "cycle", "under-cycle",
            "cycle-before-root"])
    def test_exact_message(self, heads, message):
        assert _heads_error(heads) == message

    def test_cycle_names_the_token_a_climb_names(self):
        rng = np.random.default_rng(23)
        cycles = 0
        for _ in range(3000):
            n = int(rng.integers(2, 10))
            root = int(rng.integers(1, n + 1))
            # one root; every other head is another token, so cycles are common
            heads = [0 if i == root else int(rng.choice([h for h in range(1, n + 1) if h != i]))
                     for i in range(1, n + 1)]
            expected = _climb_cycle_error(heads)
            cycles += expected is not None
            assert _heads_error(heads) == expected, heads
        assert 300 < cycles < 2700  # both outcomes are well represented

    def test_deep_chain_validates_in_linear_time(self):
        # a per-token climb to the root takes n^2 / 2 steps here, seconds at n = 10,000
        n = 10_000
        text = conllu_block([("w", i - 1, "dep") for i in range(1, n + 1)])
        start = perf_counter()
        sentence = parse_single(text)
        elapsed = perf_counter() - start
        assert sentence.n == n and sentence.tokens[-1].head == n - 1
        assert elapsed < 1.0


class TestChildren:
    def test_root_of_chain(self):
        s = make_sentence([("a", 2, "dep"), ("b", 0, "root")])
        assert children(s, 2) == [1]

    def test_leaf_has_none(self):
        s = make_sentence([("a", 2, "dep"), ("b", 0, "root")])
        assert children(s, 1) == []

    def test_star_tree_ascending(self):
        s = make_sentence(
            [("hub", 0, "root"), ("x", 1, "dep"), ("y", 1, "dep"), ("z", 1, "dep")]
        )
        assert children(s, 1) == [2, 3, 4]

    def test_out_of_range(self):
        s = make_sentence([("a", 0, "root")])
        with pytest.raises(IndexError):
            children(s, 2)
        with pytest.raises(IndexError):
            children(s, 0)

    def test_children_partition_tokens(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            s = random_sentence(rng, int(rng.integers(1, 12)), ("u", "v", "w"))
            covered = [t.index for t in s.tokens if t.head == 0]
            for i in range(1, s.n + 1):
                covered.extend(children(s, i))
            assert sorted(covered) == list(range(1, s.n + 1))


class TestTrigrams:
    def test_branch_fields(self):
        s = make_sentence([("Apple", 2, "nsubj"), ("exceeded", 0, "root")])
        tri = trigrams(s)[0]
        assert (tri.head_form, tri.rel, tri.tail_form) == ("exceeded", "nsubj", "Apple")
        assert tri.head_index == 2 and tri.tail_index == 1

    def test_root_uses_sentinel(self):
        s = make_sentence([("Apple", 2, "nsubj"), ("exceeded", 0, "root")])
        root_tri = trigrams(s)[1]
        assert root_tri.head_form == ROOT_FORM
        assert root_tri.rel == "root"
        assert root_tri.tail_form == "exceeded"

    def test_one_per_token_in_order(self):
        s = make_sentence(
            [("a", 3, "det"), ("b", 3, "amod"), ("c", 0, "root"), ("d", 3, "obj"), ("e", 4, "nmod")]
        )
        tris = trigrams(s)
        assert len(tris) == 5
        assert [t.tail_index for t in tris] == [1, 2, 3, 4, 5]


class TestTokenInvariants:
    def test_empty_form_rejected(self):
        with pytest.raises(ValueError):
            Token(index=1, form="", head=0, deprel="root")

    def test_empty_deprel_rejected(self):
        with pytest.raises(ValueError):
            Token(index=1, form="x", head=0, deprel="")

    def test_noncontiguous_indices_rejected(self):
        with pytest.raises(ValueError, match="contiguous"):
            DepSentence((Token(index=2, form="x", head=0, deprel="root"),))


class TestReadPairs:
    def test_happy_path(self):
        record = {"id": "p1", "a": TWO_TOKEN_BLOCK, "b": conllu_block([("ok", 0, "root")])}
        pairs = read_pairs(json.dumps(record))
        assert len(pairs) == 1
        assert pairs[0].pair_id == "p1"
        assert pairs[0].a.n == 2 and pairs[0].b.n == 1

    def test_invalid_json_line(self):
        with pytest.raises(ConlluError, match="line 1"):
            read_pairs("{not json")

    def test_json_nested_past_the_recursion_limit_names_its_line(self):
        record = json.dumps({"a": TWO_TOKEN_BLOCK, "b": TWO_TOKEN_BLOCK})
        with pytest.raises(ConlluError, match="line 2: invalid JSON record"):
            read_pairs(record + "\n" + "[" * 100_000 + "]" * 100_000)

    def test_missing_field(self):
        with pytest.raises(ConlluError, match="'a' and 'b'"):
            read_pairs(json.dumps({"id": "x", "a": TWO_TOKEN_BLOCK}))

    def test_non_string_block_rejected(self):
        with pytest.raises(ConlluError, match="block strings"):
            read_pairs(json.dumps({"id": "x", "a": 5, "b": TWO_TOKEN_BLOCK}))

    def test_bad_block_reports_record_id(self):
        record = {"id": "bad-pair", "a": TWO_TOKEN_BLOCK, "b": conllu_block([("x", 1, "dep")])}
        with pytest.raises(ConlluError, match="bad-pair"):
            read_pairs(json.dumps(record))

    def test_blank_lines_skipped(self):
        record = json.dumps({"id": "p", "a": TWO_TOKEN_BLOCK, "b": TWO_TOKEN_BLOCK})
        assert len(read_pairs("\n" + record + "\n\n")) == 1

    @pytest.mark.parametrize("pair_id", [None, 7, 7.0, ["p"], {"p": 1}])
    def test_non_string_id_rejected(self, pair_id):
        good = json.dumps({"id": "ok", "a": TWO_TOKEN_BLOCK, "b": TWO_TOKEN_BLOCK})
        bad = json.dumps({"id": pair_id, "a": TWO_TOKEN_BLOCK, "b": TWO_TOKEN_BLOCK})
        with pytest.raises(ConlluError, match=r"^line 2: record id must be a string"):
            read_pairs(good + "\n" + bad)

    # a token ID of 0, a negative HEAD, a block of only a multiword range line and a record
    # block holding two sentences: the pairs file is refused with exit 2, naming the record
    @pytest.mark.parametrize("a, message", [
        ("0\tw\t_\t_\t_\t_\t0\troot\t_\t_\n",
         "sentence 1, line 1: token index must be >= 1, got 0"),
        ("1\tw\t_\t_\t_\t_\t-1\troot\t_\t_\n", "sentence 1, line 1: token 1 has negative head -1"),
        ("1-2\tdon't\t_\t_\t_\t_\t_\t_\t_\t_\n", "sentence 1, line 1: sentence has no tokens"),
        (TWO_TOKEN_BLOCK + "\n" + TWO_TOKEN_BLOCK, "expected exactly one sentence block, found 2"),
    ], ids=["id-0", "negative-head", "range-line-only", "two-blocks"])
    def test_bad_block_is_input_error(self, tmp_path, capsys, a, message):
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"id": "p", "a": a, "b": TWO_TOKEN_BLOCK}) + "\n",
                         encoding="utf-8")
        out = tmp_path / "attend.json"
        assert run(["attend", "--pair", str(pairs), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {pairs}: line 1: record 'p': {message}\n")
        assert not out.exists()

    def test_missing_id_named_by_line(self):
        record = json.dumps({"a": TWO_TOKEN_BLOCK, "b": TWO_TOKEN_BLOCK})
        assert [p.pair_id for p in read_pairs("\n" + record)] == ["pair-2"]
