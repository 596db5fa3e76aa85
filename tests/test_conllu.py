"""Ingestion tests: block parsing, tree validation, branch extraction."""

import json

import numpy as np
import pytest

from conftest import children, conllu_block, make_sentence, random_sentence, trigrams
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
        assert s.root_index == 2
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
        assert s.root_index == 2
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
            again = parse_single(s.to_conllu())
            assert again == s


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
            covered = [s.root_index]
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
