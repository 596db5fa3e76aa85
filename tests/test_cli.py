"""CLI tests: every subcommand end-to-end on temp files, exit codes, determinism."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (aligned_pair, conllu_block, first_difference, naive_write_heatmap_csv,
                      random_sentence, read_heatmap_csv, unforced_and_forced_peaks)
from dafa import attention, cli, pipeline
from dafa.attention import TWO_LANE_MIN_LEN, AttnConfig, AttnParams
from dafa.cli import DEFAULT_D_HID, _build_parser, run
from dafa.conllu import read_pairs
from dafa.depmatrix import DepMatrixConfig, base_matrix, final_matrix, subgraph_matrix
from dafa.fusion import FusionParams, fuse
from dafa.gradcheck import DEFAULT_EPS, DEFAULT_TOL, GradCheckConfig
from dafa.pipeline import EmbeddingTable, build_layout, dafa_layer
from dafa.tfidf import TfIdfModel

PAIR_A = [("Apple", 2, "nsubj"), ("exceeded", 0, "root"), ("the", 4, "det"), ("company", 2, "obj")]
PAIR_B = [("The", 2, "det"), ("company", 3, "nsubj"), ("exceeded", 0, "root"), ("Apple", 3, "obj")]


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.conllu"
    path.write_text(conllu_block(PAIR_A) + "\n" + conllu_block(PAIR_B), encoding="utf-8")
    return path


@pytest.fixture
def pairs_file(tmp_path):
    path = tmp_path / "pairs.jsonl"
    record = {"id": "p0", "a": conllu_block(PAIR_A), "b": conllu_block(PAIR_B)}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def tfidf_file(tmp_path, corpus_file):
    path = tmp_path / "model.json"
    assert run(["tfidf", "fit", "--corpus", str(corpus_file), "--out", str(path)]) == 0
    return path


def file_hash(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestTfIdfCommand:
    def test_fit_writes_loadable_model(self, tfidf_file):
        model = TfIdfModel.from_json(tfidf_file.read_text(encoding="utf-8"))
        assert model.doc_count == 2
        assert model.df["exceeded"] == 2

    def test_missing_corpus(self, tmp_path):
        code = run(["tfidf", "fit", "--corpus", str(tmp_path / "nope.conllu"),
                    "--out", str(tmp_path / "m.json")])
        assert code == 2


class TestMatrixCommand:
    def test_records_match_library(self, tmp_path, pairs_file, tfidf_file):
        out = tmp_path / "mat.jsonl"
        code = run(["matrix", "--pairs", str(pairs_file), "--tfidf", str(tfidf_file),
                    "--theta", "2.0", "--alpha", "1.0", "--nu", "0.5", "--out", str(out)])
        assert code == 0
        record = json.loads(out.read_text(encoding="utf-8").splitlines()[0])
        pair = read_pairs(pairs_file.read_text(encoding="utf-8"))[0]
        model = TfIdfModel.from_json(tfidf_file.read_text(encoding="utf-8"))
        cfg = DepMatrixConfig(theta=2.0, alpha=1.0, nu=0.5)
        assert record["id"] == "p0"
        assert record["n"] == 4 and record["m"] == 4
        for key, expected in (
            ("M", base_matrix(pair.a, pair.b, cfg)),
            ("S", subgraph_matrix(pair.a, pair.b, cfg)),
            ("MF", final_matrix(pair.a, pair.b, model, cfg)),
        ):
            assert np.asarray(record[key], dtype=np.float64).tobytes() == expected.tobytes(), key

    def test_missing_pairs_file(self, tmp_path, tfidf_file):
        code = run(["matrix", "--pairs", str(tmp_path / "absent.jsonl"),
                    "--tfidf", str(tfidf_file), "--out", str(tmp_path / "o.jsonl")])
        assert code == 2

    def test_malformed_record_reports_line(self, tmp_path, tfidf_file, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        code = run(["matrix", "--pairs", str(bad), "--tfidf", str(tfidf_file),
                    "--out", str(tmp_path / "o.jsonl")])
        assert code == 2
        assert "line 1" in capsys.readouterr().err

    def test_invalid_theta_is_validation_failure(self, tmp_path, pairs_file, tfidf_file):
        code = run(["matrix", "--pairs", str(pairs_file), "--tfidf", str(tfidf_file),
                    "--theta", "-1", "--out", str(tmp_path / "o.jsonl")])
        assert code == 1

    def test_non_finite_theta_is_validation_failure(self, tmp_path, pairs_file, tfidf_file,
                                                     capsys):
        out = tmp_path / "o.jsonl"
        code = run(["matrix", "--pairs", str(pairs_file), "--tfidf", str(tfidf_file),
                    "--theta", "inf", "--out", str(out)])
        assert code == 1
        assert "theta must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_mixed_case_tfidf_key_is_input_error(self, tmp_path, pairs_file, capsys):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({"doc_count": 4, "df": {"Apple": 4, "apple": 1}}),
                         encoding="utf-8")
        out = tmp_path / "o.jsonl"
        code = run(["matrix", "--pairs", str(pairs_file), "--tfidf", str(model),
                    "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}:") and "'Apple'" in err
        assert not out.exists()

    def test_record_order_matches_input(self, tmp_path, tfidf_file):
        pairs = tmp_path / "many.jsonl"
        lines = [
            json.dumps({"id": f"pair-{i}", "a": conllu_block(PAIR_A), "b": conllu_block(PAIR_B)})
            for i in (3, 1, 2)
        ]
        pairs.write_text("\n".join(lines) + "\n", encoding="utf-8")
        out = tmp_path / "ordered.jsonl"
        assert run(["matrix", "--pairs", str(pairs), "--tfidf", str(tfidf_file),
                    "--out", str(out)]) == 0
        ids = [json.loads(line)["id"] for line in out.read_text(encoding="utf-8").splitlines()]
        assert ids == ["pair-3", "pair-1", "pair-2"]


class TestAttendCommand:
    def test_emits_weights_and_signals(self, tmp_path, pairs_file):
        out = tmp_path / "attend.json"
        code = run(["attend", "--pair", str(pairs_file), "--seed", "5", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        heads = len(data["sem_weights"])
        d_seq = len(data["tokens"])
        assert d_seq == 4 + 4 + 3
        for h in range(heads):
            w = np.asarray(data["sem_weights"][h])
            assert w.shape == (d_seq, d_seq)
            assert np.allclose(w.sum(axis=1), 1.0, atol=1e-9)
            assert np.asarray(data["dep"][h]).shape == np.asarray(data["sem"][h]).shape

    def test_size_flags_set_the_layer(self, tmp_path, pairs_file):
        out = tmp_path / "attend.json"
        assert run(["attend", "--pair", str(pairs_file), "--heads", "3", "--d-v", "4",
                    "--out", str(out)]) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert len(data["sem_weights"]) == 3
        assert np.asarray(data["sem"][0]).shape[1] == 4

    def test_config_flag_is_unknown(self, tmp_path, capsys, pairs_file):
        # the sizes have one source, the flags; a config file could silently override them
        cfg = tmp_path / "x.json"
        cfg.write_text(json.dumps({"heads": 3}), encoding="utf-8")
        out = tmp_path / "attend.json"
        assert run(["attend", "--pair", str(pairs_file), "--config", str(cfg), "--heads", "4",
                    "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --config" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_multi_record_file_notes_the_record_used(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.jsonl"
        records = [json.dumps({"id": pid, "a": conllu_block(PAIR_A), "b": conllu_block(PAIR_B)})
                   for pid in ("first", "second", "third")]
        pairs.write_text("\n".join(records) + "\n", encoding="utf-8")
        out = tmp_path / "attend.json"
        assert run(["attend", "--pair", str(pairs), "--out", str(out)]) == 0
        err = capsys.readouterr().err
        assert "3 pair records" in err and "'first'" in err
        assert json.loads(out.read_text(encoding="utf-8"))["id"] == "first"

    def test_single_record_file_prints_no_note(self, tmp_path, capsys, pairs_file):
        assert run(["attend", "--pair", str(pairs_file), "--out", str(tmp_path / "a.json")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("flags", [[], ["--heads", "3", "--seed", "5"]],
                             ids=["defaults", "heads-3-seed-5"])
    def test_attend_then_fuse_equals_demo(self, tmp_path, pairs_file, tfidf_file, flags):
        # attend and demo run one attention half, so their weights agree bit for bit; fuse on
        # attend's stacks, with demo's seed and d_hid, gives demo's fusion values head by head
        out, out_dir, fused = tmp_path / "attend.json", tmp_path / "demo", tmp_path / "fused.json"
        common = ["--tfidf", str(tfidf_file), *flags]
        assert run(["attend", "--pair", str(pairs_file), *common, "--out", str(out)]) == 0
        assert run(["demo", "--pairs", str(pairs_file), *common, "--out", str(out_dir)]) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        heads = 3 if flags else 2
        for kind in ("sem", "dep"):
            weights = np.asarray(data[f"{kind}_weights"], dtype=np.float64)
            assert len(list(out_dir.glob(f"p0.{kind}.h*.csv"))) == len(weights) == heads
            for head, expected in enumerate(weights):
                rows, cols, csv_weights = read_heatmap_csv(out_dir / f"p0.{kind}.h{head}.csv")
                assert rows == cols == data["tokens"]
                assert csv_weights.tobytes() == expected.tobytes()
        seed = flags[-1] if flags else str(cli.DEFAULT_SEED)
        assert run(["fuse", "--signals", str(out), "--seed", seed, "--d-hid", str(DEFAULT_D_HID),
                    "--out", str(fused)]) == 0
        result = json.loads(fused.read_text(encoding="utf-8"))
        layer = json.loads((out_dir / "p0.json").read_text(encoding="utf-8"))
        assert np.shape(result["fused"]) == np.shape(data["sem"]) == (heads, 11, 8)
        assert (np.asarray(result["fused"]).mean(axis=0).tobytes()
                == np.asarray(layer["fused"], dtype=np.float64).tobytes())
        for name, demo_name in (("fusion_gate", "fusion_gates"), ("filter_gate", "filter_gates")):
            assert np.shape(result[name]) == np.shape(layer[demo_name])
            assert (np.asarray(result[name], dtype=np.float64).tobytes()
                    == np.asarray(layer[demo_name], dtype=np.float64).tobytes()), name


def assert_fused_json_is_library_output(path, sem, dep, params):
    """The `dafa fuse` output fields equal those of the library's FusionOutput bit for bit."""
    data = json.loads(path.read_text(encoding="utf-8"))
    expected = fuse(sem, dep, params)
    assert set(data) == {"fused", "fusion_gate", "filter_gate", "dep_refined", "sem_refined"}
    for name, value in data.items():
        value = np.asarray(value, dtype=np.float64)
        assert value.shape == getattr(expected, name).shape, name
        assert value.tobytes() == getattr(expected, name).tobytes(), name
    return data


class TestFuseCommand:
    def test_fuse_from_seed(self, tmp_path):
        rng = np.random.default_rng(3)
        sem, dep = rng.uniform(-1, 1, (4, 3)), rng.uniform(-1, 1, (4, 3))
        signals = tmp_path / "signals.json"
        signals.write_text(json.dumps({"sem": sem.tolist(), "dep": dep.tolist()}),
                           encoding="utf-8")
        out = tmp_path / "fused.json"
        assert run(["fuse", "--signals", str(signals), "--seed", "11",
                    "--d-hid", "3", "--out", str(out)]) == 0
        data = assert_fused_json_is_library_output(out, sem, dep,
                                                   FusionParams.init(4, 3, 3, seed=11))
        # one fusion gate and one refined vector per path, shared by every position
        assert isinstance(data["fusion_gate"], float) and 0 < data["fusion_gate"] < 1
        assert np.shape(data["dep_refined"]) == np.shape(data["sem_refined"]) == (3,)
        assert np.shape(data["filter_gate"]) == (4,)
        assert np.all(np.abs(np.asarray(data["fused"])) < 1)

    def test_fuse_from_params_file(self, tmp_path):
        params = FusionParams.init(3, 2, 2, seed=8)
        params_path = tmp_path / "params.json"
        params_path.write_text(params.to_json(), encoding="utf-8")
        rng = np.random.default_rng(9)
        signals, out, seeded = (tmp_path / "signals.json", tmp_path / "fused.json",
                                tmp_path / "seeded.json")
        # params sized (L, d_v) serve every head of a (heads, L, d_v) stack: the file holds the
        # draws of the same seed and d_hid, so both routes write the same bytes
        for shape in ((3, 2), (4, 3, 2)):
            sem, dep = rng.uniform(-1, 1, shape), rng.uniform(-1, 1, shape)
            signals.write_text(json.dumps({"sem": sem.tolist(), "dep": dep.tolist()}),
                               encoding="utf-8")
            assert run(["fuse", "--signals", str(signals), "--params", str(params_path),
                        "--out", str(out)]) == 0
            assert_fused_json_is_library_output(out, sem, dep, params)
            assert run(["fuse", "--signals", str(signals), "--seed", "8", "--d-hid", "2",
                        "--out", str(seeded)]) == 0
            assert out.read_bytes() == seeded.read_bytes(), shape

    def test_d_hid_defaults_to_8(self, tmp_path):
        signals = tmp_path / "signals.json"
        signals.write_text(ZERO_SIGNALS, encoding="utf-8")
        out = tmp_path / "fused.json"
        assert run(["fuse", "--signals", str(signals), "--seed", "5", "--out", str(out)]) == 0
        assert_fused_json_is_library_output(out, np.zeros((3, 2)), np.zeros((3, 2)),
                                            FusionParams.init(3, 2, 8, seed=5))

    def test_integer_named_params_file_is_read_as_a_file(self, tmp_path, monkeypatch):
        # `--params 7` names the file `7`; it is never a seed
        monkeypatch.chdir(tmp_path)
        params = FusionParams.init(3, 2, 5, seed=8)
        (tmp_path / "7").write_text(params.to_json(), encoding="utf-8")
        (tmp_path / "signals.json").write_text(ZERO_SIGNALS, encoding="utf-8")
        assert run(["fuse", "--signals", "signals.json", "--params", "7",
                    "--out", "fused.json"]) == 0
        assert_fused_json_is_library_output(tmp_path / "fused.json", np.zeros((3, 2)),
                                            np.zeros((3, 2)), params)

    def test_missing_params_file_names_the_path(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "signals.json").write_text(ZERO_SIGNALS, encoding="utf-8")
        assert run(["fuse", "--signals", "signals.json", "--params", "42",
                    "--out", "fused.json"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: 42: ") and captured.out == ""
        assert not (tmp_path / "fused.json").exists()

    # "7" names no file: the flags are rejected before any file is read
    @pytest.mark.parametrize("params, flag", [("file", "--d-hid"), ("file", "--seed"),
                                              ("7", "--seed")],
                             ids=["file-d-hid", "file-seed", "int-seed"])
    def test_flags_that_params_overrides_rejected(self, tmp_path, capsys, params, flag):
        if params == "file":
            params = tmp_path / "params.json"
            params.write_text(FusionParams.init(3, 2, 2, seed=8).to_json(), encoding="utf-8")
        signals = tmp_path / "signals.json"
        signals.write_text(ZERO_SIGNALS, encoding="utf-8")
        out = tmp_path / "fused.json"
        assert run(["fuse", "--signals", str(signals), "--params", str(params), flag, "3",
                    "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {flag} and ") and "--params" in captured.err
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_bad_d_hid_named_before_writing(self, tmp_path, capsys, value):
        signals = tmp_path / "signals.json"
        signals.write_text(ZERO_SIGNALS, encoding="utf-8")
        out = tmp_path / "fused.json"
        assert run(["fuse", "--signals", str(signals), "--d-hid", value, "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: d_hid must be >= 1, got {value}\n")
        assert not out.exists()

    def test_mismatched_signals_rejected(self, tmp_path):
        signals = tmp_path / "signals.json"
        signals.write_text(json.dumps({"sem": [[0.0]], "dep": [[0.0], [0.0]]}), encoding="utf-8")
        assert run(["fuse", "--signals", str(signals), "--out", str(tmp_path / "o.json")]) == 2

    @pytest.mark.parametrize("name, value", [("sem", float("nan")), ("dep", float("inf")),
                                             ("sem", float("-inf"))])
    def test_non_finite_signals_rejected(self, tmp_path, capsys, name, value):
        data = {"sem": np.zeros((3, 2)).tolist(), "dep": np.zeros((3, 2)).tolist()}
        data[name][1][0] = value
        signals = tmp_path / "signals.json"
        signals.write_text(json.dumps(data), encoding="utf-8")
        out = tmp_path / "fused.json"
        assert run(["fuse", "--signals", str(signals), "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_params_write_no_output(self, tmp_path, capsys):
        params = FusionParams.init(3, 2, 2, seed=8).to_dict()
        params["b_output"] = np.full(2, np.nan)
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps({k: np.asarray(v).tolist() for k, v in params.items()}),
                               encoding="utf-8")
        signals = tmp_path / "signals.json"
        signals.write_text(json.dumps({"sem": np.zeros((3, 2)).tolist(),
                                       "dep": np.zeros((3, 2)).tolist()}), encoding="utf-8")
        out = tmp_path / "fused.json"
        assert run(["fuse", "--signals", str(signals), "--params", str(params_path),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {params_path}:") and "'b_output'" in err
        assert not out.exists()


def _params_with(**changes):
    data = json.loads(FusionParams.init(3, 2, 2, seed=8).to_json())
    return json.dumps({**data, **changes})


ZERO_SIGNALS = json.dumps({"sem": np.zeros((3, 2)).tolist(), "dep": np.zeros((3, 2)).tolist()})


DEEP = "[" * 100_000 + "]" * 100_000          # deeper than Python's recursion limit
HUGE = 10 ** 400                                # a JSON integer no float can hold


def _signals_with(**changes):
    return json.dumps({**json.loads(ZERO_SIGNALS), **changes})


@pytest.mark.parametrize("flag, text, key", [
    ("--params", _params_with(b_output=[0.1, [0.2]]), "b_output"),
    ("--params", _params_with(w_dep_proj={"a": 1}), "w_dep_proj"),
    ("--signals", json.dumps({"sem": {"0": [0.0]}, "dep": {"0": [0.0]}}), "sem"),
    ("--signals", json.dumps({"sem": [["x", "y"]], "dep": [["x", "y"]]}), "sem"),
    ("--signals", _signals_with(sem=[["1", "2"], ["3", "4"], ["5", "6"]]), "sem"),
    ("--signals", _signals_with(dep=[[True, False], [0, 1], [0, 0]]), "dep"),
    ("--signals", _signals_with(dep=[[0, 0], [0, None], [0, 0]]), "dep"),
    ("--params", _params_with(b_output=["0.5", "1e3"]), "b_output"),
    ("--params", _params_with(b_output=[True, 1]), "b_output"),
    ("--params", _params_with(b_output=[None, 1]), "b_output"),
    ("--params", _params_with(w_dep_proj=[0.1, 0.2]), "w_dep_proj"),
    ("--signals", _signals_with(sem=[[HUGE, 0], [0, 0], [0, 0]]), None),
    ("--params", _params_with(b_output=[HUGE, 0]), None),
    ("--tfidf", json.dumps({"doc_count": HUGE, "df": {}}), "doc_count"),
    ("--pairs", DEEP, None),
    ("--tfidf", DEEP, None),
    ("--signals", DEEP, None),
    ("--params", DEEP, None),
    ("--signals", json.dumps([1]), "sem"),
    ("--signals", json.dumps({"sem": [[]], "dep": [[]]}), "sem"),
    ("--params", json.dumps([]), None),
    ("--tfidf", json.dumps({"doc_count": 1, "df": []}), "df"),
    ("--corpus", "", "sentences"),
    ("--pairs", "", "pair records"),
], ids=["params-list-scalar", "params-dict-array", "signals-dict", "signals-non-numeric",
        "signals-numeric-string", "signals-bool", "signals-null", "params-numeric-string",
        "params-bool", "params-null", "params-1d-proj", "signals-huge-int", "params-huge-int",
        "tfidf-huge-doc-count", "pairs-deep", "tfidf-deep", "signals-deep", "params-deep",
        "signals-list", "signals-empty-axis", "params-list", "tfidf-df-list", "corpus-empty",
        "pairs-empty"])
def test_malformed_input_file_is_input_error(tmp_path, capsys, flag, text, key):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "out.json"
    signals = tmp_path / "signals.json"
    signals.write_text(ZERO_SIGNALS, encoding="utf-8")
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(json.dumps({"a": conllu_block(PAIR_A), "b": conllu_block(PAIR_B)}) + "\n",
                     encoding="utf-8")
    tfidf = tmp_path / "tfidf.json"
    tfidf.write_text(TfIdfModel(doc_count=1, df={}).to_json(), encoding="utf-8")
    argv = {
        "--params": ["fuse", "--signals", str(signals), "--params", str(bad)],
        "--signals": ["fuse", "--signals", str(bad)],
        "--pairs": ["matrix", "--pairs", str(bad), "--tfidf", str(tfidf)],
        "--tfidf": ["matrix", "--pairs", str(pairs), "--tfidf", str(bad)],
        "--corpus": ["tfidf", "fit", "--corpus", str(bad)],
    }[flag]
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:")
    assert "Traceback" not in err and "unknown" not in err
    if key is not None:
        assert repr(key) in err or f"{key} " in err, err
    assert not out.exists()


def test_old_format_params_file_names_the_extra_keys(tmp_path, capsys):
    # the 20-key params format that also held the pooling query weights and score biases
    data = json.loads(FusionParams.init(3, 2, 2, seed=8).to_json())
    rng = np.random.default_rng(8)
    for path in ("sem", "dep"):
        data[f"w_{path}_query"] = rng.uniform(-1, 1, (3, 2)).tolist()
        data[f"b_{path}_query"] = rng.uniform(-1, 1, 3).tolist()
        data[f"w_{path}_score"] += rng.uniform(-1, 1, 3).tolist()
        data[f"b_{path}_score"] = 0.1
    params_path = tmp_path / "params.json"
    params_path.write_text(json.dumps(data), encoding="utf-8")
    signals = tmp_path / "signals.json"
    signals.write_text(ZERO_SIGNALS, encoding="utf-8")
    out = tmp_path / "fused.json"
    assert run(["fuse", "--signals", str(signals), "--params", str(params_path),
                "--out", str(out)]) == 2
    extra = ["b_dep_query", "b_dep_score", "b_sem_query", "b_sem_score", "w_dep_query",
             "w_sem_query"]
    assert capsys.readouterr().err == (
        f"error: {params_path}: fusion params JSON has unknown keys {extra}\n")
    assert not out.exists()


class TestGradcheckCommand:
    def test_fuse_passes(self, capsys):
        assert run(["gradcheck", "--op", "fuse", "--seed", "7", "--tol", "1e-5"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert all(r["passed"] for r in reports)

    def test_attend_covers_both_paths(self, capsys):
        assert run(["gradcheck", "--op", "attend", "--seed", "3"]) == 0
        reports = json.loads(capsys.readouterr().out)
        assert {r["op_name"] for r in reports} == {"sem_attention", "dep_attention"}

    def test_failing_report_maps_to_exit_one(self, monkeypatch, capsys):
        import dafa.cli as cli
        from dafa.gradcheck import GradReport

        def fake_check(op, config, seed, tol, eps):
            return GradReport(op_name=op, seed=seed, tol=tol, eps=eps,
                              rel_errors={"q": 1.0}, abs_errors={"q": 1.0}, passed=False)

        monkeypatch.setattr(cli, "check", fake_check)
        assert run(["gradcheck", "--op", "fuse", "--seed", "7"]) == 1

    @pytest.mark.parametrize("flag, value", [
        ("--tol", "-1"), ("--tol", "0"), ("--tol", "nan"), ("--tol", "inf"),
        ("--eps", "-1e-5"), ("--eps", "0"), ("--eps", "nan"), ("--eps", "inf"),
        ("--d-seq", "0"), ("--d-k", "0"), ("--d-v", "-2"), ("--d-hid", "0"),
    ])
    def test_bad_settings_rejected(self, capsys, flag, value):
        assert run(["gradcheck", "--op", "attend", "--seed", "7", f"{flag}={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        field = flag[2:].replace("-", "_")
        assert captured.err.startswith(f"error: {field} must be "), captured.err

    @pytest.mark.parametrize("op, flag", [("fuse", "--d-k"), ("attend", "--d-hid")])
    def test_size_flag_the_op_does_not_read_rejected(self, tmp_path, capsys, monkeypatch, op,
                                                     flag):
        # the flag would change nothing: the report is the one without it
        monkeypatch.setattr(cli, "check", lambda *a, **k: pytest.fail("check ran"))
        out = tmp_path / "report.json"
        assert run(["gradcheck", "--op", op, flag, "5", "--seed", "7", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert captured.err == f"error: {flag} does not apply to --op {op}\n"

    def test_report_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["gradcheck", "--op", "fuse", "--seed", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))[0]["op_name"] == "fuse"


def demo_layer(pairs_file, tfidf_file):
    """The first pair's layer in process, with demo's default sizes and seed 42."""
    pair = read_pairs(pairs_file.read_text(encoding="utf-8"))[0]
    layout = build_layout(pair.a, pair.b)
    config = AttnConfig(d_model=16, heads=2, d_k=8, d_v=8, d_seq=layout.d_seq)
    return dafa_layer(
        pair.a, pair.b, TfIdfModel.from_json(tfidf_file.read_text(encoding="utf-8")),
        EmbeddingTable.build(pair.a.forms() + pair.b.forms(), 16, 42),
        AttnParams.init(config, 42), FusionParams.init(layout.d_seq, 8, 8, 42),
        config, DepMatrixConfig(), pair_id=pair.pair_id,
    )


def staging_leftovers(parent):
    return [p.name for p in parent.iterdir() if p.name.startswith(".dafa-partial-")]


class TestDemoCommand:
    def test_outputs_parse_and_roundtrip(self, tmp_path, pairs_file, tfidf_file):
        out_dir = tmp_path / "demo"
        assert run(["demo", "--pairs", str(pairs_file), "--tfidf", str(tfidf_file),
                    "--seed", "42", "--out", str(out_dir)]) == 0
        expected = demo_layer(pairs_file, tfidf_file)
        for head in range(2):
            for kind in ("sem", "dep"):
                rows, cols, weights = read_heatmap_csv(out_dir / f"p0.{kind}.h{head}.csv")
                assert rows == expected.tokens and cols == expected.tokens
                assert weights.tobytes() == getattr(expected, f"{kind}_weights")[head].tobytes()
        data = json.loads((out_dir / "p0.json").read_text(encoding="utf-8"))
        assert set(data) == {"pair_id", "tokens", "fused", "fusion_gates", "filter_gates",
                             "calibration"}
        assert data["pair_id"] == "p0" and data["tokens"] == expected.tokens
        for name in ("fused", "fusion_gates", "filter_gates", "calibration"):
            value = np.asarray(data[name], dtype=np.float64)
            assert value.shape == getattr(expected, name).shape, name
            assert value.tobytes() == getattr(expected, name).tobytes(), name

    def test_csv_bytes_match_per_element_writer(self, tmp_path, tfidf_file):
        # forms holding a comma and quotes make csv quote the labels; the long pair's (L, L)
        # weights span several of the writer's blocks, so its rows straddle block boundaries
        quoted_a = [('say "hi"', 2, "nsubj"), ("a,b", 0, "root"), ('"', 2, "obj")]
        quoted_b = [("x,y", 0, "root"), ('a,"b"', 1, "obj")]
        long_a, long_b, _ = aligned_pair(np.random.default_rng(3), 90, 4)
        long_a, long_b = ([(t.form, t.head, t.deprel) for t in s.tokens] for s in (long_a, long_b))
        for stem, pair_a, pair_b in (("q", quoted_a, quoted_b), ("long", long_a, long_b)):
            pairs = tmp_path / f"{stem}.jsonl"
            pairs.write_text(json.dumps({"id": stem, "a": conllu_block(pair_a),
                                         "b": conllu_block(pair_b)}) + "\n", encoding="utf-8")
            out_dir = tmp_path / f"{stem}_demo"
            assert run(["demo", "--pairs", str(pairs), "--tfidf", str(tfidf_file),
                        "--out", str(out_dir)]) == 0
            expected = demo_layer(pairs, tfidf_file)
            assert (stem == "long") == (len(expected.tokens) >= TWO_LANE_MIN_LEN)
            oracle = tmp_path / "oracle.csv"
            names = {f"{stem}.json"}
            for head in range(2):
                for kind in ("sem", "dep"):
                    name = f"{stem}.{kind}.h{head}.csv"
                    naive_write_heatmap_csv(oracle, expected.tokens, expected.tokens,
                                            getattr(expected, f"{kind}_weights")[head])
                    assert first_difference((out_dir / name).read_bytes(),
                                            oracle.read_bytes()) is None, name
                    names.add(name)
            assert {p.name for p in out_dir.iterdir()} == names
        assert b'"say ""hi"""' in (tmp_path / "q_demo" / "q.sem.h0.csv").read_bytes()

    def test_existing_out_dir_gains_the_outputs(self, tmp_path, pairs_file, tfidf_file):
        out_dir = tmp_path / "demo"
        out_dir.mkdir()
        (out_dir / "keep.txt").write_text("kept", encoding="utf-8")
        (out_dir / "p0.json").write_text("stale", encoding="utf-8")
        fresh = tmp_path / "fresh"
        for target in (out_dir, fresh):
            assert run(["demo", "--pairs", str(pairs_file), "--tfidf", str(tfidf_file),
                        "--out", str(target)]) == 0
        assert (out_dir / "keep.txt").read_text(encoding="utf-8") == "kept"
        for path in fresh.iterdir():
            assert file_hash(out_dir / path.name) == file_hash(path), path.name
        assert len(list(out_dir.iterdir())) == len(list(fresh.iterdir())) + 1
        assert staging_leftovers(tmp_path) == []

    def test_existing_out_dir_under_read_only_parent(self, tmp_path, monkeypatch, pairs_file,
                                                     tfidf_file):
        # an existing --out stages inside itself: its parent may be read-only or another mount
        parent = tmp_path / "parent"
        out_dir = parent / "demo"
        out_dir.mkdir(parents=True)
        staged_in = []
        real_mkdtemp = tempfile.mkdtemp

        def mkdtemp(suffix=None, prefix=None, dir=None):
            staged_in.append(Path(dir))
            return real_mkdtemp(suffix, prefix, dir)

        monkeypatch.setattr(tempfile, "mkdtemp", mkdtemp)
        parent.chmod(0o555)
        try:
            assert run(["demo", "--pairs", str(pairs_file), "--tfidf", str(tfidf_file),
                        "--out", str(out_dir)]) == 0
        finally:
            parent.chmod(0o755)
        assert staged_in == [out_dir.resolve()]
        assert sorted(p.name for p in out_dir.iterdir()) == sorted(
            ["p0.json"] + [f"p0.{kind}.h{h}.csv" for kind in ("sem", "dep") for h in range(2)])
        assert staging_leftovers(parent) == []

    def test_unencodable_form_leaves_no_output(self, tmp_path, capsys, tfidf_file):
        # a JSON escape can hold a lone surrogate, which no UTF-8 output can: a record whose
        # form or id holds one is rejected when it is read, naming its line, by every reader
        good = {"id": "good", "a": conllu_block(PAIR_A), "b": conllu_block(PAIR_B)}
        bad_form = {"id": "s", "a": conllu_block([("a\ud800", 0, "root")]),
                    "b": conllu_block(PAIR_B)}
        pairs = tmp_path / "pairs.jsonl"
        capsys.readouterr()
        for bad, field in ((bad_form, "'a'"), ({**good, "id": "bad\ud800"}, "'id'")):
            pairs.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
            for command, flag, out in (("matrix", "--pairs", tmp_path / "m.jsonl"),
                                       ("attend", "--pair", tmp_path / "a.json"),
                                       ("demo", "--pairs", tmp_path / "demo")):
                assert run([command, flag, str(pairs), "--tfidf", str(tfidf_file),
                            "--out", str(out)]) == 2, (command, field)
                captured = capsys.readouterr()
                assert captured.err.startswith(f"error: {pairs}: line 2: record ")
                assert f"{field} is not valid text" in captured.err and captured.out == ""
                assert not out.exists() and staging_leftovers(tmp_path) == []

    def test_byte_identical_across_runs(self, tmp_path, pairs_file, tfidf_file):
        first = tmp_path / "run1"
        second = tmp_path / "run2"
        for out_dir in (first, second):
            assert run(["demo", "--pairs", str(pairs_file), "--tfidf", str(tfidf_file),
                        "--seed", "42", "--out", str(out_dir)]) == 0
        names = sorted(p.name for p in first.iterdir())
        assert names == sorted(p.name for p in second.iterdir())
        for name in names:
            assert file_hash(first / name) == file_hash(second / name)

    def test_tfidf_read_once_per_run(self, tmp_path, tfidf_file, monkeypatch):
        import dafa.cli as cli

        pairs = tmp_path / "three.jsonl"
        record = json.dumps({"a": conllu_block(PAIR_A), "b": conllu_block(PAIR_B)})
        pairs.write_text("\n".join([record] * 3) + "\n", encoding="utf-8")
        loads = []
        load = TfIdfModel.from_json
        monkeypatch.setattr(cli.TfIdfModel, "from_json",
                            lambda text: loads.append(text) or load(text))
        assert run(["demo", "--pairs", str(pairs), "--tfidf", str(tfidf_file),
                    "--out", str(tmp_path / "d")]) == 0
        assert loads == [tfidf_file.read_text(encoding="utf-8")]

    # the longest file name is `<stem>.sem.h1.csv`: 123 two-byte characters make it 257 bytes
    @pytest.mark.parametrize("ids", [["dup", "dup"], [""], ["x/y", "x_y"], ["."], [".."],
                                     [".hidden"], ["../up"], ["good", "bad\x00id"],
                                     ["good", "bad\ud800"], ["good", "x" * 300],
                                     ["good", "\u00e9" * 123]],
                             ids=["duplicate", "empty", "sanitised-collision", "dot", "dot-dot",
                                  "hidden", "parent-path", "nul", "lone-surrogate", "300-chars",
                                  "257-byte-name"])
    def test_bad_pair_ids_rejected_before_writing(self, tmp_path, capsys, ids):
        pairs = tmp_path / "pairs.jsonl"
        records = [json.dumps({"id": pid, "a": conllu_block(PAIR_A), "b": conllu_block(PAIR_B)})
                   for pid in ids]
        pairs.write_text("\n".join(records) + "\n", encoding="utf-8")
        out_dir = tmp_path / "demo"
        # an id no UTF-8 output can hold is refused as bad text when its record is read
        unencodable = any("\ud800" in pid for pid in ids)
        assert run(["demo", "--pairs", str(pairs), "--out", str(out_dir)]) == (
            2 if unencodable else 1)
        assert ("'id' is not valid text" if unencodable else "pair id") in capsys.readouterr().err
        assert not out_dir.exists()

    def test_longest_file_name_of_255_bytes_is_written(self, tmp_path):
        pair_id = "x" * (255 - len(".sem.h1.csv"))
        pairs = tmp_path / "pairs.jsonl"
        pairs.write_text(json.dumps({"id": pair_id, "a": conllu_block(PAIR_A),
                                     "b": conllu_block(PAIR_B)}) + "\n", encoding="utf-8")
        out_dir = tmp_path / "demo"
        assert run(["demo", "--pairs", str(pairs), "--out", str(out_dir)]) == 0
        assert (out_dir / f"{pair_id}.sem.h1.csv").exists()

    @pytest.mark.parametrize("flag, value", [("--theta", "-1"), ("--heads", "0"),
                                             ("--d-hid", "0"), ("--d-model", "0")])
    def test_bad_settings_rejected_before_writing(self, tmp_path, capsys, pairs_file, flag,
                                                  value):
        out_dir = tmp_path / "demo"
        assert run(["demo", "--pairs", str(pairs_file), flag, value, "--out", str(out_dir)]) == 1
        field = flag[2:].replace("-", "_")
        assert capsys.readouterr().err.startswith(f"error: {field} must be "), field
        assert not out_dir.exists()

    def test_inputs_not_mutated(self, tmp_path, pairs_file, tfidf_file):
        before = (file_hash(pairs_file), file_hash(tfidf_file))
        assert run(["demo", "--pairs", str(pairs_file), "--tfidf", str(tfidf_file),
                    "--out", str(tmp_path / "d")]) == 0
        assert (file_hash(pairs_file), file_hash(tfidf_file)) == before


def seeded_argv(command, pairs_file, signals):
    """`command` with its one input, every seeded setting at its default."""
    return {
        "demo": ["demo", "--pairs", str(pairs_file)],
        "attend": ["attend", "--pair", str(pairs_file)],
        "fuse": ["fuse", "--signals", str(signals)],
        "gradcheck": ["gradcheck", "--op", "fuse"],
    }[command]


# the ids these cases have always had, so that test reports stay comparable; in the
# DAFA_SEED cases a negative value in the environment neither trips nor masks the flag's check
@pytest.mark.parametrize("command, env", [
    ("demo", None), ("demo", "-3"), ("attend", None), ("attend", "-3"), ("fuse", None),
    ("fuse", "-3"), ("gradcheck", None),
], ids=lambda value: "DAFA_SEED--3" if value == "-3" else value if value else "--seed-None")
def test_negative_seed_rejected_before_writing(tmp_path, capsys, monkeypatch, pairs_file,
                                               command, env):
    if env is not None:
        monkeypatch.setenv("DAFA_SEED", env)
    signals = tmp_path / "signals.json"
    signals.write_text(ZERO_SIGNALS, encoding="utf-8")
    out = tmp_path / "out"
    assert run(seeded_argv(command, pairs_file, signals) + ["--out", str(out), "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: --seed must be a non-negative integer, got -1\n"
    assert captured.out == ""
    assert not out.exists()


def test_seed_comes_only_from_the_flag(tmp_path, monkeypatch, pairs_file):
    # no environment variable reaches the seed: each seeded command writes the same bytes with
    # DAFA_SEED set, to a valid seed or to none, as without it
    signals = tmp_path / "signals.json"
    assert run(["attend", "--pair", str(pairs_file), "--out", str(signals)]) == 0

    def outputs(name):
        written = {}
        for command in ("demo", "attend", "fuse", "gradcheck"):
            out = tmp_path / name / command
            out.parent.mkdir(exist_ok=True)
            assert run(seeded_argv(command, pairs_file, signals) + ["--out", str(out)]) == 0
            written[command] = ({path.name: path.read_bytes() for path in out.iterdir()}
                                if out.is_dir() else out.read_bytes())
        return written

    unset = outputs("unset")
    for env in ("7", "-3", "abc"):
        monkeypatch.setenv("DAFA_SEED", env)
        assert outputs(env) == unset, env


# a root with three same-form dependents, paired with itself: S grows with alpha
STAR = [("root", 0, "root"), ("x", 1, "dep"), ("x", 1, "dep"), ("x", 1, "dep")]


@pytest.fixture
def star_argv(tmp_path, tfidf_file):
    pairs = tmp_path / "star.jsonl"
    record = {"id": "star", "a": conllu_block(STAR), "b": conllu_block(STAR)}
    pairs.write_text(json.dumps(record) + "\n", encoding="utf-8")
    return {
        "matrix": ["matrix", "--pairs", str(pairs), "--tfidf", str(tfidf_file)],
        "attend": ["attend", "--pair", str(pairs)],
        "demo": ["demo", "--pairs", str(pairs)],
    }


# warnings are errors in this suite, so these also show that no numpy overflow warning escapes
@pytest.mark.parametrize("command", ["matrix", "attend", "demo"])
def test_overflowing_scores_fail_naming_the_pair(tmp_path, capsys, star_argv, command):
    out = tmp_path / "out"
    capsys.readouterr()  # drop what fitting the tf-idf fixture printed
    assert run(star_argv[command] + ["--alpha", "1e308", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error: pair 'star': MF is not finite: M + S or its weighting "
                            "overflows; lower alpha or theta\n")
    assert captured.out == ""
    # demo fails inside its pair loop, but its files stay staged until every pair is done
    assert not out.exists()
    assert staging_leftovers(tmp_path) == []


def test_failing_later_pair_leaves_no_output(tmp_path, capsys, tfidf_file):
    # no form in common, so S is 0 and the first pair's MF stays finite
    records = [{"id": "fine", "a": conllu_block([("one", 0, "root")]),
                "b": conllu_block([("two", 0, "root")])},
               {"id": "star", "a": conllu_block(STAR), "b": conllu_block(STAR)}]
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    argv = ["demo", "--pairs", str(pairs), "--tfidf", str(tfidf_file), "--alpha", "1e308"]
    # a new --out's missing parents are staged with it, so a failing run makes none of them
    out = tmp_path / "nested" / "a" / "out"
    assert run(argv + ["--out", str(out)]) == 1
    assert "pair 'star'" in capsys.readouterr().err
    assert not (tmp_path / "nested").exists() and staging_leftovers(tmp_path) == []
    # a passing run makes them all
    assert run(argv[:-2] + ["--out", str(out)]) == 0
    assert (out / "fine.json").is_file() and (out / "star.json").is_file()
    assert staging_leftovers(tmp_path) == []
    shutil.rmtree(out)
    # a failing run leaves an existing --out as it was
    out.mkdir()
    (out / "fine.json").write_text("old", encoding="utf-8")
    assert run(argv + ["--out", str(out)]) == 1
    assert [p.name for p in out.iterdir()] == ["fine.json"]
    assert (out / "fine.json").read_text(encoding="utf-8") == "old"
    assert staging_leftovers(out.parent) == []


def test_matrix_failing_later_pair_leaves_out_as_it_was(tmp_path, capsys, tfidf_file):
    # records are streamed to a staged file that replaces --out only when the last is written
    records = [{"id": "fine", "a": conllu_block([("one", 0, "root")]),
                "b": conllu_block([("two", 0, "root")])},
               {"id": "star", "a": conllu_block(STAR), "b": conllu_block(STAR)}]
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    argv = ["matrix", "--pairs", str(pairs), "--tfidf", str(tfidf_file), "--out"]
    out = tmp_path / "matrices.jsonl"
    for existing in (False, True):
        if existing:
            out.write_text("old", encoding="utf-8")
        assert run(argv + [str(out), "--alpha", "1e308"]) == 1
        assert "pair 'star'" in capsys.readouterr().err
        assert (out.read_text(encoding="utf-8") == "old") if existing else not out.exists()
        assert staging_leftovers(tmp_path) == []
    # a run that completes replaces --out
    assert run(argv + [str(out)]) == 0
    assert [json.loads(line)["id"] for line in out.read_text(encoding="utf-8").splitlines()] == [
        "fine", "star"]
    assert staging_leftovers(tmp_path) == []


def fail_on_draws(monkeypatch):
    """Make every seeded parameter draw and gradient check fail the test."""
    for owner, name in ((AttnParams, "init"), (EmbeddingTable, "build"), (FusionParams, "init"),
                        (cli, "check")):
        monkeypatch.setattr(owner, name, lambda *a, _name=name, **k: pytest.fail(f"{_name} ran"))


OUT_COMMANDS = ["tfidf-fit", "matrix", "attend", "fuse", "gradcheck", "demo"]


@pytest.fixture
def out_commands(tmp_path, corpus_file, pairs_file, tfidf_file):
    """Each command that writes --out: its argv up to --out, and the (owner, name) of its work."""
    signals = tmp_path / "signals.json"
    signals.write_text(json.dumps({"sem": [[0.5, -1.0], [2.0, 0.25]],
                                   "dep": [[1.0, 0.0], [-0.5, 3.0]]}), encoding="utf-8")
    pairs, tfidf = ["--pairs", str(pairs_file)], ["--tfidf", str(tfidf_file)]
    return {
        "tfidf-fit": (["tfidf", "fit", "--corpus", str(corpus_file)], (TfIdfModel, "fit")),
        "matrix": (["matrix", *pairs, *tfidf], (cli, "base_matrix")),
        "attend": (["attend", "--pair", str(pairs_file), *tfidf], (cli, "pair_attention")),
        "fuse": (["fuse", "--signals", str(signals)], (cli, "fuse")),
        "gradcheck": (["gradcheck", "--op", "fuse", "--seed", "2"], (cli, "check")),
        "demo": (["demo", *pairs, *tfidf], (cli, "dafa_layer")),
    }


def out_entry(directory, command):
    """The --out to give `command` in `directory`, and the file it writes there: demo's --out is
    a directory, which gains p0.json among its files; every other --out is that file."""
    if command != "demo":
        return directory / "out.json", directory / "out.json"
    (directory / "demo").mkdir()
    return directory / "demo", directory / "demo" / "p0.json"


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_out_failing_after_the_text_is_built_leaves_out_as_it_was(tmp_path, capsys, monkeypatch,
                                                                  out_commands, command):
    # every output is staged and renamed onto --out; a failing rename leaves --out's old bytes,
    # no staging directory and nothing on stdout
    argv, _ = out_commands[command]
    out, entry = out_entry(tmp_path, command)
    entry.write_bytes(b"old")

    def fail(*args):
        raise OSError("injected")

    monkeypatch.setattr(cli.os, "replace", fail)
    capsys.readouterr()
    assert run(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: injected\n")
    assert entry.read_bytes() == b"old"
    assert staging_leftovers(tmp_path) == [] and staging_leftovers(entry.parent) == []


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_out_that_is_no_file_refused_before_any_work(tmp_path, capsys, monkeypatch, out_commands,
                                                     command):
    # an --out that is a directory or a FIFO (which a rename would replace), or that is in no
    # directory, exits 2 naming it, before any work; demo's --out is a directory, made if absent
    argv, (owner, name) = out_commands[command]
    monkeypatch.setattr(owner, name, lambda *a, **k: pytest.fail("computed"))
    fail_on_draws(monkeypatch)
    os.mkfifo(tmp_path / "fifo")
    if command == "demo":
        (tmp_path / "file").write_bytes(b"old")
        bad_outs, what = (tmp_path / "fifo", tmp_path / "file"), "exists and is not a directory"
    else:
        bad_outs = (tmp_path, tmp_path / "fifo", tmp_path / "absent" / "out.json")
        what = "exists and is not a regular file, or is in no directory"
    capsys.readouterr()
    for bad in bad_outs:
        assert run(argv + ["--out", str(bad)]) == 2
        assert capsys.readouterr() == ("", f"error: --out {bad}: {what}\n")
    assert (tmp_path / "fifo").exists() and not (tmp_path / "absent").exists()
    assert staging_leftovers(tmp_path) == []


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_out_symlink_is_replaced_not_written_through(tmp_path, out_commands, command):
    argv, _ = out_commands[command]
    out, entry = out_entry(tmp_path, command)
    target = tmp_path / "target.txt"
    target.write_bytes(b"target")
    entry.symlink_to(target)
    fresh_dir = tmp_path / "fresh"
    fresh_dir.mkdir()
    fresh_out, fresh_entry = out_entry(fresh_dir, command)
    for path in (out, fresh_out):
        assert run(argv + ["--out", str(path)]) == 0
    assert not entry.is_symlink() and entry.read_bytes() == fresh_entry.read_bytes()
    assert target.read_bytes() == b"target"


@pytest.mark.parametrize("command", [command for command in OUT_COMMANDS if command != "demo"])
def test_out_link_out_of_its_directory_refused_before_any_work(tmp_path, capsys, monkeypatch,
                                                               out_commands, command):
    # a link that leads out of its directory, as /dev/stdout does to /proc/self/fd/1, would be
    # replaced by the rename, not written through: absolute, relative, chained through a link
    # beside it, or dangling, it exits 2 naming it, before any work, and is left as it was
    argv, (owner, name) = out_commands[command]
    monkeypatch.setattr(owner, name, lambda *a, **k: pytest.fail("computed"))
    fail_on_draws(monkeypatch)
    (tmp_path / "elsewhere").mkdir()
    target = tmp_path / "elsewhere" / "target.json"
    target.write_bytes(b"target")
    (tmp_path / "beside").symlink_to(target)
    capsys.readouterr()
    for link, to in (("absolute", target), ("relative", Path("elsewhere", "target.json")),
                     ("chained", Path("beside")), ("dangling", tmp_path / "elsewhere" / "no")):
        (tmp_path / link).symlink_to(to)
        assert run(argv + ["--out", str(tmp_path / link)]) == 2
        assert capsys.readouterr() == ("", f"error: --out {tmp_path / link}: is a link that "
                                           "leads out of its directory\n")
        assert os.readlink(tmp_path / link) == str(to)
    assert target.read_bytes() == b"target" and staging_leftovers(tmp_path) == []


# the call whose result a NaN is put in, the array of that result it goes in, and the refusal
NAN_SITES = {"attend": ("pair_attention", lambda result: result[1], "pair 'p0': 'sem_weights'"),
             "fuse": ("fuse", lambda result: result.fused, "'fused'"),
             "matrix": ("_combine_matrices", lambda result: result, "pair 'p1': 'MF'"),
             "demo": ("dafa_layer", lambda result: result.calibration, "pair 'p1': 'calibration'")}


@pytest.mark.parametrize("command", NAN_SITES)
def test_a_nan_in_what_is_written_leaves_out_as_it_was(tmp_path, capsys, monkeypatch,
                                                       out_commands, pairs_file, command):
    # the writer refuses a non-finite array before writing it; matrix and demo meet the NaN in
    # their second pair, after the first is written into the staged output
    record = json.loads(pairs_file.read_text(encoding="utf-8"))
    with pairs_file.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps({**record, "id": "p1"}) + "\n")
    name, pick, refused = NAN_SITES[command]
    calls = []

    def poisoned(*args, _real=getattr(cli, name), **kwargs):
        result = _real(*args, **kwargs)
        calls.append(result)
        if len(calls) == (2 if command in ("matrix", "demo") else 1):
            pick(result).flat[-1] = np.nan
        return result

    monkeypatch.setattr(cli, name, poisoned)
    argv, _ = out_commands[command]
    out, entry = out_entry(tmp_path, command)
    for existing in (False, True):
        if existing:
            entry.write_bytes(b"old")
        calls.clear()
        capsys.readouterr()
        assert run(argv + ["--out", str(out)]) == 1
        assert capsys.readouterr().err.endswith(f"error: {refused} holds a NaN or an infinity, "
                                                "which JSON cannot hold\n")
        assert (entry.read_bytes() == b"old") if existing else not entry.exists()
        if command == "demo":
            assert [path.name for path in out.iterdir()] == (["p0.json"] if existing else [])
        assert staging_leftovers(tmp_path) == [] and staging_leftovers(entry.parent) == []


@pytest.mark.parametrize("command", ["attend", "demo"])
def test_pair_over_the_layer_budget_rejected_before_any_work(tmp_path, capsys, monkeypatch,
                                                             tfidf_file, command):
    # the star pair packs to L = 11, the pair before it to L = 5, which the first two budgets
    # below admit. attend uses its file's first record, so its file holds the star pair alone
    records = [{"id": "fine", "a": conllu_block([("one", 0, "root")]),
                "b": conllu_block([("two", 0, "root")])},
               {"id": "star", "a": conllu_block(STAR), "b": conllu_block(STAR)}]
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text("".join(json.dumps(r) + "\n" for r in records[command == "attend":]),
                     encoding="utf-8")
    computed = []
    monkeypatch.setattr(cli, "pair_attention", lambda *a: computed.append(a))
    monkeypatch.setattr(cli, "dafa_layer", lambda *a, **k: computed.append(a))
    fail_on_draws(monkeypatch)
    out = tmp_path / "out"
    flag = "--pair" if command == "attend" else "--pairs"
    argv = [command, flag, str(pairs), "--tfidf", str(tfidf_file), "--out", str(out)]
    # at L = 11 the layer's (L, L) arrays take (2·heads + 3.5)·8·L² bytes, 7,260 at 2 heads and
    # 11,132 at 4; the default flags' draws and products add 1,648 cells at 2 heads and 2,944 at
    # 4, and demo's fusion params 740 more. The default 2 heads, under a budget 1 byte short;
    # 4 heads, under one that admits L = 11 at 2 heads, to the byte; then flag-sized weights
    # under the real budget, which are refused before any pair is sized, naming the flags: the
    # 2·1,000,000·(2·1,000,000 + 8) cells of AttnParams, and demo's 322 fusion cells at L = 0.
    # Last, --d-model 100 under the first budget, over which the star pair (and demo's fine
    # pair) is too: the flags are checked first, so the refusal names them and no pair
    d_hid = ", d_hid = 8" if command == "demo" else ""
    two, four, huge, wide = ((20_444, 34_684, "32,000,128,000,000", "38,400")
                             if command == "attend" else
                             (26_364, 40_604, "32,000,128,002,576", "40,976"))
    star = "pair 'star': packed length L = 11 (n = 4, m = 4)"
    for extra_argv, budget, message in (
            ([], two - 1, f"{star} with heads = 2, d_model = 16, d_k = 8, d_v = 8{d_hid} "
                          f"needs about {two:,}"),
            (["--heads", "4"], two, f"{star} with heads = 4, d_model = 16, d_k = 8, d_v = 8{d_hid} "
                                    f"needs about {four:,}"),
            (["--d-model", "1000000", "--d-k", "1000000"], 2 ** 30,
             "drawing the weights for --heads 2, --d-model 1000000, --d-k 1000000, --d-v 8"
             f"{', --d-hid 8' if d_hid else ''} needs about {huge}"),
            (["--d-model", "100"], two - 1,
             "drawing the weights for --heads 2, --d-model 100, --d-k 8, --d-v 8"
             f"{', --d-hid 8' if d_hid else ''} needs about {wide}")):
        monkeypatch.setattr(pipeline, "MAX_LAYER_BYTES", budget)
        assert run(argv + extra_argv) == 1, extra_argv
        assert capsys.readouterr().err == (f"error: {message} bytes, over the budget of "
                                           f"{budget:,} bytes\n")
        assert computed == [] and not out.exists() and staging_leftovers(tmp_path) == []


def chain_pairs(path, sizes):
    """A JSONL file of pairs of one-form chains, n and m tokens each, ids c0, c1, ...: M and MF
    are nonzero in every cell, S outside the roots' row and column, and MF's cells are
    full-precision floats under a model fitted on other words."""
    def chain(n):
        return conllu_block([("w", 0, "root")] + [("w", i, "dep") for i in range(1, n)])
    path.write_text("".join(json.dumps({"id": f"c{k}", "a": chain(n), "b": chain(m)}) + "\n"
                            for k, (n, m) in enumerate(sizes)), encoding="utf-8")
    return path


def test_matrix_over_the_budget_rejected_before_any_scoring(tmp_path, capsys, monkeypatch,
                                                            tfidf_file):
    # 36 bytes a cell of the largest record (6·5 = 30): 1,080 bytes, named after that pair;
    # records are written one at a time, so the smaller one adds nothing
    pairs = chain_pairs(tmp_path / "pairs.jsonl", [(2, 3), (6, 5)])
    for name in ("base_matrix", "subgraph_matrix"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name: pytest.fail(f"{_name} ran"))
    monkeypatch.setattr(pipeline, "MAX_LAYER_BYTES", 1_079)
    out = tmp_path / "matrices.jsonl"
    assert run(["matrix", "--pairs", str(pairs), "--tfidf", str(tfidf_file),
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: pair 'c1': matrix record of n = 6 by m = 5 cells, the largest of 2, needs about "
        "1,080 bytes, over the budget of 1,079 bytes\n")
    assert not out.exists()
    # a budget of 1,080 bytes admits them, to the byte
    monkeypatch.undo()
    monkeypatch.setattr(pipeline, "MAX_LAYER_BYTES", 1_080)
    assert run(["matrix", "--pairs", str(pairs), "--tfidf", str(tfidf_file),
                "--out", str(out)]) == 0
    assert len(out.read_text(encoding="utf-8").splitlines()) == 2


@pytest.mark.parametrize("sizes", [[(300, 300)], [(300, 300)] * 2])
def test_matrix_estimate_matches_a_measured_run(tmp_path, capsys, monkeypatch, tfidf_file, sizes):
    # numpy reports its array memory to tracemalloc
    pairs = chain_pairs(tmp_path / "pairs.jsonl", sizes)
    estimates = []
    monkeypatch.setattr(cli, "_check_budget", lambda source, needs: estimates.append(needs))
    tracemalloc.start()
    try:
        assert run(["matrix", "--pairs", str(pairs), "--tfidf", str(tfidf_file),
                    "--out", str(tmp_path / "matrices.jsonl")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (estimate,) = estimates
    assert 0.9 < peak / estimate < 1.1, peak / estimate


def test_attend_and_demo_peaks_match_their_estimates(tmp_path, capsys, monkeypatch):
    # two 199-token sentences pack to L = 401, on two lanes, run at one head to keep the traced
    # runs short. With the lanes in step the peak holds what the estimate counts; the bound holds
    # in any interleaving, so the run as the threads fall is under it
    rng = np.random.default_rng(5)
    vocab = [f"w{i}" for i in range(40)]
    record = {"id": "p", **{side: conllu_block([(t.form, t.head, t.deprel) for t in s.tokens])
                            for side, s in zip("ab", (random_sentence(rng, 199, vocab)
                                                      for _ in range(2)))}}
    pairs = tmp_path / "pairs.jsonl"
    pairs.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert TWO_LANE_MIN_LEN <= 401
    ratios = {}
    for command, flag in (("attend", "--pair"), ("demo", "--pairs")):
        estimates = []
        monkeypatch.setattr(cli, "_check_budget", lambda source, needs: estimates.append(needs))

        def command_run():
            assert run([command, flag, str(pairs), "--heads", "1",
                        "--out", str(tmp_path / command)]) == 0

        peaks = unforced_and_forced_peaks(monkeypatch, command_run)
        # the largest estimate is the pair's, which counts the flags' draws too
        ratios[command] = [round(peak / max(estimates), 2) for peak in peaks]
    assert all(unforced < 1.1 and 0.9 < forced < 1.1
               for unforced, forced in ratios.values()), ratios


def test_signals_over_the_fuse_budget_rejected_before_any_work(tmp_path, capsys, monkeypatch):
    # (2, 4, 3) signals need 1 (L, L) float64 array per slice in fuse, 2·8·4² = 256 bytes, and the
    # params seeded at d_hid = 8 draw 214 cells beside them: 256 + 1,712 = 1,968 bytes
    signals = tmp_path / "signals.json"
    signals.write_text(json.dumps({"sem": np.zeros((2, 4, 3)).tolist(),
                                   "dep": np.zeros((2, 4, 3)).tolist()}), encoding="utf-8")
    out = tmp_path / "fused.json"
    argv = ["fuse", "--signals", str(signals), "--out", str(out)]
    computed = []
    monkeypatch.setattr(cli, "fuse", lambda *a: computed.append(a))
    fail_on_draws(monkeypatch)
    # 1 byte short; then a flag-sized d_hid under the real budget
    for extra_argv, budget, needs in (([], 1_967, "d_hid = 8 needs about 1,968"),
                                      (["--d-hid", "1000000000000"], 2 ** 30,
                                       "d_hid = 1000000000000 needs about 128,000,000,000,944")):
        monkeypatch.setattr(pipeline, "MAX_LAYER_BYTES", budget)
        assert run(argv + extra_argv) == 1
        assert capsys.readouterr().err == (f"error: {signals}: signals of shape (2, 4, 3) with "
                                           f"{needs} bytes, over the budget of {budget:,} "
                                           "bytes\n")
        assert computed == [] and not out.exists()
    # a budget of 1,968 bytes admits them, to the byte
    monkeypatch.undo()
    monkeypatch.setattr(pipeline, "MAX_LAYER_BYTES", 1_968)
    assert run(argv) == 0
    assert np.shape(json.loads(out.read_text(encoding="utf-8"))["fused"]) == (2, 4, 3)


@pytest.mark.parametrize("argv, needs", [
    (["--op", "attend", "--d-seq", "20000"],
     "attend with d_seq = 20000, d_k = 3, d_v = 3, d_hid = 3 needs about 288,129,600,000,000"),
    (["--op", "fuse", "--d-seq", "3000", "--d-v", "2", "--d-hid", "2"],
     "fuse with d_seq = 3000, d_k = 3, d_v = 2, d_hid = 2 needs about 542,379,842,048"),
])
def test_gradcheck_over_the_work_budget_rejected_before_any_work(tmp_path, capsys, monkeypatch,
                                                                 argv, needs):
    # the oracle stacks 2·N·(N + d_seq²) cells for N perturbed scalars, for each op checked
    fail_on_draws(monkeypatch)
    out = tmp_path / "report.json"
    assert run(["gradcheck", *argv, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: gradcheck --op {needs} cells, over the budget of "
                            "8,589,934,592 cells\n")
    assert captured.out == "" and not out.exists()


def assert_out_of_memory_exits_1(tmp_path, capsys, monkeypatch, argv, owner, name, message,
                                 expected):
    """Fake a MemoryError(message) from owner.name: one error line, exit 1, no --out left."""
    out = tmp_path / "out"

    def out_of_memory(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(owner, name, out_of_memory)
    capsys.readouterr()  # drop what fitting the tf-idf fixture printed
    assert run(argv + ["--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {expected}\n"
    assert captured.out == ""
    assert not out.exists() and staging_leftovers(tmp_path) == []


# the allocation is faked: whether numpy refuses a real oversized array depends on the host's
# overcommit policy. demo and attend fail here before any pair is computed (AttnParams); a bare
# MemoryError, as Python raises it, carries no message
@pytest.mark.parametrize("command, owner, name, message", [
    ("demo", AttnParams, "init", "Unable to allocate 14.6 TiB for an array"),
    ("attend", AttnParams, "init", "Unable to allocate 14.6 TiB for an array"),
    ("fuse", FusionParams, "init", "Unable to allocate 7.28 TiB for an array"),
    ("gradcheck", cli, "check", ""),
])
def test_out_of_memory_exits_1_with_one_error_line(tmp_path, capsys, monkeypatch, pairs_file,
                                                   tfidf_file, command, owner, name, message):
    signals = tmp_path / "signals.json"
    signals.write_text(json.dumps({"sem": np.zeros((4, 3)).tolist(),
                                   "dep": np.zeros((4, 3)).tolist()}), encoding="utf-8")
    argv = {
        "demo": ["demo", "--pairs", str(pairs_file), "--tfidf", str(tfidf_file)],
        "attend": ["attend", "--pair", str(pairs_file), "--tfidf", str(tfidf_file)],
        "fuse": ["fuse", "--signals", str(signals)],
        "gradcheck": ["gradcheck", "--op", "attend"],
    }[command]
    assert_out_of_memory_exits_1(tmp_path, capsys, monkeypatch, argv, owner, name, message,
                                 message or "out of memory")


# inside demo's pair loop (the pair's FusionParams, then dafa_layer) and inside attend's
# pair_attention, the error line names the pair, as a ValueError there does
@pytest.mark.parametrize("command, owner, name, message", [
    ("demo", FusionParams, "init", ""),
    ("demo", pipeline, "fuse", "Unable to allocate 1.2 TiB for an array"),
    ("attend", pipeline, "multi_head_dafa", ""),
])
def test_out_of_memory_inside_a_pair_names_the_pair(tmp_path, capsys, monkeypatch, pairs_file,
                                                    tfidf_file, command, owner, name, message):
    flag = {"demo": "--pairs", "attend": "--pair"}[command]
    argv = [command, flag, str(pairs_file), "--tfidf", str(tfidf_file)]
    assert_out_of_memory_exits_1(tmp_path, capsys, monkeypatch, argv, owner, name, message,
                                 f"pair 'p0': {message or 'out of memory'}")


def test_out_of_memory_on_the_helper_lane_names_the_pair(tmp_path, capsys, monkeypatch):
    # a long pair runs its sem path on the helper thread; an error there reaches the caller as
    # it was raised, and the helper serves the next pair
    chain = [("w", 0, "root")] + [("w", i - 1, "dep") for i in range(2, 101)]
    pairs = tmp_path / "long.jsonl"
    pairs.write_text(json.dumps({"id": "long", "a": conllu_block(chain),
                                 "b": conllu_block(chain)}) + "\n", encoding="utf-8")
    (pair,) = read_pairs(pairs.read_text(encoding="utf-8"))
    assert build_layout(pair.a, pair.b).d_seq >= TWO_LANE_MIN_LEN
    sem_attention = attention.sem_attention

    def out_of_memory_on_the_helper(*args):
        if threading.current_thread() is not threading.main_thread():
            raise MemoryError("Unable to allocate 1.2 TiB for an array")
        return sem_attention(*args)

    monkeypatch.setattr(attention, "sem_attention", out_of_memory_on_the_helper)
    config = AttnConfig(d_model=16, heads=2, d_k=8, d_v=8, d_seq=203)
    layer_args = (pair.a, pair.b, TfIdfModel.fit([pair.a, pair.b]),
                  EmbeddingTable.build(pair.a.forms(), 16, 42), AttnParams.init(config, 42),
                  FusionParams.init(203, 8, 8, 42), config)
    with pytest.raises(MemoryError, match="^Unable to allocate 1.2 TiB for an array$"):
        dafa_layer(*layer_args)
    out = tmp_path / "demo"
    assert run(["demo", "--pairs", str(pairs), "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: pair 'long': Unable to allocate 1.2 TiB for an "
                                       "array\n")
    assert not out.exists() and staging_leftovers(tmp_path) == []
    monkeypatch.setattr(attention, "sem_attention", sem_attention)
    assert dafa_layer(*layer_args).sem_weights.shape == (2, 203, 203)
    assert run(["demo", "--pairs", str(pairs), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(
        ["long.json"] + [f"long.{path}.h{h}.csv" for path in ("sem", "dep") for h in (0, 1)])


def test_out_naming_a_file_rejected_before_any_pair(tmp_path, capsys, monkeypatch, pairs_file,
                                                    tfidf_file):
    out = tmp_path / "out"
    out.write_text("a file", encoding="utf-8")
    computed = []
    monkeypatch.setattr(cli, "dafa_layer", lambda *a, **k: computed.append(a))
    assert run(["demo", "--pairs", str(pairs_file), "--tfidf", str(tfidf_file),
                "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: --out {out}: exists and is not a directory\n"
    # a file among the missing --out's parents is named
    assert run(["demo", "--pairs", str(pairs_file), "--tfidf", str(tfidf_file),
                "--out", str(out / "a" / "demo")]) == 2
    assert capsys.readouterr().err == (f"error: --out {out / 'a' / 'demo'}: {out} exists and is "
                                       "not a directory\n")
    assert computed == [] and out.read_text(encoding="utf-8") == "a file"
    assert staging_leftovers(tmp_path) == []


@pytest.mark.parametrize("command", ["matrix", "attend", "demo"])
def test_theta_with_overflowing_double_rejected_before_writing(tmp_path, capsys, star_argv,
                                                               command):
    out = tmp_path / "out"
    assert run(star_argv[command] + ["--theta", "1e308", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: theta must be > 0 with 2 * theta finite, got 1e+308\n"
    assert not out.exists()


def test_parsed_defaults_are_the_library_defaults():
    parser = _build_parser()
    dep = DepMatrixConfig()
    assert (dep.theta, dep.alpha, dep.nu) == (2.0, 1.0, 0.5)
    for argv in (["matrix", "--pairs", "p", "--tfidf", "t", "--out", "o"],
                 ["attend", "--pair", "p", "--out", "o"],
                 ["demo", "--pairs", "p", "--out", "o"]):
        args = parser.parse_args(argv)
        assert DepMatrixConfig(theta=args.theta, alpha=args.alpha, nu=args.nu) == dep, argv[0]
    args = parser.parse_args(["gradcheck", "--op", "fuse"])
    sizes = GradCheckConfig(d_seq=args.d_seq, d_k=args.d_k, d_v=args.d_v, d_hid=args.d_hid)
    assert sizes == GradCheckConfig(4, 3, 3, 3)
    assert (args.tol, args.eps) == (DEFAULT_TOL, DEFAULT_EPS) == (1e-5, 1e-5)
    assert parser.parse_args(["demo", "--pairs", "p", "--out", "o"]).d_hid == DEFAULT_D_HID == 8
    assert parser.parse_args(["fuse", "--signals", "s", "--out", "o"]).d_hid == DEFAULT_D_HID


class TestArgumentErrors:
    def test_unknown_flag(self, capsys):
        assert run(["matrix", "--bogus", "x"]) == 2

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_main_exits_the_process_with_the_code_of_run(self, tmp_path):
        # the installed `dafa` script calls main(); a usage error there is exit 2 of the process
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run([sys.executable, "-m", "dafa.cli", "gradcheck", "--op", "fuse",
                                 "--d-k", "5"], capture_output=True, text=True, env=env,
                                cwd=tmp_path)
        assert result.returncode == 2
        assert (result.stdout, result.stderr) == ("", "error: --d-k does not apply to --op fuse\n")

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "tfidf" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["attend", "demo"])
    def test_help_shows_the_layer_size_defaults(self, capsys, command):
        assert run([command, "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        for flag, default in (("--d-model", 16), ("--heads", 2), ("--d-k", 8), ("--d-v", 8)):
            metavar = flag[2:].replace("-", "_").upper()
            assert re.search(rf"{flag} {metavar} [^-]*\(default {default}\)", text), flag

    # argparse keeps the last value of a repeated flag; here a second value, also under an
    # abbreviation, exits 2 before any input is read or output written
    @pytest.mark.parametrize("args, flag", [
        (["fuse", "--signals", "nope.json", "--signals", "{signals}", "--seed", "1", "--seed",
          "42", "--d-hid", "8", "--out", "{out}"], "--signals"),
        (["fuse", "--signals", "{signals}", "--se", "1", "--seed", "42", "--out", "{out}"],
         "--seed"),
        (["demo", "--pairs", "{pairs}", "--heads", "3", "--heads", "2", "--out", "{out}"],
         "--heads"),
        (["fuse", "--signals", "{signals}", "--seed", "1", "--seed", "42", "--out", "{out}"],
         "--seed"),
    ], ids=["fuse-signals-and-seed", "fuse-abbreviated-seed", "demo-heads", "fuse-seed"])
    def test_repeated_flag_rejected_before_writing(self, tmp_path, capsys, pairs_file, args,
                                                   flag):
        signals = tmp_path / "signals.json"
        signals.write_text(ZERO_SIGNALS, encoding="utf-8")
        out = tmp_path / "out"
        paths = {"signals": signals, "pairs": pairs_file, "out": out}
        assert run([arg.format(**paths) for arg in args]) == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: given more than once" in captured.err
        assert captured.out == ""
        assert not out.exists()

    # an empty path would name the working directory, which `demo --out` would write into and
    # `--tfidf` would read as no model; each path flag refuses it before anything is read
    @pytest.mark.parametrize("args, flag", [
        (["tfidf", "fit", "--corpus", "", "--out", "{out}"], "--corpus"),
        (["tfidf", "fit", "--corpus", "{corpus}", "--out", ""], "--out"),
        (["matrix", "--pairs", "", "--tfidf", "{tfidf}", "--out", "{out}"], "--pairs"),
        (["matrix", "--pairs", "{pairs}", "--tfidf", "", "--out", "{out}"], "--tfidf"),
        (["matrix", "--pairs", "{pairs}", "--tfidf", "{tfidf}", "--out", ""], "--out"),
        (["attend", "--pair", "", "--out", "{out}"], "--pair"),
        (["attend", "--pair", "{pairs}", "--tfidf", "", "--out", "{out}"], "--tfidf"),
        (["attend", "--pair", "{pairs}", "--out", ""], "--out"),
        (["fuse", "--signals", "", "--out", "{out}"], "--signals"),
        (["fuse", "--signals", "{signals}", "--params", "", "--out", "{out}"], "--params"),
        (["fuse", "--signals", "{signals}", "--out", ""], "--out"),
        (["gradcheck", "--op", "fuse", "--out", ""], "--out"),
        (["demo", "--pairs", "", "--out", "{out}"], "--pairs"),
        (["demo", "--pairs", "{pairs}", "--tfidf", "", "--out", "{out}"], "--tfidf"),
        (["demo", "--pairs", "{pairs}", "--ou", ""], "--out"),
    ], ids=["tfidf-fit-corpus", "tfidf-fit-out", "matrix-pairs", "matrix-tfidf", "matrix-out",
            "attend-pair", "attend-tfidf", "attend-out", "fuse-signals", "fuse-params",
            "fuse-out", "gradcheck-out", "demo-pairs", "demo-tfidf", "demo-abbreviated-out"])
    def test_empty_path_rejected_naming_its_flag(self, tmp_path, capsys, monkeypatch,
                                                 corpus_file, pairs_file, tfidf_file, args, flag):
        signals = tmp_path / "signals.json"
        signals.write_text(ZERO_SIGNALS, encoding="utf-8")
        paths = {"corpus": corpus_file, "pairs": pairs_file, "tfidf": tfidf_file,
                 "signals": signals, "out": tmp_path / "out"}
        fail_on_draws(monkeypatch)
        for owner, name in ((cli, "_load"), (TfIdfModel, "fit")):  # every input read, every fit
            monkeypatch.setattr(owner, name, lambda *a, _name=name, **k: pytest.fail(_name))
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        capsys.readouterr()
        assert run([arg.format(**paths) for arg in args]) == 2
        captured = capsys.readouterr()
        assert captured.err.endswith(f"error: argument {flag}: must not be empty\n")
        assert captured.out == ""
        assert list(work.iterdir()) == [] and not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["attend", "demo"])
def test_attend_and_demo_check_their_inputs_in_one_order(tmp_path, capsys, pairs_file, command):
    # the input files, then the settings, then the size flags' budget: under weights far over
    # the budget, a missing --tfidf and a bad --theta get one answer from both commands
    missing = tmp_path / "missing.json"
    flag = "--pair" if command == "attend" else "--pairs"
    argv = [command, flag, str(pairs_file), "--d-model", "1000000", "--d-k", "1000000",
            "--theta", "-1", "--out", str(tmp_path / "out")]
    for extra, code, first in (
            (["--tfidf", str(missing)], 2,
             f"error: {missing}: [Errno 2] No such file or directory: '{missing}'"),
            ([], 1, "error: theta must be > 0 with 2 * theta finite, got -1.0")):
        assert run(argv + extra) == code
        assert capsys.readouterr().err.splitlines()[0] == first
    assert not (tmp_path / "out").exists()
