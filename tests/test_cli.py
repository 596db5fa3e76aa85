"""CLI tests: every subcommand end-to-end on temp files, exit codes, determinism."""

import hashlib
import json

import numpy as np
import pytest

from conftest import conllu_block
from dafa.attention import AttnConfig, AttnParams
from dafa.cli import run
from dafa.conllu import read_pairs
from dafa.depmatrix import DepMatrixConfig, base_matrix, final_matrix, subgraph_matrix
from dafa.fusion import FusionParams
from dafa.pipeline import EmbeddingTable, build_layout, dafa_layer, read_heatmap_csv
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

    def test_config_file_overrides(self, tmp_path, pairs_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"heads": 3, "d_v": 4}), encoding="utf-8")
        out = tmp_path / "attend.json"
        assert run(["attend", "--pair", str(pairs_file), "--config", str(cfg),
                    "--out", str(out)]) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        assert len(data["sem_weights"]) == 3
        assert np.asarray(data["sem"][0]).shape[1] == 4

    def test_unknown_config_key_rejected(self, tmp_path, capsys, pairs_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"head": 5, "d_v": 4}), encoding="utf-8")
        out = tmp_path / "attend.json"
        assert run(["attend", "--pair", str(pairs_file), "--config", str(cfg),
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}:")
        assert "['head']" in err
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


class TestFuseCommand:
    def test_fuse_from_seed(self, tmp_path):
        rng = np.random.default_rng(3)
        signals = tmp_path / "signals.json"
        signals.write_text(json.dumps({
            "sem": rng.uniform(-1, 1, (4, 3)).tolist(),
            "dep": rng.uniform(-1, 1, (4, 3)).tolist(),
        }), encoding="utf-8")
        out = tmp_path / "fused.json"
        assert run(["fuse", "--signals", str(signals), "--params", "11",
                    "--d-hid", "3", "--out", str(out)]) == 0
        data = json.loads(out.read_text(encoding="utf-8"))
        gates = np.asarray(data["fusion_gate"])
        assert gates.shape == (4,)
        assert np.all((gates > 0) & (gates < 1))
        assert np.all(np.abs(np.asarray(data["fused"])) < 1)

    def test_fuse_from_params_file(self, tmp_path):
        params = FusionParams.init(3, 2, 2, seed=8)
        params_path = tmp_path / "params.json"
        params_path.write_text(params.to_json(), encoding="utf-8")
        signals = tmp_path / "signals.json"
        signals.write_text(json.dumps({
            "sem": np.zeros((3, 2)).tolist(),
            "dep": np.zeros((3, 2)).tolist(),
        }), encoding="utf-8")
        out = tmp_path / "fused.json"
        assert run(["fuse", "--signals", str(signals), "--params", str(params_path),
                    "--out", str(out)]) == 0

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


@pytest.mark.parametrize("command, flag, text", [
    ("fuse", "--params", _params_with(b_dep_score=[0.1])),
    ("fuse", "--params", _params_with(w_dep_proj={"a": 1})),
    ("fuse", "--signals", json.dumps({"sem": {"0": [0.0]}, "dep": {"0": [0.0]}})),
    ("fuse", "--signals", json.dumps({"sem": [["x", "y"]], "dep": [["x", "y"]]})),
    ("attend", "--config", json.dumps({"d_model": [16]})),
    ("attend", "--config", json.dumps({"heads": 1.7})),
], ids=["params-list-scalar", "params-dict-array", "signals-dict", "signals-non-numeric",
        "config-list", "config-float"])
def test_malformed_input_file_is_input_error(tmp_path, capsys, pairs_file, command, flag, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "out.json"
    if command == "fuse":
        signals = tmp_path / "signals.json"
        signals.write_text(ZERO_SIGNALS, encoding="utf-8")
        argv = ["fuse", "--signals", str(signals), "--params", "3", flag, str(bad)]
    else:
        argv = ["attend", "--pair", str(pairs_file), flag, str(bad)]
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:")
    assert "Traceback" not in err
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

    def test_report_written_to_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert run(["gradcheck", "--op", "fuse", "--seed", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))[0]["op_name"] == "fuse"


class TestDemoCommand:
    def test_outputs_parse_and_roundtrip(self, tmp_path, pairs_file, tfidf_file):
        out_dir = tmp_path / "demo"
        assert run(["demo", "--pairs", str(pairs_file), "--tfidf", str(tfidf_file),
                    "--seed", "42", "--out", str(out_dir)]) == 0
        # the same layer in process, with demo's default sizes
        pair = read_pairs(pairs_file.read_text(encoding="utf-8"))[0]
        layout = build_layout(pair.a, pair.b)
        config = AttnConfig(d_model=16, heads=2, d_k=8, d_v=8, d_seq=layout.d_seq)
        expected = dafa_layer(
            pair.a, pair.b, TfIdfModel.from_json(tfidf_file.read_text(encoding="utf-8")),
            EmbeddingTable.build(pair.a.forms() + pair.b.forms(), 16, 42),
            AttnParams.init(config, 42), FusionParams.init(layout.d_seq, 8, 8, 42),
            config, DepMatrixConfig(), pair_id=pair.pair_id,
        )
        for head in range(config.heads):
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

    @pytest.mark.parametrize("ids", [["dup", "dup"], [""], ["x/y", "x_y"], ["."], [".."],
                                     [".hidden"], ["../up"]],
                             ids=["duplicate", "empty", "sanitised-collision", "dot", "dot-dot",
                                  "hidden", "parent-path"])
    def test_bad_pair_ids_rejected_before_writing(self, tmp_path, capsys, ids):
        pairs = tmp_path / "pairs.jsonl"
        records = [json.dumps({"id": pid, "a": conllu_block(PAIR_A), "b": conllu_block(PAIR_B)})
                   for pid in ids]
        pairs.write_text("\n".join(records) + "\n", encoding="utf-8")
        out_dir = tmp_path / "demo"
        assert run(["demo", "--pairs", str(pairs), "--out", str(out_dir)]) == 1
        assert "pair id" in capsys.readouterr().err
        assert not out_dir.exists()

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

    def test_env_seed_override(self, tmp_path, pairs_file, tfidf_file, monkeypatch):
        monkeypatch.setenv("DAFA_SEED", "7")
        env_dir = tmp_path / "env"
        assert run(["demo", "--pairs", str(pairs_file), "--tfidf", str(tfidf_file),
                    "--out", str(env_dir)]) == 0
        monkeypatch.delenv("DAFA_SEED")
        explicit_dir = tmp_path / "explicit"
        assert run(["demo", "--pairs", str(pairs_file), "--tfidf", str(tfidf_file),
                    "--seed", "7", "--out", str(explicit_dir)]) == 0
        for name in sorted(p.name for p in env_dir.iterdir()):
            assert file_hash(env_dir / name) == file_hash(explicit_dir / name)

    def test_non_integer_env_seed_named_in_error(self, tmp_path, capsys, pairs_file,
                                                 monkeypatch):
        monkeypatch.setenv("DAFA_SEED", "abc")
        out_dir = tmp_path / "demo"
        assert run(["demo", "--pairs", str(pairs_file), "--out", str(out_dir)]) == 1
        assert capsys.readouterr().err == "error: DAFA_SEED must be an integer, got 'abc'\n"
        assert not out_dir.exists()


class TestArgumentErrors:
    def test_unknown_flag(self, capsys):
        assert run(["matrix", "--bogus", "x"]) == 2

    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_help_exits_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "tfidf" in capsys.readouterr().out
