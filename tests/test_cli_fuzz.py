"""Seeded mutation fuzz of the reading commands: randomly edited copies of `sample/` make
`tfidf fit`, `matrix`, `attend` and `demo` exit 0, 1 or 2, never raise, and leave no output
behind after a failure; `fuse` reads every file that `attend` writes."""

import random
from pathlib import Path

import pytest

from dafa.cli import run

SAMPLE = Path(__file__).resolve().parent.parent / "sample"
CASES, BLOCKS = 200, 10

# bytes that move a CoNLL-U or JSON parser onto another path
TOKENS = [b"\t", b"\n", b"0", b"1", b"9", b"-1", b"99", b"1e308", b"NaN", b"_", b'"', b",", b"\\",
          b"{}", b"[]", b"null", b"\\u0000", b"\\ud800", b"#", b"\xff", b"\x00", b" "]


def _edit(rng, data: bytes) -> bytes:
    """One random byte or line edit."""
    kind = rng.randrange(6)
    if kind < 4:
        at = rng.randrange(len(data) + 1)
        if kind == 0:  # overwrite one byte
            return data[:at] + bytes([rng.randrange(256)]) + data[at + 1:]
        if kind == 1:  # insert a token
            return data[:at] + rng.choice(TOKENS) + data[at:]
        if kind == 2:  # delete a run of bytes
            return data[:at] + data[at + rng.randint(1, 8):]
        return data[:at]  # truncate
    lines = data.split(b"\n")
    i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
    if kind == 4:  # delete or duplicate a line
        lines[i:i + 1] = [] if rng.random() < 0.5 else [lines[i], lines[i]]
    else:  # swap two lines
        lines[i], lines[j] = lines[j], lines[i]
    return b"\n".join(lines)


def _mutated_sample(seed: int) -> dict[str, bytes]:
    """`sample/`'s files with one to three edits in one of them, drawn from `seed`."""
    rng = random.Random(seed)
    files = {p.name: p.read_bytes() for p in sorted(SAMPLE.iterdir())}
    name = rng.choice(sorted(files))
    for _ in range(rng.randint(1, 3)):
        files[name] = _edit(rng, files[name])
    return files


@pytest.fixture(scope="module")
def clean_tfidf(tmp_path_factory):
    path = tmp_path_factory.mktemp("clean") / "tfidf.json"
    assert run(["tfidf", "fit", "--corpus", str(SAMPLE / "corpus.conllu"),
                "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("block", range(BLOCKS))
def test_edited_sample_never_crashes_or_leaves_output(tmp_path, capsys, clean_tfidf, block):
    for seed in range(block, CASES, BLOCKS):
        case = tmp_path / f"case{seed}"
        case.mkdir()
        for name, data in _mutated_sample(seed).items():
            (case / name).write_bytes(data)
        corpus, pairs = case / "corpus.conllu", case / "pairs.jsonl"
        fitted = case / "tfidf.json"
        commands = [
            ["tfidf", "fit", "--corpus", str(corpus), "--out", str(fitted)],
            ["matrix", "--pairs", str(pairs), "--tfidf", None, "--out", str(case / "m.jsonl")],
            ["attend", "--pair", str(pairs), "--tfidf", None, "--out", str(case / "a.json")],
            ["demo", "--pairs", str(pairs), "--tfidf", None, "--out", str(case / "demo")],
        ]
        for argv in commands:
            # the model fitted on the edited corpus when that fit succeeded, else the clean one
            tfidf = str(fitted if fitted.exists() else clean_tfidf)
            argv = [tfidf if arg is None else arg for arg in argv]
            code = run(argv)
            assert code in (0, 1, 2), (seed, argv[0], code)
            if code != 0:
                assert not Path(argv[-1]).exists(), (seed, argv[0], capsys.readouterr().err)
            elif argv[0] == "attend":
                assert run(["fuse", "--signals", argv[-1], "--out", str(case / "f.json")]) == 0, \
                    (seed, capsys.readouterr().err)
        assert not [p for p in case.iterdir() if p.name.startswith(".")], seed
        capsys.readouterr()
