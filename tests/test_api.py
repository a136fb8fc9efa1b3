"""The package's public name list, its import contract and the README's
Python API example and CLI quick start."""

import io
import os
import pickle
import re
import shlex
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from functools import partial
from pathlib import Path

import tdsvkit
from conftest import child_env, write_labeled_set
from tdsvkit import tsvio
from tdsvkit.errors import ParseError, TdsvError

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# tdsvkit.__all__, sorted: a name may move between modules, not drop out.
PUBLIC_NAMES = [
    "ALL", "BadHeader", "BadLabel", "BadRepCount", "ConfigInvalid", "DcfParams",
    "DegenerateVector", "DimMismatch", "DimensionMismatch", "DuplicateId", "EPS",
    "EmbeddingTable", "EmptyReference", "EmptySide", "EnrollEntry", "ErrorRates", "GateConfig",
    "GateOutcome", "LABEL_CODES", "MalformedLine", "MissingModel", "MissingPhrase",
    "MissingSpace", "MissingTranscript", "NoNonTargets", "NoTargets", "ParseError", "Phrase",
    "REPS_PER_MODEL", "SUBSETS", "ScoreColumns", "ScoreRun", "SimConfig", "SpaceSpec",
    "SubsetMode", "SyntheticDataset", "TC_VS_IC", "TC_VS_IW", "TC_VS_TW", "TdsvError",
    "Transcript", "TrialColumns", "TrialLabel", "UNLABELED", "UnlabeledRecords",
    "UnparseableFloat", "__version__", "as_embedding", "build_enrollment", "cer",
    "corrupt_transcript", "dcf", "derive_seed", "det_points", "edit_distance", "eer", "enroll",
    "gate", "gen_dataset", "gen_speakers", "gen_utterance", "l2_normalize", "min_dcf",
    "normalize_text", "score_all", "select_subset", "split_scores", "sweep", "validate_labels",
]


def _loaded_after(statement, roots=("tdsvkit",)):
    """The modules under roots a fresh interpreter holds after running
    statement; whatever the statement prints comes first."""
    code = f"import sys; {statement}; print(*sorted(m for m in sys.modules if m.split('.')[0] in {roots!r}))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=child_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_every_exported_name_resolves_once():
    repeated = [name for name, count in Counter(tdsvkit.__all__).items() if count > 1]
    unresolved = [name for name in tdsvkit.__all__ if not hasattr(tdsvkit, name)]
    assert (repeated, unresolved) == ([], [])


def test_readme_python_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    assert capsys.readouterr().out


def test_readme_cli_quick_start_runs(tmp_path):
    # each command of the block, as `python -m tdsvkit.cli`, in an empty
    # directory: every one exits 0, and every file it names is there after
    readme = README.read_text(encoding="utf-8")
    [block] = re.findall(r"^## CLI quick start\n\n```sh\n(.*?)^```", readme, re.M | re.S)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [words for words in map(partial(shlex.split, comments=True), lines) if words]
    assert [words[0] for words in commands] == ["tdsvkit"] * 4
    for words in commands:
        proc = subprocess.run(
            [sys.executable, "-m", "tdsvkit.cli", *words[1:]],
            cwd=tmp_path, env=child_env(), capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, (words, proc.stderr)
    named = [arg.rpartition("=")[2] for words in commands for arg in words]
    named = [path for path in named if path.endswith((".tsv", "/"))]
    assert {"data/", "scores.tsv", "det.tsv"} <= set(named)
    assert [path for path in named if not (tmp_path / path).exists()] == []


def test_public_names():
    assert sorted(tdsvkit.__all__) == PUBLIC_NAMES


def test_import_loads_no_module():
    assert _loaded_after("import tdsvkit") == ["tdsvkit"]


def test_cli_loads_neither_scoring_nor_synth():
    # evaluate and det need neither; the readers and the generator take
    # their record types from core
    loaded = _loaded_after("import tdsvkit.cli")
    assert "tdsvkit.cli" in loaded
    assert "tdsvkit.scoring" not in loaded and "tdsvkit.synth" not in loaded
    assert "tdsvkit.scoring" not in _loaded_after("import tdsvkit.synth")


def test_cli_loads_neither_the_cache_nor_openssl():
    loaded = _loaded_after("import tdsvkit.cli", ("tdsvkit", "_hashlib"))
    assert "tdsvkit.cli" in loaded
    assert "tdsvkit.embcache" not in loaded and "_hashlib" not in loaded


def test_evaluate_and_det_do_not_load_the_cache(tmp_path):
    scores, trials = tmp_path / "scores.tsv", tmp_path / "trials.tsv"
    scores.write_text("t1\t0.500000\tPASS\t0.0000\nt2\t0.100000\tPASS\t0.0000\n", encoding="utf-8")
    trials.write_text("t1\tm1\tu1\tTC\nt2\tm1\tu2\tIC\n", encoding="utf-8")
    files = ["--scores", str(scores), "--trials", str(trials)]
    for argv in (["evaluate", *files], ["det", *files, "--out", str(tmp_path / "det.tsv")]):
        loaded = _loaded_after(f"from tdsvkit.cli import main; assert main({argv!r}) == 0")
        assert "tdsvkit.metrics" in loaded and "tdsvkit.embcache" not in loaded


def test_evaluate_and_det_of_large_inputs_load_the_cache_but_no_openssl(tmp_path, monkeypatch):
    # the counterpart of the test above: a score file and a trial list of
    # 1 MiB or more are read through the cache, one entry each
    write_labeled_set(tmp_path)
    files = ["--scores", str(tmp_path / "scores.tsv"), "--trials", str(tmp_path / "trials.tsv")]
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    for argv in (["evaluate", *files], ["det", *files, "--out", str(tmp_path / "det.tsv")]):
        loaded = _loaded_after(
            f"from tdsvkit.cli import main; assert main({argv!r}) == 0", ("tdsvkit", "_hashlib")
        )
        assert "tdsvkit.embcache" in loaded and "_hashlib" not in loaded, argv[0]
        assert len(os.listdir(tmp_path / "cache" / "tdsvkit")) == 2, argv[0]


def test_score_path_loads_no_openssl(tmp_path, monkeypatch):
    from tdsvkit import tsvio
    from tdsvkit.cli import main

    data = tmp_path / "data"
    with redirect_stdout(io.StringIO()):
        assert main(["simulate", "--n-speakers", "80", "--space", "a:256:0.5", "--out", str(data)]) == 0
    assert os.path.getsize(data / "embeddings_a.tsv") >= tsvio._SPLIT_BYTES
    argv = ["score"] + [
        a for name in ("trials", "enrollmap", "phrases", "transcripts")
        for a in (f"--{name}", str(data / f"{name}.tsv"))
    ] + ["--embeddings", f"a={data / 'embeddings_a.tsv'}", "--out", str(tmp_path / "s.tsv")]
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    for run in ("miss", "hit"):
        loaded = _loaded_after(
            f"from tdsvkit.cli import main; assert main({argv!r}) == 0", ("tdsvkit", "_hashlib")
        )
        assert "tdsvkit.embcache" in loaded and "_hashlib" not in loaded, run
        assert len(os.listdir(tmp_path / "cache" / "tdsvkit")) == 1, run


def test_readers_load_no_formatter():
    # the "%.17g" kernel is imported by write_embeddings alone, the "%.6f"
    # kernel by write_det alone
    assert {"fmt17", "fmt6"} <= tdsvkit._SUBMODULES
    for statement in ("import tdsvkit.cli", "import tdsvkit.tsvio"):
        loaded = _loaded_after(statement)
        assert statement.split()[1] in loaded
        assert "tdsvkit.fmt17" not in loaded and "tdsvkit.fmt6" not in loaded


def test_only_simulate_and_det_load_a_formatter(tmp_path, monkeypatch):
    data = tmp_path / "data"
    simulate = ["simulate", "--n-speakers", "80", "--space", "a:256:0.5", "--out", str(data)]
    scores, det = tmp_path / "scores.tsv", tmp_path / "det.tsv"
    score = ["score"] + [
        a for name in ("trials", "enrollmap", "phrases", "transcripts")
        for a in (f"--{name}", str(data / f"{name}.tsv"))
    ] + ["--embeddings", f"a={data / 'embeddings_a.tsv'}", "--out", str(scores)]
    labeled = ["--scores", str(scores), "--trials", str(data / "trials.tsv")]
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    runs = {
        "simulate": simulate, "score (miss)": score, "score (hit)": score,
        "evaluate": ["evaluate", *labeled], "det": ["det", *labeled, "--out", str(det)],
    }
    for run, argv in runs.items():
        loaded = _loaded_after(f"from tdsvkit.cli import main; assert main({argv!r}) == 0")
        assert ("tdsvkit.fmt17" in loaded) == (run == "simulate"), run
        assert ("tdsvkit.fmt6" in loaded) == (run == "det"), run
    assert os.path.getsize(data / "embeddings_a.tsv") >= tsvio._SPLIT_BYTES
    assert len(os.listdir(tmp_path / "cache" / "tdsvkit")) == 1


def test_submodule_resolves_after_plain_import():
    out = _loaded_after("import tdsvkit; tdsvkit.core.EmbeddingTable; tdsvkit.errors.TdsvError")
    assert out == ["tdsvkit", "tdsvkit.core", "tdsvkit.errors"]
    # the two modules that export no public name resolve too
    out = _loaded_after("import tdsvkit; tdsvkit.tsvio.parse_trials; tdsvkit.cli.main")
    assert {"tdsvkit.tsvio", "tdsvkit.cli"} <= set(out)
    assert "tdsvkit.scoring" not in out and "tdsvkit.synth" not in out


def _instances(cls):
    """One instance of cls and of each of its subclasses."""
    if issubclass(cls, ParseError):
        yield cls("data/e.tsv", 3, "expected 2 values, got 1")
    else:
        yield cls("message")
    for sub in cls.__subclasses__():
        yield from _instances(sub)


def test_errors_survive_pickling():
    errors = list(_instances(TdsvError))
    assert len(errors) == 21
    for exc in errors:
        copy = pickle.loads(pickle.dumps(exc))
        assert type(copy) is type(exc)
        assert str(copy) == str(exc)
        assert vars(copy) == vars(exc)
