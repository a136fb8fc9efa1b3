"""Exact relations between runs of score, evaluate and det through
cli.main: judges that need no per-record oracle, so they hold at a size the
oracles are too slow for. On a seeded dataset whose two embedding files are
1 MiB or more each, read with the cache of parsed tables on and off: fusing
a space with itself gives the scores of that space alone, as (c + c) / 2 ==
c, and the order of the embedding files' rows changes no byte of
scores.tsv. On a 40k-trial labeled set: a subset run gives the numbers and
the DET bytes of a plain run on the inputs filtered to that subset's
labels, and the order of the score file's lines changes no byte.
"""

import io
import json
import os
from contextlib import redirect_stdout

import numpy as np
import pytest

from conftest import write_labeled_set
from tdsvkit import SUBSETS, tsvio
from tdsvkit.cli import main

_EXACT = ("min_dcf", "argmin_threshold", "eer")


@pytest.fixture(scope="module")
def spaces(tmp_path_factory):
    """A seeded dataset with spaces a and b, each file 1 MiB or more, so
    that score reads them through the cache when it is on."""
    data = tmp_path_factory.mktemp("spaces")
    _run(["simulate", "--seed", "1", "--n-speakers", "80", "--trials-per-type", "100",
          "--space", "a:256:0.5", "--space", "b:192:0.5",
          "--err-correct", "0.1", "--err-wrong", "0.1", "--out", str(data)])
    for name in ("a", "b"):
        assert os.path.getsize(data / f"embeddings_{name}.tsv") >= tsvio._SPLIT_BYTES
    return data


@pytest.fixture(params=["cache on", "cache off"])
def cache(request, tmp_path, monkeypatch):
    """The cache of parsed tables on, in a fresh home, or off, its home a
    regular file under which no directory can be made. Returns the cache
    directory, or None when the cache is off."""
    home = tmp_path / "xdg"
    if request.param == "cache off":
        home.write_bytes(b"")
    monkeypatch.setenv("XDG_CACHE_HOME", str(home))
    return home / "tdsvkit" if request.param == "cache on" else None


@pytest.fixture(scope="module")
def labeled(tmp_path_factory):
    data = tmp_path_factory.mktemp("labeled")
    write_labeled_set(data)
    return data


def _run(argv):
    with redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    return out.getvalue()


def _score(data, out, *embeddings):
    """The bytes of the scores.tsv that score writes to out for the dataset
    in data, fusing the (name, path) pairs of embeddings in order."""
    argv = ["score"] + [
        a for name in ("trials", "enrollmap", "phrases", "transcripts")
        for a in (f"--{name}", str(data / f"{name}.tsv"))
    ] + [a for name, path in embeddings for a in ("--embeddings", f"{name}={path}")]
    _run([*argv, "--out", str(out)])
    return out.read_bytes()


def test_space_fused_with_itself_scores_as_itself(spaces, cache, tmp_path):
    a = spaces / "embeddings_a.tsv"
    alone = _score(spaces, tmp_path / "alone.tsv", ("a", a))
    assert _score(spaces, tmp_path / "twice.tsv", ("a", a), ("b", a)) == alone
    assert alone.count(b"\n") == 400 and b"PASS" in alone and b"PUNITIVE" in alone
    if cache:  # the second run's two reads of a were hits
        assert len(os.listdir(cache)) == 1


def test_row_order_of_the_embedding_files_changes_no_score(spaces, cache, tmp_path):
    rng = np.random.default_rng(3)
    shuffled = []
    for name in ("a", "b"):
        header, *rows = (spaces / f"embeddings_{name}.tsv").read_bytes().splitlines(True)
        path = tmp_path / f"embeddings_{name}.tsv"
        path.write_bytes(header + b"".join(rows[i] for i in rng.permutation(len(rows))))
        shuffled.append((name, path))
    plain = [(name, spaces / f"embeddings_{name}.tsv") for name in ("a", "b")]
    assert _score(spaces, tmp_path / "shuffled.tsv", *shuffled) == _score(
        spaces, tmp_path / "plain.tsv", *plain
    )
    if cache:
        assert len(os.listdir(cache)) == 4


def _files(scores, trials):
    return ["--scores", str(scores), "--trials", str(trials)]


def _filtered(labeled, directory, subset):
    """The score file and trial list of labeled, each with only the lines of
    the trials whose label subset keeps; returns their paths."""
    keep = {label.name for label in SUBSETS[subset].keep}
    trial_lines = (labeled / "trials.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    trial_lines = [line for line in trial_lines if line.rstrip("\n").rsplit("\t", 1)[1] in keep]
    kept_ids = {line.split("\t", 1)[0] for line in trial_lines}
    score_lines = (labeled / "scores.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    score_lines = [line for line in score_lines if line.split("\t", 1)[0] in kept_ids]
    directory.mkdir()
    scores, trials = directory / "scores.tsv", directory / "trials.tsv"
    scores.write_text("".join(score_lines), encoding="utf-8")
    trials.write_text("".join(trial_lines), encoding="utf-8")
    return scores, trials


def _det(files, out, subset="all"):
    _run(["det", *files, "--subset", subset, "--out", str(out)])
    return out.read_bytes()


def test_evaluate_subset_is_evaluate_of_the_filtered_inputs(labeled, tmp_path):
    def exact(files, subset):
        report = tmp_path / f"{subset}.json"
        _run(["evaluate", *files, "--subset", subset, "--json", str(report)])
        values = json.loads(report.read_text(encoding="utf-8"))
        return [values[key] for key in _EXACT]

    whole = _files(labeled / "scores.tsv", labeled / "trials.tsv")
    filtered = _files(*_filtered(labeled, tmp_path / "tc-tw", "tc-vs-tw"))
    assert exact(whole, "tc-vs-tw") == exact(filtered, "all")  # bit-equal floats


@pytest.mark.parametrize("subset", sorted(SUBSETS))
def test_det_subset_is_det_of_the_filtered_inputs(labeled, tmp_path, subset):
    whole = _det(_files(labeled / "scores.tsv", labeled / "trials.tsv"), tmp_path / "a.tsv", subset)
    filtered = _det(_files(*_filtered(labeled, tmp_path / "f", subset)), tmp_path / "b.tsv")
    assert whole == filtered
    assert whole.count(b"\n") > 1_000


def test_det_does_not_depend_on_the_score_file_order(labeled, tmp_path):
    lines = (labeled / "scores.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
    shuffled = tmp_path / "scores.tsv"
    order = np.random.default_rng(3).permutation(len(lines))
    shuffled.write_text("".join(lines[i] for i in order.tolist()), encoding="utf-8")
    trials = labeled / "trials.tsv"
    plain = _det(_files(labeled / "scores.tsv", trials), tmp_path / "a.tsv")
    assert _det(_files(shuffled, trials), tmp_path / "b.tsv") == plain
