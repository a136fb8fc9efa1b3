"""Exact relations between runs of evaluate and det through cli.main, on a
40k-trial labeled set: judges that need no per-record oracle, so they hold
at a size the oracles are too slow for. A subset run gives the numbers and
the DET bytes of a plain run on the inputs filtered to that subset's
labels, and the order of the score file's lines changes no byte."""

import io
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from conftest import write_labeled_set
from tdsvkit import SUBSETS
from tdsvkit.cli import main

_EXACT = ("min_dcf", "argmin_threshold", "eer")


@pytest.fixture(scope="module")
def labeled(tmp_path_factory):
    data = tmp_path_factory.mktemp("labeled")
    write_labeled_set(data)
    return data


def _run(argv):
    with redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    return out.getvalue()


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
