"""Golden digests: the seed-42 simulate -> score -> evaluate -> det pipeline.

Pins the sha256 of scores.tsv, det.tsv and the evaluate stdout, so any
change to the scoring, gate or metrics code must reproduce today's output
bytes exactly. Two workloads: the default `simulate --seed 42` of the README
quick start, and a larger one with transcript corruption, so that both gate
outcomes and hundreds of distinct cosines are covered. On the larger one the
evaluate report is also pinned for every subset, for non-default costs and
as the --json file, and det.tsv for one subset.
"""

import hashlib
import io
from contextlib import redirect_stderr, redirect_stdout

import pytest

from tdsvkit.cli import main

GOLDEN = {
    "default": (
        [],
        {
            "scores.tsv": "59fce1e041b86bb1dc41f8836fbaf1f32945704982385d530912127157def38d",
            "det.tsv": "4dbd0577334eb09843b6643f79c4b7f9cfa4335ac817211dcc1c6037c268c3f3",
            "evaluate.stdout": "7a4982c022e7cd22eecc6f7eb655ba7a7c758712e49bebf71f1003c96aee1619",
        },
    ),
    "noisy-1000": (
        [
            "--n-speakers", "100", "--trials-per-type", "250",
            "--err-correct", "0.1", "--err-wrong", "0.1",
        ],
        {
            "scores.tsv": "158cfad2df6b36bc65e8b6330b0eb4d9a8adfdbab8f71b32eef51ea14aa35f2b",
            "det.tsv": "aeb90013b3f988529c42e671dc26277dab2d93e8987496bc5c9b2850c978994f",
            "evaluate.stdout": "7ed543dec6d554ff7440248728c7d5c2a8a135c6cf7b406ef6cad617511311d3",
        },
    ),
}


def _run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    return out.getvalue()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# evaluate/det variants run on the noisy-1000 scores: argv tail -> sha256 of
# stdout followed by the bytes of the file written to {out}, if any. On these
# nearly separable scores the non-default costs reach the same min-DCF at the
# same threshold as the defaults (the property tests vary the costs), so
# their full-precision --json file is pinned too.
NOISY_VARIANTS = {
    "evaluate --subset tc-vs-tw":
        "0264db8ca672ee17af93b2702d7e4759e3b2364fd37e8a64eddc6eeef47b2e33",
    "evaluate --subset tc-vs-ic":
        "3ac5eab6876081cd81e61d5fb58910a462239111bf58a2102a34f1a98aa48aae",
    "evaluate --subset tc-vs-iw":
        "594967c6030967802450fdf669bb9c955d801a7acec13cd08ac374c004109abe",
    "evaluate --c-miss 1 --c-fa 1 --p-target 0.5 --json {out}":
        "12b4c5ae421b5aa4249d0493fdc8f8165666d6c7a4f0186a09f836ccc1e1c5dd",
    "evaluate --json {out}":
        "12b4c5ae421b5aa4249d0493fdc8f8165666d6c7a4f0186a09f836ccc1e1c5dd",
    "det --subset tc-vs-iw --out {out}":
        "e66e8e5e8867521fd20eee99515198847975ab962132126d2de40b7b50ec8ede",
}


def _pipeline(tmp_path, name):
    """Simulate and score one GOLDEN workload; returns (trials, scores)."""
    sim_flags, _ = GOLDEN[name]
    data = tmp_path / "data"
    _run(["simulate", "--seed", "42", "--out", str(data)] + sim_flags)
    scores = tmp_path / "scores.tsv"
    _run([
        "score",
        "--trials", str(data / "trials.tsv"),
        "--enrollmap", str(data / "enrollmap.tsv"),
        "--phrases", str(data / "phrases.tsv"),
        "--transcripts", str(data / "transcripts.tsv"),
        "--embeddings", f"alpha={data / 'embeddings_alpha.tsv'}",
        "--embeddings", f"beta={data / 'embeddings_beta.tsv'}",
        "--out", str(scores),
    ])
    return data / "trials.tsv", scores


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed42_pipeline_digests(tmp_path, name):
    _, expected = GOLDEN[name]
    data = tmp_path / "data"
    _, scores = _pipeline(tmp_path, name)
    report = _run(["evaluate", "--scores", str(scores), "--trials", str(data / "trials.tsv")])
    det = tmp_path / "det.tsv"
    _run([
        "det", "--scores", str(scores),
        "--trials", str(data / "trials.tsv"), "--out", str(det),
    ])
    assert {
        "scores.tsv": _sha256(scores.read_bytes()),
        "det.tsv": _sha256(det.read_bytes()),
        "evaluate.stdout": _sha256(report.encode("utf-8")),
    } == expected


@pytest.fixture(scope="module")
def noisy_pipeline(tmp_path_factory):
    return _pipeline(tmp_path_factory.mktemp("noisy"), "noisy-1000")


@pytest.mark.parametrize("variant", sorted(NOISY_VARIANTS))
def test_noisy_evaluate_and_det_variants(tmp_path, noisy_pipeline, variant):
    trials, scores = noisy_pipeline
    out = tmp_path / "out"
    command, *flags = variant.format(out=out).split(" ")
    stdout = _run([command, "--scores", str(scores), "--trials", str(trials), *flags])
    data = stdout.encode("utf-8")
    if "{out}" in variant:
        data += out.read_bytes()
    assert _sha256(data) == NOISY_VARIANTS[variant]
