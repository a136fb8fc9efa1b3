"""Golden digests: the seed-42 simulate -> score -> evaluate -> det pipeline.

Pins the sha256 of the six dataset files and the stdout of simulate, then
of scores.tsv, det.tsv and the evaluate stdout, so any change to the
generator, the file writers, or the scoring, gate or metrics code must
reproduce today's bytes exactly. Two workloads: the default `simulate --seed 42` of the README
quick start, and a larger one with transcript corruption, so that both gate
outcomes and hundreds of distinct cosines are covered. On the larger one the
evaluate report is also pinned for every subset, for non-default costs and
as the --json file, and det.tsv for one subset. A third, simulate-only
workload pins the generator's corners that the two others miss: a
noise-free space (each utterance a copy of its speaker's mean), dim 2, and a
large noise level in a large dim. The raw float64 bits of each GOLDEN
workload's scores are pinned too, from an in-process score_all: scores.tsv
rounds to 6 decimals, so a change in summation order would pass it. Every
pin that simulate and score decide is also required of a child process that
runs OpenBLAS's generic x86-64 kernel, so no pinned bit depends on the CPU.
"""

import hashlib
import io
import json
import os
import platform
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import tdsvkit
from tdsvkit import GateConfig, score_all, tsvio
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


# The simulate output of each GOLDEN workload: file name -> sha256, and the
# sha256 of simulate's stdout.
DATASET = {
    "default": {
        "simulate.stdout": "a91be2d6521407d7838867cc3118f61c101d9b68a024cd7dd71f78dac83a5072",
        "phrases.tsv": "6f6c02971309835a0dcd789f9f67b6d99f826e0af683f00fbc5604f832423ae0",
        "enrollmap.tsv": "04554596fa6af2bc0d28eea9976051d87c7ef2648848b18b14bf61b6d86fd601",
        "trials.tsv": "45c0f4f6f7fa2fee9d10e6d752e70d138501fb8ee8022808f28ee4aafe2e86e4",
        "transcripts.tsv": "207457484935e3aa1e0726c85add1509eb763da616d3cb9ae3c92e7d2fad412d",
        "embeddings_alpha.tsv": "eed3f72d10dbdf9b1247fd80e67ec1698fc43cac3af3e7865613192a6e4af0a6",
        "embeddings_beta.tsv": "b640f03c84e11fa092e4c51d80adc5b9ce46d9deeeb653092038c8fb4299862a",
    },
    "noisy-1000": {
        "simulate.stdout": "4b981693fbc364ad590a1aa3be92ab1d8588f1b9726c11fffef4cd01b23affe3",
        "phrases.tsv": "6f6c02971309835a0dcd789f9f67b6d99f826e0af683f00fbc5604f832423ae0",
        "enrollmap.tsv": "1e61cd4d3cb93a7ac68e93e50b2aa32e8b6c449a481c2d634891906b8499c966",
        "trials.tsv": "bff03d2a120d7eeaed5e677d0951f68c0be0a29e4b33a8e6e505039c3ddeffac",
        "transcripts.tsv": "1d29e529d31d0dab697ca55e9e73d019a893c0ca61530284c6f62505ac32cf78",
        "embeddings_alpha.tsv": "aecd1d458519f95d78f0d2fde7aef8205539590863766a4a078121ba9a149b30",
        "embeddings_beta.tsv": "f3ab00d96cd5890f40ca611a48559b89041576e4cd59b3a4e7169e26380f2202",
    },
}


# simulate-only workloads: (flags after --seed 42, file name -> sha256 of the
# dataset files and of simulate's stdout).
SIMULATE_ONLY = {
    "z2-noise-free-w300": (
        [
            "--n-speakers", "3", "--n-phrases", "2", "--trials-per-type", "2",
            "--space", "z:2:0", "--space", "w:300:2.5",
        ],
        {
            "simulate.stdout": "4a41af3add4af8ba7e2dd79aaab992200dcace4d71e1fc0cf765823f733cf25a",
            "phrases.tsv": "7bc6414360f8b2ada0c3b604cfc82ec6c0b75878731dbc278d7a8439af57d15c",
            "enrollmap.tsv": "cc61b68c2303abbd750e2fe5efdb2b951f66f0b72d8c1350c39917f94a2f14c5",
            "trials.tsv": "9e6fbef204e4e203b4c4e4dcc4494e783deec8af7b7bd7e54757f52b411f0b3e",
            "transcripts.tsv": "d7a4ed7fe41caf58a649862eb3de4ccf41828d679ec395f6fc6a8359bb6faa60",
            "embeddings_z.tsv": "073c9c40857fd0aa4484a713251892f4196e090c1f04c448ac64385ce5a58ccc",
            "embeddings_w.tsv": "2fe1c393c283960ce5841b296f3e6350015f622399e47dbe4270d4302c8098fb",
        },
    ),
}


# The sha256 of score_all's float64 score column, as bytes, on each GOLDEN
# workload's dataset.
RAW_SCORES = {
    "default": "4d45eea1825d50445e1903518682d641511c9467ac77b69ea2b85dfe21a265d4",
    "noisy-1000": "90667a9d8945d108bdc554630084119a18b2e568cc23bd74afff31111f8ecdb4",
}


def _dataset_digests(data, sim_stdout) -> dict:
    digests = {path.name: _sha256(path.read_bytes()) for path in data.iterdir()}
    digests["simulate.stdout"] = _sha256(sim_stdout.encode("utf-8"))
    return digests


def _pipeline(tmp_path, name):
    """Simulate and score one GOLDEN workload; returns (simulate stdout,
    trials, scores)."""
    sim_flags, _ = GOLDEN[name]
    data = tmp_path / "data"
    sim_stdout = _run(["simulate", "--seed", "42", "--out", str(data)] + sim_flags)
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
    return sim_stdout, data / "trials.tsv", scores


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed42_pipeline_digests(tmp_path, name):
    _, expected = GOLDEN[name]
    data = tmp_path / "data"
    sim_stdout, _, scores = _pipeline(tmp_path, name)
    assert _dataset_digests(data, sim_stdout) == DATASET[name]
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


def _raw_score_digest(data) -> str:
    """The sha256 of score_all's float64 score column on the dataset in
    data."""
    tables = {
        space: tsvio.parse_embeddings(data / f"embeddings_{space}.tsv")[0]
        for space in ("alpha", "beta")
    }
    run = score_all(
        tsvio.parse_trials(data / "trials.tsv"),
        tsvio.parse_enrollmap(data / "enrollmap.tsv"),
        tables,
        tsvio.parse_transcripts(data / "transcripts.tsv"),
        tsvio.parse_phrases(data / "phrases.tsv"),
        GateConfig(),
    )
    return _sha256(run.records.score.tobytes())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_seed42_raw_score_bits(tmp_path, name):
    flags, _ = GOLDEN[name]
    data = tmp_path / "data"
    _run(["simulate", "--seed", "42", "--out", str(data)] + flags)
    assert _raw_score_digest(data) == RAW_SCORES[name]


@pytest.mark.parametrize("name", sorted(SIMULATE_ONLY))
def test_seed42_simulate_digests(tmp_path, name):
    flags, expected = SIMULATE_ONLY[name]
    data = tmp_path / "data"
    sim_stdout = _run(["simulate", "--seed", "42", "--out", str(data)] + flags)
    assert _dataset_digests(data, sim_stdout) == expected


def seed42_digests(tmp_path) -> dict:
    """Every pin that simulate and score decide, computed in this process:
    workload name -> the digests of its dataset files and simulate stdout,
    plus, for a GOLDEN workload, of scores.tsv and of the raw score bits."""
    digests = {}
    for name in sorted(GOLDEN):
        (tmp_path / name).mkdir()
        sim_stdout, _, scores = _pipeline(tmp_path / name, name)
        data = tmp_path / name / "data"
        digests[name] = _dataset_digests(data, sim_stdout)
        digests[name]["scores.tsv"] = _sha256(scores.read_bytes())
        digests[name]["raw scores"] = _raw_score_digest(data)
    for name, (flags, _) in SIMULATE_ONLY.items():
        data = tmp_path / name
        sim_stdout = _run(["simulate", "--seed", "42", "--out", str(data)] + flags)
        digests[name] = _dataset_digests(data, sim_stdout)
    return digests


@pytest.mark.skipif(
    platform.machine().lower() not in ("x86_64", "amd64"),
    reason=f"OPENBLAS_CORETYPE=Prescott names an x86-64 kernel; this host is {platform.machine()}",
)
def test_seed42_pins_hold_under_the_generic_blas_kernel(tmp_path):
    # OpenBLAS picks its kernel once, when it loads, so the pins are taken
    # again in a child process. Prescott is its generic x86-64 kernel, which
    # runs on any x86-64 host and sums a BLAS dot product in another order
    # than the AVX2 and AVX-512 kernels; no pinned bit may depend on that.
    expected = {
        name: {**DATASET[name], "scores.tsv": pins["scores.tsv"], "raw scores": RAW_SCORES[name]}
        for name, (_, pins) in GOLDEN.items()
    }
    expected.update((name, pins) for name, (_, pins) in SIMULATE_ONLY.items())
    path = [str(Path(__file__).parent), str(Path(tdsvkit.__file__).parents[1])]
    env = dict(os.environ, OPENBLAS_CORETYPE="Prescott", PYTHONPATH=os.pathsep.join(path))
    code = (
        "import json, pathlib, sys, test_golden; "
        "print(json.dumps(test_golden.seed42_digests(pathlib.Path(sys.argv[1]))))"
    )
    child = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == expected


@pytest.fixture(scope="module")
def noisy_pipeline(tmp_path_factory):
    _, trials, scores = _pipeline(tmp_path_factory.mktemp("noisy"), "noisy-1000")
    return trials, scores


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
