"""Acceptance gate for the toolkit.

Each test covers one release criterion and prints a single PASS/FAIL line
(the suite runs with capture off, so the lines land on the console). The
oracle implementations live in oracles.py and are deliberately naive.
"""

import io
import math
import time
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

from oracles import (
    edit_distance_ref,
    embedding_tables,
    eer_ref,
    fused_cosine_ref,
    make_labeled_scores,
    min_dcf_ref,
    trial_table,
)
from tdsvkit import (
    ALL,
    DcfParams,
    EnrollEntry,
    ErrorRates,
    GateConfig,
    Phrase,
    SimConfig,
    SpaceSpec,
    TC_VS_TW,
    Transcript,
    dcf,
    edit_distance,
    eer,
    gen_dataset,
    l2_normalize,
    min_dcf,
    score_all,
    split_scores,
    sweep,
)
from tdsvkit.cli import main


def _check(name: str, ok: bool, detail: str = "") -> None:
    tail = f" [{detail}]" if detail else ""
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)
    assert ok, f"{name}{tail}"


def _rates(labeled, mode=ALL):
    """The sweep of a (scores, label codes) pair, through the columnar
    metrics API."""
    return sweep(*split_scores(*labeled, mode))


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


_LATIN = "abcdefghijklmnopqrstuvwxyz"
_PERSIAN = "ابپتثجچحخدذرزژسشصضطظعغفقکگلمنوهی"
_CHARS = list(_LATIN + _PERSIAN + " ")


def _random_text(rng) -> str:
    n = int(rng.integers(0, 31))
    return "".join(_CHARS[int(i)] for i in rng.integers(0, len(_CHARS), n))


def _random_score_set(rng, index: int):
    """Alternate grid-quantized (tie-heavy) and continuous score sets."""
    n_t = int(rng.integers(1, 250))
    n_n = int(rng.integers(1, 251))
    if index % 2 == 0:
        grid = np.linspace(-1.0, 1.0, 9)
        targets = [float(v) for v in rng.choice(grid, n_t)]
        nontargets = [float(v) for v in rng.choice(grid, n_n)]
    else:
        targets = [float(v) for v in rng.normal(0.5, 0.4, n_t)]
        nontargets = [float(v) for v in rng.normal(-0.2, 0.5, n_n)]
    return targets, nontargets


def _score_dataset(ds, gate_cfg: GateConfig):
    """(scores, label codes) of every trial of ds."""
    run = score_all(
        ds.trials, ds.enroll_entries, ds.embeddings, ds.transcripts, ds.phrases,
        gate_cfg,
    )
    return run.records.score, run.labels


def test_cer_matches_reference_oracle():
    rng = np.random.default_rng(101)
    pairs = [(_random_text(rng), _random_text(rng)) for _ in range(1000)]
    t0 = time.perf_counter()
    got = [edit_distance(a, b) for a, b in pairs]
    elapsed = time.perf_counter() - t0
    want = [edit_distance_ref(a, b) for a, b in pairs]
    mismatches = sum(1 for g, w in zip(got, want) if g != w)
    _check(
        "edit distance equals quadratic DP oracle on 1000 mixed-script pairs",
        mismatches == 0 and elapsed < 1.0,
        f"mismatches={mismatches} impl_time={elapsed:.3f}s",
    )


def test_detection_metrics_match_enumeration_oracle():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    bad = 0
    worst_eer_gap = 0.0
    for i in range(200):
        targets, nontargets = _random_score_set(rng, i)
        rates = _rates(make_labeled_scores(targets, nontargets, rng))
        if min_dcf(rates) != min_dcf_ref(targets, nontargets):
            bad += 1
            continue
        gap = abs(eer(rates) - eer_ref(targets, nontargets))
        worst_eer_gap = max(worst_eer_gap, gap)
        if gap > 1e-12:
            bad += 1
    elapsed = time.perf_counter() - t0
    _check(
        "min_dcf exact and eer within 1e-12 of threshold-enumeration oracle "
        "on 200 score sets",
        bad == 0 and elapsed < 5.0,
        f"failed_sets={bad} worst_eer_gap={worst_eer_gap:.2e} "
        f"time={elapsed:.3f}s",
    )


def test_dcf_normalization_constants():
    params = DcfParams()
    rates = ErrorRates(threshold=0.0, p_miss=1.0, p_fa=0.0)
    raw, normalized = dcf(rates, params)
    _check(
        "default DCF: norm_const 0.1, all-miss point normalizes to 1.0",
        params.norm_const == 0.1 and raw == 0.1 and normalized == 1.0,
        f"norm_const={params.norm_const!r} raw={raw!r} normalized={normalized!r}",
    )


def test_fusion_cosine_identity():
    rng = np.random.default_rng(303)
    phrases = {"p": Phrase("open the door")}
    # A space holds vectors of one dim, so each pair is scored in a one-trial
    # run of its own; each enrollment vector serves as all three repetitions.
    entries = {"m": EnrollEntry("p", ("r",) * 3)}
    transcripts = {"u": Transcript("open the door")}
    scores, pairs = [], []
    for _ in range(1000):
        d1 = int(rng.integers(16, 513))
        d2 = int(rng.integers(16, 513))
        a1 = l2_normalize(rng.normal(size=d1))
        b1 = l2_normalize(rng.normal(size=d1))
        a2 = l2_normalize(rng.normal(size=d2))
        b2 = l2_normalize(rng.normal(size=d2))
        tables = embedding_tables({"a": {"r": a1, "u": b1}, "b": {"r": a2, "u": b2}})
        run = score_all(
            trial_table([("t", "m", "u")]), entries, tables, transcripts, phrases, GateConfig(),
        )
        scores.extend(run.records.score.tolist())
        pairs.append(([a1, a2], [b1, b2]))
    worst = max(abs(score - fused_cosine_ref(*pair)) for score, pair in zip(scores, pairs))
    _check(
        "score_all equals the cosine of concatenated unit blocks (1000 pairs, "
        "dims 16-512)",
        len(scores) == 1000 and worst <= 1e-9,
        f"scored={len(scores)} worst_gap={worst:.2e}",
    )


def test_noise_free_pipeline_scores_perfectly():
    t0 = time.perf_counter()
    cfg = SimConfig(
        spaces=(SpaceSpec("a", 64, 0.0), SpaceSpec("b", 64, 0.0)),
        trials_per_type=10,
        transcript_error_rate_correct=0.0,
        transcript_error_rate_wrong=0.0,
        master_seed=7,
    )
    labeled = _score_dataset(gen_dataset(cfg), GateConfig(0.3, -1.0))
    rates = _rates(labeled)
    v_all, _ = min_dcf(rates)
    e_all = eer(rates)
    sub = _rates(labeled, TC_VS_TW)
    v_sub, _ = min_dcf(sub)
    e_sub = eer(sub)
    elapsed = time.perf_counter() - t0
    _check(
        "noise-free synthetic run scores to min_dcf 0.0 and eer 0.0 on all "
        "and tc-vs-tw",
        v_all == 0.0 and e_all == 0.0 and v_sub == 0.0 and e_sub == 0.0
        and elapsed < 2.0,
        f"all=({v_all!r},{e_all!r}) tc-vs-tw=({v_sub!r},{e_sub!r}) "
        f"time={elapsed:.3f}s",
    )


def test_phrase_gate_improves_min_dcf():
    t0 = time.perf_counter()
    gated_cfg = GateConfig(0.3, -1.0)
    ungated_cfg = GateConfig(math.inf, -1.0)
    leq_all = True
    strict = 0
    pairs = []
    for seed in range(5):
        cfg = SimConfig(
            n_speakers=50,
            n_phrases=10,
            spaces=(SpaceSpec("a", 64, 0.15), SpaceSpec("b", 64, 0.15)),
            trials_per_type=100,
            transcript_error_rate_correct=0.0,
            transcript_error_rate_wrong=0.1,
            master_seed=seed,
        )
        ds = gen_dataset(cfg)
        gated, _ = min_dcf(_rates(_score_dataset(ds, gated_cfg)))
        ungated, _ = min_dcf(_rates(_score_dataset(ds, ungated_cfg)))
        pairs.append((gated, ungated))
        leq_all = leq_all and gated <= ungated
        if gated < ungated:
            strict += 1
    elapsed = time.perf_counter() - t0
    _check(
        "CER gate never hurts min_dcf over seeds 0-4 and strictly helps on "
        ">= 4 seeds",
        leq_all and strict >= 4 and elapsed < 10.0,
        f"gated_vs_ungated={[(round(g, 4), round(u, 4)) for g, u in pairs]} "
        f"strict_wins={strict} time={elapsed:.3f}s",
    )


def test_min_dcf_bound_and_sweep_monotonicity():
    rng = np.random.default_rng(404)
    violations = 0
    for i in range(100):
        targets, nontargets = _random_score_set(rng, i)
        rates = _rates(make_labeled_scores(targets, nontargets, rng))
        value, _ = min_dcf(rates)
        if not value <= 1.0 + 1e-12:
            violations += 1
            continue
        points = list(zip(rates.p_miss.tolist(), rates.p_fa.tolist()))
        for (prev_miss, prev_fa), (cur_miss, cur_fa) in zip(points, points[1:]):
            if cur_miss < prev_miss or cur_fa > prev_fa:
                violations += 1
                break
    _check(
        "normalized min_dcf <= 1.0 and sweep is monotone on 100 score sets",
        violations == 0,
        f"violations={violations}",
    )


def test_cli_pipeline_is_deterministic(tmp_path):
    outputs = []
    for tag in ("one", "two"):
        data = tmp_path / tag
        code, _, err = _run_cli(
            ["simulate", "--seed", "42", "--out", str(data)]
        )
        assert code == 0, err
        scores = tmp_path / f"scores_{tag}.tsv"
        code, _, err = _run_cli([
            "score",
            "--trials", str(data / "trials.tsv"),
            "--enrollmap", str(data / "enrollmap.tsv"),
            "--phrases", str(data / "phrases.tsv"),
            "--transcripts", str(data / "transcripts.tsv"),
            "--embeddings", f"alpha={data / 'embeddings_alpha.tsv'}",
            "--embeddings", f"beta={data / 'embeddings_beta.tsv'}",
            "--out", str(scores),
        ])
        assert code == 0, err
        code, report, _ = _run_cli([
            "evaluate", "--scores", str(scores),
            "--trials", str(data / "trials.tsv"),
        ])
        assert code == 0
        det = tmp_path / f"det_{tag}.tsv"
        code, _, _ = _run_cli([
            "det", "--scores", str(scores),
            "--trials", str(data / "trials.tsv"), "--out", str(det),
        ])
        assert code == 0
        dataset_bytes = b"".join(
            (data / name).read_bytes()
            for name in sorted(p.name for p in data.iterdir())
        )
        outputs.append(
            (dataset_bytes, scores.read_bytes(), report, det.read_bytes())
        )
    same = outputs[0] == outputs[1]
    _check(
        "simulate/score/evaluate/det with seed 42 is byte-identical across "
        "runs",
        same,
        "dataset+scores+report+det compared",
    )


_WORLD = {
    "phrases.tsv": "p1\topen the door\n",
    "enrollmap.tsv": "m1\tp1\tr1,r2,r3\n",
    "embeddings_a.tsv": "#dim 2\nr1\t1 0\nr2\t1 0\nr3\t1 0\nu1\t1 0\n",
    "transcripts.tsv": "u1\topen the door\n",
    "trials.tsv": "t1\tm1\tu1\tTC\n",
}

_EVAL_WORLD = {
    "scores.tsv": "t1\t0.900000\tPASS\t0.0000\nt2\t0.100000\tPASS\t0.0000\n",
    "trials.tsv": "t1\tm1\tu1\tTC\nt2\tm2\tu2\tIC\n",
}

# (case name, subcommand, file overrides, extra argv, expected diagnostic)
_MALFORMED_CASES = [
    ("embeddings header missing", "score",
     {"embeddings_a.tsv": "r1\t1 0\nr2\t1 0\nr3\t1 0\nu1\t1 0\n"},
     [], "BadHeader"),
    ("embeddings header typo", "score",
     {"embeddings_a.tsv": "dim 2\nr1\t1 0\n"}, [], "BadHeader"),
    ("embeddings dim zero", "score",
     {"embeddings_a.tsv": "#dim 0\nr1\t\n"}, [], "BadHeader"),
    ("embeddings dim not a number", "score",
     {"embeddings_a.tsv": "#dim two\nr1\t1 0\n"}, [], "BadHeader"),
    ("embeddings dim numpy cannot index", "score",
     {"embeddings_a.tsv": "#dim 99999999999999999999\nr1\t1 0\n"}, [], "BadHeader"),
    ("embeddings dim too large for its rows", "score",
     {"embeddings_a.tsv": "#dim 100000000000\nr1\t1 0\n"}, [], "DimMismatch"),
    ("embedding row too long", "score",
     {"embeddings_a.tsv": "#dim 2\nr1\t1 0 3\n"}, [], "DimMismatch"),
    ("embedding row too short", "score",
     {"embeddings_a.tsv": "#dim 2\nr1\t1\n"}, [], "DimMismatch"),
    ("duplicate embedding id", "score",
     {"embeddings_a.tsv": "#dim 2\nr1\t1 0\nr1\t0 1\nr2\t1 0\nr3\t1 0\n"
                          "u1\t1 0\n"},
     [], "DuplicateId"),
    ("duplicate phrase id", "score",
     {"phrases.tsv": "p1\topen the door\np1\tsecond text\n"},
     [], "DuplicateId"),
    ("duplicate transcript id", "score",
     {"transcripts.tsv": "u1\topen the door\nu1\topen the door\n"},
     [], "DuplicateId"),
    ("duplicate model id", "score",
     {"enrollmap.tsv": "m1\tp1\tr1,r2,r3\nm1\tp1\tr1,r2,r3\n"},
     [], "DuplicateId"),
    ("duplicate trial id", "score",
     {"trials.tsv": "t1\tm1\tu1\tTC\nt1\tm1\tu1\tTC\n"},
     [], "DuplicateId"),
    ("trial names unknown model", "score",
     {"trials.tsv": "t1\tm9\tu1\tTC\n"}, [], "MissingModel"),
    ("test utterance absent from a space", "score",
     {"embeddings_a.tsv": "#dim 2\nr1\t1 0\nr2\t1 0\nr3\t1 0\n"},
     [], "MissingSpace"),
    ("test utterance has no transcript", "score",
     {"transcripts.tsv": "u2\topen the door\n"}, [], "MissingTranscript"),
    ("enrollmap names unknown phrase", "score",
     {"enrollmap.tsv": "m1\tp9\tr1,r2,r3\n"}, [], "MissingPhrase"),
    ("enrollmap lists two reps", "score",
     {"enrollmap.tsv": "m1\tp1\tr1,r2\n"}, [], "BadRepCount"),
    ("enrollmap lists four reps", "score",
     {"enrollmap.tsv": "m1\tp1\tr1,r2,r3,r1\n"}, [], "BadRepCount"),
    ("trial label unknown", "score",
     {"trials.tsv": "t1\tm1\tu1\tXX\n"}, [], "BadLabel"),
    ("embedding value not a float", "score",
     {"embeddings_a.tsv": "#dim 2\nr1\t1 zebra\n"}, [], "UnparseableFloat"),
    ("embedding value not finite", "score",
     {"embeddings_a.tsv": "#dim 2\nr1\t1 nan\n"}, [], "UnparseableFloat"),
    ("trial line missing fields", "score",
     {"trials.tsv": "t1\tm1\n"}, [], "MalformedLine"),
    ("phrase line has no tab", "score",
     {"phrases.tsv": "p1 open the door\n"}, [], "MalformedLine"),
    ("embedding line has empty id", "score",
     {"embeddings_a.tsv": "#dim 2\n\t1 0\n"}, [], "MalformedLine"),
    ("score line has unknown gate flag", "evaluate",
     {"scores.tsv": "t1\t0.5\tMAYBE\t0.0000\n"}, [], "MalformedLine"),
    ("score value not a float", "evaluate",
     {"scores.tsv": "t1\tzebra\tPASS\t0.0000\n"}, [], "UnparseableFloat"),
    ("score value not finite", "evaluate",
     {"scores.tsv": "t1\tnan\tPASS\t0.0000\n"}, [], "UnparseableFloat"),
    ("score id not valid UTF-8", "evaluate",
     {"scores.tsv": "t1\t0.9\tPASS\t0.0000\nt\udcff\udcfe2\t0.1\tPASS\t0.0000\n"},
     [], "MalformedLine"),
    ("cer value not finite", "evaluate",
     {"scores.tsv": "t1\t0.5\tPASS\tinf\n"}, [], "UnparseableFloat"),
    ("labeled trial listed twice", "evaluate",
     {"trials.tsv": "t1\tm1\tu1\tTC\nt2\tm2\tu2\tIC\nt1\tm1\tu1\tIW\n"},
     [], "DuplicateId"),
    ("duplicate score id", "evaluate",
     {"scores.tsv": "t1\t0.5\tPASS\t0.0000\nt1\t0.4\tPASS\t0.0000\n"},
     [], "DuplicateId"),
    ("trial list carries no labels", "evaluate",
     {"trials.tsv": "t1\tm1\tu1\nt2\tm2\tu2\n"}, [], "UnlabeledRecords"),
    ("score for trial absent from list", "evaluate",
     {"scores.tsv": "t9\t0.5\tPASS\t0.0000\n"}, [], "UnlabeledRecords"),
    ("subset keeps no non-target side", "evaluate",
     {}, ["--subset", "tc-vs-tw"], "EmptySide"),
    ("embeddings flag without path", "score",
     {}, ["@embeddings-no-path"], "ConfigInvalid"),
    ("simulate space spec missing sigma", "simulate",
     {}, [], "ConfigInvalid"),
]


def _malformed_argv(case_dir, cmd, extra):
    if cmd == "score":
        argv = [
            "score",
            "--trials", str(case_dir / "trials.tsv"),
            "--enrollmap", str(case_dir / "enrollmap.tsv"),
            "--phrases", str(case_dir / "phrases.tsv"),
            "--transcripts", str(case_dir / "transcripts.tsv"),
            "--embeddings", f"a={case_dir / 'embeddings_a.tsv'}",
            "--out", str(case_dir / "out.tsv"),
        ]
        if "@embeddings-no-path" in extra:
            argv[argv.index("--embeddings") + 1] = "a"
            extra = [e for e in extra if e != "@embeddings-no-path"]
        return argv + extra
    if cmd == "evaluate":
        return [
            "evaluate",
            "--scores", str(case_dir / "scores.tsv"),
            "--trials", str(case_dir / "trials.tsv"),
        ] + extra
    return [
        "simulate", "--out", str(case_dir / "out"), "--space", "x:8",
    ] + extra


def test_malformed_inputs_fail_with_named_diagnostics(tmp_path):
    failures = []
    for idx, (name, cmd, overrides, extra, expected) in enumerate(
        _MALFORMED_CASES
    ):
        case_dir = tmp_path / f"case{idx:02d}"
        case_dir.mkdir()
        base = _WORLD if cmd == "score" else _EVAL_WORLD
        for fname, content in {**base, **overrides}.items():
            # lone surrogates \udc80-\udcff stand for raw bytes 0x80-0xff
            (case_dir / fname).write_text(
                content, encoding="utf-8", errors="surrogateescape"
            )
        try:
            code, _, err = _run_cli(_malformed_argv(case_dir, cmd, extra))
        except Exception as exc:  # a crash is itself a failure
            failures.append(f"{name}: crashed with {type(exc).__name__}")
            continue
        if code == 0:
            failures.append(f"{name}: exited 0")
        elif not err.startswith(f"error={expected}:"):
            failures.append(f"{name}: wanted {expected}, stderr={err!r}")
    _check(
        f"all {len(_MALFORMED_CASES)} malformed inputs exit nonzero with "
        "the named diagnostic",
        not failures,
        "; ".join(failures) if failures else "clean",
    )
