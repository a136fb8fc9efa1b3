"""Command-line surface: pipelines, reports, and the error contract."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest

from conftest import child_env, drained, piped
from tdsvkit import DcfParams, GateConfig, SimConfig
from tdsvkit.cli import build_parser, main


def run_cli(argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def simulate(tmp_path, name="data", **flags):
    args = ["simulate", "--out", str(tmp_path / name)]
    for key, value in flags.items():
        args.append(f"--{key.replace('_', '-')}")
        args.append(str(value))
    code, out, err = run_cli(args)
    assert code == 0, err
    return tmp_path / name


def score_args(data, out):
    return [
        "score",
        "--trials", str(data / "trials.tsv"),
        "--enrollmap", str(data / "enrollmap.tsv"),
        "--phrases", str(data / "phrases.tsv"),
        "--transcripts", str(data / "transcripts.tsv"),
        "--embeddings", f"alpha={data / 'embeddings_alpha.tsv'}",
        "--embeddings", f"beta={data / 'embeddings_beta.tsv'}",
        "--out", str(out),
    ]


def report_dict(stdout):
    return dict(line.split("=", 1) for line in stdout.strip().splitlines())


def test_option_defaults_are_the_config_defaults():
    # score and evaluate read theirs from the dataclasses
    parse = build_parser().parse_args
    score = parse(score_args(Path("d"), "s.tsv"))
    evaluate = parse(["evaluate", "--scores", "s.tsv", "--trials", "t.tsv"])
    gate, dcf = GateConfig(), DcfParams()
    pairs = [
        (score.cer_threshold, gate.cer_threshold),
        (score.punitive_score, gate.punitive_score),
        (evaluate.c_miss, dcf.c_miss),
        (evaluate.c_fa, dcf.c_fa),
        (evaluate.p_target, dcf.p_target),
    ]
    # repr, so that an int default for a float field fails too
    assert [repr(option) for option, _ in pairs] == [repr(field) for _, field in pairs]
    # strict, as in score_all, unless --lenient is given
    assert score.strict is True
    assert parse(score_args(Path("d"), "s.tsv") + ["--lenient"]).strict is False
    # simulate leaves a flag not given out of its parsed args, so SimConfig
    # states each default; and some flag reaches each SimConfig field
    sim_fields = {f.name for f in fields(SimConfig)}
    assert not sim_fields & set(vars(parse(["simulate", "--out", "d"])))
    every_flag = parse([
        "simulate", "--out", "d", "--seed", "1", "--n-speakers", "2", "--n-phrases", "2",
        "--space", "a:2:0", "--trials-per-type", "1", "--err-correct", "0", "--err-wrong", "0",
    ])
    assert sim_fields <= set(vars(every_flag))


class TestPipeline:
    def test_simulate_counts(self, tmp_path):
        code, out, _ = run_cli(["simulate", "--out", str(tmp_path / "d"), "--seed", "5"])
        assert code == 0
        assert report_dict(out) == {
            "speakers": "50",
            "phrases": "10",
            "models": "50",
            "trials": "40",
            "spaces": "2",
        }

    def test_full_flow(self, tmp_path):
        data = simulate(tmp_path, seed=5)
        scores = tmp_path / "scores.tsv"
        code, out, err = run_cli(score_args(data, scores))
        assert code == 0, err
        assert report_dict(out) == {"scored": "40", "skipped": "0"}

        code, out, _ = run_cli(
            ["evaluate", "--scores", str(scores), "--trials", str(data / "trials.tsv")]
        )
        assert code == 0
        report = report_dict(out)
        assert list(report) == [
            "subset", "n_total", "n_tc", "n_tw", "n_ic", "n_iw",
            "n_target", "n_nontarget", "min_dcf", "argmin_threshold",
            "eer", "skipped",
        ]
        assert report["subset"] == "all"
        assert report["n_total"] == "40"
        assert report["n_target"] == "10"
        assert report["n_nontarget"] == "30"
        # default simulation is noise-separable end to end
        assert report["min_dcf"] == "0.000000"
        assert report["eer"] == "0.000000"
        assert report["skipped"] == "0"

        det = tmp_path / "det.tsv"
        code, out, _ = run_cli([
            "det", "--scores", str(scores), "--trials", str(data / "trials.tsv"),
            "--out", str(det),
        ])
        assert code == 0
        lines = det.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "#p_miss\tp_fa\tthreshold"
        assert out.startswith("points=")
        assert len(lines) == 1 + int(out.strip().split("=")[1])

    def test_score_reads_a_piped_trial_list_once(self, tmp_path):
        # every other line without its label: a valid list the bulk check
        # refuses, whose scan once opened the path a second time
        data = simulate(tmp_path, seed=5)
        lines = (data / "trials.tsv").read_text(encoding="utf-8").splitlines(keepends=True)
        mixed = "".join(line.rsplit("\t", 1)[0] + "\n" if i % 2 else line for i, line in enumerate(lines))
        (data / "trials.tsv").write_text(mixed, encoding="utf-8")
        assert run_cli(score_args(data, tmp_path / "by_path.tsv"))[0] == 0
        argv = score_args(data, tmp_path / "piped.tsv")
        with piped(mixed.encode()) as pipe:
            argv[argv.index("--trials") + 1] = pipe
            code, out, err = run_cli(argv)
        assert (code, err, report_dict(out)["scored"]) == (0, "", "40")
        assert (tmp_path / "piped.tsv").read_bytes() == (tmp_path / "by_path.tsv").read_bytes()

    def test_outputs_to_a_fifo(self, tmp_path):
        # a FIFO is written in place, not replaced by a regular file
        data = simulate(tmp_path, seed=5)
        scores = tmp_path / "scores.tsv"
        assert run_cli(score_args(data, scores))[0] == 0
        evaluate = ["evaluate", "--scores", str(scores), "--trials", str(data / "trials.tsv")]
        assert run_cli(evaluate + ["--json", str(tmp_path / "r.json")])[0] == 0
        for argv, want in (
            (score_args(data, "FIFO"), scores), (evaluate + ["--json", "FIFO"], tmp_path / "r.json")
        ):
            with drained() as (fifo, got):
                argv[argv.index("FIFO")] = fifo
                assert run_cli(argv)[0] == 0
                assert os.path.exists(fifo) and not os.path.isfile(fifo)
            assert got == [want.read_bytes()]

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    @pytest.mark.parametrize("command", ["score", "det", "evaluate"])
    def test_output_to_dev_stdout_that_is_a_file(self, tmp_path, command):
        # /dev/stdout names the file stdout writes to, which is written at
        # the stream's offset, not replaced: the file holds the output and
        # then the report, as the same command's stdout through a pipe does
        data = simulate(tmp_path, seed=5)
        scores = tmp_path / "scores.tsv"
        assert run_cli(score_args(data, scores))[0] == 0
        labeled = ["--scores", str(scores), "--trials", str(data / "trials.tsv")]
        argv = {
            "score": score_args(data, "/dev/stdout"),
            "det": ["det", *labeled, "--out", "/dev/stdout"],
            "evaluate": ["evaluate", *labeled, "--json", "/dev/stdout"],
        }[command]
        child = [sys.executable, "-m", "tdsvkit.cli", *argv]
        run = dict(cwd=ROOT, env=child_env(), stderr=subprocess.PIPE, timeout=120)
        through_pipe = subprocess.run(child, stdout=subprocess.PIPE, **run)
        assert through_pipe.returncode == 0, through_pipe.stderr
        assert b"=" in through_pipe.stdout.splitlines()[-1]  # a report line ends it
        out = tmp_path / "out.txt"
        with open(out, "wb") as f:
            assert subprocess.run(child, stdout=f, **run).returncode == 0
        assert out.read_bytes() == through_pipe.stdout
        assert sorted(os.listdir(tmp_path)) == ["data", "out.txt", "scores.tsv"]

    @pytest.mark.parametrize("order", ["trial order", "reversed"])
    @pytest.mark.parametrize("command", ["evaluate", "det"])
    def test_evaluate_and_det_leave_numpy_ma_unimported(self, tmp_path, command, order):
        # np.unique and np.isin import numpy.ma on their first call, 10-25 ms
        # of a fresh process that evaluate and det have no use for
        data = simulate(tmp_path, seed=5)
        scores = tmp_path / "scores.tsv"
        assert run_cli(score_args(data, scores))[0] == 0
        if order == "reversed":  # the looked-up join, not the in-order one
            lines = scores.read_text(encoding="utf-8").splitlines(True)
            scores.write_text("".join(reversed(lines)), encoding="utf-8")
        argv = [command, "--scores", str(scores), "--trials", str(data / "trials.tsv")]
        if command == "det":
            argv += ["--out", str(tmp_path / "det.tsv")]
        child = (
            "import sys\nfrom tdsvkit.cli import main\ncode = main(sys.argv[1:])\n"
            "print('numpy.ma' in sys.modules)\nsys.exit(code)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", child, *argv],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_subset_report(self, tmp_path):
        data = simulate(tmp_path, seed=5)
        scores = tmp_path / "scores.tsv"
        assert run_cli(score_args(data, scores))[0] == 0
        code, out, _ = run_cli([
            "evaluate", "--scores", str(scores), "--trials", str(data / "trials.tsv"),
            "--subset", "tc-vs-tw",
        ])
        assert code == 0
        report = report_dict(out)
        assert report["subset"] == "tc-vs-tw"
        assert report["n_nontarget"] == "10"
        assert report["skipped"] == "20"

    def test_json_report(self, tmp_path):
        data = simulate(tmp_path, seed=5)
        scores = tmp_path / "scores.tsv"
        assert run_cli(score_args(data, scores))[0] == 0
        json_path = tmp_path / "report.json"
        code, out, _ = run_cli([
            "evaluate", "--scores", str(scores), "--trials", str(data / "trials.tsv"),
            "--json", str(json_path),
        ])
        assert code == 0
        payload = json.loads(json_path.read_text(encoding="utf-8"))
        report = report_dict(out)
        assert payload["n_total"] == 40
        assert payload["min_dcf"] == pytest.approx(float(report["min_dcf"]), abs=1e-6)
        assert payload["eer"] == pytest.approx(float(report["eer"]), abs=1e-6)

    def test_custom_spaces(self, tmp_path):
        code, out, err = run_cli([
            "simulate", "--out", str(tmp_path / "d"), "--seed", "1",
            "--space", "x:8:0.0", "--space", "y:16:0.1",
            "--n-speakers", "4", "--n-phrases", "2", "--trials-per-type", "2",
        ])
        assert code == 0, err
        assert (tmp_path / "d" / "embeddings_x.tsv").exists()
        assert (tmp_path / "d" / "embeddings_y.tsv").exists()
        scores = tmp_path / "s.tsv"
        code, out, err = run_cli([
            "score",
            "--trials", str(tmp_path / "d" / "trials.tsv"),
            "--enrollmap", str(tmp_path / "d" / "enrollmap.tsv"),
            "--phrases", str(tmp_path / "d" / "phrases.tsv"),
            "--transcripts", str(tmp_path / "d" / "transcripts.tsv"),
            "--embeddings", f"x={tmp_path / 'd' / 'embeddings_x.tsv'}",
            "--embeddings", f"y={tmp_path / 'd' / 'embeddings_y.tsv'}",
            "--out", str(scores),
        ])
        assert code == 0, err
        assert report_dict(out)["scored"] == "8"

    def test_determinism_quick(self, tmp_path):
        d1 = simulate(tmp_path, "one", seed=9)
        d2 = simulate(tmp_path, "two", seed=9)
        for name in ("trials.tsv", "phrases.tsv", "transcripts.tsv",
                     "enrollmap.tsv", "embeddings_alpha.tsv", "embeddings_beta.tsv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_punitive_lines_present(self, tmp_path):
        data = simulate(tmp_path, seed=5)
        scores = tmp_path / "scores.tsv"
        assert run_cli(score_args(data, scores))[0] == 0
        lines = scores.read_text(encoding="utf-8").splitlines()
        punitive = [l for l in lines if "\tPUNITIVE\t" in l]
        assert len(punitive) == 20  # all TW and IW trials
        assert all(l.split("\t")[1] == "-1.000000" for l in punitive)


class TestStrictLenient:
    def _broken_world(self, tmp_path):
        data = simulate(tmp_path, seed=5)
        emb = data / "embeddings_beta.tsv"
        lines = emb.read_text(encoding="utf-8").splitlines()
        # drop one test utterance from the beta space only
        lines = [l for l in lines if not l.startswith("utt00003\t")]
        emb.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
        return data

    def test_strict_aborts(self, tmp_path):
        data = self._broken_world(tmp_path)
        scores = tmp_path / "scores.tsv"
        code, _, err = run_cli(score_args(data, scores))
        assert code == 1
        assert err.startswith("error=MissingSpace:")
        assert "utt00003" in err

    def test_lenient_skips(self, tmp_path):
        data = self._broken_world(tmp_path)
        scores = tmp_path / "scores.tsv"
        code, out, err = run_cli(score_args(data, scores) + ["--lenient"])
        assert code == 0
        assert report_dict(out) == {"scored": "39", "skipped": "1"}
        assert "skip trl00003" in err
        assert len(scores.read_text(encoding="utf-8").splitlines()) == 39

    def test_lenient_reports_enrollment_build_error(self, tmp_path):
        data = simulate(tmp_path, seed=5)
        trial_line = (data / "trials.tsv").read_text(encoding="utf-8").splitlines()[1]
        trial_id, model_id = trial_line.split("\t")[:2]
        emb = data / "embeddings_beta.tsv"
        rep = f"{model_id}-rep1"
        lines = emb.read_text(encoding="utf-8").splitlines()
        emb.write_text(
            "\n".join(l for l in lines if not l.startswith(rep + "\t")) + "\n",
            encoding="utf-8",
        )
        reason = (
            f"MissingSpace: repetition '{rep}' of model '{model_id}' "
            "missing from space 'beta'"
        )
        scores = tmp_path / "scores.tsv"
        code, _, err = run_cli(score_args(data, scores))
        assert code == 1
        assert err == f"error={reason}\n"
        code, out, err = run_cli(score_args(data, scores) + ["--lenient"])
        assert code == 0
        skips = err.splitlines()
        assert f"skip {trial_id}: {reason}" in skips
        assert all(line.endswith(f": {reason}") for line in skips)
        assert int(report_dict(out)["skipped"]) == len(skips) >= 1

    def test_lenient_skips_duplicate_trial_id(self, tmp_path):
        data = simulate(tmp_path, seed=5)
        trials = data / "trials.tsv"
        first = trials.read_text(encoding="utf-8").splitlines()[0]
        with open(trials, "a", encoding="utf-8") as f:
            f.write(first + "\n")
        code, out, err = run_cli(score_args(data, tmp_path / "s.tsv") + ["--lenient"])
        assert code == 0
        assert report_dict(out) == {"scored": "40", "skipped": "1"}
        trial_id = first.split("\t")[0]
        assert err == f"skip {trial_id}: DuplicateId: duplicate trial id '{trial_id}'\n"


class TestEvaluateInputs:
    def _files(self, tmp_path, scores, trials):
        (tmp_path / "scores.tsv").write_text(scores, encoding="utf-8")
        (tmp_path / "trials.tsv").write_text(trials, encoding="utf-8")
        return [
            "--scores", str(tmp_path / "scores.tsv"),
            "--trials", str(tmp_path / "trials.tsv"),
        ]

    def test_nonfinite_score_rejected(self, tmp_path):
        files = self._files(
            tmp_path,
            "t1\tnan\tPASS\t0.0000\nt2\t0.5\tPASS\t0.0000\nt3\t0.1\tPASS\t0.0000\n",
            "t1\tm1\tu1\tTC\nt2\tm1\tu2\tTC\nt3\tm2\tu3\tIW\n",
        )
        for cmd in (["evaluate"], ["det", "--out", str(tmp_path / "det.tsv")]):
            code, out, err = run_cli(cmd + files)
            assert code == 1
            assert out == ""
            assert err == (
                f"error=UnparseableFloat: {tmp_path / 'scores.tsv'}:1: "
                "column 2: non-finite value 'nan'\n"
            )

    def test_duplicate_labeled_trial_rejected(self, tmp_path):
        files = self._files(
            tmp_path,
            "t1\t0.9\tPASS\t0.0000\nt2\t0.1\tPASS\t0.0000\n",
            "t1\tm1\tu1\tTC\nt2\tm2\tu2\tIW\nt1\tm1\tu1\tIW\n",
        )
        for cmd in (["evaluate"], ["det", "--out", str(tmp_path / "det.tsv")]):
            code, out, err = run_cli(cmd + files)
            assert code == 1
            assert out == ""
            assert err.startswith("error=DuplicateId:")
            assert "'t1'" in err


    def test_unscored_labeled_trials_warned(self, tmp_path):
        # t3 and t4 are labeled but unscored; unlabeled t5 is not counted.
        scores = "t1\t0.9\tPASS\t0.0000\nt2\t0.1\tPASS\t0.0000\n"
        trials = "t1\tm1\tu1\tTC\nt2\tm2\tu2\tIW\nt3\tm1\tu3\tTC\nt4\tm2\tu4\tIC\nt5\tm2\tu5\n"
        files = self._files(tmp_path, scores, trials)
        warning = f"warning: 2 labeled trials in {tmp_path / 'trials.tsv'} have no score line\n"
        code, out, err = run_cli(["evaluate"] + files)
        assert (code, err) == (0, warning)
        assert report_dict(out)["n_total"] == "2"
        # stdout is what the same scores give against a trial list without them
        (tmp_path / "trials.tsv").write_text(
            "t1\tm1\tu1\tTC\nt2\tm2\tu2\tIW\n", encoding="utf-8"
        )
        assert run_cli(["evaluate"] + files) == (0, out, "")
        self._files(tmp_path, scores, trials)
        code, out, err = run_cli(["det", "--out", str(tmp_path / "det.tsv")] + files)
        assert (code, out, err) == (0, "points=3\n", warning)

    def test_all_labeled_trials_scored_no_warning(self, tmp_path):
        files = self._files(
            tmp_path,
            "t1\t0.9\tPASS\t0.0000\nt2\t0.1\tPASS\t0.0000\n",
            "t1\tm1\tu1\tTC\nt2\tm2\tu2\tIW\n",
        )
        for cmd in (["evaluate"], ["det", "--out", str(tmp_path / "det.tsv")]):
            code, _, err = run_cli(cmd + files)
            assert (code, err) == (0, "")


class TestErrorContract:
    def test_missing_file_is_io_error(self, tmp_path):
        code, _, err = run_cli([
            "evaluate", "--scores", str(tmp_path / "nope.tsv"),
            "--trials", str(tmp_path / "nope2.tsv"),
        ])
        assert code == 1
        assert err.startswith("error=IoError:")

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs resource limits and fork")
    def test_score_past_the_file_size_limit_keeps_the_previous_scores(self, tmp_path):
        # The score file outgrows RLIMIT_FSIZE, set in the child only, with
        # SIGXFSZ ignored so that the write fails with EFBIG: the run exits
        # 1, and the scores.tsv of an earlier run is left as it was.
        import resource
        import signal

        data = tmp_path / "data"
        spaces = ["--space", "alpha:2:0.1", "--space", "beta:2:0.1"]
        simulate_argv = ["simulate", "--out", str(data), "--trials-per-type", "750", *spaces]
        assert run_cli(simulate_argv)[0] == 0
        scores = tmp_path / "scores.tsv"
        assert run_cli(score_args(data, scores) + ["--cer-threshold", "inf"])[0] == 0
        before = scores.read_bytes()
        assert len(before) > 60_000

        def limited():
            hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
            resource.setrlimit(resource.RLIMIT_FSIZE, (60_000, hard))
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)

        proc = subprocess.run(
            [sys.executable, "-m", "tdsvkit.cli", *score_args(data, scores)],
            cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
            preexec_fn=limited,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error=IoError: [Errno 27] File too large")
        assert scores.read_bytes() == before
        assert sorted(os.listdir(tmp_path)) == ["data", "scores.tsv"]

    def test_unwritable_json_report_prints_no_report(self, tmp_path):
        data = simulate(tmp_path, seed=5)
        scores = tmp_path / "scores.tsv"
        assert run_cli(score_args(data, scores))[0] == 0
        code, out, err = run_cli([
            "evaluate", "--scores", str(scores), "--trials", str(data / "trials.tsv"),
            "--json", str(tmp_path / "missing" / "r.json"),
        ])
        assert (code, out) == (1, "")
        assert err.startswith("error=IoError:") and err.count("\n") == 1

    def test_scores_too_large_for_the_sentinel_to_move(self, tmp_path):
        # 1e20 + 1.0 == 1e20: the sweep still ends at reject-everything
        scores, trials = tmp_path / "scores.tsv", tmp_path / "trials.tsv"
        scores.write_text("t1\t1e20\tPASS\t0.0\nt2\t1e20\tPASS\t0.0\n", encoding="utf-8")
        trials.write_text("t1\tm1\tu1\tTC\nt2\tm2\tu2\tIC\n", encoding="utf-8")
        code, out, err = run_cli(["evaluate", "--scores", str(scores), "--trials", str(trials)])
        assert code == 0 and err.count("\n") <= 1
        report = report_dict(out)
        assert float(report["min_dcf"]) <= 1.0 and report["eer"] == "0.500000"

    def test_bad_embeddings_header(self, tmp_path):
        data = simulate(tmp_path, seed=5)
        bad = tmp_path / "bad.tsv"
        bad.write_text("not a header\n", encoding="utf-8")
        argv = score_args(data, tmp_path / "s.tsv")
        argv[argv.index("--embeddings") + 1] = f"alpha={bad}"
        code, _, err = run_cli(argv)
        assert code == 1
        assert err.startswith("error=BadHeader:")

    @pytest.mark.parametrize("sigma, detail", [
        ("1e308", "embedding contains NaN or infinite values"),
        ("1e200", "cannot normalize vector: its norm overflows"),
    ])
    def test_simulate_names_the_space_that_overflows(self, tmp_path, sigma, detail):
        code, out, err = run_cli([
            "simulate", "--n-speakers", "2", "--n-phrases", "2", "--trials-per-type", "1",
            "--space", "ok:4:0.5", "--space", f"a:4:{sigma}", "--out", str(tmp_path / "d"),
        ])
        assert (code, out) == (1, "")
        space = f"space 'a' at noise_sigma {float(sigma)!r}"
        assert err == f"error=DegenerateVector: {space}: {detail}\n"

    def test_score_rejects_embeddings_whose_norm_overflows(self, tmp_path):
        # at 1e200 per value a squared norm overflows; the norm must not
        # come out inf and scale every vector to zeros
        data = simulate(tmp_path, seed=5)
        emb = data / "embeddings_beta.tsv"
        header, *rows = emb.read_text(encoding="utf-8").splitlines()
        scaled = [header]
        for row in rows:
            utt_id, values = row.split("\t")
            values = " ".join(f"{float(v) * 1e200:.17g}" for v in values.split())
            scaled.append(f"{utt_id}\t{values}")
        emb.write_text("\n".join(scaled) + "\n", encoding="utf-8")
        code, out, err = run_cli(score_args(data, tmp_path / "s.tsv"))
        assert (code, out) == (1, "")
        assert err == (
            "error=DegenerateVector: model 'mdl0000' in space 'beta': "
            "cannot normalize vector: its norm overflows\n"
        )

    def test_bad_space_syntax(self, tmp_path):
        data = simulate(tmp_path, seed=5)
        argv = score_args(data, tmp_path / "s.tsv")
        argv[argv.index("--embeddings") + 1] = "alpha"  # no '=path'
        code, _, err = run_cli(argv)
        assert code == 1
        assert err.startswith("error=ConfigInvalid:")

    def test_unlabeled_trials_rejected_by_evaluate(self, tmp_path):
        data = simulate(tmp_path, seed=5)
        scores = tmp_path / "scores.tsv"
        assert run_cli(score_args(data, scores))[0] == 0
        stripped = tmp_path / "unlabeled.tsv"
        content = (data / "trials.tsv").read_text(encoding="utf-8")
        stripped.write_text(
            "".join(line.rsplit("\t", 1)[0] + "\n" for line in content.splitlines()),
            encoding="utf-8",
        )
        code, _, err = run_cli(
            ["evaluate", "--scores", str(scores), "--trials", str(stripped)]
        )
        assert code == 1
        assert err.startswith("error=UnlabeledRecords:")

    def test_bad_simulate_space(self, tmp_path):
        code, _, err = run_cli([
            "simulate", "--out", str(tmp_path / "d"), "--space", "x:8",
        ])
        assert code == 1
        assert err.startswith("error=ConfigInvalid:")

    def test_simulate_space_name_with_path_separator(self, tmp_path):
        # the name would make the file name embeddings_a/b.tsv; it is refused
        # before any file is written
        out = tmp_path / "d"
        out.mkdir()
        code, stdout, err = run_cli(["simulate", "--out", str(out), "--space", "a/b:8:0.1"])
        assert code == 1 and stdout == ""
        assert err.startswith("error=ConfigInvalid:") and err.count("\n") == 1
        assert list(out.iterdir()) == []

    def test_bad_gate_threshold(self, tmp_path):
        data = simulate(tmp_path, seed=5)
        argv = score_args(data, tmp_path / "s.tsv") + ["--cer-threshold", "-1"]
        code, _, err = run_cli(argv)
        assert code == 1
        assert err.startswith("error=ConfigInvalid:")

    def test_infinite_punitive_score_rejected(self, tmp_path):
        data = simulate(tmp_path, seed=3, err_wrong=0.5)
        scores = tmp_path / "s.tsv"
        code, out, err = run_cli(score_args(data, scores) + ["--punitive-score=-inf"])
        assert (code, out) == (1, "")
        assert err == "error=ConfigInvalid: punitive_score must be finite and <= -1.0, got -inf\n"
        assert not scores.exists()

    def test_input_not_utf8(self, tmp_path):
        # a score id holding the bytes ff fe, then an enrollmap model id
        data = simulate(tmp_path, seed=5)
        scores = tmp_path / "scores.tsv"
        scores.write_bytes(b"trl00000\t0.9\tPASS\t0.0000\ntrl\xff\xfe1\t0.1\tPASS\t0.0000\n")
        argv = ["evaluate", "--scores", str(scores), "--trials", str(data / "trials.tsv")]
        assert run_cli(argv) == (
            1, "", f"error=MalformedLine: {scores}:2: not valid UTF-8 at byte offset 28\n"
        )
        enrollmap = data / "enrollmap.tsv"
        enrollmap.write_bytes(enrollmap.read_bytes().replace(b"mdl0001", b"mdl\xfe001", 1))
        offset = enrollmap.read_bytes().index(b"\xfe")
        assert run_cli(score_args(data, tmp_path / "s.tsv")) == (
            1, "", f"error=MalformedLine: {enrollmap}:2: not valid UTF-8 at byte offset {offset}\n"
        )
        assert not (tmp_path / "s.tsv").exists()

    def test_usage_error_exits_two(self):
        for argv in (
            ["evaluate", "--scores", "x", "--trials", "y", "--subset", "bogus"],
            score_args(Path("d"), "s.tsv") + ["--strict"],  # strict is the default, not a flag
        ):
            with pytest.raises(SystemExit) as exc_info:
                run_cli(argv)
            assert exc_info.value.code == 2

    def test_infinite_threshold_accepted(self, tmp_path):
        data = simulate(tmp_path, seed=5)
        scores = tmp_path / "s.tsv"
        argv = score_args(data, scores) + ["--cer-threshold", "inf"]
        code, out, err = run_cli(argv)
        assert code == 0, err
        lines = scores.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 40
        assert all(line.split("\t")[2] == "PASS" for line in lines)


ROOT = Path(__file__).resolve().parents[1]


def run_traced(tmp_path, argv):
    """Run one CLI command under the benchmark's tracer (perfbench/tracer.py)
    in a subprocess; returns (stdout, the tracer's JSON output)."""
    spans = tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), *argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(spans.read_text(encoding="utf-8"))


class TestBenchmarkTracer:
    """The benchmark patches functions by name and counts from their results;
    a broken link shows only as a missing name or a hook error. core.cosine
    is gone from the package but still on the tracer's list, so it is the
    one name allowed to be absent."""

    def test_score_and_evaluate_under_tracer(self, tmp_path):
        data = simulate(tmp_path, seed=42)
        scores = tmp_path / "scores.tsv"
        out, trace = run_traced(tmp_path, score_args(data, scores))
        assert trace["absent"] == ["core.cosine"]
        assert "trace.hook_errors" not in trace["counts"]
        n_lines = len(scores.read_text(encoding="utf-8").splitlines())
        assert trace["counts"]["scoring.trials_scored"] == int(report_dict(out)["scored"]) == n_lines
        n_entries = len((data / "enrollmap.tsv").read_text(encoding="utf-8").splitlines())
        builds = [span for span in trace["spans"] if span[0] == "scoring.build_enrollment"]
        assert len(builds) == n_entries > 0
        # the row count of both spaces, read from the table parse_embeddings returns
        n_rows = sum(
            len((data / f"embeddings_{space}.tsv").read_text(encoding="utf-8").splitlines()) - 1
            for space in ("alpha", "beta")
        )
        assert trace["counts"]["tsvio.parse_embeddings.rows"] == n_rows > 0
        out, trace = run_traced(tmp_path, [
            "evaluate", "--scores", str(scores), "--trials", str(data / "trials.tsv"),
        ])
        assert trace["absent"] == ["core.cosine"]
        assert "trace.hook_errors" not in trace["counts"]
        assert "min_dcf=" in out
        out, trace = run_traced(tmp_path, [
            "det", "--scores", str(scores), "--trials", str(data / "trials.tsv"),
            "--out", str(tmp_path / "det.tsv"),
        ])
        assert trace["absent"] == ["core.cosine"]
        assert "trace.hook_errors" not in trace["counts"]
        names = [span[0] for span in trace["spans"]]
        assert names.count("cli.cmd_det") == names.count("metrics.det_points") == 1
        assert trace["counts"]["metrics.det_points.points"] == int(report_dict(out)["points"]) > 0

    def test_simulate_under_tracer(self, tmp_path):
        # the set-up's per-layer metrics read one span of each
        data = tmp_path / "data"
        out, trace = run_traced(tmp_path, ["simulate", "--seed", "42", "--out", str(data)])
        assert trace["absent"] == ["core.cosine"]
        assert "trace.hook_errors" not in trace["counts"]
        names = [span[0] for span in trace["spans"]]
        assert names.count("synth.gen_dataset") == 1
        assert names.count("tsvio.write_dataset") == 1
        assert report_dict(out)["trials"] == "40"
        assert (data / "embeddings_alpha.tsv").is_file()
