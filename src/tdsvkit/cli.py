"""Command-line interface.

Four batch subcommands wire the pipeline together:

    simulate   seeded synthetic dataset -> TSV files
    score      trials + enrollmap + embeddings + transcripts -> score file
    evaluate   score file + labeled trials -> min-DCF / EER report
    det        score file + labeled trials -> DET points TSV

score and simulate import the scoring code and the generator as they run,
so that evaluate and det load neither. score reads its embedding files
and trial list, and evaluate and det their score file and trial list,
through the cache of parsed tables (embcache), which serves a file of 1
MiB or more that this code has parsed before. A regular file under 1 MiB
is never cached, and a piped score file or trial list is read once as it
streams, so evaluate and det import the cache only for a regular file of
1 MiB or more.

Any toolkit error prints a single machine-parseable stderr line
`error=<ClassName>: <detail>` and exits 1; OS-level file problems report as
`error=IoError: ...`. Reports go to stdout as stable key=value lines.
evaluate and det report labeled trials that have no score line as one
`warning: ...` stderr line.
"""

import argparse
import json
import os
import stat
import sys
from dataclasses import fields
from itertools import repeat
from typing import Tuple

import numpy as np

from .core import UNLABELED, TrialLabel, check_unique
from .errors import ConfigInvalid, DuplicateId, TdsvError, UnlabeledRecords
from .metrics import ALL, SUBSETS, DcfParams, det_points, eer, min_dcf, split_scores, sweep
from .textgate import GateConfig
from . import tsvio


def _parse_space_args(pairs) -> dict:
    """Each --embeddings argument is '<space>=<path>'; returns space -> path
    in argument order, the declared fusion order."""
    spaces = {}
    for pair in pairs:
        name, sep, path = pair.partition("=")
        if not sep or not name or not path:
            raise ConfigInvalid(
                f"--embeddings expects '<space>=<path>', got {pair!r}"
            )
        if name in spaces:
            raise ConfigInvalid(f"--embeddings declares space '{name}' twice")
        spaces[name] = path
    return spaces


# Join code of a score line whose trial id is not in the trial list.
_NO_TRIAL = -2


def _read(path, kind: str):
    """tsvio.parse_<kind>(path), read through the cache of parsed tables
    (embcache.load_<kind>) when path is a regular file of
    tsvio._SPLIT_BYTES or more. Any other input is parsed as it is: a
    smaller file is never cached, so it imports no cache code; a pipe is
    read once, with no temporary copy; and a path that cannot be looked
    at is the parser's to report."""
    try:
        st = os.stat(path)
        cached = stat.S_ISREG(st.st_mode) and st.st_size >= tsvio._SPLIT_BYTES
    except OSError:
        cached = False
    if not cached:
        return getattr(tsvio, f"parse_{kind}")(path)
    from . import embcache

    return getattr(embcache, f"load_{kind}")(path)


def _load_labeled_scores(scores_path, trials_path) -> Tuple[np.ndarray, np.ndarray, int]:
    """Join a score file with the label column of a trial list, both read
    by _read, the score file first.

    Returns (scores, label codes) in score-file order, plus the number of
    labeled trials that have no score line. A score file that lists the
    trial list's ids in its order, as score writes it when it skips no
    trial, takes the label column as it is: one comparison of the two id
    columns' buffers finds it, with no str per id, and ScoreColumns has
    proved those ids unique. Any other pair is joined one id lookup per
    score line.
    """
    columns = _read(scores_path, "scores")
    trials = _read(trials_path, "trials")
    ids = columns.trial_ids
    if ids == trials.trial_ids:
        codes = trials.labels
    else:
        try:
            check_unique(trials.trial_ids, "trial id")
        except DuplicateId as exc:
            raise DuplicateId(f"{trials_path}: {exc}") from None
        labels = dict(zip(trials.trial_ids, trials.labels.tolist()))
        codes = np.fromiter(map(labels.get, ids, repeat(_NO_TRIAL)), np.int8, len(ids))
    missing = np.flatnonzero(codes < 0)
    if missing.size:
        trial_id = ids[missing[0]]
        if codes[missing[0]] == _NO_TRIAL:
            raise UnlabeledRecords(f"score record '{trial_id}' has no matching trial")
        raise UnlabeledRecords(f"trial '{trial_id}' carries no label")
    n_labeled = int(np.count_nonzero(trials.labels != UNLABELED))
    return columns.score, codes, n_labeled - len(ids)


def _warn_unscored(n_unscored: int, trials_path) -> None:
    if n_unscored:
        print(
            f"warning: {n_unscored} labeled trials in {trials_path} have no score line",
            file=sys.stderr,
        )


def cmd_score(args) -> int:
    from .embcache import load
    from .scoring import score_all

    spaces = _parse_space_args(args.embeddings)
    gate_cfg = GateConfig(args.cer_threshold, args.punitive_score)
    trials = _read(args.trials, "trials")
    entries = tsvio.parse_enrollmap(args.enrollmap)
    phrases = tsvio.parse_phrases(args.phrases)
    transcripts = tsvio.parse_transcripts(args.transcripts)
    # The mapping's order, that of --embeddings, is the fusion order.
    tables = {name: load(path)[0] for name, path in spaces.items()}
    run = score_all(trials, entries, tables, transcripts, phrases, gate_cfg, strict=args.strict)
    tsvio.write_scores(run.records, args.out)
    for trial_id, reason in run.skipped:
        print(f"skip {trial_id}: {reason}", file=sys.stderr)
    print(f"scored={len(run.records)}")
    print(f"skipped={len(run.skipped)}")
    return 0


def cmd_evaluate(args) -> int:
    scores, codes, n_unscored = _load_labeled_scores(args.scores, args.trials)
    mode = SUBSETS[args.subset]
    params = DcfParams(args.c_miss, args.c_fa, args.p_target)
    targets, nontargets = split_scores(scores, codes, mode)
    rates = sweep(targets, nontargets)
    mdcf, threshold = min_dcf(rates, params)
    eer_value = eer(rates)
    counts = np.bincount(codes, minlength=len(TrialLabel)).tolist()
    report = [
        ("subset", mode.name),
        ("n_total", len(codes)),
        *((f"n_{label.name.lower()}", n) for label, n in zip(TrialLabel, counts)),
        ("n_target", targets.size),
        ("n_nontarget", nontargets.size),
        ("min_dcf", f"{mdcf:.6f}"),
        ("argmin_threshold", f"{threshold:.6f}"),
        ("eer", f"{eer_value:.6f}"),
        ("skipped", len(codes) - targets.size - nontargets.size),
    ]
    if args.json is not None:  # written first, so that a failed write prints no report
        exact = {"min_dcf": mdcf, "argmin_threshold": threshold, "eer": eer_value}
        with tsvio.output_file(args.json) as f:
            f.write(json.dumps(dict(report) | exact, indent=2) + "\n")
    for key, value in report:
        print(f"{key}={value}")
    _warn_unscored(n_unscored, args.trials)
    return 0


def cmd_det(args) -> int:
    scores, codes, n_unscored = _load_labeled_scores(args.scores, args.trials)
    points = det_points(sweep(*split_scores(scores, codes, SUBSETS[args.subset])))
    tsvio.write_det(points, args.out)
    print(f"points={len(points)}")
    _warn_unscored(n_unscored, args.trials)
    return 0


def _parse_space_spec(text: str):
    from .synth import SpaceSpec

    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigInvalid(f"--space expects '<name>:<dim>:<sigma>', got {text!r}")
    name, dim_s, sigma_s = parts
    try:
        dim = int(dim_s)
        sigma = float(sigma_s)
    except ValueError:
        raise ConfigInvalid(
            f"--space expects integer dim and float sigma, got {text!r}"
        ) from None
    return SpaceSpec(name, dim, sigma)


def cmd_simulate(args) -> int:
    from .synth import SimConfig, gen_dataset

    given = vars(args)  # only the flags given, each under its SimConfig field
    kwargs = {f.name: given[f.name] for f in fields(SimConfig) if f.name in given}
    if "spaces" in kwargs:
        kwargs["spaces"] = tuple(map(_parse_space_spec, kwargs["spaces"]))
    cfg = SimConfig(**kwargs)
    ds = gen_dataset(cfg)
    tsvio.write_dataset(ds, args.out)
    print(f"speakers={cfg.n_speakers}")
    print(f"phrases={cfg.n_phrases}")
    print(f"models={len(ds.enroll_entries)}")
    print(f"trials={len(ds.trials)}")
    print(f"spaces={len(cfg.spaces)}")
    return 0


def _add_subset_flags(sub) -> None:
    sub.add_argument("--scores", required=True, help="score file from the score command")
    sub.add_argument("--trials", required=True, help="labeled trial list for the join")
    sub.add_argument(
        "--subset",
        choices=sorted(SUBSETS),
        default=ALL.name,
        help="which trial labels enter the evaluation",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdsvkit",
        description="Text-dependent speaker verification scoring and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_score = sub.add_parser(
        "score", help="gate transcripts and score trials against enrollments"
    )
    p_score.add_argument("--trials", required=True)
    p_score.add_argument("--enrollmap", required=True)
    p_score.add_argument("--phrases", required=True)
    p_score.add_argument("--transcripts", required=True)
    p_score.add_argument(
        "--embeddings",
        action="append",
        required=True,
        metavar="SPACE=PATH",
        help="per-space embedding file; repeat to declare the fusion order",
    )
    p_score.add_argument("--cer-threshold", type=float, default=GateConfig.cer_threshold)
    p_score.add_argument("--punitive-score", type=float, default=GateConfig.punitive_score)
    p_score.add_argument(
        "--lenient",
        dest="strict",
        action="store_false",
        help="skip broken trials and report them on stderr instead of aborting",
    )
    p_score.add_argument("--out", required=True)
    p_score.set_defaults(func=cmd_score)

    p_eval = sub.add_parser(
        "evaluate", help="min-DCF and EER report from a labeled score file"
    )
    _add_subset_flags(p_eval)
    p_eval.add_argument("--c-miss", type=float, default=DcfParams.c_miss)
    p_eval.add_argument("--c-fa", type=float, default=DcfParams.c_fa)
    p_eval.add_argument("--p-target", type=float, default=DcfParams.p_target)
    p_eval.add_argument("--json", help="also write the report as JSON")
    p_eval.set_defaults(func=cmd_evaluate)

    p_det = sub.add_parser("det", help="DET operating points from a score file")
    _add_subset_flags(p_det)
    p_det.add_argument("--out", required=True)
    p_det.set_defaults(func=cmd_det)

    # Each flag's dest is a SimConfig field, and a flag not given is left out
    # of the parsed args, so SimConfig states every default.
    p_sim = sub.add_parser(
        "simulate", help="generate a seeded synthetic dataset", argument_default=argparse.SUPPRESS
    )
    p_sim.add_argument("--seed", dest="master_seed", type=int, metavar="SEED", help="master seed")
    p_sim.add_argument("--n-speakers", type=int)
    p_sim.add_argument("--n-phrases", type=int)
    p_sim.add_argument(
        "--space",
        dest="spaces",
        action="append",
        metavar="NAME:DIM:SIGMA",
        help="embedding space spec; repeatable",
    )
    p_sim.add_argument("--trials-per-type", type=int, help="trial count per label")
    p_sim.add_argument(
        "--err-correct", dest="transcript_error_rate_correct", type=float, metavar="RATE"
    )
    p_sim.add_argument(
        "--err-wrong", dest="transcript_error_rate_wrong", type=float, metavar="RATE"
    )
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TdsvError as exc:
        print(f"error={type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error=IoError: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
