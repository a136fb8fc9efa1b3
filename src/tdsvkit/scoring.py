"""Enrollment models and trial scoring.

An enrollment model is built from three repetitions of one phrase by one
speaker: per embedding space, the repetitions are unit-normalized, averaged,
and re-normalized. The spaces are fused: a trial's score is the cosine of
the concatenated per-space unit vectors, which equals the mean of the
per-space cosines, if the phrase gate passes, else the punitive floor. The
fusion order is the order of the embeddings mapping (space name ->
EmbeddingTable) that build_enrollment and score_all take.

score_all is the one scoring entry point. It takes a TrialColumns table and
the enrollmap entries, builds every model, and owns the strict/lenient
policy for build and trial errors alike. It computes that mean of per-space
cosines, clamped to [-1, 1], in one batch after a validation pass, and gates
each distinct (hypothesis text, phrase text) pair once per run. Every dot
product and norm is core.row_dots, the package's one reduction (numpy's
pairwise sum, no BLAS), so no score bit depends on the CPU. The scores
come back as ScoreColumns, the one score-set type, which the score file
writer and reader share. That type, EnrollEntry and TrialColumns live in
core, so the readers and writers need nothing from this module. A model
that cannot be built is named, with its space, in its error. The tests
check the scores against the concatenate-and-dot reference in
tests/oracles.py.
"""

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .core import (
    EmbeddingTable,
    EnrollEntry,
    ScoreColumns,
    TrialColumns,
    check_norm,
    normalize_rows,
    row_dots,
    row_norms,
)
from .errors import (
    DuplicateId,
    MissingModel,
    MissingPhrase,
    MissingSpace,
    MissingTranscript,
    TdsvError,
)
from .textgate import GateConfig, Phrase, Transcript, gate


@dataclass(frozen=True)
class ScoreRun:
    """Batch scoring result. labels holds the label code (core.LABEL_CODES,
    UNLABELED for a trial without a label) of each scored trial; skipped
    holds (trial_id, reason) pairs and is only populated in lenient mode."""

    records: ScoreColumns
    labels: np.ndarray  # int8
    skipped: list


def enroll(reps) -> np.ndarray:
    """Aggregate a (k, D) matrix of repetition embeddings into a unit-norm
    speaker centroid.

    normalize(mean(normalize(rep_i))): scale-invariant per repetition and
    permutation-invariant up to float summation order.
    """
    return normalize_rows(normalize_rows(reps).mean(axis=0)[np.newaxis])[0]


def build_enrollment(entry: EnrollEntry, embeddings: Mapping[str, EmbeddingTable]) -> tuple:
    """The unit-norm centroids of one enrollmap entry, one per space in the
    order of embeddings. A repetition missing from a space raises
    MissingSpace, and a centroid that cannot be built raises its error as
    "model '<id>' in space '<space>': <message>", in the same class."""
    centroids = []
    for space, table in embeddings.items():
        rows = []
        for rid in entry.rep_ids:
            row = table.rows.get(rid)
            if row is None:
                raise MissingSpace(
                    f"repetition '{rid}' of model '{entry.model_id}' "
                    f"missing from space '{space}'"
                )
            rows.append(row)
        try:
            centroids.append(enroll(table.matrix[rows]))
        except TdsvError as exc:
            raise type(exc)(f"model '{entry.model_id}' in space '{space}': {exc}") from exc
    return tuple(centroids)


def score_all(
    trials: TrialColumns,
    entries: Mapping[str, EnrollEntry],
    embeddings: Mapping[str, EmbeddingTable],
    transcripts: Mapping[str, Transcript],
    phrases: Mapping[str, Phrase],
    cfg: GateConfig,
    *,
    strict: bool = True,
) -> ScoreRun:
    """Score each row of a trial table in order; the one scoring entry point.

    entries maps model id to its enrollmap entry, as tsvio.parse_enrollmap
    returns it; embeddings maps each space to its EmbeddingTable, which
    holds the repetitions and the test vectors alike, in fusion order (at
    least one space, or ValueError). Every entry's model is built first, in
    entry order. strict (keyword only): abort on the first error; a
    build error is raised as it is, a trial's error with the offending
    trial id in the message. lenient: skip broken trials and report them in
    ScoreRun.skipped as (trial id, "Class: message"), where a model's build
    error is the reason for each of its trials. Duplicate trial ids are an
    integrity error.

    One validation pass in trial order resolves every model and test id to
    a row index and gates each distinct (hypothesis, phrase) pair once. The
    cosines of the gate-passed trials are then computed together by row
    index: per trial and space, the row_dots of centroid row and test row
    over the product of their row_norms, each norm taken once per row; the
    score is the mean over spaces, clamped to [-1, 1].
    """
    if not embeddings:
        raise ValueError("scoring requires at least one embedding space")
    models = {}  # model id -> (entry, its row in centroids), or the build error
    built = []  # per built model, its centroids in space order
    for model_id, entry in entries.items():
        try:
            built.append(build_enrollment(entry, embeddings))
            models[model_id] = (entry, len(built) - 1)
        except TdsvError as exc:
            if strict:
                raise
            models[model_id] = exc
    # Per space: the centroid matrix, one row per built model.
    centroids = [np.array(c) for c in zip(*built)]
    tables = list(embeddings.values())
    centroid_norms = [row_norms(c) for c in centroids]
    test_norms = [row_norms(t.matrix) for t in tables]
    seen = set()
    outcomes = {}  # (hypothesis text, phrase text) -> GateOutcome
    skipped = []
    kept, ids, gates = [], [], []  # row, id and gate of every valid trial, in order
    # Per gate-passed trial: its index in ids, its model's centroid row and
    # its test rows, one per space.
    passed, model_rows, test_rows = [], [], []
    rows = zip(trials.trial_ids, trials.model_ids, trials.test_ids)
    for row, (trial_id, model_id, test_id) in enumerate(rows):
        try:
            if trial_id in seen:
                raise DuplicateId(f"duplicate trial id '{trial_id}'")
            seen.add(trial_id)
            model = models.get(model_id)
            if model is None:
                raise MissingModel(f"no enrollment model '{model_id}' in enrollmap")
            if isinstance(model, TdsvError):
                raise model.with_traceback(None)
            entry, model_row = model
            test = []
            for space, table in embeddings.items():
                test_row = table.rows.get(test_id)
                if test_row is None:
                    raise MissingSpace(
                        f"test utterance '{test_id}' missing from "
                        f"space '{space}'"
                    )
                test.append(test_row)
            phrase = phrases.get(entry.phrase_id)
            if phrase is None:
                raise MissingPhrase(
                    f"phrase '{entry.phrase_id}' of model "
                    f"'{entry.model_id}' not in phrase table"
                )
            hyp = transcripts.get(test_id)
            if hyp is None:
                raise MissingTranscript(
                    f"no transcript for test utterance '{test_id}'"
                )

            key = (hyp.text, phrase.text)
            outcome = outcomes.get(key)
            if outcome is None:
                outcome = outcomes[key] = gate(hyp, phrase, cfg)
            if outcome.passed:
                for norms, test_row in zip(test_norms, test):
                    check_norm(norms[test_row])
                passed.append(len(ids))
                model_rows.append(model_row)
                test_rows.append(test)
        except TdsvError as exc:
            if strict:
                raise type(exc)(f"trial '{trial_id}': {exc}") from exc
            skipped.append((trial_id, f"{type(exc).__name__}: {exc}"))
            continue
        kept.append(row)
        ids.append(trial_id)
        gates.append(outcome)

    scores = np.full(len(ids), cfg.punitive_score)
    if passed:
        cosines = np.empty((len(passed), len(tables)))
        # each space's test rows as a list: a tuple would index as one
        # multi-axis index
        for s, space_rows in enumerate(map(list, zip(*test_rows))):
            dots = row_dots(centroids[s], tables[s].matrix, model_rows, space_rows)
            cosines[:, s] = dots / (centroid_norms[s][model_rows] * test_norms[s][space_rows])
        scores[passed] = np.clip(cosines.mean(axis=1), -1.0, 1.0)
    records = ScoreColumns(
        ids, scores, np.array([g.passed for g in gates], bool), np.array([g.cer for g in gates])
    )
    return ScoreRun(records, trials.labels[kept], skipped)
