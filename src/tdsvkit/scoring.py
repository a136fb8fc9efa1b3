"""Enrollment models and trial scoring.

An enrollment model is built from three repetitions of one phrase by one
speaker: per embedding space, the repetitions are unit-normalized, averaged,
and re-normalized. The spaces are fused: a trial's score is the cosine of
the concatenated per-space unit vectors (in the declared space order), which
equals the mean of the per-space cosines, if the phrase gate passes, else
the punitive floor.

score_all is the one scoring entry point. It takes a TrialColumns table and
the enrollmap entries, builds every model, and owns the strict/lenient
policy for build and trial errors alike. It computes that mean of per-space
cosines, clamped to [-1, 1], in one batch after a validation pass, and gates
each distinct (hypothesis text, phrase text) pair once per run. The scores
come back as ScoreColumns, the one score-set type, which the score file
writer and reader share. The tests check the scores against the
concatenate-and-dot reference in tests/oracles.py.
"""

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .core import EPS, TrialColumns, as_embedding, check_token, columns_eq, l2_normalize
from .errors import (
    DegenerateVector,
    DimensionMismatch,
    DuplicateId,
    MissingModel,
    MissingPhrase,
    MissingSpace,
    MissingTranscript,
    TdsvError,
)
from .textgate import GateConfig, Phrase, Transcript, gate

REPS_PER_MODEL = 3


@dataclass(frozen=True)
class EnrollEntry:
    """Raw enrollmap record: which repetitions build which model."""

    model_id: str
    phrase_id: str
    rep_ids: tuple

    def __post_init__(self):
        check_token(self.model_id, "model_id")
        check_token(self.phrase_id, "phrase_id")
        if len(self.rep_ids) != REPS_PER_MODEL:
            raise ValueError(
                f"model '{self.model_id}' needs exactly {REPS_PER_MODEL} "
                f"repetition ids, got {len(self.rep_ids)}"
            )
        for rid in self.rep_ids:
            check_token(rid, "rep_id")


@dataclass(frozen=True)
class ScoreColumns:
    """A score set as columns in trial order: what score_all returns,
    tsvio.write_scores writes and tsvio.parse_scores reads. len() is the
    number of rows."""

    trial_ids: list
    score: np.ndarray  # float64
    passed: np.ndarray  # bool: the gate passed (flag PASS)
    cer: np.ndarray  # float64

    def __len__(self) -> int:
        return len(self.trial_ids)

    __eq__ = columns_eq


@dataclass(frozen=True)
class ScoreRun:
    """Batch scoring result. labels holds the label code (core.LABEL_CODES,
    UNLABELED for a trial without a label) of each scored trial; skipped
    holds (trial_id, reason) pairs and is only populated in lenient mode."""

    records: ScoreColumns
    labels: np.ndarray  # int8
    skipped: list


def enroll(reps: Sequence) -> np.ndarray:
    """Aggregate repetition embeddings into a unit-norm speaker centroid.

    normalize(mean(normalize(rep_i))): scale-invariant per repetition and
    permutation-invariant up to float summation order.
    """
    if not reps:
        raise DimensionMismatch("enroll requires at least one repetition")
    units = [l2_normalize(r) for r in reps]
    dims = {u.shape[0] for u in units}
    if len(dims) > 1:
        raise DimensionMismatch(f"repetitions have mixed dims {sorted(dims)}")
    return l2_normalize(np.mean(units, axis=0))


def build_enrollment(
    entry: EnrollEntry,
    embeddings_by_space: Mapping[str, Mapping[str, np.ndarray]],
    space_order: Sequence[str],
) -> tuple:
    """The unit-norm centroids of one enrollmap entry, in space order."""
    centroids = []
    for space in space_order:
        table = embeddings_by_space.get(space)
        if table is None:
            raise MissingSpace(f"no embeddings for declared space '{space}'")
        reps = []
        for rid in entry.rep_ids:
            vec = table.get(rid)
            if vec is None:
                raise MissingSpace(
                    f"repetition '{rid}' of model '{entry.model_id}' "
                    f"missing from space '{space}'"
                )
            reps.append(vec)
        centroids.append(enroll(reps))
    return tuple(centroids)


def score_all(
    trials: TrialColumns,
    entries: Mapping[str, EnrollEntry],
    embeddings: Mapping[str, Mapping[str, np.ndarray]],
    transcripts: Mapping[str, Transcript],
    phrases: Mapping[str, Phrase],
    cfg: GateConfig,
    space_order: Sequence[str],
    strict: bool = True,
) -> ScoreRun:
    """Score each row of a trial table in order; the one scoring entry point.

    entries maps model id to its enrollmap entry, as tsvio.parse_enrollmap
    returns it; embeddings maps each space to its id -> vector table, which
    holds the repetitions and the test vectors alike. Every entry's model
    is built first, in entry order. strict: abort on the first error; a
    build error is raised as it is, a trial's error with the offending
    trial id in the message. lenient: skip broken trials and report them in
    ScoreRun.skipped as (trial id, "Class: message"), where a model's build
    error is the reason for each of its trials. Duplicate trial ids are an
    integrity error.

    One validation pass in trial order resolves every reference and gates
    each distinct (hypothesis, phrase) pair once. The cosines of the
    gate-passed trials are then computed together: per trial and space, the
    dot product of centroid and test vector over the product of their
    norms; the score is the mean over spaces, clamped to [-1, 1].
    """
    if not space_order:
        raise ValueError("scoring requires at least one embedding space")
    models = {}  # model id -> (entry, centroids, their norms), or the build error
    for model_id, entry in entries.items():
        try:
            centroids = build_enrollment(entry, embeddings, space_order)
        except TdsvError as exc:
            if strict:
                raise
            models[model_id] = exc
        else:
            models[model_id] = (entry, centroids, [_norm(c) for c in centroids])
    # Only a trial whose model built reads these, so none is None.
    tables = [embeddings.get(space) for space in space_order]
    seen = set()
    outcomes = {}  # (hypothesis text, phrase text) -> GateOutcome
    skipped = []
    kept, ids, gates = [], [], []  # row, id and gate of every valid trial, in order
    # Per gate-passed trial: its index in ids, then per space (flat, in
    # space order) the centroid, the test vector and the product of norms.
    passed, enr_vecs, test_vecs, norm_products = [], [], [], []
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
            entry, centroids, centroid_norms = model
            tests = []
            for space, table in zip(space_order, tables):
                vec = table.get(test_id)
                if vec is None:
                    raise MissingSpace(
                        f"test utterance '{test_id}' missing from "
                        f"space '{space}'"
                    )
                tests.append(vec)
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
            tests = [as_embedding(t) for t in tests]

            key = (hyp.text, phrase.text)
            outcome = outcomes.get(key)
            if outcome is None:
                outcome = outcomes[key] = gate(hyp, phrase, cfg)
            if outcome.passed:
                test_norms = [_norm(t) for t in tests]
                _check_dims(centroids, tests)
                passed.append(len(ids))
                enr_vecs.extend(centroids)
                test_vecs.extend(tests)
                norm_products.extend(a * b for a, b in zip(centroid_norms, test_norms))
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
        dots = np.array([c.dot(t) for c, t in zip(enr_vecs, test_vecs)])
        cosines = (dots / norm_products).reshape(len(passed), len(space_order))
        scores[passed] = np.clip(cosines.mean(axis=1), -1.0, 1.0)
    records = ScoreColumns(
        ids, scores, np.array([g.passed for g in gates], bool), np.array([g.cer for g in gates])
    )
    return ScoreRun(records, trials.labels[kept], skipped)


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of v; a degenerate vector cannot be normalized."""
    norm = math.sqrt(v.dot(v))
    if norm <= EPS:
        raise DegenerateVector(f"cannot normalize vector with norm {norm:.3e}")
    return norm


def _check_dims(centroids, tests) -> None:
    """Each test vector must match its space's centroid in dimension."""
    enr = [c.shape[0] for c in centroids]
    test = [t.shape[0] for t in tests]
    if enr != test:
        raise DimensionMismatch(f"cosine of dim {sum(enr)} against dim {sum(test)}")
