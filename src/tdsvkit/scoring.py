"""Enrollment models, embedding fusion, and trial scoring.

An enrollment model is built from three repetitions of one phrase by one
speaker: per embedding space, the repetitions are unit-normalized, averaged,
and re-normalized. Multiple model spaces are fused by concatenating the
per-space unit vectors in a declared order; the cosine of two such fused
vectors equals the mean of the per-space cosines. A trial's final score is
that cosine if the phrase gate passes, else the punitive floor.

score_all computes the score as that mean of per-space cosines, clamped to
[-1, 1], in one batch after a validation pass over all trials, and gates
each distinct (hypothesis text, phrase text) pair once per run.
"""

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .core import EPS, Trial, TrialLabel, as_embedding, check_token, l2_normalize
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
from .textgate import GateConfig, GateOutcome, Phrase, Transcript, gate

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
class EnrollmentModel:
    """Speaker model: one unit-norm centroid per embedding space."""

    model_id: str
    phrase_id: str
    rep_ids: tuple
    centroid_per_space: Mapping[str, np.ndarray]

    def __post_init__(self):
        if len(self.rep_ids) != REPS_PER_MODEL:
            raise ValueError(
                f"model '{self.model_id}' needs exactly {REPS_PER_MODEL} "
                f"repetition ids, got {len(self.rep_ids)}"
            )


@dataclass(frozen=True)
class FusedEmbedding:
    """Concatenation of per-space unit vectors in declared space order."""

    values: np.ndarray
    dims: tuple


@dataclass(frozen=True)
class ScoreRecord:
    """Final trial score with its gate outcome; label carried for evaluation."""

    trial_id: str
    score: float
    gate: GateOutcome
    label: Optional[TrialLabel] = None


@dataclass
class ScoreRun:
    """Batch scoring result. skipped holds (trial_id, reason) pairs and is
    only populated in lenient mode."""

    records: list = field(default_factory=list)
    skipped: list = field(default_factory=list)


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


def fuse(per_space: Sequence) -> FusedEmbedding:
    """Unit-normalize each space's vector and concatenate in the given order.

    Every block carries weight 1.0; any uniform positive weight yields the
    same cosines, and for two spaces cosine(fused, fused') is the mean of
    the per-space cosines.
    """
    if not per_space:
        raise ValueError("fuse requires at least one space")
    blocks = [l2_normalize(v) for v in per_space]
    return FusedEmbedding(
        values=np.concatenate(blocks),
        dims=tuple(b.shape[0] for b in blocks),
    )


def build_enrollment(
    entry: EnrollEntry,
    embeddings_by_space: Mapping[str, Mapping[str, np.ndarray]],
    space_order: Sequence[str],
) -> EnrollmentModel:
    """Compute per-space centroids for one enrollmap entry."""
    centroids = {}
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
        centroids[space] = enroll(reps)
    return EnrollmentModel(
        model_id=entry.model_id,
        phrase_id=entry.phrase_id,
        rep_ids=tuple(entry.rep_ids),
        centroid_per_space=centroids,
    )


def score_trial(
    trial: Trial,
    enrollment: EnrollmentModel,
    test_per_space: Mapping[str, np.ndarray],
    hyp: Optional[Transcript],
    phrases: Mapping[str, Phrase],
    cfg: GateConfig,
    space_order: Sequence[str],
) -> ScoreRecord:
    """Score one trial: punitive floor on gate failure, fused cosine otherwise.

    A one-trial run of the score_all path; raises its integrity error
    unchanged, without the trial-id prefix score_all adds.
    """
    tables = {
        space: {trial.test_id: test_per_space[space]} if space in test_per_space else {}
        for space in space_order
    }
    transcripts = {} if hyp is None else {trial.test_id: hyp}

    def reraise(_trial, exc):
        raise exc

    [record] = _score(
        [trial], {trial.model_id: enrollment}, {}, tables, transcripts, phrases,
        cfg, space_order, reraise,
    )
    return record


def score_all(
    trials: Sequence[Trial],
    enrollments: Mapping[str, EnrollmentModel],
    test_embeddings: Mapping[str, Mapping[str, np.ndarray]],
    transcripts: Mapping[str, Transcript],
    phrases: Mapping[str, Phrase],
    cfg: GateConfig,
    space_order: Sequence[str],
    strict: bool = True,
    enroll_errors: Optional[Mapping[str, TdsvError]] = None,
) -> ScoreRun:
    """Score every trial in input order.

    strict: abort on the first integrity error, with the offending trial id
    in the message. lenient: skip broken trials and report them in
    ScoreRun.skipped. Duplicate trial ids are an integrity error.
    enroll_errors maps a model id whose enrollment could not be built to
    that build error, which then stands in for MissingModel on its trials.
    """
    run = ScoreRun()

    def on_error(trial, exc):
        if strict:
            raise type(exc)(f"trial '{trial.trial_id}': {exc}") from exc
        run.skipped.append((trial.trial_id, f"{type(exc).__name__}: {exc}"))

    run.records = _score(
        trials, enrollments, enroll_errors or {}, test_embeddings, transcripts,
        phrases, cfg, space_order, on_error,
    )
    return run


def _score(
    trials, enrollments, enroll_errors, test_embeddings, transcripts, phrases,
    cfg, space_order, on_error,
) -> list:
    """The scoring path behind score_all and score_trial.

    One validation pass in trial order resolves every reference, gates each
    distinct (hypothesis, phrase) pair once, and hands each broken trial to
    on_error, which raises or records it. The cosines of the gate-passed
    trials are then computed together: per trial and space, the dot product
    of centroid and test vector over the product of their norms; the score
    is the mean over spaces, clamped to [-1, 1].
    """
    if not space_order:
        raise ValueError("scoring requires at least one embedding space")
    tables = [test_embeddings.get(space) for space in space_order]
    seen = set()
    outcomes = {}  # (hypothesis text, phrase text) -> GateOutcome
    models = {}  # model id -> (centroids, their norms) in space order, or the error
    scored = []  # (trial, outcome) of every valid trial, in input order
    # Per gate-passed trial: its index in scored, then per space (flat, in
    # space order) the centroid, the test vector and the product of norms.
    passed, enr_vecs, test_vecs, norm_products = [], [], [], []
    for trial in trials:
        try:
            if trial.trial_id in seen:
                raise DuplicateId(f"duplicate trial id '{trial.trial_id}'")
            seen.add(trial.trial_id)
            enrollment = enrollments.get(trial.model_id)
            if enrollment is None:
                if trial.model_id in enroll_errors:
                    raise enroll_errors[trial.model_id].with_traceback(None)
                raise MissingModel(f"no enrollment model '{trial.model_id}' in enrollmap")
            tests = []
            for space, table in zip(space_order, tables):
                if table is None:
                    raise MissingSpace(f"no embeddings for declared space '{space}'")
                vec = table.get(trial.test_id)
                if vec is None:
                    raise MissingSpace(
                        f"test utterance '{trial.test_id}' missing from "
                        f"space '{space}'"
                    )
                tests.append(vec)
            phrase = phrases.get(enrollment.phrase_id)
            if phrase is None:
                raise MissingPhrase(
                    f"phrase '{enrollment.phrase_id}' of model "
                    f"'{enrollment.model_id}' not in phrase table"
                )
            hyp = transcripts.get(trial.test_id)
            if hyp is None:
                raise MissingTranscript(
                    f"no transcript for test utterance '{trial.test_id}'"
                )
            for i, space in enumerate(space_order):
                if space not in enrollment.centroid_per_space:
                    raise MissingSpace(
                        f"model '{enrollment.model_id}' has no centroid for "
                        f"space '{space}'"
                    )
                tests[i] = as_embedding(tests[i])

            key = (hyp.text, phrase.text)
            outcome = outcomes.get(key)
            if outcome is None:
                outcome = outcomes[key] = gate(hyp, phrase, cfg)
            if outcome.passed:
                model = models.get(trial.model_id)
                if model is None:
                    model = models[trial.model_id] = _centroids(enrollment, space_order)
                if isinstance(model, TdsvError):
                    raise model.with_traceback(None)
                centroids, centroid_norms = model
                test_norms = [_norm(t) for t in tests]
                _check_dims(centroids, tests)
                passed.append(len(scored))
                enr_vecs.extend(centroids)
                test_vecs.extend(tests)
                norm_products.extend(a * b for a, b in zip(centroid_norms, test_norms))
        except TdsvError as exc:
            on_error(trial, exc)
            continue
        scored.append((trial, outcome))

    scores = np.full(len(scored), cfg.punitive_score)
    if passed:
        dots = np.array([c.dot(t) for c, t in zip(enr_vecs, test_vecs)])
        cosines = (dots / norm_products).reshape(len(passed), len(space_order))
        scores[passed] = np.clip(cosines.mean(axis=1), -1.0, 1.0)
    return [
        ScoreRecord(trial.trial_id, score, outcome, trial.label)
        for (trial, outcome), score in zip(scored, scores.tolist())
    ]


def _centroids(enrollment: EnrollmentModel, space_order):
    """The model's centroids and their norms in space order, or the error
    that normalizing the first bad one raises."""
    try:
        centroids = [as_embedding(enrollment.centroid_per_space[s]) for s in space_order]
        return centroids, [_norm(c) for c in centroids]
    except TdsvError as exc:
        return exc


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
