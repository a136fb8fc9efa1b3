"""TSV file formats: parsers and writers.

All files are UTF-8 text with one record per line and tab-separated fields.
Embedding files open with a `#dim <D>` header and hold space-separated
floats serialized at 17 significant digits, which round-trips doubles
exactly. Parsers raise a per-line diagnostic (path:line: detail) on any
malformed input instead of crashing; writers emit deterministic bytes for
identical inputs ("\\n" endings on every platform).

Formats:
    embeddings   #dim <D>            then  <id>\\t<v1> <v2> ... <vD>
    trials       <trial_id>\\t<model_id>\\t<test_id>[\\t<label>]
    phrases      <phrase_id>\\t<text>
    transcripts  <utt_id>\\t<text>
    enrollmap    <model_id>\\t<phrase_id>\\t<rep1>,<rep2>,<rep3>
    scores       <trial_id>\\t<score .6f>\\t<PASS|PUNITIVE>\\t<cer .4f>
    det          #p_miss\\tp_fa\\tthreshold   then  rows at .6f
"""

import math
import os
import re
from itertools import repeat
from typing import List, Mapping, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .core import LABEL_CODES, UNLABELED, Trial, TrialLabel
from .errors import (
    BadHeader,
    BadLabel,
    BadRepCount,
    DimMismatch,
    DuplicateId,
    MalformedLine,
    TdsvError,
    UnparseableFloat,
)
from .scoring import REPS_PER_MODEL, EnrollEntry
from .textgate import Phrase, Transcript

_HEADER_RE = re.compile(r"#dim (\d+)")
_DET_HEADER = "#p_miss\tp_fa\tthreshold"
_FLAGS = frozenset({"PASS", "PUNITIVE"})
_NAME_CODES = {label.name: code for label, code in LABEL_CODES.items()}


def _lines(f, start: int = 1):
    """Yield (line_no, line) pairs, newline-stripped, empty lines skipped.

    start is the physical line number of the first line still in f, so
    callers that already consumed a header pass 2.
    """
    for n, raw in enumerate(f, start=start):
        line = raw.rstrip("\n")
        if line:
            yield n, line


def _nonblank_lines(path) -> List[str]:
    """The file's non-empty lines, each as _lines yields it: split on the
    newlines left by text mode's newline translation (str.splitlines would
    also split on form feeds, U+2028 and other separators)."""
    with open(path, encoding="utf-8") as f:
        return list(filter(None, f.read().split("\n")))


def _columns(lines: List[str], n_fields: int) -> Optional[List[list]]:
    """The fields of tab-separated lines as n_fields column lists, or None
    when some line has another number of fields."""
    if set(map(str.count, lines, repeat("\t"))) - {n_fields - 1}:
        return None
    fields = "\t".join(lines).split("\t") if lines else []
    return [fields[i::n_fields] for i in range(n_fields)]


def _finite_field(path, n: int, col: int, token: str) -> float:
    """Parse one float field of line n; nan and infinities are rejected."""
    try:
        value = float(token)
    except ValueError:
        raise UnparseableFloat(path, n, f"column {col}: {token!r} is not a float") from None
    if not math.isfinite(value):
        raise UnparseableFloat(path, n, f"column {col}: non-finite value {token!r}")
    return value


def _scan_embedding_row(path, n: int, line: str, dim: int, table) -> np.ndarray:
    """Check one embedding row field by field, raising the first problem in
    column order; returns the row's values when there is none."""
    if "\t" not in line:
        raise MalformedLine(path, n, "expected '<id>\\t<v1> <v2> ...'")
    utt_id, rest = line.split("\t", 1)
    if not utt_id:
        raise MalformedLine(path, n, "empty id field")
    if utt_id in table:
        raise DuplicateId(f"{path}:{n}: duplicate id '{utt_id}'")
    tokens = rest.split(" ")
    values = np.empty(len(tokens), dtype=np.float64)
    for col, token in enumerate(tokens, start=1):
        values[col - 1] = _finite_field(path, n, col, token)
    if values.size != dim:
        raise DimMismatch(path, n, f"expected {dim} values, got {values.size}")
    return values


def parse_embeddings(path) -> Tuple[dict, int]:
    """Read one embedding space; returns (id -> float64 vector, declared dim).

    Each row is parsed in one call and checked once as a whole; a row that
    fails that check is re-scanned value by value, so the diagnostic names
    the same line and column as a per-value parse would.
    """
    table = {}
    with open(path, encoding="utf-8") as f:
        header = f.readline().rstrip("\n")
        m = _HEADER_RE.fullmatch(header)
        if m is None:
            raise BadHeader(path, 1, f"expected '#dim <D>' header, got {header!r}")
        dim = int(m.group(1))
        if dim < 1:
            raise BadHeader(path, 1, f"declared dim must be >= 1, got {dim}")
        for n, line in _lines(f, start=2):
            utt_id, tab, rest = line.partition("\t")
            try:
                values = np.fromiter(map(float, rest.split(" ")), np.float64)
            except ValueError:
                values = None
            if (
                values is None
                or values.size != dim
                or not np.isfinite(values).all()
                or not (tab and utt_id)
                or utt_id in table
            ):
                values = _scan_embedding_row(path, n, line, dim, table)
            table[utt_id] = values
    return table, dim


def write_embeddings(table: Mapping, dim: int, path) -> None:
    """Write one embedding space in table iteration order."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"#dim {dim}\n")
        for utt_id, values in table.items():
            floats = " ".join(f"{v:.17g}" for v in values)
            f.write(f"{utt_id}\t{floats}\n")


def parse_trials(path, labels_only: bool = False):
    """Read a trial list; the label column is optional per line.

    Returns the Trials in file order. With labels_only, returns instead a
    map from trial id to label code (core.LABEL_CODES, UNLABELED for a
    trial without a label) for joining labels onto scores; a trial id listed
    twice is then a DuplicateId, raised once the whole file has parsed. The
    map comes from a bulk check of the file, and any anomaly re-reads it
    line by line, so every diagnostic is the one the per-line parse gives.
    """
    if labels_only:
        labels = _bulk_labels(_nonblank_lines(path))
        if labels is not None:
            return labels
    trials = []
    with open(path, encoding="utf-8") as f:
        for n, line in _lines(f):
            fields = line.split("\t")
            if len(fields) not in (3, 4):
                raise MalformedLine(
                    path, n, f"expected 3 or 4 tab-separated fields, got {len(fields)}"
                )
            label = None
            if len(fields) == 4:
                try:
                    label = TrialLabel[fields[3]]
                except KeyError:
                    raise BadLabel(
                        path, n, f"label must be one of TC/TW/IC/IW, got {fields[3]!r}"
                    ) from None
            try:
                trials.append(Trial(fields[0], fields[1], fields[2], label))
            except ValueError as exc:
                raise MalformedLine(path, n, str(exc)) from None
    if not labels_only:
        return trials
    labels = {}
    for trial in trials:
        if trial.trial_id in labels:
            raise DuplicateId(f"{path}: duplicate trial id '{trial.trial_id}'")
        labels[trial.trial_id] = UNLABELED if trial.label is None else LABEL_CODES[trial.label]
    return labels


def _bulk_labels(lines: List[str]) -> Optional[dict]:
    """Trial id -> label code when every line is a well-formed labeled trial
    and no trial id repeats; None otherwise."""
    columns = _columns(lines, 4)
    if columns is None:
        return None
    trial_ids, model_ids, test_ids, names = columns
    if "" in trial_ids or "" in model_ids or "" in test_ids:
        return None
    codes = list(map(_NAME_CODES.get, names))
    if None in codes:
        return None
    labels = dict(zip(trial_ids, codes))
    return labels if len(labels) == len(trial_ids) else None


def write_trials(trials: Sequence, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for t in trials:
            if t.label is None:
                f.write(f"{t.trial_id}\t{t.model_id}\t{t.test_id}\n")
            else:
                f.write(f"{t.trial_id}\t{t.model_id}\t{t.test_id}\t{t.label.name}\n")


def _parse_id_text(path, factory, what: str) -> dict:
    """Shared reader for the two `<id>\\t<text>` formats."""
    table = {}
    with open(path, encoding="utf-8") as f:
        for n, line in _lines(f):
            if "\t" not in line:
                raise MalformedLine(path, n, f"expected '<id>\\t<{what}>'")
            key, text = line.split("\t", 1)
            if not key:
                raise MalformedLine(path, n, "empty id field")
            if key in table:
                raise DuplicateId(f"{path}:{n}: duplicate id '{key}'")
            try:
                table[key] = factory(key, text)
            except (TdsvError, ValueError) as exc:
                raise MalformedLine(path, n, str(exc)) from None
    return table


def parse_phrases(path) -> dict:
    """Read the reference phrase table: phrase_id -> Phrase."""
    return _parse_id_text(path, Phrase, "text")


def parse_transcripts(path) -> dict:
    """Read ASR hypotheses: utt_id -> Transcript. Empty text is legal."""
    return _parse_id_text(path, Transcript, "text")


def _write_id_text(items, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for key, text in items:
            f.write(f"{key}\t{text}\n")


def write_phrases(phrases: Mapping, path) -> None:
    _write_id_text(((p.phrase_id, p.text) for p in phrases.values()), path)


def write_transcripts(transcripts: Mapping, path) -> None:
    _write_id_text(((t.utt_id, t.text) for t in transcripts.values()), path)


def parse_enrollmap(path) -> dict:
    """Read the enrollment map: model_id -> EnrollEntry (three rep ids)."""
    entries = {}
    with open(path, encoding="utf-8") as f:
        for n, line in _lines(f):
            fields = line.split("\t")
            if len(fields) != 3:
                raise MalformedLine(
                    path, n, f"expected 3 tab-separated fields, got {len(fields)}"
                )
            model_id, phrase_id, reps_field = fields
            if model_id in entries:
                raise DuplicateId(f"{path}:{n}: duplicate model id '{model_id}'")
            rep_ids = reps_field.split(",")
            if len(rep_ids) != REPS_PER_MODEL:
                raise BadRepCount(
                    path,
                    n,
                    f"expected {REPS_PER_MODEL} comma-separated repetition ids, "
                    f"got {len(rep_ids)}",
                )
            try:
                entries[model_id] = EnrollEntry(model_id, phrase_id, tuple(rep_ids))
            except ValueError as exc:
                raise MalformedLine(path, n, str(exc)) from None
    return entries


def write_enrollmap(entries: Sequence, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for e in entries:
            f.write(f"{e.model_id}\t{e.phrase_id}\t{','.join(e.rep_ids)}\n")


class ScoreColumns(NamedTuple):
    """A score file as columns in file order."""

    trial_ids: list
    score: np.ndarray  # float64
    passed: np.ndarray  # bool: the gate flag is PASS
    cer: np.ndarray  # float64


def parse_scores(path) -> ScoreColumns:
    """Read a score file into columns (labels come from a trial list, not
    from this file).

    The file is checked in bulk; any anomaly re-reads it line by line, so
    the diagnostic names the first bad line as a per-line parse would.
    """
    columns = _bulk_scores(_nonblank_lines(path))
    return columns if columns is not None else _scan_scores(path)


def _bulk_scores(lines: List[str]) -> Optional[ScoreColumns]:
    """The columns when every line is a well-formed score line and no trial
    id repeats; None otherwise."""
    columns = _columns(lines, 4)
    if columns is None:
        return None
    trial_ids, score_s, flags, cer_s = columns
    n = len(trial_ids)
    if "" in trial_ids or len(set(trial_ids)) != n or not _FLAGS.issuperset(flags):
        return None
    try:
        score = np.fromiter(map(float, score_s), np.float64, n)
        cer = np.fromiter(map(float, cer_s), np.float64, n)
    except ValueError:
        return None
    if not (np.isfinite(score).all() and np.isfinite(cer).all()):
        return None
    return ScoreColumns(trial_ids, score, np.fromiter(map("PASS".__eq__, flags), bool, n), cer)


def _scan_scores(path) -> ScoreColumns:
    """Parse a score file line by line, raising the first problem in line
    and then column order."""
    trial_ids, scores, passed, cers = [], [], [], []
    seen = set()
    with open(path, encoding="utf-8") as f:
        for n, line in _lines(f):
            fields = line.split("\t")
            if len(fields) != 4:
                raise MalformedLine(
                    path, n, f"expected 4 tab-separated fields, got {len(fields)}"
                )
            trial_id, score_s, flag, cer_s = fields
            if not trial_id:
                raise MalformedLine(path, n, "empty trial id field")
            if trial_id in seen:
                raise DuplicateId(f"{path}:{n}: duplicate trial id '{trial_id}'")
            seen.add(trial_id)
            scores.append(_finite_field(path, n, 2, score_s))
            if flag not in _FLAGS:
                raise MalformedLine(
                    path, n, f"gate flag must be PASS or PUNITIVE, got {flag!r}"
                )
            cers.append(_finite_field(path, n, 4, cer_s))
            trial_ids.append(trial_id)
            passed.append(flag == "PASS")
    return ScoreColumns(
        trial_ids,
        np.array(scores, dtype=np.float64),
        np.array(passed, dtype=bool),
        np.array(cers, dtype=np.float64),
    )


def write_scores(records: Sequence, path) -> None:
    """Write score records: 6-decimal score, gate flag, 4-decimal CER."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for r in records:
            flag = "PASS" if r.gate.passed else "PUNITIVE"
            f.write(f"{r.trial_id}\t{r.score:.6f}\t{flag}\t{r.gate.cer:.4f}\n")


def write_det(points, path) -> None:
    """Write DET operating points (metrics.ErrorRates) under a
    `#p_miss\\tp_fa\\tthreshold` header."""
    rows = zip(points.p_miss.tolist(), points.p_fa.tolist(), points.threshold.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(_DET_HEADER + "\n")
        for p_miss, p_fa, threshold in rows:
            f.write(f"{p_miss:.6f}\t{p_fa:.6f}\t{threshold:.6f}\n")


def write_dataset(ds, out_dir) -> dict:
    """Write a synthetic dataset under fixed file names; returns the paths.

    Emits phrases.tsv, enrollmap.tsv, trials.tsv, transcripts.tsv, and one
    embeddings_<space>.tsv per declared space.
    """
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "phrases": os.path.join(out_dir, "phrases.tsv"),
        "enrollmap": os.path.join(out_dir, "enrollmap.tsv"),
        "trials": os.path.join(out_dir, "trials.tsv"),
        "transcripts": os.path.join(out_dir, "transcripts.tsv"),
    }
    write_phrases(ds.phrases, paths["phrases"])
    write_enrollmap(ds.enroll_entries, paths["enrollmap"])
    write_trials(ds.trials, paths["trials"])
    write_transcripts(ds.transcripts, paths["transcripts"])
    for sp in ds.config.spaces:
        path = os.path.join(out_dir, f"embeddings_{sp.name}.tsv")
        write_embeddings(ds.embeddings[sp.name], sp.dim, path)
        paths[f"embeddings_{sp.name}"] = path
    return paths
