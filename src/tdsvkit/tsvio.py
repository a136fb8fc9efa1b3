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
from typing import Mapping, Sequence, Tuple

import numpy as np

from .core import Trial, TrialLabel
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
from .scoring import REPS_PER_MODEL, EnrollEntry, ScoreRecord
from .textgate import GateOutcome, Phrase, Transcript

_HEADER_RE = re.compile(r"#dim (\d+)")
_DET_HEADER = "#p_miss\tp_fa\tthreshold"


def _lines(f, start: int = 1):
    """Yield (line_no, line) pairs, newline-stripped, empty lines skipped.

    start is the physical line number of the first line still in f, so
    callers that already consumed a header pass 2.
    """
    for n, raw in enumerate(f, start=start):
        line = raw.rstrip("\n")
        if line:
            yield n, line


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


def parse_trials(path) -> list:
    """Read a trial list; the label column is optional per line."""
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
    return trials


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


def parse_scores(path) -> list:
    """Read a score file back into ScoreRecords (labels come from a trial
    list, not from this file)."""
    records = []
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
            score = _finite_field(path, n, 2, score_s)
            if flag not in ("PASS", "PUNITIVE"):
                raise MalformedLine(
                    path, n, f"gate flag must be PASS or PUNITIVE, got {flag!r}"
                )
            cer_value = _finite_field(path, n, 4, cer_s)
            records.append(
                ScoreRecord(trial_id, score, GateOutcome(flag == "PASS", cer_value))
            )
    return records


def write_scores(records: Sequence, path) -> None:
    """Write score records: 6-decimal score, gate flag, 4-decimal CER."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for r in records:
            flag = "PASS" if r.gate.passed else "PUNITIVE"
            f.write(f"{r.trial_id}\t{r.score:.6f}\t{flag}\t{r.gate.cer:.4f}\n")


def write_det(points: Sequence, path) -> None:
    """Write DET operating points under a `#p_miss\\tp_fa\\tthreshold` header."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(_DET_HEADER + "\n")
        for pt in points:
            f.write(f"{pt.p_miss:.6f}\t{pt.p_fa:.6f}\t{pt.threshold:.6f}\n")


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
