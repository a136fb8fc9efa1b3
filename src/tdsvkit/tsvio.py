"""TSV file formats: parsers and writers.

All files are UTF-8 text with one record per line and tab-separated fields.
Embedding files open with a `#dim <D>` header and hold space-separated
floats serialized at 17 significant digits, which round-trips doubles
exactly. Parsers raise a per-line diagnostic (path:line: detail) on any
malformed input instead of crashing, bytes that are not UTF-8 included;
writers emit deterministic bytes for identical inputs ("\\n" endings on
every platform).

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
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .core import LABEL_CODES, UNLABELED, EmbeddingTable, TrialColumns
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
from .scoring import REPS_PER_MODEL, EnrollEntry, ScoreColumns
from .textgate import Phrase, Transcript

_HEADER_RE = re.compile(r"#dim (\d+)")
_SURROGATE_RE = re.compile("[\ud800-\udfff]")
_DET_HEADER = "#p_miss\tp_fa\tthreshold"
_FLAGS = frozenset({"PASS", "PUNITIVE"})
_NAME_CODES = {label.name: code for label, code in LABEL_CODES.items()}
# The text after a trial's test id, per label code.
_LABEL_FIELDS = {code: f"\t{name}" for name, code in _NAME_CODES.items()} | {UNLABELED: ""}
_ID_FIELDS = ("trial_id", "model_id", "test_id")


def _reading(path):
    """Open path as UTF-8 text in which each byte that is not UTF-8 reads as
    a lone surrogate (U+DC80-U+DCFF); see _check_utf8."""
    return open(path, encoding="utf-8", errors="surrogateescape")


def _undecodable(text: str) -> bool:
    """Whether text holds a lone surrogate, which has no UTF-8 form: in text
    as _reading gives it, a byte that is not UTF-8. str.isascii takes
    constant time, so ASCII text pays for no search."""
    return not text.isascii() and _SURROGATE_RE.search(text) is not None


def _check_utf8(path, text: str) -> None:
    """Raise the diagnostic of path's first undecodable byte if text holds
    one; readers call it on each line before any other check of the line,
    so the first bad line wins whatever is wrong with it."""
    if _undecodable(text):
        raise _not_utf8(path)


def _not_utf8(path) -> MalformedLine:
    """The diagnostic for the first undecodable byte of path, on the line
    text mode gives it: one line break per \\r\\n, lone \\r or lone \\n
    before it."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        start = exc.start
    else:  # the file changed since the failed read; blame its end
        start = len(raw)
    head = raw[:start]
    line = 1 + head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n")
    return MalformedLine(path, line, f"not valid UTF-8 at byte offset {start}")


def _lines(path, f, start: int = 1):
    """Yield (line_no, line) pairs of f, the open file path, newline-stripped,
    empty lines skipped, each checked by _check_utf8.

    start is the physical line number of the first line still in f, so
    callers that already consumed a header pass 2.
    """
    for n, raw in enumerate(f, start=start):
        line = raw.rstrip("\n")
        if line:
            _check_utf8(path, line)
            yield n, line


def _nonblank_lines(path) -> Optional[List[str]]:
    """The file's non-empty lines, each as _lines yields it: split on the
    newlines left by text mode's newline translation (str.splitlines would
    also split on form feeds, U+2028 and other separators). None when the
    file holds a byte that is not UTF-8, so that the caller's per-line scan
    names the first bad line."""
    with _reading(path) as f:
        text = f.read()
    return None if _undecodable(text) else list(filter(None, text.split("\n")))


def _columns(lines: Optional[List[str]], n_fields: int) -> Optional[List[list]]:
    """The fields of tab-separated lines as n_fields column lists, or None
    when lines is None (see _nonblank_lines) or some line has another
    number of fields."""
    if lines is None or set(map(str.count, lines, repeat("\t"))) - {n_fields - 1}:
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


def parse_embeddings(path) -> Tuple[EmbeddingTable, int]:
    """Read one embedding space; returns (its EmbeddingTable, declared dim).

    A first pass counts the rows, so that each row is parsed straight into
    its row of one matrix. A row's id is checked first, then its values are
    parsed in one call and checked as a whole; values that fail that check
    are re-scanned one by one, so the diagnostic names the same line and
    column as a per-value parse would.
    """
    with _reading(path) as f:
        header = f.readline().rstrip("\n")
        _check_utf8(path, header)
        m = _HEADER_RE.fullmatch(header)
        if m is None:
            raise BadHeader(path, 1, f"expected '#dim <D>' header, got {header!r}")
        dim = int(m.group(1))
        if dim < 1:
            raise BadHeader(path, 1, f"declared dim must be >= 1, got {dim}")
        matrix = np.empty((sum(raw != "\n" for raw in f), dim))
        f.seek(0)
        f.readline()
        ids, seen = [], set()
        for (n, line), row in zip(_lines(path, f, start=2), matrix):
            utt_id, tab, rest = line.partition("\t")
            if not tab:
                raise MalformedLine(path, n, "expected '<id>\\t<v1> <v2> ...'")
            if not utt_id:
                raise MalformedLine(path, n, "empty id field")
            if utt_id in seen:
                raise DuplicateId(f"{path}:{n}: duplicate id '{utt_id}'")
            tokens = rest.split(" ")
            try:
                values = np.fromiter(map(float, tokens), np.float64)
            except ValueError:
                values = None
            if values is None or not np.isfinite(values).all():
                for col, token in enumerate(tokens, start=1):
                    _finite_field(path, n, col, token)
            if values.size != dim:
                raise DimMismatch(path, n, f"expected {dim} values, got {values.size}")
            row[:] = values
            seen.add(utt_id)
            ids.append(utt_id)
    return EmbeddingTable(ids, matrix), dim


def _check_encodable(checked: dict) -> None:
    """Raise ValueError naming the first id or text that has no UTF-8 form;
    checked maps a field name to its values. Every writer runs it before it
    opens its file, so that a failed write leaves the file as it was."""
    for what, values in checked.items():
        for value in values:
            if _undecodable(value):
                raise ValueError(f"{what} {value!r} cannot be encoded as UTF-8")


def write_embeddings(table: EmbeddingTable, path) -> None:
    """Write one embedding space in row order, every value at 17
    significant digits, one row format applied to each row, so that
    parse_embeddings reads back every file written here, bit-equal. A
    table holds only ids and values the reader accepts, except for an id
    with no UTF-8 form, which raises ValueError before the file is opened.
    """
    dim = table.matrix.shape[1]
    # "%.17g" % x gives the bytes of f"{x:.17g}". The id is concatenated, not
    # put into the format, since it may hold a '%'.
    row = "\t" + " ".join(["%.17g"] * dim) + "\n"
    _check_encodable({"embedding id": table.ids})
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"#dim {dim}\n")
        f.writelines(utt_id + row % tuple(v.tolist()) for utt_id, v in zip(table.ids, table.matrix))


def parse_trials(path) -> TrialColumns:
    """Read a trial list into columns; the label field is optional per line.

    A file whose lines are all labeled or all unlabeled is checked in bulk;
    any anomaly, a mix included, re-reads it line by line, so the diagnostic
    names the first bad line as a per-line parse would. Trial ids may repeat.
    """
    columns = _bulk_trials(_nonblank_lines(path))
    return columns if columns is not None else _scan_trials(path)


def _bulk_trials(lines: Optional[List[str]]) -> Optional[TrialColumns]:
    """The columns when every line is a well-formed trial line and all or
    none of them carry a label; None otherwise."""
    columns = _columns(lines, 4) or _columns(lines, 3)
    if columns is None:
        return None
    trial_ids, model_ids, test_ids, *names = columns
    codes = [UNLABELED] * len(trial_ids)
    if names:  # an unknown name gets code -2, which TrialColumns rejects
        codes = list(map(_NAME_CODES.get, names[0], repeat(-2)))
    try:
        return TrialColumns(trial_ids, model_ids, test_ids, codes)
    except ValueError:  # an empty id or an unknown label name
        return None


def _scan_trials(path) -> TrialColumns:
    """Parse a trial list line by line, raising the first problem in line
    order, and within a line in the order field count, label, empty id."""
    columns = [], [], [], []
    with _reading(path) as f:
        for n, line in _lines(path, f):
            fields = line.split("\t")
            if len(fields) not in (3, 4):
                raise MalformedLine(
                    path, n, f"expected 3 or 4 tab-separated fields, got {len(fields)}"
                )
            code = UNLABELED
            if len(fields) == 4:
                code = _NAME_CODES.get(fields[3])
                if code is None:
                    raise BadLabel(path, n, f"label must be one of TC/TW/IC/IW, got {fields[3]!r}")
            if "" in fields[:3]:
                what = _ID_FIELDS[fields.index("")]
                raise MalformedLine(path, n, f"{what} must be a non-empty string")
            for column, value in zip(columns, fields[:3] + [code]):
                column.append(value)
    return TrialColumns(*columns)


def write_trials(trials: TrialColumns, path) -> None:
    """Write a trial list; a trial without a label gets no label field."""
    columns = trials.trial_ids, trials.model_ids, trials.test_ids
    _check_encodable(dict(zip(_ID_FIELDS, columns)))
    rows = zip(*columns, trials.labels.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for trial_id, model_id, test_id, code in rows:
            f.write(f"{trial_id}\t{model_id}\t{test_id}{_LABEL_FIELDS[code]}\n")


def _parse_id_text(path, factory, what: str) -> dict:
    """Shared reader for the two `<id>\\t<text>` formats."""
    table = {}
    with _reading(path) as f:
        for n, line in _lines(path, f):
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


def _write_id_text(items: list, what: str, path) -> None:
    _check_encodable({what: [key for key, _ in items], "text": [text for _, text in items]})
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for key, text in items:
            f.write(f"{key}\t{text}\n")


def write_phrases(phrases: Mapping, path) -> None:
    _write_id_text([(p.phrase_id, p.text) for p in phrases.values()], "phrase_id", path)


def write_transcripts(transcripts: Mapping, path) -> None:
    _write_id_text([(t.utt_id, t.text) for t in transcripts.values()], "utt_id", path)


def parse_enrollmap(path) -> dict:
    """Read the enrollment map: model_id -> EnrollEntry (three rep ids)."""
    entries = {}
    with _reading(path) as f:
        for n, line in _lines(path, f):
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
    _check_encodable({
        "model_id": [e.model_id for e in entries],
        "phrase_id": [e.phrase_id for e in entries],
        "rep_id": [rep_id for e in entries for rep_id in e.rep_ids],
    })
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for e in entries:
            f.write(f"{e.model_id}\t{e.phrase_id}\t{','.join(e.rep_ids)}\n")


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
    with _reading(path) as f:
        for n, line in _lines(path, f):
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


def write_scores(records: ScoreColumns, path) -> None:
    """Write a score set: 6-decimal score, gate flag, 4-decimal CER."""
    _check_encodable({"trial_id": records.trial_ids})
    rows = zip(
        records.trial_ids, records.score.tolist(), records.passed.tolist(), records.cer.tolist()
    )
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for trial_id, score, passed, cer in rows:
            flag = "PASS" if passed else "PUNITIVE"
            f.write(f"{trial_id}\t{score:.6f}\t{flag}\t{cer:.4f}\n")


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
        write_embeddings(ds.embeddings[sp.name], path)
        paths[f"embeddings_{sp.name}"] = path
    return paths
