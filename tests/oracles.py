"""Independent reference implementations used to cross-check the package.

Deliberately written the slow, obvious way: a full-matrix dynamic program
for edit distance, the fused cosine as a dot product of concatenated unit
blocks, value-by-value parsers for the embedding, score, trial, enrollmap,
phrase and transcript files and for the label join of evaluate/det, a
value-by-value embedding writer, row-by-row score, DET, trial, phrase,
transcript and enrollmap writers, a trial-by-trial scorer with
score_all's strict and lenient policy, a pure-Python enumerator over
every midpoint threshold for the detection metrics (per-threshold
counting via binary search so the acceptance-scale runs stay inside their
time budget), and the centroid built one repetition at a time. Nothing
here imports the modules under test beyond the public label and error
types, the TrialColumns and EmbeddingTable types that trial_table and
embedding_table build for the tests, and l2_normalize, the one
normalization that enroll_ref repeats.
"""

import math
import re
import unicodedata
from bisect import bisect_left

import numpy as np

from tdsvkit import (
    BadHeader,
    BadLabel,
    BadRepCount,
    DegenerateVector,
    DimMismatch,
    DuplicateId,
    EmbeddingTable,
    MalformedLine,
    MissingModel,
    MissingPhrase,
    MissingSpace,
    MissingTranscript,
    TdsvError,
    UNLABELED,
    TrialColumns,
    TrialLabel,
    UnlabeledRecords,
    UnparseableFloat,
    l2_normalize,
)


def edit_distance_ref(a: str, b: str) -> int:
    """Levenshtein distance, full (len(a)+1) x (len(b)+1) matrix."""
    a = unicodedata.normalize("NFC", a)
    b = unicodedata.normalize("NFC", b)
    n, m = len(a), len(b)
    d = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        d[i][0] = i
    for j in range(m + 1):
        d[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            d[i][j] = min(
                d[i - 1][j] + 1,
                d[i][j - 1] + 1,
                d[i - 1][j - 1] + cost,
            )
    return d[n][m]


def fused_cosine_ref(blocks_a, blocks_b) -> float:
    """Cosine of two fused embeddings. Each side's per-space blocks are
    unit-normalized and concatenated in order; the result is the dot product
    of the two concatenations over the product of their norms."""

    def fused(blocks):
        out = []
        for block in blocks:
            norm = math.sqrt(math.fsum(float(v) * float(v) for v in block))
            out.extend(float(v) / norm for v in block)
        return out

    x, y = fused(blocks_a), fused(blocks_b)
    dot = math.fsum(p * q for p, q in zip(x, y))
    norm_x = math.sqrt(math.fsum(p * p for p in x))
    norm_y = math.sqrt(math.fsum(q * q for q in y))
    return dot / (norm_x * norm_y)


def enroll_ref(reps):
    """The centroid of repetition vectors built one repetition at a time:
    each one unit-normalized alone, the units averaged, the mean
    normalized again."""
    units = [l2_normalize(r) for r in reps]
    return l2_normalize(np.mean(units, axis=0))


def embedding_table(vectors, dim=None):
    """The EmbeddingTable of an id -> vector mapping, in its order: how the
    tests build an embedding space by hand. dim is read only when the
    mapping is empty."""
    return EmbeddingTable(list(vectors), list(vectors.values()) if vectors else np.empty((0, dim)))


def embedding_tables(spaces):
    """embedding_table of each space of a space -> (id -> vector) mapping."""
    return {space: embedding_table(vectors) for space, vectors in spaces.items()}


def parse_embeddings_ref(path):
    """Embedding file parsed value by value: (EmbeddingTable, dim), or the
    per-line diagnostic of the first bad line, checked in the order tab,
    empty id, duplicate id, each value left to right, value count."""
    table = {}
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    header = lines[0]
    m = re.fullmatch(r"#dim (\d+)", header)
    if m is None:
        raise BadHeader(path, 1, f"expected '#dim <D>' header, got {header!r}")
    dim = int(m.group(1))
    if dim < 1:
        raise BadHeader(path, 1, f"declared dim must be >= 1, got {dim}")
    for n, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        if "\t" not in line:
            raise MalformedLine(path, n, "expected '<id>\\t<v1> <v2> ...'")
        utt_id, rest = line.split("\t", 1)
        if not utt_id:
            raise MalformedLine(path, n, "empty id field")
        if utt_id in table:
            raise DuplicateId(f"{path}:{n}: duplicate id '{utt_id}'")
        values = []
        for col, token in enumerate(rest.split(" "), start=1):
            try:
                value = float(token)
            except ValueError:
                raise UnparseableFloat(
                    path, n, f"column {col}: {token!r} is not a float"
                ) from None
            if not math.isfinite(value):
                raise UnparseableFloat(
                    path, n, f"column {col}: non-finite value {token!r}"
                )
            values.append(value)
        if len(values) != dim:
            raise DimMismatch(path, n, f"expected {dim} values, got {len(values)}")
        table[utt_id] = values
    return embedding_table(table, dim), dim


def write_embeddings_ref(table, path):
    """Embedding file written value by value: the `#dim` header, then per
    row its id, a tab, and each value formatted alone by f"{v:.17g}",
    space-separated."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(f"#dim {table.matrix.shape[1]}\n")
        for utt_id, values in zip(table.ids, table.matrix.tolist()):
            floats = " ".join(f"{v:.17g}" for v in values)
            f.write(f"{utt_id}\t{floats}\n")


def write_scores_ref(records, path):
    """Score file written one row at a time: id, score by f"{:.6f}", the
    gate flag, CER by f"{:.4f}"."""
    rows = zip(
        records.trial_ids, records.score.tolist(), records.passed.tolist(), records.cer.tolist()
    )
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for trial_id, score, passed, cer in rows:
            flag = "PASS" if passed else "PUNITIVE"
            f.write(f"{trial_id}\t{score:.6f}\t{flag}\t{cer:.4f}\n")


def write_det_ref(points, path):
    """DET file written one row at a time: the header, then p_miss, p_fa
    and threshold by f"{:.6f}", as many rows as the shortest column."""
    rows = zip(points.p_miss.tolist(), points.p_fa.tolist(), points.threshold.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("#p_miss\tp_fa\tthreshold\n")
        for p_miss, p_fa, threshold in rows:
            f.write(f"{p_miss:.6f}\t{p_fa:.6f}\t{threshold:.6f}\n")


def write_trials_ref(trials, path):
    """Trial list written one row at a time: the three ids, then a tab and
    the label's name, or nothing for a trial without a label."""
    rows = zip(trials.trial_ids, trials.model_ids, trials.test_ids, trials.labels.tolist())
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for trial_id, model_id, test_id, code in rows:
            label = "" if code == UNLABELED else f"\t{_LABEL_NAMES[code]}"
            f.write(f"{trial_id}\t{model_id}\t{test_id}{label}\n")


def write_keyed_ref(table, path):
    """A phrase, transcript or enrollmap mapping, id -> record, written one
    row at a time: the id, a tab, then the record's text, or its phrase id,
    a tab and its rep ids joined by ','."""
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        for key, record in table.items():
            if hasattr(record, "rep_ids"):
                f.write(f"{key}\t{record.phrase_id}\t{','.join(record.rep_ids)}\n")
            else:
                f.write(f"{key}\t{record.text}\n")


def _text_lines(path):
    """(line number, line) of every non-empty line. A line ends at \\r\\n,
    \\r or \\n, and nowhere else. A line that is not UTF-8 raises, when it
    is reached, the MalformedLine that names its first bad byte's offset."""
    with open(path, "rb") as f:
        pieces = re.split(rb"(\r\n|\r|\n)", f.read())  # lines at even indices
    offset = 0
    for i, piece in enumerate(pieces):
        n = i // 2 + 1
        if i % 2 == 0 and piece:
            try:
                line = piece.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedLine(
                    path, n, f"not valid UTF-8 at byte offset {offset + exc.start}"
                ) from None
            yield n, line
        offset += len(piece)


def _float_field(path, n, col, token):
    try:
        value = float(token)
    except ValueError:
        raise UnparseableFloat(path, n, f"column {col}: {token!r} is not a float") from None
    if not math.isfinite(value):
        raise UnparseableFloat(path, n, f"column {col}: non-finite value {token!r}")
    return value


def parse_scores_ref(path):
    """Score file parsed value by value: (trial ids, scores, PASS flags,
    CERs) as lists, or the diagnostic of the first bad line, checked in the
    order field count, empty id, duplicate id, score, flag, CER."""
    ids, scores, passed, cers = [], [], [], []
    for n, line in _text_lines(path):
        fields = line.split("\t")
        if len(fields) != 4:
            raise MalformedLine(path, n, f"expected 4 tab-separated fields, got {len(fields)}")
        trial_id, score, flag, cer = fields
        if not trial_id:
            raise MalformedLine(path, n, "empty trial id field")
        if trial_id in ids:
            raise DuplicateId(f"{path}:{n}: duplicate trial id '{trial_id}'")
        scores.append(_float_field(path, n, 2, score))
        if flag not in ("PASS", "PUNITIVE"):
            raise MalformedLine(path, n, f"gate flag must be PASS or PUNITIVE, got {flag!r}")
        cers.append(_float_field(path, n, 4, cer))
        ids.append(trial_id)
        passed.append(flag == "PASS")
    return ids, scores, passed, cers


_LABEL_NAMES = [label.name for label in TrialLabel]


def parse_trials_ref(path):
    """Trial list parsed line by line: (trial ids, model ids, test ids,
    label codes) as lists, where a label's code is its position in
    TrialLabel and UNLABELED marks a line without a label; or the
    diagnostic of the first bad line, checked in the order field count,
    label, empty trial/model/test id. Repeated trial ids are kept."""
    columns = [], [], [], []
    for n, line in _text_lines(path):
        fields = line.split("\t")
        if len(fields) not in (3, 4):
            raise MalformedLine(path, n, f"expected 3 or 4 tab-separated fields, got {len(fields)}")
        code = UNLABELED
        if len(fields) == 4:
            if fields[3] not in _LABEL_NAMES:
                raise BadLabel(path, n, f"label must be one of TC/TW/IC/IW, got {fields[3]!r}")
            code = _LABEL_NAMES.index(fields[3])
        for what, value in zip(("trial_id", "model_id", "test_id"), fields):
            if not value:
                raise MalformedLine(path, n, f"{what} must be a non-empty string")
        for column, value in zip(columns, fields[:3] + [code]):
            column.append(value)
    return columns


def parse_enrollmap_ref(path):
    """Enrollmap parsed line by line: (model id, phrase id, rep id tuple)
    rows in file order, or the diagnostic of the first bad line, checked in
    the order field count, duplicate model id, repetition count, then an
    empty model id, phrase id or repetition id, left to right."""
    rows, seen = [], set()
    for n, line in _text_lines(path):
        fields = line.split("\t")
        if len(fields) != 3:
            raise MalformedLine(path, n, f"expected 3 tab-separated fields, got {len(fields)}")
        model_id, phrase_id, reps = fields
        if model_id in seen:
            raise DuplicateId(f"{path}:{n}: duplicate model id '{model_id}'")
        rep_ids = reps.split(",")
        if len(rep_ids) != 3:
            raise BadRepCount(
                path, n, f"expected 3 comma-separated repetition ids, got {len(rep_ids)}"
            )
        named = [("model_id", model_id), ("phrase_id", phrase_id)]
        for what, value in named + [("rep_id", rep_id) for rep_id in rep_ids]:
            if not value:
                raise MalformedLine(path, n, f"{what} must be a non-empty string")
        seen.add(model_id)
        rows.append((model_id, phrase_id, tuple(rep_ids)))
    return rows


def parse_id_text_ref(path, phrases):
    """A phrase file (phrases true) or transcript file parsed line by line:
    (id, text) pairs in file order, the text being all that follows the
    first tab; or the diagnostic of the first bad line, checked in the
    order tab, empty id, duplicate id and, in a phrase file, a text that is
    empty once NFC-normalized and trimmed."""
    rows, seen = [], set()
    for n, line in _text_lines(path):
        if "\t" not in line:
            raise MalformedLine(path, n, "expected '<id>\\t<text>'")
        key, text = line.split("\t", 1)
        if not key:
            raise MalformedLine(path, n, "empty id field")
        if key in seen:
            raise DuplicateId(f"{path}:{n}: duplicate id '{key}'")
        if phrases and not unicodedata.normalize("NFC", text).strip():
            raise MalformedLine(path, n, f"phrase '{key}' is empty after normalization")
        seen.add(key)
        rows.append((key, text))
    return rows


def _centroid_ref(model_id, entry, space, vectors):
    """enroll_ref of an entry's repetitions in one space (id -> vector), or
    the error build_enrollment names: a missing repetition first, then a
    centroid that cannot be built."""
    for rid in entry.rep_ids:
        if rid not in vectors:
            raise MissingSpace(
                f"repetition '{rid}' of model '{model_id}' missing from space '{space}'"
            )
    try:
        return enroll_ref([vectors[rid] for rid in entry.rep_ids])
    except DegenerateVector as exc:
        raise DegenerateVector(f"model '{model_id}' in space '{space}': {exc}") from None


def _check_norm_ref(vector):
    """The DegenerateVector a test vector raises when its norm, summed
    exactly, is at most 1e-12 or overflows."""
    norm = math.sqrt(math.fsum(float(v) * float(v) for v in vector))
    if norm == math.inf:
        raise DegenerateVector("cannot normalize vector: its norm overflows")
    if not norm > 1e-12:
        raise DegenerateVector(f"cannot normalize vector with norm {norm:.3e}")


def score_all_ref(trials, entries, embeddings, transcripts, phrases, cfg, strict=True):
    """score_all one trial at a time: (rows, skipped), with one (trial id,
    score, gate passed, CER, label code) row per trial scored. Every model is built
    first, in entry order; strict raises the first build error as it is,
    and lenient gives it as the reason of each of its model's trials. Each
    trial is checked in the order: repeated trial id, model, test vector
    per space, phrase, transcript, then the gate, and for a passed trial
    the test vectors' norms. strict raises a trial's error with a
    "trial '<id>': " prefix; lenient lists (trial id, "Class: message")
    in skipped. A passed trial scores fused_cosine_ref of centroids and
    test vectors, clamped to [-1, 1], and a failed one cfg.punitive_score.
    """
    spaces = {space: dict(zip(t.ids, t.matrix)) for space, t in embeddings.items()}
    models = {}
    for model_id, entry in entries.items():
        try:
            models[model_id] = [_centroid_ref(model_id, entry, s, v) for s, v in spaces.items()]
        except TdsvError as exc:
            if strict:
                raise
            models[model_id] = exc
    rows, skipped = [], []
    seen = set()
    for trial_id, model_id, test_id, code in trial_rows(trials):
        try:
            if trial_id in seen:
                raise DuplicateId(f"duplicate trial id '{trial_id}'")
            seen.add(trial_id)
            if model_id not in models:
                raise MissingModel(f"no enrollment model '{model_id}' in enrollmap")
            if isinstance(models[model_id], TdsvError):
                raise models[model_id]
            tests = []
            for space, vectors in spaces.items():
                if test_id not in vectors:
                    raise MissingSpace(f"test utterance '{test_id}' missing from space '{space}'")
                tests.append(vectors[test_id])
            entry = entries[model_id]
            if entry.phrase_id not in phrases:
                raise MissingPhrase(
                    f"phrase '{entry.phrase_id}' of model '{model_id}' not in phrase table"
                )
            if test_id not in transcripts:
                raise MissingTranscript(f"no transcript for test utterance '{test_id}'")
            hyp = unicodedata.normalize("NFC", transcripts[test_id].text).strip()
            ref = unicodedata.normalize("NFC", phrases[entry.phrase_id].text).strip()
            cer = edit_distance_ref(hyp, ref) / len(ref)
            passed = cer <= cfg.cer_threshold
            score = cfg.punitive_score
            if passed:
                for vector in tests:
                    _check_norm_ref(vector)
                score = min(1.0, max(-1.0, fused_cosine_ref(models[model_id], tests)))
        except TdsvError as exc:
            if strict:
                raise type(exc)(f"trial '{trial_id}': {exc}") from None
            skipped.append((trial_id, f"{type(exc).__name__}: {exc}"))
            continue
        rows.append((trial_id, score, passed, cer, code))
    return rows, skipped


def trial_table(rows):
    """The TrialColumns of (trial id, model id, test id[, label name]) rows:
    how the tests build a trial list by hand."""
    rows = [tuple(row) for row in rows]
    codes = [_LABEL_NAMES.index(row[3]) if len(row) == 4 else UNLABELED for row in rows]
    return TrialColumns(
        [row[0] for row in rows], [row[1] for row in rows], [row[2] for row in rows], codes
    )


def trial_rows(trials):
    """A TrialColumns as (trial id, model id, test id, label code) tuples."""
    return list(zip(trials.trial_ids, trials.model_ids, trials.test_ids, trials.labels.tolist()))


def join_labels_ref(scores_path, trials_path):
    """The evaluate/det join: (scores, label codes, number of labeled
    trials without a score line). Errors come in the order: score file,
    trial file (see parse_trials_ref), a trial id listed twice, then the
    first score line whose trial is missing or unlabeled."""
    ids, scores, _, _ = parse_scores_ref(scores_path)
    trial_ids, _, _, trial_codes = parse_trials_ref(trials_path)
    labels = {}
    for trial_id, code in zip(trial_ids, trial_codes):
        if trial_id in labels:
            raise DuplicateId(f"{trials_path}: duplicate trial id '{trial_id}'")
        labels[trial_id] = code
    codes = []
    for trial_id in ids:
        if trial_id not in labels:
            raise UnlabeledRecords(f"score record '{trial_id}' has no matching trial")
        if labels[trial_id] == UNLABELED:
            raise UnlabeledRecords(f"trial '{trial_id}' carries no label")
        codes.append(labels[trial_id])
    n_labeled = sum(1 for code in labels.values() if code != UNLABELED)
    return scores, codes, n_labeled - len(ids)


def sweep_ref(targets, nontargets):
    """(threshold, p_miss, p_fa) at {min-1} + midpoints + {max+1}.

    Decision rule: accept iff score >= threshold, so misses are the targets
    strictly below the threshold and false alarms the non-targets at or
    above it. At the edges of float64: a midpoint whose sum overflows is
    lo / 2 + hi / 2, one that rounds onto lo is hi, and when max + 1 == max
    the last threshold is the float after max.
    """
    targets = sorted(float(s) for s in targets)
    nontargets = sorted(float(s) for s in nontargets)
    distinct = sorted(set(targets) | set(nontargets))
    thresholds = [distinct[0] - 1.0]
    for lo, hi in zip(distinct, distinct[1:]):
        mid = (lo + hi) / 2.0
        if math.isinf(mid):
            mid = lo / 2.0 + hi / 2.0
        thresholds.append(mid if mid > lo else hi)
    top = distinct[-1] + 1.0
    thresholds.append(top if top > distinct[-1] else math.nextafter(distinct[-1], math.inf))
    n_t, n_n = len(targets), len(nontargets)
    points = []
    for t in thresholds:
        misses = bisect_left(targets, t)
        false_alarms = n_n - bisect_left(nontargets, t)
        points.append((t, misses / n_t, false_alarms / n_n))
    return points


def min_dcf_ref(targets, nontargets, c_miss=10.0, c_fa=1.0, p_target=0.01):
    """Brute-force normalized min-DCF; ties resolve to smallest threshold."""
    norm_const = min(c_miss * p_target, c_fa * (1.0 - p_target))
    best_value = None
    best_threshold = None
    for t, p_miss, p_fa in sweep_ref(targets, nontargets):
        raw = c_miss * p_miss * p_target + c_fa * p_fa * (1.0 - p_target)
        value = raw / norm_const
        if best_value is None or value < best_value:
            best_value = value
            best_threshold = t
    return best_value, best_threshold


def eer_ref(targets, nontargets):
    """Equal error rate: exact diagonal point if one exists, else linear
    interpolation across the sign change of p_miss - p_fa."""
    points = sweep_ref(targets, nontargets)
    for _, p_miss, p_fa in points:
        if p_miss == p_fa:
            return p_miss
    for (_, m1, f1), (_, m2, f2) in zip(points, points[1:]):
        if (m1 - f1) < 0.0 < (m2 - f2):
            alpha = (f1 - m1) / ((m2 - m1) + (f1 - f2))
            return m1 + alpha * (m2 - m1)
    best = min(points, key=lambda p: abs(p[1] - p[2]))
    return (best[1] + best[2]) / 2.0


def det_points_ref(targets, nontargets):
    """sweep_ref with each point dropped whose (p_miss, p_fa) equals the
    last point kept."""
    points = []
    for point in sweep_ref(targets, nontargets):
        if not points or point[1:] != points[-1][1:]:
            points.append(point)
    return points


_NONTARGET_CODES = [_LABEL_NAMES.index(name) for name in ("TW", "IC", "IW")]


def make_labeled_scores(targets, nontargets, rng=None):
    """(scores, label codes) of raw score lists, targets first, for the
    metrics API.

    Targets get TC; non-target labels cycle TW/IC/IW, or are drawn from rng
    when one is given.
    """
    codes = [_LABEL_NAMES.index("TC")] * len(targets)
    for i in range(len(nontargets)):
        codes.append(_NONTARGET_CODES[i % 3 if rng is None else int(rng.integers(3))])
    scores = [float(s) for s in targets] + [float(s) for s in nontargets]
    return np.array(scores, dtype=np.float64), np.array(codes, dtype=np.int8)
