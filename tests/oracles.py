"""Independent reference implementations used to cross-check the package.

Deliberately written the slow, obvious way: a full-matrix dynamic program
for edit distance, a value-by-value embedding file parser, and a pure-Python
enumerator over every midpoint threshold for the detection metrics
(per-threshold counting via binary search so the acceptance-scale runs stay
inside their time budget). Nothing here imports the modules under test
beyond the public record and error types.
"""

import math
import re
import unicodedata
from bisect import bisect_left

import numpy as np

from tdsvkit import (
    BadHeader,
    DimMismatch,
    DuplicateId,
    GateOutcome,
    MalformedLine,
    ScoreRecord,
    TrialLabel,
    UnparseableFloat,
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


def parse_embeddings_ref(path):
    """Embedding file parsed value by value: (id -> vector, dim), or the
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
        table[utt_id] = np.array(values, dtype=np.float64)
    return table, dim


def sweep_ref(targets, nontargets):
    """(threshold, p_miss, p_fa) at {min-1} + midpoints + {max+1}.

    Decision rule: accept iff score >= threshold, so misses are the targets
    strictly below the threshold and false alarms the non-targets at or
    above it.
    """
    targets = sorted(float(s) for s in targets)
    nontargets = sorted(float(s) for s in nontargets)
    distinct = sorted(set(targets) | set(nontargets))
    thresholds = [distinct[0] - 1.0]
    for lo, hi in zip(distinct, distinct[1:]):
        thresholds.append((lo + hi) / 2.0)
    thresholds.append(distinct[-1] + 1.0)
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


_NONTARGET_LABELS = (TrialLabel.TW, TrialLabel.IC, TrialLabel.IW)


def make_records(targets, nontargets, rng=None):
    """Wrap raw score lists into labeled ScoreRecords for the metrics API.

    Targets get TC; non-target labels cycle TW/IC/IW, or are drawn from rng
    when one is given.
    """
    records = []
    for i, score in enumerate(targets):
        records.append(
            ScoreRecord(f"t{i}", float(score), GateOutcome(True, 0.0), TrialLabel.TC)
        )
    for i, score in enumerate(nontargets):
        if rng is None:
            label = _NONTARGET_LABELS[i % 3]
        else:
            label = _NONTARGET_LABELS[int(rng.integers(3))]
        records.append(
            ScoreRecord(f"n{i}", float(score), GateOutcome(True, 0.0), label)
        )
    return records
