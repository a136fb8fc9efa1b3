"""Detection metrics over labeled score sets.

Implements the SRE08-style detection cost function, its normalized minimum
over decision thresholds, equal error rate, DET operating points, and trial
subset selection. Candidate thresholds are the midpoints between adjacent
distinct scores plus one sentinel below the minimum and one above the
maximum; the decision rule is accept iff score >= threshold. At float64's
edges a midpoint whose sum overflows is lo / 2 + hi / 2, one that rounds onto
lo is hi, and the upper sentinel is at least the float after the maximum, so
thresholds strictly ascend and each gap lo < hi holds one in (lo, hi]. Along
ascending thresholds p_miss is non-decreasing and p_fa is non-increasing.

Labeled scores travel as columns: a score array and a label-code array
(core.LABEL_CODES). One sweep yields the threshold, p_miss and p_fa arrays
that min_dcf, eer and det_points all read.
"""

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .core import LABEL_CODES, TrialLabel, check_label_codes, is_real
from .errors import (
    ConfigInvalid,
    DegenerateVector,
    EmptySide,
    NoNonTargets,
    NoTargets,
    UnlabeledRecords,
)


@dataclass(frozen=True)
class DcfParams:
    """Detection cost weights. Defaults give norm_const 0.1 exactly."""

    c_miss: float = 10.0
    c_fa: float = 1.0
    p_target: float = 0.01

    def __post_init__(self):
        if not (is_real(self.c_miss) and 0 < self.c_miss < math.inf):
            raise ConfigInvalid(f"c_miss must be finite and > 0, got {self.c_miss}")
        if not (is_real(self.c_fa) and 0 < self.c_fa < math.inf):
            raise ConfigInvalid(f"c_fa must be finite and > 0, got {self.c_fa}")
        if not (is_real(self.p_target) and 0.0 < self.p_target < 1.0):
            raise ConfigInvalid(f"p_target must lie in (0, 1), got {self.p_target}")

    @property
    def norm_const(self) -> float:
        """Cost of the better of the two trivial systems (always a recompute,
        so it can never go stale against the primaries)."""
        return min(self.c_miss * self.p_target, self.c_fa * (1.0 - self.p_target))


@dataclass(frozen=True)
class ErrorRates:
    """Operating points of a threshold sweep as parallel arrays, one entry
    per threshold; len() is the number of points. dcf() also takes a single
    point given as scalars."""

    threshold: np.ndarray
    p_miss: np.ndarray
    p_fa: np.ndarray
    n_target: int
    n_nontarget: int

    def __len__(self) -> int:
        return int(np.size(self.threshold))


@dataclass(frozen=True)
class SubsetMode:
    """Which trial labels enter the evaluation."""

    name: str
    keep: frozenset


ALL = SubsetMode("all", frozenset(TrialLabel))
TC_VS_TW = SubsetMode("tc-vs-tw", frozenset({TrialLabel.TC, TrialLabel.TW}))
TC_VS_IC = SubsetMode("tc-vs-ic", frozenset({TrialLabel.TC, TrialLabel.IC}))
TC_VS_IW = SubsetMode("tc-vs-iw", frozenset({TrialLabel.TC, TrialLabel.IW}))

SUBSETS = {m.name: m for m in (ALL, TC_VS_TW, TC_VS_IC, TC_VS_IW)}

_TARGET = LABEL_CODES[TrialLabel.TC]


def dcf(rates: ErrorRates, params: DcfParams) -> Tuple:
    """Weighted detection cost at each operating point: (raw, normalized)."""
    raw = (
        params.c_miss * rates.p_miss * params.p_target
        + params.c_fa * rates.p_fa * (1.0 - params.p_target)
    )
    return raw, raw / params.norm_const


def sweep(target_scores, nontarget_scores) -> ErrorRates:
    """Error rates at every threshold that can change the confusion counts.

    Thresholds ascend from accept-everything (p_miss=0, p_fa=1) to
    reject-everything (p_miss=1, p_fa=0). A NaN or infinite score raises
    DegenerateVector.
    """
    targets_sorted = np.sort(np.asarray(target_scores, dtype=np.float64))
    nontargets_sorted = np.sort(np.asarray(nontarget_scores, dtype=np.float64))
    n_target = int(targets_sorted.size)
    n_nontarget = int(nontargets_sorted.size)
    if not n_target:
        raise NoTargets("score set has no target (TC) records")
    if not n_nontarget:
        raise NoNonTargets("score set has no non-target records")
    distinct = np.unique(np.concatenate([targets_sorted, nontargets_sorted]))
    if not np.isfinite(distinct[[0, -1]]).all():  # -inf sorts first, +inf and nan last
        raise DegenerateVector(f"scores must be finite, got {distinct[~np.isfinite(distinct)][0]}")
    lo, hi = distinct[:-1], distinct[1:]
    with np.errstate(over="ignore"):
        midpoints = (lo + hi) / 2.0
    midpoints = np.where(np.isinf(midpoints), lo / 2.0 + hi / 2.0, midpoints)
    midpoints = np.where(midpoints > lo, midpoints, hi)
    top = max(distinct[-1] + 1.0, math.nextafter(distinct[-1], math.inf))
    thresholds = np.concatenate([[distinct[0] - 1.0], midpoints, [top]])
    # accept iff score >= threshold: misses are targets strictly below,
    # false alarms are non-targets at or above.
    misses = np.searchsorted(targets_sorted, thresholds, side="left")
    false_alarms = n_nontarget - np.searchsorted(
        nontargets_sorted, thresholds, side="left"
    )
    return ErrorRates(
        thresholds, misses / n_target, false_alarms / n_nontarget, n_target, n_nontarget
    )


def min_dcf(rates: ErrorRates, params: DcfParams = DcfParams()) -> Tuple[float, float]:
    """Minimum normalized detection cost over the sweep.

    Returns (normalized_min, argmin_threshold); ties on cost resolve to the
    smallest threshold.
    """
    _, normalized = dcf(rates, params)
    best = int(np.argmin(normalized))
    return float(normalized[best]), float(rates.threshold[best])


def eer(rates: ErrorRates) -> float:
    """Equal error rate of the sweep.

    If some operating point has p_miss == p_fa exactly, return that value;
    otherwise linearly interpolate across the adjacent pair of points whose
    miss/false-alarm difference changes sign.
    """
    diff = rates.p_miss - rates.p_fa
    # The sweep starts at (0, 1), ends at (1, 0), and diff never decreases
    # along it, so a first point with diff >= 0 always exists: an exact hit,
    # or the first point past the one sign change. No nearest-point fallback
    # can be needed.
    i = int(np.argmax(diff >= 0.0))
    m2, f2 = float(rates.p_miss[i]), float(rates.p_fa[i])
    if m2 == f2:
        return m2
    m1, f1 = float(rates.p_miss[i - 1]), float(rates.p_fa[i - 1])
    alpha = (f1 - m1) / ((m2 - m1) + (f1 - f2))
    return m1 + alpha * (m2 - m1)


def det_points(rates: ErrorRates) -> ErrorRates:
    """Sweep operating points with consecutive duplicate (p_miss, p_fa)
    pairs dropped; ordered by threshold, ready for external plotting."""
    keep = np.ones(len(rates), dtype=bool)
    keep[1:] = (rates.p_miss[1:] != rates.p_miss[:-1]) | (rates.p_fa[1:] != rates.p_fa[:-1])
    return ErrorRates(
        rates.threshold[keep], rates.p_miss[keep], rates.p_fa[keep],
        rates.n_target, rates.n_nontarget,
    )


def select_subset(codes, mode: SubsetMode) -> np.ndarray:
    """Boolean mask of the label codes (see core.LABEL_CODES) the mode keeps.

    Every entry must be labeled (UnlabeledRecords) with a code that
    core.check_label_codes takes, and the survivors must include at least
    one target and one non-target.
    """
    codes = np.asarray(codes)
    if not codes.size:  # [] reads as float64 codes, which cannot index
        codes = codes.astype(np.int8)
    n_unlabeled = int(np.count_nonzero(codes < 0)) if codes.dtype.kind in "iu" else 0
    if n_unlabeled:
        raise UnlabeledRecords(f"{n_unlabeled} of {codes.size} records have no label")
    check_label_codes(codes)
    keeps = np.array([label in mode.keep for label in TrialLabel])
    kept = keeps[codes]
    n_target = int(np.count_nonzero(kept & (codes == _TARGET)))
    if n_target == 0:
        raise EmptySide(f"subset '{mode.name}' keeps no target (TC) records")
    if n_target == np.count_nonzero(kept):
        raise EmptySide(f"subset '{mode.name}' keeps no non-target records")
    return kept


def split_scores(scores, codes, mode: SubsetMode = ALL) -> Tuple[np.ndarray, np.ndarray]:
    """Target and non-target scores among those whose labels mode keeps,
    each in input order."""
    scores = np.asarray(scores, dtype=np.float64)
    codes = np.asarray(codes)
    if scores.size != codes.size:
        raise ValueError("score and label columns differ in length")
    kept = select_subset(codes, mode)
    is_target = codes == _TARGET
    return scores[kept & is_target], scores[kept & ~is_target]
