"""Detection cost, threshold sweep, EER, DET points, subset selection."""

import random
import warnings

import numpy as np
import pytest

from tdsvkit import (
    ALL,
    SUBSETS,
    TC_VS_IC,
    TC_VS_IW,
    TC_VS_TW,
    ConfigInvalid,
    DcfParams,
    DegenerateVector,
    EmptySide,
    ErrorRates,
    NoNonTargets,
    NoTargets,
    SubsetMode,
    UNLABELED,
    TrialColumns,
    TrialLabel,
    UnlabeledRecords,
    dcf,
    det_points,
    eer,
    min_dcf,
    select_subset,
    split_scores,
    sweep,
)

from oracles import eer_ref, make_labeled_scores, min_dcf_ref, sweep_ref


class TestDcfParams:
    def test_defaults(self):
        p = DcfParams()
        assert (p.c_miss, p.c_fa, p.p_target) == (10.0, 1.0, 0.01)
        assert p.norm_const == 0.1

    def test_norm_const_tracks_primaries(self):
        assert DcfParams(c_miss=1.0, c_fa=1.0, p_target=0.5).norm_const == 0.5
        assert DcfParams(c_miss=100.0, c_fa=1.0, p_target=0.5).norm_const == 0.5

    def test_validation(self):
        for kwargs in (
            {"c_miss": 0.0},
            {"c_miss": -1.0},
            {"c_miss": float("nan")},
            {"c_fa": 0.0},
            {"p_target": 0.0},
            {"p_target": 1.0},
            {"p_target": float("nan")},
            {"c_miss": "x"},
            {"c_fa": None},
            {"p_target": "x"},
        ):
            with pytest.raises(ConfigInvalid, match=f"^{next(iter(kwargs))} "):
                DcfParams(**kwargs)
        with pytest.raises(ConfigInvalid, match="^c_miss "):
            DcfParams("x")


def _rates(p_miss, p_fa):
    return ErrorRates(0.0, p_miss, p_fa, 1, 1)


class TestDcf:
    def test_perfect(self):
        assert dcf(_rates(0.0, 0.0), DcfParams()) == (0.0, 0.0)

    def test_reject_all(self):
        raw, normalized = dcf(_rates(1.0, 0.0), DcfParams())
        assert raw == 0.1
        assert normalized == 1.0

    def test_accept_all(self):
        raw, normalized = dcf(_rates(0.0, 1.0), DcfParams())
        assert raw == 0.99
        assert normalized == pytest.approx(9.9, rel=1e-12)


def _pairs(rates):
    return list(zip(rates.p_miss.tolist(), rates.p_fa.tolist()))


class TestSweep:
    def test_separable_pair(self):
        assert (0.0, 0.0) in _pairs(sweep([0.9], [0.1]))

    def test_all_scores_equal(self):
        assert _pairs(sweep([0.5], [0.5, 0.5])) == [(0.0, 1.0), (1.0, 0.0)]

    def test_four_score_enumeration(self):
        rates = sweep([0.9, 0.3], [0.5, 0.1])
        assert _pairs(rates) == [
            (0.0, 1.0),
            (0.0, 0.5),
            (0.5, 0.5),
            (0.5, 0.0),
            (1.0, 0.0),
        ]
        assert len(rates) == 5
        assert rates.n_target == 2 and rates.n_nontarget == 2

    def test_thresholds_ascending(self):
        ts = sweep([0.9, 0.3], [0.5, 0.1]).threshold.tolist()
        assert ts == sorted(ts)

    # Scores at the edges of float64, with the (min_dcf, eer) each must give
    # and its p_miss column: two adjacent floats, a maximum that + 1.0 does
    # not move, and two scores whose sum overflows.
    EDGES = {
        "adjacent floats": ([1.0000000000000002], [1.0], (0.0, 0.0), [0.0, 0.0, 1.0]),
        "max + 1 == max": ([1e20], [1e20], (1.0, 0.5), [0.0, 1.0]),
        "sum overflows": ([1.7e308], [1.6e308], (0.0, 0.0), [0.0, 0.0, 1.0]),
    }

    @pytest.mark.parametrize("edge", EDGES)
    def test_edges_of_float64(self, edge):
        targets, nontargets, (want_dcf, want_eer), p_miss = self.EDGES[edge]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rates = sweep(targets, nontargets)
            assert (min_dcf(rates)[0], eer(rates)) == (want_dcf, want_eer)
        ts = rates.threshold.tolist()
        assert all(a < b for a, b in zip(ts, ts[1:]))
        assert rates.p_miss.tolist() == p_miss
        assert _pairs(rates)[0] == (0.0, 1.0) and _pairs(rates)[-1] == (1.0, 0.0)
        distinct = sorted(set(targets + nontargets))
        assert all(any(lo < t <= hi for t in ts) for lo, hi in zip(distinct, distinct[1:]))
        points = list(zip(ts, rates.p_miss.tolist(), rates.p_fa.tolist()))
        assert points == sweep_ref(targets, nontargets)

    def test_requires_both_sides(self):
        with pytest.raises(NoTargets):
            sweep([], [0.1, 0.2])
        with pytest.raises(NoNonTargets):
            sweep([0.1, 0.2], [])

    def test_requires_labels(self):
        with pytest.raises(UnlabeledRecords, match="^1 of 2 records have no label$"):
            split_scores([0.5, 0.1], [0, UNLABELED])

    def test_columns_of_different_lengths(self):
        for scores, codes in (([0.1, 0.2, 0.3], [0, 1]), ([0.1], [0, 1, UNLABELED])):
            with pytest.raises(ValueError, match="^score and label columns differ in length$"):
                split_scores(scores, codes)

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_refuses_scores_that_are_not_finite(self, side, value):
        # not a perfect system, nor a sweep that ends short of (1, 0)
        scores = [[0.9, 0.3], [0.5, 0.1]]
        scores[side].append(value)
        with pytest.raises(DegenerateVector, match=f"^scores must be finite, got {value}$"):
            sweep(*scores)


class TestMinDcf:
    def test_separable(self):
        value, _ = min_dcf(sweep([0.9, 0.8], [0.2, 0.1]))
        assert value == 0.0

    def test_four_score_example(self):
        value, threshold = min_dcf(sweep([0.9, 0.3], [0.5, 0.1]))
        assert value == 0.5
        assert threshold == 0.7

    def test_all_equal_prefers_reject_all(self):
        value, threshold = min_dcf(sweep([0.5], [0.5]))
        assert value == 1.0
        assert threshold == 1.5

    def test_tie_takes_smallest_threshold(self):
        # inverted single pair with symmetric costs: accept-all and
        # reject-all both cost 1.0
        params = DcfParams(c_miss=1.0, c_fa=1.0, p_target=0.5)
        value, threshold = min_dcf(sweep([0.4], [0.6]), params)
        assert value == 1.0
        assert threshold == -0.6

    def test_punitive_records_are_ordinary_scores(self):
        value, _ = min_dcf(sweep([0.9, 0.8], [-1.0, -1.0, 0.2]))
        assert value == 0.0


class TestEer:
    def test_separable(self):
        assert eer(sweep([0.9, 0.8], [0.2, 0.1])) == 0.0

    def test_four_score_diagonal_point(self):
        assert eer(sweep([0.9, 0.3], [0.5, 0.1])) == 0.5

    def test_fully_inverted(self):
        assert eer(sweep([0.1], [0.9])) == 1.0

    def test_interpolated_crossing(self):
        # sweep hits (1/3, 1) then (1/3, 0); the diagonal crossing
        # interpolates to exactly 1/3
        value = eer(sweep([0.3, 0.5, 0.9], [0.4]))
        assert value == pytest.approx(1.0 / 3.0, abs=1e-12)


class TestDetPoints:
    def test_separable_contains_origin(self):
        assert (0.0, 0.0) in _pairs(det_points(sweep([0.9], [0.1])))

    def test_four_score_count(self):
        assert len(det_points(sweep([0.9, 0.3], [0.5, 0.1]))) == 5

    def test_no_consecutive_duplicates(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            targets = rng.choice(np.linspace(-1, 1, 9), size=30)
            nontargets = rng.choice(np.linspace(-1, 1, 9), size=40)
            pairs = _pairs(det_points(sweep(targets, nontargets)))
            assert all(a != b for a, b in zip(pairs, pairs[1:]))

    def test_empty_subset_is_error(self):
        labeled = make_labeled_scores([0.9], [0.5])  # non-target label cycles to TW
        with pytest.raises(EmptySide):
            split_scores(*labeled, TC_VS_IW)


class TestSelectSubset:
    # label codes of TC, TW, IC, IW
    CODES = [0, 1, 2, 3]

    def test_all_is_identity(self):
        assert select_subset(self.CODES, ALL).tolist() == [True] * 4

    def test_tc_vs_tw(self):
        assert select_subset(self.CODES, TC_VS_TW).tolist() == [True, True, False, False]

    def test_other_modes(self):
        assert select_subset(self.CODES, TC_VS_IC).tolist() == [True, False, True, False]
        assert select_subset(self.CODES, TC_VS_IW).tolist() == [True, False, False, True]

    def test_empty_side(self):
        with pytest.raises(EmptySide, match="tc-vs-tw"):
            select_subset([0, 2], TC_VS_TW)
        with pytest.raises(EmptySide):
            select_subset([2], ALL)
        # [] reads as float64 codes, which cannot index
        with pytest.raises(EmptySide, match="^subset 'all' keeps no target"):
            select_subset([], ALL)
        with pytest.raises(EmptySide, match="^subset 'all' keeps no target"):
            split_scores([], [])

    def test_unlabeled_rejected_in_all_mode(self):
        with pytest.raises(UnlabeledRecords):
            select_subset([0, 1, UNLABELED], ALL)
        with pytest.raises(UnlabeledRecords, match="^1 of 2 records"):
            select_subset([0, -2], ALL)

    # Codes no label has, each with the message TrialColumns gives.
    BAD_CODES = {
        "code 4": ([0, 4], "^label code 4 is not in -1..3$"),
        "code 7": ([7, 0, 1], "^label code 7 is not in -1..3$"),
        "float codes": ([0.0, 1.0], "^label codes must be integers, got float64 codes$"),
        "bool codes": ([True, False, True, False], "^label codes must be integers, got bool"),
        "string codes": (["a", "b"], "^label codes must be integers, got <U1 codes$"),
        "object codes": ([0, None], "^label codes must be integers, got object codes$"),
    }

    @pytest.mark.parametrize("case", BAD_CODES)
    def test_codes_no_label_has(self, case):
        codes, message = self.BAD_CODES[case]
        for check in (
            lambda: select_subset(codes, ALL),
            lambda: split_scores([0.5] * len(codes), codes),
            lambda: TrialColumns(*[[f"x{i}" for i in range(len(codes))]] * 3, codes),
        ):
            with pytest.raises(ValueError, match=message):
                check()

    def test_custom_mode(self):
        custom = SubsetMode("tc-vs-nontc", frozenset(TrialLabel))
        assert select_subset(self.CODES, custom).tolist() == [True] * 4

    def test_registry(self):
        assert set(SUBSETS) == {"all", "tc-vs-tw", "tc-vs-ic", "tc-vs-iw"}

    def test_split_keeps_input_order(self):
        scores = [0.4, 0.3, 0.2, 0.1, 0.0]
        targets, nontargets = split_scores(scores, [1, 0, 3, 2, 0], TC_VS_TW)
        assert targets.tolist() == [0.3, 0.0]
        assert nontargets.tolist() == [0.4]


def _random_scores(rng):
    n_t = int(rng.integers(1, 60))
    n_n = int(rng.integers(1, 80))
    if rng.random() < 0.5:
        grid = np.linspace(-1.0, 1.0, 11)
        targets = rng.choice(grid, size=n_t)
        nontargets = rng.choice(grid, size=n_n)
    else:
        targets = rng.normal(0.5, 0.4, size=n_t)
        nontargets = rng.normal(-0.1, 0.4, size=n_n)
    return list(map(float, targets)), list(map(float, nontargets))


class TestProperties:
    def test_monotone_det_and_bound(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            targets, nontargets = _random_scores(rng)
            rates = sweep(targets, nontargets)
            assert (np.diff(rates.p_miss) >= 0).all()
            assert (np.diff(rates.p_fa) <= 0).all()
            value, _ = min_dcf(rates)
            assert value <= 1.0 + 1e-12

    def test_order_invariance(self):
        rng = np.random.default_rng(43)
        targets, nontargets = _random_scores(rng)
        shuffled_t, shuffled_n = targets[:], nontargets[:]
        random.Random(7).shuffle(shuffled_t)
        random.Random(8).shuffle(shuffled_n)
        rates = sweep(targets, nontargets)
        shuffled = sweep(shuffled_t, shuffled_n)
        assert min_dcf(rates) == min_dcf(shuffled)
        assert eer(rates) == eer(shuffled)

    def test_translation_invariance(self):
        rng = np.random.default_rng(44)
        for shift in (2.0, -5.25):
            targets, nontargets = _random_scores(rng)
            base = sweep(targets, nontargets)
            moved = sweep([s + shift for s in targets], [s + shift for s in nontargets])
            v0, t0 = min_dcf(base)
            v1, t1 = min_dcf(moved)
            assert v1 == v0
            assert t1 == pytest.approx(t0 + shift, abs=1e-9)
            assert eer(moved) == eer(base)

    def test_matches_reference(self):
        rng = np.random.default_rng(45)
        for _ in range(20):
            targets, nontargets = _random_scores(rng)
            rates = sweep(*split_scores(*make_labeled_scores(targets, nontargets, rng)))
            impl_pts = list(zip(rates.threshold.tolist(), rates.p_miss.tolist(), rates.p_fa.tolist()))
            assert impl_pts == sweep_ref(targets, nontargets)
            assert min_dcf(rates) == min_dcf_ref(targets, nontargets)
            assert eer(rates) == pytest.approx(
                eer_ref(targets, nontargets), abs=1e-12
            )
