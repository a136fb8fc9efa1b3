"""Output checks for the benchmark, independent of the code under test.

Scores are checked by rescoring a seeded sample of trials from the raw
input files: CER through ``tests/oracles.edit_distance_ref``, and the score
as the mean of per-space numpy cosines against
normalize(mean(normalize(rep))). The evaluate report and the DET file are
checked against ``tests/oracles`` min-DCF, EER and sweep, computed from the
score file the command read and labels joined here. Every check returns a
list of problems; an empty list means the output is correct.
"""

import hashlib
import unicodedata

import numpy as np

from oracles import edit_distance_ref, eer_ref, min_dcf_ref, sweep_ref

CER_THRESHOLD = 0.3  # the CLI default the benchmark scores with
PUNITIVE = "-1.000000"
SCORE_TOL = 1e-6
RESCORE_SAMPLE = 200
REPORT_KEYS = (
    "subset", "n_total", "n_tc", "n_tw", "n_ic", "n_iw", "n_target",
    "n_nontarget", "min_dcf", "argmin_threshold", "eer", "skipped",
)
REPORT_FLOATS = ("min_dcf", "argmin_threshold", "eer")


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        return float("nan")


def _rows(path):
    with open(path, encoding="utf-8") as f:
        for raw in f:
            line = raw.rstrip("\n")
            if line:
                yield line


def read_trials(path) -> list:
    """[(trial_id, model_id, test_id, label)] in file order."""
    return [tuple(line.split("\t")) for line in _rows(path)]


def _read_id_text(path) -> dict:
    return dict(line.split("\t", 1) for line in _rows(path))


def _normalize(text: str) -> str:
    return unicodedata.normalize("NFC", text).strip()


def _unit(v: np.ndarray) -> np.ndarray:
    return v / np.linalg.norm(v)


def _read_vectors(path, wanted: set) -> dict:
    """The rows of one embedding file whose id is in wanted."""
    out = {}
    lines = _rows(path)
    next(lines)  # '#dim D' header
    for line in lines:
        utt_id, _, rest = line.partition("\t")
        if utt_id in wanted:
            out[utt_id] = np.array(rest.split(" "), dtype=np.float64)
    return out


def check_scores(scores_path, data_dir, spaces, trials, seed) -> list:
    """Structure of every row, plus an independent rescore of a seeded sample."""
    rows = [line.split("\t") for line in _rows(scores_path)]
    if len(rows) != len(trials):
        return [f"scores.tsv has {len(rows)} rows for {len(trials)} trials"]
    problems = []
    for row, trial in zip(rows, trials):
        if len(row) != 4 or row[0] != trial[0]:
            problems.append(f"row {row!r} does not score trial {trial[0]}")
        elif row[2] == "PUNITIVE" and row[1] != PUNITIVE:
            problems.append(f"{row[0]}: PUNITIVE row scored {row[1]}")
        elif row[2] == "PASS" and not -1.0 <= _float(row[1]) <= 1.0:
            problems.append(f"{row[0]}: PASS score {row[1]} outside [-1, 1]")
        elif row[2] not in ("PASS", "PUNITIVE"):
            problems.append(f"{row[0]}: bad gate flag {row[2]!r}")
    if problems:
        return problems

    rng = np.random.default_rng([seed, 7])
    picks = sorted(rng.choice(len(trials), size=min(RESCORE_SAMPLE, len(trials)), replace=False))
    enroll = {}
    for line in _rows(f"{data_dir}/enrollmap.tsv"):
        model_id, phrase_id, reps = line.split("\t")
        enroll[model_id] = (phrase_id, reps.split(","))
    phrases = _read_id_text(f"{data_dir}/phrases.tsv")
    transcripts = _read_id_text(f"{data_dir}/transcripts.tsv")
    wanted = set()
    for i in picks:
        _, model_id, test_id, _ = trials[i]
        wanted.add(test_id)
        wanted.update(enroll[model_id][1])
    vectors = {s: _read_vectors(f"{data_dir}/embeddings_{s}.tsv", wanted) for s in spaces}

    for i in picks:
        trial_id, model_id, test_id, _ = trials[i]
        phrase_id, reps = enroll[model_id]
        ref = _normalize(phrases[phrase_id])
        cer = edit_distance_ref(_normalize(transcripts[test_id]), ref) / len(ref)
        passed = cer <= CER_THRESHOLD
        if passed:
            cosines = []
            for s in spaces:
                centroid = _unit(np.mean([_unit(vectors[s][r]) for r in reps], axis=0))
                cosines.append(float(np.dot(centroid, _unit(vectors[s][test_id]))))
            score = float(np.mean(cosines))
        else:
            score = -1.0
        _, score_s, flag, cer_s = rows[i]
        if flag != ("PASS" if passed else "PUNITIVE") or cer_s != f"{cer:.4f}":
            problems.append(f"{trial_id}: gate {flag} cer {cer_s}, oracle cer {cer:.4f}")
        elif not abs(_float(score_s) - score) <= SCORE_TOL:
            problems.append(f"{trial_id}: score {score_s}, oracle {score:.9f}")
    return problems


class MetricsOracle:
    """Expected evaluate report and DET file for one score file."""

    def __init__(self, scores_path, trials):
        labels = {t[0]: t[3] for t in trials}
        targets, nontargets = [], []
        self.by_label = {"TC": 0, "TW": 0, "IC": 0, "IW": 0}
        for line in _rows(scores_path):
            trial_id, score, _, _ = line.split("\t")
            label = labels[trial_id]
            self.by_label[label] += 1
            (targets if label == "TC" else nontargets).append(float(score))
        self.targets = targets
        self.nontargets = nontargets

    def report(self) -> dict:
        mdcf, threshold = min_dcf_ref(self.targets, self.nontargets)
        n = len(self.targets) + len(self.nontargets)
        return {
            "subset": "all",
            "n_total": str(n),
            "n_tc": str(self.by_label["TC"]),
            "n_tw": str(self.by_label["TW"]),
            "n_ic": str(self.by_label["IC"]),
            "n_iw": str(self.by_label["IW"]),
            "n_target": str(len(self.targets)),
            "n_nontarget": str(len(self.nontargets)),
            "min_dcf": mdcf,
            "argmin_threshold": threshold,
            "eer": eer_ref(self.targets, self.nontargets),
            "skipped": "0",
        }

    def det_text(self) -> str:
        lines = ["#p_miss\tp_fa\tthreshold"]
        last = None
        for threshold, p_miss, p_fa in sweep_ref(self.targets, self.nontargets):
            if (p_miss, p_fa) != last:
                lines.append(f"{p_miss:.6f}\t{p_fa:.6f}\t{threshold:.6f}")
                last = (p_miss, p_fa)
        return "\n".join(lines) + "\n"


def check_report(stdout: str, expected: dict) -> list:
    """The report keys in their documented order; floats within SCORE_TOL."""
    pairs = [line.split("=", 1) for line in stdout.splitlines() if "=" in line]
    keys = [k for k, _ in pairs[: len(REPORT_KEYS)]]
    if tuple(keys) != REPORT_KEYS:
        return [f"evaluate keys {keys}, expected {list(REPORT_KEYS)}"]
    problems = []
    for key, value in pairs[: len(REPORT_KEYS)]:
        want = expected[key]
        if key in REPORT_FLOATS:
            if not abs(_float(value) - want) <= SCORE_TOL:
                problems.append(f"evaluate {key}={value}, oracle {want!r}")
        elif value != want:
            problems.append(f"evaluate {key}={value}, oracle {want}")
    return problems


def check_det(det_path, expected_text: str) -> list:
    with open(det_path, encoding="utf-8") as f:
        got = f.read()
    if got == expected_text:
        return []
    got_lines, want_lines = got.splitlines(), expected_text.splitlines()
    for n, (g, w) in enumerate(zip(got_lines, want_lines), start=1):
        if g != w:
            return [f"det.tsv line {n}: {g!r}, oracle {w!r}"]
    return [f"det.tsv has {len(got_lines)} lines, oracle {len(want_lines)}"]
