"""Seeded end-to-end and per-layer benchmark of the tdsvkit CLI pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload score-embed --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --write-benchmark-json

Each workload is a closed loop with one client: the runner makes the
workload's inputs from --seed, then runs one CLI command at a time as a
user would (score, then evaluate, then det) and starts the next only after
the previous one has exited. Wall time and peak RSS of each command come
from os.wait4 on that child. Every output is checked (see verify.py); a
command that exits non-zero or whose output fails a check counts as a
failed operation.

--trace 0 reports the end-to-end metrics. Each timed sample (a set-up or a
pipeline) follows a run of a fixed reference program, and a time is
reported at reference speed: the median over samples of
wall time * REFERENCE_S / reference wall time. A shared host's speed can
drift by a third over minutes; the reference drifts with it, so the ratio
holds much stiller than wall time. The raw wall-time medians are printed
beside them. --trace 1 alternates untraced
pipelines with pipelines whose commands run under tracer.py, and reports
per-layer self times and counts plus the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Details (manifest, per-command samples,
spans) go to perfbench/work/<workload>/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = HERE / "work"
DEFAULT_SEED = 1
RUN_SECONDS = 40
# Set-up runs at least SETUP_REPS times and until SETUP_MIN_S have gone into
# it, so a cheap set-up is timed often enough for a steady median.
SETUP_REPS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 15
DEADLINE_S = 170.0  # a child still running this long after start is killed
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CLI = "import sys; from tdsvkit.cli import entry; sys.argv[0] = 'tdsvkit'; entry()"

# The reference program: interpreter start-up and the numpy import, an
# edit-distance loop and TSV text parsing, the kinds of work the CLI does,
# but none of the package's code, so no change to the package moves it.
REFERENCE = '''
import numpy as np

def distance(a, b):
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        for j, cb in enumerate(b, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]

rng = np.random.default_rng(7)
words = ["".join(chr(97 + c) for c in rng.integers(0, 26, 30)) for _ in range(400)]
total = sum(distance(words[i], words[i + 1]) for i in range(399))
text = "\\n".join("\\t".join(f"{x:.6f}" for x in row) for row in rng.normal(size=(3000, 16)))
rows = np.array([[float(x) for x in line.split("\\t")] for line in text.split("\\n")])
assert rows.shape == (3000, 16) and total > 0
'''
# The reference's usual wall time on the baseline host (see README) in a
# quiet spell: a time at reference speed reads as seconds on that host.
REFERENCE_S = 0.31


@dataclass(frozen=True)
class Workload:
    """One benchmark input. simulate holds `tdsvkit simulate` flags; without
    them the runner writes n_scores labeled scores itself and runs only
    evaluate and det."""

    name: str
    why: str
    simulate: tuple = ()
    spaces: tuple = ()
    n_scores: int = 0

    @property
    def scores_workload(self) -> bool:
        return bool(self.simulate)

    @property
    def n_trials(self) -> int:
        if self.scores_workload:
            flags = list(self.simulate)
            return 4 * int(flags[flags.index("--trials-per-type") + 1])
        return self.n_scores


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "score-embed",
            "embedding parsing dominates score and gate inputs repeat (distinct-pair ratio ~0.6)",
            simulate=(
                "--n-speakers", "250", "--trials-per-type", "750",
                "--space", "a:256:0.5", "--space", "b:192:0.5",
                "--err-correct", "0.05", "--err-wrong", "0.05",
            ),
            spaces=("a", "b"),
        ),
        Workload(
            "eval-scoreset",
            "evaluate and det on a large labeled score set with a tie block at -1: score parsing, join and sweep; no scoring",
            n_scores=60000,
        ),
    )
}

# name, unit, better, bound: what a user of the CLI sees.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("pipeline_s", "s", "lower", 0.25),
    ("trials_per_s", "trials/s", "higher", 0.25),
    ("evaluate_s", "s", "lower", 0.25),
    ("det_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)


def _self(name):
    return lambda st: st.self_s[name]


def _count(name):
    return lambda st: st.counts[name]


def _calls(name):
    return lambda st: st.calls[name]


def _ratio(num, den):
    return num / den if den else 0.0


# name, unit, better, value from one traced pipeline's LayerStats.
PER_LAYER = (
    ("tsvio.parse_embeddings.self_s", "s", "lower", _self("tsvio.parse_embeddings")),
    ("tsvio.parse_embeddings.rows", "count", "higher", _count("tsvio.parse_embeddings.rows")),
    ("tsvio.parse_embeddings.mb_per_s", "MB/s", "higher", lambda st: _ratio(
        st.counts["tsvio.parse_embeddings.bytes"] / 1e6, st.self_s["tsvio.parse_embeddings"])),
    ("tsvio.parse_trials.self_s", "s", "lower", _self("tsvio.parse_trials")),
    ("tsvio.parse_trials.calls", "count", "lower", _calls("tsvio.parse_trials")),
    ("tsvio.parse_scores.self_s", "s", "lower", _self("tsvio.parse_scores")),
    ("tsvio.parse_transcripts.self_s", "s", "lower", _self("tsvio.parse_transcripts")),
    ("tsvio.parse_enrollmap.self_s", "s", "lower", _self("tsvio.parse_enrollmap")),
    ("tsvio.write_scores.self_s", "s", "lower", _self("tsvio.write_scores")),
    ("tsvio.write_det.self_s", "s", "lower", _self("tsvio.write_det")),
    ("tsvio.write_dataset.self_s", "s", "lower", _self("tsvio.write_dataset")),
    ("scoring.score_all.self_s", "s", "lower", _self("scoring.score_all")),
    ("scoring.build_enrollment.self_s", "s", "lower", _self("scoring.build_enrollment")),
    ("scoring.build_enrollment.calls", "count", "lower", _calls("scoring.build_enrollment")),
    ("scoring.trials_scored", "count", "higher", _count("scoring.trials_scored")),
    ("scoring.trials_skipped", "count", "lower", _count("scoring.trials_skipped")),
    ("textgate.gate.self_s", "s", "lower", _self("textgate.gate")),
    ("textgate.gate.calls", "count", "lower", _calls("textgate.gate")),
    ("textgate.gate.pass_ratio", "ratio", "higher", lambda st: _ratio(
        st.counts["textgate.gate.passed"], st.calls["textgate.gate"])),
    ("textgate.distinct_pair_ratio", "ratio", "lower", lambda st: _ratio(
        st.counts["textgate.gate.distinct_pairs"], st.calls["textgate.gate"])),
    ("core.cosine.self_s", "s", "lower", _self("core.cosine")),
    ("core.cosine.calls", "count", "lower", _calls("core.cosine")),
    ("metrics.sweep.self_s", "s", "lower", _self("metrics.sweep")),
    ("metrics.sweep.calls", "count", "lower", _calls("metrics.sweep")),
    ("metrics.min_dcf.self_s", "s", "lower", _self("metrics.min_dcf")),
    ("metrics.eer.self_s", "s", "lower", _self("metrics.eer")),
    ("metrics.det_points.self_s", "s", "lower", _self("metrics.det_points")),
    ("metrics.det_points.points", "count", "higher", _count("metrics.det_points.points")),
    ("metrics.select_subset.self_s", "s", "lower", _self("metrics.select_subset")),
    ("cli.cmd_score.self_s", "s", "lower", _self("cli.cmd_score")),
    ("cli.cmd_evaluate.self_s", "s", "lower", _self("cli.cmd_evaluate")),
    ("cli.cmd_det.self_s", "s", "lower", _self("cli.cmd_det")),
    ("synth.gen_dataset.self_s", "s", "lower", _self("synth.gen_dataset")),
    ("trace.absent_spans", "count", "lower", lambda st: len(st.absent)),
)
# Reported beside PER_LAYER: traced pipeline wall time minus untraced, medians.
OVERHEAD = ("trace.overhead_s", "s", "lower")


def benchmark_spec() -> dict:
    """The BENCHMARK.json this runner implements."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER
        ] + [{"name": OVERHEAD[0], "unit": OVERHEAD[1], "better": OVERHEAD[2]}],
    }


# ----------------------------------------------------------------------------
# Child processes


@dataclass
class Command:
    argv: list
    wall_s: float
    rss_kb: int
    code: int
    stdout: str
    ok: bool = False
    trace: dict = None  # tracer.py output, for traced commands


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    ncpu = os.cpu_count() or 1
    for var in THREAD_VARS:
        try:
            env[var] = str(max(1, min(int(env.get(var, ncpu)), ncpu)))
        except ValueError:
            env[var] = str(ncpu)
    return env


def spawn(exe: list, name: str, log_dir: Path, deadline: float):
    """Run one child to completion; its wall time, resource usage (from wait4,
    that child alone) and exit code. Output goes to log_dir/name.std*."""
    out_path, err_path = log_dir / f"{name}.stdout", log_dir / f"{name}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(exe, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        lock = threading.Lock()
        exited = False

        def kill():
            with lock:
                if not exited:
                    proc.kill()

        timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
        timer.start()
        # Wait without reaping, so a late kill() can never hit a reused pid.
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            exited = True
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait again
    return wall, usage, proc.returncode


def run_command(argv, log_dir: Path, deadline: float, spans_path=None) -> Command:
    """Run one tdsvkit command to completion. With spans_path the command
    runs under tracer.py."""
    if spans_path is None:
        exe = [sys.executable, "-c", CLI, *argv]
    else:
        exe = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *argv]
    wall, usage, code = spawn(exe, argv[0], log_dir, deadline)
    stdout = (log_dir / f"{argv[0]}.stdout").read_text(encoding="utf-8", errors="replace")
    return Command(list(argv), wall, usage.ru_maxrss, code, stdout)


# ----------------------------------------------------------------------------
# Inputs


def write_scoreset(out_dir: Path, n: int, seed: int) -> None:
    """n labeled scores, labels split evenly across TC/TW/IC/IW in a seeded
    order. Wrong-phrase trials (TW/IW) are mostly PUNITIVE, which makes a
    large tie block at -1; the rest are 6-decimal Gaussian scores."""
    import numpy as np

    rng = np.random.default_rng([seed, 11])
    labels = np.repeat(np.arange(4), n // 4)
    rng.shuffle(labels)
    names = np.array(["TC", "TW", "IC", "IW"])[labels]
    wrong_phrase = (labels == 1) | (labels == 3)
    punitive = rng.random(labels.size) < np.where(wrong_phrase, 0.9, 0.05)
    mean = np.array([0.65, 0.45, 0.15, 0.05])[labels]
    sd = np.array([0.12, 0.15, 0.18, 0.18])[labels]
    scores = np.clip(rng.normal(mean, sd), -1.0, 1.0)
    scores[punitive] = -1.0
    cer = np.where(punitive, rng.uniform(0.31, 1.2, labels.size), rng.uniform(0.0, 0.3, labels.size))
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "trials.tsv", "w", encoding="utf-8", newline="\n") as f:
        for i, name in enumerate(names):
            f.write(f"trl{i:07d}\tmdl{i % 997:04d}\tutt{i:07d}\t{name}\n")
    with open(out_dir / "scores.tsv", "w", encoding="utf-8", newline="\n") as f:
        for i in range(labels.size):
            flag = "PUNITIVE" if punitive[i] else "PASS"
            f.write(f"trl{i:07d}\t{scores[i]:.6f}\t{flag}\t{cer[i]:.4f}\n")


# ----------------------------------------------------------------------------
# Verification


class Verifier:
    """Checks each command's output; outputs already proven correct are
    recognised by digest, so repeated samples cost a hash each."""

    def __init__(self, workload: Workload, seed: int, data: Path, golden: dict):
        self.workload = workload
        self.seed = seed
        self.data = data
        self.pinned = golden.get(workload.name, {}) if seed == DEFAULT_SEED else {}
        self.trials = None
        self.proven = set()
        self.oracles = {}
        self.problems = []

    def _report(self, problems) -> bool:
        """Record and print the first few problems; True when there are none."""
        self.problems.extend(problems[:3])
        for p in problems[:3]:
            print(f"verify: {p}", file=sys.stderr)
        return not problems

    def _oracle(self, scores_path: Path, scores_digest: str):
        if scores_digest not in self.oracles:
            import verify

            self.oracles[scores_digest] = verify.MetricsOracle(scores_path, self.trials)
        return self.oracles[scores_digest]

    def check(self, cmd: Command, scores_path: Path, out_dir: Path) -> bool:
        kind = cmd.argv[0]
        if cmd.code != 0:
            return self._report([f"{kind} exited {cmd.code}"])
        if kind == "simulate":
            want = f"trials={self.workload.n_trials}"
            return self._report([] if want in cmd.stdout.split() else [f"simulate printed no {want}"])
        try:
            return self._report(self._problems(kind, cmd.stdout, scores_path, out_dir))
        except (IndexError, KeyError, ValueError, OSError) as exc:
            return self._report([f"{kind} output unreadable: {type(exc).__name__}: {exc}"])

    def _problems(self, kind: str, stdout: str, scores_path: Path, out_dir: Path) -> list:
        import verify

        if kind == "score":
            digest = verify.sha256_file(scores_path)
            key = ("scores.tsv", digest)
        elif kind == "evaluate":
            digest = verify.sha256_text(stdout)
            key = ("evaluate.stdout", digest, verify.sha256_file(scores_path))
        else:
            digest = verify.sha256_file(out_dir / "det.tsv")
            key = ("det.tsv", digest, verify.sha256_file(scores_path))
        pinned = self.pinned.get(key[0])
        if pinned is not None and pinned != digest:
            return [f"{key[0]} sha256 {digest} differs from the pinned {pinned}"]
        if key in self.proven:
            return []
        if self.trials is None:
            self.trials = verify.read_trials(self.data / "trials.tsv")
        if kind == "score":
            problems = verify.check_scores(
                scores_path, self.data, self.workload.spaces, self.trials, self.seed
            )
        elif kind == "evaluate":
            problems = verify.check_report(stdout, self._oracle(scores_path, key[2]).report())
        else:
            problems = verify.check_det(out_dir / "det.tsv", self._oracle(scores_path, key[2]).det_text())
        if not problems:
            self.proven.add(key)
        return problems


# ----------------------------------------------------------------------------
# Tracing


@dataclass
class LayerStats:
    """Self time and call count per span name, plus counts, over the traced
    commands of one pipeline."""

    self_s: Counter = field(default_factory=Counter)
    calls: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    absent: set = field(default_factory=set)

    def add(self, trace: dict) -> None:
        spans = trace["spans"]
        covered = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _), child in zip(spans, covered):
            self.self_s[name] += (end - start) - child
            self.calls[name] += 1
        self.counts.update(trace["counts"])
        self.absent.update(trace["absent"])


# ----------------------------------------------------------------------------
# The run


@dataclass
class Run:
    workload: Workload
    seed: int
    dirs: dict
    deadline: float
    verifier: Verifier
    attempted: int = 0
    failed: int = 0
    spans: list = field(default_factory=list)

    def command(self, argv, run_id=None) -> Command:
        spans_path = None
        if run_id is not None:
            spans_path = self.dirs["log"] / f"{argv[0]}.spans.json"
            spans_path.unlink(missing_ok=True)
        cmd = run_command(argv, self.dirs["log"], self.deadline, spans_path)
        cmd.ok = self.verifier.check(cmd, self.scores_path, self.dirs["out"])
        self.attempted += 1
        self.failed += not cmd.ok
        if spans_path is not None and spans_path.exists():
            trace = json.loads(spans_path.read_text(encoding="utf-8"))
            self.spans.extend([*s, run_id] for s in trace["spans"])
            cmd.trace = trace
        return cmd

    @property
    def scores_path(self) -> Path:
        if self.workload.scores_workload:
            return self.dirs["out"] / "scores.tsv"
        return self.dirs["data"] / "scores.tsv"

    def reference(self) -> float:
        """Wall time of one run of the reference program."""
        wall, _, code = spawn([sys.executable, "-c", REFERENCE], "reference",
                              self.dirs["log"], self.deadline)
        if code != 0:
            raise RuntimeError(f"the reference program exited {code}; see {self.dirs['log']}")
        return wall

    def setup(self, run_id=None):
        """Make the inputs; returns (seconds, tracer output or None)."""
        data = self.dirs["data"]
        if not self.workload.scores_workload:
            shutil.rmtree(data, ignore_errors=True)
            start = time.perf_counter()
            write_scoreset(data, self.workload.n_scores, self.seed)
            return time.perf_counter() - start, None
        cmd = self.command(
            ["simulate", "--seed", str(self.seed), *self.workload.simulate, "--out", str(data)],
            run_id,
        )
        return cmd.wall_s, cmd.trace

    def pipeline(self, run_id=None) -> list:
        d, out = self.dirs["data"], self.dirs["out"]
        label_args = ["--scores", str(self.scores_path), "--trials", str(d / "trials.tsv")]
        argvs = []
        if self.workload.scores_workload:
            argvs.append(
                ["score", "--trials", str(d / "trials.tsv"), "--enrollmap", str(d / "enrollmap.tsv"),
                 "--phrases", str(d / "phrases.tsv"), "--transcripts", str(d / "transcripts.tsv")]
                + [a for s in self.workload.spaces for a in ("--embeddings", f"{s}={d}/embeddings_{s}.tsv")]
                + ["--out", str(out / "scores.tsv")]
            )
        argvs.append(["evaluate", *label_args])
        argvs.append(["det", *label_args, "--out", str(out / "det.tsv")])
        return [self.command(argv, run_id) for argv in argvs]


def _median(values):
    return statistics.median(values) if values else 0.0


def manifest(workload: Workload, seed: int, argv: list, data: Path) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has no history to ask
        try:
            commit = subprocess.run(
                ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    env = child_env()
    return {
        "workload": workload.name,
        "seed": seed,
        "argv": argv,
        "inputs": list(workload.simulate) or [f"n_scores={workload.n_scores}"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: env[v] for v in THREAD_VARS},
        "git_commit": commit,
        "platform": platform.platform(),
        "input_bytes": {p.name: p.stat().st_size for p in sorted(data.glob("*.tsv"))},
        "reference_s": REFERENCE_S,
        "page_cache": "not dropped (no privilege to do so); one discarded warm-up pipeline reads every input first",
    }


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run one workload; returns the result object printed as the last line,
    plus a "detail" key with what is written to the work directory."""
    start = time.monotonic()
    root = work / workload.name
    dirs = {k: root / k for k in ("data", "out", "log")}
    for path in dirs.values():
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    run = Run(workload, seed, dirs, start + DEADLINE_S,
              Verifier(workload, seed, dirs["data"], golden))

    setup_times, setup_refs, setup_stats = [], [], LayerStats()
    if trace:
        seconds_taken, setup_trace = run.setup(run_id="setup")
        setup_times.append(seconds_taken)
        if setup_trace is not None:
            setup_stats.add(setup_trace)
    else:
        while len(setup_times) < SETUP_MAX_REPS and (
            len(setup_times) < SETUP_REPS or sum(setup_times) < SETUP_MIN_S
        ):
            setup_refs.append(run.reference())
            setup_times.append(run.setup()[0])
    run.pipeline()  # warm-up: page cache, bytecode; checked and counted, not timed

    plain, refs, traced, layer_samples = [], [], [], []
    measure_end = time.monotonic() + seconds
    while not plain or time.monotonic() < measure_end:
        if not trace:
            refs.append(run.reference())
        plain.append(run.pipeline())
        if trace:
            cmds = run.pipeline(run_id=len(traced))
            traced.append(cmds)
            stats = LayerStats()
            for cmd in cmds:
                if cmd.trace is not None:
                    stats.add(cmd.trace)
            for name, value in setup_stats.self_s.items():
                stats.self_s[name] += value
            layer_samples.append(stats)

    def wall(samples, kind=None):
        return [sum(c.wall_s for c in cmds if kind in (None, c.argv[0])) for cmds in samples]

    def at_reference_speed(times, ref_times):
        return _median([REFERENCE_S * t / r for t, r in zip(times, ref_times)])

    kinds = ("score", "evaluate", "det") if workload.scores_workload else ("evaluate", "det")
    detail = {
        "samples": len(plain),
        "setup_samples": len(setup_times),
        "wall_medians_s": {
            "setup": _median(setup_times),
            "pipeline": _median(wall(plain)),
            **{kind: _median(wall(plain, kind)) for kind in kinds},
        },
        "op_failure_ratio": _ratio(run.failed, run.attempted),
        "commands": [[(c.argv[0], c.wall_s, c.rss_kb, c.ok) for c in cmds] for cmds in plain],
        "reference_times": refs,
        "setup_times": setup_times,
        "setup_reference_times": setup_refs,
        "problems": run.verifier.problems,
    }
    if setup_refs or refs:
        detail["wall_medians_s"]["reference"] = _median(setup_refs + refs)
    if trace:
        metrics = {}
        for name, unit, _, value in PER_LAYER:
            metrics[name] = {"value": _median([value(st) for st in layer_samples]), "unit": unit}
        overhead = _median(wall(traced)) - _median(wall(plain))
        metrics[OVERHEAD[0]] = {"value": overhead, "unit": OVERHEAD[1]}
        detail["spans_file"] = str(root / "spans.json")
        detail["absent_spans"] = sorted(set().union(*(st.absent for st in layer_samples)))
        (root / "spans.json").write_text(json.dumps(
            {"fields": ["name", "start_s", "end_s", "parent", "run_id"], "spans": run.spans}
        ), encoding="utf-8")
    else:
        pipeline_s = at_reference_speed(wall(plain), refs)
        values = {
            "setup_s": at_reference_speed(setup_times, setup_refs),
            "pipeline_s": pipeline_s,
            "trials_per_s": _ratio(workload.n_trials, pipeline_s),
            "evaluate_s": at_reference_speed(wall(plain, "evaluate"), refs),
            "det_s": at_reference_speed(wall(plain, "det"), refs),
            "peak_rss_mb": _median([max(c.rss_kb for c in cmds) / 1024 for cmds in plain]),
        }
        metrics = {n: {"value": values[n], "unit": u} for n, u, _, _ in END_TO_END}
    detail["manifest"] = manifest(workload, seed, sys.argv, dirs["data"])
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "detail": detail,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_spec(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    for needed in (SRC / "tdsvkit" / "cli.py", TESTS / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a tdsvkit checkout",
                  file=sys.stderr)
            return 2
    # The oracles and the in-process imports use the checkout's own package;
    # importing it here also compiles its bytecode before any timing.
    sys.path[:0] = [str(SRC), str(TESTS), str(HERE)]
    import tdsvkit.cli  # noqa: F401

    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), WORK)
    detail = result.pop("detail")
    root = WORK / args.workload
    (root / "manifest.json").write_text(json.dumps(detail["manifest"], indent=2) + "\n")
    (root / "result.json").write_text(json.dumps({**result, "detail": detail}, indent=2) + "\n")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"samples={detail['samples']} setup_samples={detail['setup_samples']}")
    print("wall-time medians: " + ", ".join(
        f"{kind}={value:.4f} s" for kind, value in detail["wall_medians_s"].items()))
    print(f"op_failure_ratio={detail['op_failure_ratio']:.4f} ({result['failed']}/{result['attempted']})")
    for name, m in result["metrics"].items():
        print(f"{name}={m['value']:.6g} {m['unit']}")
    print(f"details: {root.relative_to(ROOT)}/result.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
