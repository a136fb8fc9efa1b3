"""Run one tdsvkit CLI command in-process with a span around every call to
each layer's public functions, then write the spans as JSON.

    python3 perfbench/tracer.py SPANS_JSON <tdsvkit argv...>

The wrappers live only in this process: the package itself carries no
timers. Each traced function is patched in every tdsvkit namespace that
binds it (``tdsvkit.cli.score_all``, ``tdsvkit.scoring.gate``,
``tdsvkit.metrics.sweep`` ...), so each caller picks up the wrapper wherever
it looks the name up. A function that no longer exists is listed as absent
instead of failing the run.

Output: {"spans": [[name, start_s, end_s, parent_index], ...],
         "counts": {name: number}, "absent": [name, ...]}
parent_index is -1 for a span with no traced caller.
"""

import functools
import importlib
import json
import os
import pkgutil
import sys
import time
from collections import Counter

# (module under tdsvkit, public function) pairs that become spans. Every
# per-layer metric of the benchmark reads one of these.
TRACED = (
    ("cli", "cmd_score"),
    ("cli", "cmd_evaluate"),
    ("cli", "cmd_det"),
    ("tsvio", "parse_embeddings"),
    ("tsvio", "parse_trials"),
    ("tsvio", "parse_scores"),
    ("tsvio", "parse_transcripts"),
    ("tsvio", "parse_enrollmap"),
    ("tsvio", "write_scores"),
    ("tsvio", "write_det"),
    ("tsvio", "write_dataset"),
    ("scoring", "score_all"),
    ("scoring", "build_enrollment"),
    ("textgate", "gate"),
    ("core", "cosine"),
    ("metrics", "sweep"),
    ("metrics", "min_dcf"),
    ("metrics", "eer"),
    ("metrics", "det_points"),
    ("metrics", "select_subset"),
    ("synth", "gen_dataset"),
)


class Tracer:
    """In-memory span recorder plus counts taken from traced calls."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.counts = Counter()
        self.gate_pairs = set()

    def wrap(self, name, fn, hook=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                try:
                    hook(self, args, result)
                except (AttributeError, IndexError, KeyError, OSError, TypeError):
                    # A later signature change loses the count, not the run.
                    self.counts["trace.hook_errors"] += 1
            return result

        return traced


def _count_embeddings(tracer, args, result):
    tracer.counts["tsvio.parse_embeddings.bytes"] += os.path.getsize(args[0])
    # (table, dim) today, (ids, matrix) once parsing is columnar: rows either way.
    tracer.counts["tsvio.parse_embeddings.rows"] += len(result[0])


def _count_gate(tracer, args, result):
    tracer.counts["textgate.gate.passed"] += bool(result.passed)
    tracer.gate_pairs.add((args[0].text, args[1].text))


def _count_score_all(tracer, args, result):
    tracer.counts["scoring.trials_scored"] += len(result.records)
    tracer.counts["scoring.trials_skipped"] += len(result.skipped)


def _count_det_points(tracer, args, result):
    tracer.counts["metrics.det_points.points"] += len(result)


HOOKS = {
    "tsvio.parse_embeddings": _count_embeddings,
    "textgate.gate": _count_gate,
    "scoring.score_all": _count_score_all,
    "metrics.det_points": _count_det_points,
}


def install(tracer) -> list:
    """Patch every TRACED function in every loaded tdsvkit module; returns the
    names that could not be found."""
    import tdsvkit

    for info in pkgutil.iter_modules(tdsvkit.__path__):
        importlib.import_module(f"tdsvkit.{info.name}")
    modules = [m for n, m in sys.modules.items() if n == "tdsvkit" or n.startswith("tdsvkit.")]
    absent = []
    for module_name, fn_name in TRACED:
        name = f"{module_name}.{fn_name}"
        home = sys.modules.get(f"tdsvkit.{module_name}")
        fn = getattr(home, fn_name, None)
        if not callable(fn):
            absent.append(name)
            continue
        wrapped = tracer.wrap(name, fn, HOOKS.get(name))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)
    return absent


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    absent = install(tracer)
    from tdsvkit.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.counts["textgate.gate.distinct_pairs"] = len(tracer.gate_pairs)
        with open(out_path, "w", encoding="utf-8") as f:
            json.dump({"spans": tracer.spans, "counts": tracer.counts, "absent": absent}, f)


if __name__ == "__main__":
    sys.exit(main())
