"""Text-dependent speaker verification scoring and evaluation toolkit.

Phrase gating by character error rate with punitive scoring, multi-space
embedding fusion with cosine scoring, SRE08-style detection metrics, TSV
pipeline formats, and a seeded synthetic dataset generator.

`import tdsvkit` loads none of its modules: a public name, or a module
named in _SUBMODULES, is imported on first use (PEP 562) and then kept here.
"""

import importlib

__version__ = "0.1.0"

# Each public name, once, under the module that defines it.
_EXPORTS = {
    "core": (
        "EPS", "LABEL_CODES", "REPS_PER_MODEL", "UNLABELED", "EmbeddingTable", "EnrollEntry",
        "ScoreColumns", "TrialColumns", "TrialLabel", "as_embedding", "l2_normalize",
    ),
    "errors": (
        "TdsvError", "DegenerateVector", "DimensionMismatch", "EmptyReference", "MissingSpace",
        "MissingPhrase", "MissingTranscript", "MissingModel", "DuplicateId", "NoTargets",
        "NoNonTargets", "UnlabeledRecords", "EmptySide", "ConfigInvalid", "ParseError", "BadHeader",
        "DimMismatch", "UnparseableFloat", "BadRepCount", "BadLabel", "MalformedLine",
    ),
    "textgate": (
        "GateConfig", "GateOutcome", "Phrase", "Transcript", "normalize_text", "edit_distance",
        "cer", "gate",
    ),
    "scoring": ("ScoreRun", "enroll", "build_enrollment", "score_all"),
    "metrics": (
        "DcfParams", "ErrorRates", "SubsetMode", "ALL", "TC_VS_TW", "TC_VS_IC", "TC_VS_IW",
        "SUBSETS", "dcf", "sweep", "min_dcf", "eer", "det_points", "select_subset", "split_scores",
    ),
    "synth": (
        "SimConfig", "SpaceSpec", "SyntheticDataset", "derive_seed", "gen_speakers",
        "gen_utterance", "corrupt_transcript", "gen_dataset", "validate_labels",
    ),
}
_HOMES = {name: module for module, names in _EXPORTS.items() for name in names}
# Every submodule, with the five that export no public name.
_SUBMODULES = {*_EXPORTS, "tsvio", "cli", "embcache", "fmt17", "fmt6"}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name):
    if name in _HOMES:
        value = getattr(importlib.import_module(f".{_HOMES[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
