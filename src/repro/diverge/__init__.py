"""Divergence microscope: localize *where* two runs stop agreeing.

The ledger detects that two runs diverge (one fingerprint per run);
this package says where and by how much:

* :mod:`repro.diverge.ladder` — hierarchical state-hash ladder
  (chunk → field → kernel site → step → run root) recorded by both
  simulations, persisted as a schema-versioned ``hashes.jsonl``;
* :mod:`repro.diverge.compare` — aligns two hash streams and bisects
  down the ladder to the first divergent step/site/field/chunk;
* :mod:`repro.diverge.record` — the ``repro diverge record`` driver:
  run a workload with the ladder, optional fault injection and on-disk
  checkpoints, into a self-contained run directory;
* :mod:`repro.diverge.rerun` — resume from the nearest checkpoint and
  re-run the divergence window at stride 1 with ULP-distance stats;
* :mod:`repro.diverge.onset` — per-step ULP divergence-onset curves
  for expectedly-inexact pairs (min vs full precision);
* :mod:`repro.diverge.ulp` — ULP-distance primitives.

See ``docs/divergence.md`` for the schema and worked examples.
"""

from repro.lazy import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "DEFAULT_THRESHOLDS": "repro.diverge.onset",
    "Divergence": "repro.diverge.compare",
    "DivergenceReport": "repro.diverge.compare",
    "FieldHash": "repro.diverge.ladder",
    "HASH_SCHEMA_VERSION": "repro.diverge.ladder",
    "OnsetReport": "repro.diverge.onset",
    "RUN_SCHEMA_VERSION": "repro.diverge.record",
    "RecordedRun": "repro.diverge.record",
    "ReplayReport": "repro.diverge.rerun",
    "STATE_SITE": "repro.diverge.record",
    "SiteHash": "repro.diverge.ladder",
    "StateHashLadder": "repro.diverge.ladder",
    "StepHash": "repro.diverge.ladder",
    "coarser_dtype": "repro.diverge.ulp",
    "compare_ladders": "repro.diverge.compare",
    "compare_paths": "repro.diverge.compare",
    "fault_footprint": "repro.diverge.record",
    "fields_ulp_stats": "repro.diverge.ulp",
    "hash_array": "repro.diverge.ladder",
    "ladder_digest": "repro.diverge.ladder",
    "load_run_doc": "repro.diverge.record",
    "onset_curve": "repro.diverge.onset",
    "read_hashes": "repro.diverge.ladder",
    "record_run": "repro.diverge.record",
    "replay": "repro.diverge.rerun",
    "ulp_distance": "repro.diverge.ulp",
    "ulp_stats": "repro.diverge.ulp",
    "write_hashes": "repro.diverge.ladder",
})
