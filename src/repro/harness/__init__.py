"""Experiment harness: one entry point per paper table/figure.

``repro.harness.experiments`` regenerates each of the paper's seven tables
and five figures from the reproduction's own mini-apps and machine models;
``repro.harness.report`` renders them as ASCII tables/series with
paper-vs-measured annotations.

The package itself imports nothing: callers import the submodule they
use, so a run that only needs ``repro.harness.paper``'s check type (every
scenario run) does not load the experiments, and with them all of CLAMR.
"""
