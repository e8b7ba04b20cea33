"""Benchmark + ablation study of the design choices DESIGN.md calls out.

Prints the learner-phase and bdrmapIT-heuristic ablations and asserts
each component earns its keep: disabling regex sets or merging never
improves usable-convention counts, and the full bdrmapIT beats pure
election on ground-truth accuracy.
"""

from benchmarks.conftest import run_once
from repro.eval import ablation


def test_ablation(benchmark, context):
    result = run_once(benchmark, ablation.run, context)
    print()
    print(ablation.render(result))

    learner = {row.name: row for row in result.learner_rows}
    full = learner["full"]
    assert full.usable >= learner["phase 1 only"].usable
    assert full.usable >= learner["no regex sets (phase 4)"].usable
    assert full.total_atp >= learner["phase 1 only"].total_atp

    bdrmapit = {row.name: row for row in result.bdrmapit_rows}
    # Election-only is the clear loser; individual heuristics overlap in
    # what they fix, so any single one may be near-redundant on a given
    # seed -- allow small inversions there.
    assert bdrmapit["full"].accuracy > bdrmapit["election only"].accuracy
    assert bdrmapit["full"].accuracy > \
        bdrmapit["no subsequent votes"].accuracy - 0.02
    assert bdrmapit["full"].accuracy > \
        bdrmapit["no relationship election"].accuracy - 0.02
