"""The fuzz generator's random stream, pinned draw for draw.

`GENERATOR_ID` promises that a (base seed, trial) pair always replays the
same trial. `golden/fuzz_stream.json` holds, for 300 such pairs, a digest
of everything a trial draws: its generator config, the generated columns,
the attribute subset, the tie-break policy and the assignments of both
classifiers. It also pins the generator and both random classifiers on
configs at the edges of their ranges. The digests were recorded while
every draw went through `random.Random.randrange` and `choice` themselves,
and the property test below holds the generator's own draw helper to
those two methods, so a change to the stream fails here.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from roughcm import (
    GeneratorConfig,
    TieBreak,
    decision_partition,
    granule_frequency_matrix,
    maximal_row_classifier,
    oracle,
    partition_by_attributes,
    random_decision_system,
    random_overlap_classifier,
    run_fuzz_trials,
)
from roughcm.oracle import _below

GOLDEN = Path(__file__).parent / "golden" / "fuzz_stream.json"

# (base_seed, max_objects, max_classes, classifier kinds), 60 trials each
RUNS = (
    (0, 2, 2, ("mrc", "random")),
    (1, 100, 8, ("mrc", "random")),
    (42, 30, 5, ("mrc", "random")),
    (2**64 - 1, 9, 8, ("mrc", "random")),
    (12345, 100, 3, ("random", "mrc")),
)
TRIALS = 60

# (n_objects, n_attributes, values_per_attribute, n_decision_values)
SYSTEMS = ((2, 1, 1, 2), (100, 8, 1, 8), (100, 8, 6, 8), (2, 8, 6, 2), (57, 3, 5, 4))
SYSTEM_SEEDS = (0, 1, 2**64 - 1)


def _digest(record: object) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _columns(ds) -> list:
    attributes = (*ds.condition_attributes, ds.decision_attribute)
    return [[a.name, [a.values[x] for x in ds.object_ids]] for a in attributes]


def _trial_records(base_seed, max_objects, max_classes, kinds) -> list[dict]:
    """Everything each trial of one fuzz run draws, seen at the stage calls
    run_fuzz_trials makes, so the real trial loop is what gets pinned."""
    records: list[dict] = []
    real_system = oracle.random_decision_system
    real_partition = oracle.partition_by_attributes
    real_verify = oracle.verify_theorems

    def system(config):
        ds = real_system(config)
        fields = [config.n_objects, config.n_attributes, config.values_per_attribute]
        fields += [config.n_decision_values, config.seed]
        records.append({"config": fields, "columns": _columns(ds), "classifiers": []})
        return ds

    def partition(ds, names):
        records[-1]["subset"] = list(names)
        return real_partition(ds, names)

    def verify(gfm, f, cm, bounds, context=None):
        drawn = [context["classifier"], context["tie_break"], list(f.assignment)]
        records[-1]["classifiers"].append(drawn)
        return real_verify(gfm, f, cm, bounds, context)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "random_decision_system", system)
        mp.setattr(oracle, "partition_by_attributes", partition)
        mp.setattr(oracle, "verify_theorems", verify)
        summary = run_fuzz_trials(TRIALS, base_seed, max_objects, max_classes, kinds)
    assert summary.failures == 0 and len(records) == TRIALS
    return records


def _system_record(sizes, seed) -> dict:
    config = GeneratorConfig(*sizes, seed=seed)
    ds = random_decision_system(config)
    granules = partition_by_attributes(ds, ds.condition_names)
    gfm = granule_frequency_matrix(granules, decision_partition(ds))
    mrc = maximal_row_classifier(gfm, TieBreak.RANDOM, seed=seed % 2**32)
    overlap = random_overlap_classifier(gfm, seed)
    return {
        "columns": _columns(ds),
        "mrc_random": list(mrc.assignment),
        "random_overlap": list(overlap.assignment),
    }


def stream_digests() -> dict:
    """The golden file's content, computed by the code under test."""
    runs = [
        {
            "base_seed": base_seed,
            "max_objects": max_objects,
            "max_classes": max_classes,
            "classifier_kinds": list(kinds),
            "digests": [
                _digest(r) for r in _trial_records(base_seed, max_objects, max_classes, kinds)
            ],
        }
        for base_seed, max_objects, max_classes, kinds in RUNS
    ]
    systems = [
        {"sizes": list(sizes), "seed": seed, "digest": _digest(_system_record(sizes, seed))}
        for sizes in SYSTEMS
        for seed in SYSTEM_SEEDS
    ]
    return {"generator": oracle.GENERATOR_ID, "runs": runs, "systems": systems}


def test_every_trial_draws_the_pinned_stream():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert stream_digests() == golden


def test_the_pinned_trials_reach_the_generator_extremes():
    records = [r for run in RUNS for r in _trial_records(*run)]
    configs = [r["config"] for r in records]
    assert {n for n, *_ in configs} >= {2, 100}
    assert 1 in {values for _, _, values, _, _ in configs}
    assert 8 in {k for _, _, _, k, _ in configs}
    policies = {c[1] for r in records for c in r["classifiers"] if c[0] == "mrc"}
    assert policies == {"lowest", "highest", "random"}


@given(st.integers(0, 2**64 - 1), st.integers(1, 8), st.integers(1, 40))
def test_below_draws_what_randrange_draws(seed, n, draws):
    ours, theirs = random.Random(seed), random.Random(seed)
    got = [_below(ours.getrandbits, n) for _ in range(draws)]
    assert got == [theirs.randrange(n) for _ in range(draws)]
    assert ours.getstate() == theirs.getstate()


@given(st.integers(0, 2**64 - 1), st.lists(st.integers(), min_size=1, max_size=8), st.integers(1, 40))
def test_below_indexes_what_choice_picks(seed, seq, draws):
    ours, theirs = random.Random(seed), random.Random(seed)
    got = [seq[_below(ours.getrandbits, len(seq))] for _ in range(draws)]
    assert got == [theirs.choice(seq) for _ in range(draws)]
    assert ours.getstate() == theirs.getstate()
