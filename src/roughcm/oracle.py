"""Independent verifiers and a seeded random-instance generator.

Everything here exists to check the main code paths by a different route:
approximations are recomputed per element instead of per block, the best
classifier is found by enumerating every assignment instead of taking row
maxima, and the bound theorems are verified inequality by inequality on
randomly generated decision systems. The generator is fully deterministic
given its seed (Mersenne Twister via random.Random; the algorithm id is
recorded in fuzz summaries so runs can be replayed).
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from fractions import Fraction

from .classifiers import (
    RoughClassifier,
    TieBreak,
    is_row_maximal,
    maximal_row_classifier,
    validate_overlap,
)
from .core import (
    Attribute,
    DecisionSystem,
    ObjectSet,
    Partition,
    _require_members,
    decision_partition,
    partition_by_attributes,
)
from .errors import GeneratorConfigError, InstanceTooLargeError
from .indices import BoundsReport, confusion_bounds
from .matrices import (
    GranuleFrequencyMatrix,
    RoughConfusionMatrix,
    confusion_matrix,
    granule_frequency_matrix,
    predictor_set,
)

__all__ = [
    "GENERATOR_ID",
    "GeneratorConfig",
    "random_decision_system",
    "random_overlap_classifier",
    "oracle_lower",
    "oracle_upper",
    "exhaustive_best_classifier",
    "BoundCheck",
    "LemmaCheck",
    "TheoremReport",
    "verify_theorems",
    "TrialFailure",
    "FuzzSummary",
    "run_fuzz_trials",
]

GENERATOR_ID = "python-random-mt19937"

_ENUMERATION_GUARD = 1_000_000

_CONFIG_RANGES = {
    "n_objects": (2, 100),
    "n_attributes": (1, 8),
    "values_per_attribute": (1, 6),
    "n_decision_values": (2, 8),
}


@dataclass(frozen=True)
class GeneratorConfig:
    """Sizes and seed for one random decision system.

    Identical configs always generate identical systems.
    """

    n_objects: int
    n_attributes: int
    values_per_attribute: int
    n_decision_values: int
    seed: int

    def __post_init__(self) -> None:
        for name, (lo, hi) in _CONFIG_RANGES.items():
            value = getattr(self, name)
            if not lo <= value <= hi:
                raise GeneratorConfigError(f"{name} must be in {lo}..{hi}, got {value}")
        if self.n_decision_values > self.n_objects:
            raise GeneratorConfigError(
                f"n_decision_values ({self.n_decision_values}) cannot exceed "
                f"n_objects ({self.n_objects})"
            )
        if not 0 <= self.seed < 2**64:
            raise GeneratorConfigError("seed must be an unsigned 64-bit integer")


def random_decision_system(config: GeneratorConfig) -> DecisionSystem:
    """Draw a decision system uniformly and deterministically from the seed.

    Attribute values are tokens v1..vV drawn independently per object; the
    decision column is redrawn in full until at least two distinct values
    occur, so the result always has k >= 2 decision classes.
    """
    rng = random.Random(config.seed)
    ids = tuple(range(1, config.n_objects + 1))
    conditions = []
    for a in range(1, config.n_attributes + 1):
        values = {
            x: f"v{rng.randrange(config.values_per_attribute) + 1}" for x in ids
        }
        conditions.append(Attribute(f"a{a}", values))
    while True:
        decided = {x: f"c{rng.randrange(config.n_decision_values) + 1}" for x in ids}
        if len(set(decided.values())) >= 2:
            break
    return DecisionSystem(ids, tuple(conditions), Attribute("d", decided))


def random_overlap_classifier(gfm: GranuleFrequencyMatrix, seed: int) -> RoughClassifier:
    """Pick, per granule, a uniformly random class it actually intersects.

    The result always satisfies the overlap rule; with a fixed seed it is
    deterministic.
    """
    rng = random.Random(seed)
    assignment = []
    for row in gfm.cells:
        candidates = [j for j, count in enumerate(row, start=1) if count > 0]
        assignment.append(rng.choice(candidates))
    return RoughClassifier(tuple(assignment), gfm.k)


def oracle_lower(p: Partition, members: Iterable[int]) -> ObjectSet:
    """Per-element route: keep x when the whole block of x sits inside the set."""
    target = frozenset(members)
    _require_members(p, target)
    blocks, index = p.blocks, p.block_index
    return frozenset(x for x in target if blocks[index[x]] <= target)


def oracle_upper(p: Partition, members: Iterable[int]) -> ObjectSet:
    """Per-element route: keep x when the block of x meets the set."""
    target = frozenset(members)
    _require_members(p, target)
    met = {p.block_index[y] for y in target}
    return frozenset(x for x, i in p.block_index.items() if i in met)


def exhaustive_best_classifier(
    gfm: GranuleFrequencyMatrix,
) -> tuple[RoughClassifier, Fraction]:
    """Enumerate every assignment of granules to classes; keep a best scorer.

    The score of an assignment is its number of correctly classified
    objects (the diagonal total of its confusion matrix, which per granule
    is the frequency count of the chosen class). The first maximal
    assignment in lexicographic order is returned, together with its
    success ratio. Instances with more than 10**6 candidates are rejected.
    """
    m, k = gfm.m, gfm.k
    if k**m > _ENUMERATION_GUARD:
        raise InstanceTooLargeError(
            f"{k}^{m} candidate classifiers exceed the enumeration guard"
        )
    best_score = -1
    best: tuple[int, ...] = ()
    for assignment in itertools.product(range(1, k + 1), repeat=m):
        score = 0
        for row, cls in zip(gfm.cells, assignment):
            score += row[cls - 1]
        if score > best_score:
            best_score = score
            best = assignment
    return RoughClassifier(best, k), Fraction(best_score, gfm.total)


@dataclass(frozen=True)
class BoundCheck:
    """One per-class inequality chain of a bound theorem, left to right."""

    theorem: int
    class_index: int
    chain: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "chain", tuple(self.chain))

    @property
    def passed(self) -> bool:
        return all(a <= b for a, b in zip(self.chain, self.chain[1:]))


@dataclass(frozen=True)
class LemmaCheck:
    """One consequence of the overlap rule; subject is a granule for part 1
    and a class for parts 2 and 3 (1-based either way)."""

    part: int
    subject: int
    passed: bool


@dataclass(frozen=True)
class TheoremReport:
    """Every inequality verified on one (frequency matrix, classifier) pair.

    Classifiers that break the overlap rule make the checks inapplicable:
    the report is marked not-applicable rather than failed.
    """

    applicable: bool
    bound_checks: tuple[BoundCheck, ...]
    lemma_checks: tuple[LemmaCheck, ...]
    context: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bound_checks", tuple(self.bound_checks))
        object.__setattr__(self, "lemma_checks", tuple(self.lemma_checks))
        object.__setattr__(self, "context", dict(self.context))

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in (*self.bound_checks, *self.lemma_checks))


def verify_theorems(
    gfm: GranuleFrequencyMatrix,
    f: RoughClassifier,
    cm: RoughConfusionMatrix,
    bounds: BoundsReport,
    context: Mapping[str, str] | None = None,
) -> TheoremReport:
    """Check every bound chain and overlap-rule consequence on built stages.

    True approximation sizes come from the per-element oracle over the
    partitions the frequency matrix carries, estimator values from the
    bounds. The two bound chains are checked per class; the sharper
    row-maximal chains only when the bounds are flagged row-maximal, and
    nothing applies when they are flagged as breaking the overlap rule.
    The lemma checks cover the three consequences of the overlap rule: a
    granule inside a class must be mapped to it, lower approximations sit
    inside predictor sets, and a zero diagonal cell forces its whole row
    to zero.
    """
    granules, decisions = gfm.granules, gfm.decisions
    ctx = dict(context or {})
    if not bounds.rule_validated:
        ctx.setdefault("status", "not-applicable: overlap rule violated")
        return TheoremReport(False, (), (), ctx)

    # one oracle pass per class serves theorem 1 and lemma part 2
    true_lower = [oracle_lower(granules, cls) for cls in decisions.blocks]
    true_nu = [len(oracle_upper(granules, cls)) for cls in decisions.blocks]

    bound_checks = []
    for j, cb in enumerate(bounds.classes):
        nl, nu = len(true_lower[j]), true_nu[j]
        chains = {
            1: (nl, cb.nl_star2, cb.nl_star, cb.class_size),
            2: (cb.class_size, cb.nu_star, cb.nu_star2, nu),
        }
        if bounds.mrc_classifier:
            chains[3] = (nl, cb.nl_m, cb.nl_star2)
            chains[4] = (cb.nl_star2, cb.nu_m, nu)
        bound_checks += [
            BoundCheck(theorem, j + 1, chain) for theorem, chain in chains.items()
        ]

    lemma_checks = []
    for i, (row, block) in enumerate(zip(gfm.cells, granules.blocks), start=1):
        for j, count in enumerate(row, start=1):
            if count == len(block):
                lemma_checks.append(LemmaCheck(1, i, f.assignment[i - 1] == j))
    for j, low in enumerate(true_lower, start=1):
        lemma_checks.append(LemmaCheck(2, j, low <= predictor_set(f, j, granules)))
    for i in range(cm.k):
        if cm.cells[i][i] == 0:
            zero_row = all(value == 0 for value in cm.cells[i])
            lemma_checks.append(LemmaCheck(3, i + 1, zero_row))

    ctx.setdefault("row_maximal", "yes" if bounds.mrc_classifier else "no")
    return TheoremReport(True, tuple(bound_checks), tuple(lemma_checks), ctx)


@dataclass(frozen=True)
class TrialFailure:
    """First counterexample of a fuzz run, with everything needed to replay it."""

    trial: int
    classifier_kind: str
    config: GeneratorConfig
    attributes: tuple[str, ...]
    failed_checks: tuple[str, ...]


@dataclass(frozen=True)
class FuzzSummary:
    """Outcome of a randomized verification run; same seed, same summary."""

    trials: int
    checks: int
    failures: int
    first_failure: TrialFailure | None
    base_seed: int
    max_objects: int
    max_classes: int
    classifier_kinds: tuple[str, ...]
    generator: str


_SEED_STRIDE = 0x9E3779B97F4A7C15


def _trial_seed(base_seed: int, trial: int) -> int:
    return (base_seed + (trial + 1) * _SEED_STRIDE) % 2**64


def run_fuzz_trials(
    trials: int,
    base_seed: int,
    max_objects: int = 30,
    max_classes: int = 5,
    classifier_kinds: tuple[str, ...] = ("mrc", "random"),
) -> FuzzSummary:
    """Verify the theorems on randomly generated systems and classifiers.

    Every trial derives its own seed from (base_seed, trial index), draws
    system sizes, generates the system, picks a random nonempty attribute
    subset, builds the frequency matrix once, and hands the verifier the
    stages built for each requested classifier kind: "mrc" builds a
    maximal row classifier under a randomly drawn tie-break policy,
    "random" draws a uniformly random overlap-satisfying classifier. The
    summary counts checks and failures and keeps the first counterexample,
    if any.
    """
    if trials < 0:
        raise GeneratorConfigError(f"trials must be non-negative, got {trials}")
    if not 2 <= max_objects <= 100:
        raise GeneratorConfigError(f"max_objects must be in 2..100, got {max_objects}")
    if not 2 <= max_classes <= 8:
        raise GeneratorConfigError(f"max_classes must be in 2..8, got {max_classes}")
    kinds = tuple(classifier_kinds)
    if not kinds or any(kind not in ("mrc", "random") for kind in kinds):
        raise GeneratorConfigError(
            f"classifier kinds must be drawn from 'mrc'/'random', got {kinds!r}"
        )

    checks = failures = 0
    first: TrialFailure | None = None
    policies = (TieBreak.LOWEST, TieBreak.HIGHEST, TieBreak.RANDOM)
    for trial in range(trials):
        rng = random.Random(_trial_seed(base_seed, trial))
        n_objects = rng.randint(2, max_objects)
        config = GeneratorConfig(
            n_objects=n_objects,
            n_attributes=rng.randint(1, 6),
            values_per_attribute=rng.randint(1, 6),
            n_decision_values=rng.randint(2, min(max_classes, n_objects)),
            seed=rng.getrandbits(64),
        )
        ds = random_decision_system(config)
        names = ds.condition_names
        subset = tuple(sorted(rng.sample(names, rng.randint(1, len(names)))))
        granules = partition_by_attributes(ds, subset)
        decisions = decision_partition(ds)
        gfm = granule_frequency_matrix(granules, decisions)
        for kind in kinds:
            if kind == "mrc":
                policy = rng.choice(policies)
                f = maximal_row_classifier(gfm, policy, seed=rng.getrandbits(32))
                context = {"classifier": "mrc", "tie_break": policy.value}
            else:
                f = random_overlap_classifier(gfm, rng.getrandbits(64))
                context = {"classifier": "random-overlap", "tie_break": "-"}
            context["generator"] = GENERATOR_ID
            cm = confusion_matrix(gfm, f)
            validation = validate_overlap(f, gfm)
            bounds = confusion_bounds(cm, validation, is_row_maximal(f, gfm))
            report = verify_theorems(gfm, f, cm, bounds, context)
            checks += 1
            if not (report.applicable and report.overall_pass):
                failures += 1
                if first is None:
                    failed = tuple(
                        f"theorem{c.theorem}/class{c.class_index}"
                        for c in report.bound_checks
                        if not c.passed
                    ) + tuple(
                        f"lemma1.{c.part}/{c.subject}"
                        for c in report.lemma_checks
                        if not c.passed
                    )
                    if not report.applicable:
                        failed = ("not-applicable",)
                    first = TrialFailure(trial, kind, config, subset, failed)
    return FuzzSummary(
        trials=trials,
        checks=checks,
        failures=failures,
        first_failure=first,
        base_seed=base_seed,
        max_objects=max_objects,
        max_classes=max_classes,
        classifier_kinds=kinds,
        generator=GENERATOR_ID,
    )
