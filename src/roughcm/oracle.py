"""Independent verifiers and a seeded random-instance generator.

Everything here exists to check the main code paths by a different route:
approximations are recomputed per element, each finding its block through
the partition's object-to-block map, instead of per block, the best
classifier is found by enumerating every assignment instead of taking row
maxima, and the bound theorems are verified inequality by inequality on
randomly generated decision systems.

The verifier reads every truth from the objects, not from the frequency
matrix, and needs no id-keyed map: one pass over the granule and class
labels of the objects gathers, for each class, the set of granules it
meets. A class's upper approximation is the granules it meets and its
lower approximation those it meets alone, with sizes taken from the
member tuples, and its size n_j, on which bound chains 1 and 2 pivot, is
its own member count, not the confusion matrix's column sum that the
bounds carry. Lemma part 1's subjects are the granules one class alone
meets, and each passes when the class the classifier maps it to meets
it; lemma part 2 counts, object by object, the members of each lower
approximation that the classifier maps to their own class. Of the
matrices only the confusion matrix's cells are read, for lemma part 3.
This is still not the fast path: the gfm counts each object into flat
cell i*k + j of one list and reads a granule as inside class j when its
row holds its size at j, while the verifier de-duplicates (granule,
class) pairs into one set per class and reads a granule as inside class
j when class j alone meets it. On a matrix built from its partitions
the two readings agree; on one whose cells keep their margins but not
the objects, the verifier still reads the objects. `oracle_lower` and
`oracle_upper` stay as the per-element routes the tests hold the
verifier to.

The verifier's inputs come from one chain, _judge: the overlap
validation, the confusion matrix, its bounds and the theorem record
built, in that order, from one frequency matrix and classifier. The
analysis, the report load and every fuzz trial call it, and nothing else
in the package calls those stages (tests/test_one_judgement.py).

The generator is fully deterministic given its seed: every draw is the
one random.Random's randrange or choice makes from that seed (Mersenne
Twister; the algorithm id, GENERATOR_ID, is recorded in fuzz summaries so
runs can be replayed). The generator and the random classifier take
those draws through _below, which repeats the library's bit-level
rejection loop without its call layers; tests/test_fuzz_stream.py holds
_below to randrange and choice draw for draw and pins the trial stream
in a golden file.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass
from fractions import Fraction
from operator import attrgetter, eq, le, not_

from .classifiers import (
    RoughClassifier,
    TieBreak,
    ValidationReport,
    is_row_maximal,
    maximal_row_classifier,
    validate_overlap,
)
from .core import (
    Attribute,
    DecisionSystem,
    ObjectSet,
    Partition,
    _Column,
    _granules_met,
    _require_members,
    decision_partition,
    partition_by_attributes,
)
from .errors import GeneratorConfigError, InstanceTooLargeError, ShapeMismatchError
from .indices import BoundsReport, confusion_bounds
from .matrices import (
    GranuleFrequencyMatrix,
    RoughConfusionMatrix,
    _require_shapes,
    confusion_matrix,
    granule_frequency_matrix,
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
        for name in (*_CONFIG_RANGES, "seed"):
            _require_int(name, getattr(self, name))
        _require_ranges((name, getattr(self, name), r) for name, r in _CONFIG_RANGES.items())
        if self.n_decision_values > self.n_objects:
            raise GeneratorConfigError(
                f"n_decision_values ({self.n_decision_values}) cannot exceed "
                f"n_objects ({self.n_objects})"
            )
        if not 0 <= self.seed < 2**64:
            raise GeneratorConfigError("seed must be an unsigned 64-bit integer")


def _require_int(name: str, value: object) -> None:
    """Sizes, counts and seeds are ints: a float or a bool is refused here,
    not deep in the generator."""
    if type(value) is not int:
        raise GeneratorConfigError(f"{name} must be an int, got {value!r}")


def _require_ranges(checks: Iterable[tuple[str, int, tuple[int, int]]]) -> None:
    """Raise GeneratorConfigError at the first (name, value, (lo, hi)) out of range."""
    for name, value, (lo, hi) in checks:
        if not lo <= value <= hi:
            raise GeneratorConfigError(f"{name} must be in {lo}..{hi}, got {value}")


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """random.Random(s).randrange(n), and the index choice draws for a
    length-n sequence: n.bit_length() random bits, redrawn until below n,
    so n = 1 still consumes bits."""
    width = n.bit_length()
    r = getrandbits(width)
    while r >= n:
        r = getrandbits(width)
    return r


def random_decision_system(config: GeneratorConfig) -> DecisionSystem:
    """Draw a decision system uniformly and deterministically from the seed.

    Attribute values are tokens v1..vV drawn independently per object; the
    decision column is redrawn in full until at least two distinct values
    occur, so the result always has k >= 2 decision classes.
    """
    bits = random.Random(config.seed).getrandbits
    ids = tuple(range(1, config.n_objects + 1))
    n_values, n_classes = config.values_per_attribute, config.n_decision_values
    value_tokens = [f"v{v}" for v in range(1, n_values + 1)]
    conditions = []
    for a in range(1, config.n_attributes + 1):
        column = tuple([value_tokens[_below(bits, n_values)] for _ in ids])
        conditions.append(Attribute(f"a{a}", _Column(ids, column)))
    while True:
        drawn = [_below(bits, n_classes) for _ in ids]
        if len(set(drawn)) >= 2:
            break
    class_tokens = [f"c{c}" for c in range(1, n_classes + 1)]
    decided = _Column(ids, tuple(map(class_tokens.__getitem__, drawn)))
    return DecisionSystem(ids, tuple(conditions), Attribute("d", decided))


def random_overlap_classifier(gfm: GranuleFrequencyMatrix, seed: int) -> RoughClassifier:
    """Pick, per granule, a uniformly random class it actually intersects.

    The result always satisfies the overlap rule; with a fixed seed it is
    deterministic.
    """
    bits = random.Random(seed).getrandbits
    classes = range(1, gfm.k + 1)
    assignment = []
    for row in gfm.cells:
        candidates = list(itertools.compress(classes, row))
        assignment.append(candidates[_below(bits, len(candidates))])
    return RoughClassifier(tuple(assignment), gfm.k)


def oracle_lower(p: Partition, members: Iterable[int]) -> ObjectSet:
    """Per-element route: keep each block that a member of the set maps to
    and that sits inside the set, testing each such block once."""
    target = frozenset(members)
    _require_members(p, target)
    inside = filter(target.issuperset, _met_blocks(p, target))
    return frozenset(itertools.chain.from_iterable(inside))


def oracle_upper(p: Partition, members: Iterable[int]) -> ObjectSet:
    """Per-element route: unite the blocks the set's own members map to,
    so the cost follows the upper approximation's size, not the universe's."""
    target = frozenset(members)
    _require_members(p, target)
    return frozenset().union(*_met_blocks(p, target))


def _met_blocks(p: Partition, target: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """The member tuple of each block that a member of `target` maps to, once."""
    return map(p._members.__getitem__, set(map(p.block_index.__getitem__, target)))


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


def _holds(chain: tuple[int, ...]) -> bool:
    """Whether a bound chain is non-decreasing, left to right."""
    return all(map(le, chain, chain[1:]))


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
        return _holds(self.chain)


@dataclass(frozen=True)
class LemmaCheck:
    """One consequence of the overlap rule; subject is a granule for part 1
    and a class for parts 2 and 3 (1-based either way)."""

    part: int
    subject: int
    passed: bool


@dataclass(frozen=True, init=False)
class TheoremReport:
    """Every inequality verified on one (frequency matrix, classifier) pair.

    Classifiers that break the overlap rule make the checks inapplicable:
    the report is marked not-applicable rather than failed.

    The checks are kept as columns, with no object per check: the bound
    chains as (theorem, class, chain) and the lemma checks as (part,
    subject, passed), each passed column a bytes of 0s and 1s. The
    subjects of lemma part 1, ascending granule indices, are kept as a 0/1
    mask over the granules. bound_checks and lemma_checks build their
    records on every read, and the constructor takes records, so
    dataclasses.replace works on them.
    """

    applicable: bool
    bound_checks: tuple[BoundCheck, ...]
    lemma_checks: tuple[LemmaCheck, ...]
    context: Mapping[str, str]

    def __init__(
        self,
        applicable: bool,
        bound_checks: Iterable[BoundCheck],
        lemma_checks: Iterable[LemmaCheck],
        context: Mapping[str, str],
    ) -> None:
        bounds, lemmas = tuple(bound_checks), tuple(lemma_checks)
        self._fill(
            applicable,
            [tuple(map(attrgetter(name), bounds)) for name in ("theorem", "class_index", "chain")],
            (tuple(c.part for c in lemmas), b"", tuple(c.subject for c in lemmas)),
            bytes(map(bool, map(attrgetter("passed"), lemmas))),
            dict(context),
        )

    def _fill(
        self,
        applicable: bool,
        bounds: Sequence[Sequence[object]],
        lemmas: tuple[Sequence[int], bytes, Sequence[int]],
        lemmas_passed: bytes,
        context: dict[str, str],
    ) -> TheoremReport:
        """Hold the bound columns and the lemma columns as (part, part 1
        mask, the other subjects), with the passed column as 0s and 1s,
        and keep the context dict itself: callers pass a fresh copy."""
        self.__dict__.update(
            applicable=applicable,
            _bounds=tuple(bounds),
            _bounds_passed=bytes(map(_holds, bounds[2])),
            _lemmas=lemmas,
            _lemmas_passed=lemmas_passed,
            context=context,
        )
        return self

    # named as the fields above, so replace, == and repr read the records
    @property
    def bound_checks(self) -> tuple[BoundCheck, ...]:
        return tuple(map(BoundCheck, *self._bounds))

    @property
    def lemma_checks(self) -> tuple[LemmaCheck, ...]:
        parts, subjects = self._lemma_columns()
        return tuple(map(LemmaCheck, parts, subjects, map(bool, self._lemmas_passed)))

    @property
    def overall_pass(self) -> bool:
        return all(self._bounds_passed) and all(self._lemmas_passed)

    def _lemma_columns(self) -> tuple[Sequence[int], Iterator[int]]:
        """The lemma checks' part and subject columns."""
        parts, inside, subjects = self._lemmas
        return parts, itertools.chain(itertools.compress(itertools.count(1), inside), subjects)

    def _failed_bounds(self) -> list[tuple[int, int, tuple[int, ...]]]:
        """(theorem, class, chain) of each failing bound chain, in order."""
        failing = map(not_, self._bounds_passed)
        return list(itertools.compress(zip(*self._bounds), failing))

    def _failed_lemmas(self) -> list[tuple[int, int]]:
        """(part, subject) of each failing lemma check, in order."""
        failing = map(not_, self._lemmas_passed)
        return list(itertools.compress(zip(*self._lemma_columns()), failing))


def verify_theorems(
    gfm: GranuleFrequencyMatrix,
    f: RoughClassifier,
    cm: RoughConfusionMatrix,
    bounds: BoundsReport,
    context: Mapping[str, str] | None = None,
) -> TheoremReport:
    """Check every bound chain and overlap-rule consequence on built stages.

    True approximation and class sizes and lemma part 1's subjects come
    from the objects' labels in the partitions the frequency matrix
    carries, estimator values from the bounds. The two bound chains are
    checked per class; the sharper row-maximal chains only when the
    bounds are flagged row-maximal, and nothing applies when they are
    flagged as breaking the overlap rule.
    The lemma checks cover the three consequences of the overlap rule: a
    granule inside a class must be mapped to it, lower approximations sit
    inside predictor sets, and a zero diagonal cell forces its whole row
    to zero. Where the checks apply, a classifier, confusion matrix or
    bounds whose shape does not fit the matrix raises ShapeMismatchError.
    The checks go straight into the report's columns.
    """
    granules, decisions = gfm.granules, gfm.decisions
    ctx = dict(context or {})
    if not bounds.rule_validated:
        ctx.setdefault("status", "not-applicable: overlap rule violated")
        return TheoremReport(False, (), (), ctx)
    _require_shapes(f, gfm)
    for stage, k in (("confusion matrix", cm.k), ("bounds", len(bounds._rows))):
        if k != gfm.k:
            raise ShapeMismatchError(f"{stage} has {k} classes, matrix has {gfm.k}")

    # class j's upper approximation is the granules it meets, its lower
    # approximation those it meets alone
    met, meets = _granules_met(granules, decisions)
    sizes = list(map(len, granules._members))
    lone = bytes(map((1).__eq__, meets))
    size_of, is_lone = sizes.__getitem__, lone.__getitem__
    true_nl = [sum(map(size_of, filter(is_lone, met_j))) for met_j in met]
    true_nu = [sum(map(size_of, met_j)) for met_j in met]

    # n_j is the class's own size, not the bounds' column sum
    chains = []
    truths = zip(bounds._rows, decisions._members, true_nl, true_nu)
    for j, (row, members, nl, nu) in enumerate(truths, start=1):
        n_j = len(members)
        _, nl_star, nl_star2, nu_star, nu_star2, nl_m, nu_m, _ = row
        chains.append((1, j, (nl, nl_star2, nl_star, n_j)))
        chains.append((2, j, (n_j, nu_star, nu_star2, nu)))
        if bounds.mrc_classifier:
            chains.append((3, j, (nl, nl_m, nl_star2)))
            chains.append((4, j, (nl_star2, nu_m, nu)))

    # lemma part 1's subjects are the granules one class alone meets, held
    # as the 0/1 mask lone; each passes when the class f maps it to meets it
    mapped = itertools.compress(enumerate(f.assignment), lone)
    passed = bytearray(g in met[j - 1] for g, j in mapped)
    parts, subjects = bytearray(b"\x01" * len(passed)), []
    # object by object: x lies in its own class's lower approximation when
    # its granule meets that class alone; lemma part 2 holds for class j
    # when f maps all nl_j such objects to j
    labels, classes = granules._labels, decisions._labels
    wanted = [j - 1 if alone else -1 for j, alone in zip(f.assignment, lone)]
    hits = map(eq, map(wanted.__getitem__, labels), classes)
    kept = Counter(itertools.compress(classes, hits))
    for j, nl in enumerate(true_nl):
        parts.append(2)
        subjects.append(j + 1)
        passed.append(kept[j] == nl)
    for i, row in enumerate(cm.cells):
        if row[i] == 0:
            parts.append(3)
            subjects.append(i + 1)
            passed.append(not any(row))

    ctx.setdefault("row_maximal", "yes" if bounds.mrc_classifier else "no")
    report = TheoremReport.__new__(TheoremReport)
    return report._fill(True, list(zip(*chains)), (parts, lone, subjects), passed, ctx)


def _judge(
    gfm: GranuleFrequencyMatrix, f: RoughClassifier, context: Mapping[str, str]
) -> tuple[ValidationReport, RoughConfusionMatrix, BoundsReport, TheoremReport]:
    """Every stage that follows from a frequency matrix and a classifier,
    each built once: the overlap validation, the confusion matrix, its
    bounds and the theorem record. An analysis, a report load and a fuzz
    trial all take them from here."""
    validation = validate_overlap(f, gfm)
    cm = confusion_matrix(gfm, f)
    bounds = confusion_bounds(cm, validation, is_row_maximal(f, gfm))
    return validation, cm, bounds, verify_theorems(gfm, f, cm, bounds, context)


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
    subset, builds the frequency matrix once, and judges it through _judge
    with each requested classifier kind: "mrc" builds a maximal row
    classifier under a randomly drawn tie-break policy, "random" draws a
    uniformly random overlap-satisfying classifier. The summary counts
    checks and failures and keeps the first counterexample, if any.
    """
    for name, value in (
        ("trials", trials),
        ("base_seed", base_seed),
        ("max_objects", max_objects),
        ("max_classes", max_classes),
    ):
        _require_int(name, value)
    if trials < 0:
        raise GeneratorConfigError(f"trials must be non-negative, got {trials}")
    # a trial's system may take the largest sizes its config allows
    _require_ranges((
        ("max_objects", max_objects, _CONFIG_RANGES["n_objects"]),
        ("max_classes", max_classes, _CONFIG_RANGES["n_decision_values"]),
    ))
    kinds = tuple(classifier_kinds)
    if not kinds or any(kind not in ("mrc", "random") for kind in kinds):
        raise GeneratorConfigError(
            f"classifier kinds must be drawn from 'mrc'/'random', got {kinds!r}"
        )

    checks = failures = 0
    first: TrialFailure | None = None
    policies = tuple(TieBreak)
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
            *_, report = _judge(gfm, f, context)
            checks += 1
            if not (report.applicable and report.overall_pass):
                failures += 1
                if first is None:
                    failed = tuple(
                        f"theorem{theorem}/class{j}"
                        for theorem, j, _ in report._failed_bounds()
                    ) + tuple(
                        f"lemma1.{part}/{subject}"
                        for part, subject in report._failed_lemmas()
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
