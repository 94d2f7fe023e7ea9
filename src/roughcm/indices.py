"""Approximation-quality indices and confusion-matrix bounds.

System-side indices, read off the granule frequency matrix, where n_j is
the size of decision class j and nl_j / nu_j are the sizes of its lower
and upper approximations: nl_j sums the sizes of the granules whose whole
row mass sits in column j, nu_j those with a non-zero cell in column j.

    lower coverage   nl_j / n_j    share of the class certainly covered
    upper precision  n_j / nu_j    share of the possible region that is the class
    accuracy         nl_j / nu_j   product of the two
    gamma            (sum_j nl_j) / n   overall approximation quality

Confusion-side estimates, read off a k x k confusion matrix with entries
n_ij, row sums r_j and column sums c_j (so c_j = n_j for every rough
classifier):

    gamma_hat   (sum_j n_jj) / n, the success ratio
    alpha_hat_j n_jj / (r_j + c_j - n_jj)
    nl_star     n_jj
    nl_star2    n_jj - Ind(off-diagonal sum of row j)
    nu_star     r_j + c_j - n_jj
    nu_star2    nu_star + number of non-zero off-diagonal cells in column j
    nl_m        n_jj - max off-diagonal entry of row j        (row-maximal only)
    nu_m        n_jj + offdiag(row j) + 2 * offdiag(col j)    (row-maximal only)

where Ind(b) is 0 for b = 0 and 1 otherwise. Under the overlap rule the
estimates bracket the true approximation sizes per class:

    nl_j <= nl_star2 <= nl_star <= n_j <= nu_star <= nu_star2 <= nu_j

and for row-maximal classifiers additionally

    nl_j <= nl_m <= nl_star2        nl_star2 <= nu_m <= nu_j.

Every index is an exact rational (fractions.Fraction); decimal renderings
happen only in reports and are never the source of truth.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import compress, starmap
from operator import attrgetter, eq, itemgetter, mul

from .classifiers import ValidationReport, success_ratio
from .errors import DegenerateDecisionError, UndefinedClassError
from .matrices import GranuleFrequencyMatrix, RoughConfusionMatrix

__all__ = [
    "indicator",
    "ClassApproximation",
    "ApproximationSummary",
    "approximation_summary",
    "gamma_hat",
    "alpha_hat_per_class",
    "alpha_hat_overall",
    "alpha_from_gamma",
    "ClassBounds",
    "BoundsReport",
    "confusion_bounds",
]


def indicator(count: int) -> int:
    """0 for a zero count, 1 for anything else."""
    return 0 if count == 0 else 1


@dataclass(frozen=True)
class ClassApproximation:
    """Approximation sizes of one decision class; its indices derive from them."""

    size: int
    lower_size: int
    upper_size: int

    def __post_init__(self) -> None:
        if not 0 <= self.lower_size <= self.size <= self.upper_size:
            raise ValueError("need 0 <= lower_size <= size <= upper_size")
        if self.size < 1:
            raise ValueError("decision classes are nonempty")

    @property
    def lower_coverage(self) -> Fraction:
        return Fraction(self.lower_size, self.size)

    @property
    def upper_precision(self) -> Fraction:
        return Fraction(self.size, self.upper_size)

    @property
    def accuracy(self) -> Fraction:
        return Fraction(self.lower_size, self.upper_size)


@dataclass(frozen=True)
class ApproximationSummary:
    """Per-class approximation sizes; gamma derives from them."""

    classes: tuple[ClassApproximation, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))
        if len(self.classes) < 2:
            raise DegenerateDecisionError("at least two decision classes are required")

    @property
    def gamma(self) -> Fraction:
        """Each class's lower coverage weighted by its relative size, which
        collapses to (total lower-approximation mass) / n."""
        lower = sum(c.lower_size for c in self.classes)
        return Fraction(lower, sum(c.size for c in self.classes))


def approximation_summary(gfm: GranuleFrequencyMatrix) -> ApproximationSummary:
    """Read every class's approximation sizes off the frequency rows.

    Granule i lies in the lower approximation of class j when cell (i, j)
    holds the whole granule, and in the upper one when the cell is non-zero.
    Both tests read only the row, and a row's sum is its granule's size
    (the matrix checks it), so each distinct row is read once and counts
    its size times the number of granules that have it.
    """
    rows = gfm._distinct
    sizes = list(map(sum, rows))
    mass = list(map(mul, sizes, rows.values()))
    return ApproximationSummary(
        tuple(
            ClassApproximation(
                size=n_j,
                lower_size=sum(compress(mass, map(eq, map(itemgetter(j), rows), sizes))),
                upper_size=sum(compress(mass, map(itemgetter(j), rows))),
            )
            for j, n_j in enumerate(map(len, gfm.decisions._members))
        )
    )


# The success ratio read off the matrix: diagonal mass over total.
gamma_hat = success_ratio


def alpha_hat_per_class(cm: RoughConfusionMatrix) -> tuple[Fraction, ...]:
    """Per-class accuracy estimate n_jj / (r_j + c_j - n_jj).

    Raises UndefinedClassError for a class that is never predicted and
    never occurs, where the quotient would be 0/0. Matrices built from a
    decision system cannot trigger this: their column sums are the class
    sizes, which are at least 1.
    """
    out = []
    margins = zip(cm.diagonal, cm.row_sums, cm.col_sums)
    for j, (diag, row_sum, col_sum) in enumerate(margins, start=1):
        denominator = row_sum + col_sum - diag
        if denominator == 0:
            raise UndefinedClassError(j)
        out.append(Fraction(diag, denominator))
    return tuple(out)


def alpha_hat_overall(cm: RoughConfusionMatrix) -> Fraction:
    """Aggregate accuracy estimate: total diagonal over total row-plus-column
    mass minus the diagonal. Both margins sum to the total, so that mass is
    2 * total - diagonal, which is alpha_from_gamma of the success ratio."""
    return alpha_from_gamma(success_ratio(cm))


def alpha_from_gamma(quality: Fraction | int) -> Fraction:
    """Map an overall quality g in [0, 1] to the aggregate accuracy g / (2 - g)."""
    g = Fraction(quality)
    if not 0 <= g <= 1:
        raise ValueError(f"quality must lie in [0, 1], got {g}")
    return g / (2 - g)


@dataclass(frozen=True)
class ClassBounds:
    """Confusion-side size estimators for one class; see the module docstring.

    nl_m and nu_m are populated only for row-maximal classifiers. clamped
    records that a raw estimator was negative and got clamped to zero,
    which can happen only when the overlap rule does not hold.
    """

    class_size: int
    nl_star: int
    nl_star2: int
    nu_star: int
    nu_star2: int
    nl_m: int | None
    nu_m: int | None
    clamped: bool

    def __post_init__(self) -> None:
        star = (self.nl_star, self.nl_star2, self.nu_star, self.nu_star2)
        if min(self.class_size, *star, self.nl_m or 0, self.nu_m or 0) < 0:
            raise ValueError("estimators are clamped at zero, negatives are invalid")


# ClassBounds' fields: the order of a bounds row and of the JSON's entries
_BOUND_FIELDS = tuple(field.name for field in fields(ClassBounds))


@dataclass(frozen=True, init=False)
class BoundsReport:
    """Per-class estimator values plus the flags that scope their meaning.

    Under the overlap rule the estimator chains follow from the formulas in
    confusion_bounds; verify_theorems checks them against the true sizes.

    Each class's values are kept as one plain row in _BOUND_FIELDS order,
    nl_m and nu_m set exactly when mrc_classifier is; classes builds the
    records on every read, and the constructor takes records.
    """

    classes: tuple[ClassBounds, ...]
    rule_validated: bool
    mrc_classifier: bool

    def __init__(
        self, classes: Iterable[ClassBounds], rule_validated: bool, mrc_classifier: bool
    ) -> None:
        rows = tuple(map(attrgetter(*_BOUND_FIELDS), classes))
        if not rows:
            raise ValueError("a bounds report needs at least one class")
        for sharp in map(itemgetter(5, 6), rows):
            if mrc_classifier and None in sharp:
                raise ValueError("row-maximal estimators missing")
            if not mrc_classifier and sharp != (None, None):
                raise ValueError("row-maximal estimators set without the flag")
        self._fill(rows, rule_validated, mrc_classifier)

    def _fill(self, rows: tuple[tuple, ...], rule_validated: bool, mrc: bool) -> BoundsReport:
        """Hold the rows and the two flags, with no check."""
        self.__dict__.update(_rows=rows, rule_validated=rule_validated, mrc_classifier=mrc)
        return self

    # named as the field above, so replace, == and repr read the records
    @property
    def classes(self) -> tuple[ClassBounds, ...]:
        return tuple(starmap(ClassBounds, self._rows))


def confusion_bounds(
    cm: RoughConfusionMatrix, validation: ValidationReport, is_mrc: bool
) -> BoundsReport:
    """Per-class lower/upper approximation size estimators from the matrix.

    The sharper nl_m / nu_m estimators are computed only when `is_mrc`
    says the classifier is row-maximal. Negative raw values (possible only
    without the overlap rule) are clamped to zero and flagged per class.
    Each row and column of the matrix is read once.
    """
    rows = []
    for j, (row, col) in enumerate(zip(cm.cells, zip(*cm.cells))):
        diag, row_sum, col_sum = row[j], sum(row), sum(col)
        row_off = row_sum - diag
        col_off = col_sum - diag
        raw_star2 = diag - indicator(row_off)
        nu_star = diag + row_off + col_off
        # non-zero cells of column j, less the diagonal one
        nu_star2 = nu_star + len(col) - col.count(0) - indicator(diag)
        clamped = raw_star2 < 0
        nl_star2 = max(0, raw_star2)
        nl_m = nu_m = None
        if is_mrc:
            raw_m = diag - max(row[:j] + row[j + 1 :])
            clamped = clamped or raw_m < 0
            nl_m = max(0, raw_m)
            nu_m = diag + row_off + 2 * col_off
        rows.append((col_sum, diag, nl_star2, nu_star, nu_star2, nl_m, nu_m, clamped))
    return BoundsReport.__new__(BoundsReport)._fill(tuple(rows), validation.satisfies_rule, is_mrc)
