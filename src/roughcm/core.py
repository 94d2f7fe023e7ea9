"""Decision systems, attribute-induced partitions, and rough approximations.

A decision system is a finite data table: objects are rows identified by
integer ids, and columns are condition attributes plus a single decision
attribute. Attribute values are opaque tokens compared for equality only;
numeric-looking tokens are never parsed or ordered.

Every nonempty set Q of condition attributes induces an equivalence
relation (two objects are related when they agree on all attributes in Q)
whose classes are called granules. The decision attribute induces the
decision classes the same way. Knowledge about an arbitrary object set Y
is then expressed relative to a granule partition by two approximations:

* the lower approximation, the union of the granules contained in Y:
  objects that certainly belong to Y;
* the upper approximation, the union of the granules meeting Y: objects
  that possibly belong to Y.

All types are immutable after construction and all operations are pure
functions, so values can be shared freely.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from .errors import (
    DegenerateDecisionError,
    UniverseMismatchError,
    UnknownAttributeError,
)

__all__ = [
    "ObjectSet",
    "Attribute",
    "DecisionSystem",
    "Partition",
    "partition_by_attributes",
    "decision_partition",
    "lower_approximation",
    "upper_approximation",
    "is_definable",
    "deterministic_region",
]

ObjectSet = frozenset[int]


@dataclass(frozen=True)
class Attribute:
    """A named, total map from object ids to value tokens."""

    name: str
    values: Mapping[int, str]


@dataclass(frozen=True)
class DecisionSystem:
    """Objects, their condition attributes, and one decision attribute.

    Object ids are arbitrary distinct integers; CSV ingestion numbers rows
    1..n. Every attribute must provide a value for every object, and the
    decision attribute must take at least two distinct values.
    """

    object_ids: tuple[int, ...]
    condition_attributes: tuple[Attribute, ...]
    decision_attribute: Attribute

    def __post_init__(self) -> None:
        object.__setattr__(self, "object_ids", tuple(self.object_ids))
        object.__setattr__(
            self, "condition_attributes", tuple(self.condition_attributes)
        )
        if not self.object_ids:
            raise ValueError("a decision system needs at least one object")
        universe = frozenset(self.object_ids)
        if len(universe) != len(self.object_ids):
            raise ValueError("object ids must be unique")
        names = [a.name for a in self.condition_attributes]
        names.append(self.decision_attribute.name)
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique")
        for attribute in (*self.condition_attributes, self.decision_attribute):
            if set(attribute.values.keys()) != universe:
                raise ValueError(
                    f"attribute {attribute.name!r} must map exactly the object ids"
                )
        decided = {self.decision_attribute.values[x] for x in self.object_ids}
        if len(decided) < 2:
            raise DegenerateDecisionError(
                f"decision attribute {self.decision_attribute.name!r} takes a single "
                "value; at least two decision classes are required"
            )

    @property
    def n(self) -> int:
        return len(self.object_ids)

    @property
    def universe(self) -> ObjectSet:
        return frozenset(self.object_ids)

    @property
    def condition_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.condition_attributes)


@dataclass(frozen=True)
class Partition:
    """Pairwise disjoint, nonempty blocks in canonical order.

    Blocks are sorted by their smallest member on construction, so every
    matrix and report derived from a partition is reproducible byte for
    byte regardless of how the blocks were supplied. The constructor also
    maps each object to the 0-based index of its block (`block_index`);
    the universe is that map's key set.
    """

    blocks: tuple[ObjectSet, ...]
    block_index: Mapping[int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        blocks = tuple(frozenset(block) for block in self.blocks)
        if not blocks:
            raise ValueError("a partition needs at least one block")
        if any(not block for block in blocks):
            raise ValueError("partition blocks must be nonempty")
        blocks = tuple(sorted(blocks, key=min))
        block_index = {x: i for i, block in enumerate(blocks) for x in block}
        if sum(map(len, blocks)) != len(block_index):
            raise ValueError("partition blocks must be pairwise disjoint")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "block_index", block_index)

    def __len__(self) -> int:
        return len(self.blocks)

    @property
    def universe(self) -> ObjectSet:
        return frozenset(self.block_index)


def _require_members(p: Partition, members: ObjectSet) -> None:
    foreign = members.difference(p.block_index)
    if foreign:
        listed = ", ".join(str(x) for x in sorted(foreign))
        raise UniverseMismatchError(f"object id(s) outside the universe: {listed}")


def _require_same_universe(p: Partition, q: Partition) -> None:
    if p.block_index.keys() != q.block_index.keys():
        raise UniverseMismatchError("partitions cover different object sets")


def partition_by_attributes(ds: DecisionSystem, attributes: Iterable[str]) -> Partition:
    """Group the objects that agree on every named condition attribute.

    Two objects share a granule iff their value tokens are equal for each
    attribute in `attributes`. Requesting more attributes never merges
    granules, only splits them.
    """
    requested = set(attributes)
    if not requested:
        raise ValueError("at least one attribute name is required")
    unknown = tuple(sorted(requested - set(ds.condition_names)))
    if unknown:
        raise UnknownAttributeError(unknown)
    selected = [a for a in ds.condition_attributes if a.name in requested]
    groups: dict[tuple[str, ...], list[int]] = {}
    for x in ds.object_ids:
        key = tuple(a.values[x] for a in selected)
        groups.setdefault(key, []).append(x)
    return Partition(tuple(frozenset(g) for g in groups.values()))


def decision_partition(ds: DecisionSystem) -> Partition:
    """Partition the objects by decision value: the decision classes."""
    groups: dict[str, list[int]] = {}
    for x in ds.object_ids:
        groups.setdefault(ds.decision_attribute.values[x], []).append(x)
    return Partition(tuple(frozenset(g) for g in groups.values()))


def lower_approximation(p: Partition, members: Iterable[int]) -> ObjectSet:
    """Union of the blocks of `p` contained in the given object set."""
    target = frozenset(members)
    _require_members(p, target)
    return frozenset().union(*(block for block in p.blocks if block <= target))


def upper_approximation(p: Partition, members: Iterable[int]) -> ObjectSet:
    """Union of the blocks of `p` that intersect the given object set."""
    target = frozenset(members)
    _require_members(p, target)
    return frozenset().union(*(block for block in p.blocks if block & target))


def is_definable(p: Partition, members: Iterable[int]) -> bool:
    """True iff the set is a union of blocks (its own lower approximation)."""
    target = frozenset(members)
    return lower_approximation(p, target) == target


def deterministic_region(p: Partition, decisions: Partition) -> ObjectSet:
    """Union of the granules whose members all share one decision class.

    A granule lies in the region exactly when its frequency vector against
    the decision classes has a single non-zero entry; the region equals the
    union of the lower approximations of all decision classes.
    """
    _require_same_universe(p, decisions)
    class_of = decisions.block_index
    return frozenset().union(
        *(block for block in p.blocks if len({class_of[x] for x in block}) == 1)
    )
