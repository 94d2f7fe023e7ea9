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

A decision system stores each attribute as one column of tokens aligned
with its object ids in ascending order, whether the attributes came from
CSV ingestion or from hand-built dicts; `Attribute.values` stays a
Mapping from id to token, for an ingested table a read-only view of its
column. A partition is built from labels: one pass over the objects in
ascending id order numbers each distinct key by its first occurrence, so
a block's label is its rank by smallest member, which is the canonical
block order, and the blocks need no sorting. A partition keeps those
labels beside its universe, the ascending ids it was built from (the
decision system's own tuple), and the granule frequency matrix is
counted from the granule and class labels of the objects. A partition
keeps each block once, as the ascending tuple of its members; the
blocks as frozensets (`Partition.blocks`) and the map from object to
block (`Partition.block_index`) are built only when read. Nothing on the
analysis path, the writers and the verifier included, reads either: the
verifier gathers the granules each class meets from the labels
(`_granules_met`, shared with `deterministic_region`), and only the
per-element oracles in `oracle.py` read the map.

All types are immutable after construction and all operations are pure
functions, so values can be shared freely.
"""

from __future__ import annotations

import functools
import gc
from collections import defaultdict, deque
from collections.abc import Callable, Hashable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import chain, compress, count, filterfalse, islice
from operator import eq, lt
from typing import ParamSpec, TypeVar

from .errors import (
    DegenerateDecisionError,
    UniverseMismatchError,
    UnknownAttributeError,
    _listed,
    _require_types,
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

_P = ParamSpec("_P")
_R = TypeVar("_R")


def _collector_paused(fn: Callable[_P, _R]) -> Callable[_P, _R]:
    """Run `fn` with the cyclic garbage collector paused, then restore it.

    The entries that build or walk O(n) containers (CSV ingestion, the
    analysis, text rendering, and the report load and save) create
    hundreds of thousands of long-lived, acyclic lists, tuples, sets and
    dicts. Every full collection while they run walks all of them again
    and frees nothing, so they run paused: the objects are examined once,
    by the first collection after the pause. The collector's prior state
    is restored on return and on raise, and a collector the caller had
    disabled stays disabled, so paused entries nest. The pause is
    process-wide while `fn` runs: another thread's cyclic garbage waits
    for it, and a classifier callable handed to the analysis runs paused.
    """

    @functools.wraps(fn)
    def paused(*args: _P.args, **kwargs: _P.kwargs) -> _R:
        collecting = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if collecting:
                gc.enable()

    return paused


@dataclass(frozen=True)
class Attribute:
    """A named, total map from object ids to value tokens."""

    name: str
    values: Mapping[int, str]


class _Column(Mapping[int, str]):
    """Read-only id -> token view of a column: `tokens[i]` belongs to `ids[i]`.

    Iteration and length read the column; lookups go through the id-keyed
    dict, built on first use, so the view answers `[]`, `get`, `in`, `==`
    and `repr` exactly as that dict does, hash-equal keys such as True for
    1 included. A decision system whose ascending ids are `ids` takes the
    tokens as they are.
    """

    __slots__ = ("ids", "tokens", "_by_id")

    def __init__(self, ids: tuple[int, ...], tokens: tuple[str, ...]) -> None:
        self.ids, self.tokens = ids, tokens
        self._by_id: dict[int, str] | None = None

    def _dict(self) -> dict[int, str]:
        if self._by_id is None:
            self._by_id = dict(zip(self.ids, self.tokens))
        return self._by_id

    def __getitem__(self, x: int) -> str:
        return self._dict()[x]

    def __iter__(self) -> Iterator[int]:
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __repr__(self) -> str:
        return repr(self._dict())


@dataclass(frozen=True)
class DecisionSystem:
    """Objects, their condition attributes, and one decision attribute.

    Object ids are arbitrary distinct ints, and any other id type, bool
    included, raises TypeError; CSV ingestion numbers rows 1..n. Every
    attribute must provide a value for every object, and the decision
    attribute must take at least two distinct values. The
    constructor keeps each attribute as a column of tokens aligned with
    the ids in ascending order, the order partitions visit the objects in;
    ids that already ascend are kept as they are, not copied.
    """

    object_ids: tuple[int, ...]
    condition_attributes: tuple[Attribute, ...]
    decision_attribute: Attribute
    _ids: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _columns: Mapping[str, tuple[str, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "object_ids", tuple(self.object_ids))
        object.__setattr__(
            self, "condition_attributes", tuple(self.condition_attributes)
        )
        if not self.object_ids:
            raise ValueError("a decision system needs at least one object")
        # a report saves and loads int ids only (1.0 and True are equal to 1);
        # ids that may not sort are refused first, bools once ids are unique
        ids = self.object_ids
        wrong = set(map(type, ids)) - {int}
        if wrong - {bool}:
            _require_types(("object ids", {int}, ids))
        # distinct ids ascend once sorted, so uniqueness needs no set
        if not all(map(lt, ids, islice(ids, 1, None))):
            ids = tuple(sorted(ids))
            if any(map(eq, ids, islice(ids, 1, None))):
                raise ValueError("object ids must be unique")
        if wrong:
            _require_types(("object ids", {int}, ids))
        names = [a.name for a in self.condition_attributes]
        names.append(self.decision_attribute.name)
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique")
        columns = {}
        universe = None
        for attribute in (*self.condition_attributes, self.decision_attribute):
            values = attribute.values
            if isinstance(values, _Column) and values.ids == ids:
                columns[attribute.name] = values.tokens
                continue
            if universe is None:
                universe = frozenset(ids)
            if values.keys() != universe:
                raise ValueError(
                    f"attribute {attribute.name!r} must map exactly the object ids"
                )
            columns[attribute.name] = tuple(map(values.__getitem__, ids))
        if len(set(columns[self.decision_attribute.name])) < 2:
            raise DegenerateDecisionError(
                f"decision attribute {self.decision_attribute.name!r} takes a single "
                "value; at least two decision classes are required"
            )
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_columns", columns)

    @property
    def n(self) -> int:
        return len(self.object_ids)

    @property
    def universe(self) -> ObjectSet:
        return frozenset(self.object_ids)

    @property
    def condition_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.condition_attributes)


@dataclass(frozen=True, init=False, repr=False)
class Partition:
    """Pairwise disjoint, nonempty blocks in canonical order.

    Blocks are sorted by their smallest member on construction, so every
    matrix and report derived from a partition is reproducible byte for
    byte regardless of how the blocks were supplied. Each block is stored
    once, as the ascending tuple of its members (`_members`); `blocks`,
    the same blocks as frozensets, is built on first read. Beside the
    blocks a partition keeps its universe as an ascending tuple (`_ids`)
    and the 0-based index of each object's block, aligned with it
    (`_labels`); the granule frequency matrix is counted from two
    partitions' labels, and the verifier reads the same labels.
    `block_index`, the map from object to block index, is built from them
    on first read; only the per-element oracles read it. Two partitions
    are equal when their member tuples are.
    """

    _members: tuple[tuple[int, ...], ...]
    _ids: tuple[int, ...] = field(compare=False)
    _labels: list[int] = field(compare=False)

    def __init__(self, blocks: Iterable[Iterable[int]]) -> None:
        # each block's set lives only while its member tuple is made;
        # disjoint blocks differ in their first, smallest member
        members = tuple(sorted(map(tuple, map(sorted, map(set, blocks)))))
        if not members:
            raise ValueError("a partition needs at least one block")
        if not all(members):
            raise ValueError("partition blocks must be nonempty")
        index = {x: i for i, block in enumerate(members) for x in block}
        if sum(map(len, members)) != len(index):
            raise ValueError("partition blocks must be pairwise disjoint")
        ids = tuple(sorted(index))
        object.__setattr__(self, "_members", members)
        object.__setattr__(self, "_ids", ids)
        object.__setattr__(self, "_labels", list(map(index.__getitem__, ids)))

    @classmethod
    def _from_labels(cls, ids: tuple[int, ...], keys: Iterable[Hashable]) -> Partition:
        """One block per distinct key, holding the ids paired with that key.

        The ids must ascend; the partition keeps them as its `_ids`. Each
        key is labelled by its first occurrence, so the labels already
        number the blocks in canonical order: the blocks are filled by
        label and neither sorted nor checked.
        """
        label = defaultdict(count().__next__)
        labels = list(map(label.__getitem__, keys))
        groups: list[list[int]] = [[] for _ in range(len(label))]
        # the keys, one per block, are not needed while the blocks are filled
        del label
        deque(map(list.append, map(groups.__getitem__, labels), ids), maxlen=0)
        p = object.__new__(cls)
        object.__setattr__(p, "_members", tuple(map(tuple, groups)))
        object.__setattr__(p, "_ids", ids)
        object.__setattr__(p, "_labels", labels)
        return p

    @functools.cached_property
    def blocks(self) -> tuple[ObjectSet, ...]:
        return tuple(map(frozenset, self._members))

    @functools.cached_property
    def block_index(self) -> Mapping[int, int]:
        """Each object's 0-based block index in canonical order."""
        return dict(zip(self._ids, self._labels))

    def __repr__(self) -> str:
        return f"Partition(blocks={self.blocks!r})"

    def __len__(self) -> int:
        return len(self._members)

    @property
    def universe(self) -> ObjectSet:
        return frozenset(self._ids)


def _require_members(p: Partition, members: ObjectSet) -> None:
    foreign = members.difference(p._ids)
    if foreign:
        listed = _listed(sorted(foreign))
        raise UniverseMismatchError(f"object id(s) outside the universe: {listed}")


def _require_same_universe(p: Partition, q: Partition) -> None:
    if p._ids != q._ids:
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
    columns = map(ds._columns.__getitem__, requested)
    return Partition._from_labels(ds._ids, zip(*columns))


def decision_partition(ds: DecisionSystem) -> Partition:
    """Partition the objects by decision value: the decision classes."""
    return Partition._from_labels(ds._ids, ds._columns[ds.decision_attribute.name])


def lower_approximation(p: Partition, members: Iterable[int]) -> ObjectSet:
    """Union of the blocks of `p` contained in the given object set."""
    target = frozenset(members)
    _require_members(p, target)
    return frozenset().union(*filter(target.issuperset, p._members))


def upper_approximation(p: Partition, members: Iterable[int]) -> ObjectSet:
    """Union of the blocks of `p` that intersect the given object set."""
    target = frozenset(members)
    _require_members(p, target)
    return frozenset().union(*filterfalse(target.isdisjoint, p._members))


def is_definable(p: Partition, members: Iterable[int]) -> bool:
    """True iff the set is a union of blocks (its own lower approximation)."""
    target = frozenset(members)
    return lower_approximation(p, target) == target


def _granules_met(p: Partition, decisions: Partition) -> tuple[list[set[int]], list[int]]:
    """For each decision class, the labels of the granules it meets, and for
    each granule, the number of classes that meet it.

    One pass over the aligned labels of one universe fills k sets; the
    per-granule counts are a flat list, so nothing m-sized holds a set.
    """
    met: list[set[int]] = [set() for _ in decisions._members]
    deque(map(set.add, map(met.__getitem__, decisions._labels), p._labels), maxlen=0)
    meets = [0] * len(p._members)
    for g in chain.from_iterable(met):
        meets[g] += 1
    return met, meets


def deterministic_region(p: Partition, decisions: Partition) -> ObjectSet:
    """Union of the granules whose members all share one decision class.

    A granule lies in the region exactly when its frequency vector against
    the decision classes has a single non-zero entry; the region equals the
    union of the lower approximations of all decision classes.
    """
    _require_same_universe(p, decisions)
    meets = _granules_met(p, decisions)[1]
    return frozenset().union(*compress(p._members, map((1).__eq__, meets)))
