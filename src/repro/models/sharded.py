"""Partitioned probabilistic databases.

:class:`ShardedDatabase` splits a tuple-independent or block-independent
(BID) database into ``shard_count`` shards -- by stable key hash or by score
range -- with BID blocks always kept intact inside one shard.  Because
distinct keys are independent in both models, each shard is itself a valid
database of the same model.  A shard's state is columnar: a
:class:`~repro.sharding.summary.ShardLayout` built straight from its
partition units (keys, probabilities and scores in score order, block ids,
one prefix table per truncation).  Exact global answers are recovered by the
:class:`~repro.sharding.ShardedQuerySession` coordinator, which convolves
the shards' partial rank generating functions; a shard's and/xor tree and
:class:`~repro.session.QuerySession` are built from its units only when a
tree consumer (general-model fallbacks, world sampling, clustering, the
brute-force oracle) asks for them.

Shards are the unit of cache invalidation: :meth:`ShardedDatabase.\
update_tuple` / :meth:`ShardedDatabase.update_block` derive the owning
shard's next columns from its current ones -- a probability change copies
the columns and replaces one entry, and the prefix tables are later swept
forward only from the changed row -- then bump its version and notify
subscribers (the serving layer's invalidation fan-out); the other shards'
columns and tables stay warm.
"""

from __future__ import annotations

import threading
import zlib
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.tuples import TupleAlternative
from repro.exceptions import ModelError, ProbabilityError
from repro.models.bid import BlockIndependentDatabase
from repro.models.tuple_independent import TupleIndependentDatabase
from repro.session import CacheInfo, QuerySession
from repro.sharding.summary import ShardLayout, ShardRankSummary

SourceDatabase = Union[TupleIndependentDatabase, BlockIndependentDatabase]
#: A partition unit: one independent tuple or one intact BID block.
#: ("independent", key, value, score, probability) or
#: ("block", key, [(value, score, probability), ...]).
_Unit = Tuple[Any, ...]
Partitioner = Union[str, Callable[[Hashable], int]]


def hash_shard_of(key: Hashable, shard_count: int) -> int:
    """Stable (process-independent) hash partitioning of one tuple key."""
    return zlib.crc32(repr(key).encode("utf-8")) % shard_count


def build_shard_database(
    name: str, index: int, units: Sequence[_Unit]
) -> SourceDatabase:
    """Materialize one shard's database (and tree) from its partition units.

    Only tree consumers need this -- queries read the shard's columns.
    The tuple-independent model is kept when every unit is independent,
    otherwise blocks go through the BID model.
    """
    if all(unit[0] == "independent" for unit in units):
        return TupleIndependentDatabase(
            [
                (key, value, score, probability)
                if score is not None
                else (key, value, probability)
                for _, key, value, score, probability in units
            ],
            name=f"{name}/shard{index}",
        )
    blocks = []
    for unit in units:
        if unit[0] == "independent":
            _, key, value, score, probability = unit
            alternatives = [(value, score, probability)]
        else:
            _, key, alternatives = unit
        blocks.append(
            (
                key,
                [
                    (value, score, probability)
                    if score is not None
                    else (value, probability)
                    for value, score, probability in alternatives
                ],
            )
        )
    return BlockIndependentDatabase(blocks, name=f"{name}/shard{index}")


class _ShardSession(QuerySession):
    """A shard's tree session whose rank partials are the shard's columns.

    Summaries are computed once per (shard, version, truncation): this
    session hands out the columns' own summaries instead of extracting a
    second copy from its tree, and reports their cache counters with its
    own.
    """

    def __init__(self, state: "_ShardState") -> None:
        super().__init__(state.database().tree)
        self._state = state

    def partial_rank_summary(self, max_rank: Optional[int] = None) -> Any:
        if max_rank is None:
            max_rank = self.number_of_tuples()
        return self._state.layout().summary(max_rank)

    def cache_info(self) -> CacheInfo:
        info = super().cache_info()
        layout = self._state._layout
        return info if layout is None else info + layout.cache_info()


class _ShardState:
    """One generation of a shard: version, partition units and columns.

    A committed update swaps the whole object, so a reader holding one
    sees a version and the columns that belong to it together.  The
    columns are built from the units on first use; the and/xor tree, its
    database and session only when a tree consumer asks for them.
    """

    __slots__ = (
        "name",
        "index",
        "version",
        "units",
        "_layout",
        "_database",
        "_session",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        index: int,
        version: int,
        units: List[_Unit],
        layout: Optional[ShardLayout] = None,
    ) -> None:
        self.name = name
        self.index = index
        self.version = version
        self.units = units
        self._layout = layout
        self._database: Optional[SourceDatabase] = None
        self._session: Optional[_ShardSession] = None
        self._lock = threading.Lock()

    def layout(self) -> Optional[ShardLayout]:
        """The shard's columns (None for an empty shard)."""
        if self._layout is None and self.units:
            with self._lock:
                if self._layout is None:
                    self._layout = ShardLayout.from_units(self.units)
        return self._layout

    def successor(
        self, units: List[_Unit], layout: Optional[ShardLayout]
    ) -> "_ShardState":
        """The next generation, resuming this one's prefix tables."""
        if layout is not None and self._layout is not None:
            layout.adopt_tables(self._layout)
        return _ShardState(
            self.name, self.index, self.version + 1, units, layout
        )

    def database(self) -> Optional[SourceDatabase]:
        if self._database is None and self.units:
            with self._lock:
                if self._database is None:
                    self._database = build_shard_database(
                        self.name, self.index, self.units
                    )
        return self._database

    def session(self) -> Optional[QuerySession]:
        if self._session is None and self.units:
            session = _ShardSession(self)
            with self._lock:
                if self._session is None:
                    self._session = session
        return self._session

    def alternatives_of(self, key: Hashable) -> List[TupleAlternative]:
        return self.session().tree.alternatives_of(key)

    def score_of(self, alternative: TupleAlternative) -> float:
        return alternative.effective_score()

    def layout_kind(self) -> str:
        """``tuple-independent`` or ``bid``, read structurally off the units.

        What :func:`~repro.query.planner.layout_of_tree` says of the
        shard's tree, without building it (or needing scores).
        """
        for unit in self.units:
            if unit[0] == "block" and len(unit[2]) > 1:
                return "bid"
        return "tuple-independent"

    def cache_info(self) -> Optional[CacheInfo]:
        """Counters of whatever this generation built (None if nothing)."""
        if self._session is not None:
            return self._session.cache_info()
        if self._layout is not None:
            return self._layout.cache_info()
        return None


class DatabaseShard:
    """One shard of a :class:`ShardedDatabase`: its current generation."""

    __slots__ = ("index", "_state", "_owner")

    def __init__(
        self, owner: "ShardedDatabase", index: int, units: List[_Unit]
    ) -> None:
        self._owner = owner
        self.index = index
        self._state = _ShardState(owner.name, index, 0, units)

    @property
    def version(self) -> int:
        return self._state.version

    @property
    def is_empty(self) -> bool:
        return not self._state.units

    @property
    def units(self) -> List[_Unit]:
        """The shard's (picklable) partition units, as assigned."""
        return list(self._state.units)

    def keys(self) -> List[Hashable]:
        return [unit[1] for unit in self._state.units]

    def layout(self) -> Optional[ShardLayout]:
        """The shard's columns (None for an empty shard)."""
        return self._state.layout()

    @property
    def database(self) -> Optional[SourceDatabase]:
        """The shard's own database, built from its units on first use."""
        return self._state.database()

    def session(self) -> Optional[QuerySession]:
        """The shard's tree-backed query session, built on first use."""
        return self._state.session()

    @property
    def _session(self) -> Optional[QuerySession]:
        return self._state._session

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DatabaseShard(index={self.index}, "
            f"tuples={len(self._state.units)}, version={self.version})"
        )


class LocalShards:
    """The in-process shard provider: summaries off the parent's columns.

    Same interface as :class:`~repro.sharding.procpool.ShardProcessPool`,
    the provider of ``executor="processes"``, so the coordinator and the
    serving executor read shards through one path whichever executor runs
    them.
    """

    def __init__(self, database: "ShardedDatabase") -> None:
        self._database = database

    def summaries_with_tokens(
        self, max_rank: int
    ) -> List[Tuple[int, ShardRankSummary, Tuple[int, int]]]:
        """``(shard_index, summary, (version, 0))`` per non-empty shard.

        Version and columns come from one shard generation, so the token
        identifies the summary's content.
        """
        rows = []
        for shard in self._database.shards():
            state = shard._state
            layout = state.layout()
            if layout is not None:
                rows.append(
                    (shard.index, layout.summary(max_rank), (state.version, 0))
                )
        return rows

    def prefetch(self, truncations: Sequence[int]) -> None:
        """Build every shard's summaries for a batch's truncations."""
        for max_rank in sorted(set(truncations)):
            self.summaries_with_tokens(max_rank)

    def cached_summaries(
        self, shard_index: int, version: int
    ) -> Dict[int, ShardRankSummary]:
        """Nothing to hand over: an archived generation keeps its columns,
        and the summaries memoized on them."""
        return {}


class StaleUpdateError(ModelError):
    """Raised by :meth:`ShardedDatabase.apply_update` when the shard moved on.

    The pending update was prepared against an older shard version; callers
    should re-prepare against the current state and retry.
    """


class PendingUpdate:
    """A prepared shard update, not yet applied.

    Carries the owning shard's replacement units and the replacement
    columns derived from its current ones (a probability change copies the
    columns and replaces one entry).  :meth:`ShardedDatabase.apply_update`
    swaps both in together with the version bump; the prefix tables are
    re-swept lazily, from the first changed row, when a query next asks.
    """

    __slots__ = (
        "shard_index",
        "key",
        "units",
        "layout",
        "base_version",
        "removed_scores",
        "added_scores",
        "remote_ticket",
    )

    def __init__(
        self,
        shard_index: int,
        key: Hashable,
        units: List[_Unit],
        layout: ShardLayout,
        base_version: int,
        removed_scores: Tuple[float, ...] = (),
        added_scores: Tuple[float, ...] = (),
        remote_ticket: Optional[int] = None,
    ) -> None:
        self.shard_index = shard_index
        self.key = key
        self.units = units
        self.layout = layout
        self.base_version = base_version
        # Distinct-score registry delta, applied (and re-validated) only by
        # apply_update: an abandoned prepared update must leave the
        # registry untouched.
        self.removed_scores = removed_scores
        self.added_scores = added_scores
        # Ticket of the same columns staged on the owning worker process
        # (executor="processes" only): committed or aborted by
        # apply_update in lockstep with the parent-side version check.
        self.remote_ticket = remote_ticket


class ShardedDatabase:
    """A probabilistic database partitioned into independently-cached shards.

    Parameters
    ----------
    source:
        A :class:`TupleIndependentDatabase`, a
        :class:`BlockIndependentDatabase` (blocks are kept intact), or an
        iterable of tuple-independent ``(key, value, probability)`` /
        ``(key, value, score, probability)`` specs.
    shard_count:
        Number of shards (>= 1; shards may end up empty).
    partitioner:
        ``"hash"`` (stable key hash), ``"range"`` (contiguous chunks of the
        score-sorted units, i.e. score-range partitioning) or a callable
        mapping a tuple key to a shard index.
    validate_scores:
        Require globally distinct scores across shards (checked lazily by
        the coordinator, eagerly on score updates).
    executor:
        ``"threads"`` (default) keeps every shard session in-process;
        ``"processes"`` moves each non-empty shard into its own worker
        process (:class:`~repro.sharding.procpool.ShardProcessPool`),
        escaping the GIL for the per-shard kernels.  Answers are identical
        either way; prefer processes for large shards (n >= 10^4) on the
        numpy backend.
    executor_options:
        Keyword arguments forwarded to the process pool constructor
        (``start_method``, ``shm``, ``shm_min_bytes``,
        ``request_timeout``); ignored under ``executor="threads"``.
    snapshot_history:
        How many superseded shard versions the coordinator archives for
        version-pinned snapshot readers (:meth:`snapshot`,
        ``coordinator().at(...)``); older pins raise
        :class:`~repro.exceptions.SnapshotTooOldError`.
    """

    def __init__(
        self,
        source: Union[SourceDatabase, Iterable[Tuple]],
        shard_count: int,
        partitioner: Partitioner = "hash",
        name: Optional[str] = None,
        validate_scores: bool = True,
        executor: str = "threads",
        executor_options: Optional[Dict[str, Any]] = None,
        snapshot_history: int = 4,
    ) -> None:
        if shard_count < 1:
            raise ModelError(f"shard_count must be >= 1, got {shard_count}")
        if executor not in ("threads", "processes"):
            raise ModelError(
                f"executor must be 'threads' or 'processes', got {executor!r}"
            )
        self._shard_count = shard_count
        self._validate_scores = validate_scores
        self._executor = executor
        self._executor_options = dict(executor_options or {})
        self._snapshot_history = max(1, int(snapshot_history))
        self._apply_lock = threading.Lock()
        self._pool: Optional[Any] = None
        self._partitioner_name = (
            partitioner if isinstance(partitioner, str) else "custom"
        )
        units = _extract_units(source)
        self._name = name or getattr(source, "name", "sharded")
        self._shard_of: Dict[Hashable, int] = {}
        self._subscribers: List[Callable[[int, Hashable], None]] = []
        self._coordinator: Optional[Any] = None
        self._provider: Optional[LocalShards] = None
        assignments = self._assign(units, partitioner)
        per_shard: List[List[_Unit]] = [[] for _ in range(shard_count)]
        for unit, shard_index in zip(units, assignments):
            per_shard[shard_index].append(unit)
            self._shard_of[unit[1]] = shard_index
        self._shards: List[DatabaseShard] = [
            DatabaseShard(self, index, shard_units)
            for index, shard_units in enumerate(per_shard)
        ]
        if validate_scores:
            self._check_distinct_scores(units)

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def _assign(
        self, units: Sequence[_Unit], partitioner: Partitioner
    ) -> List[int]:
        if callable(partitioner):
            return [
                self._checked_index(partitioner(unit[1])) for unit in units
            ]
        if partitioner == "hash":
            return [
                hash_shard_of(unit[1], self._shard_count) for unit in units
            ]
        if partitioner == "range":
            order = sorted(
                range(len(units)),
                key=lambda position: -_unit_best_score(units[position]),
            )
            assignments = [0] * len(units)
            chunk = -(-len(units) // self._shard_count) if units else 1
            for rank, position in enumerate(order):
                assignments[position] = min(
                    rank // chunk, self._shard_count - 1
                )
            return assignments
        raise ModelError(
            f"unknown partitioner {partitioner!r}; expected 'hash', "
            "'range' or a callable"
        )

    def _checked_index(self, index: int) -> int:
        if not 0 <= index < self._shard_count:
            raise ModelError(
                f"partitioner returned shard {index} outside "
                f"0..{self._shard_count - 1}"
            )
        return index

    def _check_distinct_scores(self, units: Sequence[_Unit]) -> None:
        self._score_owner: Dict[float, Hashable] = {}
        for unit in units:
            for score in _unit_scores(unit):
                owner = self._score_owner.get(score)
                if owner is not None and owner != unit[1]:
                    raise ModelError(
                        f"tuples {owner!r} and {unit[1]!r} share score "
                        f"{score}; ranking assumes distinct scores"
                    )
                self._score_owner[score] = unit[1]

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def shard_count(self) -> int:
        return self._shard_count

    @property
    def partitioner(self) -> str:
        return self._partitioner_name

    @property
    def executor(self) -> str:
        """``"threads"`` or ``"processes"`` -- the shard execution mode."""
        return self._executor

    def process_pool(self) -> Any:
        """The started :class:`~repro.sharding.procpool.ShardProcessPool`.

        Created (and started) lazily on first use; a pool that was closed
        -- e.g. after a worker crash -- is replaced by a fresh one with
        newly spawned workers.  Only valid under ``executor="processes"``.
        """
        if self._executor != "processes":
            raise ModelError(
                "process_pool() requires executor='processes' "
                f"(this database uses {self._executor!r})"
            )
        if self._pool is None or self._pool.closed:
            from repro.sharding.procpool import ShardProcessPool

            self._pool = ShardProcessPool(self, **self._executor_options)
            self._pool.start()
        return self._pool

    def shard_provider(self) -> Any:
        """Where the coordinator reads shard columns and summaries from.

        The started :meth:`process_pool` under ``executor="processes"``,
        otherwise the in-process :class:`LocalShards`; both expose
        ``summaries_with_tokens()``, ``prefetch()`` and
        ``cached_summaries()``.
        """
        if self._executor == "processes":
            return self.process_pool()
        if self._provider is None:
            self._provider = LocalShards(self)
        return self._provider

    def close(self) -> None:
        """Release the worker processes, if any (idempotent)."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ShardedDatabase":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def shards(self) -> List[DatabaseShard]:
        return list(self._shards)

    def shard_of(self, key: Hashable) -> int:
        """Index of the shard owning a tuple key."""
        try:
            return self._shard_of[key]
        except KeyError:
            raise ModelError(f"unknown tuple key {key!r}") from None

    def keys(self) -> List[Hashable]:
        return list(self._shard_of)

    def __len__(self) -> int:
        return len(self._shard_of)

    def sessions(self) -> List[QuerySession]:
        """The query sessions of every non-empty shard."""
        out = []
        for shard in self._shards:
            session = shard.session()
            if session is not None:
                out.append(session)
        return out

    def versions(self) -> Tuple[int, ...]:
        """Per-shard version counters (bumped by every update)."""
        return tuple(shard.version for shard in self._shards)

    def coordinator(self) -> Any:
        """The cross-shard :class:`~repro.sharding.ShardedQuerySession`.

        Created once and cached; the coordinator reads at the current
        shard versions, so it stays valid across updates (each version
        vector's merged artifacts are built lazily, in their own entry).
        """
        if self._coordinator is None:
            from repro.sharding.coordinator import ShardedQuerySession

            self._coordinator = ShardedQuerySession(
                self,
                validate_scores=self._validate_scores,
                snapshot_history=self._snapshot_history,
            )
        return self._coordinator

    def snapshot(self) -> "DatabaseSnapshot":
        """A handle pinning the current shard-version vector (MVCC read).

        The returned :class:`DatabaseSnapshot` resolves version-pinned
        reader sessions via ``coordinator().at(versions)``: queries through
        it answer exactly as the database did at pin time, unaffected by
        concurrent updates, until the vector leaves the coordinator's
        bounded snapshot history.
        """
        return DatabaseSnapshot(self, self.versions())

    def cache_info(self) -> CacheInfo:
        """Cache counters rolled up across every shard session.

        A read-only snapshot: shards whose columns were never built are
        reported as zero without building them (or any tree).  Each shard
        contributes its columns' summary counters (``rank_partials``) plus
        its tree session's, if one exists; the coordinator's own
        merged-artifact counters are included when a coordinator exists.
        Per-shard figures are available via ``shard.session().cache_info()``.
        """
        info = CacheInfo()
        for shard in self._shards:
            shard_info = shard._state.cache_info()
            if shard_info is not None:
                info = info + shard_info
        if self._pool is not None and not self._pool.closed:
            # Remote roll-up: worker sessions' counters travel back as
            # picklable CacheInfo and add into the same total.
            info = info + self._pool.cache_info()
        if self._coordinator is not None:
            info = info + self._coordinator.cache_info()
        return info

    # ------------------------------------------------------------------
    # Updates and invalidation fan-out
    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[int, Hashable], None]) -> None:
        """Register an invalidation listener ``callback(shard_index, key)``."""
        self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[int, Hashable], None]) -> None:
        """Detach a listener registered with :meth:`subscribe` (idempotent)."""
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def _notify(self, shard_index: int, key: Hashable) -> None:
        for callback in self._subscribers:
            callback(shard_index, key)

    def prepare_update(
        self,
        key: Hashable,
        probability: Optional[float] = None,
        score: Optional[float] = None,
    ) -> PendingUpdate:
        """Build (but do not apply) a tuple update for ``key``'s shard.

        Only tuple-independent units support in-place probability/score
        updates; use :meth:`prepare_block_update` for BID blocks.
        """
        shard_index = self.shard_of(key)
        # One generation read: version, units and columns belong together,
        # so a concurrent apply can only make the stamp stale (caught by
        # apply_update), never mix two generations.
        state = self._shards[shard_index]._state
        units: List[_Unit] = []
        replacement: Optional[_Unit] = None
        removed: Tuple[float, ...] = ()
        added: Tuple[float, ...] = ()
        for unit in state.units:
            if unit[1] != key:
                units.append(unit)
                continue
            if unit[0] != "independent":
                raise ModelError(
                    f"tuple {key!r} belongs to a BID block; use "
                    "update_block() to replace its alternatives"
                )
            _, _, value, old_score, old_probability = unit
            new_probability = (
                old_probability if probability is None else float(probability)
            )
            if not 0.0 <= new_probability <= 1.0 + 1e-12:
                raise ProbabilityError(
                    f"tuple probability {new_probability} outside [0, 1]"
                )
            new_score = old_score if score is None else float(score)
            if score is not None:
                self._check_score_free(key, (new_score,))
                removed = tuple(_unit_scores(unit))
                added = (new_score,)
                # A score update also moves the value when the value doubles
                # as the score (the common generator layout).
                if old_score is None or value == old_score:
                    value = new_score
            replacement = ("independent", key, value, new_score, new_probability)
            units.append(replacement)
        if replacement is None:
            raise ModelError(f"unknown tuple key {key!r}")
        return self._stage_pending(
            state, key, units, replacement, removed, added
        )

    def prepare_block_update(
        self,
        key: Hashable,
        alternatives: Sequence[Tuple[Hashable, Optional[float], float]],
    ) -> PendingUpdate:
        """Build a BID block replacement: ``(value, score, probability)``s."""
        shard_index = self.shard_of(key)
        state = self._shards[shard_index]._state  # one generation, as above
        block = [
            (value, None if score is None else float(score), float(probability))
            for value, score, probability in alternatives
        ]
        units: List[_Unit] = []
        old_unit: Optional[_Unit] = None
        replacement: Optional[_Unit] = None
        for unit in state.units:
            if unit[1] != key:
                units.append(unit)
                continue
            old_unit = unit
            if unit[0] == "independent":
                if len(block) != 1:
                    raise ModelError(
                        f"tuple {key!r} is tuple-independent; a replacement "
                        "block must hold exactly one alternative"
                    )
                value, score, probability = block[0]
                replacement = ("independent", key, value, score, probability)
            else:
                replacement = ("block", key, block)
            units.append(replacement)
        if old_unit is None or replacement is None:
            raise ModelError(f"unknown tuple key {key!r}")
        removed: Tuple[float, ...] = ()
        added: Tuple[float, ...] = ()
        if self._validate_scores:
            added = tuple(_unit_scores(("block", key, block)))
            self._check_score_free(key, added)
            removed = tuple(_unit_scores(old_unit))
        return self._stage_pending(
            state, key, units, replacement, removed, added
        )

    def _stage_pending(
        self,
        state: "_ShardState",
        key: Hashable,
        units: List[_Unit],
        replacement: _Unit,
        removed: Tuple[float, ...],
        added: Tuple[float, ...],
    ) -> PendingUpdate:
        """Derive the replacement columns of a prepared update.

        Under ``executor="processes"`` the same columns are also staged on
        the owning worker (ticketed); :meth:`apply_update` commits them
        there under the same version check that swaps them in here.
        """
        layout = state.layout().replaced(units, key, replacement)
        ticket = None
        if self._executor == "processes":
            ticket = self.process_pool().prepare_replace(
                state.index, units, layout
            )
        return PendingUpdate(
            state.index,
            key,
            units,
            layout,
            state.version,
            removed,
            added,
            remote_ticket=ticket,
        )

    def _check_score_free(
        self, key: Hashable, scores: Tuple[float, ...]
    ) -> None:
        """Read-only distinct-score validation (no registry mutation)."""
        if not self._validate_scores:
            return
        for score in scores:
            owner = self._score_owner.get(score)
            if owner is not None and owner != key:
                raise ModelError(
                    f"score {score} is already used by tuple {owner!r}; "
                    "ranking assumes distinct scores"
                )

    def apply_update(self, pending: PendingUpdate) -> None:
        """Swap a prepared update's columns in and fan the invalidation out.

        The units, columns and version bump are published as one shard
        generation.  Raises :class:`StaleUpdateError` when the shard's
        version changed after the update was prepared (a concurrent update
        won the race); the caller should re-prepare and retry.
        """
        with self._apply_lock:
            shard = self._shards[pending.shard_index]
            if shard.version != pending.base_version:
                if (
                    pending.remote_ticket is not None
                    and self._pool is not None
                ):
                    # Losing the race must also drop the worker-side staged
                    # columns, or worker and parent would diverge on the
                    # next prepared update that does win.
                    self._pool.abort_replace(
                        pending.shard_index, pending.remote_ticket
                    )
                raise StaleUpdateError(
                    f"shard {pending.shard_index} moved from version "
                    f"{pending.base_version} to {shard.version} since the "
                    "update was prepared; re-prepare and retry"
                )
            # Re-validate and apply the distinct-score delta only now, so an
            # abandoned prepared update (race lost, caller cancelled) leaves
            # the registry untouched, and a concurrent update of another
            # shard that claimed the same score since preparation is caught.
            if self._validate_scores and (
                pending.added_scores or pending.removed_scores
            ):
                self._check_score_free(pending.key, pending.added_scores)
                for score in pending.removed_scores:
                    if self._score_owner.get(score) == pending.key:
                        del self._score_owner[score]
                for score in pending.added_scores:
                    self._score_owner[score] = pending.key
            # Archive the outgoing shard state while it is still live, so
            # readers pinned at the current vector keep resolving it after
            # the swap publishes the new one.
            self._archive_current(shard)
            if pending.remote_ticket is not None:
                # Commit on the worker BEFORE the parent swap: a worker
                # crash here raises and leaves the parent at the old
                # version, so parent and workers never disagree about state.
                self.process_pool().commit_replace(
                    pending.shard_index, pending.remote_ticket
                )
            shard._state = shard._state.successor(
                pending.units, pending.layout
            )
        self._notify(pending.shard_index, pending.key)

    def _archive_current(self, shard: DatabaseShard) -> None:
        """Hand the shard's outgoing state to the coordinator's history."""
        if self._coordinator is not None:
            self._coordinator._archive_shard(shard)

    def update_tuple(
        self,
        key: Hashable,
        probability: Optional[float] = None,
        score: Optional[float] = None,
    ) -> None:
        """Update one independent tuple's probability and/or score.

        Derives only the owning shard's next columns, bumps its version
        (invalidating the coordinator's merged artifacts lazily) and
        notifies subscribers.
        """
        self.apply_update(self.prepare_update(key, probability, score))

    def update_block(
        self,
        key: Hashable,
        alternatives: Sequence[Tuple[Hashable, Optional[float], float]],
    ) -> None:
        """Replace one BID block's alternatives (``(value, score, prob)``)."""
        self.apply_update(self.prepare_block_update(key, alternatives))

    def invalidate_shard(self, index: int) -> None:
        """Force-drop one shard's columns, tables and session; bump its version."""
        shard = self._shards[index]
        with self._apply_lock:
            self._archive_current(shard)
            shard._state = shard._state.successor(shard.units, None)
            if self._pool is not None and not self._pool.closed:
                self._pool.invalidate(index)
        self._notify(index, None)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        sizes = [len(shard._state.units) for shard in self._shards]
        return (
            f"ShardedDatabase({self._name!r}, shards={sizes}, "
            f"partitioner={self._partitioner_name!r})"
        )


class DatabaseSnapshot:
    """A pinned shard-version vector over a :class:`ShardedDatabase`.

    Snapshot handles are cheap (they record only the vector); the actual
    MVCC machinery lives in the coordinator's bounded per-vector artifact
    store and per-shard archive history.  Use :meth:`session` for a
    reader that answers exactly as the database did at pin time.
    """

    __slots__ = ("_database", "_versions")

    def __init__(
        self, database: ShardedDatabase, versions: Tuple[int, ...]
    ) -> None:
        self._database = database
        self._versions = tuple(versions)

    @property
    def versions(self) -> Tuple[int, ...]:
        """The pinned per-shard version vector."""
        return self._versions

    @property
    def is_current(self) -> bool:
        """Whether no shard has been updated since the pin."""
        return self._database.versions() == self._versions

    def session(self) -> Any:
        """A version-pinned reader session (a coordinator drop-in).

        Raises :class:`~repro.exceptions.SnapshotTooOldError` (lazily, at
        query time) once the pinned vector leaves the coordinator's
        bounded snapshot history.
        """
        return self._database.coordinator().at(self._versions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DatabaseSnapshot({self._database.name!r}, "
            f"versions={self._versions}, current={self.is_current})"
        )


# ----------------------------------------------------------------------
# Unit extraction
# ----------------------------------------------------------------------
def _extract_units(
    source: Union[SourceDatabase, Iterable[Tuple]]
) -> List[_Unit]:
    if isinstance(source, TupleIndependentDatabase):
        tree = source.tree
        probabilities = source.tuple_probabilities()
        units: List[_Unit] = []
        for key in tree.keys():
            alternative = tree.alternatives_of(key)[0]
            units.append(
                (
                    "independent",
                    key,
                    alternative.value,
                    alternative.score,
                    probabilities[key],
                )
            )
        return units
    if isinstance(source, BlockIndependentDatabase):
        tree = source.tree
        units = []
        for key in tree.keys():
            alternatives = [
                (
                    alternative.value,
                    alternative.score,
                    tree.alternative_probability(alternative),
                )
                for alternative in tree.alternatives_of(key)
            ]
            units.append(("block", key, alternatives))
        return units
    if isinstance(source, Iterable):
        units = []
        seen: Dict[Hashable, bool] = {}
        for item in source:
            if len(item) == 3:
                key, value, probability = item
                score: Optional[float] = None
            elif len(item) == 4:
                key, value, score, probability = item
            else:
                raise ModelError(
                    "expected (key, value, probability) or "
                    f"(key, value, score, probability), got {item!r}"
                )
            if key in seen:
                raise ModelError(f"duplicate tuple key {key!r}")
            seen[key] = True
            units.append(
                ("independent", key, value, score, float(probability))
            )
        return units
    raise ModelError(
        "expected a TupleIndependentDatabase, BlockIndependentDatabase or "
        f"an iterable of tuple specs, got {type(source).__name__}"
    )


def _unit_scores(unit: _Unit) -> List[float]:
    if unit[0] == "independent":
        _, _, value, score, _ = unit
        effective = score if score is not None else value
        return [effective] if isinstance(effective, (int, float)) else []
    return [
        (score if score is not None else value)
        for value, score, _ in unit[2]
        if isinstance(score if score is not None else value, (int, float))
    ]


def _unit_best_score(unit: _Unit) -> float:
    scores = _unit_scores(unit)
    if not scores:
        raise ModelError(
            f"unit {unit[1]!r} has no numeric score; range partitioning "
            "requires scored tuples"
        )
    return max(scores)
