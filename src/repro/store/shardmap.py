"""Deterministic key -> shard assignment and per-object configurations.

The sharded store partitions a flat string keyspace over a fixed set of
*shards*.  Each shard owns a disjoint slice of the server pool, runs one DAP
kind (ABD, LDR or TREAS -- shards of different kinds coexist in one
deployment), and hosts every object whose key hashes onto it.  Assignment is
``crc32(key) mod num_shards``: stable across processes, Python versions and
runs, which is what makes store scenarios seed-deterministic and lets sweep
workers agree with the parent process on placement.

Within a shard every object is an independent ARES register: the shard map
lazily builds one :class:`~repro.config.configuration.Configuration` per key
(identifier ``st<shard>/<key>``) over the shard's servers, registers it in
the shared directory, and caches it so all clients and servers of the
deployment share a single description per object -- exactly the per-object
configuration-sequence modularity the paper's ARES design argues for.

Config epochs
-------------
The map is **versioned**: every mutation -- a shard migrating onto new
servers or a new DAP kind (:meth:`ShardMap.install_shard`), or a key range
rebalanced onto another shard (:meth:`ShardMap.move_keys`) -- advances the
map's *epoch*.  Lookups take an optional ``epoch`` argument: resolving
against a stale epoch raises :class:`StaleEpochError` instead of silently
answering from whatever the map currently holds, and
:meth:`ShardMap.forward` is the explicit convergence path -- it walks the
placement history from the stale epoch to the present and returns the
current :class:`Placement`, so a client that cached an old epoch re-resolves
in one step.  Keys whose register was migrated keep a per-key *entry point*:
the finalized configuration installed by the latest migration, which is
where fresh clients join the key's configuration sequence (joining the
original configuration would also converge via the ARES traversal, just more
slowly -- and not at all once the old servers are retired).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.common.ids import ConfigId, ProcessId
from repro.config.configuration import Configuration, DapKind
from repro.core.directory import ConfigurationDirectory

#: DAP kinds a shard may run (the string forms of :class:`DapKind`).
SHARD_DAP_KINDS: Tuple[str, ...] = tuple(kind.value for kind in DapKind)


class StaleEpochError(ConfigurationError):
    """A lookup named a shard-map epoch older than the current one.

    Carries enough context for the caller to converge: the stale epoch it
    used and the epoch the map is at now.  Clients handle this by calling
    :meth:`ShardMap.forward`, which answers from the current placement and
    tells them the epoch to cache.
    """

    def __init__(self, key: str, epoch: int, current: int) -> None:
        super().__init__(
            f"lookup of key {key!r} used stale shard-map epoch {epoch} "
            f"(current epoch is {current}); re-resolve with ShardMap.forward")
        self.key = key
        self.epoch = epoch
        self.current = current


@dataclass(frozen=True)
class Placement:
    """Where a key lives: its shard index at a given map epoch.

    ``path`` records the chain of shard indices the key occupied from the
    requesting client's stale epoch up to ``epoch`` (inclusive at both
    ends), so forwarding is observable in tests and diagnostics.
    """

    key: str
    shard_index: int
    epoch: int
    path: Tuple[int, ...] = ()


@dataclass(frozen=True)
class ShardSpec:
    """Parameters of one shard.

    Attributes
    ----------
    dap:
        DAP kind the shard runs (``"abd"``, ``"ldr"`` or ``"treas"``).
    num_servers:
        Size of the shard's (disjoint) server slice.
    k:
        Erasure-code dimension for TREAS shards (default ``⌈2n/3⌉``).
    delta:
        TREAS garbage-collection / concurrency parameter δ.
    """

    dap: str = "abd"
    num_servers: int = 5
    k: Optional[int] = None
    delta: int = 4

    def __post_init__(self) -> None:
        if self.dap.lower() not in SHARD_DAP_KINDS:
            raise ConfigurationError(
                f"unknown shard DAP kind {self.dap!r}; supported: "
                f"{', '.join(SHARD_DAP_KINDS)}")
        if self.num_servers < 1:
            raise ConfigurationError("a shard needs at least one server")
        if self.dap.lower() == "ldr" and self.num_servers < 2:
            # The server slice is split half directories / half replicas; a
            # 1-server LDR shard would have zero directories and fail deep
            # in the DAP layer on the first operation.
            raise ConfigurationError(
                "an LDR shard needs at least 2 servers "
                "(half directories, half replicas)")


class Shard:
    """One shard: a DAP kind plus a server slice hosting many objects.

    Per-object configurations are created lazily on first access to a key
    and registered in the deployment's shared directory, so servers resolve
    them from incoming message config ids without any extra coordination.
    A shard's spec and server slice can be *replaced* by a live migration
    (:meth:`install`); already-materialised objects keep their existing
    configurations (the migration reconfigures each of them through ARES),
    while keys materialised afterwards start directly on the new slice.
    """

    def __init__(self, index: int, spec: ShardSpec, servers: Sequence[ProcessId],
                 directory: ConfigurationDirectory) -> None:
        if len(servers) != spec.num_servers:
            raise ConfigurationError(
                f"shard {index} expects {spec.num_servers} servers, got {len(servers)}")
        self.index = index
        self.spec = spec
        self.servers: Tuple[ProcessId, ...] = tuple(servers)
        #: How many times this shard's spec/servers were replaced by a
        #: migration; part of fresh config ids so they never collide with
        #: pre-migration ones.
        self.generation = 0
        self._directory = directory
        self._configurations: Dict[str, Configuration] = {}
        self._keys_by_cfg: Dict[ConfigId, str] = {}

    @property
    def dap(self) -> str:
        """The shard's DAP kind string."""
        return self.spec.dap.lower()

    def install(self, spec: ShardSpec, servers: Sequence[ProcessId]) -> None:
        """Replace the shard's spec and server slice (a completed migration)."""
        if len(servers) != spec.num_servers:
            raise ConfigurationError(
                f"shard {self.index} migration expects {spec.num_servers} "
                f"servers, got {len(servers)}")
        self.spec = spec
        self.servers = tuple(servers)
        self.generation += 1

    def build_configuration(self, cfg_id: ConfigId,
                            servers: Optional[Sequence[ProcessId]] = None) -> Configuration:
        """A configuration with this shard's DAP parameters over ``servers``.

        Defaults to the shard's current server slice; migrations pass the
        target slice explicitly.  The configuration is *not* registered or
        cached -- callers decide whether it becomes a lazy per-key base
        (:meth:`configuration_for`) or a migration proposal.
        """
        return Configuration.of_kind(
            self.dap, cfg_id, self.servers if servers is None else servers,
            k=self.spec.k, delta=self.spec.delta)

    def configuration_for(self, key: str) -> Configuration:
        """The (lazily created, shared) configuration of object ``key``."""
        configuration = self._configurations.get(key)
        if configuration is not None:
            return configuration
        suffix = "" if self.generation == 0 else f"@g{self.generation}"
        cfg_id = ConfigId(name=f"st{self.index}/{key}{suffix}")
        configuration = self.build_configuration(cfg_id)
        self._directory.register(configuration)
        self._configurations[key] = configuration
        self._keys_by_cfg[cfg_id] = key
        return configuration

    def existing_configuration(self, key: str) -> Optional[Configuration]:
        """The already-materialised configuration of ``key``, if any."""
        return self._configurations.get(key)

    def key_of(self, cfg_id: ConfigId) -> Optional[str]:
        """The object key behind one of this shard's configuration ids."""
        return self._keys_by_cfg.get(cfg_id)

    def keys(self) -> List[str]:
        """Keys with a materialised configuration, in creation order."""
        return list(self._configurations)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<Shard {self.index} dap={self.dap} "
                f"servers={len(self.servers)} objects={len(self._configurations)}>")


class ShardMap:
    """The store's placement function: key -> shard -> configuration.

    One instance is shared by every client and server of a
    :class:`~repro.store.deployment.StoreDeployment`; it owns the per-shard
    :class:`Shard` objects and answers both directions of the mapping
    (key to servers/configuration, configuration id back to key).

    The map is versioned by :attr:`epoch` (see the module docstring):
    mutations go through :meth:`install_shard` / :meth:`move_keys`, lookups
    against a stale epoch raise :class:`StaleEpochError`, and
    :meth:`forward` is the explicit convergence path.
    """

    def __init__(self, shards: Sequence[Shard]) -> None:
        if not shards:
            raise ConfigurationError("a shard map needs at least one shard")
        self.shards: Tuple[Shard, ...] = tuple(shards)
        #: Per-epoch placement overrides: ``_overrides[e]`` maps keys whose
        #: placement differs from the hash assignment at epoch ``e``.
        self._overrides: List[Dict[str, int]] = [{}]
        #: Finalized entry-point configuration per migrated key: where fresh
        #: clients join the key's configuration sequence.
        self._entry_points: Dict[str, Configuration] = {}
        #: Migration-created configuration ids back to their object keys.
        self._migrated_cfg_keys: Dict[ConfigId, str] = {}

    # ------------------------------------------------------------ epoch state
    @property
    def epoch(self) -> int:
        """The current configuration epoch (0 until the first mutation)."""
        return len(self._overrides) - 1

    def _check_epoch(self, key: str, epoch: Optional[int]) -> None:
        if epoch is None:
            return
        current = self.epoch
        if epoch == current:
            return
        if 0 <= epoch < current:
            raise StaleEpochError(key, epoch, current)
        raise ConfigurationError(
            f"lookup of key {key!r} used unknown shard-map epoch {epoch} "
            f"(current epoch is {current})")

    def _shard_index_at(self, key: str, epoch: int) -> int:
        override = self._overrides[epoch].get(key)
        if override is not None:
            return override
        return shard_index_for(key, len(self.shards))

    # ------------------------------------------------------------- mutations
    def install_shard(self, shard_index: int, spec: ShardSpec,
                      servers: Sequence[ProcessId]) -> int:
        """Replace a shard's spec/servers and advance the epoch; returns it.

        Called by the shard reconfigurer *before* it starts the per-key ARES
        reconfigurations, so keys materialised during the migration already
        land on the target slice.
        """
        self.shards[shard_index].install(spec, servers)
        self._overrides.append(dict(self._overrides[-1]))
        return self.epoch

    def move_keys(self, keys: Sequence[str], target_index: int) -> int:
        """Re-place ``keys`` onto shard ``target_index``; returns the new epoch.

        Only the placement changes here; migrating the data of
        already-materialised keys is the reconfigurer's job (the new epoch
        is taken first so fresh keys of the moved range materialise directly
        on the target shard).
        """
        if not 0 <= target_index < len(self.shards):
            raise ConfigurationError(
                f"cannot move keys to shard {target_index}: the map has "
                f"{len(self.shards)} shards")
        if not keys:
            raise ConfigurationError("move_keys needs at least one key")
        overrides = dict(self._overrides[-1])
        for key in keys:
            overrides[key] = target_index
        self._overrides.append(overrides)
        return self.epoch

    def install_entry_point(self, key: str, configuration: Configuration) -> None:
        """Record the finalized configuration a migration installed for ``key``.

        Fresh clients join the key's configuration sequence here instead of
        at the original (possibly retired) configuration; the id is also
        indexed so :meth:`key_of` resolves migration-created configurations.
        """
        self._entry_points[key] = configuration
        self._migrated_cfg_keys[configuration.cfg_id] = key

    # --------------------------------------------------------------- lookups
    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return len(self.shards)

    def shard_index(self, key: str, epoch: Optional[int] = None) -> int:
        """The shard index ``key`` is placed on.

        ``epoch=None`` answers authoritatively from the current epoch;
        passing a cached epoch asserts freshness and raises
        :class:`StaleEpochError` when the map has moved on.
        """
        self._check_epoch(key, epoch)
        return self._shard_index_at(key, self.epoch)

    def shard_for(self, key: str, epoch: Optional[int] = None) -> Shard:
        """The :class:`Shard` hosting ``key``."""
        return self.shards[self.shard_index(key, epoch)]

    def configuration_for(self, key: str, epoch: Optional[int] = None) -> Configuration:
        """The configuration where clients join object ``key``'s sequence.

        Resolution order: the latest migration's entry point; else the
        key's already-materialised configuration wherever it lives -- a key
        whose *placement* moved keeps its existing register until the
        rebalance finalizes, otherwise a fresh client would join a
        brand-new empty register on the target shard and read the initial
        value; else the current shard's lazily created base configuration.
        Stale-epoch lookups raise :class:`StaleEpochError` (see
        :meth:`forward`).
        """
        self._check_epoch(key, epoch)
        entry = self._entry_points.get(key)
        if entry is not None:
            return entry
        for shard in self.shards:
            existing = shard.existing_configuration(key)
            if existing is not None:
                return existing
        return self.shard_for(key).configuration_for(key)

    def forward(self, key: str, epoch: int) -> Placement:
        """Explicit convergence for a client that cached a stale ``epoch``.

        Walks the placement history from ``epoch`` to the current epoch and
        returns the authoritative :class:`Placement` (with the traversed
        shard chain in ``path``).  Raises for unknown epochs.
        """
        current = self.epoch
        if not 0 <= epoch <= current:
            raise ConfigurationError(
                f"cannot forward key {key!r} from unknown epoch {epoch} "
                f"(current epoch is {current})")
        path = tuple(self._shard_index_at(key, e) for e in range(epoch, current + 1))
        return Placement(key=key, shard_index=path[-1], epoch=current, path=path)

    def servers_for_key(self, key: str, epoch: Optional[int] = None) -> List[ProcessId]:
        """The server processes storing object ``key``.

        The latest migration's entry-point servers when the key was
        migrated, else the hosting shard's current slice.
        """
        self._check_epoch(key, epoch)
        entry = self._entry_points.get(key)
        if entry is not None:
            return list(entry.servers)
        for shard in self.shards:
            existing = shard.existing_configuration(key)
            if existing is not None:
                return list(existing.servers)
        return list(self.shard_for(key).servers)

    def key_of(self, cfg_id: ConfigId) -> Optional[str]:
        """Resolve a store configuration id back to its object key.

        Covers every epoch: ids created lazily by the shards *and* ids
        installed by migrations (an earlier version only consulted the
        shards, so post-migration accounting silently dropped every migrated
        object's bytes).
        """
        key = self._migrated_cfg_keys.get(cfg_id)
        if key is not None:
            return key
        for shard in self.shards:
            key = shard.key_of(cfg_id)
            if key is not None:
                return key
        return None

    def materialised_keys(self) -> List[str]:
        """Every key with protocol state, in first-materialisation order."""
        seen: Dict[str, None] = {}
        for shard in self.shards:
            for key in shard.keys():
                seen.setdefault(key)
        for key in self._entry_points:
            seen.setdefault(key)
        return list(seen)

    def keys_on_shard(self, shard_index: int) -> List[str]:
        """Materialised keys currently placed on shard ``shard_index``."""
        return [key for key in self.materialised_keys()
                if self.shard_index(key) == shard_index]

    def describe(self) -> str:
        """One line per shard: index, DAP, server range, materialised objects."""
        lines = [f"epoch {self.epoch}"] if self.epoch else []
        for shard in self.shards:
            names = ", ".join(pid.name for pid in shard.servers)
            lines.append(f"shard {shard.index} [{shard.dap}] servers=({names}) "
                         f"objects={len(shard.keys())}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kinds = ",".join(shard.dap for shard in self.shards)
        return f"<ShardMap {self.num_shards} shards [{kinds}] epoch={self.epoch}>"


def shard_index_for(key: str, num_shards: int) -> int:
    """The deterministic hash shard index of ``key`` (``crc32 mod num_shards``).

    ``zlib.crc32`` is stable across interpreter runs and platforms (unlike
    ``hash(str)``, which is salted per process), so placement is part of a
    scenario's reproducible identity.  Epoch overrides (rebalanced key
    ranges) are layered on top by :class:`ShardMap`.
    """
    if num_shards <= 0:
        raise ConfigurationError("a shard map needs at least one shard")
    return zlib.crc32(key.encode("utf-8")) % num_shards
