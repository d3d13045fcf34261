"""The store server: one process hosting many per-object DAP states.

A :class:`StoreServer` is an :class:`~repro.core.server.AresServer` -- the
dispatch machinery (read-config / write-config / Paxos / DAP) is identical
-- whose DAP-state dictionary is populated with **per-object** states: every
object of every shard this server belongs to gets its own lazily created
state, keyed by the object's configuration id (``st<shard>/<key>``).  One
simulated process therefore serves arbitrarily many registers, which is what
lets a deployment multiplex a whole keyspace over a fixed server pool.

The subclass only adds the key-indexed accounting (which objects are hosted,
bytes stored per object) used by hot-shard diagnostics and benchmarks.
"""

from __future__ import annotations

from typing import Dict, List

from repro.common.ids import ProcessId
from repro.core.directory import ConfigurationDirectory
from repro.core.server import AresServer
from repro.net.network import Network
from repro.store.shardmap import ShardMap


class StoreServer(AresServer):
    """A server process hosting the DAP states of many named objects.

    Parameters
    ----------
    pid, network, directory:
        As for :class:`~repro.core.server.AresServer`; the directory is the
        deployment-wide one the shard map registers per-object
        configurations in.
    shard_map:
        The deployment's shard map, used to translate configuration ids
        back to object keys for the accounting helpers.
    """

    def __init__(self, pid: ProcessId, network: Network,
                 directory: ConfigurationDirectory,
                 shard_map: ShardMap) -> None:
        super().__init__(pid, network, directory)
        self.shard_map = shard_map

    # ------------------------------------------------------------ accounting
    def hosted_keys(self) -> List[str]:
        """Object keys this server currently holds DAP state for."""
        keys = []
        for cfg_id in self.dap_states:
            key = self.shard_map.key_of(cfg_id)
            if key is not None:
                keys.append(key)
        return keys

    def storage_by_key(self) -> Dict[str, int]:
        """Object-data bytes stored at this server, per object key."""
        totals: Dict[str, int] = {}
        for cfg_id, state in self.dap_states.items():
            key = self.shard_map.key_of(cfg_id)
            if key is not None:
                totals[key] = totals.get(key, 0) + state.storage_data_bytes()
        return totals
