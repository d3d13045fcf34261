"""ARES: the reconfigurable atomic storage service.

This package contains the paper's main contribution:

* :mod:`repro.core.directory` -- the configuration directory mapping
  configuration identifiers to their full descriptions.
* :mod:`repro.core.server`    -- the ARES server protocol (``nextC`` handling,
  per-configuration DAP state, Paxos acceptors; ``nextC`` rides DAP and
  ``PREPARE`` replies).
* :mod:`repro.core.traversal` -- the sequence traversal of Algorithm 4:
  ``put-config`` and the walk over the ``nextC`` links those replies carry.
* :mod:`repro.core.reconfig`  -- the reconfiguration client (Algorithm 5),
  whose add-config walks on Paxos phase 1 and whose fenced transfer query
  carries the decision to the previous configuration.
* :mod:`repro.core.client`    -- ARES readers and writers (Algorithm 7).
* :mod:`repro.core.ares_treas` -- the reconfigurer of Section 5's direct
  server-to-server state transfer (Algorithm 8; the servers' Algorithm 9 is
  part of :class:`~repro.dap.treas.TreasServerState`).
* :mod:`repro.core.deployment` -- builds complete ARES systems for tests,
  examples and benchmarks.
"""

from repro.core.directory import ConfigurationDirectory
from repro.core.server import AresServer
from repro.core.client import AresClient
from repro.core.reconfig import AresReconfigurer
from repro.core.ares_treas import DirectTransferReconfigurer
from repro.core.deployment import AresDeployment, DeploymentSpec

__all__ = [
    "ConfigurationDirectory",
    "AresServer",
    "AresClient",
    "AresReconfigurer",
    "DirectTransferReconfigurer",
    "AresDeployment",
    "DeploymentSpec",
]
