"""Erasure coding substrate.

The paper stores values with an ``[n, k]`` linear MDS code over a finite
field (Section 2, "Background on Erasure coding"): a value ``v`` is split
into ``k`` elements, encoded into ``n`` coded elements of size ``|v|/k``
each, and any ``k`` coded elements suffice to reconstruct ``v``.

This package implements that substrate from scratch:

* :mod:`repro.erasure.gf256` -- arithmetic over GF(2^8): scalar log/antilog
  operations and the one bulk kernel, ``gf_combine``.
* :mod:`repro.erasure.matrix` -- matrix operations (multiply, invert) over GF(2^8).
* :mod:`repro.erasure.rs` -- a systematic Reed-Solomon ``[n, k]`` MDS code.
* :mod:`repro.erasure.replication` -- replication expressed as the degenerate
  ``[n, 1]`` code, so ABD-style configurations use the same interface.
* :mod:`repro.erasure.striping` -- the padding rule for cutting a value into
  ``k`` equal shards.
"""

from repro.erasure.interface import ErasureCode, CodedElement
from repro.erasure.rs import ReedSolomonCode
from repro.erasure.replication import ReplicationCode

__all__ = [
    "ErasureCode",
    "CodedElement",
    "ReedSolomonCode",
    "ReplicationCode",
]
