"""Process and configuration identifiers.

The paper distinguishes four kinds of processes -- writers ``W``, readers
``R``, reconfiguration clients ``G`` and servers ``S`` -- and a countable set
``C`` of configuration identifiers.  Identifiers are small immutable objects
that are totally ordered so they can be embedded in tags and used as
dictionary keys throughout the protocol stack.
"""

from __future__ import annotations

import enum
import weakref
from typing import Any


class Role(enum.Enum):
    """The role a process plays in the emulation."""

    WRITER = "writer"
    READER = "reader"
    RECONFIGURER = "reconfigurer"
    SERVER = "server"
    AUXILIARY = "auxiliary"


class _InternedId:
    """What the two identifier classes share: immutability and ordering.

    Each subclass hands out **one object per key** from a weak-valued intern
    table in ``__new__`` and rebuilds through its constructor on unpickle,
    ``copy`` and ``deepcopy`` (``__reduce__``), so two identifiers are equal
    exactly when they are the same object.  Neither equality nor hashing
    is overridden: both are ``object``'s, and every dict or set probe
    keyed by an identifier -- several per simulated message -- runs
    entirely in C.  The numeric hash is therefore an address and differs
    from run to run; nothing may depend on it (iterate dicts, which keep
    insertion order, or ``sorted()`` sets of identifiers).
    """

    __slots__ = ("__weakref__",)

    def __setattr__(self, name: str, value: Any = None) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __lt__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sort_key < other.sort_key

    def __le__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sort_key <= other.sort_key

    def __gt__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sort_key > other.sort_key

    def __ge__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.sort_key >= other.sort_key

    def __str__(self) -> str:
        return self.name


_PROCESS_IDS: "weakref.WeakValueDictionary[tuple, ProcessId]" = weakref.WeakValueDictionary()
_CONFIG_IDS: "weakref.WeakValueDictionary[str, ConfigId]" = weakref.WeakValueDictionary()


class ProcessId(_InternedId):
    """Globally unique identifier of a process.

    Ordering is (role-name, index) which gives writers a deterministic total
    order; the writer order is what breaks ties between equal integer parts
    of tags (Section 2, "Tags").

    Attributes
    ----------
    role:
        The :class:`Role` the process plays.
    index:
        A small integer distinguishing processes of the same role.
    sort_key:
        ``(role.value, index)``, the ordering key (also embedded in tags).
    name:
        Short human-readable name, e.g. ``writer-0`` or ``server-3``.
    """

    __slots__ = ("role", "index", "sort_key", "name")

    def __new__(cls, role: Role, index: int) -> "ProcessId":
        key = (role, index)
        self = _PROCESS_IDS.get(key)
        if self is None:
            self = object.__new__(cls)
            set_slot = object.__setattr__
            set_slot(self, "role", role)
            set_slot(self, "index", index)
            set_slot(self, "sort_key", (role.value, index))
            set_slot(self, "name", f"{role.value}-{index}")
            _PROCESS_IDS[key] = self    # last: never a half-built identifier
        return self

    def __reduce__(self) -> tuple:
        return ProcessId, (self.role, self.index)

    def __repr__(self) -> str:
        return f"ProcessId(role={self.role!r}, index={self.index!r})"


def writer_id(index: int) -> ProcessId:
    """Return the :class:`ProcessId` of writer ``index``."""
    return ProcessId(role=Role.WRITER, index=index)


def reader_id(index: int) -> ProcessId:
    """Return the :class:`ProcessId` of reader ``index``."""
    return ProcessId(role=Role.READER, index=index)


def reconfigurer_id(index: int) -> ProcessId:
    """Return the :class:`ProcessId` of reconfiguration client ``index``."""
    return ProcessId(role=Role.RECONFIGURER, index=index)


def server_id(index: int) -> ProcessId:
    """Return the :class:`ProcessId` of server ``index``."""
    return ProcessId(role=Role.SERVER, index=index)


class ConfigId(_InternedId):
    """Unique identifier of a configuration (an element of the set ``C``).

    Configuration identifiers need only be unique and hashable; a total order
    (by ``name``) is provided for determinism of data structures, it carries
    no protocol meaning.
    """

    __slots__ = ("name", "sort_key")

    def __new__(cls, name: str) -> "ConfigId":
        self = _CONFIG_IDS.get(name)
        if self is None:
            self = object.__new__(cls)
            object.__setattr__(self, "name", name)
            object.__setattr__(self, "sort_key", name)
            _CONFIG_IDS[name] = self
        return self

    def __reduce__(self) -> tuple:
        return ConfigId, (self.name,)

    def __repr__(self) -> str:
        return f"ConfigId(name={self.name!r})"


def config_id(index: int) -> ConfigId:
    """Return a conventional configuration identifier ``c<index>``."""
    return ConfigId(name=f"c{index}")
