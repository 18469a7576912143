"""The RSP server: the service half of Figure 2.

Only server-side code lives here.  The end-to-end experiment drivers that
wire the world, the clients, and this server together moved to
:mod:`repro.orchestration` — the service layer itself never imports client
or sensing code (``repro lint`` rule ``layer-service-client``).

:class:`RSPServer` is the one-shard deployment of
:class:`repro.scale.server.ShardedRSPServer`, which in turn builds on
:mod:`repro.service.intake` and :mod:`repro.service.incremental`.  The
server names are therefore resolved on first access rather than at
import: importing :mod:`repro.scale.server` runs this file first, before
the class :class:`RSPServer` derives from exists.
"""

from repro.core.protocol import AnonymousRecord, Envelope

__all__ = [
    "AnonymousRecord",
    "Envelope",
    "ExplicitReview",
    "MaintenanceReport",
    "RSPServer",
]

_SERVER_NAMES = ("ExplicitReview", "MaintenanceReport", "RSPServer")


def __getattr__(name: str):
    if name in _SERVER_NAMES:
        from repro.service import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
