"""The substrate: processes, FIFO links, wireless channels and the transports that carry them.

The paper's mechanisms only exchange messages over FIFO links, so the
substrate is pluggable (:mod:`repro.net.transport`): a deterministic
discrete-event simulator (the default), real localhost asyncio sockets, or a
multi-process broker cluster.  Each backend owns its clock, which a network
exposes as ``network.sim``; ``SystemConfig.transport`` names the backend.

Only the names the examples use are re-exported here; everything else is
imported from its defining module.
"""

from .simulator import PeriodicTask

__all__ = ["PeriodicTask"]
