"""repro: reproduction of "Dealing with Uncertainty in Mobile Publish/Subscribe Middleware".

The package is organised in four layers:

* :mod:`repro.net` — the substrate (processes, FIFO links, wireless
  channels) and its interchangeable transports: the deterministic
  discrete-event simulator, asyncio sockets and a multi-process cluster,
  each owning its clock;
* :mod:`repro.pubsub` — the REBECA-style content-based publish/subscribe
  substrate (notifications, filters, routing, brokers, clients);
* :mod:`repro.core` — the paper's contribution: physical mobility
  (relocation), logical mobility (``myloc`` subscriptions), and extended
  logical mobility (the replicator layer with pre-subscriptions, shadow
  virtual clients and buffering policies);
* :mod:`repro.mobility` and :mod:`repro.experiments` — mobility models,
  workload generators, scenario composition and the experiment harness used
  by the benchmark suite.

The most convenient entry point is :class:`repro.core.middleware.MobilePubSub`;
see ``examples/quickstart.py``.  Importing :mod:`repro` loads none of the
layers: each name is imported from its defining module.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
