"""Multi-tenant federation: a sharded, batching scheduler service.

The paper negotiates one tree at a time; the federation serves *many*
concurrent applications (tenants) from one long-lived service, the
ROADMAP's "millions of users" shape.  Two mechanisms carry the load:

* **sharding** (:mod:`~repro.federation.ring`,
  :mod:`~repro.federation.shard`) — tenant trees are partitioned across
  worker processes by a consistent hash of the tenant id, each shard
  owning an :class:`~repro.core.incremental.IncrementalSolver` per tenant;
* **batching** (:mod:`~repro.federation.service`) — mutations to the same
  tenant arriving within a batch window coalesce into one root-path
  re-fingerprint and one incremental solve, and each flush sends one
  framed request per shard regardless of how many tenants it touches.

Shards share nothing across processes.  BW-First settles each subtree
from local state alone, so each tenant's own solver cache already answers
every clean subtree; a cross-process solution store was measured to cost
more round-trip time than the evaluations it saved (``docs/perf.md``).

Requests and replies reuse the runtime codec's length+CRC32 framing over
``multiprocessing`` pipes, crashes of a shard worker are detected,
respawned and the pending batch retried from the service's authoritative
tenant state.  ``repro federate serve|bench`` is the CLI surface;
``benchmarks/bench_e32_federation.py`` gates exactness, deterministic
evals and throughput against the N-isolated-solvers baseline.
"""

from .ring import HashRing
from .service import FederationService, matches_reference

__all__ = [
    "HashRing",
    "FederationService",
    "matches_reference",
]
