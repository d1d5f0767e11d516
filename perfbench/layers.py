"""Per-layer measurements taken from outside the program.

Two sources, neither of which changes code under ``src/``:

* public counters the program already keeps, read before and after the
  timed region (:func:`counters`);
* ``cProfile`` self time summed by module path (:func:`attribute`).
  Built-in functions have no module, and ``fnv1a`` is a storage helper
  that placement also hashes keys with, so their time goes to the layer
  of the function that called them.
"""

from __future__ import annotations

import cProfile
import pstats
from typing import Any

from repro.net.rpc import RpcNode

# Module path under ``repro/`` -> layer.  The first matching prefix wins;
# anything else (the §V application code, the benchmark, the standard
# library) is the unattributed remainder.
LAYERS = (
    ("net/simulator.py", "simulator"),
    ("net/transport.py", "transport"),
    ("net/latency.py", "transport"),
    ("net/rpc.py", "rpc"),
    ("core/client.py", "client"),
    ("core/types.py", "client"),
    ("core/coordinator.py", "coordinator"),
    ("core/hashring.py", "placement"),
    ("core/cache.py", "placement"),
    ("core/", "node"),
    ("storage/", "storage"),
    ("persistence/", "persistence"),
    ("zk/", "zk"),
    ("triggers/", "triggers"),
    ("obs/", "obs"),
)
LAYER_NAMES = tuple(dict.fromkeys(layer for _prefix, layer in LAYERS))
# Functions charged to their caller's layer, besides the built-ins.
BY_CALLER = {("storage/hashtable.py", "fnv1a")}

# Hot functions reported with calls and microseconds per call.
HOT = {"estimate_size": ("net/transport.py", "estimate_size"),
       "fnv1a": ("storage/hashtable.py", "fnv1a"),
       "replicas_for": ("core/hashring.py", "replicas_for"),
       "vnode_of": ("core/hashring.py", "vnode_of")}


def _rpc_nodes(network) -> list[RpcNode]:
    """Every RpcNode on the network, found through its endpoint handler."""
    out = []
    for endpoint in network.endpoints.values():
        owner = getattr(getattr(endpoint, "_handler", None), "__self__", None)
        if isinstance(owner, RpcNode):
            out.append(owner)
    return out


def counters(world) -> dict[str, int]:
    """Cumulative public counters of one cluster (sum over its parts)."""
    cluster = world.cluster
    network = cluster.network
    nodes = list(cluster.nodes.values())
    coordinators = [n.coordinator for n in nodes] + [
        c.coordinator for c in world.clients if hasattr(c, "coordinator")]
    caches = [n.cache for n in nodes] + [
        c.cache for c in world.clients if hasattr(c, "cache")]
    rpcs = _rpc_nodes(network)
    endpoints = list(network.endpoints.values())
    zk = cluster.ensemble.stats()
    runtime = world.runtime
    return {
        "events": cluster.sim.events_scheduled,
        "messages": sum(e.sent_count for e in endpoints),
        "bytes": sum(e.sent_bytes for e in endpoints),
        "rpc_calls": sum(r.calls_issued for r in rpcs),
        "rpc_timeouts": sum(r.calls_timed_out for r in rpcs),
        "reads_coordinated": sum(c.coordinated_reads for c in coordinators),
        "reads_coalesced": sum(c.coalesced_reads for c in coordinators),
        "cache_full_loads": sum(c.full_loads for c in caches),
        "cache_zk_reads": sum(c.vnode_reads for c in caches),
        "replica_ops": sum(n.replica_writes + n.replica_reads for n in nodes),
        "storage_ops": sum(n.store.writes_ok + n.store.writes_outdated
                           + n.store.reads for n in nodes),
        "wal_appends": sum(d.appends for d in cluster.disks.values()),
        "zk_reads": zk["reads_served"],
        "zk_writes": zk["writes_led"],
        "trigger_activations": runtime.activations if runtime else 0,
        "trigger_coalesced": runtime.flow.coalesced if runtime else 0,
        "trigger_rows_scanned": runtime.events_scanned if runtime else 0,
    }


def _size(value: Any) -> int:
    if isinstance(value, (str, bytes)):
        return len(value)
    if isinstance(value, (list, tuple)):
        return sum(_size(v) for v in value)
    return 8


# Version metadata held beside each stored value: source id + timestamp.
VERSION_BYTES = 16


def stored_bytes(cluster) -> int:
    """Key and value bytes held on every node, plus version metadata."""
    total = 0
    for node in cluster.nodes.values():
        store = node.store
        for key, row in store.rows.items():
            total += len(key) + sum(VERSION_BYTES + _size(e.value)
                                    for e in row.elements)
        for key, drow in store.dvv_rows.items():
            total += len(key) + sum(VERSION_BYTES + _size(v)
                                    for v in drow.values())
    return total


def _rel(filename: str) -> str:
    """Path below the ``repro`` package, or '' outside it."""
    path = filename.replace("\\", "/")
    cut = path.rfind("/repro/")
    return path[cut + len("/repro/"):] if cut >= 0 else ""


def _layer(filename: str) -> str:
    rel = _rel(filename)
    for prefix, layer in LAYERS:
        if rel.startswith(prefix):
            return layer
    return "unattributed"


def attribute(profile: cProfile.Profile) -> dict[str, Any]:
    """Self seconds per layer, the profiled total, and hot functions."""
    raw = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    self_s = dict.fromkeys(LAYER_NAMES + ("unattributed",), 0.0)
    total = 0.0
    for (filename, _line, func), (_cc, _nc, tt, _ct, callers) in raw.items():
        total += tt
        if callers and (filename == "~" or (_rel(filename), func) in BY_CALLER):
            for (cfile, _cl, _cf), (_c, _n, ctt, _cct) in callers.items():
                self_s[_layer(cfile)] += ctt
            # Caller entries can miss a sliver of the builtin's own total.
            self_s["unattributed"] += tt - sum(v[2] for v in callers.values())
        else:
            self_s[_layer(filename)] += tt
    hot = {}
    for name, (suffix, func) in HOT.items():
        calls = cum = 0.0
        for (filename, _line, fn), (_cc, nc, _tt, ct, _callers) in raw.items():
            if fn == func and _rel(filename) == suffix:
                calls += nc
                cum += ct
        hot[name] = {"calls": int(calls),
                     "us_per_call": 1e6 * cum / calls if calls else 0.0}
    return {"self_s": self_s, "total_s": total, "hot": hot}
