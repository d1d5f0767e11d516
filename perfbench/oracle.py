"""Output checks, each against a result computed apart from the program.

Every check returns ``(name, ok, detail)``.  The expected values come
from the generated inputs alone (a key -> value map, a replayed client
history, an inverted index built here) or from a property the method
must have (the latency floor); never from saved earlier output.
"""

from __future__ import annotations

from typing import Any, Iterable

Check = tuple[str, bool, str]


def _check(name: str, bad: list, total: int) -> Check:
    detail = f"{total - len(bad)}/{total} ok"
    if bad:
        detail += f"; first: {bad[0]}"
    return (name, not bad, detail)


def latency_floor(spans: Iterable, propagation: float) -> Check:
    """No call beats ``hops`` one-way propagations of the latency model."""
    rows = list(spans)
    bad = [(s.kind, s.sim_end - s.sim_start, s.hops) for s in rows
           if s.sim_end - s.sim_start < s.hops * propagation]
    return _check("latency above the model's floor", bad, len(rows))


def paper_loop(inputs, results) -> list[Check]:
    """Every write is ``ok``; every read returns the value written."""
    bad_writes, bad_reads, total = [], [], 0
    for rows, (statuses, values) in zip(inputs, results):
        total += len(rows)
        for (key, value), status, got in zip(rows, statuses, values):
            if status != "ok":
                bad_writes.append((key, status))
            if got != value:
                bad_reads.append((key, value, got))
    return [_check("every write acked ok", bad_writes, total),
            _check("every read returns the value written", bad_reads, total)]


def routed_mixed(inputs, results) -> list[Check]:
    """Replay each client's own history; its keyspace has no other writer.

    Single-key and batch reads return the last acked value (``None``
    after a delete), or the loaded value for a key of the shared
    read-only set; ``read_causal`` returns exactly one sibling, the last
    acked causal write.
    """
    bad_acks, bad_reads, bad_causal = [], [], []
    n_acks = n_reads = n_causal = 0
    for ops, got in zip(inputs.ops, results):
        latest: dict[str, Any] = dict(inputs.hot)
        causal: dict[str, Any] = {}
        for (kind, arg), result in zip(ops, got):
            if kind == "write_latest":
                n_acks += 1
                key, value = arg
                if result == "ok":
                    latest[key] = value
                else:
                    bad_acks.append((kind, key, result))
            elif kind == "multi_write":
                n_acks += 1
                for key, value in arg.items():
                    if result.get(key) == "ok":
                        latest[key] = value
                    else:
                        bad_acks.append((kind, key, result.get(key)))
            elif kind == "delete":
                n_acks += 1
                latest[arg] = None
                if result is not True:
                    bad_acks.append((kind, arg, result))
            elif kind == "write_causal":
                n_acks += 1
                key, value = arg
                if result.ok:
                    causal[key] = value
                else:
                    bad_acks.append((kind, key, result.status))
            elif kind == "read_latest":
                n_reads += 1
                if result != latest.get(arg):
                    bad_reads.append((kind, arg, latest.get(arg), result))
            elif kind == "multi_read":
                n_reads += 1
                want = {key: latest.get(key) for key in arg}
                if result != want:
                    bad_reads.append((kind, arg[0], want, result))
            else:
                n_causal += 1
                want = [causal[arg]] if arg in causal else []
                values = result.values if result is not None else None
                if values != want:
                    bad_causal.append((arg, want, values))
    return [_check("every write, batch write and delete acked", bad_acks,
                   n_acks),
            _check("single-key and batch reads return the last acked value",
                   bad_reads, n_reads),
            _check("read_causal returns exactly the last acked write",
                   bad_causal, n_causal)]


def microblog_expected(inputs, cap: int) -> dict[str, dict]:
    """Index, retweet counts and follow sets built from the stream."""
    index: dict[str, list[str]] = {}
    rank: dict[str, int] = {}
    follows: dict[str, list[str]] = {}
    for tweet in inputs.race + inputs.tweets:
        for term in sorted(set(tweet.text.split())):
            plist = index.setdefault(term, [])
            plist.append(tweet.tweet_id)
            del plist[:-cap]
        if tweet.retweet_of:
            rank[tweet.retweet_of] = rank.get(tweet.retweet_of, 0) + 1
    for _at, follower, followee in inputs.follows:
        follows.setdefault(follower, []).append(followee)
    return {"index": index, "rank": rank, "graph": follows}


def microblog(inputs, results, rows, cap: int) -> list[Check]:
    """The derived tables match the stream; every tweet became searchable.

    Index rows are compared as sets: the indexer appends in activation
    order, which need not be crawl order.  A graph row holds what the
    social-graph job saw, and flow control may coalesce follow events, so
    it must be a subset of the follower's followees holding the last one.
    """
    want = microblog_expected(inputs, cap)
    crawled = inputs.race + inputs.tweets
    tweet_terms = {t.tweet_id: set(t.text.split()) for t in crawled}
    acks = list(results["crawl"].items()) + [
        ("follow", status) for status in results["follow"]]
    bad_acks = [(key, status) for key, status in acks if status != "ok"]
    seeded = [t.tweet_id for t in crawled]
    bad_acks += [(tweet_id, "not crawled") for tweet_id in seeded
                 if tweet_id not in results["crawl"]]

    bad_index = []
    for term, plist in want["index"].items():
        got = rows["index"].get(term) or []
        if len(got) != len(set(got)) or set(got) != set(plist):
            bad_index.append((term, len(plist), len(got)))
    bad_rank = [(orig, count, rows["rank"].get(orig))
                for orig, count in want["rank"].items()
                if rows["rank"].get(orig) != count]
    bad_graph = []
    for follower, followees in want["graph"].items():
        got = rows["graph"].get(follower) or []
        if not (set(got) <= set(followees) and followees[-1] in got):
            bad_graph.append((follower, followees[-1], got))
    bad_search = [(term, tweet_id) for term, hits in results["searches"]
                  for tweet_id in hits
                  if term not in tweet_terms.get(tweet_id, ())]
    missing = [t for t in seeded
               if t not in results["freshness"] and t not in results["race"]]
    n_hits = sum(len(hits) for _term, hits in results["searches"])
    return [
        _check("every crawl and follow write acked ok", bad_acks, len(acks)),
        _check("index rows equal the stream's postings", bad_index,
               len(want["index"])),
        _check("rank rows equal the retweet counts", bad_rank,
               len(want["rank"])),
        _check("graph rows hold only followees and the last one",
               bad_graph, len(want["graph"])),
        _check("search hits contain the searched term", bad_search, n_hits),
        _check("every tweet becomes searchable", missing, len(seeded)),
    ]


def paper_user_bytes(inputs) -> int:
    """Key and value bytes of the data the clients wrote."""
    return sum(len(k) + len(v) for rows in inputs for k, v in rows)


def routed_user_bytes(inputs) -> int:
    """Key and value bytes of the shared set and of the live data each
    history leaves behind."""
    total = sum(len(k) + len(v) for k, v in inputs.hot.items())
    for ops in inputs.ops:
        live: dict[str, Any] = {}
        for kind, arg in ops:
            if kind in ("write_latest", "write_causal"):
                live[arg[0]] = arg[1]
            elif kind == "multi_write":
                live.update(arg)
            elif kind == "delete":
                live.pop(arg, None)
        total += sum(len(k) + len(v) for k, v in live.items())
    return total


def microblog_user_bytes(inputs) -> int:
    """Crawled tweets plus each follower's latest follow edge."""
    total = sum(len(t.tweet_id) + len(t.encoded())
                for t in inputs.tweets + inputs.race)
    last: dict[str, str] = {}
    for _at, follower, followee in inputs.follows:
        last[follower] = followee
    return total + sum(len(a) + len(b) for a, b in last.items())


USER_BYTES = {"paper-loop": paper_user_bytes,
              "routed-mixed": routed_user_bytes,
              "microblog-realtime": microblog_user_bytes}
