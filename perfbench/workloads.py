"""The benchmark's three workloads: seeded inputs, set-up and client loops.

A workload is split in three so that only client traffic is timed:

* ``inputs(seed)`` derives every key, value and schedule from the seed
  before the program is touched;
* ``setup(inputs)`` builds, boots and connects a fresh cluster and loads
  any data the workload reads but never writes (``setup_s``).  The
  cluster, its latency jitter stream included, is the same for every
  seed, so only the generated inputs differ;
* ``drive(world, inputs, spans)`` issues the client calls (the timed
  region) and returns the program's answers for the oracle.

The simulator is deterministic, so every round of a run replays the
same simulated history; ``run.py`` checks that it does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Optional

from repro.bench.usecase import MicroblogSearchEngine
from repro.core.cluster import SednaCluster
from repro.core.config import SednaConfig
from repro.net.simulator import AllOf
from repro.triggers.runtime import TriggerRuntime
from repro.workloads.kv import ZipfGenerator
from repro.workloads.microblog import Tweet

# One-way propagations on the cheapest path of a call: a zero-hop client
# talks to the replicas itself, a routed call adds the coordinator hop.
ZERO_HOP = 2
ROUTED = 4


@dataclass(slots=True)
class Span:
    """One client call: kind, simulated and wall start/end, outcome."""

    kind: str
    hops: int
    sim_start: float
    sim_end: float
    wall_start: float
    wall_end: float
    failed: bool
    keys: int


class Spans:
    """The spans of one round, kept in memory until the run ends."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.rows: list[Span] = []

    def call(self, kind: str, client, hops: int, gen, keys: int = 1):
        """Run one client call (a generator) and record its span.

        A call failed when the client's own failure counter moved during
        it.  Open-loop calls start at the simulated instant they are due,
        so their spans are timed from when they were due.
        """
        sim_start = self.sim.now
        wall_start = perf_counter()
        failures = client.failures
        result = yield from gen
        self.rows.append(Span(kind, hops, sim_start, self.sim.now,
                              wall_start, perf_counter(),
                              client.failures != failures, keys))
        return result


@dataclass
class World:
    """A booted cluster plus the handles its client loops need."""

    cluster: SednaCluster
    clients: list = field(default_factory=list)
    runtime: Optional[TriggerRuntime] = None
    engine: Optional[MicroblogSearchEngine] = None


def _paper_config(**extra) -> SednaConfig:
    """§VI.A: 512 vnodes, N=3, R=2, W=2."""
    return SednaConfig(num_vnodes=512, replicas=3, read_quorum=2,
                       write_quorum=2, **extra)


def _new_cluster(config: SednaConfig) -> SednaCluster:
    cluster = SednaCluster(n_nodes=9, zk_size=3, config=config)
    cluster.start()
    return cluster


def _token(rng: random.Random, width: int) -> str:
    return f"{rng.randrange(10 ** width):0{width}d}"


# -- paper-loop ----------------------------------------------------------------

class PaperLoop:
    """§VI.A Fig. 7/8: nine zero-hop clients, write_latest then read back.

    Each client owns unique 20-byte ``test-`` keys with 20-byte values;
    no key is touched again after its write and its read-back.
    """

    name = "paper-loop"
    CLIENTS = 9
    KEYS_PER_CLIENT = 700
    wall_kinds = ("write_latest", "read_latest")

    @staticmethod
    def inputs(seed: int) -> list[list[tuple[str, str]]]:
        rng = random.Random(f"perfbench/paper-loop/{seed}")
        seen: set[str] = set()
        out = []
        for _ in range(PaperLoop.CLIENTS):
            rows = []
            while len(rows) < PaperLoop.KEYS_PER_CLIENT:
                key = "test-" + _token(rng, 15)
                if key not in seen:
                    seen.add(key)
                    rows.append((key, "v" + _token(rng, 19)))
            out.append(rows)
        return out

    @staticmethod
    def setup(inputs) -> World:
        cluster = _new_cluster(_paper_config())
        clients = [cluster.smart_client(f"bench{i}")
                   for i in range(PaperLoop.CLIENTS)]
        cluster.run_all([client.connect() for client in clients])
        return World(cluster, clients)

    @staticmethod
    def drive(world: World, inputs, spans: Spans) -> list:
        def loop(client, rows):
            statuses, values = [], []
            for key, value in rows:
                statuses.append((yield from spans.call(
                    "write_latest", client, ZERO_HOP,
                    client.write_latest(key, value))))
            for key, _value in rows:
                values.append((yield from spans.call(
                    "read_latest", client, ZERO_HOP,
                    client.read_latest(key))))
            return statuses, values

        return world.cluster.run_all(
            [loop(c, rows) for c, rows in zip(world.clients, inputs)])


# -- routed-mixed ----------------------------------------------------------------

@dataclass
class MixedInputs:
    hot: dict[str, str]                         # shared read-only set
    ops: list[list[tuple[str, Any]]]            # per client, then reader


class RoutedMixed:
    """Coordinator-routed clients over per-client Zipf keyspaces, WAL on.

    Each mixing client interleaves single-key, 16-key batch and causal
    calls plus a few deletes over keyspaces of its own, and each waits
    for every reply, so the oracle is the client's own history.  Beside
    them, reader clients read a small shared hot set that no client
    writes: it is loaded during set-up, so its values are known, and
    concurrent reads of one hot key meet at one coordinator and coalesce.
    """

    name = "routed-mixed"
    CLIENTS = 4         # mixing clients
    READERS = 4         # clients that read the shared hot set only
    KEYS = 256          # write_latest keyspace per client
    CAUSAL_KEYS = 64    # write_causal keyspace per client (kept apart)
    HOT_KEYS = 16       # shared read-only keys
    HOT_READS = 500     # read_latest calls per reader
    THETA = 0.99
    BATCH = 16
    VALUE_BYTES = 32
    # Calls per client per round, interleaved in a seeded order.
    MIX = {"read_latest": 330, "write_latest": 250, "multi_read": 170,
           "multi_write": 80, "read_causal": 140, "write_causal": 110,
           "delete": 20}
    wall_kinds = tuple(MIX)

    @staticmethod
    def key(client: int, rank: int) -> str:
        return f"mix{client}-key{rank:06d}"

    @staticmethod
    def causal_key(client: int, rank: int) -> str:
        return f"mix{client}-dvv{rank:06d}"

    @staticmethod
    def hot_key(rank: int) -> str:
        return f"hot-key{rank:06d}"

    @staticmethod
    def inputs(seed: int) -> MixedInputs:
        cls = RoutedMixed
        stream = f"perfbench/routed-mixed/{seed}"
        rng = random.Random(f"{stream}/hot")
        hot = {cls.hot_key(rank): "hot." + _token(rng, cls.VALUE_BYTES - 4)
               for rank in range(cls.HOT_KEYS)}
        out = []
        for c in range(cls.CLIENTS):
            rng = random.Random(f"{stream}/{c}")
            zipf = ZipfGenerator(cls.KEYS, cls.THETA, f"{stream}/{c}/keys")
            czipf = ZipfGenerator(cls.CAUSAL_KEYS, cls.THETA,
                                  f"{stream}/{c}/causal")
            kinds = []
            for kind, count in cls.MIX.items():
                kinds.extend([kind] * count)
            rng.shuffle(kinds)
            serial = 0

            def value() -> str:
                nonlocal serial
                serial += 1
                head = f"c{c}.{serial:06d}."
                return head + _token(rng, cls.VALUE_BYTES - len(head))

            def batch() -> list[str]:
                keys: list[str] = []
                while len(keys) < cls.BATCH:
                    key = cls.key(c, zipf.sample())
                    if key not in keys:
                        keys.append(key)
                return keys

            ops: list[tuple[str, Any]] = []
            for kind in kinds:
                if kind == "read_latest" or kind == "delete":
                    ops.append((kind, cls.key(c, zipf.sample())))
                elif kind == "write_latest":
                    ops.append((kind, (cls.key(c, zipf.sample()), value())))
                elif kind == "multi_read":
                    ops.append((kind, tuple(batch())))
                elif kind == "multi_write":
                    ops.append((kind, {k: value() for k in batch()}))
                elif kind == "read_causal":
                    ops.append((kind, cls.causal_key(c, czipf.sample())))
                else:
                    ops.append((kind, (cls.causal_key(c, czipf.sample()),
                                       value())))
            out.append(ops)
        for r in range(cls.READERS):
            hzipf = ZipfGenerator(cls.HOT_KEYS, cls.THETA, f"{stream}/hot{r}")
            out.append([("read_latest", cls.hot_key(hzipf.sample()))
                        for _ in range(cls.HOT_READS)])
        return MixedInputs(hot, out)

    @staticmethod
    def setup(inputs: MixedInputs) -> World:
        cluster = _new_cluster(_paper_config(persistence="wal"))
        clients = [cluster.client(f"mix{i}")
                   for i in range(RoutedMixed.CLIENTS)]
        # The readers enter through one node, as a herd behind one front
        # end would, so their reads of one hot key meet there.
        clients += [cluster.client(f"reader{i}", pinned=cluster.node_names[0])
                    for i in range(RoutedMixed.READERS)]
        acks = cluster.run(cluster.client("loader").multi_write(inputs.hot))
        if set(acks.values()) != {"ok"}:
            raise RuntimeError(f"loading the shared hot set failed: {acks}")
        return World(cluster, clients)

    @staticmethod
    def drive(world: World, inputs, spans: Spans) -> list:
        def loop(client, ops):
            contexts: dict[str, Any] = {}
            results = []
            for kind, arg in ops:
                if kind == "read_latest":
                    call = client.read_latest(arg)
                elif kind == "write_latest":
                    call = client.write_latest(*arg)
                elif kind == "multi_read":
                    call = client.multi_read(arg)
                elif kind == "multi_write":
                    call = client.multi_write(arg)
                elif kind == "delete":
                    call = client.delete(arg)
                elif kind == "read_causal":
                    call = client.read_causal(arg)
                else:
                    key, value = arg
                    call = client.write_causal(key, value,
                                               context=contexts.get(key))
                keys = len(arg) if kind.startswith("multi") else 1
                result = yield from spans.call(kind, client, ROUTED, call,
                                               keys=keys)
                if kind == "write_causal" and result.ok:
                    contexts[arg[0]] = result.context
                results.append(result)
            return results

        return world.cluster.run_all(
            [loop(c, ops) for c, ops in zip(world.clients, inputs.ops)])


# -- microblog-realtime -----------------------------------------------------------

@dataclass
class MicroblogInputs:
    tweets: list[Tweet]
    follows: list[tuple[float, str, str]]       # (offset, follower, followee)
    searches: list[tuple[float, str]]           # (offset, term)
    race: list[Tweet]


class _TimedClient:
    """Stands in for the engine's client so each API call leaves a span."""

    def __init__(self, client, spans: Spans) -> None:
        self.client = client
        self.spans = spans

    def _call(self, kind: str, gen):
        return self.spans.call(kind, self.client, ROUTED, gen)

    def read_latest(self, key, **where):
        return self._call("read_latest", self.client.read_latest(key, **where))

    def write_latest(self, key, value, **where):
        return self._call("write_latest",
                          self.client.write_latest(key, value, **where))

    def write_all(self, key, value, **where):
        return self._call("write_all",
                          self.client.write_all(key, value, **where))


class MicroblogRealtime:
    """§V search engine: open-loop crawl, follows and searches on 9 nodes.

    Tweets (``write_all``) arrive at a fixed simulated rate, follow edges
    (``write_latest``) and searches on fixed schedules.  Each tweet's
    freshness runs from when its crawl was due until the first index read
    that finds it.

    The indexer and the rank job each write their rows with last-write-
    wins timestamps taken when each write is issued, so two activations
    that touch one row at once can leave the older value on top.  The
    stream draws its terms and retweets freely, so how often that shows
    depends on the seed; a fixed ``race`` pair, crawled before the
    stream, shows it in every run.  The checks count every tweet, so
    this workload fails them until that fault is mended.
    """

    name = "microblog-realtime"
    TWEETS = 1100
    RATE = 100.0              # tweets per simulated second
    FOLLOW_EVERY = 4          # one follow edge per this many tweets
    SEARCH_PERIOD = 0.05      # simulated seconds between searches
    SEARCH_LIMIT = 5
    PROBE_PERIOD = 0.01
    PROBE_DEADLINE = 5.0
    RACE_DEADLINE = 2.0
    SETTLE = 1.0
    USERS = 300
    VOCABULARY = 50
    TERMS = (3, 6)            # words per tweet, inclusive
    RETWEET_SHARE = 0.2
    RETWEET_WINDOW = 500
    POSTING_CAP = 200         # the indexer keeps the last 200 ids
    wall_kinds = ("write_all", "write_latest", "search")
    DATASET = MicroblogSearchEngine.DATASET

    @staticmethod
    def term(i: int) -> str:
        return f"term{i:03d}"

    @staticmethod
    def inputs(seed: int) -> MicroblogInputs:
        cls = MicroblogRealtime
        stream = f"perfbench/microblog-realtime/{seed}"
        rng = random.Random(stream)
        authors = ZipfGenerator(cls.USERS, 0.99, f"{stream}/authors")
        followees = ZipfGenerator(cls.USERS, 0.99, f"{stream}/followees")
        vocab = [cls.term(i) for i in range(cls.VOCABULARY)]
        tweets: list[Tweet] = []
        for i in range(cls.TWEETS):
            words = rng.sample(vocab, rng.randint(*cls.TERMS))
            retweet_of = None
            if tweets and rng.random() < cls.RETWEET_SHARE:
                retweet_of = rng.choice(
                    tweets[-cls.RETWEET_WINDOW:]).tweet_id
            tweets.append(Tweet(tweet_id=f"tw{i:09d}",
                                author=f"user{authors.sample():05d}",
                                text=" ".join(words), timestamp=i / cls.RATE,
                                retweet_of=retweet_of))
        span = cls.TWEETS / cls.RATE
        follows = []
        for j in range(cls.TWEETS // cls.FOLLOW_EVERY):
            follower = rng.randrange(cls.USERS)
            followee = followees.sample()
            if followee == follower:
                followee = (followee + 1) % cls.USERS
            follows.append((j * cls.FOLLOW_EVERY / cls.RATE + 0.5 / cls.RATE,
                            f"user{follower:05d}", f"user{followee:05d}"))
        postings: dict[str, int] = {}
        for tweet in tweets:
            for w in tweet.text.split():
                postings[w] = postings.get(w, 0) + 1
        if max(postings.values()) > cls.POSTING_CAP:
            # Past the cap the kept ids depend on activation order, which
            # the oracle cannot know.
            raise ValueError("a term outgrows the indexer's posting cap")
        searches = [(k * cls.SEARCH_PERIOD, rng.choice(vocab))
                    for k in range(int(span / cls.SEARCH_PERIOD))]
        # Two tweets crawled at one instant whose activations overlap on
        # one term; the same for every seed (see the class docstring).
        race = [Tweet("race-a", "user00000", "raceshared", 0.0),
                Tweet("race-b", "user00001",
                      "raceb1 raceb2 raceb3 raceshared", 0.0)]
        return MicroblogInputs(tweets, follows, searches, race)

    @staticmethod
    def setup(inputs) -> World:
        cluster = _new_cluster(_paper_config())
        runtime = TriggerRuntime(cluster)
        runtime.start()
        engine = MicroblogSearchEngine(cluster, runtime)
        return World(cluster, [], runtime, engine)

    @staticmethod
    def drive(world: World, inputs: MicroblogInputs, spans: Spans) -> dict:
        cls = MicroblogRealtime
        sim = world.cluster.sim
        engine = world.engine
        raw = engine.client
        engine.client = _TimedClient(raw, spans)
        out: dict[str, Any] = {"crawl": {}, "follow": [], "searches": [],
                               "freshness": {}, "race": {}}

        def freshness(tweet: Tweet, due: float, deadline: float, into: dict):
            term = tweet.text.split()[0]
            while sim.now < due + deadline:
                postings = yield from spans.call(
                    "probe", raw, ROUTED,
                    raw.read_latest(term, table="index", dataset=cls.DATASET))
                if postings and tweet.tweet_id in postings:
                    into[tweet.tweet_id] = sim.now - due
                    return
                yield sim.timeout(cls.PROBE_PERIOD)

        def crawl(tweet: Tweet, due: float, deadline: float, into: dict):
            yield sim.timeout(due - sim.now)
            out["crawl"][tweet.tweet_id] = yield from engine.crawl_tweet(tweet)
            yield from freshness(tweet, due, deadline, into)

        def follow(due: float, follower: str, followee: str):
            yield sim.timeout(due - sim.now)
            out["follow"].append(
                (yield from engine.crawl_follow(follower, followee)))

        def search(due: float, term: str):
            yield sim.timeout(due - sim.now)
            hits = yield from spans.call(
                "search", raw, ROUTED,
                engine.search(term, limit=cls.SEARCH_LIMIT), keys=0)
            out["searches"].append((term, [tweet_id for tweet_id, _ in hits]))

        def run(procs) -> None:
            sim.run(until=AllOf(sim, [sim.process(p) for p in procs]))

        try:
            now = sim.now
            run([crawl(t, now, cls.RACE_DEADLINE, out["race"])
                 for t in inputs.race])
            base = sim.now
            procs = [crawl(t, base + t.timestamp, cls.PROBE_DEADLINE,
                           out["freshness"]) for t in inputs.tweets]
            procs += [follow(base + at, a, b) for at, a, b in inputs.follows]
            procs += [search(base + at, term) for at, term in inputs.searches]
            run(procs)
        finally:
            engine.client = raw
        return out

    @staticmethod
    def read_back(world: World, inputs: MicroblogInputs) -> dict:
        """Let the triggers drain, then read every derived row once.

        Runs after the timed region with its own client, so neither its
        calls nor its time count in any metric.
        """
        cls = MicroblogRealtime
        cluster = world.cluster
        cluster.settle(cls.SETTLE)
        client = cluster.client("verify")
        crawled = inputs.race + inputs.tweets
        terms = sorted({w for t in crawled for w in t.text.split()})
        originals = sorted({t.retweet_of for t in inputs.tweets
                            if t.retweet_of})
        followers = sorted({a for _at, a, _b in inputs.follows})

        def read_all():
            rows: dict[str, dict] = {"index": {}, "rank": {}, "graph": {}}
            for table, keys in (("index", terms), ("rank", originals),
                                ("graph", followers)):
                for key in keys:
                    rows[table][key] = yield from client.read_latest(
                        key, table=table, dataset=cls.DATASET)
            return rows

        return cluster.run(read_all())


WORKLOADS = {w.name: w for w in (PaperLoop, RoutedMixed, MicroblogRealtime)}
