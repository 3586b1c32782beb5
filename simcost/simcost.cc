/**
 * @file
 * Simulator-cost benchmark: host time per simulated request.
 *
 * Runs one named workload, single-threaded, through the simulator's
 * public entry points and prints one JSON object on stdout:
 *
 *  - swift_mix     Fig. 12a Swift PUT/GET mix with MD5 etags, once per
 *                  design (dcs-ctrl, sw-opt, sw-p2p);
 *  - loadgen_100k  open-loop 16 KiB GETs from 10^5 clients against the
 *                  dcs-ctrl datapath below its knee;
 *  - rack_ring     8 dcs-ctrl nodes behind one ToR switch on the
 *                  sharded core at 1 thread, 1 MiB objects to the
 *                  right-hand neighbour with SHA-256 on both ends.
 *
 * Without --trace the output holds the end-to-end host costs (set-up,
 * simulation and whole-workload seconds, requests per host second,
 * peak RSS) and a host-speed probe reading taken around the workload.
 * With --trace the workload runs several times in the one
 * process and the output holds per-layer costs: an EventQueue trace
 * hook charges the host time between firings to the label of the
 * firing event, the recorded schedule is replayed through a bare
 * EventQueue, and the payload kernels are timed by direct calls.
 *
 * Every run also prints the workload's fingerprint — events fired,
 * trace digest, simulated goodput and latency — which a change that
 * only speeds up the simulator must leave identical. Host clocks never
 * feed simulated state.
 */

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "baselines/dcs_path.hh"
#include "mem/buffer.hh"
#include "ndp/hash.hh"
#include "net/packet.hh"
#include "sim/event_pool.hh"
#include "sim/event_queue.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "sys/cluster.hh"
#include "workload/dropbox_mix.hh"
#include "workload/experiment.hh"
#include "workload/loadgen.hh"
#include "workload/swift.hh"

using namespace dcs;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

std::string
format(const char *fmt, ...)
{
    char buf[512];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    return buf;
}

// --- Fixed workload inputs -----------------------------------------------

/** Fig. 12a: the Dropbox mix capped at 2 MiB, 5 Gbps offered. */
workload::SwiftParams
swiftParams(workload::Design d, std::uint64_t seed)
{
    workload::SwiftParams p;
    p.offeredGbps = 5.0;
    p.warmup = milliseconds(10);
    p.measure = milliseconds(300);
    p.connections = 32;
    p.mix.sizeBuckets = {{4 * 1024, 0.18},    {16 * 1024, 0.17},
                         {64 * 1024, 0.20},   {256 * 1024, 0.20},
                         {1024 * 1024, 0.15}, {2048 * 1024, 0.10}};
    p.appFixedUs = 200.0;
    p.appPerMbUs = (d == workload::Design::DcsCtrl) ? 700.0 : 1500.0;
    p.seed = seed;
    return p;
}

/** loadgen_bench's dcs-ctrl curve below the knee, admission off. */
constexpr std::uint32_t kBatch = 8;
constexpr Tick kHoldoff = microseconds(50);

workload::LoadGenParams
loadGenParams(std::uint64_t seed)
{
    workload::LoadGenParams p;
    p.clients = 100'000;
    p.offeredRps = 60'000;
    p.requestBytes = 16 * 1024;
    p.connections = 48;
    p.maxBacklog = 256;
    p.requestsPerConn = 64;
    p.rejectBackoff = microseconds(100);
    p.slo = microseconds(1000);
    // A 1 s window keeps tens of thousands of client timers pending.
    p.warmup = milliseconds(100);
    p.measure = milliseconds(900);
    p.seed = seed;
    return p;
}

/** cluster_bench's ring. 16 objects per edge keeps every node at 32
 *  outstanding D2D commands, under the 63-command limit. */
constexpr std::size_t kRingNodes = 8;
constexpr std::size_t kRingFiles = 16;
constexpr std::uint64_t kRingBytes = 1024 * 1024;

// --- Operation accounting ------------------------------------------------

/** Completed transfers and their digests, across a whole workload. */
struct Tally
{
    std::uint64_t calls = 0;
    std::uint64_t completed = 0;
    std::uint64_t badStatus = 0;
    std::uint64_t digestBytes = 0; //!< payload bytes through NDP kernels
    std::map<std::uint64_t, std::uint64_t> sizes; //!< size -> transfers
    /** (is-send, size) -> digest: equal sizes carry equal content. */
    std::map<std::pair<bool, std::uint64_t>, std::vector<std::uint8_t>>
        digestOf;
    std::uint64_t digestMismatches = 0;
};

/**
 * Decorates a DataPath: counts calls and completions, records sizes
 * and checks that every completion carries status 0 and, for an
 * integrity function, the same digest as every other transfer of the
 * same direction and size.
 */
class CheckedPath : public baselines::DataPath
{
  public:
    CheckedPath(baselines::DataPath &inner, Tally &tally)
        : inner(inner), tally(tally)
    {}

    std::string label() const override { return inner.label(); }

    void
    sendFile(int file_fd, int sock_fd, std::uint64_t offset,
             std::uint64_t len, ndp::Function fn,
             std::vector<std::uint8_t> aux, host::TracePtr trace,
             baselines::PathCallback done) override
    {
        ++tally.calls;
        inner.sendFile(file_fd, sock_fd, offset, len, fn, std::move(aux),
                       std::move(trace), wrap(true, len, fn,
                                              std::move(done)));
    }

    void
    receiveToFile(int sock_fd, int file_fd, std::uint64_t offset,
                  std::uint64_t len, ndp::Function fn,
                  std::vector<std::uint8_t> aux, host::TracePtr trace,
                  baselines::PathCallback done) override
    {
        ++tally.calls;
        inner.receiveToFile(sock_fd, file_fd, offset, len, fn,
                            std::move(aux), std::move(trace),
                            wrap(false, len, fn, std::move(done)));
    }

  private:
    baselines::PathCallback
    wrap(bool send, std::uint64_t len, ndp::Function fn,
         baselines::PathCallback done)
    {
        Tally *t = &tally;
        return [t, send, len, fn, done = std::move(done)](
                   const baselines::PathResult &r) {
            ++t->completed;
            ++t->sizes[len];
            if (r.status != 0)
                ++t->badStatus;
            if (fn != ndp::Function::None) {
                t->digestBytes += len;
                auto [it, fresh] =
                    t->digestOf.try_emplace({send, len}, r.digest);
                if (r.digest.empty() || (!fresh && it->second != r.digest))
                    ++t->digestMismatches;
            }
            done(r);
        };
    }

    baselines::DataPath &inner;
    Tally &tally;
};

// --- Trace probe ---------------------------------------------------------

/** One firing as the hook saw it: enough to replay the schedule. */
struct Fire
{
    Tick when;
    std::uint64_t seq;
    std::uint64_t scheduled; //!< EventQueue::scheduled() at the hook
};

/**
 * Observes every queue of a workload. Untimed, it folds each queue's
 * firing stream into a TraceHasher (the fingerprint). Timed, the same
 * hook also charges the host time since the previous firing to the
 * previous event's label and records the schedule for replay.
 */
class Probe
{
  public:
    explicit Probe(bool timed) : timed(timed) { slotOf(""); }
    Probe(const Probe &) = delete;
    Probe &operator=(const Probe &) = delete;

    struct Lane
    {
        EventQueue *eq = nullptr;
        TraceHasher hasher;
        std::vector<Fire> fires;
    };

    void
    attach(EventQueue &eq)
    {
        Lane *lane = &lanes.emplace_back();
        lane->eq = &eq;
        if (!timed) {
            lane->hasher.attach(eq);
            return;
        }
        eq.setTraceHook([this, lane](Tick t, std::uint64_t seq,
                                     std::string_view label) {
            const Clock::time_point now = Clock::now();
            selfNs[cur] += (now - last).count();
            last = now;
            cur = slotOf(label);
            lane->fires.push_back(Fire{t, seq, lane->eq->scheduled()});
            lane->hasher.observe(t, seq, label);
        });
    }

    /** Bracket each simulation phase (host time outside is not charged). */
    void
    begin()
    {
        cur = 0;
        last = Clock::now();
    }

    void
    end()
    {
        selfNs[cur] += (Clock::now() - last).count();
    }

    std::uint64_t
    events() const
    {
        std::uint64_t n = 0;
        for (const Lane &l : lanes)
            n += l.hasher.events();
        return n;
    }

    /** The lanes' digests folded in attach order. */
    std::uint64_t
    digest() const
    {
        std::uint64_t h = 14695981039346656037ull;
        for (const Lane &l : lanes) {
            h ^= l.hasher.digest();
            h *= 1099511628211ull;
        }
        return h;
    }

    const std::deque<Lane> &laneList() const { return lanes; }
    const std::vector<std::string> &labels() const { return names; }
    double selfSeconds(std::size_t slot) const { return selfNs[slot] * 1e-9; }

  private:
    struct Hash
    {
        using is_transparent = void;
        std::size_t
        operator()(std::string_view s) const
        {
            return std::hash<std::string_view>{}(s);
        }
    };

    std::size_t
    slotOf(std::string_view label)
    {
        const auto it = index.find(label);
        if (it != index.end())
            return it->second;
        names.emplace_back(label);
        selfNs.push_back(0);
        index.emplace(names.back(), names.size() - 1);
        return names.size() - 1;
    }

    const bool timed;
    std::deque<Lane> lanes; //!< deque: stable addresses for the hooks
    std::vector<std::string> names;
    std::vector<std::int64_t> selfNs;
    std::unordered_map<std::string, std::size_t, Hash, std::equal_to<>>
        index;
    std::size_t cur = 0;
    Clock::time_point last{};
};

// --- One workload execution ----------------------------------------------

/** Configuration toggles for the paired overhead runs. */
struct Knobs
{
    bool attribution = false;
    bool sharded = true;
};

/** Sum of a registry counter over all groups carrying it. */
std::uint64_t
registrySum(const EventQueue &eq, std::string_view key)
{
    const std::string dump = eq.stats().dumpJsonString();
    std::string pat = "\"";
    pat += key;
    pat += "\":";
    std::uint64_t sum = 0;
    for (std::size_t at = dump.find(pat); at != std::string::npos;
         at = dump.find(pat, at + 1))
        sum += static_cast<std::uint64_t>(
            std::strtod(dump.c_str() + at + pat.size(), nullptr));
    return sum;
}

/** Host-side counters, sampled before and after a simulation phase. */
struct HostCounters
{
    std::uint64_t tlps = 0;
    std::uint64_t spills = 0;
    std::uint64_t bytesCopied = 0;
    std::uint64_t bytesViewed = 0;

    static HostCounters
    sample(const std::vector<EventQueue *> &queues)
    {
        HostCounters c;
        for (const EventQueue *q : queues)
            c.tlps += registrySum(*q, "backplane_tlps");
        c.spills = EventPool::local().allocated();
        const bufstat::Counters &b = bufstat::local();
        c.bytesCopied = b.bytesCopied;
        c.bytesViewed = b.bytesBorrowed + b.bytesAdopted;
        return c;
    }

    void
    addDelta(const HostCounters &before, const HostCounters &after)
    {
        tlps += after.tlps - before.tlps;
        spills += after.spills - before.spills;
        bytesCopied += after.bytesCopied - before.bytesCopied;
        bytesViewed += after.bytesViewed - before.bytesViewed;
    }
};

struct Outcome
{
    double setupS = 0.0; //!< construct, bring up, preload
    double simS = 0.0;   //!< kick-off until drained
    double wallS = 0.0;  //!< setup + simulation + teardown
    std::uint64_t attempted = 0;
    std::uint64_t requests = 0; //!< operations completed with status 0
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    std::string results; //!< simulated goodput/latency, fingerprint part
    std::uint64_t events = 0;
    std::uint64_t digest = 0;
    Tally tally;
    // Per-layer counters over the simulation phase.
    std::uint64_t hdcCmds = 0;
    std::uint64_t hdcMsis = 0;
    std::uint64_t doorbells = 0;
    std::uint64_t driverCmds = 0;
    std::uint64_t windows = 0;
    std::uint64_t meshMsgs = 0;
    HostCounters host;

    std::string
    fingerprint() const
    {
        return format("events=%" PRIu64 " digest=%016" PRIx64 " ", events,
                      digest) +
               results;
    }

    void
    problem(const std::string &what)
    {
        problems.push_back(what);
    }
};

/** Checks and control-plane counters common to every node. */
void
auditNode(sys::Node &nd, Outcome &o)
{
    if (nd.tcp().framesUnmatched() != 0)
        o.problem(format("%s: %" PRIu64 " rx_unmatched frames",
                         nd.name().c_str(), nd.tcp().framesUnmatched()));
    if (nd.nic().framesDropped() != 0)
        o.problem(format("%s: %" PRIu64 " NIC frames dropped",
                         nd.name().c_str(), nd.nic().framesDropped()));
    o.hdcCmds += nd.engine().commandsCompleted();
    o.hdcMsis += nd.engine().interruptsRaised();
    o.doorbells += nd.hdcDriver().doorbellWrites();
    o.driverCmds += nd.hdcDriver().commandsSubmitted();
}

/** Fold a tally's operation accounting into the outcome. */
void
settle(Outcome &o)
{
    const Tally &t = o.tally;
    o.attempted += t.calls;
    o.requests += t.completed - t.badStatus;
    o.failed += (t.calls - t.completed) + t.badStatus;
    if (t.completed != t.calls)
        o.problem(format("%" PRIu64 " of %" PRIu64 " transfers never "
                         "completed", t.calls - t.completed, t.calls));
    if (t.badStatus != 0)
        o.problem(format("%" PRIu64 " transfers returned non-zero status",
                         t.badStatus));
    if (t.digestMismatches != 0)
        o.problem(format("%" PRIu64 " transfers carried an unexpected "
                         "digest", t.digestMismatches));
}

std::string
quantiles(const stats::SampledDistribution &d)
{
    return format("p50=%.3fus p99=%.3fus", d.quantile(0.5),
                  d.quantile(0.99));
}

Outcome
runSwift(std::uint64_t seed, Probe &probe, const Knobs &k, bool layers)
{
    using workload::Design;
    Outcome o;
    const auto t0 = Clock::now();
    std::uint64_t legSeed = seed;
    for (const Design d :
         {Design::DcsCtrl, Design::SwOptimized, Design::SwP2p}) {
        // Each leg draws its own mix: the legs' payload volumes then
        // vary independently, which keeps the sum steadier across
        // seeds. Digests are compared within a leg only.
        if (d != Design::DcsCtrl)
            legSeed = Rng(legSeed).next();
        o.tally.digestOf.clear();
        const auto ts = Clock::now();
        workload::Testbed tb(d);
        if (k.attribution)
            tb.eq().attribution().enable(tb.eq().stats());
        CheckedPath path(tb.pathA(), o.tally);
        workload::SwiftWorkload wl(tb.eq(), tb.nodeA(), tb.nodeB(), path,
                                   swiftParams(d, legSeed));
        const std::vector<EventQueue *> queues{&tb.eq()};
        const HostCounters before =
            layers ? HostCounters::sample(queues) : HostCounters{};
        const auto tk = Clock::now();
        o.setupS += secondsBetween(ts, tk);

        bool fin = false;
        workload::SwiftStats st;
        probe.attach(tb.eq());
        wl.run([&](const workload::SwiftStats &s) {
            st = s;
            fin = true;
        });
        probe.begin();
        tb.eq().run();
        probe.end();
        o.simS += secondsBetween(tk, Clock::now());

        if (layers)
            o.host.addDelta(before, HostCounters::sample(queues));
        if (!fin)
            o.problem(format("swift %s did not drain",
                             workload::designName(d)));
        auditNode(tb.nodeA(), o);
        auditNode(tb.nodeB(), o);
        o.results += format("%s: gets=%" PRIu64 " puts=%" PRIu64
                            " tput=%.6fGbps %s; ",
                            workload::designName(d), st.getsDone,
                            st.putsDone, st.throughputGbps,
                            quantiles(st.latencyUs).c_str());
    }
    o.wallS = secondsBetween(t0, Clock::now());
    settle(o);
    return o;
}

Outcome
runLoadGen(std::uint64_t seed, Probe &probe, const Knobs &k, bool layers)
{
    Outcome o;
    const auto t0 = Clock::now();
    {
        sys::NodeParams pa;
        pa.hdc.doorbellBatch = kBatch;
        pa.hdc.doorbellHoldoff = kHoldoff;
        pa.hdc.msiCoalesce = kBatch;
        pa.hdc.msiHoldoff = kHoldoff;
        workload::Testbed tb(workload::Design::DcsCtrl, false, pa);
        if (k.attribution)
            tb.eq().attribution().enable(tb.eq().stats());
        tb.nodeA().hdcDriver().setDoorbellBatch(kBatch, kHoldoff);
        CheckedPath path(tb.pathA(), o.tally);
        workload::LoadGen gen(tb.eq(), tb.nodeA(), tb.nodeB(), path,
                              loadGenParams(seed));
        const std::vector<EventQueue *> queues{&tb.eq()};
        const HostCounters before =
            layers ? HostCounters::sample(queues) : HostCounters{};
        const auto tk = Clock::now();
        o.setupS = secondsBetween(t0, tk);

        bool fin = false;
        workload::LoadGenStats st;
        probe.attach(tb.eq());
        gen.run([&](const workload::LoadGenStats &s) {
            st = s;
            fin = true;
        });
        probe.begin();
        tb.eq().run();
        probe.end();
        o.simS = secondsBetween(tk, Clock::now());

        if (layers)
            o.host.addDelta(before, HostCounters::sample(queues));
        if (!fin)
            o.problem("loadgen did not drain");
        if (st.rejectedServer != 0)
            o.problem(format("%" PRIu64 " server 429s", st.rejectedServer));
        if (st.droppedClient != 0)
            o.problem(format("%" PRIu64 " client-side drops",
                             st.droppedClient));
        // Client drops never reach the datapath: count them here.
        o.attempted += st.droppedClient;
        o.failed += st.droppedClient;
        auditNode(tb.nodeA(), o);
        auditNode(tb.nodeB(), o);
        o.results = format("offered=%" PRIu64 " completed=%" PRIu64
                           " goodput=%.3freq/s %s",
                           st.offered, st.completed, st.goodputRps,
                           quantiles(st.latencyUs).c_str());
    }
    o.wallS = secondsBetween(t0, Clock::now());
    settle(o);
    return o;
}

Outcome
runRing(std::uint64_t seed, Probe &probe, const Knobs &k, bool layers)
{
    const std::size_t n = kRingNodes;
    const std::size_t files = kRingFiles;
    // Object contents depend on the seed and the file index; the
    // expected digests are computed before the clock starts.
    std::vector<std::vector<std::uint8_t>> content(files);
    std::vector<std::vector<std::uint8_t>> expect(files);
    const auto sha = ndp::makeHash("sha256");
    for (std::size_t f = 0; f < files; ++f) {
        Rng rng(seed * 0x9e3779b97f4a7c15ull + f + 1);
        content[f].resize(kRingBytes);
        rng.fill(content[f].data(), content[f].size());
        expect[f] = sha->oneShot(content[f]);
    }

    struct Slot
    {
        std::vector<std::uint8_t> txDigest;
        std::vector<std::uint8_t> rxDigest;
        std::uint32_t txStatus = ~0u;
        std::uint32_t rxStatus = ~0u;
        Tick rxDone = 0;
    };
    std::vector<Slot> slots(n * files);

    Outcome o;
    const auto t0 = Clock::now();
    {
        sys::ClusterParams p;
        p.nodes = n;
        p.wireLatency = microseconds(2);
        p.sharded = k.sharded;
        p.threads = 1;
        sys::Cluster cl(p);
        cl.bringUpDcs();
        if (k.attribution)
            for (std::size_t q = 0; q < n; ++q)
                cl.onNode(q, [](sys::Node &nd) {
                    EventQueue &eq = nd.host().eventq();
                    if (!eq.attribution().enabled())
                        eq.attribution().enable(eq.stats());
                });
        std::vector<sys::Cluster::ConnFds> conns(n * files);
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t f = 0; f < files; ++f)
                conns[i * files + f] = cl.connect(i, (i + 1) % n);
        std::vector<int> outFd(n * files);
        std::vector<int> inFd(n * files);
        for (std::size_t i = 0; i < n; ++i) {
            cl.onNode(i, [&, i](sys::Node &nd) {
                for (std::size_t f = 0; f < files; ++f)
                    outFd[i * files + f] = nd.fs().create(
                        "out_f" + std::to_string(f), content[f]);
            });
            cl.onNode((i + 1) % n, [&, i](sys::Node &nd) {
                for (std::size_t f = 0; f < files; ++f)
                    inFd[i * files + f] = nd.fs().createEmpty(
                        "in_e" + std::to_string(i) + "_f" +
                            std::to_string(f),
                        kRingBytes);
            });
        }
        // Unsharded, every node shares the switch's one queue.
        std::vector<EventQueue *> queues;
        for (std::size_t i = 0; i <= n; ++i) {
            EventQueue *q = i < n ? &cl.nodeQueue(i) : &cl.switchQueue();
            if (std::find(queues.begin(), queues.end(), q) == queues.end())
                queues.push_back(q);
        }
        const HostCounters before =
            layers ? HostCounters::sample(queues) : HostCounters{};
        const std::uint64_t windows0 = cl.windows();
        const std::uint64_t mesh0 = cl.meshMessages();
        const auto tk = Clock::now();
        o.setupS = secondsBetween(t0, tk);

        for (EventQueue *q : queues)
            probe.attach(*q);
        // Receivers arm first (the DCS recipe), then senders ship.
        Tally *tally = &o.tally;
        for (std::size_t i = 0; i < n; ++i) {
            cl.onNode((i + 1) % n, [&, i](sys::Node &nd) {
                EventQueue *eq = &nd.host().eventq();
                for (std::size_t f = 0; f < files; ++f) {
                    const std::size_t s = i * files + f;
                    Slot *slot = &slots[s];
                    ++tally->calls;
                    baselines::DcsCtrlPath(nd).receiveToFile(
                        conns[s].dst, inFd[s], 0, kRingBytes,
                        ndp::Function::Sha256, {}, nullptr,
                        [slot, eq](const baselines::PathResult &r) {
                            slot->rxDigest = r.digest;
                            slot->rxStatus = r.status;
                            slot->rxDone = eq->now();
                        });
                }
            });
        }
        for (std::size_t i = 0; i < n; ++i) {
            cl.onNode(i, [&, i](sys::Node &nd) {
                for (std::size_t f = 0; f < files; ++f) {
                    const std::size_t s = i * files + f;
                    Slot *slot = &slots[s];
                    baselines::DcsCtrlPath(nd).sendFile(
                        outFd[s], conns[s].src, 0, kRingBytes,
                        ndp::Function::Sha256, {}, nullptr,
                        [slot](const baselines::PathResult &r) {
                            slot->txDigest = r.digest;
                            slot->txStatus = r.status;
                        });
                }
            });
        }
        const Tick start = cl.switchQueue().now();
        probe.begin();
        const Tick end = cl.run();
        probe.end();
        o.simS = secondsBetween(tk, Clock::now());

        if (layers)
            o.host.addDelta(before, HostCounters::sample(queues));
        o.windows = cl.windows() - windows0;
        o.meshMsgs = cl.meshMessages() - mesh0;
        for (std::size_t i = 0; i < n; ++i)
            cl.onNode(i, [&o](sys::Node &nd) { auditNode(nd, o); });
        if (cl.tor().framesDropped() != 0)
            o.problem(format("ToR dropped %" PRIu64 " frames",
                             cl.tor().framesDropped()));

        // A ring transfer is one send plus one receive.
        Tally &t = o.tally;
        std::vector<double> latUs;
        for (std::size_t s = 0; s < slots.size(); ++s) {
            const Slot &sl = slots[s];
            const bool done = sl.txStatus != ~0u && sl.rxStatus != ~0u;
            if (done)
                ++t.completed;
            if (done && (sl.txStatus != 0 || sl.rxStatus != 0))
                ++t.badStatus;
            if (sl.txDigest != expect[s % files] ||
                sl.rxDigest != expect[s % files])
                ++t.digestMismatches;
            t.digestBytes += 2 * kRingBytes;
            ++t.sizes[kRingBytes];
            latUs.push_back(toMicroseconds(sl.rxDone - start));
        }
        std::sort(latUs.begin(), latUs.end());
        const auto rank = [&latUs](double q) {
            return latUs[static_cast<std::size_t>(
                q * static_cast<double>(latUs.size() - 1))];
        };
        const double bits = 8.0 * static_cast<double>(n * files) *
                            static_cast<double>(kRingBytes);
        o.results = format("goodput=%.6fGb/s p50=%.3fus p99=%.3fus",
                           bits / toSeconds(end - start) / 1e9, rank(0.5),
                           rank(0.99));
    }
    o.wallS = secondsBetween(t0, Clock::now());
    settle(o);
    return o;
}

using RunFn = Outcome (*)(std::uint64_t, Probe &, const Knobs &, bool);

struct Workload
{
    const char *name;
    RunFn run;
    Knobs knobs;         //!< the configuration users run
    ndp::Function kernel; //!< integrity function on every transfer
    /** Expected largest layer of the traced run, either form. */
    const char *predicted[2];
};

const Workload kWorkloads[] = {
    {"swift_mix", runSwift, {false, true}, ndp::Function::Md5,
     {"ndp.md5 under hdc", "ndp.md5 under gpu"}},
    {"loadgen_100k", runLoadGen, {true, true}, ndp::Function::None,
     {"sim", "sim"}},
    {"rack_ring", runRing, {false, true}, ndp::Function::Sha256,
     {"ndp.sha256 under hdc", "ndp.sha256 under hdc"}},
};

/** Nominal operations of a workload (what a crashed run failed). */
std::uint64_t
nominalOps(const std::string &name)
{
    if (name == "swift_mix") {
        const auto p = swiftParams(workload::Design::DcsCtrl, 1);
        const double rate =
            p.offeredGbps * 1e9 / 8.0 / workload::meanSize(p.mix);
        return static_cast<std::uint64_t>(
            3.0 * rate * toSeconds(p.warmup + p.measure));
    }
    if (name == "loadgen_100k") {
        const auto p = loadGenParams(1);
        return static_cast<std::uint64_t>(
            p.offeredRps * toSeconds(p.warmup + p.measure));
    }
    return kRingNodes * kRingFiles;
}

// --- Traced-run analysis -------------------------------------------------

/** Module a SimObject-labelled event belongs to, by name suffix. */
const char *
layerOf(std::string_view label)
{
    const auto ends = [label](std::string_view s) {
        return label.ends_with(s);
    };
    if (label.empty())
        return "workload";
    if (label.starts_with("mesh"))
        return "shard";
    if (ends(".hdc.scoreboard"))
        return "hdc.scoreboard";
    if (ends(".hdc"))
        return "hdc";
    if (ends(".host.hdcdrv"))
        return "hdclib";
    if (ends(".pcie") || ends(".host.bridge"))
        return "pcie";
    if (ends(".gpu"))
        return "gpu";
    if (ends(".host") || ends(".host.cpu") || ends(".tcp") ||
        ends(".hostdrv"))
        return "host";
    return "dev"; // SSD, NIC, wire, switch and its ports
}

const char *const kLabelLayers[] = {"hdc",  "hdc.scoreboard", "hdclib",
                                    "pcie", "host",           "gpu",
                                    "dev",  "shard",          "workload"};

/**
 * Replay one lane's recorded schedule through a bare EventQueue with
 * empty callbacks: every event that fired is scheduled at the point of
 * the original run where it was scheduled, at the tick it fired.
 * Events that never fired (cancelled) are left out.
 * @return host seconds; @p inOrder reports whether the replay fired
 *         in the recorded (tick, seq) order (checked passes only).
 */
double
replay(const Probe::Lane &lane, bool check, bool &inOrder)
{
    const std::vector<Fire> &fires = lane.fires;
    if (fires.empty())
        return 0.0;
    constexpr Tick kNever = ~Tick(0);
    std::vector<Tick> fireAt(fires.back().scheduled + 1, kNever);
    for (const Fire &f : fires)
        fireAt[f.seq] = f.when;

    EventQueue q;
    std::vector<std::uint64_t> origSeq(1, 0); // replay seq -> original
    std::size_t i = 0;
    if (check) {
        q.setTraceHook([&](Tick t, std::uint64_t seq, std::string_view) {
            if (t != fires[i].when || origSeq[seq] != fires[i].seq)
                inOrder = false;
        });
    }
    const auto t0 = Clock::now();
    std::uint64_t next = 1;
    for (i = 0; i < fires.size(); ++i) {
        for (; next <= fires[i].scheduled; ++next) {
            if (fireAt[next] == kNever)
                continue;
            q.scheduleAt(fireAt[next], [] {});
            if (check)
                origSeq.push_back(next);
        }
        q.step();
    }
    const double s = secondsBetween(t0, Clock::now());
    if (check && (q.executed() != fires.size() || !q.empty()))
        inOrder = false;
    return s;
}

/**
 * Effective rate (MB/s) of @p kernel over the workload's transfer
 * sizes, weighted by bytes moved at each size.
 */
double
kernelRate(const std::map<std::uint64_t, std::uint64_t> &sizes,
           const std::function<void(std::span<const std::uint8_t>)> &kernel)
{
    double bytes = 0.0, secs = 0.0;
    Rng rng(7);
    for (const auto &[size, count] : sizes) {
        std::vector<std::uint8_t> buf(size);
        rng.fill(buf.data(), buf.size());
        // Time enough calls for ~20 ms per size.
        int calls = 0;
        const auto t0 = Clock::now();
        double spent = 0.0;
        do {
            kernel(buf);
            ++calls;
            spent = secondsBetween(t0, Clock::now());
        } while (spent < 0.02);
        const double perCall = spent / calls;
        bytes += static_cast<double>(size) * static_cast<double>(count);
        secs += perCall * static_cast<double>(count);
    }
    return secs > 0.0 ? bytes / secs / 1e6 : 0.0;
}

/** TCP checksums cover one frame payload at a time. */
constexpr std::size_t kFramePayload = 8192;

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

// --- Host speed ----------------------------------------------------------

/**
 * Fixed work that shares no code with the simulator, timed around each
 * untraced instance: a dependent walk through a 16 MiB random cycle
 * (memory latency) and eight independent add/xor/rotate lanes (ALU
 * throughput, the shape of the MD5/SHA rounds). The host's speed drifts
 * by tens of percent over minutes; scaling by this probe takes much of
 * that drift out of the reported times.
 */
double
speedProbe()
{
    constexpr std::uint32_t kSlots = 4u << 20;
    constexpr std::size_t kBytes = kSlots * sizeof(std::uint32_t);
    double secs = 0.0;
    {
        // Mapped directly: a freed malloc chunk this large would raise
        // glibc's mmap threshold and change how the workload allocates.
        void *mem = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                         MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (mem == MAP_FAILED)
            fatal("speed probe: mmap failed");
        // Sattolo's shuffle: one cycle through every slot.
        std::span<std::uint32_t> next(static_cast<std::uint32_t *>(mem),
                                      kSlots);
        for (std::uint32_t i = 0; i < kSlots; ++i)
            next[i] = i;
        Rng rng(11);
        for (std::uint32_t i = kSlots - 1; i > 0; --i)
            std::swap(next[i], next[rng.next() % i]);
        std::uint32_t at = 0;
        const auto t0 = Clock::now();
        for (std::uint32_t k = 0; k < (1u << 19); ++k)
            at = next[at];
        secs += secondsBetween(t0, Clock::now());
        munmap(mem, kBytes);
        if (at == kSlots) // never true; keeps the walk
            std::fprintf(stderr, "unreachable\n");
    }
    std::uint64_t lane[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    const auto t0 = Clock::now();
    for (std::uint64_t k = 0; k < (6u << 20); ++k)
        for (std::uint64_t &x : lane)
            x = ((x ^ (x >> 17)) + k) ^ std::rotl(x, 11);
    secs += secondsBetween(t0, Clock::now());
    std::uint64_t sum = 0;
    for (const std::uint64_t x : lane)
        sum += x;
    if (sum == 0) // never true; keeps the lanes
        std::fprintf(stderr, "unreachable\n");
    return secs;
}

// --- Output --------------------------------------------------------------

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

void
writeOutcome(json::JsonWriter &w, const Outcome &o)
{
    w.key("ok");
    w.value(o.problems.empty());
    w.key("problems");
    w.beginArray();
    for (const auto &p : o.problems)
        w.value(p);
    w.endArray();
    w.key("attempted");
    w.value(o.attempted);
    w.key("failed");
    w.value(o.problems.empty() ? o.failed : o.attempted);
    w.key("requests");
    w.value(o.requests);
    w.key("setup_s");
    w.value(o.setupS);
    w.key("sim_s");
    w.value(o.simS);
    w.key("wall_s");
    w.value(o.wallS);
    w.key("fingerprint");
    w.value(o.fingerprint());
}

/** Run @p wl once and read the probe's fingerprint into the outcome. */
Outcome
execute(const Workload &wl, std::uint64_t seed, const Knobs &k,
        Probe &probe, bool layers = false)
{
    Outcome o = wl.run(seed, probe, k, layers);
    o.events = probe.events();
    o.digest = probe.digest();
    return o;
}

int
traced(const Workload &wl, std::uint64_t seed)
{
    const Knobs base = wl.knobs;
    Knobs toggled = base;
    toggled.attribution = !base.attribution;

    // Paired runs: untraced, traced, and with attribution toggled.
    Probe plain(false);
    const Outcome ref = execute(wl, seed, base, plain);
    Probe probe(true);
    Outcome tr = execute(wl, seed, base, probe, true);
    Probe plain2(false);
    const Outcome tog = execute(wl, seed, toggled, plain2);

    Outcome all = tr;
    const auto merge = [&all, &ref](const Outcome &o, bool sameStream) {
        all.attempted += o.attempted;
        all.failed += o.problems.empty() ? o.failed : o.attempted;
        for (const auto &p : o.problems)
            all.problem(p);
        const std::string want = sameStream ? ref.fingerprint() : ref.results;
        const std::string got = sameStream ? o.fingerprint() : o.results;
        if (got != want)
            all.problem("fingerprint differs between paired runs: " + got +
                        " vs " + want);
    };
    merge(ref, true);
    merge(tog, true);
    if (tr.fingerprint() != ref.fingerprint())
        all.problem("traced fingerprint differs from untraced: " +
                    tr.fingerprint() + " vs " + ref.fingerprint());

    double shardOverheadPct = 0.0;
    if (std::string_view(wl.name) == "rack_ring") {
        // One queue instead of nine: a different event stream, the
        // same simulated results.
        Knobs serial = base;
        serial.sharded = false;
        Probe plain3(false);
        const Outcome ser = execute(wl, seed, serial, plain3);
        merge(ser, false);
        shardOverheadPct = 100.0 * ratio(ref.simS - ser.simS, ser.simS);
    }

    // Label self times, rolled up to modules.
    std::map<std::string, double> layer;
    for (const char *l : kLabelLayers)
        layer[l] = 0.0;
    double labelSum = 0.0;
    std::vector<std::pair<double, std::string>> byLabel;
    for (std::size_t s = 0; s < probe.labels().size(); ++s) {
        const double secs = probe.selfSeconds(s);
        layer[layerOf(probe.labels()[s])] += secs;
        labelSum += secs;
        byLabel.emplace_back(secs, probe.labels()[s]);
    }
    const double hostS = tr.simS;
    if (std::abs(labelSum - hostS) > 0.05 * hostS)
        all.problem(format("label self times sum to %.3fs, traced run "
                           "took %.3fs", labelSum, hostS));

    // Event core: replay the recorded schedule, checked then timed.
    bool inOrder = true;
    for (const auto &lane : probe.laneList())
        replay(lane, true, inOrder);
    double queueS = 0.0;
    if (inOrder) {
        for (const auto &lane : probe.laneList())
            queueS += replay(lane, false, inOrder);
    } else {
        all.problem("replay did not fire in the recorded (tick, seq) order");
    }
    const double events = static_cast<double>(tr.events);

    // Payload kernels on the workload's transfer sizes.
    const auto md5 = ndp::makeHash("md5");
    const auto sha = ndp::makeHash("sha256");
    const auto &sizes = tr.tally.sizes;
    const double md5Rate = kernelRate(
        sizes, [&](std::span<const std::uint8_t> b) { md5->oneShot(b); });
    const double shaRate = kernelRate(
        sizes, [&](std::span<const std::uint8_t> b) { sha->oneShot(b); });
    const double csumRate =
        kernelRate(sizes, [](std::span<const std::uint8_t> b) {
            for (std::size_t off = 0; off < b.size(); off += kFramePayload)
                net::inetChecksum(b.subspan(
                    off, std::min(kFramePayload, b.size() - off)));
        });

    // Kernel time the labels contain: the workload's digest bytes at
    // the kernel's rate; each payload byte is checksummed twice (the
    // sender builds the header, the receiver verifies it).
    double wireBytes = 0.0;
    for (const auto &[size, count] : sizes)
        wireBytes += static_cast<double>(size) * static_cast<double>(count);
    const double ndpBytes = static_cast<double>(tr.tally.digestBytes);
    const std::map<std::string, double> kernels = {
        {"ndp.md5", wl.kernel == ndp::Function::Md5
                        ? ndpBytes / (md5Rate * 1e6) : 0.0},
        {"ndp.sha256", wl.kernel == ndp::Function::Sha256
                           ? ndpBytes / (shaRate * 1e6) : 0.0},
        {"net.csum", 2.0 * wireBytes / (csumRate * 1e6)},
    };

    // Largest layer: the module (or the replayed event core) with the
    // most host time. A kernel estimated at half of it or more is
    // named as the work inside it.
    std::string top = "sim";
    double topS = queueS;
    for (const char *l : kLabelLayers)
        if (layer[l] > topS) {
            top = l;
            topS = layer[l];
        }
    std::string largest = top;
    for (const auto &[name, secs] : kernels)
        if (top != "sim" && secs >= 0.5 * topS)
            largest = name + " under " + top;
    const bool agrees = std::find(std::begin(wl.predicted),
                                  std::end(wl.predicted),
                                  largest) != std::end(wl.predicted);

    // Human-readable report on stderr.
    std::fprintf(stderr,
                 "traced %s seed=%" PRIu64 ": %" PRIu64 " events; sim "
                 "host s: plain %.3f, traced %.3f, attribution %s %.3f\n",
                 wl.name, seed, tr.events, ref.simS, tr.simS,
                 toggled.attribution ? "on" : "off", tog.simS);
    std::sort(byLabel.rbegin(), byLabel.rend());
    std::fprintf(stderr, "  %-28s %-15s %9s %7s\n", "label", "layer",
                 "self_s", "share");
    for (const auto &[secs, name] : byLabel)
        std::fprintf(stderr, "  %-28s %-15s %9.4f %6.2f%%\n",
                     name.empty() ? "(unlabelled)" : name.c_str(),
                     layerOf(name), secs, 100.0 * ratio(secs, hostS));
    std::fprintf(stderr, "  event core (replay) %9.4fs %6.2f%%\n", queueS,
                 100.0 * ratio(queueS, hostS));
    for (const auto &[name, secs] : kernels)
        std::fprintf(stderr, "  %-19s %9.4fs %6.2f%%\n", name.c_str(), secs,
                     100.0 * ratio(secs, hostS));
    std::string predicted = wl.predicted[0];
    if (std::string_view(wl.predicted[1]) != wl.predicted[0])
        predicted += std::string(" or ") + wl.predicted[1];
    std::fprintf(stderr, "  largest layer: %s (%.1f%%); predicted %s: %s\n",
                 largest.c_str(), 100.0 * ratio(topS, hostS),
                 predicted.c_str(), agrees ? "agrees" : "DISAGREES");

    json::JsonWriter w;
    w.beginObject();
    w.key("workload");
    w.value(wl.name);
    w.key("seed");
    w.value(seed);
    writeOutcome(w, all);
    w.key("per_layer");
    w.beginObject();
    const auto metric = [&w](const std::string &name, double v,
                             const char *unit) {
        w.key(name);
        w.beginObject();
        w.key("value");
        w.value(v);
        w.key("unit");
        w.value(unit);
        w.endObject();
    };
    metric("sim.events", events, "count");
    metric("sim.ns_per_event", 1e9 * ratio(ref.simS, events), "ns");
    metric("sim.queue_ns_per_event", 1e9 * ratio(queueS, events), "ns");
    metric("sim.queue_pct", 100.0 * ratio(queueS, hostS), "%");
    metric("sim.spills_per_event",
           ratio(static_cast<double>(tr.host.spills), events), "1/event");
    metric("ndp.md5_mb_per_s", md5Rate, "MB/s");
    metric("ndp.sha256_mb_per_s", shaRate, "MB/s");
    metric("net.csum_mb_per_s", csumRate, "MB/s");
    metric("ndp.bytes", ndpBytes, "bytes");
    for (const char *l : kLabelLayers) {
        metric(std::string(l) + ".self_s", layer[l], "s");
        metric(std::string(l) + ".self_pct",
               100.0 * ratio(layer[l], hostS), "%");
    }
    const double cmds = static_cast<double>(tr.hdcCmds);
    metric("hdc.cmds", cmds, "count");
    metric("hdc.us_per_cmd",
           1e6 * ratio(layer["hdc"] + layer["hdc.scoreboard"], cmds), "us");
    metric("hdclib.doorbells_per_cmd",
           ratio(static_cast<double>(tr.doorbells),
                 static_cast<double>(tr.driverCmds)),
           "1/cmd");
    metric("hdc.msis_per_cmd",
           ratio(static_cast<double>(tr.hdcMsis), cmds), "1/cmd");
    const double tlps = static_cast<double>(tr.host.tlps);
    metric("pcie.tlps", tlps, "count");
    metric("pcie.ns_per_tlp", 1e9 * ratio(layer["pcie"], tlps), "ns");
    metric("mem.bytes_copied", static_cast<double>(tr.host.bytesCopied),
           "bytes");
    metric("mem.bytes_viewed", static_cast<double>(tr.host.bytesViewed),
           "bytes");
    metric("shard.windows", static_cast<double>(tr.windows), "count");
    metric("shard.mesh_msgs", static_cast<double>(tr.meshMsgs), "count");
    metric("shard.overhead_pct", shardOverheadPct, "%");
    const double attrOn = base.attribution ? ref.simS : tog.simS;
    const double attrOff = base.attribution ? tog.simS : ref.simS;
    metric("obs.attribution_overhead_pct",
           100.0 * ratio(attrOn - attrOff, attrOff), "%");
    metric("obs.trace_overhead_pct",
           100.0 * ratio(tr.simS - ref.simS, ref.simS), "%");
    metric("obs.label_sum_pct", 100.0 * ratio(labelSum, hostS), "%");
    w.endObject();
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

int
untraced(const Workload &wl, std::uint64_t seed)
{
    const double before = speedProbe();
    Probe probe(false);
    const Outcome o = execute(wl, seed, wl.knobs, probe);
    const double rssMb = peakRssMb();
    const double after = speedProbe();
    json::JsonWriter w;
    w.beginObject();
    w.key("workload");
    w.value(wl.name);
    w.key("seed");
    w.value(seed);
    writeOutcome(w, o);
    w.key("peak_rss_mb");
    w.value(rssMb);
    w.key("probe_s");
    w.value(0.5 * (before + after));
    w.endObject();
    std::printf("%s\n", w.str().c_str());
    return 0;
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload swift_mix|loadgen_100k|rack_ring "
                 "[--seed N] [--trace]\n",
                 argv0);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    setVerbose(false);
    std::string name;
    std::uint64_t seed = 1;
    bool trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload" && i + 1 < argc)
            name = argv[++i];
        else if (arg == "--seed" && i + 1 < argc)
            seed = std::strtoull(argv[++i], nullptr, 10);
        else if (arg == "--trace")
            trace = true;
        else
            usage(argv[0]);
    }
    for (const Workload &wl : kWorkloads) {
        if (name != wl.name)
            continue;
        // Printed first so a run that crashes still reports how many
        // operations it took down with it.
        std::printf("nominal_ops %" PRIu64 "\n", nominalOps(name));
        std::fflush(stdout);
        return trace ? traced(wl, seed) : untraced(wl, seed);
    }
    usage(argv[0]);
}
