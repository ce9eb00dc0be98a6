// Worker of the end-to-end benchmark (perfbench/run.py): runs ONE
// Flower-CDN experiment per process through the public API and prints its
// numbers as a single `RESULT {json}` line. One run per process keeps the
// process's VmHWM the peak of exactly that run.
//
//   flowerbench run   [workload_seed=N] key=value...                 untraced
//   flowerbench trace [workload_seed=N] trace_out=PATH key=value...  traced
//   flowerbench setup [workload_seed=N] key=value...      set-up, then stop
//   flowerbench probe                                     host-speed probe
//
// key=value arguments are SimConfig overrides (src/common/config.h) on top
// of the all-defaults config, which is the paper's Table 1 setup.
// workload_seed seeds the synthetic query stream (default: the config
// seed, 42).
//
// The traced run wraps the system and the workload in timing decorators
// and adds one Every(metrics_window) observer; it never reaches inside the
// event loop. Spans stay in memory and are written once, as Chrome
// trace-event JSON, after the run.
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/experiment.h"
#include "api/systems.h"
#include "common/config.h"
#include "common/mem_stats.h"
#include "common/mutex.h"
#include "net/message.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace {

using namespace flower;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double Seconds(uint64_t ns) { return static_cast<double>(ns) * 1e-9; }
double Mb(uint64_t bytes) { return static_cast<double>(bytes) / (1 << 20); }

// Call count, total time and a log-linear duration histogram (8 buckets
// per power of two, so a percentile read from it is within 1/16 of the
// true value).
struct CallStats {
  static constexpr int kSub = 8;
  static constexpr int kBuckets = 64 * kSub;

  uint64_t calls = 0;
  uint64_t total_ns = 0;
  std::array<uint64_t, kBuckets> buckets{};

  void Add(uint64_t ns) {
    ++calls;
    total_ns += ns;
    ++buckets[Bucket(ns)];
  }

  void Merge(const CallStats& o) {
    calls += o.calls;
    total_ns += o.total_ns;
    for (int b = 0; b < kBuckets; ++b) buckets[b] += o.buckets[b];
  }

  static int Bucket(uint64_t ns) {
    if (ns < kSub) return static_cast<int>(ns);
    const int msb = 63 - __builtin_clzll(ns);
    const int sub = static_cast<int>((ns >> (msb - 3)) & (kSub - 1));
    return (msb - 2) * kSub + sub;
  }

  static double BucketMid(int b) {
    if (b < kSub) return b;
    const int shift = b / kSub - 1;
    const double low = static_cast<double>(
        static_cast<uint64_t>(kSub + b % kSub) << shift);
    return low + static_cast<double>(uint64_t{1} << shift) / 2;
  }

  double PercentileNs(double p) const {
    if (calls == 0) return 0;
    const double target = p / 100.0 * static_cast<double>(calls);
    uint64_t acc = 0;
    for (int b = 0; b < kBuckets; ++b) {
      acc += buckets[b];
      if (static_cast<double>(acc) >= target && buckets[b] > 0) {
        return BucketMid(b);
      }
    }
    return 0;
  }
};

// What one thread timed. SubmitQuery runs on lane worker threads under
// shards=N, so each thread adds into its own slot and the per-call cost
// never touches a shared lock.
struct ThreadSlot {
  CallStats submit;
  CallStats blackout;
  CallStats next;
};

struct Span {
  const char* name;
  uint64_t start_ns;
  uint64_t end_ns;
  uint64_t events;  // events dispatched so far (window spans only)
};

// Everything the traced run records. One traced run per process.
class TraceLog {
 public:
  ThreadSlot* Local() {
    thread_local ThreadSlot* slot = nullptr;
    if (slot == nullptr) {
      MutexLock lock(&mu_);
      slots_.push_back(std::make_unique<ThreadSlot>());
      slot = slots_.back().get();
    }
    return slot;
  }

  size_t Threads() {
    MutexLock lock(&mu_);
    return slots_.size();
  }

  ThreadSlot Merged() {
    MutexLock lock(&mu_);
    ThreadSlot all;
    for (const auto& s : slots_) {
      all.submit.Merge(s->submit);
      all.blackout.Merge(s->blackout);
      all.next.Merge(s->next);
    }
    return all;
  }

  void AddSpan(Span span) {
    MutexLock lock(&mu_);
    spans_.push_back(span);
  }

  std::vector<Span> Spans() {
    MutexLock lock(&mu_);
    return spans_;
  }

  // Set once, after the event loop.
  uint64_t clients_created = 0;
  uint64_t promotions = 0;
  uint64_t net_messages = 0;
  uint64_t net_undeliverable = 0;
  std::array<uint64_t, static_cast<size_t>(TrafficClass::kNumClasses)>
      net_bits{};

 private:
  Mutex mu_;
  std::vector<std::unique_ptr<ThreadSlot>> slots_ GUARDED_BY(mu_);
  std::vector<Span> spans_ GUARDED_BY(mu_);
};

// Times every CdnSystem call the harness makes; forwards all virtuals,
// SupportsParallelShards included (without it a sharded run would fall
// back to the cooperative executor).
class TracedSystem : public CdnSystem {
 public:
  TracedSystem(std::unique_ptr<CdnSystem> inner, const Network* network,
               TraceLog* log)
      : inner_(std::move(inner)), network_(network), log_(log) {}

  const char* key() const override { return inner_->key(); }
  const char* name() const override { return inner_->name(); }

  void Setup() override {
    const uint64_t t0 = NowNs();
    inner_->Setup();
    log_->AddSpan({"core.setup", t0, NowNs(), 0});
  }

  void SubmitQuery(NodeId node, WebsiteId website, ObjectId object) override {
    const uint64_t t0 = NowNs();
    inner_->SubmitQuery(node, website, object);
    log_->Local()->submit.Add(NowNs() - t0);
  }

  std::vector<PeerAddress> ParticipantAddresses() const override {
    const uint64_t t0 = NowNs();
    std::vector<PeerAddress> peers = inner_->ParticipantAddresses();
    log_->AddSpan({"core.participants", t0, NowNs(), 0});
    return peers;
  }

  const Deployment& deployment() const override {
    return inner_->deployment();
  }
  const WebsiteCatalog& catalog() const override { return inner_->catalog(); }

  bool IsBlackedOut(NodeId node) const override {
    const uint64_t t0 = NowNs();
    const bool out = inner_->IsBlackedOut(node);
    log_->Local()->blackout.Add(NowNs() - t0);
    return out;
  }

  bool SupportsParallelShards() const override {
    return inner_->SupportsParallelShards();
  }

  // Called once after the loop: the moment to read the layers' counters.
  void FillStats(RunResult* result) const override {
    const uint64_t t0 = NowNs();
    inner_->FillStats(result);
    log_->AddSpan({"core.fill_stats", t0, NowNs(), 0});
    if (auto* flower = dynamic_cast<FlowerAdapter*>(inner_.get())) {
      log_->clients_created = flower->system().clients_created();
      log_->promotions = flower->system().promotions();
    }
    log_->net_messages = network_->messages_sent();
    log_->net_undeliverable = network_->messages_undeliverable();
    for (size_t c = 0; c < log_->net_bits.size(); ++c) {
      log_->net_bits[c] = network_->TotalBits(static_cast<TrafficClass>(c));
    }
  }

 private:
  std::unique_ptr<CdnSystem> inner_;
  const Network* network_;
  TraceLog* log_;
};

class TimedSource : public WorkloadSource {
 public:
  TimedSource(std::unique_ptr<WorkloadSource> inner, TraceLog* log)
      : inner_(std::move(inner)), log_(log) {}

  const std::string& name() const override { return inner_->name(); }

  // The first call comes from the workload driver's constructor, before
  // the event loop starts; only the in-loop calls are timed.
  bool Next(QueryEvent* out) override {
    if (first_) {
      first_ = false;
      return inner_->Next(out);
    }
    const uint64_t t0 = NowNs();
    const bool more = inner_->Next(out);
    log_->Local()->next.Add(NowNs() - t0);
    return more;
  }

 private:
  std::unique_ptr<WorkloadSource> inner_;
  TraceLog* log_;
  bool first_ = true;
};

// Printed key/value pairs, in order.
class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Raw(key, buf);
  }
  void Int(const std::string& key, uint64_t v) {
    Raw(key, std::to_string(v));
  }
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "\"" : ", \"") + key + "\": " + json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// Deterministic output of a run: a pure function of (config, seed).
JsonObject SimFields(const RunResult& r) {
  JsonObject o;
  const uint64_t lookups = r.lookup_hist.count();
  o.Int("queries_submitted", r.queries_submitted);
  o.Int("queries_served", r.queries_served);
  o.Int("lookup_count", lookups);
  o.Int("served_by_local_peer", r.served_by_local_peer);
  o.Int("served_by_remote_peer", r.served_by_remote_peer);
  o.Int("served_by_server", r.served_by_server);
  o.Num("hit_ratio", r.cumulative_hit_ratio);
  o.Num("query_success", r.QuerySuccessRate());
  o.Num("lookup_ms_p50", r.lookup_hist.Percentile(50));
  o.Num("lookup_ms_p99", r.lookup_hist.Percentile(99));
  o.Num("lookup_under_150ms",
        r.queries_submitted > 0
            ? r.LookupFractionBelow(150) * static_cast<double>(lookups) /
                  static_cast<double>(r.queries_submitted)
            : 0.0);
  o.Num("transfer_ms_mean", r.mean_transfer_ms);
  o.Num("background_bps", r.background_bps);
  o.Int("participants", r.participants);
  o.Int("events", r.events_processed);
  o.Int("events_cancelled", r.events_cancelled);
  o.Int("core.churn_failures", r.churn_failures);
  o.Int("core.churn_leaves", r.churn_leaves);
  o.Int("core.timeouts", r.queries_timed_out);
  o.Int("core.retries", r.query_retries);
  o.Int("bloom.stale_redirects", r.stale_redirects_peer_summary);
  o.Int("cache.evictions", r.cache_evictions);
  o.Int("cache.dir_index_evictions", r.dir_index_evictions);
  o.Int("cache.stale_dir_index", r.stale_redirects_dir_index);
  o.Int("cache.dir_summary_fallthroughs", r.dir_summary_fallthroughs);
  o.Num("gossip.mean_view", r.mean_active_view);
  o.Num("gossip.mean_summaries_known", r.mean_summaries_known);
  return o;
}

// Host-speed probe: two fixed kernels that share none of the simulator's
// code, so no change to the simulator can move them. It runs in its own
// process, so it touches neither a worker's heap nor its VmHWM.
//  - compute: hashed reads of a 32 KB table, which stays in L1: the
//    simulator's hashing, branching and cache-resident work;
//  - memory: a dependent pointer chase through 16 MB, which misses L2 on
//    every hop: the simulator's waits on the shared last-level cache.
// A repeat runs one of each. Their sizes make the memory kernel about an
// eighth of a repeat when the host is fast: of the mixes tried, the one
// whose slowdowns followed the simulator's best when the two ran in turn.
// Prints the mean seconds of a repeat: the host's slow moments are shorter
// than an experiment, and a mean, like an experiment, adds them up.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

int Probe() {
  constexpr int kRepeats = 8;
  constexpr uint64_t kComputeOps = 50'000'000;
  constexpr uint64_t kMemoryHops = 250'000;
  std::vector<uint64_t> small(uint64_t{1} << 12);  // 32 KB
  std::vector<uint64_t> large(uint64_t{1} << 21);  // 16 MB
  for (uint64_t i = 0; i < small.size(); ++i) small[i] = Mix(i);
  for (uint64_t i = 0; i < large.size(); ++i) large[i] = Mix(i);
  uint64_t sink = 0;
  const uint64_t t0 = NowNs();
  for (int rep = 0; rep < kRepeats; ++rep) {
    for (uint64_t op = 0; op < kComputeOps; ++op) {
      const uint64_t h = Mix(op);
      sink += small[h & (small.size() - 1)] +
              small[(h >> 32) & (small.size() - 1)];
    }
    uint64_t x = sink;
    for (uint64_t hop = 0; hop < kMemoryHops; ++hop) {
      x = large[(x ^ hop) & (large.size() - 1)];
    }
    sink += x;
  }
  std::printf("PROBE {\"probe_s\": %.9f, \"sink\": %" PRIu64 "}\n",
              Seconds(NowNs() - t0) / kRepeats, sink);
  return 0;
}

int Fail(const std::string& what) {
  std::fprintf(stderr, "flowerbench: %s\n", what.c_str());
  return 1;
}

int Main(int argc, char** argv) {
  if (argc < 2) {
    return Fail("usage: flowerbench run|trace|setup [workload_seed=N] "
                "[trace_out=PATH] key=value... | flowerbench probe");
  }
  const std::string mode = argv[1];
  if (mode == "probe") return Probe();
  if (mode != "run" && mode != "trace" && mode != "setup") {
    return Fail("unknown mode " + mode);
  }
  std::string trace_out;
  const char* workload_seed = nullptr;
  std::vector<char*> args = {argv[0]};
  for (int a = 2; a < argc; ++a) {
    if (std::strncmp(argv[a], "trace_out=", 10) == 0) {
      trace_out = argv[a] + 10;
    } else if (std::strncmp(argv[a], "workload_seed=", 14) == 0) {
      workload_seed = argv[a] + 14;
    } else {
      args.push_back(argv[a]);
    }
  }
  SimConfig config;
  Status parsed = config.ApplyArgs(static_cast<int>(args.size()), args.data());
  if (!parsed.ok()) return Fail(parsed.ToString());
  if (mode == "trace" && trace_out.empty()) {
    return Fail("trace mode needs trace_out=PATH");
  }

  // The workload factory is invoked exactly once, right after
  // CdnSystem::Setup returns: its timestamp ends set-up and starts the run
  // without adding any per-query cost.
  const bool traced = mode == "trace";
  const bool setup_only = mode == "setup";
  TraceLog log;
  uint64_t factory_ns = 0;
  uint64_t system_ns = 0;
  uint64_t rss_setup = 0;
  // The world (topology, deployment, protocol randomness) comes from the
  // config seed; the query stream from workload_seed. With both equal
  // this is exactly SyntheticWorkload().
  SimConfig workload_config = config;
  if (workload_seed != nullptr) {
    char* end = nullptr;
    workload_config.seed = std::strtoull(workload_seed, &end, 10);
    if (*workload_seed == '\0' || *end != '\0') {
      return Fail(std::string("bad workload_seed: ") + workload_seed);
    }
  }
  auto workload = [&](const WorkloadEnv& env)
      -> Result<std::unique_ptr<WorkloadSource>> {
    factory_ns = NowNs();
    rss_setup = MemStats::CurrentRssBytes();
    if (setup_only) return Status::Unavailable("stopped after set-up");
    WorkloadEnv seeded = env;
    seeded.config = &workload_config;
    std::unique_ptr<WorkloadSource> source =
        std::make_unique<SyntheticSource>(seeded);
    if (!traced) return source;
    return std::unique_ptr<WorkloadSource>(
        std::make_unique<TimedSource>(std::move(source), &log));
  };

  Experiment experiment(config);
  experiment.WithWorkload(workload);
  if (traced) {
    experiment.WithSystem([&](const SystemContext& ctx)
                              -> std::unique_ptr<CdnSystem> {
      system_ns = NowNs();
      Result<std::unique_ptr<CdnSystem>> inner =
          SystemRegistry::Instance().Create(config.system, ctx);
      if (!inner.ok()) return nullptr;
      return std::make_unique<TracedSystem>(std::move(inner).value(),
                                            ctx.network, &log);
    });
    experiment.Every(config.metrics_window, [&](const ObserverContext& c) {
      log.AddSpan({"sim.window", 0, NowNs(), c.sim->events_processed()});
    });
  } else {
    experiment.WithSystem(config.system);
  }

  const uint64_t entry_ns = NowNs();
  Result<RunResult> run = experiment.TryRun();
  const uint64_t end_ns = NowNs();

  if (setup_only && factory_ns != 0) {
    std::printf("RESULT {\"host\": {\"setup_s\": %.17g}}\n",
                Seconds(factory_ns - entry_ns));
    return 0;
  }
  if (!run.ok()) return Fail(run.status().ToString());
  const RunResult& r = run.value();

  const double run_s = Seconds(end_ns - factory_ns);
  const double loop_s = r.wall_ms / 1000.0;
  JsonObject host;
  host.Num("setup_s", Seconds(factory_ns - entry_ns));
  host.Num("run_s", run_s);
  host.Num("peak_rss_mb", Mb(MemStats::PeakRssBytes()));
  host.Num("common.rss_setup_mb", Mb(rss_setup));
  host.Num("common.rss_run_growth_mb",
           Mb(MemStats::PeakRssBytes() - rss_setup));

  std::string layers;
  if (traced) {
    const ThreadSlot calls = log.Merged();
    const std::vector<Span> spans = log.Spans();
    // ParticipantAddresses runs once per metrics window inside the loop
    // and once more in the result fold after it; the fold call is last.
    uint64_t participants_ns = 0;
    uint64_t participants_calls = 0;
    uint64_t fold_participants_ns = 0;
    for (const Span& s : spans) {
      if (std::strcmp(s.name, "core.participants") != 0) continue;
      participants_ns += s.end_ns - s.start_ns;
      ++participants_calls;
      fold_participants_ns = s.end_ns - s.start_ns;
    }
    uint64_t core_setup_start = system_ns;
    uint64_t core_setup_ns = 0;
    for (const Span& s : spans) {
      if (std::strcmp(s.name, "core.setup") != 0) continue;
      core_setup_start = s.start_ns;
      core_setup_ns = s.end_ns - s.start_ns;
    }
    const uint64_t in_loop_ns = calls.submit.total_ns +
                                calls.blackout.total_ns +
                                calls.next.total_ns + participants_ns -
                                fold_participants_ns;

    JsonObject counts;
    counts.Int("core.submit.calls", calls.submit.calls);
    counts.Int("core.participants.calls", participants_calls);
    counts.Int("workload.next.calls", calls.next.calls + 1);
    counts.Int("core.clients_created", log.clients_created);
    counts.Int("core.promotions", log.promotions);
    counts.Int("net.messages", log.net_messages);
    counts.Int("net.undeliverable", log.net_undeliverable);
    for (size_t c = 0; c < log.net_bits.size(); ++c) {
      counts.Int(std::string("net.bits.") +
                     TrafficClassName(static_cast<TrafficClass>(c)),
                 log.net_bits[c]);
    }
    uint64_t lane_total = 0;
    uint64_t lane_max = 0;
    for (size_t l = 0; l + 1 < r.events_by_lane.size(); ++l) {
      lane_total += r.events_by_lane[l];
      if (r.events_by_lane[l] > lane_max) lane_max = r.events_by_lane[l];
    }
    counts.Int("sim.lanes", static_cast<uint64_t>(r.sim_lanes));
    counts.Int("sim.control_events",
               r.events_by_lane.empty() ? 0 : r.events_by_lane.back());
    counts.Num("sim.lane_max_share",
               lane_total > 0 ? static_cast<double>(lane_max) /
                                    static_cast<double>(lane_total)
                              : 0.0);
    uint64_t windows = 0;
    for (const Span& s : spans) {
      windows += std::strcmp(s.name, "sim.window") == 0 ? 1 : 0;
    }
    counts.Int("trace.observer_firings", windows);

    host.Num("api.world_setup_s", Seconds(system_ns - entry_ns));
    host.Num("core.construct_s", Seconds(core_setup_start - system_ns));
    host.Num("core.setup_s", Seconds(core_setup_ns));
    host.Num("core.submit_s", Seconds(calls.submit.total_ns));
    host.Num("core.submit.p50_ns", calls.submit.PercentileNs(50));
    host.Num("core.submit.p99_ns", calls.submit.PercentileNs(99));
    host.Num("core.blackout_s", Seconds(calls.blackout.total_ns));
    host.Num("core.participants_s",
             Seconds(participants_ns - fold_participants_ns));
    host.Num("workload.next_s", Seconds(calls.next.total_ns));
    host.Num("workload.next.p50_ns", calls.next.PercentileNs(50));
    host.Num("sim.loop_s", loop_s);
    host.Num("sim.ns_per_event",
             r.events_processed > 0
                 ? loop_s * 1e9 / static_cast<double>(r.events_processed)
                 : 0.0);
    host.Num("sim.events_per_s", r.EventsPerSec());
    // Only meaningful when one thread runs the whole loop: on the thread
    // executor the spans overlap on lane threads, and 0 marks "not
    // defined".
    const size_t threads = log.Threads();
    host.Num("sim.dispatch_s",
             threads <= 1 ? loop_s - Seconds(in_loop_ns) : 0.0);
    host.Num("sim.in_loop_spans_s", Seconds(in_loop_ns));
    host.Num("stats.fold_s", run_s - loop_s);
    // Threads that called into the system or the workload: more than one
    // only when the lanes ran on the thread executor.
    host.Int("trace.threads", threads);
    layers = ", \"counts\": " + counts.str();

    FILE* f = std::fopen(trace_out.c_str(), "w");
    if (f == nullptr) return Fail("cannot write " + trace_out);
    // Chrome trace-event JSON (chrome://tracing, Perfetto): complete
    // events in microseconds from TryRun entry.
    auto us = [&](uint64_t ns) {
      return static_cast<double>(ns - entry_ns) / 1000.0;
    };
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    std::fprintf(f,
                 "{\"name\": \"api.world_setup\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": 0, \"dur\": %.3f}",
                 us(system_ns));
    std::fprintf(f,
                 ",\n{\"name\": \"run\", \"ph\": \"X\", \"pid\": 1, "
                 "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f}",
                 us(factory_ns), us(end_ns) - us(factory_ns));
    uint64_t window_start = factory_ns;
    uint64_t window = 0;
    for (const Span& s : spans) {
      const bool is_window = std::strcmp(s.name, "sim.window") == 0;
      const uint64_t start = is_window ? window_start : s.start_ns;
      std::fprintf(f,
                   ",\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f",
                   s.name, is_window ? 2 : 1, us(start),
                   us(s.end_ns) - us(start));
      if (is_window) {
        std::fprintf(f,
                     ", \"args\": {\"window\": %" PRIu64
                     ", \"events\": %" PRIu64 "}",
                     window++, s.events);
        window_start = s.end_ns;
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "\n]}\n");
    if (std::fclose(f) != 0) return Fail("cannot write " + trace_out);
  }

  std::printf("RESULT {\"config\": \"%s\", \"sim\": %s, \"host\": %s%s}\n",
              config.ToString().c_str(), SimFields(r).str().c_str(),
              host.str().c_str(), layers.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
