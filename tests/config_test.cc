#include "common/config.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace flower {
namespace {

TEST(ConfigTest, DefaultsMatchPaperTable1) {
  SimConfig c;
  EXPECT_EQ(c.num_topology_nodes, 5000);
  EXPECT_EQ(c.num_localities, 6);
  EXPECT_EQ(c.num_websites, 100);
  EXPECT_EQ(c.max_content_overlay_size, 100);
  EXPECT_DOUBLE_EQ(c.queries_per_second, 6.0);
  EXPECT_EQ(c.gossip_period, 30 * kMinute);
  EXPECT_EQ(c.gossip_length, 10);
  EXPECT_EQ(c.view_size, 50);
  EXPECT_DOUBLE_EQ(c.push_threshold, 0.1);
  EXPECT_EQ(c.duration, 24 * kHour);
  EXPECT_EQ(c.summary_bits_per_object, 8);
}

TEST(ConfigTest, ApplyIntKey) {
  SimConfig c;
  EXPECT_TRUE(c.Apply("view_size", "70").ok());
  EXPECT_EQ(c.view_size, 70);
}

TEST(ConfigTest, ApplyDoubleKey) {
  SimConfig c;
  EXPECT_TRUE(c.Apply("zipf_alpha", "1.2").ok());
  EXPECT_DOUBLE_EQ(c.zipf_alpha, 1.2);
}

TEST(ConfigTest, ApplyBoolKey) {
  SimConfig c;
  EXPECT_TRUE(c.Apply("churn_enabled", "true").ok());
  EXPECT_TRUE(c.churn_enabled);
  EXPECT_TRUE(c.Apply("churn_enabled", "0").ok());
  EXPECT_FALSE(c.churn_enabled);
}

TEST(ConfigTest, TimeSuffixes) {
  SimConfig c;
  EXPECT_TRUE(c.Apply("gossip_period", "90s").ok());
  EXPECT_EQ(c.gossip_period, 90 * kSecond);
  EXPECT_TRUE(c.Apply("gossip_period", "5min").ok());
  EXPECT_EQ(c.gossip_period, 5 * kMinute);
  EXPECT_TRUE(c.Apply("duration", "2h").ok());
  EXPECT_EQ(c.duration, 2 * kHour);
  EXPECT_TRUE(c.Apply("min_intra_latency", "15ms").ok());
  EXPECT_EQ(c.min_intra_latency, 15);
  EXPECT_TRUE(c.Apply("max_intra_latency", "120").ok());
  EXPECT_EQ(c.max_intra_latency, 120);
}

TEST(ConfigTest, UnknownKeyRejected) {
  SimConfig c;
  Status s = c.Apply("no_such_key", "1");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST(ConfigTest, MalformedValueRejected) {
  SimConfig c;
  EXPECT_FALSE(c.Apply("view_size", "abc").ok());
  EXPECT_FALSE(c.Apply("zipf_alpha", "..").ok());
  EXPECT_FALSE(c.Apply("gossip_period", "5parsecs").ok());
  EXPECT_FALSE(c.Apply("churn_enabled", "maybe").ok());
  // Out of range for the field: never wrapped, truncated or clamped.
  EXPECT_FALSE(c.Apply("shards", "4294967298").ok());
  EXPECT_FALSE(c.Apply("num_topology_nodes", "4294967796").ok());
  EXPECT_FALSE(c.Apply("cache_capacity_bytes", "-1").ok());
  EXPECT_FALSE(c.Apply("seed", "99999999999999999999").ok());
  EXPECT_FALSE(c.Apply("duration", "9999999999999h").ok());
  EXPECT_FALSE(c.Apply("query_max_retries", "4294967299").ok());
  EXPECT_FALSE(c.Apply("suspicion_keepalive_misses", "4294967296").ok());
  EXPECT_EQ(c.shards, 1);
  EXPECT_EQ(c.num_topology_nodes, 5000);
  EXPECT_EQ(c.cache_capacity_bytes, 0u);
  EXPECT_EQ(c.seed, 42u);
  EXPECT_EQ(c.duration, 24 * kHour);
  EXPECT_EQ(c.query_max_retries, 3);
  EXPECT_EQ(c.suspicion_keepalive_misses, 0);
  // Outside the key's domain: each is refused with the key's name, and
  // the field keeps its value.
  const std::pair<const char*, const char*> kOutOfDomain[] = {
      {"num_topology_nodes", "-3"},     {"num_topology_nodes", "0"},
      {"num_localities", "0"},          {"num_objects_per_website", "0"},
      {"queries_per_second", "nan"},    {"queries_per_second", "-1"},
      {"duration", "-5h"},              {"zipf_alpha", "inf"},
      {"zipf_alpha", "-0.5"},           {"new_client_probability", "7"},
      {"push_threshold", "-1"},         {"churn_fail_probability", "nan"},
      {"directory_summary_threshold", "1.5"},
      {"gossip_length", "-1"},          {"metrics_window", "0"},
      {"cache_cost_ewma_alpha", "nan"}, {"query_backoff_base", "inf"},
      {"fault_delay_spike_probability", "nan"},
      {"gossip_period", "0"},           {"keepalive_period", "0"},
      {"replication_period", "0"},      {"chord_stabilize_period", "0"},
      {"chord_fix_fingers_period", "0"},
  };
  for (const auto& [key, value] : kOutOfDomain) {
    Status s = c.Apply(key, value);
    EXPECT_FALSE(s.ok()) << key << "=" << value;
    EXPECT_NE(s.ToString().find(key), std::string::npos) << s.ToString();
  }
  const SimConfig defaults;
  EXPECT_EQ(c.num_topology_nodes, defaults.num_topology_nodes);
  EXPECT_EQ(c.num_localities, defaults.num_localities);
  EXPECT_EQ(c.num_objects_per_website, defaults.num_objects_per_website);
  EXPECT_EQ(c.queries_per_second, defaults.queries_per_second);
  EXPECT_EQ(c.duration, defaults.duration);
  EXPECT_EQ(c.zipf_alpha, defaults.zipf_alpha);
  EXPECT_EQ(c.new_client_probability, defaults.new_client_probability);
  EXPECT_EQ(c.push_threshold, defaults.push_threshold);
  EXPECT_EQ(c.churn_fail_probability, defaults.churn_fail_probability);
  EXPECT_EQ(c.directory_summary_threshold,
            defaults.directory_summary_threshold);
  EXPECT_EQ(c.gossip_length, defaults.gossip_length);
  EXPECT_EQ(c.metrics_window, defaults.metrics_window);
  EXPECT_EQ(c.cache_cost_ewma_alpha, defaults.cache_cost_ewma_alpha);
  EXPECT_EQ(c.query_backoff_base, defaults.query_backoff_base);
  EXPECT_EQ(c.fault_delay_spike_probability,
            defaults.fault_delay_spike_probability);
  EXPECT_EQ(c.gossip_period, defaults.gossip_period);
  EXPECT_EQ(c.keepalive_period, defaults.keepalive_period);
  EXPECT_EQ(c.replication_period, defaults.replication_period);
  EXPECT_EQ(c.chord_stabilize_period, defaults.chord_stabilize_period);
  EXPECT_EQ(c.chord_fix_fingers_period, defaults.chord_fix_fingers_period);
  // The domain edges stay accepted.
  SimConfig edges;
  EXPECT_TRUE(edges.Apply("num_topology_nodes", "1").ok());
  EXPECT_TRUE(edges.Apply("queries_per_second", "0").ok());
  EXPECT_TRUE(edges.Apply("duration", "0").ok());
  EXPECT_TRUE(edges.Apply("push_threshold", "0").ok());
  EXPECT_TRUE(edges.Apply("new_client_probability", "1").ok());
  EXPECT_TRUE(edges.Apply("gossip_period", "1ms").ok());
  EXPECT_TRUE(edges.Apply("hyparview_shuffle_period", "0").ok());
}

TEST(ConfigTest, ApplyArgs) {
  SimConfig c;
  const char* argv[] = {"prog", "view_size=20", "gossip_period=1h"};
  EXPECT_TRUE(c.ApplyArgs(3, const_cast<char**>(argv)).ok());
  EXPECT_EQ(c.view_size, 20);
  EXPECT_EQ(c.gossip_period, kHour);
}

TEST(ConfigTest, ApplyArgsRejectsNonKeyValue) {
  SimConfig c;
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(c.ApplyArgs(2, const_cast<char**>(argv)).ok());
}

// Applies `args` as command-line overrides (ApplyArgs: every key, then
// the cross-key checks).
Status ApplyAll(SimConfig* c, const std::vector<const char*>& args) {
  std::vector<char*> argv = {const_cast<char*>("prog")};
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  return c->ApplyArgs(static_cast<int>(argv.size()), argv.data());
}

// The D-ring id geometry spans four keys, so it is checked after the
// last key is applied: each rule is refused with the keys named, the
// edges stay accepted, and key order does not matter.
TEST(ConfigTest, DRingGeometryValidatedAcrossKeys) {
  struct Bad {
    std::vector<const char*> args;
    std::vector<std::string> named;
  };
  const std::vector<Bad> bad = {
      // The two reproducers: the first hung, the second logged failed
      // directory starts and exited 0.
      {{"duration=1h", "num_topology_nodes=600", "chord_id_bits=0"},
       {"chord_id_bits"}},
      {{"duration=1h", "num_topology_nodes=600", "locality_id_bits=0"},
       {"locality_id_bits"}},
      {{"chord_id_bits=1"}, {"chord_id_bits"}},
      {{"chord_id_bits=65"}, {"chord_id_bits"}},
      // 6 localities (default) need 3 bits.
      {{"locality_id_bits=2"}, {"locality_id_bits", "num_localities"}},
      {{"locality_id_bits=3", "num_localities=9"},
       {"locality_id_bits", "num_localities"}},
      // No bit left for the website field.
      {{"chord_id_bits=10", "locality_id_bits=8", "scaleup_extra_bits=2"},
       {"locality_id_bits", "scaleup_extra_bits", "chord_id_bits"}},
      {{"chord_id_bits=8", "locality_id_bits=8"},
       {"locality_id_bits", "chord_id_bits"}},
      {{"scaleup_instances=3", "scaleup_extra_bits=1"},
       {"scaleup_instances", "scaleup_extra_bits"}},
      {{"scaleup_instances=2"}, {"scaleup_instances", "scaleup_extra_bits"}},
  };
  for (const Bad& b : bad) {
    SimConfig c;
    Status s = ApplyAll(&c, b.args);
    std::string joined;
    for (const char* a : b.args) joined += std::string(a) + " ";
    ASSERT_FALSE(s.ok()) << joined;
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << joined;
    EXPECT_FALSE(c.Validate().ok()) << joined;
    for (const std::string& key : b.named) {
      EXPECT_NE(s.message().find(key), std::string::npos)
          << joined << "-> " << s.ToString() << " does not name " << key;
    }
  }

  const std::vector<std::vector<const char*>> good = {
      {},
      {"chord_id_bits=64"},
      {"chord_id_bits=2", "locality_id_bits=1", "num_localities=2"},
      {"locality_id_bits=3", "num_localities=8"},
      {"chord_id_bits=11", "locality_id_bits=8", "scaleup_extra_bits=2"},
      {"scaleup_extra_bits=2", "scaleup_instances=4"},
      // Order must not matter: the first key alone is invalid here.
      {"locality_id_bits=1", "num_localities=2"},
      {"chord_id_bits=4", "locality_id_bits=1", "num_localities=2"},
      {"scaleup_instances=2", "scaleup_extra_bits=1"},
  };
  for (const auto& args : good) {
    SimConfig c;
    Status s = ApplyAll(&c, args);
    std::string joined;
    for (const char* a : args) joined += std::string(a) + " ";
    EXPECT_TRUE(s.ok()) << joined << "-> " << s.ToString();
  }
}

TEST(ConfigTest, DirectoryIndexKeys) {
  SimConfig c;
  EXPECT_EQ(c.directory_index_policy, "unbounded");
  EXPECT_EQ(c.directory_index_capacity_bytes, 0u);
  EXPECT_TRUE(c.Apply("directory_index_policy", "gdsf").ok());
  EXPECT_TRUE(c.Apply("directory_index_capacity", "8192").ok());
  EXPECT_EQ(c.directory_index_policy, "gdsf");
  EXPECT_EQ(c.directory_index_capacity_bytes, 8192u);
  // The capacity key also accepts the spelled-out default.
  EXPECT_TRUE(c.Apply("directory_index_capacity", "unbounded").ok());
  EXPECT_EQ(c.directory_index_capacity_bytes, 0u);
  EXPECT_FALSE(c.Apply("directory_index_policy", "mru").ok());
  EXPECT_FALSE(c.Apply("directory_index_capacity", "-5").ok());
  EXPECT_FALSE(c.Apply("directory_index_capacity", "lots").ok());
  EXPECT_EQ(c.directory_index_policy, "gdsf") << "bad values must not stick";
}

TEST(ConfigTest, CacheCostKey) {
  SimConfig c;
  EXPECT_EQ(c.cache_cost, "uniform");
  EXPECT_TRUE(c.Apply("cache_cost", "distance").ok());
  EXPECT_EQ(c.cache_cost, "distance");
  EXPECT_FALSE(c.Apply("cache_cost", "hops").ok());
  EXPECT_EQ(c.cache_cost, "distance");
}

TEST(ConfigTest, ToStringGuardsNonDefaultStorageKnobs) {
  SimConfig c;
  std::string defaults = c.ToString();
  EXPECT_EQ(defaults.find("dir_index"), std::string::npos)
      << "the default config line must stay byte-identical across PRs";
  EXPECT_EQ(defaults.find("cache_cost"), std::string::npos);
  ASSERT_TRUE(c.Apply("directory_index_policy", "lru").ok());
  ASSERT_TRUE(c.Apply("directory_index_capacity", "4096").ok());
  ASSERT_TRUE(c.Apply("cache_cost", "distance").ok());
  std::string overridden = c.ToString();
  EXPECT_NE(overridden.find("dir_index=lru/4096B"), std::string::npos);
  EXPECT_NE(overridden.find("cache_cost=distance"), std::string::npos);
}

TEST(ConfigTest, ToStringMentionsKeyParameters) {
  SimConfig c;
  std::string s = c.ToString();
  EXPECT_NE(s.find("T_gossip=30min"), std::string::npos);
  EXPECT_NE(s.find("V_gossip=50"), std::string::npos);
}

TEST(StatusTest, OkAndErrors) {
  EXPECT_TRUE(Status::Ok().ok());
  Status nf = Status::NotFound("x");
  EXPECT_FALSE(nf.ok());
  EXPECT_EQ(nf.code(), StatusCode::kNotFound);
  EXPECT_EQ(nf.ToString(), "NOT_FOUND: x");
}

TEST(StatusTest, ResultHoldsValueOrStatus) {
  Result<int> ok(42);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  Result<int> bad(Status::Internal("boom"));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace flower
