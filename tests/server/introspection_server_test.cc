// Introspection-server tests: the endpoint surface over real localhost
// HTTP (scrape conformance, JSON health, statusz/tracez/varz), the
// ISSUE-pinned acceptance path — /healthz flips healthy -> degraded when a
// shard is quarantined by the snapshot salvage path — the 503-on-unhealthy
// contract, socketless Handle() dispatch, and a TSan-facing test that
// scrapes /metrics while worker threads mutate the registry (the
// snapshot-consistent renderer must never emit a torn histogram family).

#include "server/introspection_server.h"

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/export.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "server/http.h"
#include "shard/sharded_index.h"
#include "util/random.h"
#include "util/set_ops.h"

namespace ssr {
namespace server {
namespace {

SetCollection MakeSets(std::size_t n, std::uint64_t seed = 4611) {
  SetCollection sets;
  Rng rng(seed);
  for (std::size_t i = 0; i < n; ++i) {
    ElementSet s;
    const std::size_t size = 10 + rng.Uniform(60);
    for (std::size_t j = 0; j < size; ++j) s.push_back(rng.Uniform(6000));
    NormalizeSet(s);
    if (s.empty()) s.push_back(1);
    sets.push_back(s);
  }
  return sets;
}

IndexLayout TestLayout() {
  IndexLayout layout;
  layout.delta = 0.4;
  layout.points = {{0.15, FilterKind::kDissimilarity, 8, 0},
                   {0.4, FilterKind::kDissimilarity, 8, 0},
                   {0.4, FilterKind::kSimilarity, 8, 0},
                   {0.75, FilterKind::kSimilarity, 8, 0}};
  return layout;
}

shard::ShardedIndexOptions TestOptions(std::uint32_t num_shards) {
  shard::ShardedIndexOptions options;
  options.num_shards = num_shards;
  options.index.embedding.minhash.num_hashes = 80;
  options.index.embedding.minhash.seed = 777;
  options.index.seed = 4242;
  return options;
}

// Flips bytes inside shard `s`'s store-section payload so only that shard
// fails CRC on load — the same corruption the sharded-index salvage tests
// inject.
std::string CorruptShardStore(std::string blob, std::uint32_t s) {
  std::string name = "shard";
  name += std::to_string(s);
  name += "_store";
  const std::size_t name_pos = blob.find(name);
  EXPECT_NE(name_pos, std::string::npos);
  const std::size_t payload = name_pos + name.size() + 8 + 4;
  for (std::size_t i = 0; i < 16 && payload + i < blob.size(); ++i) {
    blob[payload + i] = static_cast<char>(blob[payload + i] ^ 0x5a);
  }
  return blob;
}

IntrospectionServerOptions ManualTickOptions() {
  IntrospectionServerOptions options;
  options.tick_interval_seconds = 0.0;  // tests drive Tick() themselves
  return options;
}

std::string HealthNeedle(const char* status) {
  // JsonWriter output is compact: `"status":"healthy"`.
  std::string needle = "\"status\":\"";
  needle += status;
  needle += "\"";
  return needle;
}

TEST(IntrospectionServerTest, ServesEveryEndpointOverRealHttp) {
  obs::MetricsRegistry registry;
  registry.GetCounter("ssr_index_queries_total", "index/0")->Add(3);
  obs::Histogram* lat = registry.GetHistogram(
      "ssr_index_query_latency_micros", "index/0", obs::LatencyBoundsMicros());
  lat->Observe(42.0);

  IntrospectionServer server(ManualTickOptions(), &registry);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.running());
  ASSERT_NE(server.port(), 0);
  server.Tick(server.NowSeconds());

  const HttpGetResult metrics =
      HttpGet("127.0.0.1", server.port(), "/metrics");
  ASSERT_TRUE(metrics.ok) << metrics.error;
  EXPECT_EQ(metrics.status, 200);
  const auto issues = obs::ValidateExposition(metrics.body);
  EXPECT_TRUE(issues.empty()) << obs::FormatIssues(issues);
  EXPECT_NE(metrics.body.find("# HELP ssr_index_queries_total"),
            std::string::npos);
  EXPECT_NE(metrics.body.find("ssr_health_verdict"), std::string::npos);

  const HttpGetResult healthz =
      HttpGet("127.0.0.1", server.port(), "/healthz");
  ASSERT_TRUE(healthz.ok) << healthz.error;
  EXPECT_EQ(healthz.status, 200);
  EXPECT_NE(healthz.body.find(HealthNeedle("healthy")), std::string::npos)
      << healthz.body;

  for (const char* path : {"/statusz", "/tracez", "/tracez?limit=4",
                           "/varz"}) {
    const HttpGetResult r = HttpGet("127.0.0.1", server.port(), path);
    ASSERT_TRUE(r.ok) << path << ": " << r.error;
    EXPECT_EQ(r.status, 200) << path;
    EXPECT_FALSE(r.body.empty()) << path;
  }

  const HttpGetResult missing =
      HttpGet("127.0.0.1", server.port(), "/nope");
  ASSERT_TRUE(missing.ok) << missing.error;
  EXPECT_EQ(missing.status, 404);

  EXPECT_GE(server.requests_served(), 7u);
  server.Stop();
  EXPECT_FALSE(server.running());
  server.Stop();  // idempotent
}

// The ISSUE acceptance path: inject the PR-7 fault (a corrupted shard
// store section salvage-loaded into a quarantined shard) and verify the
// health verdict observed over HTTP flips healthy -> degraded, with the
// shard_quarantine reason attached, while the endpoint stays 200 (the
// process is degraded-but-serving, not down).
TEST(IntrospectionServerTest, HealthzFlipsWhenSalvageQuarantinesAShard) {
  const SetCollection sets = MakeSets(160);
  auto built = shard::ShardedSetSimilarityIndex::Build(sets, TestLayout(),
                                                       TestOptions(4));
  ASSERT_TRUE(built.ok());
  std::stringstream buf;
  ASSERT_TRUE(built->SaveTo(buf).ok());

  obs::MetricsRegistry registry;
  IntrospectionServer server(ManualTickOptions(), &registry);
  ASSERT_TRUE(server.Start().ok());

  StatusSources sources;
  sources.sharded_index = &*built;
  server.SetSources(sources);
  const HttpGetResult before =
      HttpGet("127.0.0.1", server.port(), "/healthz");
  ASSERT_TRUE(before.ok) << before.error;
  EXPECT_EQ(before.status, 200);
  EXPECT_NE(before.body.find(HealthNeedle("healthy")), std::string::npos)
      << before.body;

  RecoveryReport report;
  SnapshotLoadOptions salvage;
  salvage.salvage = true;
  salvage.report = &report;
  std::istringstream damaged(CorruptShardStore(buf.str(), 1));
  auto loaded = shard::ShardedSetSimilarityIndex::Load(damaged,
                                                       TestOptions(0), salvage);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(report.salvaged);
  ASSERT_TRUE(loaded->shard_degraded(1));

  sources.sharded_index = &*loaded;
  sources.last_recovery = &report;
  server.SetSources(sources);
  const HttpGetResult after =
      HttpGet("127.0.0.1", server.port(), "/healthz");
  ASSERT_TRUE(after.ok) << after.error;
  EXPECT_EQ(after.status, 200) << "degraded still serves";
  EXPECT_NE(after.body.find(HealthNeedle("degraded")), std::string::npos)
      << after.body;
  EXPECT_NE(after.body.find("shard_quarantine"), std::string::npos)
      << after.body;

  // /statusz carries the per-shard flags and the recovery report.
  const HttpGetResult statusz =
      HttpGet("127.0.0.1", server.port(), "/statusz");
  ASSERT_TRUE(statusz.ok) << statusz.error;
  EXPECT_NE(statusz.body.find("\"degraded\":true"), std::string::npos)
      << statusz.body;

  // Replacing the damaged index with a healthy one (the operational
  // "rebuild the shard" recovery) flips the verdict back. Note a salvaged
  // shard stays degraded until its index exists again — clearing the flag
  // alone cannot heal it.
  sources.sharded_index = &*built;
  server.SetSources(sources);
  const HttpGetResult healed =
      HttpGet("127.0.0.1", server.port(), "/healthz");
  ASSERT_TRUE(healed.ok) << healed.error;
  EXPECT_NE(healed.body.find(HealthNeedle("healthy")), std::string::npos)
      << healed.body;
  server.Stop();
}

TEST(IntrospectionServerTest, UnhealthyAnswersServiceUnavailable) {
  obs::MetricsRegistry registry;
  IntrospectionServer server(ManualTickOptions(), &registry);
  ASSERT_TRUE(server.Start().ok());

  // Burn the entire error budget: at the default 99.9% availability
  // target, all-errors traffic is a fast burn far past the page threshold.
  server.slo_tracker().RecordOutcomes(1000, 1000, server.NowSeconds());
  const HttpGetResult r = HttpGet("127.0.0.1", server.port(), "/healthz");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.status, 503);
  EXPECT_NE(r.body.find(HealthNeedle("unhealthy")), std::string::npos)
      << r.body;
  EXPECT_NE(r.body.find("slo_burn_fast"), std::string::npos) << r.body;
  server.Stop();
}

TEST(IntrospectionServerTest, SocketlessHandleDispatch) {
  obs::MetricsRegistry registry;
  IntrospectionServer server(ManualTickOptions(), &registry);

  HttpRequest request;
  request.method = "GET";
  request.path = "/metrics";
  EXPECT_EQ(server.Handle(request).status, 200);
  request.path = "/unknown";
  EXPECT_EQ(server.Handle(request).status, 404);

  // /tracez caps the limit parameter at the configured maximum and falls
  // back to the default on garbage.
  request.path = "/tracez";
  request.query["limit"] = "999999";
  EXPECT_EQ(server.Handle(request).status, 200);
  request.query["limit"] = "garbage";
  EXPECT_EQ(server.Handle(request).status, 200);
}

TEST(IntrospectionServerTest, TickPublishesSloAndHealthGauges) {
  obs::MetricsRegistry registry;
  obs::Histogram* lat = registry.GetHistogram(
      "ssr_router_query_latency_micros", "router", obs::LatencyBoundsMicros());
  obs::Counter* total = registry.GetCounter("ssr_router_queries_total");
  obs::Counter* errors =
      registry.GetCounter("ssr_router_partial_answers_total");

  IntrospectionServer server(ManualTickOptions(), &registry);
  StatusSources sources;
  sources.slo_latency = lat;
  sources.slo_total = total;
  sources.slo_errors = errors;
  server.SetSources(sources);

  server.Tick(0.0);  // baseline capture
  for (int i = 0; i < 50; ++i) {
    lat->Observe(300.0);
    total->Increment();
  }
  errors->Add(5);
  server.Tick(1.0);

  const obs::SloWindowReport r =
      server.slo_tracker().Report(obs::kSloWindowMinute, 1.0);
  EXPECT_EQ(r.latency_count, 50u);
  EXPECT_EQ(r.total, 50u);
  EXPECT_EQ(r.errors, 5u);
  EXPECT_GT(r.p50_micros, 0.0);

  // The republished gauges land in the registry and render on /metrics.
  const std::string text = obs::PrometheusText(registry);
  EXPECT_NE(text.find("ssr_slo_burn_rate"), std::string::npos);
  EXPECT_NE(text.find("ssr_health_verdict"), std::string::npos);
  const auto issues = obs::ValidateExposition(text);
  EXPECT_TRUE(issues.empty()) << obs::FormatIssues(issues);
}

// TSan-facing: scrape /metrics continuously while worker threads mutate
// the same registry. Every scrape must validate — in particular no torn
// histogram family (`_count` != the +Inf bucket), which is exactly what a
// non-snapshot renderer produces under concurrent Observe calls.
TEST(IntrospectionServerTest, ConcurrentScrapesStayConsistent) {
  obs::MetricsRegistry registry;
  IntrospectionServer server(ManualTickOptions(), &registry);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int w = 0; w < 3; ++w) {
    writers.emplace_back([&registry, &stop, w]() {
      const std::string scope = "shard/" + std::to_string(w);
      obs::Histogram* h = registry.GetHistogram(
          "ssr_index_query_latency_micros", scope,
          obs::LatencyBoundsMicros());
      obs::Counter* c =
          registry.GetCounter("ssr_index_queries_total", scope);
      std::uint64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        h->Observe(static_cast<double>((i * 37) % 5000));
        c->Increment();
        ++i;
      }
    });
  }

  HttpRequest scrape;
  scrape.method = "GET";
  scrape.path = "/metrics";
  int validated = 0;
  for (int round = 0; round < 40; ++round) {
    const HttpResponse response = server.Handle(scrape);
    ASSERT_EQ(response.status, 200);
    const auto issues = obs::ValidateExposition(response.body);
    ASSERT_TRUE(issues.empty())
        << "scrape " << round << " torn:\n" << obs::FormatIssues(issues);
    ++validated;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(validated, 40);
}

// Stands up real components against the process-wide registry (a sharded
// index that rebalances and serves queries, plus the server's own
// instruments) and then sweeps every registered entry: each must carry a
// # HELP entry and a grammar-valid name, or /metrics would ship a
// nonconformant family. ctest runs each discovered test in its own
// process, so the test populates the registry itself rather than relying
// on siblings.
TEST(IntrospectionServerTest, DefaultRegistryMetricsAllConform) {
  const SetCollection sets = MakeSets(60);
  auto built = shard::ShardedSetSimilarityIndex::Build(sets, TestLayout(),
                                                       TestOptions(2));
  ASSERT_TRUE(built.ok());
  ASSERT_TRUE(built->RebalanceTo(3).ok());  // registers ssr_rebalance_*
  ASSERT_TRUE(built->Query(sets[0], 0.5, 1.0).ok());
  IntrospectionServer server(ManualTickOptions());  // default registry
  server.Tick(0.0);  // republishes the ssr_slo_* / ssr_health_verdict gauges

  const auto entries = obs::MetricsRegistry::Default().Entries();
  EXPECT_FALSE(entries.empty());
  for (const auto& entry : entries) {
    EXPECT_TRUE(obs::IsValidMetricName(entry.name)) << entry.name;
    EXPECT_NE(obs::MetricHelp(entry.name), nullptr)
        << entry.name << " has no # HELP entry in obs/exposition.cc";
  }
}

}  // namespace
}  // namespace server
}  // namespace ssr
