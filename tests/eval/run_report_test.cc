#include "eval/run_report.h"

#include <gtest/gtest.h>

#include <string>

#include "eval/env_fingerprint.h"
#include "obs/json_writer.h"

namespace ssr {
namespace {

TEST(RunReportTest, SchemaVersionLeadsTheReport) {
  RunReport report("unit");
  const std::string json = report.ToJson();
  EXPECT_EQ(json.rfind("{\"schema_version\":2,\"bench\":\"unit\",", 0), 0u)
      << json.substr(0, 80);
  EXPECT_EQ(RunReport::kSchemaVersion, 2u);
}

TEST(RunReportTest, EnvSectionCarriesTheFingerprint) {
  RunReport report("unit");
  const std::string json = report.ToJson();
  const std::size_t env_pos = json.find("\"env\":{");
  ASSERT_NE(env_pos, std::string::npos);
  // Every fingerprint field is present (values are machine-dependent).
  for (const char* key :
       {"\"git_sha\":", "\"compiler\":", "\"build_type\":", "\"cpu_model\":",
        "\"num_cores\":", "\"governor\":", "\"os\":"}) {
    EXPECT_NE(json.find(key, env_pos), std::string::npos) << key;
  }
  // env precedes params: tooling reads the fingerprint without scanning.
  EXPECT_LT(env_pos, json.find("\"params\":"));
}

TEST(RunReportTest, ProfileSectionPresentBetweenMetricsAndTrace) {
  RunReport report("unit");
  const std::string json = report.ToJson();
  const std::size_t metrics_pos = json.find("\"metrics\":");
  const std::size_t profile_pos = json.find("\"profile\":{\"source\":");
  const std::size_t trace_pos = json.find("\"trace\":");
  ASSERT_NE(metrics_pos, std::string::npos);
  ASSERT_NE(profile_pos, std::string::npos);
  ASSERT_NE(trace_pos, std::string::npos);
  EXPECT_LT(metrics_pos, profile_pos);
  EXPECT_LT(profile_pos, trace_pos);
}

TEST(RunReportTest, ParamsAndScalarsRenderTyped) {
  RunReport report("unit");
  report.AddParam("dataset", "set1");
  report.AddParam("quick", true);
  report.AddParam("budget", std::uint64_t{300});
  report.AddScalar("latency_ns", 1.5);
  report.AddScalar("queries", std::uint64_t{42});
  const std::string json = report.ToJson();
  EXPECT_NE(json.find("\"params\":{\"dataset\":\"set1\",\"quick\":true,"
                      "\"budget\":300}"),
            std::string::npos);
  EXPECT_NE(json.find("\"scalars\":{\"latency_ns\":1.5,\"queries\":42}"),
            std::string::npos);
}

TEST(EnvFingerprintTest, CollectsNonEmptyFieldsAndHonorsShaOverride) {
  ASSERT_EQ(setenv("SSR_GIT_SHA", "deadbeef1234", 1), 0);
  const EnvFingerprint env = CollectEnvFingerprint();
  EXPECT_EQ(env.git_sha, "deadbeef1234");
  EXPECT_FALSE(env.compiler.empty());
  EXPECT_FALSE(env.os.empty());
  EXPECT_GE(env.num_cores, 1u);
  EXPECT_TRUE(env.simd == "avx512" || env.simd == "avx2" ||
              env.simd == "scalar")
      << env.simd;
  ASSERT_EQ(unsetenv("SSR_GIT_SHA"), 0);

  obs::JsonWriter writer;
  WriteEnvJson(writer, env);
  EXPECT_NE(writer.str().find("\"git_sha\":\"deadbeef1234\""),
            std::string::npos);
  EXPECT_NE(writer.str().find("\"simd\":\"" + env.simd + "\""),
            std::string::npos);
}

}  // namespace
}  // namespace ssr
