// Environment fingerprint stamped into every RunReport "env" section, so a
// BENCH_*.json trajectory point is self-describing: a perf delta between
// two points is only meaningful when their fingerprints match (same
// hardware, governor, compiler, commit, and SIMD kernel level).

#ifndef SSR_EVAL_ENV_FINGERPRINT_H_
#define SSR_EVAL_ENV_FINGERPRINT_H_

#include <cstdint>
#include <string>

namespace ssr {

namespace obs {
class JsonWriter;
}  // namespace obs

/// Fields default to "unknown" when a source is unavailable (non-Linux,
/// stripped container, no git checkout at configure time).
struct EnvFingerprint {
  std::string git_sha;     // SSR_GIT_SHA env var, else configure-time sha
  std::string compiler;    // e.g. "gcc 13.2.0"
  std::string build_type;  // configure-time CMAKE_BUILD_TYPE
  std::string cpu_model;   // /proc/cpuinfo "model name"
  std::uint32_t num_cores = 0;
  std::string governor;    // cpu0 scaling_governor, e.g. "performance"
  std::string os;          // uname sysname/release
  std::string simd;        // kernel level util/simd.h resolved: "avx512",
                           // "avx2" or "scalar"
};

/// Collects the fingerprint for the running process. Cheap enough to call
/// per report; no caching.
EnvFingerprint CollectEnvFingerprint();

/// Appends the fingerprint as a JSON object value.
void WriteEnvJson(obs::JsonWriter& writer, const EnvFingerprint& env);

}  // namespace ssr

#endif  // SSR_EVAL_ENV_FINGERPRINT_H_
