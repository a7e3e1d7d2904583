#include "eval/env_fingerprint.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#endif

#include "obs/json_writer.h"
#include "util/simd.h"

namespace ssr {

namespace {

constexpr const char* kUnknown = "unknown";

std::string FirstLineOf(const char* path) {
  std::ifstream in(path);
  std::string line;
  if (!in.is_open() || !std::getline(in, line) || line.empty()) return "";
  return line;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.compare(0, 10, "model name") == 0) {
      std::size_t start = colon + 1;
      while (start < line.size() && line[start] == ' ') ++start;
      return line.substr(start);
    }
  }
  return kUnknown;
}

std::string CompilerId() {
#if defined(__clang__)
  std::ostringstream out;
  out << "clang " << __clang_major__ << "." << __clang_minor__ << "."
      << __clang_patchlevel__;
  return out.str();
#elif defined(__GNUC__)
  std::ostringstream out;
  out << "gcc " << __GNUC__ << "." << __GNUC_MINOR__ << "."
      << __GNUC_PATCHLEVEL__;
  return out.str();
#else
  return kUnknown;
#endif
}

std::string OsId() {
#if defined(__unix__) || defined(__APPLE__)
  utsname info;
  if (uname(&info) == 0) {
    return std::string(info.sysname) + " " + info.release;
  }
#endif
  return kUnknown;
}

}  // namespace

EnvFingerprint CollectEnvFingerprint() {
  EnvFingerprint env;

  // Runtime override first (CI stamps the exact commit being tested even
  // when the build tree was configured earlier), then the sha CMake baked
  // in at configure time.
  const char* sha_env = std::getenv("SSR_GIT_SHA");
  if (sha_env != nullptr && sha_env[0] != '\0') {
    env.git_sha = sha_env;
  } else {
#if defined(SSR_GIT_SHA)
    env.git_sha = SSR_GIT_SHA;
#else
    env.git_sha = kUnknown;
#endif
  }

  env.compiler = CompilerId();
#if defined(SSR_BUILD_TYPE)
  env.build_type = SSR_BUILD_TYPE;
#else
  env.build_type = kUnknown;
#endif
  env.cpu_model = CpuModel();
  env.num_cores = std::thread::hardware_concurrency();
  const std::string governor =
      FirstLineOf("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor");
  env.governor = governor.empty() ? kUnknown : governor;
  env.os = OsId();
  env.simd = simd::Avx512Runtime() ? "avx512"
             : simd::Avx2Runtime() ? "avx2"
                                   : "scalar";
  return env;
}

void WriteEnvJson(obs::JsonWriter& writer, const EnvFingerprint& env) {
  writer.BeginObject();
  writer.Key("git_sha").String(env.git_sha);
  writer.Key("compiler").String(env.compiler);
  writer.Key("build_type").String(env.build_type);
  writer.Key("cpu_model").String(env.cpu_model);
  writer.Key("num_cores").UInt(env.num_cores);
  writer.Key("governor").String(env.governor);
  writer.Key("os").String(env.os);
  writer.Key("simd").String(env.simd);
  writer.EndObject();
}

}  // namespace ssr
