// Shared plumbing for the self-timed benches: the DDTR_BENCH_SCALE trace
// length knob (default 1.0, the paper's lengths) and BenchJson, the
// provenance-stamped JSON line each measurement is emitted as. CMake
// defines the provenance macros DDTR_GIT_SHA and DDTR_BUILD_FLAGS for
// every bench target (the bench foreach in CMakeLists.txt).
#pragma once

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "api/ddtr.h"
#include "ddt/kinds.h"

namespace ddtr::bench {

inline double bench_scale() {
  if (const char* env = std::getenv("DDTR_BENCH_SCALE")) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 1.0;
}

inline core::CaseStudyOptions bench_options() {
  return core::CaseStudyOptions{}.scaled(bench_scale());
}

// Minimal JSON string escaping for the provenance fields: compiler
// version strings are free-form text and must not be able to break the
// object framing.
inline std::string bench_json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out.push_back(c);
  }
  return out;
}

inline std::string bench_compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// Machine-readable bench results: one JSON object per bench run, written
// to stdout and appended (one object per line) to $DDTR_BENCH_JSON when
// set — the interchange format for BENCH_*.json trajectories.
class BenchJson {
 public:
  explicit BenchJson(std::string bench_name) {
    os_ << "{\"bench\":\"" << bench_name << "\",\"scale\":" << bench_scale();
    // Provenance: a trajectory point is only comparable to another one
    // when the commit, compiler, flags and accounting version match —
    // every line records them instead of relying on file names to.
    os_ << ",\"meta\":{\"git_sha\":\"" << bench_json_escape(DDTR_GIT_SHA)
        << "\",\"compiler\":\"" << bench_json_escape(bench_compiler_id())
        << "\",\"flags\":\"" << bench_json_escape(DDTR_BUILD_FLAGS)
        << "\",\"hw_threads\":" << std::thread::hardware_concurrency()
        << ",\"accounting_version\":" << ddt::kDdtAccountingVersion << '}';
  }

  BenchJson& field(const std::string& name, double value) {
    os_ << ",\"" << name << "\":" << value;
    return *this;
  }
  BenchJson& field(const std::string& name, std::uint64_t value) {
    os_ << ",\"" << name << "\":" << value;
    return *this;
  }
  BenchJson& field(const std::string& name, bool value) {
    os_ << ",\"" << name << "\":" << (value ? "true" : "false");
    return *this;
  }
  BenchJson& field(const std::string& name, const std::string& value) {
    os_ << ",\"" << name << "\":\"" << value << '"';
    return *this;
  }
  // Opaque pre-rendered JSON (arrays / nested objects).
  BenchJson& raw(const std::string& name, const std::string& json) {
    os_ << ",\"" << name << "\":" << json;
    return *this;
  }

  std::string str() const { return os_.str() + "}"; }

  // Prints the object and appends it to $DDTR_BENCH_JSON if set.
  void emit() const {
    const std::string line = str();
    std::cout << line << '\n';
    if (const char* path = std::getenv("DDTR_BENCH_JSON")) {
      std::ofstream os(path, std::ios::app);
      if (os) os << line << '\n';
    }
  }

 private:
  std::ostringstream os_;
};

}  // namespace ddtr::bench

