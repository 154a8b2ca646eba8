// Observability layer (src/obs/): the span timeline is ddtr's one
// observation channel beside the counts reports carry. Checked here:
// trace_event JSON validity (via the same check_trace the `ddtr
// tracecheck` subcommand uses), span args, and the load-bearing
// acceptance check: tracing a run is observation-only — a warm rerun
// with a live trace sink still executes ZERO simulations and serializes
// byte-identical records.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

#include "api/ddtr.h"
#include "obs/trace.h"

namespace ddtr::obs {
namespace {

core::CaseStudyOptions tiny_options() {
  core::CaseStudyOptions options;
  options.packets = 200;
  return options;
}

TEST(Trace, BalancedSpansValidateAndNullWriterIsDisabled) {
  TraceWriter w;
  {
    SpanScope outer(&w, "outer", "test");
    SpanScope inner(&w, "inner", "test");
  }
  EXPECT_EQ(w.event_count(), 4u);  // 2x begin + 2x end
  EXPECT_EQ(check_trace(w.str()), "");
  // Instant events (ph "i") from other tools' traces validate too.
  EXPECT_EQ(check_trace("{\"traceEvents\":[{\"name\":\"x\",\"cat\":\"c\","
                        "\"ph\":\"i\",\"ts\":1,\"pid\":1,\"tid\":1}]}"),
            "");
  SpanScope disabled(nullptr, "x", "y");  // null sink: must be a no-op
}

TEST(Trace, SpanArgsSerializeAndValidate) {
  TraceWriter w;
  {
    SpanScope span(&w, "fan", "explore");
    span.arg("units", std::uint64_t{42}).arg("mode", "greedy");
  }
  const std::string json = w.str();
  EXPECT_EQ(check_trace(json), "");
  // Counters ride the end event.
  EXPECT_NE(json.find("\"args\":{\"units\":42,\"mode\":\"greedy\"}"),
            std::string::npos);
  // An argless begin stays lean: no empty "args" objects in the stream.
  EXPECT_EQ(json.find("\"args\":{}"), std::string::npos);

  // arg() on a disabled span must not copy keys anywhere.
  SpanScope disabled(nullptr, "x", "y");
  disabled.arg("units", std::uint64_t{1});
}

TEST(Trace, CheckTraceRejectsBadArgs) {
  // "args" must be an object...
  EXPECT_NE(check_trace("{\"traceEvents\":[{\"name\":\"x\",\"cat\":\"c\","
                        "\"ph\":\"i\",\"ts\":1,\"pid\":1,\"tid\":1,"
                        "\"args\":[1]}]}"),
            "");
  // ...of string or number values only.
  EXPECT_NE(check_trace("{\"traceEvents\":[{\"name\":\"x\",\"cat\":\"c\","
                        "\"ph\":\"i\",\"ts\":1,\"pid\":1,\"tid\":1,"
                        "\"args\":{\"k\":[1]}}]}"),
            "");
  EXPECT_EQ(check_trace("{\"traceEvents\":[{\"name\":\"x\",\"cat\":\"c\","
                        "\"ph\":\"i\",\"ts\":1,\"pid\":1,\"tid\":1,"
                        "\"args\":{\"k\":1,\"s\":\"v\"}}]}"),
            "");
}

TEST(Trace, CheckTraceRejectsMalformedDocuments) {
  EXPECT_NE(check_trace(""), "");
  EXPECT_NE(check_trace("not json"), "");
  EXPECT_NE(check_trace("{\"traceEvents\":17}"), "");
  EXPECT_NE(check_trace("{\"traceEvents\":[{\"name\":\"x\"}]}"), "");

  TraceWriter orphan_end;
  orphan_end.end("orphan", "test");
  EXPECT_NE(check_trace(orphan_end.str()), "");

  TraceWriter unclosed;
  unclosed.begin("a", "test");
  EXPECT_NE(check_trace(unclosed.str()), "");

  // Non-LIFO interleave on one thread is not a legal span nesting.
  TraceWriter crossed;
  crossed.begin("a", "test");
  crossed.begin("b", "test");
  crossed.end("a", "test");
  crossed.end("b", "test");
  EXPECT_NE(check_trace(crossed.str()), "");
}

// The acceptance check from the ISSUE: a parallel exploration with a
// trace sink produces a valid, balanced trace, and tracing never touches
// the output — the warm rerun (trace still attached) executes zero
// simulations and its records are byte-identical to the cold run's.
TEST(Trace, ParallelExplorationTraceIsValidAndOutputInvariant) {
  namespace fs = std::filesystem;
  const std::string dir =
      (fs::temp_directory_path() /
       ("ddtr_obs_trace_test_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);

  TraceWriter cold_trace;
  api::Exploration cold(api::registry().make_study("url", tiny_options()));
  const core::ExplorationReport& cold_report =
      cold.jobs(4).cache_dir(dir).trace_sink(&cold_trace).run();
  EXPECT_GT(cold_report.executed_simulations(), 0u);
  // Spans cover the run plus every simulation fanned over the pool.
  EXPECT_GT(cold_trace.event_count(),
            2 * cold_report.executed_simulations());
  EXPECT_EQ(check_trace(cold_trace.str()), "") << "cold trace invalid";
  // The engine's spans carry their unit counts (step fans, select,
  // aggregate) as per-span args.
  EXPECT_NE(cold_trace.str().find("\"args\":{"), std::string::npos);
  // Every kernel span names its app, scenario and combination, so a
  // trace alone attributes kernel time per DDT kind.
  const std::string cold_json = cold_trace.str();
  std::size_t kernel_ends = 0;
  for (std::size_t at = cold_json.find("{\"name\":\"kernel\"");
       at != std::string::npos;
       at = cold_json.find("{\"name\":\"kernel\"", at + 1)) {
    const std::string event =
        cold_json.substr(at, cold_json.find('}', at) - at);
    if (event.find("\"ph\":\"E\"") == std::string::npos) continue;
    ++kernel_ends;
    EXPECT_NE(event.find("\"args\":{\"app\":\"URL\",\"scenario\":\""),
              std::string::npos)
        << event;
    EXPECT_NE(event.find("\"combination\":\""), std::string::npos) << event;
  }
  EXPECT_EQ(kernel_ends, cold_report.kernel_runs);

  TraceWriter warm_trace;
  api::Exploration warm(api::registry().make_study("url", tiny_options()));
  const core::ExplorationReport& warm_report =
      warm.jobs(4).cache_dir(dir).trace_sink(&warm_trace).run();
  EXPECT_EQ(warm_report.executed_simulations(), 0u);
  EXPECT_EQ(warm_report.serialized_records(),
            cold_report.serialized_records());
  EXPECT_EQ(check_trace(warm_trace.str()), "") << "warm trace invalid";

  // And an untraced warm run matches too: the sink changes nothing.
  api::Exploration untraced(api::registry().make_study("url", tiny_options()));
  const core::ExplorationReport& untraced_report =
      untraced.jobs(2).cache_dir(dir).run();
  EXPECT_EQ(untraced_report.serialized_records(),
            cold_report.serialized_records());

  // write() round-trips through disk and still validates — the same
  // bytes `ddtr explore --trace FILE` hands to `ddtr tracecheck`.
  const std::string trace_path = dir + "/trace.json";
  {
    std::ofstream os(trace_path, std::ios::trunc);
    cold_trace.write(os);
    ASSERT_TRUE(os.good());
  }
  std::ifstream is(trace_path, std::ios::binary);
  std::stringstream buffer;
  buffer << is.rdbuf();
  EXPECT_EQ(check_trace(buffer.str()), "");

  fs::remove_all(dir);
}

}  // namespace
}  // namespace ddtr::obs
