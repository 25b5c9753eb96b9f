#include "obs/trace.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/live_sampler.h"
#include "sim/tpart_sim.h"
#include "workload/micro.h"

namespace tpart {
namespace {

// ---------------------------------------------------------------------
// Minimal JSON parser: enough to validate the Chrome trace-event output
// and walk its events. Rejects anything malformed.
// ---------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  const JsonValue* Get(const std::string& key) const {
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    return p_ == end_;  // no trailing garbage
  }

 private:
  void SkipWs() {
    while (p_ < end_ && std::isspace(static_cast<unsigned char>(*p_))) ++p_;
  }

  bool Consume(char c) {
    if (p_ < end_ && *p_ == c) {
      ++p_;
      return true;
    }
    return false;
  }

  bool ParseValue(JsonValue* out) {
    if (p_ >= end_) return false;
    switch (*p_) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->str);
      case 't':
      case 'f':
        return ParseBool(out);
      case 'n':
        out->kind = JsonValue::Kind::kNull;
        return ParseLiteral("null");
      default:
        out->kind = JsonValue::Kind::kNumber;
        return ParseNumber(&out->number);
    }
  }

  bool ParseLiteral(const char* lit) {
    while (*lit != '\0') {
      if (p_ >= end_ || *p_ != *lit) return false;
      ++p_;
      ++lit;
    }
    return true;
  }

  bool ParseBool(JsonValue* out) {
    out->kind = JsonValue::Kind::kBool;
    if (*p_ == 't') {
      out->boolean = true;
      return ParseLiteral("true");
    }
    out->boolean = false;
    return ParseLiteral("false");
  }

  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    while (p_ < end_ && *p_ != '"') {
      if (*p_ == '\\') {
        ++p_;
        if (p_ >= end_) return false;
        switch (*p_) {
          case '"':
            out->push_back('"');
            break;
          case '\\':
            out->push_back('\\');
            break;
          case '/':
            out->push_back('/');
            break;
          case 'b':
          case 'f':
          case 'n':
          case 'r':
          case 't':
            out->push_back(' ');
            break;
          case 'u': {
            for (int i = 0; i < 4; ++i) {
              ++p_;
              if (p_ >= end_ ||
                  !std::isxdigit(static_cast<unsigned char>(*p_))) {
                return false;
              }
            }
            out->push_back('?');
            break;
          }
          default:
            return false;  // invalid escape
        }
        ++p_;
      } else if (static_cast<unsigned char>(*p_) < 0x20) {
        return false;  // unescaped control character
      } else {
        out->push_back(*p_);
        ++p_;
      }
    }
    return Consume('"');
  }

  bool ParseNumber(double* out) {
    const char* start = p_;
    if (p_ < end_ && *p_ == '-') ++p_;
    while (p_ < end_ && (std::isdigit(static_cast<unsigned char>(*p_)) ||
                         *p_ == '.' || *p_ == 'e' || *p_ == 'E' ||
                         *p_ == '+' || *p_ == '-')) {
      ++p_;
    }
    if (p_ == start) return false;
    *out = std::strtod(std::string(start, p_).c_str(), nullptr);
    return true;
  }

  bool ParseObject(JsonValue* out) {
    out->kind = JsonValue::Kind::kObject;
    if (!Consume('{')) return false;
    SkipWs();
    if (Consume('}')) return true;
    while (true) {
      SkipWs();
      std::string key;
      if (!ParseString(&key)) return false;
      SkipWs();
      if (!Consume(':')) return false;
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->object.emplace(std::move(key), std::move(value));
      SkipWs();
      if (Consume('}')) return true;
      if (!Consume(',')) return false;
    }
  }

  bool ParseArray(JsonValue* out) {
    out->kind = JsonValue::Kind::kArray;
    if (!Consume('[')) return false;
    SkipWs();
    if (Consume(']')) return true;
    while (true) {
      SkipWs();
      JsonValue value;
      if (!ParseValue(&value)) return false;
      out->array.push_back(std::move(value));
      SkipWs();
      if (Consume(']')) return true;
      if (!Consume(',')) return false;
    }
  }

  const char* p_;
  const char* end_;
};

JsonValue ParseTrace(const std::string& json) {
  JsonValue root;
  EXPECT_TRUE(JsonParser(json).Parse(&root)) << "malformed JSON";
  EXPECT_EQ(root.kind, JsonValue::Kind::kObject);
  const JsonValue* events = root.Get("traceEvents");
  EXPECT_NE(events, nullptr);
  EXPECT_EQ(events->kind, JsonValue::Kind::kArray);
  return root;
}

JsonValue ParseTrace(const obs::TraceRecorder& rec) {
  return ParseTrace(rec.ToJson());
}

/// Per (pid, tid): every E closes an earlier B (nesting never goes
/// negative) and, when `closed`, every B is closed. Returns the E count.
int ExpectBalancedSpans(const JsonValue& root, bool closed) {
  std::map<std::pair<int, int>, int> depth;
  int ends = 0;
  for (const JsonValue& e : root.Get("traceEvents")->array) {
    const std::string& ph = e.Get("ph")->str;
    const auto track = std::make_pair(
        static_cast<int>(e.Get("pid")->number),
        static_cast<int>(e.Get("tid")->number));
    if (ph == "B") ++depth[track];
    if (ph == "E") {
      ++ends;
      --depth[track];
      EXPECT_GE(depth[track], 0) << "End without Begin on a thread";
    }
  }
  if (closed) {
    for (const auto& [track, d] : depth) {
      EXPECT_EQ(d, 0) << "unbalanced spans on tid " << track.second;
    }
  }
  return ends;
}

obs::TraceRecorder::Options Manual() {
  obs::TraceRecorder::Options o;
  o.domain = obs::TraceRecorder::ClockDomain::kManual;
  return o;
}

obs::TraceRecorder::Options Ring(std::size_t n) {
  obs::TraceRecorder::Options o;
  o.ring_size = n;
  return o;
}

std::string ReadFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  if (f == nullptr) return {};
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  std::fclose(f);
  return content;
}

// ---------------------------------------------------------------------
// Recorder unit tests
// ---------------------------------------------------------------------

TEST(TraceRecorderTest, ManualClockIsMonotonicMax) {
  obs::TraceRecorder rec(Manual());
  EXPECT_EQ(rec.NowNs(), 0u);
  rec.AdvanceTo(1000);
  EXPECT_EQ(rec.NowNs(), 1000u);
  rec.AdvanceTo(500);  // never moves backwards
  EXPECT_EQ(rec.NowNs(), 1000u);
  rec.AdvanceTo(2000);
  EXPECT_EQ(rec.NowNs(), 2000u);
}

TEST(TraceRecorderTest, EmitsWellFormedJsonForEveryEventKind) {
  obs::TraceRecorder rec(Manual());
  rec.SetProcessName(0, "control");
  rec.SetProcessName(1, "machine-0");
  rec.SetThreadInfo(0, "main");
  rec.AdvanceTo(100);
  rec.Begin("outer", "test", {{"k", 1}, {"j", 2}});
  rec.Instant("marker", "test", {}, "free-text with \"quotes\" and \\ and\nnewline");
  rec.Counter("depth", 7);
  rec.FlowStart("push", 0xabcdef);
  rec.FlowEnd("push", 0xabcdef);
  rec.AsyncBegin("txn", "lifecycle", 42);
  rec.AsyncEnd("txn", "lifecycle", 42);
  rec.End();
  rec.CompleteAt(1, 0, "sim_txn", "exec", 50, 25, {{"txn", 9}});
  rec.InstantAt(1, 0, "stall", "exec", 60);
  rec.CounterAt(1, "queue", 70, 3);
  rec.FlowStartAt(1, 0, "push", 55, 0x99);
  rec.FlowEndAt(1, 0, "push", 65, 0x99);

  const JsonValue root = ParseTrace(rec);
  const JsonValue& events = *root.Get("traceEvents");

  std::map<std::string, int> ph_count;
  for (const JsonValue& e : events.array) {
    ASSERT_EQ(e.kind, JsonValue::Kind::kObject);
    ASSERT_NE(e.Get("ph"), nullptr);
    ASSERT_NE(e.Get("pid"), nullptr);
    ASSERT_NE(e.Get("tid"), nullptr);
    ++ph_count[e.Get("ph")->str];
  }
  EXPECT_EQ(ph_count["M"], 3);  // 2 process names + 1 thread name
  EXPECT_EQ(ph_count["B"], 1);
  EXPECT_EQ(ph_count["E"], 1);
  EXPECT_EQ(ph_count["i"], 2);
  EXPECT_EQ(ph_count["C"], 2);
  EXPECT_EQ(ph_count["s"], 2);
  EXPECT_EQ(ph_count["f"], 2);
  EXPECT_EQ(ph_count["b"], 1);
  EXPECT_EQ(ph_count["e"], 1);
  EXPECT_EQ(ph_count["X"], 1);
  EXPECT_EQ(rec.event_count(), 13u);
}

TEST(TraceRecorderTest, SpanBeginEndBalancePerThread) {
  obs::TraceRecorder rec;
  obs::InstallGlobalTrace(&rec);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&rec, t] {
      rec.SetThreadInfo(0, "worker");
      for (int i = 0; i < 50; ++i) {
        TPART_TRACE_SPAN("outer", "test", {{"t", static_cast<std::uint64_t>(t)}});
        TPART_TRACE_SPAN("inner", "test");
        TPART_TRACE(Instant("tick", "test"));
      }
    });
  }
  for (auto& t : threads) t.join();
  obs::InstallGlobalTrace(nullptr);

  // Events are exported in per-thread emission order.
  ExpectBalancedSpans(ParseTrace(rec), /*closed=*/true);
}

TEST(TraceRecorderTest, NoRecorderInstalledMeansMacrosAreNoOps) {
  ASSERT_EQ(obs::GlobalTrace(), nullptr);
  // Must not crash, and a later-created recorder must stay empty.
  TPART_TRACE(Instant("nothing", "test"));
  TPART_TRACE_SPAN("nothing", "test");
  obs::TraceRecorder rec;
  EXPECT_EQ(rec.event_count(), 0u);
  TPART_TRACE(Instant("still-nothing", "test"));
  EXPECT_EQ(rec.event_count(), 0u);  // never installed
}

TEST(TraceRecorderTest, DestructorUninstallsItself) {
  {
    obs::TraceRecorder rec;
    obs::InstallGlobalTrace(&rec);
    EXPECT_EQ(obs::GlobalTrace(), &rec);
  }
  EXPECT_EQ(obs::GlobalTrace(), nullptr);
}

TEST(TraceRecorderTest, WriteJsonRoundTrips) {
  obs::TraceRecorder rec(Manual());
  rec.SetThreadInfo(0, "main");
  rec.Instant("only", "test");
  const std::string path =
      ::testing::TempDir() + "/tpart_trace_test_out.json";
  ASSERT_TRUE(rec.WriteJson(path).ok());
  EXPECT_EQ(ReadFile(path), rec.ToJson());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Last-N retention (the black box) and post-mortems
// ---------------------------------------------------------------------

TEST(TraceRingTest, RecordsAndDumpsChromeTracePostmortem) {
  obs::TraceRecorder rec(Ring(4096));
  rec.Instant("admit_batch", "test", {{"txns", 100}});
  rec.Instant("schedule_round", "test", {{"epoch", 1}, {"txns", 20}});
  std::thread t([&] {
    rec.Instant("execute", "test", {{"txn", 7}});
    rec.Instant("crash_stop", "test", {{"machine", 1}});
  });
  t.join();
  EXPECT_EQ(rec.event_count(), 4u);
  EXPECT_EQ(rec.dumps(), 0u);

  ASSERT_TRUE(rec.DumpPostmortem("crash").ok());
  EXPECT_EQ(rec.dumps(), 1u);
  const std::string json = rec.last_dump_json();
  const JsonValue root = ParseTrace(json);
  for (const char* name :
       {"admit_batch", "schedule_round", "execute", "crash_stop"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(name) + "\""),
              std::string::npos)
        << name;
  }
  // The dump marker and the reason-carrying post-mortem event close the
  // trace, in that order.
  const auto& events = root.Get("traceEvents")->array;
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events[events.size() - 2].Get("name")->str, "postmortem_dump");
  EXPECT_EQ(events.back().Get("name")->str, "postmortem");
  EXPECT_EQ(events.back().Get("args")->Get("reason")->str, "crash");
}

TEST(TraceRingTest, BoundedRingOverwritesOldest) {
  obs::TraceRecorder rec(Ring(16));
  for (std::uint64_t i = 0; i < 100; ++i) {
    rec.Instant("execute", "test", {{"txn", i}});
  }
  EXPECT_EQ(rec.event_count(), 100u);
  const std::string json = rec.ToJson();
  // Only the newest 16 survive: txn 84..99.
  EXPECT_EQ(json.find("\"txn\":83}"), std::string::npos);
  EXPECT_NE(json.find("\"txn\":84}"), std::string::npos);
  EXPECT_NE(json.find("\"txn\":99}"), std::string::npos);
  EXPECT_EQ(ParseTrace(json).Get("traceEvents")->array.size(), 16u);
}

TEST(TraceRingTest, NestedSpansPastRingRenderNoOrphanEnd) {
  obs::TraceRecorder rec(Ring(16));
  std::thread t([&rec] {
    rec.SetThreadInfo(1, "executor");
    for (std::uint64_t i = 0; i < 40; ++i) {
      obs::TraceSpan outer(&rec, "round", "test", {{"i", i}});
      obs::TraceSpan mid(&rec, "txn", "test");
      obs::TraceSpan inner(&rec, "gather", "test");
      rec.Instant("tick", "test");
    }
  });
  t.join();
  EXPECT_EQ(rec.event_count(), 40u * 7);
  // The ring's oldest retained events include Ends whose Begins were
  // overwritten; the renderer drops those, so nesting never goes
  // negative, and the newest spans still close.
  EXPECT_GT(ExpectBalancedSpans(ParseTrace(rec), /*closed=*/false), 0);
}

TEST(TraceRingTest, DumpWritesFileAndGlobalInstallWorks) {
  const std::string path = ::testing::TempDir() + "trace_postmortem.json";
  obs::TraceRecorder::Options o = Ring(64);
  o.dump_path = path;
  obs::TraceRecorder rec(o);
  EXPECT_EQ(obs::InstallGlobalTrace(&rec), nullptr);
  EXPECT_EQ(obs::GlobalTrace(), &rec);

  TPART_TRACE(Instant("stall_diagnostic", "fault", {{"machine", 1}},
                      "executor waiting"));
  TPART_TRACE_DUMP("stall");
#if !defined(TPART_TRACING_DISABLED)
  EXPECT_EQ(rec.event_count(), 2u);  // the marker + postmortem_dump
  EXPECT_EQ(rec.dumps(), 1u);
  const std::string text = ReadFile(path);
  EXPECT_EQ(text, rec.last_dump_json());
  EXPECT_NE(text.find("\"name\":\"stall_diagnostic\""), std::string::npos);
  EXPECT_NE(text.find("\"detail\":\"executor waiting\""),
            std::string::npos);
  EXPECT_NE(text.find("\"reason\":\"stall\""), std::string::npos);
#else
  // Macros compile to nothing; the recorder itself still works directly.
  EXPECT_EQ(rec.event_count(), 0u);
  EXPECT_EQ(rec.dumps(), 0u);
#endif

  EXPECT_EQ(obs::InstallGlobalTrace(nullptr), &rec);
  std::remove(path.c_str());
}

TEST(TraceRingTest, PostmortemEscapesReasonAndCarriesRunContext) {
  obs::TraceRecorder rec(Ring(16));
  rec.Instant("execute", "test", {{"txn", 1}});
  rec.SetRunContext("seed 7; links\tpart{1}");
  ASSERT_TRUE(rec.DumpPostmortem("line1\nline2 \"quoted\"").ok());
  const std::string json = rec.last_dump_json();
  EXPECT_NE(json.find("line1\\nline2 \\\"quoted\\\""), std::string::npos);
  // Parses (the parser rejects raw control characters) with the tab
  // escaped in the top-level runContext key.
  EXPECT_NE(ParseTrace(json).Get("runContext"), nullptr);
  EXPECT_NE(json.find("\"runContext\":\"seed 7; links\\tpart{1}\""),
            std::string::npos);
  // A plain export carries neither the reason nor the run context.
  EXPECT_EQ(rec.ToJson().find("runContext"), std::string::npos);
}

// ---------------------------------------------------------------------
// Simulator traces
// ---------------------------------------------------------------------

Workload TraceMicro() {
  MicroOptions o;
  o.num_machines = 4;
  o.records_per_machine = 2000;
  o.hot_set_size = 100;
  o.num_txns = 800;
  return MakeMicroWorkload(o);
}

std::string SimTraceJson() {
  obs::TraceRecorder rec(Manual());
  obs::InstallGlobalTrace(&rec);
  const Workload w = TraceMicro();
  TPartSimOptions o;
  o.num_machines = 4;
  o.scheduler.sink_size = 50;
  RunTPartSim(o, w.partition_map, w.SequencedRequests());
  obs::InstallGlobalTrace(nullptr);
  return rec.ToJson();
}

TEST(TraceSimTest, SameSeedRunsProduceByteIdenticalTraces) {
  const std::string a = SimTraceJson();
  const std::string b = SimTraceJson();
  EXPECT_FALSE(a.empty());
  EXPECT_EQ(a, b) << "manual-domain simulator traces must be deterministic";
}

TEST(TraceSimTest, SimTraceCoversTxnsFlowsAndScheduler) {
#if defined(TPART_TRACING_DISABLED)
  GTEST_SKIP() << "instrumentation compiled out (TPART_DISABLE_TRACING)";
#endif
  const std::string json = SimTraceJson();
  JsonValue root;
  ASSERT_TRUE(JsonParser(json).Parse(&root));
  int complete = 0, flow_start = 0, flow_end = 0, counters = 0, sinks = 0;
  for (const JsonValue& e : root.Get("traceEvents")->array) {
    const std::string& ph = e.Get("ph")->str;
    if (ph == "X") ++complete;
    if (ph == "s") ++flow_start;
    if (ph == "f") ++flow_end;
    if (ph == "C") ++counters;
    if (ph == "B" && e.Get("name")->str == "sink_round") ++sinks;
  }
  EXPECT_EQ(complete, 800) << "one complete span per simulated txn";
  EXPECT_GT(flow_start, 0) << "fully-distributed micro must forward-push";
  EXPECT_EQ(flow_start, flow_end);
  EXPECT_GT(counters, 0) << "tgraph_unsunk counter series";
  EXPECT_GT(sinks, 0) << "scheduler sink rounds";
}

TEST(TraceSimTest, SameSeedRunsProduceByteIdenticalMetricsStreams) {
  auto run = [] {
    obs::LiveSampler sampler(obs::LiveSampler::Domain::kEpoch);
    const Workload w = TraceMicro();
    TPartSimOptions o;
    o.num_machines = 4;
    o.scheduler.sink_size = 50;
    o.live_sampler = &sampler;
    RunTPartSim(o, w.partition_map, w.SequencedRequests());
    return sampler.Jsonl();
  };
  const std::string a = run();
  const std::string b = run();
  EXPECT_FALSE(a.empty());
  EXPECT_NE(a.find("\"epoch\":1"), std::string::npos);
  EXPECT_NE(a.find("\"tpart_live_committed_total\":"), std::string::npos);
  EXPECT_EQ(a, b)
      << "epoch-domain metrics streams must be byte-identical across "
         "same-seed simulator runs";
}

TEST(TraceSimTest, RunWithoutRecorderLeavesTraceEmpty) {
  obs::TraceRecorder rec(Manual());
  // Recorder exists but is not installed: the run must not touch it.
  const Workload w = TraceMicro();
  TPartSimOptions o;
  o.num_machines = 4;
  o.scheduler.sink_size = 50;
  RunTPartSim(o, w.partition_map, w.SequencedRequests());
  EXPECT_EQ(rec.event_count(), 0u);
}

}  // namespace
}  // namespace tpart
