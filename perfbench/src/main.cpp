// Benchmark program: runs one workload for a fixed time and writes the raw
// measurements, exact counters, output-check results and (traced runs)
// per-layer numbers as JSON. perfbench/run.py builds this program, runs
// it hermetically and prints the final metrics line.
//
//   lifta_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --nproc <n> --work-dir <dir> --result <file>
//                   [--trace-out <file>]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "bench.hpp"
#include "common/json_writer.hpp"
#include "trace.hpp"

using namespace perfbench;

namespace {

Options parse(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) kv[argv[i]] = argv[i + 1];
  const auto get = [&](const char* k) {
    const auto it = kv.find(k);
    if (it == kv.end()) {
      std::fprintf(stderr, "missing %s\n", k);
      std::exit(2);
    }
    return it->second;
  };
  Options o;
  o.workload = get("--workload");
  o.seed = std::stoull(get("--seed"));
  o.seconds = std::stod(get("--seconds"));
  o.trace = get("--trace") == "1";
  o.nproc = std::stoi(get("--nproc"));
  o.workDir = get("--work-dir");
  o.resultOut = get("--result");
  if (kv.count("--trace-out")) o.traceOut = kv["--trace-out"];
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  Tracer::instance().enable(opt.trace);
  Result out;
  try {
    if (opt.workload == "device_new_rooms") {
      runDeviceNewRooms(opt, out);
    } else if (opt.workload == "dataset_ism") {
      runDatasetIsm(opt, out);
    } else if (opt.workload == "dataset_hybrid") {
      runDatasetHybrid(opt, out);
    } else {
      std::fprintf(stderr, "unknown workload '%s'\n", opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "workload aborted: %s\n", e.what());
    return 1;
  }

  if (opt.trace) {
    // Tracing overhead: the cost of one span, times the spans recorded,
    // as a share of the timed phase.
    Tracer& tr = Tracer::instance();
    const std::size_t spans = tr.records().size();
    constexpr int kCalib = 20000;
    const std::int64_t c0 = nowNs();
    for (int i = 0; i < kCalib; ++i) Span s("trace.calibrate");
    const double perSpanS = seconds(nowNs() - c0) / kCalib;
    tr.truncate(spans);
    out.layers["trace.overhead_pct"] =
        out.timedWallS > 0.0
            ? 100.0 * perSpanS * static_cast<double>(spans) / out.timedWallS
            : 0.0;
    out.record["trace_spans"] = std::to_string(spans);
  }

  lifta::JsonWriter json;
  json.beginObject();
  json.key("setup_s").beginArray();
  for (const double v : out.setupS) json.value(v, 9);
  json.endArray();
  json.key("latency_ms").beginArray();
  for (const double v : out.latencyMs) json.value(v, 6);
  json.endArray();
  json.field("timed_wall_s", out.timedWallS, 9)
      .field("rirs", out.rirs)
      .field("cell_steps", out.cellSteps)
      .field("attempted", out.attempted)
      .field("failed", out.failed)
      .field("peak_rss_mb", out.peakRssMb, 3);
  json.key("failures").beginArray();
  for (const auto& f : out.failures) json.value(f);
  json.endArray();
  json.key("counters").beginObject();
  for (const auto& [k, v] : out.counters) json.field(k, v);
  json.endObject();
  json.key("layers").beginObject();
  for (const auto& [k, v] : out.layers) json.field(k, v, 9);
  json.endObject();
  json.key("record").beginObject();
  for (const auto& [k, v] : out.record) json.field(k, v);
  json.endObject();
  json.endObject();
  json.writeFile(opt.resultOut);

  if (opt.trace && !opt.traceOut.empty()) {
    Tracer::instance().writeChromeTrace(opt.traceOut);
  }
  // The JIT compiles in a scratch directory of its own; remove it (loaded
  // objects stay mapped).
  std::error_code ec;
  std::filesystem::remove_all(lifta::ocl::Jit::instance().scratchDir(), ec);
  return 0;
}
