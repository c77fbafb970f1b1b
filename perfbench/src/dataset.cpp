// dataset_ism and dataset_hybrid: closed-loop runRirBatch calls, one
// client, several executors. Each call samples a fresh seeded batch of
// shoebox scenes and writes RawF32 shards into its own directory under
// the run's work directory (removed after the call).
//
//  - dataset_ism: thousands of sub-millisecond image-source jobs, so queue,
//    admission and handoff, ISM render and shard output are the whole cost;
//    no FDTD, no JIT.
//  - dataset_hybrid: many small FDTD graphs stepping concurrently on the
//    shared pool, plus the ISM render and stitchHybrid.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <tuple>

#include "bench.hpp"
#include "common/string_util.hpp"
#include "common/thread_pool.hpp"
#include "ism/hybrid.hpp"
#include "service/batch.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace lifta;
using service::Fidelity;
namespace fs = std::filesystem;

namespace {

constexpr int kSetups = 5;
/// The client serves this many batch calls (2048 ISM scenes, 64 hybrid
/// scenes) from one RirService, then starts a fresh one. A service keeps
/// every finished job's result until it is destroyed, so a service that
/// lived for the whole run would make peak memory grow with throughput.
constexpr int kCallsPerService = 16;
/// Warm-up batch calls per set-up.
constexpr int kWarmupCalls = 2;
/// Calls whose exact counters (shard digest, output bytes, image renders,
/// cell-steps) must repeat for one seed.
constexpr int kCounterCalls = 8;
/// Scenes of call 0 checked against independent computations.
constexpr int kCheckedScenes = 4;

struct Dataset {
  Fidelity fidelity = Fidelity::Ism;
  int scenes = 0;  // per runRirBatch call
  int steps = 0;
  double sampleRate = 0.0;
  ism::Vec3 minDims, maxDims;
  int executors = 1;
  int poolThreads = 1;
};

Dataset datasetFor(Fidelity f, int nproc) {
  Dataset d;
  d.fidelity = f;
  if (f == Fidelity::Ism) {
    // ISM jobs never touch the stepping pool: every CPU is an executor.
    d.scenes = 128;
    d.steps = 2000;
    d.sampleRate = 16000.0;
    d.minDims = {3.0, 2.4, 2.2};
    d.maxDims = {8.0, 6.0, 3.5};
    d.executors = std::max(1, nproc);
    d.poolThreads = 1;
  } else {
    // Small rooms at the 8 kHz grid spacing (~45x40x35 cells): two
    // executors whose FDTD graphs share a pool; executors plus pool
    // workers equal the CPU count.
    d.scenes = 4;
    d.steps = 400;
    d.sampleRate = 8000.0;
    d.minDims = {2.6, 2.3, 2.1};
    d.maxDims = {3.4, 3.0, 2.6};
    d.executors = std::min(2, std::max(1, nproc));
    d.poolThreads = std::max(1, nproc - d.executors + 1);
  }
  return d;
}

service::BatchSpec makeBatch(const Dataset& d, std::uint64_t seed, int call,
                             const std::string& outDir) {
  service::BatchSpec spec;
  spec.scenes = d.scenes;
  spec.seed = seed * 1000003ULL + static_cast<std::uint64_t>(call);
  spec.ranges.minDims = d.minDims;
  spec.ranges.maxDims = d.maxDims;
  spec.ranges.receiversPerScene = 2;
  spec.fidelity = d.fidelity;
  spec.steps = d.steps;
  spec.params.sampleRate = d.sampleRate;
  spec.maxOrder = 6;
  if (d.fidelity == Fidelity::Hybrid) {
    spec.crossoverStart = d.steps / 8;
    spec.crossoverEnd = d.steps / 4;
  }
  spec.outDir = outDir;
  spec.format = service::ShardFormat::RawF32;
  spec.shardSize = 32;
  return spec;
}

/// FNV-1a over a file's bytes, folded into `h`.
std::uint64_t hashFile(const std::string& path, std::uint64_t h) {
  std::ifstream f(path, std::ios::binary);
  char buf[1 << 16];
  while (f) {
    f.read(buf, sizeof buf);
    const std::streamsize n = f.gcount();
    for (std::streamsize i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(buf[i]);
      h *= 1099511628211ULL;
    }
  }
  return h;
}

std::string hex64(std::uint64_t h) {
  char s[20];
  std::snprintf(s, sizeof s, "%016llx", static_cast<unsigned long long>(h));
  return s;
}

std::string callDir(int call) { return strformat("call_%05d", call); }

/// Digest and byte count of one call's output (shards in order, manifest).
std::pair<std::uint64_t, std::uint64_t> digestOutput(
    const service::BatchResult& r, std::uint64_t h) {
  std::uint64_t bytes = 0;
  std::vector<std::string> files = r.shardPaths;
  files.push_back(r.manifestPath);
  for (const auto& f : files) {
    h = hashFile(f, h);
    bytes += fs::file_size(f);
  }
  return {h, bytes};
}

std::vector<float> readF32(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(f)),
                        std::istreambuf_iterator<char>());
  std::vector<float> out(raw.size() / 4);
  for (std::size_t i = 0; i < out.size(); ++i) {
    const auto* b = reinterpret_cast<const unsigned char*>(&raw[4 * i]);
    const std::uint32_t bits = std::uint32_t{b[0]} | std::uint32_t{b[1]} << 8 |
                               std::uint32_t{b[2]} << 16 |
                               std::uint32_t{b[3]} << 24;
    std::memcpy(&out[i], &bits, 4);
  }
  return out;
}

/// The Allen & Berkley image sum written out directly: every lattice image
/// with at most `maxOrder` reflections, spherical spreading, and a
/// Hann-windowed sinc evaluated per sample. Independent of the engine's
/// enumeration order and incremental sinc recurrence.
std::vector<double> directImageSum(const service::IsmJobParams& p,
                                   std::size_t rx, int steps, double fs,
                                   double c) {
  constexpr double kPi = 3.14159265358979323846;
  const double dims[3] = {p.room.lx, p.room.ly, p.room.lz};
  const double src[3] = {p.source.x, p.source.y, p.source.z};
  const double rec[3] = {p.receivers[rx].x, p.receivers[rx].y,
                         p.receivers[rx].z};
  double refl[6];
  for (int w = 0; w < 6; ++w) {
    refl[w] = (1.0 - p.wallBeta[w]) / (1.0 + p.wallBeta[w]);
  }
  const int W = p.sincHalfWidth;
  const int L = p.maxOrder;
  std::vector<double> out(static_cast<std::size_t>(steps), 0.0);
  for (int u = 0; u < 8; ++u) {
    for (int lx = -L; lx <= L; ++lx) {
      for (int ly = -L; ly <= L; ++ly) {
        for (int lz = -L; lz <= L; ++lz) {
          const int l[3] = {lx, ly, lz};
          int order = 0;
          double gain = 1.0, d2 = 0.0;
          for (int a = 0; a < 3; ++a) {
            const int ua = (u >> a) & 1;
            const int hits0 = std::abs(l[a] - ua), hits1 = std::abs(l[a]);
            order += hits0 + hits1;
            gain *= std::pow(refl[2 * a], hits0) * std::pow(refl[2 * a + 1], hits1);
            const double pos = (1 - 2 * ua) * src[a] + 2.0 * l[a] * dims[a];
            d2 += (pos - rec[a]) * (pos - rec[a]);
          }
          if (order > p.maxOrder) continue;
          const double d = std::sqrt(d2);
          const double tau = d * fs / c;
          const double amp = gain / (4.0 * kPi * d);
          const int n0 = std::max(0, static_cast<int>(std::floor(tau)) - W);
          const int n1 = std::min(steps - 1, static_cast<int>(std::ceil(tau)) + W);
          for (int n = n0; n <= n1; ++n) {
            const double x = n - tau;
            if (std::abs(x) >= W) continue;
            const double hann = 0.5 * (1.0 + std::cos(kPi * x / W));
            const double sinc = x == 0.0 ? 1.0 : std::sin(kPi * x) / (kPi * x);
            out[static_cast<std::size_t>(n)] += amp * hann * sinc;
          }
        }
      }
    }
  }
  return out;
}

/// Inside-cell bytes moved per cell update of a hybrid job's FDTD half (a
/// box grid stepped in double with FI-MM and one material), computed from
/// array sizes. Every array element is counted once per step: each inside
/// cell reads prev, curr and nbrs and writes next; each boundary point
/// reads its index, material and neighbour count, reads prev and
/// read-modify-writes next.
double computedBytesPerCell(const acoustics::RoomGrid& grid) {
  const double s = sizeof(double);
  const double inside = static_cast<double>(grid.insideCells);
  const double bnd = static_cast<double>(grid.boundaryPoints());
  return ratio(inside * (3.0 * s + 4.0) + bnd * (12.0 + 3.0 * s), inside);
}

struct Svc {
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<service::RirService> svc;
};

Svc makeService(const Dataset& d) {
  Svc s;
  s.pool = std::make_unique<ThreadPool>(static_cast<std::size_t>(d.poolThreads));
  service::RirService::Config cfg;
  cfg.workers = d.executors;
  cfg.stepPool = s.pool.get();
  s.svc = std::make_unique<service::RirService>(cfg);
  return s;
}

/// One closed-loop runRirBatch call into a fresh directory; returns the
/// batch result and its latency.
service::BatchResult runCall(service::RirService& svc,
                             const service::BatchSpec& spec, double& ms,
                             Result& out) {
  fs::remove_all(spec.outDir);
  fs::create_directories(spec.outDir);
  out.attempted += static_cast<std::uint64_t>(spec.scenes);
  const std::int64_t t0 = nowNs();
  service::BatchResult r;
  {
    Span s("service.run_batch");
    r = service::runRirBatch(svc, spec);
  }
  ms = static_cast<double>(nowNs() - t0) / 1e6;
  for (std::size_t i = 0; i < r.sceneStatus.size(); ++i) {
    if (r.sceneStatus[i] != service::JobStatus::Done) {
      out.fail(strformat("batch scene %zu ended %s", i,
                         service::jobStatusName(r.sceneStatus[i])));
    }
  }
  if (!countersAddUp(svc.metrics())) {
    out.fail("service counters do not add up after a batch");
  }
  return r;
}

/// Traced runs: the same batch taken apart through the layer functions.
struct Replay {
  std::vector<double> queueWait, overhead, drainMs;
  std::uint64_t images = 0, sceneCount = 0;
  StepTotals profile;

  void run(service::RirService& svc, const service::BatchSpec& spec,
           Result& out);
};

void Replay::run(service::RirService& svc, const service::BatchSpec& spec,
                 Result& out) {
  std::vector<service::RirJobSpec> jobs;
  {
    Span s("service.expand");
    jobs = service::expandBatch(spec);
  }
  // The expanded jobs through submit and wait alone: runRirBatch minus
  // this is the shard and manifest output.
  std::vector<service::RirResult> results;
  const std::int64_t t0 = nowNs();
  {
    Span s("service.submit_drain");
    std::vector<service::RirService::JobId> ids;
    for (const auto& j : jobs) ids.push_back(svc.submit(j));
    for (const auto id : ids) results.push_back(svc.wait(id));
  }
  drainMs.push_back(static_cast<double>(nowNs() - t0) / 1e6);
  for (const auto& r : results) queueWait.push_back(r.queueWaitMs);
  if (!countersAddUp(svc.metrics())) {
    out.fail("service counters do not add up after submit/drain");
  }

  // The ISM layer on the same scenes, single-threaded.
  std::vector<ism::SampledScene> scenes;
  {
    Span s("ism.sample");
    scenes = ism::sampleScenes(spec.ranges, spec.scenes, spec.seed);
  }
  for (std::size_t i = 0; i < scenes.size(); ++i) {
    const auto& sc = scenes[i];
    ism::IsmConfig cfg;
    cfg.room = sc.room;
    cfg.source = sc.source;
    cfg.receivers = sc.receivers;
    cfg.maxOrder = spec.maxOrder;
    cfg.wallR = ism::reflectionsFromAdmittances(sc.wallBeta);
    cfg.c = spec.params.c;
    cfg.sampleRate = spec.params.sampleRate;
    cfg.numSamples = spec.steps;
    cfg.sincHalfWidth = spec.sincHalfWidth;
    std::unique_ptr<ism::IsmEngine> engine;
    {
      Span s("ism.enumerate");
      engine = std::make_unique<ism::IsmEngine>(cfg);
    }
    images += engine->images().size();
    ++sceneCount;
    for (std::size_t r = 0; r < sc.receivers.size(); ++r) {
      std::vector<double> trace;
      {
        Span s("ism.render");
        trace = engine->renderReceiver(r);
      }
      if (spec.fidelity == Fidelity::Hybrid) {
        // stitchHybrid's cost does not depend on the values; the hybrid
        // result stands in for the FDTD half of the same length.
        Span s("ism.stitch");
        ism::stitchHybrid(trace, results[i].traces[r],
                          {spec.crossoverStart, spec.crossoverEnd});
      }
    }
  }

  // One closed-loop job at a time: latency - queue wait - run time is the
  // service's own per-job overhead. Hybrid jobs also report their
  // per-step kernel times here.
  for (std::size_t i = 0; i < std::min<std::size_t>(8, jobs.size()); ++i) {
    auto j = jobs[i];
    j.profile = spec.fidelity == Fidelity::Hybrid;
    double ms = 0.0;
    const auto r = runJob(svc, std::move(j), ms, out);
    overhead.push_back(ms - r.queueWaitMs - r.runMs);
    profile.add(r.profile);
  }
}

void runDataset(const Options& opt, Result& out, Fidelity fidelity) {
  const Dataset d = datasetFor(fidelity, opt.nproc);
  out.record["threads"] = strformat("executors=%d step_pool_threads=%d",
                                    d.executors, d.poolThreads);
  const auto engineIdx = static_cast<std::size_t>(fidelity);

  Svc svc;
  for (int rep = 0; rep < kSetups; ++rep) {
    const std::int64_t t0 = nowNs();
    svc.svc.reset();
    svc.pool.reset();
    acoustics::clearVoxelCache();
    resetMemoryBaseline();
    svc = makeService(d);
    // Warm-up: batch calls of a seed the timed phase does not use.
    for (int k = 0; k < kWarmupCalls; ++k) {
      double ms = 0.0;
      const auto spec = makeBatch(d, opt.seed + 1000000007ULL, k, "warmup");
      runCall(*svc.svc, spec, ms, out);
      fs::remove_all(spec.outDir);
    }
    out.setupS.push_back(seconds(nowNs() - t0));
  }

  std::unique_ptr<Replay> replay;
  if (opt.trace) replay = std::make_unique<Replay>();
  constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;
  std::uint64_t digest = kFnvBasis, outBytes = 0, call0Digest = 0;
  double callBytes = 0.0;
  std::vector<double> batchMs;

  // Engine work of the services retired so far, plus the current one's
  // since `base`.
  std::uint64_t cellSteps = 0, renders = 0;
  auto base = svc.svc->metrics();
  const auto account = [&] {
    const auto m = svc.svc->metrics();
    cellSteps += m.cellStepsProcessed - base.cellStepsProcessed;
    renders += m.engines[engineIdx].imageRenders -
               base.engines[engineIdx].imageRenders;
    base = m;
  };
  const double cpu0 = processCpuSeconds();
  const std::int64_t t0 = nowNs();
  int calls = 0;
  while (static_cast<std::size_t>(calls) < kMinTimedJobs ||
         seconds(nowNs() - t0) < opt.seconds) {
    if (calls > 0 && calls % kCallsPerService == 0) {
      account();
      svc.svc.reset();
      svc.pool.reset();
      svc = makeService(d);
      base = svc.svc->metrics();
    }
    const auto spec = makeBatch(d, opt.seed, calls, callDir(calls));
    Tracer::instance().setRequest(static_cast<std::uint64_t>(calls) + 1);
    double ms = 0.0;
    const auto r = runCall(*svc.svc, spec, ms, out);
    out.latencyMs.push_back(ms);
    batchMs.push_back(ms);
    out.rirs += static_cast<std::uint64_t>(r.rirsWritten);
    if (calls == 0) {
      call0Digest = kFnvBasis;
      for (const auto& f : r.shardPaths) call0Digest = hashFile(f, call0Digest);
    }
    std::uint64_t bytes = 0;
    if (calls < kCounterCalls || replay) {
      std::tie(digest, bytes) = digestOutput(r, digest);
      if (calls < kCounterCalls) outBytes += bytes;
      callBytes += static_cast<double>(bytes);
    }
    if (replay) replay->run(*svc.svc, spec, out);
    fs::remove_all(spec.outDir);
      if (++calls == kCounterCalls) {
      account();
      out.counters["shard_digest"] = hex64(digest);
      out.counters["service.output_bytes"] = std::to_string(outBytes);
      out.counters["ism.image_renders"] = std::to_string(renders);
      out.counters["cell_steps"] = std::to_string(cellSteps);
      out.counters["calls"] = std::to_string(calls);
    }
  }
  out.timedWallS = seconds(nowNs() - t0);
  out.peakRssMb = readPeakRssMb();
  const double busy =
      (processCpuSeconds() - cpu0) / (std::max(1, opt.nproc) * out.timedWallS);
  account();
  out.cellSteps = cellSteps;
  out.record["pool_busy_frac"] = std::to_string(busy);
  out.record["rirs_per_call"] = std::to_string(d.scenes * 2);

  // Output checks on call 0, re-run into a fresh directory.
  const auto spec0 = makeBatch(d, opt.seed, 0, "check");
  double ms = 0.0;
  const auto r0 = runCall(*svc.svc, spec0, ms, out);
  std::uint64_t h0 = kFnvBasis;
  for (const auto& f : r0.shardPaths) h0 = hashFile(f, h0);
  out.check(h0 == call0Digest, "RawF32 shard set repeats for one seed");
  const std::vector<float> shard = readF32(r0.shardPaths.at(0));
  const auto jobs = service::expandBatch(spec0);
  const std::size_t n = static_cast<std::size_t>(spec0.steps);
  for (int i = 0; i < kCheckedScenes; ++i) {
    const auto& job = jobs[static_cast<std::size_t>(i)];
    if (fidelity == Fidelity::Ism) {
      for (std::size_t rx = 0; rx < job.ism.receivers.size(); ++rx) {
        const auto ref = directImageSum(job.ism, rx, spec0.steps,
                                        spec0.params.sampleRate, spec0.params.c);
        double peak = 0.0, err = 0.0;
        const std::size_t base = (static_cast<std::size_t>(i) * 2 + rx) * n;
        for (std::size_t k = 0; k < n; ++k) {
          peak = std::max(peak, std::abs(ref[k]));
          err = std::max(err, std::abs(static_cast<double>(shard[base + k]) - ref[k]));
        }
        out.check(err <= 1e-6 * peak,
                  strformat("ISM shard trace matches the direct image sum "
                            "(scene %d rx %zu, err %.3g peak %.3g)",
                            i, rx, err, peak));
      }
    } else {
      // Hybrid = ISM before the crossover and FDTD after it, bit for bit.
      auto ismJob = job;
      ismJob.fidelity = Fidelity::Ism;
      auto fdtdSpec = spec0;
      fdtdSpec.fidelity = Fidelity::Fdtd;
      const auto fdtdJob = service::expandBatch(fdtdSpec)[static_cast<std::size_t>(i)];
      double t = 0.0;
      const auto hy = runJob(*svc.svc, job, t, out);
      const auto is = runJob(*svc.svc, ismJob, t, out);
      const auto fd = runJob(*svc.svc, fdtdJob, t, out);
      bool ok = hy.traces.size() == 2 && is.traces.size() == 2 &&
                fd.traces.size() == 2;
      bool shardOk = ok;
      for (std::size_t rx = 0; ok && rx < 2; ++rx) {
        const std::size_t base = (static_cast<std::size_t>(i) * 2 + rx) * n;
        for (std::size_t k = 0; k < n; ++k) {
          const double want = static_cast<int>(k) < spec0.crossoverStart
                                  ? is.traces[rx][k]
                                  : fd.traces[rx][k];
          if (static_cast<int>(k) < spec0.crossoverStart ||
              static_cast<int>(k) >= spec0.crossoverEnd) {
            ok = ok && std::memcmp(&want, &hy.traces[rx][k], sizeof want) == 0;
          }
          const float f = static_cast<float>(hy.traces[rx][k]);
          shardOk = shardOk && std::memcmp(&f, &shard[base + k], sizeof f) == 0;
        }
      }
      out.check(ok, strformat("hybrid trace splices ISM and FDTD bitwise "
                              "(scene %d)", i));
      out.check(shardOk, strformat("hybrid shard holds the job's trace "
                                   "(scene %d)", i));
    }
  }
  fs::remove_all(spec0.outDir);

  if (replay) {
    const Replay& rp = *replay;
    out.layers["service.expand_ms"] = spanSelfMs("service.expand");
    out.layers["service.queue_wait_ms"] = median(rp.queueWait);
    out.layers["service.overhead_ms"] = median(rp.overhead);
    out.layers["service.output_mb"] =
        callBytes / 1e6 / static_cast<double>(std::max(1, calls));
    out.layers["service.output_ms"] = median(batchMs) - median(rp.drainMs);
    out.layers["ism.sample_ms"] = spanSelfMs("ism.sample");
    out.layers["ism.enumerate_ms"] = spanSelfMs("ism.enumerate");
    out.layers["ism.render_ms"] = spanSelfMs("ism.render");
    out.layers["ism.images"] = ratio(static_cast<double>(rp.images),
                                     static_cast<double>(rp.sceneCount));
    out.layers["common.pool_busy_frac"] = busy;
    if (fidelity == Fidelity::Hybrid) {
      out.layers["ism.stitch_ms"] = spanSelfMs("ism.stitch");
      rp.profile.report(out);
      // The checked scenes of call 0, weighted by inside-cell count: every
      // job runs the same number of steps.
      double bytes = 0.0, cells = 0.0;
      for (int i = 0; i < kCheckedScenes; ++i) {
        const auto& room = jobs[static_cast<std::size_t>(i)].ism.room;
        const auto grid = acoustics::voxelize(acoustics::boxRoomFromMeters(
            room.lx, room.ly, room.lz, spec0.params.h()));
        const double inside = static_cast<double>(grid.insideCells);
        bytes += inside * computedBytesPerCell(grid);
        cells += inside;
      }
      out.layers["acoustics.bytes_per_cell"] = ratio(bytes, cells);
    }
  }
}

}  // namespace

void runDatasetIsm(const Options& opt, Result& out) {
  runDataset(opt, out, Fidelity::Ism);
}

void runDatasetHybrid(const Options& opt, Result& out) {
  runDataset(opt, out, Fidelity::Hybrid);
}

}  // namespace perfbench
