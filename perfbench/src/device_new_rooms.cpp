// device_new_rooms: device-tier (LIFT-generated) FI-MM and FD-MM jobs
// through RirService, closed loop with one client. The seeded stream mixes
// rooms the service has seen with rooms it has never seen, so voxelize
// misses, IR build, the analysis gates, C emission, the JIT, upload and
// per-step readback all sit on the request path.
#include <algorithm>
#include <memory>
#include <set>
#include <tuple>

#include "analysis/equiv.hpp"
#include "analysis/verify.hpp"
#include "bench.hpp"
#include "codegen/kernel_codegen.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "host/host_program.hpp"
#include "ir/typecheck.hpp"
#include "lift_acoustics/device_simulation.hpp"
#include "lift_acoustics/kernels.hpp"
#include "ocl/runtime.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace lifta;
using acoustics::BoundaryModel;
using acoustics::Room;
using acoustics::RoomShape;

namespace {

constexpr int kSteps = 8;
constexpr int kMaterials = 3;
constexpr int kBranches = 3;
constexpr int kSetups = 3;
/// Each round, in a seeded order: every familiar room twice with FI-MM and
/// once with FD-MM, and three rooms never seen before (two FI-MM, one
/// FD-MM). FI-MM jobs are two thirds of the mix, so the median and the
/// 90th percentile each fall inside one model's latencies rather than on
/// the gap between them.
constexpr std::size_t kNewPerRound = 3;
/// Jobs whose exact counters must repeat for one seed (two rounds).
constexpr std::size_t kCounterJobs = 30;

const RoomShape kShapes[] = {RoomShape::Box, RoomShape::Dome,
                             RoomShape::LShape, RoomShape::Cylinder};

/// The rooms a long-running service has already built kernels for.
std::vector<Room> familiarRooms() {
  return {Room{RoomShape::Box, 40, 32, 28}, Room{RoomShape::Dome, 44, 36, 30},
          Room{RoomShape::LShape, 40, 34, 26},
          Room{RoomShape::Cylinder, 36, 36, 28}};
}

service::RirJobSpec makeSpec(const Room& room, BoundaryModel model, Rng& rng) {
  service::RirJobSpec spec;
  spec.tier = service::JobTier::Device;
  spec.room = room;
  spec.model = model;
  spec.numMaterials = kMaterials;
  spec.numBranches = model == BoundaryModel::FdMm ? kBranches : 0;
  spec.steps = kSteps;
  const auto src = insideCell(room, rng);
  spec.sources.push_back({src.x, src.y, src.z, 1.0});
  spec.receivers.push_back(insideCell(room, rng));
  spec.receivers.push_back(insideCell(room, rng));
  return spec;
}

struct StreamJob {
  service::RirJobSpec spec;
  bool isNew = false;
};

/// Rounds of (familiar rooms x both models) plus kNewPerRound never-seen
/// rooms. New rooms take the four shapes in a seeded order, so every two
/// rounds hold the same shape mix, and seeded dimensions that no earlier
/// room of the run had.
class Stream {
public:
  explicit Stream(std::uint64_t seed)
      : rng_(seed * 0x9e3779b97f4a7c15ULL + 23) {
    for (const Room& r : familiarRooms()) seen_.insert(key(r));
  }

  StreamJob next() {
    if (pos_ == round_.size()) refill();
    return round_[pos_++];
  }
  bool roundDone() const { return pos_ == round_.size(); }

private:
  static std::tuple<int, int, int, int> key(const Room& r) {
    return {static_cast<int>(r.shape), r.nx, r.ny, r.nz};
  }

  Room newRoom(RoomShape shape) {
    for (;;) {
      const Room r{shape, static_cast<int>(rng_.uniformInt(30, 50)),
                   static_cast<int>(rng_.uniformInt(26, 44)),
                   static_cast<int>(rng_.uniformInt(22, 36))};
      if (seen_.insert(key(r)).second) return r;
    }
  }

  void refill() {
    round_.clear();
    for (const Room& r : familiarRooms()) {
      for (const BoundaryModel m : {BoundaryModel::FiMm, BoundaryModel::FiMm,
                                    BoundaryModel::FdMm}) {
        round_.push_back({makeSpec(r, m, rng_), false});
      }
    }
    for (std::size_t k = 0; k < kNewPerRound; ++k) {
      if (shapeOrder_.empty()) {
        shapeOrder_.assign(std::begin(kShapes), std::end(kShapes));
        for (std::size_t i = shapeOrder_.size(); i > 1; --i) {
          const auto j = static_cast<std::size_t>(
              rng_.uniformInt(0, static_cast<std::int64_t>(i) - 1));
          std::swap(shapeOrder_[i - 1], shapeOrder_[j]);
        }
      }
      const RoomShape shape = shapeOrder_.back();
      shapeOrder_.pop_back();
      const BoundaryModel m =
          k < 2 ? BoundaryModel::FiMm : BoundaryModel::FdMm;
      round_.push_back({makeSpec(newRoom(shape), m, rng_), true});
    }
    for (std::size_t i = round_.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng_.uniformInt(0, static_cast<std::int64_t>(i) - 1));
      std::swap(round_[i - 1], round_[j]);
    }
    pos_ = 0;
  }

  Rng rng_;
  std::set<std::tuple<int, int, int, int>> seen_;
  std::vector<RoomShape> shapeOrder_;
  std::vector<StreamJob> round_;
  std::size_t pos_ = 0;
};

/// The paper's Listing-5 host program over the Listing 7/8 kernels: volume
/// kernel, then the fused boundary kernel writing into its output.
host::HostProgram listing5Program(bool fdmm, ir::ScalarKind real) {
  host::HostProgram prog;
  for (const char* s : {"nx", "ny", "nz", "nxny", "cells", "numB", "M"}) {
    prog.declareScalar(s, host::ScalarType::Int);
  }
  for (const char* s : {"l", "l2"}) {
    prog.declareScalar(s, host::ScalarType::Real);
  }
  auto prev1 = prog.toGPU(prog.hostParam("prev1_h"));
  auto prev2 = prog.toGPU(prog.hostParam("prev2_h"));
  auto nbrs = prog.toGPU(prog.hostParam("nbrs_h"));
  auto bound = prog.toGPU(prog.hostParam("boundaries_h"));
  auto mat = prog.toGPU(prog.hostParam("material_h"));
  auto beta = prog.toGPU(prog.hostParam("beta_h"));

  host::KernelSpec volume;
  volume.def = lift_acoustics::liftVolumeKernel(real);
  volume.args = {{prev2, ""},       {prev1, ""},      {nbrs, ""},
                 {nullptr, "nx"},   {nullptr, "nxny"}, {nullptr, "cells"},
                 {nullptr, "l2"}};
  volume.launchCountScalar = "cells";
  auto next = prog.kernelCall(volume);

  host::KernelSpec boundary;
  if (!fdmm) {
    boundary.def = lift_acoustics::liftFiMmKernel(real);
    boundary.args = {{bound, ""},        {mat, ""},         {nbrs, ""},
                     {beta, ""},         {next, ""},        {prev2, ""},
                     {nullptr, "cells"}, {nullptr, "numB"}, {nullptr, "M"},
                     {nullptr, "l"}};
  } else {
    auto bi = prog.toGPU(prog.hostParam("bi_h"));
    auto d = prog.toGPU(prog.hostParam("d_h"));
    auto di = prog.toGPU(prog.hostParam("di_h"));
    auto f = prog.toGPU(prog.hostParam("f_h"));
    auto g1 = prog.toGPU(prog.hostParam("g1_h"));
    auto v1 = prog.toGPU(prog.hostParam("v1_h"));
    auto v2 = prog.toGPU(prog.hostParam("v2_h"));
    boundary.def = lift_acoustics::liftFdMmKernel(real, kBranches);
    boundary.args = {{bound, ""},       {mat, ""},         {nbrs, ""},
                     {beta, ""},        {bi, ""},          {d, ""},
                     {di, ""},          {f, ""},           {next, ""},
                     {prev2, ""},       {g1, ""},          {v1, ""},
                     {v2, ""},          {nullptr, "cells"}, {nullptr, "numB"},
                     {nullptr, "M"},    {nullptr, "l"}};
  }
  boundary.launchCountScalar = "numB";
  auto updated = prog.writeTo(next, prog.kernelCall(boundary));
  prog.toHost(updated, "next_h");
  return prog;
}

/// Traced runs: the job's pipeline driven layer by layer through the
/// library's public functions, each call in its own span.
struct Replay {
  ocl::Context ctx;
  std::uint64_t voxHits = 0, voxMisses = 0;
  std::vector<double> coldMs, warmMs, firstStepMs;
  std::uint64_t jitCompiled = 0, jitHits = 0, jitMisses = 0;
  std::uint64_t newRooms = 0, newRoomCompiles = 0;
  std::uint64_t sourceBytes = 0, generated = 0;
  double volMs = 0.0, bndMs = 0.0;
  std::uint64_t steadySteps = 0;
  std::uint64_t forcedMisses = 0;

  void run(const service::RirJobSpec& spec, bool isNew, Result& out);
};

void Replay::run(const service::RirJobSpec& spec, bool isNew, Result& out) {
  const bool fdmm = spec.model == BoundaryModel::FdMm;
  const ir::ScalarKind real = ir::ScalarKind::Double;
  {
    const auto v0 = acoustics::voxelCacheStats();
    Span s("acoustics.voxelize");
    acoustics::voxelizeCached(spec.room, spec.numMaterials);
    const auto v1 = acoustics::voxelCacheStats();
    voxHits += v1.hits - v0.hits;
    voxMisses += v1.misses - v0.misses;
  }

  // The same configuration RirService builds for a device job.
  lift_acoustics::DeviceSimulation::Config cfg;
  cfg.room = spec.room;
  cfg.params = spec.params;
  cfg.model = fdmm ? lift_acoustics::DeviceModel::FdMm
                   : lift_acoustics::DeviceModel::FiMm;
  cfg.numMaterials = spec.numMaterials;
  if (fdmm) cfg.numBranches = spec.numBranches;
  cfg.precision = real;
  const auto j0 = ocl::Jit::instance().stats();
  const std::int64_t t0 = nowNs();
  std::unique_ptr<lift_acoustics::DeviceSimulation> dev;
  {
    Span s("lift_acoustics.construct");
    dev = std::make_unique<lift_acoustics::DeviceSimulation>(ctx, cfg);
  }
  const double constructMs = static_cast<double>(nowNs() - t0) / 1e6;
  const auto j1 = ocl::Jit::instance().stats();
  const std::uint64_t compiled = j1.compiled - j0.compiled;
  (compiled > 0 ? coldMs : warmMs).push_back(constructMs);
  jitCompiled += compiled;
  jitHits += j1.hits - j0.hits;
  jitMisses += j1.misses - j0.misses;
  if (isNew) {
    ++newRooms;
    newRoomCompiles += compiled;
  }

  // IR build, gates and C emission on the paper's Listing kernels.
  std::vector<memory::KernelDef> defs;
  {
    Span s("lift_acoustics.kernel_ir");
    defs.push_back(lift_acoustics::liftVolumeKernel(real));
    defs.push_back(fdmm ? lift_acoustics::liftFdMmKernel(real, kBranches)
                        : lift_acoustics::liftFiMmKernel(real));
  }
  for (const auto& def : defs) {
    Span s("ir.typecheck");
    ir::typecheck(def.body);
  }
  for (const auto& def : defs) {
    Span s("analysis.verify");
    analysis::verifyKernel(def);
  }
  for (const auto& def : defs) {
    Span s("analysis.translation");
    const auto report = analysis::validateTranslation(def);
    if (report.hasErrors()) out.fail("translation validation: " + def.name);
  }
  codegen::GeneratedKernel boundaryGen;
  for (const auto& def : defs) {
    Span s("codegen.generate");
    boundaryGen = codegen::generateKernel(def);
    sourceBytes += boundaryGen.source.size();
    ++generated;
  }
  {
    Span s("host.compile");
    listing5Program(fdmm, real).compile(ctx, real);
  }
  if (compiled > 0) {
    // The construction compiled: time one compile of the same kind of
    // source on a guaranteed miss (a trailing comment changes the key).
    Span s("ocl.jit_compile");
    ocl::Jit::instance().compile(
        boundaryGen.source + "\n// forced miss " + std::to_string(forcedMisses) + "\n",
        boundaryGen.buildFlags);
    ++forcedMisses;
  }

  const std::int64_t f0 = nowNs();
  {
    Span s("lift_acoustics.first_step");
    dev->step();
  }
  firstStepMs.push_back(static_cast<double>(nowNs() - f0) / 1e6);
  const double vol0 = dev->totalVolumeMs(), bnd0 = dev->totalBoundaryMs();
  for (int i = 0; i < spec.steps; ++i) {
    if (i > 0) {
      Span s("lift_acoustics.step");
      dev->step();
    }
    for (const auto& rx : spec.receivers) {
      Span s("lift_acoustics.sample");
      dev->sample(rx.x, rx.y, rx.z);
    }
  }
  volMs += dev->totalVolumeMs() - vol0;
  bndMs += dev->totalBoundaryMs() - bnd0;
  steadySteps += static_cast<std::uint64_t>(spec.steps - 1);
}

}  // namespace

void runDeviceNewRooms(const Options& opt, Result& out) {
  // Device jobs step on the ocl::Context's own pool, which always has
  // hardware-concurrency threads; the service's stepping pool is unused, so
  // it gets one thread (no workers).
  out.record["threads"] =
      "executors=1 step_pool_threads=1 ocl_context_threads=" +
      std::to_string(ocl::nativeDevice().threads) + " (hardware concurrency)";

  std::unique_ptr<service::RirService> svc;
  ThreadPool pool(1);
  std::unique_ptr<Replay> replay;
  std::uint64_t request = 0;  // span ids
  for (int rep = 0; rep < kSetups; ++rep) {
    // Traced runs also take the last set-up's warm-up apart layer by
    // layer: its constructions are the cold builds.
    if (opt.trace && rep == kSetups - 1) replay = std::make_unique<Replay>();
    const std::int64_t t0 = nowNs();
    svc.reset();
    ocl::Jit::instance().clearMemoryCache();
    acoustics::clearVoxelCache();
    resetMemoryBaseline();
    service::RirService::Config cfg;
    cfg.workers = 1;
    cfg.stepPool = &pool;
    svc = std::make_unique<service::RirService>(cfg);
    // Warm-up: the first device build of every familiar room and model,
    // including the cold compiles, as a long-running service has paid.
    Rng warmRng(opt.seed + 7);
    for (const Room& room : familiarRooms()) {
      for (const BoundaryModel m : {BoundaryModel::FiMm, BoundaryModel::FdMm}) {
        const auto spec = makeSpec(room, m, warmRng);
        Tracer::instance().setRequest(++request);
        if (replay) replay->run(spec, false, out);
        double ms = 0.0;
        runJob(*svc, spec, ms, out);
      }
    }
    out.setupS.push_back(seconds(nowNs() - t0));
  }

  Stream stream(opt.seed);
  std::vector<std::pair<service::RirJobSpec, service::RirResult>> checked;
  std::vector<double> queueWait, overhead, newMs;
  std::uint64_t newRooms = 0, newRoomCompiles = 0;
  bool haveFi = false, haveFd = false, haveNew = false;

  const auto m0 = svc->metrics();
  const auto v0 = acoustics::voxelCacheStats();
  const auto j0 = ocl::Jit::instance().stats();
  const std::int64_t t0 = nowNs();
  std::size_t jobs = 0;
  // Whole rounds only, so every run holds the same job mix.
  while (jobs < kMinTimedJobs || seconds(nowNs() - t0) < opt.seconds ||
         !stream.roundDone()) {
    const StreamJob sj = stream.next();
    Tracer::instance().setRequest(++request);
    if (replay) replay->run(sj.spec, sj.isNew, out);
    const auto jb = ocl::Jit::instance().stats();
    double ms = 0.0;
    const service::RirResult r = runJob(*svc, sj.spec, ms, out);
    out.latencyMs.push_back(ms);
    if (r.status == service::JobStatus::Done) out.rirs += r.traces.size();
    queueWait.push_back(r.queueWaitMs);
    overhead.push_back(ms - r.queueWaitMs - r.runMs);
    if (sj.isNew) {
      ++newRooms;
      newRoomCompiles += ocl::Jit::instance().stats().compiled - jb.compiled;
      newMs.push_back(ms);
    }
    // Cross-tier samples: the first familiar job of each model and the
    // first never-seen room that is not a box.
    bool* taken = nullptr;
    if (!sj.isNew) {
      taken = sj.spec.model == BoundaryModel::FiMm ? &haveFi : &haveFd;
    } else if (sj.spec.room.shape != RoomShape::Box) {
      taken = &haveNew;
    }
    if (taken != nullptr && !*taken) {
      *taken = true;
      checked.emplace_back(sj.spec, r);
    }
    if (++jobs == kCounterJobs) recordJobCounters(out, *svc, m0, v0, j0, jobs);
  }
  out.timedWallS = seconds(nowNs() - t0);
  out.peakRssMb = readPeakRssMb();
  out.cellSteps = svc->metrics().cellStepsProcessed - m0.cellStepsProcessed;
  out.record["new_room_jobs"] = std::to_string(newRooms);
  out.record["compiles_per_new_room"] = std::to_string(ratio(
      static_cast<double>(newRoomCompiles), static_cast<double>(newRooms)));
  out.record["new_room_p50_ms"] = std::to_string(median(newMs));

  // The reference tier (hand-written kernels) is the oracle: the sampled
  // device traces must equal it bit for bit.
  out.check(checked.size() == 3, "device_new_rooms sampled three jobs");
  for (auto& [spec, dev] : checked) {
    service::RirJobSpec ref = spec;
    ref.tier = service::JobTier::Reference;
    double ms = 0.0;
    const service::RirResult r = runJob(*svc, ref, ms, out);
    out.check(sameBits(r.traces, dev.traces),
              std::string("device traces equal the reference tier (") +
                  acoustics::shapeName(spec.room.shape) + ", " +
                  acoustics::modelName(spec.model) + ")");
  }

  if (replay) {
    const Replay& rp = *replay;
    out.layers["acoustics.voxelize_ms"] = spanSelfMs("acoustics.voxelize");
    out.layers["acoustics.voxel_hit_ratio"] =
        ratio(static_cast<double>(rp.voxHits),
              static_cast<double>(rp.voxHits + rp.voxMisses));
    out.layers["lift_acoustics.kernel_ir_ms"] =
        spanSelfMs("lift_acoustics.kernel_ir");
    out.layers["lift_acoustics.construct_cold_ms"] = mean(rp.coldMs);
    out.layers["lift_acoustics.construct_warm_ms"] = mean(rp.warmMs);
    out.layers["lift_acoustics.first_step_ms"] = mean(rp.firstStepMs);
    out.layers["lift_acoustics.step_us"] =
        spanSelfMs("lift_acoustics.step") * 1e3;
    const double steps = static_cast<double>(rp.steadySteps);
    out.layers["lift_acoustics.volume_us"] = ratio(rp.volMs * 1e3, steps);
    out.layers["lift_acoustics.boundary_us"] = ratio(rp.bndMs * 1e3, steps);
    out.layers["lift_acoustics.sample_us"] =
        spanSelfMs("lift_acoustics.sample") * 1e3;
    out.layers["ir.typecheck_ms"] = spanSelfMs("ir.typecheck");
    out.layers["analysis.verify_ms"] = spanSelfMs("analysis.verify");
    out.layers["analysis.translation_ms"] = spanSelfMs("analysis.translation");
    out.layers["codegen.generate_ms"] = spanSelfMs("codegen.generate");
    out.layers["codegen.source_kb"] =
        ratio(static_cast<double>(rp.sourceBytes) / 1024.0,
              static_cast<double>(rp.generated));
    out.layers["host.compile_ms"] = spanSelfMs("host.compile");
    out.layers["ocl.jit_compiled"] = static_cast<double>(rp.jitCompiled);
    out.layers["ocl.jit_hit_ratio"] =
        ratio(static_cast<double>(rp.jitHits),
              static_cast<double>(rp.jitHits + rp.jitMisses));
    out.layers["ocl.jit_compile_ms"] = spanSelfMs("ocl.jit_compile");
    out.layers["ocl.compiles_per_new_room"] =
        ratio(static_cast<double>(rp.newRoomCompiles),
              static_cast<double>(rp.newRooms));
    out.layers["service.queue_wait_ms"] = median(queueWait);
    out.layers["service.overhead_ms"] = median(overhead);
  }
}

}  // namespace perfbench
