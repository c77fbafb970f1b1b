#include "lift_acoustics/device_simulation.hpp"

#include <algorithm>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "harness/autotune.hpp"
#include "lift_acoustics/kernels.hpp"

namespace lifta::lift_acoustics {

using acoustics::RoomGrid;

struct DeviceSimulation::Impl {
  host::HostProgram prog;
  host::HostPtr prev1G, prev2G, nextG, v1G, v2G;
  host::HostPtr volNode;  // the volume launch (for tuning)
  /// One node per boundary kernel launch: the fused kernel alone, or one
  /// per entry of `launches` under the fission schedule. Their RunStats
  /// kernel indices are 1..bndNodes.size().
  std::vector<host::HostPtr> bndNodes;
  host::HostPtr bndNode;  // last boundary node (program tail)
  std::shared_ptr<host::CompiledHostProgram> compiled;

  /// The boundary launch plan in effect; empty means the fused schedule.
  std::vector<acoustics::BoundaryLaunch> launches;

  // Host staging (double master copies; float shadows when needed).
  std::vector<double> curr, prev, next;
  std::vector<float> currF, prevF, nextF;
  std::vector<double> beta, bi, d, di, f, g1, v1, v2;
  std::vector<float> betaF, biF, dF, diF, fF, g1F, v1F, v2F;
  std::vector<std::int32_t> nbrs, bidx, mat;
  /// Per-launch slices of the class plan's sorted layout (fission only).
  std::vector<std::vector<std::int32_t>> launchCell, launchMat, launchNbr,
      launchPos;
  std::vector<std::int32_t> segStart, segKind;  // run-table variant only
  std::vector<double> nextZero;                 // initial zero "next" upload
  std::vector<float> nextZeroF;
  int segWidth = 0;
  bool uploaded = false;
};

namespace {

template <typename T>
void bindVec(host::CompiledHostProgram& c, const char* name,
             const std::vector<T>& v) {
  c.bindBuffer(name, v.data(), v.size() * sizeof(T));
}

std::vector<float> toF(const std::vector<double>& v) {
  return std::vector<float>(v.begin(), v.end());
}

/// Window width for the run-table volume kernel. Clamped to one z plane
/// per buildVolumeSegments' contract; 64 cells amortizes the per-segment
/// dispatch while keeping most windows pure interior on bench grids.
constexpr int kSegmentWidth = 64;

}  // namespace

DeviceSimulation::DeviceSimulation(ocl::Context& ctx, Config config)
    : config_(std::move(config)) {
  LIFTA_CHECK(config_.params.stable(), "Courant number exceeds the limit");
  LIFTA_CHECK(!(config_.useStencil3DVolume && config_.useRunTableVolume),
              "pick one volume kernel variant");
  grid_ = acoustics::voxelizeCached(config_.room, config_.numMaterials);
  const auto mats =
      config_.materials.empty()
          ? acoustics::defaultMaterials(
                config_.numMaterials,
                config_.model == DeviceModel::FdMm ? config_.numBranches : 0)
          : config_.materials;
  const auto fd = acoustics::deriveFdCoeffs(
      mats, config_.model == DeviceModel::FdMm ? config_.numBranches : 0,
      config_.params.Ts());

  // Resolve the boundary schedule. A plan of one mixed launch is the fused
  // kernel modulo point order — fission buys nothing there — so Auto only
  // fissions when at least one launch is specialized; with autotuning on it
  // measures both variants instead of guessing.
  auto launches = acoustics::planBoundaryLaunches(
      grid_->boundaryClasses,
      static_cast<std::int32_t>(
          std::max(0, config_.params.boundaryFissionMinPoints)));
  const bool degenerate =
      launches.size() == 1 && launches.front().fixedNbr < 0;
  bool fission = false;
  bool measuredPick = false;
  switch (config_.boundarySchedule) {
    case BoundarySchedule::Fused:
      break;
    case BoundarySchedule::Fission:
      fission = !launches.empty();
      break;
    case BoundarySchedule::Auto:
      if (launches.empty() || degenerate) {
        fission = false;
      } else if (config_.autoTuneLocalSize) {
        measuredPick = true;
      } else {
        fission = true;
      }
      break;
  }

  if (measuredPick) {
    impl_ = buildProgram(ctx, mats, fd, launches);
    autotuneLocalSizes();
    const double fisMs = measureBoundaryMs();
    auto fisImpl = std::move(impl_);
    impl_ = buildProgram(ctx, mats, fd, {});
    autotuneLocalSizes();
    const double fusMs = measureBoundaryMs();
    if (fisMs <= fusMs) impl_ = std::move(fisImpl);
  } else {
    impl_ = buildProgram(
        ctx, mats, fd,
        fission ? std::move(launches)
                : std::vector<acoustics::BoundaryLaunch>{});
    if (config_.autoTuneLocalSize) autotuneLocalSizes();
  }
}

DeviceSimulation::~DeviceSimulation() = default;

std::unique_ptr<DeviceSimulation::Impl> DeviceSimulation::buildProgram(
    ocl::Context& ctx, const std::vector<acoustics::Material>& mats,
    const acoustics::FdCoeffs& fd,
    std::vector<acoustics::BoundaryLaunch> launches) {
  auto implPtr = std::make_unique<Impl>();
  Impl& im = *implPtr;
  im.launches = std::move(launches);
  const std::size_t cells = grid_->cells();
  im.curr.assign(cells, 0.0);
  im.prev.assign(cells, 0.0);
  im.next.assign(cells, 0.0);
  im.beta = acoustics::betaTable(mats);
  im.bi = fd.BI;
  im.d = fd.D;
  im.di = fd.DI;
  im.f = fd.F;
  const std::size_t stateLen =
      (config_.model == DeviceModel::FdMm
           ? static_cast<std::size_t>(config_.numBranches)
           : 0) *
      grid_->boundaryPoints();
  im.g1.assign(stateLen, 0.0);
  im.v1.assign(stateLen, 0.0);
  im.v2.assign(stateLen, 0.0);
  im.nbrs = grid_->nbrs;
  im.bidx = grid_->boundaryIndices;
  im.mat = grid_->material;

  // --- Listing 5 host program --------------------------------------------
  auto& prog = im.prog;
  for (const char* s : {"nx", "ny", "nz", "nxny", "cells", "numB", "M"}) {
    prog.declareScalar(s, host::ScalarType::Int);
  }
  for (const char* s : {"l", "l2"}) {
    prog.declareScalar(s, host::ScalarType::Real);
  }

  im.prev1G = prog.toGPU(prog.hostParam("prev1_h"));
  im.prev2G = prog.toGPU(prog.hostParam("prev2_h"));
  auto nbrsG = prog.toGPU(prog.hostParam("nbrs_h"));
  // The flat boundary lists only ride along under the fused schedule; the
  // fission schedule uploads per-launch slices of the sorted layout instead.
  host::HostPtr boundG, matG;
  if (im.launches.empty()) {
    boundG = prog.toGPU(prog.hostParam("boundaries_h"));
    matG = prog.toGPU(prog.hostParam("material_h"));
  }
  auto betaG = prog.toGPU(prog.hostParam("beta_h"));

  host::KernelSpec volume;
  host::HostPtr volNode;
  if (config_.useRunTableVolume) {
    // Lower the interior-run plan to a fixed-width segment table uploaded
    // once; the kernel writes only segment windows, so `next` must be a
    // real (zero-filled, rotating) device buffer rather than the kernel's
    // implicit output — cells outside every segment keep their zeros.
    const auto segs = acoustics::buildVolumeSegments(
        *grid_, std::min(kSegmentWidth, grid_->nx * grid_->ny));
    im.segStart = segs.start;
    im.segKind = segs.kind;
    im.segWidth = segs.width;
    prog.declareScalar("numSeg", host::ScalarType::Int);
    prog.declareScalar("segW", host::ScalarType::Int);
    auto segStartG = prog.toGPU(prog.hostParam("segstart_h"));
    auto segKindG = prog.toGPU(prog.hostParam("segkind_h"));
    im.nextG = prog.toGPU(prog.hostParam("next0_h"));
    volume.def = liftVolumeRunsKernel(config_.precision);
    volume.args = {{im.prev2G, ""},     {im.prev1G, ""},     {nbrsG, ""},
                   {segStartG, ""},     {segKindG, ""},      {im.nextG, ""},
                   {nullptr, "nx"},     {nullptr, "nxny"},   {nullptr, "cells"},
                   {nullptr, "numSeg"}, {nullptr, "segW"},   {nullptr, "l2"}};
    volume.launchCountScalar = "numSeg";
    volNode = prog.writeTo(im.nextG, prog.kernelCall(volume));
  } else if (config_.useStencil3DVolume) {
    volume.def = liftVolumeStencil3DKernel(config_.precision);
    volume.args = {{im.prev2G, ""},  {im.prev1G, ""},  {nbrsG, ""},
                   {nullptr, "nx"},  {nullptr, "ny"},  {nullptr, "nz"},
                   {nullptr, "cells"}, {nullptr, "l2"}};
    // The Listing-6 kernel parallelizes over z planes.
    volume.launchCountScalar = "nz";
    volume.localSize = 1;
    im.nextG = prog.kernelCall(volume);
    volNode = im.nextG;
  } else {
    volume.def = liftVolumeKernel(config_.precision);
    volume.args = {{im.prev2G, ""},    {im.prev1G, ""},   {nbrsG, ""},
                   {nullptr, "nx"},    {nullptr, "nxny"}, {nullptr, "cells"},
                   {nullptr, "l2"}};
    volume.launchCountScalar = "cells";
    im.nextG = prog.kernelCall(volume);
    volNode = im.nextG;
  }

  const bool fdmm = config_.model == DeviceModel::FdMm;
  host::HostPtr biG, dG, diG, fG, g1G;
  if (fdmm) {
    biG = prog.toGPU(prog.hostParam("bi_h"));
    dG = prog.toGPU(prog.hostParam("d_h"));
    diG = prog.toGPU(prog.hostParam("di_h"));
    fG = prog.toGPU(prog.hostParam("f_h"));
    im.v1G = prog.toGPU(prog.hostParam("v1_h"));
    im.v2G = prog.toGPU(prog.hostParam("v2_h"));
    g1G = prog.toGPU(prog.hostParam("g1_h"));
  }

  host::HostPtr updated;
  if (im.launches.empty()) {
    // Fused schedule: the Listing-7/8 kernel over the original order.
    host::KernelSpec boundary;
    if (!fdmm) {
      boundary.def = liftFiMmKernel(config_.precision);
      boundary.args = {{boundG, ""},       {matG, ""},        {nbrsG, ""},
                       {betaG, ""},        {volNode, ""},     {im.prev2G, ""},
                       {nullptr, "cells"}, {nullptr, "numB"}, {nullptr, "M"},
                       {nullptr, "l"}};
    } else {
      boundary.def = liftFdMmKernel(config_.precision, config_.numBranches);
      boundary.args = {{boundG, ""},   {matG, ""},     {nbrsG, ""},
                       {betaG, ""},    {biG, ""},      {dG, ""},
                       {diG, ""},      {fG, ""},       {volNode, ""},
                       {im.prev2G, ""}, {g1G, ""},     {im.v1G, ""},
                       {im.v2G, ""},   {nullptr, "cells"}, {nullptr, "numB"},
                       {nullptr, "M"}, {nullptr, "l"}};
    }
    boundary.launchCountScalar = "numB";
    updated = prog.writeTo(volNode, prog.kernelCall(boundary));
    im.bndNodes.push_back(updated);
  } else {
    // Fission schedule: one specialized kernel per launch, chained so each
    // updates the running `next` view in place. Within a step the launches
    // write disjoint cells (cellSorted is a permutation of the boundary
    // set), so the chain order is immaterial to the result.
    const auto& cp = grid_->boundaryClasses;
    host::HostPtr cur = volNode;
    for (std::size_t k = 0; k < im.launches.size(); ++k) {
      const auto& L = im.launches[k];
      const auto b0 = static_cast<std::size_t>(L.begin);
      const auto b1 = static_cast<std::size_t>(L.end);
      im.launchCell.emplace_back(cp.cellSorted.begin() + b0,
                                 cp.cellSorted.begin() + b1);
      im.launchMat.emplace_back(cp.matSorted.begin() + b0,
                                cp.matSorted.begin() + b1);
      im.launchNbr.emplace_back(cp.nbrSorted.begin() + b0,
                                cp.nbrSorted.begin() + b1);
      im.launchPos.emplace_back(cp.order.begin() + b0, cp.order.begin() + b1);

      const std::string tag = std::to_string(k);
      const std::string countName = "count" + tag;
      prog.declareScalar(countName.c_str(), host::ScalarType::Int);
      auto cellG = prog.toGPU(prog.hostParam("cellsorted" + tag + "_h"));
      auto matSG = prog.toGPU(prog.hostParam("matsorted" + tag + "_h"));
      host::HostPtr nbrSG, posG;
      if (L.fixedNbr < 0) {
        nbrSG = prog.toGPU(prog.hostParam("nbrsorted" + tag + "_h"));
      }
      if (fdmm) {
        posG = prog.toGPU(prog.hostParam("origpos" + tag + "_h"));
      }

      host::KernelSpec b;
      if (!fdmm) {
        if (L.fixedNbr >= 0) {
          b.def = liftFiMmClassKernel(config_.precision, L.fixedNbr);
          b.args = {{cellG, ""},        {matSG, ""},
                    {betaG, ""},        {cur, ""},
                    {im.prev2G, ""},    {nullptr, "cells"},
                    {nullptr, countName}, {nullptr, "M"},
                    {nullptr, "l"}};
        } else {
          b.def = liftFiMmClassMixedKernel(config_.precision);
          b.args = {{cellG, ""},        {matSG, ""},
                    {nbrSG, ""},        {betaG, ""},
                    {cur, ""},          {im.prev2G, ""},
                    {nullptr, "cells"}, {nullptr, countName},
                    {nullptr, "M"},     {nullptr, "l"}};
        }
      } else {
        if (L.fixedNbr >= 0) {
          b.def = liftFdMmClassKernel(config_.precision, config_.numBranches,
                                      L.fixedNbr);
          b.args = {{cellG, ""},      {matSG, ""},    {posG, ""},
                    {betaG, ""},      {biG, ""},      {dG, ""},
                    {diG, ""},        {fG, ""},       {cur, ""},
                    {im.prev2G, ""},  {g1G, ""},      {im.v1G, ""},
                    {im.v2G, ""},     {nullptr, "cells"},
                    {nullptr, countName}, {nullptr, "numB"},
                    {nullptr, "M"},   {nullptr, "l"}};
        } else {
          b.def = liftFdMmClassMixedKernel(config_.precision,
                                           config_.numBranches);
          b.args = {{cellG, ""},      {matSG, ""},    {posG, ""},
                    {nbrSG, ""},      {betaG, ""},    {biG, ""},
                    {dG, ""},         {diG, ""},      {fG, ""},
                    {cur, ""},        {im.prev2G, ""}, {g1G, ""},
                    {im.v1G, ""},     {im.v2G, ""},   {nullptr, "cells"},
                    {nullptr, countName}, {nullptr, "numB"},
                    {nullptr, "M"},   {nullptr, "l"}};
        }
      }
      b.launchCountScalar = countName;
      cur = prog.writeTo(cur, prog.kernelCall(b));
      im.bndNodes.push_back(cur);
    }
    updated = cur;
  }
  im.volNode = volNode;
  im.bndNode = updated;
  // The output copy-back is on demand via sample(); bind next as output so
  // the ToHost transfer lands in im.next each run.
  prog.toHost(updated, "next_h");

  im.compiled = prog.compile(ctx, config_.precision);

  // --- static bindings -----------------------------------------------------
  auto& c = *im.compiled;
  const bool dbl = config_.precision == ir::ScalarKind::Double;
  if (!dbl) {
    im.betaF = toF(im.beta);
    im.biF = toF(im.bi);
    im.dF = toF(im.d);
    im.diF = toF(im.di);
    im.fF = toF(im.f);
    im.g1F = toF(im.g1);
    im.v1F = toF(im.v1);
    im.v2F = toF(im.v2);
  }
  bindVec(c, "nbrs_h", im.nbrs);
  if (im.launches.empty()) {
    bindVec(c, "boundaries_h", im.bidx);
    bindVec(c, "material_h", im.mat);
  }
  if (dbl) {
    bindVec(c, "beta_h", im.beta);
  } else {
    bindVec(c, "beta_h", im.betaF);
  }
  if (config_.model == DeviceModel::FdMm) {
    if (dbl) {
      bindVec(c, "bi_h", im.bi);
      bindVec(c, "d_h", im.d);
      bindVec(c, "di_h", im.di);
      bindVec(c, "f_h", im.f);
      bindVec(c, "g1_h", im.g1);
      bindVec(c, "v1_h", im.v1);
      bindVec(c, "v2_h", im.v2);
    } else {
      bindVec(c, "bi_h", im.biF);
      bindVec(c, "d_h", im.dF);
      bindVec(c, "di_h", im.diF);
      bindVec(c, "f_h", im.fF);
      bindVec(c, "g1_h", im.g1F);
      bindVec(c, "v1_h", im.v1F);
      bindVec(c, "v2_h", im.v2F);
    }
  }
  if (config_.useRunTableVolume) {
    bindVec(c, "segstart_h", im.segStart);
    bindVec(c, "segkind_h", im.segKind);
    if (dbl) {
      im.nextZero.assign(cells, 0.0);
      bindVec(c, "next0_h", im.nextZero);
    } else {
      im.nextZeroF.assign(cells, 0.0f);
      bindVec(c, "next0_h", im.nextZeroF);
    }
    c.setInt("numSeg", static_cast<int>(im.segStart.size()));
    c.setInt("segW", im.segWidth);
  }
  for (std::size_t k = 0; k < im.launches.size(); ++k) {
    const std::string tag = std::to_string(k);
    bindVec(c, ("cellsorted" + tag + "_h").c_str(), im.launchCell[k]);
    bindVec(c, ("matsorted" + tag + "_h").c_str(), im.launchMat[k]);
    if (im.launches[k].fixedNbr < 0) {
      bindVec(c, ("nbrsorted" + tag + "_h").c_str(), im.launchNbr[k]);
    }
    if (config_.model == DeviceModel::FdMm) {
      bindVec(c, ("origpos" + tag + "_h").c_str(), im.launchPos[k]);
    }
    c.setInt(("count" + tag).c_str(),
             static_cast<int>(im.launches[k].count()));
  }
  c.setInt("nx", grid_->nx);
  c.setInt("ny", grid_->ny);
  c.setInt("nz", grid_->nz);
  c.setInt("nxny", grid_->nx * grid_->ny);
  c.setInt("cells", static_cast<int>(cells));
  c.setInt("numB", static_cast<int>(grid_->boundaryPoints()));
  c.setInt("M", static_cast<int>(im.beta.size()));
  c.setReal("l", config_.params.l());
  c.setReal("l2", config_.params.l2());
  return implPtr;
}

void DeviceSimulation::autotuneLocalSizes() {
  Impl& im = *impl_;
  auto& c = *im.compiled;
  const bool dbl = config_.precision == ir::ScalarKind::Double;
  // Bind the zero-filled initial state so the schedule can run. `uploaded`
  // stays false, so the first real step() re-binds and re-uploads pristine
  // state — the tuning runs leave no trace in simulation output.
  if (dbl) {
    bindVec(c, "prev1_h", im.curr);
    bindVec(c, "prev2_h", im.prev);
    c.bindOutput("next_h", im.next.data(), im.next.size() * sizeof(double));
  } else {
    im.currF = toF(im.curr);
    im.prevF = toF(im.prev);
    im.nextF.assign(im.next.size(), 0.0f);
    bindVec(c, "prev1_h", im.currF);
    bindVec(c, "prev2_h", im.prevF);
    c.bindOutput("next_h", im.nextF.data(), im.nextF.size() * sizeof(float));
  }
  c.run();  // materialize device buffers once at the spec defaults

  struct Target {
    host::HostPtr node;
    std::size_t kernelIdx;
  };
  std::vector<Target> targets;
  // The stencil3d volume kernel parallelizes over z planes with one plane
  // per work item; localSize = 1 is part of its contract, so skip it.
  if (!config_.useStencil3DVolume) targets.push_back({im.volNode, 0});
  // Each boundary launch is tuned independently: the classes differ in
  // size by orders of magnitude, so one shared work-group size would be
  // wrong for most of them.
  for (std::size_t k = 0; k < im.bndNodes.size(); ++k) {
    targets.push_back({im.bndNodes[k], 1 + k});
  }
  for (const auto& t : targets) {
    const auto tuned = harness::autotuneWorkGroup(
        [&](std::size_t ls) {
          c.setLocalSize(t.node, ls);
          return c.run(/*skipUploads=*/true).kernels.at(t.kernelIdx).second;
        },
        {16, 32, 64, 128, 256}, /*iters=*/5, /*warmup=*/1);
    c.setLocalSize(t.node, tuned.bestLocalSize);
  }
}

std::size_t DeviceSimulation::totalKernels() const {
  return 1 + impl_->bndNodes.size();
}

double DeviceSimulation::measureBoundaryMs() {
  auto& c = *impl_->compiled;
  double best = std::numeric_limits<double>::infinity();
  for (int it = 0; it < 3; ++it) {
    const auto stats = c.run(/*skipUploads=*/true);
    double sum = 0.0;
    for (std::size_t k = 0; k < impl_->bndNodes.size(); ++k) {
      sum += stats.kernels.at(1 + k).second;
    }
    best = std::min(best, sum);
  }
  return best;
}

std::size_t DeviceSimulation::volumeLocalSize() const {
  return impl_->compiled->localSize(impl_->volNode);
}

std::size_t DeviceSimulation::boundaryLocalSize() const {
  return impl_->compiled->localSize(impl_->bndNodes.front());
}

std::size_t DeviceSimulation::boundaryLocalSize(std::size_t launch) const {
  return impl_->compiled->localSize(impl_->bndNodes.at(launch));
}

bool DeviceSimulation::boundaryFissionActive() const {
  return !impl_->launches.empty();
}

std::size_t DeviceSimulation::boundaryLaunchCount() const {
  return impl_->bndNodes.size();
}

const std::vector<acoustics::BoundaryLaunch>&
DeviceSimulation::boundaryLaunches() const {
  return impl_->launches;
}

void DeviceSimulation::addImpulse(int x, int y, int z, double amplitude) {
  LIFTA_CHECK(!impl_->uploaded,
              "impulses must be added before the first step");
  LIFTA_CHECK(config_.room.inside(x, y, z), "impulse point is outside");
  impl_->curr[config_.room.index(x, y, z)] += amplitude;
}

double DeviceSimulation::step() {
  Impl& im = *impl_;
  auto& c = *im.compiled;
  const bool dbl = config_.precision == ir::ScalarKind::Double;

  host::CompiledHostProgram::RunStats stats;
  if (!im.uploaded) {
    if (dbl) {
      bindVec(c, "prev1_h", im.curr);
      bindVec(c, "prev2_h", im.prev);
      c.bindOutput("next_h", im.next.data(),
                   im.next.size() * sizeof(double));
    } else {
      im.currF = toF(im.curr);
      im.prevF = toF(im.prev);
      im.nextF.assign(im.next.size(), 0.0f);
      bindVec(c, "prev1_h", im.currF);
      bindVec(c, "prev2_h", im.prevF);
      c.bindOutput("next_h", im.nextF.data(),
                   im.nextF.size() * sizeof(float));
    }
    stats = c.run();
    im.uploaded = true;
  } else {
    // Rotate pressure: prev2 <- prev1 <- next <- (old prev2 storage).
    auto p1 = c.deviceBuffer(im.prev1G);
    auto p2 = c.deviceBuffer(im.prev2G);
    auto nx = c.deviceBuffer(im.nextG);
    c.setDeviceBuffer(im.prev2G, p1);
    c.setDeviceBuffer(im.prev1G, nx);
    c.setDeviceBuffer(im.nextG, p2);
    if (config_.model == DeviceModel::FdMm) {
      auto a = c.deviceBuffer(im.v1G);
      auto b = c.deviceBuffer(im.v2G);
      c.setDeviceBuffer(im.v1G, b);
      c.setDeviceBuffer(im.v2G, a);
    }
    stats = c.run(/*skipUploads=*/true);
  }
  ++steps_;
  const double vol = stats.kernels.at(0).second;
  double bnd = 0.0;
  for (std::size_t k = 0; k < im.bndNodes.size(); ++k) {
    bnd += stats.kernels.at(1 + k).second;
  }
  volumeMs_ += vol;
  boundaryMs_ += bnd;
  return (vol + bnd) > 0 ? bnd / (vol + bnd) : 0.0;
}

double DeviceSimulation::sample(int x, int y, int z) {
  Impl& im = *impl_;
  const std::size_t idx = config_.room.index(x, y, z);
  if (config_.precision == ir::ScalarKind::Double) {
    return im.next[idx];
  }
  return static_cast<double>(im.nextF[idx]);
}

std::vector<double> DeviceSimulation::record(int n, int x, int y, int z) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    step();
    out.push_back(sample(x, y, z));
  }
  return out;
}

}  // namespace lifta::lift_acoustics
