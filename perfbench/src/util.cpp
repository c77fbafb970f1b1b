#include <algorithm>
#include <cstring>
#include <ctime>
#include <malloc.h>
#include <fstream>
#include <numeric>
#include <string>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace lifta;

double seconds(std::int64_t ns) { return static_cast<double>(ns) / 1e9; }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  return (*std::max_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid)) + hi) / 2.0;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double processCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

double readPeakRssMb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

void resetMemoryBaseline() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

bool countersAddUp(const service::ServiceMetrics& m) {
  return m.submitted ==
         m.completed + m.cancelled + m.timedOut + m.rejected + m.failed;
}

service::RirResult runJob(service::RirService& svc, service::RirJobSpec spec,
                          double& latencyMs, Result& out) {
  ++out.attempted;
  const std::int64_t t0 = nowNs();
  service::RirService::JobId id = 0;
  {
    Span s("service.submit");
    id = svc.submit(std::move(spec));
  }
  service::RirResult r;
  {
    Span s("service.wait");
    r = svc.wait(id);
  }
  latencyMs = static_cast<double>(nowNs() - t0) / 1e6;
  if (r.status != service::JobStatus::Done) {
    out.fail(std::string("job ") + std::to_string(id) + " ended " +
             service::jobStatusName(r.status) + ": " + r.error);
  }
  if (!countersAddUp(svc.metrics())) {
    out.fail("service counters do not add up after job " + std::to_string(id));
  }
  return r;
}

bool sameBits(const std::vector<std::vector<double>>& a,
              const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    if (!a[i].empty() &&
        std::memcmp(a[i].data(), b[i].data(), a[i].size() * sizeof(double)) !=
            0) {
      return false;
    }
  }
  return true;
}

double spanSelfMs(const std::string& name) {
  const auto totals = Tracer::instance().totals();
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.calls == 0) return 0.0;
  return it->second.selfMs / static_cast<double>(it->second.calls);
}

void StepTotals::add(const acoustics::StepProfiler& p) {
  for (const double v : p.stepWallMs()) stepMs += v;
  for (const double v : p.volumeMs()) volumeMs += v;
  for (const double v : p.boundaryMs()) boundaryMs += v;
  steps += p.steps();
}

void StepTotals::report(Result& out) const {
  const double n = static_cast<double>(steps);
  out.layers["acoustics.step_us"] = ratio(stepMs * 1e3, n);
  out.layers["acoustics.volume_us"] = ratio(volumeMs * 1e3, n);
  out.layers["acoustics.boundary_us"] = ratio(boundaryMs * 1e3, n);
  out.layers["acoustics.boundary_share"] =
      ratio(boundaryMs, volumeMs + boundaryMs);
}

void recordJobCounters(Result& out, const service::RirService& svc,
                       const service::ServiceMetrics& m0,
                       const acoustics::VoxelCacheStats& v0,
                       const ocl::Jit::Stats& j0, std::size_t jobs) {
  out.counters["cell_steps"] = std::to_string(
      svc.metrics().cellStepsProcessed - m0.cellStepsProcessed);
  out.counters["voxel_misses"] =
      std::to_string(acoustics::voxelCacheStats().misses - v0.misses);
  out.counters["ocl.jit_compiled"] =
      std::to_string(ocl::Jit::instance().stats().compiled - j0.compiled);
  out.counters["jobs"] = std::to_string(jobs);
}

}  // namespace perfbench
