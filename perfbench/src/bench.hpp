// Shared types of the benchmark program: options, the per-run result every
// workload fills in, and small measurement helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "acoustics/geometry.hpp"
#include "acoustics/step_profiler.hpp"
#include "ocl/jit.hpp"
#include "service/rir_service.hpp"

namespace perfbench {

/// Every timed phase runs at least this many jobs, so at least ten
/// samples lie beyond job_p90_ms.
constexpr std::size_t kMinTimedJobs = 100;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int nproc = 1;          // CPUs this process may run on
  std::string workDir;    // per-run scratch; run.py removes it
  std::string traceOut;   // Chrome trace path (traced runs)
  std::string resultOut;  // result JSON path
};

/// What one run measured. End-to-end metrics are derived from the raw
/// samples in main.cpp; `counters` must repeat exactly for one seed.
struct Result {
  std::vector<double> setupS;     // one sample per set-up
  std::vector<double> latencyMs;  // one sample per timed job
  double timedWallS = 0.0;
  double peakRssMb = 0.0;       // VmHWM when the timed phase ends
  std::uint64_t rirs = 0;       // receiver traces completed while timed
  std::uint64_t cellSteps = 0;  // inside-cell updates while timed
  std::uint64_t attempted = 0;  // timed jobs + output checks
  std::uint64_t failed = 0;
  std::vector<std::string> failures;

  std::map<std::string, std::string> counters;
  std::map<std::string, double> layers;  // traced runs only
  std::map<std::string, std::string> record;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 20) failures.push_back(why);
  }
  /// Counts one attempted output check; records a failure unless `ok`.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail("check failed: " + what);
  }
};

void runDeviceNewRooms(const Options& opt, Result& out);
void runDatasetIsm(const Options& opt, Result& out);
void runDatasetHybrid(const Options& opt, Result& out);

// ---- helpers (util.cpp) ---------------------------------------------------

double seconds(std::int64_t ns);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);
/// CPU seconds used by this process (all threads) so far.
double processCpuSeconds();
/// Peak resident set size of this process so far, MB (VmHWM).
double readPeakRssMb();
/// Starts a set-up from a clean memory baseline: returns the free memory
/// earlier set-ups left in the allocator to the system and restarts the
/// VmHWM peak, so peak_rss_mb covers the last set-up and the timed phase.
void resetMemoryBaseline();

/// `submitted == completed + cancelled + timedOut + rejected + failed`,
/// valid whenever no job is in flight.
bool countersAddUp(const lifta::service::ServiceMetrics& m);

/// Submits `spec`, waits for it and checks the service counters after the
/// wait. Returns the result; `latencyMs` receives submit-to-terminal time.
lifta::service::RirResult runJob(lifta::service::RirService& svc,
                                 lifta::service::RirJobSpec spec,
                                 double& latencyMs, Result& out);

/// A uniformly drawn grid cell inside `room` (seeded; the caller's RNG).
template <typename Rng>
lifta::acoustics::Receiver insideCell(const lifta::acoustics::Room& room,
                                      Rng& rng) {
  for (;;) {
    const int x = static_cast<int>(rng.uniformInt(1, room.nx - 2));
    const int y = static_cast<int>(rng.uniformInt(1, room.ny - 2));
    const int z = static_cast<int>(rng.uniformInt(1, room.nz - 2));
    if (room.inside(x, y, z)) return {x, y, z};
  }
}

/// Bitwise equality of two trace sets.
bool sameBits(const std::vector<std::vector<double>>& a,
              const std::vector<std::vector<double>>& b);

/// Mean self time per call of the spans named `name`, ms (0 if none).
double spanSelfMs(const std::string& name);

/// num / den, or 0 when nothing was counted.
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Reference-tier StepProfiler samples summed over jobs.
struct StepTotals {
  double stepMs = 0.0, volumeMs = 0.0, boundaryMs = 0.0;
  std::uint64_t steps = 0;
  void add(const lifta::acoustics::StepProfiler& p);
  /// acoustics.step_us (wall per step), .volume_us and .boundary_us (CPU
  /// time per step summed over tasks) and .boundary_share.
  void report(Result& out) const;
};

/// Records the exact counters of device_new_rooms: the
/// service's cell-steps, voxel-cache misses and JIT compiles since the
/// given snapshots, and the job count.
void recordJobCounters(Result& out, const lifta::service::RirService& svc,
                       const lifta::service::ServiceMetrics& m0,
                       const lifta::acoustics::VoxelCacheStats& v0,
                       const lifta::ocl::Jit::Stats& j0, std::size_t jobs);

}  // namespace perfbench
