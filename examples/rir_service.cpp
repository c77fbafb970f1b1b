// RIR job service walkthrough: submit a batch of room-impulse-response jobs
// (different rooms, boundary models and priorities) to the concurrent job
// service, watch the scheduler at work — priority ordering, a cancellation,
// a deadline, a checkpoint/resume pair — and print the service metrics.
//
//   ./rir_service [--steps 400] [--workers 2] [--wav-dir .]
//
// This is the batch front-end a production deployment would drive; see
// quickstart.cpp for the single-simulation API underneath.
#include <cstdio>

#include <string>
#include <vector>

#include "common/cli.hpp"
#include "service/rir_service.hpp"

using namespace lifta;
using namespace lifta::acoustics;
using namespace lifta::service;

namespace {

RirJobSpec baseSpec(RoomShape shape, BoundaryModel model, int n, int steps) {
  RirJobSpec spec;
  spec.room = Room{shape, n, (n * 3) / 4, n / 2};
  spec.model = model;
  const bool mm = model == BoundaryModel::FiMm || model == BoundaryModel::FdMm;
  spec.numMaterials = mm ? 3 : 1;
  spec.numBranches = model == BoundaryModel::FdMm ? 3 : 0;
  spec.steps = steps;
  spec.sources.push_back({spec.room.nx / 3, spec.room.ny / 3, spec.room.nz / 2,
                          1.0});
  spec.receivers.push_back(
      {(spec.room.nx * 3) / 4, (spec.room.ny * 2) / 3, spec.room.nz / 2});
  return spec;
}

RirResult report(RirService& svc, const char* label, RirService::JobId id) {
  RirResult r = svc.wait(id);
  std::printf("  job %llu %-14s -> %-9s  steps=%-4d  wait=%6.2f ms  "
              "run=%7.2f ms  %6.2f Mcells/s%s%s\n",
              static_cast<unsigned long long>(id), label,
              jobStatusName(r.status), r.stepsDone, r.queueWaitMs, r.runMs,
              r.mcellsPerSecond, r.error.empty() ? "" : "  — ",
              r.error.c_str());
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const CliArgs args = CliArgs::parse(argc, argv);
  const int steps = static_cast<int>(args.getInt("steps", 400));
  const std::string wavDir = args.getString("wav-dir", "");

  RirService::Config cfg;
  cfg.workers = static_cast<int>(args.getInt("workers", 2));
  RirService svc(cfg);
  std::printf("service: %d executors, %.1f GiB memory budget\n\n",
              svc.config().workers,
              static_cast<double>(svc.config().memoryBudgetBytes) /
                  (1024.0 * 1024.0 * 1024.0));

  // 1. A mixed batch: four models, two shapes, urgent job jumps the queue.
  std::printf("mixed batch (priority 5 submitted LAST but runs early):\n");
  auto a = baseSpec(RoomShape::Box, BoundaryModel::FusedFi, 48, steps);
  auto b = baseSpec(RoomShape::Dome, BoundaryModel::FiSplit, 44, steps);
  auto c = baseSpec(RoomShape::LShape, BoundaryModel::FiMm, 48, steps);
  // The default receiver corner is the L-shape's removed quadrant; listen
  // next to the source instead.
  c.receivers = {{c.room.nx / 3 + 2, c.room.ny / 3, c.room.nz / 2}};
  auto d = baseSpec(RoomShape::Cylinder, BoundaryModel::FdMm, 40, steps);
  d.priority = 5;
  d.wavDir = wavDir;  // also demonstrate WAV export for the urgent job
  const auto idA = svc.submit(a), idB = svc.submit(b), idC = svc.submit(c),
             idD = svc.submit(d);
  report(svc, "fused-fi box", idA);
  report(svc, "fi-split dome", idB);
  report(svc, "fi-mm l-shape", idC);
  const RirResult rD = report(svc, "fd-mm cylinder", idD);
  for (const auto& p : rD.wavPaths) std::printf("  wrote %s\n", p.c_str());

  // 2. Cancellation: a long job is cancelled mid-run; partial trace kept.
  std::printf("\ncancellation (stop a %d-step job after it starts):\n",
              steps * 50);
  auto longJob = baseSpec(RoomShape::Box, BoundaryModel::FiMm, 48, steps * 50);
  const auto idLong = svc.submit(longJob);
  while (svc.status(idLong) == JobStatus::Queued) {}
  svc.cancel(idLong);
  report(svc, "cancelled", idLong);

  // 3. Deadline: 1 ms from submission — expires at step granularity.
  std::printf("\ndeadline (1 ms budget for a %d-step job):\n", steps * 50);
  auto late = baseSpec(RoomShape::Box, BoundaryModel::FiMm, 48, steps * 50);
  late.timeoutMs = 1.0;
  report(svc, "deadline", svc.submit(late));

  // 4. Checkpoint/resume: run half, checkpoint, resume to the full count.
  std::printf("\ncheckpoint/resume (run %d steps, restore, finish %d):\n",
              steps / 2, steps);
  const std::string ck = "rir_service_example.ck";
  auto first = baseSpec(RoomShape::Dome, BoundaryModel::FdMm, 40, steps / 2);
  first.checkpointPath = ck;
  first.checkpointEverySteps = steps / 2;
  report(svc, "first half", svc.submit(first));
  auto second = baseSpec(RoomShape::Dome, BoundaryModel::FdMm, 40, steps);
  second.resumeFrom = ck;
  report(svc, "resumed half", svc.submit(second));
  std::remove(ck.c_str());

  svc.drain();
  std::printf("\nservice metrics:\n%s\n", svc.metrics().toJson().c_str());
  return 0;
}
