#include "service/batch.hpp"

#include <algorithm>
#include <cstring>

#include "common/error.hpp"
#include "common/file_io.hpp"
#include "common/json_writer.hpp"
#include "common/stats.hpp"
#include "common/string_util.hpp"
#include "common/wav.hpp"

namespace lifta::service {

const char* shardFormatName(ShardFormat f) {
  switch (f) {
    case ShardFormat::RawF32: return "raw-f32";
    case ShardFormat::Wav: return "wav";
  }
  return "?";
}

namespace {

void validateBatch(const BatchSpec& spec) {
  LIFTA_CHECK(spec.scenes >= 1, "batch needs at least one scene");
  LIFTA_CHECK(spec.steps >= 1, "steps must be >= 1");
  LIFTA_CHECK(spec.shardSize >= 1, "shardSize must be >= 1");
  LIFTA_CHECK(!spec.outDir.empty(), "batch needs an output directory");
}

/// Appends `trace` as little-endian float32 (the WAV writer's manual
/// little-endian layout, so shards are portable across hosts): one resize
/// per trace, then four byte stores per sample.
void appendF32(std::vector<std::uint8_t>& out,
               const std::vector<double>& trace) {
  const std::size_t at = out.size();
  out.resize(at + 4 * trace.size());
  std::uint8_t* p = out.data() + at;
  for (const double s : trace) {
    const float v = static_cast<float>(s);
    std::uint32_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    p[0] = static_cast<std::uint8_t>(bits);
    p[1] = static_cast<std::uint8_t>(bits >> 8);
    p[2] = static_cast<std::uint8_t>(bits >> 16);
    p[3] = static_cast<std::uint8_t>(bits >> 24);
    p += 4;
  }
}

}  // namespace

std::vector<RirJobSpec> expandBatch(const BatchSpec& spec) {
  validateBatch(spec);
  std::vector<RirJobSpec> jobs;
  jobs.reserve(static_cast<std::size_t>(spec.scenes));
  for (int i = 0; i < spec.scenes; ++i) {
    const ism::SampledScene scene = ism::sampleScene(spec.ranges, spec.seed, i);
    RirJobSpec job;
    job.fidelity = spec.fidelity;
    job.steps = spec.steps;
    job.params = spec.params;
    job.priority = spec.priority;
    job.ism.room = scene.room;
    job.ism.source = scene.source;
    job.ism.receivers = scene.receivers;
    job.ism.wallBeta = scene.wallBeta;
    job.ism.maxOrder = spec.maxOrder;
    job.ism.sincHalfWidth = spec.sincHalfWidth;
    job.ism.crossoverStart = spec.crossoverStart;
    job.ism.crossoverEnd = spec.crossoverEnd;
    job.ism.matchEnergyAtSplice = spec.matchEnergyAtSplice;
    if (spec.fidelity == Fidelity::Fdtd) {
      job.tier = spec.fdtdTier;
      // Pure-FDTD batches discretize the sampled scene the same way the
      // hybrid FDTD half does: box grid at params.h(), one mean-admittance
      // material, cell-snapped source and receivers.
      const double h = spec.params.h();
      job.room = acoustics::boxRoomFromMeters(scene.room.lx, scene.room.ly,
                                              scene.room.lz, h);
      job.model = acoustics::BoundaryModel::FiMm;
      job.numMaterials = 1;
      double meanBeta = 0.0;
      for (const double b : scene.wallBeta) meanBeta += b;
      job.materials = {acoustics::Material{meanBeta / ism::kNumWalls, {}}};
      job.sources.push_back(
          {acoustics::cellForPosition(scene.source.x, h, job.room.nx),
           acoustics::cellForPosition(scene.source.y, h, job.room.ny),
           acoustics::cellForPosition(scene.source.z, h, job.room.nz), 1.0});
      for (const auto& rx : scene.receivers) {
        job.receivers.push_back(
            {acoustics::cellForPosition(rx.x, h, job.room.nx),
             acoustics::cellForPosition(rx.y, h, job.room.ny),
             acoustics::cellForPosition(rx.z, h, job.room.nz)});
      }
    }
    jobs.push_back(std::move(job));
  }
  return jobs;
}

std::size_t estimateBatchMemoryBytes(const BatchSpec& spec) {
  std::size_t total = 0;
  for (const auto& job : expandBatch(spec)) {
    total += RirService::estimateMemoryBytes(job);
  }
  return total;
}

BatchResult runRirBatch(RirService& svc, const BatchSpec& spec) {
  validateBatch(spec);
  Timer wall;
  const std::vector<RirJobSpec> jobs = expandBatch(spec);

  BatchResult out;
  out.scenesRequested = spec.scenes;

  std::vector<RirService::JobId> ids;
  ids.reserve(jobs.size());
  for (const auto& job : jobs) ids.push_back(svc.submit(job));

  // Output streams in scene order: each scene is taken from the service as
  // soon as its job is terminal and encoded into the open shard (RawF32)
  // or written out (Wav) while later scenes are still running, and its
  // traces are freed once written. Waiting in scene order keeps the byte
  // layout independent of completion interleaving.
  const int receivers = spec.ranges.receiversPerScene;
  const int rate = static_cast<int>(spec.params.sampleRate);
  std::vector<std::uint8_t> shard;
  if (spec.format == ShardFormat::RawF32) {
    shard.reserve(static_cast<std::size_t>(
                      std::min(spec.shardSize, spec.scenes)) *
                  static_cast<std::size_t>(receivers) *
                  static_cast<std::size_t>(spec.steps) * 4);
  }
  int scenesInShard = 0;
  const auto flush = [&] {
    if (scenesInShard == 0) return;
    const std::string path = strformat("%s/shard_%05zu.f32",
                                       spec.outDir.c_str(),
                                       out.shardPaths.size());
    writeBytes(path, shard);
    out.shardPaths.push_back(path);
    shard.clear();
    scenesInShard = 0;
  };
  std::size_t scene = 0;
  try {
    for (; scene < ids.size(); ++scene) {
      const RirResult r = svc.wait(ids[scene]);
      out.sceneStatus.push_back(r.status);
      if (r.status != JobStatus::Done) continue;
      if (spec.format == ShardFormat::RawF32) {
        for (const auto& trace : r.traces) appendF32(shard, trace);
        if (++scenesInShard == spec.shardSize) flush();
      } else {
        for (std::size_t rx = 0; rx < r.traces.size(); ++rx) {
          const std::string path = strformat("%s/rir%05zu_rx%zu.wav",
                                             spec.outDir.c_str(), scene, rx);
          writeWav(path, r.traces[rx], rate);
          out.shardPaths.push_back(path);
        }
      }
      out.rirsWritten += static_cast<int>(r.traces.size());
      ++out.scenesWritten;
    }
    flush();
  } catch (...) {
    // A failed write ends the batch: the scenes not yet taken are
    // cancelled and collected so the service keeps none of them.
    for (std::size_t i = scene + 1; i < ids.size(); ++i) svc.cancel(ids[i]);
    for (std::size_t i = scene + 1; i < ids.size(); ++i) svc.wait(ids[i]);
    throw;
  }

  JsonWriter manifest;
  manifest.beginObject()
      .field("format", shardFormatName(spec.format))
      .field("fidelity", fidelityName(spec.fidelity))
      .field("seed", spec.seed)
      .field("scenes_requested", out.scenesRequested)
      .field("scenes_written", out.scenesWritten)
      .field("rirs_written", out.rirsWritten)
      .field("receivers_per_scene", receivers)
      .field("steps", spec.steps)
      .field("sample_rate_hz", spec.params.sampleRate, 1)
      .field("max_order", spec.maxOrder)
      .field("shard_size_scenes", spec.shardSize);
  manifest.key("shards").beginArray();
  for (const auto& path : out.shardPaths) manifest.value(path);
  manifest.endArray();
  manifest.key("scene_status").beginArray();
  for (const auto s : out.sceneStatus) manifest.value(jobStatusName(s));
  manifest.endArray();
  manifest.endObject();
  out.manifestPath = spec.outDir + "/manifest.json";
  manifest.writeFile(out.manifestPath);

  out.wallSeconds = wall.seconds();
  out.rirsPerSecond = out.wallSeconds > 0.0
                          ? static_cast<double>(out.rirsWritten) /
                                out.wallSeconds
                          : 0.0;
  return out;
}

}  // namespace lifta::service
