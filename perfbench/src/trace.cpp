#include "trace.hpp"

#include <chrono>

#include "common/json_writer.hpp"

namespace perfbench {

std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

int Tracer::open(const std::string& name) {
  Record r;
  r.name = name;
  r.request = request_;
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.startNs = nowNs();
  records_.push_back(std::move(r));
  const int index = static_cast<int>(records_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  records_[static_cast<std::size_t>(index)].endNs = nowNs();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::map<std::string, Tracer::Totals> Tracer::totals() const {
  std::vector<double> childMs(records_.size(), 0.0);
  for (const auto& r : records_) {
    if (r.parent >= 0) {
      childMs[static_cast<std::size_t>(r.parent)] +=
          static_cast<double>(r.endNs - r.startNs) / 1e6;
    }
  }
  std::map<std::string, Totals> out;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    const double ms = static_cast<double>(r.endNs - r.startNs) / 1e6;
    Totals& t = out[r.name];
    ++t.calls;
    t.totalMs += ms;
    t.selfMs += ms - childMs[i];
  }
  return out;
}

void Tracer::writeChromeTrace(const std::string& path) const {
  const std::int64_t origin = records_.empty() ? 0 : records_.front().startNs;
  lifta::JsonWriter json;
  json.beginObject().key("traceEvents").beginArray();
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const auto& r = records_[i];
    json.beginObject()
        .field("name", r.name)
        .field("cat", r.name.substr(0, r.name.find('.')))
        .field("ph", "X")
        .field("ts", static_cast<double>(r.startNs - origin) / 1e3, 3)
        .field("dur", static_cast<double>(r.endNs - r.startNs) / 1e3, 3)
        .field("pid", 1)
        .field("tid", 1);
    json.key("args")
        .beginObject()
        .field("id", static_cast<std::uint64_t>(i))
        .field("parent", static_cast<std::int64_t>(r.parent))
        .field("request", r.request)
        .endObject();
    json.endObject();
  }
  json.endArray().field("displayTimeUnit", "ms").endObject();
  json.writeFile(path);
}

}  // namespace perfbench
