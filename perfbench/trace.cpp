#include "trace.hpp"

#include "util/check.hpp"
#include "util/json.hpp"

namespace perfbench {

Tracer::Tracer() : origin_(Clock::now()) {
  // One reservation up front keeps the recorder from reallocating inside
  // timed passes (a full study pass records well under this).
  spans_.reserve(1 << 14);
}

int Tracer::begin(std::string_view name) {
  Span span;
  span.name = std::string(name);
  span.parent = open_.empty() ? -1 : open_.back();
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  open_.push_back(id);
  spans_.back().start = Clock::now();
  return id;
}

void Tracer::end(int id) {
  const Clock::time_point now = Clock::now();
  RENOC_CHECK_MSG(!open_.empty() && open_.back() == id,
                  "spans must close in LIFO order");
  open_.pop_back();
  spans_[static_cast<std::size_t>(id)].end = now;
}

void Tracer::annotate(int id, std::uint64_t cycles, int routers) {
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.cycles = cycles;
  span.routers = routers;
}

std::vector<double> Tracer::self_seconds() const {
  // Spans come from one thread's LIFO stack, so a span's direct children
  // are disjoint and lie inside it: the covered part is their sum.
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].seconds();
  for (const Span& span : spans_)
    if (span.parent >= 0)
      self[static_cast<std::size_t>(span.parent)] -= span.seconds();
  return self;
}

void Tracer::write_chrome_json(
    const std::string& path,
    const std::function<void(renoc::JsonWriter&)>& other_data) const {
  const std::vector<double> self = self_seconds();
  const auto micros = [this](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  };
  renoc::AtomicFile file(path);
  renoc::JsonWriter json(file.stream());
  json.begin_object();
  json.key("displayTimeUnit").string("ms");
  json.key("traceEvents").begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    const std::size_t dot = span.name.find('.');
    json.begin_object();
    json.key("name").string(span.name);
    json.key("cat").string(dot == std::string::npos
                               ? std::string_view("perfbench")
                               : std::string_view(span.name).substr(0, dot));
    json.key("ph").string("X");
    json.key("pid").integer(1);
    json.key("tid").integer(1);
    json.key("ts").real(micros(span.start), 3);
    json.key("dur").real(micros(span.end) - micros(span.start), 3);
    json.key("args").begin_object();
    json.key("self_us").real(self[i] * 1e6, 3);
    if (span.cycles > 0) {
      json.key("cycles").uinteger(span.cycles);
      json.key("routers").integer(span.routers);
    }
    json.end_object();
    json.end_object();
  }
  json.end_array();
  // Chrome's trace format carries free-form run metadata under otherData;
  // the fingerprint goes there so a trace file says where it was measured.
  json.key("otherData").begin_object();
  other_data(json);
  json.end_object();
  json.end_object();
  file.commit();
}

}  // namespace perfbench
