#include "spans.h"

#include <fstream>

#include "common/json.h"

namespace perfbench {

SpanLog::SpanLog(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double SpanLog::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int64_t SpanLog::Open(const std::string& name) {
  if (!enabled_) return -1;
  SpanRecord span;
  span.name = name;
  span.id = static_cast<int64_t>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_us = NowUs();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanLog::Close(int64_t id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end_us = NowUs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

mllibstar::Status SpanLog::WriteJson(const std::string& path) const {
  using mllibstar::JsonValue;
  JsonValue doc = JsonValue::Array();
  for (const SpanRecord& s : spans_) {
    JsonValue span = JsonValue::Object();
    span.Set("name", JsonValue::Str(s.name));
    span.Set("id", JsonValue::Number(s.id));
    span.Set("parent", JsonValue::Number(s.parent));
    span.Set("start_us", JsonValue::Number(s.start_us));
    span.Set("end_us", JsonValue::Number(s.end_us));
    doc.Append(std::move(span));
  }
  std::ofstream out(path);
  if (!out) return mllibstar::Status::IoError("cannot write " + path);
  out << doc.Dump(1) << "\n";
  return out ? mllibstar::Status::Ok()
             : mllibstar::Status::IoError("short write to " + path);
}

}  // namespace perfbench
