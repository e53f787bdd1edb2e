#include "obs/trace.hpp"

#include <utility>

namespace ibgp::obs {

TraceSink::~TraceSink() { close(); }

std::string TraceSink::header_line() {
  util::json::Object header;
  header.emplace_back("schema", "ibgp-trace-v2");
  return util::json::Value(std::move(header)).dump_compact();
}

bool TraceSink::open_file(const std::string& path) {
  close();
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  file_ = file;
  writer_ = [this](std::string_view line) {
    std::fwrite(line.data(), 1, line.size(), file_);
    std::fputc('\n', file_);
  };
  seq_ = 0;
  enabled_ = true;
  write_line(header_line());
  return true;
}

void TraceSink::open_writer(TraceWriter writer) {
  close();
  const std::lock_guard<std::mutex> lock(mutex_);
  writer_ = std::move(writer);
  seq_ = 0;
  enabled_ = true;
  write_line(header_line());
}

void TraceSink::open_ring(std::size_t capacity, TraceWriter dump_writer) {
  close();
  const std::lock_guard<std::mutex> lock(mutex_);
  writer_ = std::move(dump_writer);
  ring_capacity_ = capacity == 0 ? 1 : capacity;
  ring_.clear();
  ring_.reserve(ring_capacity_);
  ring_next_ = 0;
  ring_dropped_ = 0;
  seq_ = 0;
  enabled_ = true;
}

void TraceSink::close() {
  const std::lock_guard<std::mutex> lock(mutex_);
  enabled_ = false;
  writer_ = nullptr;
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  ring_capacity_ = 0;
  ring_.clear();
  ring_next_ = 0;
}

void TraceSink::write_line(const std::string& line) {
  if (ring_capacity_ > 0) {
    if (ring_.size() < ring_capacity_) {
      ring_.push_back(line);
    } else {
      ring_[ring_next_] = line;
      ring_next_ = (ring_next_ + 1) % ring_capacity_;
      ++ring_dropped_;
    }
    return;
  }
  if (writer_) writer_(line);
}

void TraceSink::emit(std::uint64_t time, std::string_view event,
                     util::json::Object fields) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_) return;
  util::json::Object record;
  record.reserve(fields.size() + 3);
  record.emplace_back("ev", event);
  record.emplace_back("seq", seq_++);
  record.emplace_back("t", time);
  for (auto& field : fields) record.push_back(std::move(field));
  write_line(util::json::Value(std::move(record)).dump_compact());
}

void TraceSink::dump_ring() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (ring_capacity_ == 0 || !writer_) return;
  writer_(header_line());
  util::json::Object marker;
  marker.emplace_back("ev", "ring-dump");
  marker.emplace_back("retained", static_cast<std::uint64_t>(ring_.size()));
  marker.emplace_back("dropped", ring_dropped_);
  writer_(util::json::Value(std::move(marker)).dump_compact());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    writer_(ring_[(ring_next_ + i) % ring_.size()]);
  }
}

std::string_view TraceRecord::str(std::string_view key, std::string_view fallback) const {
  const util::json::Value* member = find(key);
  return member != nullptr && member->is_string() ? std::string_view(member->as_string())
                                                  : fallback;
}

std::int64_t TraceRecord::num(std::string_view key, std::int64_t fallback) const {
  const util::json::Value* member = find(key);
  if (member == nullptr) return fallback;
  if (member->is_bool()) return member->as_bool() ? 1 : 0;
  if (!member->is_integer()) return fallback;
  // Negative integers read as int64, the rest as uint64 (wrapping).
  return member->as_double() < 0 ? member->as_int()
                                 : static_cast<std::int64_t>(member->as_uint());
}

std::optional<TraceRecord> parse_trace_line(std::string_view line) {
  auto value = util::json::parse(line);
  if (!value || !value->is_object()) return std::nullopt;
  for (const auto& [key, member] : value->as_object()) {
    if (member.is_array() || member.is_object()) return std::nullopt;
  }
  return TraceRecord{*std::move(value)};
}

}  // namespace ibgp::obs
