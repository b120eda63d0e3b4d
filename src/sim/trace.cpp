#include "sim/trace.hpp"

#include <cstdlib>
#include <stdexcept>

namespace dcfa::sim {

std::string Tracer::track_name(Track track) {
  static constexpr const char* kFormat[Track::kKinds] = {
      "rank%d", "rank%d.faults", "node%d.cmd",
      "node%d.delegate", "node%d.dma", "node%d.hca"};
  return format(kFormat[track.kind], track.index);
}

std::uint32_t Tracer::intern(Track track) {
  std::vector<std::uint32_t>& tids = tids_[track.kind];
  const auto idx = static_cast<std::size_t>(track.index);
  if (idx >= tids.size()) tids.resize(idx + 1, 0);
  if (tids[idx] == 0) {
    tracks_.push_back(track);
    tids[idx] = static_cast<std::uint32_t>(tracks_.size());
  }
  return tids[idx] - 1;
}

namespace {
/// Append `s`, escaped for a JSON string, to `out`.
void append_escaped(std::string& out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}
}  // namespace

std::string Tracer::to_json() const {
  // Timestamps in Chrome traces are microseconds (floating point allowed);
  // the virtual clock is nanoseconds. Only the numeric head of each record
  // goes through a fixed buffer; names are appended at their full length.
  std::string out = "{\"traceEvents\":[\n";
  const char* sep = "";
  char buf[160];
  for (std::size_t i = 0; i < tracks_.size(); ++i) {
    std::snprintf(buf, sizeof buf,
                  "{\"ph\":\"M\",\"pid\":1,\"tid\":%zu,\"name\":"
                  "\"thread_name\",\"args\":{\"name\":\"",
                  i);
    out += sep;
    out += buf;
    append_escaped(out, track_name(tracks_[i]));
    out += "\"}}";
    sep = ",\n";
  }
  for (const Event& e : events_) {
    const double ts = static_cast<double>(e.start) / 1e3;
    switch (e.phase) {
      case 'X':
        std::snprintf(buf, sizeof buf,
                      "{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                      "\"dur\":%.3f,\"name\":\"",
                      e.tid, ts, static_cast<double>(e.duration) / 1e3);
        break;
      case 'i':
        std::snprintf(buf, sizeof buf,
                      "{\"ph\":\"i\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                      "\"s\":\"t\",\"name\":\"",
                      e.tid, ts);
        break;
      case 'C':
        std::snprintf(buf, sizeof buf,
                      "{\"ph\":\"C\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                      "\"name\":\"",
                      e.tid, ts);
        break;
    }
    out += sep;
    out += buf;
    append_escaped(out, e.render ? e.render(e.name, e.args) : e.name);
    if (e.phase == 'C') {
      std::snprintf(buf, sizeof buf, "\",\"args\":{\"value\":%g}}", e.value);
      out += buf;
    } else {
      out += "\"}";
    }
    sep = ",\n";
  }
  out += "\n]}\n";
  return out;
}

void Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("Tracer::write: cannot open " + path);
  const std::string json = to_json();
  const bool wrote =
      std::fwrite(json.data(), 1, json.size(), f) == json.size();
  // fclose flushes: a full device usually surfaces here, not in fwrite.
  if (std::fclose(f) != 0 || !wrote) {
    throw std::runtime_error("Tracer::write: cannot write " + path);
  }
}

Telemetry::Telemetry(const Time& clock)
    : clock_(clock), level_([] {
        const char* env = std::getenv("DCFA_SIM_LOG");
        const int v = env ? std::atoi(env) : 0;
        return v >= 0 && v <= 3 ? static_cast<Verbosity>(v) : Verbosity::Off;
      }()) {}

Tracer& Telemetry::enable_tracing() {
  if (!tracer_) tracer_ = std::make_unique<Tracer>();
  return *tracer_;
}

void Telemetry::print(Track track, const std::string& text,
                      const std::string& detail) const {
  std::fprintf(stderr, "[%s] [%s] %s%s%s\n", format_time(clock_).c_str(),
               Tracer::track_name(track).c_str(), text.c_str(),
               detail.empty() ? "" : " ", detail.c_str());
}

}  // namespace dcfa::sim
