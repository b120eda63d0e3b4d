#pragma once

#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hpp"

namespace dcfa::sim {

/// How much of the event stream also goes to stderr (DCFA_SIM_LOG=0..3).
enum class Verbosity : std::uint8_t { Off = 0, Error = 1, Info = 2, Trace = 3 };

/// The row an event lands on: one layer of one node, or one rank. Interned
/// on first use; its name ("node1.hca", "rank3.faults") is built only when
/// the trace is serialised or an event is echoed to stderr.
struct Track {
  enum Kind : std::uint8_t { Rank, Faults, Cmd, Delegate, Dma, Hca, kKinds };
  Kind kind;
  int index;  ///< rank for Rank/Faults, node for the rest
};

/// Timeline recorder producing Chrome trace-event JSON ("catapult" format,
/// loadable in chrome://tracing or https://ui.perfetto.dev). Components emit
/// spans and instant markers against the virtual clock; each track (rank,
/// DMA engine, HCA, delegation process) appears as its own row.
///
/// An event name is a printf format plus up to three 32- or 64-bit numeric
/// or C-string arguments ("rdma-write %zuB", bytes), stored as given and
/// formatted only in to_json. A `const char*` argument must outlive the
/// recorder (a literal, or a name table entry).
class Tracer {
 public:
  /// A span of [start, end) on `track`.
  template <typename... A>
  void span(Track track, Time start, Time end, const char* name, A... args) {
    record('X', track, start, end > start ? end - start : 0, 0, name,
           args...);
  }
  /// A zero-duration marker.
  template <typename... A>
  void instant(Track track, Time at, const char* name, A... args) {
    record('i', track, at, 0, 0, name, args...);
  }
  /// A numeric counter sample (rendered as a graph row).
  void counter(Track track, const char* series, Time at, double value) {
    record('C', track, at, 0, value, series);
  }

  /// Serialise everything recorded so far as Chrome trace JSON.
  std::string to_json() const;
  /// Write to_json() to `path`; throws std::runtime_error naming the path
  /// if the file cannot be opened, written or closed.
  void write(const std::string& path) const;

  std::size_t events() const { return events_.size(); }

  /// printf into a std::string sized to the result. No arguments: `fmt`
  /// verbatim, so a literal name may contain '%'.
  template <typename... A>
  static std::string format(const char* fmt, A... args) {
    if constexpr (sizeof...(A) == 0) {
      return fmt;
    } else {
      const int n = std::snprintf(nullptr, 0, fmt, args...);
      std::string out(n > 0 ? n : 0, '\0');
      std::snprintf(out.data(), out.size() + 1, fmt, args...);
      return out;
    }
  }
  /// "rank3", "node1.hca", ...
  static std::string track_name(Track track);

 private:
  /// Formats an event's name from its stored arguments.
  using Render = std::string (*)(const char* fmt, const std::uint64_t* args);

  struct Event {
    char phase;  // 'X' complete span, 'i' instant, 'C' counter
    std::uint32_t tid;
    Time start;
    Time duration;
    double value;
    const char* name;
    Render render;  ///< null: `name` is the text as is
    std::uint64_t args[3];  ///< the arguments' bytes, as passed
  };

  template <typename... A>
  static std::string render(const char* fmt, const std::uint64_t* args) {
    return [&]<std::size_t... I>(std::index_sequence<I...>) {
      return format(fmt, std::bit_cast<A>(
                             static_cast<Bits<A>>(args[I]))...);
    }(std::index_sequence_for<A...>{});
  }
  /// Unsigned integer of T's width, to round-trip T through a slot.
  template <typename T>
  using Bits = std::conditional_t<sizeof(T) == 8, std::uint64_t,
                                  std::uint32_t>;

  template <typename... A>
  void record(char phase, Track track, Time start, Time duration,
              double value, const char* name, A... args) {
    static_assert(sizeof...(A) <= std::size(Event{}.args),
                  "too many trace name arguments");
    static_assert(((std::is_arithmetic_v<A> || std::is_pointer_v<A>) && ...) &&
                      ((sizeof(A) == 4 || sizeof(A) == 8) && ...),
                  "trace arguments are int-sized numbers or C strings");
    Event e{phase, intern(track), start, duration, value, name, nullptr, {}};
    if constexpr (sizeof...(A) > 0) {
      e.render = &render<A...>;
      std::size_t i = 0;
      ((e.args[i++] = std::bit_cast<Bits<A>>(args)), ...);
    }
    events_.push_back(e);
  }

  /// Chrome "tid" of `track`, assigned in order of first use.
  std::uint32_t intern(Track track);

  std::vector<Event> events_;
  std::vector<Track> tracks_;  ///< by tid
  std::vector<std::uint32_t> tids_[Track::kKinds];  ///< index -> tid + 1
};

/// One cluster's telemetry sink, owned by its sim::Engine: the timeline
/// recorder (null until enable_tracing, so every call costs a pointer test
/// when tracing is off) and the stderr echo at the level DCFA_SIM_LOG names
/// when the engine is built. Instants and counters are stamped with the
/// engine's clock.
class Telemetry {
 public:
  explicit Telemetry(const Time& clock);

  /// The recorder, or nullptr while tracing is off.
  Tracer* tracer() const { return tracer_.get(); }
  /// Start recording (idempotent).
  Tracer& enable_tracing();

  template <typename... A>
  void span(Track track, Time start, Time end, const char* name, A... args) {
    if (tracer_) tracer_->span(track, start, end, name, args...);
  }
  template <typename... A>
  void instant(Track track, const char* name, A... args) {
    if (tracer_) tracer_->instant(track, clock_, name, args...);
  }
  /// An instant that also goes to stderr at `lv`, as
  /// "[time] [track] name detail". `name` and `detail` are both formatted
  /// from `args`: a site gives its fields to one of them (the trace name
  /// takes the leading arguments it names and ignores the rest).
  template <typename... A>
  void event(Verbosity lv, Track track, const char* name, const char* detail,
             A... args) {
    instant(track, name, args...);
    if (lv <= level_) echo(track, name, detail, args...);
  }
  /// A stderr-only line at `lv`, as "[time] [track] text".
  template <typename... A>
  void log(Verbosity lv, Track track, const char* fmt, A... args) {
    if (lv <= level_) echo(track, fmt, nullptr, args...);
  }

 private:
  template <typename... A>
  void echo(Track track, const char* name, const char* detail,
            A... args) const {
    print(track, Tracer::format(name, args...),
          detail ? Tracer::format(detail, args...) : std::string());
  }
  /// Writes "[time] [track] text", then " detail" when there is one.
  void print(Track track, const std::string& text,
             const std::string& detail) const;

  const Time& clock_;
  std::unique_ptr<Tracer> tracer_;
  Verbosity level_;
};

}  // namespace dcfa::sim
