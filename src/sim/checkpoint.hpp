#pragma once
// Versioned binary snapshot format for deterministic checkpoint/resume
// (docs/checkpoint.md). A checkpoint file is
//
//   magic "aquamac-ckpt-v1" | scenario text | checkpoint time |
//   state payload | FNV-1a digest over everything before it
//
// all length-prefixed little-endian. The scenario text is the exact
// save_scenario stream (round-trips losslessly since the max_digits10
// fix), so a checkpoint is self-contained: resume rebuilds the network
// from the embedded scenario, replays the deterministic prefix to the
// checkpoint time, and then verifies the replayed state byte-for-byte
// against the payload — any divergence, corruption or version skew is a
// hard CheckpointError, never a silently different run.
//
// The payload itself is a tree of named sections (name + length-framed
// body), written by StateWriter and decoded by StateReader. Sections
// make mismatches diagnosable: describe_payload_difference names the
// innermost section whose bytes differ instead of "digest mismatch".
//
// Every stateful type describes its state once, in a
// `void visit_state(StateArchive&)` member. A StateArchive either writes
// through a StateWriter or reads through a StateReader, so one body
// drives both directions and the two cannot drift apart; save_state /
// restore_state below are the only entry points.

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "util/time.hpp"

namespace aquamac {

class EventHandle;
class Rng;
struct Vec3;

/// Any checkpoint failure: truncated or corrupted file, version skew,
/// or replayed state diverging from the stored payload.
class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Format magic; bump the suffix on any incompatible layout change.
inline constexpr std::string_view kCheckpointMagic = "aquamac-ckpt-v1";

inline constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// FNV-1a over a byte string (same mix HashTrace uses per event).
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t seed = kFnvOffsetBasis);

/// Append-only little-endian encoder for checkpoint payloads.
/// Where StateWriter put one section: its name, the index of its
/// enclosing section (kNoSection at the top level) and the [begin, end)
/// byte range of its header and body. Listed in the order sections open,
/// so a parent precedes its children.
struct SectionSpan {
  static constexpr std::size_t kNoSection = static_cast<std::size_t>(-1);
  std::string name;
  std::size_t parent{kNoSection};
  std::size_t begin{0};
  std::size_t end{0};
};

class StateWriter {
 public:
  void write_u8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v);
  void write_f64(double v);  ///< exact bit pattern, round-trips NaN/-0.0
  void write_bool(bool v) { write_u8(v ? 1 : 0); }
  void write_string(std::string_view v);
  void write_time(Time t);
  void write_duration(Duration d);

  /// Frames everything `body` writes as a named section. Nestable.
  void section(std::string_view name, const std::function<void(StateWriter&)>& body);

  [[nodiscard]] const std::string& bytes() const { return buf_; }
  [[nodiscard]] const std::vector<SectionSpan>& sections() const { return sections_; }

 private:
  std::string buf_;
  std::vector<SectionSpan> sections_;
  std::size_t open_{SectionSpan::kNoSection};  ///< innermost open section
};

/// Bounds-checked decoder over a payload produced by StateWriter. Every
/// underflow or section-name mismatch throws CheckpointError.
class StateReader {
 public:
  explicit StateReader(std::string_view bytes) : bytes_{bytes} {}

  [[nodiscard]] std::uint8_t read_u8();
  [[nodiscard]] std::uint32_t read_u32();
  [[nodiscard]] std::uint64_t read_u64();
  [[nodiscard]] std::int64_t read_i64();
  [[nodiscard]] double read_f64();
  [[nodiscard]] bool read_bool();
  [[nodiscard]] std::string read_string();
  [[nodiscard]] Time read_time();
  [[nodiscard]] Duration read_duration();

  /// Enters the next section, which must be named `name`; `body` must
  /// consume its bytes exactly (anything else is a layout drift bug).
  void section(std::string_view name, const std::function<void(StateReader&)>& body);

  [[nodiscard]] std::size_t remaining() const { return bytes_.size() - pos_; }

 private:
  [[nodiscard]] std::string_view take(std::size_t n);

  std::string_view bytes_;
  std::size_t pos_{0};
};

/// One state description, two directions: saving writes every visited
/// field, loading reads it back into the same field. Wire widths follow
/// the field's type (bool/u8/u32/u64/i64/f64, Time and Duration as i64
/// nanoseconds); `as<Wire>` encodes enums and other fields at a fixed
/// width. Containers are a u64 count followed by their elements; maps
/// write each key before its value, unordered maps sorted by key.
class StateArchive {
 public:
  explicit StateArchive(StateWriter& writer) : writer_{&writer} {}
  explicit StateArchive(StateReader& reader) : reader_{&reader} {}

  [[nodiscard]] bool loading() const { return reader_ != nullptr; }

  /// Visits each argument in order: `ar(a, b, c)`.
  template <class... T>
  void operator()(T&... fields) {
    (value(fields), ...);
  }

  void value(bool& v);
  void value(std::uint8_t& v);
  void value(std::uint32_t& v);
  void value(std::uint64_t& v);
  void value(std::int64_t& v);
  void value(double& v);
  void value(Time& v);
  void value(Duration& v);
  void value(TimeInterval& v) { (*this)(v.begin, v.end); }
  void value(Vec3& v);
  void value(Rng& rng);  ///< the four xoshiro state words

  template <class T>
    requires requires(T& t, StateArchive& ar) { t.visit_state(ar); }
  void value(T& v) {
    v.visit_state(*this);
  }

  /// Encodes `v` as `Wire` (enums, narrow or wide integers).
  template <class Wire, class T>
  void as(T& v) {
    auto wire = static_cast<Wire>(v);
    value(wire);
    if (loading()) v = static_cast<T>(wire);
  }

  /// Presence bool, then the value when present.
  template <class T>
  void value(std::optional<T>& v) {
    bool present = v.has_value();
    value(present);
    if (loading()) {
      v.reset();
      if (present) v.emplace();
    }
    if (v) value(*v);
  }

  template <class T>
  void value(std::vector<T>& v) {
    sequence(v);
  }
  template <class T>
  void value(std::deque<T>& v) {
    sequence(v);
  }

  template <class T>
  void value(std::set<T>& v) {
    std::uint64_t count = v.size();
    value(count);
    if (!loading()) {
      for (T item : v) value(item);
      return;
    }
    v.clear();
    for (std::uint64_t k = 0; k < count; ++k) {
      T item{};
      value(item);
      v.insert(item);
    }
  }

  template <class K, class V>
  void value(std::map<K, V>& m) {
    std::uint64_t count = m.size();
    value(count);
    if (!loading()) {
      for (auto& [key, mapped] : m) {
        K k = key;
        (*this)(k, mapped);
      }
      return;
    }
    m.clear();
    for (std::uint64_t n = 0; n < count; ++n) read_entry(m);
  }

  /// Entries sorted by key, so the bytes never depend on hash order.
  template <class K, class V>
  void value(std::unordered_map<K, V>& m) {
    std::uint64_t count = m.size();
    value(count);
    if (!loading()) {
      std::vector<K> keys;
      keys.reserve(m.size());
      for (const auto& entry : m) keys.push_back(entry.first);
      std::sort(keys.begin(), keys.end());
      for (K key : keys) (*this)(key, m.at(key));
      return;
    }
    m.clear();
    for (std::uint64_t n = 0; n < count; ++n) read_entry(m);
  }

  /// Saving writes `v`; loading reads the stored value and throws
  /// CheckpointError when it differs from `v`. `what` is the message, or
  /// a callable building it from the stored value.
  template <class T, class What>
  void expect(const T& v, const What& what) {
    T stored = v;
    value(stored);
    if (!loading() || stored == v) return;
    if constexpr (std::is_invocable_v<const What&, const T&>) {
      throw CheckpointError(what(stored));
    } else {
      throw CheckpointError(std::string{what});
    }
  }

  /// Only an EventHandle's armed bit is shard-invariant, so that is what
  /// travels. Resume replays the prefix and re-arms live handles first,
  /// so loading cross-checks the stored bit against the replayed handle.
  void handle(const EventHandle& h);

  /// Frames everything `body` visits as a named section. Nestable.
  void section(std::string_view name, const std::function<void(StateArchive&)>& body);

 private:
  template <class Seq>
  void sequence(Seq& seq) {
    std::uint64_t count = seq.size();
    value(count);
    if (!loading()) {
      for (auto& item : seq) value(item);
      return;
    }
    seq.clear();
    for (std::uint64_t k = 0; k < count; ++k) {
      typename Seq::value_type item{};
      value(item);
      seq.push_back(std::move(item));
    }
  }

  template <class Map>
  void read_entry(Map& m) {
    typename Map::key_type key{};
    typename Map::mapped_type mapped{};
    (*this)(key, mapped);
    m.insert_or_assign(key, std::move(mapped));
  }

  StateWriter* writer_{nullptr};
  StateReader* reader_{nullptr};
};

/// The single save entry point: encodes `obj` through its visit_state.
/// Saving never mutates, which is what makes the const_cast sound (the
/// cereal / boost.serialization idiom for one `serialize` body).
template <class T>
void save_state(const T& obj, StateWriter& writer) {
  StateArchive ar{writer};
  const_cast<T&>(obj).visit_state(ar);
}

/// Decodes a payload produced by save_state into `obj`.
template <class T>
void restore_state(T& obj, StateReader& reader) {
  StateArchive ar{reader};
  obj.visit_state(ar);
}

/// One snapshot: the exact scenario it was taken from, the simulation
/// time it captures, and the encoded state payload.
struct Checkpoint {
  std::string scenario_text;
  Time at{};
  std::string payload;
  /// The payload's section layout as StateWriter wrote it, for
  /// describe_payload_difference. The container does not store it, so
  /// read_checkpoint leaves it empty.
  std::vector<SectionSpan> sections;
};

/// Serializes `ckpt` in the aquamac-ckpt-v1 container format.
void write_checkpoint(std::ostream& os, const Checkpoint& ckpt);
void write_checkpoint_file(const Checkpoint& ckpt, const std::string& path);

/// Parses and digest-verifies a container; throws CheckpointError on
/// version skew, corruption or truncation.
[[nodiscard]] Checkpoint read_checkpoint(std::istream& is);
[[nodiscard]] Checkpoint read_checkpoint_file(const std::string& path);

/// Names the innermost section of `actual` (path from the top, a repeated
/// sibling name with its ordinal: "nodes/s-fama#3") that holds the first
/// byte where the payloads differ; `sections` is the layout StateWriter
/// reported for `actual`. Empty if identical.
[[nodiscard]] std::string describe_payload_difference(std::string_view expected,
                                                      std::string_view actual,
                                                      std::span<const SectionSpan> sections);

}  // namespace aquamac
